"""Predicate index: indexed matching == brute force, always.

The index is allowed to return candidate supersets internally, but
``match`` must post-filter to exactly the queries whose
:class:`~repro.query.BandForm` admits the tuple. Hypothesis drives
arbitrary band populations (points, closed/open/half-open intervals,
residuals, band-less and unsatisfiable forms) against arbitrary rows
and checks the match set against evaluating every form directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.tuples import DeviceTuple
from repro.query import (
    Band,
    BandForm,
    ColumnRef,
    Comparison,
    EvaluationContext,
    FunctionRegistry,
    Literal,
    PredicateIndex,
    evaluate,
)

ATTRIBUTES = ("temperature", "light", "battery")

#: A small shared value pool so endpoints, points and row values
#: collide often — the interesting cases live on the boundaries.
VALUES = st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0, 5.0, 7.5, 10.0])

FUNCTIONS = FunctionRegistry()


def interval_band(attribute, low, high, low_strict, high_strict):
    if low > high:
        low, high = high, low
    return Band(attribute, low=low, high=high,
                low_strict=low_strict, high_strict=high_strict)


def band_strategy(attribute):
    point = st.builds(
        lambda v: Band(attribute, point=v, has_point=True), VALUES)
    interval = st.builds(interval_band, st.just(attribute), VALUES,
                         VALUES, st.booleans(), st.booleans())
    open_low = st.builds(
        lambda v, strict: Band(attribute, low=v, low_strict=strict),
        VALUES, st.booleans())
    open_high = st.builds(
        lambda v, strict: Band(attribute, high=v, high_strict=strict),
        VALUES, st.booleans())
    return st.one_of(interval, point, open_low, open_high)


residuals = st.one_of(
    st.none(),
    st.builds(lambda v: Comparison(">", ColumnRef("s", "accel_x"),
                                   Literal(v)), VALUES),
)


@st.composite
def band_forms(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return BandForm(unsatisfiable=True)
    chosen = draw(st.lists(st.sampled_from(ATTRIBUTES), unique=True,
                           max_size=2))
    bands = tuple(draw(band_strategy(attribute))
                  for attribute in chosen)
    return BandForm(bands, draw(residuals))


@st.composite
def rows(draw):
    values = {attribute: draw(VALUES) for attribute in ATTRIBUTES}
    values["accel_x"] = draw(VALUES)
    return DeviceTuple(device_type="sensor", device_id="m1",
                       values=values)


def residual_test(form):
    """The row test the index files a form's residual under."""
    if form.residual is None:
        return None

    def test(row):
        context = EvaluationContext(tuples={"s": row}, functions=FUNCTIONS)
        return bool(evaluate(form.residual, context))
    return test


def brute_force(forms, row):
    context = EvaluationContext(tuples={"s": row}, functions=FUNCTIONS)
    return {f"q{i}" for i, form in enumerate(forms)
            if form.matches(row, context)}


def build_index(forms):
    index = PredicateIndex("sensor")
    for i, form in enumerate(forms):
        index.add(f"q{i}", i, form, residual_test(form))
    return index


def matched_names(index, row, admit=None):
    return {name for _seq, name
            in index.match(row, admit=admit)}


@settings(max_examples=200, deadline=None)
@given(st.lists(band_forms(), max_size=12), rows())
def test_match_set_equals_brute_force(forms, row):
    index = build_index(forms)
    assert matched_names(index, row) == brute_force(forms, row)


@settings(max_examples=100, deadline=None)
@given(st.lists(band_forms(), min_size=2, max_size=10), rows(),
       st.data())
def test_drop_and_reregister_round_trip(forms, row, data):
    index = build_index(forms)
    before = matched_names(index, row)
    victim = data.draw(st.integers(0, len(forms) - 1))
    index.remove(f"q{victim}")
    without = {name for name in brute_force(forms, row)
               if name != f"q{victim}"}
    assert matched_names(index, row) == without
    index.add(f"q{victim}", victim, forms[victim],
              residual_test(forms[victim]))
    assert matched_names(index, row) == before


@settings(max_examples=100, deadline=None)
@given(st.lists(band_forms(), max_size=10), rows())
def test_match_returns_seq_with_name(forms, row):
    index = build_index(forms)
    for seq, name in index.match(row):
        assert name == f"q{seq}"


@settings(max_examples=100, deadline=None)
@given(st.lists(band_forms(), min_size=1, max_size=10), rows())
def test_admit_prefilter_excludes_without_evaluation(forms, row):
    index = build_index(forms)
    allowed = {f"q{i}" for i in range(0, len(forms), 2)}
    names = matched_names(index, row, admit=allowed.__contains__)
    assert names == brute_force(forms, row) & allowed


def test_amortized_rebuild_keeps_matching_exact():
    """Bulk add, then bulk drop: rebuilds fire lazily at lookup time."""
    forms = [BandForm((Band("temperature", low=float(i),
                            high=float(i + 10)),))
             for i in range(300)]
    index = build_index(forms)
    sample = DeviceTuple(device_type="sensor", device_id="m1",
                         values={"temperature": 105.0})
    # First lookup folds the 300-entry overflow into the tree.
    assert matched_names(index, sample) == brute_force(forms, sample)
    assert index.stats()["rebuilds"] == 1
    for i in range(200):
        index.remove(f"q{i}")
    # Tombstones now outnumber the threshold; the next lookup rebuilds
    # again and the dead entries never resurface.
    live = {f"q{i}" for i in range(200, 300)}
    assert matched_names(index, sample) == \
        brute_force(forms, sample) & live
    assert index.stats()["rebuilds"] == 2


def test_unsatisfiable_and_bandless_forms():
    index = PredicateIndex("sensor")
    index.add("never", 0, BandForm(unsatisfiable=True))
    index.add("always", 1, BandForm())
    sample = DeviceTuple(device_type="sensor", device_id="m1",
                         values={"temperature": 1.0})
    assert matched_names(index, sample) == {"always"}
    stats = index.stats()
    assert stats["unsatisfiable_queries"] == 1
    assert stats["residual_only_queries"] == 1


def test_non_numeric_row_value_skips_interval_structures():
    index = PredicateIndex("sensor")
    index.add("ranged", 0, BandForm((Band("temperature", low=1.0),)))
    index.add("pointed", 1,
              BandForm((Band("temperature", point="hot",
                             has_point=True),)))
    sample = DeviceTuple(device_type="sensor", device_id="m1",
                         values={"temperature": "hot"})
    # The ill-typed value reaches neither bisect nor compare_values:
    # it can only equal the point bucket.
    assert matched_names(index, sample) == {"pointed"}
