"""Golden identity: indexed matching must not change behaviour.

The engine compiles every AQ at registration and routes scanned rows
through the predicate index. Every scenario here also runs on engines
whose executor is the brute-force scan-all walk
(:class:`tests.query.reference.ScanAllExecutor`), and the normalized
engine dumps (full trace, statistics, serviced sets, metric snapshots)
must be identical, across observability on/off, both runtime backends,
and both fleet widths.
"""

import pytest

from repro.errors import QueryError

from tests.core.conftest import FIGURE_1, build_lab
from tests.obs.golden import diff_dumps, dump_engine
from tests.obs.scenarios import (
    continuous_outage_scenario,
    snapshot_scenario,
)
from tests.query.reference import ScanAllExecutor, scan_all_engines
from tests.shard.scenarios import (
    region_fleet_scenario,
    sharded_snapshot_scenario,
)


def assert_identical(scenario, *args, **kwargs):
    """Run ``scenario`` on scan-all and indexed engines; diff the dumps."""
    with scan_all_engines():
        baseline = scenario(*args, **kwargs)
    indexed = scenario(*args, **kwargs)
    differences = diff_dumps(dump_engine(baseline), dump_engine(indexed))
    assert not differences, "\n".join(differences)
    return baseline, indexed


@pytest.mark.parametrize("observability", [False, True])
def test_snapshot_identity(observability):
    assert_identical(snapshot_scenario, observability)


@pytest.mark.parametrize("observability", [False, True])
def test_continuous_outage_identity(observability):
    assert_identical(continuous_outage_scenario, observability)


def test_snapshot_identity_realtime_backend():
    assert_identical(snapshot_scenario, True, runtime="realtime",
                     time_scale=0.0)


def test_continuous_outage_identity_realtime_backend():
    assert_identical(continuous_outage_scenario, True, runtime="realtime",
                     time_scale=0.0)


def test_single_shard_identity():
    assert_identical(sharded_snapshot_scenario, True)


def test_four_shard_identity():
    with scan_all_engines():
        baseline = region_fleet_scenario(4, True)
    indexed = region_fleet_scenario(4, True)
    assert isinstance(baseline.shards[0].continuous, ScanAllExecutor)
    for base_shard, indexed_shard in zip(baseline.shards,
                                         indexed.shards):
        differences = diff_dumps(dump_engine(base_shard),
                                 dump_engine(indexed_shard))
        assert not differences, "\n".join(differences)


def test_bands_are_checked_before_the_residual():
    """The documented deviation from scan-all (DESIGN decision 14).

    ``s.id > 5`` raises mid-AND (a string against a number), but the
    band ``s.temperature > 1000`` rejects every row first, so the
    indexed engine cleanly detects nothing where scan-all raises.
    """
    query = '''CREATE AQ odd AS
        SELECT photo(c.ip, s.loc, "photos/odd")
        FROM sensor s, camera c
        WHERE s.id > 5 AND s.temperature > 1000
          AND coverage(c.id, s.loc)'''
    with scan_all_engines():
        scan_all = build_lab()
    scan_all.execute(query)
    scan_all.start()
    with pytest.raises(QueryError, match="cannot compare str with int"):
        scan_all.run(until=3.0)

    indexed = build_lab()
    indexed.execute(query)
    indexed.start()
    indexed.run(until=3.0)
    assert indexed.continuous.polls > 1
    assert indexed.continuous.queries["odd"].events_detected == 0


@pytest.mark.parametrize("scan_all", [False, True])
def test_idle_table_scan_and_index_retired(scan_all):
    """Dropping a table's last reader retires its scan and index."""
    if scan_all:
        with scan_all_engines():
            engine = build_lab()
    else:
        engine = build_lab()
    engine.execute(FIGURE_1)
    engine.start()
    engine.run(until=3.0)
    continuous = engine.continuous
    assert isinstance(continuous, ScanAllExecutor) == scan_all
    assert "sensor" in continuous._scans
    assert "sensor" in continuous._indexes
    engine.execute("DROP AQ snapshot")
    assert "sensor" not in continuous._queries_by_table
    assert "sensor" not in continuous._scans
    assert "sensor" not in continuous._indexes


def test_second_reader_keeps_the_scan_alive():
    engine = build_lab()
    engine.execute(FIGURE_1)
    engine.execute('''CREATE AQ hot AS
        SELECT photo(c.ip, s.loc, "photos/hot")
        FROM sensor s, camera c
        WHERE s.temperature > 90 AND coverage(c.id, s.loc)''')
    engine.start()
    engine.run(until=3.0)
    continuous = engine.continuous
    engine.execute("DROP AQ snapshot")
    assert "sensor" in continuous._scans
    assert "sensor" in continuous._indexes
    assert "snapshot" not in continuous._indexes["sensor"]
    engine.execute("DROP AQ hot")
    assert "sensor" not in continuous._scans
    assert "sensor" not in continuous._indexes
