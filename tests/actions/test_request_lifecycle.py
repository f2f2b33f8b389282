"""The request lifecycle table: legal moves work, terminal states absorb."""

import pytest

from repro.actions.request import TRANSITIONS, ActionRequest, RequestState
from repro.errors import AortaError

TERMINAL = (RequestState.SERVICED, RequestState.FAILED, RequestState.SHED,
            RequestState.REJECTED)

#: One call per mark_* method, keyed by the state it moves to.
MARKS = {
    RequestState.ASSIGNED: lambda r: r.mark_assigned("cam1"),
    RequestState.PENDING: lambda r: r.mark_requeued("cam1"),
    RequestState.SERVICED: lambda r: r.mark_serviced(5.0, "photo"),
    RequestState.FAILED: lambda r: r.mark_failed(5.0, "timeout"),
    RequestState.SHED: lambda r: r.mark_shed(5.0, "load-shed"),
    RequestState.REJECTED: lambda r: r.mark_rejected(5.0, "admission-rate"),
}

#: A shortest legal path from PENDING to each state.
PATHS = {
    RequestState.PENDING: (),
    RequestState.ASSIGNED: (RequestState.ASSIGNED,),
    RequestState.SERVICED: (RequestState.ASSIGNED, RequestState.SERVICED),
    RequestState.FAILED: (RequestState.ASSIGNED, RequestState.FAILED),
    RequestState.SHED: (RequestState.SHED,),
    RequestState.REJECTED: (RequestState.REJECTED,),
}

#: Every move the engine makes: dispatch, failover re-queue (of a
#: request that found no candidate, or whose device failed), completion,
#: failure before and after assignment, shedding from the queue and
#: from behind a dead device, and refusal at admission.
ENGINE_MOVES = (
    (RequestState.PENDING, RequestState.ASSIGNED),
    (RequestState.PENDING, RequestState.PENDING),
    (RequestState.PENDING, RequestState.FAILED),
    (RequestState.PENDING, RequestState.SHED),
    (RequestState.PENDING, RequestState.REJECTED),
    (RequestState.ASSIGNED, RequestState.PENDING),
    (RequestState.ASSIGNED, RequestState.SERVICED),
    (RequestState.ASSIGNED, RequestState.FAILED),
    (RequestState.ASSIGNED, RequestState.SHED),
)


def request_in(state):
    request = ActionRequest("photo", {}, candidates=("cam1", "cam2"))
    for step in PATHS[state]:
        MARKS[step](request)
    assert request.state is state
    return request


def test_table_covers_every_state_and_terminals_are_absorbing():
    assert set(TRANSITIONS) == set(RequestState)
    for state in TERMINAL:
        assert TRANSITIONS[state] == frozenset()
    legal = {(source, target) for source, targets in TRANSITIONS.items()
             for target in targets}
    assert legal == set(ENGINE_MOVES)


@pytest.mark.parametrize("source,target", ENGINE_MOVES,
                         ids=lambda state: state.value)
def test_every_engine_move_works(source, target):
    request = request_in(source)
    MARKS[target](request)
    assert request.state is target


@pytest.mark.parametrize("source", TERMINAL, ids=lambda s: s.value)
@pytest.mark.parametrize("target", list(RequestState), ids=lambda s: s.value)
def test_terminal_states_refuse_every_move(source, target):
    request = request_in(source)
    before = (request.completed_at, request.result, request.failure_reason,
              request.assigned_device, request.candidates)
    with pytest.raises(AortaError) as excinfo:
        MARKS[target](request)
    message = str(excinfo.value)
    assert request.request_id in message
    assert source.value in message and target.value in message
    assert request.state is source
    assert before == (request.completed_at, request.result,
                      request.failure_reason, request.assigned_device,
                      request.candidates)


@pytest.mark.parametrize("source,target", [
    (RequestState.PENDING, RequestState.SERVICED),
    (RequestState.ASSIGNED, RequestState.ASSIGNED),
    (RequestState.ASSIGNED, RequestState.REJECTED),
], ids=lambda state: state.value)
def test_moves_the_engine_never_makes_are_refused(source, target):
    request = request_in(source)
    with pytest.raises(AortaError, match="illegal move"):
        MARKS[target](request)
    assert request.state is source
