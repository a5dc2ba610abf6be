"""Resumed sibling runs explore exactly what script replay explores.

A sibling run of the reduced DFS replays its parent's recorded schedule
in O(1) per round and restores the scheduler state the parent recorded
at the decision.  Script replay (re-deriving that state round by round)
is the reference: forced here by making the scheduler record no
decision state, so every sibling falls back to its decision script.
"""

import itertools

import pytest

from repro import obs
from repro.core import LayerInterface, behaviors_of, enumerate_game_logs, simple_event_prim
from repro.reduce import ALL_AXES, DPOR, STATIC_INDEP, TRANSPO, reduce_active, reduction_collector
from repro.reduce.dpor import ReducingScheduler, ResumeDiverged, scheduler_info


@pytest.fixture(scope="module")
def stacks():
    from repro.objects.mcs_lock import certify_mcs_lock
    from repro.objects.shared_queue import certify_shared_queue
    from repro.objects.ticket_lock import certify_ticket_lock

    return {
        "ticket": (certify_ticket_lock([1, 2], lock="rs_t").composed,
                   {tid: [("acq", ("rs_t",)), ("rel", ("rs_t",))] for tid in (1, 2)}, 16),
        "mcs": (certify_mcs_lock([1, 2], lock="rs_m").composed,
                {1: [("acq", ("rs_m",)), ("rel", ("rs_m",))], 2: [("acq", ("rs_m",))]}, 12),
        "queue": (certify_shared_queue([1, 2], queue="rs_q")["composed"],
                  {1: [("enQ", ("rs_q", 1))], 2: [("deQ", ("rs_q",))]}, 12),
    }


def explore(layer, client, rounds, axes, jobs):
    """The Thm 2.2 low game: results, runs and the reduction tallies."""
    was = obs.obs_enabled()
    obs.enable()
    try:
        runs = obs.REGISTRY.counter_values().get("machine.schedules_explored", 0)
        with reduce_active(axes), reduction_collector(axes) as stats:
            results = behaviors_of(
                layer.underlay, client, layer.module,
                fuel=2_000, max_rounds=rounds, jobs=jobs,
            )
        runs = obs.REGISTRY.counter_values()["machine.schedules_explored"] - runs
    finally:
        if not was:
            obs.disable()
    return results, runs, stats.as_dict()


AXES = [ALL_AXES, frozenset({DPOR}), frozenset({TRANSPO}), frozenset({STATIC_INDEP})]
CASES = [(game, axes, 1) for game in ("ticket", "mcs", "queue") for axes in AXES]
CASES += [(game, ALL_AXES, 2) for game in ("ticket", "mcs", "queue")]


@pytest.mark.parametrize("game,axes,jobs", CASES,
                         ids=[f"{g}-{'+'.join(sorted(a))}-j{j}" for g, a, j in CASES])
def test_resume_matches_script_replay(stacks, monkeypatch, game, axes, jobs):
    layer, client, rounds = stacks[game]
    before = scheduler_info()
    resumed = explore(layer, client, rounds, axes, jobs)
    resumed_runs = scheduler_info()["resumed_runs"] - before["resumed_runs"]
    monkeypatch.setattr(ReducingScheduler, "_decision", lambda self, ready: None)
    before = scheduler_info()
    replayed = explore(layer, client, rounds, axes, jobs)
    assert scheduler_info()["resumed_runs"] == before["resumed_runs"]
    assert resumed == replayed
    assert resumed[0] and resumed[1] > 1
    if jobs == 1 and DPOR in axes:
        assert resumed_runs > 0


def test_nondeterministic_player_trips_the_restore_check():
    iface = LayerInterface("I", [1, 2], {"ev": simple_event_prim("ev")})
    runs = itertools.count()

    def flaky(ctx):
        # Every run after the first logs one event more before its first
        # query point, so a sibling of the first run cannot retrace it.
        if next(runs):
            ctx.emit("noise")
        yield from ctx.call("ev")
        yield from ctx.call("ev")

    def steady(ctx):
        yield from ctx.call("ev")
        yield from ctx.call("ev")

    with reduce_active(ALL_AXES):
        with pytest.raises(ResumeDiverged):
            enumerate_game_logs(iface, {1: (flaky, ()), 2: (steady, ())},
                                max_rounds=12, jobs=1)


def test_deterministic_twin_explores_without_error():
    iface = LayerInterface("I", [1, 2], {"ev": simple_event_prim("ev")})

    def steady(ctx):
        yield from ctx.call("ev")
        yield from ctx.call("ev")

    with reduce_active(ALL_AXES):
        before = scheduler_info()
        results = enumerate_game_logs(iface, {1: (steady, ()), 2: (steady, ())},
                                      max_rounds=12, jobs=1)
        after = scheduler_info()
    assert len(results) == 6  # C(4, 2) interleavings of two two-step players
    assert after["resumed_runs"] > before["resumed_runs"]
    assert after["full_picks"] - before["full_picks"] < after["picks"] - before["picks"]
