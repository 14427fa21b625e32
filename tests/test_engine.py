"""Protocol runs, sweeps, streaming, stability, and the profile evaluator."""

import dataclasses
import math
from unittest import mock

import pytest

from ckgames import engine
from ckgames.engine import (
    EngineError,
    Eventual,
    profile_universe,
    run,
    run_profiles,
    stability_check,
    sweep,
    transcript_digest,
    yes_pattern,
)
from ckgames.scenarios import (
    Blind,
    BoundConfig,
    Circular,
    ConsecutiveDistinct,
    FarCircle,
    Full,
    HatsAtLeast,
    HatsExactly,
    MaxDiffExact,
    NearCircle,
    NearLine,
    Scenario,
    Simultaneous,
    SumInSet,
    SumOrProduct,
)

R, B = 0, 1


def hats(name, actual, protocol, n_colors=2):
    return Scenario(
        name, tuple(f"a{i}" for i in range(len(actual))),
        HatsAtLeast(R, 1, n_colors), Full(), protocol, actual,
    )


def test_intro_two_reds_three_rounds():
    t = run(hats("intro", (R, R, B), Simultaneous(9)))
    assert t.answers_by_round() == [
        (False, False, False), (True, True, False), (True, True, True)]
    assert len(t.events) == 9
    assert t.stabilized_at == 3


def test_nine_sages_six_reds():
    t = run(hats("nine", (R,) * 6 + (B,) * 3, Simultaneous(12)))
    for i in range(6):
        assert t.eventual[i] == Eventual.learns(6, 6)
    for i in range(6, 9):
        assert t.eventual[i] == Eventual.learns(7, 7)


def test_singleton_universe_one_round():
    sc = Scenario("s", ("a", "b"), SumInSet((2,)), Full(), Simultaneous(5), (1, 1))
    t = run(sc)
    assert t.answers_by_round() == [(True, True)]
    assert all(e.state_size == 1 for e in t.events)
    assert t.stabilized_at == 1


def test_circular_single_red_first_all_learn():
    t = run(hats("c", (R, B, B, B), Circular((0, 1, 2, 3), 6)))
    assert all(e.kind == "learns" for e in t.eventual)
    assert t.eventual[0].turn == 1


def test_circular_single_red_last_only_they_learn():
    t = run(hats("c", (B, B, B, R), Circular((0, 1, 2, 3), 6)))
    assert t.eventual[3] == Eventual.learns(1, 4)
    assert all(t.eventual[i].kind == "never" for i in range(3))


def test_blind_red_circular_alice_alone():
    sc = Scenario("b", ("alice", "b", "c", "d"), HatsAtLeast(R, 1, 2),
                  Blind(frozenset({0})), Circular((0, 1, 2, 3), 8), (R, B, B, B))
    t = run(sc)
    assert t.eventual[0].kind == "learns" and t.eventual[0].round == 2
    assert all(t.eventual[i].kind == "never" for i in (1, 2, 3))


def test_never_requires_fixpoint_unknown_at_horizon():
    sc = hats("h", (B, B, B, R), Circular((0, 1, 2, 3), 1))
    t = run(sc)
    assert t.stabilized_at is None
    assert all(e.kind in ("learns", "unknown") for e in t.eventual)


def test_fixpoint_soundness_extra_rounds_change_nothing():
    base = hats("f", (R, R, B), Simultaneous(9))
    t1 = run(base)
    t2 = run(hats("f", (R, R, B), Simultaneous(t1.stabilized_at + 2)))
    assert t1.events == t2.events
    assert t1.eventual == t2.eventual


def test_fixpoint_waits_a_round_after_a_new_yes():
    # round 2 eliminates no world but alice says YES for the first time, so the
    # fixpoint is certified only by round 3
    sc = Scenario("b", ("alice", "bob"), HatsAtLeast(R, 1, 2), Blind(frozenset({0})),
                  Simultaneous(8), (R, R))
    t = run(sc)
    assert t.answers_by_round() == [(False, False), (True, False), (True, False)]
    assert [e.state_size for e in t.events] == [2, 2, 2, 2, 2, 2]
    assert t.stabilized_at == 3
    assert t.eventual == (Eventual.learns(2, 2), Eventual.never())


def test_eventual_knowledge_projection():
    sc = Scenario("ek", ("alice", "bob"), SumOrProduct(7), Full(), Simultaneous(8), (1, 6))
    kinds = [e.kind for e in run(sc).eventual]
    assert kinds == ["learns", "never"]


def test_run_requires_actual():
    sc = Scenario("x", ("a", "b"), SumOrProduct(6), Full(), Simultaneous(5), None)
    with pytest.raises(EngineError):
        run(sc)


def test_circular_order_sensitivity_range():
    # single red hat: learner count covers 1 through blues+1 as the seat varies
    n = 5
    counts = set()
    for seat in range(n):
        actual = tuple(R if i == seat else B for i in range(n))
        t = run(hats("c", actual, Circular(tuple(range(n)), 8)))
        counts.add(len(t.learners()))
    assert counts == set(range(1, n + 1))


def test_sweep_matches_individual_runs():
    for protocol in (Simultaneous(9), Circular((0, 1, 2), 9)):
        family = Scenario("fam", ("a", "b", "c"), HatsAtLeast(R, 1, 2), Full(), protocol, None)
        report = sweep(family)
        assert len(report.rows) == 7
        for row in report.rows:
            solo = run(Scenario("fam", ("a", "b", "c"), HatsAtLeast(R, 1, 2), Full(),
                                protocol, row.world))
            assert row.eventual == solo.eventual, row.world
            assert row.digest == transcript_digest(solo.events)


@pytest.mark.parametrize("n,k", [(7, 2), (7, 3), (8, 2), (8, 3)])
def test_far_circle_sweep_rows_match_runs(n, k):
    # far-circle sight at n 7-8 leaves cells of one world and of several, so a
    # sweep takes both the one-world and the table split on its way to a leaf
    family = Scenario("far", tuple(f"a{i}" for i in range(n)), HatsExactly(R, k, 2),
                      FarCircle(), Simultaneous(8), None)
    report = sweep(family)
    assert len(report.rows) == math.comb(n, k)
    for row in report.rows:
        solo = run(dataclasses.replace(family, actual=row.world))
        assert row.digest == transcript_digest(solo.events), row.world
        assert row.eventual == solo.eventual, row.world


def test_sweep_rotation_orbits():
    family = Scenario("fam", tuple(f"a{i}" for i in range(4)), HatsExactly(R, 1, 2),
                      Full(), Simultaneous(8), None)
    report = sweep(family, orbit="rotation")
    assert len(report.rows) == 1
    assert report.rows[0].orbit_size == 4


# families with periodic worlds, so that cells fixed by rotating the seats by
# a half, a third or a quarter of the circle occur
PERIODIC = [(6, HatsExactly(R, 2, 2)), (6, HatsExactly(R, 3, 2)), (8, HatsExactly(R, 2, 2)),
            (8, HatsExactly(R, 4, 2)), (9, HatsExactly(R, 3, 2)), (6, HatsAtLeast(R, 1, 2)),
            (8, HatsAtLeast(R, 1, 2))]


def periodic(n, constraint, sight, protocol):
    return Scenario("per", tuple(f"a{i}" for i in range(n)), constraint, sight, protocol, None)


def assert_rows_match_runs(family):
    report = sweep(family)
    assert [r.world for r in report.rows] == list(family.universe())
    for row in report.rows:
        solo = run(dataclasses.replace(family, actual=row.world))
        assert row.digest == transcript_digest(solo.events), row.world
        assert row.eventual == solo.eventual, row.world
        assert row.learners == solo.learners(), row.world


@pytest.mark.parametrize("sight", [NearCircle(), FarCircle(), Full()], ids=repr)
@pytest.mark.parametrize("n,constraint", PERIODIC, ids=lambda v: repr(v))
def test_rotation_quotient_rows_match_runs(n, constraint, sight):
    assert_rows_match_runs(periodic(n, constraint, sight, Simultaneous(10)))


def test_rotation_quotient_has_stabilizers_of_order_2_3_4():
    # a leaf fixed by rotating the seats by `step` has a stabilizer of order n // step
    orders = set()
    for sight in (NearCircle(), FarCircle(), Full()):
        for n, constraint in PERIODIC:
            family = periodic(n, constraint, sight, Simultaneous(10))
            orders |= {n // branch.step for branch, _ in engine._play(family, family.universe())}
    assert {2, 3, 4} <= orders


@pytest.mark.parametrize("sight", [NearCircle(), FarCircle(), Full()], ids=repr)
@pytest.mark.parametrize("n,constraint", PERIODIC, ids=lambda v: repr(v))
def test_rotation_orbit_rows_group_per_world_runs(n, constraint, sight):
    family = periodic(n, constraint, sight, Simultaneous(10))
    classes = {}
    for w in family.universe():  # ascending, so each class's first member is its least
        classes.setdefault(min(w[k:] + w[:k] for k in range(n)), []).append(w)
    expected = []
    for rep in sorted(classes):
        solo = run(dataclasses.replace(family, actual=min(classes[rep])))
        expected.append((rep, solo.eventual, solo.learners(), transcript_digest(solo.events),
                         len(classes[rep])))
    rows = sweep(family, orbit="rotation").rows
    assert [(r.world, r.eventual, r.learners, r.digest, r.orbit_size) for r in rows] == expected


@pytest.mark.parametrize("sight,protocol", [
    (FarCircle(), Circular(tuple(range(6)), 6)),
    (NearLine(), Simultaneous(10)),
    (Blind(frozenset({0})), Simultaneous(10)),
], ids=["circular", "nearline", "blind"])
@pytest.mark.parametrize("n,constraint", PERIODIC[:-1], ids=lambda v: repr(v))
def test_games_without_rotation_symmetry_match_runs(n, constraint, sight, protocol):
    if isinstance(protocol, Circular):
        protocol = Circular(tuple(range(n)), protocol.max_rounds)
    assert_rows_match_runs(periodic(n, constraint, sight, protocol))


def test_rotation_quotient_splits_fewer_cells(monkeypatch):
    calls = []
    real = engine.split
    monkeypatch.setattr(engine, "split", lambda *args: calls.append(1) or real(*args))
    report = sweep(periodic(9, HatsExactly(R, 3, 2), FarCircle(), Simultaneous(8)))
    assert len(calls) < len({r.digest for r in report.rows})


def test_sweep_rejects_unknown_orbit():
    family = periodic(6, HatsExactly(R, 2, 2), FarCircle(), Simultaneous(8))
    for orbit in ("rotations", "", "reflection"):
        with pytest.raises(EngineError, match="orbit"):
            sweep(family, orbit=orbit)


def test_stability_pass_and_fail():
    sc = Scenario("s", ("a", "b"), MaxDiffExact(1, 10), Full(),
                  Circular((0, 1), 12), (2, 3), bound=BoundConfig(10))
    assert stability_check(sc, 10, 20)
    # a cap hugging the actual world leaks knowledge through the boundary
    tiny = Scenario("s", ("a", "b"), MaxDiffExact(1, 4), Full(),
                    Circular((0, 1), 12), (2, 3), bound=BoundConfig(4))
    assert not stability_check(tiny, 4, 20)


def test_stability_rejects_capless_families():
    sc = Scenario("s", ("a", "b"), SumOrProduct(50), Full(), Simultaneous(6), (25, 25))
    with pytest.raises(EngineError):
        stability_check(sc, 10, 20)


def streamed(sc):
    # a budget below the 1,540-world universe: the run starts on the generator
    # and materializes once the state fits
    with mock.patch.object(engine, "STREAM_THRESHOLD", 100):
        return run(sc)


def test_streamed_run_agrees_with_materialized():
    sc = Scenario("line", tuple("abcde"), SumInSet((12, 13, 14)), NearLine(),
                  Circular((0, 1, 2, 3, 4), 4), (1, 10, 1, 1, 1))
    direct = run(sc)
    lazy = streamed(sc)
    assert direct.initial_size == lazy.initial_size == 1540
    assert direct.events == lazy.events
    assert direct.eventual == lazy.eventual
    assert direct.final_candidates == lazy.final_candidates


def test_streamed_simultaneous_agrees():
    sc = Scenario("line", tuple("abcde"), SumInSet((12, 13, 14)), NearLine(),
                  Simultaneous(4), (1, 10, 1, 1, 1))
    direct = run(sc)
    lazy = streamed(sc)
    assert direct.initial_size == lazy.initial_size == 1540
    assert direct.events == lazy.events
    assert direct.eventual == lazy.eventual


def test_profile_evaluator_agrees_with_engine():
    for n in (3, 4):
        for d in (1, 2):
            c = MaxDiffExact(d, 4)
            table = run_profiles(profile_universe(c, n), 30)
            family = Scenario("m", tuple(f"a{i}" for i in range(n)), c, Full(),
                              Simultaneous(30), None, bound=BoundConfig(4))
            for row in sweep(family).rows:
                prof = tuple(sorted(row.world))
                for i, v in enumerate(row.world):
                    got = row.eventual[i]
                    expect = table[prof][v]
                    assert (got.round if got.kind == "learns" else None) == expect


def test_yes_pattern():
    # two 0s learning in round 3, three 1s in round 1, one 2 in round 4
    assert yes_pattern({0: 3, 1: 1, 2: 4}, (0, 0, 1, 1, 1, 2)) == (3, 0, 2, 1)
    assert yes_pattern({5: None}, (5, 5)) == ()


def test_transcript_digest_stable():
    t1 = run(hats("d", (R, B, B), Simultaneous(5)))
    t2 = run(hats("d", (R, B, B), Simultaneous(5)))
    assert transcript_digest(t1.events) == transcript_digest(t2.events)


@pytest.mark.parametrize("larger_cap", [20, 17])
def test_stability_check_refuses_a_cap_that_does_not_grow(larger_cap):
    # comparing a cap with itself, or with a smaller one, tests nothing
    sc = Scenario("c", ("a", "b"), ConsecutiveDistinct(20), Full(), Simultaneous(5), (4, 5),
                  bound=BoundConfig(20))
    with pytest.raises(EngineError, match="must exceed"):
        stability_check(sc, 20, larger_cap)
