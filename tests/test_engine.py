"""Protocol runs, sweeps, block cells, stability, and the profile evaluator."""

import dataclasses
import hashlib
import itertools
import math
from pathlib import Path
from unittest import mock

import pytest

from ckgames import dsl, engine, scenarios, worlds
from ckgames.cli import main
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
    Circular,
    ConsecutiveDistinct,
    FarCircle,
    Full,
    GenerationError,
    HatsAtLeast,
    HatsExactly,
    MaxDiffAtMost,
    MaxDiffExact,
    NearCircle,
    NearLine,
    Scenario,
    Simultaneous,
    SumInSet,
    SumOrProduct,
    ZeroOne,
)

R, B = 0, 1
SWEEPS = Path(__file__).resolve().parent.parent / "sweeps"


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


def test_quotient_leaves_are_symmetric_or_hold_distinct_images():
    # a leaf is symmetric, fixed by the whole seat group, exactly when every
    # element fixes each answer vector it heard, and it then stands for itself
    # alone; any other leaf stands for distinct images of itself.  Sweeps and
    # runs (a few actual worlds of each family) take the same rule
    kinds = set()
    for sight in (NearCircle(), FarCircle(), Full(), NearLine()):
        for n, constraint in PERIODIC:
            family = periodic(n, constraint, sight, Simultaneous(10))
            universe = family.universe()
            group = engine._sweep_group(family.visibility(), True)
            plays = [("sweep", engine._play(family, universe, group=group))]
            for w in list(universe)[::len(universe) // 4]:
                plays.append(("run", engine._play(dataclasses.replace(family, actual=w), universe, group, w)))
            for kind, leaves in plays:
                for branch, _ in leaves:
                    fixed = all(act(answers) == answers for *_, answers, _ in branch.steps for act in group.acts)
                    symmetric = len(branch.images) == 1
                    assert symmetric == fixed
                    if symmetric:
                        assert branch.images == [0]
                    else:
                        assert len(set(branch.images)) == len(branch.images)
                    kinds.add((type(sight).__name__, kind, symmetric))
    assert {(name, kind, symmetric) for name in ("NearCircle", "FarCircle", "Full", "NearLine")
            for kind in ("sweep", "run") for symmetric in (True, False)} <= kinds


@pytest.mark.parametrize("sight,protocol,order", [
    (NearCircle(), Simultaneous(10), 12),
    (FarCircle(), Simultaneous(10), 12),
    (Full(), Simultaneous(10), 12),
    (NearLine(), Simultaneous(10), 2),
    (Blind(frozenset({0})), Simultaneous(10), 1),
    (FarCircle(), Circular(tuple(range(6)), 6), 1),
], ids=["nearcircle", "farcircle", "full", "nearline", "blind", "circular"])
def test_sweep_group_is_the_symmetry_of_sight_and_universe(sight, protocol, order):
    # circles and full sight keep the dihedral group of the 6 seats, line sight
    # the reversal alone; a blind agent and circular turns keep the identity
    family = periodic(6, HatsExactly(R, 2, 2), sight, protocol)
    group = engine._sweep_group(family.visibility(), isinstance(protocol, Simultaneous))
    assert len(group.perms) == order and group.perms[0] == tuple(range(6))
    if order == 2:
        assert group.perms[1] == (5, 4, 3, 2, 1, 0)
    world = (0, 1, 2, 3, 4, 5)
    moved = {act(world) for act in group.acts}
    for e, act in enumerate(group.acts):
        assert act(world) == tuple(world[i] for i in group.perms[e])
        for other in group.acts:  # closed: each product of two elements is an element
            assert act(other(world)) in moved


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

# sha256 of the rows (world, eventual, learners, digest) of families the seat
# group quotient reduces, recorded before reflections joined the rotations
FAMILY_ROWS = {
    (6, HatsExactly(color=0, count=1, n_colors=2), NearCircle()): "7666fd1ec4cab0e00a3933b46988120e1b2c98dcff2226ec003d855c2fbfb2b4",
    (6, HatsExactly(color=0, count=2, n_colors=2), NearCircle()): "452071f23dcd5be5c3f17888cfca2813ffa9440abc3c88e64e3503f9c4d3a225",
    (6, HatsExactly(color=0, count=3, n_colors=2), NearCircle()): "fb4df6194c8d9bee58116ffed3942f01cfc8f54adeeae7169758eb22be95a268",
    (6, HatsExactly(color=0, count=4, n_colors=2), NearCircle()): "38feb51422e3ec8c4bfa69a6d9609b536db107585b83db38dfdf4d559d7c84da",
    (6, HatsExactly(color=0, count=5, n_colors=2), NearCircle()): "f53552a317fa00d742d8b128e19b9fe09c556c4c38345feb91803851ececa573",
    (6, HatsAtLeast(color=0, count=1, n_colors=2), NearCircle()): "04dc7797633b9c52df2dcb98baf91bd40884b427d9a40b1dccacbc026a1b0eeb",
    (7, HatsExactly(color=0, count=1, n_colors=2), NearCircle()): "e81063a9e9cf58d4693466affe976cdc34a9f55ead8e9ecefd090d5af43ea872",
    (7, HatsExactly(color=0, count=2, n_colors=2), NearCircle()): "f2bdacd2b5d01ecfad6d769f10fdd82b9a84546a1e6c7e0fa64217ed846fbb4e",
    (7, HatsExactly(color=0, count=3, n_colors=2), NearCircle()): "d5777dbe83d557158d0236e57863db34f3b38c3f2d7ffeb6015dd48b4ea6316c",
    (7, HatsExactly(color=0, count=4, n_colors=2), NearCircle()): "11f293e98292ae7d7ae25499052786ea49b4740ec088727be8b3c52e6d806905",
    (7, HatsExactly(color=0, count=5, n_colors=2), NearCircle()): "501e5899dc17f964b901fbcccc39c7f237517a9c73b7c3905ff08665e9620c71",
    (7, HatsExactly(color=0, count=6, n_colors=2), NearCircle()): "255c463a702fdea193ea298879f3d14a38e6d9e2b30731ae838dc51130691ddb",
    (7, HatsAtLeast(color=0, count=1, n_colors=2), NearCircle()): "ccfe251ba1c5f7f4ae8d61da6000a48574166d384387fe99a77c0b404a13a7dd",
    (8, HatsExactly(color=0, count=1, n_colors=2), NearCircle()): "946797de89e5ac91767562c6518e87b9478650fcb6712c148823a7fd44db6905",
    (8, HatsExactly(color=0, count=2, n_colors=2), NearCircle()): "672f62cd21adc6f9ceaae6063a17796286494f63b271e624292fbee372eb7a45",
    (8, HatsExactly(color=0, count=3, n_colors=2), NearCircle()): "a1494a3100e61db84757bb0b560ee831fac9b6cb0ba99f8ac6f2000db048f1db",
    (8, HatsExactly(color=0, count=4, n_colors=2), NearCircle()): "a7fed5bfe0512fdd686870553b9934ab95150ded0197587dda6bd133983b70ae",
    (8, HatsExactly(color=0, count=5, n_colors=2), NearCircle()): "bce879b84126c1e72704957a9a5280d4548e0cbd81b053781f1630a33776c744",
    (8, HatsExactly(color=0, count=6, n_colors=2), NearCircle()): "82b1150fbda1c0ca0bf52d3cd2ad357b0a2b4a3379216f5b1e33a880a5d70969",
    (8, HatsExactly(color=0, count=7, n_colors=2), NearCircle()): "d2d8aefdd29ca01eb40afb2176968dd252a8cf09d3ea905cfa958794429d1840",
    (8, HatsAtLeast(color=0, count=1, n_colors=2), NearCircle()): "2bb5ca0b455fec7c1d90a1670d7294794c7ce37091369d3f17b3d05a6687e56a",
    (6, HatsExactly(color=0, count=1, n_colors=2), FarCircle()): "c243881ebb41c2270f0a5c7cff2de1c02384108b900f6005db0954a50e930ccd",
    (6, HatsExactly(color=0, count=2, n_colors=2), FarCircle()): "e338457084a74c2ee90daae992d47c95fc25ec0ed6ccb64f2cd1428504017e15",
    (6, HatsExactly(color=0, count=3, n_colors=2), FarCircle()): "1cf8027bab2c3d816ed786dd9deecf28b27baed6fcd57e1722f3e261a51ae07b",
    (6, HatsExactly(color=0, count=4, n_colors=2), FarCircle()): "3b30ad9502d53c8b175755b65916d493344c03c40a7adc945c27e0079ef83ab7",
    (6, HatsExactly(color=0, count=5, n_colors=2), FarCircle()): "3713ef7801668fcf70d4ff0eb9a4f88790557b37f1ca46a085d10dc62f11a2f3",
    (6, HatsAtLeast(color=0, count=1, n_colors=2), FarCircle()): "04dc7797633b9c52df2dcb98baf91bd40884b427d9a40b1dccacbc026a1b0eeb",
    (7, HatsExactly(color=0, count=1, n_colors=2), FarCircle()): "b8de154a3344c1fe90f9443e67290dd4fe8543d15503fb8d54074e9f5d2ad95a",
    (7, HatsExactly(color=0, count=2, n_colors=2), FarCircle()): "0d3ad7d2c88d72c0200123e17a3147eadbb61ae911856a946b86c6536e0525ac",
    (7, HatsExactly(color=0, count=3, n_colors=2), FarCircle()): "8a0df0294b1189fd4d1cffdd9c158917753f7ebd36b1006affe14fe37526d2bb",
    (7, HatsExactly(color=0, count=4, n_colors=2), FarCircle()): "592c3790a80fea0743d2f0a9fa4d24423205de190f5be5acd977575388a6a1ff",
    (7, HatsExactly(color=0, count=5, n_colors=2), FarCircle()): "eea117f98b356393ebba7e14f2e1a117536d33fd5f84ec9954290a8b3e4b59c0",
    (7, HatsExactly(color=0, count=6, n_colors=2), FarCircle()): "4256a5cf3fe07c4f525cbfd660818abc06c91e9fc0e05f184116cda39b217280",
    (7, HatsAtLeast(color=0, count=1, n_colors=2), FarCircle()): "ccfe251ba1c5f7f4ae8d61da6000a48574166d384387fe99a77c0b404a13a7dd",
    (8, HatsExactly(color=0, count=1, n_colors=2), FarCircle()): "9d194da574f0a3d1b1c44a91232844ba6c2fdcd1262f3a3e8efa756ab747a566",
    (8, HatsExactly(color=0, count=2, n_colors=2), FarCircle()): "a2dbc263d637d98125a61d5b658b48b032690ab55059f2f07d084dc0ad5b9a1e",
    (8, HatsExactly(color=0, count=3, n_colors=2), FarCircle()): "e605a47d1af98bdc8e072d4f0433aef4b5be4d4e99ed0505c35819d496682fd7",
    (8, HatsExactly(color=0, count=4, n_colors=2), FarCircle()): "dd06fdeec6b1eae44417c23b111e14fe523a8114411d1b8c202f4f5815948012",
    (8, HatsExactly(color=0, count=5, n_colors=2), FarCircle()): "e0c4e3f19b0ef358207e02c24244c476b96a2ed11490e20cb74c0dc4874c8c74",
    (8, HatsExactly(color=0, count=6, n_colors=2), FarCircle()): "e4b3c6dc7d1fd1e34bc170dd3d21254de8f49cbff664741904cf2f62119f910d",
    (8, HatsExactly(color=0, count=7, n_colors=2), FarCircle()): "791a86bf500be6bc07961233a929f89e1a8145d2950e047ef57f34842b258959",
    (8, HatsAtLeast(color=0, count=1, n_colors=2), FarCircle()): "2bb5ca0b455fec7c1d90a1670d7294794c7ce37091369d3f17b3d05a6687e56a",
    (7, HatsExactly(color=0, count=1, n_colors=2), Full()): "6472dc5788b657df5b6c043cb42bc6c0447d4b78cdf78a28b36c9edccc9f1fe0",
    (7, HatsExactly(color=0, count=2, n_colors=2), Full()): "551ae5d55a4ae96b3aacb5924c249ec29dbb27113415f808b905ebf177767e1b",
    (7, HatsExactly(color=0, count=3, n_colors=2), Full()): "82932c85f26fecb4c460fa3658b0b38650019aa53b464f6651cb797bd606407f",
    (7, HatsExactly(color=0, count=4, n_colors=2), Full()): "239ae4b2315106db517827ede1cb98b95e1d3592a4bb30e235dcbbbdd1f2c601",
    (7, HatsExactly(color=0, count=5, n_colors=2), Full()): "e86afaa18b482338a71c8f62e3dcd4501651f3489e18fe6ed1282c11116ba4e8",
    (7, HatsExactly(color=0, count=6, n_colors=2), Full()): "1aa77c4a012e6dd38cc8e8c6e86cedd51cc95516097a1470db651d8f17a329fe",
    (7, HatsAtLeast(color=0, count=1, n_colors=2), Full()): "ae00eff19a10b345b2dded698ac969c0ef256fcbc9aeb803662d7aa1cf8f72d8",
    (6, HatsExactly(color=0, count=1, n_colors=2), NearLine()): "7fbbdd95aab4799b4ef4f0d43d8408f8b153c6e3d5793c7ab093d68980f485a0",
    (6, HatsExactly(color=0, count=2, n_colors=2), NearLine()): "3258bb9b4012f6e63fba1c66d5cbe5110f59ffaeeceae2d53692325c54f9ca99",
    (6, HatsExactly(color=0, count=3, n_colors=2), NearLine()): "fb4df6194c8d9bee58116ffed3942f01cfc8f54adeeae7169758eb22be95a268",
    (6, HatsExactly(color=0, count=4, n_colors=2), NearLine()): "55237e8fd8f6df817e1092cc83043ce5139bb082ceea92a20f233b49c5b01785",
    (6, HatsExactly(color=0, count=5, n_colors=2), NearLine()): "85e62308fb540f7964450053bdf8384a96aec03e21e73604ff6913943c826235",
    (6, HatsAtLeast(color=0, count=1, n_colors=2), NearLine()): "04dc7797633b9c52df2dcb98baf91bd40884b427d9a40b1dccacbc026a1b0eeb",
    (4, MaxDiffExact(diff=2, cap=4), NearLine()): "5547147a975dcd2a5d73db0698b310147a8cfcf7baa5998288eb5602c5fd3fb0",
}


@pytest.mark.parametrize("n,constraint,sight", sorted(FAMILY_ROWS, key=repr), ids=repr)
def test_sweep_rows_of_symmetric_families_are_pinned(n, constraint, sight):
    family = periodic(n, constraint, sight, Simultaneous(10))
    text = "\n".join(
        repr((r.world, [(e.kind, e.round, e.turn) for e in r.eventual], sorted(r.learners), r.digest))
        for r in sweep(family).rows
    )
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_ROWS[n, constraint, sight]


def test_rotation_quotient_splits_fewer_cells(monkeypatch):
    family = periodic(9, HatsExactly(R, 3, 2), FarCircle(), Simultaneous(8))
    calls = []
    real = engine.partition
    monkeypatch.setattr(engine, "partition", lambda *args: calls.append(len(args[0])) or real(*args))
    report = sweep(family)
    # 64 distinct transcripts; the dihedral group of the 9 seats takes 12 splits over
    # 103 worlds, the identity alone 92 over 231
    assert len({r.digest for r in report.rows}) == 64 and (len(calls), sum(calls)) == (12, 103)
    calls.clear()
    monkeypatch.setattr(engine, "_sweep_group", lambda vis, simultaneous: worlds.SeatGroup(vis))
    assert sweep(family) == report and (len(calls), sum(calls)) == (92, 231)


def tables_per_split(monkeypatch, sc, coded_seats=None):
    """The seats that each split of run(sc) builds a column for, in order: an own_table
    table for a seat that sees only some seats, a coded_column for one that sees every
    other.  Every state of two worlds or more is answered off codes where it can be, and
    `coded_seats`, when given, collects the seats of the coded columns."""
    calls = []
    real_partition, real_table, real_column = engine.partition, worlds.own_table, worlds.coded_column

    def partition(*args):
        calls.append(())
        return real_partition(*args)

    def counted(keys, state, agent):
        calls[-1] += (agent,)
        return real_table(keys, state, agent)

    def coded(codes, agent):
        calls[-1] += (agent,)
        if coded_seats is not None:
            coded_seats.append(agent)
        return real_column(codes, agent)

    monkeypatch.setattr(engine, "partition", partition)
    monkeypatch.setattr(worlds, "own_table", counted)
    monkeypatch.setattr(worlds, "coded_column", coded)
    monkeypatch.setattr(worlds, "CODED_FROM", 2)
    run(sc)
    return calls


@pytest.mark.parametrize("sight, protocol, coded_from", [
    (NearCircle(), Simultaneous(8), worlds.CODED_FROM),
    (FarCircle(), Simultaneous(8), worlds.CODED_FROM),
    (NearLine(), Simultaneous(8), worlds.CODED_FROM),
    (Blind(frozenset({0})), Simultaneous(8), 2),
    (Blind(frozenset({0})), Circular(tuple(range(6)), 4), 2),
    (NearLine(), Circular(tuple(range(6)), 4), worlds.CODED_FROM),
], ids=["near-circle", "far-circle", "line", "blind-coded", "blind-circular-coded", "line-circular"])
def test_a_run_builds_no_part_but_the_actual_worlds(monkeypatch, sight, protocol, coded_from):
    # every split of a run returns one part, the one holding the actual world:
    # under the seat group, off tables, or off codes.  No split groups the
    # worlds of its state by answer vector, and the run plays as it does with
    # every part built and the actual world's picked out (split)
    sc = Scenario("k", tuple(f"a{i}" for i in range(6)), HatsAtLeast(R, 1, 2), sight, protocol, (0, 0, 1, 0, 1, 1))
    monkeypatch.setattr(worlds, "CODED_FROM", coded_from)
    found, grouped = [], []
    real_partition, real_grouped = engine.partition, worlds._grouped
    monkeypatch.setattr(engine, "partition", lambda *args: found.append((args, real_partition(*args))) or found[-1][1])
    monkeypatch.setattr(worlds, "_grouped", lambda *args: grouped.append(args) or real_grouped(*args))
    t = run(sc)
    assert found and grouped == []
    for (state, speakers, vis, group, actual), parts in found:
        [(answers, part, _)] = parts
        assert actual == sc.actual and list(part) == worlds.split(state, speakers, vis)[answers] and actual in part
    monkeypatch.setattr(engine, "partition", lambda state, speakers, vis, group, actual: [
        (answers, worlds.KnowledgeState(tuple(part)), None if group is None or len(group.perms) == 1
         else group.images(answers)) for answers, part in worlds.split(state, speakers, vis).items() if actual in part])
    assert run(sc) == t


def test_run_quotient_builds_tables_for_one_seat(monkeypatch):
    # near-circle sight over 6 seats keeps the dihedral group, whose orbit on
    # the seats is all of them: the first split builds one table, not six
    # (full sight takes the profile path and builds none)
    sc = Scenario("q", tuple(f"a{i}" for i in range(6)), HatsAtLeast(R, 1, 2), NearCircle(), Simultaneous(8),
                  (0, 0, 1, 0, 1, 1))
    assert tables_per_split(monkeypatch, sc)[0] == (0,)
    # a blind agent leaves the identity alone: one column per seat, a table for
    # the blind seat 0 and a coded column for each seat that sees every other
    blind = dataclasses.replace(sc, sight=Blind(frozenset({0})))
    coded_seats = []
    assert tables_per_split(monkeypatch, blind, coded_seats)[0] == tuple(range(6))
    assert coded_seats[:5] == [1, 2, 3, 4, 5] and 0 not in coded_seats
    # line sight keeps the reversal, whose seat orbits are {0, 5}, {1, 4}, {2, 3},
    # and on three seats {0, 2}, {1}
    line = dataclasses.replace(sc, sight=NearLine())
    assert tables_per_split(monkeypatch, line)[0] == (0, 1, 2)
    small = Scenario("s", ("a", "b", "c"), HatsAtLeast(R, 1, 2), NearLine(), Simultaneous(8), (0, 1, 1))
    assert tables_per_split(monkeypatch, small)[0] == (0, 1)


def replay_turns(sc):
    """The events of a circular run, answered by knows_own and filtered by filter_turn."""
    n, vis = sc.n_agents, sc.visibility()
    state = scenarios.gen_universe(sc.constraint, n)
    events, learners = [], set()
    for rnd in range(1, sc.protocol.max_rounds + 1):
        size, known = len(state), len(learners)
        said = []
        for pos, agent in enumerate(sc.protocol.order):
            answer = worlds.knows_own(agent, sc.actual, state, vis)
            state = worlds.filter_turn(state, agent, answer, vis)
            said.append(engine.Event(rnd, (rnd - 1) * n + pos + 1, agent, answer, len(state)))
            if answer:
                learners.add(agent)
        events += said
        if all(e.answer for e in said) or (len(state) == size and len(learners) == known):
            break
    return tuple(events)


def test_a_seat_that_said_yes_is_not_asked_again(monkeypatch):
    # the blind seat 0 learns in round 2, seats 2 and 3 in round 1, and all
    # three speak again: a step whose speaker has said YES builds no column
    # (held: a table for seat 0, coded columns for the others) and deals no
    # block profile, and the run still gives the reference's transcript
    sc = Scenario("b", tuple("abcd"), HatsAtLeast(R, 1, 2), Blind(frozenset({0})), Circular((0, 1, 2, 3), 6),
                  (B, R, R, B))
    t = run(sc)
    assert t.events == replay_turns(sc)
    asked, learned = [], set()
    for e in t.events:
        if e.agent not in learned:
            asked.append((e.agent,))
        if e.answer:
            learned.add(e.agent)
    assert asked == [(0,), (1,), (2,), (3,), (0,), (1,), (1,)] and len(t.events) == 12
    skipped = []  # per step after its speaker's YES: whether its one child holds the branch's state
    real_children = engine._children

    def children(branch, speakers, *args):
        out = list(real_children(branch, speakers, *args))
        if all(agent in branch.first_yes for agent in speakers):
            skipped.append(len(out) == 1 and out[0].state is branch.state)
        return out

    monkeypatch.setattr(engine, "_children", children)
    assert tables_per_split(monkeypatch, sc) == asked
    assert skipped == [True] * 5
    calls, passes = [], []
    real, generate = engine._Blocks.narrowed, HatsAtLeast.generate
    monkeypatch.setattr(engine._Blocks, "narrowed", lambda self, speakers, *args: calls.append(tuple(speakers))
                        or real(self, speakers, *args))
    monkeypatch.setattr(HatsAtLeast, "generate", lambda self, n: passes.append(n) or generate(self, n))
    with mock.patch.object(engine, "STREAM_THRESHOLD", 0):  # every state stays a block cell
        assert run(sc).events == t.events
    # one narrowing per step asked, and no world generated
    assert calls == asked and passes == []


def test_sweep_group_is_made_once_per_sight_graph_and_protocol_kind():
    # equal sight graphs drawn apart share one group, with its split plan
    first, second = (worlds.VisibilityGraph(scenarios.gen_visibility(FarCircle(), 7).sees) for _ in range(2))
    assert first is not second and first == second
    assert engine._sweep_group(first, True) is engine._sweep_group(second, True)
    assert engine._sweep_group(first, False) is engine._sweep_group(second, False)
    # circular turns keep the identity alone, so their group is another object
    dihedral, identity = engine._sweep_group(first, True), engine._sweep_group(first, False)
    assert dihedral is not identity and len(dihedral.perms) == 14 and len(identity.perms) == 1


def test_sweep_rejects_unknown_orbit():
    family = periodic(6, HatsExactly(R, 2, 2), FarCircle(), Simultaneous(8))
    for orbit in ("rotations", "", "reflection"):
        with pytest.raises(EngineError, match="orbit"):
            sweep(family, orbit=orbit)


def test_stability_pass_and_fail():
    sc = Scenario("s", ("a", "b"), MaxDiffExact(1, 10), Full(),
                  Circular((0, 1), 12), (2, 3))
    assert stability_check(sc, 10)
    # a cap hugging the actual world leaks knowledge through the boundary
    tiny = Scenario("s", ("a", "b"), MaxDiffExact(1, 4), Full(),
                    Circular((0, 1), 12), (2, 3))
    assert not stability_check(tiny, 16)


def test_stability_check_runs_the_scenario_as_given():
    # (4, 5) is above cap 3 but within cap 3 + 10: the scenario itself is invalid
    sc = Scenario("s", ("a", "b"), MaxDiffExact(1, 3), Full(), Simultaneous(8), (4, 5))
    with pytest.raises(GenerationError, match="violates"):
        stability_check(sc, 10)


def test_stability_rejects_capless_families():
    sc = Scenario("s", ("a", "b"), SumOrProduct(50), Full(), Simultaneous(6), (25, 25))
    with pytest.raises(EngineError):
        stability_check(sc, 10)


def on_blocks(sc, budget=100):
    # a budget below the universe size: the run starts on block profiles and
    # is held once the state fits; under budget 0 no state is ever held
    with mock.patch.object(engine, "STREAM_THRESHOLD", budget):
        assert engine.run_path(sc, sc.visibility()) == "blocks"
        return run(sc)


LINE5 = (SumInSet((12, 13, 14)), NearLine(), (1, 10, 1, 1, 1), 1540)
# seat 0 sees nobody, so its observation key is the empty one
BLIND7 = (HatsAtLeast(R, 1, 2), Blind(frozenset({0})), (B, R, B, R, R, B, B), 127)
FULL7 = (HatsAtLeast(R, 1, 2), Full(), (R, B, R, B, B, R, B), 127)


@pytest.mark.parametrize("budget", [100, 0])
@pytest.mark.parametrize("constraint, sight, actual, size", [LINE5, BLIND7, FULL7], ids=["line5", "blind7", "full7"])
def test_streamed_run_agrees_with_materialized(constraint, sight, actual, size, budget):
    # line5's actual world is pinned in one step; under budget 0 every state stays a
    # block cell, so each size in the transcript of the 127-world games is a sum of weights
    n = len(actual)
    sc = Scenario("s", tuple(f"a{i}" for i in range(n)), constraint, sight, Circular(tuple(range(n)), 4), actual)
    direct = run(sc)
    assert direct.initial_size == size
    assert on_blocks(sc, budget) == direct


@pytest.mark.parametrize("budget", [100, 0])
@pytest.mark.parametrize("constraint, sight, actual, size", [LINE5, BLIND7], ids=["line5", "blind7"])
def test_streamed_simultaneous_agrees(constraint, sight, actual, size, budget):
    n = len(actual)
    sc = Scenario("s", tuple(f"a{i}" for i in range(n)), constraint, sight, Simultaneous(4), actual)
    direct = run(sc)
    assert direct.initial_size == size
    assert on_blocks(sc, budget) == direct


@pytest.mark.parametrize("actual", [(1, 1, 1, 1, 10), (1, 1, 3, 1, 8)])
def test_a_part_held_off_block_profiles_keeps_the_images_of_its_answers(monkeypatch, actual):
    # line5 one world short of its budget: the first simultaneous step is played on
    # block profiles, and the reversal moves the actual world's answers to another
    # vector, so the held part stands for two cells.  With images [0] it would be
    # split through the reversal, which does not map it onto itself
    constraint, sight, _, size = LINE5
    sc = Scenario("s", tuple("abcde"), constraint, sight, Simultaneous(4), actual)
    direct = run(sc)
    images = []
    real = engine._children
    monkeypatch.setattr(engine, "_children", lambda branch, *args: [
        images.append((type(branch.state), child.images)) or child for child in real(branch, *args)])
    assert on_blocks(sc, size - 1) == direct
    assert images[0] == (engine._Blocks, [0, 1])


def test_a_block_cell_hands_off_its_kept_worlds_in_lex_order(monkeypatch):
    # line5 under a budget of 1,530 worlds: seats 0 and 1 keep 1,539 and 1,529 of its
    # 1,540, so the first step stays on block profiles and the second is held
    constraint, sight, _, _ = LINE5
    sc = Scenario("s", tuple("abcde"), constraint, sight, Circular(tuple(range(5)), 4), (3, 3, 2, 2, 2))
    kept, real = [], engine._Blocks.narrowed

    def narrowed(self, *args):
        parts = real(self, *args)
        kept.append(parts[0][1])
        return parts

    monkeypatch.setattr(engine._Blocks, "narrowed", narrowed)
    monkeypatch.setattr(engine, "STREAM_THRESHOLD", 1530)
    t = run(sc)
    assert [type(state) for state in kept] == [engine._Blocks, worlds.KnowledgeState]
    state, vis = sc.universe(), sc.visibility()
    for e in t.events[:2]:
        state = worlds.filter_turn(state, e.agent, e.answer, vis)
    assert len(kept[0]) == 1539 and kept[1].worlds == state.worlds and len(state) == 1529


@pytest.mark.parametrize("protocol, step", [(Simultaneous(4), 0), (Circular(tuple(range(5)), 4), 1)],
                         ids=["simultaneous", "circular"])
def test_a_block_cell_past_the_materialize_limit_is_refused(protocol, step):
    # line5 over 300 profiles at most: a simultaneous step splits every seat off, so its
    # 1,540 worlds need 1,540 profiles and are refused before any is dealt; the circular
    # step by seat 0 (blocks {0}, {1}, {2, 3, 4}) needs at least 1540 // 3! = 256, so its
    # deals are counted, 420, and it too is refused before any is dealt
    constraint, sight, _, _ = LINE5
    sc = Scenario("s", tuple("abcde"), constraint, sight, protocol, (3, 3, 2, 2, 2))
    dealt, real = [], engine._dealt

    def counted(*args):
        for prof in real(*args):
            dealt.append(prof)
            yield prof

    with mock.patch.object(scenarios, "MATERIALIZE_LIMIT", 300), mock.patch.object(engine, "STREAM_THRESHOLD", 0), \
            mock.patch.object(engine, "_dealt", counted):
        message = ("1540 worlds need at least 1540 block profiles over 5 blocks, more than the limit of 300",
                   "1540 worlds need at least 420 block profiles over 3 blocks, more than the limit of 300")[step]
        with pytest.raises(EngineError, match=message):
            run(sc)
    assert len(dealt) == 0


@pytest.mark.parametrize("profile, blocks, parts", [
    (((1, 2, 3, 4),), ((0, 1, 2, 3),), ((0,), (1, 2), (3,))),
    (((1, 1, 2, 2, 3),), ((0, 1, 2, 3, 4),), ((2,), (0, 1), (3, 4))),
    (((5, 5, 5),), ((0, 1, 2),), ((0,), (1, 2))),
    (((1, 2), (3, 3, 4)), ((0, 1), (2, 3, 4)), ((0,), (1,), (2,), (3, 4))),
], ids=["distinct", "repeats", "all-equal", "two-blocks"])
def test_a_profile_is_dealt_into_finer_blocks_once_per_distinct_deal(profile, blocks, parts):
    # every arrangement of each block's values over its seats, cut into the finer
    # parts and sorted within each part, is one deal; the deals' worlds add up to
    # the profile's, prod_b |b|! / prod_v m_v!
    dealt = list(engine._dealt([profile], blocks, parts))
    by_block = []
    for values, b in zip(profile, blocks):
        inside = [p for p in parts if p[0] in b]
        cuts = list(itertools.accumulate(map(len, inside), initial=0))
        by_block.append({tuple(tuple(sorted(seq[i:j])) for i, j in zip(cuts, cuts[1:]))
                         for seq in itertools.permutations(values)})
    assert len(dealt) == len(set(dealt))
    assert set(dealt) == {sum(deal, ()) for deal in itertools.product(*by_block)}

    def weight(prof, over):
        return math.prod(map(math.factorial, map(len, over))) // math.prod(map(engine._repeats, prof))

    assert sum(weight(prof, parts) for prof in dealt) == weight(profile, blocks)


@pytest.mark.parametrize("simultaneous", [False, True], ids=["circular", "simultaneous"])
@pytest.mark.parametrize("game, actual", [(LINE5, (3, 3, 2, 2, 2)), (BLIND7, None), (FULL7, None)],
                         ids=["line5", "blind7", "full7"])
def test_a_block_cell_stands_for_the_worlds_the_held_state_keeps(monkeypatch, game, actual, simultaneous):
    # two rounds of steps on block profiles and on the held universe side by side:
    # each step gives the same answers, the cell's worlds, each profile dealt into
    # single seats, are the held part's, and its candidates are the values the part's
    # seats hold.  A step in which every seat speaks and sees every other (full7's
    # simultaneous one) is never handed off; any other is, once it fits, in lex order
    constraint, sight, default, _ = game
    actual = actual or default
    n = len(actual)
    protocol = Simultaneous(2) if simultaneous else Circular(tuple(range(n)), 2)
    sc = Scenario("s", tuple(f"a{i}" for i in range(n)), constraint, sight, protocol, actual)
    vis = sc.visibility()
    heard = simultaneous and len(vis.full_sight) == n
    monkeypatch.setattr(engine, "STREAM_THRESHOLD", 0)
    cell, held = engine._Blocks.root(sc), sc.universe()
    assert len(cell) == len(held)
    for speakers in ([tuple(range(n))] if simultaneous else [(s,) for s in range(n)]) * 2:
        parts = worlds.split(held, speakers, vis)
        answers, held = next((a, worlds.KnowledgeState(tuple(p))) for a, p in parts.items() if actual in p)
        [(said, narrowed)] = cell.narrowed(speakers, vis, actual)
        monkeypatch.setattr(engine, "STREAM_THRESHOLD", len(held))
        [(_, arranged)] = cell.narrowed(speakers, vis, actual)
        monkeypatch.setattr(engine, "STREAM_THRESHOLD", 0)
        assert said == answers
        assert isinstance(narrowed, engine._Blocks) and len(narrowed) == len(held)
        seats = sum(narrowed.blocks, ())
        dealt = engine._dealt(narrowed.live, narrowed.blocks, tuple((i,) for i in seats))
        assert sorted(tuple(prof[seats.index(i)][0] for i in range(n)) for prof in dealt) == list(held.worlds)
        if heard:
            assert isinstance(arranged, engine._Blocks) and arranged.live == narrowed.live
        else:
            assert arranged.worlds == held.worlds
        assert narrowed.candidates() == [set(column) for column in zip(*held.worlds)]
        cell = narrowed


def test_profile_evaluator_agrees_with_engine():
    # run_profiles' table against the sweep rows of the world root and of the
    # default path, block cells, for every class; no sweep reads the table
    families = [(MaxDiffExact(d, 4), n) for n in (3, 4) for d in (1, 2)] + [
        (HatsAtLeast(0, 1, 2), 5),
        (HatsAtLeast(0, 1, 2), 6),
        (HatsExactly(0, 2, 2), 6),
        (HatsAtLeast(0, 1, 3), 4),
        (ZeroOne(), 5),
        (SumInSet((6, 7)), 4),
        (MaxDiffAtMost(2, 5), 4),
        (SumOrProduct(12), 3),
        (ConsecutiveDistinct(6), 4),
    ]
    for c, n in families:
        table = run_profiles(profile_universe(c, n), 30)
        family = Scenario("m", tuple(f"a{i}" for i in range(n)), c, Full(),
                          Simultaneous(30), None)
        with mock.patch.object(engine, "run_path", lambda sc, vis: "materialized"):
            held = sweep(family).rows
        for rows in (held, sweep(family).rows):
            for row in rows:
                prof = tuple(sorted(row.world))
                for i, v in enumerate(row.world):
                    got = row.eventual[i]
                    expect = table[prof][v]
                    assert (got.round if got.kind == "learns" else None) == expect, (c, n, row.world)


class _CountedSha:
    """A sha256 that counts, in `made`, the digests read off it and off its copies."""

    def __init__(self, made, inner):
        self.made, self.inner = made, inner

    def update(self, data):
        self.inner.update(data)

    def copy(self):
        return _CountedSha(self.made, self.inner.copy())

    def hexdigest(self):
        self.made.append(None)
        return self.inner.hexdigest()


@pytest.mark.parametrize("constraint, n, distinct", [(HatsAtLeast(0, 1, 2), 8, True), (MaxDiffExact(2, 6), 4, False)],
                         ids=["hats8", "maxdiff4"])
def test_block_rows_make_one_digest_per_distinct_class_vector(monkeypatch, constraint, n, distinct):
    # engine._rows reads each world of a full-sight simultaneous sweep off its block leaf
    # through a seat map, made once per distinct map in the leaf; worlds with the same
    # ordered class vector, their seats' first-YES rounds, share eventuals, learners and
    # transcript, so one digest is made per vector.  Every hats world has a vector of its
    # own, and the max-difference worlds share them
    family = Scenario("f", tuple(f"a{i}" for i in range(n)), constraint, Full(), Simultaneous(n + 1), None)
    table = run_profiles(profile_universe(constraint, n), n + 1)
    universe = family.universe()
    vectors = {tuple(table[tuple(sorted(w))][v] for v in w) for w in universe}
    assert (len(vectors) == len(universe)) == distinct
    expected = sweep(family)
    made = []
    monkeypatch.setattr(engine, "hashlib", mock.Mock(sha256=lambda data=b"": _CountedSha(made, hashlib.sha256(data))))
    assert sweep(family) == expected
    assert len(made) == len(vectors)


@pytest.mark.parametrize("family", [
    Scenario("far9", tuple(f"a{i}" for i in range(9)), HatsExactly(R, 3, 2), FarCircle(), Simultaneous(8), None),
    dsl.parse_file(str(SWEEPS / "emperor10.ck")),
], ids=["far-9-3", "emperor10"])
def test_world_leaves_make_one_digest_per_image(monkeypatch, family):
    # engine._rows makes one sha256 digest per (leaf, image) of a quotiented sweep, and
    # every (leaf, image) stands for cells with a transcript of their own
    vis = family.visibility()
    group = engine._sweep_group(vis, True)
    assert len(group.perms) > 1
    images = sum([len(branch.images) for branch, _ in engine._play(family, family.universe(), group)])
    expected = sweep(family)
    made = []
    monkeypatch.setattr(engine, "hashlib", mock.Mock(sha256=lambda data=b"": _CountedSha(made, hashlib.sha256(data))))
    assert sweep(family) == expected
    assert len(made) == images == len({row.digest for row in expected.rows}) < len(expected.rows)


def test_full_sight_run_above_the_materialize_limit_never_generates():
    # the criterion-11 (8, 4) cell with cap 33: 7,983,420 worlds, above both
    # STREAM_THRESHOLD and MATERIALIZE_LIMIT, played over its 6,300 profiles
    c = MaxDiffExact(4, 33)
    sc = Scenario("c11", tuple(f"a{i}" for i in range(8)), c, Full(), Simultaneous(8),
                  (1, 1, 2, 2, 2, 4, 4, 5))
    assert c.count_worlds(8) > max(engine.STREAM_THRESHOLD, scenarios.MATERIALIZE_LIMIT)
    with mock.patch.object(MaxDiffExact, "generate", side_effect=AssertionError("generate was called")):
        assert engine.run_path(sc, sc.visibility()) == "profiles"
        t = run(sc)
    assert t.initial_size == c.count_worlds(8) == 7_983_420
    firsts = run_profiles(profile_universe(c, 8), 8)[tuple(sorted(sc.actual))]
    assert [e.round if e.kind == "learns" else None for e in t.eventual] == [firsts[v] for v in sc.actual]
    sizes = [e.state_size for e in t.events]
    assert all(0 < b <= a for a, b in zip([t.initial_size] + sizes, sizes))


SOP720 = """scenario "sop-720" {
  agents a b c d e f
  announce sop 720
  sight full
  protocol simultaneous rounds 10
  actual [ 1 1 2 3 4 30 ]
}
"""


def test_an_oversized_full_sight_simultaneous_game_is_refused_before_any_profile_is_made(tmp_path, monkeypatch, capsys):
    # 1,579,102,469,519 worlds over 6 seats: even if every one-block profile stood for 6!
    # worlds there would be 2,193,197,874 of them, past MATERIALIZE_LIMIT, so the root
    # refuses the game without drawing one profile; ck run exits 2
    def profiles(self, n):
        raise AssertionError("a profile was made")
        yield

    monkeypatch.setattr(SumOrProduct, "profiles", profiles)
    path = tmp_path / "sop720.ck"
    path.write_text(SOP720)
    sc = dsl.parse_file(str(path))
    assert sc.constraint.count_worlds(6) == 1_579_102_469_519
    assert engine.run_path(sc, sc.visibility()) == "profiles"
    message = ("1579102469519 worlds need at least 2193197874 block profiles over 1 block, "
               "more than the limit of 2000000")
    with pytest.raises(EngineError) as refused:
        run(sc)
    assert str(refused.value) == message
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_full_sight_simultaneous_games_never_call_the_profile_evaluator(monkeypatch):
    # run_profiles' table is an independent check of these runs and sweeps only
    # while no engine path reads it
    for name in ("run_profiles", "profile_universe"):
        monkeypatch.setattr(engine, name, mock.Mock(side_effect=AssertionError(f"{name} was called")))
    sc = Scenario("c11", tuple(f"a{i}" for i in range(6)), MaxDiffExact(3, 34), Full(), Simultaneous(20),
                  (1, 1, 2, 2, 2, 4))
    assert engine.run_path(sc, sc.visibility()) == "profiles"
    assert [e.round for e in run(sc).eventual] == [3, 3, 4, 4, 4, 1]  # the published pattern (1, 0, 2, 3)
    family = Scenario("h", tuple(f"a{i}" for i in range(5)), HatsAtLeast(0, 1, 2), Full(), Simultaneous(6), None)
    assert len(sweep(family).rows) == 31


@pytest.mark.parametrize("sight, protocol, path", [
    (Full(), Simultaneous(4), "profiles"),
    (NearLine(), Simultaneous(4), "materialized"),
    (NearLine(), Simultaneous(4), "blocks"),
    (NearLine(), Circular((0, 1, 2), 4), "blocks"),
    (Full(), Circular((0, 1, 2), 4), "blocks"),
], ids=["profiles", "held", "blocks-line", "blocks-line-circular", "blocks-full-circular"])
def test_an_actual_world_missing_from_the_universe_is_refused(sight, protocol, path):
    # a constraint whose enumeration leaves out a world it accepts, from each
    # root run_path names; 7 worlds are played on block profiles above a threshold of 2
    sc = Scenario("m", ("a", "b", "c"), HatsAtLeast(R, 1, 2), sight, protocol, (R, B, B))
    method = "generate" if path == "materialized" else "profiles"
    real = getattr(HatsAtLeast, method)

    def missing(self, n):
        return (w for w in real(self, n) if sorted(w) != sorted(sc.actual))

    threshold = 2 if path == "blocks" else engine.STREAM_THRESHOLD
    with mock.patch.object(HatsAtLeast, method, missing), mock.patch.object(engine, "STREAM_THRESHOLD", threshold):
        assert engine.run_path(sc, sc.visibility()) == path
        with pytest.raises(EngineError, match="actual world is not a member of the generated universe"):
            run(sc)


def test_yes_pattern():
    # two 0s learning in round 3, three 1s in round 1, one 2 in round 4
    assert yes_pattern({0: 3, 1: 1, 2: 4}, (0, 0, 1, 1, 1, 2)) == (3, 0, 2, 1)
    assert yes_pattern({5: None}, (5, 5)) == ()


def test_transcript_digest_stable():
    t1 = run(hats("d", (R, B, B), Simultaneous(5)))
    t2 = run(hats("d", (R, B, B), Simultaneous(5)))
    assert transcript_digest(t1.events) == transcript_digest(t2.events)


@pytest.mark.parametrize("growth", [0, -3])
def test_stability_check_refuses_a_cap_that_does_not_grow(growth):
    # comparing a cap with itself, or with a smaller one, tests nothing
    sc = Scenario("c", ("a", "b"), ConsecutiveDistinct(20), Full(), Simultaneous(5), (4, 5))
    with pytest.raises(EngineError, match=f"larger cap {20 + growth} must exceed cap 20"):
        stability_check(sc, growth)
