"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The world-root sweep of the criterion-11 family and the criterion-02 and
criterion-11 grids at their largest sizes are marked slow; run them
explicitly with `pytest -m slow`.
"""

import json
import random
from pathlib import Path
from unittest import mock

import pytest

from ckgames import dsl, engine, oracles
from ckgames.cli import main as cli_main
from ckgames.engine import (
    Eventual,
    profile_universe,
    run,
    run_profiles,
    stability_check,
    sweep,
    yes_pattern,
)
from ckgames.scenarios import (
    Blind,
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
from ckgames.worlds import (
    KnowledgeState,
    VisibilityGraph,
    answer_vector,
    filter_simultaneous,
    filter_turn,
    knows_own,
)

R, B = 0, 1
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def agents(n, prefix="a"):
    return tuple(f"{prefix}{i}" for i in range(n))


def ok(num, text):
    print(f"criterion {num:>2} PASS  {text}")


def first_rounds(transcript):
    return [e.round if e.kind == "learns" else None for e in transcript.eventual]


# -- 1 -------------------------------------------------------------------------


def test_criterion_01_nine_sages():
    sc = Scenario("nine", agents(9), HatsAtLeast(R, 1, 2), Full(), Simultaneous(12),
                  (R,) * 6 + (B,) * 3)
    t = run(sc)
    assert first_rounds(t) == [6] * 6 + [7] * 3
    ok(1, "nine sages with six reds: reds round 6, blues round 7")


# -- 2 -------------------------------------------------------------------------


def _hats_simultaneous_mismatches(sizes):
    mismatches = 0
    for n in sizes:
        for r in range(1, n + 1):
            world = (R,) * r + (B,) * (n - r)
            t = run(Scenario("g", agents(n), HatsAtLeast(R, 1, 2), Full(),
                             Simultaneous(n + 3), world))
            mismatches += bool(oracles.cross_check(oracles.predict_hats_simultaneous(n, r), t))
    return mismatches


def test_criterion_02_hats_simultaneous_grid():
    assert _hats_simultaneous_mismatches(range(2, 25)) == 0
    ok(2, "simultaneous hats grid N in [2,24]: zero oracle mismatches")


@pytest.mark.slow
def test_criterion_02_hats_simultaneous_grid_large_slow():
    assert _hats_simultaneous_mismatches(range(25, 41)) == 0
    ok(2, "simultaneous hats grid N in [25,40]: zero oracle mismatches")


# -- 3 -------------------------------------------------------------------------

TABLE1 = {
    # hats string -> (round-1 YES seats, expected extra behavior)
    "RRR": ({2, 5, 6, 7, 8, 9}, "full2"),
    "RBRR": ({6, 7, 8, 9}, "eight"),
    "RRBR": ({6, 7, 8, 9}, "eight"),
    "RRBBR": ({7, 8, 9}, "full3"),
    "RBBRR": ({7, 8, 9}, "full3"),
    "RBRBR": ({7, 8, 9}, "full3"),
    "RRBBBR": ({4, 8, 9}, "full2"),
    "RBBBRR": ({3, 8, 9}, "full2"),
    "RBRBBR": ({8, 9}, "eight"),
    "RBBRBR": ({8, 9}, "eight"),
    "RBBRBBR": ({9}, "full2"),
    "RBRBBBR": ({5, 9}, "full2"),
    "RBBBRBR": ({3, 9}, "full2"),
}


def test_criterion_03_table_one():
    for hats, (yes1, behavior) in TABLE1.items():
        world = tuple(R if c == "R" else B for c in hats.ljust(10, "B"))
        t = run(Scenario("t1", agents(10, "p"), HatsExactly(R, 3, 2), FarCircle(),
                         Simultaneous(10), world))
        got1 = {i + 1 for i, a in enumerate(t.answers_by_round()[0]) if a}
        assert got1 == yes1, (hats, got1)
        firsts = first_rounds(t)
        if behavior == "eight":
            assert sum(1 for f in firsts if f is not None) == 8, hats
            assert all(f in (1, 2) for f in firsts if f is not None), hats
        elif behavior == "full2":
            assert all(f in (1, 2) for f in firsts), hats
        else:  # full knowledge in round 3
            assert all(f is not None for f in firsts), hats
            assert max(firsts) == 3, hats
    ok(3, "table of ten far-sighted sages: all 13 orderings reproduced")


# -- 4 -------------------------------------------------------------------------


def test_criterion_04_emperor_minimization():
    family = Scenario("emp", agents(10, "p"), HatsExactly(R, 3, 2), FarCircle(),
                      Simultaneous(10), None)
    report = sweep(family, orbit="rotation")
    assert sum(r.orbit_size for r in report.rows) == 120
    assert report.min_learners() == 8

    def canonical(hats):
        w = tuple(R if c == "R" else B for c in hats.ljust(10, "B"))
        return min(tuple(w[i:] + w[:i]) for i in range(10))

    expected = {canonical(h) for h in ("RBRR", "RRBR", "RBRBBR", "RBBRBR")}
    assert {r.world for r in report.rows if len(r.learners) == report.min_learners()} == expected
    ok(4, "emperor minimization: minimum 8 learners at exactly the four placements")


# -- 5 -------------------------------------------------------------------------


def test_criterion_05_nine_farsighted_spaced():
    for offset in range(3):
        world = tuple(R if i % 3 == offset else B for i in range(9))
        t = run(Scenario("nine-far", agents(9), HatsExactly(R, 3, 2), FarCircle(),
                         Simultaneous(8), world))
        assert t.answers_by_round() == [(False,) * 9, (True,) * 9]
    ok(5, "nine far-sighted: every spaced placement gives all-NO then all-YES")


# -- 6 -------------------------------------------------------------------------


def test_criterion_06_nearsighted_single_red():
    for n in range(3, 9):
        family = Scenario("ns", agents(n), HatsExactly(R, 1, 2), NearCircle(),
                          Simultaneous(2 * n + 4), None)
        report = sweep(family)
        full_knowledge = all(
            all(e.kind == "learns" for e in row.eventual) for row in report.rows
        )
        assert full_knowledge == (n != 4), n
        if n == 4:
            for row in report.rows:
                assert sum(1 for e in row.eventual if e.kind == "never") == 2
    ok(6, "near-sighted single red: full knowledge fails exactly at N=4")


# -- 7 -------------------------------------------------------------------------


def test_criterion_07_nearsighted_circular_oracle():
    unexplained = []
    for n in range(3, 10):
        for r in range(1, n + 1):
            world = tuple(R if i == r - 1 else B for i in range(n))
            t = run(Scenario("nsc", agents(n), HatsExactly(R, 1, 2), NearCircle(),
                             Circular(tuple(range(n)), 2 * n + 4), world))
            unexplained += oracles.cross_check(oracles.predict_ns_circular(n, r), t)
    assert unexplained == []
    ok(7, "near-sighted circular bullets: zero unexplained mismatches over N in [3,9]")


# -- 8 -------------------------------------------------------------------------


def test_criterion_08_blind_alice_unique_always_learner():
    for n in range(3, 7):
        protocols = (Simultaneous(2 * n + 4), Circular(tuple(range(n)), 2 * n + 4))
        for protocol in protocols:
            family = Scenario("blind", agents(n), HatsAtLeast(R, 1, 2),
                              Blind(frozenset({0})), protocol, None)
            report = sweep(family)
            always = set(range(n))
            for row in report.rows:
                always &= {i for i, e in enumerate(row.eventual) if e.kind == "learns"}
            assert always == {0}, (n, protocol)
    ok(8, "blind Alice: the blind agent is the unique always-learner, both protocols")


# -- 9 -------------------------------------------------------------------------


def test_criterion_09_maxdiff_grid_and_puzzle9():
    mismatches = 0
    for d in range(1, 5):
        for m in range(d, 31):
            rounds = m // d + 4
            cap = m + (rounds + 2) * d
            for holder in ("alice", "bob"):
                world = (m, m - d) if holder == "alice" else (m - d, m)
                for proto_name in ("simultaneous", "circular"):
                    protocol = Simultaneous(rounds) if proto_name == "simultaneous" \
                        else Circular((0, 1), rounds)
                    sc = Scenario("md", ("alice", "bob"), MaxDiffExact(d, cap), Full(),
                                  protocol, world)
                    t = run(sc)
                    pred = oracles.predict_maxdiff_two(m, d, proto_name, holder)
                    mismatches += bool(oracles.cross_check(pred, t))
                    assert stability_check(sc, 10), (d, m, holder, proto_name)
    assert mismatches == 0
    puzzle9 = run(Scenario("p9", ("alice", "bob"), MaxDiffExact(1, 20), Full(),
                           Circular((0, 1), 12), (2, 3)))
    assert puzzle9.eventual[1] == Eventual.learns(2, 4)
    assert puzzle9.eventual[0] == Eventual.learns(3, 5)
    ok(9, "two-person max difference: oracle matches engine on the full grid, stable caps")


# -- 10 ------------------------------------------------------------------------


def _consecutive_rows(n, protocol_kind, cap):
    protocol = Simultaneous(20) if protocol_kind == "simultaneous" \
        else Circular(tuple(range(n)), 20)
    family = Scenario("cons", agents(n), ConsecutiveDistinct(cap), Full(), protocol,
                      None)
    return {row.world: row for row in sweep(family).rows}


def test_criterion_10_consecutive():
    for n, kind in ((3, "circular"), (3, "simultaneous"), (4, "simultaneous")):
        small = _consecutive_rows(n, kind, 9)
        grown = _consecutive_rows(n, kind, 15)
        unstable = {w for w in small if small[w].eventual != grown[w].eventual}
        # instability is a bounding artifact confined to the top of the cap
        assert all(max(w) >= 7 for w in unstable), (n, kind, unstable)
        for w, row in small.items():
            if w in unstable:
                continue
            pred = oracles.predict_consecutive(w, kind)
            for agent, expected in enumerate(pred.outcomes):
                assert expected is None or row.eventual[agent] == expected, (n, kind, w)

    small = _consecutive_rows(4, "circular", 9)
    grown = _consecutive_rows(4, "circular", 15)
    stable = {w for w in small if small[w].eventual == grown[w].eventual}
    assert all(max(w) >= 7 for w in set(small) - stable)
    engine_all_yes = {
        w for w in stable
        if all(e.kind == "learns" and e.round == 1 for e in small[w].eventual)
    }
    oracle_all_yes = {
        w for w in small if oracles.consecutive_four_all_yes(w, (0, 1, 2, 3))
    }
    assert engine_all_yes == oracle_all_yes
    assert len({tuple(sorted(w)) for w in oracle_all_yes}) == 2  # {0..3} and {2..5}
    ok(10, "consecutive numbers: N=3 branch table and the three all-YES N=4 cases")


# -- 11 ------------------------------------------------------------------------


def _d1_mismatches(sizes):
    mismatches = 0
    for n in sizes:
        for m in range(0, 3):
            for p in range(1, n):
                world = tuple(sorted([m + 1] * p + [m] * (n - p)))
                rounds = m * (n - 1) + p + 4
                cap = m + 1 + rounds + 2
                sc = Scenario("d1", agents(n), MaxDiffExact(1, cap), Full(),
                              Simultaneous(rounds), world)
                t = run(sc)
                mismatches += bool(oracles.cross_check(oracles.predict_d1_world(world), t))
    return mismatches


def test_criterion_11_d1_formula():
    assert _d1_mismatches(range(3, 10)) == 0
    ok(11, "difference-one multisets: round formula matches engine for N in [3,9]")


@pytest.mark.slow
def test_criterion_11_d1_formula_large_slow():
    assert _d1_mismatches(range(10, 13)) == 0
    ok(11, "difference-one multisets: round formula matches engine for N in [10,12]")


def _static_round1_yes_count(profile):
    """Round-1 YES classes: an agent knows at once iff everyone it sees is
    closer than the announced difference to the floor."""
    d = profile[-1] - profile[0]
    count = 0
    for i, v in enumerate(profile):
        if i > 0 and profile[i - 1] == v:
            continue
        obs = profile[:i] + profile[i + 1:]
        if max(obs) < d:
            count += profile.count(v)
    return count


def test_criterion_11_puzzle_pattern_sweep():
    target = (1, 0, 2, 3)
    hits = set()
    for n in range(3, 9):
        for d in range(1, 6):
            cap = 5 + 7 * d
            profiles = profile_universe(MaxDiffExact(d, cap), n)
            low = [p for p in profiles if max(p) <= 5]
            if not any(_static_round1_yes_count(p) == 1 for p in low):
                continue
            table = run_profiles(profiles, 6)
            for prof in low:
                firsts = table[prof]
                if any(r is None for r in firsts.values()):
                    continue
                if yes_pattern(firsts, prof) == target:
                    hits.add((n, prof))
    # the published solution, plus a second configuration the published
    # uniqueness argument misses: with difference 3 announced, the holder of 4
    # above (1,1,2,2,2) is forced in round 1 because the low alternative would
    # be negative; the rest of the pattern then plays out identically
    # (verified against the exhaustive engine and cap-stable, see below)
    assert hits == {(6, (0, 0, 1, 1, 1, 2)), (6, (1, 1, 2, 2, 2, 4))}
    for prof, d in (((0, 0, 1, 1, 1, 2), 2), ((1, 1, 2, 2, 2, 4), 3)):
        cap = max(prof) + 30
        sc = Scenario("p11", agents(6), MaxDiffExact(d, cap), Full(), Simultaneous(20),
                      prof)
        t = run(sc)
        firsts = first_rounds(t)
        assert tuple(sum(1 for f in firsts if f == r) for r in range(1, 5)) == target
        assert stability_check(sc, 10)
    ok(11, "pattern sweep: published multiset found; one floor-forced companion recorded")


@pytest.mark.slow
def test_criterion_11_family_sweep_matches_world_root_slow():
    # every world of the confirmation run's family as the actual world: the
    # sweep plays on block profiles, and each row must be the world root's
    family = Scenario("p11", agents(6), MaxDiffExact(3, 34), Full(), Simultaneous(20), None)
    rows = sweep(family).rows
    with mock.patch.object(engine, "run_path", lambda sc, vis: "materialized"):
        expected = sweep(family).rows
    assert len(rows) == len(expected) == 86_464
    assert rows == expected
    ok(11, "full-sight family sweep: 86,464 rows from block profiles equal the world root's")


# -- 12 ------------------------------------------------------------------------


def consistent_pairs(m):
    pairs = {(a, m - a) for a in range(1, m)}
    pairs |= {(a, m // a) for a in range(1, m + 1) if m % a == 0}
    return sorted(pairs)


def test_criterion_12_sop_two_agents():
    for m in range(1, 61):
        for a, b in consistent_pairs(m):
            for proto_name in ("simultaneous", "circular"):
                labels = oracles.sop_two_matching_cases(a, b, m, proto_name)
                assert len(labels) == 1, (a, b, m, proto_name, labels)
                pred = oracles.predict_sop_two(a, b, m, proto_name)
                protocol = Simultaneous(70) if proto_name == "simultaneous" \
                    else Circular((0, 1), 70)
                t = run(Scenario("sop", ("alice", "bob"), SumOrProduct(m), Full(),
                                 protocol, (a, b)))
                assert oracles.cross_check(pred, t) == [], (a, b, m, proto_name)

    # the fifty puzzles: after NO, NO the live worlds are (25,2) and (25,25)
    universe = Scenario("p13", ("alice", "bob"), SumOrProduct(50), Full(),
                        Circular((0, 1), 10), (25, 25))
    vis = universe.visibility()
    state = universe.universe()
    state = filter_turn(state, 0, False, vis)
    state = filter_turn(state, 1, False, vis)
    assert set(state) == {(25, 2), (25, 25)}
    t13 = run(universe)
    assert t13.final_candidates == ((25,), (2, 25))

    t14 = run(Scenario("p14", ("alice", "bob"), SumOrProduct(50), Full(),
                       Simultaneous(10), (25, 25)))
    assert t14.answers_by_round() == [(False,) * 2, (False,) * 2, (True,) * 2]
    assert t14.final_candidates == ((25,), (25,))
    ok(12, "two-person sum-or-product: both summary lists exhaustive, fifty puzzles solved")


# -- 13 ------------------------------------------------------------------------


def test_criterion_13_sop_prime():
    for m in (2, 3, 5, 7, 11):
        for n in range(3, 7):
            for proto_name in ("simultaneous", "circular"):
                protocol = Simultaneous(40) if proto_name == "simultaneous" \
                    else Circular(tuple(range(n)), 40)
                family = Scenario("prime", agents(n), SumOrProduct(m), Full(), protocol, None)
                if family.constraint.count_worlds(n) == 0:
                    continue
                for row in sweep(family).rows:
                    pred = oracles.predict_sop_prime(row.world, m, proto_name)
                    for agent, expected in enumerate(pred.outcomes):
                        assert expected is None or row.eventual[agent] == expected, (
                            m, n, proto_name, row.world, agent)
    ok(13, "prime announcements: case table verified on the full grid, both protocols")


# -- 14 ------------------------------------------------------------------------


def test_criterion_14_sop_semiprime():
    grids = {6: range(3, 5), 10: range(3, 7), 15: range(3, 9)}
    labels_seen = set()
    for m, ns in grids.items():
        for n in ns:
            family = Scenario("semi", agents(n), SumOrProduct(m), Full(),
                              Simultaneous(40), None)
            for row in sweep(family).rows:
                pred = oracles.predict_sop_semiprime(row.world, m)
                labels_seen.add(pred.label)
                for agent, expected in enumerate(pred.outcomes):
                    assert expected is None or row.eventual[agent] == expected, (
                        m, n, row.world, agent)
    for needed in ("semiprime case 1", "semiprime case 2a", "semiprime case 2b",
                   "semiprime case 2c", "semiprime case 3a", "semiprime case 3b",
                   "semiprime case 3c", "semiprime case 3c at threshold",
                   "semiprime case 3d"):
        assert needed in labels_seen, needed

    # all-ones requires N = M, outside the grids above; exercise it directly
    all_ones = run(Scenario("semi3e", agents(6), SumOrProduct(6), Full(),
                            Simultaneous(10), (1,) * 6))
    pred = oracles.predict_sop_semiprime((1,) * 6, 6)
    assert pred.label == "semiprime case 3e"
    assert oracles.cross_check(pred, all_ones) == []

    # puzzle fixtures
    t15 = run(Scenario("p15", agents(3), SumOrProduct(35), Full(), Simultaneous(8),
                       (1, 5, 7)))
    assert t15.answers_by_round() == [(False,) * 3, (True,) * 3]

    semiprimes = [m for m in range(2, 36) if oracles.is_semiprime(m)]
    guaranteed = []
    for m in semiprimes:
        family = Scenario("p16", agents(3), SumOrProduct(m), Full(), Simultaneous(8), None)
        universe = family.universe()
        vis = family.visibility()
        always = all(
            any(answer_vector(universe, w, vis)) for w in universe
        )
        if always:
            guaranteed.append(m)
    assert guaranteed == [6]

    half = run(Scenario("half", ("alice", "bob", "cindy", "dylan"), SumOrProduct(10),
                        Full(), Simultaneous(8), (2, 2, 5, 1)))
    assert half.answers_by_round()[0] == (False, False, True, True)
    assert first_rounds(half) == [2, 2, 1, 1]
    # a first-round YES is exactly a first-YES in round one, so exactly-two-NO
    # worlds are those with exactly two late (or never) learners
    family = Scenario("half-sweep", agents(4), SumOrProduct(10), Full(), Simultaneous(8), None)
    rows = sweep(family).rows
    found = 0
    for row in rows:
        silent = {i for i, e in enumerate(row.eventual)
                  if not (e.kind == "learns" and e.round == 1)}
        if len(silent) == 2:
            found += 1
            assert tuple(sorted(row.world)) == (1, 2, 2, 5)
            # and the silent pair are exactly the holders of 2
            assert all(row.world[i] == 2 for i in silent)
    assert found
    ok(14, "semiprime announcements: all subcases verified; puzzles 15, 16, and half-of-us")


# -- 15 ------------------------------------------------------------------------


def test_criterion_15_line_sum_scaled():
    # mandatory scaled variant, fully materialized: five agents, sums 12-14;
    # the unique forcing value for the second seat is 10 (the largest sum
    # minus the four other minimum values), giving all YES in one round
    sc = Scenario("line5", agents(5), SumInSet((12, 13, 14)), NearLine(),
                  Circular(tuple(range(5)), 4), (1, 10, 1, 1, 1))
    assert sc.constraint.count_worlds(5) == 1540
    universe = sc.universe()
    assert len(universe) == 1540
    t = run(sc)
    assert t.answers_by_turn() == [True] * 5
    assert t.stabilized_at == 1
    # the first announcement collapses the state to the actual world
    vis = sc.visibility()
    collapsed = filter_turn(universe, 0, True, vis)
    assert tuple(collapsed) == ((1, 10, 1, 1, 1),)
    ok(15, "line-sum scaled variant: full materialization, all YES in round one")


def test_criterion_15_line_sum_block_profiles():
    # the ten-person line over block profiles, never generating a world: the root
    # holds the 1,990 profiles of one block; seat 0's step deals them into 36,053
    # over the blocks {0}, {1} and the rest, and keeps the actual world alone,
    # which is held from then on
    sc = dsl.parse_file(str(FIXTURES / "line10_puzzle8.slow.ck"))
    assert sc.constraint == SumInSet((30, 31, 32)) and sc.sight == NearLine()
    assert sc.actual == (1, 23) + (1,) * 8
    held, real = [], engine._capped

    def capped(profiles, size, blocks, *count):
        out = real(profiles, size, blocks, *count)
        held.append((size, len(blocks), len(out)))
        return out

    with mock.patch.object(SumInSet, "generate", side_effect=AssertionError("generate was called")), \
            mock.patch.object(engine, "_capped", capped):
        assert engine.run_path(sc, sc.visibility()) == "blocks"
        t = run(sc)
    assert held == [(44482230, 1, 1990), (44482230, 3, 36053)]
    assert t.initial_size == 44482230
    assert [e.state_size for e in t.events] == [1] * 10
    assert t.answers_by_turn() == [True] * 10
    assert t.stabilized_at == 1
    assert dsl.match_expectation(dsl.parse_expected_file(str(FIXTURES / "line10_puzzle8.slow.expect")),
                                 t, sc.alphabet) == []
    ok(15, "ten-person line: 44.5M worlds over 1,990 then 36,053 block profiles, all YES in the first round")


# -- 16 ------------------------------------------------------------------------


def test_criterion_16_property_suite():
    rng = random.Random(20260808)
    filter_cases = transcript_cases = 0
    for case in range(1000):
        n = rng.randint(2, 5)
        alphabet = rng.randint(2, 3)
        # random world set, visibility, and actual world
        size = rng.randint(1, 20)
        worlds = {tuple(rng.randrange(alphabet) for _ in range(n)) for _ in range(size)}
        state = KnowledgeState.from_worlds(worlds)
        actual = rng.choice(state.worlds)
        sees = tuple(
            frozenset(j for j in range(n) if j != i and rng.random() < 0.7)
            for i in range(n)
        )
        vis = VisibilityGraph(sees)

        announced = answer_vector(state, actual, vis)
        yes_before = {i for i in range(n) if announced[i]}
        filtered = filter_simultaneous(state, announced, vis)
        # retention and monotone shrink
        assert actual in filtered
        assert set(filtered) <= set(state)
        speaker = rng.randrange(n)
        turned = filter_turn(state, speaker, knows_own(speaker, actual, state, vis), vis)
        assert actual in turned
        assert set(turned) <= set(state)
        # YES-permanence
        for i in yes_before:
            assert knows_own(i, actual, filtered, vis)
        filter_cases += 1

        # transcript-level properties on a hat scenario drawn from the same rng
        color = rng.randrange(alphabet)
        count = rng.randint(1, n)
        constraint = HatsAtLeast(color, count, alphabet)
        hat_universe = list(constraint.generate(n))
        hat_actual = rng.choice(hat_universe)
        if rng.random() < 0.5:
            order = list(range(n))
            rng.shuffle(order)
            protocol = Circular(tuple(order), n * alphabet + 4)
        else:
            protocol = Simultaneous(n * alphabet + 4)
        sc = Scenario("prop", agents(n), constraint, Full(), protocol, hat_actual)
        t = run(sc)
        # fixpoint soundness
        assert t.stabilized_at is not None
        # relabeling equivalence
        perm = list(range(alphabet))
        rng.shuffle(perm)
        relabeled = Scenario(
            "prop", sc.agents, HatsAtLeast(perm[color], count, alphabet), Full(),
            protocol, tuple(perm[v] for v in hat_actual))
        t2 = run(relabeled)
        assert [e.answer for e in t.events] == [e.answer for e in t2.events]
        assert t.eventual == t2.eventual
        # JSON round trip, byte identical
        text = dsl.serialize_transcript(t)
        assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n" == text
        assert dsl.serialize_transcript(run(sc)) == text
        transcript_cases += 1
    assert filter_cases == transcript_cases == 1000
    ok(16, "property suite: 1000 randomized cases, zero failures")


# -- the fixture gate -----------------------------------------------------------


def test_fixture_corpus_gate(capsys):
    assert cli_main(["verify", str(FIXTURES)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    ok("**", "shipped fixture corpus verifies clean (top-level gate)")


def test_full_sight_fixtures_learn_in_the_profile_evaluators_rounds():
    # every fixture that run plays on block profiles from one block (full sight,
    # simultaneous) against run_profiles' table, which no run reads
    played = 0
    for path in sorted(FIXTURES.glob("*.ck")):
        sc = dsl.parse_file(str(path))
        if path.name.endswith(".slow.ck") or engine.run_path(sc, sc.visibility()) != "profiles":
            continue
        table = run_profiles(profile_universe(sc.constraint, sc.n_agents), sc.protocol.max_rounds)
        firsts = table[tuple(sorted(sc.actual))]
        assert first_rounds(run(sc)) == [firsts[v] for v in sc.actual], path.name
        played += 1
    assert played == 11
    ok("**", "the 11 full-sight simultaneous fixtures learn in the rounds of the profile evaluator's table")
