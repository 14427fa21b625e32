"""Spot checks of the closed-form predictors and the cross-check reporter."""

import pytest

from ckgames import oracles
from ckgames.engine import Eventual, run
from ckgames.oracles import OracleError
from ckgames.scenarios import (
    Circular, ConsecutiveDistinct, Full, HatsAtLeast, HatsExactly, NearCircle, Scenario, Simultaneous, SumOrProduct,
)

R, B = 0, 1


def test_hats_simultaneous_nine_six():
    pred = oracles.predict_hats_simultaneous(9, 6)
    assert pred.outcomes[0] == Eventual.learns(6, 6)
    assert pred.outcomes[8] == Eventual.learns(7, 7)


def test_hats_simultaneous_rejects_zero_reds():
    with pytest.raises(OracleError):
        oracles.predict_hats_simultaneous(4, 0)


def test_hats_circular_alternating():
    pred = oracles.predict_hats_circular((R, B, R, B), (0, 1, 2, 3))
    assert pred.outcomes[0].kind == "never"
    assert pred.outcomes[1].kind == "never"
    assert pred.outcomes[2] == Eventual.learns(1, 3)
    assert pred.outcomes[3] == Eventual.learns(1, 4)


def test_maxdiff_two_puzzle9():
    pred = oracles.predict_maxdiff_two(3, 1, "circular", "bob")
    assert pred.outcomes[1] == Eventual.learns(2, 4)
    assert pred.outcomes[0] == Eventual.learns(3, 5)


def test_maxdiff_two_alice_sees_zero():
    pred = oracles.predict_maxdiff_two(1, 1, "circular", "alice")
    assert pred.outcomes[0] == Eventual.learns(1, 1)


def test_maxdiff_two_simultaneous_floor():
    pred = oracles.predict_maxdiff_two(7, 2, "simultaneous", "alice")
    assert pred.outcomes[0] == Eventual.learns(3, 3)
    assert pred.outcomes[1] == Eventual.learns(4, 4)


def test_consecutive_simultaneous_cases():
    with_zero = oracles.predict_consecutive((2, 0, 1), "simultaneous")
    assert with_zero.outcomes[0] == Eventual.learns(1, 1)  # max sees the zero
    assert with_zero.outcomes[1] == Eventual.learns(2, 2)
    without = oracles.predict_consecutive((5, 4, 6), "simultaneous")
    assert without.outcomes[0] == Eventual.learns(1, 1)  # normal
    assert without.outcomes[1] == Eventual.learns(2, 2)
    assert without.outcomes[2] == Eventual.learns(2, 2)


def test_consecutive_circular_branch_table():
    first_no = oracles.predict_consecutive((6, 5, 4), "circular")
    assert first_no.outcomes[0].kind == "never"
    with_two = oracles.predict_consecutive((2, 1, 3), "circular")
    assert with_two.outcomes[0] == Eventual.learns(1, 1)
    assert with_two.outcomes[1] == Eventual.learns(1, 2)  # holder of 1
    assert with_two.outcomes[2].kind == "never"  # holder of 3


def test_consecutive_four_cases():
    order = (0, 1, 2, 3)
    assert oracles.consecutive_four_all_yes((1, 0, 2, 3), order)
    assert oracles.consecutive_four_all_yes((3, 1, 0, 2), order)
    assert not oracles.consecutive_four_all_yes((3, 0, 1, 2), order)  # 0 before 1
    assert oracles.consecutive_four_all_yes((3, 4, 2, 5), order)
    assert not oracles.consecutive_four_all_yes((3, 5, 2, 4), order)
    assert not oracles.consecutive_four_all_yes((2, 1, 3, 4), order)  # set {1,2,3,4}


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (1, 2, 3, 0), (2, 3, 0, 1)])
def test_consecutive_four_circular_matches_engine(order):
    # everyone says YES in round 1 exactly where the oracle predicts it.  The
    # worlds checked stay at least 4 below the cap: next to it, answers also
    # reflect the values the cap leaves out (here worlds topped by 10 or 12 differ)
    family = ConsecutiveDistinct(12)
    worlds = [w for w in family.generate(4) if max(w) <= 8]
    all_yes = 0
    for w in worlds:
        pred = oracles.predict_consecutive(w, "circular", order)
        t = run(Scenario("c4", ("a", "b", "c", "d"), family, Full(), Circular(order, 8), w))
        assert oracles.cross_check(pred, t) == [], w
        everyone = all(t.answers_by_round()[0])
        assert everyone == (pred.round1_yes is not None), w
        all_yes += everyone
    # the first speaker holds 1 over {0..3} (6 seatings), or holds 3 over {0..3}
    # with 1 spoken before 0 (3), or holds 3 over {2..5} with 4 before 5 (3)
    assert len(worlds) == 144 and all_yes == 6 + 3 + 3


def test_d1_multiset_formula():
    pred = oracles.predict_d1_world((1, 1, 2))
    assert pred.outcomes[2] == Eventual.learns(3, 3)
    assert pred.outcomes[0] == Eventual.learns(4, 4)
    ones = oracles.predict_d1_world((1, 1, 1, 0, 0))
    assert ones.outcomes[0] == Eventual.learns(3, 3)  # r ones say YES in round r
    canonical = oracles.predict_d1_multiset(5, zeros=2, minimum=0, max_count=3)
    assert canonical.outcomes == ones.outcomes
    with pytest.raises(OracleError):
        oracles.predict_d1_multiset(4, zeros=1, minimum=0, max_count=2)


def test_sop_two_summary_rows():
    both_25 = oracles.predict_sop_two(25, 25, 50, "simultaneous")
    assert both_25.outcomes == (Eventual.learns(3, 3), Eventual.learns(3, 3))
    circ = oracles.predict_sop_two(25, 25, 50, "circular")
    assert circ.outcomes[0] == Eventual.learns(2, 3)
    assert circ.outcomes[1].kind == "never"
    ones = oracles.predict_sop_two(1, 1, 2, "circular")
    assert ones.outcomes[0].kind == "never"
    assert ones.outcomes[1] == Eventual.learns(1, 2)


def test_sop_two_rejects_inconsistent():
    with pytest.raises(OracleError):
        oracles.predict_sop_two(3, 4, 50, "circular")


def test_sop_prime_cases():
    two_nonones = oracles.predict_sop_prime((2, 3, 1, 1), 7, "simultaneous")
    assert all(e == Eventual.learns(1, 1) for e in two_nonones.outcomes)
    lone = oracles.predict_sop_prime((5, 1, 1), 7, "simultaneous")
    assert lone.outcomes[0].kind == "never"
    all_ones = oracles.predict_sop_prime((1, 1, 1), 3, "circular")
    assert all_ones.outcomes[0].kind == "never"
    assert all_ones.outcomes[1] == Eventual.learns(1, 2)


def test_sop_semiprime_cases():
    p15 = oracles.predict_sop_semiprime((1, 5, 7), 35)
    assert all(e == Eventual.learns(2, 2) for e in p15.outcomes)
    half = oracles.predict_sop_semiprime((2, 2, 5, 1), 10)
    assert half.label == "semiprime case 3a"
    assert half.outcomes[0] == Eventual.learns(2, 2)
    assert half.outcomes[2] == Eventual.learns(1, 1)
    lone = oracles.predict_sop_semiprime((7, 2, 1), 10)
    assert lone.label == "semiprime case 2b"
    assert lone.outcomes[0] == Eventual.learns(2, 2)


def test_ns_circular_branches():
    assert oracles.predict_ns_circular(3, 2).learners == frozenset({0, 1, 2})
    # everyone but the second and last sages
    assert oracles.predict_ns_circular(6, 2).learners == frozenset({0, 2, 3, 4})
    assert oracles.predict_ns_circular(7, 4).learners == frozenset(range(7))
    assert oracles.predict_ns_circular(8, 3).learners == frozenset({1, 3, 5, 7})
    assert oracles.predict_ns_circular(9, 5).learners == frozenset({1, 3, 5, 7, 8})


def test_cross_check_clean_and_dirty():
    sc = Scenario("x", ("alice", "bob"), SumOrProduct(50), Full(),
                  Circular((0, 1), 10), (25, 25))
    t = run(sc)
    good = oracles.predict_sop_two(25, 25, 50, "circular")
    assert oracles.cross_check(good, t) == []
    # a deliberate off-by-one produces exactly one reported mismatch
    bad = oracles.OraclePrediction(
        label=good.label, outcomes=(Eventual.learns(2, 4), good.outcomes[1]))
    report = oracles.cross_check(bad, t)
    assert len(report) == 1 and "alice" in report[0]


def test_cross_check_round1_set():
    sc = Scenario("x", ("a", "b", "c"), HatsAtLeast(R, 1, 2), Full(), Simultaneous(6), (R, B, B))
    t = run(sc)
    pred = oracles.OraclePrediction(label="r1", round1_yes=frozenset({0}))
    assert oracles.cross_check(pred, t) == []
    pred2 = oracles.OraclePrediction(label="r1", round1_yes=frozenset({1}))
    assert len(oracles.cross_check(pred2, t)) == 1


def test_cross_check_learners_and_unpredicted_agents():
    # near-sighted circle of 6, red at seat 2: everyone learns but the second and last sages
    world = (B, R, B, B, B, B)
    t = run(Scenario("x", tuple("abcdef"), HatsExactly(R, 1, 2), NearCircle(), Circular(tuple(range(6)), 16),
                     world))
    good = oracles.predict_ns_circular(6, 2)
    assert oracles.cross_check(good, t) == []
    wrong = oracles.OraclePrediction(label="ns", learners=frozenset({0, 2, 3}))
    assert oracles.cross_check(wrong, t) == ["ns: learners expected [0, 2, 3], engine says [0, 2, 3, 4]"]
    # a None outcome predicts nothing for its agent, so only seat a's wrong outcome is reported
    outcomes = (Eventual.learns(9, 9),) + (None,) * 5
    assert oracles.cross_check(oracles.OraclePrediction(label="ns", outcomes=outcomes), t) == [
        "ns: a expected learns(round 9, turn 9), engine says learns(round 1, turn 1)"
    ]
    assert oracles.cross_check(oracles.OraclePrediction(label="ns", outcomes=(None,) * 6), t) == []
