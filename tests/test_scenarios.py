"""Universe generation, visibility models, and the materialize limit."""

import itertools
import math
import tracemalloc

import pytest

from ckgames import engine, scenarios
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
    gen_universe,
    gen_visibility,
)


def test_hats_at_least_count():
    assert len(gen_universe(HatsAtLeast(0, 1, 2), 3)) == 7


def test_sum_or_product_50():
    u = gen_universe(SumOrProduct(50), 2)
    # 49 sum pairs plus 6 product pairs, no overlap
    assert len(u) == 55
    sums = {w for w in u if sum(w) == 50}
    prods = {w for w in u if w[0] * w[1] == 50}
    assert len(sums) == 49 and len(prods) == 6 and not (sums & prods)


def test_sum_or_product_yields_its_first_worlds_without_building_the_rest():
    # 273,819 compositions of 120 into 4 parts; building and sorting them all
    # before the first world peaks at about 30 MB
    tracemalloc.start()
    try:
        first = list(itertools.islice(SumOrProduct(120).generate(4), 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first[:3] == [(1, 1, 1, 117), (1, 1, 1, 120), (1, 1, 2, 60)]
    assert len(first) == 10 and first == sorted(set(first))
    assert peak < 1_000_000


def test_sum_in_set_composition_counts():
    c = SumInSet((30, 31, 32))
    expect = math.comb(29, 9) + math.comb(30, 9) + math.comb(31, 9)
    assert c.count_worlds(10) == expect == 44482230


def test_consecutive_counts():
    c = ConsecutiveDistinct(9)
    assert c.count_worlds(4) == 7 * 24
    assert len(gen_universe(c, 4)) == 7 * 24


def test_generators_lexicographic_and_consistent():
    cases = [
        (HatsAtLeast(0, 2, 3), 3),
        (HatsExactly(0, 1, 2), 4),
        (MaxDiffExact(2, 7), 3),
        (MaxDiffAtMost(2, 5), 3),
        (ConsecutiveDistinct(6), 3),
        (SumOrProduct(12), 3),
        (SumInSet((7, 9)), 3),
        (ZeroOne(), 3),
    ]
    for c, n in cases:
        ws = list(c.generate(n))
        assert ws == sorted(ws), c
        assert len(ws) == len(set(ws)) == c.count_worlds(n), c
        assert all(c.contains(w) for w in ws), c


def test_more_hats_of_a_color_than_agents_is_empty():
    # one colour cannot fill fewer seats than it is announced on; the count must
    # be the integer 0, not a float or a division error
    for c in (HatsExactly(0, 3, 1), HatsExactly(0, 4, 2), HatsAtLeast(1, 4, 3)):
        assert list(c.generate(2)) == []
        assert c.count_worlds(2) == 0 and type(c.count_worlds(2)) is int


def test_maxdiff_exact_semantics():
    for w in gen_universe(MaxDiffExact(3, 8), 3):
        assert max(w) - min(w) == 3


def test_visibility_far_circle():
    vis = gen_visibility(FarCircle(), 10)
    assert vis.sees[0] == frozenset(range(2, 9))


def test_visibility_near_line_ends():
    vis = gen_visibility(NearLine(), 10)
    assert vis.sees[0] == frozenset({1})
    assert vis.sees[9] == frozenset({8})
    assert vis.sees[4] == frozenset({3, 5})


def test_visibility_blind():
    vis = gen_visibility(Blind(frozenset({0})), 5)
    assert vis.sees[0] == frozenset()
    assert all(len(vis.sees[i]) == 4 for i in range(1, 5))


def test_visibility_models_self_exclusive():
    for n in range(3, 13):
        for model in (Full(), NearCircle(), FarCircle(), NearLine(), Blind(frozenset({1}))):
            vis = gen_visibility(model, n)
            for i, seen in enumerate(vis.sees):
                assert i not in seen


def test_circle_needs_three():
    for _ in range(2):  # a refusal is not cached: every call raises
        with pytest.raises(GenerationError):
            gen_visibility(NearCircle(), 2)


def test_gen_universe_refuses_more_worlds_than_the_materialize_limit(monkeypatch):
    # the limit is checked against the count, before any world is generated
    monkeypatch.setattr(scenarios, "MATERIALIZE_LIMIT", 6)
    monkeypatch.setattr(HatsAtLeast, "generate", lambda self, n: pytest.fail("generated a refused universe"))
    with pytest.raises(GenerationError, match="universe has 7 worlds, more than the 6 a held universe may have"):
        gen_universe(HatsAtLeast(0, 1, 2), 3)
    monkeypatch.setattr(scenarios, "MATERIALIZE_LIMIT", 7)
    assert len(gen_universe(HatsExactly(0, 1, 2), 7)) == 7


def test_generate_yields_strictly_increasing_worlds():
    c = SumOrProduct(18)
    made = list(c.generate(3))
    assert made == sorted(set(made)) and len(made) == c.count_worlds(3)


def test_generate_with_predicates():
    # scaled version of the ten-person line: forcing the seen value pins the rest
    c = SumInSet((12, 13, 14))
    picky = [w for w in c.generate(5) if w[1] == 10]
    assert picky == [(1, 10, 1, 1, 1)]


def test_generate_nondivisor_complement():
    c = SumOrProduct(35)
    total = c.count_worlds(3)
    divisor_only = sum(1 for w in c.generate(3) if all(35 % v == 0 for v in w))
    with_nondiv = sum(1 for w in c.generate(3) if any(35 % v for v in w))
    assert divisor_only + with_nondiv == total


def test_cap_below_difference_rejected():
    with pytest.raises(GenerationError):
        MaxDiffExact(5, 3)


def test_scenario_validation():
    sc = Scenario("x", ("a", "b"), MaxDiffExact(1, 9), Full(), Simultaneous(5), (2, 3))
    sc.validate()
    bad = Scenario("x", ("a", "b"), MaxDiffExact(1, 9), Full(), Simultaneous(5), (2, 5))
    with pytest.raises(GenerationError):
        bad.validate()


def test_circular_order_must_be_permutation():
    with pytest.raises(GenerationError):
        Circular((0, 0, 1), 5)


@pytest.mark.parametrize("build, message", [
    (lambda: gen_visibility(Full(), 1), "need at least 2 agents"),
    (lambda: gen_visibility(Blind((0, 3)), 3), r"blind agent index out of range: \[3\]"),
    (lambda: gen_visibility(Blind((-1,)), 3), r"blind agent index out of range: \[-1\]"),
    (lambda: gen_visibility(FarCircle(), 2), "a circle needs at least 3 agents"),
    (lambda: gen_visibility("everyone", 3), "unknown sight model 'everyone'"),
    (lambda: gen_universe(HatsAtLeast(0, 1, 2), 1), "need at least 2 agents"),
    (lambda: Scenario("x", ("a", "b"), MaxDiffExact(1, 9), Full(), Simultaneous(5), (2, 3, 4)).validate(),
     "actual world length does not match agent count"),
    (lambda: Simultaneous(0), "max_rounds must be positive"),
    (lambda: Circular((0, 1), 0), "max_rounds must be positive"),
    (lambda: HatsAtLeast(5, 1, 2), "hat color 5 is not one of the 2 colors"),
    (lambda: HatsExactly(0, -1, 2), "hat count must be non-negative"),
    (lambda: engine.run(Scenario("x", ("a", "b", "c", "d"), HatsAtLeast(0, 1, 2), Full(), Circular((0, 1, 2), 3),
                                 (0, 1, 1, 1))),
     "circular order must be a permutation of the agents"),
    (lambda: Scenario("x", ("a", "b", "c"), HatsAtLeast(0, 1, 2), Full(), Circular((0, 1, 2, 3), 3),
                      (0, 1, 1)).validate(),
     "circular order must be a permutation of the agents"),
], ids=["one-seat-sight", "blind-above", "blind-below", "two-seat-far-circle", "unknown-sight",
        "one-seat-universe", "actual-length", "simultaneous-rounds", "circular-rounds",
        "hat-color", "hat-count", "circular-order-misses-a-seat", "circular-order-invents-a-seat"])
def test_refusals_only_the_python_api_reaches(build, message):
    with pytest.raises(GenerationError, match=f"^{message}$"):
        build()
