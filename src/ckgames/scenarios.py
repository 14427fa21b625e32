"""Universe constraints, sight models, and scenario construction.

Each constraint can enumerate its full world set in canonical (lexicographic)
order, enumerate the sorted value profiles (multisets) of those worlds
directly, each once, test membership, and report an exact count without
enumerating.  The
constraints whose natural universe is infinite (exact or at-most maximum
difference, consecutive numbers) have a `cap` field, the largest value a
world may hold; needs_cap tells them by it, and nothing else stores the cap.
The cap is a finite proxy, not a proof: engine.stability_check compares one
run at two caps, and nothing checks a sweep's family.

Every constraint is exchangeable: it accepts a world by its multiset of
values, never by which seat holds which value, so `contains(w)` equals
`contains(p(w))` for every permutation p of the seats and every universe is
closed under all of them.  The engine relies on this: it takes its seat
symmetries from the sight graph and the protocol alone and never checks the
universe (see engine._sweep_group).  A new constraint class must keep the
contract; test_properties checks it for every class.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterator, Optional

from .worlds import KnowledgeState, VisibilityGraph, World


class GenerationError(Exception):
    """Constraint/agent-count mismatch, a cap below what the constraint needs,
    or an inconsistent actual world."""


# ---------------------------------------------------------------------------
# universe constraints


def _check_hats(c) -> None:
    if not 0 <= c.color < c.n_colors:
        raise GenerationError(f"hat color {c.color} is not one of the {c.n_colors} colors")
    if c.count < 0:
        raise GenerationError("hat count must be non-negative")


@dataclass(frozen=True)
class HatsAtLeast:
    """At least `count` agents wear color `color` (index into the alphabet)."""

    color: int
    count: int
    n_colors: int

    def __post_init__(self):
        _check_hats(self)

    def generate(self, n: int) -> Iterator[World]:
        return _hat_tuples(self.n_colors, n, self.color, self.count, n)

    def profiles(self, n: int) -> Iterator[World]:
        return _hat_profiles(self.n_colors, n, self.color, self.count, n)

    def contains(self, w: World) -> bool:
        return (
            all(0 <= v < self.n_colors for v in w) and w.count(self.color) >= self.count
        )

    def count_worlds(self, n: int) -> int:
        c = self.n_colors
        return sum(
            math.comb(n, k) * (c - 1) ** (n - k) for k in range(self.count, n + 1)
        )


@dataclass(frozen=True)
class HatsExactly:
    """Exactly `count` agents wear color `color`."""

    color: int
    count: int
    n_colors: int

    def __post_init__(self):
        _check_hats(self)

    def generate(self, n: int) -> Iterator[World]:
        return _hat_tuples(self.n_colors, n, self.color, self.count, self.count)

    def profiles(self, n: int) -> Iterator[World]:
        return _hat_profiles(self.n_colors, n, self.color, self.count, self.count)

    def contains(self, w: World) -> bool:
        return (
            all(0 <= v < self.n_colors for v in w) and w.count(self.color) == self.count
        )

    def count_worlds(self, n: int) -> int:
        if self.count > n:  # the power below would be negative
            return 0
        return math.comb(n, self.count) * (self.n_colors - 1) ** (n - self.count)


@dataclass(frozen=True)
class MaxDiffExact:
    """Non-negative integers with max - min exactly `diff`, values capped at `cap`.

    The exact-difference reading: the two-person analysis has the max holder
    choosing between M and M-2D, which presumes the difference is attained.
    """

    diff: int
    cap: int

    def __post_init__(self):
        if self.diff < 0 or self.cap < self.diff:
            raise GenerationError("cap must be at least the required difference")

    def generate(self, n: int) -> Iterator[World]:
        return heapq.merge(
            *(_window_tuples(lo, self.diff, n) for lo in range(self.cap - self.diff + 1))
        )

    def profiles(self, n: int) -> Iterator[World]:
        return _window_profiles(self.diff, self.cap, n)

    def contains(self, w: World) -> bool:
        return (
            all(0 <= v <= self.cap for v in w) and max(w) - min(w) == self.diff
        )

    def count_worlds(self, n: int) -> int:
        if self.diff == 0:
            return self.cap + 1
        d = self.diff
        # tuples over a window of d+1 values touching both ends, per window offset
        per = (d + 1) ** n - 2 * d**n + (d - 1) ** n
        return (self.cap - d + 1) * per


@dataclass(frozen=True)
class MaxDiffAtMost:
    """At-most reading of the maximum-difference announcement (kept for comparison)."""

    diff: int
    cap: int

    def __post_init__(self):
        if self.diff < 0 or self.cap < self.diff:
            raise GenerationError("cap must be at least the required difference")

    def generate(self, n: int) -> Iterator[World]:
        return heapq.merge(
            *(
                _window_tuples(lo, d, n)
                for d in range(self.diff + 1)
                for lo in range(self.cap - d + 1)
            )
        )

    def profiles(self, n: int) -> Iterator[World]:
        return itertools.chain.from_iterable(
            _window_profiles(d, self.cap, n) for d in range(self.diff + 1)
        )

    def contains(self, w: World) -> bool:
        return all(0 <= v <= self.cap for v in w) and max(w) - min(w) <= self.diff

    def count_worlds(self, n: int) -> int:
        return sum(MaxDiffExact(d, self.cap).count_worlds(n) for d in range(self.diff + 1))


@dataclass(frozen=True)
class ConsecutiveDistinct:
    """Distinct consecutive non-negative integers (one per agent), minimum at most cap-N+1."""

    cap: int

    def _check(self, n: int) -> None:
        if n < 2:
            raise GenerationError("consecutive numbers need at least 2 agents")
        if self.cap < n - 1:
            raise GenerationError("cap too small for the agent count")

    def generate(self, n: int) -> Iterator[World]:
        self._check(n)
        yield from heapq.merge(
            *(
                itertools.permutations(range(lo, lo + n))
                for lo in range(self.cap - n + 2)
            )
        )

    def profiles(self, n: int) -> Iterator[World]:
        self._check(n)
        return (tuple(range(lo, lo + n)) for lo in range(self.cap - n + 2))

    @staticmethod
    def _is_consecutive(w: World) -> bool:
        lo = min(w)
        return len(set(w)) == len(w) and max(w) - lo == len(w) - 1 and min(w) >= 0

    def contains(self, w: World) -> bool:
        return all(0 <= v <= self.cap for v in w) and self._is_consecutive(w)

    def count_worlds(self, n: int) -> int:
        self._check(n)
        return (self.cap - n + 2) * math.factorial(n)


@dataclass(frozen=True)
class SumOrProduct:
    """Positive integers whose sum is `announced` or whose product is `announced`."""

    announced: int

    def generate(self, n: int) -> Iterator[World]:
        # a factorization summing to `announced` is a composition too, so it is left out
        m = self.announced
        return heapq.merge(_compositions({m}, n), (f for f in _factorizations(m, n) if sum(f) != m))

    def profiles(self, n: int) -> Iterator[World]:
        m = self.announced
        return itertools.chain(
            _partitions(m, n, 1), (f for f in _factor_multisets(m, n, 1) if sum(f) != m)
        )

    def contains(self, w: World) -> bool:
        if any(v < 1 for v in w):
            return False
        return sum(w) == self.announced or math.prod(w) == self.announced

    def count_worlds(self, n: int) -> int:
        # the compositions of `announced`, plus the factorizations that are not also one
        m = self.announced
        sums = math.comb(m - 1, n - 1) if m >= 1 else 0
        return sums + sum(1 for f in _factorizations(m, n) if sum(f) != m)


@dataclass(frozen=True)
class SumInSet:
    """Positive integers whose sum lies in a fixed set."""

    sums: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sums", tuple(sorted(set(self.sums))))

    def generate(self, n: int) -> Iterator[World]:
        yield from _compositions(set(self.sums), n)

    def profiles(self, n: int) -> Iterator[World]:
        return itertools.chain.from_iterable(_partitions(s, n, 1) for s in self.sums)

    def contains(self, w: World) -> bool:
        return all(v >= 1 for v in w) and sum(w) in self.sums

    def count_worlds(self, n: int) -> int:
        return sum(math.comb(s - 1, n - 1) for s in self.sums if s >= n)


@dataclass(frozen=True)
class ZeroOne:
    """Values in {0, 1} with at least one zero."""

    def generate(self, n: int) -> Iterator[World]:
        return _hat_tuples(2, n, 0, 1, n)

    def profiles(self, n: int) -> Iterator[World]:
        return _hat_profiles(2, n, 0, 1, n)

    def contains(self, w: World) -> bool:
        return all(v in (0, 1) for v in w) and 0 in w

    def count_worlds(self, n: int) -> int:
        return 2**n - 1


Constraint = (
    HatsAtLeast
    | HatsExactly
    | MaxDiffExact
    | MaxDiffAtMost
    | ConsecutiveDistinct
    | SumOrProduct
    | SumInSet
    | ZeroOne
)


def _hat_tuples(n_colors: int, n: int, color: int, lo: int, hi: int) -> Iterator[World]:
    """n-tuples over range(n_colors) with lo to hi entries equal to `color`, ascending.

    Meet in the middle: each head over the first n - n//2 seats is followed by
    the tails, kept in order, whose count of `color` brings the total into range.
    """
    half = n // 2
    tails = [(t, t.count(color)) for t in itertools.product(range(n_colors), repeat=half)]
    fitting: dict[int, list[World]] = {}  # a head's count of `color` -> the tails it takes
    for head in itertools.product(range(n_colors), repeat=n - half):
        m = head.count(color)
        if m not in fitting:
            fitting[m] = [t for t, c in tails if lo <= m + c <= hi]
        for tail in fitting[m]:
            yield head + tail


def _window_tuples(lo: int, d: int, n: int) -> Iterator[World]:
    """n-tuples over [lo, lo+d] containing both endpoints, in lex order."""
    hi = lo + d
    for w in itertools.product(range(lo, hi + 1), repeat=n):
        if lo in w and hi in w:
            yield w


def _hat_profiles(n_colors: int, n: int, color: int, lo: int, hi: int) -> Iterator[World]:
    """The sorted worlds of _hat_tuples: k entries equal to `color`, lo <= k <= hi,
    and any multiset of the other colors on the rest."""
    others = [c for c in range(n_colors) if c != color]
    for k in range(lo, min(hi, n) + 1):
        for rest in itertools.combinations_with_replacement(others, n - k):
            yield tuple(sorted(rest + (color,) * k))


def _window_profiles(d: int, cap: int, n: int) -> Iterator[World]:
    """The sorted worlds of every window [lo, lo+d] with lo + d <= cap: lo and
    lo + d around any multiset of the window's values."""
    if d == 0:
        return ((lo,) * n for lo in range(cap + 1))
    if n < 2:
        return iter(())
    # joined by map in C, without a Python frame per profile
    return itertools.chain.from_iterable(
        map(operator.add, map(operator.add, itertools.repeat((lo,)),
                              itertools.combinations_with_replacement(range(lo, lo + d + 1), n - 2)),
            itertools.repeat((lo + d,)))
        for lo in range(cap - d + 1)
    )


def _compositions(sums: set[int], n: int) -> Iterator[World]:
    """Positive n-tuples with sum in `sums`, in lexicographic order."""
    if n == 1:
        for s in sorted(sums):
            if s >= 1:
                yield (s,)
        return
    top = max(sums, default=0) - (n - 1)
    for head in range(1, top + 1):
        rest = {s - head for s in sums if s - head >= n - 1}
        if rest:
            for tail in _compositions(rest, n - 1):
                yield (head,) + tail


def _factorizations(product: int, n: int) -> Iterator[World]:
    """Positive n-tuples with the given product (all orderings)."""
    if n == 1:
        if product >= 1:
            yield (product,)
        return
    for head in range(1, product + 1):
        if product % head == 0:
            for tail in _factorizations(product // head, n - 1):
                yield (head,) + tail


def _partitions(total: int, n: int, least: int) -> Iterator[World]:
    """Non-decreasing n-tuples of integers of at least `least` summing to `total`."""
    if n == 1:
        if total >= least:
            yield (total,)
        return
    for head in range(least, total // n + 1):
        for tail in _partitions(total - head, n - 1, head):
            yield (head,) + tail


def _factor_multisets(product: int, n: int, least: int) -> Iterator[World]:
    """Non-decreasing n-tuples of integers of at least `least` (>= 1) with the given product."""
    if n == 1:
        if product >= least:
            yield (product,)
        return
    head = least
    while head**n <= product:
        if product % head == 0:
            yield from ((head,) + tail for tail in _factor_multisets(product // head, n - 1, head))
        head += 1


# ---------------------------------------------------------------------------
# sight models


@dataclass(frozen=True)
class Full:
    pass


@dataclass(frozen=True)
class Blind:
    agents: frozenset[int]


@dataclass(frozen=True)
class NearCircle:
    pass


@dataclass(frozen=True)
class FarCircle:
    pass


@dataclass(frozen=True)
class NearLine:
    pass


SightModel = Full | Blind | NearCircle | FarCircle | NearLine


@functools.cache
def gen_visibility(model: SightModel, n: int) -> VisibilityGraph:
    """Build the visibility graph for a sight model over n seated agents.

    Each (model, n) gets one graph for the life of the process, so a parse
    that validates the sight and the runs of its scenario share it.
    """
    if n < 2:
        raise GenerationError("need at least 2 agents")
    everyone = set(range(n))
    if isinstance(model, Full):
        sees = [everyone - {i} for i in range(n)]
    elif isinstance(model, Blind):
        bad = [a for a in model.agents if not 0 <= a < n]
        if bad:
            raise GenerationError(f"blind agent index out of range: {bad}")
        sees = [set() if i in model.agents else everyone - {i} for i in range(n)]
    elif isinstance(model, NearCircle):
        if n < 3:
            raise GenerationError("a circle needs at least 3 agents")
        sees = [{(i - 1) % n, (i + 1) % n} for i in range(n)]
    elif isinstance(model, FarCircle):
        if n < 3:
            raise GenerationError("a circle needs at least 3 agents")
        sees = [everyone - {(i - 1) % n, i, (i + 1) % n} for i in range(n)]
    elif isinstance(model, NearLine):
        sees = [{j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)]
    else:
        raise GenerationError(f"unknown sight model {model!r}")
    return VisibilityGraph(tuple(frozenset(s) for s in sees))


# ---------------------------------------------------------------------------
# universe construction


MATERIALIZE_LIMIT = 2_000_000


def gen_universe(constraint: Constraint, n: int) -> KnowledgeState:
    """The complete, canonically ordered world set satisfying the constraint."""
    if n < 2:
        raise GenerationError("need at least 2 agents")
    count = constraint.count_worlds(n)
    if count > MATERIALIZE_LIMIT:
        raise GenerationError(
            f"universe has {count} worlds, more than the {MATERIALIZE_LIMIT} a held universe may have"
        )
    return KnowledgeState(tuple(constraint.generate(n)))  # generators yield strictly increasing worlds


def needs_cap(constraint: Constraint | type) -> bool:
    """Whether a constraint (or constraint class) is capped: whether it has a cap field."""
    return any(f.name == "cap" for f in fields(constraint))


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
    """One complete puzzle setup: universe, sight, protocol, and the actual world."""

    name: str
    agents: tuple[str, ...]
    constraint: Constraint
    sight: SightModel
    protocol: "ProtocolSpec"
    actual: Optional[World]
    alphabet: Optional[tuple[str, ...]] = None
    growth: int = 10  # the stability check's cap increment, for a constraint with a cap

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def visibility(self) -> VisibilityGraph:
        return gen_visibility(self.sight, self.n_agents)

    def universe(self) -> KnowledgeState:
        return gen_universe(self.constraint, self.n_agents)

    def validate(self) -> None:
        if isinstance(self.protocol, Circular) and sorted(self.protocol.order) != list(range(self.n_agents)):
            raise GenerationError("circular order must be a permutation of the agents")
        if self.actual is not None:
            if len(self.actual) != self.n_agents:
                raise GenerationError("actual world length does not match agent count")
            if not self.constraint.contains(self.actual):
                raise GenerationError("actual world violates the announced constraint")

    def value_label(self, v: int) -> str:
        if self.alphabet is not None and 0 <= v < len(self.alphabet):
            return self.alphabet[v]
        return str(v)


@dataclass(frozen=True)
class Simultaneous:
    max_rounds: int

    def __post_init__(self):
        if self.max_rounds < 1:
            raise GenerationError("max_rounds must be positive")


@dataclass(frozen=True)
class Circular:
    order: tuple[int, ...]
    max_rounds: int

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise GenerationError("circular order must be a permutation of the agents")
        if self.max_rounds < 1:
            raise GenerationError("max_rounds must be positive")


ProtocolSpec = Simultaneous | Circular
