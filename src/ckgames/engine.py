"""Announcement protocols: drive games to a fixpoint and classify who learns what.

Both protocols follow the same loop: split the knowledge state by the truthful
YES/NO announcements its worlds would give, record the announcements, and keep
the part in which those exact announcements would have been made (a run keeps
the actual world's part, a sweep every part).  A branch stops when everyone has
said YES, when a full round certifies a fixpoint (no world eliminated and no
first-time YES), or at the horizon.

"Never" is only asserted after a certified fixpoint; hitting the horizon
without one yields "unknown".
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Optional

from . import scenarios
from .worlds import (
    MIXED,
    KnowledgeState,
    VisibilityGraph,
    World,
    answer_str,
    answer_tables,
    answers_in,
    split,
)


@dataclass(frozen=True)
class Event:
    round: int
    turn: int
    agent: int
    answer: bool
    state_size: int


@dataclass(frozen=True)
class Eventual:
    kind: str  # "learns" | "never" | "unknown"
    round: Optional[int] = None
    turn: Optional[int] = None

    @staticmethod
    def learns(round: int, turn: int) -> "Eventual":
        return Eventual("learns", round, turn)

    @staticmethod
    def never() -> "Eventual":
        return Eventual("never")

    @staticmethod
    def unknown() -> "Eventual":
        return Eventual("unknown")


@dataclass(frozen=True)
class Transcript:
    scenario: str
    agents: tuple[str, ...]
    protocol: str  # "simultaneous" | "circular"
    initial_size: int
    events: tuple[Event, ...]
    eventual: tuple[Eventual, ...]
    stabilized_at: Optional[int]
    final_candidates: tuple[tuple[int, ...], ...]

    def answers_by_round(self) -> list[tuple[bool, ...]]:
        """Per-round answer vectors in agent order (simultaneous view)."""
        rounds: dict[int, dict[int, bool]] = {}
        for e in self.events:
            rounds.setdefault(e.round, {})[e.agent] = e.answer
        return [
            tuple(rounds[r][i] for i in range(len(self.agents)))
            for r in sorted(rounds)
        ]

    def answers_by_turn(self) -> list[bool]:
        return [e.answer for e in sorted(self.events, key=lambda e: (e.round, e.turn))]

    def learners(self) -> frozenset[int]:
        return frozenset(
            i for i, ev in enumerate(self.eventual) if ev.kind == "learns"
        )


def transcript_digest(events: Iterable[Event]) -> str:
    text = ";".join(
        f"{e.round},{e.turn},{e.agent},{answer_str(e.answer)},{e.state_size}"
        for e in events
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class EngineError(Exception):
    pass


STREAM_THRESHOLD = 500_000


# ---------------------------------------------------------------------------
# the round driver, shared by run and sweep


class _Branch(NamedTuple):
    state: object  # KnowledgeState, or _Lazy while too large to hold
    events: tuple[tuple, ...]  # Event fields as plain tuples
    first_yes: dict[int, Eventual]  # agent -> the round and turn of its first YES
    step: int  # rotating the seats by a multiple of step leaves the cell as it is; n: by none
    # sweeps only: images[k] is the running sha256 of the digest text of the cell rotated
    # by k seats, for k < step in a seat-symmetric sweep and k = 0 otherwise
    images: Optional[list]


def _rot(seq: tuple, k: int) -> tuple:
    """seq rotated by k seats: _rot(seq, k)[i] == seq[(i - k) % len(seq)]."""
    k %= len(seq)
    return seq[-k:] + seq[:-k]


def _rotation_invariant(vis: VisibilityGraph, universe: KnowledgeState) -> bool:
    """True iff rotating every seat by one maps the sight graph and the universe onto themselves."""
    n = vis.n_agents
    return all(
        vis.sees[(i + 1) % n] == {(j + 1) % n for j in vis.sees[i]} for i in range(n)
    ) and all(_rot(w, 1) in universe for w in universe)


class _Lazy:
    """The constraint's worlds that pass every predicate, generated afresh on each pass.

    Memory stays proportional to the distinct observation keys of a step.
    """

    def __init__(self, constraint, n: int, predicates: tuple, size: int):
        self.constraint = constraint
        self.n = n
        self.predicates = predicates
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return scenarios.stream_worlds(self.constraint, self.n, self.predicates)

    def narrowed(self, speakers, vis: VisibilityGraph, actual: World):
        """(the actual world's answers, the worlds giving the same answers).

        The table pass answers the step.  One speaker's kept size is a sum of the
        table's counts; a simultaneous round counts in one more pass, keeping the
        worlds if they fit.  The result is materialized once it fits.
        """
        tables = answer_tables(self, speakers, vis)
        announced = answers_in(tables, actual)
        kept = _Lazy(
            self.constraint, self.n,
            self.predicates + (lambda w: answers_in(tables, w) == announced,), 0,
        )
        worlds = kept
        if len(speakers) == 1:
            kept.size = sum(
                count for own, count in tables[0][1].values() if (own != MIXED) == announced[0]
            )
        else:
            stream = iter(kept)
            worlds = list(itertools.islice(stream, STREAM_THRESHOLD + 1))
            kept.size = len(worlds) + sum(1 for _ in stream)
        if kept.size <= STREAM_THRESHOLD:
            return announced, KnowledgeState.from_worlds(worlds)
        return announced, kept


def _play(
    scenario: scenarios.Scenario, root, actual: Optional[World] = None
) -> list[tuple[_Branch, Optional[int]]]:
    """Refine `root` round by round; (branch, round it stabilized or None) per leaf.

    A round is a list of steps: all agents at once (simultaneous) or one agent
    per step in `order` (circular).  Each step splits every branch by the
    speakers' truthful answers, and each part becomes a child branch; with an
    actual world only the child holding it is kept.  A branch stops when every
    answer of a round was YES, or when the round left its size and its number
    of learners unchanged (a certified fixpoint).

    A sweep of a game that rotating the seats leaves unchanged keeps one branch
    per rotation orbit; its `images` are the rotations it stands for (see sweep).
    """
    protocol = scenario.protocol
    n = scenario.n_agents
    vis = scenario.visibility()
    simultaneous = isinstance(protocol, scenarios.Simultaneous)
    steps = [tuple(range(n))] if simultaneous else [(agent,) for agent in protocol.order]
    symmetric = actual is None and simultaneous and _rotation_invariant(vis, root)
    images = [hashlib.sha256()] if actual is None else None
    live = [_Branch(root, (), {}, 1 if symmetric else n, images)]
    leaves = []
    for rnd in range(1, protocol.max_rounds + 1):
        if not live:
            break
        next_live = []
        for start in live:
            branches = [start]
            for pos, speakers in enumerate(steps):
                turn = rnd if simultaneous else (rnd - 1) * n + pos + 1
                branches = [
                    child for branch in branches
                    for child in _children(branch, speakers, rnd, turn, vis, actual)
                ]
            for branch in branches:
                said = branch.events[len(start.events):]
                if all(answer for *_, answer, _ in said) or (
                    len(branch.state) == len(start.state)
                    and len(branch.first_yes) == len(start.first_yes)
                ):
                    leaves.append((branch, rnd))
                else:
                    next_live.append(branch)
        live = next_live
    return leaves + [(branch, None) for branch in live]


def _children(branch: _Branch, speakers, rnd: int, turn: int, vis, actual):
    """One child per part of the branch's state after `speakers` answer truthfully.

    With an actual world, only the child holding it.  Parts whose answers are
    rotations of each other by a multiple of the branch's step are rotations of
    each other too, so only the first of them is kept; it stands for the rest.
    The same symmetry lets the split answer one world per rotation orbit.
    """
    if isinstance(branch.state, _Lazy):
        parts = [branch.state.narrowed(speakers, vis, actual)]
    else:
        parts = [
            (answers, KnowledgeState(tuple(worlds)))
            for answers, worlds in split(branch.state, speakers, vis, branch.step).items()
            if actual is None or actual in worlds
        ]
    learned = Eventual.learns(rnd, turn)
    n, step = vis.n_agents, branch.step
    heads = [f"{rnd},{turn},{agent}," for agent in speakers] if branch.images is not None else None
    kept = set()
    for answers, state in parts:
        if answers in kept:
            continue
        kept.update(_rot(answers, t) for t in range(0, n, step))
        stab = next((h for h in range(step, n, step) if _rot(answers, h) == answers), n)
        first_yes = dict(branch.first_yes)
        for agent, answer in zip(speakers, answers):
            if answer:
                first_yes.setdefault(agent, learned)
        size = len(state)
        events = tuple([
            (rnd, turn, agent, answer, size) for agent, answer in zip(speakers, answers)
        ])
        images = None
        if branch.images is not None:  # extends each image's transcript_digest text by this step
            yes, no = f"YES,{size}", f"NO,{size}"
            images = [branch.images[k % step].copy() for k in range(len(branch.images) * stab // step)]
            for k, image in enumerate(images):
                said = _rot(answers, k)
                text = ";".join([h + (yes if answer else no) for h, answer in zip(heads, said)])
                image.update((";" + text if branch.events else text).encode("ascii"))
        yield _Branch(state, branch.events + events, first_yes, stab, images)


_NEVER, _UNKNOWN = Eventual.never(), Eventual.unknown()


def _classify(
    n: int, first_yes: dict[int, Eventual], stabilized: Optional[int]
) -> tuple[Eventual, ...]:
    rest = _NEVER if stabilized is not None else _UNKNOWN
    return tuple([first_yes.get(i, rest) for i in range(n)])


# ---------------------------------------------------------------------------
# single runs


def run(scenario: scenarios.Scenario) -> Transcript:
    """Play the scenario's protocol to completion and return the transcript.

    Universes above STREAM_THRESHOLD worlds are never held: each step makes a
    pass over the generator until the state is small enough to materialize.
    """
    scenario.validate()
    actual = scenario.actual
    if actual is None:
        raise EngineError("scenario has a free actual world; use sweep instead")
    n = scenario.n_agents
    size = scenario.constraint.count_worlds(n)
    if size > STREAM_THRESHOLD:
        universe = _Lazy(scenario.constraint, n, (), size)
    else:
        universe = scenario.universe()
        if actual not in universe:
            raise EngineError("actual world is not a member of the generated universe")
    ((branch, stabilized),) = _play(scenario, universe, actual)
    seen = [set() for _ in range(n)]
    for w in branch.state:
        for values, v in zip(seen, w):
            values.add(v)
    return Transcript(
        scenario=scenario.name,
        agents=scenario.agents,
        protocol="simultaneous" if isinstance(scenario.protocol, scenarios.Simultaneous) else "circular",
        initial_size=len(universe),
        events=tuple(Event(*e) for e in branch.events),
        eventual=_classify(n, branch.first_yes, stabilized),
        stabilized_at=stabilized,
        final_candidates=tuple(tuple(sorted(values)) for values in seen),
    )


# ---------------------------------------------------------------------------
# sweeping a family over all actual worlds


@dataclass(frozen=True)
class SweepRow:
    world: World
    eventual: tuple[Eventual, ...]
    learners: frozenset[int]
    digest: str
    orbit_size: int = 1


@dataclass(frozen=True)
class SweepReport:
    scenario: str
    agents: tuple[str, ...]
    rows: tuple[SweepRow, ...]

    def min_learners(self) -> int:
        return min(len(r.learners) for r in self.rows)

    def argmin_worlds(self) -> tuple[World, ...]:
        lo = self.min_learners()
        return tuple(r.world for r in self.rows if len(r.learners) == lo)


def sweep(scenario: scenarios.Scenario, orbit: Optional[str] = None) -> SweepReport:
    """Run every world of the family as the actual world.

    Worlds that hear the same announcements share their whole continuation, so
    the family is processed by partition refinement (Paige & Tarjan 1987): the
    round driver keeps every part of every split, and each leaf is exactly the
    final state of the worlds inside it.  This is semantically identical to
    calling run() per world.

    A simultaneous game that rotating every seat by one leaves unchanged (each
    agent sees the rotated seats, and the universe holds every rotated world,
    as with circle or full sight over hats) is refined one cell per rotation
    orbit (Emerson & Sistla 1996).  The rows of the other cells are the
    representative's worlds, eventual tuple and learners rotated, each with the
    digest of its own rotated announcements.  A cell that rotating by some
    seats leaves as it is (the universe always; with full sight, most big
    cells) is split once per rotation orbit of its worlds: tables for the seats
    of one rotation step, the other seats' answers read from rotated worlds
    (see worlds.split).  Circular turns, line sight, blind agents and universes
    not closed under rotation refine every cell and answer every world.

    A family with no world is refused with EngineError.

    orbit: None for per-world rows, "rotation" to merge rotation classes
    (representative is the lexicographically least rotation).
    """
    if orbit not in (None, "rotation"):
        raise EngineError(f"unknown orbit {orbit!r}; use None or 'rotation'")
    scenario.validate()
    n = scenario.n_agents
    size = scenario.constraint.count_worlds(n)
    if size > STREAM_THRESHOLD:
        raise EngineError("family too large to sweep without streaming support")
    if size == 0:
        raise EngineError("no world satisfies the announcement; there is nothing to sweep")
    rows = []
    for branch, stabilized in _play(scenario, scenario.universe()):
        eventual = _classify(n, branch.first_yes, stabilized)
        for k, digest in enumerate(branch.images):
            turned, learners = _rot(eventual, k), frozenset((a + k) % n for a in branch.first_yes)
            digest = digest.hexdigest()
            rows += [SweepRow(_rot(w, k), turned, learners, digest) for w in branch.state]
    rows.sort(key=lambda r: r.world)

    if orbit == "rotation":
        grouped: dict[World, list[SweepRow]] = {}
        for row in rows:
            grouped.setdefault(_min_rotation(row.world), []).append(row)
        merged = []
        for rep in sorted(grouped):
            members = grouped[rep]
            counts = {len(r.learners) for r in members}
            if len(counts) != 1:
                raise EngineError("rotation orbit with inconsistent learner counts")
            base = min(members, key=lambda r: r.world)
            merged.append(
                SweepRow(rep, base.eventual, base.learners, base.digest, len(members))
            )
        rows = merged

    return SweepReport(scenario.name, scenario.agents, tuple(rows))


def _min_rotation(w: World) -> World:
    return min(_rot(w, k) for k in range(len(w)))


# ---------------------------------------------------------------------------
# cap stability


def stability_check(scenario: scenarios.Scenario, cap: int, larger_cap: int) -> bool:
    """True iff the run is identical under both caps over the requested horizon.

    Transcripts are compared on announcements and eventual classifications;
    state sizes are cap dependent bookkeeping and excluded.
    """
    if not scenarios.needs_cap(scenario.constraint):
        raise EngineError("scenario family does not take a cap")
    if larger_cap <= cap:
        raise EngineError(f"larger cap {larger_cap} must exceed cap {cap}")
    a = run(_with_cap(scenario, cap))
    b = run(_with_cap(scenario, larger_cap))
    key = lambda t: [(e.round, e.turn, e.agent, e.answer) for e in t.events]
    return key(a) == key(b) and a.eventual == b.eventual


def _with_cap(scenario: scenarios.Scenario, cap: int) -> scenarios.Scenario:
    bound = replace(scenario.bound, cap=cap) if scenario.bound else scenarios.BoundConfig(cap)
    return replace(scenario, constraint=scenarios.with_cap(scenario.constraint, cap), bound=bound)


# ---------------------------------------------------------------------------
# value-profile evaluator for exchangeable games
#
# With full sight and simultaneous announcements, an agent's answer depends
# only on its own value and the multiset of all values: permuting agents
# permutes transcripts.  The whole family can therefore be evaluated over
# sorted value profiles instead of world tuples, which turns sweeps over
# millions of worlds into sweeps over a few hundred profiles.  Validated
# against run() in the test suite.


def profile_universe(constraint, n: int) -> frozenset[tuple[int, ...]]:
    """Sorted value profiles of the constraint's worlds.

    An exact-difference family (the criterion-11 cells, d = 0 included) is
    enumerated as multisets, one window of values at a time, so large caps stay
    cheap.  Any other constraint sorts each world its generator yields.
    """
    if isinstance(constraint, scenarios.MaxDiffExact):
        d = constraint.diff
        return frozenset(
            prof
            for lo in range(constraint.cap - d + 1)
            for prof in itertools.combinations_with_replacement(range(lo, lo + d + 1), n)
            if prof[0] == lo and prof[-1] == lo + d
        )
    return frozenset(tuple(sorted(w)) for w in constraint.generate(n))


def run_profiles(
    profiles: frozenset[tuple[int, ...]],
    max_rounds: int,
) -> dict[tuple[int, ...], dict[int, Optional[int]]]:
    """First-YES round for every (profile, value), or None when the holder never learns.

    Returns a map profile -> {value -> round | None}; all holders of the same
    value in a full-sight simultaneous game answer identically.

    Incremental partition refinement (Paige & Tarjan 1987).  The holder of v
    in a profile sees the profile minus one v; its candidates are the members
    of that observation group with no YES yet whose values seen have the same
    first-YES rounds.  A member alone in its class says YES.  Histories that
    differ once stay different, so classes only split, and a group with no
    profile that got a YES last round cannot yield a new singleton.
    """
    table = {prof: dict.fromkeys(prof) for prof in profiles}
    groups: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for prof in profiles:
        for obs, v in _observations(prof):
            groups.setdefault(obs, []).append((v, prof))
    touched: Iterable[tuple[int, ...]] = groups
    for rnd in range(1, max_rounds + 1):
        yes = []
        for obs in touched:
            seen = tuple(dict.fromkeys(obs))
            classes: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
            for v, prof in groups[obs]:
                row = table[prof]
                if row[v] is None:
                    classes.setdefault(tuple([row[u] for u in seen]), []).append((v, prof))
            yes += [members[0] for members in classes.values() if len(members) == 1]
        for v, prof in yes:
            table[prof][v] = rnd
        touched = {obs for _, prof in yes for obs, _ in _observations(prof)}
    return table


def _observations(prof: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """(what the holder sees, value) for each distinct value of a sorted profile."""
    return [(prof[:i] + prof[i + 1 :], v) for i, v in enumerate(prof) if i == 0 or prof[i - 1] != v]


def yes_pattern(first_by_value: dict[int, Optional[int]], profile: tuple[int, ...]) -> tuple[int, ...]:
    """New-YES counts per round, trimmed after the last learner."""
    rounds = [r for r in first_by_value.values() if r is not None]
    if not rounds:
        return ()
    horizon = max(rounds)
    counts = [0] * horizon
    for v in profile:
        r = first_by_value[v]
        if r is not None:
            counts[r - 1] += 1
    return tuple(counts)
