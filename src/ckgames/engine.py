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
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from . import scenarios
from .worlds import (
    MIXED,
    KnowledgeState,
    SeatOrbits,
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
    stabilizer: tuple[int, ...]  # the elements of the seat group that map the cell onto itself
    # sweeps only: (element e, running sha256 of the digest text of the cell moved by e),
    # one per cell this branch stands for
    images: Optional[list]


class _Group:
    """A group of seat permutations that map the sight graph `vis` onto itself.

    Element 0 is the identity.  Element e moves a world, answer vector or
    eventual tuple x to acts[e](x), whose seat i holds x[perms[e][i]].
    compose[e][f] acts as f, then e; it is built on first use, since only a
    sweep's images read it.
    """

    def __init__(self, perms: tuple[tuple[int, ...], ...], vis: VisibilityGraph):
        self.perms = perms
        self.vis = vis
        # the identity acts as `tuple`, which also takes a circular step's one answer
        self.acts = (tuple,) + tuple(itemgetter(*p) for p in perms[1:])
        self._orbits: dict[tuple[int, ...], SeatOrbits | tuple] = {}

    @cached_property
    def compose(self) -> tuple[tuple[int, ...], ...]:
        index = {p: e for e, p in enumerate(self.perms)}
        return tuple(tuple(index[act(q)] for q in self.perms) for act in self.acts)

    def orbits(self, stabilizer: tuple[int, ...]) -> SeatOrbits | tuple:
        """split's set-up for the subgroup of the elements `stabilizer`, made once; () for the identity."""
        orbits = self._orbits.get(stabilizer)
        if orbits is None:
            perms = [self.perms[e] for e in stabilizer]
            orbits = self._orbits[stabilizer] = SeatOrbits(perms, self.vis) if len(perms) > 1 else ()
        return orbits


def _seat_group(vis: VisibilityGraph, generators=()) -> _Group:
    """The group of permutations of the seats of `vis` that `generators` generate."""
    perms = [tuple(range(vis.n_agents))]
    known = set(perms)
    for p in perms:  # the list grows while it is walked, until it is closed
        for s in generators:
            q = itemgetter(*p)(s)  # s, then p
            if q not in known:
                known.add(q)
                perms.append(q)
    return _Group(tuple(perms), vis)


def _sweep_group(scenario: scenarios.Scenario, vis: VisibilityGraph, universe: KnowledgeState) -> _Group:
    """The seat permutations a simultaneous game may quotient by.

    Generated by rotation by one seat and by reversal (seat j to n-1-j), each
    kept only if it maps the sight graph and the universe onto themselves:
    the dihedral group for circle and full sight, reversal alone for line
    sight, the identity alone for circular turns and blind agents.
    """
    n = vis.n_agents
    generators = []
    if isinstance(scenario.protocol, scenarios.Simultaneous):
        worlds = universe.members()
        # rotation and reversal are the same permutation of two seats
        for p in dict.fromkeys((tuple((i - 1) % n for i in range(n)), tuple(range(n - 1, -1, -1)))):
            if all(vis.sees[p[i]] == {p[j] for j in vis.sees[i]} for i in range(n)) and (
                worlds.issuperset(map(itemgetter(*p), worlds))
            ):
                generators.append(p)
    return _seat_group(vis, generators)


def _pays_for_a_group(size: int, n: int) -> bool:
    """Whether a run over `size` worlds and n seats is worth setting its seat group up for.

    A split through the group builds at most n - 1 fewer tables than a plain
    one, each a pass over the worlds, while checking that the universe is
    closed under the group takes a pass for each of its two generators.  What
    that leaves of one split must exceed the rest of the set-up: closing the
    group of at most 2n elements and turning each into getters over the n
    seats, work on the order of (2n)^2.
    """
    return size * (n - 3) > (2 * n) ** 2


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
    scenario: scenarios.Scenario, root, group: _Group, actual: Optional[World] = None
) -> list[tuple[_Branch, Optional[int]]]:
    """Refine `root` round by round; (branch, round it stabilized or None) per leaf.

    A round is a list of steps: all agents at once (simultaneous) or one agent
    per step in `order` (circular).  Each step splits every branch by the
    speakers' truthful answers, and each part becomes a child branch; with an
    actual world only the child holding it is kept.  A branch stops when every
    answer of a round was YES, or when the round left its size and its number
    of learners unchanged (a certified fixpoint).

    `group` is a group of seat symmetries of `root` and of the sight graph it
    holds (the identity alone for circular turns and streamed roots).  A
    branch's stabilizer is its subgroup that maps the branch's state onto
    itself, and each split of the state goes through it (see worlds.split).
    A sweep keeps one branch per
    orbit of cells; its `images` are the elements that move it onto the cells
    it stands for (see sweep).
    """
    protocol = scenario.protocol
    n = scenario.n_agents
    simultaneous = isinstance(protocol, scenarios.Simultaneous)
    steps = [tuple(range(n))] if simultaneous else [(agent,) for agent in protocol.order]
    images = [(0, hashlib.sha256())] if actual is None else None
    live = [_Branch(root, (), {}, tuple(range(len(group.perms))), images)]
    leaves = []
    for rnd in range(1, protocol.max_rounds + 1):
        if not live:
            break
        plays = []  # per step: speakers, turn, and in a sweep a template for its digest text
        for pos, speakers in enumerate(steps):
            turn = rnd if simultaneous else (rnd - 1) * n + pos + 1
            template = None
            if actual is None:  # the step's transcript_digest text, %s for each answer and size
                text = ";".join([f"{rnd},{turn},{agent},%s" for agent in speakers])
                template = (text if rnd == 1 and pos == 0 else ";" + text).encode("ascii")
            plays.append((speakers, turn, template))
        next_live = []
        for start in live:
            branches = [start]
            for speakers, turn, template in plays:
                branches = [
                    child for branch in branches
                    for child in _children(branch, speakers, rnd, turn, template, group, actual)
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


def _children(
    branch: _Branch, speakers, rnd: int, turn: int, template: Optional[bytes], group: _Group, actual
):
    """One child per part of the branch's state after `speakers` answer truthfully.

    With an actual world, only the child holding it.  An element of the
    branch's stabilizer moves each part onto the part with the moved answers,
    so only the first part of each such class is kept; it stands for the rest
    through one element per distinct moved answer vector.  The same symmetry
    lets the split build tables for one seat per orbit (see worlds.split).
    """
    lazy = isinstance(branch.state, _Lazy)
    if lazy:
        parts = [branch.state.narrowed(speakers, group.vis, actual)]
    else:
        orbits = group.orbits(branch.stabilizer) if len(branch.state) > 1 else ()  # one world needs none
        parts = [
            (answers, worlds)
            for answers, worlds in split(branch.state, speakers, group.vis, orbits).items()
            if actual is None or actual in worlds
        ]
    learned = Eventual.learns(rnd, turn)
    acts = group.acts
    kept = set()
    for answers, worlds in parts:
        if answers in kept:
            continue
        state = worlds if lazy else KnowledgeState(tuple(worlds))  # wrapped only once kept
        cosets: dict[tuple[bool, ...], int] = {}  # each moved answer vector -> the first element giving it
        stabilizer = []
        for h in branch.stabilizer:
            moved = acts[h](answers)
            cosets.setdefault(moved, h)
            if moved == answers:
                stabilizer.append(h)
        kept.update(cosets)
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
            yes, no = b"YES,%d" % size, b"NO,%d" % size
            words = tuple([yes if answer else no for answer in answers])
            compose = group.compose
            images = []
            for e, digest in branch.images:
                for h in cosets.values():
                    image = compose[e][h]
                    extended = digest.copy()
                    extended.update(template % acts[image](words))
                    images.append((image, extended))
        yield _Branch(state, branch.events + events, first_yes, tuple(stabilizer), images)


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

    A held universe is quotiented like a sweep, by the group of seat
    permutations generated by rotation by one seat and by reversal, each kept
    only if it maps the sight graph and the universe onto themselves (see
    _sweep_group).  Each split builds tables for one seat per orbit of the
    permutations that fix the actual world's cell and, when those outnumber
    the seats, answers one world per orbit of the cell's worlds.  Circular turns,
    blind agents, universes closed under neither rotation nor reversal, and
    universes too small to pay for the set-up (see _pays_for_a_group) keep the
    identity alone.

    Universes above STREAM_THRESHOLD worlds are never held: each step makes a
    pass over the generator until the state is small enough to materialize.
    Such a streamed run keeps the identity alone.
    """
    scenario.validate()
    actual = scenario.actual
    if actual is None:
        raise EngineError("scenario has a free actual world; use sweep instead")
    n = scenario.n_agents
    vis = scenario.visibility()
    size = scenario.constraint.count_worlds(n)
    if size > STREAM_THRESHOLD:
        universe = _Lazy(scenario.constraint, n, (), size)
        group = _seat_group(vis)
    else:
        universe = scenario.universe()
        if actual not in universe:
            raise EngineError("actual world is not a member of the generated universe")
        if _pays_for_a_group(len(universe), n):
            group = _sweep_group(scenario, vis, universe)
        else:
            group = _seat_group(vis)
    ((branch, stabilized),) = _play(scenario, universe, group, actual)
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


class SweepRow(NamedTuple):
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

    A simultaneous game is quotiented by the seat permutations that map its
    sight graph and universe onto themselves (Emerson & Sistla 1996; Ip & Dill
    1996): the group generated by rotation by one seat and by reversal, when
    they qualify (see _sweep_group).  Circle and full sight over hats keep the
    dihedral group, line sight keeps reversal, and circular turns, blind
    agents and universes closed under neither keep the identity alone.  One
    cell per orbit is refined.  The rows of the other cells are the
    representative's worlds and eventual tuple moved by a permutation, each
    with the digest of its own moved announcements.  A cell that some
    permutations leave as it is (the universe always; with full sight, most
    big cells) is split with tables for one seat per orbit of those
    permutations on the seats, and once per orbit of its worlds when the
    permutations outnumber the seats (see worlds.split).

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
    universe = scenario.universe()
    group = _sweep_group(scenario, scenario.visibility(), universe)
    rows = []
    for branch, stabilized in _play(scenario, universe, group):
        eventual = _classify(n, branch.first_yes, stabilized)
        learns = tuple([agent in branch.first_yes for agent in range(n)])
        for e, digest in branch.images:
            move = group.acts[e]
            moved, learners = move(eventual), frozenset(itertools.compress(range(n), move(learns)))
            digest = digest.hexdigest()
            rows += [SweepRow(move(w), moved, learners, digest) for w in branch.state]
    rows.sort(key=itemgetter(0))  # by world

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
    return min(w[k:] + w[:k] for k in range(len(w)))


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
    first-YES rounds.  A member alone in its class says YES.

    In round 1 no history is set yet, so a holder says YES exactly when its
    observation group has one member.  Histories that differ once stay
    different, so classes only split, and later rounds re-key only the groups
    holding a profile that got a YES in the round before; each group's
    distinct seen values are derived when it is first re-keyed.  A round with
    no new YES changes no history, so every later round would be silent too
    and the refinement stops there.
    """
    table = {prof: dict.fromkeys(prof) for prof in profiles}
    groups: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for prof in profiles:
        for obs, v in _observations(prof):
            groups.setdefault(obs, []).append((v, prof))
    yes = [members[0] for members in groups.values() if len(members) == 1]
    seen_in: dict[tuple[int, ...], tuple[int, ...]] = {}
    for rnd in range(1, max_rounds + 1):
        if rnd > 1:
            touched = {obs for _, prof in yes for obs, _ in _observations(prof)}
            yes = []
            for obs in touched:
                seen = seen_in.get(obs)
                if seen is None:
                    seen = seen_in[obs] = tuple(dict.fromkeys(obs))
                classes: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
                for v, prof in groups[obs]:
                    row = table[prof]
                    if row[v] is None:
                        classes.setdefault(tuple([row[u] for u in seen]), []).append((v, prof))
                yes += [members[0] for members in classes.values() if len(members) == 1]
        if not yes:
            break
        for v, prof in yes:
            table[prof][v] = rnd
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
