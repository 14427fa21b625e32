"""Announcement protocols: drive games to a fixpoint and classify who learns what.

Both protocols follow the same loop: compute truthful YES/NO announcements for
the actual world, record them, and filter the knowledge state down to the
worlds in which those exact announcements would have been made.  A run stops
when everyone has said YES, when a full round certifies a fixpoint (no world
eliminated and no first-time YES), or at the horizon.

"Never" is only asserted after a certified fixpoint; hitting the horizon
without one yields "unknown".
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import scenarios
from .worlds import (
    EmptyStateError,
    KnowledgeState,
    VisibilityGraph,
    World,
    _candidate_counts,
    answer_str,
    answers_for_all,
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


def default_max_rounds(universe_size: int) -> int:
    """Eliminations bound the round count for materialized universes."""
    return universe_size + 2


class EngineError(Exception):
    pass


STREAM_THRESHOLD = 500_000
MATERIALIZE_AT = 200_000


# ---------------------------------------------------------------------------
# the run loop


def run(scenario: scenarios.Scenario) -> Transcript:
    """Play the scenario's protocol to completion and return the transcript."""
    scenario.validate()
    if scenario.actual is None:
        raise EngineError("scenario has a free actual world; use sweep instead")
    size = scenario.constraint.count_worlds(scenario.n_agents)
    if size > STREAM_THRESHOLD:
        return _run_streamed(scenario, size)
    universe = scenario.universe()
    if scenario.actual not in universe:
        raise EngineError("actual world is not a member of the generated universe")
    return _run_state(scenario, universe)


def _run_state(scenario: scenarios.Scenario, universe: KnowledgeState) -> Transcript:
    vis = scenario.visibility()
    actual = scenario.actual
    protocol = scenario.protocol
    n = scenario.n_agents
    events: list[Event] = []
    first_yes: dict[int, tuple[int, int]] = {}
    state = universe
    stabilized: Optional[int] = None

    if isinstance(protocol, scenarios.Simultaneous):
        for rnd in range(1, protocol.max_rounds + 1):
            answers = answers_for_all(state, vis)
            announced = answers[actual]
            kept = tuple(w for w in state if answers[w] == announced)
            if not kept:
                raise EmptyStateError("announcement inconsistent with state")
            eliminated = len(state) - len(kept)
            state = KnowledgeState(kept, state.history + ("round",))
            new_yes = False
            for i in range(n):
                events.append(Event(rnd, rnd, i, announced[i], len(state)))
                if announced[i] and i not in first_yes:
                    first_yes[i] = (rnd, rnd)
                    new_yes = True
            if all(announced) or (eliminated == 0 and not new_yes):
                stabilized = rnd
                break
    else:
        order = protocol.order
        for rnd in range(1, protocol.max_rounds + 1):
            round_answers = []
            round_eliminated = 0
            round_new_yes = False
            for pos, agent in enumerate(order):
                counts = _candidate_counts(state, agent, vis)
                observed = vis.observed(agent)
                key = tuple(actual[j] for j in observed)
                answer = len(counts[key]) == 1
                kept = tuple(
                    w
                    for w in state
                    if (len(counts[tuple(w[j] for j in observed)]) == 1) == answer
                )
                if not kept:
                    raise EmptyStateError("announcement inconsistent with state")
                round_eliminated += len(state) - len(kept)
                state = KnowledgeState(kept, state.history + ("turn",))
                turn = (rnd - 1) * n + pos + 1
                events.append(Event(rnd, turn, agent, answer, len(state)))
                round_answers.append(answer)
                if answer and agent not in first_yes:
                    first_yes[agent] = (rnd, turn)
                    round_new_yes = True
            if all(round_answers) or (round_eliminated == 0 and not round_new_yes):
                stabilized = rnd
                break

    eventual = _classify(n, first_yes, stabilized)
    final = tuple(
        tuple(sorted({w[i] for w in state})) for i in range(n)
    )
    return Transcript(
        scenario=scenario.name,
        agents=scenario.agents,
        protocol="simultaneous" if isinstance(protocol, scenarios.Simultaneous) else "circular",
        initial_size=len(universe),
        events=tuple(events),
        eventual=eventual,
        stabilized_at=stabilized,
        final_candidates=final,
    )


def _classify(
    n: int, first_yes: dict[int, tuple[int, int]], stabilized: Optional[int]
) -> tuple[Eventual, ...]:
    out = []
    for i in range(n):
        if i in first_yes:
            out.append(Eventual.learns(*first_yes[i]))
        elif stabilized is not None:
            out.append(Eventual.never())
        else:
            out.append(Eventual.unknown())
    return tuple(out)


def eventual_knowledge(scenario: scenarios.Scenario) -> tuple[Eventual, ...]:
    """Projection of run() onto the per-agent classification."""
    return run(scenario).eventual


# ---------------------------------------------------------------------------
# streamed runs (memory proportional to distinct observation keys)


class _StreamedState:
    """A world stream plus accumulated announcement predicates.

    Per-turn answers use a two-pass scheme: pass 1 accumulates, per observation
    key of the speaking agent, the distinct own values (capped at two) and the
    world count under that key; the filter predicate and the post-filter size
    both fall out of that map.  Once the state shrinks below the materialization
    threshold it is collected and the run continues in memory.
    """

    def __init__(self, constraint, n: int, vis: VisibilityGraph):
        self.constraint = constraint
        self.n = n
        self.vis = vis
        self.predicates: list[Callable[[World], bool]] = []

    def _stream(self):
        return scenarios.stream_worlds(self.constraint, self.n, self.predicates)

    def turn_pass(self, agent: int):
        """Map obs-key -> (own values capped at 2, world count) for the speaker."""
        observed = self.vis.observed(agent)
        table: dict[tuple[int, ...], list] = {}
        for w in self._stream():
            key = tuple(w[j] for j in observed)
            entry = table.get(key)
            if entry is None:
                table[key] = [{w[agent]}, 1]
            else:
                if len(entry[0]) < 2:
                    entry[0].add(w[agent])
                entry[1] += 1
        return observed, table

    def apply_turn(self, agent: int, observed, table, answer: bool) -> int:
        def pred(w, observed=observed, table=table, answer=answer):
            return (len(table[tuple(w[j] for j in observed)][0]) == 1) == answer

        self.predicates.append(pred)
        return sum(
            count for vals, count in table.values() if (len(vals) == 1) == answer
        )

    def round_pass(self):
        """Maps for every agent at once (simultaneous rounds)."""
        tables = []
        for agent in range(self.n):
            observed = self.vis.observed(agent)
            tables.append((observed, {}))
        total = 0
        for w in self._stream():
            total += 1
            for agent in range(self.n):
                observed, table = tables[agent]
                key = tuple(w[j] for j in observed)
                vals = table.get(key)
                if vals is None:
                    table[key] = {w[agent]}
                elif len(vals) < 2:
                    vals.add(w[agent])
        return tables, total

    def answers_of(self, tables, world: World) -> tuple[bool, ...]:
        return tuple(
            len(table[tuple(world[j] for j in observed)]) == 1
            for observed, table in tables
        )

    def apply_round(self, tables, announced: tuple[bool, ...]) -> int:
        def pred(w, tables=tables, announced=announced):
            return self.answers_of(tables, w) == announced

        self.predicates.append(pred)
        return sum(1 for _ in self._stream())

    def collect(self, limit: int):
        out = []
        for w in self._stream():
            out.append(w)
            if len(out) > limit:
                return None
        return out


def _run_streamed(scenario: scenarios.Scenario, size: int) -> Transcript:
    vis = scenario.visibility()
    actual = scenario.actual
    protocol = scenario.protocol
    n = scenario.n_agents
    if not scenario.constraint.contains(actual):
        raise EngineError("actual world is not a member of the universe")
    stream = _StreamedState(scenario.constraint, n, vis)
    events: list[Event] = []
    first_yes: dict[int, tuple[int, int]] = {}
    stabilized: Optional[int] = None
    current_size = size

    if isinstance(protocol, scenarios.Circular):
        order = protocol.order
        pending: Optional[KnowledgeState] = None
        for rnd in range(1, protocol.max_rounds + 1):
            round_answers = []
            round_eliminated = 0
            round_new_yes = False
            for pos, agent in enumerate(order):
                turn = (rnd - 1) * n + pos + 1
                if pending is not None:
                    counts = _candidate_counts(pending, agent, vis)
                    observed = vis.observed(agent)
                    key = tuple(actual[j] for j in observed)
                    answer = len(counts[key]) == 1
                    kept = tuple(
                        w
                        for w in pending
                        if (len(counts[tuple(w[j] for j in observed)]) == 1) == answer
                    )
                    if not kept:
                        raise EmptyStateError("announcement inconsistent with state")
                    round_eliminated += len(pending) - len(kept)
                    pending = KnowledgeState(kept)
                    post = len(pending)
                else:
                    observed, table = stream.turn_pass(agent)
                    key = tuple(actual[j] for j in observed)
                    answer = len(table[key][0]) == 1
                    post = stream.apply_turn(agent, observed, table, answer)
                    if post == 0:
                        raise EmptyStateError("announcement inconsistent with state")
                    round_eliminated += current_size - post
                    current_size = post
                    if post <= MATERIALIZE_AT:
                        worlds = stream.collect(post)
                        pending = KnowledgeState.from_worlds(worlds)
                events.append(Event(rnd, turn, agent, answer, post))
                round_answers.append(answer)
                if answer and agent not in first_yes:
                    first_yes[agent] = (rnd, turn)
                    round_new_yes = True
            if all(round_answers) or (round_eliminated == 0 and not round_new_yes):
                stabilized = rnd
                break
    else:
        pending = None
        for rnd in range(1, protocol.max_rounds + 1):
            if pending is not None:
                answers = answers_for_all(pending, vis)
                announced = answers[actual]
                kept = tuple(w for w in pending if answers[w] == announced)
                if not kept:
                    raise EmptyStateError("announcement inconsistent with state")
                eliminated = len(pending) - len(kept)
                pending = KnowledgeState(kept)
                post = len(pending)
            else:
                tables, total = stream.round_pass()
                announced = stream.answers_of(tables, actual)
                post = stream.apply_round(tables, announced)
                if post == 0:
                    raise EmptyStateError("announcement inconsistent with state")
                eliminated = total - post
                current_size = post
                if post <= MATERIALIZE_AT:
                    worlds = stream.collect(post)
                    pending = KnowledgeState.from_worlds(worlds)
            new_yes = False
            for i in range(n):
                events.append(Event(rnd, rnd, i, announced[i], post))
                if announced[i] and i not in first_yes:
                    first_yes[i] = (rnd, rnd)
                    new_yes = True
            if all(announced) or (eliminated == 0 and not new_yes):
                stabilized = rnd
                break

    eventual = _classify(n, first_yes, stabilized)
    if pending is not None:
        final = tuple(tuple(sorted({w[i] for w in pending})) for i in range(n))
    else:
        seen = [set() for _ in range(n)]
        for w in stream._stream():
            for i in range(n):
                seen[i].add(w[i])
        final = tuple(tuple(sorted(s)) for s in seen)
    return Transcript(
        scenario=scenario.name,
        agents=scenario.agents,
        protocol="simultaneous" if isinstance(protocol, scenarios.Simultaneous) else "circular",
        initial_size=size,
        events=tuple(events),
        eventual=eventual,
        stabilized_at=stabilized,
        final_candidates=final,
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


class _Cell:
    __slots__ = ("state", "events", "first_yes", "done", "round_meta")

    def __init__(self, state, events, first_yes):
        self.state = state
        self.events = events
        self.first_yes = first_yes
        self.done = False
        self.round_meta = None


def sweep(scenario: scenarios.Scenario, orbit: Optional[str] = None) -> SweepReport:
    """Run every world of the family as the actual world.

    Worlds sharing an announcement history share their whole continuation, so
    the family is processed by partition refinement: each round (or turn)
    splits the current cells by the truthful announcement, and each fragment is
    exactly the post-filter state of the worlds inside it.  This is
    semantically identical to calling run() per world.

    orbit: None for per-world rows, "rotation" to merge rotation classes
    (representative is the lexicographically least rotation).
    """
    scenario.validate()
    vis = scenario.visibility()
    protocol = scenario.protocol
    n = scenario.n_agents
    size = scenario.constraint.count_worlds(n)
    if size > STREAM_THRESHOLD:
        raise EngineError("family too large to sweep without streaming support")
    universe = scenario.universe()

    cells = [_Cell(universe, [], {})]
    simultaneous = isinstance(protocol, scenarios.Simultaneous)
    order = None if simultaneous else protocol.order

    for rnd in range(1, protocol.max_rounds + 1):
        active = [c for c in cells if not c.done]
        if not active:
            break
        if simultaneous:
            new_cells = []
            for cell in active:
                answers = answers_for_all(cell.state, vis)
                groups: dict[tuple[bool, ...], list[World]] = {}
                for w in cell.state:
                    groups.setdefault(answers[w], []).append(w)
                for announced in sorted(groups):
                    worlds = tuple(groups[announced])
                    child = _Cell(
                        KnowledgeState(worlds),
                        cell.events
                        + [Event(rnd, rnd, i, announced[i], len(worlds)) for i in range(n)],
                        dict(cell.first_yes),
                    )
                    new_yes = False
                    for i in range(n):
                        if announced[i] and i not in child.first_yes:
                            child.first_yes[i] = (rnd, rnd)
                            new_yes = True
                    no_elim = len(worlds) == len(cell.state)
                    if all(announced) or (no_elim and not new_yes):
                        child.done = True
                    new_cells.append(child)
            cells = [c for c in cells if c.done] + new_cells
        else:
            work = active
            for cell in work:
                cell.round_meta = (0, False, [])  # eliminated, new_yes, answers
            for pos, agent in enumerate(order):
                turn = (rnd - 1) * n + pos + 1
                next_work = []
                for cell in work:
                    eliminated, had_new_yes, ans_list = cell.round_meta
                    counts = _candidate_counts(cell.state, agent, vis)
                    observed = vis.observed(agent)
                    groups: dict[bool, list[World]] = {}
                    for w in cell.state:
                        a = len(counts[tuple(w[j] for j in observed)]) == 1
                        groups.setdefault(a, []).append(w)
                    for a in sorted(groups):
                        worlds = tuple(groups[a])
                        child = _Cell(
                            KnowledgeState(worlds),
                            cell.events + [Event(rnd, turn, agent, a, len(worlds))],
                            dict(cell.first_yes),
                        )
                        new_yes = had_new_yes
                        if a and agent not in child.first_yes:
                            child.first_yes[agent] = (rnd, turn)
                            new_yes = True
                        child.round_meta = (
                            eliminated + (len(cell.state) - len(worlds)),
                            new_yes,
                            ans_list + [a],
                        )
                        next_work.append(child)
                work = next_work
            for cell in work:
                eliminated, new_yes, ans_list = cell.round_meta
                if all(ans_list) or (eliminated == 0 and not new_yes):
                    cell.done = True
                cell.round_meta = None
            cells = [c for c in cells if c.done] + work

    rows = []
    for cell in cells:
        stabilized = None
        if cell.done:
            stabilized = cell.events[-1].round if cell.events else None
        eventual = _classify(n, cell.first_yes, stabilized)
        learners = frozenset(i for i in range(n) if i in cell.first_yes)
        digest = transcript_digest(cell.events)
        for w in cell.state:
            rows.append(SweepRow(w, eventual, learners, digest))
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
    return min(tuple(w[i:] + w[:i]) for i in range(len(w)))


# ---------------------------------------------------------------------------
# cap stability


def stability_check(scenario: scenarios.Scenario, cap: int, larger_cap: int) -> bool:
    """True iff the run is identical under both caps over the requested horizon.

    Transcripts are compared on announcements and eventual classifications;
    state sizes are cap dependent bookkeeping and excluded.
    """
    if not scenarios.needs_cap(scenario.constraint):
        raise EngineError("scenario family does not take a cap")
    a = run(_with_cap(scenario, cap))
    b = run(_with_cap(scenario, larger_cap))
    key = lambda t: [(e.round, e.turn, e.agent, e.answer) for e in t.events]
    return key(a) == key(b) and a.eventual == b.eventual


def _with_cap(scenario: scenarios.Scenario, cap: int) -> scenarios.Scenario:
    return scenarios.Scenario(
        name=scenario.name,
        agents=scenario.agents,
        constraint=scenarios.with_cap(scenario.constraint, cap),
        sight=scenario.sight,
        protocol=scenario.protocol,
        actual=scenario.actual,
        alphabet=scenario.alphabet,
        bound=scenarios.BoundConfig(cap, scenario.bound.growth if scenario.bound else 10),
    )


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

    Permutation-invariant constraints admit direct multiset enumeration, far
    cheaper than collapsing the full world set.  Windowed families (maximum
    difference) are enumerated per offset so large caps stay cheap.
    """
    out = set()
    if isinstance(constraint, scenarios.MaxDiffExact) and constraint.diff > 0:
        d = constraint.diff
        for lo in range(constraint.cap - d + 1):
            for prof in itertools.combinations_with_replacement(range(lo, lo + d + 1), n):
                if prof[0] == lo and prof[-1] == lo + d:
                    out.add(prof)
        return frozenset(out)
    bound = _value_bound(constraint, n)
    for prof in itertools.combinations_with_replacement(range(bound + 1), n):
        if constraint.contains(prof):
            out.add(prof)
    return frozenset(out)


def _value_bound(constraint, n: int) -> int:
    if hasattr(constraint, "cap"):
        return constraint.cap
    if isinstance(constraint, scenarios.SumOrProduct):
        return constraint.announced
    if isinstance(constraint, scenarios.SumInSet):
        return max(constraint.sums) - n + 1
    if hasattr(constraint, "n_colors"):
        return constraint.n_colors - 1
    return 1  # zero-one


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
