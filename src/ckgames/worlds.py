"""Core semantic model: worlds, observations, knowledge, and announcement filtering.

A world is a tuple of small non-negative integers, one value per agent
(position i is agent i's own value).  A knowledge state is the set of worlds
still consistent with everything publicly announced so far.  Filtering a
state on an announcement keeps exactly the worlds in which that announcement
would have been made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Optional

World = tuple[int, ...]

YES = True
NO = False


def answer_str(answer: bool) -> str:
    return "YES" if answer else "NO"


class ContractViolation(Exception):
    """An engine precondition was broken (bad index, world outside state, ...)."""


class EmptyStateError(ContractViolation):
    """A filter produced an empty state.

    This can only happen when an announcement is inconsistent with the state,
    which indicates a generator bug or a bounding artifact, never a valid game.
    """


@dataclass(frozen=True)
class VisibilityGraph:
    """Per-agent sets of observed agents.  No agent sees itself."""

    sees: tuple[frozenset[int], ...]
    # each agent's observation-key function, built once; not part of equality or hashing
    keys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for i, seen in enumerate(self.sees):
            if i in seen:
                raise ContractViolation(f"agent {i} cannot see itself")
            for j in seen:
                if not 0 <= j < len(self.sees):
                    raise ContractViolation(f"agent {i} sees out-of-range agent {j}")
        object.__setattr__(self, "keys", tuple(_key_fn(tuple(sorted(seen))) for seen in self.sees))

    @property
    def n_agents(self) -> int:
        return len(self.sees)

    def observed(self, agent: int) -> tuple[int, ...]:
        """Sorted tuple of agents observed by `agent` (stable observation key order)."""
        if not 0 <= agent < len(self.sees):
            raise ContractViolation(f"agent index {agent} out of range")
        return tuple(sorted(self.sees[agent]))


def observe(agent: int, world: World, vis: VisibilityGraph) -> dict[int, int]:
    """Restrict `world` to what `agent` sees: a mapping observed-agent -> value.

    Observations are identity keyed: agents know who sits where, so seeing the
    same multiset of values on different neighbours is not the same observation.
    """
    return {j: world[j] for j in vis.observed(agent)}


def _obs_key(agent: int, world: World, vis: VisibilityGraph) -> tuple[int, ...]:
    # Tuple in sorted-agent order; equivalent to the observe() mapping but hashable
    # and cheap, used as a grouping key everywhere.
    return tuple(world[j] for j in vis.observed(agent))


@dataclass(frozen=True)
class KnowledgeState:
    """A finite set of worlds: those still consistent with every announcement so far.

    Worlds are kept canonically ordered (lexicographically) so dumps and
    transcripts are reproducible.  The actual world must remain a member after
    every filter; an empty filter result raises EmptyStateError.
    """

    worlds: tuple[World, ...]
    _members: frozenset[World] = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_worlds(worlds) -> "KnowledgeState":
        return KnowledgeState(tuple(sorted(set(worlds))))

    def __len__(self) -> int:
        return len(self.worlds)

    def __contains__(self, world: World) -> bool:
        if self._members is None:  # built on the first membership test
            object.__setattr__(self, "_members", frozenset(self.worlds))
        return world in self._members

    def __iter__(self):
        return iter(self.worlds)


def knows_own(agent: int, world: World, state: KnowledgeState, vis: VisibilityGraph) -> bool:
    """YES iff `agent`'s own value is the same in every state world matching its observation."""
    if world not in state:
        raise ContractViolation("world is not a member of the state")
    key = _obs_key(agent, world, vis)
    own = world[agent]
    for w in state:
        if w[agent] != own and _obs_key(agent, w, vis) == key:
            return NO
    return YES


# ---------------------------------------------------------------------------
# the announcement kernel: bucket worlds by each speaker's observation, then
# split them by the truthful answers

MIXED = -1  # marks an observation key under which the speaker's own value varies


def _key_fn(observed: tuple[int, ...]) -> Callable[[World], object]:
    # itemgetter of one index returns a bare value, not a 1-tuple; keys are only
    # ever compared with keys made by the same function
    return itemgetter(*observed) if observed else lambda w: ()


def answer_tables(worlds: Iterable[World], speakers, vis: VisibilityGraph) -> list:
    """One pass over `worlds`: per speaker, (its observation-key function, table).

    A table maps each observation key to [the speaker's own value, or MIXED when
    it varies under that key, number of worlds with that key].  The speaker
    knows its value exactly where the entry is not MIXED.  `worlds` may be any
    iterable, including a lazily generated stream.
    """
    cols = [(agent, vis.keys[agent], {}) for agent in speakers]
    for w in worlds:
        for agent, key, table in cols:
            k = key(w)
            entry = table.get(k)
            if entry is None:
                table[k] = [w[agent], 1]
            else:
                if entry[0] != w[agent]:
                    entry[0] = MIXED
                entry[1] += 1
    return [(key, table) for _, key, table in cols]


def answers_in(tables: list, world: World) -> tuple[bool, ...]:
    """The speakers' truthful answers in `world`, from answer_tables."""
    return tuple([table[key(world)][0] != MIXED for key, table in tables])


def split(state: Iterable[World], speakers, vis: VisibilityGraph, step: Optional[int] = None) -> dict:
    """Group the worlds of `state` by the speakers' truthful answers.

    Maps each answer tuple (in `speakers` order) to the list of worlds giving
    it, each list in the order of `state`.

    A `step` below the number of agents promises that every agent speaks and
    that rotating the seats by any multiple of `step` maps `state` and the
    sight graph onto themselves.  Agent i + m then sees in a world w what agent
    i sees in w rotated back by m seats, so tables are built for seats
    0 .. step-1 only, and each rotation orbit of worlds is answered once: its
    other members get the rotated answers.  Without a step, or with step equal
    to the number of agents, every world is answered from its own keys.
    """
    if len(state) == 1:  # every key matches one world, so every speaker knows
        return {(YES,) * len(speakers): list(state)}
    n = vis.n_agents
    if step is None or step == n:
        tables = answer_tables(state, speakers, vis)
        columns = [[table[k][0] != MIXED for k in map(key, state)] for key, table in tables]
        vectors = zip(*columns)
    else:
        if tuple(speakers) != tuple(range(n)) or n % step:
            raise ContractViolation("an orbit split needs every agent in seat order and a step dividing n")
        tables = answer_tables(state, range(step), vis)
        shifts = range(0, n, step)
        answered: dict[World, tuple[bool, ...]] = {}
        for w in state:
            if w in answered:
                continue
            # agents m .. m+step-1 answer from w rotated back by m seats
            answers = tuple([
                table[key(v)][0] != MIXED
                for v in [w[m:] + w[:m] for m in shifts] for key, table in tables
            ])
            for m in shifts:  # w rotated forward by m seats gives the rotated answers
                answered[w[n - m:] + w[:n - m]] = answers[n - m:] + answers[:n - m]
        vectors = map(answered.__getitem__, state)
    groups: dict[tuple[bool, ...], list[World]] = {}
    for w, answers in zip(state, vectors):
        group = groups.get(answers)
        if group is None:
            groups[answers] = [w]
        else:
            group.append(w)
    return groups


def answers_for_all(state: KnowledgeState, vis: VisibilityGraph) -> dict[World, tuple[bool, ...]]:
    """Hypothetical answer vector of every world in the state, in one grouping pass.

    Equivalent to calling knows_own per agent per world but O(|state| * N).
    """
    tables = answer_tables(state, range(vis.n_agents), vis)
    return {w: answers_in(tables, w) for w in state}


def answer_vector(state: KnowledgeState, world: World, vis: VisibilityGraph) -> tuple[bool, ...]:
    """Per-agent knows_own for `world` against `state`."""
    return tuple(knows_own(i, world, state, vis) for i in range(vis.n_agents))


def _kept(state: KnowledgeState, speakers, announced: tuple[bool, ...], vis) -> KnowledgeState:
    kept = split(state, speakers, vis).get(announced)
    if not kept:
        raise EmptyStateError("announcement inconsistent with state")
    return KnowledgeState(tuple(kept))


def filter_simultaneous(
    state: KnowledgeState, announced: tuple[bool, ...], vis: VisibilityGraph
) -> KnowledgeState:
    """Keep the worlds whose hypothetical answer vector equals the announced one.

    All hypothetical answers are computed against the state as it stood when the
    round was announced (synchronous semantics within a round).
    """
    return _kept(state, range(vis.n_agents), tuple(announced), vis)


def filter_turn(
    state: KnowledgeState, agent: int, answer: bool, vis: VisibilityGraph
) -> KnowledgeState:
    """Keep the worlds in which `agent` would have announced `answer`."""
    if not 0 <= agent < vis.n_agents:  # a negative index would read another agent's key
        raise ContractViolation(f"agent index {agent} out of range")
    return _kept(state, (agent,), (answer,), vis)
