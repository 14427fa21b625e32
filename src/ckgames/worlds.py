"""Core semantic model: worlds, observations, knowledge, and announcement filtering.

A world is a tuple of small non-negative integers, one value per agent
(position i is agent i's own value).  A knowledge state is the set of worlds
still consistent with everything publicly announced so far.  Filtering a
state on an announcement keeps exactly the worlds in which that announcement
would have been made.

The announcement kernel, partition (split keeps its worlds alone), answers a
speaker who sees only some seats through a table of its observation keys, and
a speaker who sees every other seat, in a state of at least CODED_FROM worlds,
off the state's worlds packed into integers, each seat in a field as narrow as
the state's values allow (see encode).  A state too large
to hold is engine._Blocks: own_table answers its block profiles as it answers
worlds, keyed by _key_fn over the blocks a speaker sees.  run and sweep play
a full-sight simultaneous game on block profiles from its first step on,
keyed by integer codes instead (see engine._Blocks._heard).
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import compress, repeat, starmap
from operator import and_, eq, itemgetter, not_
from typing import Callable, Iterable, Optional, Sequence

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

    @cached_property
    def full_sight(self) -> frozenset[int]:
        """The agents who see every other agent."""
        return frozenset([i for i, seen in enumerate(self.sees) if len(seen) == len(self.sees) - 1])

    def observed(self, agent: int) -> tuple[int, ...]:
        """Sorted tuple of agents observed by `agent` (stable observation key order)."""
        if not 0 <= agent < len(self.sees):
            raise ContractViolation(f"agent index {agent} out of range")
        return tuple(sorted(self.sees[agent]))

    def maps_onto_itself(self, p: Sequence[int]) -> bool:
        """Whether the seat permutation p maps the graph onto itself: p[i] sees p[j] exactly when i sees j."""
        return all(self.sees[q] == set(map(p.__getitem__, seen)) for q, seen in zip(p, self.sees))


def _obs_key(agent: int, world: World, vis: VisibilityGraph) -> tuple[int, ...]:
    # the values agent sees, in sorted-agent order: agents know who sits where, so
    # the same values on different neighbours are not the same observation
    return tuple(world[j] for j in vis.observed(agent))


@dataclass(frozen=True)
class KnowledgeState:
    """A finite set of worlds: those still consistent with every announcement so far.

    Worlds are kept canonically ordered (lexicographically) so dumps and
    transcripts are reproducible.  The actual world must remain a member after
    every filter; an empty filter result raises EmptyStateError.
    """

    worlds: tuple[World, ...]
    # encode(worlds), made when a speaker who sees every other seat first speaks and
    # handed on to the parts of each split (see partition)
    codes: Optional[tuple] = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_worlds(worlds) -> "KnowledgeState":
        return KnowledgeState(tuple(sorted(set(worlds))))

    def __len__(self) -> int:
        return len(self.worlds)

    def __contains__(self, world: World) -> bool:
        return world in self.worlds

    def __iter__(self):
        return iter(self.worlds)

    def coded(self) -> Optional[tuple]:
        """The state's codes, encoded on first use; None while its values do not fit (see encode)."""
        if self.codes is None:
            object.__setattr__(self, "codes", encode(self.worlds))
        return self.codes


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
    # ever compared with keys made by the same function.  A seat who sees nobody
    # gets the empty slice, so every world gives it the key ()
    return itemgetter(*observed) if observed else itemgetter(slice(0, 0))


def own_table(keys: Iterable, state: Sequence[World], agent: int) -> dict:
    """Each of `keys`, the observation keys of the held `state`'s worlds in order, to `agent`'s value or MIXED."""
    table: dict = {}
    for k, w in zip(keys, state):
        own = w[agent]
        if table.setdefault(k, own) != own:
            table[k] = MIXED
    return table


# the fewest worlds a state must hold to be answered off codes.  A coded column costs
# a half to two thirds of a table of tuple keys per world, but encoding costs about as
# much again and each call pays a fixed cost, so a small state, or a run's chain of
# states (one part kept a step), can lose: with codes from 16 worlds on, runs of
# full-sight circular games of 2-5 seats and 30-240 worlds took up to 18% longer, and
# from 256 on none did, while sweeps of 12 seats (4,095 worlds) still took half the time
CODED_FROM = 256


def encode(worlds: Sequence[World]) -> Optional[tuple]:
    """(masks, codes) for a non-empty sequence of worlds of one length n, or None.

    Each world is packed into one int: seat i's value fills the i-th of n
    fixed-width unsigned fields, seat 0 highest.  The fields are the
    narrowest that hold every value: 1, 2, 4 or 5 bits up to 31, where a
    world's bytes are translated into n digits and read in base 2**bits,
    and from 32 on the first of 1, 2, 4 and 8 bytes.  masks[i] clears seat
    i's field, so code & masks[i] is what a seat i who sees every other seat
    observes.  None when a value is negative or needs more than 64 bits.
    """
    n = len(worlds[0])
    try:
        fields = list(map(bytes, worlds))
    except ValueError:  # a value below 0 or above 255
        fields = None
    if fields is not None:
        joined = b"".join(fields)
        for bits, below in _NARROW:
            if not joined.translate(None, below):  # every value is below 2**bits
                return _masks(n, bits), list(map(int, map(bytes.translate, fields, repeat(_DIGITS)), repeat(1 << bits)))
        return _masks(n, 8), list(map(int.from_bytes, fields, repeat("big")))
    for fmt in "HIQ":  # a pack that fails part-way costs less than a pass for the largest value
        pack = struct.Struct(f">{n}{fmt}").pack
        try:
            codes = list(map(int.from_bytes, starmap(pack, worlds), repeat("big")))
        except struct.error:
            continue
        return _masks(n, struct.calcsize(fmt) * 8), codes
    return None


# the narrow field widths, each with the byte values it holds; a value v is read as
# the digit v of base 2**bits, and base 32 is the largest power of two int() reads
_NARROW = tuple([(bits, bytes(range(1 << bits))) for bits in (1, 2, 4, 5)])
_DIGITS = bytes.maketrans(bytes(range(32)), b"0123456789abcdefghijklmnopqrstuv")


@cache
def _masks(n: int, bits: int) -> tuple:
    """The n masks of n fields of `bits` bits, each clearing one field, seat 0's highest."""
    whole = (1 << bits * n) - 1
    return tuple([whole ^ ((1 << bits) - 1) << bits * (n - 1 - i) for i in range(n)])


def coded_column(coded: tuple, agent: int) -> list[bool]:
    """Whether `agent`, who sees every other seat, knows its value in each world of a state with codes `coded`.

    Two worlds look the same to such an agent exactly when they differ at
    its own seat alone, so the worlds of a state (all distinct) that share
    one key code & masks[agent] each hold a different own value.  The agent
    knows its value exactly where its key occurs once.
    """
    masks, codes = coded
    keys = list(map(and_, codes, repeat(masks[agent])))
    counts = Counter(keys)
    return list(map(eq, map(counts.__getitem__, keys), repeat(1)))


class SeatGroup:
    """The group that `generators` generate, each a permutation of the seats and a symmetry of `vis`.

    Element 0 is the identity.  Element e moves a world, answer vector or
    eventual tuple x to acts[e](x), whose seat i holds x[perms[e][i]].  A
    generator that is not a permutation of the seats, or that does not map
    the sight graph onto itself, is refused with ContractViolation.

    If p maps the sight graph onto itself, seat p[r] answers in w as seat r
    answers in p(w).  So a split of a state closed under the group needs
    tables for the first seat r of each orbit of the group on the seats
    only: in `plan`, `route` holds per seat s the key function that reads
    r's observation in p(w) straight off w, and r's place among `firsts`.
    The split answers one world per orbit of worlds and gives the other
    members the answers moved by the acts.
    """

    def __init__(self, vis: VisibilityGraph, generators: Iterable[Sequence[int]] = ()):
        seats = tuple(range(vis.n_agents))
        generators = [tuple(p) for p in generators]
        for p in generators:
            if tuple(sorted(p)) != seats:
                raise ContractViolation("a seat group needs permutations of the seats")
            if not vis.maps_onto_itself(p):
                raise ContractViolation(f"{p} does not map the sight graph onto itself")
        generators = [p for p in generators if p != seats]
        perms = [seats]
        known = set(perms)
        for p in perms:  # the list grows while it is walked, until it is closed
            move = itemgetter(*p)
            for s in generators:
                q = move(s)  # s, then p
                if q not in known:
                    known.add(q)
                    perms.append(q)
        self.vis = vis
        self.perms = tuple(perms)
        # the identity acts as `tuple`, which also takes a circular step's one answer
        self.acts = (tuple,) + tuple([itemgetter(*p) for p in perms[1:]])

    @cached_property
    def plan(self) -> tuple:
        """split's set-up: (firsts, route)."""
        seats = range(self.vis.n_agents)
        firsts = []
        route = [None] * len(seats)
        for r in seats:
            if route[r] is None:
                observed = self.vis.observed(r)
                for p in self.perms:
                    if route[p[r]] is None:
                        route[p[r]] = (_key_fn(tuple([p[j] for j in observed])), len(firsts))
                firsts.append(r)
        return tuple(firsts), tuple(route)


def split(state: Iterable[World], speakers, vis: VisibilityGraph, group: Optional[SeatGroup] = None) -> dict:
    """Group the worlds of `state` by the speakers' truthful answers.

    Maps each answer tuple (in `speakers` order) to the list of worlds giving
    it, each list in the order of `state`; see partition.
    """
    return partition(state, speakers, vis, group)[0]


def partition(state: Iterable[World], speakers, vis: VisibilityGraph, group: Optional[SeatGroup] = None) -> tuple:
    """(split's parts, each answer tuple to its part's codes), or (parts, None) when the parts carry no codes.

    A `group` is a SeatGroup of `vis` under which `state` is closed, and it
    needs every agent to speak, in seat order.  A universe built by
    scenarios.gen_universe is closed under every permutation of the seats
    (see scenarios), so under any SeatGroup.  For p in the group, agent i
    sees in p(w) what agent p[i] sees in w, so the answers of p(w) are the
    answers of w moved by p.  Tables are built for the first seat of each
    orbit of the group on the seats, and each orbit of worlds is answered
    once; its other members get the moved answers.  Parts of a group split
    carry no codes.

    Without a group, or with the identity alone, a speaker who sees only
    some seats is answered off a table of its observation keys, each key
    computed once (own_table).  So is every speaker in a state of fewer
    than CODED_FROM worlds.  In a held KnowledgeState of at least that many,
    a speaker who sees every other seat is answered off the state's codes,
    encoded the first time such a speaker speaks (see coded_column).  The
    codes of a state that has them are handed on to its parts, so no state
    below it is encoded again.  A one-speaker step cuts its two parts out
    with itertools.compress, and a step of more speakers groups its worlds
    by their answer vectors; a part's codes are cut by the same mask, or
    the same grouping, as its worlds.
    """
    if group is not None and group.vis is not vis and group.vis != vis:
        raise ContractViolation("the seat group was set up for another sight graph")
    plain = group is None or len(group.perms) == 1
    if not plain and tuple(speakers) != tuple(range(vis.n_agents)):
        raise ContractViolation("a group split needs every agent in seat order")
    if len(state) == 1:  # every key matches one world, so every speaker knows
        return {(YES,) * len(speakers): list(state)}, None
    if not plain:
        firsts, route = group.plan
        tables = [own_table(map(vis.keys[r], state), state, r) for r in firsts]  # keys not held, for peak memory
        return _grouped(state, _answers_per_orbit(state, [(key, tables[f]) for key, f in route], group.acts)), None
    coded = None
    if len(state) >= CODED_FROM and isinstance(state, KnowledgeState):
        coded = state.codes
        if coded is None and not vis.full_sight.isdisjoint(speakers):
            coded = state.coded()
    columns = []
    for agent in speakers:  # one speaker's keys held at a time
        if coded and agent in vis.full_sight:
            columns.append(coded_column(coded, agent))
        else:
            keys = list(map(vis.keys[agent], state))
            table = own_table(keys, state, agent)
            columns.append([table[k] != MIXED for k in keys])
    if len(columns) > 1:
        vectors = list(zip(*columns))
        cut = lambda seq: _grouped(seq, vectors)
    else:
        (said,) = columns
        if said.count(said[0]) == len(said):  # no world told apart
            return {(said[0],): list(state)}, coded and {(said[0],): coded}
        halves = ((YES,), said), ((NO,), list(map(not_, said)))
        cut = lambda seq: {answers: list(compress(seq, mask)) for answers, mask in halves}
    return cut(state), coded and {answers: (coded[0], codes) for answers, codes in cut(coded[1]).items()}


def _grouped(state: Iterable[World], vectors: Iterable) -> dict:
    """Each answer vector to the list of its worlds (or codes), both in the order of `state`."""
    groups: dict[tuple[bool, ...], list[World]] = {}
    for w, answers in zip(state, vectors):
        part = groups.get(answers)
        if part is None:
            groups[answers] = [w]
        else:
            part.append(w)
    return groups


def _answers_per_orbit(state, plan, acts):
    """Each world's answers in the order of `state`; the first world met of each
    orbit is answered through `plan`, and the others get its answers moved."""
    answered: dict[World, tuple[bool, ...]] = {}
    images: dict[tuple[bool, ...], list[tuple[bool, ...]]] = {}  # answers -> moved by each element
    for w in state:
        answers = answered.get(w)
        if answers is None:
            answers = tuple([table[key(w)] != MIXED for key, table in plan])
            moved = images.get(answers)
            if moved is None:
                moved = images[answers] = [act(answers) for act in acts]
            answered.update(zip([act(w) for act in acts], moved))
        yield answers


def answers_for_all(state: KnowledgeState, vis: VisibilityGraph) -> dict[World, tuple[bool, ...]]:
    """Hypothetical answer vector of every world in the state, read off one plain split.

    Equivalent to calling knows_own per agent per world but O(|state| * N).
    """
    return {w: answers for answers, part in split(state, range(vis.n_agents), vis).items() for w in part}


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
