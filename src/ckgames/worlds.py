"""Core semantic model: worlds, observations, knowledge, and announcement filtering.

A world is a tuple of small non-negative integers, one value per agent
(position i is agent i's own value).  A knowledge state is the set of worlds
still consistent with everything publicly announced so far.  Filtering a
state on an announcement keeps exactly the worlds in which that announcement
would have been made.

The announcement kernel, partition, builds only the parts a branch keeps: the
actual world's in a run, and in a sweep every part, or under a seat group one
part per class of answer vectors with the group elements that move it onto the
others (split gives every part's worlds alone).  It answers a speaker who sees
only some seats through a table of its observation keys, and a speaker who
sees every other seat, in a state of at least CODED_FROM worlds, off the
state's worlds packed into integers, each seat in a field as narrow as the
state's values allow (see encode).  A state too large to hold is
engine._Blocks: own_table answers its block profiles as it answers worlds,
keyed by _key_fn over the blocks a speaker sees.  run and sweep play a
full-sight simultaneous game on block profiles from its first step on, keyed
by integer codes instead (see engine._Blocks._heard).
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
    The split answers one world per orbit of worlds, and each other member
    holds the answers moved by the act that takes the first to it.
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

    def images(self, answers: tuple) -> list[int]:
        """The first element giving each distinct vector that the elements move `answers` to, in element order."""
        return _firsts([act(answers) for act in self.acts])


def _firsts(moved: list) -> list[int]:
    """The place of the first of each distinct item of `moved`, in order."""
    firsts: dict = {}
    for e, v in enumerate(moved):
        firsts.setdefault(v, e)
    return list(firsts.values())


def split(state: KnowledgeState, speakers, vis: VisibilityGraph) -> dict:
    """Group the worlds of `state` by the speakers' truthful answers.

    Maps each answer tuple (in `speakers` order) to the list of worlds giving
    it, each list in the order of `state`: every part of partition with no
    group and no actual world.
    """
    return {answers: list(part) for answers, part, _ in partition(state, speakers, vis)}


def partition(state: KnowledgeState, speakers, vis: VisibilityGraph, group: Optional[SeatGroup] = None,
              actual: Optional[World] = None) -> list:
    """The parts of `state` that a branch keeps after the speakers answer truthfully: (answers, part, images) each.

    A part is a KnowledgeState of the worlds giving one answer tuple (in
    `speakers` order), in the order of `state`.  With an `actual` world, a
    world of `state`, only the part holding it is built.  Without one,
    every part is, or under a group one part per class.

    A `group` is a SeatGroup of `vis` under which `state` is closed, and it
    needs every agent to speak, in seat order.  A universe built by
    scenarios.gen_universe is closed under every permutation of the seats
    (see scenarios), so under any SeatGroup.  For p in the group, agent i
    sees in p(w) what agent p[i] sees in w, so the answers of p(w) are the
    answers of w moved by p, and p moves each part onto the part of the
    moved answers.  A class is an answer vector with every vector that an
    element moves it to; a sweep keeps the part of its first vector met in
    the order of `state`.  Tables are built for the first seat of each
    orbit of the group on the seats, and each orbit of worlds is answered
    once (see _orbit_parts).  A part of a group split carries no codes, and
    its images are the first element giving each distinct moved answer
    vector (SeatGroup.images): moved by them, it is every part of its
    class.  Without a group, or with the identity alone, images is None:
    each part stands for what `state` stood for.

    Without a group, a speaker who sees only some seats is answered off a
    table of its observation keys, each key computed once (own_table).  So
    is every speaker in a state of fewer than CODED_FROM worlds.  In a state
    of at least that many, a speaker who sees every other seat is answered
    off the state's codes, encoded the first time such a speaker speaks
    (see coded_column).  The codes of a state that has them are handed on
    to its parts, so no state below it is encoded again.  A part is cut out
    with itertools.compress over its answer mask: a run's one part, or the
    two of a one-speaker step.  A sweep's step of more speakers groups its
    worlds by their answer vectors.  A part's codes are cut by the same
    mask, or the same grouping, as its worlds.
    """
    if group is not None and group.vis is not vis and group.vis != vis:
        raise ContractViolation("the seat group was set up for another sight graph")
    plain = group is None or len(group.perms) == 1
    if not plain and tuple(speakers) != tuple(range(vis.n_agents)):
        raise ContractViolation("a group split needs every agent in seat order")
    held = state.worlds
    if len(held) == 1:  # every key matches one world, so every speaker knows
        return [((YES,) * len(speakers), KnowledgeState(held), None if plain else [0])]
    if not plain:
        firsts, route = group.plan
        tables = [own_table(map(vis.keys[r], held), held, r) for r in firsts]  # keys not held, for peak memory
        return _orbit_parts(held, [(key, tables[f]) for key, f in route], group, actual)
    coded = None
    if len(held) >= CODED_FROM:
        coded = state.codes
        if coded is None and not vis.full_sight.isdisjoint(speakers):
            coded = state.coded()
    columns, mine, at = [], [], None  # mine: the actual world's answers; at: its place, once a coded column needs it
    for agent in speakers:  # one speaker's keys held at a time
        if coded and agent in vis.full_sight:
            columns.append(coded_column(coded, agent))
            if actual is not None:
                at = held.index(actual) if at is None else at
                mine.append(columns[-1][at])
        else:
            key = vis.keys[agent]
            keys = list(map(key, held))
            table = own_table(keys, held, agent)
            columns.append([table[k] != MIXED for k in keys])
            if actual is not None:
                mine.append(table[key(actual)] != MIXED)
    cut = lambda mask: KnowledgeState(tuple(compress(held, mask)), coded and (coded[0], list(compress(coded[1], mask))))
    if len(columns) == 1:
        (said,) = columns
        if said.count(said[0]) == len(said):  # no world told apart
            return [((said[0],), KnowledgeState(held, coded), None)]
        if actual is not None:
            return [(tuple(mine), cut(said if mine[0] else list(map(not_, said))), None)]
        return [((YES,), cut(said), None), ((NO,), cut(list(map(not_, said))), None)]
    if actual is not None:
        mine = tuple(mine)
        return [(mine, cut(list(map(mine.__eq__, zip(*columns)))), None)]
    vectors = list(zip(*columns))
    grouped = coded and _grouped(coded[1], vectors)
    return [(answers, KnowledgeState(tuple(part), coded and (coded[0], grouped[answers])), None)
            for answers, part in _grouped(held, vectors).items()]


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


def _orbit_parts(state, plan, group: SeatGroup, actual: Optional[World]) -> list:
    """partition's parts under `group`: the first world met of each orbit is answered through `plan`.

    Kept is the part of the actual world's answers, or with no actual world
    the part of each class's first vector met: the vectors that the elements
    move an answer vector to are its class, so a vector met later finds its
    class's kept vector among them.  The walk meets the orbits
    in the order of `state` through `unseen`, the state's own worlds of no
    orbit met yet, which loses each orbit as it is met.  It answers the
    orbit's first world w, and the world that element e moves w to holds
    the answers moved by e, so it joins the kept part with those answers,
    if there is one.  A second pass puts each kept world into its part in
    the order of `state`.
    """
    acts = group.acts
    kept: dict = {}  # each kept part's answer vector -> (its worlds, its images)
    if actual is not None:  # a run keeps one part, whose answers are known before the walk
        wanted = tuple([table[key(actual)] != MIXED for key, table in plan])
        kept[wanted] = ([], group.images(wanted))
    # each answer vector met -> (whether each element moves it to the kept vector of its class, that part), or ()
    hits: dict = {}
    part_of: dict = {}  # each kept world, as an element moved a first world to it -> its part's worlds
    unseen = set(state)
    # each world is looked up as the walk reaches it, after the orbits met before it have left `unseen`
    for w in compress(state, map(unseen.__contains__, state)):  # the first world met of each orbit
        orbit = [act(w) for act in acts]
        unseen.difference_update(orbit)
        answers = tuple([table[key(w)] != MIXED for key, table in plan])
        hit = hits.get(answers)
        if hit is None:
            moved = [act(answers) for act in acts]  # its class
            if actual is not None:
                vector = wanted if wanted in moved else None
            else:
                vector = next(iter(kept.keys() & moved), None)  # the class's kept vector, once met
                if vector is None:  # the first vector met of a new class
                    vector = answers
                    kept[vector] = ([], _firsts(moved))
            hit = hits[answers] = () if vector is None else ([v == vector for v in moved], kept[vector][0])
        if hit:
            part_of.update(zip(compress(orbit, hit[0]), repeat(hit[1])))
    for w in compress(state, map(part_of.__contains__, state)):
        part_of[w].append(w)
    return [(answers, KnowledgeState(tuple(part)), images) for answers, (part, images) in kept.items()]


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
