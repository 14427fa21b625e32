"""Announcement protocols: drive games to a fixpoint and classify who learns what.

Both protocols follow the same loop: split the knowledge state by the truthful
YES/NO announcements its worlds would give, record the announcements, and keep
the part in which those exact announcements would have been made (a run keeps
the actual world's part, a sweep every part, or one per class of answer vectors
under the seat group; no other part is built).  A branch stops when everyone has
said YES, when a full round certifies a fixpoint (no world eliminated and no
first-time YES), or at the horizon.

"Never" is only asserted after a certified fixpoint; hitting the horizon
without one yields "unknown".

A run or a sweep of a simultaneous game in which every seat sees every other,
and any other run above STREAM_THRESHOLD worlds, plays the same loop over
block profiles (_Blocks; see run_path).  A sweep reads every row off its
leaf's transcript through a map of the seats (_rows).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from operator import and_, eq, itemgetter, not_
from typing import Iterable, NamedTuple, Optional

from . import scenarios
from .worlds import (MIXED, YES, KnowledgeState, SeatGroup, VisibilityGraph, World, _key_fn, answer_str,
                     own_table, partition)


class Event(NamedTuple):
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
        return [tuple(rounds[r][i] for i in range(len(self.agents))) for r in sorted(rounds)]

    def answers_by_turn(self) -> list[bool]:
        return [e.answer for e in sorted(self.events, key=lambda e: (e.round, e.turn))]

    def learners(self) -> frozenset[int]:
        return frozenset(i for i, ev in enumerate(self.eventual) if ev.kind == "learns")


def transcript_digest(events: Iterable[Event]) -> str:
    text = ";".join(f"{e.round},{e.turn},{e.agent},{answer_str(e.answer)},{e.state_size}" for e in events)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class EngineError(Exception):
    pass


STREAM_THRESHOLD = 500_000


# ---------------------------------------------------------------------------
# the round driver, shared by run and sweep


class _Branch(NamedTuple):
    state: object  # KnowledgeState, or _Blocks while too large to hold or in a full-sight simultaneous game
    steps: tuple[tuple, ...]  # (round, turn, speakers, answers, state size) per announcement step
    first_yes: dict[int, Eventual]  # agent -> the round and turn of its first YES
    # the seat-group elements that move this branch onto the cells it stands for: [0] alone
    # when every element maps its state onto itself
    images: list[int]


@functools.cache
def _sweep_group(vis: VisibilityGraph, simultaneous: bool) -> SeatGroup:
    """The seat permutations a game over the sight graph `vis` may quotient by.

    Generated by rotation by one seat and by reversal (seat j to n-1-j), each
    kept only if it maps the sight graph onto itself: the dihedral group for
    circle and full sight, reversal alone for line sight, the identity alone
    for circular turns and blind agents (full-sight simultaneous games play
    on block profiles under the identity instead, see run_path).  Every
    universe is closed under every seat permutation (see scenarios), so the
    sight graph decides.  Each (sight graph, protocol kind) gets one group
    for the life of the process, with its split plan built on first use.
    """
    n = vis.n_agents
    generators = []
    if simultaneous:
        # rotation and reversal are the same permutation of two seats
        for p in dict.fromkeys((tuple((i - 1) % n for i in range(n)), tuple(range(n - 1, -1, -1)))):
            if vis.maps_onto_itself(p):
                generators.append(p)
    return SeatGroup(vis, generators)


class _Blocks:
    """The worlds that every announcement so far keeps, as block profiles: the counter abstraction
    of fully symmetric systems over a partition of the seats that refines as seats speak; no world is generated.

    The state is closed under the permutations within each block; the root is
    the constraint's profiles in one block (see scenarios).  A profile holds
    one sorted value tuple per block, in block order, and stands for
    prod_b |b|! / prod_v m_v! worlds, with m_v copies of v in block b.
    """

    def __init__(self, blocks: tuple, live: list, size: int, weights: Optional[list] = None,
                 keys: Optional[list] = None):
        self.blocks = blocks  # seat tuples, in profile order
        self.live = live
        self.size = size
        # _heard's weights, made on first use, and its keys per live profile, kept by a step that split no block
        self.weights, self.keys = weights, keys

    @classmethod
    def root(cls, scenario: scenarios.Scenario) -> "_Blocks":
        n, size = scenario.n_agents, scenario.constraint.count_worlds(scenario.n_agents)
        live = _capped(zip(scenario.constraint.profiles(n)), size, (tuple(range(n)),))
        if scenario.actual is not None and (tuple(sorted(scenario.actual)),) not in live:
            raise EngineError(_NOT_A_MEMBER)
        return cls((tuple(range(n)),), live, size)

    def __len__(self) -> int:
        return self.size

    def narrowed(self, speakers, vis: VisibilityGraph, actual: Optional[World]):
        """[(the actual world's answers, the worlds giving the same answers)], held once they fit.

        A step in which every seat speaks and sees every other is _heard's,
        and its parts are never held.  In any other, each speaker s splits
        every block into s, the seats s sees and the rest, and each profile
        is dealt into the finer blocks in every distinct way.  s then knows
        its value where the profiles that agree on its seen blocks hold one
        value at s (own_table keyed by them).
        """
        if len(speakers) == len(vis.full_sight) == vis.n_agents:
            return self._heard(actual)
        blocks = self.blocks
        for s in speakers:
            blocks = tuple([part for b in blocks for part in ((s,) if s in b else (), tuple(
                [i for i in b if i in vis.sees[s]]), tuple([i for i in b if i != s and i not in vis.sees[s]])) if part])
        deals = _deals(self.blocks, blocks)  # counted before any is dealt, then dealt off the same lists
        count = lambda: sum([math.prod(map(len, deals(prof))) for prof in self.live])
        live = _capped(_dealt(self.live, self.blocks, blocks, deals), self.size, blocks, count)
        mine = tuple([tuple(sorted(map(actual.__getitem__, b))) for b in blocks])
        announced, keep = [], itertools.repeat(True)
        for s in speakers:
            key = _key_fn(tuple([k for k, b in enumerate(blocks) if b[0] in vis.sees[s]]))
            keys = list(map(key, live))
            table = own_table(keys, live, blocks.index((s,)))
            announced.append(table[key(mine)] != MIXED)
            keep = list(map(and_, keep, [(table[k] != MIXED) == announced[-1] for k in keys]))
        live = list(itertools.compress(live, keep))
        size = _worlds(blocks, live)
        if size > STREAM_THRESHOLD:
            return [(tuple(announced), _Blocks(blocks, live, size))]
        placed = itemgetter(*sorted(range(len(actual)), key=[i for b in blocks for i in b].__getitem__))
        singles = _dealt(live, blocks, tuple([(i,) for b in blocks for i in b]))  # one value per seat
        return [(tuple(announced), KnowledgeState(tuple(sorted([placed(sum(prof, ())) for prof in singles]))))]

    def _heard(self, actual: Optional[World]):
        """narrowed's parts when every seat speaks and sees every other: the actual world's, or all in a sweep.

        A seat holding v in block b knows v exactly when no other profile
        differs from its own only in one copy of v in b.  With the V distinct
        values numbered densely, the i-th weighs (n+1)^(k*V + i) in the block
        at position k.  No block holds n+1 copies of a value, so a profile's
        code, the sum of its weights, tells it apart, and its key for v in b,
        the code less v's weight there, is another profile's exactly when
        the two differ in that one copy: so v's holders in b know v when no
        other profile has that key.  A world then gives another's answers
        exactly when each block holds as many YES values, and each block
        splits into its YES and NO seats and each kept profile into its YES
        and NO values, one way.  A run keeps the actual world's YES count per
        block.  A sweep keeps one part per count vector, with the YES seats
        first in each block, standing for every other seating of its counts.
        """
        blocks, live = self.blocks, self.live
        seats = sum(blocks, ())
        n = len(seats)
        weights = self.weights
        if weights is None:
            values = sorted({v for prof in live for v in itertools.chain.from_iterable(prof)})
            weights = [{v: (n + 1) ** (k * len(values) + i) for i, v in enumerate(values)} for k in range(n)]
        at = [weights[k] for k, b in enumerate(blocks) for _ in b]  # each place of a profile's values: its weights
        tally = [(n + 1) ** k for k, b in enumerate(blocks) for _ in b]  # a YES in block k counts (n+1)^k

        def keyed(values):  # the key of each of a profile's values, in block order
            ws = list(map(dict.__getitem__, at, values))
            return list(map(sum(ws).__sub__, ws))

        keys = self.keys or [keyed(itertools.chain.from_iterable(prof)) for prof in live]
        counts = Counter(itertools.chain.from_iterable(map(set, keys)))  # key -> the profiles that have it
        told = lambda ks: list(map(eq, map(counts.__getitem__, ks), itertools.repeat(1)))  # each value's holders know
        parts: dict[int, list] = {}  # summed tally -> [(profile, whether each value's holders know it, its keys)]
        for prof, ks in zip(live, keys):
            said = told(ks)
            parts.setdefault(sum(itertools.compress(tally, said)), []).append((prof, said, ks))
        if actual is not None:
            mine = told(keyed(map(actual.__getitem__, seats)))  # whether each seat knows, in block order
            counted = sum(itertools.compress(tally, mine))
            parts = {counted: parts[counted]}
        starts = list(itertools.accumulate(map(len, blocks), initial=0))
        # tuples laid end to end as the blocks are, each cut into the elements flagged and the rest
        cut = lambda groups, flags: tuple([part for g, lo in zip(groups, starts) for part in (
            tuple(itertools.compress(g, flags[lo:])), tuple(itertools.compress(g, map(not_, flags[lo:])))) if part])
        out = []
        for counted, kept in parts.items():
            flags = mine if actual is not None else [
                j < counted // (n + 1) ** k % (n + 1) for k, b in enumerate(blocks) for j in range(len(b))]
            split = cut(blocks, flags)
            if len(split) == len(blocks):  # no block split: every profile, and so its keys, stays as it is
                live, keys = [prof for prof, *_ in kept], [ks for *_, ks in kept]
            else:
                live, keys = [cut(prof, said) for prof, said, _ in kept], None
            yes = set(itertools.compress(seats, flags))
            out.append((tuple([s in yes for s in range(n)]), _Blocks(split, live, _worlds(split, live), weights, keys)))
        return out

    def candidates(self) -> list[set[int]]:
        """Each seat's values: those of its block in the surviving profiles."""
        held = [{v for prof in self.live for v in prof[k]} for k in range(len(self.blocks))]
        block_of = {seat: k for k, b in enumerate(self.blocks) for seat in b}
        return [held[block_of[seat]] for seat in sorted(block_of)]


def _worlds(blocks: tuple, live: list) -> int:
    """The worlds that the profiles `live` over `blocks` stand for."""
    seats, repeats = math.prod(map(math.factorial, map(len, blocks))), _Repeats()  # a memo for this call alone
    return sum([seats // math.prod(map(repeats.__getitem__, prof)) for prof in live])


class _Repeats(dict):
    """_repeats of each sequence looked up, computed on its first lookup."""

    def __missing__(self, values):
        self[values] = out = _repeats(values)
        return out


def _capped(profiles: Iterable, size: int, blocks: tuple, count=None) -> list:
    """The profiles of `size` worlds over `blocks`, refused with EngineError past scenarios.MATERIALIZE_LIMIT:
    before any is made when `size` over the most worlds a profile stands for, prod_b |b|!, is past it, or
    else `count()`, their exact number; with no `count`, once one past it is made."""
    limit = scenarios.MATERIALIZE_LIMIT
    least = size // math.prod(map(math.factorial, map(len, blocks)))
    if least <= limit and count is not None:
        least = count()
    held = [] if least > limit else list(itertools.islice(profiles, limit + 1))
    if least > limit or len(held) > limit:
        raise EngineError(f"{size} worlds need at least {max(least, len(held))} block profiles over "
                          f"{len(blocks)} block{'s' * (len(blocks) > 1)}, more than the limit of {limit}")
    return held


def _dealt(live: list, blocks: tuple, parts: tuple, deals=None):
    """Each profile over `blocks` dealt into the finer blocks `parts` in every distinct way, lazily, off `deals`."""
    deals = deals or _deals(blocks, parts)
    for prof in live:
        yield from map(tuple, map(itertools.chain.from_iterable, itertools.product(*deals(prof))))


def _deals(blocks: tuple, parts: tuple):
    """A profile over `blocks` -> per block, the distinct deals of its values into the sorted finer
    blocks `parts` that cut it, each list made once per distinct (values, sizes)."""
    sizes = [tuple([len(p) for p in parts if p[0] in b]) for b in blocks]

    @functools.cache
    def deals(values, sizes):
        if len(sizes) == 1:
            return [(values,)]
        # combinations picks positions in lex order: the i-th pick leaves the i-th from last of the rest's size
        rests = reversed(list(itertools.combinations(values, len(values) - sizes[0])))
        return [(head,) + tail for head, rest in dict(zip(itertools.combinations(values, sizes[0]), rests)).items()
                for tail in deals(rest, sizes[1:])]

    return lambda prof: list(map(deals, prof, sizes))


def _repeats(prof) -> int:
    """The product of the factorials of the multiplicities of a sorted sequence's values."""
    out = streak = 1
    for a, b in zip(prof, prof[1:]):
        streak = streak + 1 if a == b else 1
        out *= streak
    return out


def _play(
    scenario: scenarios.Scenario, root, group: SeatGroup, actual: Optional[World] = None
) -> list[tuple[_Branch, Optional[int]]]:
    """Refine `root` round by round; (branch, round it stabilized or None) per leaf.

    A round is a list of steps: all agents at once (simultaneous) or one agent
    per step in `order` (circular).  Each step splits every branch by the
    speakers' truthful answers, and each kept part becomes a child branch
    that records the step; with an actual world only the part holding it is
    built (see _children).
    A branch stops when every answer of a round was YES, or when the round
    left its size and its number of learners unchanged (a certified fixpoint).

    `group` is a SeatGroup of the sight graph; `root`, a universe, is closed
    under every seat permutation (see scenarios), so under the group too, and
    its branch stands for itself alone.  A branch whose images are [0] is
    split through the whole group (see worlds.partition), any other without
    a group.  A sweep keeps one branch per orbit of cells, and its images
    move it onto the cells it stands for (see sweep).
    """
    protocol = scenario.protocol
    n = scenario.n_agents
    simultaneous = isinstance(protocol, scenarios.Simultaneous)
    steps = [tuple(range(n))] if simultaneous else [(agent,) for agent in protocol.order]
    live = [_Branch(root, (), {}, [0])]
    leaves = []
    for rnd in range(1, protocol.max_rounds + 1):
        if not live:
            break
        plays = [(speakers, rnd if simultaneous else (rnd - 1) * n + pos + 1) for pos, speakers in enumerate(steps)]
        next_live = []
        for start in live:
            branches = [start]
            for speakers, turn in plays:
                branches = [
                    child for branch in branches
                    for child in _children(branch, speakers, rnd, turn, group, actual)
                ]
            for branch in branches:
                if all([all(answers) for *_, answers, _ in branch.steps[len(start.steps):]]) or (
                    len(branch.state) == len(start.state)
                    and len(branch.first_yes) == len(start.first_yes)
                ):
                    leaves.append((branch, rnd))
                else:
                    next_live.append(branch)
        live = next_live
    return leaves + [(branch, None) for branch in live]


@functools.cache
def _template(rnd: int, turn: int, speakers: tuple) -> bytes:
    """A step's transcript_digest text, with %s for each speaker's answer and size."""
    text = ";".join([f"{rnd},{turn},{agent},%s" for agent in speakers])
    return (text if turn == 1 else ";" + text).encode("ascii")


def _children(branch: _Branch, speakers, rnd: int, turn: int, group: SeatGroup, actual):
    """One child per part that the branch keeps after `speakers` answer truthfully.

    worlds.partition builds only the parts kept of a held state, each with
    the codes its state handed on, so a state is encoded once for all the
    states below it: with an actual world the part holding it, and without
    one every part, or one part per class under the group.  A state that is
    not held (a _Blocks) narrows itself to its parts.  Every element of the
    group maps a branch with images [0] onto itself, so that branch is split
    through the whole group, and each part stands for its cosets: its images
    are the first element giving each distinct moved answer vector
    (SeatGroup.images).  Any other branch is split without a group, and its
    parts keep its images as they are: the branch it came from stood for
    itself alone, so they are distinct cosets of the whole group.  Runs and
    sweeps take the same rule.

    A step whose speakers have all said YES in the branch is not split: each
    of them said it in every world of the branch, and a seat that knows its
    value still knows it in every subset of the state, so the one child is
    all YES and holds the branch's own state.  A child shares its parent's
    first_yes unless one of its speakers says YES for the first time; no
    first_yes is changed once made.
    """
    whole = len(branch.images) == 1 and len(group.perms) > 1  # split through the whole group
    first_yes = branch.first_yes
    if all([agent in first_yes for agent in speakers]):
        parts = [((YES,) * len(speakers), branch.state, None)]
    elif not isinstance(branch.state, KnowledgeState):
        parts = [(answers, state, group.images(answers) if whole else None)
                 for answers, state in branch.state.narrowed(speakers, group.vis, actual)]
    else:
        parts = partition(branch.state, speakers, group.vis, group if whole else None, actual)
    for answers, state, images in parts:
        learned = [agent for agent, answer in zip(speakers, answers) if answer and agent not in first_yes]
        yield _Branch(state, branch.steps + ((rnd, turn, speakers, answers, len(state)),),
                      {**first_yes, **dict.fromkeys(learned, Eventual.learns(rnd, turn))} if learned else first_yes,
                      branch.images if images is None else images)


_NEVER, _UNKNOWN = Eventual.never(), Eventual.unknown()


def _classify(n: int, first_yes: dict[int, Eventual], stabilized: Optional[int]) -> tuple[Eventual, ...]:
    rest = _NEVER if stabilized is not None else _UNKNOWN
    return tuple([first_yes.get(i, rest) for i in range(n)])


# ---------------------------------------------------------------------------
# single runs


def run(scenario: scenarios.Scenario) -> Transcript:
    """Play the scenario's protocol to completion and return the transcript.

    The root is the one run_path names.  A simultaneous game in which every
    seat sees every other is played over block profiles from one block on
    (see _Blocks._heard), under the identity, and never builds its universe.
    Any other game is played over worlds held up to STREAM_THRESHOLD, and
    over block profiles above it until they fit, and quotiented like a sweep
    by _sweep_group.
    """
    scenario.validate()
    actual = scenario.actual
    if actual is None:
        raise EngineError("scenario has a free actual world; use sweep instead")
    vis = scenario.visibility()
    simultaneous = isinstance(scenario.protocol, scenarios.Simultaneous)
    path = run_path(scenario, vis)
    root = scenario.universe() if path == "materialized" else _Blocks.root(scenario)
    # a universe is closed under seat permutations (see scenarios), so it holds the
    # actual world exactly when it holds its sorted profile; _Blocks.root checks its own
    if path == "materialized" and tuple(sorted(actual)) not in root:
        raise EngineError(_NOT_A_MEMBER)
    group = SeatGroup(vis) if path == "profiles" else _sweep_group(vis, simultaneous)
    ((branch, stabilized),) = _play(scenario, root, group, actual)
    state = branch.state
    seen = map(set, zip(*state)) if isinstance(state, KnowledgeState) else state.candidates()
    return Transcript(
        scenario=scenario.name,
        agents=scenario.agents,
        protocol="simultaneous" if simultaneous else "circular",
        initial_size=len(root),
        events=tuple([
            Event(rnd, turn, agent, answer, size)
            for rnd, turn, speakers, answers, size in branch.steps
            for agent, answer in zip(speakers, answers)
        ]),
        eventual=_classify(scenario.n_agents, branch.first_yes, stabilized),
        stabilized_at=stabilized,
        final_candidates=tuple(tuple(sorted(values)) for values in seen),
    )


def run_path(scenario: scenarios.Scenario, vis: VisibilityGraph) -> str:
    """How run plays the scenario over its sight graph `vis`: "profiles", "materialized" or "blocks".

    "profiles" when the protocol is simultaneous and every seat sees every
    other, whatever the sight model that drew the graph: block profiles
    under the identity, however many worlds; otherwise "blocks" above
    STREAM_THRESHOLD worlds and "materialized" up to it.
    """
    if isinstance(scenario.protocol, scenarios.Simultaneous) and len(vis.full_sight) == vis.n_agents:
        return "profiles"
    return "blocks" if scenario.constraint.count_worlds(scenario.n_agents) > STREAM_THRESHOLD else "materialized"


_NOT_A_MEMBER = "actual world is not a member of the generated universe"


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


def sweep(scenario: scenarios.Scenario, orbit: Optional[str] = None) -> SweepReport:
    """Run every world of the family as the actual world.

    Worlds that hear the same announcements share their whole continuation, so
    the family is processed by partition refinement (Paige & Tarjan 1987): the
    round driver keeps every part of every split, or one per class under the
    seat group, and each leaf is exactly the final state of the worlds inside
    it.  This is semantically identical to
    calling run() per world.

    A simultaneous game in which every seat sees every other (run_path's
    "profiles") is refined over block profiles, one leaf per multiset of
    the seats' answer histories, and each world's row is read off its
    profile's leaf (README gives its timings against the world root).

    Any other simultaneous game is quotiented by the seat permutations that
    map its sight graph onto itself (Emerson & Sistla 1996; Ip & Dill 1996):
    the group generated by rotation by one seat and by reversal, when they
    qualify (see _sweep_group).  The universe is closed under every seat
    permutation (see scenarios), so the sight graph alone decides.  Circle
    sight keeps the dihedral group, line sight keeps reversal, and circular
    turns and blind agents keep the identity alone.  One cell per orbit is
    refined.  The rows of the other cells are the representative's worlds
    and eventual tuple moved by a permutation.  A cell that every
    permutation of the group leaves as it is (the universe always) is split
    with tables for one seat per orbit of the group on the seats, answering
    once per orbit of its worlds, into one part per class of answer vectors
    (see worlds.partition); any other cell is split without a group.

    Rows are made at the leaves, one digest per distinct transcript: each
    row is its leaf's transcript read through a seat map (see _rows).

    A family of more than STREAM_THRESHOLD worlds, or of none, is refused
    with EngineError.

    orbit: None for per-world rows, "rotation" to merge rotation classes
    (representative is the lexicographically least rotation).
    """
    if orbit not in (None, "rotation"):
        raise EngineError(f"unknown orbit {orbit!r}; use None or 'rotation'")
    scenario.validate()
    n = scenario.n_agents
    size = scenario.constraint.count_worlds(n)
    if size > STREAM_THRESHOLD:
        raise EngineError(f"family has {size} worlds, more than the {STREAM_THRESHOLD} a sweep may hold")
    if size == 0:
        raise EngineError("no world satisfies the announcement; there is nothing to sweep")
    rows = _rows(scenario, scenario.universe(), scenario.visibility())

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
            merged.append(SweepRow(rep, base.eventual, base.learners, base.digest, len(members)))
        rows = merged

    return SweepReport(scenario.name, scenario.agents, tuple(rows))


@functools.cache
def _learners(learns: tuple) -> frozenset[int]:
    """The seats whose entry in `learns` is true."""
    return frozenset(itertools.compress(range(len(learns)), learns))


def _rows(scenario: scenarios.Scenario, universe: KnowledgeState, vis: VisibilityGraph) -> list[SweepRow]:
    """The sweep rows of the worlds of `universe`, in its order, from _play's leaves.

    A row is its leaf's transcript read through a seat map m: seat i gives
    the answers of the leaf's seat m[i].  A world leaf stands for its
    images e, with m = group.perms[e], and their rows are the leaf's worlds
    moved by group.acts[e], one digest per image.  A block leaf (run_path's
    "profiles", refined under the identity) holds its profiles' worlds.
    All copies of a value lie in one block of the leaf, whose seats said
    the same in every step, so a world's m maps each seat to the first
    seat of the block holding its value.  Its eventual tuple, learners and
    digest are made once per distinct m within the leaf: the same map in
    another leaf reads another transcript.

    Each step whose answers are all equal is formatted once into its leaf's
    text (see _baked); a map's digest text is one `%` call of that text
    over the other steps' words read through m.
    """
    n = scenario.n_agents
    on_blocks = run_path(scenario, vis) == "profiles"
    if on_blocks:
        root, group = _Blocks.root(scenario), SeatGroup(vis)
    else:
        root, group = universe, _sweep_group(vis, isinstance(scenario.protocol, scenarios.Simultaneous))
    # (seat map m, step count k) -> the itemgetter that reads k steps' words, laid end to end, through m
    getter = functools.cache(lambda m, k: itemgetter(*[j * n + i for j in range(k) for i in m]))
    sha256, new, repeat = hashlib.sha256, tuple.__new__, itertools.repeat
    rows, where = [], {}  # where: each block leaf's profile -> (value -> its seat in m, the leaf)
    for branch, stabilized in _play(scenario, root, group):
        eventual = _classify(n, branch.first_yes, stabilized)
        learns = tuple([agent in branch.first_yes for agent in range(n)])
        text, words = _baked(branch.steps)
        k = len(words) // n  # the unbaked steps: every seat speaks in each
        state, images = branch.state, branch.images
        if on_blocks:
            leaf = ({}, text, words, k, eventual, learns)  # its own rows' last four fields per map
            for prof in state.live:
                seat_of = {v: b[0] for b, values in zip(state.blocks, prof) for v in values}
                where[tuple(sorted(itertools.chain.from_iterable(prof)))] = (seat_of, leaf)
        elif images == [0]:  # the leaf stands for itself alone, through the identity
            digest = sha256(text % tuple(words) if k else text).hexdigest()
            rows += map(new, repeat(SweepRow), zip(state, repeat(eventual), repeat(_learners(learns)),
                                                    repeat(digest), repeat(1)))
        else:
            acts = [group.acts[e] for e in images]
            texts = [text % getter(group.perms[e], k)(words) for e in images] if k else [text] * len(images)
            found = zip(acts, [act(eventual) for act in acts], [_learners(act(learns)) for act in acts],
                        [sha256(t).hexdigest() for t in texts])
            # tuple.__new__ makes each row without SweepRow's Python-level __new__; the last field is orbit_size
            rows += map(new, repeat(SweepRow), [(act(w), moved, learners, digest, 1)
                                                for act, moved, learners, digest in found for w in state])
    if not on_blocks:
        rows.sort(key=itemgetter(0))  # by world
        return rows
    for w in universe:
        seat_of, (made, text, words, k, eventual, learns) = where[tuple(sorted(w))]
        m = tuple(map(seat_of.__getitem__, w))
        found = made.get(m)
        if found is None:
            pick = itemgetter(*m)
            if k:  # one step's words are read as the eventual tuple is
                text %= (pick if k == 1 else getter(m, k))(words)
            found = made[m] = (pick(eventual), _learners(pick(learns)), sha256(text).hexdigest(), 1)
        rows.append(new(SweepRow, (w, *found)))
    return rows


def _baked(steps) -> tuple[bytes, list]:
    """(a leaf's transcript_digest text, the words of its unbaked steps laid end to end).

    Each step whose answers are all equal (every circular step too) is
    formatted into the text.  Every other step keeps a %s per speaker, and
    its speakers' words ("YES,size" or "NO,size") go into the list.
    """
    parts, words = [], []
    for rnd, turn, speakers, answers, size in steps:
        template = _template(rnd, turn, speakers)
        if answers.count(answers[0]) == len(answers):
            parts.append(template % ((b"YES,%d" % size if answers[0] else b"NO,%d" % size,) * len(answers)))
        else:
            parts.append(template)
            words += [b"YES,%d" % size if answer else b"NO,%d" % size for answer in answers]
    return b"".join(parts), words


def _min_rotation(w: World) -> World:
    return min(w[k:] + w[:k] for k in range(len(w)))


# ---------------------------------------------------------------------------
# cap stability


def stability_check(scenario: scenarios.Scenario, growth: int) -> bool:
    """True iff the scenario, run as given, runs the same with its constraint's cap
    raised by `growth`.  Transcripts are compared on announcements and eventual
    classifications; state sizes are cap dependent bookkeeping and excluded.
    """
    if not scenarios.needs_cap(scenario.constraint):
        raise EngineError("scenario family does not take a cap")
    cap = scenario.constraint.cap
    if growth < 1:
        raise EngineError(f"larger cap {cap + growth} must exceed cap {cap}")
    a = run(scenario)
    b = run(replace(scenario, constraint=replace(scenario.constraint, cap=cap + growth)))
    key = lambda t: [(e.round, e.turn, e.agent, e.answer) for e in t.events]
    return key(a) == key(b) and a.eventual == b.eventual


# ---------------------------------------------------------------------------
# value-profile evaluator for exchangeable games
#
# With full sight and simultaneous announcements, an agent's answer depends
# only on its own value and the multiset of all values: permuting agents
# permutes transcripts.  The whole family can therefore be evaluated over
# sorted value profiles instead of world tuples, which turns millions of
# worlds into a few hundred profiles: the counter abstraction of fully
# symmetric systems (Emerson & Sistla 1996; Pnueli, Xu & Zuck 2002).  run
# and sweep play full-sight simultaneous games over block profiles instead
# (see _Blocks._heard), and no engine path calls this evaluator, so it is an
# independent check of them: the tests hold its table against every such run
# and sweep they play, and against a slow reference of its own.


def profile_universe(constraint, n: int) -> frozenset[tuple[int, ...]]:
    """Sorted value profiles of the constraint's worlds, enumerated as multisets (see scenarios)."""
    return frozenset(constraint.profiles(n))


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

    With the distinct values numbered densely, value i weighs (n+1)^i; no
    multiplicity reaches n+1, so a profile's code, the sum of its weights,
    tells multisets apart, and the holder of v observes code - weight(v).  A
    profile's YES signature sums r * (max_rounds+1)^i over its values i whose
    holders said YES in round r.  A candidate's own value has no YES yet and
    every other value of its profile is seen, so two candidates agree on every
    seen value exactly when their signatures are equal, and classes key on them.

    Round 1 has no history, so a holder says YES exactly when its group has
    one member.  Histories that differ once stay different, so classes only
    split, and later rounds re-key only the groups holding a profile that got
    a YES in the round before; a round with no new YES changes no history,
    so the refinement stops there.
    """
    values = sorted({v for prof in profiles for v in prof})
    base = max(map(len, profiles), default=0) + 1
    weight = {v: base**i for i, v in enumerate(values)}
    value_of = {w: v for v, w in weight.items()}
    mark = {v: (max_rounds + 1) ** i for i, v in enumerate(values)}
    table = {}
    row_of = {}  # profile code -> row
    groups: dict[int, list[int]] = {}  # observation code -> profile codes
    for prof in profiles:
        code = sum(map(weight.__getitem__, prof))
        row = table[prof] = row_of[code] = dict.fromkeys(prof)
        for v in row:
            groups.setdefault(code - weight[v], []).append(code)
    yes = [(obs, members[0]) for obs, members in groups.items() if len(members) == 1]
    said: dict[int, int] = {}  # profile code -> YES signature
    for rnd in range(1, max_rounds + 1):
        if rnd > 1:
            touched = {code - weight[u] for _, code in yes for u in row_of[code]}
            yes = []
            for obs in touched:
                classes: dict[int, list[int]] = {}
                for code in groups[obs]:
                    if row_of[code][value_of[code - obs]] is None:
                        classes.setdefault(said.get(code, 0), []).append(code)
                yes += [(obs, members[0]) for members in classes.values() if len(members) == 1]
        if not yes:
            break
        for obs, code in yes:
            v = value_of[code - obs]
            row_of[code][v] = rnd
            said[code] = said.get(code, 0) + rnd * mark[v]
    return table


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
