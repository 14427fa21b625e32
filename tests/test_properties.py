"""Invariant properties over randomized small scenarios."""

import dataclasses
import itertools
import math
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ckgames import dsl, engine, worlds
from ckgames.engine import profile_universe, run, run_profiles, sweep, transcript_digest
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
from ckgames.worlds import (
    KnowledgeState,
    SeatGroup,
    VisibilityGraph,
    answer_vector,
    answers_for_all,
    filter_simultaneous,
    filter_turn,
    knows_own,
    partition,
    split,
)
from helpers import assert_one_part_per_class, replay


@st.composite
def world_states(draw):
    """A random universe over a small alphabet, an actual world, and visibility."""
    n = draw(st.integers(2, 5))
    alphabet = draw(st.integers(2, 3))
    worlds = draw(
        st.sets(
            st.tuples(*[st.integers(0, alphabet - 1)] * n),
            min_size=1, max_size=24,
        )
    )
    worlds = sorted(worlds)
    actual = draw(st.sampled_from(worlds))
    sees = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        sees.append(frozenset(draw(st.sets(st.sampled_from(others), max_size=n - 1))
                              if len(others) else frozenset()))
    vis = VisibilityGraph(tuple(sees))
    return KnowledgeState.from_worlds(worlds), actual, vis


@given(world_states())
def test_retention_and_monotone_shrink(case):
    state, actual, vis = case
    announced = answer_vector(state, actual, vis)
    filtered = filter_simultaneous(state, announced, vis)
    assert actual in filtered
    assert set(filtered) <= set(state)
    for agent in range(vis.n_agents):
        turn_filtered = filter_turn(state, agent, knows_own(agent, actual, state, vis), vis)
        assert actual in turn_filtered
        assert set(turn_filtered) <= set(state)


@given(world_states())
def test_yes_permanence(case):
    state, actual, vis = case
    yes_before = {i for i in range(vis.n_agents) if knows_own(i, actual, state, vis)}
    announced = answer_vector(state, actual, vis)
    smaller = filter_simultaneous(state, announced, vis)
    for i in yes_before:
        assert knows_own(i, actual, smaller, vis)


# the largest and the smallest value of each field width encode packs
FIELD_EDGES = [0, 1, 2, 3, 4, 15, 16, 31, 32, 255, 256, 65_535, 65_536, 2**32 - 1, 2**32, 2**64 - 1]


@st.composite
def wide_states(draw):
    """(a state of up to 60 worlds, its sight) whose values may need wide fields.

    The values are drawn from around each field width: 2, 4, 16 and 32 (1,
    2, 4 and 5 bits), one byte (256), two bytes (65,536), four bytes and
    eight bytes (2**64, which no field holds), so that the packed codes take
    every field width, and a part may hold only values narrower than its
    state's.  Each seat sees every other seat or a drawn set.
    """
    n = draw(st.integers(2, 5))
    alphabet = sorted(draw(st.sets(st.sampled_from(FIELD_EDGES + [2**64]), min_size=2, max_size=3)))
    found = draw(st.sets(st.tuples(*[st.sampled_from(alphabet)] * n), min_size=1, max_size=60))
    sees = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        sees.append(frozenset(others) if draw(st.booleans()) else draw(st.sets(st.sampled_from(others))))
    return KnowledgeState.from_worlds(found), VisibilityGraph(tuple(sees))


@st.composite
def edge_worlds(draw):
    """Up to 30 distinct worlds of 1-6 seats over the field edges up to a drawn one, so every width is met."""
    n = draw(st.integers(1, 6))
    top = draw(st.sampled_from(FIELD_EDGES))
    values = st.sampled_from([v for v in FIELD_EDGES if v <= top])
    return draw(st.lists(st.tuples(*[values] * n), min_size=1, max_size=30, unique=True))


@given(edge_worlds())
def test_codes_agree_under_a_mask_exactly_when_the_worlds_agree_off_its_seat(found):
    # a seat who sees every other seat tells two worlds apart exactly when they differ off its own seat
    masks, codes = worlds.encode(found)
    assert len(masks) == len(found[0]) and len(codes) == len(found)
    # each field is as narrow as the largest value allows
    top = max(map(max, found))
    width = next(bits for bits in (1, 2, 4, 5, 8, 16, 32, 64) if top < 1 << bits)
    assert max(masks + tuple(codes)) < 1 << width * len(masks)
    for i, mask in enumerate(masks):
        for (a, x), (b, y) in itertools.combinations(zip(found, codes), 2):
            assert (x & mask == y & mask) == (a[:i] + a[i + 1:] == b[:i] + b[i + 1:])
    assert len(set(codes)) == len(codes)


@given(st.lists(st.sampled_from(FIELD_EDGES), min_size=1, max_size=5), st.data())
def test_codes_refuse_a_negative_value_or_one_past_64_bits(world, data):
    # the spoiled world may come first or last, and the other world's values may fit any width
    bad = data.draw(st.sampled_from([-1, -2, -256, 2**64, 2**64 + 1, 2**100]))
    seat = data.draw(st.integers(0, len(world) - 1))
    found = [tuple(world), tuple(world[:seat] + [bad] + world[seat + 1:])]
    assert worlds.encode(found[::data.draw(st.sampled_from([1, -1]))]) is None


def reference_split(state, speakers, vis):
    expected = {}
    for w in state:
        expected.setdefault(tuple(knows_own(a, w, state, vis) for a in speakers), []).append(w)
    return expected


@given(st.one_of(world_states().map(lambda case: (case[0], case[2])), wide_states()), st.data())
def test_split_matches_reference(case, data):
    state, vis = case
    draw_speakers = st.lists(st.sampled_from(range(vis.n_agents)), min_size=1, unique=True)
    speakers = data.draw(draw_speakers)
    expected = reference_split(state, speakers, vis)
    assert split(state, speakers, vis) == expected  # these states are too small for codes
    with mock.patch.object(worlds, "CODED_FROM", 2):  # codes wherever a speaker sees every other seat
        assert split(state, speakers, vis) == expected
        # each part holds the codes handed on to it, and splits again as the reference does
        for answers, part, _ in partition(state, speakers, vis):
            again = data.draw(draw_speakers)
            assert split(part, again, vis) == reference_split(part, again, vis)


@st.composite
def symmetric_states(draw):
    """(a state closed under a group of symmetries of its sight, in random order, its sight, the group).

    Circle and full sight draw a subgroup of the dihedral group: the rotations
    by a multiple of a step dividing n, and with them, maybe, the reflection
    i -> k - i.  Line sight draws the reversal.  Some worlds repeat a shorter
    block or read the same backwards, so their orbits are smaller than the group.
    """
    n = draw(st.integers(2, 9))
    sight = draw(st.sampled_from([Full(), NearCircle(), FarCircle(), NearLine()] if n > 2 else [Full(), NearLine()]))
    if isinstance(sight, NearLine):
        generators = [tuple(range(n - 1, -1, -1))]
    else:
        step = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        generators = [tuple((i - step) % n for i in range(n))]
        if draw(st.booleans()):
            k = draw(st.integers(0, n - 1))
            generators.append(tuple((k - i) % n for i in range(n)))
    vis = gen_visibility(sight, n)
    group = SeatGroup(vis, generators)
    values = st.integers(0, draw(st.integers(1, 2)))
    seeds = draw(st.lists(st.tuples(*[values] * n), min_size=1, max_size=8))
    for period in draw(st.lists(st.sampled_from([d for d in range(1, n) if n % d == 0]), max_size=3)):
        seeds.append(tuple(draw(st.tuples(*[values] * period))) * (n // period))
    for half in draw(st.lists(st.tuples(*[values] * ((n + 1) // 2)), max_size=2)):
        seeds.append(half + half[: n // 2][::-1])
    closed = {act(w) for w in seeds for act in group.acts}
    return KnowledgeState(tuple(draw(st.permutations(sorted(closed))))), vis, group


@settings(max_examples=200, deadline=None)
@given(symmetric_states(), st.data())
def test_orbit_split_matches_plain_split(case, data):
    # answering one world per orbit of the group must give, moved by each
    # part's images, the groups, and the order within each group, of
    # answering every world from its own keys; the identity alone gives them
    # all as they are
    state, vis, group = case
    n = vis.n_agents
    groups = split(state, range(n), vis)
    assert {answers: list(part) for answers, part, _ in partition(state, range(n), vis, SeatGroup(vis))} == groups
    assert_one_part_per_class(state, vis, group, partition(state, range(n), vis, group))
    for answers, worlds in groups.items():
        w = data.draw(st.sampled_from(worlds))
        assert answers == tuple(knows_own(i, w, state, vis) for i in range(n))


@given(st.one_of(
    world_states().map(lambda case: (case[0], case[2], None)),
    wide_states().map(lambda case: (*case, None)),
    symmetric_states(),
), st.data())
def test_a_runs_split_builds_only_the_actual_worlds_part(case, data):
    # with an actual world, partition returns one part: the plain split's part
    # holding it, with the codes of its worlds cut from the state's, or under
    # a group the same part with the first element giving each moved vector
    state, vis, group = case
    n = vis.n_agents
    speakers = range(n) if group else data.draw(st.lists(st.sampled_from(range(n)), min_size=1, unique=True))
    actual = data.draw(st.sampled_from(state.worlds))
    with mock.patch.object(worlds, "CODED_FROM", data.draw(st.sampled_from([2, worlds.CODED_FROM]))):
        [(answers, part, images)] = partition(state, speakers, vis, group, actual)
    assert actual in split(state, speakers, vis)[answers]
    assert list(part) == split(state, speakers, vis)[answers]
    if state.codes:  # encoded by this split, or by the one before
        assert part.codes == (state.codes[0], [state.codes[1][state.worlds.index(w)] for w in part])
    if group is None or len(group.perms) == 1:
        assert images is None
    else:
        moved = [act(answers) for act in group.acts]
        assert images == [e for e, v in enumerate(moved) if moved.index(v) == e]


@pytest.mark.parametrize("sight,protocol,coded", [
    (Full(), Circular(tuple(range(9)), 3), True),
    (Blind(frozenset({0})), Simultaneous(10), True),
    (Blind(frozenset({0})), Circular(tuple(range(9)), 3), True),
    (FarCircle(), Simultaneous(10), False),
    (FarCircle(), Circular(tuple(range(9)), 3), False),
    (NearLine(), Circular(tuple(range(9)), 3), False),
], ids=["full-circular", "blind-simultaneous", "blind-circular", "far-simultaneous", "far-circular", "line-circular"])
def test_a_sweep_encodes_each_world_once_or_never(monkeypatch, sight, protocol, coded):
    # a sweep in which some seat sees every other encodes the universe (511
    # worlds, at least CODED_FROM) once and hands the codes on to every part
    # below it; one in which no seat does encodes nothing.  Answering every
    # seat off its keys gives the same rows
    family = Scenario("e", tuple(f"a{i}" for i in range(9)), HatsAtLeast(0, 1, 2), sight, protocol, None)
    assert len(family.universe()) >= worlds.CODED_FROM
    encoded = []
    real = worlds.encode
    monkeypatch.setattr(worlds, "encode", lambda found: encoded.append(len(found)) or real(found))
    rows = sweep(family).rows
    assert encoded == ([len(family.universe())] if coded else [])
    monkeypatch.setattr(worlds, "encode", lambda found: None)
    assert sweep(family).rows == rows


@st.composite
def sum_or_product_sizes(draw):
    """(announced, n) with at most 50,000 compositions, C(announced - 1, n - 1):
    announced runs to 60 on up to 4 agents and to 35 on 5."""
    n = draw(st.integers(2, 5))
    top = max(a for a in range(1, 61) if math.comb(a - 1, n - 1) <= 50_000)
    return draw(st.integers(1, top)), n


@settings(max_examples=25, deadline=None)
@given(sum_or_product_sizes())
@example((60, 4))
def test_sum_or_product_count_matches_enumeration(size):
    announced, n = size
    constraint = SumOrProduct(announced)
    assert constraint.count_worlds(n) == len(list(constraint.generate(n)))


CONSTRAINT_CLASSES = (HatsAtLeast, HatsExactly, MaxDiffExact, MaxDiffAtMost, ConsecutiveDistinct,
                      SumOrProduct, SumInSet, ZeroOne)


@st.composite
def small_constraints(draw, cls):
    """(a constraint of class `cls`, an agent count) small enough to enumerate."""
    if cls in (HatsAtLeast, HatsExactly):
        colors = draw(st.integers(1, 3))
        n = draw(st.integers(1, 7 if colors < 3 else 6))
        return cls(draw(st.integers(0, colors - 1)), draw(st.integers(0, n + 1)), colors), n
    if cls in (MaxDiffExact, MaxDiffAtMost):
        diff = draw(st.integers(0, 3))
        cap = draw(st.integers(diff, diff + 4))
        return cls(diff, cap), draw(st.integers(1, 4))
    if cls is ConsecutiveDistinct:
        n = draw(st.integers(1, 5))
        return ConsecutiveDistinct(draw(st.integers(n - 3, n + 2))), n
    if cls is SumOrProduct:
        return SumOrProduct(draw(st.integers(1, 30))), draw(st.integers(2, 4))
    if cls is SumInSet:
        return SumInSet(tuple(draw(st.sets(st.integers(1, 12), min_size=1, max_size=3)))), draw(st.integers(1, 4))
    return ZeroOne(), draw(st.integers(1, 8))


# each class gets its own run of examples, so a fault in one class cannot
# hide behind draws that happened to pick the others
@pytest.mark.parametrize("cls", CONSTRAINT_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generate_is_sorted_members_and_counted(cls, data):
    # count_worlds is closed-form and generate streams: both must describe one
    # strictly increasing list of members, or both refuse the agent count.
    # Membership is exchangeable: moving the values between seats keeps a
    # world in or out, so every universe is closed under every seat permutation
    constraint, n = data.draw(small_constraints(cls))
    try:
        worlds = list(constraint.generate(n))
    except GenerationError:
        with pytest.raises(GenerationError):
            constraint.count_worlds(n)
        return
    assert constraint.count_worlds(n) == len(worlds)
    assert all(a < b for a, b in zip(worlds, worlds[1:]))
    assert all(len(w) == n and constraint.contains(w) for w in worlds)
    # a drawn permutation, and a swap and a rotation, which generate them all
    seats = list(range(n))
    moves = [tuple(data.draw(st.permutations(seats))), tuple(seats[1::-1] + seats[2:]), tuple(seats[1:] + seats[:1])]
    # near misses: a few members with one seat's value changed in every way
    near = data.draw(st.lists(st.sampled_from(worlds), min_size=1, max_size=3)) if worlds else []
    values = range(max(map(max, worlds), default=0) + 2)
    others = [w[:i] + (v,) + w[i + 1:] for w in near for i in range(n) for v in values]
    for move in moves:
        assert {tuple(w[i] for i in move) for w in worlds} == set(worlds), move
        for w in worlds + others:
            assert constraint.contains(w) == constraint.contains(tuple(w[i] for i in move)), (w, move)


@pytest.mark.parametrize("cls", CONSTRAINT_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_profile_universe_is_the_sorted_generated_worlds(cls, data):
    # every class enumerates its multisets directly, never through generate;
    # each profile comes once and stands for as many worlds as its multinomial
    constraint, n = data.draw(small_constraints(cls))
    try:
        expected = {tuple(sorted(w)) for w in constraint.generate(n)}
    except GenerationError:
        with pytest.raises(GenerationError):
            profile_universe(constraint, n)
        return
    with mock.patch.object(cls, "generate", side_effect=AssertionError("profiles called generate")):
        profiles = list(constraint.profiles(n))
        assert profile_universe(constraint, n) == expected
    assert len(profiles) == len(expected) and set(profiles) == expected
    arrangements = [
        math.factorial(n) // math.prod(math.factorial(p.count(v)) for v in set(p)) for p in profiles
    ]
    assert sum(arrangements) == constraint.count_worlds(n)


@st.composite
def small_families(draw):
    """A family of any constraint class with n 3-5 and at most about 150 worlds,
    under any sight model and either protocol."""
    n = draw(st.integers(3, 5))
    kind = draw(st.sampled_from(["hats", "sum_in_set", "sum_or_product", "max_diff",
                                 "at_most", "consecutive", "zero_one"]))
    if kind == "hats":
        colors = draw(st.integers(2, 3 if n < 5 else 2))
        constraint = HatsAtLeast(draw(st.integers(0, colors - 1)), draw(st.integers(1, n)), colors)
    elif kind == "sum_in_set":
        constraint = SumInSet(tuple(draw(st.sets(st.integers(n, n + 4), min_size=1, max_size=2))))
    elif kind == "sum_or_product":
        constraint = SumOrProduct(draw(st.integers(n, n + 4)))
    elif kind in ("max_diff", "at_most"):
        diff = draw(st.integers(0, 2 if n < 5 else 1))
        constraint = (MaxDiffExact if kind == "max_diff" else MaxDiffAtMost)(diff, diff + draw(st.integers(0, 1)))
    elif kind == "consecutive":
        constraint = ConsecutiveDistinct(draw(st.integers(n - 1, n if n < 5 else n - 1)))
    else:
        constraint = ZeroOne()
    sight = draw(st.one_of(
        st.sampled_from([Full(), NearCircle(), FarCircle(), NearLine()]),
        st.builds(Blind, st.frozensets(st.integers(0, n - 1), min_size=1)),
    ))
    if draw(st.booleans()):
        protocol = Simultaneous(draw(st.integers(1, 6)))
    else:
        protocol = Circular(tuple(draw(st.permutations(range(n)))), draw(st.integers(1, 4)))
    return Scenario("fam", tuple(f"a{i}" for i in range(n)), constraint, sight, protocol, None)


@settings(max_examples=25, deadline=None)
@given(small_families(), st.data())
def test_run_streamed_run_and_sweep_agree(family, data):
    # every world three ways: a materialized run, a run that starts on block
    # profiles (a world budget below the universe size) and its sweep row.
    # A full-sight simultaneous family takes the profile path both times, so
    # its sweep rows are taken from the world root
    with mock.patch.object(engine, "run_path", lambda sc, vis: "materialized"):
        report = sweep(family)
    budget = data.draw(st.integers(0, len(report.rows) - 1))
    for row in report.rows:
        sc = dataclasses.replace(family, actual=row.world)
        direct = run(sc)
        with mock.patch.object(engine, "STREAM_THRESHOLD", budget):
            lazy = run(sc)
        assert lazy.initial_size == direct.initial_size
        assert lazy.events == direct.events
        assert lazy.eventual == direct.eventual == row.eventual
        assert lazy.stabilized_at == direct.stabilized_at
        assert lazy.final_candidates == direct.final_candidates
        assert transcript_digest(direct.events) == row.digest


@settings(max_examples=40, deadline=None)
@given(small_families().filter(lambda f: isinstance(f.protocol, Simultaneous)), st.data())
def test_quotiented_run_matches_reference_replay(family, data):
    # run() against a replay by knows_own and filter_simultaneous; full-sight
    # families take the profile path, which sets up no group
    worlds = list(gen_universe(family.constraint, family.n_agents))
    for actual in data.draw(st.lists(st.sampled_from(worlds), min_size=1, max_size=4, unique=True)):
        sc = dataclasses.replace(family, actual=actual)
        t = run(sc)
        assert (t.events, t.eventual, t.stabilized_at, t.final_candidates) == replay(sc), actual


@st.composite
def circulant_families(draw):
    """(a simultaneous hat family on 4-7 seats, a circulant sight graph of its seats).

    Seat i sees seat i + a mod n for each of a drawn set of offsets a, so
    every rotation maps the graph onto itself, and the reversal only when
    the offsets are closed under negation: offsets that are not give
    _sweep_group the rotations alone, which no sight model does.
    """
    n = draw(st.integers(4, 7))
    offsets = draw(st.sets(st.integers(1, n - 1)))
    vis = VisibilityGraph(tuple(frozenset((i + a) % n for a in offsets) for i in range(n)))
    constraint = draw(st.sampled_from([HatsExactly(0, draw(st.integers(1, n - 1)), 2), HatsAtLeast(0, 1, 2)]))
    family = Scenario("circ", tuple(f"a{i}" for i in range(n)), constraint, Full(),
                      Simultaneous(draw(st.integers(1, 8))), None)
    return family, vis


@settings(deadline=None)
@given(circulant_families(), st.data())
def test_circulant_sight_sweep_matches_identity_runs(case, data):
    # every sweep row against a materialized run of its world under the
    # identity group, and a few quotiented runs against the knows_own replay
    family, vis = case
    n = family.n_agents
    with mock.patch.object(Scenario, "visibility", lambda sc: vis):
        assert len(engine._sweep_group(vis, True).perms) in (n, 2 * n)
        rows = sweep(family).rows
        for actual in data.draw(st.lists(st.sampled_from([r.world for r in rows]), min_size=1, max_size=3)):
            sc = dataclasses.replace(family, actual=actual)
            t = run(sc)
            assert (t.events, t.eventual, t.stabilized_at, t.final_candidates) == replay(sc), actual
        with mock.patch.object(engine, "_sweep_group", lambda vis, simultaneous: SeatGroup(vis)), \
                mock.patch.object(engine, "run_path", lambda sc, vis: "materialized"):
            for row in rows:
                solo = run(dataclasses.replace(family, actual=row.world))
                assert (row.eventual, row.learners, row.digest) == \
                    (solo.eventual, solo.learners(), transcript_digest(solo.events)), row.world


@st.composite
def full_sight_families(draw):
    """A small_families() member made a simultaneous game in which every seat
    sees every other: full sight, or a near circle of three seats.  Drawn
    this way, not filtered, because few members qualify."""
    family = draw(small_families())
    sight = draw(st.sampled_from([Full(), NearCircle()])) if family.n_agents == 3 else Full()
    return dataclasses.replace(family, sight=sight, protocol=Simultaneous(draw(st.integers(1, 6))))


@settings(max_examples=30, deadline=None)
@given(full_sight_families())
def test_profile_path_matches_world_path(family):
    # every world of the family, played by run from each of its three roots: block
    # profiles under the identity, the held universe and block profiles under the
    # sweep group; each seat learns in the round run_profiles' table gives its value
    vis = family.visibility()
    table = run_profiles(profile_universe(family.constraint, family.n_agents), family.protocol.max_rounds)
    for actual in gen_universe(family.constraint, family.n_agents):
        sc = dataclasses.replace(family, actual=actual)
        assert engine.run_path(sc, vis) == "profiles"
        played = []
        for path in ("profiles", "materialized", "blocks"):
            with mock.patch.object(engine, "run_path", lambda sc, vis: path):
                played.append(run(sc))
        assert played[0] == played[1] == played[2], actual
        firsts = table[tuple(sorted(actual))]
        assert [e.round if e.kind == "learns" else None for e in played[0].eventual] == [firsts[v] for v in actual]


@settings(max_examples=30, deadline=None)
@given(full_sight_families(), st.sampled_from([None, "rotation"]))
def test_profile_sweep_matches_world_sweep(family, orbit):
    # a full-sight simultaneous sweep plays on block profiles; every row,
    # digest and orbit size included, must be the world root's
    assert engine.run_path(family, family.visibility()) == "profiles"
    with mock.patch.object(engine, "run_path", lambda sc, vis: "materialized"):
        expected = sweep(family, orbit=orbit)
    with mock.patch.object(engine, "_play", side_effect=engine._play) as played:
        assert sweep(family, orbit=orbit) == expected
    assert isinstance(played.call_args.args[1], engine._Blocks)


@st.composite
def hat_scenarios(draw):
    n = draw(st.integers(2, 5))
    colors = draw(st.integers(2, 3))
    color = draw(st.integers(0, colors - 1))
    count = draw(st.integers(1, n))
    constraint = HatsAtLeast(color, count, colors)
    universe = list(constraint.generate(n))
    if not universe:
        universe = [(color,) * n]
    actual = draw(st.sampled_from(universe))
    circular = draw(st.booleans())
    if circular:
        order = tuple(draw(st.permutations(range(n))))
        protocol = Circular(order, n * colors + 4)
    else:
        protocol = Simultaneous(n * colors + 4)
    return Scenario(
        "prop", tuple(f"a{i}" for i in range(n)), constraint, Full(), protocol, actual,
    )


@given(hat_scenarios())
def test_full_sight_symmetry(sc):
    # in the simultaneous game with full sight, agents wearing the same color
    # answer identically in every round
    simultaneous = Scenario(
        "prop", sc.agents, sc.constraint, Full(),
        Simultaneous(len(sc.agents) * 3 + 4), sc.actual)
    t = run(simultaneous)
    n = len(sc.agents)
    histories = {i: [e.answer for e in t.events if e.agent == i] for i in range(n)}
    for i in range(n):
        for j in range(n):
            if sc.actual[i] == sc.actual[j]:
                assert histories[i] == histories[j]
                assert t.eventual[i] == t.eventual[j]


@given(hat_scenarios())
def test_fixpoint_soundness(sc):
    t = run(sc)
    assert t.stabilized_at is not None
    if isinstance(sc.protocol, Simultaneous):
        longer = Simultaneous(sc.protocol.max_rounds + 2)
    else:
        longer = Circular(sc.protocol.order, sc.protocol.max_rounds + 2)
    t2 = run(Scenario("prop", sc.agents, sc.constraint, sc.sight, longer, sc.actual))
    assert t.events == t2.events and t.eventual == t2.eventual


@given(hat_scenarios(), st.permutations(range(3)))
def test_relabeling_equivalence(sc, mapping):
    colors = sc.constraint.n_colors
    perm = [mapping[i] % colors for i in range(colors)]
    if sorted(perm) != list(range(colors)):
        perm = list(range(colors))
    relabeled = Scenario(
        "prop", sc.agents,
        HatsAtLeast(perm[sc.constraint.color], sc.constraint.count, colors),
        sc.sight, sc.protocol, tuple(perm[v] for v in sc.actual),
    )
    a, b = run(sc), run(relabeled)
    assert [e.answer for e in a.events] == [e.answer for e in b.events]
    assert a.eventual == b.eventual


@given(hat_scenarios())
def test_round1_yes_carries_to_circular(sc):
    simultaneous = Scenario(
        "prop", sc.agents, sc.constraint, sc.sight, Simultaneous(4), sc.actual)
    t = run(simultaneous)
    round1 = t.answers_by_round()[0]
    n = len(sc.agents)
    circ = run(Scenario("prop", sc.agents, sc.constraint, sc.sight,
                        Circular(tuple(range(n)), 4), sc.actual))
    first_turn_answers = {e.agent: e.answer for e in circ.events if e.round == 1}
    for i in range(n):
        if round1[i]:
            assert first_turn_answers[i]


@given(hat_scenarios())
def test_json_roundtrip_byte_identity(sc):
    t = run(sc)
    text = dsl.serialize_transcript(t)
    import json

    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n" == text
    assert dsl.serialize_transcript(run(sc)) == text


def reference_run_profiles(profiles, max_rounds):
    """Slow reference for run_profiles: every round re-checks every live
    (profile, value) pair against every candidate sharing its observation."""
    index = {}
    for prof in profiles:
        for i, v in enumerate(prof):
            if i > 0 and prof[i - 1] == v:
                continue
            obs = prof[:i] + prof[i + 1 :]
            index.setdefault(obs, []).append((v, prof))

    first = {}

    def truncated(prof2, u, rnd):
        f = first.get((prof2, u))
        return f if f is not None and f < rnd else None

    for rnd in range(1, max_rounds + 1):
        changed = False
        for prof in profiles:
            for i, v in enumerate(prof):
                if i > 0 and prof[i - 1] == v:
                    continue
                if (prof, v) in first:
                    continue
                obs = prof[:i] + prof[i + 1 :]
                candidates = []
                for v2, prof2 in index[obs]:
                    # the agent's own announcements so far are all NO, so the
                    # candidate value must not have triggered an earlier YES
                    if truncated(prof2, v2, rnd) is not None:
                        continue
                    ok = all(
                        truncated(prof2, u, rnd) == truncated(prof, u, rnd)
                        for u in set(obs)
                    )
                    if ok:
                        candidates.append(v2)
                if len(candidates) == 1:
                    first[(prof, v)] = rnd
                    changed = True
        if not changed:
            break

    return {prof: {v: first.get((prof, v)) for v in set(prof)} for prof in profiles}


@st.composite
def maxdiff_profiles(draw):
    n = draw(st.integers(2, 5))
    d = draw(st.integers(0, 3))
    cap = draw(st.integers(d, 8))
    return profile_universe(MaxDiffExact(d, cap), n)


@st.composite
def any_profiles(draw):
    """Any set of 0-40 sorted tuples of one length n in 1-5, values 0-4 or
    from a gapped set, which run_profiles must number densely."""
    n = draw(st.integers(1, 5))
    values = draw(st.sampled_from([st.integers(0, 4), st.sampled_from((0, 1, 7, 60, 719))]))
    profile = st.lists(values, min_size=n, max_size=n).map(lambda w: tuple(sorted(w)))
    return frozenset(draw(st.lists(profile, max_size=40)))


@st.composite
def class_profiles(draw):
    """The profile universe of a small_constraints() member of any class."""
    constraint, n = draw(small_constraints(draw(st.sampled_from(CONSTRAINT_CLASSES))))
    try:
        return profile_universe(constraint, n)
    except GenerationError:
        assume(False)


# one value held n times (the largest multiplicity a weight must carry) and n = 1
# and, in round 3, (3, 3, 3, 4)'s round-1 YES at 4 against (3, 3, 4, 4)'s round-2
# YES at 3, which a YES signature of base 2 would weigh alike (1 * 2^4 = 2 * 2^3)
@example(frozenset({(0, 1, 3, 3), (0, 3, 3, 4), (0, 3, 4, 4), (2, 2, 3, 4), (2, 3, 3, 4), (3, 3, 3, 4), (3, 3, 4, 4)}), 3)
@example(frozenset({(719,) * 4, (0, 719, 719, 719), (0, 0, 7, 719)}), 5)
@example(frozenset({(3,), (60,)}), 2)
@given(st.one_of(maxdiff_profiles(), any_profiles(), class_profiles()), st.integers(0, 8))
def test_profile_evaluator_matches_reference(profiles, max_rounds):
    assert run_profiles(profiles, max_rounds) == reference_run_profiles(profiles, max_rounds)
