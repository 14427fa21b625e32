"""Core semantics: observations, knowledge, and announcement filtering."""

import itertools

import pytest

from ckgames import worlds
from ckgames.scenarios import (
    Blind,
    FarCircle,
    Full,
    HatsAtLeast,
    HatsExactly,
    MaxDiffExact,
    NearCircle,
    NearLine,
    SumOrProduct,
    gen_universe,
    gen_visibility,
)
from ckgames.worlds import (
    ContractViolation,
    EmptyStateError,
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
from helpers import assert_one_part_per_class

R, B = 0, 1


def intro_universe():
    return gen_universe(HatsAtLeast(R, 1, 2), 3)


def test_observe_blind_sees_nothing():
    vis = gen_visibility(Blind(frozenset({0})), 3)
    assert vis.observed(0) == ()


def test_observe_full_sight_restriction():
    vis = gen_visibility(Full(), 3)
    assert vis.observed(0) == (1, 2)


def test_observe_near_circle_neighbors():
    vis = gen_visibility(NearCircle(), 5)
    assert vis.observed(0) == (1, 4)


def test_observe_bad_agent_index():
    vis = gen_visibility(Full(), 3)
    with pytest.raises(ContractViolation):
        vis.observed(5)


@pytest.mark.parametrize("sees,message", [
    ((frozenset({1}), frozenset({1})), "agent 1 cannot see itself"),
    ((frozenset({1}), frozenset({2})), "agent 1 sees out-of-range agent 2"),
    ((frozenset({-1}), frozenset({0})), "agent 0 sees out-of-range agent -1"),
])
def test_visibility_graph_refuses_self_sight_and_unknown_seats(sees, message):
    with pytest.raises(ContractViolation, match=message):
        VisibilityGraph(sees)


def test_knows_own_sees_two_blues():
    # seeing two blue hats pins the remaining red
    vis = gen_visibility(Full(), 3)
    assert knows_own(0, (R, B, B), intro_universe(), vis)


def test_knows_own_indistinguishable_pair():
    vis = gen_visibility(Full(), 2)
    state = KnowledgeState.from_worlds([(0, 0), (1, 0)])
    assert not knows_own(0, (0, 0), state, vis)


def test_knows_own_sop_nondivisor():
    # announced 50, agent 0 sees a 3: 3 does not divide 50, so the sum is forced
    universe = gen_universe(SumOrProduct(50), 2)
    assert len(universe) == 55
    vis = gen_visibility(Full(), 2)
    assert (47, 3) in universe
    assert knows_own(0, (47, 3), universe, vis)


def test_knows_own_requires_membership():
    vis = gen_visibility(Full(), 3)
    with pytest.raises(ContractViolation):
        knows_own(0, (B, B, B), intro_universe(), vis)


@pytest.mark.parametrize("agent", [-1, 3])
def test_filter_turn_bad_agent_index(agent):
    vis = gen_visibility(Full(), 3)
    for state in (intro_universe(), KnowledgeState(((R, B, B),))):
        with pytest.raises(ContractViolation):
            filter_turn(state, agent, True, vis)


def test_answer_vector_two_reds_all_no():
    vis = gen_visibility(Full(), 3)
    assert answer_vector(intro_universe(), (R, R, B), vis) == (False, False, False)


def test_answer_vector_one_red():
    vis = gen_visibility(Full(), 3)
    assert answer_vector(intro_universe(), (R, B, B), vis) == (True, False, False)


def test_answer_vector_singleton_state_all_yes():
    vis = gen_visibility(Full(), 3)
    state = KnowledgeState.from_worlds([(R, B, B)])
    assert answer_vector(state, (R, B, B), vis) == (True, True, True)


def test_answers_for_all_matches_pointwise():
    universe = intro_universe()
    vis = gen_visibility(Full(), 3)
    table = answers_for_all(universe, vis)
    for w in universe:
        assert table[w] == answer_vector(universe, w, vis)


def test_filter_simultaneous_all_no_keeps_two_plus_reds():
    universe = intro_universe()
    vis = gen_visibility(Full(), 3)
    state = filter_simultaneous(universe, (False, False, False), vis)
    assert set(state) == {w for w in universe if w.count(R) >= 2}
    assert len(state) == 4


def test_filter_simultaneous_singleton_fixpoint():
    vis = gen_visibility(Full(), 3)
    state = KnowledgeState.from_worlds([(R, B, B)])
    again = filter_simultaneous(state, (True, True, True), vis)
    assert tuple(again) == tuple(state)


def test_filter_simultaneous_inconsistent_raises():
    vis = gen_visibility(Full(), 3)
    state = KnowledgeState.from_worlds([(R, B, B)])
    with pytest.raises(EmptyStateError):
        filter_simultaneous(state, (False, True, True), vis)


def test_filter_turn_first_speaker_no():
    # Kevin's NO removes every world in which only Kevin is red
    universe = gen_universe(HatsAtLeast(R, 1, 2), 4)
    vis = gen_visibility(Full(), 4)
    state = filter_turn(universe, 0, False, vis)
    assert (R, B, B, B) not in state
    assert all(w != (R, B, B, B) for w in state)
    assert set(universe) - set(state) == {(R, B, B, B)}


def test_filter_turn_uninformative_yes():
    vis = gen_visibility(Full(), 2)
    state = KnowledgeState.from_worlds([(0, 1), (0, 2)])
    # agent 1 sees the 0 either way but its own value differs; agent 0 knows in both
    out = filter_turn(state, 0, True, vis)
    assert tuple(out) == tuple(state)


def test_filter_turn_maxdiff_first_no():
    universe = gen_universe(MaxDiffExact(1, 8), 2)
    vis = gen_visibility(Full(), 2)
    state = filter_turn(universe, 0, False, vis)
    assert all(w[1] != 0 for w in state)


def test_state_canonical_order():
    state = KnowledgeState.from_worlds([(1, 0), (0, 1), (1, 0)])
    assert state.worlds == ((0, 1), (1, 0))


def test_one_world_split_is_all_yes():
    # alone in its state, a world pins every speaker's value, a blind speaker's too
    vis = gen_visibility(Blind(frozenset({1})), 4)
    world = (R, B, B, R)
    state = KnowledgeState((world,))
    for r in range(1, 5):
        for speakers in itertools.combinations(range(4), r):
            answers = tuple(knows_own(a, world, state, vis) for a in speakers)
            assert answers == (True,) * r
            assert split(state, speakers, vis) == {answers: [world]}


def test_visibility_equality_ignores_key_functions():
    a = gen_visibility(NearCircle(), 5)
    b = VisibilityGraph(tuple(a.sees))
    assert a.keys[0] is not b.keys[0]  # each graph builds its own
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert "keys" not in repr(a)
    assert a != VisibilityGraph(tuple(a.sees[:4]) + (frozenset({0}),))
    world = (0, 1, 2, 3, 4)
    assert [a.keys[i](world) for i in range(5)] == [(1, 4), (0, 2), (1, 3), (2, 4), (0, 3)]


def test_orbit_split_refuses_a_partial_step():
    # answers read from moved worlds need every agent, in seat order, and a
    # group of permutations of all the seats that map the sight graph onto itself
    vis = gen_visibility(NearCircle(), 6)
    state = gen_universe(HatsAtLeast(0, 1, 2), 6)
    half_turns = [(0, 1, 2, 3, 4, 5), (2, 3, 4, 5, 0, 1), (4, 5, 0, 1, 2, 3)]
    mirrors = [(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)]
    for group in (SeatGroup(vis, half_turns), SeatGroup(vis, mirrors)):
        assert_one_part_per_class(state, vis, group, partition(state, range(6), vis, group))
    # a rotation of a line of seats moves an end seat, which has one neighbour, into the middle
    line = gen_visibility(NearLine(), 4)
    rotations = [tuple((i + k) % 4 for i in range(4)) for k in range(4)]
    states = {vis: state, line: gen_universe(HatsExactly(0, 1, 2), 4)}
    for speakers, sight, perms in [((0,), vis, half_turns), ((1, 0, 2, 3, 4, 5), vis, mirrors),
                                   (range(5), vis, mirrors), (range(6), vis, [(0, 1, 2, 3), (1, 2, 3, 0)]),
                                   (range(6), vis, [mirrors[0], (0,) * 6]), (range(4), line, rotations)]:
        with pytest.raises(ContractViolation):
            partition(states[sight], speakers, sight, SeatGroup(sight, perms))


def test_seat_group_refuses_a_step_that_breaks_the_sight_graph():
    # on a line of four seats a rotation moves an end seat, which sees one
    # neighbour, into the middle: answers moved by it would be wrong, so the
    # group refuses it when built, before any split.  The reversal maps the
    # line onto itself, and a split through it keeps one part of each pair of
    # mirrored answer vectors, which the reversal moves onto the other
    vis = gen_visibility(NearLine(), 4)
    state = gen_universe(HatsExactly(0, 1, 2), 4)
    with pytest.raises(ContractViolation):
        SeatGroup(vis, [(1, 2, 3, 0)])
    mirror = SeatGroup(vis, [(3, 2, 1, 0)])
    assert mirror.perms == ((0, 1, 2, 3), (3, 2, 1, 0))
    expected = {
        (False, True, False, False): [(0, 1, 1, 1)],
        (True, False, True, False): [(1, 0, 1, 1)],
        (False, True, False, True): [(1, 1, 0, 1)],
        (False, False, True, False): [(1, 1, 1, 0)],
    }
    assert split(state, range(4), vis) == expected
    parts = partition(state, range(4), vis, mirror)
    assert [(answers, list(part), images) for answers, part, images in parts] == [
        ((False, True, False, False), [(0, 1, 1, 1)], [0, 1]),
        ((True, False, True, False), [(1, 0, 1, 1)], [0, 1]),
    ]
    assert_one_part_per_class(state, vis, mirror, parts)


def test_a_reversal_only_split_answers_per_orbit(monkeypatch):
    # the reversal of a line of four seats makes a group of two elements, fewer
    # than the seats; it still answers one world per orbit of worlds and moves
    # the answers to the rest, while the identity answers every world itself
    vis = gen_visibility(NearLine(), 4)
    state = gen_universe(MaxDiffExact(1, 3), 4)
    mirror = SeatGroup(vis, [(3, 2, 1, 0)])
    calls = []
    real = worlds._orbit_parts
    monkeypatch.setattr(worlds, "_orbit_parts", lambda *args: calls.append(args[2]) or real(*args))
    plain = split(state, range(4), vis)
    assert calls == []
    assert partition(state, range(4), vis, SeatGroup(vis)) == partition(state, range(4), vis) and calls == []
    assert_one_part_per_class(state, vis, mirror, partition(state, range(4), vis, mirror))
    assert calls == [mirror]
    for answers, part in plain.items():
        assert all(answer_vector(state, w, vis) == answers for w in part)


def test_split_refuses_a_group_of_another_sight_graph():
    line, circle = gen_visibility(NearLine(), 4), gen_visibility(NearCircle(), 4)
    state = gen_universe(HatsExactly(0, 1, 2), 4)
    mirror = SeatGroup(line, [(3, 2, 1, 0)])
    # a group set up for an equal graph serves it
    parts = partition(state, range(4), gen_visibility(NearLine(), 4), mirror)
    assert parts == partition(state, range(4), line, mirror)
    assert_one_part_per_class(state, line, mirror, parts)
    for group in (mirror, SeatGroup(line)):
        with pytest.raises(ContractViolation, match="set up for another sight graph"):
            partition(state, range(4), circle, group)
    # a one-world state, whose every speaker knows, is checked all the same
    with pytest.raises(ContractViolation, match="set up for another sight graph"):
        partition(KnowledgeState(((0, 1, 1),)), range(3), gen_visibility(Full(), 3), mirror)
    with pytest.raises(ContractViolation, match="every agent in seat order"):
        partition(KnowledgeState(((0, 1, 1, 1),)), (3, 2, 1, 0), line, mirror)
    assert split(KnowledgeState(((0, 1, 1, 1),)), (3, 2), line) == {(True, True): [(0, 1, 1, 1)]}


def test_a_sweeps_group_split_keeps_one_part_per_class():
    # far-circle sight on 14 seats keeps the dihedral group of 28 elements.  The
    # universe's 1,001 worlds give 609 answer vectors in 32 classes, and the
    # split builds one part per class, 55 worlds in all, whose images stand for
    # the 609 parts
    n = 14
    vis = gen_visibility(FarCircle(), n)
    state = gen_universe(HatsExactly(0, 4, 2), n)
    group = SeatGroup(vis, [tuple((i - 1) % n for i in range(n)), tuple(range(n - 1, -1, -1))])
    parts = partition(state, range(n), vis, group)
    assert len(group.perms) == 28 and len(state) == 1001 and len(split(state, range(n), vis)) == 609
    assert (len(parts), sum(len(part) for _, part, _ in parts), sum(len(images) for *_, images in parts)) == (32, 55, 609)
    assert_one_part_per_class(state, vis, group, parts)


def test_a_plain_split_computes_each_key_once():
    # one pass per speaker computes each world's observation key, and the
    # answers are read back off the same keys
    vis = gen_visibility(NearCircle(), 5)
    state = gen_universe(HatsAtLeast(R, 1, 2), 5)
    calls = [0] * 5

    def counting(agent, key):
        def counted(w):
            calls[agent] += 1
            return key(w)
        return counted

    object.__setattr__(vis, "keys", tuple(counting(i, key) for i, key in enumerate(vis.keys)))
    for speakers, group in [((2,), None), ((4, 1), None), (range(5), SeatGroup(vis))]:
        calls[:] = [0] * 5
        parts = partition(state, speakers, vis, group)
        assert calls == [len(state) if i in speakers else 0 for i in range(5)]
        for answers, part, _ in parts:
            assert all(tuple(knows_own(a, w, state, vis) for a in speakers) == answers for w in part)
