"""Invariant properties over randomized small scenarios."""

from hypothesis import given, settings, strategies as st

from ckgames import dsl
from ckgames.engine import profile_universe, run, run_profiles
from ckgames.scenarios import (
    Circular,
    Full,
    HatsAtLeast,
    MaxDiffExact,
    Scenario,
    Simultaneous,
    gen_universe,
    gen_visibility,
)
from ckgames.worlds import (
    KnowledgeState,
    VisibilityGraph,
    answer_vector,
    answers_for_all,
    filter_simultaneous,
    filter_turn,
    knows_own,
)


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


@given(maxdiff_profiles(), st.integers(1, 8))
def test_profile_evaluator_matches_reference(profiles, max_rounds):
    assert run_profiles(profiles, max_rounds) == reference_run_profiles(profiles, max_rounds)
