"""Checks shared by the test modules: the plain split's classes, and a reference replay."""

from ckgames import engine
from ckgames.scenarios import Scenario, gen_universe
from ckgames.worlds import answer_vector, filter_simultaneous, split


def assert_one_part_per_class(state, vis, group, parts):
    """`parts`, partition's under `group` with no actual world, against the plain split of `state`.

    Each class (an answer vector and every vector an element moves it to)
    has one part, that of its first vector met in the order of `state`,
    and the parts come in the order of their first worlds.  A part's
    images are the first element giving each distinct moved vector, and
    each part of the plain split is exactly one kept part moved by one of
    its images, in the order of `state`.
    """
    plain = split(state, range(vis.n_agents), vis)
    if len(group.perms) == 1:  # the identity alone: every part, standing for itself as the state did
        assert [(answers, list(part), images) for answers, part, images in parts] == [
            (answers, part, None) for answers, part in plain.items()]
        return
    place = {w: i for i, w in enumerate(state)}
    unfolded = {}
    for answers, part, images in parts:
        moved = [act(answers) for act in group.acts]
        assert images == [e for e, v in enumerate(moved) if moved.index(v) == e]
        assert next(v for v in plain if v in moved) == answers
        assert list(part) == plain[answers]
        for e in images:
            assert moved[e] not in unfolded  # each class once
            unfolded[moved[e]] = sorted(map(group.acts[e], part), key=place.__getitem__)
    assert unfolded == plain
    assert [place[part.worlds[0]] for _, part, _ in parts] == sorted(place[part.worlds[0]] for _, part, _ in parts)


def replay(sc: Scenario):
    """(events, eventual, stabilized_at, final candidates) of a simultaneous run,
    answered by knows_own and filtered by filter_simultaneous, one round at a time."""
    n, vis = sc.n_agents, sc.visibility()
    state = gen_universe(sc.constraint, n)
    events, first, stabilized = [], {}, None
    for rnd in range(1, sc.protocol.max_rounds + 1):
        answers = answer_vector(state, sc.actual, vis)
        kept = filter_simultaneous(state, answers, vis)
        events += [engine.Event(rnd, rnd, i, a, len(kept)) for i, a in enumerate(answers)]
        learned = {i: engine.Eventual.learns(rnd, rnd) for i, a in enumerate(answers) if a and i not in first}
        first.update(learned)
        if all(answers) or (len(kept) == len(state) and not learned):
            stabilized = rnd
            break
        state = kept
    rest = engine.Eventual.never() if stabilized is not None else engine.Eventual.unknown()
    eventual = tuple(first.get(i, rest) for i in range(n))
    candidates = tuple(tuple(sorted({w[i] for w in kept})) for i in range(n))
    return tuple(events), eventual, stabilized, candidates
