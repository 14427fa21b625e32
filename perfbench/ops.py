"""The timed operations, written against the public functions of ckgames.

`prepare` builds an op's inputs (set-up time), `run_op` makes exactly the
calls a user's command makes, each inside a span that costs nothing outside
traced runs, and `describe` turns the result into the op's world count,
output digest and verdict after the clock has stopped.  `probe` runs in
traced runs only: it calls the layers separately on the op's inputs
(generation, universe, answer kernel, announcement filters), which is how
per-layer numbers are had without changing or patching the program.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path
from time import perf_counter

from ckgames import cli, dsl, engine, scenarios, worlds

from workloads import params, sample_rng

PROFILE_ROUNDS = 6
STREAM_SUMS = (20, 21, 22)


def _agents(n: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(n))


def prepare(op_id: str, root: Path):
    """Inputs of one op: fixture paths, a Scenario, or a profile cell."""
    p = params(op_id)
    if p["kind"] == "corpus":
        base = root / "fixtures" / p["name"]
        return (str(base) + ".ck", str(base) + ".expect")
    if p["kind"] == "sweep":
        if p["family"] == "file":
            return dsl.parse_file(str(root / "sweeps" / f"{p['file']}.ck"))
        n = p["n"]
        if p["family"] == "far":
            constraint, sight = scenarios.HatsExactly(0, p["k"], 2), scenarios.FarCircle()
            protocol = scenarios.Simultaneous(8)
        else:
            constraint, sight = scenarios.HatsAtLeast(0, 1, 2), scenarios.Full()
            if p["protocol"] == "sim":
                protocol = scenarios.Simultaneous(n + 1)
            else:
                protocol = scenarios.Circular(tuple(range(n)), 3)
        return scenarios.Scenario(op_id, _agents(n), constraint, sight, protocol, None,
                                  alphabet=("red", "blue"))
    if p["kind"] == "stream":
        actual = [1] * 10
        actual[p["seat"]] = 13
        return scenarios.Scenario(op_id, _agents(10), scenarios.SumInSet(STREAM_SUMS),
                                  scenarios.NearLine(), scenarios.Circular(tuple(range(10)), 3),
                                  tuple(actual))
    return (scenarios.MaxDiffExact(p["d"], 5 + 7 * p["d"]), p["n"])


def counted(sc: scenarios.Scenario, counts) -> scenarios.Scenario:
    """The scenario with a constraint subclass that counts generator passes and worlds."""
    if counts is None:
        return sc
    base = type(sc.constraint)

    class Counted(base):
        def generate(self, n):
            counts["scenarios.gen_passes"] += 1
            made = 0
            try:
                for w in base.generate(self, n):
                    made += 1
                    yield w
            finally:
                counts["scenarios.worlds_streamed"] += made

    values = {f.name: getattr(sc.constraint, f.name) for f in dataclasses.fields(sc.constraint)}
    return dataclasses.replace(sc, constraint=Counted(**values))


def run_op(kind: str, inp, span, counts=None):
    """One op; `span` is Tracer.span or tracing.no_span, `counts` a Counter when traced."""
    if kind == "corpus":
        with span("dsl.parse"):
            sc = dsl.parse_file(inp[0])
            expectation = dsl.parse_expected_file(inp[1])
        sc_run = counted(sc, counts)
        with span("engine.run"):
            transcript = engine.run(sc_run)
        with span("dsl.emit"):
            problems = dsl.match_expectation(expectation, transcript, sc.alphabet)
            text = dsl.serialize_transcript(transcript, sc.alphabet)
        return sc, transcript, problems, text
    if kind == "sweep":
        sc_run = counted(inp, counts)
        with span("engine.sweep"):
            return engine.sweep(sc_run)
    if kind == "stream":
        sc_run = counted(inp, counts)
        with span("engine.run"):
            return engine.run(sc_run)
    constraint, n = inp
    with span("engine.profile_universe"):
        profiles = engine.profile_universe(constraint, n)
    with span("engine.profiles"):
        table = engine.run_profiles(profiles, PROFILE_ROUNDS)
    return profiles, table


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def eventual_codes(eventual) -> list[str]:
    return [f"L{e.round}.{e.turn}" if e.kind == "learns" else e.kind[0].upper() for e in eventual]


def world_key(w) -> str:
    return ",".join(map(str, w))


def yes_pattern(firsts: dict, profile) -> tuple:
    """New-YES counts per round up to the last learner."""
    horizon = max(firsts.values())
    counts = [0] * horizon
    for v in profile:
        counts[firsts[v] - 1] += 1
    return tuple(counts)


HIT_PATTERN = (1, 0, 2, 3)
HIT_MAX_VALUE = 5


def describe(kind: str, inp, result):
    """(worlds decided, sha256 of the canonical output, verdict as compact JSON)."""
    if kind == "corpus":
        _, transcript, problems, text = result
        verdict = {"problems": problems, "json": text}
        return transcript.initial_size, _sha(text), json.dumps(verdict)
    if kind == "sweep":
        rows = {world_key(r.world): [r.digest, eventual_codes(r.eventual)] for r in result.rows}
        digest = _sha("\n".join(f"{k}:{v[0]}" for k, v in rows.items()))
        return len(result.rows), digest, json.dumps(rows)
    if kind == "stream":
        t = result
        verdict = {
            "events": [[e.round, e.turn, e.agent, e.answer, e.state_size] for e in t.events],
            "eventual": eventual_codes(t.eventual),
            "final": [list(v) for v in t.final_candidates],
        }
        return t.initial_size, _sha(dsl.serialize_transcript(t)), json.dumps(verdict)
    profiles, table = result
    canonical = [[list(p), sorted(table[p].items())] for p in sorted(profiles)]
    hits = sorted(
        list(p) for p in profiles
        if max(p) <= HIT_MAX_VALUE
        and None not in table[p].values()
        and yes_pattern(table[p], p) == HIT_PATTERN
    )
    return len(profiles), _sha(json.dumps(canonical)), json.dumps({"hits": hits})


# ---------------------------------------------------------------------------
# traced runs only


def probe(op_id: str, kind: str, inp, result, tracer, seed: int) -> None:
    """Separate layer calls on the op's inputs, after the op span has closed."""
    span, counts = tracer.span, tracer.counts
    if kind == "profiles":
        constraint, n = inp
        profiles, _ = result
        with span("scenarios.count"):
            counts["engine.profile_worlds"] += constraint.count_worlds(n)
        counts["engine.profile_pairs"] += sum(len(set(p)) for p in profiles)
        return
    sc = result[0] if kind == "corpus" else inp
    constraint, n = sc.constraint, sc.n_agents
    with span("scenarios.count"):
        size = constraint.count_worlds(n)
    with span("scenarios.generate"):
        counts["scenarios.generated"] += sum(1 for _ in constraint.generate(n))
    if size > engine.STREAM_THRESHOLD:
        return  # a streamed run never holds its universe, so the probe does not either
    with span("scenarios.universe"):
        universe = scenarios.gen_universe(constraint, n)
    vis = scenarios.gen_visibility(sc.sight, n)
    with span("worlds.answers"):
        worlds.answers_for_all(universe, vis)
    counts["worlds.keys"] += sum(
        len({tuple(w[j] for j in vis.observed(a)) for w in universe}) for a in range(n)
    )
    if kind == "corpus":
        transcript = result[1]
    else:
        counts["engine.cells"] += len({r.digest for r in result.rows})
        counts["engine.sweep_worlds"] += len(result.rows)
        actual = sample_rng(seed, op_id).choice(universe.worlds)
        with span("engine.run") as run_span:
            transcript = engine.run(dataclasses.replace(sc, actual=actual))
        sweep_s = tracer.by_op("engine.sweep")[tracer.op]
        tracer.samples["engine.sweep_over_run"].append(sweep_s / run_span.duration)
    with span("worlds.filter"):
        replay_filters(transcript, universe, vis, counts)


def replay_filters(transcript, state, vis, counts) -> None:
    """Apply the transcript's announcements with the worlds-layer filters."""
    if transcript.protocol == "simultaneous":
        for announced in transcript.answers_by_round():
            counts["worlds.states_filtered"] += len(state)
            state = worlds.filter_simultaneous(state, announced, vis)
    else:
        for e in transcript.events:
            counts["worlds.states_filtered"] += len(state)
            state = worlds.filter_turn(state, e.agent, e.answer, vis)


def cli_verify(root: Path, threads: int) -> tuple[float, int]:
    """`ck verify fixtures` through cli.main with CK_THREADS set; (seconds, exit code)."""
    old = os.environ.get("CK_THREADS")
    os.environ["CK_THREADS"] = str(threads)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(["verify", str(root / "fixtures")])
            elapsed = perf_counter() - t0
    finally:
        if old is None:
            del os.environ["CK_THREADS"]
        else:
            os.environ["CK_THREADS"] = old
    return elapsed, code
