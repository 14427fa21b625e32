"""References every op is checked against, computed without the engine.

* corpus: the hand-written `.expect` file, read by a parser of this file's own
  and compared with the op's canonical JSON.
* full-sight hat sweeps: the closed forms in `oracles`, for every row.
* far-circle and file sweeps: a replay of a seeded sample of rows with the
  slow reference functions `worlds.knows_own`, `worlds.answer_vector`,
  `worlds.filter_simultaneous` and `worlds.filter_turn`.
* stream: the same replay over the materialized universe.
* profiles: the published pattern-(1,0,2,3) hit set of each cell.

`expected` runs in a process of its own, after the measured process has
exited, so neither its time nor its memory reaches the measured numbers.
`check` compares an op's verdict with its reference.
"""

import hashlib
import itertools
import json
from pathlib import Path

from ckgames import oracles, scenarios, worlds

from ops import eventual_codes, prepare, world_key
from workloads import params, sample_rng

REPLAYED_ROWS = 3

# pattern-(1,0,2,3) profiles with values at most 5, per (agents, difference);
# every other cell has none
PUBLISHED_HITS = {(6, 3): [[1, 1, 2, 2, 2, 4]]}


def codes(first: dict, n: int, stabilized) -> list[str]:
    out = []
    for i in range(n):
        if i in first:
            out.append("L%d.%d" % first[i])
        else:
            out.append("N" if stabilized is not None else "U")
    return out


def replay(universe, vis, protocol, actual) -> dict:
    """Play the protocol for one actual world with the worlds-layer reference functions."""
    n = vis.n_agents
    state = universe
    events, first, stabilized = [], {}, None
    for rnd in range(1, protocol.max_rounds + 1):
        if isinstance(protocol, scenarios.Simultaneous):
            announced = worlds.answer_vector(state, actual, vis)
            after = worlds.filter_simultaneous(state, announced, vis)
            steps = [(i, rnd, announced[i], after) for i in range(n)]
            eliminated = len(state) - len(after)
            state = after
        else:
            steps, eliminated = [], 0
            for pos, agent in enumerate(protocol.order):
                answer = worlds.knows_own(agent, actual, state, vis)
                after = worlds.filter_turn(state, agent, answer, vis)
                eliminated += len(state) - len(after)
                state = after
                steps.append((agent, (rnd - 1) * n + pos + 1, answer, after))
        new_yes = False
        for agent, turn, answer, after in steps:
            events.append([rnd, turn, agent, answer, len(after)])
            if answer and agent not in first:
                first[agent] = (rnd, turn)
                new_yes = True
        if all(s[2] for s in steps) or (eliminated == 0 and not new_yes):
            stabilized = rnd
            break
    digest = hashlib.sha256(
        ";".join(f"{r},{t},{a},{'YES' if y else 'NO'},{s}" for r, t, a, y, s in events).encode()
    ).hexdigest()
    return {
        "events": events,
        "eventual": codes(first, n, stabilized),
        "final": [sorted({w[i] for w in state}) for i in range(n)],
        "digest": digest,
    }


def _hats_oracle(p: dict) -> dict:
    n = p["n"]
    rows = {}
    for w in itertools.product((0, 1), repeat=n):
        reds = tuple(i for i in range(n) if w[i] == 0)
        if not reds:
            continue
        if p["protocol"] == "sim":
            pred = oracles.predict_hats_simultaneous(n, len(reds), reds)
        else:
            pred = oracles.predict_hats_circular(w, tuple(range(n)))
        rows[world_key(w)] = eventual_codes(pred.outcomes)
    return {"oracle": rows}


def expected(op_ids: list[str], root: Path, seed: int) -> dict:
    """Reference for every op id; the ops themselves are not consulted."""
    out = {}
    universes = {}
    for op_id in op_ids:
        p = params(op_id)
        if p["kind"] == "corpus":
            text = (root / "fixtures" / f"{p['name']}.expect").read_text(encoding="utf-8")
            out[op_id] = {"expect": parse_expect(text)}
        elif p["kind"] == "profiles":
            out[op_id] = {"hits": PUBLISHED_HITS.get((p["n"], p["d"]), [])}
        elif p["kind"] == "sweep" and p["family"] == "hats":
            out[op_id] = _hats_oracle(p)
        else:
            sc = prepare(op_id, root)
            key = (sc.constraint, sc.n_agents)
            if key not in universes:
                universes.clear()  # keep one universe: the stream one is 554k worlds
                universes[key] = scenarios.gen_universe(*key)
            universe = universes[key]
            vis = scenarios.gen_visibility(sc.sight, sc.n_agents)
            if p["kind"] == "stream":
                out[op_id] = {"replay": replay(universe, vis, sc.protocol, sc.actual)}
            else:
                rows = {}
                for w in sample_rng(seed, op_id).sample(universe.worlds, REPLAYED_ROWS):
                    r = replay(universe, vis, sc.protocol, w)
                    rows[world_key(w)] = [r["digest"], r["eventual"]]
                out[op_id] = {"size": len(universe), "rows": rows}
    return out


def check(op_id: str, verdict: dict, ref: dict) -> tuple[list[str], int]:
    """(problems, number of comparisons made against an oracle or a replay)."""
    kind = params(op_id)["kind"]
    if kind == "corpus":
        problems = [f"dsl.match_expectation: {p}" for p in verdict["problems"]]
        return problems + check_expect(ref["expect"], json.loads(verdict["json"])), 0
    if kind == "profiles":
        ok = verdict["hits"] == ref["hits"]
        return ([] if ok else [f"hits {verdict['hits']} != published {ref['hits']}"]), 1
    if kind == "stream":
        want = ref["replay"]
        problems = [
            f"{field}: engine {verdict[field]} != replay {want[field]}"
            for field in ("events", "eventual", "final")
            if verdict[field] != want[field]
        ]
        return problems, 1
    rows = verdict
    if "oracle" in ref:
        oracle = ref["oracle"]
        problems = [] if rows.keys() == oracle.keys() else ["row set differs from the oracle's"]
        problems += [
            f"{w}: engine {rows[w][1]} != oracle {oracle[w]}"
            for w in oracle
            if w in rows and rows[w][1] != oracle[w]
        ]
        return problems, len(oracle)
    problems = [] if len(rows) == ref["size"] else [f"{len(rows)} rows, universe {ref['size']}"]
    problems += [
        f"{w}: engine {rows.get(w)} != replay {want}"
        for w, want in ref["rows"].items()
        if rows.get(w) != want
    ]
    return problems, len(ref["rows"])


# ---------------------------------------------------------------------------
# .expect files, read independently of dsl.parse_expected


def parse_expect(text: str) -> dict:
    out = {"eventual": {}, "rounds": None, "turns": None, "consistent": {}}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, rest = (s.strip() for s in line.split(":", 1))
        if key == "eventual":
            out["eventual"].update(part.split("=", 1) for part in rest.split())
        elif key in ("rounds", "turns"):
            rows = [row.split() for row in rest.strip("[]").split(";")]
            out[key] = rows if key == "rounds" else rows[0]
        elif key == "consistent":
            name, values = rest.split("=", 1)
            out["consistent"][name.strip()] = sorted(values.strip().strip("{}").split())
        else:
            raise ValueError(f"unknown expectation key {key!r}")
    return out


def check_expect(exp: dict, t: dict) -> list[str]:
    """Compare a parsed .expect with a transcript's canonical JSON."""
    problems = []
    for name, want in exp["eventual"].items():
        got = t["eventual"].get(name)
        if got is None:
            problems.append(f"no agent {name}")
        elif want in ("never", "unknown"):
            if got["kind"] != want:
                problems.append(f"{name}: {got} != {want}")
        else:
            unit = "round" if want.startswith("round") else "turn"
            k = int(want[len(unit):].rstrip("+"))
            value = got.get(unit)
            ok = value is not None and (value >= k if want.endswith("+") else value == k)
            if got["kind"] != "learns" or not ok:
                problems.append(f"{name}: {got} != {want}")
    events = t["events"]
    if exp["rounds"] is not None:
        by_round: dict = {}
        for e in events:
            by_round.setdefault(e["round"], {})[e["agent"]] = e["answer"]
        got_rounds = [[by_round[r][a] for a in t["agents"]] for r in sorted(by_round)]
        if got_rounds[: len(exp["rounds"])] != exp["rounds"]:
            problems.append(f"rounds {got_rounds} do not start with {exp['rounds']}")
    if exp["turns"] is not None:
        got_turns = [e["answer"] for e in sorted(events, key=lambda e: (e["round"], e["turn"]))]
        if got_turns[: len(exp["turns"])] != exp["turns"]:
            problems.append(f"turns {got_turns} do not start with {exp['turns']}")
    for name, want in exp["consistent"].items():
        got = sorted(str(v) for v in t["final_candidates"].get(name, []))
        if got != want:
            problems.append(f"{name}: consistent {got} != {want}")
    return problems
