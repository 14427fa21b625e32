"""What each workload runs: op ids, their parameters and their seeded order.

Plain data only.  Nothing here imports ckgames, so every process of a run
(orchestrator, measured process, reference process) rebuilds the same plan
from the same seed without loading the program.
"""

import random
from pathlib import Path

WORKLOADS = ("corpus", "sweep", "stream", "profiles")

# Ops of at most about a second, so a run repeats each one several times.
SWEEP_OPS = (
    "sweep/hats-sim-11",
    "sweep/hats-circ-12",
    "sweep/far-14-4",
    "sweep/far-14-5",
    "sweep/far-15-4",
    "sweep/far-15-5",
    "sweep/far-16-4",
    "sweep/file-emperor10",
    "sweep/file-consecutive4",
)

# the value 13 seated at index 1 or 2 of a ten-agent line; every other agent holds 1
STREAM_OPS = ("stream/seat-1", "stream/seat-2")

# criterion-11 cells of at most about two seconds; 840 to 6,300 profiles
PROFILE_OPS = tuple(f"profiles/{n}-{d}" for n in (6, 7, 8) for d in (3, 4)) + ("profiles/6-5",)

# The smallest op of a workload.  A traced run adds these for the layers its
# own workload never calls, so every per-layer metric is measured in every
# traced run.  Streaming has no small op (it starts above 500k worlds); its
# layers are measured by the other workloads' generation passes.
PROBE_OPS = {"sweep": ("sweep/file-emperor10",), "profiles": ("profiles/6-3",)}


def corpus_ops(root: Path) -> tuple[str, ...]:
    """The fast fixture pairs, as `ck verify fixtures` selects them."""
    return tuple(
        f"corpus/{p.name[:-3]}"
        for p in sorted((root / "fixtures").glob("*.ck"))
        if not p.name.endswith(".slow.ck")
    )


def ops_of(workload: str, root: Path) -> tuple[str, ...]:
    if workload == "corpus":
        return corpus_ops(root)
    return {"sweep": SWEEP_OPS, "stream": STREAM_OPS, "profiles": PROFILE_OPS}[workload]


def cycle(workload: str, root: Path, seed: int, k: int) -> list[str]:
    """Every op of the workload once, in the order the seed gives cycle k.

    Runs are made of whole cycles, so every run times the same mix of ops and
    the seed changes only their order and the sampled reference rows.
    """
    ops = list(ops_of(workload, root))
    random.Random(f"{seed}:{workload}:{k}").shuffle(ops)
    return ops


def probe_ops(workload: str, root: Path) -> list[str]:
    out = [] if workload == "corpus" else list(corpus_ops(root))
    for other, ids in PROBE_OPS.items():
        if other != workload:
            out.extend(ids)
    return out


def planned_ops(workload: str, root: Path, trace: bool) -> list[str]:
    """Distinct op ids a run may execute."""
    ops = list(ops_of(workload, root))
    if trace:
        ops.extend(op for op in probe_ops(workload, root) if op not in ops)
    return ops


def params(op_id: str) -> dict:
    """Parameters encoded in an op id."""
    kind, name = op_id.split("/", 1)
    out = {"kind": kind, "name": name}
    parts = name.split("-")
    if kind == "sweep":
        out["family"] = parts[0]
        if parts[0] == "file":
            out["file"] = parts[1]
        elif parts[0] == "far":
            out["n"], out["k"] = int(parts[1]), int(parts[2])
        else:
            out["protocol"], out["n"] = parts[1], int(parts[2])
    elif kind == "stream":
        out["seat"] = int(parts[1])
    elif kind == "profiles":
        out["n"], out["d"] = int(parts[0]), int(parts[1])
    return out


def sample_rng(seed: int, op_id: str) -> random.Random:
    """Seeded choices tied to one op: reference rows, the actual world of a probe run."""
    return random.Random(f"{seed}:{op_id}:sample")
