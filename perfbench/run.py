"""Benchmark of ckgames: time to verdict, worlds decided per second, peak memory.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # all four, one after another

Each invocation measures one workload (see NOTES.md) in fresh processes:

1. set-up: SETUP_SAMPLES processes each import ckgames and build the seeded
   inputs, then exit; `setup_s` is the median time from spawn to ready,
   together with the measured process's own set-up;
2. the measured process runs only this workload's ops, single client,
   closed loop, in as many whole cycles as fit in `--seconds`, and reports
   each op's time, world count, output digest and verdict, and its own
   high-water RSS;
3. a reference process computes every op's reference (reference.py) once
   the measured process has exited; the orchestrator compares.

An op that raises or disagrees with its reference counts as failed and the
run goes on.  With `--trace 1` the measured process runs one untraced cycle,
one traced cycle and the probe ops, and the result holds the per-layer
metrics instead of the end-to-end ones; spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, planned_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170
DIGESTS = HERE / "digests.json"


class BenchError(Exception):
    pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's output digests in digests.json as the drift baseline")
    ap.add_argument("--child", choices=("setup", "run", "reference"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)

    missing = [p for p in ("BENCHMARK.json", "src/ckgames/__init__.py", "fixtures", "sweeps")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a ckgames checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    try:
        if args.workload == "all":
            return run_all(args)
        result, lines = run_workload(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# orchestrator


def _spawn(args, kind: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{kind} process did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{kind} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run_workload(args) -> tuple[dict, list[str]]:
    sys.path.insert(0, str(ROOT / "src"))
    import calibration
    import reference

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        out = _spawn(args, "setup" if len(setups) < SETUP_SAMPLES else "run", deadline)
        setups.append((out["ready"] - t0) / out["slowdown"])
    run = out
    expected = _spawn(args, "reference", deadline)["expected"]

    records = run["records"]
    bad_ops, checked, mismatches = set(), 0, 0
    for op_id, verdict in run["verdicts"].items():
        problems, n = reference.check(op_id, json.loads(verdict), expected[op_id])
        checked += n
        mismatches += len(problems) if n else 0
        if problems:
            bad_ops.add(op_id)
            print(f"{op_id}: " + "; ".join(problems[:5]), file=sys.stderr)
    first_digest = {}
    failed = 0
    for r in records:
        same = first_digest.setdefault(r["id"], r["digest"]) == r["digest"]
        if r["error"] or r["id"] in bad_ops or not same:
            failed += 1
            if not same:
                print(f"{r['id']}: output differs between cycles", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    head = (f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
            f"{len(records)} ops attempted, {failed} failed")
    if args.trace:
        values = dict(run["layers"])
        committed = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        values["dsl.output_drift"] = len(
            {r["id"] for r in records if r["digest"] and committed.get(r["id"]) != r["digest"]}
        )
        values["oracles.checked"] = checked
        values["oracles.mismatches"] = mismatches
        wanted = spec["per_layer"]
        notes = {}
    else:
        measured = [r for r in records if r["pass"] == "measure"]
        times = calibration.scale([r["s"] for r in measured], run["calibration"])
        per_op = {}
        for r, t in zip(measured, times):
            per_op.setdefault(r["id"], (r["worlds"], []))[1].append(t)
        values = {
            "op_p50_s": statistics.median(times),
            "worlds_per_s": sum(w for w, _ in per_op.values())
            / sum(statistics.median(ts) for _, ts in per_op.values()),
            "peak_rss_mb": run["rss_mb"],
            "setup_s": statistics.median(setups),
        }
        wanted = spec["end_to_end"]
        slow = statistics.median(s for _, s in run["calibration"])
        notes = {"op_p50_s": f"median of {len(times)} ops; core {slow:.2f}x slower than nominal",
                 "worlds_per_s": f"{len(per_op)} distinct ops, median time of each",
                 "setup_s": f"median of {len(setups)} process starts"}
    lines = [head]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"  {m['name']:<28} {values[m['name']]:<14.6g} {m['unit']:<6} "
                     f"{notes.get(m['name'], '')}")
    if not args.trace:
        if len(times) >= 100:
            p90 = statistics.quantiles(times, n=10)[-1]
            lines.append(f"  {'op_p90_s':<28} {p90:<14.6g} {'s':<6} {len(times)} ops")
        else:
            lines.append(f"  {'op_p90_s':<28} {'-':<14} {'s':<6} not reported below 100 ops")
    lines.append(f"  {'fail_frac':<28} {failed / len(records):<14.6g} {'':<6} "
                 f"{failed}/{len(records)} ops")

    if args.record_digests:
        if failed:
            raise BenchError("not recording digests of a run with failed ops")
        committed = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        committed.update({r["id"]: r["digest"] for r in records if r["digest"]})
        DIGESTS.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    return result, lines


def run_all(args) -> int:
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  timeout=DEADLINE_S + 10)
        except subprocess.TimeoutExpired:
            print(f"error: workload {w} did not finish in time", file=sys.stderr)
            return 1
        out = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not out:
            print(f"error: workload {w} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(out[:-1]), flush=True)
        results[w] = json.loads(out[-1])
    print(json.dumps(results))
    return 0


# ---------------------------------------------------------------------------
# child processes


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if args.child == "reference":
        import reference

        ids = planned_ops(args.workload, ROOT, bool(args.trace))
        print(json.dumps({"expected": reference.expected(ids, ROOT, args.seed)}))
        return 0
    import measure

    print(json.dumps(measure.measure(args, ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
