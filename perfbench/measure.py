"""The measured process: set-up, then this workload's ops and nothing else.

`measure` returns what the orchestrator needs: the time set-up finished,
the core's slowdown (see calibration.py), each op's record, each op's first
verdict and the process's high-water RSS.
"""

import gc
import resource
import sys
import time
import traceback
from pathlib import Path

import calibration
import ops
from tracing import Tracer, layer_metrics, no_span, write_trace
from workloads import cycle, ops_of, probe_ops

CLI_REPEATS = 3


def measure(args, root: Path) -> dict:
    inputs = {op_id: ops.prepare(op_id, root) for op_id in ops_of(args.workload, root)}
    out = {"ready": time.monotonic(), "slowdown": calibration.slowdown()}
    if args.child == "setup":
        return out

    runner = Runner(inputs, args.seed)
    if args.trace:
        out["layers"] = traced_run(runner, args, root)
    else:
        out["calibration"] = closed_loop(runner, args, root)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["records"] = runner.records
    out["verdicts"] = runner.verdicts
    return out


def closed_loop(runner: "Runner", args, root: Path) -> list[tuple[int, float]]:
    """Whole cycles, as many as fit in `--seconds` (at least one); returns the
    calibration points."""
    calibration.warm_up()
    points = [(0, calibration.slowdown())]
    since = cycle_s = 0.0
    start = time.monotonic()
    k = 0
    while k == 0 or time.monotonic() - start + cycle_s <= args.seconds:
        began = time.monotonic()
        for op_id in cycle(args.workload, root, args.seed, k):
            runner.run(op_id, "measure")
            since += runner.records[-1]["s"]
            if since >= calibration.CAL_EVERY_S:
                points.append((len(runner.records), calibration.slowdown()))
                since = 0.0
        cycle_s = time.monotonic() - began
        k += 1
    if points[-1][0] < len(runner.records):
        points.append((len(runner.records), calibration.slowdown()))
    return points


class Runner:
    """Runs ops one at a time and keeps what the orchestrator checks."""

    def __init__(self, inputs: dict, seed: int):
        self.inputs = inputs
        self.seed = seed
        self.records: list[dict] = []
        self.verdicts: dict[str, str] = {}

    def run(self, op_id: str, pass_name: str, tracer: Tracer = None) -> None:
        kind = op_id.split("/", 1)[0]
        inp = self.inputs[op_id]
        rec = {"id": op_id, "pass": pass_name, "s": 0.0, "worlds": 0, "digest": None,
               "error": None}
        gc.collect()  # each op starts from the same collector state, whatever ran before it
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = ops.run_op(kind, inp, no_span)
            else:
                tracer.op = len(self.records)
                with tracer.span("op"):
                    result = ops.run_op(kind, inp, tracer.span, tracer.counts)
            rec["s"] = time.perf_counter() - t0
            rec["worlds"], rec["digest"], verdict = ops.describe(kind, inp, result)
            self.verdicts.setdefault(op_id, verdict)
            if tracer is not None:
                with tracer.span("probe"):
                    ops.probe(op_id, kind, inp, result, tracer, self.seed)
        except Exception:
            rec["s"] = rec["s"] or time.perf_counter() - t0
            rec["error"] = traceback.format_exc()
            print(f"{op_id} raised:\n{rec['error']}", file=sys.stderr)
        self.records.append(rec)


def traced_run(runner: Runner, args, root: Path) -> dict:
    """One untraced cycle, the same cycle traced, then the probe ops and `ck verify`."""
    order = cycle(args.workload, root, args.seed, 0)
    for op_id in order:
        runner.run(op_id, "untraced")
    own = Tracer()
    for op_id in order:
        runner.run(op_id, "traced", own)
    probe = Tracer()
    for op_id in probe_ops(args.workload, root):
        runner.inputs.setdefault(op_id, ops.prepare(op_id, root))
        if op_id.startswith("corpus/"):
            runner.run(op_id, "untraced")  # the base of cli.overhead_s
        runner.run(op_id, "probe", probe)
    for _ in range(CLI_REPEATS):
        for threads, name in ((1, "cli.verify_s"), (2, "cli.verify_threads2_s")):
            elapsed, code = ops.cli_verify(root, threads)
            probe.samples[name].append(elapsed)
            runner.records.append({"id": f"cli/verify-threads{threads}", "pass": "cli",
                                   "s": elapsed, "worlds": 0, "digest": None,
                                   "error": None if code == 0 else f"exit code {code}"})

    layers = {**layer_metrics(probe), **layer_metrics(own)}
    untraced = [r for r in runner.records if r["pass"] == "untraced"]
    layers["cli.overhead_s"] = layers["cli.verify_s"] - sum(
        r["s"] for r in untraced if r["id"].startswith("corpus/"))
    own_ids = set(order)
    traced_s = sum(r["s"] for r in runner.records if r["pass"] == "traced")
    untraced_s = sum(r["s"] for r in untraced if r["id"] in own_ids)
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1
    write_trace(root / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json",
                {"traced": own, "probe": probe})
    return layers
