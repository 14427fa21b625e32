"""Command-line front end: run scenarios, verify fixtures, sweep families, check caps.

Exit codes: 0 success, 1 verification or stability failure, 2 usage or parse
error.  Results go to stdout, diagnostics (with file:line:col spans) to
stderr.  JSON output is canonical and byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import dsl, engine, scenarios, worlds

OK, FAIL, USAGE = 0, 1, 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ck", description="Model checker for common-knowledge announcement games."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and print its transcript")
    p_run.add_argument("path")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--max-rounds", type=int, default=None, help="override the horizon")

    p_verify = sub.add_parser("verify", help="run every .ck/.expect pair in a directory")
    p_verify.add_argument("dir")
    p_verify.add_argument("--slow", action="store_true", help="include *.slow.ck fixtures")
    p_verify.add_argument(
        "--timings", action="store_true",
        help="print each fixture's wall time and the path its run took "
        "(profiles, materialized or blocks; see engine.run_path) to stderr",
    )

    p_sweep = sub.add_parser("sweep", help="run every world of a family (sweep marker)")
    p_sweep.add_argument("path")
    p_sweep.add_argument("--orbit", action="store_true", help="merge rotation classes")

    p_stab = sub.add_parser("stability", help="compare a capped run against a larger cap")
    p_stab.add_argument("path")
    p_stab.add_argument("--growth", type=int, default=None,
                        help="cap increment (default: the bound statement's growth, else 10)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_stability(args)
    except (dsl.ParseError, dsl.SemanticError) as e:
        print(f"{getattr(args, 'path', getattr(args, 'dir', '?'))}:{e}", file=sys.stderr)
        return USAGE
    except (dsl.ReadError, worlds.ContractViolation, scenarios.GenerationError, engine.EngineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE


def _load(path: str, max_rounds=None) -> scenarios.Scenario:
    sc = dsl.parse_file(path)
    if max_rounds is not None:
        sc = replace(sc, protocol=replace(sc.protocol, max_rounds=max_rounds))
    return sc


def cmd_run(args) -> int:
    sc = _load(args.path, args.max_rounds)
    if sc.actual is None:
        print(f"error: {args.path} has a sweep marker; use 'ck sweep'", file=sys.stderr)
        return USAGE
    transcript = engine.run(sc)
    if args.format == "json":
        sys.stdout.write(dsl.serialize_transcript(transcript, sc.alphabet))
    else:
        _print_transcript(sc, transcript)
    return OK


def _print_transcript(sc: scenarios.Scenario, t: engine.Transcript) -> None:
    print(f"scenario: {t.scenario}")
    print(f"protocol: {t.protocol}   worlds: {t.initial_size}")
    if t.protocol == "simultaneous":
        width = max(5, *(len(a) for a in t.agents))
        header = "round  " + "  ".join(a.ljust(width) for a in t.agents) + "  worlds"
        print(header)
        sizes = {e.round: e.state_size for e in t.events}
        for rnd, row in enumerate(t.answers_by_round(), start=1):
            cells = "  ".join(worlds.answer_str(a).ljust(width) for a in row)
            print(f"{rnd:<5}  {cells}  {sizes[rnd]}")
    else:
        print("turn  round  speaker  answer  worlds")
        for e in t.events:
            print(
                f"{e.turn:<4}  {e.round:<5}  {t.agents[e.agent]:<7}  "
                f"{worlds.answer_str(e.answer):<6}  {e.state_size}"
            )
    parts = []
    for i, ev in enumerate(t.eventual):
        if ev.kind == "learns":
            unit = f"round{ev.round}" if t.protocol == "simultaneous" else f"turn{ev.turn}"
            parts.append(f"{t.agents[i]}={unit}")
        else:
            parts.append(f"{t.agents[i]}={ev.kind}")
    print("eventual: " + " ".join(parts))
    if t.stabilized_at is not None:
        print(f"stabilized after round {t.stabilized_at}")
    else:
        print("horizon reached without stabilizing")


def cmd_verify(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return USAGE
    fixtures = sorted(root.glob("*.ck"))
    if not args.slow:
        fixtures = [f for f in fixtures if not f.name.endswith(".slow.ck")]
    if not fixtures:
        print(f"error: no fixtures found in {args.dir}", file=sys.stderr)
        return USAGE

    failed = malformed = 0
    for path in fixtures:
        start = time.perf_counter()
        expect_path = path.with_suffix(".expect")
        problems = None  # set here when the fixture cannot be checked at all
        mode = "not run"
        try:
            if not expect_path.exists():
                problems = [f"missing expectation file {expect_path.name}"]
            else:
                sc = dsl.parse_file(str(path))
                exp = dsl.parse_expected_file(str(expect_path))
                if sc.actual is None:
                    problems = ["fixture has a sweep marker; verify needs an actual world"]
                else:
                    transcript = engine.run(sc)
                    if args.timings:
                        mode = engine.run_path(sc, sc.visibility())
        except (dsl.ParseError, dsl.SemanticError) as e:
            problems = [f"parse error: {e}"]
        except (dsl.ReadError, worlds.ContractViolation, scenarios.GenerationError, engine.EngineError) as e:
            problems = [f"error: {e}"]
        if problems is None:
            problems = dsl.match_expectation(exp, transcript, sc.alphabet)
            failed += bool(problems)
        else:
            malformed += 1
        print(f"{'FAIL' if problems else 'PASS'}  {path.name}")
        for p in problems:
            print(f"      {p}", file=sys.stderr)
        if args.timings:
            print(f"time  {path.name}  {time.perf_counter() - start:.4f} s  {mode}", file=sys.stderr)
    total = len(fixtures)
    print(f"{total - failed - malformed}/{total} fixtures passed")
    if malformed:
        return USAGE
    return FAIL if failed else OK


def cmd_sweep(args) -> int:
    sc = _load(args.path)
    if sc.actual is not None:
        print(f"error: {args.path} fixes an actual world; replace it with 'sweep'", file=sys.stderr)
        return USAGE
    report = engine.sweep(sc, orbit="rotation" if args.orbit else None)
    lo = report.min_learners()
    label = sc.value_label
    print(f"scenario: {sc.name}   configurations: {len(report.rows)}")
    print("configuration  learners  agents  min")
    for row in report.rows:
        world = " ".join(label(v) for v in row.world)
        learner_names = ",".join(sc.agents[i] for i in sorted(row.learners)) or "-"
        flag = "  *" if len(row.learners) == lo else ""
        print(f"[{world}]  {len(row.learners)}  {learner_names}{flag}")
    print(f"minimum learners: {lo}")
    return OK


def cmd_stability(args) -> int:
    sc = _load(args.path)
    if sc.actual is None:
        print(f"error: {args.path} has a sweep marker; stability needs an actual world", file=sys.stderr)
        return USAGE
    if not scenarios.needs_cap(sc.constraint):
        print("error: scenario takes no cap; stability does not apply", file=sys.stderr)
        return USAGE
    growth = args.growth if args.growth is not None else sc.growth
    cap = sc.constraint.cap
    ok = engine.stability_check(sc, growth)
    print(f"cap {cap} vs {cap + growth}: {'stable' if ok else 'UNSTABLE'}")
    return OK if ok else FAIL


if __name__ == "__main__":
    sys.exit(main())
