"""Exit codes, output formats, and the fixture verification gate."""

import hashlib
import json
from pathlib import Path

import pytest

from ckgames import engine, scenarios
from ckgames.cli import main
from ckgames.engine import EngineError
from ckgames.scenarios import GenerationError
from ckgames.worlds import ContractViolation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SWEEPS = Path(__file__).resolve().parent.parent / "sweeps"


def test_run_text(capsys):
    assert main(["run", str(FIXTURES / "intro_two_reds.ck")]) == 0
    out = capsys.readouterr().out
    assert "round" in out and "eventual:" in out
    assert "charlie=round3" in out


def test_run_text_of_a_circular_protocol(capsys):
    # one line per turn, then who learned when
    assert main(["run", str(FIXTURES / "circular_red_last.ck")]) == 0
    assert capsys.readouterr().out == """\
scenario: circular-red-last
protocol: circular   worlds: 15
turn  round  speaker  answer  worlds
1     1      kevin    NO      14
2     1      armaan   NO      12
3     1      bella    NO      8
4     1      cory     YES     8
5     2      kevin    NO      8
6     2      armaan   NO      8
7     2      bella    NO      8
8     2      cory     YES     8
eventual: kevin=never armaan=never bella=never cory=turn4
stabilized after round 2
"""


def test_run_json_byte_identical(capsys):
    assert main(["run", str(FIXTURES / "sop_puzzle13_circular.ck"), "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["run", str(FIXTURES / "sop_puzzle13_circular.ck"), "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["final_candidates"]["bob"] == [2, 25]


def test_run_missing_file(capsys):
    assert main(["run", str(FIXTURES / "nope.ck")]) == 2


def test_run_parse_error_span(tmp_path, capsys):
    bad = tmp_path / "broken.ck"
    bad.write_text('scenario "x" {\n  agents a b\n  announce bogus 3\n}\n')
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "3:" in err


def test_verify_full_corpus(capsys):
    assert main(["verify", str(FIXTURES)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "line10_puzzle8.slow.ck" not in out  # slow fixture excluded by default


def test_verify_reports_mismatch(tmp_path, capsys):
    (tmp_path / "w.ck").write_text((FIXTURES / "intro_one_red.ck").read_text())
    (tmp_path / "w.expect").write_text("eventual: alice=round2\n")
    assert main(["verify", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "expected" in captured.err


@pytest.mark.parametrize("error", [ContractViolation, GenerationError, EngineError])
def test_verify_isolates_a_failing_fixture(tmp_path, capsys, monkeypatch, error):
    text = (FIXTURES / "intro_two_reds.ck").read_text()
    for name in ("bad", "good"):
        (tmp_path / f"{name}.ck").write_text(text.replace("intro-two-reds", name))
        (tmp_path / f"{name}.expect").write_text((FIXTURES / "intro_two_reds.expect").read_text())
    # the parser turns its own checks into SemanticError, so the failure is
    # injected where a scenario the checks miss would raise it: in engine.run
    real_run = engine.run

    def run(sc):
        if sc.name == "bad":
            raise error("injected failure")
        return real_run(sc)

    monkeypatch.setattr(engine, "run", run)
    assert main(["verify", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "FAIL  bad.ck" in captured.out
    assert "PASS  good.ck" in captured.out
    assert "1/2 fixtures passed" in captured.out
    assert "injected failure" in captured.err


@pytest.mark.parametrize("argv", [
    ["run", str(FIXTURES / "intro_two_reds.ck")],
    ["stability", str(FIXTURES / "puzzle9_two_consecutive.ck")],
    ["sweep", str(SWEEPS / "emperor10.ck")],
])
def test_contract_violation_is_a_clean_refusal(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise ContractViolation("injected violation")

    monkeypatch.setattr(engine, "run", fail)  # stability_check runs through engine.run
    monkeypatch.setattr(engine, "sweep", fail)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: injected violation" in err
    assert "Traceback" not in err


def test_verify_timings_go_to_stderr_only(tmp_path, capsys, monkeypatch):
    # one fixture passes, one fails its expectation, one has no expectation;
    # with a budget of 5 worlds blind_red_circular (7 worlds) starts on block profiles,
    # nearsighted_sim_n4 (4 worlds) is held and intro_two_reds, a full-sight
    # simultaneous game, is played over block profiles whatever its size
    for name in ("blind_red_circular", "intro_two_reds", "nearsighted_sim_n4"):
        (tmp_path / f"{name}.ck").write_text((FIXTURES / f"{name}.ck").read_text())
    for name in ("blind_red_circular", "nearsighted_sim_n4"):
        (tmp_path / f"{name}.expect").write_text((FIXTURES / f"{name}.expect").read_text())
    (tmp_path / "intro_two_reds.expect").write_text("eventual: alice=round2\n")
    (tmp_path / "lone.ck").write_text((FIXTURES / "intro_one_red.ck").read_text())
    monkeypatch.setattr(engine, "STREAM_THRESHOLD", 5)
    plain = main(["verify", str(tmp_path)]), capsys.readouterr()
    timed = main(["verify", str(tmp_path), "--timings"]), capsys.readouterr()
    assert plain[0] == timed[0] == 2
    assert timed[1].out == plain[1].out
    times = [line.split() for line in timed[1].err.splitlines() if line.startswith("time  ")]
    assert [(t[1], t[3], t[4:]) for t in times] == [
        ("blind_red_circular.ck", "s", ["blocks"]), ("intro_two_reds.ck", "s", ["profiles"]),
        ("lone.ck", "s", ["not", "run"]), ("nearsighted_sim_n4.ck", "s", ["materialized"]),
    ]
    assert all(float(t[2]) >= 0 for t in times)
    rest = [line for line in timed[1].err.splitlines() if not line.startswith("time  ")]
    assert rest == plain[1].err.splitlines()


def test_verify_timings_name_the_path_of_each_run(tmp_path, capsys):
    for name in ("puzzle11_pattern", "line5_scaled"):
        for suffix in (".ck", ".expect"):
            (tmp_path / (name + suffix)).write_text((FIXTURES / (name + suffix)).read_text())
    assert main(["verify", str(tmp_path), "--timings"]) == 0
    times = [line.split() for line in capsys.readouterr().err.splitlines() if line.startswith("time  ")]
    assert [(t[1], t[4:]) for t in times] == [
        ("line5_scaled.ck", ["materialized"]), ("puzzle11_pattern.ck", ["profiles"]),
    ]


def test_verify_isolates_fixtures_that_fail_to_parse(tmp_path, capsys):
    ck, expect = ((FIXTURES / f"intro_one_red{suffix}").read_text() for suffix in (".ck", ".expect"))
    fixtures = {
        "a_syntax": (ck.replace("announce atleast red 1", "announce atleast red 1 {"), expect),
        "b_semantic": (ck.replace("values { red blue }", "values { red blue red }"), expect),
        "c_expect": (ck, expect.splitlines()[0] + "\nbogus: 3\n"),
        "d_good": (ck, expect),
    }
    for name, (scenario, expectation) in fixtures.items():
        (tmp_path / f"{name}.ck").write_text(scenario)
        (tmp_path / f"{name}.expect").write_text(expectation)
    assert main(["verify", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "FAIL  a_syntax.ck\nFAIL  b_semantic.ck\nFAIL  c_expect.ck\nPASS  d_good.ck\n1/4 fixtures passed\n"
    )
    assert captured.err.splitlines() == [
        "      parse error: 5:26: expected one of {agents, values, announce, sight, actual, sweep, protocol, bound},"
        " found '{'",
        "      parse error: 4:12: color names must be unique",
        "      parse error: 2:1: unknown expectation key 'bogus'",
    ]


def test_verify_refuses_a_file(capsys):
    path = FIXTURES / "intro_one_red.ck"
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {path} is not a directory\n"


def test_verify_empty_dir(tmp_path):
    assert main(["verify", str(tmp_path)]) == 2


def test_verify_reports_a_missing_expectation(tmp_path, capsys):
    (tmp_path / "lone.ck").write_text((FIXTURES / "intro_one_red.ck").read_text())
    assert main(["verify", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "FAIL  lone.ck\n0/1 fixtures passed\n"
    assert "missing expectation file lone.expect" in captured.err


def test_verify_refuses_a_sweep_marker(tmp_path, capsys):
    (tmp_path / "family.ck").write_text((SWEEPS / "emperor10.ck").read_text())
    (tmp_path / "family.expect").write_text("eventual: p1=round1\n")
    assert main(["verify", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "FAIL  family.ck\n0/1 fixtures passed\n"
    assert "fixture has a sweep marker; verify needs an actual world" in captured.err


def _unreadable(tmp_path, kind, name):
    """A file that is not UTF-8 text, or a directory, at tmp_path / name."""
    path = tmp_path / name
    if kind == "bytes":
        path.write_bytes(b"\xff\xfe\x00scenario")
    else:
        path.mkdir()
    return path


def test_verify_goes_on_past_unreadable_fixtures(tmp_path, capsys):
    ok = (FIXTURES / "intro_one_red.ck").read_text()
    expect = (FIXTURES / "intro_one_red.expect").read_text()
    _unreadable(tmp_path, "bytes", "a.ck")
    (tmp_path / "a.expect").write_text(expect)
    _unreadable(tmp_path, "dir", "b.ck")
    (tmp_path / "b.expect").write_text(expect)
    (tmp_path / "c.ck").write_text(ok)
    _unreadable(tmp_path, "bytes", "c.expect")
    (tmp_path / "d.ck").write_text(ok)
    (tmp_path / "d.expect").write_text(expect)
    assert main(["verify", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "FAIL  a.ck\nFAIL  b.ck\nFAIL  c.ck\nPASS  d.ck\n1/4 fixtures passed\n"
    assert captured.err.count("error: ") == 3 and "not UTF-8 text" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", ["bytes", "dir"])
@pytest.mark.parametrize("command", ["run", "sweep", "stability"])
def test_unreadable_scenario_is_a_clean_refusal(tmp_path, capsys, command, kind):
    path = _unreadable(tmp_path, kind, "x.ck")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err


def test_sweep_requires_marker(capsys):
    assert main(["sweep", str(FIXTURES / "intro_one_red.ck")]) == 2


@pytest.mark.parametrize("orbit", [[], ["--orbit"]])
def test_sweep_of_an_empty_universe_is_a_clean_refusal(tmp_path, capsys, orbit):
    text = (SWEEPS / "emperor10.ck").read_text()
    empty = text.replace("agents p1 p2 p3 p4 p5 p6 p7 p8 p9 p10", "agents p1 p2 p3")
    (tmp_path / "empty.ck").write_text(empty.replace("exactly red 3", "exactly red 5"))
    assert main(["sweep", str(tmp_path / "empty.ck")] + orbit) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no world satisfies the announcement" in captured.err


def test_sweep_refuses_a_family_above_the_stream_threshold(capsys, monkeypatch):
    # emperor10 has C(10, 3) = 120 worlds; the refusal comes from the count alone
    monkeypatch.setattr(engine, "STREAM_THRESHOLD", 119)
    monkeypatch.setattr(scenarios.Scenario, "universe", lambda self: pytest.fail("built a refused universe"))
    assert main(["sweep", str(SWEEPS / "emperor10.ck")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family has 120 worlds, more than the 119 a sweep may hold\n"


@pytest.mark.parametrize("protocol, message", [
    ("simultaneous rounds 4", "1540 worlds need at least 1540 block profiles over 5 blocks, more than the limit of 300"),
    ("circular order [ aidan josh c d e ] rounds 4", "1540 worlds need at least 420 block profiles over 3 blocks, more than the limit of 300"),
], ids=["simultaneous", "circular"])
def test_run_refuses_a_block_cell_past_the_materialize_limit(tmp_path, capsys, monkeypatch, protocol, message):
    # line5's 1,540 worlds on block profiles, with at most 300 profiles to a cell
    text = (FIXTURES / "line5_scaled.ck").read_text()
    text = text.replace("circular order [ aidan josh c d e ] rounds 4", protocol).replace("[ 1 10 1 1 1 ]", "[ 3 3 2 2 2 ]")
    (tmp_path / "line5.ck").write_text(text)
    monkeypatch.setattr(engine, "STREAM_THRESHOLD", 100)
    monkeypatch.setattr(scenarios, "MATERIALIZE_LIMIT", 300)
    assert main(["run", str(tmp_path / "line5.ck")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sweep_emperor(capsys):
    assert main(["sweep", str(SWEEPS / "emperor10.ck"), "--orbit"]) == 0
    out = capsys.readouterr().out
    assert "minimum learners: 8" in out


# sha256 of the stdout of `ck sweep`, recorded before sweeps of rotation-symmetric
# games refined one cell per rotation orbit, and hats_sim7's before full-sight
# simultaneous sweeps were played on value profiles; consecutive4 has orbits whose
# members learn differently, so --orbit refuses it with exit 2 and prints nothing
SWEEP_STDOUT = {
    ("consecutive4", False): (0, "f389fb6c3ad9bdfe03ac4c29ec4b94952087cda19cf9dfc18ca6ee092b353b37"),
    ("consecutive4", True): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("emperor10", False): (0, "ba104311b54aea46613798c723af3360972350bdb23cef48e9a19224e151097a"),
    ("emperor10", True): (0, "9a67035a9f8a7999de1e22fb4faa55493900230012946e4211ee52cb585986da"),
    ("hats_sim7", False): (0, "26bbe91499b88d67a01ce0b463a80623bfd8baae460b6c1bca665bc7d7cba803"),
    ("hats_sim7", True): (0, "f89bc41714c40f64a5596a1b5a1c439060cdf99261c1ec7d10ebdb099dcea770"),
}


@pytest.mark.parametrize("name,orbit", sorted(SWEEP_STDOUT))
def test_sweep_stdout_is_pinned(capsys, name, orbit):
    code = main(["sweep", str(SWEEPS / f"{name}.ck")] + (["--orbit"] if orbit else []))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == SWEEP_STDOUT[name, orbit]


def test_run_rejects_sweep_scenario(capsys):
    assert main(["run", str(SWEEPS / "emperor10.ck")]) == 2


def test_stability_pass(capsys):
    assert main(["stability", str(FIXTURES / "puzzle9_two_consecutive.ck")]) == 0
    assert "stable" in capsys.readouterr().out


def test_stability_fail_tiny_cap(tmp_path, capsys):
    text = (FIXTURES / "puzzle9_two_consecutive.ck").read_text()
    tiny = text.replace("bound 20 growth 10", "bound 4 growth 16")
    (tmp_path / "tiny.ck").write_text(tiny)
    assert main(["stability", str(tmp_path / "tiny.ck")]) == 1


@pytest.mark.parametrize("growth", ["0", "-3"])
def test_stability_refuses_a_cap_that_does_not_grow(capsys, growth):
    assert main(["stability", str(FIXTURES / "puzzle9_two_consecutive.ck"), "--growth", growth]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err


def test_stability_refuses_a_bound_with_no_growth(tmp_path, capsys):
    text = (FIXTURES / "puzzle9_two_consecutive.ck").read_text()
    (tmp_path / "flat.ck").write_text(text.replace("bound 20 growth 10", "bound 20 growth 0"))
    for command in ("run", "stability"):  # refused at the growth word, whatever the command
        assert main([command, str(tmp_path / "flat.ck")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{tmp_path / 'flat.ck'}:") and "growth must be positive" in captured.err


def test_stability_refuses_a_sweep_marker(capsys):
    path = SWEEPS / "consecutive4.ck"  # a capped family, so the marker is what is refused
    assert main(["stability", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} has a sweep marker; stability needs an actual world\n"


def test_stability_rejects_capless(capsys):
    assert main(["stability", str(FIXTURES / "sop_puzzle13_circular.ck")]) == 2


def test_max_rounds_override(capsys):
    assert main(["run", str(FIXTURES / "intro_two_reds.ck"), "--max-rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "horizon reached" in out


def test_a_horizon_of_no_rounds_is_refused(capsys):
    assert main(["run", str(FIXTURES / "intro_two_reds.ck"), "--max-rounds", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: max_rounds must be positive\n"
