"""Parsing, canonical printing, JSON serialization, and expectation matching."""

import json
import re
from pathlib import Path

import pytest

from ckgames import dsl, scenarios
from ckgames.dsl import ParseError, SemanticError, parse, parse_expected, pretty
from ckgames.engine import run
from ckgames.scenarios import Circular, HatsAtLeast, MaxDiffExact, Simultaneous, SumOrProduct

INTRO = '''
# the three shrewd sages
scenario "intro" {
  agents alice bob charlie
  values { red blue }
  announce atleast red 1
  sight full
  protocol simultaneous rounds 5
  actual [ red blue blue ]
}
'''


def test_parse_intro():
    sc = parse(INTRO)
    assert sc.name == "intro"
    assert sc.agents == ("alice", "bob", "charlie")
    assert sc.alphabet == ("red", "blue")
    assert sc.constraint == HatsAtLeast(0, 1, 2)
    assert sc.protocol == Simultaneous(5)
    assert sc.actual == (0, 1, 1)
    assert len(sc.universe()) == 7


def test_a_parse_and_its_run_build_one_sight_graph(monkeypatch):
    built = []
    real = scenarios.VisibilityGraph
    monkeypatch.setattr(scenarios, "VisibilityGraph", lambda sees: built.append(sees) or real(sees))
    scenarios.gen_visibility.cache_clear()
    run(parse(INTRO))
    assert len(built) == 1


def test_parse_rejects_constraint_violation():
    bad = INTRO.replace("red blue blue", "blue blue blue")
    with pytest.raises(SemanticError):
        parse(bad)


def test_parse_sop_circular():
    sc = parse('''
scenario "fifty" {
  agents alice bob
  announce sop 50
  sight full
  protocol circular order [ alice bob ] rounds 8
  actual [ 25 25 ]
}
''')
    assert sc.constraint == SumOrProduct(50)
    assert sc.protocol == Circular((0, 1), 8)
    assert sc.actual == (25, 25)
    assert len(sc.universe()) == 55


def test_parse_syntax_error_span():
    with pytest.raises(ParseError) as err:
        parse('scenario "x" { agents a b\n  announce sop }')
    assert err.value.span.line == 2


def test_error_spans_after_comments_and_multiline_whitespace():
    # a comment ending a line, blank and indented lines, and CRLF line ends
    # before the offending token; columns count from 1 after the last newline
    text = 'scenario "x" { # note { } [ ]\n\n   \t\n  agents a b # two\r\n\r\n\t  announce sop ?'
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.span.line, err.value.span.column) == (6, 17)
    assert err.value.span.offset == text.index("?")
    assert str(err.value) == "6:17: unexpected character '?'"
    # the end of the text, after a trailing comment and blank lines
    with pytest.raises(ParseError) as err:
        parse('scenario "x" {\n  agents a b # last\n\n  ')
    assert str(err.value).startswith("4:3: expected one of {agents, ")
    assert str(err.value).endswith(", found 'EOF'")
    # a semantic error points at the token that names it, after a comment
    with pytest.raises(SemanticError) as err:
        parse('scenario "x" {\n  # agents a a\n  agents b\n     b\n'
              '  announce sop 6 sight full protocol simultaneous rounds 2 actual [ 1 6 ] }')
    assert str(err.value).startswith("3:10: ")


_STATEMENTS_OK = {
    "agents": "  agents a b c\n",
    "values": "  values { red blue }\n",
    "announce": "  announce atleast red 1\n",
    "sight": "  sight full\n",
    "protocol": "  protocol simultaneous rounds 3\n",
    "actual": "  actual [ red blue blue ]\n",
}


def _scenario(**replaced):
    """A valid scenario, one statement a line, with some statements replaced."""
    body = "".join(replaced.get(k, v) for k, v in _STATEMENTS_OK.items())
    return 'scenario "x" {\n' + body + "}\n"


# one input per diagnostic the parser can give (tokenizer, syntax and
# semantic checks), each with its error type, "line:col: message" and offset
_DIAGNOSTICS = {
    "bad_character": (_scenario(agents="  agents a ? c\n"),
                      ParseError, "2:12: unexpected character '?'", 26),
    "expect_word": ('scenarios "x" {}', ParseError, "1:1: expected scenario, found 'scenarios'", 0),
    "expect_string": ("scenario x {}", ParseError, "1:10: expected STRING, found 'x'", 9),
    "expect_brace": ('scenario "x" agents a b', ParseError, "1:14: expected {, found 'agents'", 13),
    "statement_keyword": (
        _scenario(agents="  agent a b c\n"), ParseError,
        "2:3: expected one of {agents, values, announce, sight, actual, sweep, protocol, bound},"
        " found 'agent'", 17),
    "announce_keyword": (
        _scenario(announce="  announce most red 1\n"), ParseError,
        "4:12: expected one of {atleast, exactly, maxdiff, maxdiffatmost, consecutive, sop,"
        " sumin, zeroone}, found 'most'", 63),
    "sight_keyword": (
        _scenario(sight="  sight partial\n"), ParseError,
        "5:9: expected one of {full, blind, nearcircle, farcircle, nearline}, found 'partial'", 85),
    "protocol_keyword": (
        _scenario(protocol="  protocol random rounds 3\n"), ParseError,
        "6:12: expected one of {simultaneous, circular}, found 'random'", 101),
    "empty_name_list": (_scenario(agents="  agents\n"), ParseError,
                        "3:3: expected at least one name", 26),
    "duplicate": (_scenario(sight="  sight full\n  sight blind a\n"), ParseError,
                  "6:3: duplicate sight statement", 92),
    "empty_sumin": (
        _scenario(values="", announce="  announce sumin { }\n", actual="  actual [ 1 2 3 ]\n"),
        ParseError, "3:12: sumin needs at least one sum", 41),
    "empty_actual": (_scenario(actual="  actual [ ]\n"), ParseError,
                     "7:3: actual world cannot be empty", 125),
    "expect_int": (_scenario(announce="  announce atleast red many\n"), ParseError,
                   "4:24: expected INT, found 'many'", 75),
    "expect_eof": (_scenario() + "extra\n", ParseError, "9:1: expected EOF, found 'extra'", 152),
    "expect_order": (_scenario(protocol="  protocol circular rounds 3\n"), ParseError,
                     "6:21: expected order, found 'rounds'", 110),
    "expect_growth_int": (
        _scenario(values="", announce="  announce consecutive\n  bound 9 growth\n",
                  actual="  actual [ 1 2 3 ]\n"),
        ParseError, "5:3: expected INT, found 'sight'", 72),
    "no_agents": (_scenario(agents=""), SemanticError, "1:1: scenario declares no agents", 0),
    "duplicate_agent": (_scenario(agents="  agents a b a\n"), SemanticError,
                        "2:10: agent names must be unique", 24),
    "duplicate_color": (_scenario(values="  values { red blue red }\n"), SemanticError,
                        "3:12: color names must be unique", 41),
    "no_announce": (_scenario(announce=""), SemanticError,
                    "1:1: scenario has no announce statement", 0),
    "hats_need_values": (_scenario(values="", actual="  actual [ 0 1 1 ]\n"), SemanticError,
                         "3:12: hat announcements need a values statement", 41),
    "unknown_color": (_scenario(announce="  announce exactly green 1\n"), SemanticError,
                      "4:20: unknown color 'green'", 71),
    "maxdiff_needs_bound": (
        _scenario(values="", announce="  announce maxdiff 1\n", actual="  actual [ 1 2 2 ]\n"),
        SemanticError, "3:12: maximum-difference scenarios need a bound statement", 41),
    "atmost_needs_bound": (
        _scenario(values="", announce="  announce maxdiffatmost 1\n", actual="  actual [ 1 2 2 ]\n"),
        SemanticError, "3:12: maximum-difference scenarios need a bound statement", 41),
    "cap_below_diff": (
        _scenario(values="", announce="  announce maxdiffatmost 5\n  bound 3\n",
                  actual="  actual [ 1 2 2 ]\n"),
        SemanticError, "3:12: cap must be at least the required difference", 41),
    "bound_on_uncapped": (
        _scenario(announce="  announce atleast red 1\n  bound 9 growth 3\n"), SemanticError,
        "5:3: atleast scenarios take no bound statement", 79),
    "growth_positive": (
        _scenario(values="", announce="  announce maxdiff 1\n  bound 9 growth 0\n",
                  actual="  actual [ 1 2 2 ]\n"),
        SemanticError, "4:11: growth must be positive", 61),
    "consecutive_needs_bound": (
        _scenario(values="", announce="  announce consecutive\n", actual="  actual [ 1 2 3 ]\n"),
        SemanticError, "3:12: consecutive scenarios need a bound statement", 41),
    "no_sight": (_scenario(sight=""), SemanticError, "1:1: scenario has no sight statement", 0),
    "blind_unknown_agent": (_scenario(sight="  sight blind a zed\n"), SemanticError,
                            "5:17: unknown agent 'zed'", 93),
    "sight_needs_more_agents": (
        _scenario(agents="  agents a b\n", sight="  sight nearcircle\n",
                  actual="  actual [ red blue ]\n"),
        SemanticError, "5:9: a circle needs at least 3 agents", 83),
    "no_protocol": (_scenario(protocol=""), SemanticError,
                    "1:1: scenario has no protocol statement", 0),
    "rounds_positive": (_scenario(protocol="  protocol simultaneous rounds 0\n"), SemanticError,
                        "6:12: rounds must be positive", 101),
    "order_unknown_agent": (
        _scenario(protocol="  protocol circular order [ a b zed ] rounds 3\n"), SemanticError,
        "6:33: unknown agent 'zed'", 122),
    "order_every_agent": (
        _scenario(protocol="  protocol circular order [ a b a ] rounds 3\n"), SemanticError,
        "6:12: order must list every agent exactly once", 101),
    "actual_and_sweep": (_scenario(actual="  sweep\n  actual [ red blue blue ]\n  sweep\n"),
                         SemanticError, "1:1: scenario cannot have both actual and sweep", 0),
    "no_actual_or_sweep": (_scenario(actual=""), SemanticError,
                           "1:1: scenario needs an actual world or a sweep marker", 0),
    "actual_length": (_scenario(actual="  actual [ red blue ]\n"), SemanticError,
                      "7:12: actual world has 2 values for 3 agents", 134),
    "unknown_value": (_scenario(actual="  actual [ red blue green ]\n"), SemanticError,
                      "7:21: unknown value 'green'", 143),
    "actual_violates": (_scenario(actual="  actual [ blue blue blue ]\n"), SemanticError,
                        "7:12: actual world violates the announced constraint", 134),
    # CRLF line ends: lines count "\n", columns count from the character after it
    "crlf_bad_character": (
        _scenario(actual="  actual [ red ? blue ]\n").replace("\n", "\r\n"), ParseError,
        "7:16: unexpected character '?'", 144),
    "crlf_semantic": (
        _scenario(announce="  announce exactly green 1\n").replace("\n", "\r\n"), SemanticError,
        "4:20: unknown color 'green'", 74),
    "eof_after_comment": (
        'scenario "x" {\n  agents a b c # the sages\n# no closing brace', ParseError,
        "3:19: expected one of {agents, values, announce, sight, actual, sweep, protocol, bound},"
        " found 'EOF'", 60),
    # with several errors: a bad character anywhere comes first, then the
    # first syntax error, then the semantic checks in the order listed above
    "bad_character_first": (_scenario(agents="  agents\n", actual="  actual [ red ? ]\n"),
                            ParseError, "7:16: unexpected character '?'", 132),
    "syntax_before_semantic": (
        _scenario(agents="  agents a a\n", sight="  sight full full\n"), ParseError,
        "5:14: expected one of {agents, values, announce, sight, actual, sweep, protocol, bound},"
        " found 'full'", 88),
    "duplicate_before_its_body": (
        _scenario(sight="  sight full\n  sight 7\n"), ParseError, "6:3: duplicate sight statement", 92),
    "sight_before_protocol": (
        _scenario(sight="  sight blind zed\n", protocol="  protocol simultaneous rounds 0\n",
                  actual=""),
        SemanticError, "5:15: unknown agent 'zed'", 91),
}


@pytest.mark.parametrize("case", list(_DIAGNOSTICS))
def test_every_diagnostic_keeps_its_type_text_and_span(case):
    text, error, expected, offset = _DIAGNOSTICS[case]
    with pytest.raises((ParseError, SemanticError)) as err:
        parse(text)
    assert type(err.value) is error
    assert str(err.value) == expected
    assert str(err.value) == f"{err.value.span}: {err.value.message}"
    assert err.value.span.offset == offset


def test_parse_unknown_agent_in_order():
    with pytest.raises(SemanticError):
        parse('''
scenario "x" {
  agents a b
  announce sop 6
  sight full
  protocol circular order [ a zed ] rounds 4
  actual [ 2 3 ]
}
''')


def test_parse_missing_bound_for_maxdiff():
    with pytest.raises(SemanticError):
        parse('''
scenario "x" {
  agents a b
  announce maxdiff 1
  sight full
  protocol simultaneous rounds 4
  actual [ 2 3 ]
}
''')


def test_roundtrip_identity():
    fixtures = [
        INTRO,
        '''
scenario "cons" {
  agents p q r
  announce consecutive
  sight full
  protocol circular order [ q p r ] rounds 9
  sweep
  bound 9 growth 6
}
''',
        '''
scenario "blind" {
  agents a b c
  values { red blue }
  announce exactly red 1
  sight blind b
  protocol simultaneous rounds 3
  actual [ blue red blue ]
}
''',
    ]
    for text in fixtures:
        sc = parse(text)
        assert parse(pretty(sc)) == sc


@pytest.mark.parametrize("bound,growth", [("bound 9", 10), ("bound 9 growth 4", 4)])
def test_bound_gives_the_constraint_its_cap_and_the_scenario_its_growth(bound, growth):
    sc = parse('scenario "md" { agents a b announce maxdiff 1 sight full '
               f'protocol simultaneous rounds 4 actual [ 2 3 ] {bound} }}')
    assert sc.constraint == MaxDiffExact(1, 9)
    assert sc.growth == growth
    assert f"  bound 9 growth {growth}\n" in pretty(sc)
    assert parse(pretty(sc)) == sc


@pytest.mark.parametrize("values", ["", "  values { lo hi }\n"])
def test_roundtrip_keeps_the_zeroone_alphabet(values):
    sc = parse(f'''
scenario "bits" {{
  agents a b c
{values}  announce zeroone
  sight full
  protocol simultaneous rounds 4
  actual [ 0 1 1 ]
}}
''')
    assert sc.alphabet == (("lo", "hi") if values else ("zero", "one"))
    assert parse(pretty(sc)) == sc


def test_serialize_canonical_and_stable():
    sc = parse(INTRO)
    t = run(sc)
    one = dsl.serialize_transcript(t, sc.alphabet)
    two = dsl.serialize_transcript(run(sc), sc.alphabet)
    assert one == two
    data = json.loads(one)
    assert data["format"] == 1
    assert data["events"][0] == {
        "agent": "alice", "answer": "YES", "round": 1, "state_size": 1, "turn": 1}
    # canonical form round-trips byte-identically
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n" == one


def test_parse_expected_forms():
    exp = parse_expected('''
# comment
eventual: alice=never bob=round2 cara=turn4 dee=round3+
rounds: [NO NO; YES NO]
consistent: bob={2 25}
eventual: erin=unknown
''')
    assert ("alice", "never", None, False) in exp.eventual
    assert ("dee", "round", 3, True) in exp.eventual
    assert exp.eventual[-1] == ("erin", "unknown", None, False)  # eventual lines may repeat
    assert exp.rounds == ((False, False), (True, False))
    assert exp.consistent == (("bob", ("2", "25")),)


def test_parse_expected_malformed():
    with pytest.raises(ParseError):
        parse_expected("rounds: [MAYBE NO]")
    with pytest.raises(ParseError):
        parse_expected("eventual: alice=sometimes")


# one input per diagnostic parse_expected can give, each with "line:col: message"
# and offset; a span points at the word at fault, or at a wrong line's first word
_EXPECT_DIAGNOSTICS = {
    "no_colon": ("  rounds [YES]", "1:3: expected 'key: value' line", 2),
    "name_outcome": ("eventual: alice=never bob", "1:23: expected name=outcome, found 'bob'", 22),
    "bad_outcome": ("eventual: alice=sometimes", "1:17: bad outcome 'sometimes'", 16),
    "unbracketed": ("turns: YES NO", "1:8: turns pattern must be bracketed", 7),
    "yes_or_no": ("rounds: [YES NO; NO MAYBE]", "1:21: answers must be YES or NO, found 'MAYBE'", 20),
    "empty_row": ("rounds: [YES NO; ]", "1:18: empty answer row", 17),
    "duplicate_rounds": ("rounds: [YES NO]\nrounds: [NO NO]", "2:1: duplicate rounds line", 17),
    "duplicate_turns": ("turns: [NO] # a note\n  turns: [YES]", "2:3: duplicate turns line", 23),
    "consistent_equals": ("consistent: bob {2 25}", "1:13: expected name={values}", 12),
    "consistent_braces": ("consistent: bob=2 25", "1:17: value set must be braced", 16),
    "consistent_empty": ("consistent: bob={ }", "1:17: empty value set", 16),
    "unknown_key": ("eventual: a=never\n  during: x", "2:3: unknown expectation key 'during'", 20),
    # CRLF line ends, and a comment line, before the word at fault
    "crlf": ("eventual: a=never\r\nrounds: [YES\tMAYBE]\r\n",
             "2:14: answers must be YES or NO, found 'MAYBE'", 32),
    "after_comment": ("# c\neventual: a=round1\n  rounds: [YES MAYBE]",
                      "3:16: answers must be YES or NO, found 'MAYBE'", 38),
}


@pytest.mark.parametrize("case", list(_EXPECT_DIAGNOSTICS))
def test_every_expectation_diagnostic_keeps_its_text_and_span(case):
    text, expected, offset = _EXPECT_DIAGNOSTICS[case]
    with pytest.raises(ParseError) as err:
        parse_expected(text)
    assert type(err.value) is ParseError
    assert str(err.value) == expected
    assert err.value.span.offset == offset


# each mismatch match_expectation reports, against the intro run: alice learns in
# round 1, bob and charlie in round 2; rounds [YES NO NO; YES YES YES]; the final
# values are red (0) for alice and blue (1) for bob and charlie
_INTRO_MISMATCHES = {
    "eventual: alice=round1 bob=round2\nrounds: [YES NO NO]": [],
    "eventual: bob=round2+ charlie=round1+": [],
    "eventual: alice=round2": ["alice: expected round == 2, got round 1"],
    "rounds: [YES NO NO; YES NO YES]": ["round 2: expected YES NO YES, got YES YES YES"],
    "rounds: [YES NO NO; YES YES YES; YES YES YES]": ["expected at least 3 rounds, got 2"],
    "rounds: [YES NO]": ["round 1: pattern width 2 != 3 agents"],
    "turns: [YES NO NO YES]": [],
    "turns: [YES NO YES]": ["turns: expected prefix YES NO YES, got YES NO NO"],
    "eventual: alice=never bob=unknown": [
        "alice: expected never, got round 1 turn 1", "bob: expected unknown, got round 2 turn 2"],
    "eventual: dora=round1 alice=round1": ["unknown agent 'dora' in expectation"],
    "consistent: dora={1}": ["unknown agent 'dora' in expectation"],
    "consistent: bob={green}": ["unknown value 'green' in expectation", "bob: consistent values expected [], got [1]"],
    "consistent: bob={blue}\nconsistent: alice={red}": [],
    "consistent: bob={red}": ["bob: consistent values expected [0], got [1]"],
}


def test_match_expectation():
    sc = parse(INTRO)
    t = run(sc)
    for text, problems in _INTRO_MISMATCHES.items():
        assert dsl.match_expectation(parse_expected(text), t, sc.alphabet) == problems, text
    # the other direction: a learner expected where the run says never or unknown
    circular = dsl.parse_file(str(Path(__file__).resolve().parent.parent / "fixtures" / "circular_red_last.ck"))
    assert dsl.match_expectation(parse_expected("eventual: kevin=turn1 cory=turn4"), run(circular)) == [
        "kevin: expected turn 1, got never"
    ]
    short = run(parse(INTRO.replace("rounds 5", "rounds 1")))  # bob has not learned by the horizon
    assert dsl.match_expectation(parse_expected("eventual: bob=round2 charlie=never"), short) == [
        "bob: expected round 2, got unknown", "charlie: expected never, got unknown"
    ]
    # without the alphabet, a value name is not a value
    assert dsl.match_expectation(parse_expected("consistent: alice={red}"), short) == [
        "unknown value 'red' in expectation", "alice: consistent values expected [], got [0]"
    ]


def test_every_shipped_scenario_parses_and_is_consistent():
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "fixtures").glob("*.ck")) + sorted((root / "sweeps").glob("*.ck"))
    assert paths
    for path in paths:
        sc = dsl.parse_file(str(path))
        assert parse(pretty(sc)) == sc, path.name
        if sc.actual is not None:
            assert sc.constraint.contains(sc.actual), path.name
            if sc.constraint.count_worlds(sc.n_agents) <= 100_000:
                assert sc.actual in sc.universe(), path.name


def test_match_consistent_values():
    sc = parse('''
scenario "fifty" {
  agents alice bob
  announce sop 50
  sight full
  protocol circular order [ alice bob ] rounds 8
  actual [ 25 25 ]
}
''')
    t = run(sc)
    exp = parse_expected("consistent: bob={2 25}\nconsistent: alice={25}")
    assert dsl.match_expectation(exp, t) == []
    bad = parse_expected("consistent: bob={25}")
    assert len(dsl.match_expectation(bad, t)) == 1


def _production(name):
    """The right-hand side of one production of the grammar in dsl's docstring."""
    m = re.search(rf"^ *{name} +:=(.*?)(?=^ *\w+ +:=|\n\n)", dsl.__doc__, re.M | re.S)
    return m.group(1)


def test_grammar_and_readme_name_every_keyword():
    # the keyword tables are the language; the docstring's grammar lists the
    # same keywords in the same order, and the README names every one a user writes
    assert re.findall(r"\w+", _production("stmt")) == list(dsl._STATEMENTS)
    assert re.findall(r'"(\w+)"', _production("announce")) == ["announce", *dsl._ANNOUNCEMENTS]
    assert re.findall(r'"(\w+)"', _production("sight")) == ["sight", *dsl._SIGHTS]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    for keyword in [*dsl._ANNOUNCEMENTS, *dsl._SIGHTS]:
        assert re.search(rf"`{keyword}\b", section), keyword
