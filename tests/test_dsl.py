"""Parsing, canonical printing, JSON serialization, and expectation matching."""

import json
from pathlib import Path

import pytest

from ckgames import dsl
from ckgames.dsl import ParseError, SemanticError, parse, parse_expected, pretty
from ckgames.engine import run
from ckgames.scenarios import Circular, HatsAtLeast, Simultaneous, SumOrProduct

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
''')
    assert ("alice", "never", None, False) in exp.eventual
    assert ("dee", "round", 3, True) in exp.eventual
    assert exp.rounds == ((False, False), (True, False))
    assert exp.consistent == (("bob", ("2", "25")),)


def test_parse_expected_malformed():
    with pytest.raises(ParseError):
        parse_expected("rounds: [MAYBE NO]")
    with pytest.raises(ParseError):
        parse_expected("eventual: alice=sometimes")


def test_match_expectation():
    sc = parse(INTRO)
    t = run(sc)
    good = parse_expected("eventual: alice=round1 bob=round2\nrounds: [YES NO NO]")
    assert dsl.match_expectation(good, t, sc.alphabet) == []
    wrong = parse_expected("eventual: alice=round2")
    problems = dsl.match_expectation(wrong, t, sc.alphabet)
    assert len(problems) == 1
    at_least = parse_expected("eventual: bob=round2+ charlie=round1+")
    assert dsl.match_expectation(at_least, t, sc.alphabet) == []


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
