"""Scenario description language, expectation files, and the canonical JSON format.

Grammar (EBNF):

    scenario := "scenario" STRING "{" stmt* "}"
    stmt     := agents | values | announce | sight | actual | sweep | protocol | bound
    agents   := "agents" IDENT+
    values   := "values" "{" IDENT+ "}"
    announce := "announce" ("atleast" IDENT INT | "exactly" IDENT INT
                | "maxdiff" INT | "maxdiffatmost" INT | "consecutive"
                | "sop" INT | "sumin" "{" INT+ "}" | "zeroone")
    sight    := "sight" ("full" | "blind" IDENT+ | "nearcircle" | "farcircle" | "nearline")
    actual   := "actual" "[" (IDENT | INT)+ "]"
    sweep    := "sweep"
    protocol := "protocol" ("simultaneous" | "circular" "order" "[" IDENT+ "]") "rounds" INT
    bound    := "bound" INT ("growth" INT)?

Comments run from "#" to end of line; whitespace is insignificant.  Agent
names map to seat indices in declaration order; color names map to value
codes in declaration order.  "maxdiffatmost" is the at-most reading of the
maximum-difference announcement, kept alongside the exact reading so the two
can be compared.

Expectation files (.expect) are line based:

    eventual: alice=round2 bob=never carl=turn5 dora=round3+
    rounds: [NO NO NO; YES YES NO]
    turns: [NO NO YES]
    consistent: bob={2 25}

"rounds:"/"turns:" assert a prefix of the transcript; "roundK+"/"turnK+"
mean "learns no earlier than K"; "consistent:" asserts the value set still
possible for an agent once the run stabilizes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import scenarios
from .engine import Eventual, Transcript, transcript_digest
from .scenarios import (
    Blind,
    BoundConfig,
    Circular,
    ConsecutiveDistinct,
    FarCircle,
    Full,
    GenerationError,
    HatsAtLeast,
    HatsExactly,
    MaxDiffAtMost,
    MaxDiffExact,
    NearCircle,
    NearLine,
    Scenario,
    Simultaneous,
    SumInSet,
    SumOrProduct,
    ZeroOne,
)

JSON_FORMAT = 1


class SourceSpan(NamedTuple):
    line: int
    column: int
    offset: int

    def __str__(self):
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class SemanticError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class Token(NamedTuple):
    kind: str  # IDENT INT STRING PUNCT EOF
    text: str
    span: SourceSpan


# whitespace and comments match no named group and are skipped; a character
# no token starts with is BAD, and the empty match at the end of the text is EOF
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]+
  | \#[^\n]*
  | "(?P<STRING>[^"\n]*)"
  | (?P<INT>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT>[{}\[\]])
  | (?P<BAD>.)
  | (?P<EOF>\Z)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start, counted = 1, 0, 0  # the line and line start of text[counted]
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        pos = m.start()
        newlines = text.count("\n", counted, pos)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, pos) + 1
        counted = pos
        span = SourceSpan(line, pos - line_start + 1, pos)
        if kind == "BAD":
            raise ParseError(span, f"unexpected character {text[pos]!r}")
        tokens.append(Token(kind, m.group(kind), span))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(tok.span, f"expected {want}, found {tok.text or tok.kind!r}")
        return tok

    def keyword(self, *options: str) -> Token:
        tok = self.next()
        if tok.kind != "IDENT" or tok.text not in options:
            raise ParseError(
                tok.span, f"expected one of {{{', '.join(options)}}}, found {tok.text or tok.kind!r}"
            )
        return tok

    def int_value(self) -> int:
        return int(self.expect("INT").text)

    RESERVED = frozenset(
        ("agents", "values", "announce", "sight", "actual", "sweep", "protocol", "bound")
    )

    def ident_list(self) -> list[Token]:
        out = []
        while self.peek().kind == "IDENT" and self.peek().text not in self.RESERVED:
            out.append(self.next())
        if not out:
            raise ParseError(self.peek().span, "expected at least one name")
        return out


def parse(text: str) -> Scenario:
    """Parse and semantically validate one scenario."""
    p = _Parser(text)
    p.expect("IDENT", "scenario")
    name = p.expect("STRING").text
    p.expect("PUNCT", "{")

    agents: Optional[list[Token]] = None
    alphabet: Optional[list[Token]] = None
    announce = None  # (kind, payload, span)
    sight = None
    actual_tokens = None
    sweep_marker = False
    protocol = None
    bound = None

    def only_once(value, tok):
        if value is not None:
            raise ParseError(tok.span, f"duplicate {tok.text} statement")

    while True:
        tok = p.peek()
        if tok.kind == "PUNCT" and tok.text == "}":
            p.next()
            break
        stmt = p.keyword(
            "agents", "values", "announce", "sight", "actual", "sweep", "protocol", "bound"
        )
        if stmt.text == "agents":
            only_once(agents, stmt)
            agents = p.ident_list()
        elif stmt.text == "values":
            only_once(alphabet, stmt)
            p.expect("PUNCT", "{")
            alphabet = p.ident_list()
            p.expect("PUNCT", "}")
        elif stmt.text == "announce":
            only_once(announce, stmt)
            kind = p.keyword(
                "atleast", "exactly", "maxdiff", "maxdiffatmost", "consecutive",
                "sop", "sumin", "zeroone",
            )
            if kind.text in ("atleast", "exactly"):
                color = p.expect("IDENT")
                count = p.int_value()
                announce = (kind.text, (color, count), kind.span)
            elif kind.text in ("maxdiff", "maxdiffatmost"):
                announce = (kind.text, p.int_value(), kind.span)
            elif kind.text in ("consecutive", "zeroone"):
                announce = (kind.text, None, kind.span)
            elif kind.text == "sop":
                announce = ("sop", p.int_value(), kind.span)
            else:
                p.expect("PUNCT", "{")
                sums = []
                while p.peek().kind == "INT":
                    sums.append(p.int_value())
                p.expect("PUNCT", "}")
                if not sums:
                    raise ParseError(kind.span, "sumin needs at least one sum")
                announce = ("sumin", tuple(sums), kind.span)
        elif stmt.text == "sight":
            only_once(sight, stmt)
            kind = p.keyword("full", "blind", "nearcircle", "farcircle", "nearline")
            if kind.text == "blind":
                sight = ("blind", p.ident_list(), kind.span)
            else:
                sight = (kind.text, None, kind.span)
        elif stmt.text == "actual":
            only_once(actual_tokens, stmt)
            p.expect("PUNCT", "[")
            actual_tokens = []
            while p.peek().kind in ("IDENT", "INT"):
                actual_tokens.append(p.next())
            p.expect("PUNCT", "]")
            if not actual_tokens:
                raise ParseError(stmt.span, "actual world cannot be empty")
        elif stmt.text == "sweep":
            sweep_marker = True
        elif stmt.text == "protocol":
            only_once(protocol, stmt)
            kind = p.keyword("simultaneous", "circular")
            order = None
            if kind.text == "circular":
                p.expect("IDENT", "order")
                p.expect("PUNCT", "[")
                order = p.ident_list()
                p.expect("PUNCT", "]")
            p.expect("IDENT", "rounds")
            rounds = p.int_value()
            protocol = (kind.text, order, rounds, kind.span)
        else:  # bound
            only_once(bound, stmt)
            cap = p.int_value()
            growth = 10
            if p.peek().kind == "IDENT" and p.peek().text == "growth":
                p.next()
                growth = p.int_value()
            bound = (cap, growth, stmt.span)
    p.expect("EOF")

    return _assemble(
        name, agents, alphabet, announce, sight, actual_tokens, sweep_marker, protocol, bound,
        SourceSpan(1, 1, 0),
    )


def _assemble(name, agents, alphabet, announce, sight, actual_tokens, sweep_marker,
              protocol, bound, top_span) -> Scenario:
    if agents is None:
        raise SemanticError(top_span, "scenario declares no agents")
    names = tuple(t.text for t in agents)
    if len(set(names)) != len(names):
        raise SemanticError(agents[0].span, "agent names must be unique")
    index = {t.text: i for i, t in enumerate(agents)}
    n = len(names)

    colors = None
    if alphabet is not None:
        colors = tuple(t.text for t in alphabet)
        if len(set(colors)) != len(colors):
            raise SemanticError(alphabet[0].span, "color names must be unique")

    if announce is None:
        raise SemanticError(top_span, "scenario has no announce statement")
    kind, payload, a_span = announce
    bound_cfg = BoundConfig(bound[0], bound[1]) if bound else None
    if kind in ("atleast", "exactly"):
        if colors is None:
            raise SemanticError(a_span, "hat announcements need a values statement")
        color_tok, count = payload
        if color_tok.text not in colors:
            raise SemanticError(color_tok.span, f"unknown color {color_tok.text!r}")
        cls = HatsAtLeast if kind == "atleast" else HatsExactly
        constraint = cls(colors.index(color_tok.text), count, len(colors))
    elif kind in ("maxdiff", "maxdiffatmost"):
        if bound_cfg is None:
            raise SemanticError(a_span, "maximum-difference scenarios need a bound statement")
        cls = MaxDiffExact if kind == "maxdiff" else MaxDiffAtMost
        try:
            constraint = cls(payload, bound_cfg.cap)
        except GenerationError as e:
            raise SemanticError(a_span, str(e))
    elif kind == "consecutive":
        if bound_cfg is None:
            raise SemanticError(a_span, "consecutive scenarios need a bound statement")
        constraint = ConsecutiveDistinct(bound_cfg.cap)
    elif kind == "sop":
        constraint = SumOrProduct(payload)
    elif kind == "sumin":
        constraint = SumInSet(payload)
    else:
        constraint = ZeroOne()
        if colors is None:
            colors = ("zero", "one")

    if sight is None:
        raise SemanticError(top_span, "scenario has no sight statement")
    s_kind, s_payload, s_span = sight
    if s_kind == "blind":
        blind = []
        for t in s_payload:
            if t.text not in index:
                raise SemanticError(t.span, f"unknown agent {t.text!r}")
            blind.append(index[t.text])
        sight_model = Blind(frozenset(blind))
    else:
        sight_model = {
            "full": Full(), "nearcircle": NearCircle(),
            "farcircle": FarCircle(), "nearline": NearLine(),
        }[s_kind]
    try:
        scenarios.gen_visibility(sight_model, n)
    except GenerationError as e:
        raise SemanticError(s_span, str(e))

    if protocol is None:
        raise SemanticError(top_span, "scenario has no protocol statement")
    p_kind, order_toks, rounds, p_span = protocol
    if rounds < 1:
        raise SemanticError(p_span, "rounds must be positive")
    if p_kind == "simultaneous":
        proto = Simultaneous(rounds)
    else:
        if order_toks is None:
            raise SemanticError(p_span, "circular protocol needs an order clause")
        order = []
        for t in order_toks:
            if t.text not in index:
                raise SemanticError(t.span, f"unknown agent {t.text!r}")
            order.append(index[t.text])
        if sorted(order) != list(range(n)):
            raise SemanticError(p_span, "order must list every agent exactly once")
        proto = Circular(tuple(order), rounds)

    actual = None
    if sweep_marker and actual_tokens is not None:
        raise SemanticError(top_span, "scenario cannot have both actual and sweep")
    if not sweep_marker:
        if actual_tokens is None:
            raise SemanticError(top_span, "scenario needs an actual world or a sweep marker")
        if len(actual_tokens) != n:
            raise SemanticError(
                actual_tokens[0].span,
                f"actual world has {len(actual_tokens)} values for {n} agents",
            )
        values = []
        for t in actual_tokens:
            if t.kind == "INT":
                values.append(int(t.text))
            else:
                if colors is None or t.text not in colors:
                    raise SemanticError(t.span, f"unknown value {t.text!r}")
                values.append(colors.index(t.text))
        actual = tuple(values)
        if not constraint.contains(actual):
            raise SemanticError(
                actual_tokens[0].span, "actual world violates the announced constraint"
            )

    sc = Scenario(
        name=name, agents=names, constraint=constraint, sight=sight_model,
        protocol=proto, actual=actual, alphabet=colors, bound=bound_cfg,
    )
    try:
        sc.validate()
    except GenerationError as e:
        raise SemanticError(top_span, str(e))
    return sc


def pretty(sc: Scenario) -> str:
    """Canonical text form; parse(pretty(sc)) reproduces sc."""
    lines = [f'scenario "{sc.name}" {{']
    lines.append("  agents " + " ".join(sc.agents))
    c = sc.constraint
    if sc.alphabet is not None:
        lines.append("  values { " + " ".join(sc.alphabet) + " }")
    if isinstance(c, HatsAtLeast):
        lines.append(f"  announce atleast {sc.alphabet[c.color]} {c.count}")
    elif isinstance(c, HatsExactly):
        lines.append(f"  announce exactly {sc.alphabet[c.color]} {c.count}")
    elif isinstance(c, MaxDiffExact):
        lines.append(f"  announce maxdiff {c.diff}")
    elif isinstance(c, MaxDiffAtMost):
        lines.append(f"  announce maxdiffatmost {c.diff}")
    elif isinstance(c, ConsecutiveDistinct):
        lines.append("  announce consecutive")
    elif isinstance(c, SumOrProduct):
        lines.append(f"  announce sop {c.announced}")
    elif isinstance(c, SumInSet):
        lines.append("  announce sumin { " + " ".join(str(s) for s in c.sums) + " }")
    else:
        lines.append("  announce zeroone")
    s = sc.sight
    if isinstance(s, Blind):
        lines.append("  sight blind " + " ".join(sc.agents[i] for i in sorted(s.agents)))
    else:
        word = {Full: "full", NearCircle: "nearcircle", FarCircle: "farcircle", NearLine: "nearline"}
        lines.append("  sight " + word[type(s)])
    p = sc.protocol
    if isinstance(p, Simultaneous):
        lines.append(f"  protocol simultaneous rounds {p.max_rounds}")
    else:
        order = " ".join(sc.agents[i] for i in p.order)
        lines.append(f"  protocol circular order [ {order} ] rounds {p.max_rounds}")
    if sc.actual is None:
        lines.append("  sweep")
    else:
        lines.append("  actual [ " + " ".join(sc.value_label(v) for v in sc.actual) + " ]")
    if sc.bound is not None:
        lines.append(f"  bound {sc.bound.cap} growth {sc.bound.growth}")
    lines.append("}")
    return "\n".join(lines) + "\n"


class ReadError(Exception):
    """A source file could not be read as UTF-8 text (missing, a directory, bad bytes, ...)."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ReadError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e
    except OSError as e:
        raise ReadError(str(e)) from e


def parse_file(path: str) -> Scenario:
    return parse(_read(path))


# ---------------------------------------------------------------------------
# canonical JSON


def transcript_to_dict(t: Transcript, alphabet: Optional[tuple[str, ...]] = None) -> dict:
    def label(v: int):
        if alphabet is not None and 0 <= v < len(alphabet):
            return alphabet[v]
        return v

    events = [
        {
            "round": e.round,
            "turn": e.turn,
            "agent": t.agents[e.agent],
            "answer": "YES" if e.answer else "NO",
            "state_size": e.state_size,
        }
        for e in t.events
    ]
    eventual = {}
    for i, ev in enumerate(t.eventual):
        if ev.kind == "learns":
            eventual[t.agents[i]] = {"kind": "learns", "round": ev.round, "turn": ev.turn}
        else:
            eventual[t.agents[i]] = {"kind": ev.kind}
    return {
        "format": JSON_FORMAT,
        "scenario": t.scenario,
        "protocol": t.protocol,
        "agents": list(t.agents),
        "initial_size": t.initial_size,
        "events": events,
        "eventual": eventual,
        "stabilized_at": t.stabilized_at,
        "final_candidates": {
            t.agents[i]: [label(v) for v in vals]
            for i, vals in enumerate(t.final_candidates)
        },
        "digest": transcript_digest(t.events),
    }


def serialize_transcript(t: Transcript, alphabet: Optional[tuple[str, ...]] = None) -> str:
    """Canonical JSON: sorted keys, no floats, byte-stable across runs."""
    return json.dumps(transcript_to_dict(t, alphabet), sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# expectation files


@dataclass(frozen=True)
class Expectation:
    eventual: tuple[tuple[str, str, Optional[int], bool], ...]  # (name, kind, k, at_least)
    rounds: Optional[tuple[tuple[bool, ...], ...]]
    turns: Optional[tuple[bool, ...]]
    consistent: tuple[tuple[str, tuple[str, ...]], ...]  # (name, value tokens)


_EVENTUAL_RE = re.compile(r"^(?:round|turn)(\d+)(\+?)$")


def parse_expected(text: str) -> Expectation:
    eventual = []
    rounds = None
    turns = None
    consistent = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        span = SourceSpan(lineno, 1, 0)
        if ":" not in line:
            raise ParseError(span, "expected 'key: value' line")
        key, rest = line.split(":", 1)
        key = key.strip()
        rest = rest.strip()
        if key == "eventual":
            for part in rest.split():
                if "=" not in part:
                    raise ParseError(span, f"expected name=outcome, found {part!r}")
                name, outcome = part.split("=", 1)
                if outcome in ("never", "unknown"):
                    eventual.append((name, outcome, None, False))
                    continue
                m = _EVENTUAL_RE.match(outcome)
                if not m:
                    raise ParseError(span, f"bad outcome {outcome!r}")
                unit = "round" if outcome.startswith("round") else "turn"
                eventual.append((name, unit, int(m.group(1)), m.group(2) == "+"))
        elif key in ("rounds", "turns"):
            if not (rest.startswith("[") and rest.endswith("]")):
                raise ParseError(span, f"{key} pattern must be bracketed")
            body = rest[1:-1].strip()
            def parse_row(row_text):
                toks = row_text.split()
                vals = []
                for tk in toks:
                    if tk not in ("YES", "NO"):
                        raise ParseError(span, f"answers must be YES or NO, found {tk!r}")
                    vals.append(tk == "YES")
                if not vals:
                    raise ParseError(span, "empty answer row")
                return tuple(vals)
            if key == "rounds":
                rounds = tuple(parse_row(r) for r in body.split(";"))
            else:
                turns = parse_row(body)
        elif key == "consistent":
            if "=" not in rest:
                raise ParseError(span, "expected name={values}")
            name, vals = rest.split("=", 1)
            vals = vals.strip()
            if not (vals.startswith("{") and vals.endswith("}")):
                raise ParseError(span, "value set must be braced")
            toks = tuple(vals[1:-1].split())
            if not toks:
                raise ParseError(span, "empty value set")
            consistent.append((name.strip(), toks))
        else:
            raise ParseError(span, f"unknown expectation key {key!r}")
    return Expectation(tuple(eventual), rounds, turns, tuple(consistent))


def parse_expected_file(path: str) -> Expectation:
    return parse_expected(_read(path))


def match_expectation(
    exp: Expectation, t: Transcript, alphabet: Optional[tuple[str, ...]] = None
) -> list[str]:
    """Compare a transcript against an expectation; returns mismatch lines."""
    problems = []
    index = {name: i for i, name in enumerate(t.agents)}

    for name, kind, k, at_least in exp.eventual:
        if name not in index:
            problems.append(f"unknown agent {name!r} in expectation")
            continue
        got = t.eventual[index[name]]
        if kind in ("never", "unknown"):
            if got.kind != kind:
                problems.append(f"{name}: expected {kind}, got {_describe(got)}")
            continue
        if got.kind != "learns":
            problems.append(f"{name}: expected {kind} {k}, got {_describe(got)}")
            continue
        value = got.round if kind == "round" else got.turn
        ok = value >= k if at_least else value == k
        if not ok:
            rel = ">=" if at_least else "=="
            problems.append(f"{name}: expected {kind} {rel} {k}, got {kind} {value}")

    if exp.rounds is not None:
        got_rounds = t.answers_by_round()
        for i, row in enumerate(exp.rounds):
            if i >= len(got_rounds):
                problems.append(f"expected at least {len(exp.rounds)} rounds, got {len(got_rounds)}")
                break
            if len(row) != len(t.agents):
                problems.append(f"round {i+1}: pattern width {len(row)} != {len(t.agents)} agents")
                break
            if got_rounds[i] != row:
                problems.append(
                    f"round {i+1}: expected {_row(row)}, got {_row(got_rounds[i])}"
                )

    if exp.turns is not None:
        got_turns = tuple(t.answers_by_turn())
        want = exp.turns
        if got_turns[: len(want)] != want:
            problems.append(
                f"turns: expected prefix {_row(want)}, got {_row(got_turns[:len(want)])}"
            )

    for name, value_toks in exp.consistent:
        if name not in index:
            problems.append(f"unknown agent {name!r} in expectation")
            continue
        want = set()
        for tok in value_toks:
            if tok.isdigit():
                want.add(int(tok))
            elif alphabet is not None and tok in alphabet:
                want.add(alphabet.index(tok))
            else:
                problems.append(f"unknown value {tok!r} in expectation")
        got = set(t.final_candidates[index[name]])
        if got != want:
            problems.append(
                f"{name}: consistent values expected {sorted(want)}, got {sorted(got)}"
            )
    return problems


def _describe(e: Eventual) -> str:
    if e.kind == "learns":
        return f"round {e.round} turn {e.turn}"
    return e.kind


def _row(row) -> str:
    return " ".join("YES" if a else "NO" for a in row)
