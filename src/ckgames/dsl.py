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
can be compared.  "bound" gives the value cap of a maxdiff, maxdiffatmost or
consecutive announcement, which needs one, and the cap increment "growth" of
`ck stability` (10 if left out); the other announcements take no bound.

Expectation files (.expect) are line based:

    eventual: alice=round2 bob=never carl=turn5 dora=round3+
    rounds: [NO NO NO; YES YES NO]
    turns: [NO NO YES]
    consistent: bob={2 25}

"rounds:"/"turns:" assert a prefix of the transcript and may each appear
once; "roundK+"/"turnK+" mean "learns no earlier than K"; "consistent:"
asserts the value set still possible for an agent once the run stabilizes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

from . import scenarios
from .engine import Eventual, Transcript, transcript_digest
from .scenarios import (
    Blind,
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
from .worlds import answer_str

JSON_FORMAT = 1

# The language's keywords are written down once, here: parse, _assemble and pretty
# read these tables.  Each statement's body is read by the _Parser method of its name.
_STATEMENTS = ("agents", "values", "announce", "sight", "actual", "sweep", "protocol", "bound")

# keyword -> (constraint class, the fields its text gives in order, the family its
# missing-statement errors name).  A class with an n_colors field also takes it
# from the values statement, and one with a cap field from the bound statement.
_ANNOUNCEMENTS = {
    "atleast": (HatsAtLeast, ("color", "count"), "hat"),
    "exactly": (HatsExactly, ("color", "count"), "hat"),
    "maxdiff": (MaxDiffExact, ("diff",), "maximum-difference"),
    "maxdiffatmost": (MaxDiffAtMost, ("diff",), "maximum-difference"),
    "consecutive": (ConsecutiveDistinct, (), "consecutive"),
    "sop": (SumOrProduct, ("announced",), None),
    "sumin": (SumInSet, ("sums",), None),
    "zeroone": (ZeroOne, (), None),
}

# keyword -> sight model; "blind" is followed by the names of the blind agents
_SIGHTS = {"full": Full, "blind": Blind, "nearcircle": NearCircle, "farcircle": FarCircle,
           "nearline": NearLine}


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
    offset: int


def _span(text: str, offset: int) -> SourceSpan:
    """The line and column of text[offset]; lines end at "\\n", columns count from 1."""
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1, offset)


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
    """The tokens of `text`, each with its offset only: the line and column
    of a token are worked out by _span when an error about it is raised."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "BAD":
            raise ParseError(_span(text, m.start()), f"unexpected character {m.group()!r}")
        tokens.append(Token(kind, m.group(kind), m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def error(self, tok: Token, message: str) -> ParseError:
        return ParseError(_span(self.text, tok.offset), message)

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, *texts: str) -> Token:
        """The next token, which must be of `kind` and, if texts are given, one of them."""
        tok = self.next()
        if tok.kind != kind or (texts and tok.text not in texts):
            choices = ", ".join(texts)
            want = f"one of {{{choices}}}" if len(texts) > 1 else choices or kind
            raise self.error(tok, f"expected {want}, found {tok.text or tok.kind!r}")
        return tok

    def names(self) -> list[Token]:
        """One or more names, up to the next statement keyword."""
        out = []
        while self.peek().kind == "IDENT" and self.peek().text not in _STATEMENTS:
            out.append(self.next())
        if not out:
            raise self.error(self.peek(), "expected at least one name")
        return out

    def bracketed(self, brackets: str, kinds: tuple, owner: Token, empty: str) -> list[Token]:
        """Tokens of `kinds` between two brackets; none at all is the error `empty` at `owner`."""
        self.expect("PUNCT", brackets[0])
        out = []
        while self.peek().kind in kinds:
            out.append(self.next())
        self.expect("PUNCT", brackets[1])
        if not out:
            raise self.error(owner, empty)
        return out

    # statement bodies, one per _STATEMENTS keyword; `stmt` is the keyword's token

    def agents(self, stmt: Token) -> list[Token]:
        return self.names()

    def values(self, stmt: Token) -> list[Token]:
        self.expect("PUNCT", "{")
        names = self.names()
        self.expect("PUNCT", "}")
        return names

    def announce(self, stmt: Token) -> tuple[Token, dict]:
        kind = self.expect("IDENT", *_ANNOUNCEMENTS)
        args = {}
        for field in _ANNOUNCEMENTS[kind.text][1]:
            if field == "color":
                args[field] = self.expect("IDENT")
            elif field == "sums":
                sums = self.bracketed("{}", ("INT",), kind, "sumin needs at least one sum")
                args[field] = tuple(int(t.text) for t in sums)
            else:
                args[field] = int(self.expect("INT").text)
        return kind, args

    def sight(self, stmt: Token) -> tuple[Token, Optional[list[Token]]]:
        kind = self.expect("IDENT", *_SIGHTS)
        return kind, self.names() if _SIGHTS[kind.text] is Blind else None

    def actual(self, stmt: Token) -> list[Token]:
        return self.bracketed("[]", ("IDENT", "INT"), stmt, "actual world cannot be empty")

    def sweep(self, stmt: Token) -> None:
        return None

    def protocol(self, stmt: Token) -> tuple[Token, Optional[list[Token]], int]:
        kind = self.expect("IDENT", "simultaneous", "circular")
        order = None  # only a circular protocol has one
        if kind.text == "circular":
            self.expect("IDENT", "order")
            self.expect("PUNCT", "[")
            order = self.names()
            self.expect("PUNCT", "]")
        self.expect("IDENT", "rounds")
        return kind, order, int(self.expect("INT").text)

    def bound(self, stmt: Token) -> tuple[Token, int, Optional[Token], int]:
        cap = int(self.expect("INT").text)
        word, growth = None, Scenario.growth  # the field's default
        if self.peek()[:2] == ("IDENT", "growth"):
            word = self.next()
            growth = int(self.expect("INT").text)
        return stmt, cap, word, growth


def parse(text: str) -> Scenario:
    """Parse and semantically validate one scenario.

    Only a raised ParseError or SemanticError works out a source line and
    column, from the offset its token carries."""
    p = _Parser(text)
    p.expect("IDENT", "scenario")
    name = p.expect("STRING").text
    p.expect("PUNCT", "{")
    stmts = {}  # keyword -> what its _Parser method read; sweep alone may repeat
    while p.peek()[:2] != ("PUNCT", "}"):
        stmt = p.expect("IDENT", *_STATEMENTS)
        if stmt.text in stmts and stmt.text != "sweep":
            raise p.error(stmt, f"duplicate {stmt.text} statement")
        stmts[stmt.text] = getattr(p, stmt.text)(stmt)
    p.next()
    p.expect("EOF")
    return _assemble(text, name, stmts)


def _assemble(text: str, name: str, stmts: dict) -> Scenario:
    """Check the parsed statements against each other and build the scenario."""
    top = SourceSpan(1, 1, 0)

    def at(tok: Token) -> SourceSpan:
        return _span(text, tok.offset)

    def required(keyword: str, missing: Optional[str] = None):
        if keyword not in stmts:
            raise SemanticError(top, missing or f"scenario has no {keyword} statement")
        return stmts[keyword]

    def unique(toks: list[Token], what: str) -> tuple[str, ...]:
        names = tuple(t.text for t in toks)
        if len(set(names)) != len(names):
            raise SemanticError(at(toks[0]), f"{what} names must be unique")
        return names

    def seats(toks: list[Token]) -> list[int]:
        for t in toks:
            if t.text not in index:
                raise SemanticError(at(t), f"unknown agent {t.text!r}")
        return [index[t.text] for t in toks]

    names = unique(required("agents", "scenario declares no agents"), "agent")
    index = {a: i for i, a in enumerate(names)}
    n = len(names)
    colors = unique(stmts["values"], "color") if "values" in stmts else None

    kind, args = required("announce")
    cls, _, family = _ANNOUNCEMENTS[kind.text]
    if any(f.name == "n_colors" for f in fields(cls)):
        if colors is None:
            raise SemanticError(at(kind), f"{family} announcements need a values statement")
        color = args["color"]
        if color.text not in colors:
            raise SemanticError(at(color), f"unknown color {color.text!r}")
        args.update(color=colors.index(color.text), n_colors=len(colors))
    bound, cap, word, growth = stmts.get("bound", (None, None, None, Scenario.growth))
    if scenarios.needs_cap(cls):
        if bound is None:
            raise SemanticError(at(kind), f"{family} scenarios need a bound statement")
        if growth < 1:  # a cap compared with itself or a smaller one tests nothing
            raise SemanticError(at(word), "growth must be positive")
        args["cap"] = cap
    elif bound is not None:
        raise SemanticError(at(bound), f"{kind.text} scenarios take no bound statement")
    try:
        constraint = cls(**args)
    except GenerationError as e:
        raise SemanticError(at(kind), str(e))
    if cls is ZeroOne and colors is None:
        colors = ("zero", "one")

    kind, blind = required("sight")
    sight = _SIGHTS[kind.text]() if blind is None else Blind(frozenset(seats(blind)))
    try:
        scenarios.gen_visibility(sight, n)
    except GenerationError as e:
        raise SemanticError(at(kind), str(e))

    kind, order, rounds = required("protocol")
    if rounds < 1:
        raise SemanticError(at(kind), "rounds must be positive")
    if order is None:
        protocol = Simultaneous(rounds)
    else:
        order = seats(order)
        if sorted(order) != list(range(n)):
            raise SemanticError(at(kind), "order must list every agent exactly once")
        protocol = Circular(tuple(order), rounds)

    actual = None
    world = stmts.get("actual")
    if "sweep" in stmts and world is not None:
        raise SemanticError(top, "scenario cannot have both actual and sweep")
    if "sweep" not in stmts:
        if world is None:
            raise SemanticError(top, "scenario needs an actual world or a sweep marker")
        if len(world) != n:
            raise SemanticError(at(world[0]), f"actual world has {len(world)} values for {n} agents")
        for t in world:
            if t.kind != "INT" and (colors is None or t.text not in colors):
                raise SemanticError(at(t), f"unknown value {t.text!r}")
        actual = tuple(int(t.text) if t.kind == "INT" else colors.index(t.text) for t in world)
        if not constraint.contains(actual):
            raise SemanticError(at(world[0]), "actual world violates the announced constraint")

    # every check of Scenario.validate was made above, with the span it concerns
    return Scenario(
        name=name, agents=names, constraint=constraint, sight=sight,
        protocol=protocol, actual=actual, alphabet=colors, growth=growth,
    )


def pretty(sc: Scenario) -> str:
    """Canonical text form; parse(pretty(sc)) reproduces sc."""
    lines = [f'scenario "{sc.name}" {{', "  agents " + " ".join(sc.agents)]
    if sc.alphabet is not None:
        lines.append("  values { " + " ".join(sc.alphabet) + " }")
    c = sc.constraint
    kind = next(k for k, (cls, _, _) in _ANNOUNCEMENTS.items() if type(c) is cls)
    words = [kind]
    for field in _ANNOUNCEMENTS[kind][1]:
        value = getattr(c, field)
        if field == "color":
            words.append(sc.alphabet[value])
        elif field == "sums":
            words.append("{ " + " ".join(map(str, value)) + " }")
        else:
            words.append(str(value))
    lines.append("  announce " + " ".join(words))
    s = sc.sight
    words = [next(k for k, cls in _SIGHTS.items() if type(s) is cls)]
    if isinstance(s, Blind):
        words.append(" ".join(sc.agents[i] for i in sorted(s.agents)))
    lines.append("  sight " + " ".join(words))
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
    if scenarios.needs_cap(c):
        lines.append(f"  bound {c.cap} growth {sc.growth}")
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
            "answer": answer_str(e.answer),
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


def _stripped(s: str, offset: int) -> tuple[str, int]:
    """s, which starts at `offset`, stripped, and the offset of its first non-blank (or its end)."""
    rest = s.lstrip()
    return rest.rstrip(), offset + len(s) - len(rest)


def _words(s: str, offset: int) -> list[tuple[str, int]]:
    """The blank-separated words of s, which starts at `offset`, each with its offset."""
    return [(m.group(), offset + m.start()) for m in re.finditer(r"\S+", s)]


def parse_expected(text: str) -> Expectation:
    """Read an expectation file.  A ParseError points at the word at fault, or
    at the first word of a line wrong as a whole; lines end at "\\n", as in _span."""
    eventual, consistent = [], []
    patterns = {}  # "rounds" / "turns" -> the answers it asserts; neither may repeat

    def error(offset: int, message: str) -> ParseError:
        return ParseError(_span(text, offset), message)

    def answers(row: str, offset: int) -> tuple[bool, ...]:
        words = _words(row, offset)
        for word, at in words:
            if word not in ("YES", "NO"):
                raise error(at, f"answers must be YES or NO, found {word!r}")
        if not words:  # a blank row: point at the ";" or "]" that ends it
            raise error(offset + len(row), "empty answer row")
        return tuple(word == "YES" for word, _ in words)

    line_start = 0
    for raw in text.split("\n"):
        line, at = _stripped(raw.split("#", 1)[0], line_start)
        line_start += len(raw) + 1
        if not line:
            continue
        if ":" not in line:
            raise error(at, "expected 'key: value' line")
        key, rest = line.split(":", 1)
        rest, rest_at = _stripped(rest, at + len(key) + 1)
        key = key.strip()
        if key == "eventual":
            for part, part_at in _words(rest, rest_at):
                if "=" not in part:
                    raise error(part_at, f"expected name=outcome, found {part!r}")
                name, outcome = part.split("=", 1)
                if outcome in ("never", "unknown"):
                    eventual.append((name, outcome, None, False))
                    continue
                m = _EVENTUAL_RE.match(outcome)
                if not m:
                    raise error(part_at + len(name) + 1, f"bad outcome {outcome!r}")
                unit = "round" if outcome.startswith("round") else "turn"
                eventual.append((name, unit, int(m.group(1)), m.group(2) == "+"))
        elif key in ("rounds", "turns"):
            if key in patterns:
                raise error(at, f"duplicate {key} line")
            if not (rest.startswith("[") and rest.endswith("]")):
                raise error(rest_at, f"{key} pattern must be bracketed")
            rows, row_at = [], rest_at + 1
            for row in rest[1:-1].split(";") if key == "rounds" else [rest[1:-1]]:
                rows.append(answers(row, row_at))
                row_at += len(row) + 1
            patterns[key] = tuple(rows) if key == "rounds" else rows[0]
        elif key == "consistent":
            if "=" not in rest:
                raise error(rest_at, "expected name={values}")
            name, vals = rest.split("=", 1)
            vals, vals_at = _stripped(vals, rest_at + len(name) + 1)
            if not (vals.startswith("{") and vals.endswith("}")):
                raise error(vals_at, "value set must be braced")
            toks = tuple(vals[1:-1].split())
            if not toks:
                raise error(vals_at, "empty value set")
            consistent.append((name.strip(), toks))
        else:
            raise error(at, f"unknown expectation key {key!r}")
    rounds, turns = patterns.get("rounds"), patterns.get("turns")
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
    return " ".join(map(answer_str, row))
