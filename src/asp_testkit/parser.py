"""Parser for the ASP subset plus the inline annotation language.

Input files are UTF-8 text. Statements are terminated by `.`:

    rule        :  h1 | ... | hl [ :- body ] .
    constraint  :  :- body .
    weak        :  :~ body . [COST@LEVEL]
    body        :  literal, literal, ...
    literal     :  [not] atom | term OP term | #count{t,... : atom} OP term

Comments: `%` to end of line and `%* ... *%`. Annotations live in `%** ... **%`
blocks and carry `@rule`, `@block` and `@test` entries; see the repo docs for
the full attribute grammar. Annotations are inert for plain execution:
stripping every `%** ... **%` block leaves the same program.

Errors carry 1-based line/column positions inside the offending text. Parsing
recovers at statement boundaries so several errors can be reported at once.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, fields
from typing import Callable, Optional

from .model import (
    ASSERTION_CLASSES,
    Assertion,
    Atom,
    Comparison,
    Constant,
    CountAggregate,
    Integer,
    Literal,
    Program,
    Rule,
    Span,
    TestSpec,
    TestSuite,
    Variable,
    WeakConstraint,
    unbound_variables,
)

ERROR_KINDS = (
    "lexical",
    "syntactic",
    "annotation",
    "safety",
    "duplicate-name",
    "dangling-reference",
)


@dataclass(frozen=True)
class ParseError:
    message: str
    line: int
    column: int
    kind: str

    def render(self, path: str = "") -> str:
        where = f"{path}:{self.line}:{self.column}" if path else f"{self.line}:{self.column}"
        return f"{where}: {self.kind}: {self.message}"


class ParseFailure(Exception):
    """Raised by parse_unit when the input has errors; carries all of them."""

    def __init__(self, path: str, errors: list[ParseError]):
        self.path = path
        self.errors = errors
        super().__init__("; ".join(e.render(path) for e in errors[:4]))


@dataclass(frozen=True)
class SourceUnit:
    path: str
    text: str
    program: Program
    suite: TestSuite


class _Issue(Exception):
    """Internal: a single recoverable parse problem."""

    def __init__(self, message: str, offset: int, kind: str = "syntactic"):
        self.message = message
        self.offset = offset
        self.kind = kind
        super().__init__(message)


class _LineIndex:
    def __init__(self, text: str):
        self.text = text
        self.starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.starts.append(i + 1)

    def position(self, offset: int) -> tuple[int, int]:
        offset = max(0, min(offset, len(self.text)))
        line = bisect.bisect_right(self.starts, offset) - 1
        return line + 1, offset - self.starts[line] + 1

    def error(self, issue: _Issue) -> ParseError:
        # end-of-input errors land on the last character, keeping positions
        # inside the text
        offset = issue.offset
        if self.text and offset >= len(self.text):
            offset = len(self.text) - 1
        line, col = self.position(offset)
        return ParseError(issue.message, line, col, issue.kind)

    def span(self, path: str, offset: int) -> Span:
        line, col = self.position(offset)
        return Span(path, line, col)


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # ident, var, int, punct, count, not, annot, str, eof
    value: object
    offset: int


_PUNCT = (":-", ":~", "<=", ">=", "<>", "!=", "<", ">", "=", ".", ",",
          "(", ")", "{", "}", "[", "]", "|", ":", "-", "@")

_CANONICAL_OP = {"<>": "!=", "=": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_CMP_TOKENS = ("=", "<>", "!=", "<", "<=", ">", ">=")


def _is_digit(ch: str) -> bool:
    """ASCII 0-9 only: `str.isdigit` also accepts digits such as '²' that
    `int()` rejects."""
    return "0" <= ch <= "9"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _classify_word(word: str) -> str:
    """Identifiers starting lowercase (possibly after underscores) name
    predicates/constants; an uppercase start (possibly after underscores)
    or a bare underscore run names a variable."""
    stripped = word.lstrip("_")
    if not stripped:
        return "var"
    if stripped[0].isupper():
        return "var"
    if stripped[0].isdigit() and stripped == word:
        return "int"
    return "ident"


def _scan_program(text: str, collect_annotations: bool = True) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "%":
            if text.startswith("%**", i):
                end = text.find("**%", i + 3)
                if end < 0:
                    raise _Issue("unterminated annotation block (missing '**%')", i, "lexical")
                if collect_annotations:
                    tokens.append(_Token("annot", (text[i + 3:end], i + 3), i))
                i = end + 3
                continue
            if text.startswith("%*", i):
                end = text.find("*%", i + 2)
                if end < 0:
                    raise _Issue("unterminated comment (missing '*%')", i, "lexical")
                i = end + 2
                continue
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if _is_digit(ch):
            j = i
            while j < n and _is_digit(text[j]):
                j += 1
            tokens.append(_Token("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            if word == "not":
                tokens.append(_Token("not", word, i))
            else:
                tokens.append(_Token(_classify_word(word), word, i))
            i = j
            continue
        if ch == "#":
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            if word != "#count":
                raise _Issue(f"unsupported directive {word!r} (only #count is accepted)", i, "lexical")
            tokens.append(_Token("count", word, i))
            i = j
            continue
        for sym in _PUNCT:
            if text.startswith(sym, i):
                tokens.append(_Token("punct", sym, i))
                i += len(sym)
                break
        else:
            raise _Issue(f"unexpected character {ch!r}", i, "lexical")
    tokens.append(_Token("eof", None, n))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, *symbols: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value in symbols

    def take_punct(self, *symbols: str) -> Optional[_Token]:
        if self.at_punct(*symbols):
            return self.next()
        return None

    def expect_punct(self, symbol: str, what: str = "") -> _Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == symbol:
            return self.next()
        detail = f" {what}" if what else ""
        raise _Issue(f"expected {symbol!r}{detail}, found {_show(tok)}", tok.offset)


def _show(tok: _Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    if tok.kind == "annot":
        return "annotation block"
    return repr(tok.value)


# ---------------------------------------------------------------------------
# Program statements
# ---------------------------------------------------------------------------

def _parse_term(ts: _TokenStream):
    tok = ts.peek()
    if tok.kind == "int":
        ts.next()
        return Integer(tok.value)
    if tok.kind == "punct" and tok.value == "-":
        ts.next()
        num = ts.peek()
        if num.kind != "int":
            raise _Issue(f"expected integer after '-', found {_show(num)}", num.offset)
        ts.next()
        return Integer(-num.value)
    if tok.kind == "ident":
        ts.next()
        return Constant(tok.value)
    if tok.kind == "var":
        ts.next()
        return Variable(tok.value)
    raise _Issue(f"expected a term, found {_show(tok)}", tok.offset)


def _parse_atom(ts: _TokenStream) -> Atom:
    tok = ts.peek()
    if tok.kind != "ident":
        raise _Issue(f"expected an atom, found {_show(tok)}", tok.offset)
    ts.next()
    args: list = []
    if ts.take_punct("("):
        args.append(_parse_term(ts))
        while ts.take_punct(","):
            args.append(_parse_term(ts))
        ts.expect_punct(")", "to close the argument list")
    return Atom(tok.value, tuple(args))


def _take_cmp_op(ts: _TokenStream) -> Optional[str]:
    tok = ts.peek()
    if tok.kind == "punct" and tok.value in _CMP_TOKENS:
        ts.next()
        return _CANONICAL_OP[tok.value]
    return None


def _parse_aggregate(ts: _TokenStream) -> CountAggregate:
    ts.next()  # the #count token
    ts.expect_punct("{", "after #count")
    terms = [_parse_term(ts)]
    while ts.take_punct(","):
        terms.append(_parse_term(ts))
    ts.expect_punct(":", "between the tuple and the condition atom")
    condition = _parse_atom(ts)
    ts.expect_punct("}", "to close the aggregate")
    op = _take_cmp_op(ts)
    if op is None:
        tok = ts.peek()
        raise _Issue("a #count aggregate needs a guard on its right-hand side "
                     f"(e.g. '= 0'), found {_show(tok)}", tok.offset)
    guard = _parse_term(ts)
    return CountAggregate(tuple(terms), condition, op, guard)


def _parse_literal(ts: _TokenStream) -> Literal:
    tok = ts.peek()
    if tok.kind == "not":
        ts.next()
        return Literal(_parse_atom(ts), negated=True)
    if tok.kind == "count":
        return Literal(_parse_aggregate(ts))
    if tok.kind in ("int", "var") or (tok.kind == "punct" and tok.value == "-"):
        left = _parse_term(ts)
        op = _take_cmp_op(ts)
        if op is None:
            nxt = ts.peek()
            raise _Issue(f"expected a comparison operator, found {_show(nxt)}", nxt.offset)
        return Literal(Comparison(op, left, _parse_term(ts)))
    if tok.kind == "ident":
        follow = ts.peek(1)
        if follow.kind == "punct" and follow.value in _CMP_TOKENS:
            left = _parse_term(ts)
            op = _take_cmp_op(ts)
            return Literal(Comparison(op, left, _parse_term(ts)))
        return Literal(_parse_atom(ts))
    raise _Issue(f"expected a body literal, found {_show(tok)}", tok.offset)


def _parse_body(ts: _TokenStream) -> tuple[Literal, ...]:
    literals = [_parse_literal(ts)]
    while ts.take_punct(","):
        literals.append(_parse_literal(ts))
    return tuple(literals)


def _parse_rule_or_weak(ts: _TokenStream, span: Span):
    if ts.at_punct(":~"):
        ts.next()
        body = _parse_body(ts)
        ts.expect_punct(".", "to terminate the weak constraint")
        ts.expect_punct("[", "to open the [cost@level] annotation")
        cost = _expect_nonneg_int(ts, "cost")
        ts.expect_punct("@", "between cost and level")
        level = _expect_nonneg_int(ts, "level")
        ts.expect_punct("]", "to close the [cost@level] annotation")
        return WeakConstraint(body, cost, level, origin=span)
    if ts.at_punct(":-"):
        ts.next()
        body = _parse_body(ts)
        ts.expect_punct(".", "to terminate the constraint")
        return Rule((), body, origin=span)
    head = [_parse_atom(ts)]
    while ts.take_punct("|"):
        head.append(_parse_atom(ts))
    if ts.take_punct(":-"):
        body = _parse_body(ts)
    else:
        body = ()
    ts.expect_punct(".", "to terminate the rule")
    return Rule(tuple(head), body, origin=span)


def _expect_nonneg_int(ts: _TokenStream, what: str) -> int:
    tok = ts.peek()
    if tok.kind != "int":
        raise _Issue(f"expected a nonnegative {what}, found {_show(tok)}", tok.offset)
    ts.next()
    return tok.value


def _check_safety(stmt, index: _LineIndex, errors: list[ParseError]) -> bool:
    head = stmt.head if isinstance(stmt, Rule) else ()
    unbound = unbound_variables(head, stmt.body)
    if unbound:
        names = ", ".join(sorted(unbound))
        offset = 0
        if stmt.origin is not None:
            offset = index.starts[stmt.origin.line - 1] + stmt.origin.column - 1
        errors.append(index.error(_Issue(
            f"unsafe statement: variable(s) {names} do not occur in a positive body atom",
            offset, "safety")))
        return False
    return True


def _sync_statement(ts: _TokenStream):
    """Skip to just past the next '.' (and a trailing [..] if present)."""
    while True:
        tok = ts.next()
        if tok.kind == "eof":
            return
        if tok.kind == "punct" and tok.value == ".":
            if ts.at_punct("["):
                while not ts.peek().kind == "eof":
                    t = ts.next()
                    if t.kind == "punct" and t.value == "]":
                        break
            return


# ---------------------------------------------------------------------------
# Annotation blocks
# ---------------------------------------------------------------------------

@dataclass
class _RuleAnn:
    name: str
    block: Optional[str]
    offset: int


@dataclass
class _BlockAnn:
    name: str
    rules: Optional[list[str]]
    offset: int


@dataclass
class _TestAnn:
    spec: TestSpec
    offset: int


def _scan_annotation(text: str, base: int) -> list[_Token]:
    """Tokenize the body of a `%** ... **%` block. Offsets are absolute."""
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "%":  # decorative comment line inside the block
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if ch == '"':
            j = i + 1
            out: list[str] = []
            offsets: list[int] = []
            while j < n:
                c = text[j]
                if c == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    out.append(text[j + 1])
                    offsets.append(base + j + 1)
                    j += 2
                    continue
                if c == '"':
                    break
                out.append(c)
                offsets.append(base + j)
                j += 1
            else:
                raise _Issue("unterminated string in annotation", base + i, "annotation")
            offsets.append(base + j)
            tokens.append(_Token("str", ("".join(out), offsets), base + i))
            i = j + 1
            continue
        if _is_digit(ch) or (ch == "-" and i + 1 < n and _is_digit(text[i + 1])):
            j = i + 1
            while j < n and _is_digit(text[j]):
                j += 1
            tokens.append(_Token("int", int(text[i:j]), base + i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            tokens.append(_Token("ident", text[i:j], base + i))
            i = j
            continue
        if ch in "@=(){},":
            tokens.append(_Token("punct", ch, base + i))
            i += 1
            continue
        raise _Issue(f"unexpected character {ch!r} in annotation", base + i, "annotation")
    tokens.append(_Token("eof", None, base + n))
    return tokens


class _AnnotationParser:
    def __init__(self, text: str, base: int, path: str):
        self.ts = _TokenStream(_scan_annotation(text, base))
        self.path = path

    def parse_all(self) -> list:
        anns = []
        while self.ts.peek().kind != "eof":
            anns.append(self._annotation())
        return anns

    def _annotation(self):
        at = self.ts.peek()
        if not (at.kind == "punct" and at.value == "@"):
            raise _Issue(f"expected '@' to start an annotation, found {_show(at)}",
                         at.offset, "annotation")
        self.ts.next()
        name_tok = self.ts.peek()
        if name_tok.kind != "ident":
            raise _Issue(f"expected an annotation name after '@', found {_show(name_tok)}",
                         name_tok.offset, "annotation")
        self.ts.next()
        name = name_tok.value
        if name == "rule":
            attrs = self._attributes(name, allowed={"name": "str", "block": "str"},
                                     required={"name"})
            return _RuleAnn(attrs["name"][0], attrs.get("block", (None,))[0], at.offset)
        if name == "block":
            attrs = self._attributes(name, allowed={"name": "str", "rules": "strlist"},
                                     required={"name"})
            rules = attrs.get("rules", (None,))[0]
            return _BlockAnn(attrs["name"][0], rules, at.offset)
        if name == "test":
            return self._test(at.offset)
        raise _Issue(f"unknown annotation @{name} (expected @rule, @block or @test)",
                     at.offset, "annotation")

    def _test(self, offset: int) -> _TestAnn:
        allowed = {"name": "str", "scope": "strlist", "programFiles": "strlist",
                   "input": "str", "inputFiles": "strlist", "assert": "assertlist"}
        attrs = self._attributes("test", allowed=allowed, required={"name", "scope", "assert"})
        scope = tuple(attrs["scope"][0])
        if not scope:
            raise _Issue("a test needs a nonempty scope", attrs["scope"][1], "annotation")
        spec = TestSpec(
            name=attrs["name"][0],
            scope=scope,
            asserts=tuple(attrs["assert"][0]),
            program_files=tuple(attrs.get("programFiles", ([],))[0]),
            input=attrs.get("input", ("",))[0],
            input_files=tuple(attrs.get("inputFiles", ([],))[0]),
        )
        return _TestAnn(spec, offset)

    def _attributes(self, owner: str, allowed: dict[str, str], required: set[str]) -> dict:
        """Parse `(key = value, ...)`. Commas between attributes may be
        omitted. Returns {key: (value, offset)}."""
        self.ts.expect_punct("(", f"after @{owner}")
        attrs: dict[str, tuple] = {}
        while not self.ts.at_punct(")"):
            key_tok = self.ts.peek()
            if key_tok.kind != "ident":
                raise _Issue(f"expected an attribute name in @{owner}, found {_show(key_tok)}",
                             key_tok.offset, "annotation")
            self.ts.next()
            key = key_tok.value
            if key not in allowed:
                raise _Issue(f"unknown attribute {key!r} for @{owner}", key_tok.offset, "annotation")
            if key in attrs:
                raise _Issue(f"duplicate attribute {key!r} for @{owner}", key_tok.offset, "annotation")
            eq = self.ts.peek()
            if not (eq.kind == "punct" and eq.value == "="):
                raise _Issue(f"expected '=' after {key!r}, found {_show(eq)}", eq.offset, "annotation")
            self.ts.next()
            attrs[key] = (self._value(allowed[key], key), key_tok.offset)
            self.ts.take_punct(",")
        self.ts.next()  # closing paren
        missing = required - attrs.keys()
        if missing:
            raise _Issue(f"@{owner} is missing required attribute(s): {', '.join(sorted(missing))}",
                         self.ts.peek().offset, "annotation")
        return attrs

    def _value(self, value_type: str, key: str):
        tok = self.ts.peek()
        if value_type == "str":
            if tok.kind != "str":
                raise _Issue(f"attribute {key!r} expects a string value", tok.offset, "annotation")
            self.ts.next()
            return tok.value[0]
        if value_type == "int":
            if tok.kind != "int":
                raise _Issue(f"attribute {key!r} expects an integer value", tok.offset, "annotation")
            self.ts.next()
            if tok.value < 0:
                raise _Issue(f"attribute {key!r} must be nonnegative", tok.offset, "annotation")
            return tok.value
        if value_type == "strlist":
            return [s for s, _ in self._list(key, self._string_element)]
        if value_type == "assertlist":
            return [a for a, _ in self._list(key, self._assertion_element)]
        raise AssertionError(value_type)

    def _list(self, key: str, element: Callable) -> list:
        self.ts.expect_punct("{", f"to open the {key!r} list")
        items = []
        if not self.ts.at_punct("}"):
            items.append(element(key))
            while self.ts.take_punct(","):
                items.append(element(key))
        self.ts.expect_punct("}", f"to close the {key!r} list")
        return items

    def _string_element(self, key: str):
        tok = self.ts.peek()
        if tok.kind != "str":
            raise _Issue(f"the {key!r} list may only contain strings", tok.offset, "annotation")
        self.ts.next()
        return tok.value[0], tok.offset

    def _assertion_element(self, key: str):
        at = self.ts.peek()
        if not (at.kind == "punct" and at.value == "@"):
            raise _Issue(f"the {key!r} list may only contain @assertions", at.offset, "annotation")
        self.ts.next()
        name_tok = self.ts.peek()
        if name_tok.kind != "ident":
            raise _Issue("expected an assertion name after '@'", name_tok.offset, "annotation")
        self.ts.next()
        return self._assertion(name_tok.value, name_tok.offset), at.offset

    def _assertion(self, name: str, offset: int) -> Assertion:
        if name not in ASSERTION_CLASSES:
            raise _Issue(f"unknown assertion @{name}", offset, "annotation")
        field_names = [f.name for f in fields(ASSERTION_CLASSES[name])]
        attrs: dict[str, tuple] = {}
        positional: Optional[tuple] = None
        if self.ts.take_punct("("):
            while not self.ts.at_punct(")"):
                tok = self.ts.peek()
                if tok.kind == "str":
                    # bare string: shorthand for the constraint attribute
                    if "constraint" not in field_names:
                        raise _Issue(f"@{name} does not take a positional string",
                                     tok.offset, "annotation")
                    if positional is not None or "constraint" in attrs:
                        raise _Issue(f"duplicate constraint for @{name}", tok.offset, "annotation")
                    self.ts.next()
                    positional = (tok.value, tok.offset)
                elif tok.kind == "ident":
                    self.ts.next()
                    key = tok.value
                    eq = self.ts.peek()
                    if not (eq.kind == "punct" and eq.value == "="):
                        raise _Issue(f"expected '=' after {key!r}", eq.offset, "annotation")
                    self.ts.next()
                    val = self.ts.peek()
                    if val.kind not in ("str", "int"):
                        raise _Issue(f"attribute {key!r} expects a string or integer",
                                     val.offset, "annotation")
                    self.ts.next()
                    if key in attrs:
                        raise _Issue(f"duplicate attribute {key!r} for @{name}",
                                     tok.offset, "annotation")
                    attrs[key] = (val.value, val.offset, val.kind)
                else:
                    raise _Issue(f"unexpected {_show(tok)} in @{name}", tok.offset, "annotation")
                self.ts.take_punct(",")
            self.ts.next()
        if positional is not None:
            attrs["constraint"] = (positional[0], positional[1], "str")
        return self._build_assertion(name, field_names, attrs, offset)

    def _attr(self, attrs, name: str, key: str, offset: int, kind: str) -> tuple:
        if key not in attrs:
            raise _Issue(f"@{name} is missing the mandatory {key!r} attribute", offset, "annotation")
        value, off, got = attrs.pop(key)
        if got != kind:
            what = "an integer" if kind == "int" else "a string"
            raise _Issue(f"attribute {key!r} of @{name} must be {what}", off, "annotation")
        if kind == "int" and value < 0:
            raise _Issue(f"attribute {key!r} of @{name} must be nonnegative", off, "annotation")
        return value, off

    def _build_assertion(self, name: str, field_names: list[str], attrs: dict,
                         offset: int) -> Assertion:
        """Read the class's fields in declaration order: `count` from the
        `number` attribute, `atoms` and `constraint` from string payloads,
        `cost` and `level` from integers."""
        cls = ASSERTION_CLASSES[name]
        values = {}
        for fname in field_names:
            payload = _PAYLOAD_PARSERS.get(fname)
            key = "number" if fname == "count" else fname
            value, off = self._attr(attrs, name, key, offset, "str" if payload else "int")
            values[fname] = payload(value, off) if payload else value
        if values.get("count", 1) < getattr(cls, "min_count", 0):
            raise _Issue(f"@{name} needs number >= {cls.min_count} "
                         "(number = 0 would be vacuously true)", offset, "annotation")
        if attrs:
            key = next(iter(attrs))
            raise _Issue(f"unknown attribute {key!r} for @{name}", attrs[key][1], "annotation")
        return cls(**values)


def _parse_ground_atoms_nested(raw, fallback_offset: int) -> tuple[Atom, ...]:
    """Parse an `atoms = "..."` payload: period-separated ground atoms with
    the trailing period optional."""
    text, offsets = raw if isinstance(raw, tuple) else (raw, None)
    try:
        tokens = _scan_program(text, collect_annotations=False)
    except _Issue as exc:
        raise _map_nested(exc, offsets, fallback_offset)
    ts = _TokenStream(tokens)
    atoms: list[Atom] = []
    try:
        while ts.peek().kind != "eof":
            atom = _parse_atom(ts)
            if not atom.is_ground():
                raise _Issue(f"atom {atom.predicate}/{atom.arity} in the assertion "
                             "payload is not ground", ts.peek().offset)
            atoms.append(atom)
            if ts.peek().kind == "eof":
                break
            ts.expect_punct(".", "between atoms")
    except _Issue as exc:
        raise _map_nested(exc, offsets, fallback_offset)
    return tuple(atoms)


def _parse_constraint_nested(raw, fallback_offset: int) -> Rule:
    """Parse a `constraint = "..."` payload: exactly one safe constraint;
    the trailing period is optional."""
    text, offsets = raw if isinstance(raw, tuple) else (raw, None)
    body_text = text.strip()
    if not body_text.endswith("."):
        body_text += "."
    try:
        tokens = _scan_program(body_text, collect_annotations=False)
        ts = _TokenStream(tokens)
        stmt = _parse_rule_or_weak(ts, Span("<constraint>", 1, 1))
        if ts.peek().kind != "eof":
            raise _Issue("a constraint payload must contain exactly one statement",
                         ts.peek().offset)
        if not isinstance(stmt, Rule) or not stmt.is_constraint():
            raise _Issue("the payload must be a constraint (':- body.')", 0)
        unbound = unbound_variables((), stmt.body)
        if unbound:
            raise _Issue("unsafe constraint payload: variable(s) "
                         f"{', '.join(sorted(unbound))} not bound by a positive body atom",
                         0, "safety")
    except _Issue as exc:
        raise _map_nested(exc, offsets, fallback_offset)
    return stmt


_PAYLOAD_PARSERS = {"atoms": _parse_ground_atoms_nested,
                    "constraint": _parse_constraint_nested}


def _map_nested(exc: _Issue, offsets: Optional[list[int]], fallback: int) -> _Issue:
    kind = exc.kind if exc.kind == "safety" else "annotation"
    if offsets:
        idx = min(exc.offset, len(offsets) - 1)
        return _Issue(exc.message, offsets[idx], kind)
    return _Issue(exc.message, fallback, kind)


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

def parse_unit_diagnostics(path: str, text: str) -> tuple[Optional[SourceUnit], list[ParseError]]:
    """Best-effort parse returning every error found; the unit is only
    returned when the input is clean."""
    index = _LineIndex(text)
    errors: list[ParseError] = []
    try:
        tokens = _scan_program(text)
    except _Issue as exc:
        return None, [index.error(exc)]

    ts = _TokenStream(tokens)
    statements: list = []            # Rule | WeakConstraint in source order
    named: dict[str, tuple] = {}     # name -> (rule, block claim, offset)
    name_order: list[str] = []
    block_anns: list[_BlockAnn] = []
    tests: list[TestSpec] = []
    pending_rule: Optional[_RuleAnn] = None

    def flush_pending(reason: str):
        nonlocal pending_rule
        if pending_rule is not None:
            errors.append(index.error(_Issue(
                f"@rule(name=\"{pending_rule.name}\") must be followed by a rule, not {reason}",
                pending_rule.offset, "annotation")))
            pending_rule = None

    while ts.peek().kind != "eof":
        tok = ts.peek()
        if tok.kind == "annot":
            ts.next()
            block_text, base = tok.value
            try:
                anns = _AnnotationParser(block_text, base, path).parse_all()
            except _Issue as exc:
                errors.append(index.error(exc))
                continue
            for ann in anns:
                flush_pending("another annotation")
                if isinstance(ann, _RuleAnn):
                    pending_rule = ann
                elif isinstance(ann, _BlockAnn):
                    block_anns.append(ann)
                else:
                    tests.append(ann.spec)
            continue
        span = index.span(path, tok.offset)
        try:
            stmt = _parse_rule_or_weak(ts, span)
        except _Issue as exc:
            errors.append(index.error(exc))
            _sync_statement(ts)
            pending_rule = None
            continue
        if not _check_safety(stmt, index, errors):
            pending_rule = None
            continue
        statements.append(stmt)
        if isinstance(stmt, WeakConstraint):
            flush_pending("a weak constraint")
            continue
        if pending_rule is not None:
            ann, pending_rule = pending_rule, None
            if ann.name in named:
                errors.append(index.error(_Issue(
                    f"duplicate rule name {ann.name!r}", ann.offset, "duplicate-name")))
            else:
                named[ann.name] = (stmt, ann.block, ann.offset)
                name_order.append(ann.name)
    flush_pending("the end of the file")

    # Blocks: explicit declarations first, then memberships claimed by rules.
    blocks: dict[str, tuple] = {}
    for ann in block_anns:
        if ann.name in blocks:
            errors.append(index.error(_Issue(
                f"duplicate block name {ann.name!r}", ann.offset, "duplicate-name")))
            continue
        blocks[ann.name] = (list(ann.rules or []), ann.offset)
    for name in name_order:
        if name in blocks:
            errors.append(index.error(_Issue(
                f"{name!r} is used both as a rule name and as a block name",
                named[name][2], "duplicate-name")))
    for bname, (rule_names, boffset) in blocks.items():
        for rname in rule_names:
            if rname not in named:
                errors.append(index.error(_Issue(
                    f"block {bname!r} lists unknown rule {rname!r}",
                    boffset, "dangling-reference")))
            else:
                claimed = named[rname][1]
                if claimed is not None and claimed != bname:
                    errors.append(index.error(_Issue(
                        f"rule {rname!r} is assigned to block {claimed!r} but block "
                        f"{bname!r} also lists it", boffset, "duplicate-name")))
    for name in name_order:
        claimed = named[name][1]
        if claimed is not None and claimed not in blocks:
            blocks[claimed] = ([], named[name][2])

    final_blocks: dict[str, tuple[str, ...]] = {}
    for bname, (rule_names, _) in blocks.items():
        members = [n for n in name_order
                   if n in rule_names or named[n][1] == bname]
        final_blocks[bname] = tuple(members)

    if errors:
        return None, errors

    named_rules = {name: named[name][0] for name in name_order}
    named_set = {id(r) for r in named_rules.values()}
    anonymous = tuple(s for s in statements
                      if isinstance(s, Rule) and id(s) not in named_set)
    rules = tuple(s for s in statements if isinstance(s, Rule))
    weaks = tuple(s for s in statements if isinstance(s, WeakConstraint))
    suite = TestSuite(named_rules=named_rules, blocks=final_blocks,
                      tests=tuple(tests), anonymous_rules=anonymous)
    unit = SourceUnit(path=path, text=text, program=Program(rules, weaks), suite=suite)
    return unit, []


def parse_unit(path: str, text: str) -> SourceUnit:
    unit, errors = parse_unit_diagnostics(path, text)
    if errors:
        raise ParseFailure(path, errors)
    assert unit is not None
    return unit


def parse_program_text(text: str, path: str = "<input>") -> Program:
    """Parse inline ASP code (e.g. a test's `input` attribute). Annotations
    inside the text are checked but their suite is discarded."""
    return parse_unit(path, text).program


def parse_assertion_list(text: str) -> list[Assertion]:
    """Parse the value of an `assert = { ... }` attribute; the outer braces
    are optional. Raises ParseFailure on malformed input."""
    if text.strip().startswith("{"):
        src, base = text, 0
    else:
        # Wrap in braces; base -1 keeps offsets aligned with the input.
        src, base = "{" + text + "}", -1
    index = _LineIndex(text)
    try:
        parser = _AnnotationParser(src, base, "<assert>")
        items = parser._list("assert", parser._assertion_element)
        tok = parser.ts.peek()
        if tok.kind != "eof":
            raise _Issue(f"trailing input after the assertion list: {_show(tok)}",
                         tok.offset, "annotation")
    except _Issue as exc:
        line, col = index.position(max(exc.offset, 0))
        raise ParseFailure("<assert>", [ParseError(exc.message, line, col, exc.kind)])
    return [a for a, _ in items]


def parse_ground_atom(text: str) -> Atom:
    """Parse a single ground atom (used for solver output normalization)."""
    tokens = _scan_program(text, collect_annotations=False)
    ts = _TokenStream(tokens)
    atom = _parse_atom(ts)
    ts.take_punct(".")
    if ts.peek().kind != "eof":
        raise _Issue(f"trailing input after atom: {_show(ts.peek())}", ts.peek().offset)
    if not atom.is_ground():
        raise _Issue("atom is not ground", 0)
    return atom


def merge_units(units: list[SourceUnit]) -> SourceUnit:
    """Combine several parsed files into one unit (shared name universe).

    Rule/block names must be unique across the whole file set; tests from all
    files run against the merged suite.
    """
    if len(units) == 1:
        return units[0]
    named: dict[str, Rule] = {}
    blocks: dict[str, tuple[str, ...]] = {}
    tests: list[TestSpec] = []
    anonymous: list[Rule] = []
    rules: list[Rule] = []
    weaks: list[WeakConstraint] = []
    errors: list[ParseError] = []
    for unit in units:
        for name, rule in unit.suite.named_rules.items():
            if name in named or name in blocks:
                errors.append(ParseError(
                    f"duplicate name {name!r} across the file set (in {unit.path})",
                    1, 1, "duplicate-name"))
            named[name] = rule
        for name, members in unit.suite.blocks.items():
            if name in blocks or name in named:
                errors.append(ParseError(
                    f"duplicate name {name!r} across the file set (in {unit.path})",
                    1, 1, "duplicate-name"))
            blocks[name] = members
        tests.extend(unit.suite.tests)
        anonymous.extend(unit.suite.anonymous_rules)
        rules.extend(unit.program.rules)
        weaks.extend(unit.program.weak_constraints)
    if errors:
        raise ParseFailure("<merged>", errors)
    suite = TestSuite(named_rules=named, blocks=blocks, tests=tuple(tests),
                      anonymous_rules=tuple(anonymous))
    path = "+".join(u.path for u in units)
    text = "\n".join(u.text for u in units)
    return SourceUnit(path=path, text=text, program=Program(tuple(rules), tuple(weaks)),
                      suite=suite)
