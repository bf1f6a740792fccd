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

One scanner, `_scan`, tokenizes program text, annotation blocks and the
`atoms`/`constraint` payloads with one compiled pattern per mode, picked by
its `annotation` flag: `_PROGRAM_TOKENS` and `_ANNOTATION_TOKENS`. Each
token kind is a named group, and catch-all groups raise the lexical errors.
Words are Unicode letters, digits and `_` starting with a letter or `_`;
integers are ASCII digits. A string keeps the indices of its escapes, from
which `_file_offset` maps a payload offset back into the file. One
reader, `_AnnotationParser._attributes`, reads the `( key = value, ... )`
list of every annotation and assertion, typed by `_ANNOTATIONS` and
`_ASSERTION_TYPES`.

Errors carry 1-based line/column positions inside the offending text, and
quote at most `_QUOTE_LIMIT` characters of a token (`quote`). Parsing
recovers at statement boundaries so several errors can be reported at once.
"""

from __future__ import annotations

import bisect
import re
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
    unsafe_reason,
)

@dataclass(frozen=True)
class ParseError:
    """A diagnostic at line:column, or for a whole file when `line` is 0.
    `path`, when set, names its file in place of the one `render` gets."""

    message: str
    line: int
    column: int
    kind: str
    path: str = ""

    def render(self, path: str = "") -> str:
        where = ":".join(str(part) for part in (self.path or path, self.line, self.column)
                         if part)
        return f"{where}: {self.kind}: {self.message}"


class ParseFailure(Exception):
    """Raised by parse_unit when the input has errors; carries all of them."""

    def __init__(self, path: str, errors: list[ParseError]):
        self.path = path
        self.errors = errors
        super().__init__("; ".join(e.render(path) for e in errors[:4]))


class NotUTF8(OSError):
    """A source file whose bytes are not UTF-8."""


def read_source(path: str) -> str:
    """The text of the file at `path`, which must be UTF-8, with `\\r\\n` and
    `\\r` read as `\\n`. A file that cannot be read raises its `OSError`; one
    that is not UTF-8 raises `NotUTF8`, naming the file, its first bad byte
    and that byte's offset."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        # `read` decodes the whole file at once, so `start` is a file offset
        raise NotUTF8(f"cannot read {path}: byte 0x{exc.object[exc.start]:02x} "
                      f"at offset {exc.start} is not UTF-8") from None


@dataclass(frozen=True)
class SourceUnit:
    """One parsed file: its text, its program and its test suite."""

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
        self.starts = [0, *(m.end() for m in re.finditer("\n", text))]

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
    """One lexical token and its offset in the scanned text."""

    kind: str  # ident, var, int, punct, count, not, annot, str, eof
    value: object
    offset: int


_CANONICAL_OP = {"<>": "!=", "=": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_CMP_TOKENS = ("=", "<>", "!=", "<", "<=", ">", ">=")

# One pattern per mode. Blanks and comments match no group; every other
# alternative is a named group, and the last one takes any character, so
# the matches of `finditer` cover the text. A `%**`, `%*` or `"` that is
# never closed matches its `open_` group, tried after the closed form.
# `\s` is `str.isspace` and `\w` is `str.isalnum` or `_`.
_PROGRAM_TOKENS = re.compile(r"""
    \s+ | %\*\*(?P<annot>.*?)\*\*% | (?P<open_annot>%\*\*)
    | %\*.*?\*% | (?P<open_comment>%\*) | %[^\n]*
    | (?P<int>[0-9]+) | (?P<word>\w+) | (?P<directive>\#\w*)
    | (?P<punct>:-|:~|<=|>=|<>|!=|[<>=.,(){}\[\]|:\-@])
    | (?P<bad>.)""", re.S | re.X)
_ANNOTATION_TOKENS = re.compile(r"""
    \s+ | %[^\n]*
    | "(?P<str>(?:[^"\\]|\\.)*)" | (?P<open_str>")
    | (?P<int>-?[0-9]+) | (?P<word>\w+) | (?P<punct>[@=(){},])
    | (?P<bad>.)""", re.S | re.X)
_ESCAPE = re.compile(r'\\(["\\])')

# how much of a token a diagnostic quotes: a token may be of any length,
# and `test` repeats the message in its report
_QUOTE_LIMIT = 60


def quote(token: str, style: Callable[[str], str] = repr) -> str:
    """`token` written in `style` (quoted, by default), or its first
    _QUOTE_LIMIT characters so written followed by its length."""
    if len(token) <= _QUOTE_LIMIT:
        return style(token)
    return f"{style(token[:_QUOTE_LIMIT])}... ({len(token)} characters)"


_LEX_ERRORS = {
    "open_annot": "unterminated annotation block (missing '**%')",
    "open_comment": "unterminated comment (missing '*%')",
    "open_str": "unterminated string in annotation",
    "directive": "unsupported directive {quoted} (only #count is accepted)",
    "bad": "unexpected character {value[0]!r}{where}",
    # `\w` takes digits such as '²' that may not start a word
    "word": "unexpected character {value[0]!r}{where}",
}


def _classify_word(word: str) -> str:
    """Identifiers starting lowercase (possibly after underscores) name
    predicates/constants; an uppercase start (possibly after underscores)
    or a bare underscore run names a variable."""
    stripped = word.lstrip("_")
    if not stripped:
        return "var"
    if stripped[0].isupper():
        return "var"
    return "ident"


def _scan(text: str, base: int = 0, annotation: bool = False,
          collect_annotations: bool = True) -> list[_Token]:
    """Tokenize program text or, with `annotation`, the body of a
    `%** ... **%` block. Token offsets are `base` plus the index in `text`.

    Both modes skip whitespace and `%` comments to end of line and read
    integers of ASCII digits, words and punctuation; a word is letters,
    digits and `_` and starts with a letter or `_`. Program text also has
    `%* ... *%` comments, `%** ... **%` blocks (an `annot` token when
    `collect_annotations`), `not`, `#count` and variables. Annotation text
    has strings, in which a backslash escapes `"` and itself (see
    `_string`), and negative integers; every word is an `ident` there."""
    pattern, error_kind, where = ((_ANNOTATION_TOKENS, "annotation", " in annotation")
                                  if annotation else (_PROGRAM_TOKENS, "lexical", ""))
    tokens: list[_Token] = []
    for m in pattern.finditer(text):
        group = m.lastgroup
        if group is None:
            continue
        value, offset = m[group], base + m.start()
        if group == "word" and (value[0].isalpha() or value[0] == "_"):
            kind = "ident" if annotation else "not" if value == "not" else _classify_word(value)
            tokens.append(_Token(kind, value, offset))
        elif group == "punct":
            tokens.append(_Token("punct", value, offset))
        elif group == "int":
            try:
                number = int(value)
            except ValueError:  # longer than the interpreter converts
                raise _Issue(f"integer literal of {len(value.lstrip('-'))} digits is too long",
                             offset, error_kind)
            tokens.append(_Token("int", number, offset))
        elif group == "str":
            tokens.append(_Token("str", _string(value, offset + 1), offset))
        elif group == "annot":
            if collect_annotations:
                tokens.append(_Token("annot", (value, offset + 3), offset))
        elif group == "directive" and value == "#count":
            tokens.append(_Token("count", value, offset))
        else:
            message = _LEX_ERRORS[group].format(value=value, quoted=quote(value), where=where)
            raise _Issue(message, offset, error_kind)
    tokens.append(_Token("eof", None, base + len(text)))
    return tokens


def _string(raw: str, start: int) -> tuple[str, int, tuple[int, ...]]:
    """A string token's value: its text, the file offset of its first
    character, and the indices in the text of the escaped characters,
    which `_file_offset` needs."""
    escapes = tuple(m.start() - n for n, m in enumerate(_ESCAPE.finditer(raw)))
    return (_ESCAPE.sub(r"\1", raw) if escapes else raw), start, escapes


def _file_offset(string: tuple[str, int, tuple[int, ...]], index: int) -> int:
    """The file offset of character `index` of a string token's text, or of
    its closing quote for an index past the end: each escape before it
    adds its backslash."""
    text, start, escapes = string
    index = min(index, len(text))
    return start + index + bisect.bisect_right(escapes, index)


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        # `next` stops at the closing eof, and `peek(1)` follows an ident
        return self.tokens[self.pos + ahead]

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

    def expect(self, kind: str, message: str, issue_kind: str = "syntactic",
               value: object = None) -> _Token:
        """Take the next token if it has `kind` (and `value`, when given);
        otherwise raise `message` with `{found}` replaced by that token."""
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        raise _Issue(message.replace("{found}", _show(tok)), tok.offset, issue_kind)

    def expect_punct(self, symbol: str, what: str = "") -> _Token:
        detail = f" {what}" if what else ""
        return self.expect("punct", f"expected {symbol!r}{detail}, found {{found}}", value=symbol)


def _string_literal(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _show(tok: _Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    if tok.kind == "annot":
        return "annotation block"
    if tok.kind == "str":
        return quote(tok.value[0], _string_literal)
    if tok.kind == "int":
        return quote(str(tok.value), str)
    return quote(tok.value)


# ---------------------------------------------------------------------------
# Program statements
# ---------------------------------------------------------------------------

_TERM_CLASSES = {"int": Integer, "ident": Constant, "var": Variable}


def _parse_term(ts: _TokenStream):
    if ts.take_punct("-"):
        return Integer(-ts.expect("int", "expected integer after '-', found {found}").value)
    tok = ts.peek()
    if tok.kind not in _TERM_CLASSES:
        raise _Issue(f"expected a term, found {_show(tok)}", tok.offset)
    ts.next()
    return _TERM_CLASSES[tok.kind](tok.value)


def _parse_atom(ts: _TokenStream) -> Atom:
    tok = ts.expect("ident", "expected an atom, found {found}")
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
        cost = ts.expect("int", "expected a nonnegative cost, found {found}").value
        ts.expect_punct("@", "between cost and level")
        level = ts.expect("int", "expected a nonnegative level, found {found}").value
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


def _check_safety(stmt, index: _LineIndex, errors: list[ParseError]) -> bool:
    reason = unsafe_reason(stmt.head, stmt.body, "do not occur in a positive body atom")
    if reason:
        offset = 0
        if stmt.origin is not None:
            offset = index.starts[stmt.origin.line - 1] + stmt.origin.column - 1
        errors.append(index.error(_Issue(f"unsafe statement: {reason}", offset, "safety")))
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

# Attribute types and required attributes of `@rule`, `@block` and `@test`.
# An attribute type is "str", "int" (nonnegative), "payload" (a string token's
# whole value, see `_string`), "strs" or "asserts". A `scope` may not be empty.
_ANNOTATIONS = {
    "rule": ({"name": "str", "block": "str"}, {"name"}),
    "block": ({"name": "str", "rules": "strs"}, {"name"}),
    "test": ({"name": "str", "scope": "strs", "programFiles": "strs", "input": "str",
              "inputFiles": "strs", "assert": "asserts"}, {"name", "scope", "assert"}),
}


class _AnnotationParser:
    def __init__(self, text: str, base: int):
        self.ts = _TokenStream(_scan(text, base, annotation=True))

    def parse_all(self) -> list[tuple[str, dict, int]]:
        """Each annotation as (name, {attribute: value}, offset of its '@')."""
        anns = []
        while self.ts.peek().kind != "eof":
            at, name = self._at_name("expected '@' to start an annotation, found {found}",
                                     "expected an annotation name after '@', found {found}")
            if name.value not in _ANNOTATIONS:
                raise _Issue(f"unknown annotation @{quote(name.value, str)} "
                             "(expected @rule, @block or @test)", at.offset, "annotation")
            anns.append((name.value, self._attributes(name, *_ANNOTATIONS[name.value]),
                         at.offset))
        return anns

    def _at_name(self, at_message: str, name_message: str) -> tuple[_Token, _Token]:
        """Read `@name`; returns the '@' and the name tokens."""
        at = self.ts.expect("punct", at_message, "annotation", "@")
        return at, self.ts.expect("ident", name_message, "annotation")

    def _attributes(self, name: _Token, types: dict[str, str], required,
                    bare: bool = False) -> dict:
        """Read `( key = value, ... )` after the annotation or assertion
        `name`, each value of the type `types` gives its key. Commas between
        attributes may be omitted, a bare string is the `constraint`
        attribute where `types` has one, and with `bare` the parenthesised
        list may be left out."""
        owner = name.value
        attrs: dict = {}
        offsets: dict[str, int] = {}
        if not bare or self.ts.at_punct("("):
            self.ts.expect_punct("(", f"after @{owner}")
            while not self.ts.take_punct(")"):
                key_tok = self.ts.peek()
                positional = key_tok.kind == "str" and "constraint" in types
                if not positional:
                    self.ts.expect("ident", f"expected an attribute name in @{owner}, "
                                   "found {found}", "annotation")
                key = "constraint" if positional else key_tok.value
                if key not in types:
                    raise _Issue(f"unknown attribute {quote(key)} for @{owner}", key_tok.offset,
                                 "annotation")
                if key in attrs:
                    raise _Issue(f"duplicate attribute {key!r} for @{owner}", key_tok.offset,
                                 "annotation")
                if not positional:
                    self.ts.expect("punct", f"expected '=' after {key!r}, found {{found}}",
                                   "annotation", "=")
                attrs[key] = self._value(types[key], key, owner)
                offsets[key] = key_tok.offset
                self.ts.take_punct(",")
        missing = set(required) - attrs.keys()
        if missing:
            raise _Issue(f"@{owner} is missing required attribute(s): {', '.join(sorted(missing))}",
                         name.offset, "annotation")
        if attrs.get("scope") == []:
            raise _Issue("a test needs a nonempty scope", offsets["scope"], "annotation")
        return attrs

    def _value(self, value_type: str, key: str, owner: str):
        if value_type == "asserts":
            return self._list(key, self._assertion)
        if value_type == "strs":
            return self._list(key, lambda: self.ts.expect(
                "str", f"the {key!r} list may only contain strings", "annotation").value[0])
        kind, what = ("int", "an integer") if value_type == "int" else ("str", "a string")
        tok = self.ts.expect(kind, f"attribute {key!r} of @{owner} must be {what}", "annotation")
        if value_type == "int" and tok.value < 0:
            raise _Issue(f"attribute {key!r} of @{owner} must be nonnegative", tok.offset,
                         "annotation")
        return tok.value[0] if value_type == "str" else tok.value

    def _list(self, key: str, element: Callable) -> list:
        self.ts.expect_punct("{", f"to open the {key!r} list")
        items = []
        if not self.ts.at_punct("}"):
            items.append(element())
            while self.ts.take_punct(","):
                items.append(element())
        self.ts.expect_punct("}", f"to close the {key!r} list")
        return items

    def _assertion(self) -> Assertion:
        """Read one `@assertion`; its payloads are parsed once its attribute
        list is complete."""
        _, name = self._at_name("the 'assert' list may only contain @assertions",
                                "expected an assertion name after '@'")
        cls = ASSERTION_CLASSES.get(name.value)
        if cls is None:
            raise _Issue(f"unknown assertion @{quote(name.value, str)}", name.offset, "annotation")
        types = _ASSERTION_TYPES[name.value]
        attrs = self._attributes(name, types, types, bare=True)
        values = {}
        for f, key in zip(fields(cls), types):
            value = attrs[key]
            if f.name in _PAYLOAD_PARSERS:
                try:
                    value = _PAYLOAD_PARSERS[f.name](value[0])
                except _Issue as exc:
                    # payload offsets index the string's text; map them back into the file
                    kind = exc.kind if exc.kind == "safety" else "annotation"
                    raise _Issue(exc.message, _file_offset(value, exc.offset), kind)
            values[f.name] = value
        if values.get("count", 1) < getattr(cls, "min_count", 0):
            raise _Issue(f"@{name.value} needs number >= {cls.min_count} "
                         "(number = 0 would be vacuously true)", name.offset, "annotation")
        return cls(**values)


def _parse_ground_atoms_nested(text: str) -> tuple[Atom, ...]:
    """Parse an `atoms = "..."` payload: period-separated ground atoms with
    the trailing period optional."""
    ts = _TokenStream(_scan(text, collect_annotations=False))
    atoms: list[Atom] = []
    while ts.peek().kind != "eof":
        atom = _parse_atom(ts)
        if not atom.is_ground():
            raise _Issue(f"atom {atom.predicate}/{atom.arity} in the assertion "
                         "payload is not ground", ts.peek().offset)
        atoms.append(atom)
        if ts.peek().kind == "eof":
            break
        ts.expect_punct(".", "between atoms")
    return tuple(atoms)


def _parse_constraint_nested(text: str) -> Rule:
    """Parse a `constraint = "..."` payload: exactly one safe constraint;
    the trailing period is optional. Leading text is kept so that offsets
    stay indices into `text`."""
    body_text = text.rstrip()
    if not body_text.endswith("."):
        body_text += "."
    ts = _TokenStream(_scan(body_text, collect_annotations=False))
    stmt = _parse_rule_or_weak(ts, Span("<constraint>", 1, 1))
    if ts.peek().kind != "eof":
        raise _Issue("a constraint payload must contain exactly one statement",
                     ts.peek().offset)
    if not isinstance(stmt, Rule) or not stmt.is_constraint():
        raise _Issue("the payload must be a constraint (':- body.')", 0)
    reason = unsafe_reason((), stmt.body, "not bound by a positive body atom")
    if reason:
        raise _Issue(f"unsafe constraint payload: {reason}", 0, "safety")
    return stmt


_PAYLOAD_PARSERS = {"atoms": _parse_ground_atoms_nested,
                    "constraint": _parse_constraint_nested}

# Attribute types of each assertion, all required: its class's fields in
# declaration order, `count` read from the `number` attribute.
_ASSERTION_TYPES = {
    name: {("number" if f.name == "count" else f.name):
           "payload" if f.name in _PAYLOAD_PARSERS else "int" for f in fields(cls)}
    for name, cls in ASSERTION_CLASSES.items()}


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

def parse_unit_diagnostics(path: str, text: str) -> tuple[Optional[SourceUnit], list[ParseError]]:
    """Best-effort parse returning every error found; the unit is only
    returned when the input is clean."""
    index = _LineIndex(text)
    errors: list[ParseError] = []
    try:
        tokens = _scan(text)
    except _Issue as exc:
        return None, [index.error(exc)]

    ts = _TokenStream(tokens)
    statements: list = []            # Rule | WeakConstraint in source order
    named: dict[str, tuple] = {}     # name -> (rule, block claim, offset)
    block_anns: list[tuple] = []     # (name, rule names, offset)
    tests: list[TestSpec] = []
    pending_rule: Optional[tuple] = None  # (@rule attributes, offset)

    def flush_pending(reason: str):
        nonlocal pending_rule
        if pending_rule is not None:
            attrs, offset = pending_rule
            name = quote(attrs["name"], '"{}"'.format)
            errors.append(index.error(_Issue(
                f"@rule(name={name}) must be followed by a rule, not {reason}",
                offset, "annotation")))
            pending_rule = None

    while ts.peek().kind != "eof":
        tok = ts.peek()
        if tok.kind == "annot":
            ts.next()
            block_text, base = tok.value
            try:
                anns = _AnnotationParser(block_text, base).parse_all()
            except _Issue as exc:
                errors.append(index.error(exc))
                continue
            for name, attrs, offset in anns:
                flush_pending("another annotation")
                if name == "rule":
                    pending_rule = attrs, offset
                elif name == "block":
                    block_anns.append((attrs["name"], attrs.get("rules", []), offset))
                else:
                    if any(t.name == attrs["name"] for t in tests):
                        errors.append(index.error(_Issue(
                            f"duplicate test name {quote(attrs['name'])}", offset,
                            "duplicate-name")))
                    tests.append(TestSpec(
                        name=attrs["name"], scope=tuple(attrs["scope"]),
                        asserts=tuple(attrs["assert"]),
                        program_files=tuple(attrs.get("programFiles", ())),
                        input=attrs.get("input", ""),
                        input_files=tuple(attrs.get("inputFiles", ())),
                        origin=index.span(path, offset)))
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
            (attrs, offset), pending_rule = pending_rule, None
            if attrs["name"] in named:
                errors.append(index.error(_Issue(
                    f"duplicate rule name {quote(attrs['name'])}", offset, "duplicate-name")))
            else:
                named[attrs["name"]] = (stmt, attrs.get("block"), offset)
    flush_pending("the end of the file")

    # Blocks: explicit declarations first, then memberships claimed by rules.
    blocks: dict[str, tuple] = {}
    for bname, rule_names, boffset in block_anns:
        if bname in blocks:
            errors.append(index.error(_Issue(
                f"duplicate block name {quote(bname)}", boffset, "duplicate-name")))
            continue
        blocks[bname] = (rule_names, boffset)
    for name in named:
        if name in blocks:
            errors.append(index.error(_Issue(
                f"{quote(name)} is used both as a rule name and as a block name",
                named[name][2], "duplicate-name")))
    for bname, (rule_names, boffset) in blocks.items():
        for rname in rule_names:
            if rname not in named:
                errors.append(index.error(_Issue(
                    f"block {quote(bname)} lists unknown rule {quote(rname)}",
                    boffset, "dangling-reference")))
            else:
                claimed = named[rname][1]
                if claimed is not None and claimed != bname:
                    errors.append(index.error(_Issue(
                        f"rule {quote(rname)} is assigned to block {quote(claimed)} but block "
                        f"{quote(bname)} also lists it", boffset, "duplicate-name")))
    for name in named:
        claimed = named[name][1]
        if claimed is not None and claimed not in blocks:
            blocks[claimed] = ([], named[name][2])
            if claimed in named:
                # a claimed block named like a rule clashes as a declared one does
                errors.append(index.error(_Issue(
                    f"{quote(claimed)} is used both as a rule name and as a block name",
                    named[claimed][2], "duplicate-name")))

    final_blocks: dict[str, tuple[str, ...]] = {}
    for bname, (rule_names, _) in blocks.items():
        members = [n for n in named
                   if n in rule_names or named[n][1] == bname]
        final_blocks[bname] = tuple(members)

    if errors:
        return None, errors

    named_rules = {name: rule for name, (rule, _, _) in named.items()}
    named_set = {id(r) for r in named_rules.values()}
    anonymous = tuple(s for s in statements
                      if isinstance(s, Rule) and id(s) not in named_set)
    rules = tuple(s for s in statements if isinstance(s, Rule))
    weaks = tuple(s for s in statements if isinstance(s, WeakConstraint))
    suite = TestSuite(named_rules=named_rules, blocks=final_blocks,
                      tests=tuple(tests), anonymous_rules=anonymous)
    # _check_safety and the grammar cover every check of `check_statements`
    unit = SourceUnit(path=path, text=text, program=Program.of_checked(rules, weaks),
                      suite=suite)
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
        parser = _AnnotationParser(src, base)
        items = parser._list("assert", parser._assertion)
        tok = parser.ts.peek()
        if tok.kind != "eof":
            raise _Issue(f"trailing input after the assertion list: {_show(tok)}",
                         tok.offset, "annotation")
    except _Issue as exc:
        line, col = index.position(max(exc.offset, 0))
        raise ParseFailure("<assert>", [ParseError(exc.message, line, col, exc.kind)])
    return items


def parse_ground_atom(text: str) -> Atom:
    """Parse a single ground atom (used for solver output normalization).
    Raises ParseFailure on malformed input."""
    try:
        ts = _TokenStream(_scan(text, collect_annotations=False))
        atom = _parse_atom(ts)
        ts.take_punct(".")
        if ts.peek().kind != "eof":
            raise _Issue(f"trailing input after atom: {_show(ts.peek())}", ts.peek().offset)
        if not atom.is_ground():
            raise _Issue("atom is not ground", 0)
    except _Issue as exc:
        raise ParseFailure("<atom>", [_LineIndex(text).error(exc)])
    return atom


def merge_units(units: list[SourceUnit]) -> SourceUnit:
    """Combine several parsed files into one unit (shared name universe).

    Rule/block names, and test names, must be unique across the whole file
    set; tests from all files run against the merged suite.
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

    def clash(name: str, path: str, origin: Optional[Span] = None):
        """A name defined again: at its rule's or test's span; a block has none."""
        line, column = (origin.line, origin.column) if origin else (0, 0)
        errors.append(ParseError(f"duplicate name {quote(name)} across the file set (in {path})",
                                 line, column, "duplicate-name", path))

    for unit in units:
        for name, rule in unit.suite.named_rules.items():
            if name in named or name in blocks:
                clash(name, unit.path, rule.origin)
            named[name] = rule
        for name, members in unit.suite.blocks.items():
            if name in blocks or name in named:
                clash(name, unit.path)
            blocks[name] = members
        for spec in unit.suite.tests:
            if any(t.name == spec.name for t in tests):
                clash(spec.name, unit.path, spec.origin)
            tests.append(spec)
        anonymous.extend(unit.suite.anonymous_rules)
        rules.extend(unit.program.rules)
        weaks.extend(unit.program.weak_constraints)
    if errors:
        raise ParseFailure("<merged>", errors)
    suite = TestSuite(named_rules=named, blocks=blocks, tests=tuple(tests),
                      anonymous_rules=tuple(anonymous))
    path = "+".join(u.path for u in units)
    text = "\n".join(u.text for u in units)
    return SourceUnit(path=path, text=text,
                      program=Program.of_checked(tuple(rules), tuple(weaks)), suite=suite)
