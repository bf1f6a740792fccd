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
`atoms`/`constraint` payloads; its `annotation` flag picks the mode. One
reader, `_AnnotationParser._attributes`, reads the `( key = value, ... )`
list of every annotation and assertion, typed by `_ANNOTATIONS` and
`_ASSERTION_TYPES`.

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
    """One lexical token and its offset in the scanned text."""

    kind: str  # ident, var, int, punct, count, not, annot, str, eof
    value: object
    offset: int


_PROGRAM_PUNCT = (":-", ":~", "<=", ">=", "<>", "!=", "<", ">", "=", ".", ",",
                  "(", ")", "{", "}", "[", "]", "|", ":", "-", "@")
_ANNOTATION_PUNCT = ("@", "=", "(", ")", "{", "}", ",")

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
    return "ident"


def _scan(text: str, base: int = 0, annotation: bool = False,
          collect_annotations: bool = True) -> list[_Token]:
    """Tokenize program text or, with `annotation`, the body of a
    `%** ... **%` block. Token offsets are `base` plus the index in `text`.

    Both modes skip whitespace and `%` comments to end of line and read
    integers, words and punctuation. Program text also has `%* ... *%`
    comments, `%** ... **%` blocks (an `annot` token when
    `collect_annotations`), `not`, `#count` and variables. Annotation text
    has strings, in which a backslash escapes `"` and itself, and negative
    integers; every word is an `ident` there."""
    punct = _ANNOTATION_PUNCT if annotation else _PROGRAM_PUNCT
    error_kind, where = ("annotation", " in annotation") if annotation else ("lexical", "")
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "%" and not annotation and text.startswith("%*", i):
            block = text.startswith("%**", i)
            close = "**%" if block else "*%"
            end = text.find(close, i + len(close))
            if end < 0:
                what = "annotation block" if block else "comment"
                raise _Issue(f"unterminated {what} (missing {close!r})", base + i, error_kind)
            if block and collect_annotations:
                tokens.append(_Token("annot", (text[i + 3:end], base + i + 3), base + i))
            i = end + len(close)
            continue
        if ch == "%":
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if annotation and ch == '"':
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
                raise _Issue("unterminated string in annotation", base + i, error_kind)
            offsets.append(base + j)
            tokens.append(_Token("str", ("".join(out), offsets), base + i))
            i = j + 1
            continue
        if _is_digit(ch) or (annotation and ch == "-" and i + 1 < n and _is_digit(text[i + 1])):
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
            word = text[i:j]
            if annotation:
                kind = "ident"
            else:
                kind = "not" if word == "not" else _classify_word(word)
            tokens.append(_Token(kind, word, base + i))
            i = j
            continue
        if ch == "#" and not annotation:
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            if word != "#count":
                raise _Issue(f"unsupported directive {word!r} (only #count is accepted)",
                             base + i, error_kind)
            tokens.append(_Token("count", word, base + i))
            i = j
            continue
        for sym in punct:
            if text.startswith(sym, i):
                tokens.append(_Token("punct", sym, base + i))
                i += len(sym)
                break
        else:
            raise _Issue(f"unexpected character {ch!r}{where}", base + i, error_kind)
    tokens.append(_Token("eof", None, base + n))
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


def _show(tok: _Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    if tok.kind == "annot":
        return "annotation block"
    if tok.kind == "str":
        return '"' + tok.value[0].replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(tok.value)


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
    head = stmt.head if isinstance(stmt, Rule) else ()
    reason = unsafe_reason(head, stmt.body, "do not occur in a positive body atom")
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
# An attribute type is "str", "int" (nonnegative), "payload" (a string kept
# with its offsets), "strs" or "asserts". A `scope` may not be empty.
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
                raise _Issue(f"unknown annotation @{name.value} (expected @rule, @block or @test)",
                             at.offset, "annotation")
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
                    raise _Issue(f"unknown attribute {key!r} for @{owner}", key_tok.offset,
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
            raise _Issue(f"unknown assertion @{name.value}", name.offset, "annotation")
        types = _ASSERTION_TYPES[name.value]
        attrs = self._attributes(name, types, types, bare=True)
        values = {}
        for f, key in zip(fields(cls), types):
            value = attrs[key]
            if f.name in _PAYLOAD_PARSERS:
                text, offsets = value
                try:
                    value = _PAYLOAD_PARSERS[f.name](text)
                except _Issue as exc:
                    # payload offsets index `text`; map them back into the file
                    kind = exc.kind if exc.kind == "safety" else "annotation"
                    raise _Issue(exc.message, offsets[min(exc.offset, len(offsets) - 1)], kind)
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
    name_order: list[str] = []
    block_anns: list[tuple] = []     # (name, rule names, offset)
    tests: list[TestSpec] = []
    pending_rule: Optional[tuple] = None  # (@rule attributes, offset)

    def flush_pending(reason: str):
        nonlocal pending_rule
        if pending_rule is not None:
            attrs, offset = pending_rule
            errors.append(index.error(_Issue(
                f"@rule(name=\"{attrs['name']}\") must be followed by a rule, not {reason}",
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
                    f"duplicate rule name {attrs['name']!r}", offset, "duplicate-name")))
            else:
                named[attrs["name"]] = (stmt, attrs.get("block"), offset)
                name_order.append(attrs["name"])
    flush_pending("the end of the file")

    # Blocks: explicit declarations first, then memberships claimed by rules.
    blocks: dict[str, tuple] = {}
    for bname, rule_names, boffset in block_anns:
        if bname in blocks:
            errors.append(index.error(_Issue(
                f"duplicate block name {bname!r}", boffset, "duplicate-name")))
            continue
        blocks[bname] = (rule_names, boffset)
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

    def clash(name: str, path: str, origin: Optional[Span] = None):
        """A name defined again: at the rule's span; a block carries none."""
        line, column = (origin.line, origin.column) if origin else (0, 0)
        errors.append(ParseError(f"duplicate name {name!r} across the file set (in {path})",
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
