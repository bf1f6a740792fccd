"""Emit program ASTs back to solver-ready text.

The emitted dialect is the same subset the parser reads, so serialization
round-trips: `parse(serialize(parse(text)))` is AST-equal to `parse(text)`.
Inequality is always written `!=` (the parser accepts `<>` too).
"""

from __future__ import annotations

from .model import (
    Atom,
    Comparison,
    CountAggregate,
    Literal,
    Program,
    Rule,
    WeakConstraint,
    atom_to_text,
    term_text,
)


def literal_to_text(lit: Literal) -> str:
    p = lit.payload
    if isinstance(p, Atom):
        text = atom_to_text(p)
    elif isinstance(p, Comparison):
        text = f"{term_text(p.left)} {p.op} {term_text(p.right)}"
    elif isinstance(p, CountAggregate):
        tup = ",".join(term_text(t) for t in p.terms)
        text = f"#count{{{tup} : {atom_to_text(p.condition)}}} {p.guard_op} {term_text(p.guard)}"
    else:  # pragma: no cover
        raise TypeError(f"unknown literal payload {p!r}")
    return f"not {text}" if lit.negated else text


def body_to_text(body: tuple[Literal, ...]) -> str:
    return ", ".join(literal_to_text(lit) for lit in body)


def rule_to_text(rule: Rule) -> str:
    head = " | ".join(atom_to_text(a) for a in rule.head)
    if not rule.body:
        return f"{head}."
    body = body_to_text(rule.body)
    if not rule.head:
        return f":- {body}."
    return f"{head} :- {body}."


def weak_constraint_to_text(wc: WeakConstraint) -> str:
    return f":~ {body_to_text(wc.body)}. [{wc.cost}@{wc.level}]"


def serialize_program(program: Program) -> str:
    lines = [rule_to_text(r) for r in program.rules]
    lines.extend(weak_constraint_to_text(w) for w in program.weak_constraints)
    return "\n".join(lines) + ("\n" if lines else "")
