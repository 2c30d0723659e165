"""Core term language: sorts, de Bruijn terms, declarations, shifting.

Terms are slotted dataclasses compared structurally; with de Bruijn
indices, structural equality *is* alpha-equality.  Fields that carry no
semantic content (source spans, binder-name hints, inferable type
annotations) are excluded from comparison so that equality stays alpha.

Terms are immutable by convention: no code assigns a field after
construction.  Nothing enforces it, because a frozen dataclass sets every
field through `object.__setattr__` and pays for that guard on every node the
parser, `quote` and substitution build.

The outer (strict) naturals, empty type, sums and equality are the same
formers as the inner (fibrant) ones, living in the other fragment, so each
is one class with a `strict` flag rather than a twin class.  The surface
language spells the strict former with an `S`/`s` suffix (`NatS`, `succs`,
`+s`, `=s`, `Js`, ...).  The flag takes part in comparison: alpha-equality
tells the fragments apart.  `UipS` has no inner twin and stays a class.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


FIBRANT = "fibrant"
STRICT = "strict"


@dataclass(frozen=True)
class Sort:
    """Universe classifier: fragment (fibrant or strict) crossed with a level."""

    fragment: str
    level: int

    def __post_init__(self) -> None:
        if self.fragment not in (FIBRANT, STRICT):
            raise ValueError(f"bad fragment {self.fragment!r}")
        if self.level < 0:
            raise ValueError("universe level must be non-negative")

    @property
    def is_fibrant(self) -> bool:
        return self.fragment == FIBRANT

    def __str__(self) -> str:
        return ("U " if self.is_fibrant else "Us ") + str(self.level)


def fibrant(level: int) -> Sort:
    return Sort(FIBRANT, level)


def strict(level: int) -> Sort:
    return Sort(STRICT, level)


def sort_sub(a: Sort, b: Sort) -> bool:
    """Cumulative subsumption: levels rise, and fibrant embeds into strict."""
    if a.level > b.level:
        return False
    return a.fragment == b.fragment or (a.is_fibrant and not b.is_fibrant)


def combine_sorts(a: Sort, b: Sort) -> Sort:
    """Least sort of a Pi/Sigma built from pieces of sorts `a` and `b`."""
    frag = FIBRANT if (a.is_fibrant and b.is_fibrant) else STRICT
    return Sort(frag, max(a.level, b.level))


class Span(NamedTuple):
    """Source location: half-open in columns, 1-based lines and columns."""

    path: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


_SPAN = dict(default=None, compare=False, repr=False, kw_only=True)


@dataclass(slots=True, unsafe_hash=True)
class Term:
    span: Optional[Span] = field(**_SPAN)


# -- variables, universes, functions, pairs ---------------------------------

@dataclass(slots=True, unsafe_hash=True)
class Var(Term):
    index: int


@dataclass(slots=True, unsafe_hash=True)
class Univ(Term):
    sort: Sort


@dataclass(slots=True, unsafe_hash=True)
class Pi(Term):
    dom: Term
    cod: Term
    hint: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Lam(Term):
    body: Term
    ann: Optional[Term] = field(default=None, compare=False, repr=False)
    hint: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(slots=True, unsafe_hash=True)
class Sigma(Term):
    fst: Term
    snd: Term
    hint: Optional[str] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(slots=True, unsafe_hash=True)
class Fst(Term):
    pair: Term


@dataclass(slots=True, unsafe_hash=True)
class Snd(Term):
    pair: Term


# -- unit --------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class Unit(Term):
    pass


@dataclass(slots=True, unsafe_hash=True)
class Star(Term):
    pass


# -- naturals, empty types, sums and equality, fibrant or strict ----------------

_STRICT = dict(default=False, kw_only=True)


@dataclass(slots=True, unsafe_hash=True)
class Nat(Term):
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class Zero(Term):
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class Succ(Term):
    pred: Term
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class NatElim(Term):
    motive: Term
    base: Term
    step: Term
    target: Term
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class Empty(Term):
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class EmptyElim(Term):
    motive: Term
    target: Term
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class Sum(Term):
    left: Term
    right: Term
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class Inl(Term):
    value: Term
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class Inr(Term):
    value: Term
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class SumElim(Term):
    motive: Term
    on_inl: Term
    on_inr: Term
    target: Term
    strict: bool = field(**_STRICT)


# The carrier type of an equality is inferable from its endpoints, so the
# parser leaves it as None and elaboration completes it; it is excluded from
# structural comparison for the same reason.

@dataclass(slots=True, unsafe_hash=True)
class Id(Term):
    ty: Optional[Term] = field(compare=False, repr=False)
    lhs: Term
    rhs: Term
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class Refl(Term):
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class IdElim(Term):
    motive: Term
    refl_case: Term
    lhs: Term
    rhs: Term
    proof: Term
    strict: bool = field(**_STRICT)


@dataclass(slots=True, unsafe_hash=True)
class UipS(Term):
    p: Term
    q: Term


@dataclass(slots=True, unsafe_hash=True)
class Const(Term):
    name: str


# Fields that live under one extra binder.
_BINDER_FIELDS = {
    Pi: ("cod",),
    Lam: ("body",),
    Sigma: ("snd",),
}

_ATOMS = (Univ, Unit, Star, Nat, Zero, Empty, Refl, Const)


# class -> ((field name, crosses-a-binder), ...) for the fields declared as
# terms (`Term`, `Optional[Term]`), filled on first use of each class.
_CHILD_FIELDS: dict[type, tuple[tuple[str, bool], ...]] = {}


def _child_fields(cls: type) -> tuple[tuple[str, bool], ...]:
    under = _BINDER_FIELDS.get(cls, ())
    table = tuple((f.name, f.name in under) for f in dataclasses.fields(cls)
                  if "Term" in str(f.type))
    _CHILD_FIELDS[cls] = table
    return table


def term_children(t: Term) -> list[tuple[str, Term, bool]]:
    """(field name, child, crosses-a-binder) for every Term-valued child."""
    table = _CHILD_FIELDS.get(type(t))
    if table is None:
        table = _child_fields(type(t))
    out = []
    for name, under in table:
        child = getattr(t, name)
        if isinstance(child, Term):
            out.append((name, child, under))
    return out


def _rebuild(t: Term, changes: dict[str, Term]) -> Term:
    return dataclasses.replace(t, **changes) if changes else t


def shift(t: Term, amount: int, cutoff: int = 0) -> Term:
    """Displace all free indices >= cutoff by `amount`; bound indices untouched."""
    if isinstance(t, Var):
        return Var(t.index + amount, span=t.span) if t.index >= cutoff else t
    if isinstance(t, _ATOMS):
        return t
    changes = {}
    for name, child, under in term_children(t):
        new = shift(child, amount, cutoff + 1 if under else cutoff)
        if new is not child:
            changes[name] = new
    return _rebuild(t, changes)


# -- declarations and modules --------------------------------------------------

@dataclass(frozen=True)
class Definition:
    name: str
    ty: Term
    body: Term
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Axiom:
    name: str
    ty: Term
    span: Optional[Span] = field(**_SPAN)


CHECK, INFER, NORMALIZE, CONV, FAIL = "check", "infer", "normalize", "conv", "fail"


@dataclass(frozen=True)
class Pragma:
    kind: str
    payload: tuple  # terms, or the wrapped item for #fail
    expect_code: Optional[str] = None  # pinned diagnostic code for #fail[CODE]
    span: Optional[Span] = field(**_SPAN)


Declaration = Definition | Axiom | Pragma


@dataclass(frozen=True)
class Module:
    decls: tuple[Declaration, ...]
    path: str
