"""Core term language: de Bruijn terms and declarations.

Terms are plain slotted classes compared structurally; with de Bruijn
indices, structural equality *is* alpha-equality.  A term class's
`__slots__` is its field table: `Term` derives equality, hashing, `repr`
and the child table from it when the class is created, and each class
writes its `__init__` out as plain slot stores.  Twins share one
shape, stated once: `Sigma` takes `Pi`'s fields and constructor, `Snd`
`Fst`'s, `Inr` `Inl`'s, and `Zero`, `Empty` and `Refl` `Nat`'s.  Fields that
carry no semantic content (source spans, binder-name hints, an equality's
inferable carrier, a constant's value) are excluded from comparison so that
equality stays alpha.  Elaboration erases an ascription `(t : A)`, the node
`Ann`.

Terms are immutable by convention: no code assigns a field after
construction.  Nothing enforces it, because a guard would be paid on every
node the parser, the elaborator and `quote` build.

The outer (strict) universes, naturals, empty type, sums and equality are
the same formers as the inner (fibrant) ones, living in the other fragment,
so each is one class with a `strict` flag rather than a twin class.  A
universe is `Univ(level, strict=...)`: `U i` or `Us i`.  The surface
language spells the strict former with an `S`/`s` suffix (`Us`, `NatS`,
`succs`, `+s`, `=s`, `Js`, ...).  `KEYWORDS` holds the words of the prefix and
nullary formers, once for the parser and the printer.  The flag takes part
in comparison: alpha-equality tells the fragments apart.  `UipS` has no
inner twin and stays a class.

The four eliminators are one class, `Elim(former, args, target)`, shaped
like the kernel's `FElim` frame.  `ELIMINATORS` states each eliminator's
schema once, per former and fragment: its word, its telescope and its
cases.  The parser, the printer, the evaluator and the checker all read it.

Declarations and modules are records: `NamedTuple`s.  One `Declaration`
holds a definition, or an axiom when its `body` is None, with the parsed
terms or, once checked, the elaborated ones.

`collector_paused` pauses the cyclic garbage collector in the entry points
that build large acyclic trees: read-back, printing and parsing.
"""

from __future__ import annotations

import gc
from functools import wraps
from operator import attrgetter
from typing import NamedTuple, Optional


class Span(NamedTuple):
    """Source location: half-open in columns, 1-based lines and columns."""

    path: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


# A term's span: the plain tuple (path, line, col, end_line, end_col) that a
# `Span` is made from.  The parser builds one per node, and the garbage
# collector stops tracking an exact tuple of strings and ints, but never a
# `NamedTuple`.  Declarations and diagnostics keep a `Span`, which callers
# read by field; `diagnostics.fail` turns a term's span into one.
TermSpan = tuple


# Fields that carry no semantic content: equality, hashing and `repr` leave
# them out.  `ty` is the carrier of `Id`, inferable from its endpoints;
# `resolved` is the value a constant's name stands for.
_UNCOMPARED = frozenset({"span", "hint", "ty", "resolved"})
# Fields that hold no term.
_NOT_TERMS = frozenset({"span", "hint", "strict", "index", "level", "name", "resolved",
                        "former"})


class Term:
    """A term node.  Each subclass lists its own fields in `__slots__`, in
    order, after the `span` declared here, and names in `_under` the fields
    that live under one extra binder.  From that table each subclass gets

    - `_fields`: every field, `span` first;
    - `_compared`: the fields equality, hashing and `repr` look at;
    - `_children`: (field, crosses-a-binder) for the fields holding terms.
    """

    __slots__ = ("span",)
    _under: tuple[str, ...] = ()

    def __init__(self, *, span: Optional[TermSpan] = None) -> None:
        self.span = span

    def __init_subclass__(cls) -> None:
        cls._fields = ("span",) + cls.__slots__
        cls._compared = tuple(f for f in cls.__slots__ if f not in _UNCOMPARED)
        # a class with no compared fields is keyed by its class alone
        cls._key = attrgetter(*cls._compared or ("__class__",))
        cls._children = tuple((f, f in cls._under) for f in cls.__slots__
                              if f not in _NOT_TERMS)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__name__}({fields})"


# -- variables, universes, functions, pairs ---------------------------------

class Var(Term):
    __slots__ = ("index",)

    def __init__(self, index: int, *, span: Optional[TermSpan] = None) -> None:
        self.index = index
        self.span = span


class Univ(Term):
    __slots__ = ("level", "strict")

    def __init__(self, level: int, *, strict: bool = False,
                 span: Optional[TermSpan] = None) -> None:
        self.level = level
        self.strict = strict
        self.span = span


class Pi(Term):
    __slots__ = ("dom", "cod", "hint")
    _under = ("cod",)

    def __init__(self, dom: Term, cod: Term, hint: Optional[str] = None, *,
                 span: Optional[TermSpan] = None) -> None:
        self.dom = dom
        self.cod = cod
        self.hint = hint
        self.span = span


class Lam(Term):
    __slots__ = ("body", "hint")
    _under = ("body",)

    def __init__(self, body: Term, hint: Optional[str] = None, *,
                 span: Optional[TermSpan] = None) -> None:
        self.body = body
        self.hint = hint
        self.span = span


class App(Term):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term, *, span: Optional[TermSpan] = None) -> None:
        self.fn = fn
        self.arg = arg
        self.span = span


class Ann(Term):
    __slots__ = ("term", "type")

    def __init__(self, term: Term, type: Term, *, span: Optional[TermSpan] = None) -> None:
        self.term = term
        self.type = type
        self.span = span


class Sigma(Term):
    __slots__ = Pi.__slots__
    _under = Pi._under
    __init__ = Pi.__init__


class Pair(Term):
    __slots__ = ("fst", "snd")

    def __init__(self, fst: Term, snd: Term, *, span: Optional[TermSpan] = None) -> None:
        self.fst = fst
        self.snd = snd
        self.span = span


class Fst(Term):
    __slots__ = ("pair",)

    def __init__(self, pair: Term, *, span: Optional[TermSpan] = None) -> None:
        self.pair = pair
        self.span = span


class Snd(Term):
    __slots__ = Fst.__slots__
    __init__ = Fst.__init__


# -- unit --------------------------------------------------------------------

class Unit(Term):
    __slots__ = ()


class Star(Term):
    __slots__ = ()


# -- naturals, empty types, sums and equality, fibrant or strict ----------------

class Nat(Term):
    __slots__ = ("strict",)

    def __init__(self, *, strict: bool = False, span: Optional[TermSpan] = None) -> None:
        self.strict = strict
        self.span = span


class Zero(Term):
    __slots__ = Nat.__slots__
    __init__ = Nat.__init__


class Succ(Term):
    __slots__ = ("pred", "strict")

    def __init__(self, pred: Term, *, strict: bool = False,
                 span: Optional[TermSpan] = None) -> None:
        self.pred = pred
        self.strict = strict
        self.span = span


class Empty(Term):
    __slots__ = Nat.__slots__
    __init__ = Nat.__init__


class Sum(Term):
    __slots__ = ("left", "right", "strict")

    def __init__(self, left: Term, right: Term, *, strict: bool = False,
                 span: Optional[TermSpan] = None) -> None:
        self.left = left
        self.right = right
        self.strict = strict
        self.span = span


class Inl(Term):
    __slots__ = ("value", "strict")

    def __init__(self, value: Term, *, strict: bool = False,
                 span: Optional[TermSpan] = None) -> None:
        self.value = value
        self.strict = strict
        self.span = span


class Inr(Term):
    __slots__ = Inl.__slots__
    __init__ = Inl.__init__


# The carrier type of an equality is inferable from its endpoints, so the
# parser leaves it as None and elaboration completes it; it is excluded from
# structural comparison for the same reason.

class Id(Term):
    __slots__ = ("ty", "lhs", "rhs", "strict")

    def __init__(self, ty: Optional[Term], lhs: Term, rhs: Term, *, strict: bool = False,
                 span: Optional[TermSpan] = None) -> None:
        self.ty = ty
        self.lhs = lhs
        self.rhs = rhs
        self.strict = strict
        self.span = span


class Refl(Term):
    __slots__ = Nat.__slots__
    __init__ = Nat.__init__


# -- eliminators -------------------------------------------------------------

class Elim(Term):
    """The eliminator of `former` (`Nat`, `Sum`, `Empty` or `Id`): `args` is
    the motive, the cases and the indices, and `target` the scrutinee, as in
    the kernel's `FElim`.  `ELIMINATORS[former, strict]` is its schema."""

    __slots__ = ("former", "args", "target", "strict")

    def __init__(self, former: type, args: tuple, target: Term, *, strict: bool = False,
                 span: Optional[TermSpan] = None) -> None:
        self.former = former
        self.args = args
        self.target = target
        self.strict = strict
        self.span = span


class UipS(Term):
    __slots__ = ("p", "q")

    def __init__(self, p: Term, q: Term, *, span: Optional[TermSpan] = None) -> None:
        self.p = p
        self.q = q
        self.span = span


class Const(Term):
    """A mention of a declared constant.  The parser leaves `resolved` None;
    elaboration and read-back fill in the value the name stands for, which
    is what the mention evaluates to."""

    __slots__ = ("name", "resolved")

    def __init__(self, name: str, resolved=None, *,
                 span: Optional[TermSpan] = None) -> None:
        self.name = name
        self.resolved = resolved
        self.span = span


# The word of each prefix or nullary former, and the mark that spells its
# strict twin (None for a former with no twin): the parser reads these words
# and the printer writes them.  Universes, numerals, `+`, `=` and the
# eliminators have syntax of their own.
KEYWORDS = {
    Unit: ("Unit", None), Star: ("star", None), Nat: ("Nat", "S"),
    Empty: ("Empty", "S"), Refl: ("refl", "s"), Fst: ("fst", None),
    Snd: ("snd", None), Succ: ("succ", "s"), Inl: ("inl", "s"), Inr: ("inr", "s"),
    UipS: ("Ks", None),
}

# The formers whose strict twin strong mode keeps apart: equality's, and so
# its eliminator's.  Strong mode reads every other strict word as fibrant.
KEPT_APART = frozenset({Id, Refl})


class Eliminator(NamedTuple):
    """The schema of one eliminator in one fragment, Dybjer's for inductive
    families: a motive over the scrutinees' telescope, one case per
    constructor, then the scrutinees, the last of which is `Elim.target`.
    The templates are terms evaluated in an environment of the carrier's
    pieces (a sum type as given and its summands, the carrier of an
    equality; none for the naturals and the empty type), extended by the
    telescope's earlier entries, or by the motive in a case."""

    word: str
    telescope: tuple  # the scrutinees' types
    cases: tuple  # the type of each case


def _eliminators() -> dict:
    rows = {}
    for s in (False, True):
        nat, mark = Nat(strict=s), "S" if s else ""
        rows[Nat, s] = Eliminator(
            "natElim" + mark, (nat,),
            (App(Var(0), Zero(strict=s)),  # P 0
             Pi(nat, Pi(App(Var(1), Var(0)),  # (n : Nat) -> P n -> P (succ n)
                        App(Var(2), Succ(Var(1), strict=s))))))
        rows[Sum, s] = Eliminator(
            "sumElim" + mark, (Var(2),),  # A + B, as given
            (Pi(Var(2), App(Var(1), Inl(Var(0), strict=s))),  # (a : A) -> P (inl a)
             Pi(Var(1), App(Var(1), Inr(Var(0), strict=s)))))  # (b : B) -> P (inr b)
        rows[Empty, s] = Eliminator("emptyElim" + mark, (Empty(strict=s),), ())
        rows[Id, s] = Eliminator(
            "Js" if s else "J",
            (Var(0), Var(1), Id(Var(2), Var(1), Var(0), strict=s)),  # A, A, x = y
            # (x : A) -> P x x refl
            (Pi(Var(1), App(App(App(Var(1), Var(0)), Var(0)), Refl(strict=s))),))
    return rows


ELIMINATORS = _eliminators()  # (former, strict) -> the schema of its eliminator


def keyword(cls: type, strict: bool = False) -> str:
    """The word of the former `cls`, or of its strict twin."""
    word, mark = KEYWORDS[cls]
    return word + mark if strict else word


def collector_paused(build):
    """`build` with the cyclic garbage collector paused, and switched back
    on however it returns unless the caller had it off.  What read-back,
    printing and parsing build holds no reference cycle
    (`tests/test_garbage.py`), so a collection would only walk the young tree."""
    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return paused


# -- declarations and modules --------------------------------------------------

class Declaration(NamedTuple):
    name: str
    ty: Term
    body: Optional[Term] = None  # None for an axiom
    span: Optional[Span] = None


CHECK, INFER, NORMALIZE, CONV, FAIL = "check", "infer", "normalize", "conv", "fail"


class Pragma(NamedTuple):
    kind: str
    payload: tuple  # terms, or the wrapped item for #fail
    expect_code: Optional[str] = None  # pinned diagnostic code for #fail[CODE]
    span: Optional[Span] = None


class Module(NamedTuple):
    decls: tuple[Declaration | Pragma, ...]
