"""Term helpers that only the tests use: substitution, two scans and the
strong-mode merge.

`subst` backs the reference normalizer and the well-typed generator; the
scans check which constructors a term mentions; `merge_strict_formers` is
the reference for the parser's strong mode.  The checker itself needs none
of them, so they live here rather than in `tltt.syntax`.
"""

from __future__ import annotations

from tltt import syntax as S
from tltt.syntax import _ATOMS, Elim, Id, Refl, Term, UipS, Var, _rebuild, shift, term_children


def subst(t: Term, index: int, replacement: Term) -> Term:
    """Capture-avoiding substitution of `replacement` for Var(index) in `t`."""
    if isinstance(t, Var):
        if t.index == index:
            return shift(replacement, index)
        if t.index > index:
            return Var(t.index - 1, span=t.span)
        return t
    if isinstance(t, _ATOMS):
        return t
    changes = {}
    for name, child, under in term_children(t):
        new = subst(child, index + 1 if under else index, replacement)
        if new is not child:
            changes[name] = new
    return _rebuild(t, changes)


def strict_constructors(t: Term) -> set[str]:
    """Names of strict-fragment constructors occurring anywhere in `t`: the
    class name plus `S` for a flagged former (`UnivS`, `NatS`), `Elim` and
    its former's name plus `S` for an eliminator (`ElimIdS`), and `UipS`."""
    found = set()

    def go(u: Term) -> None:
        if getattr(u, "strict", False):
            found.add(type(u).__name__ + (u.former.__name__ if type(u) is Elim else "") + "S")
        if isinstance(u, UipS):
            found.add("UipS")
        for _, child, _ in term_children(u):
            go(child)

    go(t)
    return found


def mentions_inner_id(t: Term) -> bool:
    """True if the fibrant equality former (or its intro/elim) occurs in `t`."""
    if (isinstance(t, (Id, Refl)) or isinstance(t, Elim) and t.former is Id) and not t.strict:
        return True
    return any(mentions_inner_id(c) for _, c, _ in term_children(t))


# The formers strong mode identifies across the fragments, with their
# eliminators; equality is not among them.
_MERGED = frozenset({S.Nat, S.Zero, S.Succ, S.Empty, S.Sum, S.Inl, S.Inr})


def merge_strict_formers(t: Term) -> Term:
    """Strong-mode identification of the strict naturals, empty type and sums
    (and their eliminators) with the fibrant ones, by clearing their `strict`
    flag.  Strict equality is untouched."""
    changes = {}
    for name, child, _ in S.term_children(t):
        new = merge_strict_formers(child)
        if new is not child:
            changes[name] = new
    if (t.former if type(t) is Elim else type(t)) in _MERGED and t.strict:
        changes["strict"] = False
    return _rebuild(t, changes)
