"""Term helpers that only the tests use: a term's children and its rebuild
from them, shifting, substitution, two scans and the strong-mode merge.

`term_children` and `_rebuild` read a term class's child table; `shift` is
the reference for the parser's displaced telescope domains, and with
`subst` it backs the reference normalizer and the well-typed generator; the
scans check which constructors a term mentions; `merge_strict_formers` is
the reference for the parser's strong mode.  The checker itself needs none
of them, so they live here rather than in `tltt.syntax`.
"""

from __future__ import annotations

from tltt import syntax as S
from tltt.syntax import (
    Const, Elim, Empty, Id, Nat, Refl, Star, Term, UipS, Unit, Univ, Var, Zero,
)

_ATOMS = (Univ, Unit, Star, Nat, Zero, Empty, Refl, Const)


def term_children(t: Term) -> list[tuple[object, Term, bool]]:
    """(key, child, crosses-a-binder) for every Term-valued child.  The key
    is the field's name, or (name, position) for an element of a tuple of
    terms (`Elim.args`)."""
    out = []
    for name, under in t._children:
        child = getattr(t, name)
        if type(child) is tuple:
            out += (((name, i), c, under) for i, c in enumerate(child))
        elif child is not None:  # `Id.ty` may be absent
            out.append((name, child, under))
    return out


def _rebuild(t: Term, changes: dict) -> Term:
    """`t` with the children keyed in `changes`, as `term_children` keys
    them, replaced."""
    if not changes:
        return t
    fields = {f: getattr(t, f) for f in t._fields}
    for key, new in changes.items():
        if type(key) is tuple:  # (name, position) in a tuple of terms
            key, i = key
            new = fields[key][:i] + (new,) + fields[key][i + 1:]
        fields[key] = new
    return type(t)(**fields)


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
    for name, child, _ in term_children(t):
        new = merge_strict_formers(child)
        if new is not child:
            changes[name] = new
    if (t.former if type(t) is Elim else type(t)) in _MERGED and t.strict:
        changes["strict"] = False
    return _rebuild(t, changes)
