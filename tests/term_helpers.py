"""Term helpers that only the tests use: substitution and two scans.

`subst` backs the reference normalizer and the well-typed generator; the
scans check which constructors a term mentions.  The checker itself needs
none of them, so they live here rather than in `tltt.syntax`.
"""

from __future__ import annotations

from tltt.syntax import (_ATOMS, Id, IdElim, Refl, Term, UipS, Univ, Var, _rebuild, shift,
                         term_children)


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
    class name plus `S` for a flagged former (`NatS`, `IdElimS`), `UipS`, and
    `UnivS` for a strict universe."""
    found = set()

    def go(u: Term) -> None:
        if getattr(u, "strict", False):
            found.add(type(u).__name__ + "S")
        if isinstance(u, UipS):
            found.add("UipS")
        if isinstance(u, Univ) and not u.sort.is_fibrant:
            found.add("UnivS")
        for _, child, _ in term_children(u):
            go(child)

    go(t)
    return found


def mentions_inner_id(t: Term) -> bool:
    """True if the fibrant equality former (or its intro/elim) occurs in `t`."""
    if isinstance(t, (Id, Refl, IdElim)) and not t.strict:
        return True
    return any(mentions_inner_id(c) for _, c, _ in term_children(t))
