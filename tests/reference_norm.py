"""Reference normalizer: naive substitution-based leftmost-outermost
reduction, written directly from the computation rules.

This is the independent oracle for the NbE pipeline: it shares the Term
type and `subst`, but no evaluator, environment, or read-back code.
"""

from __future__ import annotations

from typing import Optional

from tltt import syntax as S
from tltt.syntax import Term

from term_helpers import _rebuild, subst, term_children


def step(t: Term, defs: dict[str, Term]) -> Optional[Term]:
    """One leftmost-outermost reduction step, or None when normal."""
    match t:
        case S.App(fn=S.Lam(body=b), arg=a):
            return subst(b, 0, a)
        case S.Const(name=n) if n in defs:
            return defs[n]
        case S.Fst(pair=S.Pair(fst=a)):
            return a
        case S.Snd(pair=S.Pair(snd=b)):
            return b
        # the rules hold in both fragments; a rebuilt node keeps its flag
        case S.Elim(former=S.Nat, args=(_, z, _), target=S.Zero()):
            return z
        case S.Elim(former=S.Nat, args=(_, _, s) as args, target=S.Succ(pred=n), strict=k):
            return S.App(S.App(s, n), S.Elim(S.Nat, args, n, strict=k))
        case S.Elim(former=S.Sum, args=(_, l, _), target=S.Inl(value=v)):
            return S.App(l, v)
        case S.Elim(former=S.Sum, args=(_, _, r), target=S.Inr(value=v)):
            return S.App(r, v)
        case S.Elim(former=S.Id, args=(_, c, a, _), target=S.Refl()):
            return S.App(c, a)
    for name, child, _ in term_children(t):
        reduced = step(child, defs)
        if reduced is not None:
            return _rebuild(t, {name: reduced})
    return None


def normalize_ref(t: Term, defs: Optional[dict[str, Term]] = None,
                  fuel: int = 2_000_000) -> Term:
    """Reduce to full normal form; `defs` maps names to definition bodies."""
    defs = defs or {}
    while fuel > 0:
        reduced = step(t, defs)
        if reduced is None:
            return t
        t = reduced
        fuel -= 1
    raise RuntimeError("reference normalization ran out of fuel")
