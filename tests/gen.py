"""Seeded random generators for well-scoped and well-typed terms.

Well-typed generation is rule-directed: a simple type is generated first
and an inhabitant is built for it, so every emitted term checks by
construction.  Types are represented as terms; context entries are shifted
when binders are crossed.
"""

from __future__ import annotations

import random
from functools import partial

from tltt import syntax as S
from tltt.syntax import Term, shift

from term_helpers import strict_constructors, subst


def _strict(cls):
    return partial(cls, strict=True)


def rand_scoped(rng: random.Random, depth: int = 0, size: int = 6,
                consts: tuple[str, ...] = ()) -> Term:
    """An arbitrary well-scoped term (not necessarily well-typed), whose
    atoms include mentions of the constants named in `consts`."""
    atoms = [S.Star(), S.Zero(), S.Zero(strict=True), S.Unit(), S.Nat(),
             S.Nat(strict=True), S.Empty(), S.Empty(strict=True), S.Refl(),
             S.Refl(strict=True),
             S.Univ(rng.randrange(3)), S.Univ(rng.randrange(3), strict=True),
             *map(S.Const, consts)]
    if size <= 1:
        if depth and rng.random() < 0.5:
            return S.Var(rng.randrange(depth))
        return rng.choice(atoms)
    sub = lambda depth, size: rand_scoped(rng, depth, size, consts)
    part = lambda k=2: max(1, (size - 1) // k)
    pick = rng.randrange(15)
    if pick == 0:
        return S.Lam(sub(depth + 1, size - 1), hint="x")
    if pick == 1:
        return S.Pi(sub(depth, part()), sub(depth + 1, part()), hint="a")
    if pick == 2:
        return S.Sigma(sub(depth, part()), sub(depth + 1, part()), hint="b")
    if pick == 3:
        return S.App(sub(depth, part()), sub(depth, part()))
    if pick == 4:
        return S.Pair(sub(depth, part()), sub(depth, part()))
    if pick == 5:
        return rng.choice([S.Fst, S.Snd])(sub(depth, size - 1))
    if pick == 6:
        return rng.choice([S.Succ, _strict(S.Succ)])(sub(depth, size - 1))
    if pick == 7:
        return rng.choice([S.Sum, _strict(S.Sum)])(sub(depth, part()), sub(depth, part()))
    if pick == 8:
        return rng.choice([S.Inl, S.Inr, _strict(S.Inl), _strict(S.Inr)])(
            sub(depth, size - 1))
    if pick == 9:
        mk = rng.choice([S.Id, _strict(S.Id)])
        return mk(None, sub(depth, part()), sub(depth, part()))
    if 10 <= pick <= 12:
        former, arity = [(S.Nat, 4), (S.Sum, 4), (S.Id, 5)][pick - 10]
        strict = rng.choice([False, True])
        *args, target = (sub(depth, part(arity)) for _ in range(arity))
        return S.Elim(former, tuple(args), target, strict=strict)
    if pick == 13:
        return S.Ann(sub(depth, part()), sub(depth, part()))
    return S.UipS(sub(depth, part()), sub(depth, part()))


# -- well-typed generation ---------------------------------------------------
# Contexts are lists of type terms, innermost last, each scoped at its own
# binding depth (entry i is well-scoped under i binders).

def _ctx_types(ctx: list[Term]) -> list[tuple[int, Term]]:
    """(de Bruijn index, type shifted to current depth) for each entry."""
    out = []
    depth = len(ctx)
    for i, ty in enumerate(ctx):
        index = depth - 1 - i
        out.append((index, shift(ty, index + 1)))
    return out


def gen_type(rng: random.Random, ctx: list[Term], size: int) -> Term:
    """A closed-form inhabited fibrant-or-strict simple type in context."""
    if size <= 1:
        return rng.choice([S.Unit(), S.Nat(), S.Nat(strict=True)])
    pick = rng.randrange(8)
    part = max(1, size // 2)
    if pick == 0:
        dom = gen_type(rng, ctx, part)
        cod = gen_type(rng, ctx + [dom], part)
        return S.Pi(dom, cod, hint="x")
    if pick == 1:
        dom = gen_type(rng, ctx, part)
        cod = gen_type(rng, ctx + [dom], part)
        return S.Sigma(dom=dom, cod=cod, hint="p")
    if pick == 2:
        return S.Sum(_fibrant_type(rng, ctx, part), _fibrant_type(rng, ctx, part))
    if pick == 3:
        carrier = _fibrant_type(rng, ctx, part)
        endpoint = gen_term(rng, ctx, carrier, part)
        return S.Id(carrier, endpoint, endpoint)
    if pick == 4:
        carrier = gen_type(rng, ctx, part)
        endpoint = gen_term(rng, ctx, carrier, part)
        return S.Id(carrier, endpoint, endpoint, strict=True)
    return rng.choice([S.Unit(), S.Nat(), S.Nat(strict=True)])


def _fibrant_type(rng: random.Random, ctx: list[Term], size: int) -> Term:
    while True:
        ty = gen_type(rng, ctx, size)
        if not strict_constructors(ty):
            return ty


def gen_term(rng: random.Random, ctx: list[Term], ty: Term, size: int) -> Term:
    """An inhabitant of `ty` (as produced by gen_type) in `ctx`."""
    if size > 1 and rng.random() < 0.12:
        # wrap in a beta redex whose function is ascribed, preserving the
        # type; elaboration erases the ascription and keeps the redex
        inner = gen_term(rng, ctx, ty, size - 1)
        identity = S.Ann(S.Lam(S.Var(0), hint="x"), S.Pi(ty, shift(ty, 1), hint="x"))
        return S.App(identity, inner)
    if rng.random() < 0.3:
        for index, entry_ty in _ctx_types(ctx):
            if entry_ty == ty:
                return S.Var(index)
    match ty:
        case S.Unit():
            return S.Star()
        case S.Nat(strict=strict):
            n = rng.randrange(max(size, 1))
            t: Term = S.Zero(strict=strict)
            for _ in range(n):
                t = S.Succ(t, strict=strict)
            if size > 2 and rng.random() < 0.2:
                # eliminate a smaller numeral instead of writing one directly
                motive = S.Lam(shift(ty, 1), hint="n")
                stp = S.Lam(S.Lam(S.Succ(S.Var(0), strict=strict), hint="r"), hint="n")
                return S.Elim(S.Nat, (motive, t, stp), gen_term(rng, ctx, ty, size // 2),
                              strict=strict)
            return t
        case S.Pi(dom=dom, cod=cod):
            body = gen_term(rng, ctx + [dom], cod, max(1, size - 1))
            return S.Lam(body, hint="x")
        case S.Sigma(dom=dom, cod=cod):
            a = gen_term(rng, ctx, dom, max(1, size // 2))
            return S.Pair(a, gen_term(rng, ctx, subst(cod, 0, a), max(1, size // 2)))
        case S.Sum(left=l, right=r):
            if rng.random() < 0.5:
                return S.Inl(gen_term(rng, ctx, l, max(1, size - 1)))
            return S.Inr(gen_term(rng, ctx, r, max(1, size - 1)))
        case S.Id(strict=strict):
            return S.Refl(strict=strict)
    raise AssertionError(f"no inhabitant strategy for {ty}")


def gen_well_typed(rng: random.Random, size: int = 5) -> tuple[Term, Term]:
    """A closed well-typed (term, type-term) pair."""
    ty = gen_type(rng, [], size)
    return gen_term(rng, [], ty, size), ty
