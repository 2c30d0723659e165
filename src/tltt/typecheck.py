"""Bidirectional elaboration with fibrancy tracking.

Type inference returns the least sort of every type expression; check mode
applies cumulative subsumption (fibrant universes embed in strict ones,
levels rise).  Inner equality, sums, naturals and the empty type insist on
fibrant data; their strict twins accept any pretype.  Eliminator motives
into the inner layer must land in a fibrant universe unless the strict
eliminator is used or strong mode is on.  In strong mode the parser reads the
strict naturals, sums and empty type as the fibrant ones.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from tltt import nbe
from tltt import syntax as S
from tltt import diagnostics as D
from tltt.diagnostics import CheckError, fail
from tltt.printer import pretty_print
from tltt.syntax import Sort, Span, Term, combine_sorts, fibrant, sort_sub, strict


class Flags(NamedTuple):
    strong: bool = False
    strict_pi: bool = False


class Entry(NamedTuple):
    name: Optional[str]
    ty: object  # Value


class Context:
    """Telescope of binder entries over a global signature."""

    def __init__(self, sig, flags: Flags = Flags(), entries: tuple = (), env=None):
        self.sig = sig
        self.flags = flags
        self.entries = entries
        self.env = env if env is not None else nbe.empty_env(sig)

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def strict_pi(self) -> bool:
        return self.flags.strict_pi

    def extend(self, name: Optional[str], ty) -> "Context":
        var = nbe.fresh_var(self.depth, ty)
        return Context(self.sig, self.flags, self.entries + (Entry(name, ty),),
                       nbe.extend(self.env, var))

    def lookup(self, index: int) -> Entry:
        return self.entries[-1 - index]

    def var_value(self, index: int):
        return self.env.lookup(index)

    def names(self) -> list[str]:
        return [e.name or "_" for e in self.entries]

    def show(self, v) -> str:
        """A value for a diagnostic, with constant applications left folded."""
        return pretty_print(nbe.quote(self.depth, v, unfold=False), self.names())

    def show_term(self, t: Term) -> str:
        return pretty_print(t, self.names())


def new_context(flags: Flags = Flags(), budget: Optional[int] = None) -> Context:
    sig = nbe.Signature([budget] if budget is not None else None)
    return Context(sig, flags)


# -- inference ------------------------------------------------------------------

def infer(ctx: Context, t: Term) -> tuple[Term, object]:
    """Elaborate `t`, returning the completed term and its inferred type value."""
    match t:
        case S.Var(index=i):
            if not 0 <= i < ctx.depth:
                raise fail(D.UNBOUND_VARIABLE, f"variable index {i} out of scope", t.span)
            return t, ctx.lookup(i).ty
        case S.Const(name=n):
            entry = ctx.sig.lookup(n)
            if entry is None:
                raise fail(D.UNBOUND_VARIABLE, f"unknown constant {n}", t.span)
            return t, entry.ty
        case S.Univ(sort=s):
            return t, nbe.VUniv(Sort(s.fragment, s.level + 1))
        case S.Pi(dom=dom, cod=cod):
            dom2, s1 = infer_universe(ctx, dom)
            inner = ctx.extend(t.hint, nbe.eval_in(ctx, dom2))
            cod2, s2 = infer_universe(inner, cod)
            return (S.Pi(dom2, cod2, hint=t.hint, span=t.span),
                    nbe.VUniv(combine_sorts(s1, s2)))
        case S.Sigma(fst=fst, snd=snd):
            fst2, s1 = infer_universe(ctx, fst)
            inner = ctx.extend(t.hint, nbe.eval_in(ctx, fst2))
            snd2, s2 = infer_universe(inner, snd)
            return (S.Sigma(fst2, snd2, hint=t.hint, span=t.span),
                    nbe.VUniv(combine_sorts(s1, s2)))
        case S.Lam(body=body, ann=ann):
            if ann is None:
                raise fail(D.INFERENCE_FAILURE,
                           "cannot infer the type of an unannotated lambda", t.span)
            ann2, _ = infer_universe(ctx, ann)
            dom_v = nbe.eval_in(ctx, ann2)
            inner = ctx.extend(t.hint, dom_v)
            body2, body_ty = infer(inner, body)
            cod_term = nbe.quote(inner.depth, body_ty)
            return (S.Lam(body2, ann=ann2, hint=t.hint, span=t.span),
                    nbe.VPi(dom_v, nbe.Closure(ctx.env, cod_term), t.hint))
        case S.App(fn=fn, arg=arg):
            fn2, fn_ty = infer(ctx, fn)
            pi = nbe.force(fn_ty)
            if not isinstance(pi, nbe.VPi):
                raise fail(D.CONVERSION_FAILURE, "application of a non-function",
                           t.span, expected="a function type", actual=ctx.show(fn_ty))
            arg2 = check(ctx, arg, pi.dom)
            return (S.App(fn2, arg2, span=t.span),
                    nbe.inst(pi.cod, nbe.eval_in(ctx, arg2)))
        case S.Pair():
            raise fail(D.INFERENCE_FAILURE,
                       "cannot infer the type of a bare pair; ascribe it", t.span)
        case S.Fst(pair=p):
            p2, p_ty = infer(ctx, p)
            sigma = nbe.force(p_ty)
            if not isinstance(sigma, nbe.VSigma):
                raise fail(D.CONVERSION_FAILURE, "first projection of a non-pair",
                           t.span, expected="a pair type", actual=ctx.show(p_ty))
            return S.Fst(p2, span=t.span), sigma.fst
        case S.Snd(pair=p):
            p2, p_ty = infer(ctx, p)
            sigma = nbe.force(p_ty)
            if not isinstance(sigma, nbe.VSigma):
                raise fail(D.CONVERSION_FAILURE, "second projection of a non-pair",
                           t.span, expected="a pair type", actual=ctx.show(p_ty))
            return (S.Snd(p2, span=t.span),
                    nbe.inst(sigma.snd, nbe.do_fst(nbe.eval_in(ctx, p2))))
        case S.Unit():
            return t, nbe.VUniv(fibrant(0))
        case S.Nat() | S.Empty():
            return t, nbe.VUniv(strict(0) if t.strict else fibrant(0))
        case S.Star():
            return t, nbe.UNIT
        case S.Zero():
            return t, nbe.NAT_S if t.strict else nbe.NAT
        case S.Succ(pred=p):
            nat = nbe.NAT_S if t.strict else nbe.NAT
            return S.Succ(check(ctx, p, nat), strict=t.strict, span=t.span), nat
        case S.Sum(left=l, right=r):
            l2, s1 = infer_universe(ctx, l)
            r2, s2 = infer_universe(ctx, r)
            if t.strict:
                sort = strict(max(s1.level, s2.level))
            elif not ctx.flags.strong:
                for side, s in ((l, s1), (r, s2)):
                    if not s.is_fibrant:
                        raise fail(D.FIBRANCY_VIOLATION,
                                   "sum formation requires fibrant summands",
                                   side.span or t.span, expected="a fibrant type",
                                   actual=ctx.show_term(side))
                sort = fibrant(max(s1.level, s2.level))
            else:
                sort = combine_sorts(s1, s2)
            return S.Sum(l2, r2, strict=t.strict, span=t.span), nbe.VUniv(sort)
        case S.Inl() | S.Inr():
            raise fail(D.INFERENCE_FAILURE,
                       "cannot infer the type of an injection; ascribe it", t.span)
        case S.Id():
            return _infer_equality(ctx, t)
        case S.Refl():
            raise fail(D.INFERENCE_FAILURE,
                       "cannot infer the endpoints of a reflexivity proof", t.span)
        case S.NatElim():
            return _infer_natelim(ctx, t)
        case S.SumElim():
            return _infer_sumelim(ctx, t)
        case S.EmptyElim():
            return _infer_emptyelim(ctx, t)
        case S.IdElim():
            return _infer_idelim(ctx, t)
        case S.UipS(p=p, q=q):
            p2, p_ty = infer(ctx, p)
            eq = nbe.force(p_ty)
            if not (isinstance(eq, nbe.VId) and eq.strict):
                raise fail(D.CONVERSION_FAILURE,
                           "Ks expects proofs of a strict equality", t.span,
                           expected="a strict equality type", actual=ctx.show(p_ty))
            q2 = check(ctx, q, p_ty)
            return (S.UipS(p2, q2, span=t.span),
                    nbe.VId(p_ty, nbe.eval_in(ctx, p2), nbe.eval_in(ctx, q2), True))
    raise fail(D.INFERENCE_FAILURE, f"cannot infer {type(t).__name__}", t.span)


def infer_universe(ctx: Context, t: Term) -> tuple[Term, Sort]:
    """Elaborate a term expected to be a type; returns it with its least sort."""
    t2, ty = infer(ctx, t)
    univ = nbe.force(ty)
    if isinstance(univ, nbe.VUniv):
        return t2, univ.sort
    raise fail(D.UNIVERSE_ERROR, "expected a type", t.span,
               expected="an element of some universe", actual=ctx.show(ty))


def value_sort(ctx: Context, ty, depth: Optional[int] = None, span=None) -> Sort:
    """Least sort of a type value, mirroring inference on the value level.

    A neutral is classified by its type, `nbe.neutral_type`: a variable
    X : U i classifies as Fibrant i, X : Us i as Strict i.
    """
    if depth is None:
        depth = ctx.depth
    ty = nbe.force(ty)
    if isinstance(ty, nbe.VUniv):
        return Sort(ty.sort.fragment, ty.sort.level + 1)
    if isinstance(ty, nbe.VPi):
        s1 = value_sort(ctx, ty.dom, depth, span)
        s2 = value_sort(ctx, nbe.inst(ty.cod, nbe.fresh_var(depth, ty.dom)),
                        depth + 1, span)
        return combine_sorts(s1, s2)
    if isinstance(ty, nbe.VSigma):
        s1 = value_sort(ctx, ty.fst, depth, span)
        s2 = value_sort(ctx, nbe.inst(ty.snd, nbe.fresh_var(depth, ty.fst)),
                        depth + 1, span)
        return combine_sorts(s1, s2)
    if isinstance(ty, (nbe.VUnit, nbe.VStar)):
        return fibrant(0)
    if isinstance(ty, (nbe.VNat, nbe.VEmpty)):
        return strict(0) if ty.strict else fibrant(0)
    if isinstance(ty, nbe.VSum):
        s1 = value_sort(ctx, ty.left, depth, span)
        s2 = value_sort(ctx, ty.right, depth, span)
        if ty.strict:
            return strict(max(s1.level, s2.level))
        return combine_sorts(s1, s2)
    if isinstance(ty, nbe.VId):
        level = value_sort(ctx, ty.ty, depth, span).level if ty.ty is not None else 0
        return strict(level) if ty.strict else fibrant(level)
    if isinstance(ty, nbe.VNeutral):
        ann = nbe.neutral_type(ty)
        if isinstance(ann, nbe.VUniv):
            return ann.sort
        raise fail(D.UNIVERSE_ERROR,
                   "cannot determine the universe of a neutral type", span)
    raise fail(D.UNIVERSE_ERROR, "expected a type value", span)


def _infer_equality(ctx, t):
    ty, lhs, rhs, is_strict = t.ty, t.lhs, t.rhs, t.strict
    former = "a strict equality" if is_strict else "an equality"
    if ty is None:
        try:
            lhs2, carrier = infer(ctx, lhs)
        except CheckError as err:
            if err.diagnostic.code == D.INFERENCE_FAILURE:
                raise fail(D.INFERENCE_FAILURE,
                           f"cannot infer the carrier type of {former}; "
                           "ascribe one endpoint", t.span)
            raise
        # folded, so that conversion can compare the carrier of each
        # evaluation of this equality without unfolding it
        ty2 = nbe.quote(ctx.depth, carrier, unfold=False)
        sort = value_sort(ctx, carrier, span=t.span)
    else:
        ty2, sort = infer_universe(ctx, ty)
        carrier = nbe.eval_in(ctx, ty2)
        lhs2 = check(ctx, lhs, carrier)
    if not is_strict and not sort.is_fibrant:
        raise fail(D.NON_FIBRANT_EQUALITY_FORMATION,
                   "the inner equality can only be formed over a fibrant type",
                   t.span, expected="a fibrant type",
                   actual=f"{ctx.show_term(ty2)} : {sort}")
    rhs2 = check(ctx, rhs, carrier)
    result_sort = strict(sort.level) if is_strict else fibrant(sort.level)
    return S.Id(ty2, lhs2, rhs2, strict=is_strict, span=t.span), nbe.VUniv(result_sort)


# -- eliminators ------------------------------------------------------------------

def _infer_motive(ctx: Context, motive: Term, dom_builders) -> tuple[Term, object]:
    """Infer an eliminator motive.  Bare lambdas are allowed: the eliminator
    dictates the family's domains, so only the codomain needs inference.
    `dom_builders` produce each domain value from the context extended with
    the preceding motive variables."""
    if not (isinstance(motive, S.Lam) and motive.ann is None and dom_builders):
        return infer(ctx, motive)
    dom_v = dom_builders[0](ctx)
    inner = ctx.extend(motive.hint, dom_v)
    body2, body_ty = _infer_motive(inner, motive.body, dom_builders[1:])
    cod_term = nbe.quote(inner.depth, body_ty)
    return (S.Lam(body2, ann=None, hint=motive.hint, span=motive.span),
            nbe.VPi(dom_v, nbe.Closure(ctx.env, cod_term), motive.hint))


def _motive_waived(ctx: Context, is_strict: bool) -> bool:
    return is_strict or ctx.flags.strong


def _expect_universe_value(ctx, v, span, what):
    univ = nbe.force(v)
    if isinstance(univ, nbe.VUniv):
        return univ.sort
    raise fail(D.UNIVERSE_ERROR, f"{what} must land in a universe", span,
               expected="a universe", actual=ctx.show(v))


def _check_motive_sort(ctx, sort: Sort, eliminator: str, span) -> None:
    if not sort.is_fibrant:
        raise fail(D.NON_FIBRANT_MOTIVE,
                   f"{eliminator} can only eliminate into families of fibrant types; "
                   f"the motive lands in {sort}", span)


def _peel_motive(ctx, pi, span) -> Sort:
    """The sort that a motive of Pi type `pi` lands in: its codomain's."""
    cod = nbe.inst(pi.cod, nbe.fresh_var(ctx.depth, pi.dom))
    return _expect_universe_value(ctx, cod, span, "the motive")


def _case_type(ctx, m_v, dom, body: Term):
    """The Pi type `(x : dom) -> body` of an eliminator case.  `body` sees
    `x` as `Var 0` and the motive `m_v` as `Var 1`."""
    return nbe.VPi(dom, nbe.Closure(nbe.extend(ctx.env, m_v), body))


def _infer_natelim(ctx, t):
    is_strict = t.strict
    nat = nbe.NAT_S if is_strict else nbe.NAT
    motive2, m_ty = _infer_motive(ctx, t.motive, [lambda c: nat])
    pi = nbe.force(m_ty)
    if not (isinstance(pi, nbe.VPi)
            and nbe.conv(ctx.depth, pi.dom, nat, None, ctx.strict_pi)):
        raise fail(D.CONVERSION_FAILURE, "the motive must be a family over the naturals",
                   t.motive.span or t.span,
                   expected=("NatS -> ..." if is_strict else "Nat -> ..."),
                   actual=ctx.show(m_ty))
    sort = _peel_motive(ctx, pi, t.motive.span or t.span)
    if not _motive_waived(ctx, is_strict):
        _check_motive_sort(ctx, sort, "natElim", t.motive.span or t.span)
    m_v = nbe.eval_in(ctx, motive2)
    zero = nbe.ZERO_S if is_strict else nbe.ZERO
    base2 = check(ctx, t.base, nbe.apply_value(m_v, zero))
    step_ty = _case_type(ctx, m_v, nat, S.Pi(  # (n : Nat) -> P n -> P (succ n)
        S.App(S.Var(1), S.Var(0)), S.App(S.Var(2), S.Succ(S.Var(1), strict=is_strict))))
    step2 = check(ctx, t.step, step_ty)
    target2 = check(ctx, t.target, nat)
    return (S.NatElim(motive2, base2, step2, target2, strict=is_strict, span=t.span),
            nbe.apply_value(m_v, nbe.eval_in(ctx, target2)))


def _infer_sumelim(ctx, t):
    is_strict = t.strict
    builders = []
    target2 = None
    if isinstance(t.motive, S.Lam) and t.motive.ann is None:
        # a bare-lambda motive: read the family's domain off the target
        target2, target_ty = infer(ctx, t.target)
        target_sum = nbe.force(target_ty)
        if not (isinstance(target_sum, nbe.VSum) and target_sum.strict == is_strict):
            raise fail(D.CONVERSION_FAILURE, "sum elimination of a non-sum",
                       t.target.span or t.span, actual=ctx.show(target_ty))
        builders = [lambda c: target_ty]
    motive2, m_ty = _infer_motive(ctx, t.motive, builders)
    pi = nbe.force(m_ty)
    sum_ty = nbe.force(pi.dom) if isinstance(pi, nbe.VPi) else None
    if not (isinstance(sum_ty, nbe.VSum) and sum_ty.strict == is_strict):
        raise fail(D.CONVERSION_FAILURE, "the motive must be a family over a sum type",
                   t.motive.span or t.span,
                   expected="(... +s ...) -> ..." if is_strict else "(... + ...) -> ...",
                   actual=ctx.show(m_ty))
    sort = _peel_motive(ctx, pi, t.motive.span or t.span)
    if not _motive_waived(ctx, is_strict):
        _check_motive_sort(ctx, sort, "sumElim", t.motive.span or t.span)
    m_v = nbe.eval_in(ctx, motive2)
    on_inl2 = check(ctx, t.on_inl, _case_type(  # (a : A) -> P (inl a)
        ctx, m_v, sum_ty.left, S.App(S.Var(1), S.Inl(S.Var(0), strict=is_strict))))
    on_inr2 = check(ctx, t.on_inr, _case_type(  # (b : B) -> P (inr b)
        ctx, m_v, sum_ty.right, S.App(S.Var(1), S.Inr(S.Var(0), strict=is_strict))))
    if target2 is None:
        target2 = check(ctx, t.target, sum_ty)
    else:  # elaborated above; `check` would infer it again
        _subsume(ctx, target_ty, sum_ty, t.target.span)
    return (S.SumElim(motive2, on_inl2, on_inr2, target2, strict=is_strict,
                      span=t.span),
            nbe.apply_value(m_v, nbe.eval_in(ctx, target2)))


def _infer_emptyelim(ctx, t):
    is_strict = t.strict
    empty = nbe.EMPTY_S if is_strict else nbe.EMPTY
    motive2, m_ty = _infer_motive(ctx, t.motive, [lambda c: empty])
    pi = nbe.force(m_ty)
    if not (isinstance(pi, nbe.VPi)
            and nbe.conv(ctx.depth, pi.dom, empty, None, ctx.strict_pi)):
        raise fail(D.CONVERSION_FAILURE,
                   "the motive must be a family over the empty type",
                   t.motive.span or t.span,
                   expected="EmptyS -> ..." if is_strict else "Empty -> ...",
                   actual=ctx.show(m_ty))
    sort = _peel_motive(ctx, pi, t.motive.span or t.span)
    if not _motive_waived(ctx, is_strict):
        _check_motive_sort(ctx, sort, "emptyElim", t.motive.span or t.span)
    m_v = nbe.eval_in(ctx, motive2)
    target2 = check(ctx, t.target, empty)
    return (S.EmptyElim(motive2, target2, strict=is_strict, span=t.span),
            nbe.apply_value(m_v, nbe.eval_in(ctx, target2)))


def _infer_idelim(ctx, t):
    is_strict = t.strict
    name = "Js" if is_strict else "J"
    builders = []
    lhs2 = None
    if isinstance(t.motive, S.Lam) and t.motive.ann is None:
        # a bare-lambda motive: the endpoints dictate the family's carrier
        lhs2, carrier_pre = infer(ctx, t.lhs)
        builders = [lambda c: carrier_pre, lambda c: carrier_pre,
                    lambda c: nbe.VId(carrier_pre, c.var_value(1), c.var_value(0),
                                      is_strict)]
    motive2, m_ty = _infer_motive(ctx, t.motive, builders)
    pi = nbe.force(m_ty)
    d = ctx.depth
    if not isinstance(pi, nbe.VPi):
        raise fail(D.CONVERSION_FAILURE, f"the {name} motive must abstract both "
                   "endpoints and the proof", t.motive.span or t.span,
                   actual=ctx.show(m_ty))
    carrier = pi.dom
    x1 = nbe.fresh_var(d, carrier)
    ty1 = nbe.force(nbe.inst(pi.cod, x1))
    if not (isinstance(ty1, nbe.VPi)
            and nbe.conv(d + 1, ty1.dom, carrier, None, ctx.strict_pi)):
        raise fail(D.CONVERSION_FAILURE, f"the {name} motive must take two endpoints "
                   "of the same type", t.motive.span or t.span, actual=ctx.show(m_ty))
    x2 = nbe.fresh_var(d + 1, carrier)
    ty2 = nbe.force(nbe.inst(ty1.cod, x2))
    eq = nbe.force(ty2.dom) if isinstance(ty2, nbe.VPi) else None
    eq_ok = (isinstance(eq, nbe.VId) and eq.strict == is_strict
             and nbe.conv(d + 2, eq.lhs, x1, carrier, ctx.strict_pi)
             and nbe.conv(d + 2, eq.rhs, x2, carrier, ctx.strict_pi))
    if not eq_ok:
        raise fail(D.CONVERSION_FAILURE,
                   f"the {name} motive must abstract a proof between its endpoints",
                   t.motive.span or t.span, actual=ctx.show(m_ty))
    cod = nbe.inst(ty2.cod, nbe.fresh_var(d + 2, ty2.dom))
    sort = _expect_universe_value(ctx, cod, t.motive.span or t.span, "the motive")
    if not is_strict:
        # J's motive restriction is never waived, even in strong mode.
        _check_motive_sort(ctx, sort, "J", t.motive.span or t.span)
    m_v = nbe.eval_in(ctx, motive2)
    refl_case2 = check(ctx, t.refl_case, _case_type(  # (x : A) -> P x x refl
        ctx, m_v, carrier,
        S.App(S.App(S.App(S.Var(1), S.Var(0)), S.Var(0)), S.Refl(strict=is_strict))))
    if lhs2 is None:
        lhs2 = check(ctx, t.lhs, carrier)
    else:  # elaborated above; `check` would infer it again
        _subsume(ctx, carrier_pre, carrier, t.lhs.span)
    rhs2 = check(ctx, t.rhs, carrier)
    lhs_v = nbe.eval_in(ctx, lhs2)
    rhs_v = nbe.eval_in(ctx, rhs2)
    proof2 = check(ctx, t.proof, nbe.VId(carrier, lhs_v, rhs_v, is_strict))
    return (S.IdElim(motive2, refl_case2, lhs2, rhs2, proof2, strict=is_strict,
                     span=t.span),
            nbe.apply_many(m_v, lhs_v, rhs_v, nbe.eval_in(ctx, proof2)))


# -- checking ----------------------------------------------------------------------

def check(ctx: Context, t: Term, expected) -> Term:
    """Check `t` against the type value `expected`, elaborating as needed."""
    match t:
        case S.Lam(body=body, ann=ann):
            pi = nbe.force(expected)
            if not isinstance(pi, nbe.VPi):
                raise fail(D.CONVERSION_FAILURE, "lambda checked at a non-function type",
                           t.span, expected=ctx.show(expected), actual="a lambda")
            if ann is not None:
                ann2, _ = infer_universe(ctx, ann)
                ann_v = nbe.eval_in(ctx, ann2)
                if not nbe.conv(ctx.depth, ann_v, pi.dom, None, ctx.strict_pi):
                    raise fail(D.CONVERSION_FAILURE,
                               "lambda annotation does not match the expected domain",
                               t.span, expected=ctx.show(pi.dom),
                               actual=ctx.show(ann_v))
            inner = ctx.extend(t.hint, pi.dom)
            var = inner.var_value(0)
            body2 = check(inner, body, nbe.inst(pi.cod, var))
            return S.Lam(body2, ann=ann, hint=t.hint, span=t.span)
        case S.Pair(fst=fst, snd=snd):
            sigma = nbe.force(expected)
            if not isinstance(sigma, nbe.VSigma):
                raise fail(D.CONVERSION_FAILURE, "pair checked at a non-pair type",
                           t.span, expected=ctx.show(expected), actual="a pair")
            fst2 = check(ctx, fst, sigma.fst)
            snd2 = check(ctx, snd, nbe.inst(sigma.snd, nbe.eval_in(ctx, fst2)))
            return S.Pair(fst2, snd2, span=t.span)
        case S.Refl():
            word = "refls" if t.strict else "refl"
            eq = nbe.force(expected)
            if not (isinstance(eq, nbe.VId) and eq.strict == t.strict):
                raise fail(D.CONVERSION_FAILURE,
                           f"{word} checked at a non-matching type", t.span,
                           expected=ctx.show(expected), actual=word)
            if not nbe.conv_in(ctx, eq.lhs, eq.rhs, eq.ty):
                raise fail(D.CONVERSION_FAILURE,
                           f"{word} requires definitionally equal endpoints", t.span,
                           expected=ctx.show(eq.lhs), actual=ctx.show(eq.rhs))
            return t
        case S.Inl(value=v) | S.Inr(value=v):
            sum_ty = nbe.force(expected)
            if not (isinstance(sum_ty, nbe.VSum) and sum_ty.strict == t.strict):
                raise fail(D.CONVERSION_FAILURE, "injection checked at a non-sum type",
                           t.span, expected=ctx.show(expected), actual="an injection")
            side = sum_ty.left if isinstance(t, S.Inl) else sum_ty.right
            return type(t)(check(ctx, v, side), strict=t.strict, span=t.span)
    t2, actual = infer(ctx, t)
    _subsume(ctx, actual, expected, t.span)
    return t2


def _subsume(ctx: Context, actual, expected, span) -> None:
    # conversion first, on the unforced values, so that it compares
    # applications of one constant without unfolding them; only when it
    # fails are both forced, for cumulativity between universes
    if nbe.conv(ctx.depth, actual, expected, None, ctx.strict_pi):
        return
    u_actual, u_expected = nbe.force(actual), nbe.force(expected)
    if isinstance(u_actual, nbe.VUniv) and isinstance(u_expected, nbe.VUniv):
        if sort_sub(u_actual.sort, u_expected.sort):
            return
        if u_actual.sort.level <= u_expected.sort.level:
            raise fail(D.FIBRANCY_VIOLATION,
                       "a pretype cannot be used where a fibrant type is required",
                       span, expected=str(u_expected.sort), actual=str(u_actual.sort))
        raise fail(D.UNIVERSE_ERROR, "universe level too large", span,
                   expected=str(u_expected.sort), actual=str(u_actual.sort))
    raise fail(D.CONVERSION_FAILURE, "type mismatch", span,
               expected=ctx.show(expected), actual=ctx.show(actual))


# -- declarations ---------------------------------------------------------------

class CheckedDecl(NamedTuple):
    name: str
    ty: Term
    body: Optional[Term]  # None for axioms
    is_axiom: bool
    span: Optional[Span] = None


def check_declaration(ctx: Context, decl) -> CheckedDecl:
    """Check one Definition or Axiom and extend the signature.  The context
    must be top level (empty telescope)."""
    if decl.name in ctx.sig:
        raise fail(D.DUPLICATE_NAME, f"{decl.name} is already declared", decl.span)
    ty2, _sort = infer_universe(ctx, decl.ty)
    ty_v = nbe.eval_in(ctx, ty2)
    if isinstance(decl, S.Axiom):
        ctx.sig.define(decl.name, ty_v, None, is_axiom=True)
        return CheckedDecl(decl.name, ty2, None, True, decl.span)
    body2 = check(ctx, decl.body, ty_v)
    body_v = nbe.eval_in(ctx, body2)
    ctx.sig.define(decl.name, ty_v, body_v, is_axiom=False)
    return CheckedDecl(decl.name, ty2, body2, False, decl.span)
