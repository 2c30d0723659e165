"""Bidirectional elaboration with fibrancy tracking.

Type inference returns the least universe of every type expression, a
`VUniv` value: `U i` for a fibrant type, `Us i` for a pretype.  Check mode
applies cumulativity, `univ_below` (levels rise, and fibrant universes embed
in strict ones); a former built from pieces lands in their `univ_join`.
Inner equality, sums, naturals and the empty type insist on fibrant data;
their strict twins accept any pretype.  Eliminator motives into the inner
layer must land in a fibrant universe unless the strict eliminator is used
or strong mode is on.  In strong mode the parser reads the strict naturals,
sums and empty type as the fibrant ones.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from tltt import nbe
from tltt import syntax as S
from tltt import diagnostics as D
from tltt.diagnostics import CheckError, fail
from tltt.printer import pretty_print
from tltt.syntax import Span, Term


class Flags(NamedTuple):
    strong: bool = False
    strict_pi: bool = False


class Context:
    """Telescope of binders over a global signature: their names, and an
    environment of their variables, each of which records its type."""

    def __init__(self, sig, flags: Flags = Flags(), binders: Optional[tuple] = None,
                 depth: int = 0, env=None):
        self.sig = sig
        self.flags = flags
        # (innermost name, None if anonymous; outer binders), or None if empty
        self.binders = binders
        self.depth = depth  # the number of binders
        self.env = nbe.EMPTY_ENV if env is None else env

    @property
    def strict_pi(self) -> bool:
        return self.flags.strict_pi

    def extend(self, name: Optional[str], ty) -> "Context":
        var = nbe.fresh_var(self.depth, ty)
        return Context(self.sig, self.flags, (name, self.binders), self.depth + 1,
                       nbe.extend(self.env, var))

    def var_value(self, index: int):
        return self.env.lookup(index)

    def names(self) -> list[str]:
        """The binders' names, outermost first; a constant's name gets a number."""
        names, node = [], self.binders
        while node is not None:
            name, node = node
            names.append(name or "_")
        names.reverse()
        taken = set(names)
        for i, name in enumerate(names):
            new, k = name, 0
            while new in self.sig or (k and new in taken):
                k += 1
                new = names[i] = f"{name}{k}"
            taken.add(new)
        return names

    def show(self, v) -> str:
        """A value for a diagnostic, with constant applications left folded."""
        return pretty_print(nbe.quote(self.depth, v, unfold=False), self.names())

    def show_term(self, t: Term) -> str:
        return pretty_print(t, self.names())


def new_context(flags: Flags = Flags(), budget: Optional[int] = None) -> Context:
    sig = nbe.Signature() if budget is None else nbe.Signature(budget)
    return Context(sig, flags)


# -- inference ------------------------------------------------------------------

def infer(ctx: Context, t: Term) -> tuple[Term, object]:
    """Elaborate `t`, returning the completed term and its inferred type value."""
    match t:
        case S.Var(index=i):
            if not 0 <= i < ctx.depth:
                raise fail(D.UNBOUND_VARIABLE, f"variable index {i} out of scope", t.span)
            return t, ctx.var_value(i).head.ty
        case S.Const(name=n):
            value = ctx.sig.lookup(n)
            if value is None:
                raise fail(D.UNBOUND_VARIABLE, f"unknown constant {n}", t.span)
            return S.Const(n, value, span=t.span), value.head.ty
        case S.Univ():
            return t, nbe.VUniv(t.level + 1, t.strict)
        case S.Pi(dom=dom, cod=cod) | S.Sigma(dom=dom, cod=cod):
            dom2, s1 = infer_universe(ctx, dom)
            inner = ctx.extend(t.hint, nbe.eval_in(ctx, dom2))
            cod2, s2 = infer_universe(inner, cod)
            return type(t)(dom2, cod2, hint=t.hint, span=t.span), univ_join(s1, s2)
        case S.Lam():
            raise fail(D.INFERENCE_FAILURE,
                       "cannot infer the type of an unannotated lambda", t.span)
        case S.Ann(term=term, type=ty):
            ty2, _ = infer_universe(ctx, ty)
            ty_v = nbe.eval_in(ctx, ty2)
            return check(ctx, term, ty_v), ty_v
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
        case S.Fst(pair=p) | S.Snd(pair=p):
            first = isinstance(t, S.Fst)
            p2, p_ty = infer(ctx, p)
            sigma = nbe.force(p_ty)
            if not isinstance(sigma, nbe.VSigma):
                raise fail(D.CONVERSION_FAILURE,
                           f"{'first' if first else 'second'} projection of a non-pair",
                           t.span, expected="a pair type", actual=ctx.show(p_ty))
            return type(t)(p2, span=t.span), (
                sigma.dom if first
                else nbe.inst(sigma.cod, nbe.do_fst(nbe.eval_in(ctx, p2))))
        case S.Unit():
            return t, nbe.VUniv(0)
        case S.Nat() | S.Empty():
            return t, nbe.VUniv(0, t.strict)
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
            for side, s in ((l, s1), (r, s2)):
                if s.strict and not (t.strict or ctx.flags.strong):
                    raise fail(D.FIBRANCY_VIOLATION,
                               "sum formation requires fibrant summands",
                               side.span or t.span, expected="a fibrant type",
                               actual=ctx.show_term(side))
            return (S.Sum(l2, r2, strict=t.strict, span=t.span),
                    univ_join(s1, s2, t.strict))
        case S.Inl() | S.Inr():
            raise fail(D.INFERENCE_FAILURE,
                       "cannot infer the type of an injection; ascribe it", t.span)
        case S.Id():
            return _infer_equality(ctx, t)
        case S.Refl():
            raise fail(D.INFERENCE_FAILURE,
                       "cannot infer the endpoints of a reflexivity proof", t.span)
        case S.Elim():
            return _infer_elim(ctx, t)
        case S.UipS(p=p, q=q):
            p2, p_ty = infer(ctx, p)
            eq = nbe.force(p_ty)
            if not (isinstance(eq, nbe.VId) and eq.strict):
                raise fail(D.CONVERSION_FAILURE,
                           f"{S.keyword(S.UipS)} expects proofs of a strict equality",
                           t.span, expected="a strict equality type",
                           actual=ctx.show(p_ty))
            q2 = check(ctx, q, p_ty)
            return (S.UipS(p2, q2, span=t.span),
                    nbe.VId(p_ty, nbe.eval_in(ctx, p2), nbe.eval_in(ctx, q2), True))
    raise fail(D.INFERENCE_FAILURE, f"cannot infer {type(t).__name__}", t.span)


def univ_below(a, b) -> bool:
    """Cumulativity of the universes `a` and `b`: levels rise, and fibrant
    embeds into strict."""
    return a.level <= b.level and (b.strict or not a.strict)


def univ_join(a, b, strict: bool = False):
    """The least universe above `a` and `b`, strict if `strict` is: where a
    Pi, Sigma or sum type of pieces in `a` and `b` lands."""
    return nbe.VUniv(max(a.level, b.level), strict or a.strict or b.strict)


def infer_universe(ctx: Context, t: Term) -> tuple[Term, object]:
    """Elaborate a term expected to be a type; returns it with its least
    universe."""
    t2, ty = infer(ctx, t)
    univ = nbe.force(ty)
    if isinstance(univ, nbe.VUniv):
        return t2, univ
    raise fail(D.UNIVERSE_ERROR, "expected a type", t.span,
               expected="an element of some universe", actual=ctx.show(ty))


def value_sort(ty, depth: int, span=None):
    """Least universe of a type value at `depth`, mirroring inference on the
    value level.

    A neutral is classified by its type, `nbe.neutral_type`: a variable
    X : U i lands in U i, X : Us i in Us i.
    """
    ty = nbe.force(ty)
    if isinstance(ty, nbe.VUniv):
        return nbe.VUniv(ty.level + 1, ty.strict)
    if isinstance(ty, nbe.VBinder):
        s1 = value_sort(ty.dom, depth, span)
        s2 = value_sort(nbe.inst(ty.cod, nbe.fresh_var(depth, ty.dom)), depth + 1, span)
        return univ_join(s1, s2)
    if ty is nbe.UNIT or ty is nbe.NAT or ty is nbe.EMPTY:
        return nbe.VUniv(0)
    if ty is nbe.NAT_S or ty is nbe.EMPTY_S:
        return nbe.VUniv(0, True)
    if isinstance(ty, nbe.VSum):
        return univ_join(value_sort(ty.left, depth, span),
                         value_sort(ty.right, depth, span), ty.strict)
    if isinstance(ty, nbe.VId):
        return nbe.VUniv(value_sort(ty.ty, depth, span).level, ty.strict)
    if isinstance(ty, nbe.VNeutral):
        ann = nbe.neutral_type(ty)
        if isinstance(ann, nbe.VUniv):
            return ann
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
        sort = value_sort(carrier, ctx.depth, t.span)
    else:
        ty2, sort = infer_universe(ctx, ty)
        carrier = nbe.eval_in(ctx, ty2)
        lhs2 = check(ctx, lhs, carrier)
    if sort.strict and not is_strict:
        raise fail(D.NON_FIBRANT_EQUALITY_FORMATION,
                   "the inner equality can only be formed over a fibrant type",
                   t.span, expected="a fibrant type",
                   actual=f"{ctx.show_term(ty2)} : {ctx.show(sort)}")
    rhs2 = check(ctx, rhs, carrier)
    return (S.Id(ty2, lhs2, rhs2, strict=is_strict, span=t.span),
            nbe.VUniv(sort.level, is_strict))


# -- eliminators ------------------------------------------------------------------
#
# Every eliminator is checked by one rule over its schema, `S.ELIMINATORS`.
# `_RULES` adds what only the checker needs, per eliminator and fragment:
# how to read the carrier's pieces from a type value, and the diagnostics
# for a motive of the wrong shape.

class _Rule(NamedTuple):
    read: Optional[Callable]  # a type value's pieces, None if it is no carrier
    not_a_carrier: str  # the diagnostic for a first scrutinee with no pieces
    errors: tuple  # the diagnostic for a motive failing at each telescope position
    expected: Optional[str]  # the motive's shape, shown with those diagnostics


def _summands(strict_sum: bool) -> Callable:
    """The pieces of a sum type: the type as given, then its summands."""
    def read(v):
        forced = nbe.force(v)
        return ((v, forced.left, forced.right)
                if isinstance(forced, nbe.VSum) and forced.strict == strict_sum else None)
    return read


def _rules() -> dict:
    rules = {}
    for s in (False, True):
        j = S.ELIMINATORS[S.Id, s].word
        rules[S.Nat, s] = _Rule(None, "", ("the motive must be a family over the naturals",),
                                f"{S.keyword(S.Nat, s)} -> ...")
        rules[S.Sum, s] = _Rule(_summands(s), "sum elimination of a non-sum",
                                ("the motive must be a family over a sum type",),
                                "(... +s ...) -> ..." if s else "(... + ...) -> ...")
        rules[S.Empty, s] = _Rule(None, "",
                                  ("the motive must be a family over the empty type",),
                                  f"{S.keyword(S.Empty, s)} -> ...")
        rules[S.Id, s] = _Rule(
            lambda v: (v,), "",
            (f"the {j} motive must abstract both endpoints and the proof",
             f"the {j} motive must take two endpoints of the same type",
             f"the {j} motive must abstract a proof between its endpoints"),
            None)
    return rules


_RULES = _rules()


def _extend_all(env, values):
    for v in values:
        env = nbe.extend(env, v)
    return env


def _infer_motive(ctx: Context, motive: Term, telescope: tuple, env) -> tuple[Term, object]:
    """Infer an eliminator motive.  Bare lambdas are allowed: the eliminator
    dictates the family's domains, so only the codomain needs inference.
    The domains are the `telescope` templates, each evaluated in `env`
    extended by the motive variables before it."""
    if not (isinstance(motive, S.Lam) and telescope):
        return infer(ctx, motive)
    dom_v = nbe.evaluate(telescope[0], env)
    inner = ctx.extend(motive.hint, dom_v)
    body2, body_ty = _infer_motive(inner, motive.body, telescope[1:],
                                   nbe.extend(env, inner.var_value(0)))
    cod_term = nbe.quote(inner.depth, body_ty, unfold=False)
    return (S.Lam(body2, hint=motive.hint, span=motive.span),
            nbe.VPi(dom_v, nbe.VLam(ctx.env, cod_term, motive.hint)))


def _infer_elim(ctx: Context, t: S.Elim) -> tuple[Term, object]:
    """Elaborate an eliminator by its schema and its row of `_RULES`: the
    motive, its Pi type along the telescope, its codomain's universe, the
    cases, the scrutinees."""
    row, rule = S.ELIMINATORS[t.former, t.strict], _RULES[t.former, t.strict]
    motive, *parts = *t.args, t.target
    cases, scrutinees = parts[:len(row.cases)], parts[len(row.cases):]
    span = motive.span or t.span
    first = None  # the first scrutinee and its type, inferred for a bare motive
    pieces = ()
    if rule.read is not None and isinstance(motive, S.Lam):
        first = infer(ctx, scrutinees[0])
        pieces = rule.read(first[1])
        if pieces is None:
            raise fail(D.CONVERSION_FAILURE, rule.not_a_carrier,
                       scrutinees[0].span or t.span, actual=ctx.show(first[1]))
    motive2, m_ty = _infer_motive(ctx, motive, row.telescope,
                                  _extend_all(ctx.env, pieces))
    pi = nbe.force(m_ty)
    if rule.read is not None:
        pieces = rule.read(pi.dom) if isinstance(pi, nbe.VPi) else None
        if pieces is None:
            raise fail(D.CONVERSION_FAILURE, rule.errors[0], span,
                       expected=rule.expected, actual=ctx.show(m_ty))
    carrier_env = env = _extend_all(ctx.env, pieces)
    inner = ctx  # extended by the motive's indices
    for error, template in zip(rule.errors, row.telescope):
        if not (isinstance(pi, nbe.VPi) and nbe.conv(
                inner.depth, nbe.evaluate(template, env), pi.dom, None, ctx.strict_pi)):
            raise fail(D.CONVERSION_FAILURE, error, span,
                       expected=rule.expected, actual=ctx.show(m_ty))
        inner = inner.extend(pi.cod.hint, pi.dom)
        env = nbe.extend(env, inner.var_value(0))
        cod = nbe.inst(pi.cod, inner.var_value(0))
        pi = nbe.force(cod)
    if not isinstance(pi, nbe.VUniv):
        raise fail(D.UNIVERSE_ERROR, "the motive must land in a universe", span,
                   expected="a universe", actual=inner.show(cod))
    # a fibrant eliminator's motive lands in a fibrant universe; strong mode
    # waives this for the formers it merges with their strict twins
    if pi.strict and not (t.strict or ctx.flags.strong and t.former not in S.KEPT_APART):
        raise fail(D.NON_FIBRANT_MOTIVE,
                   f"{row.word} can only eliminate into families of fibrant "
                   f"types; the motive lands in {ctx.show(pi)}", span)
    m_v = nbe.eval_in(ctx, motive2)
    case_env = nbe.extend(carrier_env, m_v)
    cases2 = [check(ctx, case, nbe.evaluate(template, case_env))
              for case, template in zip(cases, row.cases)]
    env, scrutinees2, values = carrier_env, [], []
    for i, (scrutinee, template) in enumerate(zip(scrutinees, row.telescope)):
        ty = nbe.evaluate(template, env)
        if i == 0 and first is not None:  # elaborated above; `check` would infer it again
            scrutinee2 = first[0]
            _subsume(ctx, first[1], ty, scrutinee.span)
        else:
            scrutinee2 = check(ctx, scrutinee, ty)
        value = nbe.eval_in(ctx, scrutinee2)
        env = nbe.extend(env, value)
        scrutinees2.append(scrutinee2)
        values.append(value)
    return (S.Elim(t.former, (motive2, *cases2, *scrutinees2[:-1]), scrutinees2[-1],
                   strict=t.strict, span=t.span),
            nbe.apply_many(m_v, *values))


# -- checking ----------------------------------------------------------------------

def check(ctx: Context, t: Term, expected) -> Term:
    """Check `t` against the type value `expected`, elaborating as needed."""
    match t:
        case S.Lam(body=body):
            pi = nbe.force(expected)
            if not isinstance(pi, nbe.VPi):
                raise fail(D.CONVERSION_FAILURE, "lambda checked at a non-function type",
                           t.span, expected=ctx.show(expected), actual="a lambda")
            inner = ctx.extend(t.hint, pi.dom)
            var = inner.var_value(0)
            body2 = check(inner, body, nbe.inst(pi.cod, var))
            return S.Lam(body2, hint=t.hint, span=t.span)
        case S.Pair(fst=fst, snd=snd):
            sigma = nbe.force(expected)
            if not isinstance(sigma, nbe.VSigma):
                raise fail(D.CONVERSION_FAILURE, "pair checked at a non-pair type",
                           t.span, expected=ctx.show(expected), actual="a pair")
            fst2 = check(ctx, fst, sigma.dom)
            snd2 = check(ctx, snd, nbe.inst(sigma.cod, nbe.eval_in(ctx, fst2)))
            return S.Pair(fst2, snd2, span=t.span)
        case S.Refl():
            word = S.keyword(S.Refl, t.strict)
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
        if univ_below(u_actual, u_expected):
            return
        if u_actual.level <= u_expected.level:
            raise fail(D.FIBRANCY_VIOLATION,
                       "a pretype cannot be used where a fibrant type is required",
                       span, expected=ctx.show(u_expected), actual=ctx.show(u_actual))
        raise fail(D.UNIVERSE_ERROR, "universe level too large", span,
                   expected=ctx.show(u_expected), actual=ctx.show(u_actual))
    raise fail(D.CONVERSION_FAILURE, "type mismatch", span,
               expected=ctx.show(expected), actual=ctx.show(actual))


# -- declarations ---------------------------------------------------------------

class CheckedDecl(NamedTuple):
    name: str
    ty: Term
    body: Optional[Term]  # None for axioms
    span: Optional[Span] = None


def check_declaration(ctx: Context, decl) -> CheckedDecl:
    """Check one Definition or Axiom and extend the signature.  The context
    must be top level (empty telescope)."""
    if decl.name in ctx.sig:
        raise fail(D.DUPLICATE_NAME, f"{decl.name} is already declared", decl.span)
    ty2, _ = infer_universe(ctx, decl.ty)
    ty_v = nbe.eval_in(ctx, ty2)
    if isinstance(decl, S.Axiom):
        ctx.sig.define(decl.name, ty_v, None)
        return CheckedDecl(decl.name, ty2, None, decl.span)
    body2 = check(ctx, decl.body, ty_v)
    body_v = nbe.eval_in(ctx, body2)
    ctx.sig.define(decl.name, ty_v, body_v)
    return CheckedDecl(decl.name, ty2, body2, decl.span)
