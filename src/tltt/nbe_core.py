"""Normalization by evaluation: semantic values, evaluation, read-back, conversion.

This module is the checker's hot loop; ``tltt.nbe`` re-exports it together
with the context-level entry points.

Evaluation is fragment-blind: strict eliminators compute exactly like the
fibrant ones.  Fibrancy is enforced by the typechecker, never here.

Values carry no types and evaluation computes none: a neutral's head records
its variable's or constant's type, and `neutral_type` derives the rest on
demand.

A former without parts (`Unit`, `star`, the naturals and zero, the empty
type, `refl`, each in its fragment) evaluates to one interned `VAtom`, which
holds the term it reads back as.  The ten atoms are the only instances, so
conversion, the eliminators and the checker tell them apart by identity.

Constants are glued.  Elaboration resolves each `Const name` to the one
value the signature holds for the name, and the mention evaluates to it: a
neutral whose `HConst` head also holds the definition's body; applying it
only pushes an argument.  `force` is the one place a constant unfolds: it
applies the body along the spine, counting one unfold against the
signature's budget, and leaves every other value as it is.
Eliminators, read-back and the checker force what they take apart;
conversion first compares two applications of one constant argument by
argument, and forces both sides only when that fails.  A forced
application memoizes its unfolding in the neutral's `unfolded` slot.  That
slot is a cache written at most once with a value determined by the rest of
the neutral, so it changes nothing that can be observed and values stay
immutable in substance.

Conversion exploits sharing before it computes.  Values are never mutated
and `evaluate` is deterministic, so two references to one value object are
equal.  Every elaborated mention of a constant evaluates to its one shared
value, which makes this common.

Checking and normalization share what they build.  Inside a call wrapped
by `sharing` (each item `tltt.cli.run` checks or runs, and
`nbe.normalize`), the kernel hash-conses what it would otherwise build anew
each time: a spine push per (neutral, frame), a fresh variable per (level,
type) and a successor per (predecessor, fragment), so equal numerals are one
value; and it memoizes a closure body's value per (body, environment,
argument) and a read-back per (value, depth, unfold).  The environment node a
body is evaluated in is built on a miss alone and is not hash-consed: the same
(body, environment, argument) returns the same value, so its closures already
hold the one node.  This is sound because values are immutable, `evaluate` is
deterministic and `unfolded` is written at most once.
Repeated work then yields the same objects, so its instantiations and
read-backs hit, and a normal form may share subterm objects: a DAG of
immutable terms that prints as the tree would.  The tables live for the one
call; a call nested in it builds tables of its own and puts the outer ones
back when it returns.  A closure body's entry holds the body, since a term
built and dropped within the call (a motive, a case template) would
otherwise free its id for another body.  Outside such a call these
functions only test `_shared` for None.
"""

import math
from functools import wraps

from tltt import syntax as S


class EvalError(Exception):
    """Raised on ill-typed redexes."""


class BudgetExhausted(Exception):
    """Raised by `force` once the unfold budget is spent: no verdict on the
    term, so not an `EvalError`."""


# -- signature ----------------------------------------------------------------

class Budget:
    """The number of unfolds performed so far and the count at which
    unfolding stops.  Every constant's head points here; it points at
    nothing, so a signature and its values hold no reference cycle."""

    __slots__ = ("unfolds", "limit")

    def __init__(self, limit=math.inf):
        self.unfolds = 0
        self.limit = limit  # `force` raises once `unfolds` has reached it


class Signature:
    """Global signature of checked declarations: each name's value, which
    its elaborated mentions hold (`Const.resolved`), and the unfold budget
    its definitions spend."""

    __slots__ = ("entries", "budget")

    def __init__(self, limit=math.inf):
        self.entries = {}
        self.budget = Budget(limit)

    def define(self, name, ty, body):
        """Glue `name : ty` to `body` (the evaluated definition), or leave it
        stuck if `body` is None: an axiom."""
        self.entries[name] = VNeutral(HConst(name, ty, body, self.budget), ())

    def lookup(self, name):
        return self.entries.get(name)

    def __contains__(self, name):
        return name in self.entries


# -- sharing within one call ------------------------------------------------------

class _Shared:
    """What one call under `sharing` has built, by what determines it."""

    __slots__ = ("spines", "vars", "succs", "bodies", "quoted")

    def __init__(self):
        self.spines = {}  # (neutral, frame) -> the neutral with the frame pushed
        self.vars = {}  # (level, type) -> the fresh variable
        self.succs = {}  # (predecessor, strict) -> the successor value
        self.bodies = {}  # (id of a closure body, environment, argument) -> (body, its value)
        self.quoted = {}  # (value, depth, unfold) -> its read-back


_shared = None  # the tables of the running `sharing` call, if any


def sharing(build):
    """`build` with the kernel sharing what it builds, in tables of its own
    that are dropped however it returns.  Called inside another such call,
    it puts back that call's tables when it returns."""
    @wraps(build)
    def shared(*args, **kwargs):
        global _shared
        outer, _shared = _shared, _Shared()
        try:
            return build(*args, **kwargs)
        finally:
            _shared = outer
    return shared


# -- environments ----------------------------------------------------------------

class Env:
    """Persistent environment: a cons list of variables' values, innermost
    first, that ends in `None`, the empty environment."""

    __slots__ = ("value", "parent")

    def __init__(self, value, parent):
        self.value = value
        self.parent = parent


EMPTY_ENV = None


def lookup(env, index):
    """The value of the variable `index` in `env`; an `EvalError` past the
    end of `env`."""
    while index > 0 and env is not None:
        env = env.parent
        index -= 1
    if env is None:
        raise EvalError("variable out of range")
    return env.value


def inst(lam, value):
    """The body of the lambda value `lam` with its variable bound to `value`."""
    shared = _shared
    if shared is None:
        return evaluate(lam.body, Env(value, lam.env))
    # a term hashes by structure, so the body is keyed by identity; the
    # entry holds the body, so no later body can be given its id
    key = (id(lam.body), lam.env, value)
    entry = shared.bodies.get(key)
    if entry is None:
        entry = shared.bodies[key] = (lam.body, evaluate(lam.body, Env(value, lam.env)))
    return entry[1]


# -- values --------------------------------------------------------------------

class Value:
    __slots__ = ()


class VUniv(Value):
    """The universe `U level`, or `Us level` when `strict`."""

    __slots__ = ("level", "strict")

    def __init__(self, level, strict=False):
        self.level = level
        self.strict = strict


class VBinder(Value):
    """A Pi or Sigma type: a domain, and its codomain as a lambda value over
    one variable of it, whose hint names the binder."""

    __slots__ = ("dom", "cod")

    def __init__(self, dom, cod):
        self.dom = dom
        self.cod = cod


class VPi(VBinder):
    __slots__ = ()


class VLam(Value):
    """A lambda is its own closure: its body under the one binder it opens,
    closed over its environment."""

    __slots__ = ("env", "body", "hint")

    def __init__(self, env, body, hint=None):
        self.env = env
        self.body = body
        self.hint = hint


class VSigma(VBinder):
    __slots__ = ()


class VPair(Value):
    __slots__ = ("fst", "snd")

    def __init__(self, fst, snd):
        self.fst = fst
        self.snd = snd


class VAtom(Value):
    """A value without parts, which reads back as `term`.  Only the ten
    atoms below are ever built, one per former and fragment, so two atoms
    are equal exactly when they are one object."""

    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term


class VSucc(Value):
    __slots__ = ("pred", "strict")

    def __init__(self, pred, strict):
        self.pred = pred
        self.strict = strict


class VSum(Value):
    __slots__ = ("left", "right", "strict")

    def __init__(self, left, right, strict):
        self.left = left
        self.right = right
        self.strict = strict


class VInj(Value):
    __slots__ = ("value", "is_left", "strict")

    def __init__(self, value, is_left, strict):
        self.value = value
        self.is_left = is_left
        self.strict = strict


class VId(Value):
    __slots__ = ("ty", "lhs", "rhs", "strict")

    def __init__(self, ty, lhs, rhs, strict):
        self.ty = ty  # Value: the carrier, which elaboration fills in
        self.lhs = lhs
        self.rhs = rhs
        self.strict = strict


# neutral heads

class HVar:
    __slots__ = ("level", "ty")

    def __init__(self, level, ty=None):
        self.level = level
        self.ty = ty


class HConst:
    """A constant: an axiom (`body` None) or a definition, glued to its body."""

    __slots__ = ("name", "ty", "body", "budget")

    def __init__(self, name, ty, body, budget):
        self.name = name
        self.ty = ty
        self.body = body
        self.budget = budget


class HUip:
    __slots__ = ("p", "q")
    ty = None  # the type of a `Ks` proof is not recorded; see `neutral_type`

    def __init__(self, p, q):
        self.p = p
        self.q = q


# elimination frames: an application's frame is its argument, a `Value`;
# a projection's is the term former it reads back as, `S.Fst` or `S.Snd`


class FElim:
    """A stuck eliminator: its former (`S.Nat`, `S.Sum`, `S.Empty` or
    `S.Id`), its arguments before the scrutinee as in `S.Elim.args` (the
    motive, the cases, the indices) and its fragment."""

    __slots__ = ("former", "args", "strict")

    def __init__(self, former, args, strict):
        self.former = former
        self.args = args
        self.strict = strict


class VNeutral(Value):
    """A stuck value: a head under an ordered spine of eliminations.  It
    carries no type; see `neutral_type`.

    Under a defined constant's head the value is glued, not stuck: its spine
    holds only application arguments and `force` unfolds it.  `unfolded` memoizes
    that unfolding for a non-empty spine; it is written once, by `force`."""

    __slots__ = ("head", "spine", "unfolded")

    def __init__(self, head, spine):
        self.head = head
        self.spine = spine  # tuple of frames, innermost first
        self.unfolded = None


UNIT = VAtom(S.Unit())
STAR = VAtom(S.Star())
NAT = VAtom(S.Nat())
NAT_S = VAtom(S.Nat(strict=True))
ZERO = VAtom(S.Zero())
ZERO_S = VAtom(S.Zero(strict=True))
EMPTY = VAtom(S.Empty())
EMPTY_S = VAtom(S.Empty(strict=True))
REFL = VAtom(S.Refl())
REFL_S = VAtom(S.Refl(strict=True))


def fresh_var(level, ty=None):
    shared = _shared
    if shared is None:
        return VNeutral(HVar(level, ty), ())
    key = (level, ty)
    var = shared.vars.get(key)
    if var is None:
        var = shared.vars[key] = VNeutral(HVar(level, ty), ())
    return var


# -- unfolding ------------------------------------------------------------------

def _is_glued(v):
    return (type(v) is VNeutral and type(v.head) is HConst
            and v.head.body is not None)


def force(v):
    """`v` with its head constant unfolded, repeatedly, until it is not glued.

    Each unfolding computed spends one unfold, up to the signature's
    `limit`.  An application's unfolding is memoized in its `unfolded` slot.
    A bare constant's is not, since it is the head's `body` already: each
    force of a bare constant spends an unfold."""
    if type(v) is not VNeutral:
        return v
    head = v.head
    if type(head) is not HConst or head.body is None:
        return v
    if v.unfolded is not None:
        return v.unfolded
    budget = head.budget
    if budget.unfolds >= budget.limit:
        raise BudgetExhausted("unfold budget exhausted")
    budget.unfolds += 1
    result = head.body
    for arg in v.spine:
        result = apply_value(result, arg)
    result = force(result)
    if v.spine:
        v.unfolded = result
    return result


# -- eliminators ----------------------------------------------------------------

def _push(neutral, frame):
    shared = _shared
    if shared is None:
        return VNeutral(neutral.head, neutral.spine + (frame,))
    key = (neutral, frame)
    pushed = shared.spines.get(key)
    if pushed is None:
        pushed = shared.spines[key] = VNeutral(neutral.head, neutral.spine + (frame,))
    return pushed


def apply_value(fn, arg):
    if isinstance(fn, VLam):
        return inst(fn, arg)
    if isinstance(fn, VNeutral):
        return _push(fn, arg)
    raise EvalError("application of a non-function value")


def apply_many(fn, *args):
    for a in args:
        fn = apply_value(fn, a)
    return fn


def project(v, frame):
    """The projection `frame` (`S.Fst` or `S.Snd`) of `v`."""
    v = force(v)
    if isinstance(v, VPair):
        return v.fst if frame is S.Fst else v.snd
    if isinstance(v, VNeutral):
        return _push(v, frame)
    raise EvalError(f"{'first' if frame is S.Fst else 'second'} projection of a non-pair value")


_NO_IOTA = {  # the message for a scrutinee of the wrong form, an ill-typed redex
    S.Nat: "natural-number elimination of a non-numeral",
    S.Sum: "sum elimination of a non-injection",
    S.Empty: "empty elimination of a canonical value",
    S.Id: "equality elimination of a non-proof",
}


def eliminate(former, args, target, strict):
    """The eliminator of `former` on the scrutinee `target`, given the
    arguments before it (as in `FElim`): the iota rule on a constructor, a
    stuck `FElim` frame on a neutral."""
    target = force(target)
    if former is S.Nat and (target is ZERO or target is ZERO_S):
        return args[1]
    if former is S.Nat and isinstance(target, VSucc):
        return apply_value(apply_value(args[2], target.pred),
                           eliminate(former, args, target.pred, strict))
    if former is S.Sum and isinstance(target, VInj):
        return apply_value(args[1] if target.is_left else args[2], target.value)
    if former is S.Id and (target is REFL or target is REFL_S):
        return apply_value(args[1], args[2])
    if isinstance(target, VNeutral):
        return _push(target, FElim(former, args, strict))
    raise EvalError(_NO_IOTA[former])


def neutral_type(v):
    """The type of the neutral `v`: its head's type taken along its spine,
    each frame by its eliminator's typing rule on the prefix before it.  An
    eliminator's frame gets its motive applied to its indices (the arguments
    after the cases) and the prefix.  None for a `Ks` head, a variable
    bound without a type, or an application or projection of a prefix with
    no Pi or Sigma type.  The type is forced at each step, and so is the
    result."""
    head = v.head
    ty = head.ty
    prefix = VNeutral(head, ())
    for frame in v.spine:
        ty = force(ty)
        if isinstance(frame, Value):
            ty = inst(ty.cod, frame) if isinstance(ty, VPi) else None
        elif frame is S.Fst:
            ty = ty.dom if isinstance(ty, VSigma) else None
        elif frame is S.Snd:
            ty = inst(ty.cod, project(prefix, S.Fst)) if isinstance(ty, VSigma) else None
        else:
            cases = S.ELIMINATORS[frame.former, frame.strict].cases
            ty = apply_many(frame.args[0], *frame.args[1 + len(cases):], prefix)
        prefix = _push(prefix, frame)
    return force(ty)


# -- evaluation -------------------------------------------------------------------

def evaluate(t, env):
    """Weak-head evaluate a well-scoped term in `env` (beta, projections, iota)."""
    cls = type(t)
    if cls is S.Var:
        return lookup(env, t.index)
    if cls is S.App:
        return apply_value(evaluate(t.fn, env), evaluate(t.arg, env))
    if cls is S.Lam:
        return VLam(env, t.body, t.hint)
    if cls is S.Const:
        if t.resolved is None:
            raise EvalError(f"unresolved constant {t.name}")
        return t.resolved
    if cls is S.Pi:
        return VPi(evaluate(t.dom, env), VLam(env, t.cod, t.hint))
    if cls is S.Sigma:
        return VSigma(evaluate(t.dom, env), VLam(env, t.cod, t.hint))
    if cls is S.Pair:
        return VPair(evaluate(t.fst, env), evaluate(t.snd, env))
    if cls is S.Fst or cls is S.Snd:
        return project(evaluate(t.pair, env), cls)
    if cls is S.Univ:
        return VUniv(t.level, t.strict)
    if cls is S.Unit:
        return UNIT
    if cls is S.Star:
        return STAR
    if cls is S.Nat:
        return NAT_S if t.strict else NAT
    if cls is S.Zero:
        return ZERO_S if t.strict else ZERO
    if cls is S.Succ:
        pred = evaluate(t.pred, env)
        shared = _shared
        if shared is None:
            return VSucc(pred, t.strict)
        key = (pred, t.strict)
        succ = shared.succs.get(key)
        if succ is None:
            succ = shared.succs[key] = VSucc(pred, t.strict)
        return succ
    if cls is S.Empty:
        return EMPTY_S if t.strict else EMPTY
    if cls is S.Sum:
        return VSum(evaluate(t.left, env), evaluate(t.right, env), t.strict)
    if cls is S.Inl or cls is S.Inr:
        return VInj(evaluate(t.value, env), cls is S.Inl, t.strict)
    if cls is S.Id:
        return VId(evaluate(t.ty, env), evaluate(t.lhs, env), evaluate(t.rhs, env),
                   t.strict)
    if cls is S.Refl:
        return REFL_S if t.strict else REFL
    if cls is S.UipS:
        return VNeutral(HUip(evaluate(t.p, env), evaluate(t.q, env)), ())
    if cls is S.Elim:
        return eliminate(t.former, tuple([evaluate(a, env) for a in t.args]),
                         evaluate(t.target, env), t.strict)
    raise EvalError(f"cannot evaluate {cls.__name__}")


# -- read-back ---------------------------------------------------------------------

def quote(depth, v, unfold=True):
    """Read a value back as a beta-iota-normal term at binding depth `depth`.

    With `unfold` false, an application of a defined constant is read back
    folded, as the constant applied to its read-back arguments."""
    cls = type(v)
    if cls is VAtom:  # nothing to share
        return v.term
    shared = _shared
    if shared is not None:
        key = (v, depth, unfold)
        term = shared.quoted.get(key)
        if term is not None:
            return term
    if cls is VNeutral and unfold:
        v = force(v)
        cls = type(v)
    if cls is VNeutral:
        term = _quote_neutral(depth, v, unfold)
    elif cls is VLam:
        term = S.Lam(quote(depth + 1, inst(v, fresh_var(depth)), unfold), hint=v.hint)
    elif cls is VPi or cls is VSigma:
        term = (S.Pi if cls is VPi else S.Sigma)(
            quote(depth, v.dom, unfold),
            quote(depth + 1, inst(v.cod, fresh_var(depth, v.dom)), unfold),
            hint=v.cod.hint)
    elif cls is VPair:
        term = S.Pair(quote(depth, v.fst, unfold), quote(depth, v.snd, unfold))
    elif cls is VUniv:
        term = S.Univ(v.level, strict=v.strict)
    elif cls is VAtom:  # a neutral that unfolded to one
        term = v.term
    elif cls is VSucc:
        term = S.Succ(quote(depth, v.pred, unfold), strict=v.strict)
    elif cls is VSum:
        term = S.Sum(quote(depth, v.left, unfold), quote(depth, v.right, unfold),
                     strict=v.strict)
    elif cls is VInj:
        term = (S.Inl if v.is_left else S.Inr)(quote(depth, v.value, unfold), strict=v.strict)
    elif cls is VId:
        # the carrier folded, as the checker elaborated it
        term = S.Id(quote(depth, v.ty, False), quote(depth, v.lhs, unfold),
                    quote(depth, v.rhs, unfold), strict=v.strict)
    else:
        raise EvalError(f"cannot quote {type(v).__name__}")
    if shared is not None:
        shared.quoted[key] = term
    return term


def _quote_neutral(depth, v, unfold):
    head = v.head
    if isinstance(head, HVar):
        if head.level >= depth:
            raise EvalError("variable level out of range during read-back")
        acc = S.Var(depth - 1 - head.level)
    elif isinstance(head, HConst):
        acc = S.Const(head.name, v if not v.spine else VNeutral(head, ()))
    elif isinstance(head, HUip):
        acc = S.UipS(quote(depth, head.p, unfold), quote(depth, head.q, unfold))
    else:
        raise EvalError("unknown neutral head")
    for frame in v.spine:
        if isinstance(frame, Value):
            acc = S.App(acc, quote(depth, frame, unfold))
        elif isinstance(frame, FElim):
            acc = S.Elim(frame.former, tuple([quote(depth, a, unfold) for a in frame.args]),
                         acc, strict=frame.strict)
        else:  # a projection
            acc = frame(acc)
    return acc


# -- conversion ----------------------------------------------------------------------

def conv(depth, a, b, ty, strict_pi=False):
    """Definitional equality of values `a` and `b` at type `ty`.

    Type-directed at Pi and Sigma (eta), sums (an injection's payload at its
    summand, where a lambda's variable gets a type) and types whose
    inhabitants are all equal (`_irrelevant_type`).  `ty` may be None, as in
    spines, where comparison is structural with untyped eta-expansion on
    lambda/pair mismatches, and the two types are consulted only if that
    fails.

    One value object is equal to itself (`a is b`), because values are
    immutable and conversion is reflexive; this settles a comparison without
    instantiating anything.

    Two applications of one defined constant to the same number of arguments
    are equal when their arguments are; otherwise both sides are forced and
    compared again.  The arguments are compared with `strict_pi` None: no
    type is worked out and no strict equality collapses; the forced one does.

    Otherwise the comparison instantiates and recurses as usual.  Both
    shortcuts only ever answer True, so they never hide an inequality; they
    do skip the unfolds the full comparison would spend against the budget.
    """
    if a is b:
        return True
    if ty is not None:
        ty = force(ty)
        if isinstance(ty, VPi):
            x = fresh_var(depth, ty.dom)
            return conv(depth + 1, apply_value(a, x), apply_value(b, x),
                        inst(ty.cod, x), strict_pi)
        if isinstance(ty, VSigma):
            fa = project(a, S.Fst)
            if not conv(depth, fa, project(b, S.Fst), ty.dom, strict_pi):
                return False
            return conv(depth, project(a, S.Snd), project(b, S.Snd), inst(ty.cod, fa),
                        strict_pi)
        if isinstance(ty, VSum):
            a, b = force(a), force(b)
            if isinstance(a, VInj) and isinstance(b, VInj):
                return (a.is_left == b.is_left and a.strict == b.strict
                        and conv(depth, a.value, b.value,
                                 ty.left if a.is_left else ty.right, strict_pi))
        return _irrelevant_type(depth, ty, strict_pi) or _conv_whnf(depth, a, b, strict_pi)
    return (_conv_whnf(depth, a, b, strict_pi)
            or strict_pi is not None and _irrelevant(depth, a, b, strict_pi))


def _conv_whnf(depth, a, b, strict_pi):
    if _is_glued(a) or _is_glued(b):
        if (_is_glued(a) and _is_glued(b) and a.head.name == b.head.name
                and _conv_spine(depth, a.spine, b.spine, None)):
            return True
        a = force(a)
        b = force(b)
        return a is b or _conv_whnf(depth, a, b, strict_pi)
    # eta: a lambda or pair meets a neutral of the corresponding shape
    if isinstance(a, VLam) or isinstance(b, VLam):
        x = fresh_var(depth)
        return conv(depth + 1, apply_value(a, x), apply_value(b, x), None, strict_pi)
    if isinstance(a, VPair) or isinstance(b, VPair):
        return (conv(depth, project(a, S.Fst), project(b, S.Fst), None, strict_pi)
                and conv(depth, project(a, S.Snd), project(b, S.Snd), None, strict_pi))
    if isinstance(a, VUniv):
        return isinstance(b, VUniv) and a.level == b.level and a.strict == b.strict
    if isinstance(a, VBinder):
        if not (type(b) is type(a) and conv(depth, a.dom, b.dom, None, strict_pi)):
            return False
        x = fresh_var(depth, a.dom)
        return conv(depth + 1, inst(a.cod, x), inst(b.cod, x), None, strict_pi)
    if isinstance(a, VAtom):
        return a is b
    if isinstance(a, VSucc):
        return (isinstance(b, VSucc) and a.strict == b.strict
                and conv(depth, a.pred, b.pred, None, strict_pi))
    if isinstance(a, VSum):
        return (isinstance(b, VSum) and a.strict == b.strict
                and conv(depth, a.left, b.left, None, strict_pi)
                and conv(depth, a.right, b.right, None, strict_pi))
    if isinstance(a, VInj):
        return (isinstance(b, VInj) and a.is_left == b.is_left
                and a.strict == b.strict
                and conv(depth, a.value, b.value, None, strict_pi))
    if isinstance(a, VId):
        return (isinstance(b, VId) and a.strict == b.strict
                and conv(depth, a.ty, b.ty, None, strict_pi)
                and conv(depth, a.lhs, b.lhs, a.ty, strict_pi)
                and conv(depth, a.rhs, b.rhs, a.ty, strict_pi))
    if isinstance(a, VNeutral):
        return (isinstance(b, VNeutral)
                and _conv_head(depth, a.head, b.head, strict_pi)
                and _conv_spine(depth, a.spine, b.spine, strict_pi))
    raise EvalError(f"cannot compare {type(a).__name__}")


def _irrelevant(depth, a, b, strict_pi):
    """Whether `a` and `b` inhabit a type whose inhabitants are all equal;
    `star` and `refls` are read off their form, before a neutral's type."""
    if isinstance(a, VNeutral):
        a, b = b, a
    return all(_irrelevant_type(depth, neutral_type(v), strict_pi)
               if isinstance(v, VNeutral)
               else v is STAR or strict_pi and v is REFL_S
               for v in (a, b))


def _irrelevant_type(depth, ty, strict_pi):
    """Whether all inhabitants of the forced type `ty` are equal: Unit, a
    strict equality under the flag, a Pi type into one, or a Sigma type of two."""
    if isinstance(ty, VBinder):
        x = fresh_var(depth, ty.dom)
        return ((isinstance(ty, VPi) or _irrelevant_type(depth, force(ty.dom), strict_pi))
                and _irrelevant_type(depth + 1, force(inst(ty.cod, x)), strict_pi))
    return ty is UNIT or strict_pi and isinstance(ty, VId) and ty.strict


def _conv_head(depth, h1, h2, strict_pi):
    if isinstance(h1, HVar):
        return isinstance(h2, HVar) and h1.level == h2.level
    if isinstance(h1, HConst):
        return isinstance(h2, HConst) and h1.name == h2.name
    if isinstance(h1, HUip):
        return (isinstance(h2, HUip)
                and conv(depth, h1.p, h2.p, None, strict_pi)
                and conv(depth, h1.q, h2.q, None, strict_pi))
    return False


def _conv_spine(depth, s1, s2, strict_pi):
    if len(s1) != len(s2):
        return False
    for f1, f2 in zip(s1, s2):
        if isinstance(f1, Value):
            if not (isinstance(f2, Value) and conv(depth, f1, f2, None, strict_pi)):
                return False
        elif isinstance(f1, FElim):
            if not (isinstance(f2, FElim) and f1.former is f2.former
                    and f1.strict == f2.strict):
                return False
            for a1, a2 in zip(f1.args, f2.args):
                if not conv(depth, a1, a2, None, strict_pi):
                    return False
        elif f1 is not f2:  # a projection against another frame
            return False
    return True
