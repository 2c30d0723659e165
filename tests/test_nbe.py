"""Evaluation, read-back, and conversion."""

import math
import random

import pytest

from tltt import corpus, nbe, nbe_core, syntax as S, typecheck as tc
from tltt.parser import parse_module, parse_term
from tltt.printer import pretty_print

import props
from gen import gen_well_typed
from reference_norm import normalize_ref, step


def empty_ctx():
    return tc.new_context()


def ev(t, ctx=None):
    ctx = ctx or empty_ctx()
    return nbe.evaluate(t, ctx.env)


def test_beta():
    assert ev(S.App(S.Lam(S.Var(0)), S.Star())) is nbe.STAR


def test_strict_nat_eliminator_addition():
    # 0 + 2 with the recursor, checked against a direct reference recursion
    def reference_add(m, n):
        return m if n == 0 else reference_add(m, n - 1) + 1

    nat, zero = S.Nat(strict=True), S.Zero(strict=True)
    two = S.Succ(S.Succ(zero, strict=True), strict=True)
    t = S.Elim(S.Nat, (S.Lam(nat), zero, S.Lam(S.Lam(S.Succ(S.Var(0), strict=True)))), two,
               strict=True)
    v = ev(t)
    count = 0
    while isinstance(v, nbe.VSucc):
        v, count = v.pred, count + 1
    assert v is nbe.ZERO_S
    assert count == reference_add(0, 2)


def test_strict_j_computes_on_refls():
    # Js with a constant motive and constant refl-case computes to the case
    t = parse_term(
        "Js ((\\x. \\y. \\q. Nat) : (x : Unit) -> (y : Unit) -> x =s y -> U 1)"
        " (\\x. 4) star star refls")
    ctx = empty_ctx()
    t2, _ = tc.infer(ctx, t)
    assert nbe.normalize(ctx, t2) == parse_term("4")


def test_quote_star_and_identity():
    assert nbe.quote(0, nbe.STAR) == S.Star()
    assert nbe.quote(0, ev(S.Lam(S.Var(0)))) == S.Lam(S.Var(0))


def test_quote_level_to_index():
    v = nbe.VNeutral(nbe.HVar(0), (nbe.STAR,))
    assert nbe.quote(1, v) == S.App(S.Var(0), S.Star())


# -- spines and lambdas ------------------------------------------------------------

def test_an_application_frame_is_its_argument():
    x, a = nbe.fresh_var(0), nbe.VSucc(nbe.ZERO, False)
    assert nbe.apply_value(x, a).spine[-1] is a


def test_projection_frames_are_shared():
    x, y = nbe.fresh_var(0), nbe.fresh_var(1)
    assert nbe.project(x, S.Fst).spine[-1] is nbe.project(y, S.Fst).spine[-1] is S.Fst
    assert nbe.project(x, S.Snd).spine[-1] is nbe.project(y, S.Snd).spine[-1] is S.Snd


def test_a_lambda_is_its_own_closure():
    lam = ev(S.Lam(S.Succ(S.Var(0))))
    assert isinstance(lam, nbe.VLam)
    assert nbe.quote(0, nbe.inst(lam, nbe.ZERO)) == S.Succ(S.Zero())


def _one_frame(kind, x):
    """`x` under one frame of `kind`."""
    if kind == "app":
        return nbe.apply_value(x, nbe.ZERO)
    if kind == "fst":
        return nbe.project(x, S.Fst)
    if kind == "snd":
        return nbe.project(x, S.Snd)
    return nbe.eliminate(S.Nat, (ev(S.Lam(S.Nat())), nbe.ZERO,
                                 ev(S.Lam(S.Lam(S.Var(0))))), x, False)


@pytest.mark.parametrize("former, args, target, message", [
    (S.Nat, (None, None, None), nbe.STAR, "natural-number elimination of a non-numeral"),
    (S.Sum, (None, None, None), nbe.ZERO, "sum elimination of a non-injection"),
    (S.Empty, (None,), nbe.STAR, "empty elimination of a canonical value"),
    (S.Id, (None, None, None, None), nbe.ZERO, "equality elimination of a non-proof"),
], ids=["natElim", "sumElim", "emptyElim", "J"])
def test_an_eliminator_on_a_foreign_constructor_is_an_ill_typed_redex(
        former, args, target, message):
    with pytest.raises(nbe.EvalError) as e:
        nbe.eliminate(former, args, target, False)
    assert str(e.value) == message


def test_an_unbound_variable_and_a_projection_of_a_non_pair_are_ill_typed_redexes():
    # an index past the end of any environment, not only the empty one, is
    # an evaluation error rather than an AttributeError
    one = nbe.Env(nbe.STAR, nbe.EMPTY_ENV)
    for index, env in [(0, nbe.EMPTY_ENV), (1, one), (2, one)]:
        with pytest.raises(nbe.EvalError) as e:
            nbe.evaluate(S.Var(index), env)
        assert str(e.value) == "variable out of range"
    for frame, message in [(S.Fst, "first projection of a non-pair value"),
                           (S.Snd, "second projection of a non-pair value")]:
        with pytest.raises(nbe.EvalError) as e:
            nbe.project(nbe.STAR, frame)
        assert str(e.value) == message


@pytest.mark.parametrize("left, right", [
    ("app", "fst"), ("app", "snd"), ("fst", "snd"), ("app", "natElim"), ("fst", "natElim"),
])
def test_conv_tells_frames_of_different_kinds_apart(left, right):
    x = nbe.fresh_var(0)
    a, b = _one_frame(left, x), _one_frame(right, x)
    assert nbe.conv(1, a, _one_frame(left, x), None)
    assert nbe.conv(1, b, _one_frame(right, x), None)
    assert not nbe.conv(1, a, b, None)
    assert not nbe.conv(1, b, a, None)


@pytest.mark.parametrize("term, expected", [
    ("natElim (\\n. n = n) refl (\\k. \\r. refl) (fst (g a))", "fst (g a) = fst (g a)"),
    ("J (\\x. \\y. \\r. r = r) (\\x. refl) (fst (g a)) (fst (g a)) (snd (g a))",
     "snd (g a) = snd (g a)"),
], ids=["natElim-fst-app", "J-snd-app"])
def test_neutral_type_and_quote_agree_on_a_mixed_spine(term, expected):
    ctx = empty_ctx()
    for name, text in [("g", "Nat -> (n : Nat) * (n = n)"), ("a", "Nat")]:
        ty, _ = tc.infer_universe(ctx, parse_term(text, scope=ctx.names()))
        ctx = ctx.extend(name, nbe.eval_in(ctx, ty))
    t, ty = tc.infer(ctx, parse_term(term, scope=ctx.names()))
    v = nbe.eval_in(ctx, t)
    assert isinstance(v, nbe.VNeutral) and len(v.spine) >= 3
    assert nbe.quote(ctx.depth, v) == t
    # the type derived along the spine is the type the checker gives the read-back
    _, read_back_ty = tc.infer(ctx, nbe.quote(ctx.depth, v))
    assert nbe.quote(ctx.depth, nbe.neutral_type(v)) == nbe.quote(ctx.depth, read_back_ty) \
        == nbe.quote(ctx.depth, ty) == parse_term(expected, scope=ctx.names())


# Each eliminator with its arguments before the scrutinee, as pairs of
# different surface terms; the first of each pair is the default.
_ELIMINATORS = {
    "natElim": [("\\n. Nat", "\\n. Unit"), ("0", "1"),
                ("\\k. \\r. succ r", "\\k. \\r. r")],
    "sumElim": [("\\s. Nat", "\\s. Unit"), ("\\a. 0", "\\a. 1"),
                ("\\b. succ b", "\\b. b")],
    "emptyElim": [("\\e. Nat", "\\e. Unit")],
    "J": [("\\a. \\b. \\q. Nat", "\\a. \\b. \\q. Unit"), ("\\a. 0", "\\a. 1"),
          ("0", "1"), ("0", "2")],
}
_STRICT_NAME = {"natElim": "natElimS", "sumElim": "sumElimS",
                "emptyElim": "emptyElimS", "J": "Js"}


def _stuck(name, args, strict=False):
    """The eliminator `name` on the variable `x`, its value and its term."""
    word = _STRICT_NAME[name] if strict else name
    t = parse_term(" ".join([word] + [f"({a})" for a in args] + ["x"]), scope=["x"])
    env = nbe.Env(nbe.fresh_var(0), empty_ctx().env)
    return nbe.evaluate(t, env), t


@pytest.mark.parametrize("strict", [False, True], ids=["fibrant", "strict"])
@pytest.mark.parametrize("name", list(_ELIMINATORS))
def test_stuck_eliminators_read_back_and_compare_by_former_flag_and_args(name, strict):
    args = [first for first, _ in _ELIMINATORS[name]]
    v, t = _stuck(name, args, strict)
    assert isinstance(v, nbe.VNeutral) and len(v.spine) == 1
    assert nbe.quote(1, v) == t
    assert nbe.conv(1, v, _stuck(name, args, strict)[0], None)
    assert not nbe.conv(1, v, _stuck(name, args, not strict)[0], None)
    for i, (_, other) in enumerate(_ELIMINATORS[name]):
        changed = args[:i] + [other] + args[i + 1:]
        assert not nbe.conv(1, v, _stuck(name, changed, strict)[0], None), i


def test_stuck_eliminators_with_equal_arguments_differ_by_former():
    # natElim and sumElim both take three arguments before the scrutinee
    args = [first for first, _ in _ELIMINATORS["natElim"]]
    nat, _ = _stuck("natElim", args)
    sum_, _ = _stuck("sumElim", args)
    assert not nbe.conv(1, nat, sum_, None)


def test_normalize_beta_iota():
    ctx = empty_ctx()
    assert nbe.normalize(ctx, S.App(S.Lam(S.Var(0)), S.Zero())) == S.Zero()
    t = parse_term("natElim ((\\n. Nat) : Nat -> U 1) 0 (\\n. \\r. succ r) 3")
    t2, _ = tc.infer(ctx, t)
    assert nbe.normalize(ctx, t2) == parse_term("3")


def test_axioms_and_uip_stay_neutral():
    ctx = empty_ctx()
    ctx.sig.define("ax", ev(S.Pi(S.Nat(), S.Nat()), ctx), None)
    t = S.App(S.Const("ax", ctx.sig.lookup("ax")), S.Zero())
    nf = nbe.normalize(ctx, t)
    assert nf == S.App(S.Const("ax"), S.Zero())
    # Ks never computes, even on identical canonical proofs
    ks = parse_term("Ks p p", scope=["a", "p"])
    nat = ev(S.Nat())
    ctx2 = ctx.extend("a", nat)
    ctx2 = ctx2.extend("p", nbe.VId(nat, ctx2.var_value(0), ctx2.var_value(0), True))
    t2, _ = tc.infer(ctx2, ks)
    assert isinstance(nbe.eval_in(ctx2, t2), nbe.VNeutral)


ATOMS = [(S.Unit(), nbe.UNIT), (S.Star(), nbe.STAR),
         (S.Nat(), nbe.NAT), (S.Nat(strict=True), nbe.NAT_S),
         (S.Zero(), nbe.ZERO), (S.Zero(strict=True), nbe.ZERO_S),
         (S.Empty(), nbe.EMPTY), (S.Empty(strict=True), nbe.EMPTY_S),
         (S.Refl(), nbe.REFL), (S.Refl(strict=True), nbe.REFL_S)]


@pytest.mark.parametrize("term, atom", ATOMS, ids=[repr(t) for t, _ in ATOMS])
def test_an_atom_evaluates_to_its_one_value_and_reads_back_as_its_term(term, atom):
    assert type(atom) is nbe.VAtom and ev(term) is atom
    assert atom.term == term
    for depth in (0, 3):
        assert nbe.quote(depth, atom) is atom.term


def test_distinct_atoms_are_not_convertible():
    atoms = [atom for _, atom in ATOMS]
    others = [nbe.fresh_var(0), nbe.fresh_var(0, nbe.NAT), nbe.VUniv(0)]
    for a in atoms:
        # equal to itself also where no caller has tested identity first
        assert nbe_core._conv_whnf(1, a, a, False)
        for b in atoms + others:
            if b is not a:
                assert not nbe.conv(1, a, b, None) and not nbe.conv(1, b, a, None)


def test_definitions_unfold_axioms_do_not():
    ctx = empty_ctx()
    ctx.sig.define("two", nbe.NAT, ev(S.Succ(S.Succ(S.Zero()))))
    assert nbe.normalize(ctx, S.Const("two", ctx.sig.lookup("two"))) == parse_term("2")


def test_unfold_budget():
    # forcing a constant spends an unfold; evaluating a mention of it does not
    ctx = tc.new_context(budget=1)
    ctx.sig.define("d", nbe.NAT, nbe.ZERO)
    d = S.Const("d", ctx.sig.lookup("d"))
    assert nbe.force(nbe.evaluate(d, ctx.env)) is nbe.ZERO
    with pytest.raises(nbe.BudgetExhausted, match="unfold budget exhausted"):
        nbe.force(nbe.evaluate(d, ctx.env))
    ctx.sig.budget.limit = ctx.sig.budget.unfolds
    nbe.evaluate(d, ctx.env)


# -- glued constants ----------------------------------------------------------------

def _checked_ctx(*texts):
    """A context that has checked each text (a library file or source) in order."""
    ctx = empty_ctx()
    for text in texts:
        module = parse_module(text, "<test>", known_names=ctx.sig.entries.keys())
        for decl in module.decls:
            if not isinstance(decl, S.Pragma):
                tc.check_declaration(ctx, decl)
    return ctx


@pytest.fixture(scope="module")
def sst_ctx():
    return _checked_ctx(*((corpus.CORPUS_DIR / name).read_text()
                          for name in ("prelude.2lt", "fin.2lt", "sst.2lt")))


def test_a_mention_evaluates_to_the_value_it_resolved_to():
    ctx = _checked_ctx("axiom f : Nat -> Nat\ndef d : Nat := f 0")
    d, _ = tc.infer(ctx, parse_term("d", known_names=["f", "d"]))
    assert nbe.eval_in(ctx, d) is ctx.sig.lookup("d")
    # read back, an applied constant is resolved too, to a head of its own
    f0 = nbe.quote(0, nbe.eval_in(ctx, d))
    assert f0 == S.App(S.Const("f"), S.Zero())
    assert nbe.eval_in(ctx, f0).head is ctx.sig.lookup("f").head
    # the parser resolves nothing
    with pytest.raises(nbe.EvalError, match="unresolved constant d"):
        nbe.eval_in(ctx, parse_term("d", known_names=["d"]))


def _conv_text(ctx, a, b, ty):
    """Elaborate `a` and `b` independently at the type `ty` and compare them."""
    names = ctx.sig.entries.keys()
    ty2, _ = tc.infer_universe(ctx, parse_term(ty, known_names=names))
    ty_v = nbe.eval_in(ctx, ty2)
    a_v, b_v = (nbe.eval_in(ctx, tc.check(ctx, parse_term(t, known_names=names), ty_v))
                for t in (a, b))
    return nbe.conv_in(ctx, a_v, b_v, ty_v)


def test_same_constant_applications_compare_without_unfolding(sst_ctx):
    # each SST 5s has its own numeral objects, so no sharing rule applies
    budget = sst_ctx.sig.budget
    budget.limit = budget.unfolds
    try:
        assert _conv_text(sst_ctx, "SST 5s", "SST 5s", "U 1")
    finally:
        budget.limit = math.inf


def test_same_constant_applications_unfold_after_a_spine_mismatch():
    ctx = _checked_ctx("def keep : U 1 -> NatS -> U 1 := \\A. \\n. A")
    assert _conv_text(ctx, "keep Nat 0s", "keep Nat 1s", "U 1")
    assert not _conv_text(ctx, "keep Nat 0s", "keep Unit 0s", "U 1")


def test_different_stages_are_not_convertible(sst_ctx):
    assert not _conv_text(sst_ctx, "SST 1s", "SST 2s", "U 1")


def test_a_glued_constant_meets_its_unfolding():
    ctx = _checked_ctx("def Pt : U 1 := (A : U 0) * A")
    assert _conv_text(ctx, "Pt", "(A : U 0) * A", "U 1")
    assert _conv_text(ctx, "(A : U 0) * A", "Pt", "U 1")


def test_eta_for_sigma_pi_unit():
    ctx = empty_ctx()
    sigma = ev(S.Sigma(S.Nat(), S.Nat()))
    c1 = ctx.extend("p", sigma)
    p = c1.var_value(0)
    assert nbe.conv(c1.depth, p, nbe.VPair(nbe.project(p, S.Fst), nbe.project(p, S.Snd)),
                    sigma)
    pi = ev(S.Pi(S.Nat(), S.Nat()))
    c2 = ctx.extend("f", pi)
    f = c2.var_value(0)
    eta = nbe.evaluate(S.Lam(S.App(S.Var(1), S.Var(0))), c2.env)
    assert nbe.conv(c2.depth, f, eta, pi)
    c3 = ctx.extend("u", nbe.UNIT)
    assert nbe.conv(c3.depth, c3.var_value(0), nbe.STAR, nbe.UNIT)


def test_conv_distinguishes_constructors_and_fragments():
    assert not nbe.conv(0, nbe.ZERO, nbe.VSucc(nbe.ZERO, False), nbe.NAT)
    assert not nbe.conv(0, nbe.NAT, nbe.NAT_S, nbe.VUniv(0, True))
    assert not nbe.conv(0, nbe.VUniv(0), nbe.VUniv(0, True), None)


def test_strict_proof_irrelevance_flag():
    ctx = empty_ctx()
    nat = nbe.NAT
    ids = nbe.VId(nat, nbe.ZERO, nbe.ZERO, True)
    c = ctx.extend("p", ids).extend("q", ids)
    p, q = c.var_value(1), c.var_value(0)
    assert not nbe.conv(c.depth, p, q, ids, False)
    assert nbe.conv(c.depth, p, q, ids, True)
    # the fibrant identity type is not collapsed
    idf = nbe.VId(nat, nbe.ZERO, nbe.ZERO, False)
    c2 = ctx.extend("p", idf).extend("q", idf)
    assert not nbe.conv(c2.depth, c2.var_value(1), c2.var_value(0), idf, True)


def test_idempotence_sampled():
    rng = random.Random(77)
    ctx = empty_ctx()
    for _ in range(250):
        t, ty = gen_well_typed(rng, size=rng.randrange(2, 7))
        ty2, _ = tc.infer_universe(ctx, ty)
        t2 = tc.check(ctx, t, nbe.eval_in(ctx, ty2))
        once = nbe.normalize(ctx, t2)
        assert nbe.normalize(ctx, once) == once


def test_single_step_soundness_sampled():
    # one beta/iota step (from the reference stepper) preserves conversion
    rng = random.Random(78)
    ctx = empty_ctx()
    for _ in range(250):
        t, ty = gen_well_typed(rng, size=rng.randrange(2, 7))
        ty2, _ = tc.infer_universe(ctx, ty)
        t2 = tc.check(ctx, t, nbe.eval_in(ctx, ty2))
        stepped = step(t2, {})
        if stepped is None:
            continue
        assert nbe.conv(0, nbe.eval_in(ctx, t2), nbe.eval_in(ctx, stepped),
                        nbe.eval_in(ctx, ty2))


def test_nbe_agrees_with_reference_normalizer_sampled():
    rng = random.Random(79)
    ctx = empty_ctx()
    for _ in range(250):
        t, ty = gen_well_typed(rng, size=rng.randrange(2, 6))
        ty2, _ = tc.infer_universe(ctx, ty)
        t2 = tc.check(ctx, t, nbe.eval_in(ctx, ty2))
        assert nbe.normalize(ctx, t2) == normalize_ref(t2)


# -- the type of a neutral --------------------------------------------------------

def test_stuck_application_spends_no_unfolds_on_its_type():
    # the type of `f 0` is `T`, a definition: evaluation must not unfold it
    ctx = empty_ctx()
    for decl in parse_module("def T : U 0 := Nat\naxiom f : Nat -> T", "<test>").decls:
        tc.check_declaration(ctx, decl)
    budget = ctx.sig.budget
    budget.limit = unfolds = budget.unfolds
    v = nbe.evaluate(S.App(S.Const("f", ctx.sig.lookup("f")), S.Zero()), ctx.env)
    assert isinstance(v, nbe.VNeutral) and budget.unfolds == unfolds
    assert nbe.quote(0, v) == S.App(S.Const("f"), S.Zero())
    budget.limit = math.inf
    assert nbe.neutral_type(v) is nbe.NAT


def _neutral_ctx(strict=False):
    """A context of variables of every eliminable shape, in one fragment."""
    ctx = empty_ctx()
    for name, text in [("f", "(n : Nat) -> n = n"), ("p", "(n : Nat) * (n = n)"),
                       ("x", "Nat"), ("s", "Nat + Nat"), ("e", "Empty"),
                       ("q", "0 = 1")]:
        if strict:
            text = text.replace("Nat", "NatS").replace("Empty", "EmptyS").replace(
                "+", "+s").replace("=", "=s").replace("0", "0s").replace("1", "1s")
        ty, _ = tc.infer_universe(ctx, parse_term(text, scope=ctx.names()))
        ctx = ctx.extend(name, nbe.eval_in(ctx, ty))
    return ctx


@pytest.mark.parametrize("term, expected", [
    ("f 3", "3 = 3"),
    ("fst p", "Nat"),
    ("snd p", "fst p = fst p"),
    ("natElim (\\n. n = n) refl (\\k. \\r. refl) x", "x = x"),
    ("sumElim (\\t. t = t) (\\a. refl) (\\b. refl) s", "s = s"),
    ("emptyElim (\\t. t = t) e", "e = e"),
    ("J (\\a. \\b. \\r. (a = b) * (r = r)) (\\a. (refl, refl)) 0 1 q", "(0 = 1) * (q = q)"),
    ("natElimS (\\n. n =s n) refls (\\k. \\r. refls) x", "x =s x"),
    ("sumElimS (\\t. t =s t) (\\a. refls) (\\b. refls) s", "s =s s"),
    ("emptyElimS (\\t. t =s t) e", "e =s e"),
    ("Js (\\a. \\b. \\r. (a =s b) * (r =s r)) (\\a. (refls, refls)) 0s 1s q",
     "(0s =s 1s) * (q =s q)"),
], ids=["app", "fst", "snd", "natElim", "sumElim", "emptyElim", "J",
        "natElimS", "sumElimS", "emptyElimS", "Js"])
def test_neutral_type_follows_each_frame(term, expected):
    # the strict eliminators eliminate variables of the strict formers
    ctx = _neutral_ctx(strict="=s" in term)
    t, _ = tc.infer(ctx, parse_term(term, scope=ctx.names()))
    v = nbe.eval_in(ctx, t)
    assert isinstance(v, nbe.VNeutral)
    ty = nbe.neutral_type(v)
    assert nbe.quote(ctx.depth, ty) == parse_term(expected, scope=ctx.names())


def test_neutral_type_is_none_without_a_typed_head():
    ctx = _neutral_ctx()
    ks = nbe.eval_in(ctx, parse_term("Ks q q", scope=ctx.names()))
    assert isinstance(ks.head, nbe.HUip) and nbe.neutral_type(ks) is None
    x = nbe.fresh_var(0)
    assert nbe.neutral_type(x) is None
    assert nbe.neutral_type(nbe.apply_value(x, nbe.ZERO)) is None
    # an eliminator's motive types its result whatever the scrutinee's type
    stuck = nbe.eliminate(S.Empty, (nbe.VLam(ctx.env, S.Nat()),), x, False)
    assert nbe.neutral_type(stuck) is nbe.NAT


# -- sharing shortcuts in conv --------------------------------------------------

def _budget_ctx_with_constant():
    """A context with unfold budget 0 and one defined constant `d : Nat`."""
    ctx = tc.new_context(budget=0)
    ctx.sig.define("d", nbe.NAT, nbe.ZERO)
    return ctx


def test_conv_of_a_value_with_itself_spends_no_unfolds():
    # `(n : Nat) -> d = n` and `\n. refl` at that type: comparing either
    # with itself would instantiate the codomain and unfold `d`
    ctx = _budget_ctx_with_constant()
    d = S.Const("d", ctx.sig.lookup("d"))
    pi = ev(S.Pi(S.Nat(), S.Id(S.Nat(), d, S.Var(0))), ctx)
    assert nbe.conv(0, pi, pi, nbe.VUniv(0))
    f = ev(S.Lam(S.Refl()), ctx)
    assert nbe.conv(0, f, f, pi)
    assert ctx.sig.budget.unfolds == 0


def _closure_pair(ctx, body, values_a, values_b):
    """Two distinct lambda values over `body` in freshly built environments."""
    def build(values):
        env = ctx.env
        for v in values:
            env = nbe.Env(v, env)
        return nbe.VLam(env, body)
    return build(values_a), build(values_b)


def _bind(former, closure):
    return closure if former is nbe.VLam else former(nbe.NAT, closure)


@pytest.mark.parametrize("former", [nbe.VLam, nbe.VPi, nbe.VSigma],
                         ids=["lam", "pi", "sigma"])
def test_closures_over_identical_environments_are_not_instantiated(former):
    # the body mentions `d` and budget 0 forbids unfolding it; instantiating
    # either closure evaluates `Const d` to its one glued value, which spends
    # no unfold, and the two mentions are then one value object
    ctx = _budget_ctx_with_constant()
    shared = nbe.VSucc(nbe.ZERO, False)
    body = S.Id(S.Nat(), S.Const("d", ctx.sig.lookup("d")), S.Var(1))
    ca, cb = _closure_pair(ctx, body, [shared, nbe.ZERO], [shared, nbe.ZERO])
    assert ca is not cb and ca.env is not cb.env
    assert nbe.conv(0, _bind(former, ca), _bind(former, cb), None)
    assert ctx.sig.budget.unfolds == 0


@pytest.mark.parametrize("former", [nbe.VLam, nbe.VPi, nbe.VSigma],
                         ids=["lam", "pi", "sigma"])
@pytest.mark.parametrize("position", [0, 1], ids=["innermost", "outer"])
def test_closures_over_different_environments_stay_unequal(former, position):
    # same body, environments differing in one value: the shortcut must not
    # turn the comparison into True
    ctx = tc.new_context()
    values_a = [nbe.ZERO, nbe.ZERO]
    values_b = [nbe.ZERO, nbe.ZERO]
    values_b[-1 - position] = nbe.VSucc(nbe.ZERO, False)
    body = S.Id(S.Nat(), S.Var(1 + position), S.Var(0))
    if former is nbe.VLam:
        body = S.Var(1 + position)
    ca, cb = _closure_pair(ctx, body, values_a, values_b)
    assert not nbe.conv(0, _bind(former, ca), _bind(former, cb), None)


def test_conv_sharing_properties_sampled():
    assert props.run_conv_sharing(250) == 250
