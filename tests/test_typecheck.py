"""Bidirectional elaboration and the fibrancy discipline."""

import random
import sys

import pytest
from hypothesis import given, strategies as st

from tltt import corpus, nbe, nbe_core, syntax as S, typecheck as tc
from tltt import diagnostics as D
from tltt.diagnostics import CheckError
from tltt.parser import parse_module, parse_term
from tltt.printer import pretty_print

from gen import gen_well_typed
from term_helpers import strict_constructors, term_children


def ctx_default(**kw):
    return tc.new_context(tc.Flags(**kw))


def infer_code(ctx, t):
    try:
        _, ty = tc.infer(ctx, t)
        return pretty_print(nbe.quote(ctx.depth, ty), ctx.names())
    except CheckError as e:
        return e.diagnostic.code


def check_code(ctx, t, ty_text):
    ty = parse_term(ty_text)
    try:
        ty2, _ = tc.infer_universe(ctx, ty)
        tc.check(ctx, t, nbe.eval_in(ctx, ty2))
        return "ok"
    except CheckError as e:
        return e.diagnostic.code


def test_an_extension_keeps_the_outer_binders_as_its_tail():
    # extending costs the same at any depth: a copy of the outer names made
    # checking a telescope of n binders take time quadratic in n
    ctx = ctx_default()
    nat = nbe.eval_in(ctx, parse_term("Nat"))
    a = ctx.extend("a", nat)
    b = a.extend(None, nat)
    c = b.extend("c", nat)
    assert c.binders[1] is b.binders and b.binders[1] is a.binders
    assert [x.depth for x in (ctx, a, b, c)] == [0, 1, 2, 3]
    assert [x.names() for x in (ctx, a, b, c)] == [[], ["a"], ["a", "_"], ["a", "_", "c"]]
    assert [c.show(c.var_value(i)) for i in range(3)] == ["c", "_", "a"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: a variable's lookup walks one environment "
                          "cell per de Bruijn index")
def test_a_telescope_over_an_outer_variable_walks_linearly_many_cells(monkeypatch):
    # every equation mentions the outermost binder, so with one cell walked
    # per index its n equations walk about 2 n^2 cells (1,998,000 for n = 1,000)
    n = 1000
    walked = 0
    lookup = nbe_core.lookup

    def counted(env, index):
        nonlocal walked
        walked += index
        return lookup(env, index)

    monkeypatch.setattr(nbe_core, "lookup", counted)  # `evaluate`'s
    monkeypatch.setattr(nbe, "lookup", counted)  # `Context.var_value`'s
    decl = parse_module("axiom t : (x : Nat) -> " + "x = x -> " * n + "Nat", "t.2lt").decls[0]
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(D.RECURSION_LIMIT)
        tc.check_declaration(ctx_default(), decl)
    finally:
        sys.setrecursionlimit(limit)
    assert walked <= 20 * n


# -- inference ------------------------------------------------------------------

def test_context_names_are_distinct_and_name_no_constant():
    # binders' names collide with each other and with constants; a binder
    # keeps its name unless a constant or an inner binder holds it
    rng = random.Random(5)
    pool = ["x", "x1", "x2", "y", "y1", "_", None]
    for _ in range(500):
        ctx = tc.new_context()
        consts = rng.sample(["x", "x1", "y", "y2"], rng.randint(0, 3))
        for name in consts:
            tc.check_declaration(ctx, parse_module(f"axiom {name} : Nat", "consts.2lt").decls[0])
        nat = nbe.eval_in(ctx, S.Nat())
        given = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        for name in given:
            ctx = ctx.extend(name, nat)
        names = ctx.names()
        assert len(set(names)) == len(names) == len(given)
        assert not set(names) & set(consts)
        given = [name or "_" for name in given]
        for i, name in enumerate(given):
            if name not in consts and name not in given[i + 1:]:
                assert names[i] == name


def test_inner_equality_requires_fibrant_carrier():
    ctx = ctx_default()
    assert infer_code(ctx, parse_term("0s = 0s")) == D.NON_FIBRANT_EQUALITY_FORMATION
    assert infer_code(ctx, parse_term("0s =s 0s")) == "Us 0"
    assert infer_code(ctx, parse_term("0 = 0")) == "U 0"
    # the carrier's sort is read off its value: each binder and sum former
    for text, sort in [
        ("(\\x. x : Nat -> Nat) = (\\x. x)", "U 0"),
        ("(\\x. 0 : NatS -> Nat) = (\\x. 0)", D.NON_FIBRANT_EQUALITY_FORMATION),
        ("(\\x. 0 : NatS -> Nat) =s (\\x. 0)", "Us 0"),
        ("((0, 0) : Nat * Nat) = (0, 0)", "U 0"),
        ("((0s, 0) : NatS * Nat) = (0s, 0)", D.NON_FIBRANT_EQUALITY_FORMATION),
        ("((0s, 0) : NatS * Nat) =s (0s, 0)", "Us 0"),
        ("(inl 0 : Nat + Nat) = inl 0", "U 0"),
        ("(inls 0 : Nat +s Nat) = inls 0", D.NON_FIBRANT_EQUALITY_FORMATION),
        ("(inls 0s : NatS +s NatS) =s inls 0s", "Us 0"),
        ("(Nat : U 0) = Nat", "U 1"),
    ]:
        assert infer_code(ctx, parse_term(text)) == sort, text


@pytest.mark.parametrize("text, message", [
    ("refls =s refls", "cannot infer the carrier type of a strict equality"),
    ("refl = refl", "cannot infer the carrier type of an equality"),
])
def test_uninferable_carrier_message(text, message):
    with pytest.raises(CheckError) as e:
        tc.infer(ctx_default(), parse_term(text))
    assert e.value.diagnostic.code == D.INFERENCE_FAILURE
    assert e.value.diagnostic.message == message + "; ascribe one endpoint"


def _declare(ctx, text):
    names = list(ctx.sig.entries)
    for decl in parse_module(text, "<test>", known_names=names).decls:
        tc.check_declaration(ctx, decl)
    return list(ctx.sig.entries)


def test_carrier_sort_is_read_off_the_value_not_its_read_back():
    # the carrier of `e =s e` is `e`'s type, which reads back folded as
    # `idf =s idf`; its sort is read off the carrier value (`value_sort`),
    # not by elaborating that read-back again
    ctx = ctx_default()
    names = _declare(ctx, "def idf : Nat -> Nat := \\x. x\naxiom e : idf =s idf")
    assert infer_code(ctx, parse_term("e =s e", known_names=names)) == "Us 0"


def test_carrier_sort_sees_through_a_defined_carrier():
    # `t`'s type reads back folded as `T`, whose declared type is `U 1`; the
    # value `Nat` is in `U 0`, and so is `t = t`
    ctx = ctx_default()
    names = _declare(ctx, "def T : U 1 := Nat\naxiom t : T")
    t_eq_t = parse_term("t = t", known_names=names)
    assert infer_code(ctx, t_eq_t) == "U 0"
    assert check_code(ctx, t_eq_t, "U 0") == "ok"


def test_carrier_sort_of_a_stuck_carrier_is_its_neutral_type():
    # `t`'s type is a `J` stuck on the axiom `p`, whose read-back has a bare
    # lambda motive and no inferable type; the neutral's type is `U 0`
    ctx = ctx_default()
    names = _declare(ctx, "axiom g : Nat -> Nat\n"
                          "axiom p : ((\\x. x) : Nat -> Nat) = g\n"
                          "axiom t : J (\\x. \\y. \\q. U 0) (\\f. Nat) "
                          "((\\x. x) : Nat -> Nat) g p")
    assert infer_code(ctx, parse_term("t = t", known_names=names)) == "U 0"


def test_pi_preserves_fibrancy_and_strict_pieces_demote():
    ctx = ctx_default()
    assert infer_code(ctx, parse_term("Nat -> Nat")) == "U 0"
    assert infer_code(ctx, parse_term("NatS -> Nat")) == "Us 0"
    assert infer_code(ctx, parse_term("Nat -> Us 0")) == "Us 1"
    assert infer_code(ctx, parse_term("Nat -> U 0")) == "U 1"


def test_strict_sum_is_never_fibrant():
    ctx = ctx_default()
    assert infer_code(ctx, parse_term("Nat +s Nat")) == "Us 0"
    assert infer_code(ctx, parse_term("Nat + Nat")) == "U 0"
    assert infer_code(ctx, parse_term("NatS + Nat")) == D.FIBRANCY_VIOLATION


def test_an_ascription_infers_its_type_and_is_erased():
    ctx = ctx_default()
    t2, ty = tc.infer(ctx, parse_term("((\\x. x : Nat -> Nat) : Nat -> Nat) 0"))
    assert t2 == parse_term("(\\x. x) 0") and ty is nbe.NAT
    # checking goes through the ascription: its type is inferred, then subsumed
    assert tc.check(ctx, parse_term("(0 : Nat)"), nbe.NAT) == S.Zero()
    unit_to_unit = nbe.eval_in(ctx, parse_term("Unit -> Unit"))
    with pytest.raises(CheckError) as e:
        tc.check(ctx, parse_term("(\\x. x : Nat -> Nat)"), unit_to_unit)
    assert e.value.diagnostic.message == "type mismatch"


def test_elaborated_terms_keep_no_span_of_the_parse():
    # the checked library outlives the parse, and no diagnostic points at
    # an elaborated term; a leaf checked as it was parsed keeps its span
    leaves = (S.Univ, S.Unit, S.Star, S.Nat, S.Zero, S.Empty, S.Refl)
    ctx = tc.new_context()
    text = (corpus.CORPUS_DIR / "prelude.2lt").read_text()
    spanned = 0
    for decl in parse_module(text, "prelude.2lt").decls:
        if isinstance(decl, S.Pragma):
            continue
        checked = tc.check_declaration(ctx, decl)
        # the same record as the parse, with its name and span
        assert isinstance(checked, S.Declaration)
        assert (checked.name, checked.span) == (decl.name, decl.span)
        assert (checked.body is None) == (decl.body is None)
        stack = [t for t in (checked.ty, checked.body) if t is not None]
        while stack:
            t = stack.pop()
            assert t.span is None or isinstance(t, leaves), t
            spanned += t.span is not None
            stack.extend(child for _, child, _ in term_children(t))
    assert spanned > 0


def test_unannotated_lambda_does_not_infer():
    ctx = ctx_default()
    assert infer_code(ctx, parse_term("\\x. x")) == D.INFERENCE_FAILURE
    assert infer_code(ctx, S.Refl()) == D.INFERENCE_FAILURE
    assert infer_code(ctx, S.Pair(S.Star(), S.Star())) == D.INFERENCE_FAILURE


def test_universes():
    ctx = ctx_default()
    assert infer_code(ctx, S.Univ(0)) == "U 1"
    assert infer_code(ctx, S.Univ(2, strict=True)) == "Us 3"


# -- checking and subsumption ----------------------------------------------------

def test_check_examples():
    ctx = ctx_default()
    assert check_code(ctx, parse_term("\\x. x"), "Nat -> Nat") == "ok"
    assert check_code(ctx, S.Nat(), "Us 0") == "ok"
    assert check_code(ctx, S.Nat(strict=True), "U 0") == D.FIBRANCY_VIOLATION
    assert check_code(ctx, S.Nat(), "Us 4") == "ok"
    assert check_code(ctx, S.Univ(1), "U 1") == D.UNIVERSE_ERROR
    assert check_code(ctx, S.Star(), "Nat") == D.CONVERSION_FAILURE


def test_refl_needs_convertible_endpoints():
    ctx = ctx_default()
    assert check_code(ctx, S.Refl(), "0 = 0") == "ok"
    assert check_code(ctx, S.Refl(), "0 = 1") == D.CONVERSION_FAILURE
    assert check_code(ctx, S.Refl(strict=True), "0s =s 0s") == "ok"
    assert check_code(ctx, S.Refl(), "0s =s 0s") == D.CONVERSION_FAILURE


def test_subsumption_monotonicity():
    ctx = ctx_default()
    for text in ("Nat", "Unit", "Nat -> Nat", "Nat * Unit", "0 = 0"):
        t = parse_term(text)
        assert check_code(ctx, t, "U 0") == "ok"
        for level in range(3):
            assert check_code(ctx, t, f"Us {level}") == "ok"


# -- the universe order ---------------------------------------------------------------

def U(level, strict=False):
    return nbe.VUniv(level, strict)


def same(a, b):
    return (a.level, a.strict) == (b.level, b.strict)


def test_univ_below_examples():
    assert tc.univ_below(U(0), U(0, True))
    assert not tc.univ_below(U(0, True), U(0))
    assert not tc.univ_below(U(1), U(0))
    assert tc.univ_below(U(0), U(2))
    assert tc.univ_below(U(1, True), U(3, True))
    assert same(tc.univ_join(U(2), U(1, True)), U(2, True))
    assert same(tc.univ_join(U(0), U(1), True), U(1, True))


universes = st.builds(nbe.VUniv, st.integers(min_value=0, max_value=5), st.booleans())


@given(universes)
def test_univ_below_reflexive(a):
    assert tc.univ_below(a, a)


@given(universes, universes, universes)
def test_univ_below_transitive(a, b, c):
    if tc.univ_below(a, b) and tc.univ_below(b, c):
        assert tc.univ_below(a, c)


@given(universes, universes)
def test_univ_below_antisymmetric(a, b):
    if tc.univ_below(a, b) and tc.univ_below(b, a):
        assert same(a, b)


@given(universes, universes, universes, st.booleans())
def test_univ_join_is_the_least_upper_bound(a, b, c, strict):
    # the join of `a`, `b` and, when `strict`, the strict universe `Us 0`
    bounds = (a, b, U(0, strict))
    j = tc.univ_join(a, b, strict)
    assert all(tc.univ_below(x, j) for x in bounds)
    if all(tc.univ_below(x, c) for x in bounds):
        assert tc.univ_below(j, c)


# -- classification ----------------------------------------------------------------

def universe_of(ctx, t):
    """The least universe of the type `t`, read back as a term."""
    return nbe.quote(ctx.depth, tc.infer_universe(ctx, t)[1])


def test_classify_examples():
    ctx = ctx_default()
    assert universe_of(ctx, parse_term("(n : Nat) * (n = 0)")) == S.Univ(0)
    assert universe_of(ctx, parse_term("(n : Nat) -> n =s 0")) == S.Univ(0, strict=True)
    assert universe_of(ctx, S.Univ(0)) == S.Univ(1)
    assert universe_of(ctx, parse_term("NatS")) == S.Univ(0, strict=True)


def test_classify_of_neutral_types_uses_the_variable_sort():
    ctx = ctx_default()
    c1 = ctx.extend("X", nbe.VUniv(0))
    assert universe_of(c1, S.Var(0)) == S.Univ(0)
    c2 = ctx.extend("X", nbe.VUniv(0, True))
    assert universe_of(c2, S.Var(0)) == S.Univ(0, strict=True)
    # a fibrant-valued family applied to a variable stays fibrant
    c3 = ctx.extend("Y", nbe.eval_in(ctx, parse_term("NatS -> U 0")))
    c3 = c3.extend("n", nbe.NAT_S)
    assert universe_of(c3, S.App(S.Var(1), S.Var(0))) == S.Univ(0)


# -- motive restrictions -------------------------------------------------------------

def test_j_motive_must_be_fibrant():
    ctx = ctx_default()
    t = parse_term(
        "J ((\\x. \\y. \\p. x =s y) : (x : Nat) -> (y : Nat) -> x = y -> Us 0)"
        " (\\x. refls) 0 0 refl")
    assert infer_code(ctx, t) == D.NON_FIBRANT_MOTIVE


def test_strict_j_eliminates_into_anything():
    ctx = ctx_default()
    t = parse_term(
        "Js ((\\x. \\y. \\p. x = y) : (x : Nat) -> (y : Nat) -> x =s y -> U 0)"
        " (\\x. refl) 0 0 refls")
    assert infer_code(ctx, t) == "0 = 0"


def test_nat_elim_motive_restriction_and_strong_waiver():
    text = ("natElim ((\\n. NatS) : Nat -> Us 0) 0s (\\n. \\r. succs r) 2")
    assert infer_code(ctx_default(), parse_term(text)) == D.NON_FIBRANT_MOTIVE
    strong = ctx_default(strong=True)
    t = parse_term(text, strong=True)
    _, ty = tc.infer(strong, t)
    assert ty is nbe.NAT


def test_check_motive_fibrancy_operation():
    ctx = ctx_default()
    good = parse_term("natElim ((\\n. Nat) : Nat -> U 1) 0 (\\n. \\r. succ r) 2")
    _, ty = tc.infer(ctx, good)
    assert ty is nbe.NAT
    bad = parse_term("natElim ((\\n. NatS) : Nat -> Us 0) 0s (\\n. \\r. succs r) 2")
    with pytest.raises(CheckError) as e:
        tc.infer(ctx, bad)
    assert e.value.diagnostic.code == D.NON_FIBRANT_MOTIVE


# -- declarations ----------------------------------------------------------------------

def test_check_declaration_and_duplicates():
    ctx = ctx_default()
    m = parse_module("def two : Nat := 2\naxiom oracle : Nat -> Nat", "t.2lt")
    checked = tc.check_declaration(ctx, m.decls[0])
    assert checked.body == parse_term("2")
    tc.check_declaration(ctx, m.decls[1])
    assert ctx.sig.lookup("oracle").head.body is None
    with pytest.raises(CheckError) as e:
        tc.check_declaration(ctx, m.decls[0])
    assert e.value.diagnostic.code == D.DUPLICATE_NAME


def test_forward_reference_is_an_error():
    with pytest.raises(CheckError) as e:
        parse_module("def f : Nat := g 0\ndef g : Nat -> Nat := \\x. x", "t.2lt")
    assert e.value.diagnostic.code == D.UNBOUND_VARIABLE


# -- strong mode -----------------------------------------------------------------------

def test_strong_mode_merges_formers():
    merged = parse_term("natElimS ((\\n. Us 0) : NatS -> Us 1) EmptyS (\\k. \\r. Unit +s r) 2s",
                        strong=True)
    assert isinstance(merged, S.Elim) and merged.former is S.Nat and not merged.strict
    assert strict_constructors(merged) <= {"UnivS"}
    # strict equality stays strict in strong mode
    eq = parse_term("0s =s 0s", strong=True)
    assert isinstance(eq, S.Id) and eq.strict
    assert eq.lhs == S.Zero()


def test_strong_mode_sum_with_a_strict_summand_is_not_fibrant():
    # the carrier of an unannotated equality is sorted from its value, which
    # must agree with inference: a merged sum is strict when a summand is
    ctx = ctx_default(strong=True)
    module = parse_module("axiom P : (0s =s 0s) + Unit", "<test>")
    tc.check_declaration(ctx, module.decls[0])
    assert infer_code(ctx, parse_term("(0s =s 0s) + Unit")) == "Us 0"
    p_eq = parse_term("P = P", known_names=["P"], strong=True)
    assert infer_code(ctx, p_eq) == D.NON_FIBRANT_EQUALITY_FORMATION


def test_strong_mode_accepts_what_default_accepts():
    source = """
def plus : NatS -> NatS -> NatS
  := \\m. \\n. natElimS ((\\k. NatS) : NatS -> Us 0) m (\\k. \\r. succs r) n
def four : NatS := plus 2s 2s
"""
    for flags in (tc.Flags(), tc.Flags(strong=True)):
        ctx = tc.new_context(flags)
        m = parse_module(source, "t.2lt")
        for decl in m.decls:
            if isinstance(decl, S.Pragma):
                continue
            tc.check_declaration(ctx, decl)
        assert "four" in ctx.sig.entries


# -- the fibrant fragment stands alone ----------------------------------------------------

FIBRANT_ONLY = """
def idf : (A : U 0) -> A -> A := \\A. \\x. x
def constf : (A : U 0) -> (B : U 0) -> A -> B -> A := \\A. \\B. \\a. \\b. a
def sym : (A : U 0) -> (a : A) -> (b : A) -> a = b -> b = a
  := \\A. \\a. \\b. \\p.
       J ((\\x. \\y. \\q. y = x) : (x : A) -> (y : A) -> x = y -> U 0)
         (\\x. refl) a b p
def pairSwap : (A : U 0) -> (B : U 0) -> A * B -> B * A
  := \\A. \\B. \\p. (snd p, fst p)
def three : Nat := natElim ((\\n. Nat) : Nat -> U 1) 3 (\\n. \\r. r) 0
"""


def test_fibrant_fragment_closure():
    ctx = ctx_default()
    m = parse_module(FIBRANT_ONLY, "t.2lt")
    for decl in m.decls:
        checked = tc.check_declaration(ctx, decl)
        assert not strict_constructors(checked.ty)
        assert not strict_constructors(checked.body)


# -- preservation ---------------------------------------------------------------------------

def test_preservation_sampled():
    rng = random.Random(31)
    ctx = ctx_default()
    for _ in range(250):
        t, ty = gen_well_typed(rng, size=rng.randrange(2, 7))
        ty2, _ = tc.infer_universe(ctx, ty)
        ty_v = nbe.eval_in(ctx, ty2)
        t2 = tc.check(ctx, t, ty_v)
        nf = nbe.normalize(ctx, t2)
        tc.check(ctx, nf, ty_v)  # must not raise


def test_formation_rejects_non_types():
    ctx = ctx_default()
    assert infer_code(ctx, S.Pi(S.Zero(), S.Nat())) == D.UNIVERSE_ERROR
    assert infer_code(ctx, S.Sigma(S.Nat(), S.Star())) == D.UNIVERSE_ERROR
    assert infer_code(ctx, S.App(S.Star(), S.Zero())) == D.CONVERSION_FAILURE
    assert infer_code(ctx, S.Fst(S.Zero())) == D.CONVERSION_FAILURE


def test_uip_requires_strict_proofs():
    ctx = ctx_default()
    t = parse_term("Ks ((refl : 0 = 0)) ((refl : 0 = 0))")
    assert infer_code(ctx, t) == D.CONVERSION_FAILURE
    t = parse_term("Ks ((refls : 0s =s 0s)) ((refls : 0s =s 0s))")
    assert infer_code(ctx, t) == "refls =s refls"


def test_bare_lambda_motives_infer():
    # eliminators dictate their motives' domains, so bare lambdas work
    ctx = ctx_default()
    assert infer_code(ctx, parse_term(
        "natElim (\\n. Nat) 0 (\\n. \\r. succ r) 3")) == "Nat"
    assert infer_code(ctx, parse_term(
        "sumElim (\\z. Nat) (\\u. 0) (\\v. 1) ((inl star : Unit + Nat))")) == "Nat"
    assert infer_code(ctx, parse_term(
        "Js (\\x. \\y. \\p. Nat) (\\x. 2) 0s 0s refls")) == "Nat"
    # normal forms containing stuck eliminators re-elaborate
    t = parse_term("\\n. natElim (\\k. Nat) 0 (\\k. \\r. succ r) n")
    ty_v = nbe.eval_in(ctx, parse_term("Nat -> Nat"))
    t2 = tc.check(ctx, t, ty_v)
    nf = nbe.normalize(ctx, t2)
    tc.check(ctx, nf, ty_v)


def count_infer_calls(monkeypatch, ctx, text):
    calls = [0]
    real = tc.infer

    def counting(c, t):
        calls[0] += 1
        return real(c, t)

    monkeypatch.setattr(tc, "infer", counting)
    tc.infer(ctx, parse_term(text))
    return calls[0]


def test_bare_lambda_motives_elaborate_the_scrutinee_once(monkeypatch):
    # the target of sumElim (lhs of J) is inferred to find the motive's
    # domain, and that elaboration is kept rather than checked again
    ctx = ctx_default()
    sum_elim = "sumElim (\\s. Nat) (\\a. 0) (\\b. 1) {}"
    assert count_infer_calls(
        monkeypatch, ctx, sum_elim.format("((inl star) : Unit + Unit)")) == 10
    # nested scrutinees cost the same number of calls per level, not 2^depth
    nestings = {
        sum_elim: ("((inl star) : Unit + Unit)",
                   "(sumElim (\\s. Unit + Unit) (\\a. inl star) (\\b. inr star) {})"),
        "J (\\x. \\y. \\p. Nat) (\\x. 0) {} 0 refl": (
            "(0 : Nat)", "(J (\\x. \\y. \\p. Nat) (\\x. x) {} 0 refl)"),
    }
    for outer, (innermost, level) in nestings.items():
        counts, inner = [], innermost
        for _ in range(5):
            counts.append(count_infer_calls(monkeypatch, ctx, outer.format(inner)))
            inner = level.format(inner)
        assert len({b - a for a, b in zip(counts, counts[1:])}) == 1, counts
