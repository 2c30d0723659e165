"""Surface grammar, scope resolution, spans, and printer round-trips."""

import random

import pytest

from tltt import syntax as S
from tltt import diagnostics as D
from tltt.diagnostics import CheckError
from tltt.parser import parse_module, parse_term, tokenize
from tltt.printer import pretty_print

from gen import rand_scoped


def test_module_with_definition():
    m = parse_module("def id : (A : U 0) -> A -> A := \\A. \\x. x", "t.2lt")
    (d,) = m.decls
    assert isinstance(d, S.Definition)
    assert d.name == "id"
    assert d.body == S.Lam(S.Lam(S.Var(0)))
    assert d.ty == S.Pi(S.Univ(S.fibrant(0)), S.Pi(S.Var(0), S.Var(1)))


def test_unbound_identifier_has_span():
    with pytest.raises(CheckError) as e:
        parse_module("def bad : Nat := y", "t.2lt")
    diag = e.value.diagnostic
    assert diag.code == D.UNBOUND_VARIABLE
    assert diag.span.path == "t.2lt"
    assert diag.span.line == 1 and diag.span.col == 18


def test_axiom_declaration():
    text = ("def Equiv : U 0 -> U 0 -> U 0 := \\A. \\B. A -> B\n"
            "axiom ua : (A : U 0) -> (B : U 0) -> Equiv A B -> A = B\n")
    m = parse_module(text, "t.2lt")
    assert isinstance(m.decls[1], S.Axiom)
    assert m.decls[1].name == "ua"


def test_simple_terms():
    assert parse_term("(x : Nat) -> Nat") == S.Pi(S.Nat(), S.Nat())
    assert parse_term("(x : NatS) * Us 0") == \
        S.Sigma(S.Nat(strict=True), S.Univ(S.strict(0)))
    assert parse_term("refls") == S.Refl(strict=True)
    assert parse_term("star") == S.Star()


def test_numeral_sugar():
    assert parse_term("3") == S.Succ(S.Succ(S.Succ(S.Zero())))
    assert parse_term("2s") == \
        S.Succ(S.Succ(S.Zero(strict=True), strict=True), strict=True)
    assert parse_term("0") == S.Zero()


def test_precedences():
    t = parse_term("A * B -> C", scope=["A", "B", "C"])
    assert isinstance(t, S.Pi) and isinstance(t.dom, S.Sigma)
    t = parse_term("Nat + Unit = Nat + Unit")
    assert isinstance(t, S.Id) and isinstance(t.lhs, S.Sum)
    t = parse_term("a =s b * c =s d", scope=["a", "b", "c", "d"])
    assert isinstance(t, S.Sigma) and isinstance(t.fst, S.Id) and t.fst.strict
    t = parse_term("f x y", scope=["f", "x", "y"])
    assert t == S.App(S.App(S.Var(2), S.Var(1)), S.Var(0))


def test_multi_name_binder():
    t = parse_term("(a b : Nat) -> a = b")
    assert t == S.Pi(S.Nat(), S.Pi(S.Nat(), S.Id(None, S.Var(1), S.Var(0))))


def test_eliminators_take_exact_arity():
    t = parse_term("natElim m z s 2", scope=["m", "z", "s"])
    assert isinstance(t, S.NatElim)
    with pytest.raises(CheckError):
        parse_term("natElim m z s", scope=["m", "z", "s"])
    with pytest.raises(CheckError):
        parse_term("f natElim", scope=["f"])  # eliminator in argument position


def test_ascription_desugars_to_annotated_redex():
    t = parse_term("(star : Unit)")
    assert isinstance(t, S.App)
    assert isinstance(t.fn, S.Lam) and t.fn.ann == S.Unit()
    assert t.arg == S.Star()


def test_nested_pairs_are_right_nested():
    one = S.Succ(S.Zero(strict=True), strict=True)
    assert parse_term("(1s, 2s, star)") == \
        S.Pair(one, S.Pair(S.Succ(one, strict=True), S.Star()))


def test_comments_and_blocks():
    text = """
-- a line comment
def x : Nat := 1 {- inline {- nested -} block -}
#check x : Nat
"""
    m = parse_module(text, "t.2lt")
    assert len(m.decls) == 2


def test_pragmas():
    text = ("#check star : Unit\n#infer star\n#normalize star\n"
            "#conv star ~ star : Unit\n"
            "#fail def broken : Nat := missing\n"
            "#fail[FibrancyViolation] #check NatS : U 0\n")
    m = parse_module(text, "t.2lt")
    kinds = [d.kind for d in m.decls]
    assert kinds == [S.CHECK, S.INFER, S.NORMALIZE, S.CONV, S.FAIL, S.FAIL]
    assert m.decls[4].expect_code is None
    assert isinstance(m.decls[4].payload[0], D.Diagnostic)  # parse-time failure
    assert m.decls[5].expect_code == "FibrancyViolation"


def test_fail_rejects_unknown_code_and_nesting():
    with pytest.raises(CheckError):
        parse_module("#fail[NoSuchCode] #infer star", "t.2lt")
    with pytest.raises(CheckError):
        parse_module("#fail #fail #infer star", "t.2lt")


def test_syntax_error_has_expected_token():
    with pytest.raises(CheckError) as e:
        parse_module("def x Nat := 1", "t.2lt")
    assert e.value.diagnostic.code == D.SYNTAX_ERROR
    assert "':'" in e.value.diagnostic.message


def test_deterministic_parse():
    text = "def f : Nat -> Nat := \\x. succ x\n#normalize f 3\n"
    assert parse_module(text, "a.2lt") == parse_module(text, "a.2lt")


def test_every_token_spans_are_consistent():
    toks = tokenize("def x : Nat := \\y. y", "t.2lt")
    assert all(t.line == 1 for t in toks)
    cols = [t.col for t in toks]
    assert cols == sorted(cols)


def test_round_trip_spec_cases():
    scope = ["a", "b", "p", "q", "x", "m"]
    cases = [
        "\\z. z", "(x1 : Nat) -> Nat -> Nat", "Nat * Nat -> Unit",
        "natElim (\\n. Nat) 0 (\\n. \\r. succ r) 4",
        "J (\\x1. \\y. \\p1. x1 = y) (\\x1. refl) a b q",
        "Ks p q", "(1s, (2s, star))", "fst (snd x)", "a = b", "a =s b",
        "Nat + Unit", "Nat +s NatS", "emptyElimS (\\e. U 0) p",
        "sumElim m a b q", "U 3 -> Us 0", "inls star", "succs (succs x)",
        "0s", "EmptyS", "refls", "inrs star", "natElimS m a b q",
        "sumElimS m a b q", "Js m a a b q",
    ]
    for text in cases:
        t = parse_term(text, scope=scope)
        assert parse_term(pretty_print(t, scope), scope=scope) == t


def test_round_trip_generated():
    rng = random.Random(2024)
    names = ["aa", "bb", "cc", "dd"]
    for _ in range(500):
        t = rand_scoped(rng, depth=len(names), size=rng.randrange(1, 14))
        printed = pretty_print(t, names)
        assert parse_term(printed, scope=names) == t, printed
