"""Surface grammar, scope resolution, spans, and printer round-trips."""

import gc
import json
import random
from itertools import accumulate, cycle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tltt import syntax as S
from tltt import diagnostics as D
from tltt import typecheck as tc
from tltt.corpus import CORPUS_DIR, corpus_manifest
from tltt.diagnostics import CheckError
from tltt.parser import Parser, parse_module, parse_term, tokenize
from tltt.printer import pretty_print

from gen import rand_scoped
from term_helpers import merge_strict_formers, shift, strict_constructors, term_children


def test_module_with_definition():
    m = parse_module("def id : (A : U 0) -> A -> A := \\A. \\x. x", "t.2lt")
    (d,) = m.decls
    assert isinstance(d, S.Declaration)
    assert d.name == "id"
    assert d.body == S.Lam(S.Lam(S.Var(0)))
    assert d.ty == S.Pi(S.Univ(0), S.Pi(S.Var(0), S.Var(1)))


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
    assert isinstance(m.decls[1], S.Declaration) and m.decls[1].body is None
    assert m.decls[1].name == "ua"


def test_simple_terms():
    assert parse_term("(x : Nat) -> Nat") == S.Pi(S.Nat(), S.Nat())
    assert parse_term("(x : NatS) * Us 0") == \
        S.Sigma(S.Nat(strict=True), S.Univ(0, strict=True))
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
    assert isinstance(t, S.Sigma) and isinstance(t.dom, S.Id) and t.dom.strict
    t = parse_term("f x y", scope=["f", "x", "y"])
    assert t == S.App(S.App(S.Var(2), S.Var(1)), S.Var(0))
    # an argument lambda's body ends at a second `=`, which the equation
    # around the application then takes
    t = parse_term("f \\x. x = y = z", scope=["f", "y", "z"])
    assert t == S.Id(None, S.App(S.Var(2), S.Lam(S.Id(None, S.Var(0), S.Var(2)))), S.Var(0))
    # a product telescope ends at `->`, whose domain is the whole product
    t = parse_term("(a : U 0) * b * c -> d", scope=["b", "c", "d"])
    assert t == S.Pi(S.Sigma(S.Univ(0), S.Sigma(S.Var(3), S.Var(3))), S.Var(1))


def test_multi_name_binder():
    t = parse_term("(a b : Nat) -> a = b")
    assert t == S.Pi(S.Nat(), S.Pi(S.Nat(), S.Id(None, S.Var(1), S.Var(0))))


@pytest.mark.parametrize("connective, former", [("->", S.Pi), ("*", S.Sigma)])
def test_each_later_domain_of_a_telescope_is_displaced(connective, former):
    # each copy of `P x` sits under the names before it; a telescope's own
    # `x` captures in the body but not in the domain
    expected = former(S.App(S.Var(2), S.Var(0)),
                      former(S.App(S.Var(3), S.Var(1)),
                             S.App(S.App(S.Var(3), S.Var(1)), S.Var(0))))
    scope = ["P", "Q", "x"]
    assert parse_term(f"(y z : P x) {connective} Q y z", scope=scope) == expected
    assert parse_term(f"(x y : P x) {connective} Q x y", scope=scope) == expected


def test_telescope_domains_are_the_shifted_first_domain():
    # the k-th domain of `(x y z : A) -> B` is A under k more binders; the
    # scope's own `x` and `y` stay free in A
    rng = random.Random(34)
    names = ["P", "x", "y"]
    for _ in range(200):
        printed = pretty_print(rand_scoped(rng, depth=len(names), size=rng.randrange(1, 10)),
                               names)
        dom = parse_term(printed, scope=names)
        for connective in ("->", "*"):
            t = parse_term(f"(x y z : {printed}) {connective} Unit", scope=names)
            for k in range(3):
                assert t.dom == shift(dom, k), (printed, k)
                t = t.cod


def test_eliminators_take_exact_arity():
    t = parse_term("natElim m z s 2", scope=["m", "z", "s"])
    assert isinstance(t, S.Elim) and t.former is S.Nat
    with pytest.raises(CheckError):
        parse_term("natElim m z s", scope=["m", "z", "s"])
    with pytest.raises(CheckError):
        parse_term("f natElim", scope=["f"])  # eliminator in argument position


def test_an_ascription_is_one_node_spanning_its_brackets():
    t = parse_term("(star : Unit)")
    assert t == S.Ann(S.Star(), S.Unit())
    assert t.span == ("<term>", 1, 1, 1, 14)
    assert t.term.span == ("<term>", 1, 2, 1, 6)


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
    # a `{-` inside a line comment opens no block comment
    assert len(parse_module("def a : Nat := 0 -- {- x\ndef b : Nat := a", "t").decls) == 2
    assert len(parse_module("def a : Nat := 0 -- {-", "t").decls) == 1
    # a line comment may end the input, and needs no space after its dashes
    assert len(parse_module("def a : Nat := 0 -- end", "t").decls) == 1
    assert [t.text for t in tokenize("x--y", "t")] == ["x", ""]
    # a block comment on line 3, after a line comment, keeps the columns
    toks = tokenize("a -- {- b\n\t-- c\nd {- e\n-} f", "t")
    assert [(t.text, t.line, t.col) for t in toks] == [
        ("a", 1, 1), ("d", 3, 1), ("f", 4, 4), ("", 4, 5)]


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
    # a declaration or pragma missing a separator, reported at the token after
    for text, message, span in [
        ("#check t A", "expected ':', got 'end of input'", (1, 11, 1, 11)),
        ("#conv a b : A", "expected '~', got ':'", (1, 11, 1, 12)),
        ("#conv a ~ b A", "expected ':', got 'end of input'", (1, 14, 1, 14)),
        ("axiom x Nat", "expected ':', got 'Nat'", (1, 9, 1, 12)),
        ("def x : Nat 0", "expected ':=', got 'end of input'", (1, 14, 1, 14)),
        # a `#fail[` whose code is missing
        ("#fail[\n", "expected a diagnostic code, got 'end of input'", (2, 1, 2, 1)),
        ("#fail[]", "expected a diagnostic code, got ']'", (1, 7, 1, 8)),
    ]:
        with pytest.raises(CheckError) as e:
            parse_module(text, "t.2lt", ["t", "a", "b", "A"])
        diag = e.value.diagnostic
        assert (diag.code, diag.message, tuple(diag.span)[1:]) == \
            (D.SYNTAX_ERROR, message, span), text


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
    # an ascription prints as written; one of names that is a domain keeps
    # the parentheses that stop it reading as a binder
    ascriptions = [
        "(star : Unit)", "f (x : Nat)", "((f x : Nat) : Nat)",
        "((X : Us 0)) -> Nat", "((X : Us 0)) * Nat", "(a * (X : Us 0)) -> Nat",
        "(\\z. z : Nat -> Nat) 0", "((f X : Us 0)) -> Nat",
    ]
    for text in ascriptions:
        names = scope + ["f", "X"]
        assert pretty_print(parse_term(text, scope=names), names) == text
    # a binder does not take the name of a constant printed in its scope
    x = S.Const("x")
    captures = {
        S.Pi(S.Nat(), S.Pi(S.Id(None, x, S.Var(0)), S.Id(None, x, S.Succ(S.Var(1))))):
            "(x1 : Nat) -> x = x1 -> x = succ x1",
        S.Lam(S.Lam(S.App(x, S.Var(1)), hint="y"), hint="x"): "\\x1. \\y. x x1",
    }
    for t, text in captures.items():
        assert pretty_print(t) == text
        assert parse_term(text, known_names=["x"]) == t


def test_round_trip_generated():
    rng = random.Random(2024)
    names = ["aa", "bb", "cc", "dd"]
    for _ in range(500):
        t = rand_scoped(rng, depth=len(names), size=rng.randrange(1, 14))
        printed = pretty_print(t, names)
        assert parse_term(printed, scope=names) == t, printed


# -- linear work: counted operations, not time -------------------------------------

def count_calls(monkeypatch, owner, name, limit=None):
    """Count calls to `owner.name`; past `limit` calls, fail at once."""
    calls = [0]
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        assert limit is None or calls[0] <= limit, f"more than {limit} calls to {name}"
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("connective, former", [("->", S.Pi), ("*", S.Sigma)])
def test_long_chains_parse_without_shifting(monkeypatch, connective, former):
    # each factor of `A -> A -> ... -> A` sees one more anonymous binder
    n = 2000
    terms = count_calls(monkeypatch, Parser, "term")
    t = parse_term(f" {connective} ".join(["A"] * n), scope=["A"])
    assert terms[0] == 1  # one loop, with no term parsed or rewritten again
    for k in range(n - 1):
        assert type(t) is former
        first, t = t.dom, t.cod
        assert first == S.Var(k)
    assert t == S.Var(n - 1)


def test_nested_ascriptions_parse_each_bracket_once(monkeypatch):
    # `(x0 : (x1 : ... (x29 : Nat)))`: every bracket opens like a binder
    # telescope and turns out to be an ascription
    depth = 30
    names = [f"x{k}" for k in range(depth)]
    text = "".join(f"({name} : " for name in names) + "Nat" + ")" * depth
    terms = count_calls(monkeypatch, Parser, "term", limit=4 * depth)
    t = parse_term(text, scope=names)
    assert terms[0] == depth + 1  # the whole term, then each bracket's type
    for k in range(depth):
        assert type(t) is S.Ann and t.term == S.Var(depth - 1 - k)
        t = t.type
    assert t == S.Nat()


def test_a_bracket_is_a_binder_only_where_a_telescope_may_start():
    a, b = S.Var(1), S.Var(0)
    assert parse_term("(a b : U 0) -> a", scope=["A"]) == \
        S.Pi(S.Univ(0), S.Pi(S.Univ(0), S.Var(1)))
    assert parse_term("(a : U 0) * a", scope=["A"]) == \
        S.Sigma(S.Univ(0), S.Var(0))
    # in argument position the same bracket is an ascription
    t = parse_term("f (a : U 0) -> b", scope=["f", "a", "b"])
    assert t == S.Pi(S.App(S.Var(2), S.Ann(a, S.Univ(0))), S.Var(1))
    with pytest.raises(CheckError) as e:
        parse_term("a * (x : U 0) -> x", scope=["a"])
    assert "arrow binder needs parentheses" in e.value.diagnostic.message
    # an ascription reports its unbound names before an error in its type
    with pytest.raises(CheckError) as e:
        parse_term("(zz : nope)", scope=["a"])
    assert e.value.diagnostic.message == "unbound identifier zz"
    # and before an error in its type or a missing `)`
    for text, scope, message, col in [
        ("(x b : Nat", ["a", "b"], "unbound identifier x", 2),
        ("(a b : Nat", [], "unbound identifier a", 2),
        ("(a b : Nat", ["a", "b"], "expected ')', got 'end of input'", 11),
        ("(a b : Nat ->)", ["a", "b"], "expected a term, got ')'", 14),
    ]:
        with pytest.raises(CheckError) as e:
            parse_term(text, scope=scope)
        diag = e.value.diagnostic
        assert (diag.message, diag.span.line, diag.span.col) == (message, 1, col), text
    assert parse_term("(a b : U 0)", scope=["a", "b"]) == \
        S.Ann(S.App(a, b), S.Univ(0))


def test_printing_a_long_chain_walks_each_node_once(monkeypatch):
    # only the innermost codomain mentions the outermost binder, so each
    # Pi's "is it dependent" question is answered by one pass over the term
    n = 200
    t = S.Var(n - 1)
    for _ in range(n):
        t = S.Pi(S.Nat(), t, hint="a")
    from tltt.printer import _Printer
    walks = count_calls(monkeypatch, _Printer, "free")
    text = pretty_print(t)
    assert walks[0] <= 2 * n + 2
    assert text.startswith("(a : Nat) -> Nat -> Nat -> ") and text.endswith("-> a")


def test_printing_a_shared_node_walks_it_once(monkeypatch):
    # a normal form may share subterm objects: the 2**n occurrences of one
    # node, held by n nested pairs, each pair's two children one object,
    # are walked once
    from tltt.printer import _Printer
    n = 40
    t = S.Pi(S.Nat(), S.Var(0), hint="a")
    for _ in range(n):
        t = S.Pair(t, t)
    walks = count_calls(monkeypatch, _Printer, "free")
    assert _Printer(()).free(S.Pair(t, S.Var(3))) == 1 << 3
    assert walks[0] <= 2 * n + 2


def test_fresh_names_are_the_first_unused_ones():
    # a binder's name against the definition, over random binder stacks
    # whose names collide with generated ones (x1, x12, x0), and bodies
    # holding constants whose names collide with them too
    from tltt.printer import ARROW, _Printer

    def naive(taken, hint):
        base = hint or "x"
        if base not in taken:
            return base
        i = 1
        while f"{base}{i}" in taken:
            i += 1
        return f"{base}{i}"

    rng = random.Random(5)
    hints = [None, "x", "x1", "x12", "x2", "x0", "y", "y1", "1"]
    for _ in range(200):
        given = rng.sample(hints[1:], rng.randrange(3))
        printer = _Printer(given)
        bodies = []  # the printer's tables are keyed by node ids: keep them alive
        for _ in range(60):
            if len(printer.names) > len(given) and rng.random() < 0.4:
                printer.pop()
                continue
            hint = rng.choice(hints)
            unbound = [name for name in hints[1:] if name not in printer.names]
            consts = rng.sample(unbound, rng.randrange(min(3, len(unbound) + 1)))
            body = S.Var(0)
            for const in consts:
                body = S.App(body, S.Const(const))
            bodies.append(body)
            name, text = printer.bind(hint, body, ARROW)
            assert name == naive({*printer.names, *consts}, hint)
            assert text == " ".join([name, *consts])
            printer.push(name if rng.random() < 0.8 or not unbound else rng.choice(unbound))


# -- the lexer ---------------------------------------------------------------------

def _corpus_sources():
    for path in sorted(CORPUS_DIR.glob("*.2lt")):
        yield path.name, path.read_text(encoding="utf-8")
    oracles = Path(__file__).resolve().parent.parent / "perfbench" / "oracles"
    forms = json.loads((oracles / "reference_normal_forms.json").read_text())
    for n in range(5):
        yield f"SST {n}s", forms["normal_forms"][f"SST {n}s"]


# Comments that hold comment delimiters, tabs, carriage returns and newlines.
_COMMENTS = (" -- a line comment with {- and -} and --\t\r\n",
             "{- a {- nested -- block -}\r\n\t-- comment -}",
             " {-\t-} ", "{--}", "--\n", "\t{- {- -} -- {- \n -} -}")


def _commented(text: str, path: str) -> str:
    """`text` with one of `_COMMENTS`, in turn, after each token."""
    starts = [0, *accumulate(len(line) + 1 for line in text.split("\n"))]
    cuts = [starts[t.line - 1] + t.end_col - 1 for t in tokenize(text, path)[:-1]]
    pieces = [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]
    return "".join(map(str.__add__, pieces[:-1], cycle(_COMMENTS))) + pieces[-1]


def _sources():
    sources = list(_corpus_sources())
    yield from sources
    for name, text in sources:
        yield f"{name} commented", _commented(text, name)


@pytest.mark.parametrize("name, text", [pytest.param(*s, id=s[0]) for s in _sources()])
def test_every_token_is_the_source_at_its_span(name, text):
    lines = text.split("\n")
    toks = tokenize(text, name)
    assert toks[-1].kind == "EOF"
    for tok in toks:
        assert tok.line == tok.end_line
        source = lines[tok.line - 1][tok.col - 1:tok.end_col - 1]
        assert source == tok.text + ("s" if tok.kind == "NUMS" else ""), tok


def test_numerals_are_ascii_digits():
    assert [t.kind for t in tokenize("12s 3 x2", "t")] == ["NUMS", "NUM", "IDENT", "EOF"]
    for text in ("\u00b2", "1\u00b2", "\u0663"):  # superscript two, Arabic-Indic three
        with pytest.raises(CheckError) as e:
            parse_module(f"def n : Nat := {text}", "t.2lt")
        diag = e.value.diagnostic
        assert diag.code == D.SYNTAX_ERROR
        assert diag.message.startswith("unexpected character")
        assert diag.span.col == 16 + len(text) - 1
    # other letters and numerals still make identifiers
    assert tokenize("x\u00b2 \u00e9t\u00e9'", "t")[:2] == [
        ("IDENT", "x\u00b2", 1, 1, 1, 3), ("IDENT", "\u00e9t\u00e9'", 1, 4, 1, 8)]


def test_strong_mode_reads_every_merged_word_as_fibrant():
    text = ("sumElimS (\\s. NatS +s EmptyS)"
            " (\\a. natElimS (\\n. EmptyS +s NatS) (inls 0s) (\\k. \\r. inrs (succs k)) a)"
            " (\\b. emptyElimS (\\e. Us 0) b)"
            " (Js (\\x. \\y. \\p. x =s y) (\\x. refls) 1s 1s (Ks refls refls))")
    default = parse_term(text)
    assert strict_constructors(default) == {
        "ElimSumS", "SumS", "NatS", "EmptyS", "ElimNatS", "InlS", "ZeroS", "InrS", "SuccS",
        "ElimEmptyS", "UnivS", "ElimIdS", "IdS", "ReflS", "UipS"}
    strong = parse_term(text, strong=True)
    assert strong == merge_strict_formers(default)
    # strict equality and the strict universe stay strict
    assert strict_constructors(strong) == {"UnivS", "ElimIdS", "IdS", "ReflS", "UipS"}


@pytest.mark.parametrize("former", list(S.KEYWORDS), ids=lambda cls: cls.__name__)
def test_every_keyword_prints_and_parses_back(former):
    # each argument a different variable, so that a swapped field shows
    names = ["a", "b", "c", "d", "e"]
    args = [S.Var(i) for i in range(len(former._children))]
    word, mark = S.KEYWORDS[former]
    terms = [former(*args)]
    if mark is not None:
        terms.append(former(*args, strict=True))
    for t in terms:
        text = pretty_print(t, names)
        assert text.split()[0] == (word + mark if getattr(t, "strict", False) else word)
        assert parse_term(text, scope=names) == t
        assert parse_term(text, scope=names, strong=True) == merge_strict_formers(t)


@pytest.mark.parametrize("key", list(S.ELIMINATORS), ids=lambda key: S.ELIMINATORS[key].word)
def test_every_eliminator_word_prints_and_parses_back(key):
    former, strict = key
    row = S.ELIMINATORS[key]
    arity = 1 + len(row.cases) + len(row.telescope)
    # each argument a different variable, so that a swapped argument shows
    names = ["a", "b", "c", "d", "e"]
    args = [S.Var(i) for i in range(arity)]
    t = S.Elim(former, tuple(args[:-1]), args[-1], strict=strict)
    text = pretty_print(t, names)
    assert text.split() == [row.word] + names[::-1][:arity]
    assert parse_term(text, scope=names) == t
    assert parse_term(text, scope=names, strong=True) == merge_strict_formers(t)
    # one argument short
    with pytest.raises(CheckError) as e:
        parse_term(text.rsplit(" ", 1)[0], scope=names)
    diag = e.value.diagnostic
    assert (diag.message, diag.span.col, diag.span.end_col) == \
        (f"{row.word} expects {arity} arguments, got {arity - 1}", 1, 1 + len(row.word))


def test_lexing_diagnostics_keep_their_spans():
    cases = {
        "def x : Nat := 0 -": ("stray '-' (use '-- ' for comments, '->' for arrows)", 1, 18),
        "#bogus": ("unknown pragma", 1, 1),
        "a =sb": ("bad token =sb", 1, 5),
        "x\t{ y": ("unexpected character '{'", 1, 3),
        # after `x--y` and before a line comment that ends the input
        "x--y\n\t- -- end": ("stray '-' (use '-- ' for comments, '->' for arrows)", 2, 2),
        "{- a -} -- b\n$ -- end": ("unexpected character '$'", 2, 1),
        # a bad character before an unterminated block comment comes first
        "a\n$ {- open": ("unexpected character '$'", 2, 1),
    }
    for text, (message, line, col) in cases.items():
        with pytest.raises(CheckError) as e:
            tokenize(text, "t")
        diag = e.value.diagnostic
        assert (diag.message, diag.span.line, diag.span.col, diag.span.end_col) == \
            (message, line, col, col + 1)
    with pytest.raises(CheckError) as e:
        tokenize("x {- a {- b -}\n c", "t")
    span = e.value.diagnostic.span
    assert (span.line, span.col, span.end_line, span.end_col) == (1, 3, 2, 3)
    toks = tokenize("{- a {- b -} -}\n{--}x", "t")
    assert toks[0] == ("IDENT", "x", 2, 5, 2, 6)
    # an unterminated block comment on line 3, after a line comment, spans
    # from its `{-` to the end of the input
    with pytest.raises(CheckError) as e:
        tokenize("a -- {- b\n\t-- c\nd {- e\n f", "t")
    diag = e.value.diagnostic
    assert (diag.message, diag.span.line, diag.span.col, diag.span.end_line,
            diag.span.end_col) == ("unterminated block comment", 3, 3, 4, 3)


_CORPUS_LINES = [line for _, text in _corpus_sources() if "\n" in text
                 for line in text.splitlines() if line.strip()]


def _parses_or_reports(text: str) -> None:
    for run in (lambda: tokenize(text, "f.2lt"),
                lambda: parse_module(text, "f.2lt", ["Foo"])):
        try:
            run()
        except CheckError:
            pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(max_size=60))
def test_arbitrary_text_parses_or_reports(text):
    _parses_or_reports(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, len(_CORPUS_LINES) - 2),
       st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                          st.integers(0, 200), st.integers(0, 255)), min_size=1, max_size=4))
def test_mutated_corpus_lines_parse_or_report(index, edits):
    data = bytearray("\n".join(_CORPUS_LINES[index:index + 2]).encode())
    for op, at, byte in edits:
        at %= len(data) + 1
        if op == "insert":
            data.insert(at, byte)
        elif data:
            at = min(at, len(data) - 1)
            if op == "delete":
                del data[at]
            else:
                data[at] = byte
    _parses_or_reports(data.decode("utf-8", "replace"))


# A line comment, and a block comment whose body nests more of them; the
# texts hold no brace but the comment delimiters' own.
_LINE_COMMENT = st.text(st.sampled_from("a -{}\t\r"), max_size=8).map(lambda s: f"--{s}\n")
_BLOCK_COMMENT = st.recursive(
    st.text(st.sampled_from("a -\t\r\n"), max_size=8),
    lambda body: st.lists(body, max_size=3).map(lambda parts: "{-" + "".join(parts) + "-}"),
    max_leaves=6).map(lambda body: "{-" + body + "-}")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, len(_CORPUS_LINES) - 1),
       st.lists(st.tuples(st.integers(0, 200), st.one_of(_LINE_COMMENT, _BLOCK_COMMENT)),
                max_size=5))
def test_comments_between_tokens_leave_the_tokens(index, comments):
    line = _CORPUS_LINES[index]
    toks = tokenize(line, "f.2lt")
    # before and after each token, never inside a comment the line ends with
    gaps = [0, *(t.col - 1 for t in toks[:-1]), *(t.end_col - 1 for t in toks[:-1])]
    text = line
    for at, comment in sorted(((gaps[at % len(gaps)], c) for at, c in comments), reverse=True):
        text = text[:at] + comment + text[at:]
    assert [t.text for t in tokenize(text, "f.2lt")] == [t.text for t in toks]


def _term_nodes(decl):
    """Every term node of a parsed declaration, the item a `#fail` wraps
    included."""
    if isinstance(decl, S.Declaration):
        stack = [t for t in (decl.ty, decl.body) if t is not None]
    elif decl.kind == S.FAIL:
        item = decl.payload[0]
        return [] if isinstance(item, D.Diagnostic) else _term_nodes(item)
    else:
        stack = list(decl.payload)
    nodes = []
    while stack:
        t = stack.pop()
        nodes.append(t)
        stack.extend(child for _, child, _ in term_children(t))
    return nodes


def test_term_spans_are_plain_tuples_the_collector_drops():
    known: list[str] = []
    nodes, spanned = [], []
    for entry in corpus_manifest():
        module = parse_module(entry.path.read_text(encoding="utf-8"), entry.path.name, known)
        known += [d.name for d in module.decls if isinstance(d, S.Declaration)]
        for decl in module.decls:
            nodes += _term_nodes(decl)
            spanned.append(decl)
            if isinstance(decl, S.Pragma) and decl.kind == S.FAIL:
                spanned.append(decl.payload[0])  # a declaration or its diagnostic
    gc.collect()
    spans = [t.span for t in nodes]
    assert len(spans) > 5000
    for span in spans:
        assert type(span) is tuple and len(span) == 5, span
        assert not gc.is_tracked(span), span
    # declarations and diagnostics keep a `Span`, which callers read by field
    assert any(isinstance(x, D.Diagnostic) for x in spanned)
    assert all(type(x.span) is S.Span for x in spanned)


def test_a_type_error_in_a_term_reports_its_span():
    (decl,) = parse_module("def no : Nat := \\x. x", "t.2lt").decls
    assert type(decl.body.span) is tuple
    with pytest.raises(CheckError) as e:
        tc.check_declaration(tc.new_context(), decl)
    diag = e.value.diagnostic
    assert type(diag.span) is S.Span
    assert str(diag).startswith("t.2lt:1:17: error[ConversionFailure]")
