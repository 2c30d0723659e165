"""Core syntax: shift, subst, structural alpha-equality."""

import random
import subprocess
import sys
from pathlib import Path

from tltt import syntax as S
from tltt.syntax import Var, Lam, App, Pi, Const, Star, Nat, Zero

from term_helpers import _rebuild, shift, subst, term_children

# -- a tiny named-variable reference implementation (the oracle for the
#    de Bruijn operations on the lambda/pi fragment)

_FRESH = [0]


def _fresh() -> str:
    _FRESH[0] += 1
    return f"v{_FRESH[0]}"


def to_named(t, scope):
    match t:
        case S.Var(index=i):
            return ("var", scope[-1 - i])
        case S.Lam(body=b):
            x = _fresh()
            return ("lam", x, to_named(b, scope + [x]))
        case S.Pi(dom=d, cod=c):
            x = _fresh()
            return ("pi", x, to_named(d, scope), to_named(c, scope + [x]))
        case S.App(fn=f, arg=a):
            return ("app", to_named(f, scope), to_named(a, scope))
        case _:
            return ("atom", t)


def from_named(n, scope):
    match n:
        case ("var", x):
            return Var(scope[::-1].index(x))
        case ("lam", x, b):
            return Lam(from_named(b, scope + [x]))
        case ("pi", x, d, c):
            return Pi(from_named(d, scope), from_named(c, scope + [x]))
        case ("app", f, a):
            return App(from_named(f, scope), from_named(a, scope))
        case ("atom", t):
            return t


def named_subst(n, x, repl):
    match n:
        case ("var", y):
            return repl if y == x else n
        case ("lam", y, b):
            return ("lam", y, named_subst(b, x, repl))
        case ("pi", y, d, c):
            return ("pi", y, named_subst(d, x, repl), named_subst(c, x, repl))
        case ("app", f, a):
            return ("app", named_subst(f, x, repl), named_subst(a, x, repl))
        case _:
            return n


def _lam_fragment(rng, depth, size):
    if size <= 1:
        if depth and rng.random() < 0.7:
            return Var(rng.randrange(depth))
        return rng.choice([Star(), Nat(), Zero(), Const("c")])
    pick = rng.randrange(4)
    half = max(1, size // 2)
    if pick == 0:
        return Lam(_lam_fragment(rng, depth + 1, size - 1))
    if pick == 1:
        return Pi(_lam_fragment(rng, depth, half), _lam_fragment(rng, depth + 1, half))
    return App(_lam_fragment(rng, depth, half), _lam_fragment(rng, depth, half))


# -- shift ---------------------------------------------------------------------

def test_shift_free_variable():
    assert shift(Var(0), 1, 0) == Var(1)


def test_shift_bound_variable_fixed():
    assert shift(Lam(Var(0)), 5, 0) == Lam(Var(0))


def test_shift_free_under_binder_against_named_reference():
    # the same term seen through named variables: \x. a  with a free
    t = Lam(Var(1))
    named = to_named(t, ["a"])
    assert from_named(named, ["a", "new"]) == shift(t, 1, 0) == Lam(Var(2))


def test_shift_zero_is_identity_sampled():
    rng = random.Random(7)
    for _ in range(300):
        t = _lam_fragment(rng, 3, rng.randrange(1, 10))
        assert shift(t, 0, rng.randrange(3)) == t


def test_shift_against_named_reference_sampled():
    rng = random.Random(8)
    for _ in range(300):
        t = _lam_fragment(rng, 2, rng.randrange(1, 10))
        named = to_named(t, ["a", "b"])
        assert from_named(named, ["a", "b", "new"]) == shift(t, 1, 0)


# -- subst --------------------------------------------------------------------

def test_subst_variable():
    assert subst(Var(0), 0, Star()) == Star()


def test_subst_under_binder():
    t = Lam(App(Var(1), Var(0)))
    assert subst(t, 0, Const("f")) == Lam(App(Const("f"), Var(0)))


def test_subst_dependent_pi_against_named_reference():
    t = Pi(Var(0), Var(1))
    got = subst(t, 0, Nat())
    assert got == Pi(Nat(), Nat())
    named = named_subst(to_named(t, ["a"]), "a", ("atom", Nat()))
    assert from_named(named, []) == got


def test_subst_of_shifted_variable_is_identity_sampled():
    rng = random.Random(9)
    for _ in range(300):
        t = _lam_fragment(rng, 2, rng.randrange(1, 10))
        u = _lam_fragment(rng, 2, rng.randrange(1, 6))
        assert subst(shift(t, 1, 0), 0, u) == t


def test_subst_against_named_reference_sampled():
    rng = random.Random(10)
    for _ in range(300):
        body = _lam_fragment(rng, 2, rng.randrange(1, 10))
        repl = _lam_fragment(rng, 1, rng.randrange(1, 6))
        # body under ["a", "x"]; substitute x := repl (scoped under ["a"])
        named = named_subst(to_named(body, ["a", "x"]), "x", to_named(repl, ["a"]))
        assert from_named(named, ["a"]) == subst(body, 0, repl)


# -- structural equality is alpha-equality -------------------------------------

def test_alpha_equality_ignores_hints_spans_and_annotations():
    sp = S.Span("f", 1, 1, 1, 2)
    same = [
        (Lam(Var(0), hint="x"), Lam(Var(0), hint="y")),
        (Pi(Nat(), Var(0), "x", span=sp), Pi(Nat(), Var(0), "y")),
        (S.Sigma(Nat(), Var(0), "x"), S.Sigma(Nat(), Var(0))),
        (Var(0, span=sp), Var(0)),
        (S.Id(Nat(), Zero(), Zero()), S.Id(None, Zero(), Zero())),
        (S.Id(Nat(), Zero(), Zero(), strict=True), S.Id(Nat(strict=True), Zero(), Zero(),
                                                       strict=True)),
        (Lam(Var(0), "x", span=sp), Lam(Var(0), "y")),
        (S.Ann(Var(0), Nat(), span=sp), S.Ann(Var(0, span=sp), Nat())),
    ]
    for a, b in same:
        assert a == b and not a != b, (a, b)
        assert hash(a) == hash(b), (a, b)
        assert repr(a) == repr(b), (a, b)


def test_alpha_equality_is_structural():
    assert Lam(Lam(Var(1))) != Lam(Lam(Var(0)))
    assert Pi(Nat(), Var(0)) != Pi(Nat(), Nat())
    assert Nat() != Nat(strict=True)
    # an ascription's type is compared, unlike the carrier of an equality
    assert S.Ann(Var(0), Nat()) != S.Ann(Var(0), Nat(strict=True))
    assert S.Ann(Var(0), Nat()) != S.Ann(Var(1), Nat())
    assert hash(S.Ann(Var(0), Nat())) != hash(S.Ann(Var(0), Nat(strict=True)))


def test_strict_is_compared_and_hashed():
    flagged = [S.Univ(0), Nat(), Zero(), S.Empty(), S.Refl(), S.Succ(Zero()),
               S.Sum(Nat(), Nat()), S.Inl(Star()), S.Inr(Star()),
               S.Id(None, Zero(), Zero()), S.Elim(S.Nat, (Nat(), Zero(), Star()), Zero()),
               S.Elim(S.Empty, (Nat(),), Star()), S.Elim(S.Sum, (Nat(), Star(), Star()), Star()),
               S.Elim(S.Id, (Nat(), Star(), Zero(), Zero()), S.Refl())]
    for t in flagged:
        flipped = _rebuild(t, {"strict": True})
        assert t != flipped and not t == flipped, t
        assert hash(t) != hash(flipped), t
        assert flipped == _rebuild(t, {"strict": True})


def test_a_different_class_compares_unequal():
    # same field values, other class
    assert S.Inl(Star()) != S.Inr(Star())
    assert S.Fst(Var(0)) != S.Snd(Var(0))
    assert S.Pair(Nat(), Nat()) != S.Sigma(Nat(), Nat())
    assert S.Unit() != Star() and S.Unit() == S.Unit()
    assert Var(0) != 0 and Zero() != (False,)


def test_repr_shows_the_compared_fields_in_order():
    sp = S.Span("f", 1, 1, 1, 2)
    assert repr(Pi(Nat(), Var(0), "x", span=sp)) == "Pi(dom=Nat(strict=False), cod=Var(index=0))"
    assert repr(S.Id(Nat(), Zero(), Zero(), strict=True)) == \
        "Id(lhs=Zero(strict=False), rhs=Zero(strict=False), strict=True)"
    assert repr(S.Univ(2)) == "Univ(level=2, strict=False)"
    assert repr(S.Unit()) == "Unit()"


def test_field_tables():
    # span first, then the class's slots in order; children are the term fields
    assert S.Lam._fields == ("span", "body", "hint")
    assert S.Ann._fields == ("span", "term", "type")
    assert S.Id._fields == ("span", "ty", "lhs", "rhs", "strict")
    assert [(n, under) for n, _, under in term_children(Lam(Var(0)))] == [("body", True)]
    assert [(n, under) for n, _, under in term_children(S.Ann(Var(0), Nat()))] == \
        [("term", False), ("type", False)]
    assert [n for n, _, _ in term_children(S.Id(None, Zero(), Zero()))] == ["lhs", "rhs"]
    assert term_children(Var(0)) == [] and term_children(Const("c")) == []
    # an eliminator's arguments are keyed by their position in the tuple
    assert S.Elim._fields == ("span", "former", "args", "target", "strict")
    elim = S.Elim(S.Nat, (Var(0), Var(1), Var(2)), Var(3))
    assert [(key, child) for key, child, _ in term_children(elim)] == \
        [(("args", 0), Var(0)), (("args", 1), Var(1)), (("args", 2), Var(2)), ("target", Var(3))]
    # every class reads back each field it is built with, a class that
    # borrows its twin's `__init__` included
    plain = {"span": ("f", 2, 3, 4, 5), "hint": "h", "strict": True, "index": 7,
             "level": 8, "name": "c", "resolved": "value", "former": S.Sum,
             "args": (Var(10), Var(11))}
    classes = S.Term.__subclasses__()
    assert {S.Sigma, S.Snd, S.Zero, S.Empty, S.Refl, S.Inr} <= set(classes)
    for cls in classes:
        values = {f: plain.get(f, Var(i)) for i, f in enumerate(cls._fields)}
        t = cls(**values)
        assert {f: getattr(t, f) for f in cls._fields} == values, cls.__name__


def test_rebuild_keeps_the_fields_it_does_not_replace():
    sp = S.Span("f", 1, 1, 1, 2)
    t = Pi(Nat(), Var(0), "x", span=sp)
    assert _rebuild(t, {}) is t
    u = _rebuild(t, {"dom": S.Unit()})
    assert type(u) is Pi and (u.dom, u.cod, u.hint, u.span) == (S.Unit(), Var(0), "x", sp)
    assert t.dom == Nat()  # the original is untouched
    elim = S.Elim(S.Id, (Var(0), Var(1), Var(2), Var(3)), Var(4), strict=True, span=sp)
    new = _rebuild(elim, {("args", 1): Star(), ("args", 3): Zero(), "target": Nat()})
    assert (new.former, new.args, new.target, new.strict, new.span) == \
        (S.Id, (Var(0), Star(), Var(2), Zero()), Nat(), True, sp)


def test_a_universe_compares_and_hashes_its_level():
    # its `strict` flag is checked with the other flagged formers'
    sp = S.Span("f", 1, 1, 1, 2)
    assert S.Univ(1, span=sp) == S.Univ(1) and hash(S.Univ(1, span=sp)) == hash(S.Univ(1))
    assert S.Univ(1) != S.Univ(2) and hash(S.Univ(1)) != hash(S.Univ(2))
    assert S.Univ(0) != (0, False) and term_children(S.Univ(3, strict=True)) == []


def test_importing_the_checker_loads_no_dataclasses():
    # every run starts with this import; dataclass code generation made up
    # about half of it
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tltt.cli, tltt.corpus; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
