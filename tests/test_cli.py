"""Driver behaviour: exit codes, report formats, pragma execution, #fail."""

import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from tltt import corpus
from tltt.cli import RECURSION_LIMIT, RunConfig, emit_report, main, run

GOOD = """
def two : Nat := 2
#check two : Nat
#infer two
#normalize succ two
#conv (\\x. succ x) ~ (\\y. succ y) : Nat -> Nat
"""

BAD = """
def wrong : U 0 := NatS
"""

FAILS = """
#fail[FibrancyViolation] def wrong : U 0 := NatS
#fail def alsoWrong : Nat := star
#fail[UnboundVariable] def broken : Nat := missing
"""


def write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_green_run_and_human_report(tmp_path):
    report = run(RunConfig(files=[write(tmp_path, "ok.2lt", GOOD)]))
    assert report.ok and report.exit_code == 0
    text, code = emit_report(report, "human")
    assert code == 0
    assert "OK: 1 declarations, 4 pragmas" in text
    assert "#normalize: 3" in text
    assert "#infer: Nat" in text


def test_error_run_exit_code_and_code_name(tmp_path):
    report = run(RunConfig(files=[write(tmp_path, "bad.2lt", BAD)]))
    assert not report.ok
    text, code = emit_report(report, "lines")
    assert code == 1
    assert "FibrancyViolation" in text


def test_structured_lines_are_tab_separated_and_deterministic(tmp_path):
    path = write(tmp_path, "ok.2lt", GOOD)
    first = emit_report(run(RunConfig(files=[path])), "lines")
    second = emit_report(run(RunConfig(files=[path])), "lines")
    assert first == second
    for line in first[0].splitlines():
        fields = line.split("\t")
        assert len(fields) == 5
        assert fields[0] == path
        assert fields[1].isdigit() and fields[2].isdigit()


def test_expected_failures(tmp_path):
    report = run(RunConfig(files=[write(tmp_path, "fails.2lt", FAILS)]))
    assert report.ok, [str(d) for _, d in report.diagnostics]
    kinds = [r.text for r in report.pragma_results]
    assert kinds == ["ok [FibrancyViolation]", "ok [ConversionFailure]",
                     "ok [UnboundVariable]"]


def test_fail_on_success_is_an_error(tmp_path):
    report = run(RunConfig(files=[write(tmp_path, "f.2lt",
                                        "#fail def fine : Nat := 2\n")]))
    assert not report.ok
    assert "expected to fail" in report.diagnostics[0][1].message
    # the sandboxed declaration must not leak into the signature
    assert "fine" not in report.context.sig.entries


def test_fail_with_wrong_code_is_an_error(tmp_path):
    report = run(RunConfig(files=[
        write(tmp_path, "f.2lt",
              "#fail[UniverseError] def wrong : U 0 := NatS\n")]))
    assert not report.ok
    assert "FibrancyViolation" in report.diagnostics[0][1].message


@pytest.mark.parametrize("text, line, col", [
    ("#fail", 1, 6),
    ("def a : Nat := 0\n#fail[SyntaxError]\n", 3, 1),
], ids=["bare", "with-code"])
def test_a_fail_with_nothing_to_wrap_is_a_syntax_error(tmp_path, capsys, text, line, col):
    # the missing item is an error of the file, not the failure `#fail` expects
    path = write(tmp_path, "f.2lt", text)
    assert main(["check", "--format=lines", path]) == 1
    assert capsys.readouterr().out == (
        f"{path}\t{line}\t{col}\tSyntaxError\t"
        "expected a declaration or pragma, got 'end of input'\n")


def test_files_share_one_signature(tmp_path):
    a = write(tmp_path, "a.2lt", "def one : Nat := 1\n")
    b = write(tmp_path, "b.2lt", "def two : Nat := succ one\n#normalize two\n")
    report = run(RunConfig(files=[a, b]))
    assert report.ok
    assert report.pragma_results[-1].text == "2"


def test_checking_continues_after_an_error(tmp_path):
    path = write(tmp_path, "multi.2lt",
                 "def wrong : U 0 := NatS\ndef fine : Nat := 3\n#normalize fine\n")
    report = run(RunConfig(files=[path]))
    assert not report.ok
    assert report.error_count == 1
    assert report.pragma_results[-1].text == "3"


def test_strict_proof_irrelevance_flag(tmp_path):
    text = """
axiom p : 0s =s 0s
axiom q : 0s =s 0s
#conv p ~ q : 0s =s 0s
"""
    path = write(tmp_path, "spi.2lt", text)
    assert not run(RunConfig(files=[path])).ok
    assert run(RunConfig(files=[path], strict_proof_irrelevance=True)).ok


def test_strict_proof_irrelevance_under_a_spine(tmp_path):
    # a strict equality proof under `P` is reached through an application,
    # a stuck eliminator and a projection; a fibrant one is never collapsed
    text = """
axiom P : (0s =s 0s) -> Us 0
axiom p : 0s =s 0s
axiom q : 0s =s 0s
axiom f : NatS -> 0s =s 0s
axiom m : NatS
axiom s : (0s =s 0s) * Nat
axiom x : P p
#check x : P q
axiom y : P (f m)
#check y : P q
axiom z : P (natElimS (\\n. 0s =s 0s) refls (\\n. \\r. r) m)
#check z : P q
axiom w : P (fst s)
#check w : P q
axiom P2 : (0 = 0) -> U 0
axiom p2 : 0 = 0
axiom q2 : 0 = 0
axiom x2 : P2 p2
#fail[ConversionFailure] #check x2 : P2 q2
"""
    path = write(tmp_path, "spine.2lt", text)
    report = run(RunConfig(files=[path], strict_proof_irrelevance=True))
    assert report.ok, [str(d) for _, d in report.diagnostics]
    report = run(RunConfig(files=[path]))
    assert [d.code for _, d in report.diagnostics] == ["ConversionFailure"] * 4


@pytest.mark.parametrize("text", [
    "axiom A : U 0\naxiom f : Unit -> A\naxiom x : Unit\n#conv f x ~ f star : A\n",
    "axiom Q : Unit + Nat -> U 0\naxiom a : Unit\n#conv Q (inl a) ~ Q (inl star) : U 0\n",
], ids=["argument", "injection-argument"])
def test_unit_eta_under_a_spine(tmp_path, text):
    path = write(tmp_path, "eta.2lt", text)
    report = run(RunConfig(files=[path]))
    assert report.ok, [str(d) for _, d in report.diagnostics]


@pytest.mark.xfail(strict=True, reason="a lambda compared without a type binds a variable "
                   "without one, so Unit eta is lost under it; typed conversion, "
                   "ROADMAP item 1")
@pytest.mark.parametrize("query", [
    "axiom g : (Unit -> A) -> B\n#conv g (\\x. f x) ~ g (\\x. f star) : B",
    "axiom n : Nat\n#conv natElim (\\k. Unit -> A) f (\\k. \\h. h) n"
    " ~ natElim (\\k. Unit -> A) (\\x. f star) (\\k. \\h. h) n : Unit -> A",
], ids=["argument", "eliminator-case"])
def test_unit_eta_under_an_untyped_binder(tmp_path, query):
    text = f"axiom A : U 0\naxiom B : U 0\naxiom f : Unit -> A\n{query}\n"
    report = run(RunConfig(files=[write(tmp_path, "binder.2lt", text)]))
    assert report.ok, [str(d) for _, d in report.diagnostics]


@pytest.mark.xfail(strict=True, reason="a Ks value records no type, so it is not seen as "
                   "a strict equality proof in an untyped position; ROADMAP item 1")
def test_ks_proof_is_irrelevant_under_a_spine(tmp_path):
    text = """
axiom A : U 0
axiom p : 0s =s 0s
axiom r : p =s p
axiom K : (p =s p) -> A
#conv K (Ks p p) ~ K r : A
"""
    report = run(RunConfig(files=[write(tmp_path, "ks.2lt", text)],
                           strict_proof_irrelevance=True))
    assert report.ok, [str(d) for _, d in report.diagnostics]


IRRELEVANCE_DECLS = """
axiom A : U 0
axiom c : A
axiom a : Unit
axiom p : 0s =s 0s
axiom q : 0s =s 0s
axiom F : Unit -> A
axiom G : (0s =s 0s) -> A
axiom Q : Unit + Nat -> A
axiom Qs : (0s =s 0s) +s NatS -> A
axiom eu : a = a
axiom ep : p =s p
axiom u : Unit -> 0s =s 0s
axiom H : (u a =s u a) -> A
axiom K : (p =s p) -> A
axiom W : Unit * Nat -> A
axiom w : Unit * Nat
axiom Ws : (0s =s 0s) * NatS -> A
axiom ws : (0s =s 0s) * NatS
axiom G2 : (0 = 0) -> A
axiom p2 : 0 = 0
axiom q2 : 0 = 0
axiom Q2 : Unit + Unit -> A
axiom Qs2 : (0s =s 0s) +s (0s =s 0s) -> A
axiom N : Nat -> A
axiom m : Nat
axiom Fu : (Nat -> Unit) -> A
axiom f1 : Nat -> Unit
axiom f2 : Nat -> Unit
axiom Fp : (NatS -> 0s =s 0s) -> A
axiom g1 : NatS -> 0s =s 0s
axiom g2 : NatS -> 0s =s 0s
axiom Uu : Unit * Unit -> A
axiom u1 : Unit * Unit
axiom u2 : Unit * Unit
axiom Fn : (Unit -> Nat) -> A
axiom n1 : Unit -> Nat
axiom n2 : Unit -> Nat
axiom Nu : Nat * Unit -> A
axiom z1 : Nat * Unit
axiom z2 : Nat * Unit
"""


# Each input is one #conv at a non-Unit type whose two sides differ only in an
# inhabitant of Unit, or of a strict equality, or of a function or pair type
# built from those, reached in a position that conversion compares without a
# type.  The flags say whether it holds without
# and with --strict-proof-irrelevance; a failure is a ConversionFailure.  The
# strict eliminator and Ks inputs are also ill-typed without the flag, since
# there the proof's type mentions `q` where the other side's mentions `p`.
@pytest.mark.parametrize("query, plain, spi", [
    ("F a ~ F star", True, True),
    ("G p ~ G q", False, True),
    ("Q (inl a) ~ Q (inl star)", True, True),
    ("Qs (inls p) ~ Qs (inls q)", False, True),
    ("J (\\x. \\y. \\e. A) (\\x. c) a a eu ~ J (\\x. \\y. \\e. A) (\\x. c) star a eu",
     True, True),
    ("Js (\\x. \\y. \\e. A) (\\x. c) p p ep ~ Js (\\x. \\y. \\e. A) (\\x. c) q p ep",
     False, True),
    ("H (Ks (u a) (u a)) ~ H (Ks (u star) (u star))", True, True),
    ("K (Ks p p) ~ K (Ks q p)", False, True),
    ("W w ~ W (star, snd w)", True, True),
    ("W (a, 0) ~ W (star, 0)", True, True),
    ("Ws ws ~ Ws (q, snd ws)", False, True),
    ("G2 p2 ~ G2 q2", False, False),
    ("Q2 (inl a) ~ Q2 (inr star)", False, False),
    ("Qs2 (inls p) ~ Qs2 (inrs q)", False, False),
    ("N m ~ N 0", False, False),
    ("Fu f1 ~ Fu f2", True, True),
    ("Fp g1 ~ Fp g2", False, True),
    ("Uu u1 ~ Uu u2", True, True),
    ("Fn n1 ~ Fn n2", False, False),
    ("Nu z1 ~ Nu z2", False, False),
], ids=["argument", "argument-strict", "injection", "injection-strict",
        "eliminator-argument", "eliminator-argument-strict", "ks-proofs",
        "ks-proofs-strict", "pair-eta", "pair", "pair-eta-strict",
        "fibrant-equality", "inl-inr", "inls-inrs", "neutral-numeral",
        "function-into-unit", "function-into-strict", "pair-of-units",
        "function-into-nat", "pair-with-a-number"])
def test_irrelevance_in_each_untyped_position(tmp_path, query, plain, spi):
    path = write(tmp_path, "irr.2lt", f"{IRRELEVANCE_DECLS}#conv {query} : A\n")
    for flag, holds in ((False, plain), (True, spi)):
        report = run(RunConfig(files=[path], strict_proof_irrelevance=flag))
        codes = [d.code for _, d in report.diagnostics]
        assert codes == ([] if holds else ["ConversionFailure"]), (flag, codes)


@pytest.mark.parametrize("text", [
    "axiom r : Nat = Nat\n#fail[UniverseError] #check ((r : Nat = Nat) = r) : U 0\n"
    "#check ((r : Nat = Nat) = r) : U 1\n",
    "axiom r : NatS =s NatS\n#fail[UniverseError] #check ((r : NatS =s NatS) =s r) : Us 0\n"
    "#check ((r : NatS =s NatS) =s r) : Us 1\n",
], ids=["fibrant", "strict"])
def test_an_ascription_keeps_the_universe_of_an_equality(tmp_path, text):
    # the ascription's type is the value of `Nat = Nat` (or `NatS =s NatS`),
    # whose carrier is U 0 (or Us 0), so an equality between two proofs of
    # it lives one level up
    report = run(RunConfig(files=[write(tmp_path, "asc.2lt", text)]))
    assert report.ok, [str(d) for _, d in report.diagnostics]
    assert [r.text for r in report.pragma_results] == ["ok [UniverseError]", "ok"]


UNIVERSES = """axiom A : Us 0
axiom x : A
def pretype : U 0 := NatS
def level : U 1 := U 1
def strictLevel : Us 0 := Us 0
def sum : U 0 := Nat + NatS
def eq : U 0 := x = x
def motive : Us 0 := natElim ((\\n. Us 0) : Nat -> Us 1) NatS (\\n. \\r. r) 2
#infer Us 1 -> U 0
#infer (X : U 0) * (X + X)
#infer (Nat : U 0) = Nat
#infer (NatS : Us 0) =s NatS
"""

UNIVERSE_INFERENCES = """u.2lt:9:1: #infer: Us 2
u.2lt:10:1: #infer: U 1
u.2lt:11:1: #infer: U 1
u.2lt:12:1: #infer: Us 1
"""

UNIVERSE_LEVELS = """u.2lt:4:20: error[UniverseError]: universe level too large
  expected: U 1
  actual:   U 2
u.2lt:5:27: error[UniverseError]: universe level too large
  expected: Us 0
  actual:   Us 1
"""

UNIVERSE_EQUALITY = """u.2lt:7:17: error[NonFibrantEqualityFormation]: \
the inner equality can only be formed over a fibrant type
  expected: a fibrant type
  actual:   A : Us 0
"""


@pytest.mark.parametrize("strong, expected", [
    (False, UNIVERSE_INFERENCES + """\
u.2lt:3:22: error[FibrancyViolation]: a pretype cannot be used where a fibrant type is required
  expected: U 0
  actual:   Us 0
""" + UNIVERSE_LEVELS + """\
u.2lt:6:24: error[FibrancyViolation]: sum formation requires fibrant summands
  expected: a fibrant type
  actual:   NatS
""" + UNIVERSE_EQUALITY + """\
u.2lt:8:30: error[NonFibrantMotive]: natElim can only eliminate into families of fibrant \
types; the motive lands in Us 1
FAILED: 6 errors (2 declarations, 4 pragmas)\n"""),
    (True, UNIVERSE_INFERENCES + UNIVERSE_LEVELS + UNIVERSE_EQUALITY
     + "FAILED: 3 errors (5 declarations, 4 pragmas)\n"),
], ids=["default", "strong"])
def test_universe_diagnostics(tmp_path, strong, expected):
    # every diagnostic that names a universe, byte for byte: cumulativity
    # (fibrancy, then level), a sum's summand, an equality's carrier, and
    # the universe a motive lands in
    path = write(tmp_path, "u.2lt", UNIVERSES)
    text, code = emit_report(run(RunConfig(files=[path], strong_mode=strong)), "human")
    assert code == 1
    assert text.replace(path, "u.2lt") == expected


def test_diagnostics_show_the_users_ascription(tmp_path):
    # the parsed term prints the ascription as written; the elaborated one
    # has it erased
    text = ("axiom X : Us 0\n#check ((X : Us 0) + Nat) : Us 0\n"
            "#conv (X : Us 0) ~ Nat : Us 0\n")
    report = run(RunConfig(files=[write(tmp_path, "shown.2lt", text)]))
    (_, summand), (_, conv) = report.diagnostics
    assert (summand.code, summand.actual) == ("FibrancyViolation", "(X : Us 0)")
    assert (conv.code, conv.expected, conv.actual) == ("ConversionFailure", "X", "Nat")


def test_unit_eta_inside_an_injection_at_a_sum_type(tmp_path):
    # the payload is compared at its summand, so Pi, Sigma and Unit eta apply
    # to it, also to a lambda whose variable only the summand types, when one
    # side is a definition that unfolds to an injection, and to the endpoints
    # of an equality over a sum
    text = """
axiom a : Unit
def i : Unit + Nat := inl a
axiom f : Unit -> Unit
axiom g : Unit -> Unit
axiom w1 : Unit * Unit
axiom w2 : Unit * Unit
axiom v1 : (Nat -> Unit) * Unit
axiom v2 : (Nat -> Unit) * Unit
#conv inl a ~ inl star : Unit + Nat
#conv inls a ~ inls star : Unit +s NatS
#conv i ~ inl star : Unit + Nat
#conv inr a ~ inr star : Nat + Unit
#conv inl f ~ inl g : (Unit -> Unit) + Nat
#conv inl w1 ~ inl w2 : (Unit * Unit) + Nat
#conv inr v1 ~ inr v2 : Nat + ((Nat -> Unit) * Unit)
#conv inl (\\x. x) ~ inl (\\x. star) : (Unit -> Unit) + Nat
#conv inl (\\x. x) ~ inl f : (Unit -> Unit) + Nat
#conv inl (star, \\x. x) ~ inl (star, \\x. star) : (Unit * (Unit -> Unit)) + Nat
#check refl : (inl f : (Unit -> Unit) + Nat) = inl g
#fail[ConversionFailure] #conv inl a ~ inr star : Unit + Unit
#fail[ConversionFailure] #conv inls a ~ inrs star : Unit +s Unit
#fail[ConversionFailure] #conv inl 0 ~ inl 1 : Nat + Unit
"""
    report = run(RunConfig(files=[write(tmp_path, "sum.2lt", text)]))
    assert report.ok, [str(d) for _, d in report.diagnostics]
    assert [r.text for r in report.pragma_results] == ["ok"] * 11 + \
        ["ok [ConversionFailure]"] * 3


def test_strict_proofs_of_a_family_inside_an_injection(tmp_path):
    # under the flag a function into a strict equality has all its
    # inhabitants equal, so two of them are equal payloads; without it not
    text = """
axiom h1 : NatS -> 0s =s 0s
axiom h2 : NatS -> 0s =s 0s
#conv inls h1 ~ inls h2 : (NatS -> 0s =s 0s) +s NatS
"""
    path = write(tmp_path, "family.2lt", text)
    assert run(RunConfig(files=[path], strict_proof_irrelevance=True)).ok
    report = run(RunConfig(files=[path]))
    assert [d.code for _, d in report.diagnostics] == ["ConversionFailure"]


ELIMINATOR_CASES = """
axiom P : {Nat} -> {U} 0
axiom p0 : P {zero}
axiom step : (k : {Nat}) -> P k -> P ({succ} k)
axiom st : {Nat} -> P {zero}
axiom n : {Nat}
def natOk : P n := {natElim} P p0 step n
def natBad : P n := {natElim} P p0 st n
axiom Q : Unit {plus} Unit -> {U} 0
axiom gl : (z : Unit) -> Q ({inl} z)
axiom gr : (z : Unit) -> Q ({inr} z)
axiom s : Unit {plus} Unit
def sumOk : Q s := {sumElim} Q gl gr s
def sumBadInl : Q s := {sumElim} Q gr gr s
def sumBadInr : Q s := {sumElim} Q gl gl s
axiom A : U 0
axiom R : (a b : A) -> a {eq} b -> {U} 0
axiom r : (a : A) -> R a a {refl}
axiom h : A -> Unit
def idOk : (x y : A) -> (e : x {eq} y) -> R x y e := \\x. \\y. \\e. {J} R r x y e
def idBad : (x y : A) -> (e : x {eq} y) -> R x y e := \\x. \\y. \\e. {J} R h x y e
"""

FIBRANT_WORDS = dict(Nat="Nat", U="U", zero="0", succ="succ", natElim="natElim",
                     plus="+", inl="inl", inr="inr", sumElim="sumElim", eq="=",
                     refl="refl", J="J")
STRICT_WORDS = dict(Nat="NatS", U="Us", zero="0s", succ="succs", natElim="natElimS",
                    plus="+s", inl="inls", inr="inrs", sumElim="sumElimS", eq="=s",
                    refl="refls", J="Js")


@pytest.mark.parametrize("words, expected", [
    (FIBRANT_WORDS, ["(x : Nat) -> P x -> P (succ x)", "(x : Unit) -> Q (inl x)",
                     "(x : Unit) -> Q (inr x)", "(x1 : A) -> R x1 x1 refl"]),
    (STRICT_WORDS, ["(x : NatS) -> P x -> P (succs x)", "(x : Unit) -> Q (inls x)",
                    "(x : Unit) -> Q (inrs x)", "(x1 : A) -> R x1 x1 refls"]),
], ids=["fibrant", "strict"])
def test_eliminator_case_types_in_diagnostics(tmp_path, words, expected):
    # each failing case is checked against the type its eliminator builds
    # from the motive: the natElim step, the sumElim cases and the J refl case
    path = write(tmp_path, "elim.2lt", ELIMINATOR_CASES.format(**words))
    text, code = emit_report(run(RunConfig(files=[path])), "human")
    assert code == 1
    assert re.findall(r"^  expected: (.*)$", text, re.M) == expected
    assert text.count("error[ConversionFailure]: type mismatch") == 4
    assert "FAILED: 4 errors (16 declarations, 0 pragmas)" in text


MOTIVES = """\
axiom A : U 0
axiom a : A
def S : U 0 := Nat + Nat
def s1 : S := inl 0
def sumNonSum : Nat := sumElim (\\s. Nat) (\\n. n) (\\n. n) a
def sumOverA : Nat := sumElim ((\\s. Nat) : A -> U 0) (\\n. n) (\\n. n) s1
def natOverA : Nat := natElim ((\\s. Nat) : A -> U 0) 0 (\\n. \\r. r) 0
def emptyOverA : Nat := emptyElim ((\\s. Nat) : A -> U 0) a
def jOne : Nat := J ((\\x. Nat) : A -> U 0) (\\x. 0) a a refl
def jTwo : Nat := J ((\\x. \\y. Nat) : A -> A -> U 0) (\\x. 0) a a refl
def jMixed : Nat := J ((\\x. \\y. \\z. Nat) : A -> Nat -> Nat -> U 0) (\\x. 0) a a refl
def jFlipped : Nat := J ((\\x. \\y. \\p. Nat) : (x : A) -> (y : A) -> y = x -> U 0) (\\x. 0) a a refl
def jNotFamily : Nat := J a (\\x. 0) a a refl
def natNotFamily : Nat := natElim a 0 (\\n. \\r. r) 0
def inNat : Nat := natElim ((\\n. 0) : Nat -> Nat) 0 (\\n. \\r. r) 0
def inA : Nat := natElim ((\\n. a) : Nat -> A) 0 (\\n. \\r. r) 0
def inSum : Nat := natElim ((\\n. inl 0) : Nat -> Nat + Nat) 0 (\\n. \\r. r) 0
def bareInNat : Nat := natElim (\\n. 0) 0 (\\n. \\r. r) 0
def natStrictMotive : Nat := natElim ((\\n. NatS) : Nat -> Us 0) 0 (\\n. \\r. r) 0
def sumStrictMotive : Nat := sumElim ((\\s. NatS) : S -> Us 0) (\\n. n) (\\n. n) s1
axiom void : Empty
def emptyStrictMotive : Nat := emptyElim ((\\s. NatS) : Empty -> Us 0) void
def jStrictMotive : Nat := J ((\\x. \\y. \\p. NatS) : (x : A) -> (y : A) -> x = y -> Us 0) (\\x. 0) a a refl
def natSOverA : Nat := natElimS ((\\s. Nat) : A -> U 0) 0 (\\n. \\r. r) 0s
def emptySOverA : Nat := emptyElimS ((\\s. Nat) : A -> U 0) a
def sumSOverS : Nat := sumElimS ((\\s. Nat) : S -> U 0) (\\n. n) (\\n. n) s1
def sumSBare : Nat := sumElimS (\\s. Nat) (\\n. n) (\\n. n) s1
def jSFibrantProof : Nat := Js ((\\x. \\y. \\p. Nat) : (x : A) -> (y : A) -> x = y -> U 0) (\\x. 0) a a refls
def jSOne : Nat := Js ((\\x. Nat) : A -> U 0) (\\x. 0) a a refls
"""

MOTIVE_REPORTS = {
    "default": """\
{path}:5:58: error[ConversionFailure]: sum elimination of a non-sum
  actual:   A
{path}:6:31: error[ConversionFailure]: the motive must be a family over a sum type
  expected: (... + ...) -> ...
  actual:   A -> U 0
{path}:7:31: error[ConversionFailure]: the motive must be a family over the naturals
  expected: Nat -> ...
  actual:   A -> U 0
{path}:8:35: error[ConversionFailure]: the motive must be a family over the empty type
  expected: Empty -> ...
  actual:   A -> U 0
{path}:9:21: error[ConversionFailure]: the J motive must take two endpoints of the same type
  actual:   A -> U 0
{path}:10:21: error[ConversionFailure]: the J motive must abstract a proof between its endpoints
  actual:   A -> A -> U 0
{path}:11:23: error[ConversionFailure]: the J motive must take two endpoints of the same type
  actual:   A -> Nat -> Nat -> U 0
{path}:12:25: error[ConversionFailure]: the J motive must abstract a proof between its endpoints
  actual:   (x : A) -> (y : A) -> y = x -> U 0
{path}:13:27: error[ConversionFailure]: the J motive must abstract both endpoints and the proof
  actual:   A
{path}:14:35: error[ConversionFailure]: the motive must be a family over the naturals
  expected: Nat -> ...
  actual:   A
{path}:15:28: error[UniverseError]: the motive must land in a universe
  expected: a universe
  actual:   Nat
{path}:16:26: error[UniverseError]: the motive must land in a universe
  expected: a universe
  actual:   A
{path}:17:28: error[UniverseError]: the motive must land in a universe
  expected: a universe
  actual:   Nat + Nat
{path}:18:33: error[UniverseError]: the motive must land in a universe
  expected: a universe
  actual:   Nat
{path}:19:38: error[NonFibrantMotive]: natElim can only eliminate into families of fibrant types; the motive lands in Us 0
{path}:20:38: error[NonFibrantMotive]: sumElim can only eliminate into families of fibrant types; the motive lands in Us 0
{path}:22:42: error[NonFibrantMotive]: emptyElim can only eliminate into families of fibrant types; the motive lands in Us 0
{path}:23:30: error[NonFibrantMotive]: J can only eliminate into families of fibrant types; the motive lands in Us 0
{path}:24:33: error[ConversionFailure]: the motive must be a family over the naturals
  expected: NatS -> ...
  actual:   A -> U 0
{path}:25:37: error[ConversionFailure]: the motive must be a family over the empty type
  expected: EmptyS -> ...
  actual:   A -> U 0
{path}:26:33: error[ConversionFailure]: the motive must be a family over a sum type
  expected: (... +s ...) -> ...
  actual:   S -> U 0
{path}:27:58: error[ConversionFailure]: sum elimination of a non-sum
  actual:   S
{path}:28:32: error[ConversionFailure]: the Js motive must abstract a proof between its endpoints
  actual:   (x : A) -> (y : A) -> x = y -> U 0
{path}:29:23: error[ConversionFailure]: the Js motive must take two endpoints of the same type
  actual:   A -> U 0
FAILED: 24 errors (5 declarations, 0 pragmas)
""",
    "strong": """\
{path}:5:58: error[ConversionFailure]: sum elimination of a non-sum
  actual:   A
{path}:6:31: error[ConversionFailure]: the motive must be a family over a sum type
  expected: (... + ...) -> ...
  actual:   A -> U 0
{path}:7:31: error[ConversionFailure]: the motive must be a family over the naturals
  expected: Nat -> ...
  actual:   A -> U 0
{path}:8:35: error[ConversionFailure]: the motive must be a family over the empty type
  expected: Empty -> ...
  actual:   A -> U 0
{path}:9:21: error[ConversionFailure]: the J motive must take two endpoints of the same type
  actual:   A -> U 0
{path}:10:21: error[ConversionFailure]: the J motive must abstract a proof between its endpoints
  actual:   A -> A -> U 0
{path}:11:23: error[ConversionFailure]: the J motive must take two endpoints of the same type
  actual:   A -> Nat -> Nat -> U 0
{path}:12:25: error[ConversionFailure]: the J motive must abstract a proof between its endpoints
  actual:   (x : A) -> (y : A) -> y = x -> U 0
{path}:13:27: error[ConversionFailure]: the J motive must abstract both endpoints and the proof
  actual:   A
{path}:14:35: error[ConversionFailure]: the motive must be a family over the naturals
  expected: Nat -> ...
  actual:   A
{path}:15:28: error[UniverseError]: the motive must land in a universe
  expected: a universe
  actual:   Nat
{path}:16:26: error[UniverseError]: the motive must land in a universe
  expected: a universe
  actual:   A
{path}:17:28: error[UniverseError]: the motive must land in a universe
  expected: a universe
  actual:   Nat + Nat
{path}:18:33: error[UniverseError]: the motive must land in a universe
  expected: a universe
  actual:   Nat
{path}:23:30: error[NonFibrantMotive]: J can only eliminate into families of fibrant types; the motive lands in Us 0
{path}:24:33: error[ConversionFailure]: the motive must be a family over the naturals
  expected: Nat -> ...
  actual:   A -> U 0
{path}:25:37: error[ConversionFailure]: the motive must be a family over the empty type
  expected: Empty -> ...
  actual:   A -> U 0
{path}:28:32: error[ConversionFailure]: the Js motive must abstract a proof between its endpoints
  actual:   (x : A) -> (y : A) -> x = y -> U 0
{path}:29:23: error[ConversionFailure]: the Js motive must take two endpoints of the same type
  actual:   A -> U 0
FAILED: 19 errors (10 declarations, 0 pragmas)
""",
}

@pytest.mark.parametrize("mode", ["default", "strong"])
def test_eliminator_motive_diagnostics(tmp_path, mode):
    # every way a motive can be rejected, for each eliminator and fragment:
    # message, expected and actual types, and span; strong mode reads the
    # strict formers as the fibrant ones and waives the fibrant-motive rule
    # for every eliminator but J
    path = write(tmp_path, "motives.2lt", MOTIVES)
    config = RunConfig(files=[path], strong_mode=mode == "strong")
    text, code = emit_report(run(config), "human")
    assert code == 1
    assert text == MOTIVE_REPORTS[mode].replace("{path}", path)


@pytest.mark.parametrize("text, actual", [
    ("axiom F : (n : Nat) -> n = n\naxiom b : 0 = 0\ndef t : Nat := natElim F b b 0\n",
     "n = n"),
    ("axiom A : U 0\naxiom F : (x : A) -> (y : A) -> x = y -> x = y\naxiom a : A\n"
     "def t : Nat := J F F a a refl\n", "x = y"),
], ids=["natElim", "J"])
def test_motive_codomain_is_shown_in_the_context_of_its_indices(tmp_path, text, actual):
    # the codomain mentions the motive's indices, named by its Pi hints
    (_, diag), = run(RunConfig(files=[write(tmp_path, "cod.2lt", text)])).diagnostics
    assert (diag.code, diag.message, diag.expected, diag.actual) == (
        "UniverseError", "the motive must land in a universe", "a universe", actual)


def test_case_type_binder_does_not_capture_a_constant(tmp_path):
    text = ("axiom x : Nat\naxiom p0 : x = 0\naxiom st : Nat -> x = 0\n"
            "def bad : x = 3 := natElim (\\k. x = k) p0 st 3\n")
    (_, diag), = run(RunConfig(files=[write(tmp_path, "capture.2lt", text)])).diagnostics
    assert diag.expected == "(x1 : Nat) -> x = x1 -> x = succ x1"


def test_a_context_variable_is_not_shown_under_a_constant_name(tmp_path):
    text = ("axiom f : Nat\naxiom P : Nat -> U 0\naxiom pf : P f\n"
            "def g : (f : Nat) -> P f := \\f. pf\n")
    (_, diag), = run(RunConfig(files=[write(tmp_path, "shadow.2lt", text)])).diagnostics
    assert (diag.expected, diag.actual) == ("P f1", "P f")


def test_unfold_budget_flag(tmp_path):
    text = "def d : Nat := 3\ndef e : Nat := succ d\n#normalize succ e\n"
    path = write(tmp_path, "budget.2lt", text)
    assert run(RunConfig(files=[path], unfold_budget=5)).ok
    report = run(RunConfig(files=[path], unfold_budget=0))
    assert not report.ok


def test_normalizing_sst_5s_spends_1258_unfolds(tmp_path):
    # within one normalization a read-back of one value is done once, and
    # equal numerals are one value, so their read-backs and unfoldings are
    # shared: a plain read-back spends 8,340 unfolds
    files = [str(corpus.CORPUS_DIR / name) for name in ("prelude.2lt", "fin.2lt", "sst.2lt")]
    path = write(tmp_path, "sst5.2lt", "#normalize SST 5s\n")
    assert run(RunConfig(files=files + [path], unfold_budget=1258)).ok
    report = run(RunConfig(files=files + [path], unfold_budget=1257))
    assert [(p, d.span.line, d.code) for p, d in report.diagnostics] == [
        (path, 1, "ResourceExhausted")]


def test_an_exhausted_budget_is_no_verdict(tmp_path):
    # `a ~ 1` holds, but deciding it unfolds `a`: under a budget of 0 both
    # comparisons run out, and the `#fail` must not pass the true equation
    # off as an expected failure
    path = write(tmp_path, "spent.2lt",
                 "def a : Nat := 1\n#conv a ~ 1 : Nat\n#fail #conv a ~ 1 : Nat\n")
    report = run(RunConfig(files=[path], unfold_budget=0))
    assert [(d.span.line, d.code, d.message) for _, d in report.diagnostics] == [
        (line, "ResourceExhausted", "evaluation failed: unfold budget exhausted")
        for line in (2, 3)]
    assert report.pragma_results == []
    # with the unfold it needs, the equation holds and the `#fail` fails
    report = run(RunConfig(files=[path], unfold_budget=1))
    assert [d.code for _, d in report.diagnostics] == ["ExpectedFailure"]


def test_checking_a_lambda_spends_no_unfolds_on_its_domain(tmp_path):
    # only `refl` needs `d` unfolded; the lambda's domain mentions `d` as well
    text = "def d : Nat := 0\ndef g : ((n : Nat) -> d = n) -> d = 0 := \\f. refl\n"
    path = write(tmp_path, "budget.2lt", text)
    assert run(RunConfig(files=[path], unfold_budget=1)).ok
    assert not run(RunConfig(files=[path], unfold_budget=0)).ok


def test_an_inferred_equality_carrier_stays_folded(tmp_path):
    # `p = p` reads its carrier `Pt` off `p`: finding the carrier's sort
    # unfolds `Pt` once, and the elaborated carrier must not unfold it again
    text = "def Pt : U 1 := (A : U 0) * A\naxiom p : Pt\ndef e : p = p := refl\n"
    path = write(tmp_path, "carrier.2lt", text)
    assert run(RunConfig(files=[path], unfold_budget=1)).ok
    assert not run(RunConfig(files=[path], unfold_budget=0)).ok


def test_a_failed_comparison_reads_a_type_only_when_it_can_decide(tmp_path):
    # `F x ~ F y` compares the arguments `x` and `y`, fails, and unfolds both
    # sides: two unfolds, with or without the flag.  Reading the type `S` of
    # `x` first would spend a third.
    text = ("def S : U 0 := Nat + Nat\ndef F : S -> Nat := \\z. 0\n"
            "axiom x : S\naxiom y : S\n#conv F x ~ F y : Nat\n")
    path = write(tmp_path, "spine.2lt", text)
    for flag in (False, True):
        assert run(RunConfig(files=[path], unfold_budget=2,
                             strict_proof_irrelevance=flag)).ok
        assert not run(RunConfig(files=[path], unfold_budget=1,
                                 strict_proof_irrelevance=flag)).ok
    # a numeral is read off its form, so the type `S` of `x` is not read
    # and the one unfold goes to checking `x` against `Nat`
    text = "def S : U 0 := Nat\naxiom x : S\naxiom A : U 0\naxiom N : Nat -> A\n" \
        "#conv N x ~ N 0 : A\n"
    report = run(RunConfig(files=[write(tmp_path, "numeral.2lt", text)], unfold_budget=1))
    assert [d.message for _, d in report.diagnostics] == \
        ["terms are not definitionally equal"]


def test_main_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "ok.2lt", GOOD)
    assert main(["check", path]) == 0
    assert main(["check", "--format=lines", path]) == 0
    bad = write(tmp_path, "bad.2lt", BAD)
    assert main(["check", bad]) == 1
    assert main(["check", str(tmp_path / "missing.2lt")]) == 2
    capsys.readouterr()


def test_negative_unfold_budget_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "ok.2lt", GOOD)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--unfold-budget", "-3", path])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--unfold-budget: must be at least 0" in err
    # zero is a budget, and `#normalize succ two` needs to unfold `two`
    assert main(["check", "--unfold-budget", "0", path]) == 1
    capsys.readouterr()


def test_non_utf8_input_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "latin1.2lt"
    path.write_bytes(b"def two : Nat := 2\n-- caf\xe9 \xff\n")
    assert main(["check", "--format=lines", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"tltt: {path}: not valid UTF-8\n"


def test_a_byte_order_mark_is_skipped(tmp_path, capsys):
    bom = "\ufeff".encode("utf-8")
    ok = tmp_path / "bom.2lt"
    ok.write_bytes(bom + GOOD.encode("utf-8"))
    assert main(["check", str(ok)]) == 0
    capsys.readouterr()
    # the diagnostics point where they point without the mark, on line 1 too
    texts = {"types.2lt": "def x : Nat := star\n#check (2 : Nat) : NatS\n",
             "names.2lt": "def y : Nat := zilch\n"}
    for name, text in texts.items():
        reports = []
        for prefix in (b"", bom):
            path = tmp_path / name
            path.write_bytes(prefix + text.encode("utf-8"))
            assert main(["check", "--format=lines", str(path)]) == 1
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert f"{name}\t1\t16\t" in reports[0]
    not_utf8 = tmp_path / "latin1.2lt"
    not_utf8.write_bytes(bom + b"-- caf\xe9\n")
    assert main(["check", str(not_utf8)]) == 2
    capsys.readouterr()


def check_in_subprocess(path: str, address_space: int = 0,
                        stack: int = 0) -> subprocess.CompletedProcess:
    """`tltt check --format=lines path`, its address space capped at
    `address_space` bytes and its main thread's stack at `stack` bytes, where
    those are given."""
    def cap():
        if address_space:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        if stack:
            resource.setrlimit(resource.RLIMIT_STACK, (stack, stack))

    return subprocess.run(
        [sys.executable, "-m", "tltt.cli", "check", "--format=lines", path],
        capture_output=True, text=True, preexec_fn=cap if address_space or stack else None,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"})


def test_cli_subprocess_entry(tmp_path):
    proc = check_in_subprocess(write(tmp_path, "ok.2lt", GOOD))
    assert proc.returncode == 0
    assert "NORMALIZE\t3" in proc.stdout


def test_deep_numeral_is_a_diagnostic_and_checking_goes_on(tmp_path):
    path = write(tmp_path, "deep.2lt",
                 "def n : NatS := 20000s\ndef m : Nat := 1\n#check m : Nat\n")
    proc = check_in_subprocess(path)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    assert [path, "1", "1", "ResourceExhausted"] in [f[:4] for f in lines]
    assert [path, "3", "1", "CHECK", "ok"] in lines


def test_huge_numeral_is_a_diagnostic_before_any_node_is_built(tmp_path):
    # thirty million `Succ` nodes would not fit in 1.5 GB; the unary form
    # needs a frame per `succ`, so nothing above the recursion limit checks
    path = write(tmp_path, "huge.2lt", "def n : Nat := 30000000\n")
    proc = check_in_subprocess(path, address_space=1_500_000_000)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert [f.split("\t")[:4] for f in proc.stdout.splitlines()] == \
        [[path, "1", "16", "ResourceExhausted"]]


def test_huge_universe_level_is_a_diagnostic(tmp_path):
    # a level of as many significant digits as `int` and `str` convert (4300
    # in CPython) is reported at its token, so that `level + 1` can always be
    # printed; a shorter one is checked as before
    cases = (("def t : U 1 := U ", "9" * 5000, "18", "ResourceExhausted"),
             ("def t : U 1 := U ", "9" * 4300, "18", "ResourceExhausted"),
             ("#infer U ", "9" * 4300, "10", "ResourceExhausted"),
             ("#infer U ", "0" * 5000 + "9" * 4300, "10", "ResourceExhausted"),
             ("def t : U 1 := U ", "9" * 50, "16", "UniverseError"))
    for n, (text, level, col, code) in enumerate(cases):
        path = write(tmp_path, f"level{n}.2lt", text + level + "\n")
        proc = check_in_subprocess(path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert [f.split("\t")[:4] for f in proc.stdout.splitlines()] == [[path, "1", col, code]]


def test_universe_level_one_digit_short_of_the_limit_is_printed(tmp_path):
    for n, level in enumerate(("9" * 4299, "0" * 5000 + "9" * 4299)):
        path = write(tmp_path, f"level{n}.2lt", f"#infer U {level}\n")
        proc = check_in_subprocess(path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{path}\t1\t1\tINFER\tU 1{'0' * 4299}\n"


def test_deeply_nested_parentheses_are_a_diagnostic(tmp_path):
    # the parser spends a frame per parenthesis, so this is past the budget
    depth = RECURSION_LIMIT + 10000
    path = write(tmp_path, "parens.2lt",
                 "def t : Unit := " + "(" * depth + "star" + ")" * depth + "\n")
    proc = check_in_subprocess(path)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert [f.split("\t")[3] for f in proc.stdout.splitlines()] == ["ResourceExhausted"]


def test_five_thousand_nested_parentheses_check(tmp_path):
    path = write(tmp_path, "parens.2lt",
                 "def t : Unit := " + "(" * 5000 + "star" + ")" * 5000 + "\n")
    proc = check_in_subprocess(path)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text, codes", [
    ("def a : Nat := " + "succ (" * 12000 + "0" + ")" * 12000, []),
    ("def t : Unit := " + "(" * 25000 + "star" + ")" * 25000, []),
    ("axiom f : Nat -> Nat\ndef a : Nat := " + "f (" * 20000 + "0" + ")" * 20000,
     ["ResourceExhausted"]),
    ("def t : Unit := " + "(" * 50000 + "star" + ")" * 50000, ["ResourceExhausted"]),
    ("def t : " + "Nat -> " * 30000 + "Nat := " + "\\x. " * 30000 + "0", ["ResourceExhausted"]),
    ("def t : " + "Nat -> " * 15000 + "Nat := " + "\\x. " * 15000 + "0", []),
], ids=["succ-12000", "parens-25000", "apps-20000", "parens-50000", "arrows-30000",
        "lambdas-15000"])
def test_deep_input_is_checked_or_reported_not_a_crash(tmp_path, text, codes):
    # checked on the main thread with its stack capped at 4 MiB: half the
    # usual 8 MiB, and twice the most any CPython 3.11 to 3.13 build measured
    # needs for these inputs (3.10, which spent C stack on every Python call,
    # overflowed the usual stack on them and died with a signal)
    path = write(tmp_path, "deep.2lt", text + "\n")
    proc = check_in_subprocess(path, stack=4 * 2**20)
    assert proc.returncode == (1 if codes else 0), proc.stderr
    assert "Traceback" not in proc.stderr
    assert [f.split("\t")[3] for f in proc.stdout.splitlines()] == codes


def test_main_restores_the_recursion_limit(tmp_path, capsys):
    # the check itself runs under the raised limit: 5000 parentheses need it
    path = write(tmp_path, "parens.2lt",
                 "def t : Unit := " + "(" * 5000 + "star" + ")" * 5000 + "\n")
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(3000)
        assert main(["check", path]) == 0
        assert sys.getrecursionlimit() == 3000
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().out == "OK: 1 declarations, 0 pragmas\n"


def test_non_ascii_digit_is_a_syntax_error(tmp_path):
    # '\u00b2' (superscript two) is a digit to str.isdigit but not a numeral
    path = write(tmp_path, "digit.2lt", "def n : Nat := \u00b2\n")
    proc = check_in_subprocess(path)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert [f.split("\t")[:4] for f in proc.stdout.splitlines()] == \
        [[path, "1", "16", "SyntaxError"]]


def test_trace_flag_writes_progress(tmp_path, capsys):
    path = write(tmp_path, "ok.2lt", GOOD)
    assert main(["check", "--trace", path]) == 0
    err = capsys.readouterr().err
    assert "checking two" in err


def test_trace_reports_time_and_unfolds_per_declaration(tmp_path, capsys):
    # only `refl` needs `d` unfolded, once
    path = write(tmp_path, "unfolds.2lt", "def d : Nat := 0\ndef g : d = 0 := refl\n")
    assert main(["check", "--trace", path]) == 0
    err = capsys.readouterr().err
    assert re.search(r"^checked d in \d+\.\d ms, 0 unfolds$", err, re.M)
    assert re.search(r"^checked g in \d+\.\d ms, 1 unfolds$", err, re.M)


def test_trace_reports_time_and_unfolds_per_pragma(tmp_path, capsys):
    # a pragma that succeeds gets a line, with its kind and where it is; a
    # failing one gets none, as a failing declaration gets no `checked` line
    path = write(tmp_path, "pragmas.2lt",
                 "def d : Nat := 0\n#normalize succ d\n#check d : Nat\n#check d : U 0\n")
    assert main(["check", "--trace", path]) == 1
    err = capsys.readouterr().err
    ran = re.findall(r"^ran (#\w+) at (.+) in \d+\.\d ms, (\d+) unfolds$", err, re.M)
    assert ran == [("#normalize", f"{path}:2:1", "1"), ("#check", f"{path}:3:1", "0")]
    assert re.search(r"^checked d in \d+\.\d ms, 0 unfolds$", err, re.M)


def test_diagnostics_print_constants_folded(tmp_path):
    path = write(tmp_path, "folded.2lt",
                 "def Pt : U 1 := (A : U 0) * A\naxiom p : Pt\ndef bad : Nat := p\n")
    (_, diag), = run(RunConfig(files=[path])).diagnostics
    assert (diag.code, diag.expected, diag.actual) == ("ConversionFailure", "Nat", "Pt")
    path = write(tmp_path, "injection.2lt", "def x : Nat := inl 0\n")
    (_, diag), = run(RunConfig(files=[path])).diagnostics
    assert (diag.code, diag.message, diag.span.line, diag.span.col) == (
        "ConversionFailure", "injection checked at a non-sum type", 1, 16)
    assert (diag.expected, diag.actual) == ("Nat", "an injection")


def test_type_error_span_points_into_the_file(tmp_path):
    path = write(tmp_path, "spanned.2lt", "def ok : Nat := 0\ndef no : U 0 := NatS\n")
    report = run(RunConfig(files=[path]))
    (_, diag), = report.diagnostics
    assert diag.span is not None
    assert diag.span.path == path
    assert diag.span.line == 2
