"""The shipped corpus: manifest runs, frozen oracles, the strict-layer claim."""

from pathlib import Path

import pytest

from tltt import corpus, nbe, syntax as S, typecheck as tc
from tltt.cli import RunConfig, emit_report, run
from tltt.corpus.__main__ import main as corpus_main
from tltt.parser import parse_module, parse_term
from tltt.printer import pretty_print

from reference_norm import normalize_ref
from term_helpers import mentions_inner_id, term_children


@pytest.fixture(scope="module")
def default_report():
    report = run(RunConfig(files=corpus.default_run_files()))
    assert report.ok, [str(d) for _, d in report.diagnostics]
    return report


@pytest.fixture(scope="module")
def strong_report():
    report = run(RunConfig(files=corpus.strong_run_files(), strong_mode=True))
    assert report.ok, [str(d) for _, d in report.diagnostics]
    return report


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def strong_spi_report():
    return run(RunConfig(files=corpus.strong_run_files(), strong_mode=True,
                         strict_proof_irrelevance=True))


@pytest.fixture(scope="module")
def default_spi_report():
    return run(RunConfig(files=corpus.default_run_files(), strict_proof_irrelevance=True))


@pytest.mark.parametrize("name", ["default", "strong", "strong_spi", "default_spi"])
def test_lines_report_matches_golden(name, request):
    """The `--format=lines` report of each corpus run, with paths relative to
    the corpus directory, is byte-identical to the committed one.  The
    default corpus never leans on strict proof irrelevance, so with the flag
    its report is the default one."""
    report = request.getfixturevalue(f"{name}_report")
    text, code = emit_report(report, "lines")
    assert code == 0
    text = text.replace(f"{corpus.CORPUS_DIR}/", "")
    golden = "default" if name == "default_spi" else name
    assert text == (GOLDEN_DIR / f"corpus_{golden}.lines").read_text()


def test_manifest_shape():
    entries = corpus.corpus_manifest()
    names = [e.path.name for e in entries]
    assert names.index("prelude.2lt") < names.index("fin.2lt") < names.index("sst.2lt")
    modes = {e.path.name: e.mode for e in entries}
    assert modes["sst_strong.2lt"] == "strong-only"
    assert modes["negative.2lt"] == "default-only"


def test_bare_listing_prints_each_path_and_mode(capsys):
    assert corpus_main([]) == 0
    assert capsys.readouterr().out.splitlines() == \
        [f"{e.path}\t{e.mode}" for e in corpus.corpus_manifest()]


def test_paths_flag_prints_one_path_per_line(capsys):
    assert corpus_main(["--paths"]) == 0
    paths = [str(e.path) for e in corpus.corpus_manifest()]
    assert capsys.readouterr().out.splitlines() == paths
    assert corpus_main(["--paths", "--mode", "strong"]) == 0
    assert capsys.readouterr().out.splitlines() == corpus.strong_run_files()


def test_default_run_is_green(default_report):
    assert default_report.exit_code == 0


def test_strong_run_is_green(strong_report):
    assert strong_report.exit_code == 0


def test_negative_suite_is_all_fail_pragmas():
    negative = corpus.CORPUS_DIR / "negative.2lt"
    content = [line for line in negative.read_text().splitlines()
               if line.strip() and not line.strip().startswith("--")]
    assert content[0].startswith("#fail")


def _sst_normalize_outputs(report):
    return [r.text for r in report.pragma_results
            if r.kind == "NORMALIZE" and r.path.endswith("sst.2lt")]


def test_sst_normal_forms_match_frozen_oracles(default_report):
    outputs = _sst_normalize_outputs(default_report)
    assert len(outputs) == 3
    for n, text in enumerate(outputs):
        expected = corpus.oracle_path(f"sst_{n}.txt").read_bytes()
        assert (text + "\n").encode() == expected


def test_oracles_agree_with_reference_normalizer(default_report):
    defs = {d.name: d.body for d in default_report.checked if d.body is not None}
    names = [d.name for d in default_report.checked]
    for n in (0, 1, 2):
        t = parse_term(f"SST {n}s", known_names=names)
        text = pretty_print(normalize_ref(t, defs))
        assert (text + "\n").encode() == corpus.oracle_path(f"sst_{n}.txt").read_bytes()


def test_base_oracles_by_hand():
    # stage zero is the unit type; stage one pairs a point with a family
    # over the trivial one-simplex boundary
    assert corpus.oracle_path("sst_0.txt").read_text() == "Unit\n"
    assert corpus.oracle_path("sst_1.txt").read_text() == "Unit * (Unit -> U 0)\n"


def test_alpha_never_uses_the_inner_equality(default_report):
    """The strict layer absorbs every coherence: no normal form in sst.2lt
    mentions the fibrant identity type or its constructors."""
    ctx = default_report.context
    sst_decls = [d for d in default_report.checked
                 if d.span and d.span.path.endswith("sst.2lt")]
    assert sst_decls, "sst.2lt declarations missing from the report"
    assert any(d.name == "alpha" for d in sst_decls)
    for decl in sst_decls:
        assert not mentions_inner_id(nbe.normalize(ctx, decl.ty)), decl.name
        if decl.body is not None:
            assert not mentions_inner_id(nbe.normalize(ctx, decl.body)), decl.name


def test_coercion_theorem_checks(default_report):
    names = {d.name for d in default_report.checked}
    assert "coerce" in names
    ctx = default_report.context
    t = parse_term("coerce Nat 0 0 refls", known_names=ctx.sig.entries.keys())
    _, ty = tc.infer(ctx, t)
    assert pretty_print(nbe.quote(0, ty)) == "0 = 0"


def test_sst_strong_fails_in_default_mode():
    files = corpus.default_run_files() + [str(corpus.CORPUS_DIR / "sst_strong.2lt")]
    report = run(RunConfig(files=files))
    assert not report.ok


def test_every_default_file_also_passes_strong(strong_report):
    # the strong manifest contains every mode-agnostic file
    strong_names = {e.path.name for e in corpus.corpus_manifest() if e.in_strong_run}
    default_names = {e.path.name for e in corpus.corpus_manifest()
                     if e.mode == "any"}
    assert default_names <= strong_names


def _classes(t: S.Term) -> set:
    found, stack = set(), [t]
    while stack:
        u = stack.pop()
        found.add(type(u))
        stack.extend(child for _, child, _ in term_children(u))
    return found


def test_elaboration_erases_every_ascription(default_report, strong_report):
    # the library writes ascriptions, and no checked declaration keeps one
    prelude = (corpus.CORPUS_DIR / "prelude.2lt").read_text(encoding="utf-8")
    assert any(S.Ann in _classes(d.body) for d in parse_module(prelude, "prelude.2lt").decls
               if isinstance(d, S.Declaration) and d.body is not None)
    for decl in default_report.checked + strong_report.checked:
        for t in (decl.ty, decl.body):
            assert t is None or S.Ann not in _classes(t), decl.name


def test_axiom_heads_stay_neutral_in_corpus(default_report):
    ctx = default_report.context
    names = ctx.sig.entries.keys()
    t = parse_term("ua Nat Nat", known_names=names)
    t2, _ = tc.infer(ctx, t)
    nf = nbe.normalize(ctx, t2)
    assert nf == S.App(S.App(S.Const("ua"), S.Nat()), S.Nat())


def test_fin_computes(default_report):
    ctx = default_report.context
    names = ctx.sig.entries.keys()
    t, _ = tc.infer(ctx, parse_term("Fin 3s", known_names=names))
    assert pretty_print(nbe.normalize(ctx, t)) == "Unit + Unit + Unit + Empty"
    # lt is decidable on closed indices: 0 < 1 in Fin 2
    t, _ = tc.infer(ctx, parse_term("lt 2s (inl star) (inr (inl star))",
                                    known_names=names))
    assert pretty_print(nbe.normalize(ctx, t)) == "Unit"


def test_delta_category_laws_are_definitional(default_report):
    ctx = default_report.context
    names = ctx.sig.entries.keys()
    lhs = parse_term("\\f. dcomp 1s 1s 2s (did 1s) f", known_names=names)
    rhs = parse_term("\\f. f", known_names=names)
    ty, _ = tc.infer_universe(ctx, parse_term("Delta 1s 2s -> Delta 1s 2s",
                                              known_names=names))
    ty_v = nbe.eval_in(ctx, ty)
    a = tc.check(ctx, lhs, ty_v)
    b = tc.check(ctx, rhs, ty_v)
    assert nbe.conv_in(ctx, nbe.eval_in(ctx, a), nbe.eval_in(ctx, b), ty_v)


def test_sst_stage_one_structural_form(default_report):
    # the successor clause unfolded once: a point paired with a family over
    # the trivial boundary
    ctx = default_report.context
    t, _ = tc.infer(ctx, parse_term("SST 1s", known_names=ctx.sig.entries.keys()))
    assert nbe.normalize(ctx, t) == S.Sigma(
        S.Unit(), S.Pi(S.Unit(), S.Univ(0)))


def test_oracle_normal_forms_reparse_and_renormalize(default_report):
    # normal forms are stable through the surface syntax: the committed
    # oracle text reparses, re-elaborates, and renormalizes to itself
    ctx = default_report.context
    names = list(ctx.sig.entries.keys())
    for n in (0, 1, 2):
        text = corpus.oracle_path(f"sst_{n}.txt").read_text().strip()
        t = parse_term(text, known_names=names)
        t2, _ = tc.infer(ctx, t)
        assert pretty_print(nbe.normalize(ctx, t2)) == text
