"""The acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import pytest

from tltt import corpus, nbe, syntax as S, typecheck as tc
from tltt.cli import RunConfig, run
from tltt.parser import parse_module, parse_term

import props
from term_helpers import mentions_inner_id

ACCEPTANCE_FILES = ["prelude.2lt", "fin.2lt", "sst.2lt", "cat.2lt",
                    "fib.2lt", "negative.2lt"]


def _paths(names):
    return [str(corpus.CORPUS_DIR / n) for n in names]


def _report(files, **kw):
    return run(RunConfig(files=files, **kw))


@pytest.fixture(scope="module")
def timed_default_run():
    started = time.perf_counter()
    report = _report(_paths(ACCEPTANCE_FILES))
    return report, time.perf_counter() - started


def test_criterion_1_corpus_green_run(timed_default_run):
    report, elapsed = timed_default_run
    assert report.exit_code == 0, [str(d) for _, d in report.diagnostics]
    assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"
    t0 = time.perf_counter()
    _report(_paths(["prelude.2lt", "fin.2lt"]))
    prefix = time.perf_counter() - t0
    t0 = time.perf_counter()
    _report(_paths(["prelude.2lt", "fin.2lt", "sst.2lt"]))
    sst_alone = (time.perf_counter() - t0) - prefix
    assert sst_alone < 10.0, f"sst.2lt alone took {sst_alone:.1f}s"
    print(f"\nACCEPT 1 PASS: corpus green in {elapsed:.2f}s, "
          f"sst.2lt alone {sst_alone:.2f}s")


def test_criterion_2_sst_normal_form_oracles(timed_default_run):
    report, _ = timed_default_run
    outputs = [r.text for r in report.pragma_results
               if r.kind == "NORMALIZE" and r.path.endswith("sst.2lt")]
    assert len(outputs) == 3
    assert outputs[0] == "Unit"
    assert outputs[1] == "Unit * (Unit -> U 0)"
    for n, text in enumerate(outputs):
        frozen = corpus.oracle_path(f"sst_{n}.txt").read_bytes()
        assert (text + "\n").encode() == frozen, f"SST {n}s deviates from oracle"
    print("\nACCEPT 2 PASS: SST 0s/1s/2s byte-identical to committed oracles")


PINNED = [
    "NonFibrantEqualityFormation",
    "NonFibrantMotive",
    "NonFibrantMotive",
    "FibrancyViolation",
    "FibrancyViolation",
    "NonFibrantMotive",
]


def test_criterion_3_negative_suite(timed_default_run):
    report, _ = timed_default_run
    fails = [r.text for r in report.pragma_results
             if r.kind == "FAIL" and r.path.endswith("negative.2lt")]
    assert len(fails) >= 6
    assert fails[:6] == [f"ok [{code}]" for code in PINNED]
    # every rejection is pinned to a code in the source as well
    text = (corpus.CORPUS_DIR / "negative.2lt").read_text()
    assert text.count("#fail[") >= 6
    print(f"\nACCEPT 3 PASS: {len(fails)} pinned rejections, "
          "first six match the required codes")


def test_criterion_4_strong_mode_gate():
    strong_file = str(corpus.CORPUS_DIR / "sst_strong.2lt")
    base = _paths(["prelude.2lt", "fin.2lt", "sst.2lt"])
    assert _report(base + [strong_file]).exit_code == 1
    assert _report(base + [strong_file], strong_mode=True).exit_code == 0
    mode_agnostic = [str(e.path) for e in corpus.corpus_manifest()
                     if e.mode == "any"]
    assert _report(mode_agnostic, strong_mode=True).exit_code == 0
    print("\nACCEPT 4 PASS: sst_strong rejected in default mode, accepted "
          "with --strong; default corpus unchanged under --strong")


def test_criterion_5_coercion_theorem():
    prelude = (corpus.CORPUS_DIR / "prelude.2lt").read_text()
    ctx = tc.new_context()
    module = parse_module(prelude, "prelude.2lt")
    for decl in module.decls:
        if isinstance(decl, S.Pragma):
            continue
        tc.check_declaration(ctx, decl)
    entry = ctx.sig.lookup("coerce")
    assert entry is not None and entry.head.body is not None
    expected = parse_term("(A : U 0) -> (a : A) -> (b : A) -> a =s b -> a = b")
    ty2, _ = tc.infer_universe(ctx, expected)
    assert nbe.conv(0, entry.head.ty, nbe.eval_in(ctx, ty2), None)
    print("\nACCEPT 5 PASS: coerce : (a =s b) -> (a = b) checks in the prelude")


def test_criterion_6_property_suites():
    lines = []
    for name, suite in props.ALL_SUITES:
        started = time.perf_counter()
        ran = suite(1000)
        assert ran == 1000
        lines.append(f"{name}: 1000 cases in {time.perf_counter() - started:.1f}s")
    print("\nACCEPT 6 PASS: " + "; ".join(lines))


def test_criterion_7_alpha_without_inner_equality(timed_default_run):
    report, _ = timed_default_run
    ctx = report.context
    sst_decls = [d for d in report.checked
                 if d.span and d.span.path.endswith("sst.2lt")]
    assert any(d.name == "alpha" for d in sst_decls)
    for decl in sst_decls:
        dumps = [nbe.normalize(ctx, decl.ty)]
        if decl.body is not None:
            dumps.append(nbe.normalize(ctx, decl.body))
        for nf in dumps:
            assert not mentions_inner_id(nf), \
                f"{decl.name} mentions the inner equality"
    print(f"\nACCEPT 7 PASS: {len(sst_decls)} sst.2lt normal-form dumps free "
          "of the inner equality")
