"""What the checker leaves for the cyclic garbage collector: nothing.

A checked library holds no reference cycle: an environment holds only
variables, and a constant's mention holds the value it resolved to, which
points at no signature.  So a dropped report is freed by reference counting
alone.  Each such test pauses the collector, saves whatever it would find
with `gc.DEBUG_SAVEALL`, and counts it.  Failing runs are counted too.

That is why read-back (`nbe.normalize`), printing and parsing pause the
collector while they build: the tests below pin that they start no
collection, and that they leave it on, or off, as the caller had it, however
they return.
"""

import gc
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from tltt import corpus, nbe, syntax as S, typecheck as tc
from tltt.cli import RunConfig, run
from tltt.diagnostics import CheckError
from tltt.parser import parse_module, parse_term
from tltt.printer import pretty_print


def cyclic_garbage(work) -> int:
    """How many objects only the cyclic collector could free after `work()`."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        return gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("strong", [False, True], ids=["default", "strong"])
def test_a_dropped_corpus_report_leaves_no_cycles(strong):
    files = corpus.strong_run_files() if strong else corpus.default_run_files()

    def check_and_drop():
        assert run(RunConfig(files=files, strong_mode=strong)).ok

    assert cyclic_garbage(check_and_drop) == 0


def test_a_dropped_normal_form_leaves_no_cycles():
    library = [str(corpus.CORPUS_DIR / name) for name in ("prelude.2lt", "fin.2lt", "sst.2lt")]
    ctx = run(RunConfig(files=library)).context
    names = list(ctx.sig.entries)

    def normalize_print_and_parse():
        t, _ = tc.infer(ctx, parse_term("SST 5s", known_names=names))
        normal = nbe.normalize(ctx, t)
        assert parse_term(pretty_print(normal), known_names=names) == normal

    assert cyclic_garbage(normalize_print_and_parse) == 0


@pytest.mark.parametrize("texts, codes", [
    (["def two : Nat := (2\n"], ["SyntaxError"]),
    (["def two : Nat := 2\n#fail[ConversionFailure] #conv two ~ 3 : Nat\n",
      "def lost : Nat := missing\n"], ["UnboundVariable"]),
    (["#normalize \\x. x\n"], ["InferenceFailure"]),
    (["def t : Unit := " + "(" * 30000 + "star" + ")" * 30000 + "\n"], ["ResourceExhausted"]),
], ids=["syntax-error", "fail-and-unbound", "normalize-uninferable", "parens-30000"])
def test_a_dropped_failing_report_leaves_no_cycles(tmp_path, texts, codes):
    files = []
    for n, text in enumerate(texts):
        files.append(tmp_path / f"failing{n}.2lt")
        files[-1].write_text(text)

    def check_and_drop():
        report = run(RunConfig(files=[str(f) for f in files]))
        assert [d.code for _, d in report.diagnostics] == codes

    assert cyclic_garbage(check_and_drop) == 0


# -- the pause -----------------------------------------------------------------

@contextmanager
def recursion_limit(limit: int):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def nested_lambdas(depth: int) -> S.Term:
    t = S.Var(0)
    for _ in range(depth):
        t = S.Lam(t, "x")
    return t


def too_deep(call):
    """`call` under a recursion limit that `nested_lambdas(3000)` and 3000
    nested parentheses exceed."""
    def deep():
        with recursion_limit(1000), pytest.raises(RecursionError):
            call()
    return deep


def raises_syntax_error(call):
    def failing():
        with pytest.raises(CheckError, match="SyntaxError"):
            call()
    return failing


CTX = tc.new_context()
PARENS = "(" * 3000 + "star" + ")" * 3000

ENTRY_POINT_RUNS = {
    "normalize": lambda: nbe.normalize(CTX, parse_term("(\\x. x) 0")),
    "pretty_print": lambda: pretty_print(parse_term("\\x. x")),
    "parse_term": lambda: parse_term("\\x. x"),
    "parse_module": lambda: parse_module("def two : Nat := 2\n", "<module>"),
    "parse_term-CheckError": raises_syntax_error(lambda: parse_term("(\\x. ")),
    "parse_module-CheckError": raises_syntax_error(
        lambda: parse_module("def two : Nat := (2\n", "<module>")),
    "parse_term-RecursionError": too_deep(lambda: parse_term(PARENS)),
    "parse_module-RecursionError": too_deep(
        lambda: parse_module(f"def t : Unit := {PARENS}\n", "<module>")),
    "pretty_print-RecursionError": too_deep(lambda: pretty_print(nested_lambdas(3000))),
    "normalize-RecursionError": too_deep(lambda: nbe.normalize(CTX, nested_lambdas(3000))),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("call", ENTRY_POINT_RUNS.values(), ids=ENTRY_POINT_RUNS.keys())
def test_an_entry_point_leaves_the_collector_as_it_found_it(call, enabled):
    was = gc.isenabled()
    if not enabled:
        gc.disable()
    try:
        call()
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()


def balanced_pairs(depth: int) -> str:
    return "star" if depth == 0 else f"({balanced_pairs(depth - 1)}, {balanced_pairs(depth - 1)})"


@pytest.mark.parametrize("build", [
    lambda text: parse_term(text),
    lambda text: parse_module(f"#normalize {text}\n", "<module>"),
    lambda text: nbe.normalize(CTX, parse_term(text)),
], ids=["parse_term", "parse_module", "normalize"])
def test_a_large_build_starts_no_collection(build):
    text = balanced_pairs(12)  # 8191 pair and star nodes
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(record)
    try:
        built = build(text)
    finally:
        gc.callbacks.remove(record)
    assert built is not None
    assert started == []


def test_checking_the_corpus_through_main_leaves_the_collector_on():
    # importing tltt touches no collector setting, and a whole run restores it
    script = ("import gc, sys\n"
              "import tltt.cli\n"
              "assert gc.isenabled()\n"
              f"code = tltt.cli.main(['check', *{corpus.default_run_files()!r}])\n"
              "print(code, gc.isenabled(), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                               "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "0 True\n"
