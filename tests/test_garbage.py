"""What the checker leaves for the cyclic garbage collector: nothing.

A checked library holds no reference cycle: an environment holds only
variables, and a constant's mention holds the value it resolved to, which
points at no signature.  So a dropped report is freed by reference counting
alone.  Each test pauses the collector, saves whatever it would find with
`gc.DEBUG_SAVEALL`, and counts it.
"""

import gc

import pytest

from tltt import corpus, nbe, typecheck as tc
from tltt.cli import RunConfig, run
from tltt.parser import parse_term
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
