"""Per-declaration and per-pragma unfold counts of the corpus runs, pinned.

`tests/golden/corpus_{default,strong}.unfolds` hold one line per checked
declaration, `NAME<TAB>N`: the unfolds `tltt check --trace` reports for it,
with the times dropped.  `tests/golden/corpus_{default,strong}.pragmas` hold
one line per pragma that ran, `FILE:LINE:COL<TAB>KIND<TAB>N`, the file by its
name alone.  Unlike a time, a count does not jitter, so a change that spends
more or fewer unfolds anywhere in the corpus shows here exactly.
Regenerate the files with

    PYTHONPATH=src python tests/test_unfold_golden.py

only when a change to the counts is intended.
"""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from tltt import corpus
from tltt.cli import RunConfig, run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MODES = {"default": (corpus.default_run_files, False),
         "strong": (corpus.strong_run_files, True)}
_CHECKED = re.compile(r"^checked (\S+) in [\d.]+ ms, (\d+) unfolds$", re.M)
_RAN = re.compile(r"^ran #(\w+) at (.+):(\d+):(\d+) in [\d.]+ ms, (\d+) unfolds$", re.M)


def trace_of(mode: str) -> str:
    """What one corpus run writes with `--trace`."""
    files, strong = MODES[mode]
    trace = io.StringIO()
    with contextlib.redirect_stderr(trace):
        report = run(RunConfig(files=files(), strong_mode=strong, trace=True))
    assert report.ok, [str(d) for _, d in report.diagnostics]
    return trace.getvalue()


def unfold_counts(trace: str) -> str:
    """The `NAME<TAB>N` lines of one corpus run's trace."""
    return "".join(f"{name}\t{n}\n" for name, n in _CHECKED.findall(trace))


def pragma_unfold_counts(trace: str) -> str:
    """The `FILE:LINE:COL<TAB>KIND<TAB>N` lines of one corpus run's trace."""
    return "".join(f"{os.path.basename(path)}:{line}:{col}\t{kind}\t{n}\n"
                   for kind, path, line, col, n in _RAN.findall(trace))


@pytest.fixture(scope="module", params=list(MODES))
def traced(request):
    return request.param, trace_of(request.param)


def test_unfold_counts_match_golden(traced):
    mode, trace = traced
    assert unfold_counts(trace) == (GOLDEN_DIR / f"corpus_{mode}.unfolds").read_text()


def test_pragma_unfold_counts_match_golden(traced):
    mode, trace = traced
    assert pragma_unfold_counts(trace) == (GOLDEN_DIR / f"corpus_{mode}.pragmas").read_text()


if __name__ == "__main__":
    for mode in MODES:
        trace = trace_of(mode)
        (GOLDEN_DIR / f"corpus_{mode}.unfolds").write_text(unfold_counts(trace))
        (GOLDEN_DIR / f"corpus_{mode}.pragmas").write_text(pragma_unfold_counts(trace))
