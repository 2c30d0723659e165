"""Per-declaration unfold counts of the corpus runs, pinned.

`tests/golden/corpus_{default,strong}.unfolds` hold one line per checked
declaration, `NAME<TAB>N`: the unfolds `tltt check --trace` reports for it,
with the times dropped.  Unlike a time, a count does not jitter, so a change
that spends more or fewer unfolds anywhere in the corpus shows here exactly.
Regenerate the files with

    PYTHONPATH=src python tests/test_unfold_golden.py

only when a change to the counts is intended.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from tltt import corpus
from tltt.cli import RunConfig, run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MODES = {"default": (corpus.default_run_files, False),
         "strong": (corpus.strong_run_files, True)}
_CHECKED = re.compile(r"^checked (\S+) in [\d.]+ ms, (\d+) unfolds$", re.M)


def unfold_counts(mode: str) -> str:
    """The `NAME<TAB>N` lines of one corpus run's trace."""
    files, strong = MODES[mode]
    trace = io.StringIO()
    with contextlib.redirect_stderr(trace):
        report = run(RunConfig(files=files(), strong_mode=strong, trace=True))
    assert report.ok, [str(d) for _, d in report.diagnostics]
    return "".join(f"{name}\t{n}\n" for name, n in _CHECKED.findall(trace.getvalue()))


@pytest.mark.parametrize("mode", MODES)
def test_unfold_counts_match_golden(mode):
    assert unfold_counts(mode) == (GOLDEN_DIR / f"corpus_{mode}.unfolds").read_text()


if __name__ == "__main__":
    for mode in MODES:
        (GOLDEN_DIR / f"corpus_{mode}.unfolds").write_text(unfold_counts(mode))
