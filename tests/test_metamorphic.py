"""Metamorphic relations: two runs whose verdicts must agree, so no oracle is
needed.

Splitting: checking a corpus file in its run, or in its place a prefix and
the rest passed as two files, gives the same verdicts.  The file is cut at
the start of its middle item, an item being a line that begins at column 1
with `def`, `axiom` or `#`.  The pragma results' kinds and texts, the
diagnostic codes and the names of the checked declarations must be those of
the whole run; the records' paths and lines are allowed to differ.
"""

import re
from pathlib import Path

import pytest

from tltt import corpus
from tltt.cli import RunConfig, run

MODES = {"default": (corpus.default_run_files, False),
         "strong": (corpus.strong_run_files, True)}
_ITEM = re.compile(r"^(?:def\b|axiom\b|#)", re.M)


def verdicts(files: list[str], strong: bool):
    report = run(RunConfig(files=files, strong_mode=strong))
    return ([(r.kind, r.text) for r in report.pragma_results],
            [d.code for _, d in report.diagnostics],
            [d.name for d in report.checked])


@pytest.fixture(scope="module")
def whole_runs():
    return {mode: verdicts(files(), strong) for mode, (files, strong) in MODES.items()}


@pytest.mark.parametrize("mode, name", [(mode, Path(path).name)
                                        for mode, (files, _) in MODES.items()
                                        for path in files()])
def test_splitting_a_file_in_two_keeps_every_verdict(mode, name, whole_runs, tmp_path):
    files, strong = MODES[mode]
    paths = files()
    at = [Path(p).name for p in paths].index(name)
    text = Path(paths[at]).read_text(encoding="utf-8")
    starts = [m.start() for m in _ITEM.finditer(text)]
    assert len(starts) >= 2, "a split must leave an item on each side"
    cut = starts[len(starts) // 2]
    halves = []
    for part, piece in (("1", text[:cut]), ("2", text[cut:])):
        half = tmp_path / f"{Path(name).stem}.{part}.2lt"
        half.write_text(piece, encoding="utf-8")
        halves.append(str(half))
    assert verdicts(paths[:at] + halves + paths[at + 1:], strong) == whole_runs[mode]
