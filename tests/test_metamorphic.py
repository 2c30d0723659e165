"""Metamorphic relations: two runs whose verdicts must agree, so no oracle is
needed.

Mode monotonicity: whatever a run accepts, the same files under `--strong`
accept, and so do the same files under `--strict-proof-irrelevance`.  The
one allowed difference is a `#fail` that now reports `ExpectedFailure`
because the item it wraps is accepted.  The inputs are the corpus runs and
one file of seeded `gen_well_typed` declarations.

Splitting: checking a corpus file in its run, or in its place a prefix and
the rest passed as two files, gives the same verdicts.  The file is cut at
the start of its middle item, an item being a line that begins at column 1
with `def`, `axiom` or `#`.  The pragma results' kinds and texts, the
diagnostic codes and the names of the checked declarations must be those of
the whole run; the records' paths and lines are allowed to differ.
"""

import random
import re
from pathlib import Path

import pytest

from tltt import corpus
from tltt.cli import EXPECTED_FAILURE, RunConfig, run
from tltt.printer import pretty_print

from gen import gen_well_typed

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


# -- mode monotonicity -------------------------------------------------------------

FLAGS = {"default": {}, "strong": {"strong_mode": True},
         "spi": {"strict_proof_irrelevance": True},
         "strong+spi": {"strong_mode": True, "strict_proof_irrelevance": True}}
_SUCCEEDED = "item was expected to fail but succeeded"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The files of each input: the two corpus runs, and 200 seeded
    well-typed declarations, printed.  Some of those are rejected in every
    mode, because the printer drops an equality's carrier (ROADMAP item 12);
    they stay in."""
    rng = random.Random(17)
    lines = []
    for i in range(200):
        term, ty = gen_well_typed(rng)
        lines.append(f"def g_{i} : {pretty_print(ty)} := {pretty_print(term)}\n")
    generated = tmp_path_factory.mktemp("generated") / "generated.2lt"
    generated.write_text("".join(lines), encoding="utf-8")
    return {"default": corpus.default_run_files(), "strong": corpus.strong_run_files(),
            "generated": [str(generated)]}


def rejected(files: list[str], mode: str) -> dict:
    """(file name, first line of its item) -> the diagnostic of each item
    the run in `mode` rejects."""
    report = run(RunConfig(files=files, **FLAGS[mode]))
    out = {}
    for path, d in report.diagnostics:
        text = Path(path).read_text(encoding="utf-8")
        starts = [1 + text.count("\n", 0, m.start()) for m in _ITEM.finditer(text)]
        line = d.span.line if d.span else 0
        out[Path(path).name, max((s for s in starts if s <= line), default=0)] = d
    return out


@pytest.mark.parametrize("files, weaker, stronger, flipped", [
    ("default", "default", "strong", [("negative.2lt", line) for line in (5, 13, 17, 20)]),
    ("default", "default", "spi", []),
    ("strong", "strong", "strong+spi", []),
    ("generated", "default", "strong", []),
    ("generated", "default", "spi", []),
    ("generated", "strong", "strong+spi", []),
])
def test_a_stronger_mode_rejects_no_accepted_item(files, weaker, stronger, flipped, inputs):
    before = rejected(inputs[files], weaker)
    after = rejected(inputs[files], stronger)
    newly = {item: d for item, d in after.items() if item not in before}
    for item, d in newly.items():
        # only a `#fail` whose wrapped item the stronger mode accepts
        assert (d.code, d.message) == (EXPECTED_FAILURE, _SUCCEEDED), (item, d)
    assert sorted(newly) == flipped
