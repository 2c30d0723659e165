#!/usr/bin/env python3
"""Freeze the reference normal forms the normalize workload is checked against.

The normal forms come from the substitution normalizer in
tests/reference_norm.py, which shares no evaluator, environment or read-back
code with the NbE kernel.  SST 4s takes it about a minute.  Run from the root of
the repository:

    python3 perfbench/freeze_oracles.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMAND = "python3 perfbench/freeze_oracles.py"


def main() -> int:
    for entry in (ROOT / "tests", ROOT / "src", HERE):
        sys.path.insert(0, str(entry))
    from reference_norm import normalize_ref
    from tltt import corpus
    from tltt.cli import RunConfig, run
    from tltt.parser import parse_term
    from tltt.printer import pretty_print
    from workloads import LIBRARY, ORACLES, reference_terms

    report = run(RunConfig(files=[str(corpus.CORPUS_DIR / name) for name in LIBRARY]))
    if not report.ok:
        print("the library does not check", file=sys.stderr)
        return 1
    defs = {d.name: d.body for d in report.checked if d.body is not None}
    names = [d.name for d in report.checked]
    normal_forms = {}
    for term in reference_terms():
        started = time.perf_counter()
        normal_forms[term] = pretty_print(normalize_ref(parse_term(term, known_names=names), defs))
        print(f"{term}: {len(normal_forms[term])} chars in "
              f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    frozen = {"command": COMMAND,
              "reference": "tests/reference_norm.py (substitution-based normalizer)",
              "normal_forms": normal_forms}
    ORACLES.write_text(json.dumps(frozen, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
