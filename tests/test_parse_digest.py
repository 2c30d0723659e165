"""Parse trees pinned by digest: every node, with its span, hint and annotation.

`tests/golden/parse_digest.txt` holds one sha256 per input: each corpus
file, parsed in manifest order with the names of the files before it known,
and the reference normal forms of `SST 0s` to `SST 4s`, with every corpus
name known.  A digest covers a pre-order listing of every node's class and
all its fields, including the ones that equality ignores.  Regenerate the
file with

    PYTHONPATH=src python tests/test_parse_digest.py > tests/golden/parse_digest.txt

only when a change to the parse trees is intended.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from tltt import corpus, syntax as S
from tltt.diagnostics import Diagnostic
from tltt.parser import parse_module, parse_term

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "parse_digest.txt"
NORMAL_FORMS = ROOT / "perfbench" / "oracles" / "reference_normal_forms.json"

_NODES = (S.Term, S.Definition, S.Axiom, S.Pragma, S.Module, Diagnostic)


def listing(root) -> str:
    """One line per node, field or tuple, in pre-order."""
    lines = []
    stack = [("", root)]
    while stack:
        label, x = stack.pop()
        if isinstance(x, _NODES):
            lines.append(f"{label}{type(x).__name__}")
            stack.extend((f"{f.name}=", getattr(x, f.name))
                         for f in reversed(dataclasses.fields(x)))
        elif type(x) is tuple:
            lines.append(f"{label}tuple[{len(x)}]")
            stack.extend(("", item) for item in reversed(x))
        else:
            lines.append(f"{label}{x!r}")
    return "\n".join(lines)


def parse_trees():
    """(input name, parse tree) for every pinned input."""
    known: list[str] = []
    for entry in corpus.corpus_manifest():
        name = entry.path.name
        module = parse_module(entry.path.read_text(encoding="utf-8"), name, known)
        known += [d.name for d in module.decls if isinstance(d, (S.Definition, S.Axiom))]
        yield name, module
    forms = json.loads(NORMAL_FORMS.read_text())["normal_forms"]
    for n in range(5):
        yield f"SST {n}s", parse_term(forms[f"SST {n}s"], known_names=known)


def digests() -> list[str]:
    return [f"{name}\t{hashlib.sha256(listing(tree).encode()).hexdigest()}"
            for name, tree in parse_trees()]


def test_parse_trees_match_the_pinned_digests():
    assert digests() == GOLDEN.read_text().splitlines()


def test_listing_shows_the_fields_equality_ignores():
    t = parse_term("(x : Nat) -> Nat")
    assert t == parse_term("Nat -> Nat")
    assert listing(t) != listing(parse_term("Nat -> Nat"))
    assert "hint='x'" in listing(t)


if __name__ == "__main__":
    print("\n".join(digests()))
