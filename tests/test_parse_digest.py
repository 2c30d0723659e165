"""Parse trees pinned by digest: every node, with its span and hint.

`tests/golden/parse_digest.txt` holds one sha256 per input: each corpus
file, parsed in manifest order with the names of the files before it known,
the reference normal forms of `SST 0s` to `SST 4s`, with every corpus
name known, and `TELESCOPES`.  A digest covers a pre-order listing of every node's class and
all its fields, including the ones that equality ignores.  Regenerate the
file with

    PYTHONPATH=src python tests/test_parse_digest.py > tests/golden/parse_digest.txt

only when a change to the parse trees is intended.
"""

import hashlib
import json
from pathlib import Path

from tltt import corpus, syntax as S
from tltt.diagnostics import Diagnostic
from tltt.parser import parse_module, parse_term

from term_helpers import merge_strict_formers

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "parse_digest.txt"
NORMAL_FORMS = ROOT / "perfbench" / "oracles" / "reference_normal_forms.json"

_NODES = (S.Term, S.Declaration, S.Pragma, S.Module, Diagnostic)

# Telescopes of several names, whose later domains the parser displaces:
# open ones, nested ones and products.
TELESCOPES = """\
axiom open : (P : U 0 -> U 0) -> (x : U 0) -> (x y : P x) -> (z w : P y) -> x = w
axiom nested : (A : U 0) -> (B C : A -> A -> U 0) ->
  (a b : (c d : A) -> B c d) -> a = b -> (f g : (c d : A) -> (e : B c d) * C d c) -> f = g
def pairs : (A : U 0) -> (B : A -> A -> U 0) -> U 0 :=
  \\A. \\B. (x y z : A) * (p q : B x y) * (r : B y z) * (x =s y -> p = q)
"""


def listing(root) -> str:
    """One line per node, field or tuple, in pre-order."""
    lines = []
    stack = [("", root)]
    while stack:
        label, x = stack.pop()
        if label == "span=" and type(x) is tuple:
            x = S.Span._make(x)  # a term's span, listed as the Span it stands for
        if isinstance(x, _NODES):
            lines.append(f"{label}{type(x).__name__}")
            stack.extend((f"{name}=", getattr(x, name)) for name in reversed(x._fields))
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
        known += [d.name for d in module.decls if isinstance(d, S.Declaration)]
        yield name, module
    forms = json.loads(NORMAL_FORMS.read_text())["normal_forms"]
    for n in range(5):
        yield f"SST {n}s", parse_term(forms[f"SST {n}s"], known_names=known)
    yield "telescopes", parse_module(TELESCOPES, "telescopes.2lt")


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


def _merged(decl):
    """`decl` with the reference strong-mode merge applied to its terms and
    to the item a `#fail` wraps."""
    if isinstance(decl, S.Declaration):
        body = None if decl.body is None else merge_strict_formers(decl.body)
        return decl._replace(ty=merge_strict_formers(decl.ty), body=body)
    if decl.kind == S.FAIL:
        item = decl.payload[0]
        return decl._replace(payload=(item if isinstance(item, Diagnostic) else _merged(item),))
    return decl._replace(payload=tuple(map(merge_strict_formers, decl.payload)))


def test_strong_parse_is_the_merged_default_parse():
    # the same inputs as the digests; every field is compared, spans included
    known: list[str] = []
    changed = []
    for entry in corpus.corpus_manifest():
        name, text = entry.path.name, entry.path.read_text(encoding="utf-8")
        default = parse_module(text, name, known)
        merged = default._replace(decls=tuple(map(_merged, default.decls)))
        strong = listing(parse_module(text, name, known, strong=True))
        assert strong == listing(merged), name
        if strong != listing(default):
            changed.append(name)
        known += [d.name for d in default.decls if isinstance(d, S.Declaration)]
    forms = json.loads(NORMAL_FORMS.read_text())["normal_forms"]
    for n in range(5):
        text = forms[f"SST {n}s"]
        default = parse_term(text, known_names=known)
        strong = listing(parse_term(text, known_names=known, strong=True))
        assert strong == listing(merge_strict_formers(default)), f"SST {n}s"
    # the files that spell a merged former; the normal forms spell none
    assert changed == ["fin.2lt", "sst.2lt", "cat.2lt", "negative.2lt"]


if __name__ == "__main__":
    print("\n".join(digests()))
