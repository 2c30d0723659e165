"""Fuzz guard: no input makes the checker raise.

Every input, run through `cli.run` and through `main`, must give exit code
0, 1 or 2 and no traceback.  The inputs are byte mutations of the corpus
files `prelude.2lt` and `fin.2lt` (non-UTF-8 bytes included) and printed
`gen.rand_scoped` terms placed in pragmas and definitions.  The cases are
derandomized: each family draws from its own fixed seed.

The mutated files and the rejection suite must also be reported the same
whether or not the kernel shares equal work within each item.
"""

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tltt import cli, corpus
from tltt.cli import RunConfig, emit_report, main, run
from tltt.printer import pretty_print
from tltt.syntax import Span

from gen import rand_scoped

PRELUDE = corpus.CORPUS_DIR / "prelude.2lt"
FIN = corpus.CORPUS_DIR / "fin.2lt"

# Pieces a mutation may insert: tokens, the openers and closers of nested
# structure, and bytes that are not UTF-8 or not tokens.
_SNIPPETS = [b"(", b")", b"\\", b"\\x.", b"->", b"*", b":", b":=", b",", b".",
             b"=", b"=s", b"+", b"+s", b"~", b"[", b"]", b"U ", b"Us ", b"U 99999",
             b"0", b"7s", b"succ", b"NatS", b"Nat", b"star", b"refl", b"Js", b"uipS",
             b"def", b"axiom", b"#check", b"#infer", b"#normalize", b"#conv", b"#fail",
             b"#fail[UniverseError]", b"{-", b"-}", b"--", b"\n", b"\t", b"#",
             b"\xff", b"\xc3", b"\xe2\x82", "éℕ٣".encode()]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """One to four edits: overwrite with an ASCII character, delete,
    duplicate, insert a snippet or, rarely, insert random bytes."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(data) + 1)
        size = rng.choice((1, 1, 2, 8, 40))
        edit = rng.randrange(9)
        if edit < 2 and at < len(data):
            data[at] = rng.choice(b"\n\t" + bytes(range(32, 127)))
        elif edit < 4:
            del data[at:at + size]
        elif edit < 6:
            data[at:at] = data[at:at + size]
        elif edit < 8:
            data[at:at] = rng.choice(_SNIPPETS)
        else:
            data[at:at] = bytes(rng.randrange(256) for _ in range(size))
    return bytes(data)


def _mutated_files(cases: int, seed: int):
    """(name, files before it, bytes) for `cases` mutations; a mutated
    `fin.2lt` is checked after the intact prelude it builds on."""
    rng = random.Random(seed)
    originals = [(PRELUDE, []), (FIN, [str(PRELUDE)])]
    for n in range(cases):
        path, before = originals[n % 2]
        yield f"mut{n}_{path.name}", before, _mutate(rng, path.read_bytes())


def _printed_terms(cases: int, seed: int):
    """(name, files before it, bytes) for files made of printed random
    terms, which are well scoped but mostly ill typed."""
    rng = random.Random(seed)
    forms = ("#infer {0}", "#normalize {0}", "#check {0} : {1}", "#conv {0} ~ {1} : {2}",
             "def t : {0} := {1}", "axiom a : {0}", "#fail def t : {0} := {1}")
    for n in range(cases):
        terms = [pretty_print(rand_scoped(rng, 0, rng.randint(1, 10))) for _ in range(3)]
        text = "\n".join(rng.choice(forms).format(*terms) for _ in range(3)) + "\n"
        yield f"term{n}.2lt", [], text.encode()


def _exit_code_of_run(files: list[str]) -> int:
    try:
        report = run(RunConfig(files=files))
    except OSError:  # unreadable or not UTF-8: `main` exits 2
        return 2
    # a term's span is a plain tuple; no diagnostic may keep one
    for _, d in report.diagnostics:
        assert d.span is None or type(d.span) is Span, d
    for fmt in ("human", "lines"):
        text, code = emit_report(report, fmt)
        assert isinstance(text, str)
    return code


def _exit_code_of_main(files: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", "--format=lines", *files])
    return code, err.getvalue()


def _check(tmp_path, name: str, before: list[str], data: bytes) -> int:
    path = tmp_path / name
    path.write_bytes(data)
    files = before + [str(path)]
    code = _exit_code_of_run(files)
    main_code, stderr = _exit_code_of_main(files)
    assert code in (0, 1, 2), name
    assert main_code == code, name
    assert "Traceback" not in stderr, name
    return code


@pytest.mark.parametrize("family, cases, codes", [
    (_mutated_files, 160, {0, 1, 2}),
    (_printed_terms, 200, {0, 1}),
], ids=["mutated_corpus_files", "printed_random_terms"])
def test_no_input_makes_the_checker_raise(tmp_path, family, cases, codes):
    seen = [_check(tmp_path, name, before, data)
            for name, before, data in family(cases, seed=20161)]
    # the cases reach the checker, not only the reader
    assert set(seen) == codes and seen.count(1) > cases // 4


def _negative_suites():
    """(name, files before it, bytes): the rejection suite as shipped, and
    with each `#fail[CODE]` taken off, so that every item it pins is
    reported in full."""
    negative = (corpus.CORPUS_DIR / "negative.2lt").read_bytes()
    yield "negative.2lt", [str(PRELUDE)], negative
    yield "negative_bare.2lt", [str(PRELUDE)], re.sub(rb"#fail\[\w+\] ", b"", negative)


def _reports(tmp_path, cases) -> list:
    """Each case's diagnostics and pragma results, or None where a file
    cannot be read."""
    reports = []
    for name, before, data in cases:
        path = tmp_path / name
        path.write_bytes(data)
        try:
            report = run(RunConfig(files=before + [str(path)]))
        except OSError:
            reports.append(None)
            continue
        reports.append((report.diagnostics, report.pragma_results))
    return reports


def test_checking_reports_the_same_without_sharing(tmp_path, monkeypatch):
    cases = [*_negative_suites(), *_mutated_files(160, seed=20161)]
    shared = _reports(tmp_path, cases)
    items = [0]
    run_item = cli._Runner.run_item.__wrapped__  # without its sharing tables

    def unshared(self, path, decl):
        items[0] += 1
        return run_item(self, path, decl)

    monkeypatch.setattr(cli._Runner, "run_item", unshared)
    # a diagnostic compares by code, message, span, expected and actual
    assert _reports(tmp_path, cases) == shared
    assert items[0] > len(cases)
    diagnostics = [d for report in shared if report for _, d in report[0]]
    assert len(diagnostics) > len(cases) // 4
    assert any(d.expected is not None for d in diagnostics)
