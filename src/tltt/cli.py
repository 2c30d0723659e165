"""Batch checker entry point: `tltt check [options] FILE...`.

Files are parsed and checked in order against one growing signature;
pragmas execute in place.  Exit codes: 0 everything checked and every
#fail failed as expected, 1 check errors, 2 usage or I/O trouble.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import NamedTuple, Optional

from tltt import nbe
from tltt import syntax as S
from tltt import diagnostics as D
from tltt.diagnostics import RECURSION_LIMIT, CheckError, Diagnostic
from tltt.parser import parse_module
from tltt.printer import pretty_print
from tltt import typecheck as tc

EXPECTED_FAILURE = "ExpectedFailure"


class RunConfig(NamedTuple):
    files: list[str]
    strong_mode: bool = False
    strict_proof_irrelevance: bool = False
    trace: bool = False
    output_format: str = "human"
    unfold_budget: Optional[int] = None


class PragmaResult(NamedTuple):
    path: str
    line: int
    col: int
    kind: str  # CHECK / INFER / NORMALIZE / CONV / FAIL
    text: str


class RunReport:
    __slots__ = ("diagnostics", "pragma_results", "checked", "context", "pragmas")

    def __init__(self, pragma_results: Optional[list[PragmaResult]] = None,
                 context: Optional[tc.Context] = None) -> None:
        self.diagnostics: list[tuple[str, Diagnostic]] = []
        self.pragma_results = [] if pragma_results is None else pragma_results
        self.checked: list[S.Declaration] = []  # with their elaborated terms
        self.context = context  # the final typing context, for tooling
        self.pragmas = 0  # pragmas run, whether they succeeded or not

    @property
    def error_count(self) -> int:
        return len(self.diagnostics)

    @property
    def ok(self) -> bool:
        return self.error_count == 0

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


class _Runner:
    def __init__(self, config: RunConfig):
        self.config = config
        flags = tc.Flags(strong=config.strong_mode,
                         strict_pi=config.strict_proof_irrelevance)
        self.ctx = tc.new_context(flags, budget=config.unfold_budget)
        self.report = RunReport(context=self.ctx)

    def trace(self, message: str) -> None:
        if self.config.trace:
            print(message, file=sys.stderr)

    def diag(self, path: str, d: Diagnostic) -> None:
        self.report.diagnostics.append((path, d))

    def reset_budget(self) -> None:
        if self.config.unfold_budget is not None:
            budget = self.ctx.sig.budget
            budget.limit = budget.unfolds + self.config.unfold_budget

    def run_file(self, path: str, text: str) -> None:
        try:
            module = parse_module(text, path, known_names=self.ctx.sig.entries.keys(),
                                  strong=self.config.strong_mode)
        except CheckError as e:
            self.diag(path, e.diagnostic)
            return
        except RecursionError:
            self.diag(path, _too_deep("parsing", None))
            return
        budget = self.ctx.sig.budget
        for decl in module.decls:
            self.reset_budget()
            started, unfolds = time.perf_counter(), budget.unfolds
            try:
                done = self.run_item(path, decl)
                self.trace(f"{done} in {(time.perf_counter() - started) * 1000:.1f} ms, "
                           f"{budget.unfolds - unfolds} unfolds")
            except CheckError as e:
                self.diag(path, e.diagnostic)
            except (nbe.EvalError, nbe.BudgetExhausted) as e:
                self.diag(path, _evaluation_failed(e, decl.span))
            except RecursionError:
                self.diag(path, _too_deep("checking", decl.span))

    @nbe.sharing
    def run_item(self, path: str, decl: S.Declaration | S.Pragma) -> str:
        """Check one declaration or run one pragma; what the trace says was done.
        The kernel shares equal work within the item, in tables dropped
        however it ends."""
        if isinstance(decl, S.Pragma):
            self.report.pragmas += 1
            kind, text = self.run_pragma(path, decl)
            span = decl.span
            line, col = (span.line, span.col) if span else (0, 0)
            self.report.pragma_results.append(PragmaResult(path, line, col, kind, text))
            return f"ran #{decl.kind} at {path}:{line}:{col}"
        self.trace(f"checking {decl.name}")
        self.report.checked.append(tc.check_declaration(self.ctx, decl))
        return f"checked {decl.name}"

    def run_pragma(self, path: str, pragma: S.Pragma) -> tuple[str, str]:
        """Run one pragma; its result's kind and text."""
        ctx = self.ctx
        if pragma.kind == S.CHECK:
            t, ty = pragma.payload
            ty2, _ = tc.infer_universe(ctx, ty)
            tc.check(ctx, t, nbe.eval_in(ctx, ty2))
            return "CHECK", "ok"
        if pragma.kind == S.INFER:
            _, ty_v = tc.infer(ctx, pragma.payload[0])
            return "INFER", pretty_print(nbe.quote(0, ty_v))
        if pragma.kind == S.NORMALIZE:
            t2, _ = tc.infer(ctx, pragma.payload[0])
            return "NORMALIZE", pretty_print(nbe.normalize(ctx, t2))
        if pragma.kind == S.CONV:
            a, b, ty = pragma.payload
            ty2, _ = tc.infer_universe(ctx, ty)
            ty_v = nbe.eval_in(ctx, ty2)
            a2 = tc.check(ctx, a, ty_v)
            b2 = tc.check(ctx, b, ty_v)
            if not nbe.conv_in(ctx, nbe.eval_in(ctx, a2), nbe.eval_in(ctx, b2), ty_v):
                raise D.fail(D.CONVERSION_FAILURE,
                             "terms are not definitionally equal", pragma.span,
                             expected=ctx.show_term(a2), actual=ctx.show_term(b2))
            return "CONV", "ok"
        if pragma.kind == S.FAIL:
            return self.run_fail(path, pragma)
        raise D.fail(D.SYNTAX_ERROR, f"unknown pragma {pragma.kind}", pragma.span)

    def run_fail(self, path: str, pragma: S.Pragma) -> tuple[str, str]:
        item = pragma.payload[0]
        expect = pragma.expect_code
        if isinstance(item, Diagnostic):
            observed: Optional[Diagnostic] = item
        else:
            observed = None
            try:
                if isinstance(item, S.Pragma):
                    self.run_pragma(path, item)  # its own result is not reported
                else:
                    tc.check_declaration(self.ctx, item)
                    self.ctx.sig.entries.pop(item.name, None)
            except CheckError as e:
                observed = e.diagnostic
            except nbe.EvalError as e:
                observed = _evaluation_failed(e, pragma.span)
            # an exhausted unfold budget or recursion limit is no failure of
            # the item, so it is not absorbed: `run_file` reports it
        if observed is None:
            raise D.fail(EXPECTED_FAILURE,
                         "item was expected to fail but succeeded", pragma.span)
        if expect is not None and observed.code != expect:
            raise D.fail(EXPECTED_FAILURE,
                         f"expected failure code {expect}, got {observed.code}: "
                         f"{observed.message}", pragma.span)
        return "FAIL", f"ok [{observed.code}]"


def _evaluation_failed(e: Exception, span) -> Diagnostic:
    """The diagnostic for an evaluation that stopped: an ill-typed redex, or
    a spent unfold budget, which is no verdict on the input's type."""
    code = D.RESOURCE_EXHAUSTED if isinstance(e, nbe.BudgetExhausted) else D.CONVERSION_FAILURE
    return Diagnostic(code, f"evaluation failed: {e}", span)


def _too_deep(stage: str, span) -> Diagnostic:
    return Diagnostic(D.RESOURCE_EXHAUSTED,
                      f"input nested too deeply for {stage}: recursion limit exceeded",
                      span)


def run(config: RunConfig) -> RunReport:
    """Parse and check every file in order, sharing one growing signature."""
    runner = _Runner(config)
    for path in config.files:
        runner.trace(f"-- {path}")
        try:
            with open(path, encoding="utf-8-sig") as handle:  # a BOM is skipped
                text = handle.read()
        except UnicodeDecodeError as e:
            raise OSError(f"{path}: not valid UTF-8") from e
        runner.run_file(path, text)
    return runner.report


def emit_report(report: RunReport, output_format: str = "human") -> tuple[str, int]:
    """Render a report; returns the text and the process exit code."""
    lines: list[str] = []
    if output_format == "lines":
        for res in report.pragma_results:
            lines.append("\t".join((res.path, str(res.line), str(res.col),
                                    res.kind, _flat(res.text))))
        for path, d in report.diagnostics:
            span = d.span
            lines.append("\t".join((
                span.path if span else path,
                str(span.line if span else 0), str(span.col if span else 0),
                d.code, _flat(d.message))))
        return "\n".join(lines) + ("\n" if lines else ""), report.exit_code
    for res in report.pragma_results:
        lines.append(f"{res.path}:{res.line}:{res.col}: #{res.kind.lower()}: {res.text}")
    for path, d in report.diagnostics:
        lines.append(str(d) if d.span else f"{path}: error[{d.code}]: {d.message}")
    decls, pragmas = len(report.checked), report.pragmas
    if report.ok:
        lines.append(f"OK: {decls} declarations, {pragmas} pragmas")
    else:
        lines.append(f"FAILED: {report.error_count} errors "
                     f"({decls} declarations, {pragmas} pragmas)")
    return "\n".join(lines) + "\n", report.exit_code


def _flat(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " | ")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="tltt",
                                     description="two-level type theory checker")
    sub = parser.add_subparsers(dest="command", required=True)
    checker = sub.add_parser("check", help="type check files in order")
    checker.add_argument("files", nargs="+", metavar="FILE")
    checker.add_argument("--strong", action="store_true",
                         help="identify the strict naturals/sums/empty with the fibrant ones")
    checker.add_argument("--strict-proof-irrelevance", action="store_true",
                         help="make all strict equality proofs definitionally equal")
    checker.add_argument("--trace", action="store_true",
                         help="print each file and declaration as it is checked, "
                              "the time and unfolds of each declaration and pragma "
                              "that succeeds, and the total time, to stderr")
    checker.add_argument("--format", choices=("human", "lines"), default="human")
    checker.add_argument("--unfold-budget", type=int, default=None, metavar="N",
                         help="allow each declaration or pragma at most N constant "
                              "unfolds; an unfold is spent when a constant's body "
                              "is needed, not when the constant is mentioned")
    args = parser.parse_args(argv)
    if args.unfold_budget is not None and args.unfold_budget < 0:
        checker.error("argument --unfold-budget: must be at least 0")
    config = RunConfig(files=args.files, strong_mode=args.strong,
                       strict_proof_irrelevance=args.strict_proof_irrelevance,
                       trace=args.trace, output_format=args.format,
                       unfold_budget=args.unfold_budget)
    started = time.perf_counter()
    # deep input needs deep recursion; from Python 3.11 on a call between
    # Python functions spends no C stack, so the calling thread's stack holds it
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(max(limit, RECURSION_LIMIT))
        report = run(config)
    except OSError as e:
        print(f"tltt: {e}", file=sys.stderr)
        return 2
    finally:
        sys.setrecursionlimit(limit)
    text, code = emit_report(report, config.output_format)
    sys.stdout.write(text)
    if config.trace:
        print(f"-- finished in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
