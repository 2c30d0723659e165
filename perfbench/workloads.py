"""The three workloads: their seeded inputs, one measured pass, and the
verdict checks against answers that do not come from the kernel.

corpus     the shipped library, default mode then strong mode, through
           `tltt.cli.run` exactly as `tltt check --format=lines` runs it.
normalize  closed terms over prelude/fin/sst, each normalized, printed and
           parsed back: readback-heavy, almost no conversion.
convert    conversion queries over the same signature with hand-derived
           answers, both verdicts, on large values.

Every pass starts from a fresh `Program`; `setup` builds what the pass starts
from and is timed as set-up, `run_pass` is the measured pass.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ORACLES = HERE / "oracles" / "reference_normal_forms.json"
BENCH_DEFS = HERE / "bench_defs.2lt"
LIBRARY = ("prelude.2lt", "fin.2lt", "sst.2lt")

# -- the normalize catalogue --------------------------------------------------
# Every pass normalizes all of these, in seeded order, plus seeded `Fin n`.
# The reference normal forms of all but SST 5s are frozen in ORACLES.  The
# seed picks nothing that changes how many items of each size a pass holds
# (every `Fin n` here is far cheaper than the median item), so that every
# seed asks for the same work.

SST_LEVELS = range(6)
ROUND_TRIP_ONLY = "SST 5s"   # no independent reference within reach
SK1_FIBRES = ("Unit", "Empty")
# four terms of one size, so that the 90th percentile of item latency falls
# among like items rather than between two sizes
SK2_FIBRES = (("Unit", "Unit"), ("Unit", "Empty"), ("Empty", "Unit"), ("Empty", "Empty"))
FIN_ITEMS, FIN_MAX = 6, 9


def reference_terms() -> list[str]:
    """Terms whose normal forms the reference normalizer freezes."""
    terms = [f"SST {n}s" for n in range(5)]
    terms += [f"Delta {i}s {j}s" for j in range(4) for i in range(j + 1)]
    terms += [f"SK 1s (star, \\u. {fibre}) {n}s" for fibre in SK1_FIBRES for n in range(4)]
    terms += [f"SK 2s ((star, \\u. Unit), \\s. Unit) {n}s" for n in range(3)]
    terms += [f"SK 2s ((star, \\u. {a}), \\s. {b}) 3s" for a, b in SK2_FIBRES]
    terms += [f"isIncr {i}s {j}s" for j in range(3) for i in range(j + 1)]
    terms += [f"lt {n}s" for n in range(4)]
    return terms


def fin_normal_form(n: int) -> str:
    """Fin 0 is Empty and Fin (n+1) is Unit + Fin n, by definition in fin.2lt."""
    return " + ".join(["Unit"] * n + ["Empty"])


@dataclass
class Query:
    text: str           # the pragma line handed to the checker
    key: str            # short name for tables
    expect: object      # normal form text, True/False, or None (round trip only)


@dataclass
class PassResult:
    segments: list[tuple[float, float]]  # start and end of the timed parts
    attempted: int = 0
    failures: list[str] = field(default_factory=list)  # one per failed item
    errors: list[str] = field(default_factory=list)    # run-level: exit code, diagnostics


class Stopwatch:
    """Collects the program's segments of a pass, leaving out verdict checks."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.segments: list[tuple[float, float]] = []
        self._started = 0.0

    def __enter__(self):
        self._started = self.clock()
        return self

    def __exit__(self, *exc) -> None:
        self.segments.append((self._started, self.clock()))


# -- corpus -------------------------------------------------------------------

FAIL_LINE = re.compile(r"^\s*#fail\[(\w+)\]")
NORMALIZE_LINE = re.compile(r"^\s*#normalize\s+(SST|Fin)\s+(\d+)s\s*$")


class Corpus:
    name = "corpus"

    def generate(self, seed: int) -> None:
        """The shipped library is the real traffic; the seed picks nothing."""
        return None

    def setup(self, program, inputs):
        manifest = program.corpus
        return [("default", manifest.default_run_files(), False),
                ("strong", manifest.strong_run_files(), True)]

    def run_pass(self, program, modes, recorder, inputs) -> PassResult:
        watch = Stopwatch(recorder.clock)
        reports = []
        for mode, files, strong in modes:
            config = program.cli.RunConfig(files=list(files), strong_mode=strong,
                                           output_format="lines")
            with watch:
                report = program.run(config)
                _, code = program.emit_report(report, "lines")
            reports.append((mode, files, report, code))
        result = PassResult(watch.segments, attempted=len(recorder.items))
        failing = {}
        for key, _, _, ok in recorder.items:
            if not ok:
                file, line = key.split(":")[:2]
                mode = "strong" if key.endswith("[strong]") else "default"
                failing[(mode, file, int(line))] = f"{key}: raised"
        for mode, files, report, code in reports:
            if code != 0:
                result.errors.append(f"{mode}: exit code {code}")
            result.errors += [f"{mode}: {d}" for _, d in report.diagnostics]
            for where, problem in self.check(program, files, report):
                failing.setdefault((mode,) + where, f"{mode}: {problem}")
        result.failures = list(failing.values())
        return result

    @staticmethod
    def check(program, files, report):
        """Every #fail rejected with its pinned code, and the #normalize SST
        and Fin lines equal to their oracles.  Yields ((file, line), problem)."""
        records = {(Path(r.path).name, r.line): r for r in report.pragma_results}
        for path in files:
            name = Path(path).name
            lines = Path(path).read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, 1):
                record = records.get((name, number))
                pinned = FAIL_LINE.match(line)
                if pinned and (record is None or record.text != f"ok [{pinned.group(1)}]"):
                    yield (name, number), (f"{name}:{number}: #fail[{pinned.group(1)}] "
                                           f"gave {record.text if record else 'no verdict'}")
                normal = NORMALIZE_LINE.match(line)
                if normal:
                    family, n = normal.group(1), int(normal.group(2))
                    if family == "SST":
                        expect = program.corpus.oracle_path(f"sst_{n}.txt").read_text()
                        expect = expect.rstrip("\n")
                    else:
                        expect = fin_normal_form(n)
                    if record is None or record.text != expect:
                        yield (name, number), (f"{name}:{number}: #normalize {family} "
                                               f"{n}s differs from its oracle")


# -- normalize and convert: queries over the prelude/fin/sst signature ------------

class _QueryWorkload:
    library_files: tuple[Path, ...] = ()
    path = "queries.2lt"

    def setup(self, program, inputs):
        files = [str(program.corpus.CORPUS_DIR / name) for name in LIBRARY]
        files += [str(p) for p in self.library_files]
        report = program.run(program.cli.RunConfig(files=files))
        if not report.ok:
            raise RuntimeError(f"{self.name}: the library does not check: "
                               f"{[str(d) for _, d in report.diagnostics]}")
        return report.context, [d.name for d in report.checked]

    def run_pass(self, program, state, recorder, queries: list[Query]) -> PassResult:
        ctx, names = state
        text = "".join(q.text + "\n" for q in queries)
        watch = Stopwatch(recorder.clock)
        result = PassResult(watch.segments, attempted=len(queries))
        with watch:
            module = program.parse_module(text, self.path, known_names=names)
        pragmas = list(module.decls)
        if len(pragmas) != len(queries):
            raise RuntimeError(f"{self.name}: {len(pragmas)} pragmas parsed from "
                               f"{len(queries)} queries")
        results = []
        for query, pragma in zip(queries, pragmas):
            with watch:
                ok, value = recorder.timed_item(query.key, self.answer, program, ctx,
                                                names, pragma)
            if not ok:
                result.failures.append(f"{query.key}: raised {value!r}")
                value = None
            else:
                problem = self.check(query, value)
                if problem:
                    result.failures.append(f"{query.key}: {problem}")
            span = pragma.span
            results.append(program.cli.PragmaResult(
                self.path, span.line if span else 0, span.col if span else 0,
                self.kind, self.render(value)))
            value = None  # hold one normal form at a time, as the checker does
        with watch:
            program.emit_report(program.cli.RunReport(pragma_results=results), "lines")
        return result


class Normalize(_QueryWorkload):
    name = "normalize"
    kind = "NORMALIZE"

    def generate(self, seed: int) -> list[Query]:
        rng = random.Random(f"normalize:{seed}")
        oracles = json.loads(ORACLES.read_text(encoding="utf-8"))["normal_forms"]
        queries = [Query(f"#normalize {t}", t, None if t == ROUND_TRIP_ONLY else oracles[t])
                   for t in (f"SST {n}s" for n in SST_LEVELS)]
        for term in reference_terms():
            if not term.startswith("SST"):
                queries.append(Query(f"#normalize {term}", term, oracles[term]))
        for _ in range(FIN_ITEMS):
            n = rng.randint(0, FIN_MAX)
            queries.append(Query(f"#normalize Fin {n}s", f"Fin {n}s", fin_normal_form(n)))
        rng.shuffle(queries)
        return queries

    @staticmethod
    def answer(program, ctx, names, pragma):
        """Normalize, print, and parse the printed normal form back."""
        term, _ = program.tc.infer(ctx, pragma.payload[0])
        normal = program.nbe.normalize(ctx, term)
        text = program.pretty_print(normal)
        back = program.parse_term(text, known_names=names)
        return normal, text, back

    @staticmethod
    def check(query: Query, value) -> str:
        normal, text, back = value
        if back != normal:
            return "printing and parsing back changed the normal form"
        if query.expect is not None and text != query.expect:
            return "normal form differs from the reference"
        return ""

    @staticmethod
    def render(value) -> str:
        return "<raised>" if value is None else value[1]


# -- the convert catalogue -----------------------------------------------------
# The seed orders the queries, the telescope domains and each pair, and picks
# the ignored arguments of benchKeep; the numerals that set a query's cost are
# fixed, so that every seed asks for the same amount of work.

ASSOC_NUMERALS = ((0, 1, 2, 3), (1, 2, 3, 4), (0, 2, 4, 6), (1, 1, 2, 3), (2, 3, 3, 5),
                  (0, 0, 1, 2))
UNIT_NUMERALS = ((0, 3), (2, 5), (1, 4), (3, 3))
STAGE_PAIRS = ((1, 3), (2, 4), (5, 6), (0, 4))
DOMAINS = ((0, 1), (1, 3), (2, 2), (0, 3), (1, 2), (3, 3))
# telescope length, and the tails: two distinct stages refute, one repeated
# stage is equal
TELESCOPES = ((8, (2, 5)), (12, (1, 4)), (16, (3, 5)), (20, (2, 3)), (10, (4, 4)),
              (14, (3, 3)))


class Convert(_QueryWorkload):
    name = "convert"
    kind = "CONV"
    library_files = (BENCH_DEFS,)

    def generate(self, seed: int) -> list[Query]:
        rng = random.Random(f"convert:{seed}")
        queries = []

        def add(key, a, b, ty, expect):
            queries.append(Query(f"#conv {a} ~ {b} : {ty}", key, expect))

        # reflexivity on independently elaborated large values
        add("refl SST 5s", "SST 5s", "SST 5s", "U 1", True)
        add("refl SST 4s", "SST 4s", "SST 4s", "U 1", True)
        sk = "SK 2s ((star, \\u. Unit), \\s. Unit) 3s"
        add("refl SK 2s", sk, sk, "U 0", True)
        # dcomp is associative by computation (fin.2lt: dassoc is refls)
        for h, i, j, k in ASSOC_NUMERALS:
            add(f"assoc {h}{i}{j}{k}",
                f"(\\f. \\g. \\e. dcomp {h}s {j}s {k}s (dcomp {h}s {i}s {j}s f g) e)",
                f"(\\f. \\g. \\e. dcomp {h}s {i}s {k}s f (dcomp {i}s {j}s {k}s g e))",
                f"(f : Delta {h}s {i}s) -> (g : Delta {i}s {j}s) -> (e : Delta {j}s {k}s)"
                f" -> Delta {h}s {k}s", True)
        # did is a unit on both sides, up to eta (fin.2lt: dlunit, drunit)
        for side, (h, i) in zip(("left", "right", "left", "right"), UNIT_NUMERALS):
            composite = (f"dcomp {h}s {h}s {i}s (did {h}s) f" if side == "left"
                         else f"dcomp {h}s {i}s {i}s f (did {i}s)")
            add(f"{side} unit {h}{i}", f"(\\f. {composite})", "(\\f. f)",
                f"Delta {h}s {i}s -> Delta {h}s {i}s", True)
        # equal only after unfolding benchKeep, which ignores its second
        # argument; the spines differ there.  Five of one size, so that the
        # 90th percentile of item latency falls among like items.
        for _ in range(5):
            x, y = rng.sample(range(31), 2)
            add(f"keep SST 4s {x}/{y}", f"benchKeep (SST 4s) {x}s",
                f"benchKeep (SST 4s) {y}s", "U 1", True)
        # different stages: SST m and SST n are distinct types for m /= n
        for pair in STAGE_PAIRS:
            m, n = rng.sample(pair, 2)
            add(f"SST {m}s/{n}s", f"SST {m}s", f"SST {n}s", "U 1", False)
        # a long shared telescope, then Fin p against Fin q: equal iff p = q
        for length, tails in TELESCOPES:
            domains = [DOMAINS[n % len(DOMAINS)] for n in range(length)]
            rng.shuffle(domains)
            prefix = " -> ".join(f"Delta {a}s {b}s" for a, b in domains)
            p, q = rng.sample(tails, 2)
            add(f"prefix {length} Fin {p}s/{q}s", f"({prefix} -> Fin {p}s)",
                f"({prefix} -> Fin {q}s)", "U 0", p == q)
        rng.shuffle(queries)
        return queries

    @staticmethod
    def answer(program, ctx, names, pragma):
        """Elaborate both sides at the type and decide conversion."""
        a, b, ty = pragma.payload
        tc, nbe = program.tc, program.nbe
        ty2, _ = tc.infer_universe(ctx, ty)
        ty_v = nbe.eval_in(ctx, ty2)
        a2 = tc.check(ctx, a, ty_v)
        b2 = tc.check(ctx, b, ty_v)
        return nbe.conv_in(ctx, nbe.eval_in(ctx, a2), nbe.eval_in(ctx, b2), ty_v)

    @staticmethod
    def check(query: Query, value) -> str:
        return "" if value == query.expect else f"checker says {value}, expected {query.expect}"

    @staticmethod
    def render(value) -> str:
        return {True: "ok", False: "not convertible"}.get(value, "<raised>")


WORKLOADS = {w.name: w for w in (Corpus(), Normalize(), Convert())}
