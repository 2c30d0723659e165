"""A fresh copy of tltt for every pass, and the recorder that times it.

Every measured pass imports tltt anew (its modules are dropped from
``sys.modules`` first), so no pass can see a context, a signature or a
module-level cache that an earlier pass filled.

The recorder wraps tltt's public entry points from outside.  It replaces the
attributes that callers look up, for example ``tltt.nbe.conv`` as used by
``tltt.typecheck``; it never wraps a function inside the module that defines
it, so the kernel's own recursion stays unwrapped.  Two things are recorded:

* items: one declaration, pragma or query, timed at its own call boundary;
* spans (traced passes only): name, start, end, parent span and item id at
  each layer boundary, kept in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = ("tltt", "tltt.printer", "tltt.parser", "tltt.nbe", "tltt.typecheck", "tltt.cli",
           "tltt.corpus")

# layer name -> (module that exports the entry points, their names).  Names
# that a later version of tltt no longer exports are skipped.
FUNCTION_LAYERS = (
    ("cli", "tltt.cli", ("run", "emit_report")),
    ("parser", "tltt.parser", ("parse_module", "parse_term")),
    ("printer", "tltt.printer", ("pretty_print",)),
    ("nbe.eval", "tltt.nbe", ("evaluate", "inst", "apply_value", "apply_many",
                              "do_fst", "do_snd", "do_natelim", "do_sumelim",
                              "do_emptyelim", "do_idelim")),
    ("nbe.quote", "tltt.nbe", ("quote",)),
    ("nbe.conv", "tltt.nbe", ("conv",)),
)
LAYERS = ("cli", "parser", "typecheck", "nbe.eval", "nbe.quote", "nbe.conv", "printer")


class MissingSource(RuntimeError):
    """The checkout holds no tltt sources to measure."""


def _purge() -> None:
    for name in [m for m in sys.modules if m == "tltt" or m.startswith("tltt.")]:
        del sys.modules[name]


class Program:
    """One fresh import of tltt, with the entry points a pass calls.

    The benchmark calls tltt only through these attributes, so that
    `instrument` can put its wrappers in front of them.  `imported` is when
    the import began and ended, read from `clock`."""

    def __init__(self, clock) -> None:
        if not (SRC / "tltt" / "__init__.py").is_file():
            raise MissingSource(f"no tltt sources under {SRC}")
        if sys.path[0] != str(SRC):
            sys.path.insert(0, str(SRC))
        _purge()
        started = clock()
        modules = {name: importlib.import_module(name) for name in MODULES}
        self.imported = (started, clock())
        origin = Path(modules["tltt"].__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise MissingSource(f"tltt was imported from {origin}, not from {SRC}")
        self.modules = modules
        self.cli = modules["tltt.cli"]
        self.nbe = modules["tltt.nbe"]
        self.tc = modules["tltt.typecheck"]
        self.corpus = modules["tltt.corpus"]
        self.tokenize = modules["tltt.parser"].tokenize
        self.run = self.cli.run
        self.emit_report = self.cli.emit_report
        self.parse_module = modules["tltt.parser"].parse_module
        self.parse_term = modules["tltt.parser"].parse_term
        self.pretty_print = modules["tltt.printer"].pretty_print

    @property
    def backend(self) -> str:
        return str(getattr(self.nbe, "BACKEND", "unknown"))


class Recorder:
    """Item timings and, when `layers` is set, layer spans of one pass.
    Times are read from `clock`."""

    def __init__(self, layers: bool, clock) -> None:
        self.layers = layers
        self.clock = clock
        self.items: list[tuple[str, float, float, bool]] = []  # key, start, end, ok
        self.item: int | None = None
        # one span: [layer, start, end, parent span index or -1, item id or -1]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.parsed: list[str] = []
        self.printed_chars = 0
        self.conv_false = 0

    # -- items ------------------------------------------------------------------

    def timed_item(self, key: str, fn, *args):
        """Run one item; returns (ok, result).  An exception makes it fail."""
        try:
            return True, self.item_boundary(lambda *_: key, fn)(*args)
        except Exception as e:  # a crash is a failed item, not a failed run
            return False, e

    def item_boundary(self, describe, fn):
        """Wrap `fn` so its outermost calls are items; nested calls (a #fail
        wrapping a declaration) belong to the item around them."""
        recorder = self

        def item(*args, **kwargs):
            if recorder.item is not None:
                return fn(*args, **kwargs)
            recorder.item = len(recorder.items)
            ok = False
            started = recorder.clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                recorder.items.append((describe(*args), started, recorder.clock(), ok))
                recorder.item = None
        return item

    # -- spans ------------------------------------------------------------------

    def span(self, layer: str, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        recorder = self
        after = {"parser": self._after_parse, "printer": self._after_print,
                 "nbe.conv": self._after_conv}.get(layer)

        def traced(*args, **kwargs):
            index = len(spans)
            item = recorder.item
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1,
                      -1 if item is None else item]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_parse(self, args, result) -> None:
        self.parsed.append(args[0])

    def _after_print(self, args, result) -> None:
        self.printed_chars += len(result)

    def _after_conv(self, args, result) -> None:
        if result is False:
            self.conv_false += 1


class _Facade:
    """Stands in for the typecheck module where another module (or the
    benchmark) calls into it, so that only calls crossing into the layer are
    wrapped and typecheck's own recursion is not."""

    def __init__(self, module, wrapped: dict) -> None:
        self.__dict__.update(wrapped)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _rebind(program: Program, old, new) -> None:
    """Point every caller's name for `old` at `new`, except inside the module
    that defines `old`."""
    home = getattr(old, "__module__", None)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not (name == "tltt" or name.startswith("tltt.")) or name == home:
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
    for attr, value in list(vars(program).items()):
        if value is old:
            setattr(program, attr, new)


def item_key(path: str, line: int, label: str, strong: bool) -> str:
    """`file:line:label`, marked when the item was checked in strong mode."""
    return f"{Path(path).name}:{line}:{label}{' [strong]' if strong else ''}"


def _declaration_key(ctx, decl) -> str:
    span = decl.span
    return item_key(span.path if span else "?", span.line if span else 0, decl.name,
                    getattr(getattr(ctx, "flags", None), "strong", False))


def _pragma_key(runner, path, pragma) -> str:
    return item_key(path, pragma.span.line if pragma.span else 0, f"#{pragma.kind}",
                    getattr(getattr(runner, "config", None), "strong_mode", False))


def instrument(program: Program, recorder: Recorder) -> None:
    """Install item boundaries, and layer spans if the recorder wants them."""
    tc = program.tc
    wrapped = {}
    for name, fn in vars(tc).items():
        if inspect.isfunction(fn) and fn.__module__ == tc.__name__ and not name.startswith("_"):
            wrapped[name] = recorder.span("typecheck", fn) if recorder.layers else fn
    declare = wrapped.get("check_declaration")
    if declare is None:
        raise RuntimeError("tltt.typecheck.check_declaration is gone")
    wrapped["check_declaration"] = recorder.item_boundary(_declaration_key, declare)
    facade = _Facade(tc, wrapped)
    _rebind(program, tc, facade)

    runner = getattr(program.cli, "_Runner", None)
    if runner is None or not hasattr(runner, "run_pragma"):
        raise RuntimeError("tltt.cli._Runner.run_pragma is gone")
    runner.run_pragma = recorder.item_boundary(_pragma_key, runner.run_pragma)

    if not recorder.layers:
        return
    for layer, module_name, names in FUNCTION_LAYERS:
        module = program.modules[module_name]
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                _rebind(program, fn, recorder.span(layer, fn))


def layer_totals(recorder: Recorder) -> dict[str, dict[str, float]]:
    """Calls and self time per layer.  Spans nest strictly, so a span's self
    time is its duration minus the durations of its direct children."""
    totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    child_time = [0.0] * len(recorder.spans)
    for span in recorder.spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    for index, span in enumerate(recorder.spans):
        entry = totals[span[0]]
        entry["calls"] += 1
        entry["self_s"] += span[2] - span[1] - child_time[index]
    return totals
