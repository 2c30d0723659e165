"""Precedence-aware pretty-printer for core terms.

Output reparses to an alpha-equal term.  Binder hints recorded by the
parser are reused when present; generated names are deterministic, so
identical terms always print identically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from tltt import syntax as S

# Loosest to tightest: arrows/binders/lambdas, sigma products, equalities,
# sums, application, atoms.
ARROW, PROD, EQ, SUM, APP, ATOM = range(6)


def _word(t: S.Term, base: str, mark: str) -> str:
    """The keyword of a former: `base`, plus `mark` for its strict twin."""
    return base + mark if t.strict else base


def _numeral(t: S.Term) -> Optional[tuple[int, bool]]:
    """(n, strict) for a numeral of one fragment; None for anything else,
    including a mixed-fragment chain, which is spelled out."""
    count = 0
    is_strict = t.strict if isinstance(t, (S.Zero, S.Succ)) else None
    while isinstance(t, S.Succ) and t.strict == is_strict:
        t, count = t.pred, count + 1
    if isinstance(t, S.Zero) and t.strict == is_strict:
        return count, is_strict
    return None


def _uses_var0(t: S.Term, depth: int = 0) -> bool:
    if isinstance(t, S.Var):
        return t.index == depth
    return any(_uses_var0(c, depth + 1 if under else depth)
               for _, c, under in S.term_children(t))


class _Printer:
    def __init__(self, names: list[str]):
        self.names = names  # innermost binder last

    def fresh(self, hint: Optional[str]) -> str:
        base = hint or "x"
        if base not in self.names:
            return base
        i = 1
        while f"{base}{i}" in self.names:
            i += 1
        return f"{base}{i}"

    def under(self, name: str, t: S.Term, prec: int) -> str:
        self.names.append(name)
        try:
            return self.go(t, prec)
        finally:
            self.names.pop()

    def go(self, t: S.Term, prec: int) -> str:
        text, level = self.render(t)
        return f"({text})" if level < prec else text

    def atom(self, t: S.Term) -> str:
        return self.go(t, ATOM)

    def render(self, t: S.Term) -> tuple[str, int]:
        num = _numeral(t)
        if num is not None:
            n, is_strict = num
            return (f"{n}s" if is_strict else str(n)), ATOM

        if isinstance(t, S.Var):
            if 0 <= t.index < len(self.names):
                return self.names[-1 - t.index], ATOM
            return f"?v{t.index - len(self.names)}", ATOM
        if isinstance(t, S.Const):
            return t.name, ATOM
        if isinstance(t, S.Univ):
            word = "U" if t.sort.is_fibrant else "Us"
            return f"{word} {t.sort.level}", APP
        if isinstance(t, S.Lam):
            name = self.fresh(t.hint)
            return f"\\{name}. {self.under(name, t.body, ARROW)}", ARROW
        if isinstance(t, S.Pi):
            dom = self.go(t.dom, PROD)
            if _uses_var0(t.cod):
                name = self.fresh(t.hint)
                return f"({name} : {self.go(t.dom, ARROW)}) -> {self.under(name, t.cod, ARROW)}", ARROW
            return f"{dom} -> {self.under(self.fresh(None), t.cod, ARROW)}", ARROW
        if isinstance(t, S.Sigma):
            fst = self.go(t.fst, EQ)
            if _uses_var0(t.snd):
                name = self.fresh(t.hint)
                return f"({name} : {self.go(t.fst, ARROW)}) * {self.under(name, t.snd, PROD)}", PROD
            return f"{fst} * {self.under(self.fresh(None), t.snd, PROD)}", PROD
        if isinstance(t, S.App):
            return f"{self.go(t.fn, APP)} {self.atom(t.arg)}", APP
        if isinstance(t, S.Pair):
            return f"({self.go(t.fst, ARROW)}, {self.go(t.snd, ARROW)})", ATOM
        if isinstance(t, S.Fst):
            return f"fst {self.atom(t.pair)}", APP
        if isinstance(t, S.Snd):
            return f"snd {self.atom(t.pair)}", APP
        if isinstance(t, S.Unit):
            return "Unit", ATOM
        if isinstance(t, S.Star):
            return "star", ATOM
        if isinstance(t, S.Nat):
            return _word(t, "Nat", "S"), ATOM
        if isinstance(t, S.Empty):
            return _word(t, "Empty", "S"), ATOM
        if isinstance(t, S.Succ):
            return f"{_word(t, 'succ', 's')} {self.atom(t.pred)}", APP
        if isinstance(t, S.NatElim):
            parts = [_word(t, "natElim", "S"), self.atom(t.motive), self.atom(t.base),
                     self.atom(t.step), self.atom(t.target)]
            return " ".join(parts), APP
        if isinstance(t, S.SumElim):
            parts = [_word(t, "sumElim", "S"), self.atom(t.motive), self.atom(t.on_inl),
                     self.atom(t.on_inr), self.atom(t.target)]
            return " ".join(parts), APP
        if isinstance(t, S.EmptyElim):
            return (f"{_word(t, 'emptyElim', 'S')} {self.atom(t.motive)} "
                    f"{self.atom(t.target)}"), APP
        if isinstance(t, S.Sum):
            return (f"{self.go(t.left, APP)} {_word(t, '+', 's')} "
                    f"{self.go(t.right, SUM)}"), SUM
        if isinstance(t, S.Inl):
            return f"{_word(t, 'inl', 's')} {self.atom(t.value)}", APP
        if isinstance(t, S.Inr):
            return f"{_word(t, 'inr', 's')} {self.atom(t.value)}", APP
        if isinstance(t, S.Id):
            return (f"{self.go(t.lhs, SUM)} {_word(t, '=', 's')} "
                    f"{self.go(t.rhs, SUM)}"), EQ
        if isinstance(t, S.Refl):
            return _word(t, "refl", "s"), ATOM
        if isinstance(t, S.IdElim):
            parts = [_word(t, "J", "s"), self.atom(t.motive), self.atom(t.refl_case),
                     self.atom(t.lhs), self.atom(t.rhs), self.atom(t.proof)]
            return " ".join(parts), APP
        if isinstance(t, S.UipS):
            return f"Ks {self.atom(t.p)} {self.atom(t.q)}", APP
        raise TypeError(f"cannot print {type(t).__name__}")


def pretty_print(t: S.Term, names: Optional[Sequence[str]] = None) -> str:
    """Render a well-scoped term; `names` supplies free-variable names, outermost first."""
    return _Printer(list(names or [])).go(t, ARROW)
