"""Precedence-aware pretty-printer for core terms.

Output reparses to an alpha-equal term.  A binder takes the first of its
hint (or x), hint1, hint2, ... that is neither bound nor the name of a
constant in its body, printing the body again when a constant turns out to
share the name.  A text thus depends only on the node, its precedence and
the names in scope, so a shared node is rendered once per stack of names.
"""

from __future__ import annotations

from typing import Optional, Sequence

from tltt import syntax as S

# Loosest to tightest: arrows/binders/lambdas, sigma products, equalities,
# sums, application, atoms.
ARROW, PROD, EQ, SUM, APP, ATOM = range(6)

# Texts this long or longer are not memoized, only their parts: storing every
# text would keep each character once per node enclosing it, and printing
# `SST 6s` (7.5 M characters) would peak at 221 MB instead of 100 MB.
MEMO_MAX = 2048

# former -> its word, its strict twin's word or None, and its argument fields
_WORDS = {cls: (word, None if mark is None else word + mark,
                tuple(field for field, _ in cls._children))
          for cls, (word, mark) in S.KEYWORDS.items()}


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


def _reads_as_binder(dom: S.Term) -> bool:
    """Whether the domain `dom` ends in an ascription of names, ``(a b : A)``,
    which before ``->`` or ``*`` would read as a binder."""
    while type(dom) is S.Sigma:
        dom = dom.cod
    t = dom.term if type(dom) is S.Ann else None
    while type(t) is S.App and type(t.arg) in (S.Var, S.Const):
        t = t.fn
    return type(t) in (S.Var, S.Const)


class _Clash(Exception):
    """Raised at a constant named like a binder of this print (its one arg):
    no text printed since that binder is finished, so none is stored."""


class _Printer:
    def __init__(self, names: Sequence[str]):
        self.names: list[str] = []  # innermost binder last
        self.bound: dict[str, bool] = {}  # a name in `names` -> held by a binder
        self.avoid: dict[int, set[str]] = {}  # id of a body -> its constants found bound
        # one scope per distinct stack of names, outermost first: a scope maps
        # (id(node), prec) to a text printed under that stack, and a name to
        # the scope of the stack one binder deeper; the stack has no parent
        # links, so the scopes form no reference cycle
        self.scopes: list[dict] = [{}]
        for name in names:
            self.push(name, False)
        # id of a node -> its free variables; a normal form may share nodes
        self.masks: dict[int, int] = {}

    def free(self, t: S.Term) -> int:
        """The free variables of `t` as a bit mask (bit i for index i),
        computed once per node object: a telescope is walked once, not once
        per binder, and a node that a normal form shares is walked once."""
        if type(t) is S.Var:
            return 1 << t.index
        mask = self.masks.get(id(t))
        if mask is not None:
            return mask
        mask = 0
        for name, under in t._children:
            child = getattr(t, name)
            cls = type(child)
            if cls is S.Var:
                inner = 1 << child.index
            elif cls is tuple:  # `Elim.args`, under no binder
                for arg in child:
                    mask |= self.free(arg)
                continue
            elif child is None:  # `Id.ty` may be absent
                continue
            else:
                inner = self.free(child) if cls._children else 0
            mask |= inner >> 1 if under else inner
        self.masks[id(t)] = mask
        return mask

    def push(self, name: str, held: bool = True) -> None:
        self.names.append(name)
        self.bound[name] = held
        scope = self.scopes[-1]
        inner = scope.get(name)
        if inner is None:
            inner = scope[name] = {}
        self.scopes.append(inner)

    def pop(self) -> None:
        self.scopes.pop()
        del self.bound[self.names.pop()]

    def bind(self, hint: Optional[str], t: S.Term, prec: int) -> tuple[str, str]:
        """The first of `hint` (or x), hint1, hint2, ... that is neither bound
        nor a constant in the body `t` (as found so far), and `t` printed under it."""
        base = name = hint or "x"
        avoid = self.avoid.get(id(t), ())
        i = 0
        while True:
            if name not in self.bound and name not in avoid:
                self.push(name)
                try:
                    return name, self.go(t, prec)
                except _Clash as clash:
                    # the constant is in `t`, whichever binder holds its name
                    self.avoid[id(t)] = avoid = {*avoid, *clash.args}
                    if clash.args[0] != name:
                        raise
                finally:
                    self.pop()
            i += 1
            name = f"{base}{i}"

    def go(self, t: S.Term, prec: int) -> str:
        cls = type(t)  # the commonest formers first, rendered here
        if cls is S.Var:
            if 0 <= t.index < len(self.names):
                return self.names[-1 - t.index]
            return f"?v{t.index - len(self.names)}"
        if cls is S.Const:
            if self.bound.get(t.name):
                raise _Clash(t.name)
            return t.name
        scope, key = self.scopes[-1], (id(t), prec)
        text = scope.get(key)
        if text is not None:
            return text
        if cls is S.App:
            text = f"{self.go(t.fn, APP)} {self.go(t.arg, ATOM)}"
            if prec > APP:
                text = f"({text})"
        else:
            text, level = self.render(t)
            if level < prec:
                text = f"({text})"
        if len(text) < MEMO_MAX:
            scope[key] = text
        return text

    def render(self, t: S.Term) -> tuple[str, int]:
        cls = type(t)
        if cls is S.Var or cls is S.Const:
            return self.go(t, ATOM), ATOM
        if cls is S.App:
            return self.go(t, APP), APP
        if cls is S.Lam:
            name, body = self.bind(t.hint, t.body, ARROW)
            return f"\\{name}. {body}", ARROW
        if cls is S.Zero or cls is S.Succ:
            num = _numeral(t)
            if num is not None:
                n, is_strict = num
                return (f"{n}s" if is_strict else str(n)), ATOM
        if cls is S.Univ:
            return f"{'Us' if t.strict else 'U'} {t.level}", APP
        if cls is S.Pi or cls is S.Sigma:
            op, prec = ("->", ARROW) if cls is S.Pi else ("*", PROD)
            text, level = self.render(t.dom)
            if self.free(t.cod) & 1:  # the body uses the bound variable
                name, rest = self.bind(t.hint, t.cod, prec)
                return f"({name} : {text}) {op} {rest}", prec
            if level <= prec or _reads_as_binder(t.dom):
                text = f"({text})"
            return f"{text} {op} {self.bind(None, t.cod, prec)[1]}", prec
        words = _WORDS.get(cls)
        if words is not None:
            word, strict_word, fields = words
            if strict_word is not None and t.strict:
                word = strict_word
            if not fields:
                return word, ATOM
            for field in fields:
                word = f"{word} {self.go(getattr(t, field), ATOM)}"
            return word, APP
        if cls is S.Elim:
            word = S.ELIMINATORS[t.former, t.strict].word
            for arg in (*t.args, t.target):
                word = f"{word} {self.go(arg, ATOM)}"
            return word, APP
        if cls is S.Ann:
            return f"({self.go(t.term, ARROW)} : {self.go(t.type, ARROW)})", ATOM
        if cls is S.Pair:
            return f"({self.go(t.fst, ARROW)}, {self.go(t.snd, ARROW)})", ATOM
        if cls is S.Sum:
            op = "+s" if t.strict else "+"
            return f"{self.go(t.left, APP)} {op} {self.go(t.right, SUM)}", SUM
        if cls is S.Id:
            op = "=s" if t.strict else "="
            return f"{self.go(t.lhs, SUM)} {op} {self.go(t.rhs, SUM)}", EQ
        raise TypeError(f"cannot print {type(t).__name__}")


@S.collector_paused
def pretty_print(t: S.Term, names: Optional[Sequence[str]] = None) -> str:
    """Render a well-scoped term; `names` supplies free-variable names, outermost first."""
    return _Printer(names or ()).go(t, ARROW)
