"""Surface-language parser for `.2lt` files.

Hand-written lexer plus recursive descent with precedence climbing.
Names are resolved to de Bruijn indices here; unbound identifiers are
rejected with a span.  Ascriptions ``(t : A)`` desugar to an annotated
beta-redex so the core needs no extra node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from tltt import syntax as S
from tltt import diagnostics as D
from tltt.diagnostics import fail
from tltt.syntax import Span, Term


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT NUM NUMS PUNCT PRAGMA EOF
    text: str
    line: int
    col: int
    end_line: int
    end_col: int


_PUNCT = ("(", ")", "\\", ".", ",", ":=", ":", "->", "*", "+s", "+", "=s", "=", "~")

_PRAGMAS = ("#check", "#infer", "#normalize", "#conv", "#fail")


def _ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def tokenize(text: str, path: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def bump(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def err(msg: str) -> D.CheckError:
        return fail(D.SYNTAX_ERROR, msg, Span(path, line, col, line, col + 1))

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            bump(1)
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                bump(1)
            continue
        if text.startswith("{-", i):
            depth, start = 1, (line, col)
            bump(2)
            while i < n and depth:
                if text.startswith("{-", i):
                    depth += 1
                    bump(2)
                elif text.startswith("-}", i):
                    depth -= 1
                    bump(2)
                else:
                    bump(1)
            if depth:
                raise fail(D.SYNTAX_ERROR, "unterminated block comment",
                           Span(path, start[0], start[1], line, col))
            continue
        start_line, start_col = line, col
        if c == "#":
            for p in _PRAGMAS:
                if text.startswith(p, i):
                    bump(len(p))
                    toks.append(Token("PRAGMA", p, start_line, start_col, line, col))
                    break
            else:
                raise err("unknown pragma")
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            kind = "NUM"
            if j < n and text[j] == "s" and (j + 1 >= n or not _ident_char(text[j + 1])):
                j += 1
                kind = "NUMS"
            word = text[i:j]
            bump(j - i)
            toks.append(Token(kind, word.rstrip("s") if kind == "NUMS" else word,
                              start_line, start_col, line, col))
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and _ident_char(text[j]):
                j += 1
            word = text[i:j]
            bump(j - i)
            toks.append(Token("IDENT", word, start_line, start_col, line, col))
            continue
        if c == "-" and not text.startswith("->", i):
            raise err("stray '-' (use '-- ' for comments, '->' for arrows)")
        if c == "[" or c == "]":
            bump(1)
            toks.append(Token("PUNCT", c, start_line, start_col, line, col))
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                bump(len(p))
                # '=s' / '+s' only when not the prefix of an identifier
                if p in ("=s", "+s") and i < n and _ident_char(text[i]):
                    raise err(f"bad token {p}{text[i]}")
                toks.append(Token("PUNCT", p, start_line, start_col, line, col))
                break
        else:
            raise err(f"unexpected character {c!r}")
    toks.append(Token("EOF", "", line, col, line, col))
    return toks


def _strict(cls):
    """Constructor of the strict twin of a former: `cls` with its flag set."""
    return partial(cls, strict=True)


_ELIM_ARITY = {
    "J": (S.IdElim, 5), "Js": (_strict(S.IdElim), 5), "Ks": (S.UipS, 2),
    "natElim": (S.NatElim, 4), "natElimS": (_strict(S.NatElim), 4),
    "sumElim": (S.SumElim, 4), "sumElimS": (_strict(S.SumElim), 4),
    "emptyElim": (S.EmptyElim, 2), "emptyElimS": (_strict(S.EmptyElim), 2),
    "fst": (S.Fst, 1), "snd": (S.Snd, 1),
    "succ": (S.Succ, 1), "succs": (_strict(S.Succ), 1),
    "inl": (S.Inl, 1), "inr": (S.Inr, 1),
    "inls": (_strict(S.Inl), 1), "inrs": (_strict(S.Inr), 1),
}

_SIMPLE_ATOMS = {
    "Nat": S.Nat, "NatS": _strict(S.Nat), "Unit": S.Unit, "Empty": S.Empty,
    "EmptyS": _strict(S.Empty), "star": S.Star, "refl": S.Refl,
    "refls": _strict(S.Refl),
}

_KEYWORDS = {"def", "axiom", "U", "Us"} | _ELIM_ARITY.keys() | _SIMPLE_ATOMS.keys()

# infix connective -> strict flag
_EQUALITIES = {"=": False, "=s": True}
_SUMS = {"+": False, "+s": True}


class Parser:
    def __init__(self, toks: list[Token], path: str, scope: list[str],
                 known: set[str]):
        self.toks = toks
        self.pos = 0
        self.path = path
        self.scope = scope  # innermost binder last
        self.known = known  # declared global names

    # -- token plumbing --

    def peek(self, offset: int = 0) -> Token:
        return self.toks[min(self.pos + offset, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def at_ident(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == text

    def eat(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.err(f"expected {text!r}")
        return self.next()

    def eat_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text in _KEYWORDS:
            raise self.err("expected an identifier")
        return self.next()

    def err(self, msg: str) -> D.CheckError:
        tok = self.peek()
        got = tok.text or "end of input"
        return fail(D.SYNTAX_ERROR, f"{msg}, got {got!r}", self.tok_span(tok))

    def tok_span(self, tok: Token) -> Span:
        return Span(self.path, tok.line, tok.col, tok.end_line, tok.end_col)

    def span_from(self, start: Token) -> Span:
        prev = self.toks[max(self.pos - 1, 0)]
        return Span(self.path, start.line, start.col, prev.end_line, prev.end_col)

    # -- terms --

    def term(self) -> Term:
        return self.arrow()

    def arrow(self) -> Term:
        start = self.peek()
        if self.at_punct("\\"):
            self.next()
            name = self.eat_ident().text
            self.eat(".")
            self.scope.append(name)
            try:
                body = self.arrow()
            finally:
                self.scope.pop()
            return S.Lam(body, hint=name, span=self.span_from(start))
        binder = self.try_binder()
        if binder is not None:
            connective, t = binder
            if connective == "->":
                return t
            lhs = t  # a sigma binder may still be an arrow's domain
        else:
            lhs = self.prod()
        if self.at_punct("->"):
            self.next()
            rhs = self.arrow()
            return S.Pi(lhs, S.shift(rhs, 1), span=self.span_from(start))
        return lhs

    def try_binder(self) -> Optional[tuple[str, Term]]:
        """Parse '(' NAME+ ':' term ')' ('->'|'*') term, or rewind."""
        if not self.at_punct("("):
            return None
        save = self.pos
        start = self.next()
        names = []
        while self.peek().kind == "IDENT" and self.peek().text not in _KEYWORDS:
            names.append(self.next().text)
        if not names or not self.at_punct(":"):
            self.pos = save
            return None
        self.next()
        try:
            dom = self.term()
        except D.CheckError:
            self.pos = save
            return None
        if not self.at_punct(")"):
            self.pos = save
            return None
        self.next()
        if self.at_punct("->"):
            connective = "->"
        elif self.at_punct("*"):
            connective = "*"
        else:
            self.pos = save
            return None
        self.next()
        for name in names:
            self.scope.append(name)
        try:
            body = self.arrow() if connective == "->" else self.prod()
        finally:
            for _ in names:
                self.scope.pop()
        span = self.span_from(start)
        mk = S.Pi if connective == "->" else S.Sigma
        for k in range(len(names) - 1, -1, -1):
            body = mk(S.shift(dom, k), body, hint=names[k], span=span)
        return connective, body

    def prod(self) -> Term:
        start = self.peek()
        binder = self.try_binder()
        if binder is not None:
            connective, t = binder
            if connective == "->":
                raise fail(D.SYNTAX_ERROR, "arrow binder needs parentheses here",
                           t.span)
            return t
        lhs = self.eq()
        if self.at_punct("*"):
            self.next()
            rhs = self.prod()
            return S.Sigma(lhs, S.shift(rhs, 1), span=self.span_from(start))
        return lhs

    def eq(self) -> Term:
        start = self.peek()
        lhs = self.sum()
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text in _EQUALITIES:
            self.next()
            rhs = self.sum()
            return S.Id(None, lhs, rhs, strict=_EQUALITIES[tok.text],
                        span=self.span_from(start))
        return lhs

    def sum(self) -> Term:
        start = self.peek()
        lhs = self.app()
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text in _SUMS:
            self.next()
            rhs = self.sum()
            return S.Sum(lhs, rhs, strict=_SUMS[tok.text], span=self.span_from(start))
        return lhs

    def starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind in ("NUM", "NUMS"):
            return True
        if tok.kind == "IDENT":
            return tok.text not in ("def", "axiom")
        return tok.kind == "PUNCT" and tok.text in ("(", "\\")

    def app(self) -> Term:
        start = self.peek()
        head = self.head_or_atom()
        while self.starts_atom():
            head = S.App(head, self.atom(), span=self.span_from(start))
        return head

    def head_or_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text in _ELIM_ARITY:
            self.next()
            cls, arity = _ELIM_ARITY[tok.text]
            args = []
            for k in range(arity):
                if not self.starts_atom():
                    raise fail(D.SYNTAX_ERROR,
                               f"{tok.text} expects {arity} arguments, got {k}",
                               self.tok_span(tok))
                args.append(self.atom())
            return cls(*args, span=self.span_from(tok))
        return self.atom()

    def atom(self) -> Term:
        tok = self.peek()
        span = self.tok_span(tok)
        if tok.kind == "NUM":
            self.next()
            return self.numeral(int(tok.text), False, span)
        if tok.kind == "NUMS":
            self.next()
            return self.numeral(int(tok.text), True, span)
        if tok.kind == "IDENT":
            word = tok.text
            if word in ("U", "Us"):
                self.next()
                num = self.peek()
                if num.kind != "NUM":
                    raise self.err(f"{word} expects a universe level")
                self.next()
                sort = S.fibrant(int(num.text)) if word == "U" else S.strict(int(num.text))
                return S.Univ(sort, span=self.span_from(tok))
            if word in _SIMPLE_ATOMS:
                self.next()
                return _SIMPLE_ATOMS[word](span=span)
            if word in _ELIM_ARITY:
                raise fail(D.SYNTAX_ERROR,
                           f"{word} application must be parenthesized here", span)
            if word in ("def", "axiom"):
                raise self.err("unexpected declaration keyword")
            self.next()
            return self.resolve(word, span)
        if tok.kind == "PUNCT" and tok.text == "\\":
            return self.arrow()
        if tok.kind == "PUNCT" and tok.text == "(":
            return self.parens()
        raise self.err("expected a term")

    def numeral(self, n: int, is_strict: bool, span: Span) -> Term:
        t: Term = S.Zero(strict=is_strict, span=span)
        for _ in range(n):
            t = S.Succ(t, strict=is_strict, span=span)
        return t

    def resolve(self, name: str, span: Span) -> Term:
        for i, bound in enumerate(reversed(self.scope)):
            if bound == name:
                return S.Var(i, span=span)
        if name in self.known:
            return S.Const(name, span=span)
        raise fail(D.UNBOUND_VARIABLE, f"unbound identifier {name}", span)

    def parens(self) -> Term:
        start = self.eat("(")
        t = self.term()
        if self.at_punct(":"):
            self.next()
            ty = self.term()
            self.eat(")")
            span = self.span_from(start)
            # ascription (t : A) as an annotated redex
            return S.App(S.Lam(S.Var(0), ann=ty, hint="x"), t, span=span)
        if self.at_punct(","):
            parts = [t]
            while self.at_punct(","):
                self.next()
                parts.append(self.term())
            self.eat(")")
            span = self.span_from(start)
            pair = parts[-1]
            for part in reversed(parts[:-1]):
                pair = S.Pair(part, pair, span=span)
            return pair
        self.eat(")")
        return t

    # -- declarations --

    def declaration(self):
        tok = self.peek()
        if tok.kind == "PRAGMA":
            return self.pragma()
        if self.at_ident("def"):
            self.next()
            name = self.eat_ident().text
            self.eat(":")
            ty = self.term()
            self.eat(":=")
            body = self.term()
            return S.Definition(name, ty, body, span=self.span_from(tok))
        if self.at_ident("axiom"):
            self.next()
            name = self.eat_ident().text
            self.eat(":")
            ty = self.term()
            return S.Axiom(name, ty, span=self.span_from(tok))
        raise self.err("expected a declaration or pragma")

    def pragma(self):
        tok = self.next()
        kind = tok.text[1:]
        if kind == "check":
            t = self.term()
            self.eat(":")
            ty = self.term()
            return S.Pragma(S.CHECK, (t, ty), span=self.span_from(tok))
        if kind == "infer":
            return S.Pragma(S.INFER, (self.term(),), span=self.span_from(tok))
        if kind == "normalize":
            return S.Pragma(S.NORMALIZE, (self.term(),), span=self.span_from(tok))
        if kind == "conv":
            a = self.term()
            self.eat("~")
            b = self.term()
            self.eat(":")
            ty = self.term()
            return S.Pragma(S.CONV, (a, b, ty), span=self.span_from(tok))
        if kind == "fail":
            code = None
            if self.at_punct("["):
                self.next()
                code_tok = self.next()
                if code_tok.kind != "IDENT" or code_tok.text not in D.ALL_CODES:
                    raise fail(D.SYNTAX_ERROR,
                               f"unknown diagnostic code {code_tok.text!r}",
                               self.tok_span(code_tok))
                code = code_tok.text
                self.eat("]")
            try:
                inner = self.declaration()
            except D.CheckError as e:
                # the wrapped item already fails to parse or resolve; record
                # the diagnostic and resynchronize at the next declaration
                self.resync()
                return S.Pragma(S.FAIL, (e.diagnostic,), expect_code=code,
                                span=self.span_from(tok))
            if isinstance(inner, S.Pragma) and inner.kind == S.FAIL:
                raise fail(D.SYNTAX_ERROR, "#fail cannot wrap another #fail",
                           inner.span)
            # a #fail'd declaration never extends the scope: it is expected to
            # be rejected, so later references to its name stay unbound
            return S.Pragma(S.FAIL, (inner,), expect_code=code,
                            span=self.span_from(tok))

    def resync(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind in ("EOF", "PRAGMA"):
                return
            if tok.kind == "IDENT" and tok.text in ("def", "axiom"):
                return
            self.next()

    def module(self) -> S.Module:
        decls = []
        while self.peek().kind != "EOF":
            decl = self.declaration()
            if isinstance(decl, (S.Definition, S.Axiom)):
                self.known.add(decl.name)
            decls.append(decl)
        return S.Module(tuple(decls), self.path)


def parse_module(text: str, path: str,
                 known_names: Sequence[str] = ()) -> S.Module:
    """Parse a whole file; `known_names` seeds the global scope (earlier files)."""
    parser = Parser(tokenize(text, path), path, [], set(known_names))
    return parser.module()


def parse_term(text: str, scope: Optional[Sequence[str]] = None,
               known_names: Sequence[str] = ()) -> Term:
    """Parse a single term; `scope` supplies names for free variables, outermost first."""
    parser = Parser(tokenize(text, "<term>"), "<term>", list(scope or []),
                    set(known_names))
    t = parser.term()
    if parser.peek().kind != "EOF":
        raise parser.err("unexpected trailing input")
    return t
