"""Surface-language parser for `.2lt` files.

A lexer driven by one compiled pattern, then recursive descent with one
function per precedence level.  Names are resolved to de Bruijn indices
here; unbound identifiers are rejected with a span.  Ascriptions
``(t : A)`` desugar to an annotated beta-redex so the core needs no extra
node.

Both passes are linear in the input.  The lexer takes whole whitespace
runs, comments and tokens per match and reads line and column off newline
positions.  The parser never shifts a parsed term: the right side of
``A -> B`` and ``A * B`` is parsed under an anonymous binder, so its free
indices come out displaced already.  It parses a bracket ``( NAME+ : T )``
once, and the token after the closing parenthesis decides between a
binder telescope and an ascription.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple, Optional, Sequence

from tltt import syntax as S
from tltt import diagnostics as D
from tltt.diagnostics import fail
from tltt.syntax import Span, Term


class Token(NamedTuple):
    kind: str  # IDENT NUM NUMS PUNCT PRAGMA EOF
    text: str  # the digits alone for NUMS
    line: int
    col: int
    end_line: int
    end_col: int


# One match per token, after any whitespace and line comments.  Identifier
# characters are `\w` (letters, digits and other numerals, `_`) and `'`;
# numerals are ASCII digits.  A block comment, which nests, is scanned from
# its opening `{-` by `tokenize` itself.
_TOKEN = re.compile(r"""
    (?: [ \t\r\n]+ | --[^\n]* )*
    (?: (?P<NUMS> [0-9]+ ) s (?![\w'])
      | (?P<NUM> [0-9]+ )
      | (?P<IDENT> [A-Za-z_][\w']* )
      | (?P<UIDENT> [^\W0-9][\w']* )
      | (?P<BADSUFFIX> [+=]s [\w'] )
      | (?P<PUNCT> := | -> | [+=]s | [()\\.,:*+=~\[\]] )
      | (?P<PRAGMA> \#(?:check|infer|normalize|conv|fail) )
      | (?P<BLOCK> \{- )
      | (?P<EOF> \Z )
      | (?P<BAD> . )
    )""", re.VERBOSE | re.DOTALL)


_TOKEN_KINDS = frozenset({"NUMS", "NUM", "IDENT", "PUNCT", "PRAGMA"})


def tokenize(text: str, path: str) -> list[Token]:
    """The tokens of `text`, ending with EOF; a bad character is a SyntaxError."""
    toks: list[Token] = []
    append = toks.append
    n = len(text)
    # the current line, the offset of its first character, and of its end
    line, line_start = 1, 0
    next_nl = text.find("\n") % (n + 1)  # n when there is no newline

    def err(msg: str, at: int) -> D.CheckError:
        col = at - line_start + 1
        return fail(D.SYNTAX_ERROR, msg, Span(path, line, col, line, col + 1))

    pos = 0
    while True:
        # a block comment ends the inner loop; scanning resumes after it
        for m in _TOKEN.finditer(text, pos):
            kind = m.lastgroup
            start = m.start(kind)
            while next_nl < start:
                line += 1
                line_start = next_nl + 1
                next_nl = text.find("\n", line_start) % (n + 1)
            if kind in _TOKEN_KINDS:
                append(Token(kind, m.group(kind), line, start - line_start + 1,
                             line, m.end() - line_start + 1))
            elif kind == "UIDENT":
                if not text[start].isalpha():
                    raise err(f"unexpected character {text[start]!r}", start)
                append(Token("IDENT", m.group(kind), line, start - line_start + 1,
                             line, m.end() - line_start + 1))
            elif kind == "BLOCK":
                break
            elif kind == "EOF":
                col = start - line_start + 1
                append(Token("EOF", "", line, col, line, col))
                return toks
            elif kind == "BADSUFFIX":
                # '=s' / '+s' only when not the prefix of an identifier
                raise err(f"bad token {m.group(kind)}", start + 2)
            elif text[start] == "#":
                raise err("unknown pragma", start)
            elif text[start] == "-":
                raise err("stray '-' (use '-- ' for comments, '->' for arrows)", start)
            else:
                raise err(f"unexpected character {text[start]!r}", start)
        depth, pos = 1, m.end()
        while depth:
            opening, closing = text.find("{-", pos), text.find("-}", pos)
            if closing < 0:
                nl = text.rfind("\n", start)
                raise fail(D.SYNTAX_ERROR, "unterminated block comment",
                           Span(path, line, start - line_start + 1,
                                line + text.count("\n", start),
                                n - (nl + 1 if nl >= 0 else line_start) + 1))
            if 0 <= opening < closing:
                depth, pos = depth + 1, opening + 2
            else:
                depth, pos = depth - 1, closing + 2


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


class _Binder(NamedTuple):
    """A bracket ``( NAME+ : dom )`` at the start of an arrow or product,
    followed by ``->`` or ``*``: the domain of a binder telescope, handed up
    to `Parser.prod`, which parses the body."""
    names: list[str]
    dom: Term


class Parser:
    def __init__(self, toks: list[Token], path: str, scope: Sequence[str],
                 known: set[str]):
        self.toks = toks
        self.pos = 0
        self.path = path
        self.scope: list[Optional[str]] = []  # innermost binder last; None if anonymous
        self.levels: dict[str, list[int]] = {}  # name -> its positions in scope
        for name in scope:
            self.bind(name)
        self.known = known  # declared global names
        self.binder_at = -1  # token index where a binder telescope may start

    # -- token plumbing --

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.toks[self.pos]
        return tok.text == text and tok.kind == "PUNCT"

    def at_ident(self, text: str) -> bool:
        tok = self.toks[self.pos]
        return tok.text == text and tok.kind == "IDENT"

    def eat(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.err(f"expected {text!r}")
        return self.next()

    def eat_ident(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "IDENT" or tok.text in _KEYWORDS:
            raise self.err("expected an identifier")
        return self.next()

    def err(self, msg: str) -> D.CheckError:
        tok = self.toks[self.pos]
        got = tok.text or "end of input"
        return fail(D.SYNTAX_ERROR, f"{msg}, got {got!r}", self.tok_span(tok))

    def tok_span(self, tok: Token) -> Span:
        return Span(self.path, tok.line, tok.col, tok.end_line, tok.end_col)

    def span_from(self, start: Token) -> Span:
        prev = self.toks[self.pos - 1]  # `start` at the latest
        return Span(self.path, start.line, start.col, prev.end_line, prev.end_col)

    # -- terms --
    #
    # Binders are pushed on `scope` and popped without `finally`: the two
    # places that catch a CheckError and go on (`typed_bracket`, `#fail`)
    # cut `scope` back to its length before the failed parse.

    def bind(self, name: Optional[str]) -> None:
        if name is not None:
            self.levels.setdefault(name, []).append(len(self.scope))
        self.scope.append(name)

    def unbind(self, count: int) -> None:
        scope, levels = self.scope, self.levels
        for _ in range(count):
            name = scope.pop()
            if name is not None:
                levels[name].pop()

    def term(self) -> Term:
        return self.arrow()

    def arrow(self) -> Term:
        """A right-nested chain ``A -> B -> ... -> Z``, parsed in a loop; each
        domain is an anonymous binder over the rest of the chain."""
        starts, doms = [], []
        while True:
            start = self.toks[self.pos]
            if start.text == "\\" and start.kind == "PUNCT":
                t = self.lam()
                break
            t = self.prod(arrow_binder=True)
            if not self.at_punct("->"):
                break
            self.pos += 1
            starts.append(start)
            doms.append(t)
            self.bind(None)
        if doms:
            self.unbind(len(doms))
            end = self.toks[self.pos - 1]
            for start, dom in zip(reversed(starts), reversed(doms)):
                t = S.Pi(dom, t, span=Span(self.path, start.line, start.col,
                                           end.end_line, end.end_col))
        return t

    def lam(self) -> Term:
        start = self.next()
        name = self.eat_ident().text
        self.eat(".")
        self.bind(name)
        body = self.arrow()
        self.unbind(1)
        return S.Lam(body, hint=name, span=self.span_from(start))

    def prod(self, arrow_binder: bool = False) -> Term:
        """A right-nested chain ``A * B * ... * Z``, parsed like `arrow`.  A
        binder telescope is a factor too; ``(x : A) -> B`` only where an
        arrow may stand (`arrow_binder`) and in the first factor."""
        starts, factors = [], []
        while True:
            start = self.toks[self.pos]
            self.binder_at = self.pos
            t = self.eq()
            if type(t) is _Binder:
                t = self.binder(t, start, arrow_binder and not factors)
                break
            if not self.at_punct("*"):
                break
            self.pos += 1
            starts.append(start)
            factors.append(t)
            self.bind(None)
        if factors:
            self.unbind(len(factors))
            end = self.toks[self.pos - 1]
            for start, fst in zip(reversed(starts), reversed(factors)):
                t = S.Sigma(fst, t, span=Span(self.path, start.line, start.col,
                                              end.end_line, end.end_col))
        return t

    def binder(self, b: _Binder, start: Token, arrow_ok: bool) -> Term:
        """The body after ``( NAME+ : dom )`` and its ``->`` or ``*``."""
        connective = self.next().text
        names = b.names
        for name in names:
            self.bind(name)
        body = self.arrow() if connective == "->" else self.prod()
        self.unbind(len(names))
        span = self.span_from(start)
        if connective == "->" and not arrow_ok:
            raise fail(D.SYNTAX_ERROR, "arrow binder needs parentheses here", span)
        mk = S.Pi if connective == "->" else S.Sigma
        for k in range(len(names) - 1, -1, -1):
            dom = S.shift(b.dom, k) if k else b.dom
            body = mk(dom, body, hint=names[k], span=span)
        return body

    def eq(self) -> Term:
        start = self.toks[self.pos]
        lhs = self.sum()
        tok = self.toks[self.pos]
        if tok.kind == "PUNCT" and tok.text in _EQUALITIES:
            self.pos += 1
            rhs = self.sum()
            return S.Id(None, lhs, rhs, strict=_EQUALITIES[tok.text],
                        span=self.span_from(start))
        return lhs

    def sum(self) -> Term:
        start = self.toks[self.pos]
        lhs = self.app()
        tok = self.toks[self.pos]
        if tok.kind == "PUNCT" and tok.text in _SUMS:
            self.pos += 1
            rhs = self.sum()
            return S.Sum(lhs, rhs, strict=_SUMS[tok.text], span=self.span_from(start))
        return lhs

    def starts_atom(self) -> bool:
        tok = self.toks[self.pos]
        kind = tok.kind
        if kind == "IDENT":
            return tok.text != "def" and tok.text != "axiom"
        if kind == "PUNCT":
            return tok.text == "(" or tok.text == "\\"
        return kind == "NUM" or kind == "NUMS"

    def app(self) -> Term:
        start = self.toks[self.pos]
        head = self.head_or_atom()
        while self.starts_atom():
            head = S.App(head, self.atom(), span=self.span_from(start))
        return head

    def head_or_atom(self) -> Term:
        tok = self.toks[self.pos]
        if tok.kind == "IDENT" and tok.text in _ELIM_ARITY:
            self.pos += 1
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
        tok = self.toks[self.pos]
        kind = tok.kind
        if kind == "IDENT":
            word = tok.text
            if word not in _KEYWORDS:
                self.pos += 1
                return self.resolve(word, self.tok_span(tok))
            if word in ("U", "Us"):
                self.pos += 1
                num = self.toks[self.pos]
                if num.kind != "NUM":
                    raise self.err(f"{word} expects a universe level")
                self.pos += 1
                sort = S.fibrant(int(num.text)) if word == "U" else S.strict(int(num.text))
                return S.Univ(sort, span=self.span_from(tok))
            if word in _SIMPLE_ATOMS:
                self.pos += 1
                return _SIMPLE_ATOMS[word](span=self.tok_span(tok))
            if word in _ELIM_ARITY:
                raise fail(D.SYNTAX_ERROR,
                           f"{word} application must be parenthesized here",
                           self.tok_span(tok))
            raise self.err("unexpected declaration keyword")
        if kind == "PUNCT":
            if tok.text == "(":
                return self.parens()
            if tok.text == "\\":
                return self.arrow()
        if kind == "NUM" or kind == "NUMS":
            self.pos += 1
            return self.numeral(int(tok.text), kind == "NUMS", self.tok_span(tok))
        raise self.err("expected a term")

    def numeral(self, n: int, is_strict: bool, span: Span) -> Term:
        t: Term = S.Zero(strict=is_strict, span=span)
        for _ in range(n):
            t = S.Succ(t, strict=is_strict, span=span)
        return t

    def resolve(self, name: str, span: Span) -> Term:
        levels = self.levels.get(name)
        if levels:
            return S.Var(len(self.scope) - 1 - levels[-1], span=span)
        if name in self.known:
            return S.Const(name, span=span)
        raise fail(D.UNBOUND_VARIABLE, f"unbound identifier {name}", span)

    def parens(self):
        """A parenthesized term, pair or ascription; at `binder_at`, also the
        domain of a binder telescope, returned as a `_Binder`."""
        binder_ok = self.pos == self.binder_at
        start = self.next()
        names = []
        while (tok := self.toks[self.pos]).kind == "IDENT" and tok.text not in _KEYWORDS:
            names.append(tok)
            self.pos += 1
        if names and self.at_punct(":"):
            self.pos += 1
            return self.typed_bracket(start, names, binder_ok)
        self.pos -= len(names)
        t = self.term()
        if self.at_punct(":"):
            self.pos += 1
            ty = self.term()
            self.eat(")")
            return self.ascription(start, t, ty)
        if self.at_punct(","):
            parts = [t]
            while self.at_punct(","):
                self.pos += 1
                parts.append(self.term())
            self.eat(")")
            span = self.span_from(start)
            pair = parts[-1]
            for part in reversed(parts[:-1]):
                pair = S.Pair(part, pair, span=span)
            return pair
        self.eat(")")
        return t

    def typed_bracket(self, start: Token, names: list[Token], binder_ok: bool):
        """After ``( NAME+ :``, parse the type once.  Followed by ``)`` and,
        at `binder_at`, by ``->`` or ``*``, it is a binder's domain;
        otherwise the names are the applied term of an ascription, and they
        are resolved before any error in the type or a missing ``)`` is
        reported, as if the ascription had been read left to right."""
        depth = len(self.scope)
        try:
            ty = self.term()
        except D.CheckError:
            self.unbind(len(self.scope) - depth)
            self.applied(names)
            raise
        if not self.at_punct(")"):
            self.applied(names)
            raise self.err("expected ')'")
        self.pos += 1
        after = self.toks[self.pos]
        if binder_ok and after.kind == "PUNCT" and after.text in ("->", "*"):
            return _Binder([tok.text for tok in names], ty)
        return self.ascription(start, self.applied(names), ty)

    def applied(self, names: list[Token]) -> Term:
        """``a b c`` as a term: the first name applied to the others."""
        first = names[0]
        head = self.resolve(first.text, self.tok_span(first))
        for tok in names[1:]:
            head = S.App(head, self.resolve(tok.text, self.tok_span(tok)),
                         span=Span(self.path, first.line, first.col,
                                   tok.end_line, tok.end_col))
        return head

    def ascription(self, start: Token, t: Term, ty: Term) -> Term:
        """``(t : ty)``, its ``)`` eaten, as an annotated redex."""
        return S.App(S.Lam(S.Var(0), ann=ty, hint="x"), t, span=self.span_from(start))

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
                code_tok = self.peek()
                if code_tok.kind != "EOF":
                    self.pos += 1  # taken even if unknown: a `#fail` resyncs after it
                if code_tok.kind != "IDENT" or code_tok.text not in D.ALL_CODES:
                    raise fail(D.SYNTAX_ERROR,
                               f"unknown diagnostic code {code_tok.text!r}",
                               self.tok_span(code_tok))
                code = code_tok.text
                self.eat("]")
            depth = len(self.scope)
            try:
                inner = self.declaration()
            except D.CheckError as e:
                # the wrapped item already fails to parse or resolve; record
                # the diagnostic and resynchronize at the next declaration
                self.unbind(len(self.scope) - depth)
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
