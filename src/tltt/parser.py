"""Surface-language parser for `.2lt` files.

The lexer first blanks the comments: it replaces each with spaces and
keeps its newlines, so that every token keeps its offset, line and column.
Then one regular-expression pass over the whole text fills parallel
arrays: the text of each token, and its line, column and end column.  It
builds no object per token; `tokenize` turns the arrays into `Token`s for
callers that want them.  The parser indexes the arrays and dispatches on
token text.  Names are resolved to de Bruijn indices here; unbound
identifiers are rejected with a span.  An ascription ``(t : A)`` is one
``Ann`` node.

One loop, `Parser.term`, parses every precedence level of a term: lambda
binders, then a right-nested chain of arrows over right-nested chains of
products, over equations, sums and applications of atoms.  Each level's
unfinished left operands wait in a list of that loop, and the operator
after an application decides how many of them are complete.  Only a
parenthesized term and a lambda in argument position call `term` again,
so one level of nesting costs one Python frame.

The blanking pass, the tokenizing pass and the parse are each linear in
the input, except for one copy.  A telescope ``(x y ... : A)`` of k names
binds each name to its own copy of ``A``, and each copy after the first is
parsed again from ``A``'s tokens, under one more anonymous binder than the
copy before it, so the telescope costs O(k·|A|).  The parser never rewrites
a term it has built: the right side of ``A -> B`` and ``A * B`` is parsed
under an anonymous binder too, so every free index comes out displaced
already.  It parses a bracket ``( NAME+ : T )`` once, and the token after
the closing parenthesis decides between a binder telescope and an
ascription.
"""

from __future__ import annotations

import re
import sys
from functools import partial
from itertools import accumulate, count, repeat
from operator import add, sub
from typing import NamedTuple, Optional, Sequence

from tltt import syntax as S
from tltt import diagnostics as D
from tltt.diagnostics import fail
from tltt.syntax import Span, Term, TermSpan


class Token(NamedTuple):
    kind: str  # IDENT NUM NUMS PUNCT PRAGMA EOF
    text: str  # the digits alone for NUMS
    line: int
    col: int
    end_line: int
    end_col: int


# One match per token, with the whitespace before it; comments are blanked
# to spaces before this runs.  Identifier characters are `\w` (letters,
# digits and other numerals, `_`) and `'`; numerals are ASCII digits.  The
# last line matches what is not a token: an identifier that starts with a
# non-ASCII character (a token if that character is a letter), `=s`/`+s`
# glued to a name, and any other character.
_PIECE = re.compile(r"""
    [ \t\r\n]*
    (?: [A-Za-z_][\w']* | [()\\.,*~\[\]] | -> | :=?
      | [0-9]+ s (?![\w']) | [0-9]+
      | [+=]s (?![\w']) | [+=] (?! s[\w'] )
      | \#(?:check|infer|normalize|conv|fail)
      | \Z
      | [^\W0-9][\w']* | [+=]s[\w'] | . )""", re.VERBOSE | re.DOTALL)

_WHITESPACE = " \t\r\n"

# A line comment, to the end of its line, or the start of a block comment;
# without DOTALL, `.` matches every character but a newline.
_COMMENT = re.compile(r"--.*|\{-")
_NOT_NEWLINE = re.compile(".")

_PUNCT = frozenset({":=", "->", "=s", "+s", "(", ")", "\\", ".", ",", ":", "*", "+",
                    "=", "~", "[", "]"})
_PRAGMAS = frozenset({"#check", "#infer", "#normalize", "#conv", "#fail"})


def _is_token(text: str) -> bool:
    """Whether a piece's text is a token, not an error."""
    return (text in _PUNCT or text in _PRAGMAS or not text or text[0] in "0123456789_"
            or text[0].isalpha())


def _blank_comments(text: str, path: str) -> str:
    """`text` with each comment replaced by spaces, its newlines kept, so
    that every token keeps its offset, line and column.  Comments are found
    in source order: ``--`` runs to the end of its line, and ``{-`` to its
    matching ``-}``.  Block comments nest, and inside one only ``{-`` and
    ``-}`` count."""
    parts: list[str] = []
    pos = 0  # text[:pos] is in `parts`
    while (comment := _COMMENT.search(text, pos)) is not None:
        start, end = comment.span()
        depth = int(comment.group() == "{-")  # 0: a line comment ends where it matched
        while depth:
            opening, closing = text.find("{-", end), text.find("-}", end)
            if closing < 0:
                _scan("".join(parts) + text[pos:start], path)  # a bad character first
                raise fail(D.SYNTAX_ERROR, "unterminated block comment", Span(
                    path, text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start),
                    text.count("\n") + 1, len(text) - text.rfind("\n")))
            if 0 <= opening < closing:
                depth, end = depth + 1, opening + 2
            else:
                depth, end = depth - 1, closing + 2
        parts += text[pos:start], _NOT_NEWLINE.sub(" ", text[start:end])
        pos = end
    parts.append(text[pos:])
    return "".join(parts)


def _scan(text: str, path: str):
    """The tokens of `text`, ending with the empty EOF token, as four
    parallel lists: text, line, column and end column (1-based, the end
    exclusive).  A character that starts no token is a SyntaxError."""
    if "--" in text or "{-" in text:
        text = _blank_comments(text, path)
    # base[line] is the offset just before that line's first character
    base = [0, -1, *map(add, accumulate(map(len, text.split("\n"))), count())]
    pieces = _PIECE.findall(text)
    texts = list(map(str.lstrip, pieces, repeat(_WHITESPACE)))
    if len(texts) > 1 and not texts[-2]:
        del pieces[-1], texts[-1]  # `\Z` matched again after trailing whitespace
    ends = list(accumulate(map(len, pieces)))  # offsets, the end exclusive
    if "\n" in text:
        lines = list(accumulate(map(str.count, pieces, repeat("\n")), initial=1))
        del lines[0]
    else:
        lines = [1] * len(pieces)
    del pieces
    bad = [word for word in set(texts) if not _is_token(word)]
    if bad:
        at = min(map(texts.index, bad))
        raise _bad_token(texts[at], path, lines[at],
                         ends[at] - len(texts[at]) - base[lines[at]])
    end_cols = list(map(sub, ends, map(base.__getitem__, lines)))
    cols = list(map(sub, end_cols, map(len, texts)))
    return texts, lines, cols, end_cols


def _bad_token(word: str, path: str, line: int, col: int) -> D.CheckError:
    """The SyntaxError for a piece that is not a token."""
    def err(msg: str, col: int = col) -> D.CheckError:
        return fail(D.SYNTAX_ERROR, msg, Span(path, line, col, line, col + 1))

    if word[0] in "+=":
        return err(f"bad token {word}", col + 2)
    if word == "#":
        return err("unknown pragma")
    if word == "-":
        return err("stray '-' (use '-- ' for comments, '->' for arrows)")
    return err(f"unexpected character {word[0]!r}")


def _token_kind(text: str) -> str:
    if not text:
        return "EOF"
    if text[0].isdigit():
        return "NUMS" if text[-1] == "s" else "NUM"
    if text in _PRAGMAS:
        return "PRAGMA"
    return "PUNCT" if text in _PUNCT else "IDENT"


def _shown(text: str) -> str:
    """A token's text as `Token.text` and diagnostics give it: the digits
    alone for a strict numeral."""
    return text[:-1] if text[-1:] == "s" and text[:1].isdigit() else text


def tokenize(text: str, path: str) -> list[Token]:
    """The tokens of `text`, ending with EOF; a bad character is a SyntaxError."""
    texts, lines, cols, end_cols = _scan(text, path)
    return list(map(Token, map(_token_kind, texts), map(_shown, texts), lines, cols,
                    lines, end_cols))


def _eliminator(former: type, strict: bool, *args: Term, span: TermSpan) -> Term:
    return S.Elim(former, args[:-1], args[-1], strict=strict, span=span)


def _word_tables(strong: bool):
    """What the words of `S.KEYWORDS` and `S.ELIMINATORS` build: eliminators
    and formers applied to arguments, with their arity (the number of term
    fields, or of an eliminator's motive, cases and scrutinees); atoms; and
    the strict flag of each sum connective.  Strong mode identifies the
    strict naturals, empty type and sums with the fibrant ones, so there
    their words build the fibrant former; strict equality stays apart."""
    elims, atoms = {}, {}
    for cls, (word, mark) in S.KEYWORDS.items():
        words = {word: cls}
        if mark is not None:
            merged = strong and cls not in S.KEPT_APART
            words[word + mark] = cls if merged else partial(cls, strict=True)
        arity = len(cls._children)
        if arity:
            elims.update((w, (build, arity)) for w, build in words.items())
        else:
            atoms.update(words)
    for (former, strict), row in S.ELIMINATORS.items():
        strict = strict and not (strong and former not in S.KEPT_APART)
        elims[row.word] = (partial(_eliminator, former, strict),
                           1 + len(row.cases) + len(row.telescope))
    return elims, atoms, {"+": False, "+s": not strong}


_WORDS = {strong: _word_tables(strong) for strong in (False, True)}

# What a token does where an atom may stand.  A token not listed is a name
# or, if it starts with a digit, a numeral.
_PAREN, _LAMBDA, _UNIV, _SIMPLE, _ELIM, _DECL, _STOP = range(7)  # _DECL, _STOP last
_ROLE = {
    "(": _PAREN, "\\": _LAMBDA, "U": _UNIV, "Us": _UNIV, "def": _DECL, "axiom": _DECL,
    **dict.fromkeys(_WORDS[False][1], _SIMPLE), **dict.fromkeys(_WORDS[False][0], _ELIM),
    **dict.fromkeys(_PUNCT - {"(", "\\"} | _PRAGMAS | {""}, _STOP),
}

# infix connective -> strict flag
_EQUALITIES = {"=": False, "=s": True}

# the separators between the terms of each pragma but `#fail`
_SEPARATORS = {S.CHECK: (":",), S.INFER: (), S.NORMALIZE: (), S.CONV: ("~", ":")}


def _is_name(text: str) -> bool:
    return text not in _ROLE and text[0] > "9"


class _Binder(NamedTuple):
    """A bracket ``( NAME+ : dom )`` at the start of an arrow or product,
    followed by ``->`` or ``*``: the domain of each name of a binder
    telescope, each under the names before it, handed back to
    `Parser.term`, which parses the body."""
    names: list[str]
    doms: list[Term]


class Parser:
    def __init__(self, text: str, path: str, scope: Sequence[str], known: set[str],
                 strong: bool = False):
        self.texts, self.lines, self.cols, self.end_cols = _scan(text, path)
        self.strong = strong
        self.elims, self.atoms, self.sum_ops = _WORDS[strong]
        self.pos = 0
        self.path = path
        self.scope: list[Optional[str]] = []  # innermost binder last; None if anonymous
        self.levels: dict[str, list[int]] = {}  # name -> its positions in scope
        for name in scope:
            self.bind(name)
        self.known = known  # declared global names

    # -- token plumbing --

    def eat(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self.err(f"expected {text!r}")
        self.pos += 1

    def eat_ident(self) -> str:
        word = self.texts[self.pos]
        if not _is_name(word):
            raise self.err("expected an identifier")
        self.pos += 1
        return word

    def err(self, msg: str) -> D.CheckError:
        got = _shown(self.texts[self.pos]) or "end of input"
        return fail(D.SYNTAX_ERROR, f"{msg}, got {got!r}", self.span(self.pos, self.pos))

    def span(self, first: int, last: int) -> TermSpan:
        """From the start of token `first` to the end of token `last`, as the
        plain tuple a term keeps."""
        lines = self.lines
        return (self.path, lines[first], self.cols[first], lines[last], self.end_cols[last])

    def decl_span(self, start: int) -> Span:
        """From token `start` to the last token read, as the `Span` a
        declaration keeps."""
        return Span._make(self.span(start, self.pos - 1))

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
        """A term, up to the first token that cannot continue it.

        The loop parses one application per pass and then reads the
        operator after it.  Unfinished operands wait in `binders` (lambdas
        and arrow domains, over the rest of the term), `factors` (of the
        current product), `equation` and `sums`, each with its first token;
        an operator finishes every operand that binds tighter than itself,
        and the end of the term finishes them all.  The position is kept in
        `pos` and handed to `self.pos` around each call that reads tokens."""
        texts, lines, cols, end_cols = self.texts, self.lines, self.cols, self.end_cols
        path, atoms, elims, sum_ops = self.path, self.atoms, self.elims, self.sum_ops
        binders: list[tuple] = []  # (first token, domain(s) or None for a lambda, names)
        factors: list[tuple] = []  # (first token, first factor or domains, names)
        sums: list[tuple] = []  # (first token, left summand, strict)
        equation = None  # (first token, left side, strict)
        pos = self.pos
        arrow_start = True
        while True:
            if arrow_start:
                # a lambda here binds over the rest of the term
                while texts[pos] == "\\":
                    self.pos = pos + 1
                    name = self.eat_ident()
                    self.eat(".")
                    self.bind(name)
                    binders.append((pos, None, (name,)))
                    pos = self.pos
                arrow_start = False
                operand_start = factor_start = pos

            # one application: a head and its arguments
            app_start = pos
            head = None
            elim = None  # (token, constructor, arity, arguments) while collecting
            while True:
                word = texts[pos]
                role = _ROLE.get(word)
                if role is None:  # a name or a numeral
                    atom = self.resolve(pos) if word[0] > "9" else self.numeral(pos)
                    pos += 1
                elif role >= _DECL:  # not an atom: the application ends here
                    self.pos = pos
                    if elim is not None:
                        first, _, arity, args = elim
                        raise fail(D.SYNTAX_ERROR,
                                   f"{texts[first]} expects {arity} arguments, got {len(args)}",
                                   self.span(first, first))
                    if head is None:
                        raise self.err("unexpected declaration keyword" if role == _DECL
                                       else "expected a term")
                    break
                elif role == _PAREN:
                    end = pos + 1
                    while _is_name(texts[end]):
                        end += 1
                    if end > pos + 1 and texts[end] == ":":
                        # ( NAME+ : ...: a telescope's domain or an ascription
                        self.pos = end + 1
                        atom = self.typed_bracket(pos, range(pos + 1, end), pos == factor_start)
                        if type(atom) is _Binder:
                            head = atom
                            pos = self.pos
                            break
                    else:
                        self.pos = pos + 1
                        atom = self.term()
                        if texts[self.pos] == ")":
                            self.pos += 1
                        else:
                            atom = self.bracket_rest(pos, atom)
                    pos = self.pos
                elif role == _LAMBDA:  # a term of its own, which the lambda ends
                    self.pos = pos
                    atom = self.term()
                    pos = self.pos
                elif role == _SIMPLE:
                    atom = atoms[word](span=self.span(pos, pos))
                    pos += 1
                elif role == _UNIV:
                    if not texts[pos + 1].isdigit():
                        self.pos = pos + 1
                        raise self.err(f"{word} expects a universe level")
                    # a level short of the digits `int` and `str` convert,
                    # so that `level + 1` can always be printed
                    digits = texts[pos + 1].lstrip("0") or "0"
                    limit = sys.get_int_max_str_digits()  # 0 for no limit
                    if limit and len(digits) >= limit:
                        raise fail(D.RESOURCE_EXHAUSTED,
                                   f"universe level of {limit} digits or more",
                                   self.span(pos + 1, pos + 1))
                    atom = S.Univ(int(digits), strict=word == "Us",
                                  span=self.span(pos, pos + 1))
                    pos += 2
                elif head is None and elim is None:  # an eliminator
                    cls, arity = elims[word]
                    elim = (pos, cls, arity, [])
                    pos += 1
                    continue
                else:
                    raise fail(D.SYNTAX_ERROR, f"{word} application must be parenthesized here",
                               self.span(pos, pos))
                if head is None and elim is None:
                    head = atom
                elif elim is None:
                    last = pos - 1
                    head = S.App(head, atom, span=(path, lines[app_start], cols[app_start],
                                                   lines[last], end_cols[last]))
                else:
                    first, cls, arity, args = elim
                    args.append(atom)
                    if len(args) == arity:
                        head = cls(*args, span=self.span(first, pos - 1))
                        elim = None

            if type(head) is _Binder:
                # a telescope ( NAME+ : dom ) -> ... or ( NAME+ : dom ) * ...
                connective = texts[pos]
                self.pos = pos = pos + 1
                if connective == "->" and factors:
                    self.telescope_in_product(head, factor_start)
                for name in head.names:
                    self.bind(name)
                if connective == "->":
                    binders.append((factor_start, head.doms, head.names))
                    arrow_start = True
                else:
                    factors.append((factor_start, head.doms, head.names))
                    factor_start = pos
                continue

            op = texts[pos]
            if op in sum_ops:
                sums.append((app_start, head, sum_ops[op]))
                pos += 1
                continue
            last = pos - 1
            while sums:
                first, lhs, strict = sums.pop()
                head = S.Sum(lhs, head, strict=strict, span=self.span(first, last))
            if equation is None:
                if op in _EQUALITIES:
                    equation = (factor_start, head, _EQUALITIES[op])
                    pos += 1
                    continue
            else:
                first, lhs, strict = equation
                head = S.Id(None, lhs, head, strict=strict, span=self.span(first, last))
                equation = None
            if op == "*":
                factors.append((factor_start, head, None))
                self.bind(None)
                pos += 1
                factor_start = pos
                continue
            while factors:
                first, fst, names = factors.pop()
                head = self.close(S.Sigma, fst, head, names, self.span(first, last))
            if op == "->":
                binders.append((operand_start, head, None))
                self.bind(None)
                pos += 1
                arrow_start = True
                continue
            while binders:
                first, dom, names = binders.pop()
                span = self.span(first, last)
                if dom is None:
                    self.unbind(1)
                    head = S.Lam(head, hint=names[0], span=span)
                else:
                    head = self.close(S.Pi, dom, head, names, span)
            self.pos = pos
            return head

    def close(self, former, dom, body: Term, names, span: TermSpan) -> Term:
        """`former` (Pi or Sigma) over `body`, for each of the binder's names
        over its domain in the list `dom` (one anonymous binder over the
        domain `dom` if `names` is None); unbinds them."""
        if names is None:
            self.unbind(1)
            return former(dom, body, span=span)
        self.unbind(len(names))
        for k in range(len(names) - 1, -1, -1):
            body = former(dom[k], body, hint=names[k], span=span)
        return body

    def telescope_in_product(self, b: _Binder, start: int) -> None:
        """``A * (x : B) -> C`` is an error, reported after the arrow's body,
        which is parsed under the telescope's names for errors of its own."""
        for name in b.names:
            self.bind(name)
        self.term()
        self.unbind(len(b.names))
        raise fail(D.SYNTAX_ERROR, "arrow binder needs parentheses here",
                   self.span(start, self.pos - 1))

    def numeral(self, at: int) -> Term:
        """The numeral at token `at`, as `succ` applied to zero; every node
        gets the token's span.  A strict numeral is fibrant in strong mode."""
        word, span = self.texts[at], self.span(at, at)
        digits = word.rstrip("s").lstrip("0") or "0"
        is_strict = word[-1] == "s" and not self.strong
        if len(digits) > 9 or int(digits) > D.RECURSION_LIMIT:
            # its unary form needs a frame per `succ` wherever it is checked
            raise fail(D.RESOURCE_EXHAUSTED,
                       f"numeral above the recursion limit {D.RECURSION_LIMIT}", span)
        t: Term = S.Zero(strict=is_strict, span=span)
        for _ in range(int(digits)):
            t = S.Succ(t, strict=is_strict, span=span)
        return t

    def resolve(self, at: int) -> Term:
        """The name at token `at`: a bound variable or a declared constant."""
        name, span = self.texts[at], self.span(at, at)
        levels = self.levels.get(name)
        if levels:
            return S.Var(len(self.scope) - 1 - levels[-1], span=span)
        if name in self.known:
            return S.Const(name, span=span)
        raise fail(D.UNBOUND_VARIABLE, f"unbound identifier {name}", span)

    def bracket_rest(self, start: int, t: Term) -> Term:
        """The rest of ``( t : ty )`` or ``( t, u, ... )`` after `t`."""
        texts = self.texts
        if texts[self.pos] == ":":
            self.pos += 1
            ty = self.term()
            self.eat(")")
            return S.Ann(t, ty, span=self.span(start, self.pos - 1))
        parts = [t]
        while texts[self.pos] == ",":
            self.pos += 1
            parts.append(self.term())
        self.eat(")")
        span = self.span(start, self.pos - 1)
        pair = parts[-1]
        for part in reversed(parts[:-1]):
            pair = S.Pair(part, pair, span=span)
        return pair

    def typed_bracket(self, start: int, names: range, binder_ok: bool):
        """After ``( NAME+ :``, parse the type once.  Followed by ``)`` and,
        if `binder_ok`, by ``->`` or ``*``, it is a binder's domain, parsed
        again for each later name under one more anonymous binder, and never
        under the names themselves; otherwise the names are the applied term
        of an ascription, and they are resolved before any error in the type
        or a missing ``)`` is reported, as if the ascription had been read
        left to right."""
        depth = len(self.scope)
        try:
            ty = self.term()
        except D.CheckError:
            self.unbind(len(self.scope) - depth)
            self.applied(names)
            raise
        if self.texts[self.pos] != ")":
            self.applied(names)
            raise self.err("expected ')'")
        self.pos += 1
        if binder_ok and self.texts[self.pos] in ("->", "*"):
            after, doms = self.pos, [ty]
            for _ in names[1:]:
                self.bind(None)
                self.pos = names.stop + 1  # the type's first token
                doms.append(self.term())
            self.unbind(len(names) - 1)
            self.pos = after
            return _Binder([self.texts[at] for at in names], doms)
        return S.Ann(self.applied(names), ty, span=self.span(start, self.pos - 1))

    def applied(self, names: range) -> Term:
        """``a b c`` as a term: the first name applied to the others."""
        first = names[0]
        head = self.resolve(first)
        for at in names[1:]:
            head = S.App(head, self.resolve(at), span=self.span(first, at))
        return head

    # -- declarations --

    def declaration(self):
        start = self.pos
        word = self.texts[start]
        if word in _PRAGMAS:
            return self.pragma()
        if word not in ("def", "axiom"):
            raise self.err("expected a declaration or pragma")
        self.pos += 1
        name = self.eat_ident()
        self.eat(":")
        ty = self.term()
        if word == "axiom":
            return S.Declaration(name, ty, span=self.decl_span(start))
        self.eat(":=")
        body = self.term()
        return S.Declaration(name, ty, body, span=self.decl_span(start))

    def pragma(self):
        start = self.pos
        self.pos += 1
        kind = self.texts[start][1:]
        separators = _SEPARATORS.get(kind)
        if separators is not None:
            terms = [self.term()]
            for separator in separators:
                self.eat(separator)
                terms.append(self.term())
            return S.Pragma(kind, tuple(terms), span=self.decl_span(start))
        # #fail
        code = None
        if self.texts[self.pos] == "[":
            self.pos += 1
            at = self.pos
            code = self.texts[at]
            if not _is_name(code):
                raise self.err("expected a diagnostic code")
            self.pos += 1  # taken even if unknown: a `#fail` resyncs after it
            if code not in D.ALL_CODES:
                raise fail(D.SYNTAX_ERROR, f"unknown diagnostic code {code!r}",
                           self.span(at, at))
            self.eat("]")
        if not self.texts[self.pos]:  # nothing to wrap: an error of the file
            raise self.err("expected a declaration or pragma")
        depth = len(self.scope)
        try:
            inner = self.declaration()
        except D.CheckError as e:
            if e.diagnostic.code == D.RESOURCE_EXHAUSTED:
                raise  # not a verdict on the item, as for a RecursionError
            # the wrapped item already fails to parse or resolve; record
            # the diagnostic and resynchronize at the next declaration
            self.unbind(len(self.scope) - depth)
            self.resync()
            return S.Pragma(S.FAIL, (e.diagnostic,), expect_code=code,
                            span=self.decl_span(start))
        if isinstance(inner, S.Pragma) and inner.kind == S.FAIL:
            raise fail(D.SYNTAX_ERROR, "#fail cannot wrap another #fail", inner.span)
        # a #fail'd declaration never extends the scope: it is expected to
        # be rejected, so later references to its name stay unbound
        return S.Pragma(S.FAIL, (inner,), expect_code=code, span=self.decl_span(start))

    def resync(self) -> None:
        texts = self.texts
        while texts[self.pos] and texts[self.pos] not in _PRAGMAS \
                and texts[self.pos] not in ("def", "axiom"):
            self.pos += 1

    def module(self) -> S.Module:
        decls = []
        while self.texts[self.pos]:
            decl = self.declaration()
            if isinstance(decl, S.Declaration):
                self.known.add(decl.name)
            decls.append(decl)
        return S.Module(tuple(decls))


@S.collector_paused
def parse_module(text: str, path: str, known_names: Sequence[str] = (),
                 strong: bool = False) -> S.Module:
    """Parse a whole file; `known_names` seeds the global scope (earlier files).
    With `strong`, the strict naturals, empty type and sums read as fibrant."""
    return Parser(text, path, [], set(known_names), strong).module()


@S.collector_paused
def parse_term(text: str, scope: Optional[Sequence[str]] = None,
               known_names: Sequence[str] = (), strong: bool = False) -> Term:
    """Parse a single term; `scope` supplies names for free variables, outermost first.
    With `strong`, the strict naturals, empty type and sums read as fibrant."""
    parser = Parser(text, "<term>", list(scope or []), set(known_names), strong)
    t = parser.term()
    if parser.texts[parser.pos]:
        raise parser.err("unexpected trailing input")
    return t
