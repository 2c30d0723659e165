"""Sharing inside one `nbe.normalize` call.

`normalize` hash-conses the environments, spines, fresh variables and
successors it builds and memoizes closure bodies and read-backs, in tables
that live for the call alone.  Its normal form must equal the unshared
read-back `quote(ctx.depth, evaluate(t, ctx.env))`, and print the same; the
tables must be gone however the call ends; and the work it saves is pinned
by deterministic counts.

The printer memoizes too: a shared node is printed once per stack of names
in scope, since its text depends on nothing else.  Its text must equal that
of a copy in which no node is shared, where the memo cannot hit.
"""

import gc
import random
import sys

import pytest

from tltt import corpus, nbe, nbe_core, printer, syntax as S, typecheck as tc
from tltt.parser import parse_module, parse_term
from tltt.printer import pretty_print

from gen import gen_well_typed

TERMS = ([f"SST {n}s" for n in range(6)]
         + [f"Delta {i}s {j}s" for j in range(4) for i in range(j + 1)]
         + [f"SK 1s (star, \\u. {fibre}) {n}s" for fibre in ("Unit", "Empty")
            for n in range(4)]
         + [f"SK 2s ((star, \\u. {a}), \\s. {b}) 3s" for a in ("Unit", "Empty")
            for b in ("Unit", "Empty")]
         + [f"isIncr {i}s {j}s" for j in range(3) for i in range(j + 1)]
         + [f"lt {n}s" for n in range(4)])


@pytest.fixture(scope="module")
def sst_ctx():
    ctx = tc.new_context()
    for name in ("prelude.2lt", "fin.2lt", "sst.2lt"):
        text = (corpus.CORPUS_DIR / name).read_text()
        for decl in parse_module(text, name, known_names=ctx.sig.entries.keys()).decls:
            if not isinstance(decl, S.Pragma):
                tc.check_declaration(ctx, decl)
    return ctx


def elaborated(ctx, text):
    return tc.infer(ctx, parse_term(text, known_names=ctx.sig.entries.keys()))[0]


def unshared(ctx, t):
    return nbe.quote(ctx.depth, nbe.evaluate(t, ctx.env))


def copied(t):
    """`t` with every occurrence rebuilt as its own object, atoms included."""
    fields = {f: getattr(t, f) for f in t._fields}
    for name, _ in t._children:
        child = fields[name]
        if type(child) is tuple:
            fields[name] = tuple(map(copied, child))
        elif child is not None:
            fields[name] = copied(child)
    return type(t)(**fields)


def count_renders(monkeypatch):
    """A one-item list counting the printer's `render` calls from now on."""
    calls = [0]
    render = printer._Printer.render

    def counting(self, t):
        calls[0] += 1
        return render(self, t)

    monkeypatch.setattr(printer._Printer, "render", counting)
    return calls


def no_sharing_left():
    """Whether no call's tables are active or alive."""
    return nbe_core._shared is None and not any(
        type(o) is nbe_core._Shared for o in gc.get_objects())


# -- the same normal form -----------------------------------------------------------

@pytest.mark.parametrize("text", TERMS)
def test_a_shared_normal_form_is_the_unshared_one(sst_ctx, text):
    t = elaborated(sst_ctx, text)
    shared = nbe.normalize(sst_ctx, t)
    tree = unshared(sst_ctx, t)
    assert shared == tree
    assert pretty_print(shared) == pretty_print(tree) == pretty_print(copied(shared))


def test_generated_terms_normalize_as_unshared():
    rng = random.Random(251)
    ctx = tc.new_context()
    for _ in range(200):
        t, ty = gen_well_typed(rng, size=rng.randrange(2, 7))
        ty2, _ = tc.infer_universe(ctx, ty)
        t2 = tc.check(ctx, t, nbe.eval_in(ctx, ty2))
        for term in (t2, ty2):
            shared, tree = nbe.normalize(ctx, term), unshared(ctx, term)
            assert shared == tree
            assert pretty_print(shared) == pretty_print(tree) == pretty_print(copied(shared))


def binder_and_constant_x():
    # `f x` is printed under a binder hinted x, which must then print as x1,
    # and outside it; `\x. x` holds no constant x, so it prints as itself
    # before and after
    f_x = S.App(S.Const("f"), S.Const("x"))
    identity = S.Lam(S.Var(0), "x")
    return S.Pair(identity, S.Pair(S.Lam(f_x, "x"), S.Pair(f_x, identity)))


def pair_printed_twice():
    # one pair object, whose second binder's body is the constant x, prints
    # the same text both times
    pair = S.Pair(S.Lam(S.Var(0), "x"), S.Lam(S.Const("x"), "x"))
    return S.Pair(pair, pair)


def one_subterm_under_two_binders():
    # `f x` is printed again under the second binder's first name, and must
    # not find the text printed under the first one's
    f_x = S.App(S.Const("f"), S.Const("x"))
    return S.Pair(S.Lam(f_x, "x"), S.Lam(S.Pair(f_x, S.Var(0)), "x"))


def clash_pending_across_a_binder():
    # x is met as a constant before the inner binder settles on y1, and must
    # still rename the outer binder
    f_y = S.App(S.Const("f"), S.Const("y"))
    return S.Lam(S.Pair(S.App(S.Const("f"), S.Const("x")), S.Lam(f_y, "y")), "x")


@pytest.mark.parametrize("build, expected", [
    (binder_and_constant_x, "(\\x. x, (\\x1. f x, (f x, \\x. x)))"),
    (pair_printed_twice, "((\\x. x, \\x1. x), (\\x. x, \\x1. x))"),
    (one_subterm_under_two_binders, "(\\x1. f x, \\x1. (f x, x1))"),
    (clash_pending_across_a_binder, "\\x1. (f x, \\y1. f y)"),
], ids=["binder-and-constant", "pair-printed-across", "one-subterm-two-binders",
        "pending-across-a-binder"])
def test_a_constant_named_like_a_binder_renames_that_binder(build, expected):
    t = build()
    text = pretty_print(t)
    assert text == expected
    assert text == pretty_print(copied(t))
    assert parse_term(text, known_names=["f", "x", "y"]) == t


def test_a_constant_named_like_a_given_name_keeps_the_memo(monkeypatch):
    # the constant f shares the given name f, which no binder can give up:
    # the 64 occurrences of one binder, held by 6 nested pairs, are
    # rendered once, and its body once under the stack (f, x)
    t = S.Lam(S.Pair(S.App(S.Const("f"), S.Var(0)), S.Var(1)), "x")
    for _ in range(6):
        t = S.Pair(t, t)
    calls = count_renders(monkeypatch)
    text = pretty_print(t, ["f"])
    assert calls[0] == 8
    assert text.startswith("((((((\\x. (f x, f), ")
    monkeypatch.undo()
    assert text == pretty_print(copied(t), ["f"])


def binders_each_clashing(k=16):
    # k nested binders hinted v0, ..., whose innermost body holds every
    # constant v0, ...: each binder prints again as vi1 (v1 as v16, since v11
    # is a constant), and those inside it print again with it
    body = S.Var(0)
    for i in range(k):
        body = S.App(body, S.Const(f"v{i}"))
    for i in reversed(range(k)):
        body = S.Lam(body, f"v{i}")
    return body


def shared_beside_a_clash(n=6):
    # a node with 64 occurrences, held by n nested pairs, printed beside the
    # constant that renames the binder above them
    d = S.Lam(S.Pair(S.Var(0), S.Var(1)), "y")
    for _ in range(n):
        d = S.Pair(d, d)
    return S.Lam(S.Pair(S.Const("x"), d), "x")


def shared_around_a_clash(k=16):
    # the constant x at the bottom of a tower of k pairs, each holding its
    # inner pair twice, under a binder hinted x: the pass under x stops at
    # the first x met, and the one under x1 renders each pair once, and
    # again per occurrence only where its text is too long to keep
    d = S.Const("x")
    for _ in range(k):
        d = S.Pair(d, d)
    return S.Lam(d, "x")


@pytest.mark.parametrize("build, renders", [
    # printing again without the constants found in each body kept: 641
    (binders_each_clashing, 196),
    # finishing the pass under x before printing again: 19
    (shared_beside_a_clash, 11),
    # finishing the pass under x before printing again: 65,799
    (shared_around_a_clash, 280),
], ids=["binders-each-clashing", "shared-beside-a-clash", "shared-around-a-clash"])
def test_a_clash_costs_a_binder_one_more_print(monkeypatch, build, renders):
    t = build()
    calls = count_renders(monkeypatch)
    text = pretty_print(t)
    assert calls[0] == renders
    monkeypatch.undo()
    assert text == pretty_print(copied(t))
    assert parse_term(text, known_names=[f"v{i}" for i in range(16)] + ["x"]) == t


def test_a_normal_form_shares_subterm_objects(sst_ctx):
    normal = nbe.normalize(sst_ctx, elaborated(sst_ctx, "SST 3s"))
    seen, nodes, stack = set(), 0, [normal]
    while stack:
        t = stack.pop()
        nodes += 1
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(child for _, child, _ in S.term_children(t))
    assert len(seen) < nodes


def test_a_numeral_is_one_value_per_call_and_fragment():
    three_s, three = parse_term("3s"), parse_term("3")
    other_three_s = parse_term("3s")
    assert three_s is not other_three_s

    @nbe.sharing
    def evaluate_all():
        return [nbe.evaluate(t, nbe.EMPTY_ENV) for t in (three_s, other_three_s, three)]

    strict, other_strict, fibrant = evaluate_all()
    assert strict is other_strict
    assert fibrant is not strict
    assert (strict.strict, fibrant.strict) == (True, False)
    # checking evaluates unshared: a numeral is built anew each time
    assert nbe.evaluate(three_s, nbe.EMPTY_ENV) is not nbe.evaluate(three_s, nbe.EMPTY_ENV)


# -- the tables live for one call --------------------------------------------------

def test_checking_runs_unshared(sst_ctx):
    assert nbe_core._shared is None
    elaborated(sst_ctx, "SST 2s")
    assert no_sharing_left()


def nested_lambdas(depth):
    t = S.Var(0)
    for _ in range(depth):
        t = S.Lam(t, "x")
    return t


def ends_with(error, call):
    """Run `call`, which raises `error`, and drop the exception with its
    frames."""
    try:
        call()
    except error:
        return True
    return False


def spent_budget():
    ctx = tc.new_context(budget=0)
    ctx.sig.define("d", nbe.NAT, nbe.ZERO)
    return nbe.normalize(ctx, S.Succ(S.Const("d", ctx.sig.lookup("d"))))


def too_deep():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        nbe.normalize(tc.new_context(), nested_lambdas(3000))
    finally:
        sys.setrecursionlimit(saved)


def test_no_sharing_is_left_after_a_return(sst_ctx):
    assert nbe.normalize(sst_ctx, elaborated(sst_ctx, "SST 2s")) is not None
    assert no_sharing_left()


@pytest.mark.parametrize("error, call", [
    (nbe.EvalError, lambda: nbe.normalize(tc.new_context(), S.App(S.Zero(), S.Zero()))),
    (nbe.BudgetExhausted, spent_budget),
    (RecursionError, too_deep),
], ids=["EvalError", "BudgetExhausted", "RecursionError"])
def test_no_sharing_is_left_after_a_raise(error, call):
    assert ends_with(error, call)
    assert no_sharing_left()


# -- the work saved, counted -------------------------------------------------------

@pytest.mark.parametrize("text, unfolds, evaluations", [
    # unshared: 410 and 11,514; sharing all but successors: 262 and 8,059
    ("SST 4s", 195, 6_055),
    # unshared: 8,340 and 331,454; sharing all but successors: 3,367 and 160,137
    ("SST 5s", 1_258, 69_677),
])
def test_normalize_unfolds_and_evaluations_are_pinned(sst_ctx, monkeypatch, text,
                                                        unfolds, evaluations):
    t = elaborated(sst_ctx, text)
    calls = [0]
    evaluate = nbe_core.evaluate

    def counting(t, env):
        calls[0] += 1
        return evaluate(t, env)

    monkeypatch.setattr(nbe_core, "evaluate", counting)
    budget = sst_ctx.sig.budget
    before = budget.unfolds
    nbe.normalize(sst_ctx, t)
    assert (budget.unfolds - before, calls[0]) == (unfolds, evaluations)


@pytest.mark.parametrize("text, renders", [
    ("SST 4s", 695),  # printed as a tree: 1,264
    ("SST 5s", 6_473),  # printed as a tree: 23,884
])
def test_printing_a_normal_form_renders_are_pinned(sst_ctx, monkeypatch, text, renders):
    normal = nbe.normalize(sst_ctx, elaborated(sst_ctx, text))
    calls = count_renders(monkeypatch)
    pretty_print(normal)
    assert calls[0] == renders
