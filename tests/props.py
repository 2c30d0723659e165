"""The five generated property suites, parameterized by case count so the
acceptance gate can run them at full volume, and the conversion-sharing
suite that tests/test_nbe.py runs at sampled volume."""

from __future__ import annotations

import random

from tltt import nbe, syntax as S, typecheck as tc
from tltt.parser import parse_term
from tltt.printer import pretty_print

from gen import gen_term, gen_well_typed, rand_scoped
from reference_norm import step


def _checked(ctx, rng, size):
    t, ty = gen_well_typed(rng, size=size)
    ty2, _ = tc.infer_universe(ctx, ty)
    ty_v = nbe.eval_in(ctx, ty2)
    return tc.check(ctx, t, ty_v), ty_v


def run_idempotence(cases: int, seed: int = 101) -> int:
    """normalize is idempotent on well-typed terms."""
    rng = random.Random(seed)
    ctx = tc.new_context()
    for _ in range(cases):
        t2, _ = _checked(ctx, rng, rng.randrange(2, 7))
        once = nbe.normalize(ctx, t2)
        assert nbe.normalize(ctx, once) == once
    return cases


def run_conversion_per(cases: int, seed: int = 102) -> int:
    """conv is symmetric and transitive across beta/iota steps of a term."""
    rng = random.Random(seed)
    ctx = tc.new_context()
    done = 0
    while done < cases:
        t2, ty_v = _checked(ctx, rng, rng.randrange(2, 7))
        v0 = nbe.eval_in(ctx, t2)
        s1 = step(t2, {})
        t_mid = s1 if s1 is not None else t2
        v1 = nbe.eval_in(ctx, t_mid)
        s2 = step(t_mid, {})
        t_end = s2 if s2 is not None else t_mid
        v2 = nbe.eval_in(ctx, t_end)
        assert nbe.conv(0, v0, v1, ty_v)      # single-step soundness
        assert nbe.conv(0, v1, v0, ty_v)      # symmetry
        assert nbe.conv(0, v1, v2, ty_v)
        assert nbe.conv(0, v0, v2, ty_v)      # transitivity across two steps
        done += 1
    return done


def run_round_trip(cases: int, seed: int = 103) -> int:
    """parse . pretty is the identity up to alpha, with constants named like
    the binders' hints and generated names, and a term prints the same
    wherever it stands."""
    rng = random.Random(seed)
    names = ["aa", "bb", "cc", "dd"]
    consts = ("x", "a", "b", "x1", "a1")
    for _ in range(cases):
        t = rand_scoped(rng, depth=len(names), size=rng.randrange(1, 14), consts=consts)
        printed = pretty_print(t, names)
        assert parse_term(printed, scope=names, known_names=consts) == t, printed
        assert pretty_print(S.Pair(t, t), names) == f"({printed}, {printed})", printed
    return cases


def run_preservation(cases: int, seed: int = 104) -> int:
    """infer, normalize, and the normal form still checks at the same type."""
    from tltt.diagnostics import CheckError, INFERENCE_FAILURE

    rng = random.Random(seed)
    ctx = tc.new_context()
    for _ in range(cases):
        t2, ty_v = _checked(ctx, rng, rng.randrange(2, 7))
        nf = nbe.normalize(ctx, t2)
        tc.check(ctx, nf, ty_v)
        try:
            _, inferred = tc.infer(ctx, t2)
        except CheckError as err:
            # check-only shapes (bare pairs, injections, refl) do not infer
            assert err.diagnostic.code == INFERENCE_FAILURE
            continue
        tc.check(ctx, nf, inferred)
    return cases


def run_subsumption_monotonicity(cases: int, seed: int = 105) -> int:
    """anything checkable at a fibrant universe checks at all larger strict ones."""
    rng = random.Random(seed)
    ctx = tc.new_context()
    done = 0
    while done < cases:
        from gen import gen_type
        ty = gen_type(rng, [], rng.randrange(1, 6))
        _, univ = tc.infer_universe(ctx, ty)
        if univ.strict:
            continue
        tc.check(ctx, ty, nbe.VUniv(univ.level))
        for j in range(univ.level, univ.level + 3):
            tc.check(ctx, ty, nbe.VUniv(j, True))
        done += 1
    return done


_SHARED_LEAVES = frozenset(id(v) for v in (
    nbe.UNIT, nbe.STAR, nbe.NAT, nbe.NAT_S, nbe.ZERO, nbe.ZERO_S,
    nbe.EMPTY, nbe.EMPTY_S, nbe.REFL, nbe.REFL_S))


def _value_objects(v) -> set[int]:
    """Ids of the values reachable from `v`, module-level constants (leaves
    with no parts) left out."""
    seen: set[int] = set()
    stack = [v]
    while stack:
        obj = stack.pop()
        if isinstance(obj, tuple):
            stack.extend(obj)
            continue
        if id(obj) in seen or id(obj) in _SHARED_LEAVES:
            continue
        if isinstance(obj, nbe.Value):
            seen.add(id(obj))
        if isinstance(obj, nbe.VLam):
            env = obj.env
            while isinstance(env, nbe.Env):
                stack.append(env.value)
                env = env.parent
        else:
            stack.extend(getattr(obj, name) for name in getattr(obj, "__slots__", ()))
    return seen


def run_conv_sharing(cases: int, seed: int = 106) -> int:
    """conv is reflexive and symmetric, and agrees with normal forms, both when
    the sharing shortcuts apply and when the two sides share nothing."""
    rng = random.Random(seed)
    ctx = tc.new_context()
    verdicts = set()
    for _ in range(cases):
        t, ty = gen_well_typed(rng, size=rng.randrange(2, 7))
        ty2, _ = tc.infer_universe(ctx, ty)
        ty_v = nbe.eval_in(ctx, ty2)
        t2 = tc.check(ctx, t, ty_v)
        v = nbe.eval_in(ctx, t2)
        assert nbe.conv(0, v, v, ty_v)
        nf = nbe.normalize(ctx, t2)
        v_nf = nbe.eval_in(ctx, nf)
        # no shortcut can fire between v and v_nf beyond the shared leaves
        assert not _value_objects(v) & _value_objects(v_nf)
        assert nbe.conv(0, v, v_nf, ty_v)
        u2 = tc.check(ctx, gen_term(rng, [], ty, rng.randrange(2, 7)), ty_v)
        vu = nbe.eval_in(ctx, u2)
        verdict = nbe.conv(0, v, vu, ty_v)
        assert verdict == nbe.conv(0, vu, v, ty_v)
        if nf == nbe.normalize(ctx, u2):
            assert verdict
        verdicts.add(verdict)
    if cases >= 50:
        assert verdicts == {True, False}, "generated pairs gave only one verdict"
    return cases


ALL_SUITES = [
    ("nbe idempotence", run_idempotence),
    ("conversion symmetry/transitivity", run_conversion_per),
    ("parser/printer round trip", run_round_trip),
    ("preservation", run_preservation),
    ("subsumption monotonicity", run_subsumption_monotonicity),
]
