"""Normalizer front end: the kernel's API plus context-level entry points.

The evaluator lives in a single source file (``nbe_core``); this module
re-exports it and adds the entry points that take a typing context.  Callers
use the names here, so they can be wrapped without touching the kernel's own
recursion.
"""

from __future__ import annotations

from tltt.nbe_core import (  # noqa: F401
    EMPTY, EMPTY_ENV, EMPTY_S, NAT, NAT_S, REFL, REFL_S, STAR, UNIT, ZERO, ZERO_S,
    BudgetExhausted, Env, EvalError, FElim, HConst, HUip, HVar,
    Signature, Value, VAtom, VBinder, VId, VInj, VLam, VNeutral, VPair, VPi, VSigma,
    VSucc, VSum, VUniv,
    apply_many, apply_value, conv, eliminate, evaluate, force, fresh_var, inst, lookup,
    neutral_type, project, quote, sharing,
)
from tltt.syntax import collector_paused


def eval_in(ctx, t):
    """Evaluate a term in a typing context's environment."""
    return evaluate(t, ctx.env)


def conv_in(ctx, a, b, at_type):
    """Definitional equality in a typing context (honours its mode flags)."""
    return conv(ctx.depth, a, b, at_type, ctx.strict_pi)


@collector_paused
@sharing
def normalize(ctx, t):
    """Beta-iota-normal form of a well-typed term, alpha-canonical by read-back.

    Equal work inside the call is done once (see `nbe_core.sharing`), so the
    normal form may share subterm objects."""
    return quote(ctx.depth, evaluate(t, ctx.env))
