"""Delta-debugging shrinker: minimize a failing (case, oracle) pair.

Classic greedy ddmin over *semantic* reduction candidates rather than raw
bytes: each candidate rewrites one field of the :class:`FuzzCase` toward
its simplest value (defaults, 1s, zeros).  Any rewrite that still fails
the oracle is kept; the loop restarts until a full pass changes nothing —
a local minimum where every single-field simplification makes the bug
disappear.  Deterministic: candidate order is fixed, no randomness.

The oracle predicate treats :class:`~.oracles.SkippedCase` and *invalid*
specs as "not failing", so shrinking can never wander from a real
divergence into a merely-degenerate case.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, List, Tuple

from ..errors import CircuitSpecError
from .gen import FuzzCase, with_spec_field

#: Hard ceiling on oracle evaluations per shrink (each runs real anneals).
MAX_EVALS = 400

_SPEC_DEFAULTS = {
    "bump_ball_space": 1.2,
    "finger_width": 0.1,
    "finger_height": 0.2,
    "finger_space": 0.12,
    "supply_fraction": 0.25,
}


def _candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Single-field simplifications of *case*, most aggressive first."""
    spec = case.spec
    # structure first: fewer tiers/quadrants/rows shrink everything else
    if spec.get("tier_count", 1) != 1:
        yield with_spec_field(case, "tier_count", 1)
        yield with_spec_field(case, "tier_count", max(1, spec["tier_count"] // 2))
    if spec.get("quadrant_count", 4) != 1:
        yield with_spec_field(case, "quadrant_count", 1)
    if spec.get("rows_per_quadrant", 4) != 1:
        yield with_spec_field(case, "rows_per_quadrant", 1)
        yield with_spec_field(
            case, "rows_per_quadrant", max(1, spec["rows_per_quadrant"] // 2)
        )
    minimum = spec.get("rows_per_quadrant", 4) * spec.get("quadrant_count", 4)
    count = spec.get("finger_count", minimum)
    if count > minimum:
        yield with_spec_field(case, "finger_count", minimum)
        yield with_spec_field(case, "finger_count", (count + minimum) // 2)
        yield with_spec_field(case, "finger_count", count - 1)
    # geometry back to defaults
    for key, default in _SPEC_DEFAULTS.items():
        if spec.get(key, default) != default:
            yield with_spec_field(case, key, default)
    # run knobs
    if case.split_networks:
        yield replace(case, split_networks=False)
    if not case.track_all_rows:
        yield replace(case, track_all_rows=True)
    if case.id_stride != 1:
        yield replace(case, id_stride=1)
    if case.demand is not None:
        yield replace(case, demand=None)
    if case.weights:
        yield replace(case, weights={})
        for key in list(case.weights):
            trimmed = dict(case.weights)
            del trimmed[key]
            yield replace(case, weights=trimmed)
    if case.sa:
        moves = case.sa.get("moves_per_temp", 1)
        if moves > 1:
            yield replace(case, sa=dict(case.sa, moves_per_temp=1))
            yield replace(case, sa=dict(case.sa, moves_per_temp=moves // 2))
    # seeds last: zero is the canonical replay seed
    if case.design_seed:
        yield replace(case, design_seed=0)
    if case.run_seed:
        yield replace(case, run_seed=0)


def shrink_case(
    case: FuzzCase,
    is_failing: Callable[[FuzzCase], bool],
    max_evals: int = MAX_EVALS,
) -> Tuple[FuzzCase, int]:
    """Greedy fixed-point minimization; returns ``(minimized, evals)``.

    *is_failing* must return True for the original *case* (the caller just
    observed the failure) and is never re-invoked on it.
    """
    evals = 0
    current = case
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _candidates(current):
            if evals >= max_evals:
                break
            try:
                candidate.build_spec()
            except CircuitSpecError:
                continue
            evals += 1
            if is_failing(candidate):
                current = candidate
                improved = True
                break
    return current, evals


def failure_predicate(oracle: Callable[[FuzzCase], List[str]]):
    """Wrap an oracle into the bool predicate :func:`shrink_case` needs."""
    from .oracles import SkippedCase

    def is_failing(candidate: FuzzCase) -> bool:
        try:
            return bool(oracle(candidate))
        except SkippedCase:
            return False

    return is_failing
