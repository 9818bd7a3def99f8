"""Design-level assignment: the design walk and the kernel dispatch.

A module function owns the design walk and the per-quadrant seed
derivation, and routes the stock deterministic assigners (IFA, DFA) onto
the array kernels of :mod:`repro.kernels.assign` at every quadrant size.
Seed semantics: quadrant ``index`` gets ``seed + index`` (or ``None``
when no seed is given).  The kernels are order-identical to the
assigners' own ``assign`` (see the ``assign_parity`` fuzz oracle), which
stays as the reference.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..package import Quadrant
from .base import Assigner, Assignment
from .dfa import DFAAssigner
from .ifa import IFAAssigner

__all__ = ["assign_design", "assign_quadrant"]


def assign_quadrant(
    assigner: Assigner, quadrant: Quadrant, seed: Optional[int] = None
) -> Assignment:
    """Assign one quadrant; exact IFA/DFA run their array kernels.

    Only the stock deterministic assigners have array twins; subclasses
    and randomized strategies always run their own ``assign`` (their
    behavior is the specification, so there is nothing to vectorize
    against).
    """
    from .. import kernels

    if type(assigner) is IFAAssigner:
        return Assignment(quadrant, kernels.ifa_order(quadrant))
    if type(assigner) is DFAAssigner:
        return Assignment(
            quadrant, kernels.dfa_order(quadrant, cut_line_n=assigner.cut_line_n)
        )
    return assigner.assign(quadrant, seed=seed)


def assign_design(
    assigner: Assigner, design, seed: Optional[int] = None
) -> Dict:
    """Assign every quadrant of *design*; returns ``{side: Assignment}``.

    The staged spelling of the paper's step 1 — ``assigner`` is anything
    satisfying the :class:`repro.api.Assigner` protocol.
    """
    results = {}
    for index, (side, quadrant) in enumerate(design):
        sub_seed = None if seed is None else seed + index
        results[side] = assign_quadrant(assigner, quadrant, seed=sub_seed)
    return results
