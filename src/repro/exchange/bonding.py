"""Bonding-wire quality metric ``omega`` for stacking ICs (paper section 3.2).

Every finger carries one bonding wire to a pad on some die tier.  With
``psi`` tiers, each tier gets a unique one-hot parameter ``UP_d`` and the
finger sequence is chopped into ``ceil(alpha / psi)`` consecutive groups of
(at most) ``psi`` fingers.  A group's members OR their tier parameters
together; ``omega`` is the total count of zero bits over all groups.

``omega == 0`` means every group touches every tier — consecutive fingers
serve different tiers, so the bonding wires fan out without crossing long
distances (the ideal of Fig. 4(B)).  The paper's example: in Fig. 4(A)
omega = 6, in Fig. 4(B) omega = 0.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..assign import Assignment
from ..errors import ExchangeError


def group_masks(tiers_in_finger_order: Sequence[int], psi: int) -> List[int]:
    """OR-ed tier bitmask of each consecutive finger group."""
    if psi < 1:
        raise ExchangeError(f"tier count must be >= 1, got {psi}")
    masks: List[int] = []
    for start in range(0, len(tiers_in_finger_order), psi):
        mask = 0
        for tier in tiers_in_finger_order[start:start + psi]:
            if not (1 <= tier <= psi):
                raise ExchangeError(f"tier {tier} outside 1..{psi}")
            mask |= 1 << (tier - 1)
        masks.append(mask)
    return masks


def omega(tiers_in_finger_order: Sequence[int], psi: int) -> int:
    """Total zero-bit count over all finger groups (lower is better)."""
    full = (1 << psi) - 1
    return sum(
        bin(full & ~mask).count("1") for mask in group_masks(tiers_in_finger_order, psi)
    )


def omega_of_assignment(assignment: Assignment, psi: int) -> int:
    """``omega`` of one quadrant's assignment."""
    net_tiers = assignment.quadrant.netlist.tiers
    tiers = np.empty_like(net_tiers)
    tiers[assignment.net_slot] = net_tiers
    return omega(tiers.tolist(), psi)


def omega_of_design(assignments: Dict, psi: int) -> int:
    """``omega`` summed over every quadrant of a design."""
    return sum(
        omega_of_assignment(assignment, psi) for assignment in assignments.values()
    )


def bonding_improvement(omega_before: int, omega_after: int) -> float:
    """Table 3's "improved bonding wire" ratio.

    The paper computes "the difference for '0' bit count between the DFA
    step and the finger/pad exchange step"; we report it relative to the
    group bit budget so designs of different sizes are comparable.  A zero
    ``omega_before`` (already perfect) yields 0 improvement.
    """
    if omega_before <= 0:
        return 0.0
    return (omega_before - omega_after) / omega_before
