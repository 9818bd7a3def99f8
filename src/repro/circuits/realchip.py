"""The Fig.-6 "real chip" experiment, rebuilt synthetically.

The paper validates its method on a real design: "this design has 138
finger/pads and the gate count is 2.3 million", analyzed with commercial
sign-off tools.  Three power-pad plans are compared:

* Fig. 6(A) — power pads randomly planned: max IR-drop 117.4 mV;
* Fig. 6(B) — power pads regularly planned: 77.3 mV;
* Fig. 6(C) — DFA + finger/pad exchange: 55.2 mV.

We cannot access that chip or the commercial tools, so this module builds
the closest synthetic equivalent (see DESIGN.md, "Substitutions"): a 138-pad
package over a finite-difference power grid whose current map contains a hot
block — the realistic feature that separates a *regular* plan from an
*optimized* one.  A regular plan spreads pads evenly and ignores the hot
block; the exchange method, driven by the demand-weighted compact proxy,
pulls supply pads towards it.  The evaluation path (a full power-grid solve)
is the same code path a sign-off tool exercises.
"""

from __future__ import annotations

from ..assign import assign_design
import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..assign import DFAAssigner, RandomAssigner, swap_is_legal
from ..exchange import CostWeights, FingerPadExchanger, SAParams
from ..package import NetType, PackageDesign
from ..power import FDSolver, PowerGridConfig, weighted_compact_cost
from ..power.pads import pad_nodes_for_grid
from ..units import to_mv
from .generator import build_design
from .spec import CircuitSpec

#: The published 138-finger/pad chip, as a circuit spec.  Roughly one pad in
#: seven is a supply pad (about 21 P/G pads over four sides), which keeps
#: pad placement a first-order effect on the IR-drop map.
REALCHIP_SPEC = CircuitSpec(
    name="realchip",
    finger_count=138,
    bump_ball_space=1.2,
    finger_width=0.1,
    finger_height=0.2,
    finger_space=0.12,
    supply_fraction=0.15,
)

#: Hot-block geometry, as fractions of the die edge.  The block touches the
#: top-right corner of the die, where a 2.3M-gate design might place its
#: densest datapath; a block at the boundary is exactly the case where pad
#: placement matters most.
_HOT_LO, _HOT_HI = 0.70, 1.0
#: Hot-block current multiplier over the background logic.
_HOT_FACTOR = 12.0
#: Ring fraction of the top-right corner (ring walks bottom, right, top, left).
_HOT_RING_CENTER = 0.5
_HOT_RING_SIGMA = 0.10


def realchip_grid_config(size: int = 40) -> PowerGridConfig:
    """Power-grid constants calibrated so Fig. 6(A) lands near 117 mV.

    Absolute IR-drop scales linearly in ``j0 * r``; the constants below were
    fitted once against the random plan of :func:`run_fig6` (seed 2009) so
    the synthetic chip operates in the paper's millivolt regime.
    """
    return PowerGridConfig(size=size, vdd=1.0, r_sx=1.0, r_sy=1.0, j0=3.11e-4)


def hotspot_current_map(config: PowerGridConfig) -> np.ndarray:
    """Per-node current draw: uniform logic plus one hot block."""
    g = config.size
    current = np.full((g, g), config.j0)
    lo, hi = int(_HOT_LO * g), int(_HOT_HI * g)
    current[lo:hi, lo:hi] *= _HOT_FACTOR
    return current


def boundary_demand(fraction: float) -> float:
    """Relative core power demand behind a point of the boundary ring.

    Used to weight the compact IR proxy; peaks at the ring stretch nearest
    the hot block (around the top-right corner).
    """
    distance = abs((fraction - _HOT_RING_CENTER + 0.5) % 1.0 - 0.5)
    return 1.0 + (_HOT_FACTOR - 2.0) * math.exp(
        -(distance**2) / (2.0 * _HOT_RING_SIGMA**2)
    )


def build_realchip(seed: int = 2009) -> PackageDesign:
    """The synthetic 138-pad design."""
    return build_design(REALCHIP_SPEC, seed=seed)


# -- the three pad plans -------------------------------------------------------


def random_plan(design: PackageDesign, seed: int = 2009) -> Dict:
    """Fig. 6(A): a random (but monotonic-legal) finger/pad order."""
    return assign_design(RandomAssigner(), design, seed=seed)


def regular_plan(design: PackageDesign, seed: int = 1) -> Dict:
    """Fig. 6(B): supply pads planned regularly along the boundary.

    "Regularly planned" means the pads of the supply *union* are spread as
    evenly as the monotonic range constraints allow — the plan a careful
    designer produces without any IR analysis.  It is computed with the same
    exchange machinery as the optimized plan but scoring only the type-blind
    union of supply pads: no per-network awareness, no power-map knowledge.
    """
    assignments = assign_design(DFAAssigner(), design)
    exchanger = FingerPadExchanger(
        design,
        weights=CostWeights(ir=1.0, density=0.05, bonding=0.0),
        params=SAParams(
            initial_temp=0.03, final_temp=1e-4, cooling=0.96, moves_per_temp=300
        ),
        net_type=None,  # the union of POWER and GROUND pads
        split_networks=False,
    )
    return exchanger.run(assignments, seed=seed).after


def drop_map_demand(design: PackageDesign, assignments: Dict, config, solver):
    """Demand weights for the compact proxy from an actual IR-drop map.

    The paper's flow computes an IR-drop map with the compact model [17]
    before exchanging pads; here the map of the *initial* plan weights the
    boundary ring, so the exchange pulls supply pads towards the stretches
    that are actually starving (squared to emphasise the worst region).
    """
    result = solver.factorize(
        pad_nodes_for_grid(design, assignments, config, net_type=None)
    ).solve()
    ring = config.boundary_ring()
    drops = np.array([result.drop_map[x, y] for (x, y) in ring])
    mean = drops.mean() or 1.0
    # Squared to emphasise the starving stretches, floored so a spot that
    # happens to sit at a pad (zero drop) still carries some weight.
    weights = 0.1 + (drops / mean) ** 2

    def demand(fraction: float) -> float:
        index = min(int(fraction % 1.0 * len(ring)), len(ring) - 1)
        return float(weights[index])

    return demand


def optimized_plan(
    design: PackageDesign,
    seed: int = 2009,
    params: Optional[SAParams] = None,
    demand=None,
) -> Dict:
    """Fig. 6(C): DFA seed + per-network finger/pad exchange.

    The exchange scores the VDD and VSS networks *separately*
    (``split_networks=True``): a type-blind regular plan evens out the
    union of supply pads but leaves each network's own pads banked in
    P,P,G,G runs; the exchange interleaves them.  ``demand`` optionally
    weights the proxy towards hot boundary stretches
    (:func:`boundary_demand` or :func:`drop_map_demand`).
    """
    assignments = assign_design(DFAAssigner(), design)
    if demand is None:
        ir_proxy = None  # the paper's uniform gap-spread proxy
    else:
        ir_proxy = lambda fractions: weighted_compact_cost(fractions, demand)
    exchanger = FingerPadExchanger(
        design,
        weights=CostWeights(ir=1.0, density=0.05, bonding=0.0),
        params=params
        or SAParams(
            initial_temp=0.03, final_temp=1e-4, cooling=0.96, moves_per_temp=300
        ),
        net_type=None,
        ir_proxy=ir_proxy,
    )
    return exchanger.run(assignments, seed=seed).after


def fd_descent_plan(
    design: PackageDesign,
    assignments: Dict,
    config,
    solver,
    passes: int = 6,
) -> Dict:
    """Refine a plan with the accurate model in the loop.

    The paper notes the accuracy/efficiency trade-off explicitly: "we can
    use more accurate model for chip performance, however, the tradeoff for
    efficiency exists."  This is that trade taken: a greedy adjacent-swap
    descent over the supply pads where every candidate is scored by the full
    finite-difference solve on the worst supply network (what a sign-off
    tool would report) — a few hundred solves instead of the compact proxy.
    """
    plans = {side: assignment.copy() for side, assignment in assignments.items()}

    def metric() -> float:
        nodes = pad_nodes_for_grid(design, plans, config, net_type=None)
        return solver.factorize(nodes).solve().max_drop

    current = metric()
    for __ in range(max(1, passes)):
        improved = False
        for side, quadrant in design:
            assignment = plans[side]
            supply_ids = [
                net.id for net in quadrant.netlist if net.net_type.is_supply
            ]
            for net_id in supply_ids:
                for step in (-1, 1):
                    slot = assignment.slot_of(net_id)
                    neighbour = slot + step
                    if not (1 <= neighbour <= assignment.slot_count):
                        continue
                    lo, hi = sorted((slot, neighbour))
                    if not swap_is_legal(assignment, lo, hi):
                        continue
                    assignment.swap_slots(lo, hi)
                    candidate = metric()
                    if candidate < current - 1e-12:
                        current = candidate
                        improved = True
                    else:
                        assignment.swap_slots(lo, hi)
        if not improved:
            break
    return plans


# -- the experiment -------------------------------------------------------------


@dataclass
class Fig6Result:
    """Max IR-drop of the three plans, in millivolts."""

    random_mv: float
    regular_mv: float
    optimized_mv: float

    def as_rows(self):
        return [
            ("random pads (Fig 6A)", self.random_mv, 117.4),
            ("regular pads (Fig 6B)", self.regular_mv, 77.3),
            ("DFA + exchange (Fig 6C)", self.optimized_mv, 55.2),
        ]


def run_fig6(seed: int = 2009, grid_size: int = 40) -> Fig6Result:
    """Run the full Fig.-6 comparison on the synthetic real chip.

    All supply pads (POWER and GROUND) pin the grid, mirroring the combined
    P/G mesh a sign-off map like the paper's Fig. 6 displays.  The three
    plans differ only in *where* the supply pads sit:

    * random — no planning at all;
    * regular — pads spread evenly, no knowledge of the power map;
    * optimized — DFA + exchange driven by the solved IR-drop map, plus the
      accurate-model refinement the paper's discussion sanctions.
    """
    design = build_realchip(seed=seed)
    config = realchip_grid_config(size=grid_size)
    solver = FDSolver(config, current_map=hotspot_current_map(config))

    def max_drop_mv(assignments: Dict) -> float:
        nodes = pad_nodes_for_grid(design, assignments, config, net_type=None)
        return to_mv(solver.factorize(nodes).solve().max_drop)

    initial = assign_design(DFAAssigner(), design)
    demand = drop_map_demand(design, initial, config, solver)
    proxy_plan = optimized_plan(design, seed=seed, demand=demand)
    refined_plan = fd_descent_plan(design, proxy_plan, config, solver)
    return Fig6Result(
        random_mv=max_drop_mv(random_plan(design, seed=seed)),
        regular_mv=max_drop_mv(regular_plan(design)),
        optimized_mv=max_drop_mv(refined_plan),
    )
