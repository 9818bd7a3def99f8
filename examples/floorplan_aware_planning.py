#!/usr/bin/env python
"""Floorplan-aware power-pad planning (the paper's future-work direction).

The paper's conclusion calls for concurrent floorplan/package planning.
This example closes that loop with the pieces the library provides:

1. describe the chip as a floorplan (modules with power budgets);
2. compile it into the FD solver's current map and a boundary demand
   profile;
3. run the finger/pad exchange with the demand-weighted compact proxy;
4. compare against the floorplan-blind (uniform-proxy) exchange.

Run:  python examples/floorplan_aware_planning.py
"""

from repro.assign import assign_design
from repro.assign import DFAAssigner
from repro.circuits import CIRCUIT_2, build_design
from repro.exchange import CostWeights, FingerPadExchanger, SAParams
from repro.power import FDSolver, Floorplan, Module, PowerGridConfig
from repro.power.pads import pad_nodes_for_grid
from repro.units import fmt_mv
from repro.viz import render_current_map, render_irdrop_map

SA = SAParams(initial_temp=0.03, final_temp=1e-4, cooling=0.95, moves_per_temp=150)


def main() -> None:
    design = build_design(CIRCUIT_2, seed=0)
    config = PowerGridConfig(size=32, j0=1e-4)
    # a strongly peaked floorplan: one GPU corner burning 70% of the power
    floorplan = Floorplan(
        modules=[
            Module("gpu", 0.68, 0.68, 0.30, 0.30, power=0.105),
            Module("cpu", 0.05, 0.10, 0.35, 0.35, power=0.030),
        ],
        background_current=0.015 / (32 * 32),
    )
    current = floorplan.current_map(config)
    solver = FDSolver(config, current_map=current)

    print("floorplan current map (dark = hot):")
    print(render_current_map(current, max_cols=32))
    print()

    def max_drop(assignments) -> float:
        nodes = pad_nodes_for_grid(design, assignments, config, net_type=None)
        return solver.factorize(nodes).solve().max_drop

    initial = assign_design(DFAAssigner(), design)
    print(f"after DFA:                    {fmt_mv(max_drop(initial))}")

    blind = FingerPadExchanger(
        design,
        weights=CostWeights(ir=1.0, density=0.05),
        params=SA,
        net_type=None,
    ).run(initial, seed=7)
    print(f"floorplan-blind exchange:     {fmt_mv(max_drop(blind.after))}")

    demand = floorplan.boundary_demand(config)
    aware = FingerPadExchanger(
        design,
        weights=CostWeights(ir=1.0, density=0.05),
        params=SA,
        net_type=None,
        demand=demand,
    ).run(initial, seed=7)
    print(f"floorplan-aware exchange:     {fmt_mv(max_drop(aware.after))}")
    print()

    nodes = pad_nodes_for_grid(design, aware.after, config, net_type=None)
    print("IR-drop map with the floorplan-aware plan:")
    print(render_irdrop_map(solver.factorize(nodes).solve(), max_cols=32))


if __name__ == "__main__":
    main()
