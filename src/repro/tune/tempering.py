"""Replica-exchange parallel tempering over the job engine.

K chains anneal the same DFA baseline at staggered temperatures
(``T0 * ladder_ratio**k`` for chain *k*; chain 0 is the paper's schedule).
Every ``swap_stride`` temperature tiers the coordinator collects the
chains' serialized states from the pool and proposes Metropolis swaps
between adjacent ladder neighbours (alternating even/odd pairings per
round, the standard replica-exchange sweep).  An accepted swap exchanges
the *configurations* (kernel state + current cost) while each slot keeps
its temperature, rng stream and best-so-far bookkeeping — so per-chain
accept traces are a pure function of (seed, K) no matter how the engine
fans the segment jobs out.

``swap_stride=0`` degenerates to multi-start SA: the K chains run their
whole schedule as one segment each and never exchange states.

Chain seeds and the dedicated swap rng are derived from the run seed by
hashing, so a tempering run is seed-deterministic at fixed K and adding
chains never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exchange import SAParams
from ..runtime.spec import JobSpec


@dataclass(frozen=True)
class TemperingConfig:
    """Ladder shape and swap cadence of one tempering run."""

    chains: int = 4
    swap_stride: int = 2
    ladder_ratio: float = 1.25

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ValueError("tempering needs at least one chain")
        if self.swap_stride < 0:
            raise ValueError("swap_stride must be >= 0 (0 = multi-start)")
        if self.ladder_ratio <= 1.0:
            raise ValueError("ladder_ratio must be > 1")


def _derived_seed(seed: int, tag: str) -> int:
    """A decorrelated 63-bit stream seed for one role of the run."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def chain_temperatures(schedule: SAParams, config: TemperingConfig) -> List[float]:
    """Chain *k* starts at ``T0 * ratio**k``; chain 0 is the base schedule."""
    return [
        schedule.initial_temp * config.ladder_ratio**k
        for k in range(config.chains)
    ]


def run_tempering(
    engine,
    circuit: int,
    config: Optional[TemperingConfig] = None,
    schedule: Optional[SAParams] = None,
    seed: int = 0,
    tiers: int = 1,
    grid: int = 32,
    polish_passes: int = 20,
) -> Dict:
    """One parallel-tempering co-design run; returns the Table-3 row dict.

    The result carries the same keys as the ``codesign`` job type (so the
    existing workload renderers apply unchanged) plus a ``tempering``
    block with the ladder, swap statistics and per-chain accept traces.
    """
    from ..obs.curves import CurveRecorder

    config = config or TemperingConfig()
    schedule = schedule or SAParams()
    telemetry = engine.telemetry
    total_steps = schedule.temperature_steps()
    stride = config.swap_stride if config.swap_stride > 0 else total_steps
    temperatures = chain_temperatures(schedule, config)

    base_params = {"circuit": int(circuit), "tiers": int(tiers)}
    swap_rng = random.Random(_derived_seed(seed, "swap"))
    chain_seeds = [
        _derived_seed(seed, f"chain:{k}") for k in range(config.chains)
    ]
    states: List[Optional[Dict]] = [None] * config.chains
    accept_traces: List[List[int]] = [[] for _ in range(config.chains)]
    recorders = [CurveRecorder() for _ in range(config.chains)]
    swaps_proposed = swaps_accepted = 0
    circuit_name = None

    telemetry.emit(
        "tempering.begin",
        chains=config.chains,
        steps=total_steps,
        swap_stride=config.swap_stride,
        ladder_ratio=config.ladder_ratio,
        mode="tempering" if config.swap_stride > 0 else "multi-start",
    )
    steps_done = 0
    round_index = 0
    while steps_done < total_steps or (total_steps == 0 and round_index == 0):
        steps = min(stride, total_steps - steps_done) if total_steps else 0
        specs = []
        for k in range(config.chains):
            params = dict(base_params)
            params["steps"] = steps
            params["moves_per_temp"] = schedule.moves_per_temp
            params["cooling"] = schedule.cooling
            if states[k] is None:
                params["temperature"] = temperatures[k]
            else:
                params["chain"] = states[k]
            specs.append(JobSpec("tempering", params, seed=chain_seeds[k]))
        outcomes = engine.run(specs)
        for k, outcome in enumerate(outcomes):
            if not outcome.ok:
                raise RuntimeError(
                    f"tempering chain {k} failed at round {round_index}: "
                    f"{outcome.error_class}: {outcome.error}"
                )
            states[k] = outcome.value["chain"]
            accept_traces[k].extend(outcome.value["accept_trace"])
            for sample in outcome.value["samples"]:
                recorders[k].observe(*sample)
            circuit_name = outcome.value["circuit"]
        steps_done += steps
        if steps_done < total_steps and config.swap_stride > 0:
            # Alternate even/odd adjacent pairings: (0,1)(2,3)... then
            # (1,2)(3,4)...; chain a is always the colder slot.
            for a in range(round_index % 2, config.chains - 1, 2):
                b = a + 1
                swaps_proposed += 1
                accepted, _uniform = swap_accept(
                    swap_rng,
                    states[a]["current_cost"],
                    states[b]["current_cost"],
                    states[a]["temperature"],
                    states[b]["temperature"],
                )
                telemetry.emit(
                    "sa.swap",
                    round=round_index,
                    chain_a=a,
                    chain_b=b,
                    accepted=accepted,
                    cost_a=states[a]["current_cost"],
                    cost_b=states[b]["current_cost"],
                    temp_a=states[a]["temperature"],
                    temp_b=states[b]["temperature"],
                )
                if accepted:
                    swaps_accepted += 1
                    for key in ("state", "current_cost"):
                        states[a][key], states[b][key] = (
                            states[b][key],
                            states[a][key],
                        )
        round_index += 1
        if total_steps == 0:
            break

    for k, recorder in enumerate(recorders):
        if recorder.observed:
            recorder.emit(telemetry, circuit=f"{circuit_name}@chain{k}")

    best_chain = min(
        range(config.chains), key=lambda k: states[k]["best_cost"]
    )
    result = _finalize(
        base_params,
        states[best_chain],
        grid=grid,
        polish_passes=polish_passes,
    )
    result["tempering"] = {
        "chains": config.chains,
        "swap_stride": config.swap_stride,
        "ladder_ratio": config.ladder_ratio,
        "ladder": temperatures,
        "rounds": round_index,
        "swaps_proposed": swaps_proposed,
        "swaps_accepted": swaps_accepted,
        "best_chain": best_chain,
        "chain_best_costs": [state["best_cost"] for state in states],
        "accept_traces": accept_traces,
    }
    telemetry.emit(
        "tempering.end",
        best_cost=states[best_chain]["best_cost"],
        chains=config.chains,
        swaps_proposed=swaps_proposed,
        swaps_accepted=swaps_accepted,
    )
    return result


def swap_accept(
    rng: random.Random,
    cost_a: float,
    cost_b: float,
    temp_a: float,
    temp_b: float,
) -> Tuple[bool, float]:
    """Replica-exchange Metropolis test between chains a (colder) and b.

    ``p = min(1, exp((beta_a - beta_b) * (E_a - E_b)))``: exchanging a
    worse configuration *down* the ladder is always accepted; pulling a
    worse one down is accepted with Boltzmann probability.  Exactly one
    uniform is consumed per call — accepted or not — so the swap rng
    stream is a pure function of the swap count.  Returns
    ``(accepted, uniform)``.
    """
    uniform = rng.random()
    delta = (1.0 / temp_a - 1.0 / temp_b) * (cost_a - cost_b)
    if delta >= 0:
        return True, uniform
    return uniform < math.exp(delta), uniform


def _finalize(
    base_params: Dict,
    state: Dict,
    grid: int,
    polish_passes: int,
) -> Dict:
    """Measure the winning chain's best configuration like ``codesign``.

    Rebuilds the kernel at the shared DFA baseline and hands the chain to
    the exchanger's own finish (:meth:`FingerPadExchanger._finish`):
    restore the best snapshot, polish, check legality and take the Eq.-3
    totals and omega from the kernel's report.
    """
    from ..assign import DFAAssigner, assign_design
    from ..exchange import FingerPadExchanger, SAStats
    from ..flow.metrics import improvement_ratio, measure
    from ..power import PowerGridConfig
    from ..runtime.jobs import _build_circuit_design

    design = _build_circuit_design(base_params)
    baseline = assign_design(
        DFAAssigner(), design, seed=int(base_params.get("assign_seed", 0))
    )
    exchanger = FingerPadExchanger(design, polish_passes=polish_passes)
    kernel, report_before = exchanger._start(baseline)
    chain = SAStats.from_json(state)
    exchange = exchanger._finish(kernel, baseline, chain, report_before)
    omega_before, omega_after = exchange.omega_before, exchange.omega_after

    grid_config = PowerGridConfig(size=int(grid))
    metrics_initial = measure(design, baseline, grid_config=grid_config)
    metrics_final = measure(design, exchange.after, grid_config=grid_config)
    return {
        "circuit": design.name,
        "tiers": int(base_params.get("tiers", 1)),
        "density_after_assignment": metrics_initial.max_density,
        "density_after_exchange": metrics_final.max_density,
        "ir_improvement": improvement_ratio(
            metrics_initial.max_ir_drop, metrics_final.max_ir_drop
        ),
        "bonding_improvement": improvement_ratio(omega_before, omega_after)
        if omega_before > 0
        else 0.0,
        "max_ir_drop_initial": metrics_initial.max_ir_drop,
        "max_ir_drop_final": metrics_final.max_ir_drop,
        "final_cost": exchange.cost_breakdown_after["total"],
        "sa": {
            "proposed": chain.proposed,
            "accepted": chain.accepted,
            "acceptance_ratio": chain.accepted / chain.proposed
            if chain.proposed
            else 0.0,
            "initial_cost": exchange.cost_breakdown_before["total"],
            "best_cost": chain.best_cost,
        },
    }
