"""Replica-exchange building blocks: resumable anneal segments + swaps.

Parallel tempering runs K Metropolis chains at staggered temperatures and
periodically proposes to *exchange* the configurations of neighbouring
chains.  The population method the paper could not afford becomes cheap
once each chain's full state is a JSON document: a chain runs a fixed
number of temperature tiers as an ordinary engine job (cached, journaled,
fanned out over the process pool), returns its serialized state, and the
coordinator (:mod:`repro.tune.tempering`) swaps states between rounds.

This module is the problem-layer half of the protocol:

:func:`initial_chain_state`
    A chain's genesis state from a built kernel: the kernel's checkpoint
    payload (the same capture discipline ``SACheckpointer`` uses), a
    freshly seeded Mersenne state, the chain's starting temperature, and
    zeroed stats counters.
:func:`run_segment`
    Advance one chain by N temperature tiers.  The move loop mirrors
    :meth:`SimulatedAnnealer.optimize` exactly — unconditional Metropolis
    uniform draw, non-finite rejection, ``BEST_IMPROVEMENT_EPS`` best
    tracking — so a K=1 chain walks the same accept/reject trace as a
    single-chain anneal with the same rng stream.
:func:`swap_accept`
    The replica-exchange Metropolis criterion
    ``p = min(1, exp((1/T_a - 1/T_b) * (E_a - E_b)))``.  Always consumes
    exactly one uniform from the dedicated swap rng, so per-chain traces
    stay reproducible regardless of how many swaps are accepted.

Chain states round-trip through JSON byte-exactly (Python floats survive
``json``; the Mersenne state is a list of ints), which is what makes a
tempering run seed-deterministic at fixed K for any jobs= fan-out.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from .annealer import BEST_IMPROVEMENT_EPS
from .checkpoint import encode_arrays


def _rng_to_json(rng: random.Random) -> list:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _rng_from_json(payload) -> random.Random:
    rng = random.Random()
    rng.setstate((payload[0], tuple(payload[1]), payload[2]))
    return rng


def initial_chain_state(kernel, seed: Optional[int], temperature: float) -> Dict:
    """A chain's genesis: kernel at its baseline, fresh rng, zero stats."""
    cost = kernel.cost()
    return {
        "kernel": kernel.checkpoint_state(),
        "rng": _rng_to_json(random.Random(seed)),
        "temperature": float(temperature),
        "current_cost": cost,
        "best_cost": cost,
        "best": encode_arrays(kernel.snapshot()),
        "proposed": 0,
        "infeasible": 0,
        "accepted": 0,
        "accepted_uphill": 0,
        "nonfinite_rejected": 0,
        "steps_done": 0,
    }


def run_segment(
    kernel,
    state: Dict,
    steps: int,
    moves_per_temp: int,
    cooling: float,
) -> Tuple[Dict, List[list], List[int]]:
    """Advance one chain by *steps* temperature tiers on *kernel*.

    The kernel is restored from ``state["kernel"]`` first, so the caller
    only needs to build it at the chain's baseline.  Returns the new
    JSON-able state, one convergence sample per tier
    (``[proposed, cost, best_cost, acceptance, temperature]`` — the
    ``sa.curve`` point layout), and the per-tier accepted-move counts
    (the chain's accept trace, the determinism witness).
    """
    kernel.restore_checkpoint(state["kernel"])
    rng = _rng_from_json(state["rng"])
    temperature = float(state["temperature"])
    current_cost = float(state["current_cost"])
    best_cost = float(state["best_cost"])
    best = state["best"]
    proposed = int(state["proposed"])
    infeasible = int(state["infeasible"])
    accepted = int(state["accepted"])
    accepted_uphill = int(state["accepted_uphill"])
    nonfinite_rejected = int(state["nonfinite_rejected"])

    samples: List[list] = []
    accept_trace: List[int] = []
    for __ in range(steps):
        step_proposed = step_accepted = 0
        for __ in range(moves_per_temp):
            proposed += 1
            step_proposed += 1
            move = kernel.propose(rng)
            if move is None:
                infeasible += 1
                continue
            kernel.apply(move)
            new_cost = kernel.cost()
            delta = new_cost - current_cost
            if not math.isfinite(delta):
                kernel.undo(move)
                nonfinite_rejected += 1
                continue
            # Unconditional draw, exactly like the single-chain annealer:
            # the rng stream advances identically for every finite move.
            uniform = rng.random()
            if delta <= 0 or uniform < math.exp(-delta / temperature):
                current_cost = new_cost
                accepted += 1
                step_accepted += 1
                if delta > BEST_IMPROVEMENT_EPS:
                    accepted_uphill += 1
                if current_cost < best_cost - BEST_IMPROVEMENT_EPS:
                    best_cost = current_cost
                    best = encode_arrays(kernel.snapshot())
            else:
                kernel.undo(move)
        acceptance = step_accepted / step_proposed if step_proposed else 0.0
        samples.append(
            [proposed, current_cost, best_cost, acceptance, temperature]
        )
        accept_trace.append(step_accepted)
        temperature *= cooling

    new_state = {
        "kernel": kernel.checkpoint_state(),
        "rng": _rng_to_json(rng),
        "temperature": temperature,
        "current_cost": current_cost,
        "best_cost": best_cost,
        "best": best,
        "proposed": proposed,
        "infeasible": infeasible,
        "accepted": accepted,
        "accepted_uphill": accepted_uphill,
        "nonfinite_rejected": nonfinite_rejected,
        "steps_done": int(state["steps_done"]) + steps,
    }
    return new_state, samples, accept_trace


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
