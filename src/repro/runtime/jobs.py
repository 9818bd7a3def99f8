"""Built-in job types: the paper's experiments as engine-runnable units.

Each runner is a pure function ``(params, seed) -> JSON value`` so that a
job can execute in a worker process and its result can live in the disk
cache.  Runners call the library primitives directly (``assign_design``
with the assigners ``flow.compare_assigners`` uses, ``CoDesignFlow.run``,
``circuits.run_fig6``), so engine results are bit-identical to calling
those with the same seeds.

This module imports the flow/circuits layers and is loaded lazily by the
job-type registry (``spec.resolve_job_type``).
"""

from __future__ import annotations

from ..assign import assign_design
from typing import Optional

from .spec import register_job_type


def _make_assigner(name: str):
    from ..assign import BestOfRandomAssigner, DFAAssigner, IFAAssigner

    # "Random" is the paper's randomly *optimized* baseline, matching
    # flow.compare_assigners.
    factories = {
        "Random": lambda: BestOfRandomAssigner(trials=3),
        "IFA": IFAAssigner,
        "DFA": DFAAssigner,
    }
    return factories[name]()


def _build_circuit_design(params: dict):
    from ..circuits import build_design, table1_circuit

    return build_design(
        table1_circuit(int(params["circuit"]), tier_count=int(params.get("tiers", 1))),
        seed=int(params.get("design_seed", 0)),
    )


def _sa_params(params: dict):
    from ..exchange import SAParams

    if "schedule" in params:
        # A schedule *name* ("tuned", "fast", ...): forwarded as a string
        # and resolved against the design size inside FingerPadExchanger
        # (presets.resolve_sa_params), so cached digests stay stable even
        # if the tuned numbers are re-derived.
        return str(params["schedule"])
    overrides = {
        key: params[key]
        for key in ("initial_temp", "final_temp", "cooling", "moves_per_temp")
        if key in params
    }
    return SAParams(**overrides) if overrides else None


@register_job_type("table2_cell")
def run_table2_cell(params: dict, seed: Optional[int]):
    """One Table-2 cell: one assigner on one Table-1 circuit."""
    from ..obs.spans import span
    from ..routing import (
        max_density_of_design,
        route_design,
        total_flyline_length_of_design,
    )

    design = _build_circuit_design(params)
    assigner = _make_assigner(params["assigner"])
    with span("flow.assign", assigner=assigner.name, design=design.name):
        assignments = assign_design(assigner, design, seed=seed)
    with span("flow.route", design=design.name):
        routed = route_design(assignments)
    return {
        "circuit": design.name,
        "assigner": assigner.name,
        "max_density": max_density_of_design(assignments),
        "wirelength": sum(
            result.total_routed_length for result in routed.values()
        ),
        "flyline_length": total_flyline_length_of_design(assignments),
    }


@register_job_type("codesign")
def run_codesign(params: dict, seed: Optional[int]):
    """One Table-3 cell: the two-step flow (DFA + exchange) on one circuit."""
    from ..flow import CoDesignFlow
    from ..power import PowerGridConfig

    design = _build_circuit_design(params)
    flow = CoDesignFlow(
        sa_params=_sa_params(params),
        grid_config=PowerGridConfig(size=int(params.get("grid", 32))),
    )
    result = flow.run(design, seed=seed)
    stats = result.exchange.stats
    return {
        "circuit": design.name,
        "tiers": int(params.get("tiers", 1)),
        "density_after_assignment": result.density_after_assignment,
        "density_after_exchange": result.density_after_exchange,
        "ir_improvement": result.ir_improvement,
        "bonding_improvement": result.bonding_improvement,
        "max_ir_drop_initial": result.metrics_initial.max_ir_drop,
        "max_ir_drop_final": result.metrics_final.max_ir_drop,
        "sa": {
            "proposed": stats.proposed,
            "accepted": stats.accepted,
            "acceptance_ratio": stats.acceptance_ratio,
            "initial_cost": stats.initial_cost,
            "best_cost": stats.best_cost,
        },
    }


@register_job_type("design_run")
def run_design_run(params: dict, seed: Optional[int]):
    """The full two-step flow on an arbitrary ``CircuitSpec``.

    The generic serve-facing job kind: where ``codesign`` is pinned to
    the paper's Table-1 circuits, this one takes the circuit shape
    itself (``spec`` = ``CircuitSpec`` kwargs, as generated by the fuzzer
    or posted over the wire) and runs :func:`repro.api.run` on it.  The
    serve fuzz oracle relies on this runner being *exactly* the facade
    call so daemon results can be compared against direct ones.
    """
    from .. import api
    from ..circuits import build_design
    from ..circuits.spec import CircuitSpec

    design = build_design(
        CircuitSpec(**params["spec"]),
        seed=int(params.get("design_seed", 0)),
    )
    result = api.run(
        design,
        method=params.get("method"),
        sa_params=_sa_params(params),
        grid=int(params["grid"]) if "grid" in params else None,
        seed=seed,
        verify=str(params.get("verify", "off")),
    )
    flow_result = result.result
    stats = flow_result.exchange.stats
    return {
        "circuit": design.name,
        "density_after_assignment": flow_result.density_after_assignment,
        "density_after_exchange": flow_result.density_after_exchange,
        "ir_improvement": flow_result.ir_improvement,
        "bonding_improvement": flow_result.bonding_improvement,
        "sa": {
            "proposed": stats.proposed,
            "accepted": stats.accepted,
            "best_cost": stats.best_cost,
        },
        "seed": seed,
    }


@register_job_type("tune_cell")
def run_tune_cell(params: dict, seed: Optional[int]):
    """One auto-tuning sweep cell: a timed anneal under one schedule.

    The cell is a full DFA + exchange run on one Table-1 circuit with an
    explicit (T0, cooling, moves_per_temp) triple; the sweep runner fans
    these out through the engine so every cell is cached, journaled and
    deduplicated.  Wall-clock is measured inside the job (and therefore
    cached with it), which is what makes a re-run of ``repro tune sweep``
    byte-deterministic: cache hits replay the recorded seconds instead of
    re-timing.
    """
    import time

    from ..assign import DFAAssigner
    from ..exchange import FingerPadExchanger, SAParams

    design = _build_circuit_design(params)
    assignments = assign_design(
        DFAAssigner(), design, seed=int(params.get("assign_seed", 0))
    )
    schedule = SAParams(
        initial_temp=float(params["initial_temp"]),
        final_temp=float(params.get("final_temp", 1e-4)),
        cooling=float(params["cooling"]),
        moves_per_temp=int(params["moves_per_temp"]),
    )
    exchanger = FingerPadExchanger(
        design,
        params=schedule,
        polish_passes=int(params.get("polish", 0)),
    )
    start = time.perf_counter()
    result = exchanger.run(assignments, seed=seed)
    seconds = time.perf_counter() - start
    return {
        "circuit": design.name,
        "replicate": int(params.get("replicate", 0)),
        "schedule": {
            "initial_temp": schedule.initial_temp,
            "final_temp": schedule.final_temp,
            "cooling": schedule.cooling,
            "moves_per_temp": schedule.moves_per_temp,
        },
        "final_cost": result.cost_breakdown_after["total"],
        "best_cost": result.stats.best_cost,
        "proposed": result.stats.proposed,
        "acceptance_ratio": result.stats.acceptance_ratio,
        "seconds": round(seconds, 6),
    }


@register_job_type("tempering")
def run_tempering_segment(params: dict, seed: Optional[int]):
    """One parallel-tempering chain segment: N tiers from a JSON state.

    The coordinator (:mod:`repro.tune.tempering`) schedules K of these per
    round — one per chain — and swaps the returned kernel states between
    rounds.  ``params["chain"]`` carries the chain's full serialized state
    (:meth:`SAStats.to_json <repro.exchange.SAStats.to_json>` with the
    kernel capture as its ``state``); when absent the chain starts from
    genesis at ``params["temperature"]`` with *seed* as its dedicated rng
    seed.  The baseline DFA assignment is derived from ``assign_seed``
    (not the chain seed) so every chain in a run anneals the same starting
    configuration.  Returns the new chain, one convergence sample per tier
    (``[proposed, cost, best_cost, acceptance, temperature]``, the
    ``sa.curve`` point layout) and the per-tier accepted-move counts (the
    chain's accept trace, the determinism witness).
    """
    from ..assign import DFAAssigner
    from ..exchange import SAStats, advance
    from ..kernels import ArrayExchangeKernel

    design = _build_circuit_design(params)
    baseline = assign_design(
        DFAAssigner(), design, seed=int(params.get("assign_seed", 0))
    )
    kernel = ArrayExchangeKernel(design, baseline)
    payload = params.get("chain")
    if payload is None:
        chain = SAStats.genesis(
            kernel.cost(), float(params["temperature"]), seed, kernel.snapshot()
        )
    else:
        kernel.restore_checkpoint(payload["state"])
        chain = SAStats.from_json(payload)
    samples, accept_trace = [], []

    def on_step(chain: SAStats, acceptance: float) -> None:
        samples.append([
            chain.proposed, chain.current_cost, chain.best_cost, acceptance,
            chain.temperature,
        ])
        accept_trace.append(chain.step_accepted)

    advance(
        chain,
        int(params["steps"]),
        int(params["moves_per_temp"]),
        float(params["cooling"]),
        kernel.propose,
        kernel.apply,
        kernel.undo,
        kernel.cost,
        kernel.snapshot,
        on_step=on_step,
    )
    return {
        "circuit": design.name,
        "chain": chain.to_json(kernel.checkpoint_state()),
        "samples": samples,
        "accept_trace": accept_trace,
    }


@register_job_type("fig6")
def run_fig6_job(params: dict, seed: Optional[int]):
    """The Fig.-6 real-chip IR-drop comparison (three pad plans)."""
    from ..circuits import run_fig6
    from ..obs.spans import span

    with span("flow.fig6"):
        result = run_fig6(seed=seed, grid_size=int(params.get("grid", 40)))
    return {
        "random_mv": result.random_mv,
        "regular_mv": result.regular_mv,
        "optimized_mv": result.optimized_mv,
    }
