"""The stable high-level facade of the reproduction (``repro.api``).

PRs grew three overlapping entry points — :class:`~repro.flow.CoDesignFlow`,
``flow.run_experiment`` and the ``JobEngine`` workloads — each with its own
seed/verify/telemetry spelling.  This module is the one front door: five
functions covering the paper's pipeline end to end, all taking the same
keywords with the same meaning:

``seed=``
    One per-call integer seed; every stochastic stage derives from it.
    Never stored on objects.
``verify=``
    A :mod:`repro.verify` policy name: ``"off"`` (default), ``"strict"``,
    ``"repair"`` or ``"degrade"``.
``telemetry=``
    ``None`` (inherit the ambient telemetry), a
    :class:`~repro.runtime.Telemetry`, or a path-like — which opens a
    JSONL trace at that path for the duration of the call.

Every stage runs its one production path, the array kernels of
:mod:`repro.kernels`; only a custom exchange ``ir_proxy`` runs the object
loop (see :class:`~repro.exchange.FingerPadExchanger`).

Typical session::

    import repro.api as api

    design = api.load_design("design.json")       # or a Table-1 index
    assigned = api.assign(design, seed=7)
    exchanged = api.exchange(design, assigned.assignments, seed=7)
    metrics = api.evaluate(design, exchanged.after)
    # ... or the whole two-step flow in one call:
    result = api.run(design, seed=7, verify="repair")
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Protocol, Union, runtime_checkable

from .assign import DFAAssigner, IFAAssigner, RandomAssigner
from .assign import assign_design as _assign_design
from .errors import ReproError
from .exchange import CostWeights, ExchangeResult, SAParams
from .flow.codesign import CoDesignFlow, CoDesignResult
from .flow.metrics import DesignMetrics, measure
from .package import NetType, PackageDesign
from .power import PowerGridConfig

__all__ = [
    "Assigner",
    "AssignResult",
    "DensityEstimator",
    "EvaluateResult",
    "ExchangeOutcome",
    "Factorization",
    "IRSolver",
    "RunResult",
    "assign",
    "evaluate",
    "exchange",
    "load_design",
    "run",
]


# -- staged solver protocols -------------------------------------------------
#
# The pipeline's three pre-exchange stages as structural interfaces.  Any
# object with the right methods satisfies them (the stock implementations
# do: repro.assign assigners, routing.MonotonicDensityEstimator,
# power.FDSolver / power.IRDropAnalyzer, kernels.GridFactorization) — no
# inheritance required, so alternative routers/solvers slot in without
# importing repro internals.


@runtime_checkable
class Assigner(Protocol):
    """Step-1 strategy: one monotonic-legal assignment per quadrant.

    Design-level runs go through :func:`repro.assign.assign_design`
    (or :func:`assign` here), which owns the per-quadrant seed derivation
    and runs the stock IFA/DFA on their array kernels.
    """

    def assign(self, quadrant, seed: Optional[int] = None):
        """Produce an ``Assignment`` for *quadrant*."""


@runtime_checkable
class DensityEstimator(Protocol):
    """Pre-route congestion model: assignment(s) -> max wire density."""

    def max_density(self, assignment) -> int:
        """Maximum run density of one quadrant assignment."""

    def max_density_of_design(self, assignments: Dict) -> int:
        """Maximum density across every quadrant of a design."""


@runtime_checkable
class Factorization(Protocol):
    """Prefactorized power grid: cheap re-solves per injection vector."""

    def solve(self, current_map=None):
        """Solve one injection vector; returns an ``IRDropResult``."""


@runtime_checkable
class IRSolver(Protocol):
    """Power-grid solver with an explicit factor-once / re-solve-many split."""

    def factorize(self, pads) -> Factorization:
        """Factor the grid for one pad configuration."""

#: Assigner spellings accepted by ``assign()`` and ``run()``.
_ASSIGNERS = {
    "random": RandomAssigner,
    "ifa": IFAAssigner,
    "dfa": DFAAssigner,
}


# -- shared keyword plumbing -------------------------------------------------


def _telemetry_scope(telemetry):
    """Resolve the uniform ``telemetry=`` keyword into a context manager.

    ``None`` inherits whatever telemetry is ambient (usually the no-op
    default); a ``Telemetry`` instance is installed for the call; a
    str/Path opens a JSONL sink at that location for the call.
    """
    from .runtime import JsonlSink, Telemetry, using_telemetry

    if telemetry is None:
        return contextlib.nullcontext()
    if isinstance(telemetry, Telemetry):
        return using_telemetry(telemetry)

    @contextlib.contextmanager
    def _jsonl_scope():
        from .obs.schema import SCHEMA_VERSION

        # The sink is a context manager, so a facade call that raises
        # mid-trace still flushes and closes the file.
        with JsonlSink(telemetry) as sink:
            scoped = Telemetry(sink=sink)
            scoped.emit(
                "trace.meta", schema=SCHEMA_VERSION, tool="repro", command="api"
            )
            with using_telemetry(scoped):
                yield

    return _jsonl_scope()


def _resolve_assigner(method: Union[str, Assigner, None]) -> Assigner:
    if method is None:
        return DFAAssigner()
    if isinstance(method, Assigner):
        return method
    try:
        return _ASSIGNERS[str(method).lower()]()
    except KeyError:
        raise ReproError(
            f"unknown assigner {method!r}; expected an Assigner instance or "
            f"one of {', '.join(sorted(_ASSIGNERS))}"
        ) from None


def _resolve_grid(grid) -> Optional[PowerGridConfig]:
    if grid is None or isinstance(grid, PowerGridConfig):
        return grid
    return PowerGridConfig(size=int(grid))


# -- result dataclasses ------------------------------------------------------


@dataclass
class AssignResult:
    """What ``assign()`` produced."""

    design: PackageDesign
    #: ``{side: Assignment}`` in design ring order.
    assignments: Dict
    #: Name of the assigner that produced it ("Random", "IFA", "DFA", ...).
    assigner: str
    seed: Optional[int] = None

    def orders(self) -> Dict:
        """JSON-friendly ``{side value: [net ids]}`` view."""
        return {side.value: a.order for side, a in self.assignments.items()}


@dataclass
class ExchangeOutcome:
    """What ``exchange()`` produced (a thin typed view of ExchangeResult)."""

    design: PackageDesign
    result: ExchangeResult
    seed: Optional[int] = None

    @property
    def before(self) -> Dict:
        return self.result.before

    @property
    def after(self) -> Dict:
        return self.result.after

    @property
    def bonding_improvement(self) -> float:
        return self.result.bonding_improvement

    @property
    def stats(self):
        return self.result.stats


@dataclass
class EvaluateResult:
    """What ``evaluate()`` produced."""

    design: PackageDesign
    metrics: DesignMetrics

    @property
    def max_density(self) -> int:
        return self.metrics.max_density

    @property
    def max_ir_drop(self) -> Optional[float]:
        return self.metrics.max_ir_drop


@dataclass
class RunResult:
    """What ``run()`` produced: the full two-step co-design outcome."""

    design: PackageDesign
    result: CoDesignResult
    seed: Optional[int] = None
    extra: Dict = field(default_factory=dict)

    @property
    def assignments(self) -> Dict:
        return self.result.assignments_final

    @property
    def metrics_initial(self) -> Optional[DesignMetrics]:
        return self.result.metrics_initial

    @property
    def metrics_final(self) -> Optional[DesignMetrics]:
        return self.result.metrics_final

    @property
    def ir_improvement(self) -> float:
        return self.result.ir_improvement

    @property
    def bonding_improvement(self) -> float:
        return self.result.bonding_improvement


# -- the facade --------------------------------------------------------------


def load_design(
    source: Union[str, Path, int],
    tiers: int = 1,
    seed: int = 0,
    verify: str = "off",
) -> PackageDesign:
    """Load a package design from JSON, or build a Table-1 circuit.

    ``source`` is either a path to a design JSON (``io.save_design``
    format) or an integer 1-5 selecting a Table-1 circuit (``tiers`` and
    ``seed`` shape the synthetic build).  Any active ``verify`` policy
    checks the design on ingest and raises
    :class:`~repro.errors.VerificationError` on malformed input.
    """
    if isinstance(source, bool):
        raise ReproError("load_design source must be a path or circuit index")
    if isinstance(source, int):
        from .circuits import build_design, table1_circuit

        design = build_design(table1_circuit(source, tier_count=tiers), seed=seed)
    else:
        from .io import load_design as _load

        design = _load(source)
    if verify != "off":
        from .verify import check_design, normalize

        normalize(verify)
        check_design(design).raise_if_errors()
    return design


def assign(
    design: PackageDesign,
    method: Union[str, Assigner, None] = None,
    seed: Optional[int] = None,
    verify: str = "off",
    telemetry=None,
) -> AssignResult:
    """Step 1: congestion-driven finger/pad assignment (DFA by default)."""
    from .obs.spans import span

    assigner = _resolve_assigner(method)
    with _telemetry_scope(telemetry), span("api.assign", assigner=assigner.name):
        assignments = _assign_design(assigner, design, seed=seed)
        if verify != "off":
            from .verify import check_assignments, normalize

            policy = normalize(verify)
            report = check_assignments(design, assignments)
            if not report.ok and policy in ("repair", "degrade"):
                from .verify import repair_assignments

                repair_assignments(design, assignments)
                report = check_assignments(design, assignments)
            report.raise_if_errors()
    return AssignResult(
        design=design, assignments=assignments, assigner=assigner.name, seed=seed
    )


def exchange(
    design: PackageDesign,
    assignments: Dict,
    weights: Optional[CostWeights] = None,
    sa_params: Optional[SAParams] = None,
    net_type: Optional[NetType] = NetType.POWER,
    seed: Optional[int] = None,
    verify: str = "off",
    telemetry=None,
) -> ExchangeOutcome:
    """Step 2: SA finger/pad exchange (Eq. 3) from an existing assignment."""
    from .exchange import FingerPadExchanger
    from .obs.spans import span

    exchanger = FingerPadExchanger(
        design,
        weights=weights,
        params=sa_params,
        net_type=net_type,
    )
    with _telemetry_scope(telemetry), span("api.exchange"):
        result = exchanger.run(assignments, seed=seed)
        if verify != "off":
            from .verify import check_assignments, normalize

            normalize(verify)
            check_assignments(
                design, result.after, baseline=result.before
            ).raise_if_errors()
    return ExchangeOutcome(design=design, result=result, seed=seed)


def evaluate(
    design: PackageDesign,
    assignments: Dict,
    grid: Union[int, PowerGridConfig, None] = None,
    with_ir: bool = True,
    net_type: Optional[NetType] = NetType.POWER,
    verify: str = "off",
    telemetry=None,
) -> EvaluateResult:
    """Measure an assignment: density, wirelength, omega and IR-drop."""
    from .obs.spans import span

    with _telemetry_scope(telemetry), span("api.evaluate"):
        if verify != "off":
            from .verify import check_assignments, normalize

            normalize(verify)
            check_assignments(design, assignments).raise_if_errors()
        metrics = measure(
            design,
            assignments,
            grid_config=_resolve_grid(grid),
            with_ir=with_ir,
            net_type=net_type,
        )
        if verify != "off" and with_ir:
            from .verify import check_power_values

            check_power_values(
                {"max_ir_drop": metrics.max_ir_drop}
            ).raise_if_errors()
    return EvaluateResult(design=design, metrics=metrics)


def run(
    design: PackageDesign,
    method: Union[str, Assigner, None] = None,
    weights: Optional[CostWeights] = None,
    sa_params: Optional[SAParams] = None,
    grid: Union[int, PowerGridConfig, None] = None,
    net_type: Optional[NetType] = NetType.POWER,
    seed: Optional[int] = 0,
    verify: str = "off",
    telemetry=None,
) -> RunResult:
    """The whole two-step co-design flow (paper Fig. 1(B)) in one call.

    Equivalent to ``CoDesignFlow(...).run(design, seed=seed)`` — the flow
    remains the implementation; this is the stable spelling.
    """
    flow = CoDesignFlow(
        assigner=_resolve_assigner(method),
        weights=weights,
        sa_params=sa_params,
        grid_config=_resolve_grid(grid),
        net_type=net_type,
        verify=verify,
    )
    from .obs.spans import span

    with _telemetry_scope(telemetry), span("api.run"):
        result = flow.run(design, seed=seed)
    return RunResult(design=design, result=result, seed=seed)
