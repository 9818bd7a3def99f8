"""The finger/pad exchange method (paper Fig. 14).

Takes the assignments produced by a congestion-driven assigner (usually DFA)
and anneals adjacent, legality-preserving swaps to simultaneously improve
core IR-drop (via the compact proxy), bonding-wire interleaving (stacking
ICs) and keep the package density in check (Eq. 2's ID penalty).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..assign import Assignment, check_legal
from ..package import NetType, PackageDesign
from .annealer import SAParams, SAStats, SimulatedAnnealer
from .bonding import omega_of_design
from .cost import CostWeights, ExchangeCost
from .moves import MoveGenerator


@dataclass
class ExchangeResult:
    """Everything the exchange step produced."""

    before: Dict
    after: Dict
    stats: SAStats = None
    cost_breakdown_before: Dict[str, float] = field(default_factory=dict)
    cost_breakdown_after: Dict[str, float] = field(default_factory=dict)
    omega_before: int = 0
    omega_after: int = 0

    @property
    def bonding_improvement(self) -> float:
        """Relative omega improvement (Table 3's last column)."""
        if self.omega_before <= 0:
            return 0.0
        return (self.omega_before - self.omega_after) / self.omega_before


class FingerPadExchanger:
    """SA-driven exchange over a whole design (2-D and stacking ICs).

    The anneal runs on :class:`~repro.kernels.ArrayExchangeKernel`: flat
    ``int``-list state with O(1) integer swap deltas, which also writes the
    before/after Eq.-3 breakdown and omega of the :class:`ExchangeResult`.
    ``demand`` (a perimeter fraction -> relative current demand callable)
    weights the compact IR proxy towards hot boundary stretches; the kernel
    reads it as one integer weight table.  :meth:`_run_object`, the
    ``Assignment``-object loop on the from-scratch
    :class:`~repro.exchange.ExchangeCost`, is the reference the kernel is
    proven move-for-move identical to under a shared seed
    (``tests/test_kernels.py``, the ``backends`` fuzz oracle); no
    production caller runs it.
    """

    def __init__(
        self,
        design: PackageDesign,
        weights: Optional[CostWeights] = None,
        params: Optional[SAParams] = None,
        net_type: Optional[NetType] = NetType.POWER,
        power_only: Optional[bool] = None,
        demand=None,
        track_all_rows: bool = True,
        split_networks: bool = False,
        polish_passes: int = 20,
        checkpoint=None,
    ) -> None:
        self.design = design
        self.weights = weights or CostWeights()
        if isinstance(params, str):
            # Schedule names ("tuned", "fast", ...) resolve against the
            # design size; lazy import because presets imports this package.
            from ..presets import resolve_sa_params

            params = resolve_sa_params(params, design)
        self.params = params or SAParams()
        self.net_type = net_type
        self.power_only = power_only
        self.demand = demand
        self.track_all_rows = track_all_rows
        self.split_networks = split_networks
        self.polish_passes = polish_passes
        #: Optional :class:`~repro.exchange.checkpoint.SACheckpointer`:
        #: the anneal periodically persists its full state and resumes
        #: bit-identically after a crash.
        self.checkpoint = checkpoint

    def run(self, assignments: Dict, seed: Optional[int] = None) -> ExchangeResult:
        """Anneal from *assignments*; the input objects are not mutated."""
        return self._run_array(assignments, seed)

    def _run_array(self, assignments: Dict, seed: Optional[int]) -> ExchangeResult:
        """Anneal on the flat-array kernel, which also writes the report."""
        import time

        from ..obs.spans import span
        from ..runtime.telemetry import get_telemetry

        kernel, report_before = self._start(assignments)
        checkpoint = self.checkpoint
        if checkpoint is not None:
            checkpoint.bind(
                capture=kernel.checkpoint_state, restore=kernel.restore_checkpoint
            )
            if checkpoint.run_key is None:
                checkpoint.run_key = self._checkpoint_run_key(kernel, seed)
        annealer = SimulatedAnnealer(self.params)
        anneal_started = time.perf_counter()
        with span("sa.anneal", get_telemetry()):
            stats = annealer.optimize(
                propose=kernel.propose,
                apply=kernel.apply,
                undo=kernel.undo,
                cost=kernel.cost,
                seed=seed,
                snapshot=kernel.snapshot,
                checkpoint=checkpoint,
                curve_label=self.design.name,
            )
        return self._finish(
            kernel, assignments, stats, report_before,
            anneal_seconds=time.perf_counter() - anneal_started,
        )

    def _start(self, assignments: Dict):
        """The kernel at *assignments* and its (Eq.-3 breakdown, omega)."""
        from ..kernels import ArrayExchangeKernel
        from ..obs.spans import span
        from ..runtime.telemetry import get_telemetry

        telemetry = get_telemetry()
        with span("kernel.build", telemetry):
            kernel = ArrayExchangeKernel(
                self.design,
                assignments,
                weights=self.weights,
                net_type=self.net_type,
                demand=self.demand,
                track_all_rows=self.track_all_rows,
                split_networks=self.split_networks,
                power_only=self.power_only,
            )
        with span("exchange.report", telemetry):
            return kernel, (kernel.breakdown(), kernel.omega)

    def _finish(
        self,
        kernel,
        assignments: Dict,
        stats: SAStats,
        report_before,
        anneal_seconds: Optional[float] = None,
    ) -> ExchangeResult:
        """Restore the chain's best state, polish, check and report.

        Shared by :meth:`_run_array` and the parallel-tempering finish
        (which annealed elsewhere and passes no *anneal_seconds*, so emits
        no ``kernel.stats``).
        """
        from ..obs.spans import span
        from ..runtime.telemetry import get_telemetry

        telemetry = get_telemetry()
        if stats.best_snapshot is not None:
            kernel.restore(stats.best_snapshot)
        if self.polish_passes:
            with span("kernel.polish", telemetry):
                kernel.polish(self.polish_passes)
        if anneal_seconds is not None and telemetry.enabled:
            telemetry.emit(
                "kernel.stats",
                backend="array",
                proposed=stats.proposed,
                swaps=kernel.swap_count,
                us_per_move=round(anneal_seconds * 1e6 / stats.proposed, 3)
                if stats.proposed
                else 0.0,
                seconds=round(anneal_seconds, 6),
            )
        breakdown_before, omega_before = report_before
        with span("exchange.report", telemetry):
            before = {
                side: assignment.copy() for side, assignment in assignments.items()
            }
            after = kernel.assignments()
            for assignment in after.values():
                check_legal(assignment)
            return ExchangeResult(
                before=before,
                after=after,
                stats=stats,
                cost_breakdown_before=breakdown_before,
                cost_breakdown_after=kernel.breakdown(),
                omega_before=omega_before,
                omega_after=kernel.omega,
            )

    def _checkpoint_run_key(self, kernel, seed: Optional[int]) -> str:
        """Identity of one anneal: seed + schedule + weights + demand + baseline.

        A checkpoint whose run key differs answers a different question
        (other seed, circuit, schedule or demand) and must read as absent
        rather than resume.
        """
        import hashlib
        import json

        params = self.params
        payload = {
            "seed": seed,
            "schedule": [
                params.initial_temp,
                params.final_temp,
                params.cooling,
                params.moves_per_temp,
            ],
            "weights": [
                self.weights.ir,
                self.weights.density,
                self.weights.bonding,
            ],
            "demand": hashlib.sha256(
                json.dumps(kernel.ir_weights).encode("ascii")
            ).hexdigest(),
            "orders": {
                str(side): order for side, order in kernel.orders().items()
            },
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def _run_object(self, assignments: Dict, seed: Optional[int]) -> ExchangeResult:
        """Anneal on ``Assignment`` objects under the from-scratch cost.

        The reference for the kernel: :class:`ExchangeCost` re-derives
        Eq. 3 on every move, so a shared seed must walk both through the
        identical trace to the identical orders.
        """
        before = {side: assignment.copy() for side, assignment in assignments.items()}
        working = {side: assignment.copy() for side, assignment in assignments.items()}

        cost = ExchangeCost(
            self.design,
            before,
            weights=self.weights,
            net_type=self.net_type,
            demand=self.demand,
            track_all_rows=self.track_all_rows,
            split_networks=self.split_networks,
        )
        moves = MoveGenerator(
            self.design, working, power_only=self.power_only
        )
        annealer = SimulatedAnnealer(self.params)

        def snapshot() -> Dict:
            return {side: assignment.order for side, assignment in working.items()}

        from ..obs.spans import span
        from ..runtime.telemetry import get_telemetry

        telemetry = get_telemetry()
        with span("sa.anneal", telemetry):
            stats = annealer.optimize(
                propose=moves.propose,
                apply=moves.apply,
                undo=moves.undo,
                cost=lambda: cost.total(working),
                seed=seed,
                snapshot=snapshot,
                curve_label=self.design.name,
            )

        # Restore the best state seen during the anneal.
        best_orders = stats.best_snapshot
        after = {
            side: Assignment(working[side].quadrant, best_orders[side])
            for side in working
        }
        if self.polish_passes:
            with span("exchange.polish", telemetry):
                self._polish(after, cost)
        for assignment in after.values():
            check_legal(assignment)

        psi = self.design.stacking.tier_count
        return ExchangeResult(
            before=before,
            after=after,
            stats=stats,
            cost_breakdown_before=cost.breakdown(before),
            cost_breakdown_after=cost.breakdown(after),
            omega_before=omega_of_design(before, psi),
            omega_after=omega_of_design(after, psi),
        )

    def _polish(self, assignments: Dict, cost) -> None:
        """Zero-temperature finish: sweep every adjacent legal swap.

        Accepting only strict improvements until a full sweep finds none
        (or the pass budget runs out) leaves the result locally optimal
        under the exact Eq.-3 cost — the SA explores, the polish converges.
        """
        from ..assign import swap_is_legal

        current = cost.total(assignments)
        for __ in range(self.polish_passes):
            improved = False
            for assignment in assignments.values():
                for slot in range(1, assignment.slot_count):
                    if not swap_is_legal(assignment, slot, slot + 1):
                        continue
                    assignment.swap_slots(slot, slot + 1)
                    candidate = cost.total(assignments)
                    if candidate < current - 1e-12:
                        current = candidate
                        improved = True
                    else:
                        assignment.swap_slots(slot, slot + 1)
            if not improved:
                break
