"""Generic simulated-annealing engine (Kirkpatrick et al. [7]).

The paper's finger/pad exchange (Fig. 14) is a classic SA loop: random
neighbour move, Metropolis acceptance, geometric cooling.  This module
provides the schedule and loop; problem specifics (move proposal, apply,
undo, cost) come in as callables so the engine is reusable and testable in
isolation.

Note on acceptance: the paper's pseudocode writes the uphill test as
``Random(0,1) > exp(-dC/T)`` which *rejects* with the Boltzmann probability —
an obvious typo, as it would accept worse moves more eagerly the worse they
are.  We implement the standard Metropolis criterion
``Random(0,1) < exp(-dC/T)``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..errors import NonFiniteCostError


@functools.lru_cache(maxsize=4096)
def _executed_steps(initial_temp: float, final_temp: float, cooling: float) -> int:
    """Cooling steps the ``optimize`` loop will actually execute.

    Counted by replaying the loop's own multiplicative recurrence
    (``temperature *= cooling`` until ``temperature <= final_temp``).  The
    closed form ``ceil(log(final/initial) / log(cooling))`` is off by one
    whenever float rounding lands ``initial * cooling**n`` on the other
    side of ``final_temp`` than exact arithmetic would — sequential
    multiplication and the power/log round differently — which skewed
    ``sa.begin`` step counts, curve budgets and progress math.
    """
    steps = 0
    temperature = initial_temp
    while temperature > final_temp:
        temperature *= cooling
        steps += 1
    return steps

#: Minimum cost improvement that counts as a new best (and triggers a
#: snapshot), and minimum rise that counts an accepted move as uphill.
#: Keeps best-state selection and the uphill count invariant to the ~1e-16
#: rounding differences between cost backends (a no-op swap is exactly 0.0
#: on the integer-backed kernel but can read +1e-16 on the object model);
#: genuine Eq.-3 deltas are >= ~1e-6.
BEST_IMPROVEMENT_EPS = 1e-12


@dataclass(frozen=True)
class SAParams:
    """Annealing schedule parameters (paper Fig. 14, line 2)."""

    initial_temp: float = 0.03
    final_temp: float = 1e-4
    cooling: float = 0.95
    moves_per_temp: int = 150

    def __post_init__(self) -> None:
        # inf never cools below final_temp; NaN fails every comparison
        if not (math.isfinite(self.initial_temp) and math.isfinite(self.final_temp)):
            raise ValueError("temperatures must be finite")
        if self.initial_temp <= 0 or self.final_temp <= 0:
            raise ValueError("temperatures must be positive")
        if self.final_temp > self.initial_temp:
            raise ValueError("final temperature must not exceed the initial one")
        if not (0.0 < self.cooling < 1.0):
            raise ValueError("cooling factor must be in (0, 1)")
        if self.moves_per_temp < 1:
            raise ValueError("moves_per_temp must be >= 1")

    def temperature_steps(self) -> int:
        """Number of cooling steps the schedule will execute.

        Exact by construction: replays the same ``temperature *= cooling``
        recurrence the annealing loop runs (see :func:`_executed_steps`),
        so the reported count always equals ``len(stats.cost_trace)``.
        """
        return _executed_steps(self.initial_temp, self.final_temp, self.cooling)

    def total_moves(self) -> int:
        """Total move attempts over the whole schedule."""
        return self.temperature_steps() * self.moves_per_temp


@dataclass
class SAStats:
    """Bookkeeping of one annealing run."""

    proposed: int = 0
    infeasible: int = 0
    accepted: int = 0
    accepted_uphill: int = 0
    #: Moves rejected because their cost delta was NaN/inf (see
    #: ``SimulatedAnnealer.optimize``; normally 0).
    nonfinite_rejected: int = 0
    initial_cost: float = 0.0
    final_cost: float = 0.0
    best_cost: float = 0.0
    cost_trace: List[float] = field(default_factory=list)
    #: Snapshot of the best state seen (whatever the snapshot callable
    #: returned); ``None`` when no snapshot callable was supplied.
    best_snapshot: Optional[object] = None

    @property
    def acceptance_ratio(self) -> float:
        feasible = self.proposed - self.infeasible
        return self.accepted / feasible if feasible else 0.0


class SimulatedAnnealer:
    """Schedule-driven annealer over externally managed state.

    The caller owns the state; the annealer drives it through callables:

    ``propose(rng)``
        Return an opaque move object, or ``None`` when no feasible move was
        found this attempt.
    ``apply(move)`` / ``undo(move)``
        Mutate / revert the state.
    ``cost()``
        Current scalar cost of the state.
    ``snapshot()`` (optional)
        Capture the state; the best snapshot seen is stored on the stats
        object as ``best_snapshot``.
    """

    def __init__(self, params: Optional[SAParams] = None) -> None:
        self.params = params or SAParams()

    def optimize(
        self,
        propose: Callable,
        apply: Callable,
        undo: Callable,
        cost: Callable[[], float],
        seed: Optional[int] = None,
        snapshot: Optional[Callable] = None,
        checkpoint=None,
        curve_label: Optional[str] = None,
    ) -> SAStats:
        """Run the schedule; optionally checkpointed for crash-safe resume.

        *checkpoint* is a bound
        :class:`~repro.exchange.checkpoint.SACheckpointer`: every
        ``checkpoint.interval`` proposed moves the full run state (problem
        state via ``checkpoint.capture``, rng Mersenne state, accumulated
        temperature, mid-step counters, stats, best-so-far) is atomically
        persisted (the best-so-far snapshot as it is, so it must be
        JSON-able).  When a valid checkpoint exists at start, the run
        resumes from it and replays the exact continuation the
        uninterrupted run would have produced — move for move, bit for
        bit.  A completed run clears its checkpoint.
        """
        import time

        from ..obs.metrics import SA_DELTA_BUCKETS
        from ..runtime.telemetry import get_telemetry

        telemetry = get_telemetry()
        # Hoist the enabled check out of the move loop: with telemetry off
        # the inner loop must touch no telemetry object at all (the ~16k
        # moves of a production run are gated by ``benchmarks/bench_obs.py``
        # to within 5% of an uninstrumented loop).
        track = telemetry.enabled
        delta_histogram = (
            telemetry.metrics.histogram("sa.delta", SA_DELTA_BUCKETS) if track else None
        )
        curve = None
        if track:
            from ..obs.curves import CurveRecorder

            # One sample per temperature step, stride-doubled to a bounded
            # point budget; shipped as a single sa.curve event at the end
            # (see repro.obs.curves).  Lives entirely outside the move loop.
            curve = CurveRecorder()
        rng = random.Random(seed)
        params = self.params
        stats = SAStats()
        current_cost = cost()
        if not math.isfinite(current_cost):
            # There is no way to anneal from a poisoned cost: every delta
            # would be NaN and Metropolis acceptance would be arbitrary.
            raise NonFiniteCostError(
                f"initial annealing cost is non-finite: {current_cost!r}"
            )
        stats.initial_cost = current_cost
        stats.best_cost = current_cost
        best_snapshot = snapshot() if snapshot else None
        telemetry.emit(
            "sa.begin",
            initial_cost=current_cost,
            initial_temp=params.initial_temp,
            steps=params.temperature_steps(),
            moves_per_temp=params.moves_per_temp,
        )

        loop_started = time.perf_counter()
        temperature = params.initial_temp
        start_move = 0
        step_proposed = step_accepted = 0
        resumed = False
        if checkpoint is not None:
            if snapshot is None or checkpoint.capture is None:
                raise ValueError(
                    "checkpointing requires a snapshot callable and a bound "
                    "checkpointer (SACheckpointer.bind)"
                )
            payload = checkpoint.load()
            if payload is not None:
                # Restore in dependency order: problem state first (so the
                # cost structures rebuild), then the exact scalar/rng state
                # the uninterrupted run had at the moment of the save.
                checkpoint.restore(payload["state"])
                rng_state = payload["rng"]
                rng.setstate((rng_state[0], tuple(rng_state[1]), rng_state[2]))
                stats.proposed = int(payload["proposed"])
                stats.infeasible = int(payload["infeasible"])
                stats.accepted = int(payload["accepted"])
                stats.accepted_uphill = int(payload["accepted_uphill"])
                stats.nonfinite_rejected = int(payload["nonfinite_rejected"])
                stats.initial_cost = payload["initial_cost"]
                stats.best_cost = payload["best_cost"]
                stats.cost_trace = list(payload["cost_trace"])
                best_snapshot = payload.get("best")
                current_cost = payload["current_cost"]
                temperature = payload["temperature"]
                start_move = int(payload["move_in_step"])
                step_proposed = int(payload["step_proposed"])
                step_accepted = int(payload["step_accepted"])
                resumed = True
                telemetry.emit(
                    "checkpoint.resumed",
                    proposed=stats.proposed,
                    temperature=round(temperature, 8),
                )
                telemetry.count("checkpoint.resumes")
        # Hoisted out of the move loop: the cadence test runs every move,
        # so it must cost one local int check, not two attribute loads.
        checkpoint_interval = checkpoint.interval if checkpoint is not None else 0
        while temperature > params.final_temp:
            if resumed:
                # First step after a resume continues mid-step: keep the
                # restored per-step counters and move index.
                resumed = False
            else:
                step_proposed = step_accepted = 0
            for move_index in range(start_move, params.moves_per_temp):
                stats.proposed += 1
                step_proposed += 1
                move = propose(rng)
                if move is None:
                    stats.infeasible += 1
                else:
                    apply(move)
                    new_cost = cost()
                    delta = new_cost - current_cost
                    if not math.isfinite(delta):
                        # A NaN/inf delta would make `random() < exp(-delta/T)`
                        # silently accept a poisoned state (NaN comparisons are
                        # False, but delta <= 0 already misfires for -inf, and a
                        # NaN new_cost corrupts every later delta).  Reject the
                        # move, keep the last trusted state, and record it.
                        undo(move)
                        stats.nonfinite_rejected += 1
                        telemetry.count("sa.nonfinite_rejected")
                        telemetry.emit(
                            "sa.nonfinite",
                            cost=repr(new_cost),
                            temperature=round(temperature, 8),
                        )
                    else:
                        if delta_histogram is not None:
                            delta_histogram.record(delta)
                        # Draw the Metropolis uniform unconditionally so the rng
                        # stream advances identically for every finite applied move.
                        # With the short-circuit draw, a zero-delta move computed as
                        # 0.0 by one cost backend and +-1e-16 by another would
                        # consume different amounts of randomness and desync the
                        # backends' move sequences from that point on.
                        uniform = rng.random()
                        if delta <= 0 or uniform < math.exp(-delta / temperature):
                            current_cost = new_cost
                            stats.accepted += 1
                            step_accepted += 1
                            if delta > BEST_IMPROVEMENT_EPS:
                                stats.accepted_uphill += 1
                            # Require a material improvement before re-snapshotting:
                            # cost backends agree only to float rounding (~1e-16), so
                            # a strict `<` would let one backend re-snapshot at an
                            # equal-cost revisit the other skips, and the restored
                            # "best" states would diverge.  Real Eq.-3 improvements
                            # are orders of magnitude above this tolerance (it is the
                            # same margin the polish stage uses).
                            if current_cost < stats.best_cost - BEST_IMPROVEMENT_EPS:
                                stats.best_cost = current_cost
                                if snapshot:
                                    best_snapshot = snapshot()
                        else:
                            undo(move)
                # Outside the move if/else chain — never behind a skipped
                # path — so the cadence cannot silently miss a beat when it
                # lands on an infeasible or non-finite move.
                if checkpoint_interval and stats.proposed % checkpoint_interval == 0:
                    rng_state = rng.getstate()
                    checkpoint.save(
                        {
                            "proposed": stats.proposed,
                            "infeasible": stats.infeasible,
                            "accepted": stats.accepted,
                            "accepted_uphill": stats.accepted_uphill,
                            "nonfinite_rejected": stats.nonfinite_rejected,
                            "initial_cost": stats.initial_cost,
                            "best_cost": stats.best_cost,
                            "cost_trace": list(stats.cost_trace),
                            "current_cost": current_cost,
                            "temperature": temperature,
                            "move_in_step": move_index + 1,
                            "step_proposed": step_proposed,
                            "step_accepted": step_accepted,
                            "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
                            "state": checkpoint.capture(),
                            "best": best_snapshot,
                        }
                    )
            start_move = 0
            stats.cost_trace.append(current_cost)
            if track:
                acceptance = (
                    step_accepted / step_proposed if step_proposed else 0.0
                )
                telemetry.emit(
                    "sa.step",
                    temperature=round(temperature, 8),
                    cost=current_cost,
                    acceptance=acceptance,
                )
                curve.observe(
                    stats.proposed, current_cost, stats.best_cost,
                    acceptance, temperature,
                )
            temperature *= params.cooling

        stats.final_cost = current_cost
        stats.best_snapshot = best_snapshot
        if checkpoint is not None:
            # A finished anneal leaves no checkpoint behind: resuming a
            # completed schedule would run moves past it.
            checkpoint.clear()
        if track:
            elapsed = time.perf_counter() - loop_started
            telemetry.metrics.gauge("sa.acceptance_ratio").set(
                round(stats.acceptance_ratio, 6)
            )
            telemetry.emit(
                "sa.end",
                final_cost=stats.final_cost,
                best_cost=stats.best_cost,
                proposed=stats.proposed,
                accepted=stats.accepted,
                accepted_uphill=stats.accepted_uphill,
                acceptance_ratio=stats.acceptance_ratio,
                seconds=round(elapsed, 6),
                moves_per_s=round(stats.proposed / elapsed, 1) if elapsed else 0.0,
                nonfinite_rejected=stats.nonfinite_rejected,
            )
            if curve is not None and curve.observed:
                curve.emit(telemetry, circuit=curve_label)
        return stats
