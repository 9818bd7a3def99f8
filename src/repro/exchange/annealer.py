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
        # the loop runs range(moves_per_temp): a float (e.g. 2.5 from JSON
        # job params) would only fail mid-anneal, a bool reads as 0 or 1
        if not isinstance(self.moves_per_temp, int) or isinstance(
            self.moves_per_temp, bool
        ):
            raise ValueError(
                f"moves_per_temp must be an int, not {self.moves_per_temp!r}"
            )
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
    """One annealing chain: its counters, best state and place in the schedule.

    The record is the whole future of an anneal: with the problem state
    captured next to it (:meth:`to_json`), a chain restored by
    :meth:`from_json` walks on exactly as the uninterrupted one would.
    :func:`advance` moves it; ``SimulatedAnnealer.optimize``, the tempering
    segment job and ``SACheckpointer`` all hold a chain in this one form.
    """

    proposed: int = 0
    infeasible: int = 0
    accepted: int = 0
    accepted_uphill: int = 0
    #: Moves rejected because their cost delta was NaN/inf (normally 0).
    nonfinite_rejected: int = 0
    initial_cost: float = 0.0
    #: Cost of the chain's current state; the final cost once it stops.
    current_cost: float = 0.0
    best_cost: float = 0.0
    #: Current cost at the end of every finished temperature tier.
    cost_trace: List[float] = field(default_factory=list)
    #: Snapshot of the best state seen (whatever the snapshot callable
    #: returned); ``None`` when no snapshot callable was supplied.
    best_snapshot: Optional[object] = None
    #: Temperature of the tier in progress (or of the next one).
    temperature: float = 0.0
    #: Moves done, and accepted, in the tier in progress.
    move_in_step: int = 0
    step_accepted: int = 0
    rng: Optional[random.Random] = None

    @property
    def final_cost(self) -> float:
        return self.current_cost

    @final_cost.setter
    def final_cost(self, value: float) -> None:
        self.current_cost = value

    @property
    def acceptance_ratio(self) -> float:
        feasible = self.proposed - self.infeasible
        return self.accepted / feasible if feasible else 0.0

    @classmethod
    def genesis(
        cls, cost: float, temperature: float, seed: Optional[int], best=None
    ) -> "SAStats":
        """A fresh chain at *cost* and *temperature* with a seeded rng."""
        if not math.isfinite(cost):
            # There is no way to anneal from a poisoned cost: every delta
            # would be NaN and Metropolis acceptance would be arbitrary.
            raise NonFiniteCostError(f"initial annealing cost is non-finite: {cost!r}")
        return cls(
            initial_cost=cost,
            current_cost=cost,
            best_cost=cost,
            best_snapshot=best,
            temperature=float(temperature),
            rng=random.Random(seed),
        )

    def to_json(self, state) -> dict:
        """The chain as one JSON document, with the problem's *state* capture.

        The layout is the checkpoint payload's (``CHECKPOINT_VERSION`` 1);
        ``best`` is stored as it is, so snapshots must be JSON-able.
        """
        version, internal, gauss = self.rng.getstate()
        document = {key: getattr(self, key) for key in _SCALARS}
        document.update(
            cost_trace=list(self.cost_trace),
            step_proposed=self.move_in_step,
            rng=[version, list(internal), gauss],
            state=state,
            best=self.best_snapshot,
        )
        return document

    @classmethod
    def from_json(cls, document: dict) -> "SAStats":
        """The chain of a :meth:`to_json` document (its ``state`` aside)."""
        version, internal, gauss = document["rng"]
        rng = random.Random()
        rng.setstate((version, tuple(internal), gauss))
        return cls(
            **{key: document[key] for key in _SCALARS},
            cost_trace=list(document["cost_trace"]),
            best_snapshot=document["best"],
            rng=rng,
        )


#: The :class:`SAStats` fields a chain document stores under their own names.
_SCALARS = (
    "proposed", "infeasible", "accepted", "accepted_uphill", "nonfinite_rejected",
    "initial_cost", "current_cost", "best_cost", "temperature", "move_in_step",
    "step_accepted",
)


def advance(
    chain: SAStats,
    steps: int,
    moves_per_temp: int,
    cooling: float,
    propose: Callable,
    apply: Callable,
    undo: Callable,
    cost: Callable[[], float],
    snapshot: Optional[Callable] = None,
    checkpoint=None,
    on_step: Optional[Callable] = None,
    on_delta: Optional[Callable] = None,
    on_nonfinite: Optional[Callable] = None,
) -> None:
    """Advance *chain* by *steps* temperature tiers: the Metropolis loop.

    A tier the chain stopped inside (a checkpoint resume) counts as the
    first of the *steps* and finishes from its next move.  *checkpoint*
    (a bound :class:`~repro.exchange.checkpoint.SACheckpointer`) saves the
    chain and the problem's capture every ``checkpoint.interval`` proposed
    moves, mid-tier included.  The hooks are for telemetry:
    ``on_step(chain, acceptance)`` after each tier, ``on_delta(delta)``
    for every finite cost delta and ``on_nonfinite(cost, temperature)``
    for a rejected NaN/inf one.

    The counters live in locals while the moves run; *chain* is brought
    up to date between runs of moves (at a checkpoint or a tier's end),
    and every tier-end hook sees it current.
    """
    rng = chain.rng
    uniform = rng.random
    interval = checkpoint.interval if checkpoint is not None else 0
    temperature = chain.temperature
    current_cost = chain.current_cost
    best_cost = chain.best_cost
    best = chain.best_snapshot
    infeasible = chain.infeasible
    accepted = chain.accepted
    accepted_uphill = chain.accepted_uphill
    nonfinite_rejected = chain.nonfinite_rejected
    step_accepted = chain.step_accepted
    for __ in range(steps):
        while chain.move_in_step < moves_per_temp:
            # Run up to the tier's end or the next checkpoint, whichever
            # comes first, so the move loop itself carries no cadence test.
            start = chain.move_in_step
            stop = moves_per_temp
            if interval:
                stop = min(stop, start + interval - chain.proposed % interval)
            for __ in range(stop - start):
                move = propose(rng)
                if move is None:
                    infeasible += 1
                    continue
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
                    nonfinite_rejected += 1
                    if on_nonfinite is not None:
                        on_nonfinite(new_cost, temperature)
                    continue
                if on_delta is not None:
                    on_delta(delta)
                # Draw the Metropolis uniform unconditionally so the rng
                # stream advances identically for every finite applied move.
                # With the short-circuit draw, a zero-delta move computed as
                # 0.0 by one cost backend and +-1e-16 by another would
                # consume different amounts of randomness and desync the
                # backends' move sequences from that point on.
                draw = uniform()
                if delta <= 0 or draw < math.exp(-delta / temperature):
                    current_cost = new_cost
                    accepted += 1
                    step_accepted += 1
                    if delta > BEST_IMPROVEMENT_EPS:
                        accepted_uphill += 1
                    # Require a material improvement before re-snapshotting:
                    # cost backends agree only to float rounding (~1e-16), so
                    # a strict `<` would let one backend re-snapshot at an
                    # equal-cost revisit the other skips, and the restored
                    # "best" states would diverge.  Real Eq.-3 improvements
                    # are orders of magnitude above this tolerance (it is the
                    # same margin the polish stage uses).
                    if current_cost < best_cost - BEST_IMPROVEMENT_EPS:
                        best_cost = current_cost
                        if snapshot is not None:
                            best = snapshot()
                else:
                    undo(move)
            chain.proposed += stop - start
            chain.move_in_step = stop
            chain.infeasible = infeasible
            chain.accepted = accepted
            chain.accepted_uphill = accepted_uphill
            chain.nonfinite_rejected = nonfinite_rejected
            chain.step_accepted = step_accepted
            chain.current_cost = current_cost
            chain.best_cost = best_cost
            chain.best_snapshot = best
            if interval and chain.proposed % interval == 0:
                checkpoint.save(chain.to_json(checkpoint.capture()))
        chain.cost_trace.append(current_cost)
        if on_step is not None:
            on_step(chain, step_accepted / moves_per_temp)
        temperature *= cooling
        chain.temperature = temperature
        chain.move_in_step = chain.step_accepted = step_accepted = 0


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
        ``checkpoint.interval`` proposed moves the chain (:class:`SAStats`:
        rng, temperature, counters, place in the tier, best-so-far) and the
        problem state (``checkpoint.capture``) are atomically persisted.
        When a valid checkpoint exists at start, the run resumes from it
        and replays the exact continuation the uninterrupted run would
        have produced — move for move, bit for bit.  A completed run
        clears its checkpoint.
        """
        import time

        from ..runtime.telemetry import get_telemetry

        telemetry = get_telemetry()
        params = self.params
        chain = None
        if checkpoint is not None:
            if snapshot is None or checkpoint.capture is None:
                raise ValueError(
                    "checkpointing requires a snapshot callable and a bound "
                    "checkpointer (SACheckpointer.bind)"
                )
            payload = checkpoint.load()
            if payload is not None:
                # Problem state first (so the cost structures rebuild), then
                # the chain exactly as the uninterrupted run had it.
                checkpoint.restore(payload["state"])
                chain = SAStats.from_json(payload)
                telemetry.emit(
                    "checkpoint.resumed",
                    proposed=chain.proposed,
                    temperature=round(chain.temperature, 8),
                )
                telemetry.count("checkpoint.resumes")
        if chain is None:
            chain = SAStats.genesis(
                cost(), params.initial_temp, seed, snapshot() if snapshot else None
            )
        telemetry.emit(
            "sa.begin",
            initial_cost=chain.initial_cost,
            initial_temp=params.initial_temp,
            steps=params.temperature_steps(),
            moves_per_temp=params.moves_per_temp,
        )
        # With telemetry off the move loop gets no hooks and touches no
        # telemetry object at all (``benchmarks/bench_obs.py`` gates it
        # against an uninstrumented loop).
        track = telemetry.enabled
        hooks = {}
        if track:
            from ..obs.curves import CurveRecorder
            from ..obs.metrics import SA_DELTA_BUCKETS

            # One sample per temperature step, stride-doubled to a bounded
            # point budget; shipped as a single sa.curve event at the end
            # (see repro.obs.curves).
            curve = CurveRecorder()

            def on_step(chain: SAStats, acceptance: float) -> None:
                telemetry.emit(
                    "sa.step",
                    temperature=round(chain.temperature, 8),
                    cost=chain.current_cost,
                    acceptance=acceptance,
                )
                curve.observe(
                    chain.proposed, chain.current_cost, chain.best_cost,
                    acceptance, chain.temperature,
                )

            def on_nonfinite(new_cost: float, temperature: float) -> None:
                telemetry.count("sa.nonfinite_rejected")
                telemetry.emit(
                    "sa.nonfinite",
                    cost=repr(new_cost),
                    temperature=round(temperature, 8),
                )

            hooks = {
                "on_step": on_step,
                "on_delta": telemetry.metrics.histogram(
                    "sa.delta", SA_DELTA_BUCKETS
                ).record,
                "on_nonfinite": on_nonfinite,
            }
        loop_started = time.perf_counter()
        advance(
            chain,
            params.temperature_steps() - len(chain.cost_trace),
            params.moves_per_temp,
            params.cooling,
            propose,
            apply,
            undo,
            cost,
            snapshot,
            checkpoint,
            **hooks,
        )
        if checkpoint is not None:
            # A finished anneal leaves no checkpoint behind: resuming a
            # completed schedule would run moves past it.
            checkpoint.clear()
        if track:
            elapsed = time.perf_counter() - loop_started
            telemetry.metrics.gauge("sa.acceptance_ratio").set(
                round(chain.acceptance_ratio, 6)
            )
            telemetry.emit(
                "sa.end",
                final_cost=chain.final_cost,
                best_cost=chain.best_cost,
                proposed=chain.proposed,
                accepted=chain.accepted,
                accepted_uphill=chain.accepted_uphill,
                acceptance_ratio=chain.acceptance_ratio,
                seconds=round(elapsed, 6),
                moves_per_s=round(chain.proposed / elapsed, 1) if elapsed else 0.0,
                nonfinite_rejected=chain.nonfinite_rejected,
            )
            if curve.observed:
                curve.emit(telemetry, circuit=curve_label)
        return chain
