"""Array-backed exchange kernel: O(1) adjacent-swap deltas for the SA loop.

``CachedExchangeCost`` re-derives a dirtied side's pad fractions, section
runs and omega groups on every ``total()`` call — O(rows * n) per move,
which caps the annealer near the paper's 448-finger circuits.  This kernel
mirrors the object model as flat arrays (see :mod:`.state`) and keeps every
Eq.-3 ingredient incrementally:

* **IR term** — the compact proxy is the sum of squared circular gaps
  between supply-pad ring positions.  All ring positions live on the
  uniform grid ``(g - 0.5) / N``, so gaps are *integers* in slot units and
  the proxy is ``sum(gap^2) / N^2`` exactly.  A doubly-linked ring over the
  occupied positions per supply network turns a pad move into a four-gap
  integer update — no floating-point accumulation, hence no drift, ever.
* **density term (Eq. 2)** — an adjacent swap crosses at most one via of
  one watched line, moving one wire between two neighbouring runs.  A flat
  run-delta array plus a histogram over delta values maintains
  ``max_c (I_c_new - I_c_ini)`` in O(1) amortized.
* **bonding term (omega)** — tier bitmasks per finger group; a swap only
  re-ORs the (at most) two groups it straddles, O(psi).
* **wirelength guard** (optional) — per-net flyline lengths recomputed
  from the flyline geometry of the quadrant's static
  :class:`~repro.package.QuadrantTables`, four ``hypot`` calls per move,
  with a periodic vectorized resync to keep float accumulation below 1e-12.

The kernel is the production exchange at every design size and reports
for itself: :meth:`ArrayExchangeKernel.breakdown` returns the Eq.-3 terms
keyed like ``ExchangeCost.breakdown`` and :attr:`ArrayExchangeKernel.omega`
the bonding metric, both in O(1) apart from the exact wirelength resync.

Move proposal replicates :class:`~repro.exchange.moves.MoveGenerator`
call-for-call (same candidate ordering, same ``rng`` consumption, same
legality rule), so a shared seed yields the *identical* accept/reject
trace and final assignment as the object-model reference —
``tests/test_kernels.py`` proves it on every Table-2/Table-3 circuit and
cross-checks kernel totals against ``verify.checkers``' exact Eq.-3
re-derivation to 1e-9.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..assign import Assignment
from ..errors import ExchangeError
from ..exchange.bonding import omega_of_design
from ..exchange.cost import CostWeights
from ..package import NetType
from ..power import compact_ir_cost, supply_pad_fractions
from .state import SideArrays, build_side_arrays

#: How many swaps between vectorized wirelength resyncs (float-drift guard;
#: the integer-backed IR/density/omega terms never drift and never resync).
WL_RESYNC_INTERVAL = 4096


class ArrayExchangeKernel:
    """Drop-in move source + cost for :class:`SimulatedAnnealer`.

    Construct from a design and its baseline (post-assignment)
    ``{side: Assignment}``; the kernel starts *at* the baseline.  Feed
    ``propose`` / ``apply`` / ``undo`` / ``cost`` / ``snapshot`` straight
    into ``SimulatedAnnealer.optimize``.
    """

    def __init__(
        self,
        design,
        baseline_assignments: Dict,
        weights: Optional[CostWeights] = None,
        net_type: Optional[NetType] = NetType.POWER,
        ir_proxy=None,
        track_all_rows: bool = True,
        split_networks: bool = False,
        power_only: Optional[bool] = None,
        max_attempts: int = 16,
        wl_resync_interval: Optional[int] = None,
    ) -> None:
        if ir_proxy is not None:
            raise ExchangeError(
                "the array kernel implements the paper's compact gap-spread "
                "proxy only; FingerPadExchanger runs a custom ir_proxy on "
                "the object loop"
            )
        self.design = design
        self.weights = weights or CostWeights()
        self.net_type = net_type
        self.split_networks = split_networks
        self.psi = design.stacking.tier_count
        self.max_attempts = max_attempts
        if wl_resync_interval is not None and wl_resync_interval < 1:
            raise ExchangeError(
                f"wl_resync_interval must be >= 1, got {wl_resync_interval}"
            )
        #: None = follow the module-level ``WL_RESYNC_INTERVAL`` (read at
        #: swap time, so tests can monkeypatch it); an int pins it per
        #: kernel — the fuzzer uses tiny values to force drift resyncs.
        self.wl_resync_interval = wl_resync_interval
        power_only = (self.psi == 1) if power_only is None else power_only
        self.power_only = power_only

        # -- normalizers: the exact model's own code paths, so the kernel
        # and the reference divide by bit-identical constants.
        if split_networks:
            raw = sum(
                compact_ir_cost(
                    supply_pad_fractions(design, baseline_assignments, net_type=nt)
                )
                for nt in (NetType.POWER, NetType.GROUND)
            )
        else:
            raw = compact_ir_cost(
                supply_pad_fractions(design, baseline_assignments, net_type=net_type)
            )
        self._ir_initial = max(raw, 1e-12)
        self._omega_initial = max(omega_of_design(baseline_assignments, self.psi), 1)
        self._track_wl = self.weights.wirelength > 0

        # -- flat state, one block per side in design ring order
        self.sides: List[SideArrays] = []
        run_base = 0
        for side in design.sides:
            arrays = build_side_arrays(
                design,
                side,
                baseline_assignments[side],
                net_type,
                split_networks,
                track_all_rows,
                run_base,
            )
            run_base += sum(wr.run_count for wr in arrays.watched)
            self.sides.append(arrays)
        self._total_runs = run_base
        self._ring = design.ring_slot_count()
        self._ring_sq = float(self._ring) * float(self._ring)
        self._class_count = 2 if split_networks else 1

        # candidate pool for propose(), mirroring MoveGenerator exactly:
        # (side, net) pairs in design order, supply-only for 2-D ICs
        self._candidates: List[Tuple[int, int]] = []
        for q, arrays in enumerate(self.sides):
            supply = arrays.tables.type_nets[None]
            nets = supply if power_only else range(arrays.slot_count)
            self._candidates.extend((q, int(index)) for index in nets)

        # The wirelength normalizer is the vectorized flyline total that
        # measure() reports, not the exact model's per-net sum (they agree
        # to ~1e-15 relative).
        self._wl_initial = 1.0
        if self._track_wl:
            self._wl_initial = max(self._exact_wirelength(), 1e-12)
        #: Observability counters (read by the exchanger's ``kernel.stats``
        #: telemetry event): total ``_swap`` calls and wirelength resyncs.
        self.swap_count = 0
        self.resync_count = 0
        self._rebuild()

    # -- state (re)construction ---------------------------------------------

    def _rebuild(self) -> None:
        """Recompute every incremental structure from the slot arrays."""
        self._rebuild_ir()
        self._rebuild_density()
        if self.psi > 1:
            self._rebuild_bonding()
        if self._track_wl:
            self._wl_total = self._exact_wirelength()
            self._wl_since_resync = 0

    def _rebuild_ir(self) -> None:
        ring = self._ring
        # per network class: pad count, integer sum of squared gaps, and a
        # doubly-linked circular list over occupied global ring positions
        self._pad_count = [0] * self._class_count
        self._sumsq = [0] * self._class_count
        self._nxt = [np.zeros(ring + 1, dtype=np.int64) for _ in range(self._class_count)]
        self._prv = [np.zeros(ring + 1, dtype=np.int64) for _ in range(self._class_count)]
        for cls in range(self._class_count):
            positions = np.sort(
                np.concatenate(
                    [
                        arrays.ring_offset
                        + arrays.net_slot[arrays.supply_class == cls]
                        + 1
                        for arrays in self.sides
                    ]
                )
            )
            count = len(positions)
            self._pad_count[cls] = count
            if count == 0:
                raise ExchangeError(
                    "design has no supply pads of the requested type"
                )
            nxt, prv = self._nxt[cls], self._prv[cls]
            if count == 1:
                position = int(positions[0])
                nxt[position] = prv[position] = position
                self._sumsq[cls] = ring * ring
                continue
            nxt[positions[:-1]] = positions[1:]
            nxt[positions[-1]] = positions[0]
            prv[positions[1:]] = positions[:-1]
            prv[positions[0]] = positions[-1]
            gaps = np.diff(positions)
            wrap = ring - int(positions[-1]) + int(positions[0])
            self._sumsq[cls] = int(np.sum(gaps * gaps)) + wrap * wrap

    def _rebuild_density(self) -> None:
        from .state import row_run_counts

        deltas = np.zeros(self._total_runs, dtype=np.int64)
        for arrays in self.sides:
            for wr in arrays.watched:
                counts = row_run_counts(
                    arrays.net_slot, arrays.rows, wr.via_nets, wr.row
                )
                deltas[wr.run_base : wr.run_base + wr.run_count] = (
                    counts - wr.baseline_counts
                )
        self._run_delta = deltas
        values, counts = np.unique(deltas, return_counts=True)
        self._hist: Dict[int, int] = {
            int(value): int(count) for value, count in zip(values, counts)
        }
        self._max_delta = int(values[-1]) if len(values) else 0

    def _rebuild_bonding(self) -> None:
        psi = self.psi
        self._group_zeros: List[np.ndarray] = []
        total = 0
        for arrays in self.sides:
            tier_bits = np.left_shift(1, arrays.tiers[arrays.slot_net] - 1)
            group_count = -(-arrays.slot_count // psi)
            zeros = np.empty(group_count, dtype=np.int64)
            for group in range(group_count):
                mask = int(
                    np.bitwise_or.reduce(tier_bits[group * psi : (group + 1) * psi])
                )
                zeros[group] = psi - bin(mask).count("1")
            self._group_zeros.append(zeros)
            total += int(zeros.sum())
        self._omega_total = total

    # -- annealer interface ---------------------------------------------------

    def propose(self, rng: random.Random) -> Optional[Tuple[int, int]]:
        """One random legal adjacent swap ``(side_index, lo_slot_1based)``.

        Byte-compatible with ``MoveGenerator.propose``: identical candidate
        ordering and rng consumption, so shared seeds walk the kernel and
        the reference through the same move sequence.
        """
        if not self._candidates:
            return None
        for __ in range(self.max_attempts):
            q, net = rng.choice(self._candidates)
            arrays = self.sides[q]
            slot = int(arrays.net_slot[net]) + 1
            direction = rng.choice((-1, 1))
            neighbour = slot + direction
            count = arrays.slot_count
            if not (1 <= neighbour <= count):
                neighbour = slot - direction
                if not (1 <= neighbour <= count):
                    continue
            lo = slot if slot < neighbour else neighbour
            net_lo = int(arrays.slot_net[lo - 1])
            net_hi = int(arrays.slot_net[lo])
            if arrays.rows[net_lo] != arrays.rows[net_hi]:
                return (q, lo)
        return None

    def apply(self, move: Tuple[int, int]) -> None:
        self._swap(move[0], move[1])

    def undo(self, move: Tuple[int, int]) -> None:
        # adjacent swaps are involutions; integer terms revert exactly
        self._swap(move[0], move[1])

    def cost(self) -> float:
        """Current Eq.-3 total, recomposed from the integer state in O(1)."""
        raw = self._sumsq[0]
        for cls in range(1, self._class_count):
            raw += self._sumsq[cls]
        total = self.weights.ir * (raw / self._ring_sq / self._ir_initial)
        total += self.weights.density * float(self._max_delta)
        if self.psi > 1:
            total += self.weights.bonding * (self._omega_total / self._omega_initial)
        if self._track_wl:
            total += self.weights.wirelength * (self._wl_total / self._wl_initial)
        return total

    def breakdown(self) -> Dict[str, float]:
        """Per-term Eq.-3 values, keyed like ``ExchangeCost.breakdown``.

        The wirelength term is recomputed exactly rather than read from the
        drifting accumulator, so the report is a pure function of the
        current orders.
        """
        weights = self.weights
        raw = sum(self._sumsq)
        result = {
            "ir": raw / self._ring_sq / self._ir_initial,
            "density": float(self._max_delta),
        }
        total = weights.ir * result["ir"]
        total += weights.density * result["density"]
        if self.psi > 1:
            result["bonding"] = self._omega_total / self._omega_initial
            total += weights.bonding * result["bonding"]
        if self._track_wl:
            result["wirelength"] = self._exact_wirelength() / self._wl_initial
            total += weights.wirelength * result["wirelength"]
        result["total"] = total
        return result

    @property
    def omega(self) -> int:
        """Bonding-wire omega of the current state (0 for 2-D ICs)."""
        return self._omega_total if self.psi > 1 else 0

    def snapshot(self) -> List[np.ndarray]:
        """Cheap copy of the current per-side slot->net arrays."""
        return [arrays.slot_net.copy() for arrays in self.sides]

    def restore(self, snapshot: List[np.ndarray]) -> None:
        """Jump back to a snapshot and rebuild the incremental state."""
        for arrays, slots in zip(self.sides, snapshot):
            arrays.slot_net[:] = slots
            arrays.net_slot[arrays.slot_net] = np.arange(
                arrays.slot_count, dtype=np.int64
            )
        self._rebuild()

    # -- checkpoint/resume -------------------------------------------------

    def checkpoint_state(self) -> dict:
        """JSON-able full kernel state for crash-safe SA checkpointing.

        The integer terms (IR, density, omega) rebuild exactly from the
        slot arrays, but the wirelength guard is a *float accumulator*
        with deliberate drift between resyncs — restoring via
        :meth:`restore` alone would reset it to the exact value and
        desynchronize a resumed run's accept trace from the uninterrupted
        one.  The accumulator, its resync phase, and the swap counters are
        therefore part of the state.  (JSON round-trips Python floats
        exactly, so the restored accumulator is bit-identical.)
        """
        state = {
            "slots": [arrays.slot_net.tolist() for arrays in self.sides],
            "swap_count": self.swap_count,
            "resync_count": self.resync_count,
        }
        if self._track_wl:
            state["wl_total"] = self._wl_total
            state["wl_since_resync"] = self._wl_since_resync
        return state

    def restore_checkpoint(self, state: dict) -> None:
        """Resume from :meth:`checkpoint_state`, bit-identically."""
        self.restore(
            [np.asarray(slots, dtype=np.int64) for slots in state["slots"]]
        )
        self.swap_count = int(state.get("swap_count", 0))
        self.resync_count = int(state.get("resync_count", 0))
        if self._track_wl and "wl_total" in state:
            self._wl_total = float(state["wl_total"])
            self._wl_since_resync = int(state.get("wl_since_resync", 0))

    # -- hot path --------------------------------------------------------------

    def _swap(self, q: int, lo: int) -> None:
        self.swap_count += 1
        arrays = self.sides[q]
        slot_net = arrays.slot_net
        i = lo - 1
        j = lo
        net_a = int(slot_net[i])
        net_b = int(slot_net[j])
        slot_net[i] = net_b
        slot_net[j] = net_a
        arrays.net_slot[net_a] = j
        arrays.net_slot[net_b] = i

        # IR: at most one pad per tracked network moves by one ring slot
        class_a = int(arrays.supply_class[net_a])
        class_b = int(arrays.supply_class[net_b])
        if class_a != class_b:
            position = arrays.ring_offset + i + 1
            if class_a >= 0:
                self._move_pad(class_a, position, position + 1)
            if class_b >= 0:
                self._move_pad(class_b, position + 1, position)

        # density: the passing net crosses one via of the higher row
        row_a = int(arrays.rows[net_a])
        row_b = int(arrays.rows[net_b])
        if row_a > row_b:
            via, leftward = net_a, True
        else:
            via, leftward = net_b, False
        base = int(arrays.net_run_base[via])
        if base >= 0:
            k = base + int(arrays.tables.via_index[via])
            if leftward:
                # via sat left; the passing wire moved from run k+1 to run k
                self._bump_run(k, 1)
                self._bump_run(k + 1, -1)
            else:
                self._bump_run(k, -1)
                self._bump_run(k + 1, 1)

        # bonding: only group-straddling swaps change any OR-mask
        if self.psi > 1:
            psi = self.psi
            group_i = i // psi
            group_j = j // psi
            if group_i != group_j:
                self._refresh_group(q, group_i)
                self._refresh_group(q, group_j)

        if self._track_wl:
            self._wl_total += (
                self._flyline(q, net_a, j)
                + self._flyline(q, net_b, i)
                - self._flyline(q, net_a, i)
                - self._flyline(q, net_b, j)
            )
            self._wl_since_resync += 1
            interval = (
                self.wl_resync_interval
                if self.wl_resync_interval is not None
                else WL_RESYNC_INTERVAL
            )
            if self._wl_since_resync >= interval:
                self._wl_total = self._exact_wirelength()
                self._wl_since_resync = 0
                self.resync_count += 1

    def _move_pad(self, cls: int, position: int, new_position: int) -> None:
        nxt = self._nxt[cls]
        prv = self._prv[cls]
        if self._pad_count[cls] == 1:
            nxt[new_position] = prv[new_position] = new_position
            return
        left = int(prv[position])
        right = int(nxt[position])
        ring = self._ring
        old_l = (position - left) % ring
        old_r = (right - position) % ring
        new_l = (new_position - left) % ring
        new_r = (right - new_position) % ring
        self._sumsq[cls] += new_l * new_l + new_r * new_r - old_l * old_l - old_r * old_r
        nxt[left] = new_position
        prv[right] = new_position
        nxt[new_position] = right
        prv[new_position] = left

    def _bump_run(self, run: int, step: int) -> None:
        old = int(self._run_delta[run])
        new = old + step
        self._run_delta[run] = new
        hist = self._hist
        remaining = hist[old] - 1
        if remaining:
            hist[old] = remaining
        else:
            del hist[old]
        hist[new] = hist.get(new, 0) + 1
        if new > self._max_delta:
            self._max_delta = new
        elif old == self._max_delta and old not in hist:
            peak = self._max_delta - 1
            while peak not in hist:
                peak -= 1
            self._max_delta = peak

    def _refresh_group(self, q: int, group: int) -> None:
        arrays = self.sides[q]
        psi = self.psi
        start = group * psi
        stop = min(start + psi, arrays.slot_count)
        mask = 0
        slot_net = arrays.slot_net
        tiers = arrays.tiers
        for slot in range(start, stop):
            mask |= 1 << (int(tiers[slot_net[slot]]) - 1)
        zeros = psi - bin(mask).count("1")
        group_zeros = self._group_zeros[q]
        self._omega_total += zeros - int(group_zeros[group])
        group_zeros[group] = zeros

    def _flyline(self, q: int, net: int, slot: int) -> float:
        # math.hypot, matching Point.euclidean bit for bit
        tables = self.sides[q].tables
        return (
            math.hypot(
                float(tables.finger_x[slot]) - float(tables.via_x[net]),
                tables.finger_y - float(tables.via_y[net]),
            )
            + float(tables.via_ball[net])
        )

    def _exact_wirelength(self) -> float:
        """The vectorized flyline total of the current state (no drift)."""
        total = 0.0
        for arrays in self.sides:
            total += arrays.tables.flyline_total(arrays.net_slot)
        return total

    # -- zero-temperature polish ------------------------------------------------

    def polish(self, passes: int) -> None:
        """Greedy sweep of every legal adjacent swap (see ``_polish``).

        Semantically identical to the object loop's polish: same side
        and slot order, same strict-improvement threshold, so both
        converge to the same local optimum.
        """
        current = self.cost()
        for __ in range(passes):
            improved = False
            for q, arrays in enumerate(self.sides):
                rows = arrays.rows
                slot_net = arrays.slot_net
                for lo in range(1, arrays.slot_count):
                    if rows[int(slot_net[lo - 1])] == rows[int(slot_net[lo])]:
                        continue
                    self._swap(q, lo)
                    candidate = self.cost()
                    if candidate < current - 1e-12:
                        current = candidate
                        improved = True
                    else:
                        self._swap(q, lo)
            if not improved:
                break

    # -- boundary conversions ----------------------------------------------------

    def orders(self, snapshot: Optional[List[np.ndarray]] = None) -> Dict:
        """``{side: [net ids in slot order]}`` of a snapshot (or the state)."""
        slots = snapshot if snapshot is not None else [a.slot_net for a in self.sides]
        return {
            arrays.side: [int(net_id) for net_id in arrays.tables.net_ids[slot_net]]
            for arrays, slot_net in zip(self.sides, slots)
        }

    def assignments(self) -> Dict:
        """Materialize the current state as ``{side: Assignment}``."""
        return {
            arrays.side: Assignment(arrays.quadrant, order)
            for (arrays, order) in (
                (arrays, self.orders()[arrays.side]) for arrays in self.sides
            )
        }

    def self_check(self, baseline_assignments: Dict):
        """Cross-check the kernel total against the exact Eq.-3 model.

        Returns the :class:`~repro.verify.diagnostics.VerificationReport`
        of :func:`repro.verify.check_exchange_total`.
        """
        from ..verify import check_exchange_total

        return check_exchange_total(
            self.design,
            baseline_assignments,
            self.assignments(),
            self.cost(),
            weights=self.weights,
            net_type=self.net_type,
            split_networks=self.split_networks,
        )
