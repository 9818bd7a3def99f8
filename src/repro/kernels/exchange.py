"""Array-backed exchange kernel: O(1) adjacent-swap deltas for the SA loop.

The from-scratch :class:`~repro.exchange.ExchangeCost` re-derives every
side's pad fractions, section runs and omega groups on each evaluation —
O(rows * n) per move, which caps an object-model anneal near the paper's
448-finger circuits.  This kernel mirrors the object model as flat
index-addressed state (see :mod:`.state`) and keeps every Eq.-3
ingredient incrementally:

* **IR term** — the compact proxy is the sum of squared circular gaps
  between supply-pad ring positions, each weighted by the demand at the
  gap's midpoint.  All ring positions live on the uniform grid
  ``(g - 0.5) / N``, so gaps are *integers* in slot units and midpoints
  fall on half-slots; :func:`repro.power.demand_weights` turns the demand
  into one integer weight per half-slot (all ones without a demand, the
  paper's uniform proxy).  A doubly-linked ring over the occupied
  positions per supply network turns a pad move into a four-gap integer
  update — no floating-point accumulation, hence no drift, ever.
* **density term (Eq. 2)** — an adjacent swap crosses at most one via of
  one watched line, moving one wire between two neighbouring runs.  A flat
  run-delta array plus a histogram over delta values maintains
  ``max_c (I_c_new - I_c_ini)`` in O(1) amortized.
* **bonding term (omega)** — tier bitmasks per finger group; a swap only
  re-ORs the (at most) two groups it straddles, O(psi).

Everything one move touches (permutations, ring links, gap weights, run
deltas, group masks, per-net lookups) is a Python ``list`` of ``int``, so a
move boxes no NumPy scalar; the O(n) passes build the arrays they need
where they run.

The kernel is the production exchange at every design size and reports
for itself: :meth:`ArrayExchangeKernel.breakdown` returns the Eq.-3 terms
keyed like ``ExchangeCost.breakdown`` and :attr:`ArrayExchangeKernel.omega`
the bonding metric, both in O(1).

Because the IR and density deltas are exact integers, the zero-temperature
:meth:`ArrayExchangeKernel.polish` screens every legal swap of a side in one
NumPy pass and runs the exact step only where the cost could drop.

Move proposal replicates :class:`~repro.exchange.moves.MoveGenerator`
call-for-call (same candidate ordering, same ``rng`` consumption, same
legality rule), so a shared seed yields the *identical* accept/reject
trace and final assignment as the object-model reference —
``tests/test_kernels.py`` proves it on every Table-2/Table-3 circuit, with
and without a demand, and cross-checks kernel totals against
``verify.checkers``' exact Eq.-3 re-derivation to 1e-9.
"""

from __future__ import annotations

import gc
import random
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..assign import Assignment
from ..errors import ExchangeError, PowerModelError
from ..exchange.cost import CostWeights
from ..exchange.moves import MAX_ATTEMPTS
from ..package import NetType
from ..power import demand_weights
from ..power.compact import ZERO_BASELINE
from .state import SideArrays, build_side_arrays, int_array, row_run_counts


class ArrayExchangeKernel:
    """Drop-in move source + cost for the SA loop (:func:`repro.exchange.advance`).

    Construct from a design and its baseline (post-assignment)
    ``{side: Assignment}``; the kernel starts *at* the baseline.  Feed
    ``propose`` / ``apply`` / ``undo`` / ``cost`` / ``snapshot`` straight
    into ``SimulatedAnnealer.optimize`` or ``advance`` (the tempering
    segment job); :meth:`checkpoint_state` is the problem capture that a
    checkpoint or a tempering chain stores next to its ``SAStats`` chain.

    ``demand`` maps a perimeter fraction to the relative current demand
    behind it (see :func:`repro.power.weighted_compact_cost`); ``None`` is
    the paper's uniform gap-spread proxy.
    """

    def __init__(
        self,
        design,
        baseline_assignments: Dict,
        weights: Optional[CostWeights] = None,
        net_type: Optional[NetType] = NetType.POWER,
        demand=None,
        track_all_rows: bool = True,
        split_networks: bool = False,
        power_only: Optional[bool] = None,
    ) -> None:
        self.design = design
        self.weights = weights or CostWeights()
        self.net_type = net_type
        self.demand = demand
        self.split_networks = split_networks
        self.psi = design.stacking.tier_count
        power_only = (self.psi == 1) if power_only is None else power_only
        self.power_only = power_only
        self._ring = ring = design.ring_slot_count()
        #: gap weight by half-slot midpoint ``m`` of ``m / (2N)``
        self.ir_weights = demand_weights(demand, ring)
        # A gap of ``gap`` slots right of position ``left`` has its midpoint
        # at index ``2 left - 1 + gap`` < 3N; the table repeats its first N
        # entries past 2N, so the index needs no modulo.  The IR state stays
        # in int64 for the O(n) passes: weights <= 2**20 and gap**2 <= N**2
        # (~1e10 at 100k fingers) keep every sum below 2**63.
        self._gap_weight = self.ir_weights + self.ir_weights[:ring]
        self._gap_weight_array = int_array(self._gap_weight)

        # -- flat state, one block per side in design ring order.  The young
        # collections its thousands of tuples would trigger only traverse
        # the large, cycle-free int lists: pause the collector meanwhile.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.sides: List[SideArrays] = []
            run_base = 0
            # one shared int object per slot, net and via index value
            ints = list(
                range(max(design.quadrants[s].net_count for s in design.sides))
            )
            self._ints = ints
            for side in design.sides:
                arrays = build_side_arrays(
                    design,
                    side,
                    baseline_assignments[side],
                    net_type,
                    split_networks,
                    track_all_rows,
                    run_base,
                    ints,
                )
                run_base += sum(wr.run_count for wr in arrays.watched)
                self.sides.append(arrays)
                bad = set(arrays.tiers).difference(range(1, self.psi + 1))
                if bad:
                    raise ExchangeError(f"tier {min(bad)} outside 1..{self.psi}")
            self._total_runs = run_base
            self._class_count = 2 if split_networks else 1

            # candidate pool for propose(), mirroring MoveGenerator exactly:
            # (side, net) pairs in design order, supply-only for 2-D ICs
            self._candidates: List[Tuple[int, int]] = []
            for q, arrays in enumerate(self.sides):
                supply = arrays.tables.type_nets[None].tolist()
                nets = supply if power_only else range(arrays.slot_count)
                self._candidates.extend(zip(repeat(q), map(ints.__getitem__, nets)))

            #: Observability counter (read by the exchanger's ``kernel.stats``
            #: telemetry event): total ``_swap`` calls.
            self.swap_count = 0
            self._rebuild(at_baseline=True)
        finally:
            if enabled:
                gc.enable()
        # the baseline's weighted gap sum normalizes the IR term to 1.0
        self._ir_initial = sum(self._sumsq)
        if not self._ir_initial:
            raise PowerModelError(ZERO_BASELINE)
        if self.psi > 1:
            self._omega_initial = max(self._omega_total, 1)

    # -- state (re)construction ---------------------------------------------

    def _rebuild(self, at_baseline: bool = False) -> None:
        """Recompute every incremental structure from the slot lists (at
        the baseline every run's density delta is zero: nothing to count)."""
        net_slots = [int_array(arrays.net_slot) for arrays in self.sides]
        self._rebuild_ir(net_slots)
        self._rebuild_density([] if at_baseline else net_slots)
        if self.psi > 1:
            self._rebuild_bonding()

    def _rebuild_ir(self, net_slots: List[np.ndarray]) -> None:
        ring = self._ring
        weight = self._gap_weight_array
        # per network class: pad count, integer weighted sum of squared
        # gaps, and a doubly-linked circular list over occupied global ring
        # positions
        self._pad_count = [0] * self._class_count
        self._sumsq = [0] * self._class_count
        self._nxt, self._prv = [], []
        for cls in range(self._class_count):
            positions = np.sort(
                np.concatenate(
                    [
                        arrays.ring_offset
                        + net_slot[arrays.supply_class_array == cls]
                        + 1
                        for arrays, net_slot in zip(self.sides, net_slots)
                    ]
                )
            )
            count = len(positions)
            self._pad_count[cls] = count
            if count == 0:
                # the same error supply_pad_fractions gives ExchangeCost
                raise PowerModelError(
                    "design has no supply pads of the requested type; "
                    "mark some nets as POWER/GROUND"
                )
            gaps = np.diff(positions)
            last = int(positions[-1])
            wrap = ring - last + int(positions[0])  # ring if count 1
            self._sumsq[cls] = int(
                np.sum(gaps * gaps * weight[2 * positions[:-1] - 1 + gaps])
            ) + wrap * wrap * self._gap_weight[2 * last - 1 + wrap]
            # unoccupied positions keep 0 links, which nothing reads
            nxt = [0] * (ring + 1)
            prv = [0] * (ring + 1)
            pads = positions.tolist()
            for left, right in zip(pads, pads[1:] + pads[:1]):
                nxt[left] = right
                prv[right] = left
            self._nxt.append(nxt)
            self._prv.append(prv)

    def _rebuild_density(self, net_slots: List[np.ndarray]) -> None:
        deltas = np.zeros(self._total_runs, dtype=np.int64)
        for arrays, net_slot in zip(self.sides, net_slots):
            for wr in arrays.watched:
                counts = row_run_counts(
                    net_slot, arrays.tables.rows, wr.via_nets, wr.row
                )
                deltas[wr.run_base : wr.run_base + wr.run_count] = (
                    counts - wr.baseline_counts
                )
        self._run_delta = deltas.tolist()
        values, counts = np.unique(deltas, return_counts=True)
        self._hist: Dict[int, int] = {
            int(value): int(count) for value, count in zip(values, counts)
        }
        self._max_delta = int(values[-1]) if len(values) else 0

    def _rebuild_bonding(self) -> None:
        self._group_zeros = [
            [0] * -(-arrays.slot_count // self.psi) for arrays in self.sides
        ]
        self._omega_total = 0
        for q, zeros in enumerate(self._group_zeros):
            for group in range(len(zeros)):
                self._refresh_group(q, group)

    # -- annealer interface ---------------------------------------------------

    def propose(self, rng: random.Random) -> Optional[Tuple[int, int]]:
        """One random legal adjacent swap ``(side_index, lo_slot_1based)``.

        Byte-compatible with ``MoveGenerator.propose``: identical candidate
        ordering and rng consumption, so shared seeds walk the kernel and
        the reference through the same move sequence.
        """
        if not self._candidates:
            return None
        for __ in range(MAX_ATTEMPTS):
            q, net = rng.choice(self._candidates)
            arrays = self.sides[q]
            slot = arrays.net_slot[net] + 1
            direction = rng.choice((-1, 1))
            neighbour = slot + direction
            count = arrays.slot_count
            if not (1 <= neighbour <= count):
                neighbour = slot - direction
                if not (1 <= neighbour <= count):
                    continue
            lo = slot if slot < neighbour else neighbour
            slot_net = arrays.slot_net
            rows = arrays.rows
            if rows[slot_net[lo - 1]] != rows[slot_net[lo]]:
                return (q, lo)
        return None

    def apply(self, move: Tuple[int, int]) -> None:
        self._swap(move[0], move[1])

    def undo(self, move: Tuple[int, int]) -> None:
        # adjacent swaps are involutions; integer terms revert exactly
        self._swap(move[0], move[1])

    def cost(self) -> float:
        """Current Eq.-3 total, recomposed from the integer state in O(1)."""
        total = self.weights.ir * (sum(self._sumsq) / self._ir_initial)
        total += self.weights.density * float(self._max_delta)
        if self.psi > 1:
            total += self.weights.bonding * (self._omega_total / self._omega_initial)
        return total

    def breakdown(self) -> Dict[str, float]:
        """Per-term Eq.-3 values, keyed like ``ExchangeCost.breakdown``."""
        weights = self.weights
        result = {
            "ir": sum(self._sumsq) / self._ir_initial,
            "density": float(self._max_delta),
        }
        total = weights.ir * result["ir"]
        total += weights.density * result["density"]
        if self.psi > 1:
            result["bonding"] = self._omega_total / self._omega_initial
            total += weights.bonding * result["bonding"]
        result["total"] = total
        return result

    @property
    def omega(self) -> int:
        """Bonding-wire omega of the current state (0 for 2-D ICs)."""
        return self._omega_total if self.psi > 1 else 0

    def snapshot(self) -> List[List[int]]:
        """Cheap copy of the current per-side slot->net lists."""
        return [arrays.slot_net[:] for arrays in self.sides]

    def restore(self, snapshot) -> None:
        """Jump back to a snapshot (net indices per side) and rebuild."""
        ints = self._ints
        for arrays, slots in zip(self.sides, snapshot):
            if len(slots) != arrays.slot_count:
                raise ExchangeError(f"{len(slots)} slots in a {arrays.side} snapshot")
            slot_net, net_slot = arrays.slot_net, arrays.net_slot
            slot_net[:] = map(ints.__getitem__, slots)
            for slot, net in zip(ints, slot_net):
                net_slot[net] = slot
        self._rebuild()

    # -- checkpoint/resume -------------------------------------------------

    def checkpoint_state(self) -> dict:
        """JSON-able kernel state for crash-safe SA checkpointing.

        Every cost term is an integer that rebuilds exactly from the slot
        lists, so the slots and the swap counter are the whole state.
        """
        return {"slots": self.snapshot(), "swap_count": self.swap_count}

    def restore_checkpoint(self, state: dict) -> None:
        """Resume from :meth:`checkpoint_state`, bit-identically."""
        self.restore(state["slots"])
        self.swap_count = int(state.get("swap_count", 0))

    # -- hot path --------------------------------------------------------------

    def _swap(self, q: int, lo: int) -> None:
        self.swap_count += 1
        arrays = self.sides[q]
        slot_net = arrays.slot_net
        net_slot = arrays.net_slot
        i = lo - 1
        j = lo
        net_a = slot_net[i]
        net_b = slot_net[j]
        slot_net[i] = net_b
        slot_net[j] = net_a
        net_slot[net_a], net_slot[net_b] = net_slot[net_b], net_slot[net_a]

        # IR: at most one pad per tracked network moves by one ring slot
        class_a = arrays.supply_class[net_a]
        class_b = arrays.supply_class[net_b]
        if class_a != class_b:
            position = arrays.ring_offset + i + 1
            if class_a >= 0:
                self._move_pad(class_a, position, position + 1)
            if class_b >= 0:
                self._move_pad(class_b, position + 1, position)

        # density: the passing net crosses one via of the higher row
        rows = arrays.rows
        if rows[net_a] > rows[net_b]:
            via, leftward = net_a, True
        else:
            via, leftward = net_b, False
        base = arrays.net_run_base[via]
        if base >= 0:
            k = base + arrays.via_index[via]
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

    def _move_pad(self, cls: int, position: int, new_position: int) -> None:
        nxt = self._nxt[cls]
        prv = self._prv[cls]
        weight = self._gap_weight
        ring = self._ring
        if self._pad_count[cls] == 1:
            # the lone gap spans the ring; its midpoint moves a whole slot
            self._sumsq[cls] += ring * ring * (
                weight[2 * new_position - 1 + ring] - weight[2 * position - 1 + ring]
            )
            nxt[new_position] = prv[new_position] = new_position
            return
        left = prv[position]
        right = nxt[position]
        old_l = (position - left) % ring
        old_r = (right - position) % ring
        # the pad steps into a slot of another class, so both new gaps
        # stay >= 1, and both gap midpoints move half a slot with it
        step = new_position - position
        new_l = old_l + step
        new_r = old_r - step
        mid_l = 2 * left - 1 + old_l
        mid_r = 2 * position - 1 + old_r
        self._sumsq[cls] += (
            new_l * new_l * weight[mid_l + step]
            + new_r * new_r * weight[mid_r + step]
            - old_l * old_l * weight[mid_l]
            - old_r * old_r * weight[mid_r]
        )
        nxt[left] = new_position
        prv[right] = new_position
        nxt[new_position] = right
        prv[new_position] = left

    def _bump_run(self, run: int, step: int) -> None:
        old = self._run_delta[run]
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
            mask |= 1 << (tiers[slot_net[slot]] - 1)
        zeros = psi - bin(mask).count("1")
        group_zeros = self._group_zeros[q]
        self._omega_total += zeros - group_zeros[group]
        group_zeros[group] = zeros

    # -- zero-temperature polish ------------------------------------------------

    def polish(self, passes: int) -> None:
        """Greedy sweep of every legal adjacent swap (see ``_polish``).

        Same side and slot order and strict-improvement threshold as the
        object loop, so both reach the same local optimum, but only the
        swaps :meth:`_screen` flags run the exact swap/cost/revert step.
        An accepted swap re-screens the rest of the side, and a pass that
        flags nothing ends the polish without a single ``_swap``.
        """
        current = self.cost()
        for __ in range(passes):
            improved = False
            for q in range(len(self.sides)):
                pending = self._screen(q, 1).tolist()[::-1]  # pop() in slot order
                while pending:
                    lo = pending.pop()
                    self._swap(q, lo)
                    candidate = self.cost()
                    if candidate < current - 1e-12:
                        current = candidate
                        improved = True
                        pending = self._screen(q, lo + 1).tolist()[::-1]
                    else:
                        self._swap(q, lo)
            if not improved:
                break

    def _screen(self, q: int, start: int) -> np.ndarray:
        """Legal swaps ``lo >= start`` of side *q* that may lower the cost.

        Flagged: a screened delta below ``+1e-9`` (a superset of the exact
        step's ``-1e-12``) with some integer term changed (else ``cost()``
        is bit-identical), and every swap whose omega change (group-straddling,
        psi > 1) the screen does not price.
        """
        los, sumsq, density = self._screen_deltas(q, start)
        delta = self.weights.ir * (sumsq / self._ir_initial)
        delta += self.weights.density * density
        flagged = (delta < 1e-9) & ((sumsq != 0) | (density != 0))
        if self.psi > 1:
            flagged |= los % self.psi == 0
        return los[flagged]

    def _screen_deltas(self, q: int, start: int):
        """``(los, sumsq, density)``: the legal swaps ``lo >= start`` of side
        *q* and the exact change each makes to the IR gap sumsq and ``_max_delta``.

        A pad with ring gaps ``gl``/``gr`` moving one slot turns them into
        ``gl ± 1``/``gr ∓ 1`` and moves both gap midpoints half a slot, so
        its sumsq change is four weight-table gathers (``2 gl - 2 gr + 2``
        rightward under uniform weights).  The gaps of the screened pads are
        the distances between consecutive ones, so only the outermost two
        read the ring links.  A swap moves one wire between two runs, so the
        new peak is ``max(others, v_up + 1, v_down - 1)``.
        """
        arrays = self.sides[q]
        stop = arrays.slot_count
        nets = int_array(arrays.slot_net[start - 1 :])
        left, right = nets[:-1], nets[1:]
        rows = arrays.tables.rows
        row_l, row_r = rows[left], rows[right]
        los = np.arange(start, stop)

        sumsq = np.zeros(len(los), dtype=np.int64)
        supply = arrays.supply_class_array[nets]
        positions = arrays.ring_offset + np.arange(start, stop + 1)
        ring = self._ring
        weight = self._gap_weight_array
        for cls in range(self._class_count):
            here = supply == cls
            pads = positions[here]
            if not len(pads):
                continue
            to_right = np.zeros(len(nets), dtype=np.int64)
            to_left = np.zeros(len(nets), dtype=np.int64)
            if self._pad_count[cls] == 1:
                # the lone gap spans the ring; its midpoint moves a whole slot
                mid = 2 * int(pads[0]) - 1 + ring
                lone = ring * ring
                index = int(np.flatnonzero(here)[0])
                if index + 1 < len(nets):
                    to_right[index] = lone * (weight[mid + 2] - weight[mid])
                to_left[index] = lone * (weight[mid - 2] - weight[mid])
            else:
                before = np.append(self._prv[cls][pads[0]], pads[:-1])
                after = np.append(pads[1:], self._nxt[cls][pads[-1]])
                gl = (pads - before) % ring
                gr = (after - pads) % ring
                mid_l = 2 * before - 1 + gl
                mid_r = 2 * pads - 1 + gr
                stay = gl * gl * weight[mid_l] + gr * gr * weight[mid_r]
                to_right[here] = (
                    (gl + 1) ** 2 * weight[mid_l + 1]
                    + (gr - 1) ** 2 * weight[mid_r + 1]
                    - stay
                )
                to_left[here] = (
                    (gl - 1) ** 2 * weight[mid_l - 1]
                    + (gr + 1) ** 2 * weight[mid_r - 1]
                    - stay
                )
            sumsq += np.where(here[:-1] & ~here[1:], to_right[:-1], 0)
            sumsq += np.where(here[1:] & ~here[:-1], to_left[1:], 0)

        # the wire of the lower-row net passes the via of the higher one
        leftward = row_l > row_r
        via = np.where(leftward, left, right)
        # the side's own runs only; an unwatched via reads a dummy run -1/0
        first, last = arrays.watched[0], arrays.watched[-1]
        run_delta = int_array(
            self._run_delta[first.run_base : last.run_base + last.run_count]
        )
        base = arrays.net_run_base_array[via]
        watched = base >= 0
        k = np.where(watched, base - first.run_base + arrays.tables.via_index[via], -1)
        v_up = run_delta[np.where(leftward, k, k + 1)]
        v_down = run_delta[np.where(leftward, k + 1, k)]
        # the other runs' peak: the peak while a third run holds it, else the
        # next value below (none left means v_up is the peak: v_up + 1 wins)
        peak = self._max_delta
        at_peak = (v_up == peak).astype(np.int64) + (v_down == peak)
        below = max((value for value in self._hist if value < peak), default=peak)
        others = np.where(self._hist[peak] > at_peak, peak, below)
        new_peak = np.maximum(np.maximum(others, v_up + 1), v_down - 1)
        density = np.where(watched, new_peak - peak, 0)
        legal = row_l != row_r
        return los[legal], sumsq[legal], density[legal]

    # -- boundary conversions ----------------------------------------------------

    def orders(self, snapshot: Optional[List[List[int]]] = None) -> Dict:
        """``{side: [net ids in slot order]}`` of a snapshot (or the state)."""
        slots = snapshot if snapshot is not None else [a.slot_net for a in self.sides]
        return {
            arrays.side: arrays.tables.net_ids[int_array(slot_net)].tolist()
            for arrays, slot_net in zip(self.sides, slots)
        }

    def assignments(self) -> Dict:
        """Materialize the current state as ``{side: Assignment}``."""
        orders = self.orders()
        return {
            arrays.side: Assignment(arrays.quadrant, orders[arrays.side])
            for arrays in self.sides
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
            demand=self.demand,
        )
