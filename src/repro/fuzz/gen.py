"""Seeded adversarial case generation for the differential fuzzer.

A :class:`FuzzCase` is a fully JSON-serializable bundle of everything one
fuzz trial needs: ``CircuitSpec`` keyword arguments, the design seed, the
run seed and the exchange knobs (SA schedule, cost weights, network
splitting, row tracking, IR demand profile).  Serializability is what makes a
failing case *portable*: the shrinker rewrites it field by field and the
minimized result lands verbatim in the JSON corpus under
``tests/data/fuzz_corpus/``.

:class:`CaseGenerator` draws from *edge pools* instead of uniform ranges —
single-net sides, all-power/all-signal quadrants, 1–8 die tiers with
ψ-group remainders, extreme aspect ratios, duplicate adjacent pitches and
net ids spread far beyond the net count —
because the paper's Table-1 circuits only ever exercise the comfortable
middle of each parameter.  Every draw comes from one ``random.Random``
seeded by the caller, so case *i* of seed *s* is the same forever.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional, Tuple

from ..errors import CircuitSpecError

#: Corpus/file format stamp; bump on incompatible FuzzCase layout changes.
CASE_FORMAT = "repro-fuzz-case/1"

#: Edge pools.  Values are deliberately clustered at the boundaries the
#: validators guard (0/1 counts, equal adjacent pitches, huge ratios).
_TIER_POOL = (1, 1, 2, 3, 4, 5, 8)
_SUPPLY_POOL = (0.0, 0.05, 0.25, 0.25, 0.5, 0.75, 1.0)
_QUADRANT_POOL = (1, 2, 3, 4, 4)
_ROW_POOL = (1, 1, 2, 3, 4)
_WIDTH_POOL = (0.01, 0.1, 0.1, 0.12, 2.5)
_HEIGHT_POOL = (0.01, 0.2, 0.2, 5.0)
_SPACE_POOL = (0.0, 0.01, 0.12, 0.12, 1.0)
_BALL_POOL = (0.2, 1.2, 1.2, 8.0)
_COOLING_POOL = (0.5, 0.7, 0.9)
_MOVES_POOL = (1, 2, 4, 8)
_WEIGHT_POOL = (0.0, 0.5, 1.0, 3.0)
#: Net-id stride: 3 leaves gaps a dense id table still covers; 1000 spreads
#: ids far beyond the net count, like a hand-written or JSON-loaded design.
_ID_STRIDE_POOL = (1, 1, 1, 1, 1, 1, 3, 1000)
#: IR demand profiles: piecewise-constant over the ring, strictly positive
#: (a zero-weight baseline leaves the IR term nothing to normalize by).
_DEMAND_LENGTH_POOL = (1, 2, 3, 8)
_DEMAND_POOL = (0.1, 0.5, 1.0, 1.0, 4.0)


@dataclass(frozen=True)
class FuzzCase:
    """One fuzz trial: a circuit shape plus every knob a run depends on."""

    spec: Dict = field(default_factory=dict)
    design_seed: int = 0
    run_seed: int = 0
    sa: Dict = field(default_factory=dict)
    weights: Dict = field(default_factory=dict)
    split_networks: bool = False
    track_all_rows: bool = True
    #: spreads and reverses the generated net ids, so netlist order is not
    #: id order (see ``build_design``)
    id_stride: int = 1
    #: piecewise-constant IR demand over the ring (see ``demand_fn``);
    #: None is the paper's uniform proxy
    demand: Optional[Tuple[float, ...]] = None

    # -- identity ----------------------------------------------------------

    def to_json(self) -> dict:
        payload = {
            "spec": dict(self.spec),
            "design_seed": self.design_seed,
            "run_seed": self.run_seed,
            "sa": dict(self.sa),
            "weights": dict(self.weights),
            "split_networks": self.split_networks,
            "track_all_rows": self.track_all_rows,
        }
        if self.id_stride != 1:  # contiguous-id cases keep a stride-free digest
            payload["id_stride"] = self.id_stride
        if self.demand is not None:  # uniform cases keep a demand-free digest
            payload["demand"] = list(self.demand)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "FuzzCase":
        return cls(
            spec=dict(payload.get("spec", {})),
            design_seed=int(payload.get("design_seed", 0)),
            run_seed=int(payload.get("run_seed", 0)),
            sa=dict(payload.get("sa", {})),
            weights=dict(payload.get("weights", {})),
            split_networks=bool(payload.get("split_networks", False)),
            track_all_rows=bool(payload.get("track_all_rows", True)),
            id_stride=int(payload.get("id_stride", 1)),
            demand=(
                tuple(float(value) for value in payload["demand"])
                if payload.get("demand") is not None
                else None
            ),
        )

    def digest(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        return f"case[{self.digest()[:12]}]"

    # -- materialization ---------------------------------------------------

    def build_spec(self):
        """The ``CircuitSpec`` this case describes (may raise a typed
        :class:`~repro.errors.CircuitSpecError` for degenerate shapes)."""
        from ..circuits.spec import CircuitSpec

        return CircuitSpec(**self.spec)

    def build_design(self):
        from ..circuits import build_design

        design = build_design(self.build_spec(), seed=self.design_seed)
        if self.id_stride == 1:
            return design
        from ..io.jsonio import design_from_dict, design_to_dict

        top = design.total_net_count - 1
        payload = design_to_dict(design)
        for quadrant in payload["quadrants"].values():
            rows = quadrant["rows"]
            quadrant["rows"] = [[(top - i) * self.id_stride for i in r] for r in rows]
            for net in quadrant["nets"]:
                net["id"] = (top - net["id"]) * self.id_stride
        return design_from_dict(payload)

    def sa_params(self):
        from ..exchange import SAParams

        return SAParams(**self.sa) if self.sa else SAParams(
            initial_temp=1.0, final_temp=0.2, cooling=0.7, moves_per_temp=4
        )

    def cost_weights(self):
        from ..exchange import CostWeights

        return CostWeights(**self.weights) if self.weights else CostWeights()

    def demand_fn(self):
        """The exchange ``demand`` callable: the profile's stretch of the
        ring behind a perimeter fraction (None without a profile)."""
        if self.demand is None:
            return None
        profile = self.demand
        last = len(profile) - 1

        def demand(fraction: float) -> float:
            return profile[min(int(fraction * len(profile)), last)]

        return demand


class CaseGenerator:
    """Deterministic adversarial case stream: ``CaseGenerator(seed)``."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def __iter__(self) -> Iterator[FuzzCase]:
        while True:
            yield self.case()

    def case(self) -> FuzzCase:
        """The next case; always constructible as a ``CircuitSpec``."""
        rng = self._rng
        for _ in range(64):
            candidate = self._raw_case(rng)
            try:
                candidate.build_spec()
            except CircuitSpecError:
                continue
            return candidate
        # The pools are tuned so a valid draw is overwhelmingly likely;
        # falling through means the pools regressed, not bad luck.
        return self._fallback(rng)

    def _raw_case(self, rng: random.Random) -> FuzzCase:
        quadrants = rng.choice(_QUADRANT_POOL)
        rows = rng.choice(_ROW_POOL)
        tiers = rng.choice(_TIER_POOL)
        minimum = rows * quadrants
        # finger counts hugging the minimum, plus draws leaving a non-zero
        # remainder against the ψ-group size and the quadrant split.
        finger_count = rng.choice(
            (
                minimum,
                minimum + 1,
                minimum + rng.randrange(1, 4),
                minimum * 2 + rng.randrange(0, 3),
                max(minimum, quadrants * rows * tiers + rng.randrange(0, tiers + 1)),
                max(minimum, rng.randrange(minimum, 4 * minimum + 8)),
            )
        )
        width = rng.choice(_WIDTH_POOL)
        space = rng.choice(_SPACE_POOL)
        if rng.random() < 0.25:
            space = width  # duplicate adjacent pitch: space == width exactly
        spec = {
            "name": f"fuzz{rng.randrange(10 ** 6)}",
            "finger_count": int(finger_count),
            "quadrant_count": quadrants,
            "rows_per_quadrant": rows,
            "tier_count": tiers,
            "supply_fraction": rng.choice(_SUPPLY_POOL),
            "finger_width": width,
            "finger_height": rng.choice(_HEIGHT_POOL),
            "finger_space": space,
            "bump_ball_space": rng.choice(_BALL_POOL),
        }
        initial = rng.choice((0.5, 1.0, 2.0))
        cooling = rng.choice(_COOLING_POOL)
        if rng.random() < 0.25:
            # Exact-power final temp: initial * cooling**k computed as a
            # power lands on the float boundary where a closed-form step
            # count and the loop's sequential multiplication can round to
            # opposite sides — the schedule-accounting drift class.
            final = initial * (cooling ** rng.randrange(2, 9))
        else:
            final = initial * rng.choice((0.1, 0.4))
        weights = {
            "ir": rng.choice(_WEIGHT_POOL),
            "density": rng.choice(_WEIGHT_POOL),
            "bonding": rng.choice(_WEIGHT_POOL),
        }
        return FuzzCase(
            spec=spec,
            design_seed=rng.randrange(2 ** 16),
            run_seed=rng.randrange(2 ** 16),
            sa={
                "initial_temp": initial,
                "final_temp": final,
                "cooling": cooling,
                "moves_per_temp": rng.choice(_MOVES_POOL),
            },
            weights=weights,
            split_networks=rng.random() < 0.3,
            track_all_rows=rng.random() < 0.8,
            id_stride=rng.choice(_ID_STRIDE_POOL),
            demand=(
                tuple(
                    rng.choice(_DEMAND_POOL)
                    for __ in range(rng.choice(_DEMAND_LENGTH_POOL))
                )
                if rng.random() < 0.3
                else None
            ),
        )

    def _fallback(self, rng: random.Random) -> FuzzCase:
        return FuzzCase(
            spec={"name": "fuzz-fallback", "finger_count": 16,
                  "quadrant_count": 4, "rows_per_quadrant": 2},
            design_seed=rng.randrange(2 ** 16),
            run_seed=rng.randrange(2 ** 16),
        )


def generate_cases(count: int, seed: int = 0):
    """The first *count* cases of the seed-*seed* stream, as a list."""
    generator = CaseGenerator(seed)
    return [generator.case() for _ in range(count)]


def with_spec_field(case: FuzzCase, key: str, value) -> FuzzCase:
    """A copy of *case* with one ``CircuitSpec`` kwarg replaced."""
    spec = dict(case.spec)
    spec[key] = value
    return replace(case, spec=spec)
