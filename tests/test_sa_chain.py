"""One annealing chain: the shared Metropolis loop and its JSON state.

``SimulatedAnnealer.optimize``, the tempering segment job and
``SACheckpointer`` all drive one :class:`~repro.exchange.SAStats` chain
through :func:`~repro.exchange.advance`.  The data files pin results
recorded while the annealer and the tempering segment still ran two
hand-kept copies of the loop:

- ``tempering_golden.json``: the SHA-256 of one ``run_tempering`` result.
- ``checkpoint_midstep.json``: a checkpoint written by a run killed right
  after its first save, in the middle of a temperature tier;
  ``checkpoint_midstep_expected.json`` holds the uninterrupted run's
  final orders and counters, which resuming the file must reproduce.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.assign import DFAAssigner, assign_design
from repro.exchange import (
    FingerPadExchanger,
    SACheckpointer,
    SAParams,
    SimulatedAnnealer,
)
from repro.kernels import ArrayExchangeKernel
from repro.runtime import JobEngine, Telemetry
from repro.runtime.jobs import _build_circuit_design, run_tempering_segment
from repro.tune import TemperingConfig, run_tempering

DATA = Path(__file__).parent / "data"

CASES = [(circuit, tiers) for circuit in range(1, 6) for tiers in (1, 4)]


def _segment_params(circuit, tiers, schedule, steps):
    return {
        "circuit": circuit,
        "tiers": tiers,
        "steps": steps,
        "moves_per_temp": schedule.moves_per_temp,
        "cooling": schedule.cooling,
        "temperature": schedule.initial_temp,
    }


@pytest.mark.parametrize(
    "circuit,tiers", CASES, ids=[f"c{c}-psi{t}" for c, t in CASES]
)
def test_single_chain_segment_matches_optimize(circuit, tiers):
    """A K=1 segment over the whole schedule is the single-chain anneal."""
    schedule, seed = SAParams(), 7
    design = _build_circuit_design({"circuit": circuit, "tiers": tiers})
    kernel = ArrayExchangeKernel(design, assign_design(DFAAssigner(), design, seed=0))
    stats = SimulatedAnnealer(schedule).optimize(
        kernel.propose, kernel.apply, kernel.undo, kernel.cost,
        seed=seed, snapshot=kernel.snapshot,
    )
    segment = run_tempering_segment(
        _segment_params(circuit, tiers, schedule, schedule.temperature_steps()),
        seed,
    )
    chain = segment["chain"]
    assert chain["proposed"] == stats.proposed == schedule.total_moves()
    assert chain["accepted"] == stats.accepted
    assert chain["accepted_uphill"] == stats.accepted_uphill
    assert chain["best_cost"] == stats.best_cost
    assert chain["best"] == stats.best_snapshot
    assert chain["cost_trace"] == stats.cost_trace
    assert [sample[1] for sample in segment["samples"]] == stats.cost_trace
    assert chain["current_cost"] == stats.final_cost
    assert chain["state"]["slots"] == kernel.snapshot()


def test_chain_split_into_json_segments_matches_one_segment():
    """The JSON chain is the whole state: three segments, each from the
    previous one's document, end exactly where one long segment does."""
    schedule, seed = SAParams(cooling=0.8, moves_per_temp=60), 3
    steps = schedule.temperature_steps()
    whole = run_tempering_segment(_segment_params(2, 4, schedule, steps), seed)
    chain, accept_trace = None, []
    for part in (steps // 3, steps // 3, steps - 2 * (steps // 3)):
        params = _segment_params(2, 4, schedule, part)
        if chain is not None:
            params["chain"] = json.loads(json.dumps(chain))
        segment = run_tempering_segment(params, seed)
        chain = segment["chain"]
        accept_trace += segment["accept_trace"]
    assert chain == whole["chain"]
    assert accept_trace == whole["accept_trace"]


def test_tempering_result_digest_is_pinned():
    golden = json.loads((DATA / "tempering_golden.json").read_text())
    initial_temp, final_temp, cooling, moves = golden["schedule"]
    engine = JobEngine(jobs=1, telemetry=Telemetry())
    try:
        result = run_tempering(
            engine,
            golden["circuit"],
            config=TemperingConfig(chains=golden["chains"]),
            schedule=SAParams(
                initial_temp=initial_temp,
                final_temp=final_temp,
                cooling=cooling,
                moves_per_temp=moves,
            ),
            seed=golden["seed"],
        )
    finally:
        engine.close()
    canonical = json.dumps(result, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(canonical).hexdigest() == golden["sha256"]


def test_recorded_midstep_checkpoint_resumes_to_the_uninterrupted_run(tmp_path):
    expected = json.loads((DATA / "checkpoint_midstep_expected.json").read_text())
    initial_temp, final_temp, cooling, moves = expected["schedule"]
    interval = expected["interval"]
    path = tmp_path / "sa.ckpt"
    shutil.copy(DATA / "checkpoint_midstep.json", path)
    payload = json.loads(path.read_text())["payload"]
    assert 0 < payload["move_in_step"] < moves  # written mid-tier

    design = _build_circuit_design(
        {"circuit": expected["circuit"], "tiers": expected["tiers"]}
    )
    checkpoint = SACheckpointer(path, interval=interval, durable=False)
    result = FingerPadExchanger(
        design,
        params=SAParams(
            initial_temp=initial_temp,
            final_temp=final_temp,
            cooling=cooling,
            moves_per_temp=moves,
        ),
        polish_passes=expected["polish_passes"],
        checkpoint=checkpoint,
    ).run(assign_design(DFAAssigner(), design), seed=expected["seed"])

    # resumed after the file's one save instead of starting over
    assert checkpoint.saves == expected["proposed"] // interval - 1
    assert {side.value: a.order for side, a in result.after.items()} == expected[
        "orders"
    ]
    for key in ("proposed", "accepted", "accepted_uphill", "best_cost", "cost_trace"):
        assert getattr(result.stats, key) == expected[key], key
    assert not path.exists()
