"""Differential oracles: redundant implementations disagreeing = a bug.

Each oracle is ``oracle(case) -> List[str]`` — an empty list means the
case passed; each string is one observed divergence.  A case the oracle
cannot evaluate *for a reason the library documents* (a typed
:class:`~repro.errors.ReproError` raised identically on every code path)
raises :class:`SkippedCase` instead; inconsistent errors — one code path
raising where another succeeds — are divergences, never skips.

Oracles
-------
``density``
    IFA vs DFA max-density parity: DFA (density-first by construction)
    must never route denser than IFA on the same design.
``legality``
    Every emitted assignment — Random, IFA, DFA — must satisfy the
    monotonic rule *and* route through the real
    :class:`~repro.routing.MonotonicRouter`; the vectorized
    ``check_legal`` must agree with the ``row_violations`` reference on
    it and on a copy broken by one same-row swap.
``pad_map_parity``
    The vectorized supply-pad fractions and grid nodes must equal, bit
    for bit, the per-pad reference (``PackageDesign.ring_position`` and a
    ``boundary_ring`` lookup per pad).
``assign_parity`` / ``density_parity`` / ``irsolve_parity``
    Staged-kernel differentials: object IFA/DFA vs the array assignment
    kernels (order- and error-identical), the object density walk vs the
    array run accumulation (count-identical), and the factor-once grid
    solver vs the reference assemble-and-solve path (within 1e-9, for
    both uniform and hotspot injection vectors).
``backends``
    The exchange's array kernel vs the object loop on the from-scratch
    ``ExchangeCost`` under a shared seed, with the case's IR demand
    profile (if any) on both, must produce the identical accept/reject
    trace, final orders, and Eq.-3 cost breakdowns — each additionally
    cross-checked against ``verify.check_exchange_total``'s from-scratch
    re-derivation.  A polish-only leg (``GreedyExchanger`` from the
    baseline, no anneal) holds the kernel's screened polish to the
    ``ExchangeCost`` object loop's orders, Eq.-3 terms and omega.
``engine``
    Serial vs ``jobs=2`` and cached vs fresh :class:`JobEngine` runs must
    agree value-for-value, including across engines with different
    ``base_seed`` sharing one cache (the seed=None poisoning this oracle
    caught; see ``tests/data/fuzz_corpus/``).
``checkpoint``
    Crash-and-resume determinism: an array-kernel anneal killed right
    after a checkpoint save (:class:`~repro.exchange.SimulatedCrash`) and
    resumed in a fresh process-equivalent must replay the *exact*
    continuation of the uninterrupted run — identical accept/reject
    counters, cost trace, final orders and costs, bit for bit.
"""

from __future__ import annotations

import math
import random
import tempfile
from typing import Callable, Dict, List

from ..assign import assign_design
from ..errors import ReproError
from .gen import FuzzCase

#: Relative tolerance for cross-implementation float comparisons; matches
#: ``verify.FASTCOST_RTOL`` (the paths are algebraically identical).
BACKEND_RTOL = 1e-9


class SkippedCase(Exception):
    """The case is degenerate in a *consistently typed* documented way."""


def _or_skip(call, *args, **kwargs):
    """``call(*args, **kwargs)``; a typed library error skips the case."""
    try:
        return call(*args, **kwargs)
    except ReproError as exc:
        raise SkippedCase(f"{type(exc).__name__}: {exc}") from exc


def _build_design(case: FuzzCase):
    return _or_skip(case.build_design)


def _close(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= BACKEND_RTOL * max(abs(a), abs(b), 1.0)


# -- density ---------------------------------------------------------------


def oracle_density(case: FuzzCase) -> List[str]:
    from ..assign import DFAAssigner, IFAAssigner
    from ..routing import max_density_of_design

    design = _build_design(case)
    problems: List[str] = []
    densities = {}
    for name, assigner in (("IFA", IFAAssigner()), ("DFA", DFAAssigner())):
        try:
            assignments = assign_design(assigner, design, seed=case.run_seed)
        except ReproError as exc:
            problems.append(f"{name} raised on a buildable design: "
                            f"{type(exc).__name__}: {exc}")
            continue
        density = max_density_of_design(assignments)
        if not isinstance(density, int) or density < 0:
            problems.append(f"{name} max density is not a count: {density!r}")
        densities[name] = density
    if len(densities) == 2 and densities["DFA"] > densities["IFA"]:
        problems.append(
            f"DFA max density {densities['DFA']} exceeds IFA's "
            f"{densities['IFA']} (density-first must not lose to "
            f"interleaving-first)"
        )
    return problems


# -- legality --------------------------------------------------------------


def oracle_legality(case: FuzzCase) -> List[str]:
    from ..assign import DFAAssigner, IFAAssigner, RandomAssigner, check_legal
    from ..routing import MonotonicRouter
    from ..verify import check_assignments

    design = _build_design(case)
    router = MonotonicRouter()
    rng = random.Random(case.run_seed)
    problems: List[str] = []
    for name, assigner in (
        ("Random", RandomAssigner()),
        ("IFA", IFAAssigner()),
        ("DFA", DFAAssigner()),
    ):
        try:
            assignments = assign_design(assigner, design, seed=case.run_seed)
        except ReproError as exc:
            problems.append(f"{name} raised on a buildable design: "
                            f"{type(exc).__name__}: {exc}")
            continue
        report = check_assignments(design, assignments, deep=False)
        if not report.ok:
            problems.extend(
                f"{name}: {diagnostic}" for diagnostic in report.errors[:3]
            )
        for side, assignment in assignments.items():
            try:
                check_legal(assignment)
                router.route(assignment)
            except ReproError as exc:
                problems.append(
                    f"{name} {side.value}: emitted assignment does not "
                    f"route monotonically: {type(exc).__name__}: {exc}"
                )
            problems.extend(
                f"{name} {side.value}: {problem}"
                for problem in _legality_parity(assignment, rng)
            )
    return problems


def _legality_parity(assignment, rng: random.Random) -> List[str]:
    """Vectorized ``check_legal`` vs the ``row_violations`` reference, on
    the order and on a copy broken by swapping two same-row neighbours."""
    from ..assign import check_legal, row_violations
    from ..errors import LegalityError

    quadrant = assignment.quadrant
    candidates = [assignment]
    rows = [row for row in range(1, quadrant.row_count + 1)
            if quadrant.bumps.row_size(row) > 1]
    if rows:
        nets = quadrant.row_nets(rng.choice(rows))
        k = rng.randrange(len(nets) - 1)
        broken = assignment.copy()
        broken.swap_slots(broken.slot_of(nets[k]), broken.slot_of(nets[k + 1]))
        candidates.append(broken)
    problems = []
    for label, candidate in zip(("order", "same-row swap"), candidates):
        try:
            check_legal(candidate)
            raised = False
        except LegalityError:
            raised = True
        if raised != bool(row_violations(candidate)):
            problems.append(f"{label}: check_legal and row_violations disagree")
    return problems


# -- pad mapping -----------------------------------------------------------


def _reference_pad_fractions(design, assignments, net_type) -> List[float]:
    """Supply-pad ring fractions, one ``PackageDesign.ring_position`` per pad."""
    return [
        design.ring_position(side, assignments[side].slot_of(net.id))
        for side, quadrant in design
        for net in quadrant.netlist
        if (net.net_type.is_supply if net_type is None else net.net_type is net_type)
    ]


def _reference_pad_nodes(design, assignments, grid_config, net_type) -> List[tuple]:
    """Supply-pad grid nodes, one ``boundary_ring`` lookup per pad."""
    ring = grid_config.boundary_ring()
    return [
        ring[min(int(fraction % 1.0 * len(ring)), len(ring) - 1)]
        for fraction in _reference_pad_fractions(design, assignments, net_type)
    ]


def oracle_pad_map_parity(case: FuzzCase) -> List[str]:
    """Vectorized pad fractions and grid nodes ``==`` the per-pad reference."""
    from ..assign import RandomAssigner
    from ..errors import PowerModelError
    from ..package import NetType
    from ..power import PowerGridConfig, pad_nodes_for_grid, supply_pad_fractions

    design = _build_design(case)
    assignments = _or_skip(
        assign_design, RandomAssigner(), design, seed=case.run_seed
    )
    problems: List[str] = []
    for net_type in (NetType.POWER, NetType.GROUND, None):
        expected = _reference_pad_fractions(design, assignments, net_type)
        try:
            got = supply_pad_fractions(design, assignments, net_type=net_type)
        except PowerModelError:
            got = []
        if got != expected:
            problems.append(f"{net_type}: pad fractions differ from the reference")
        for size in (2, 7, 8 + case.run_seed % 89) if expected else ():
            grid = PowerGridConfig(size=size)
            if pad_nodes_for_grid(design, assignments, grid, net_type=net_type) != (
                _reference_pad_nodes(design, assignments, grid, net_type)
            ):
                problems.append(f"{net_type}: grid-{size} pad nodes differ")
    return problems


# -- staged kernel parity --------------------------------------------------


def oracle_assign_parity(case: FuzzCase) -> List[str]:
    """Object IFA/DFA vs the array kernels: orders must be identical.

    Also an error-parity check: a quadrant the object assigner refuses
    (typed ``AssignmentError``) must be refused by the kernel too, and
    vice versa — one path succeeding where the other raises is a
    divergence, not a skip.
    """
    from ..assign import DFAAssigner, IFAAssigner
    from ..errors import AssignmentError
    from ..kernels import dfa_order, ifa_order

    design = _build_design(case)
    cut_line_n = 1 + case.run_seed % 3
    strategies = (
        ("IFA", IFAAssigner(), lambda q: ifa_order(q)),
        ("DFA", DFAAssigner(cut_line_n=cut_line_n),
         lambda q: dfa_order(q, cut_line_n=cut_line_n)),
    )
    problems: List[str] = []
    for side, quadrant in design:
        for name, assigner, kernel in strategies:
            expected, expected_error = None, None
            try:
                expected = assigner.assign(quadrant).order
            except AssignmentError as exc:
                expected_error = f"{type(exc).__name__}: {exc}"
            got, got_error = None, None
            try:
                got = kernel(quadrant)
            except AssignmentError as exc:
                got_error = f"{type(exc).__name__}: {exc}"
            if (expected_error is None) != (got_error is None):
                problems.append(
                    f"{name} {side.value}: object path "
                    f"{expected_error or 'succeeded'} but kernel "
                    f"{got_error or 'succeeded'}"
                )
            elif expected is not None and got != expected:
                first = next(
                    i for i, (a, b) in enumerate(zip(expected, got)) if a != b
                )
                problems.append(
                    f"{name} {side.value}: kernel order diverges at slot "
                    f"{first}: object net {expected[first]}, kernel net "
                    f"{got[first]}"
                )
    return problems


def oracle_density_parity(case: FuzzCase) -> List[str]:
    """Object density walk vs the array accumulation: identical counts.

    The orders come from the object assigners themselves, quadrant by
    quadrant under the staged seeds, not from the assignment kernels.
    """
    from ..assign import DFAAssigner, RandomAssigner
    from ..kernels import max_density_of_order
    from ..routing import density_map

    design = _build_design(case)
    problems: List[str] = []
    for name, assigner in (
        ("Random", RandomAssigner()),
        ("DFA", DFAAssigner()),
    ):
        try:
            assignments = {
                side: assigner.assign(quadrant, seed=case.run_seed + index)
                for index, (side, quadrant) in enumerate(design)
            }
        except ReproError as exc:
            raise SkippedCase(f"{type(exc).__name__}: {exc}") from exc
        for side, assignment in assignments.items():
            expected = density_map(assignment).max_density
            got = max_density_of_order(assignment.quadrant, assignment.order)
            if got != expected:
                problems.append(
                    f"{name} {side.value}: array max density {got} != "
                    f"object {expected}"
                )
    return problems


def oracle_irsolve_parity(case: FuzzCase) -> List[str]:
    """Factor-once grid solves vs the reference assemble-and-solve path.

    A uniform solver, a solver with a case-seeded hotspot map and the
    uniform one again share one factorization; each solve must match a
    fresh object solve within ``BACKEND_RTOL``, so no solver reads another's
    map.  Two independent analyzers on the same pads must share it too.
    """
    import numpy as np

    from ..assign import DFAAssigner
    from ..power import FDSolver, IRDropAnalyzer, PowerGridConfig
    from ..power.pads import pad_nodes_for_grid

    design = _build_design(case)
    assignments = _or_skip(assign_design, DFAAssigner(), design, seed=case.run_seed)

    grid = PowerGridConfig(size=12 + case.run_seed % 5)
    nodes = _or_skip(pad_nodes_for_grid, design, assignments, grid, net_type=None)
    if not nodes:
        raise SkippedCase("case yields no supply pad nodes")
    rng = np.random.default_rng(case.run_seed)
    hotspot = np.abs(rng.normal(grid.j0, grid.j0 / 2, (grid.size, grid.size)))

    problems: List[str] = []
    uniform, hot = FDSolver(grid), FDSolver(grid, current_map=hotspot)
    for label, solver in (
        ("uniform", uniform), ("hotspot", hot), ("uniform again", uniform)
    ):
        reference = FDSolver(grid, current_map=solver.current_map)._solve_object(nodes)
        resolved = solver.factorize(nodes).solve()
        error = float(np.abs(resolved.voltage - reference.voltage).max())
        if not _close(resolved.max_drop, reference.max_drop) or \
                error > BACKEND_RTOL * max(1.0, float(np.abs(reference.voltage).max())):
            problems.append(
                f"{label}: factorized solve drifts from the object solve "
                f"(max |dV| = {error:.3e}, drops {resolved.max_drop!r} vs "
                f"{reference.max_drop!r})"
            )
    if hot.factorize(nodes).shared is not uniform.factorize(nodes):
        problems.append("the hotspot solver refactors a grid already factored")
    analyzers = [IRDropAnalyzer(design, grid_config=grid, net_type=None) for _ in "ab"]
    if analyzers[0].factorize(assignments) is not analyzers[1].factorize(assignments):
        problems.append("two IRDropAnalyzers on one pad set factor it twice")
    return problems


# -- exchange paths --------------------------------------------------------


def _exchanger(case: FuzzCase, design, cls=None, **kwargs):
    """An exchanger configured by the case (weights, rows, networks, demand)."""
    from ..exchange import FingerPadExchanger

    return (cls or FingerPadExchanger)(
        design,
        weights=case.cost_weights(),
        track_all_rows=case.track_all_rows,
        split_networks=case.split_networks,
        demand=case.demand_fn(),
        **kwargs,
    )


def _run_exchange(case: FuzzCase, design, baseline, path: str):
    """One anneal on *path*: the kernel, or the exact object loop."""
    exchanger = _exchanger(case, design, params=case.sa_params(), polish_passes=2)
    if path == "array":
        return exchanger.run(baseline, seed=case.run_seed)
    return exchanger._run_object(baseline, case.run_seed)


def _diverged(label: str, other, reference) -> List[str]:
    """Final orders, Eq.-3 terms and omega of two exchange results."""
    problems = [
        f"{label}: final order differs on {side.value}"
        for side in reference.after
        if other.after[side].order != reference.after[side].order
    ]
    for term, value in reference.cost_breakdown_after.items():
        if not _close(other.cost_breakdown_after.get(term, math.nan), value):
            problems.append(
                f"{label}: cost term {term!r} "
                f"{other.cost_breakdown_after.get(term)!r} != {value!r}"
            )
    if other.omega_after != reference.omega_after:
        problems.append(
            f"{label}: omega {other.omega_after} != {reference.omega_after}"
        )
    return problems


def _polish_parity(case: FuzzCase, design, baseline) -> List[str]:
    """Polish only (``GreedyExchanger``): kernel vs ``ExchangeCost`` loop."""
    from ..exchange import GreedyExchanger

    greedy = _exchanger(case, design, GreedyExchanger)
    exact = greedy._run_object(baseline, 0)
    return _diverged("polish kernel vs exact", greedy.run(baseline), exact)


def oracle_backends(case: FuzzCase) -> List[str]:
    from ..assign import DFAAssigner
    from ..verify import check_exchange_total

    design = _build_design(case)
    baseline = _or_skip(assign_design, DFAAssigner(), design, seed=case.run_seed)

    results: Dict[str, object] = {}
    errors: Dict[str, str] = {}
    for path in ("array", "exact"):
        try:
            results[path] = _run_exchange(case, design, baseline, path)
        except ReproError as exc:
            errors[path] = type(exc).__name__
    if errors and results:
        return [
            f"exchange paths disagree on feasibility: "
            f"{sorted(results)} succeeded, {errors} raised"
        ]
    if errors:
        kinds = set(errors.values())
        if len(kinds) > 1:
            return [f"exchange paths raised different error types: {errors}"]
        raise SkippedCase(f"all exchange paths raised {kinds.pop()}")

    problems: List[str] = []
    reference = results["exact"]
    # Schedule accounting: the step count the schedule reports must equal
    # the count the loop executed (one cost_trace entry per temperature
    # tier).  Exact-power final temps from the generator land on the float
    # boundary where the old log-based formula drifted by one.
    expected_steps = case.sa_params().temperature_steps()
    for path, result in sorted(results.items()):
        executed = len(result.stats.cost_trace)
        if executed != expected_steps:
            problems.append(
                f"{path}: schedule accounting: reported "
                f"{expected_steps} temperature steps, executed {executed}"
            )
    other = results["array"]
    for fld in ("proposed", "accepted", "accepted_uphill"):
        if getattr(other.stats, fld) != getattr(reference.stats, fld):
            problems.append(
                f"array vs exact: stats.{fld} "
                f"{getattr(other.stats, fld)} != "
                f"{getattr(reference.stats, fld)} (trace divergence)"
            )
    problems.extend(_diverged("array vs exact", other, reference))
    for path, result in results.items():
        report = check_exchange_total(
            design,
            result.before,
            result.after,
            result.cost_breakdown_after["total"],
            weights=case.cost_weights(),
            split_networks=case.split_networks,
            track_all_rows=case.track_all_rows,
            demand=case.demand_fn(),
        )
        if not report.ok:
            problems.extend(
                f"{path}: {diagnostic}" for diagnostic in report.errors[:3]
            )
    return problems + _polish_parity(case, design, baseline)


# -- checkpoint ------------------------------------------------------------


def oracle_checkpoint(case: FuzzCase) -> List[str]:
    """Crash/resume vs uninterrupted: the anneal must be bit-identical.

    Three runs of the array kernel under one seed: a clean reference, a
    checkpointed run killed by :class:`SimulatedCrash` right after its
    first save lands, and a resume from that checkpoint.  The resumed run
    must finish with the reference's exact stats, cost trace, final
    orders and costs — any drift means the checkpoint is missing state.
    """
    import os

    from ..assign import DFAAssigner
    from ..exchange import SACheckpointer, SimulatedCrash

    design = _build_design(case)
    baseline = _or_skip(assign_design, DFAAssigner(), design, seed=case.run_seed)

    def run(checkpoint):
        return _exchanger(
            case, design, params=case.sa_params(), polish_passes=2,
            checkpoint=checkpoint,
        ).run(baseline, seed=case.run_seed)

    reference = _or_skip(run, None)

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-ckpt-") as tmp:
        path = os.path.join(tmp, "sa.ckpt")
        # Cap the cadence at the schedule length so even the shortest
        # generated anneal saves (and crashes) at least once mid-run.
        interval = max(1, min(2 + case.run_seed % 3,
                              case.sa_params().total_moves() - 1))
        try:
            run(SACheckpointer(path, interval=interval, durable=False,
                               interrupt_after_saves=1))
        except SimulatedCrash:
            pass
        else:
            raise SkippedCase(
                f"anneal finished before a move-{interval} checkpoint"
            )
        resumed = run(SACheckpointer(path, interval=interval, durable=False))
        leftover = os.path.exists(path)

    problems: List[str] = []
    for fld in ("proposed", "infeasible", "accepted", "accepted_uphill",
                "nonfinite_rejected"):
        if getattr(resumed.stats, fld) != getattr(reference.stats, fld):
            problems.append(
                f"resumed stats.{fld} {getattr(resumed.stats, fld)} != "
                f"{getattr(reference.stats, fld)} (trace divergence)"
            )
    if resumed.stats.cost_trace != reference.stats.cost_trace:
        problems.append("resumed cost trace differs from the clean run")
    for fld in ("final_cost", "best_cost"):
        if getattr(resumed.stats, fld) != getattr(reference.stats, fld):
            problems.append(
                f"resumed stats.{fld} {getattr(resumed.stats, fld)!r} != "
                f"{getattr(reference.stats, fld)!r} (must be bit-identical)"
            )
    for side in reference.after:
        if resumed.after[side].order != reference.after[side].order:
            problems.append(f"resumed final order differs on {side.value}")
    if resumed.cost_breakdown_after != reference.cost_breakdown_after:
        problems.append("resumed cost breakdown differs from the clean run")
    if leftover:
        problems.append("completed resumed run left its checkpoint behind")
    return problems


# -- engine ----------------------------------------------------------------


def _probe_specs(case: FuzzCase):
    from ..runtime.spec import JobSpec

    params = {"spec": dict(case.spec), "design_seed": case.design_seed}
    # One pinned spec and one seedless spec: the latter must derive the
    # same effective seed on every engine configured alike, and must NOT
    # leak across differently-configured engines through the cache.
    return [
        JobSpec("fuzz_probe", params, seed=case.run_seed),
        JobSpec("fuzz_probe", params, seed=None),
    ]


def _outcome_key(outcome):
    return (outcome.value, outcome.error_class)


def oracle_engine(case: FuzzCase) -> List[str]:
    from ..runtime import JobEngine, ResultCache

    problems: List[str] = []
    specs = _probe_specs(case)

    serial = JobEngine(jobs=1, retries=0, base_seed=0).run(specs)
    parallel = JobEngine(jobs=2, retries=0, base_seed=0).run(specs)
    for spec, a, b in zip(specs, serial, parallel):
        if _outcome_key(a) != _outcome_key(b):
            problems.append(
                f"serial vs jobs=2 disagree on {spec.label()}: "
                f"{_outcome_key(a)!r} != {_outcome_key(b)!r}"
            )
    if all(outcome.error for outcome in serial):
        if problems:
            return problems
        raise SkippedCase(f"probe jobs fail uniformly: {serial[0].error}")

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        cached = JobEngine(cache=ResultCache(tmp), jobs=1, retries=0,
                           base_seed=0).run(specs)
        replay = JobEngine(cache=ResultCache(tmp), jobs=1, retries=0,
                           base_seed=0).run(specs)
        for spec, a, b in zip(specs, cached, replay):
            if not b.cached and b.ok:
                problems.append(f"second run of {spec.label()} missed the cache")
            if _outcome_key(a) != _outcome_key(b):
                problems.append(
                    f"cached vs fresh disagree on {spec.label()}: "
                    f"{_outcome_key(b)!r} != {_outcome_key(a)!r}"
                )
        # A different base_seed reading the same cache directory must get
        # the value it would compute itself, not the first writer's.
        other_fresh = JobEngine(jobs=1, retries=0, base_seed=1).run(specs)
        other_cached = JobEngine(cache=ResultCache(tmp), jobs=1, retries=0,
                                 base_seed=1).run(specs)
        for spec, fresh, served in zip(specs, other_fresh, other_cached):
            if _outcome_key(fresh) != _outcome_key(served):
                problems.append(
                    f"cache poisoned across base seeds on {spec.label()}: "
                    f"served {_outcome_key(served)!r}, should compute "
                    f"{_outcome_key(fresh)!r}"
                )
    return problems


# -- serve -----------------------------------------------------------------


def _serve_params(case: FuzzCase) -> dict:
    """The ``design_run`` params a case maps to on the wire."""
    params = {
        "spec": dict(case.spec),
        "design_seed": case.design_seed,
        "grid": 16,
    }
    for key in ("initial_temp", "final_temp", "cooling", "moves_per_temp"):
        if key in case.sa:
            params[key] = case.sa[key]
    return params


def oracle_serve(case: FuzzCase) -> List[str]:
    """HTTP round-trip parity: daemon envelope == direct ``design_run``.

    The generated case is posted to an in-process daemon over the real
    wire (JSON request -> admission -> engine -> envelope) and compared
    against invoking the ``design_run`` runner directly: same value on
    success, consistently-typed failure otherwise.  Also asserts the wire
    validator accepts every payload this mapping can generate.
    """
    from ..runtime.spec import resolve_job_type
    from ..serve import ServeClient, ServeConfig, ServeHandle
    from ..serve.wire import WIRE_SCHEMA_VERSION, validate_request

    params = _serve_params(case)
    payload = {
        "schema": WIRE_SCHEMA_VERSION,
        "kind": "design_run",
        "params": params,
        "seed": case.run_seed,
    }
    problems = [
        f"wire validator rejects a generated payload: {code}: {message}"
        for code, message in validate_request(payload)
    ]
    if problems:
        return problems

    runner = resolve_job_type("design_run")
    direct_value = None
    direct_error: str = ""
    try:
        direct_value = runner(dict(params), case.run_seed)
    except ReproError as exc:
        direct_error = type(exc).__name__
    except Exception as exc:  # noqa: BLE001 - untyped crash is itself a bug
        return [
            f"design_run raised an untyped error directly: "
            f"{type(exc).__name__}: {exc}"
        ]

    # cache=False so the daemon *executes* (parity, not replay); workers=1
    # runs the job in the dispatcher thread — no pool per sampled case.
    config = ServeConfig(
        port=0, workers=1, cache=False, batch_window=0.0, announce=False
    )
    with ServeHandle(config) as handle:
        client = ServeClient(port=handle.port, timeout=600.0)
        status, envelope = client.submit(
            "design_run", params, seed=case.run_seed, raise_on_error=False
        )
    if status != 200:
        return [
            f"daemon returned HTTP {status} for a valid submit: {envelope}"
        ]
    if envelope.get("schema") != WIRE_SCHEMA_VERSION:
        problems.append(
            f"envelope schema {envelope.get('schema')!r} != "
            f"{WIRE_SCHEMA_VERSION}"
        )
    if direct_error:
        if envelope.get("status") != "failed":
            problems.append(
                f"direct call raised {direct_error} but the daemon served "
                f"status {envelope.get('status')!r}"
            )
        elif direct_error not in (envelope.get("error") or ""):
            problems.append(
                f"failure types diverge: direct {direct_error}, served "
                f"{envelope.get('error')!r}"
            )
        if problems:
            return problems
        raise SkippedCase(f"design_run fails consistently: {direct_error}")
    if envelope.get("status") != "done":
        problems.append(
            f"direct call succeeded but the daemon served "
            f"{envelope.get('status')!r}: {envelope.get('error')!r}"
        )
    elif envelope.get("value") != direct_value:
        problems.append(
            "served value differs from the direct design_run value "
            f"(digest {envelope.get('job', '')[:12]})"
        )
    return problems


#: Name -> oracle.  Iteration order is the default execution order.
ORACLES: Dict[str, Callable[[FuzzCase], List[str]]] = {
    "density": oracle_density,
    "legality": oracle_legality,
    "pad_map_parity": oracle_pad_map_parity,
    "assign_parity": oracle_assign_parity,
    "density_parity": oracle_density_parity,
    "irsolve_parity": oracle_irsolve_parity,
    "backends": oracle_backends,
    "checkpoint": oracle_checkpoint,
    "engine": oracle_engine,
    "serve": oracle_serve,
}

#: Run oracle only on every Nth case (1 = every case).  The engine oracle
#: spawns worker processes, the serve oracle spins a daemon + a full
#: co-design run per case, the checkpoint oracle anneals three times per
#: case, and the irsolve oracle factors grids, so they sample.
ORACLE_STRIDES: Dict[str, int] = {
    "engine": 8,
    "serve": 16,
    "checkpoint": 4,
    "irsolve_parity": 2,
}
