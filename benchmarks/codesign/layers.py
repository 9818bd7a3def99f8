"""Per-layer self-time from wrappers patched in at each layer's lookup point.

The program carries no spans for this benchmark.  ``patched`` replaces, for
the duration of a ``with`` block, each public function a layer exposes at
the attribute its caller resolves at call time, and puts the original back
on exit.  A wrapper charges its wall time to its span, minus the time of
wrapped calls nested inside it, so the self-times of one pass sum to the
wall time the wrappers cover and the rest of the pass is "untracked".

A target that no longer exists (a module or class deleted by a later
change) is reported as ``absent`` with 0 calls; the time it used to cover
then shows up in ``flow.untracked_frac``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: (span, module, attribute) for every patch point.  A dotted attribute
#: patches a class attribute, which every caller of the class sees.
TARGETS = (
    ("assign", "repro.flow.codesign", "assign_design"),
    ("assign", "repro.api", "_assign_design"),
    ("exchange", "repro.exchange.exchanger", "FingerPadExchanger.run"),
    ("exchange.anneal", "repro.exchange.annealer", "SimulatedAnnealer.optimize"),
    ("kernels.build", "repro.kernels", "ArrayExchangeKernel.__init__"),
    ("kernels.polish", "repro.kernels", "ArrayExchangeKernel.polish"),
    ("exchange.report", "repro.exchange.fastcost", "CachedExchangeCost.__init__"),
    ("exchange.report", "repro.exchange.fastcost", "CachedExchangeCost.breakdown"),
    ("exchange.report", "repro.exchange.exchanger", "omega_of_design"),
    ("flow.measure", "repro.flow.codesign", "measure"),
    ("flow.measure", "repro.api", "measure"),
    ("routing.density", "repro.flow.metrics", "max_density_of_design"),
    ("routing.wirelength", "repro.flow.metrics", "total_flyline_length_of_design"),
    ("power.ir", "repro.power.irdrop", "IRDropAnalyzer.max_drop"),
)

#: The span whose return value (an ``SAStats``) carries the anneal counts.
ANNEAL = "exchange.anneal"


class Tracer:
    """Accumulates self-time and call counts per span across traced calls."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = Counter()
        #: ``"module:attribute"`` -> ``"ok"`` or ``"absent"``.
        self.status = {}
        #: Wrapped calls per patch target.
        self.target_calls = Counter()
        #: (proposed, infeasible, accepted, improved) per anneal.
        self.anneals = []
        # Time covered by wrapped callees, one entry per open wrapped call.
        self._children = []

    def wrap(self, span: str, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self.self_s[span] += elapsed - self._children.pop()
                self.calls[span] += 1
                self.target_calls[key] += 1
                if self._children:
                    self._children[-1] += elapsed
            if span == ANNEAL:
                self.anneals.append(
                    (
                        result.proposed,
                        result.infeasible,
                        result.accepted,
                        result.best_cost < result.initial_cost,
                    )
                )
            return result

        return wrapper

    @property
    def absent(self) -> int:
        return sum(1 for state in self.status.values() if state == "absent")


def _resolve(module_name: str, attribute: str):
    """``(owner, name)`` for a patch target, or ``(None, None)`` if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, name = attribute.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, name):
        return None, None
    return owner, name


@contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Install *tracer*'s wrappers on *targets*; restore the originals on exit."""
    installed = []
    try:
        for span, module_name, attribute in targets:
            key = f"{module_name}:{attribute}"
            owner, name = _resolve(module_name, attribute)
            if owner is None:
                tracer.status[key] = "absent"
                continue
            own = vars(owner)
            installed.append((owner, name, name in own, own.get(name)))
            setattr(owner, name, tracer.wrap(span, key, getattr(owner, name)))
            tracer.status[key] = "ok"
        yield tracer
    finally:
        for owner, name, had_own, original in reversed(installed):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def layer_metrics(tracer: Tracer, passes: int, wall: float) -> dict:
    """Per-pass layer metrics from *passes* traced passes taking *wall* s."""
    self_s = tracer.self_s
    anneals = tracer.anneals
    proposed = sum(a[0] for a in anneals)
    feasible = proposed - sum(a[1] for a in anneals)
    accepted = sum(a[2] for a in anneals)
    untracked = wall - sum(self_s.values())
    return {
        "assign.s": self_s["assign"] / passes,
        "assign.calls": tracer.calls["assign"] / passes,
        "kernels.build_s": self_s["kernels.build"] / passes,
        "kernels.polish_s": self_s["kernels.polish"] / passes,
        "exchange.anneal_s": self_s[ANNEAL] / passes,
        "exchange.proposed": proposed / passes,
        "exchange.accepted": accepted / passes,
        "exchange.accept_ratio": accepted / feasible if feasible else 0.0,
        "exchange.us_per_move": self_s[ANNEAL] * 1e6 / proposed if proposed else 0.0,
        "exchange.improved_frac": (
            sum(a[3] for a in anneals) / len(anneals) if anneals else 0.0
        ),
        "exchange.report_s": self_s["exchange.report"] / passes,
        "exchange.self_s": self_s["exchange"] / passes,
        "flow.measure_s": self_s["flow.measure"] / passes,
        "routing.density_s": self_s["routing.density"] / passes,
        "routing.wirelength_s": self_s["routing.wirelength"] / passes,
        "power.ir_s": self_s["power.ir"] / passes,
        "power.ir_calls": tracer.calls["power.ir"] / passes,
        "flow.untracked_s": untracked / passes,
        "flow.untracked_frac": untracked / wall,
        "trace.pass_s": wall / passes,
        "trace.absent_targets": tracer.absent,
    }
