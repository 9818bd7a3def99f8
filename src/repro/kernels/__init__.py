"""Array-backed pipeline kernels (``repro.kernels``).

High-throughput mirrors of the object-model pipeline stages: flat NumPy
state plus vectorized inner loops, proven move-for-move (exchange),
order-identical (assignment) or value-identical (density, IR solve) to
the object backend.  ``resolve_backend`` implements the ``backend="auto"``
policy used by :class:`~repro.exchange.FingerPadExchanger`: the exchange
kernel is the production path at every design size, and the object model
runs only when asked for or when a custom ``ir_proxy`` needs it.
``resolve_stage_backend`` is the per-stage policy of the staged
assignment/density entry points, which still switch at
``ARRAY_BACKEND_THRESHOLD`` elements.

Stage kernels:

* :mod:`.exchange` — SA finger/pad exchange with O(1) Eq.-3 move deltas;
* :mod:`.assign` — IFA (linked-list O(n)) and DFA (closed-form rank
  recurrence) finger orders;
* :mod:`.density` — run/interval congestion accumulation on int arrays;
* :mod:`.irsolve` — factor-once / re-solve-many FD power-grid solver.
"""

from __future__ import annotations

from ..errors import ExchangeError
from .assign import dfa_order, ifa_order
from .density import max_density_of_order
from .exchange import WL_RESYNC_INTERVAL, ArrayExchangeKernel
from .irsolve import GridFactorization, factorize_grid
from .state import SideArrays, WatchedRow, build_side_arrays, row_run_counts

#: Stages touching at least this many elements default to the array
#: backend under ``backend="auto"`` (assignment and density only; the
#: exchange takes the array kernel at every size).
ARRAY_BACKEND_THRESHOLD = 512

#: Accepted backend names, in documentation order.
BACKENDS = ("auto", "object", "array", "exact")


def resolve_backend(backend: str, design, ir_proxy=None) -> str:
    """Map a requested exchange backend to a concrete one (``object|array|exact``).

    ``auto`` picks ``array`` at every design size unless a custom
    ``ir_proxy`` is injected; a custom proxy stays on ``object``, the only
    backend that supports one.  Explicitly requesting
    ``array`` with a custom ``ir_proxy`` is an error — the kernel
    hard-codes the paper's compact gap-spread proxy.
    """
    if backend not in BACKENDS:
        raise ExchangeError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    if backend == "array":
        if ir_proxy is not None:
            raise ExchangeError(
                "backend='array' does not support a custom ir_proxy; "
                "use backend='object'"
            )
        return "array"
    if backend != "auto":
        return backend
    return "array" if ir_proxy is None else "object"


def resolve_stage_backend(backend: str, size: int) -> str:
    """Per-stage ``backend=`` policy for assignment and density estimation.

    Returns ``"object"`` or ``"array"``.  ``auto`` picks ``array`` for
    stages touching at least ``ARRAY_BACKEND_THRESHOLD`` elements (nets);
    ``"exact"`` — meaningful only to the exchange cost machinery —
    degrades to ``"object"`` so one flow-level ``backend=`` keyword can
    drive every stage.
    """
    if backend not in BACKENDS:
        raise ExchangeError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    if backend in ("object", "exact"):
        return "object"
    if backend == "array" or size >= ARRAY_BACKEND_THRESHOLD:
        return "array"
    return "object"


__all__ = [
    "ARRAY_BACKEND_THRESHOLD",
    "BACKENDS",
    "resolve_backend",
    "resolve_stage_backend",
    "ArrayExchangeKernel",
    "WL_RESYNC_INTERVAL",
    "SideArrays",
    "WatchedRow",
    "build_side_arrays",
    "row_run_counts",
    "dfa_order",
    "ifa_order",
    "max_density_of_order",
    "GridFactorization",
    "factorize_grid",
]
