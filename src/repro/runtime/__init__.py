"""repro.runtime — parallel, cached, observable experiment execution.

Every evaluation target of the paper (Tables 1-3, Figs. 5-15) is a fan-out
of independent ``(circuit, assigner, seed)`` jobs.  This subsystem gives
them a shared execution engine:

``spec``
    Declarative :class:`JobSpec` (kind + params + seed), content-hash
    digests and the job-type registry.
``cache``
    Digest-keyed on-disk result cache, so re-running a table is a
    near-instant cache hit.
``engine``
    :class:`JobEngine`: process-pool fan-out with per-job timeout,
    bounded retry with backoff and graceful degradation to serial
    execution when workers die.
``journal``
    Append-only, fsync'd write-ahead log of job lifecycles: settled
    digests answer across restarts, in-flight digests recover exactly
    once after a crash.
``telemetry``
    Counters, timers and a JSONL event sink, threaded through the SA
    annealer and the experiment flow.
``jobs``
    Built-in job types (``table2_cell``, ``codesign``, ``fig6``).
``workloads``
    Paper-level workloads (table2 / table3 / fig6 / smoke) built from
    job specs plus renderers back to the paper-style tables.

``jobs`` and ``workloads`` import the heavier flow/circuits layers and are
therefore loaded lazily (the registry resolves them on first use).
"""

from .atomic import atomic_write_text
from .cache import MISS, ResultCache, default_cache_dir, default_max_bytes
from .engine import JobEngine, JobOutcome
from .journal import JOURNAL_VERSION, JobJournal
from .spec import (
    CACHE_SCHEMA_VERSION,
    JobSpec,
    job_types,
    register_job_type,
    resolve_job_type,
)
from .telemetry import (
    JsonlSink,
    Telemetry,
    get_telemetry,
    using_telemetry,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "JOURNAL_VERSION",
    "JobEngine",
    "JobJournal",
    "JobOutcome",
    "JobSpec",
    "JsonlSink",
    "MISS",
    "ResultCache",
    "Telemetry",
    "atomic_write_text",
    "default_cache_dir",
    "default_max_bytes",
    "get_telemetry",
    "job_types",
    "register_job_type",
    "resolve_job_type",
    "using_telemetry",
]
