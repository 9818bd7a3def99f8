"""Telemetry-plane smoke: scrape a loaded daemon and validate /metrics.

``python -m repro.serve.scrape_smoke`` (or ``make scrape-smoke``) is the
observability twin of :mod:`repro.serve.smoke`:

1. spawn ``repro serve --port 0`` as a real subprocess;
2. submit a small ``design_run`` job so the request histograms, queue
   gauges, and worker-pool metrics have something to show;
3. ``GET /metrics`` and run the exposition through
   :func:`repro.obs.live.validate_exposition` (the promtool-style
   grammar/semantics checker);
4. require the load to be visible: a nonzero ``repro_serve_request_seconds``
   histogram, the queue/in-flight gauges, and the serve counters;
5. ``GET /v1/stats`` and cross-check its JSON against ``/healthz``;
6. SIGTERM the daemon and require exit code 143.

Exit code 0 = all checks passed; 1 = a check failed; 2 = harness error.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
from typing import List, Optional

from ..obs.live import validate_exposition
from .client import ServeClient
from .smoke import SMOKE_PARAMS, smoke_main, start_daemon, stop_daemon


def run_scrape_smoke(workers: int = 1, verbose: bool = True) -> List[str]:
    """All scrape checks against one daemon; returns failure messages."""
    problems: List[str] = []

    def check(ok: bool, message: str) -> None:
        if verbose:
            print(("ok  " if ok else "FAIL") + f" {message}")
        if not ok:
            problems.append(message)

    with tempfile.TemporaryDirectory(prefix="repro-scrape-smoke-") as tmp:
        process, port = start_daemon(tmp, workers=workers)
        try:
            client = ServeClient(
                port=port, timeout=120.0, connect_timeout=10.0, retries=3
            )

            # An empty-registry scrape must already be valid exposition.
            empty = client.metrics()
            check(
                not validate_exposition(empty),
                "pre-load scrape is valid exposition",
            )

            status, envelope = client.submit(
                "design_run", SMOKE_PARAMS, seed=7, raise_on_error=False
            )
            check(
                status == 200 and envelope.get("status") == "done",
                f"load job settles done (HTTP {status}, "
                f"{envelope.get('status')})",
            )

            text = client.metrics()
            grammar_problems = validate_exposition(text)
            check(
                not grammar_problems,
                "loaded scrape passes the exposition validator"
                + (f" ({'; '.join(grammar_problems[:3])})"
                   if grammar_problems else ""),
            )

            def sample_value(needle: str) -> Optional[float]:
                for line in text.splitlines():
                    if line.startswith("#") or not line.strip():
                        continue
                    if line.startswith(needle):
                        try:
                            return float(line.rsplit(None, 1)[-1])
                        except ValueError:
                            return None
                return None

            request_count = sum(
                float(line.rsplit(None, 1)[-1])
                for line in text.splitlines()
                if line.startswith("repro_serve_request_seconds_count")
            )
            check(
                request_count >= 2,
                f"request-latency histogram counted the traffic "
                f"(count={request_count:g})",
            )
            check(
                'endpoint="/v1/jobs"' in text,
                "histogram is labeled by normalized endpoint",
            )
            check(
                sample_value("repro_serve_queue_depth") is not None,
                "queue-depth gauge is exported",
            )
            check(
                (sample_value("repro_serve_executed_total") or 0) >= 1,
                "serve counters mirror into the registry",
            )

            stats = client.stats()
            check(
                stats.get("health", {}).get("status") == "ok",
                "/v1/stats embeds a healthy /healthz snapshot",
            )
            check(
                "repro_serve_request_seconds" in stats.get("metrics", {}),
                "/v1/stats carries the metric families as JSON",
            )
        finally:
            returncode = stop_daemon(process, problems)
        check(
            returncode == 128 + signal.SIGTERM,
            f"SIGTERM exits 143 (got {returncode})",
        )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    return smoke_main(argv, __doc__, "scrape smoke", run_scrape_smoke,
                      harness_errors=(RuntimeError, subprocess.SubprocessError))


if __name__ == "__main__":
    sys.exit(main())
