"""End-to-end smoke of the daemon as a real subprocess.

``python -m repro.serve.smoke`` (or ``make serve-smoke``) exercises the
full deployment path, not the in-process harness:

1. spawn ``repro serve --port 0`` and parse the ``serve.listening``
   announcement for the ephemeral port;
2. POST a small ``design_run`` job and require HTTP 200 with a ``done``
   envelope;
3. POST the identical job again and require the answer to come back
   from the cache or the in-memory registry (``cached``/``deduped``),
   never as a second execution;
4. check ``/healthz`` accounting;
5. check ``/v1/stats``: the request-latency histogram counted both
   submits under ``endpoint="/v1/jobs"``, and its ``health`` carries the
   counters and the queue's ``pending``/``limit``/``running``;
6. require ``GET /metrics`` to be a 404 (``/v1/stats`` is the only
   live-metrics surface);
7. SIGTERM the daemon and require a clean drain with exit code 143.

Exit code 0 = all checks passed; 1 = a check failed (each failure is
printed); 2 = harness error (daemon did not start).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

from .client import ServeClient

#: Small but non-trivial: a real two-step co-design run that finishes in
#: a few seconds and is deterministic under its pinned seed.
SMOKE_PARAMS = {
    "spec": {
        "name": "serve-smoke",
        "finger_count": 16,
        "quadrant_count": 4,
        "rows_per_quadrant": 2,
    },
    "design_seed": 3,
    "grid": 16,
    "initial_temp": 1.0,
    "final_temp": 0.4,
    "cooling": 0.5,
    "moves_per_temp": 2,
}


def start_daemon(cache_dir: str, workers: int = 1, timeout: float = 30.0,
                 extra_args: Optional[List[str]] = None):
    """Spawn ``repro serve --port 0``; returns ``(process, port)``."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", str(workers),
            "--cache-dir", cache_dir,
            "--drain-deadline", "20",
            *(extra_args or []),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited {process.returncode} before listening: "
                    f"{process.stderr.read()[-2000:]}"
                )
            time.sleep(0.05)
            continue
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if message.get("event") == "serve.listening":
            return process, int(message["port"])
    process.kill()
    raise RuntimeError(f"daemon did not announce a port within {timeout}s")


def stop_daemon(process, problems: List[str]) -> int:
    """SIGTERM the daemon and return its exit code (killed after 30 s)."""
    process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        returncode = process.wait()
        problems.append("daemon did not exit within 30s of SIGTERM")
        return returncode


def run_smoke(workers: int = 1, verbose: bool = True) -> List[str]:
    """All smoke checks against one daemon; returns failure messages."""
    problems: List[str] = []

    def check(ok: bool, message: str) -> None:
        if verbose:
            print(("ok  " if ok else "FAIL") + f" {message}")
        if not ok:
            problems.append(message)

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        process, port = start_daemon(tmp, workers=workers)
        try:
            # Retries with backoff ride out the daemon's startup window
            # and transient 429/503 shedding (Retry-After honored).
            client = ServeClient(
                port=port, timeout=120.0, connect_timeout=10.0, retries=3
            )

            health = client.health()
            check(health.get("status") == "ok", "healthz reports ok")

            status, first = client.submit(
                "design_run", SMOKE_PARAMS, seed=7, raise_on_error=False
            )
            check(status == 200, f"first submit returns 200 (got {status})")
            check(
                first.get("status") == "done",
                f"first submit settles done (got {first.get('status')}: "
                f"{first.get('error')})",
            )
            check(
                not first.get("cached") and not first.get("deduped"),
                "first submit actually executed",
            )

            status, second = client.submit(
                "design_run", SMOKE_PARAMS, seed=7, raise_on_error=False
            )
            check(status == 200, f"second submit returns 200 (got {status})")
            check(
                bool(second.get("cached")) or bool(second.get("deduped")),
                "identical second submit is served without re-executing "
                f"(cached={second.get('cached')} deduped={second.get('deduped')})",
            )
            check(
                second.get("value") == first.get("value"),
                "second submit returns the identical value",
            )

            health = client.health()
            counters = health.get("counters", {})
            check(
                counters.get("executed") == 1,
                f"daemon executed exactly one job (executed="
                f"{counters.get('executed')})",
            )
            check(
                counters.get("requests", 0) >= 3,
                "request counter advanced",
            )

            stats = client.stats()
            stats_health = stats.get("health", {})
            check(
                stats_health.get("status") == "ok",
                "/v1/stats embeds a healthy /healthz snapshot",
            )
            family = stats.get("metrics", {}).get(
                "repro_serve_request_seconds", {}
            )
            submits = sum(
                series.get("count", 0)
                for series in family.get("series", [])
                if series.get("labels", {}).get("endpoint") == "/v1/jobs"
            )
            check(
                submits >= 2,
                f"request-latency histogram counted both submits under "
                f"endpoint=/v1/jobs (count={submits})",
            )
            check(
                stats_health.get("counters", {}).get("executed", 0) >= 1,
                "/v1/stats health counts the executed job",
            )
            queue = stats_health.get("queue", {})
            check(
                all(key in queue for key in ("pending", "limit", "running")),
                f"/v1/stats health queue carries pending, limit and "
                f"running (got {sorted(queue)})",
            )

            status, _ = client._request("GET", "/metrics")
            check(status == 404, f"GET /metrics is a 404 (got {status})")
        finally:
            returncode = stop_daemon(process, problems)
        check(
            returncode == 128 + signal.SIGTERM,
            f"SIGTERM exits 143 (got {returncode})",
        )
    return problems


def smoke_main(argv, doc: str, label: str, run, workers: bool = True) -> int:
    """The smokes' shared CLI: exit 0 when every check passes, 1 when some
    fail and 2 when the harness itself breaks."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    if workers:
        parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    kwargs = {"workers": args.workers} if workers else {}
    try:
        problems = run(verbose=not args.quiet, **kwargs)
    except RuntimeError as exc:
        print(f"{label} harness error: {exc}", file=sys.stderr)
        return 2
    if problems:
        print(f"{label}: {len(problems)} failure(s)", file=sys.stderr)
        return 1
    print(f"{label}: all checks passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    return smoke_main(argv, __doc__, "serve smoke", run_smoke)


if __name__ == "__main__":
    sys.exit(main())
