"""kill -9 recovery smoke: the daemon must survive its own sudden death.

``python -m repro.serve.crash_smoke`` (or ``make crash-smoke``) proves the
journal's whole promise end to end, as real subprocesses:

1. compute a crash-free reference value for every probe job by invoking
   the ``design_run`` runner directly;
2. spawn ``repro serve --journal <wal>`` and submit the probes with
   ``wait=false`` (``--batch-max 1`` so digests settle one at a time);
3. ``SIGKILL`` the daemon the moment the journal shows at least one
   settled digest — mid-stream, with work both settled and in flight;
4. restart a daemon on the same journal and cache, and require that
   every digest settles with the byte-identical reference value;
5. require that digests settled *before* the kill are answered from the
   recovered registry without re-execution (the ``executed`` counter
   must count only the re-enqueued in-flight work).

Exit code 0 = all checks passed; 1 = a check failed (each failure is
printed); 2 = harness error (daemon did not start / kill window missed).
"""

from __future__ import annotations

import json
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..runtime.journal import JobJournal
from ..runtime.spec import JobSpec, resolve_job_type
from .client import ServeClient
from .smoke import smoke_main, start_daemon, stop_daemon

#: ~1 s per job on a development machine: slow enough that the SIGKILL
#: reliably lands while later probes are still in flight, fast enough
#: that the whole smoke stays under a minute.
PROBE_PARAMS = {
    "spec": {
        "name": "crash-smoke",
        "finger_count": 32,
        "quadrant_count": 4,
        "rows_per_quadrant": 4,
    },
    "design_seed": 3,
    "grid": 32,
    "initial_temp": 1.0,
    "final_temp": 0.01,
    "cooling": 0.9,
    "moves_per_temp": 250,
}

#: Distinct seeds = distinct digests = one probe job each.
PROBE_SEEDS = (7, 11, 13, 17)


def _journal_settled(path: str) -> Dict[str, dict]:
    """Read-only replay of the journal's settled records ({} if absent).

    The file may be mid-append under the live daemon; replay tolerates
    the torn tail that implies.
    """
    if not Path(path).exists():
        return {}
    journal = JobJournal(path, compact_bytes=None)
    try:
        return journal.settled_records()
    finally:
        journal.close()


def run_crash_smoke(verbose: bool = True) -> List[str]:
    """All crash-recovery checks; returns failure messages."""
    problems: List[str] = []

    def check(ok: bool, message: str) -> None:
        if verbose:
            print(("ok  " if ok else "FAIL") + f" {message}", flush=True)
        if not ok:
            problems.append(message)

    runner = resolve_job_type("design_run")
    reference = {}
    for seed in PROBE_SEEDS:
        digest = JobSpec("design_run", PROBE_PARAMS, seed=seed).digest()
        reference[digest] = runner(dict(PROBE_PARAMS), seed)
    if verbose:
        print(f"reference: {len(reference)} crash-free values", flush=True)

    with tempfile.TemporaryDirectory(prefix="repro-crash-smoke-") as tmp:
        journal_path = str(Path(tmp) / "jobs.wal")
        cache_dir = str(Path(tmp) / "cache")
        daemon_args = [
            "--journal", journal_path,
            "--batch-max", "1",
            "--batch-window", "0",
        ]

        # -- phase 1: submit, then SIGKILL mid-stream ----------------------
        process, port = start_daemon(
            cache_dir, workers=1, extra_args=daemon_args
        )
        killed_cleanly = False
        try:
            client = ServeClient(port=port, timeout=60.0, retries=3)
            digests = []
            for seed in PROBE_SEEDS:
                status, envelope = client.submit(
                    "design_run", PROBE_PARAMS, seed=seed, wait=False
                )
                digests.append(envelope["job"])
            check(
                sorted(digests) == sorted(reference),
                "daemon digests match the reference digests",
            )
            deadline = time.monotonic() + 120.0
            settled_before: Dict[str, dict] = {}
            while time.monotonic() < deadline:
                settled_before = _journal_settled(journal_path)
                if settled_before:
                    break
                time.sleep(0.05)
            if not settled_before:
                raise RuntimeError(
                    "no digest settled within 120s; cannot place the kill"
                )
            process.send_signal(signal.SIGKILL)
            returncode = process.wait(timeout=30)
            killed_cleanly = True
            check(
                returncode == -signal.SIGKILL,
                f"daemon died of SIGKILL (returncode {returncode})",
            )
        finally:
            if not killed_cleanly:
                process.kill()
                process.wait(timeout=30)

        # The journal is now the only truth: re-read it post-mortem.
        settled_before = _journal_settled(journal_path)
        inflight_at_kill = [
            digest for digest in reference if digest not in settled_before
        ]
        if verbose:
            print(
                f"killed with {len(settled_before)} settled, "
                f"{len(inflight_at_kill)} in flight", flush=True,
            )
        check(
            len(settled_before) >= 1,
            "at least one digest settled before the kill",
        )
        for digest, record in settled_before.items():
            check(
                record.get("value") == reference[digest],
                f"pre-kill settled value is the reference value "
                f"({digest[:12]})",
            )

        # -- phase 2: restart on the same journal + cache ------------------
        process, port = start_daemon(
            cache_dir, workers=1, extra_args=daemon_args
        )
        try:
            client = ServeClient(port=port, timeout=60.0, retries=3)
            deadline = time.monotonic() + 180.0
            for digest in reference:
                envelope = {}
                while time.monotonic() < deadline:
                    status, envelope = client.status(digest)
                    if status == 200 and envelope.get("status") == "done":
                        break
                    if envelope.get("status") == "failed":
                        break
                    time.sleep(0.1)
                check(
                    envelope.get("status") == "done",
                    f"digest {digest[:12]} settles after restart "
                    f"(got {envelope.get('status')}: {envelope.get('error')})",
                )
                same = json.dumps(
                    envelope.get("value"), sort_keys=True
                ) == json.dumps(reference[digest], sort_keys=True)
                check(
                    same,
                    f"recovered value for {digest[:12]} is byte-identical "
                    f"to the crash-free reference",
                )
            health = client.health()
            executed = health.get("counters", {}).get("executed", -1)
            check(
                executed == len(inflight_at_kill),
                f"restart re-executed only the in-flight work "
                f"(executed={executed}, expected {len(inflight_at_kill)})",
            )
            # A resubmit of a pre-kill digest must dedup, not re-run.
            probe = next(iter(settled_before))
            probe_seed = next(
                seed for seed in PROBE_SEEDS
                if JobSpec("design_run", PROBE_PARAMS, seed=seed).digest()
                == probe
            )
            status, envelope = client.submit(
                "design_run", PROBE_PARAMS, seed=probe_seed, wait=True
            )
            check(
                status == 200 and envelope.get("deduped"),
                f"resubmitted pre-kill digest dedups against the recovered "
                f"registry (status={status}, deduped={envelope.get('deduped')})",
            )
            executed_after = client.health()["counters"]["executed"]
            check(
                executed_after == executed,
                "resubmit did not trigger a re-execution",
            )
        finally:
            returncode = stop_daemon(process, problems)
        check(
            returncode == 128 + signal.SIGTERM,
            f"second daemon drains cleanly on SIGTERM (got {returncode})",
        )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    return smoke_main(argv, __doc__, "crash smoke", run_crash_smoke,
                      workers=False)


if __name__ == "__main__":
    sys.exit(main())
