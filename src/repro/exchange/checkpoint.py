"""Crash-safe SA checkpointing: periodic atomic snapshots of a live anneal.

A checkpoint captures *everything* the annealer's future depends on —
the chain (:meth:`SAStats.to_json <repro.exchange.SAStats.to_json>`: the
complete ``random.Random`` Mersenne state, the accumulated temperature
float, the mid-step move index, every counter, the cost trace and the
best-so-far snapshot) with the kernel's slot lists and swap counter as
its ``state`` — so a resumed run replays the exact move sequence the uninterrupted run
would have executed: same accept/reject trace, same final assignment,
bit for bit.  ``repro.fuzz``'s ``checkpoint`` oracle enforces exactly
that equivalence on seeded random cases.

Writes are atomic and durable (temp file + fsync + ``os.replace`` + dir
fsync, the :mod:`repro.runtime.atomic` discipline), so a kill at any
instant leaves either the previous checkpoint or the new one, never a
torn file.  A checkpoint that *is* damaged anyway (disk corruption, a
foreign writer) is detected by its payload digest and schema stamp:
by default it is renamed aside to ``<path>.corrupt`` and the run
restarts from scratch — degraded, never crashed — while
``strict=True`` raises :class:`~repro.errors.CheckpointIntegrityError`
for callers that prefer a typed failure.  A checkpoint whose ``run_key``
does not match the requesting run (different seed, schedule, or
baseline) is simply treated as absent: resuming it would silently
answer a different question.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Optional

from ..errors import CheckpointIntegrityError
from ..runtime.atomic import atomic_write_text
from ..runtime.telemetry import get_telemetry

#: Bump when the checkpoint payload layout changes incompatibly.
CHECKPOINT_VERSION = 1


class SimulatedCrash(RuntimeError):
    """Raised by ``interrupt_after_saves`` to emulate dying mid-anneal.

    A test/fuzz knob only: the chaos harness and the ``checkpoint``
    fuzz oracle let the annealer run until the Nth checkpoint lands on
    disk, then kill it at the worst possible instant — right after a
    durable write, mid-step — and assert the resumed run is identical.
    """


def _payload_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SACheckpointer:
    """Periodic, atomic, digest-validated SA checkpoints at one path.

    ``interval`` is the cadence in proposed moves.  ``run_key`` names the
    run (seed + schedule + baseline); the exchanger derives one
    automatically when left ``None``.  ``capture``/``restore`` are bound
    by the problem layer (see :meth:`bind`) and move the *full* kernel
    state; best-so-far snapshots (plain int lists) are stored as they are.

    ``interrupt_after_saves=N`` raises :class:`SimulatedCrash` once the
    Nth save has durably landed — the fault-injection hook the fuzz
    oracle and chaos harness use.
    """

    def __init__(
        self,
        path,
        interval: int = 1000,
        run_key: Optional[str] = None,
        strict: bool = False,
        durable: bool = True,
        interrupt_after_saves: Optional[int] = None,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.path = Path(path).expanduser()
        self.interval = int(interval)
        self.run_key = run_key
        self.strict = bool(strict)
        self.durable = bool(durable)
        self.interrupt_after_saves = interrupt_after_saves
        self.saves = 0
        self.capture: Optional[Callable[[], dict]] = None
        self.restore: Optional[Callable[[dict], None]] = None

    def bind(
        self, capture: Callable[[], dict], restore: Callable[[dict], None]
    ) -> "SACheckpointer":
        """Attach the problem layer's state movers; returns self."""
        self.capture = capture
        self.restore = restore
        return self

    # -- persistence -------------------------------------------------------

    def save(self, payload: dict) -> None:
        """Atomically persist *payload*; counts saves and may simulate a
        crash right after the write lands (``interrupt_after_saves``)."""
        document = {
            "schema": CHECKPOINT_VERSION,
            "run_key": self.run_key,
            "digest": _payload_digest(payload),
            "payload": payload,
        }
        data = json.dumps(document, sort_keys=True)
        atomic_write_text(self.path, data, durable=self.durable)
        self.saves += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.count("checkpoint.saves")
            telemetry.emit(
                "checkpoint.saved",
                proposed=int(payload.get("proposed", 0)),
                bytes=len(data),
                path=str(self.path),
            )
        if (
            self.interrupt_after_saves is not None
            and self.saves >= self.interrupt_after_saves
        ):
            raise SimulatedCrash(
                f"simulated crash after checkpoint save #{self.saves}"
            )

    def load(self) -> Optional[dict]:
        """The validated checkpoint payload, or ``None`` to start fresh.

        Missing file and foreign ``run_key`` read as absent.  A corrupt
        file (unparseable, wrong schema, digest mismatch) is renamed
        aside to ``<path>.corrupt`` and read as absent — or raises
        :class:`CheckpointIntegrityError` under ``strict``.
        """
        try:
            raw = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            return self._reject(f"unreadable: {exc}")
        try:
            document = json.loads(raw)
            if not isinstance(document, dict):
                raise ValueError("checkpoint is not a JSON object")
        except ValueError as exc:
            return self._reject(f"unparseable: {exc}")
        if document.get("schema") != CHECKPOINT_VERSION:
            return self._reject(f"schema {document.get('schema')!r} unsupported")
        payload = document.get("payload")
        if not isinstance(payload, dict):
            return self._reject("missing payload")
        if document.get("digest") != _payload_digest(payload):
            return self._reject("payload digest mismatch")
        if self.run_key is not None and document.get("run_key") != self.run_key:
            # Another run's checkpoint, not damage: leave the file alone
            # (the next save overwrites it) and start this run fresh.
            return None
        return payload

    def _reject(self, reason: str) -> None:
        telemetry = get_telemetry()
        telemetry.count("checkpoint.invalid")
        telemetry.emit("checkpoint.invalid", reason=reason, path=str(self.path))
        if self.strict:
            raise CheckpointIntegrityError(
                f"checkpoint {self.path} is corrupt: {reason}"
            )
        aside = self.path.with_name(self.path.name + ".corrupt")
        try:
            os.replace(self.path, aside)
        except OSError:
            pass
        return None

    def clear(self) -> None:
        """Delete the checkpoint (a completed run leaves no stale state —
        resuming a *finished* anneal would append moves past the schedule)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - permission races
            pass
