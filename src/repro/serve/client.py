"""A stdlib HTTP client for the co-design daemon.

Used by the smoke harness, the serve fuzz oracle and the benchmark —
anything in-repo that talks to a running daemon.  It is deliberately thin:
one :class:`http.client.HTTPConnection` per call (the daemon supports
keep-alive, but independent connections keep concurrent benchmark threads
trivial), JSON in/out, and a generator for the SSE stream.

Robustness knobs (all off by default so tests asserting on 429/503 see
the raw response):

- ``connect_timeout`` / ``timeout`` — separate bounds on establishing the
  TCP connection and on each read of an established one.
- ``retries`` — transport errors (refused/reset/timed-out connections)
  and retryable statuses (429 overloaded, 503 draining) are retried up to
  this many times with exponential backoff and full jitter; a
  ``Retry-After`` header, when the daemon sends one, overrides the
  computed delay.
"""

from __future__ import annotations

import datetime
import email.utils
import http.client
import json
import math
import random
import time
from typing import Iterator, Optional, Tuple

from ..errors import ReproError
from .wire import WIRE_SCHEMA_VERSION

#: HTTP statuses worth retrying: the daemon sheds load (429) or is
#: draining (503); both are transient from the client's point of view.
RETRYABLE_STATUSES = (429, 503)


class ServeClientError(ReproError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, body: dict) -> None:
        self.status = status
        self.body = body
        error = body.get("error", {}) if isinstance(body, dict) else {}
        super().__init__(
            f"HTTP {status}: {error.get('code', 'error')}: "
            f"{error.get('message', body)}"
        )


class ServeClient:
    """Talk to one daemon at ``(host, port)``.

    ``retries=0`` (the default) behaves exactly like a bare request:
    transport errors propagate and every status returns as-is.  With
    ``retries=N``, transport errors and 429/503 responses are retried up
    to N times; each wait is ``backoff * 2**attempt`` capped at
    ``max_backoff`` and scaled by a uniform jitter draw (full jitter —
    N clients hammered off one daemon don't re-arrive in lockstep),
    unless the response named its own ``Retry-After``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout: float = 60.0,
        connect_timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.1,
        max_backoff: float = 5.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        #: Read timeout: each socket read of an established connection.
        self.timeout = timeout
        #: Connect timeout (defaults to the read timeout).
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self._rng = rng or random.Random()

    # -- plumbing ----------------------------------------------------------

    def _connect(self, timeout: Optional[float] = None) -> http.client.HTTPConnection:
        """An established connection: connect under ``connect_timeout``,
        then rebind the socket to the (possibly longer) read timeout."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout
        )
        try:
            connection.connect()
            read_timeout = timeout if timeout is not None else self.timeout
            if connection.sock is not None:
                connection.sock.settimeout(read_timeout)
        except Exception:
            connection.close()
            raise
        return connection

    def _delay(self, attempt: int, retry_after: Optional[float] = None) -> float:
        if retry_after is not None:
            return max(0.0, min(retry_after, self.max_backoff))
        ceiling = min(self.max_backoff, self.backoff * (2 ** attempt))
        return ceiling * self._rng.random()

    def _request_once(
        self, method: str, path: str, payload: Optional[dict]
    ) -> Tuple[int, dict, dict]:
        connection = self._connect()
        try:
            body = (
                json.dumps(payload).encode("utf-8")
                if payload is not None
                else None
            )
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw) if raw else {}
            except ValueError:
                decoded = {"error": {"code": "bad-response",
                                     "message": raw.decode("utf-8", "replace")}}
            response_headers = {
                key.lower(): value for key, value in response.getheaders()
            }
            return response.status, decoded, response_headers
        finally:
            connection.close()

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> Tuple[int, dict]:
        attempts = self.retries + 1
        for attempt in range(attempts):
            final = attempt + 1 >= attempts
            try:
                status, decoded, headers = self._request_once(
                    method, path, payload
                )
            except (OSError, http.client.HTTPException):
                # Connection refused/reset/timed out: the daemon may be
                # restarting; back off and retry unless out of budget.
                if final:
                    raise
                time.sleep(self._delay(attempt))
                continue
            if status in RETRYABLE_STATUSES and not final:
                time.sleep(
                    self._delay(attempt, _parse_retry_after(headers))
                )
                continue
            return status, decoded
        raise AssertionError("unreachable: retry loop exhausted silently")

    # -- endpoints ---------------------------------------------------------

    def submit(self, kind: str, params: Optional[dict] = None,
               seed: Optional[int] = None, wait: bool = True,
               timeout: Optional[float] = None,
               raise_on_error: bool = True) -> Tuple[int, dict]:
        """POST one job; returns ``(http_status, envelope)``.

        ``raise_on_error=True`` (the default) turns 4xx/5xx responses into
        :class:`ServeClientError`; 200 (settled) and 202 (accepted, still
        running) both return normally.
        """
        payload = {
            "schema": WIRE_SCHEMA_VERSION,
            "kind": kind,
            "params": params or {},
            "wait": wait,
        }
        if seed is not None:
            payload["seed"] = seed
        if timeout is not None:
            payload["timeout"] = timeout
        status, body = self._request("POST", "/v1/jobs", payload)
        if raise_on_error and status >= 400:
            raise ServeClientError(status, body)
        return status, body

    def status(self, digest: str) -> Tuple[int, dict]:
        return self._request("GET", f"/v1/jobs/{digest}")

    def health(self) -> dict:
        status, body = self._request("GET", "/healthz")
        if status != 200:
            raise ServeClientError(status, body)
        return body

    def schema(self) -> dict:
        status, body = self._request("GET", "/v1/schema")
        if status != 200:
            raise ServeClientError(status, body)
        return body

    def stats(self) -> dict:
        """The live metric aggregate as JSON (``GET /v1/stats``)."""
        status, body = self._request("GET", "/v1/stats")
        if status != 200:
            raise ServeClientError(status, body)
        return body

    def events(self, digest: str,
               timeout: Optional[float] = None,
               last_event_id: Optional[int] = None,
               with_ids: bool = False) -> Iterator[Tuple]:
        """Stream a job's SSE events as ``(event_name, payload)`` pairs.

        ``last_event_id`` resumes a broken stream: the daemon replays only
        buffered events with id > ``last_event_id``.  ``with_ids=True``
        yields ``(event_id, event_name, payload)`` triples instead (the id
        is ``None`` for synthetic events like the terminal
        ``serve.result``) so a caller can remember where it got to.

        The stream ends when the daemon closes it (after the terminal
        ``serve.result`` event) or the socket times out.
        """
        connection = self._connect(timeout=timeout)
        try:
            headers = {}
            if last_event_id is not None:
                headers["Last-Event-ID"] = str(last_event_id)
            connection.request(
                "GET", f"/v1/jobs/{digest}/events", headers=headers
            )
            response = connection.getresponse()
            if response.status != 200:
                raw = response.read()
                try:
                    body = json.loads(raw)
                except ValueError:
                    body = {}
                raise ServeClientError(response.status, body)
            name, data, event_id = "message", [], None
            for raw_line in response:
                line = raw_line.decode("utf-8").rstrip("\n")
                if line.startswith("id:"):
                    try:
                        event_id = int(line[len("id:"):].strip())
                    except ValueError:
                        event_id = None
                elif line.startswith("event:"):
                    name = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data.append(line[len("data:"):].strip())
                elif line == "" and data:
                    try:
                        payload = json.loads("\n".join(data))
                    except ValueError:
                        payload = {"raw": "\n".join(data)}
                    if with_ids:
                        yield event_id, name, payload
                    else:
                        yield name, payload
                    name, data, event_id = "message", [], None
        finally:
            connection.close()


def _parse_retry_after(headers: dict) -> Optional[float]:
    """The ``Retry-After`` header in seconds, or ``None``.

    RFC 9110 allows both forms: delta-seconds (``"3"``) and an HTTP-date
    (``"Wed, 21 Oct 2015 07:28:00 GMT"``).  A date in the past clamps to
    zero.  Anything else — garbage, non-finite numbers — yields ``None``
    so the caller falls back to its jittered backoff instead of raising
    mid-retry.
    """
    raw = headers.get("retry-after")
    if raw is None:
        return None
    text = raw.strip() if isinstance(raw, str) else raw
    try:
        seconds = float(text)
    except (TypeError, ValueError):
        pass
    else:
        # float() happily parses "nan"/"inf"; neither is a usable delay.
        return max(0.0, seconds) if math.isfinite(seconds) else None
    if not isinstance(text, str):
        return None
    try:
        when = email.utils.parsedate_to_datetime(text)
    except (TypeError, ValueError):
        return None
    if when is None:
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=datetime.timezone.utc)
    now = datetime.datetime.now(datetime.timezone.utc)
    return max(0.0, (when - now).total_seconds())
