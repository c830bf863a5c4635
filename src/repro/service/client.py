"""Blocking client of the analysis service — ``repro submit`` & friends.

Each request opens a fresh TCP connection, writes one protocol line and
reads one response; :meth:`ServiceClient.stream` instead dedicates its
connection to a job's event feed.  Stdlib sockets only, so scripts and
CI can talk to a ``repro serve`` instance without any dependency.
"""

from __future__ import annotations

import contextlib
import socket
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.service import protocol


class ServiceError(RuntimeError):
    """A structured server-side rejection or failure."""

    def __init__(self, code: str, detail: str = "",
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail
        self.retry_after = retry_after


class ServiceUnavailable(ServiceError):
    """The service endpoint refused the connection / is unreachable."""

    def __init__(self, detail: str) -> None:
        super().__init__("unavailable", detail)


class ServiceClient:
    """Thin blocking wrapper over the line-delimited-JSON protocol."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float = 300.0,
                 client_id: str = "cli") -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client_id = client_id

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def _connection(self):
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        except OSError as exc:
            raise ServiceUnavailable(
                f"cannot reach {self.host}:{self.port} ({exc})") from exc
        try:
            yield sock
        finally:
            with contextlib.suppress(OSError):
                sock.close()

    @staticmethod
    def _read_line(stream) -> Dict[str, Any]:
        line = stream.readline(protocol.MAX_LINE_BYTES + 1)
        if not line:
            raise ServiceUnavailable("connection closed by server")
        if len(line) > protocol.MAX_LINE_BYTES:
            raise ServiceError(protocol.ERR_BAD_REQUEST,
                               "oversized response line")
        return protocol.decode(line)

    @staticmethod
    def _check(response: Dict[str, Any]) -> Dict[str, Any]:
        if not response.get("ok", False):
            raise ServiceError(response.get("error", protocol.ERR_INTERNAL),
                               response.get("detail", ""),
                               retry_after=response.get("retry_after"))
        return response

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One request/response exchange; raises :class:`ServiceError` on
        ``ok: false``."""
        payload = {"op": op}
        payload.update(fields)
        with self._connection() as sock:
            try:
                sock.sendall(protocol.encode(payload))
                with sock.makefile("rb") as stream:
                    line = self._read_line(stream)
            except ConnectionError as exc:
                # A listener closing mid-handshake (shutdown) resets the
                # connections still in its accept backlog.
                raise ServiceUnavailable(
                    f"connection to {self.host}:{self.port} reset "
                    f"({exc})") from exc
        return self._check(line)

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def submit(self, kind: str, spec: Dict[str, Any],
               client: Optional[str] = None) -> Dict[str, Any]:
        """Submit a job; returns its status payload (``id``, ``state``...)."""
        response = self.request("submit", kind=kind, spec=spec,
                                client=client or self.client_id)
        return response["job"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.request("status", job_id=job_id)["job"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self.request("jobs")["jobs"]

    def result(self, job_id: str) -> Dict[str, Any]:
        """Terminal job's full response ({"job": ..., "result": ...})."""
        return self.request("result", job_id=job_id)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request("cancel", job_id=job_id)["job"]

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")["stats"]

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return self.request("shutdown", drain=drain)

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield the job's events (history + live) through ``done``."""
        with self._connection() as sock:
            sock.sendall(protocol.encode({"op": "stream", "job_id": job_id}))
            with sock.makefile("rb") as stream:
                self._check(self._read_line(stream))  # stream acknowledged
                while True:
                    event = self._read_line(stream)
                    yield event
                    if event.get("event") == "done":
                        return

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #
    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll: float = 0.2) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final status."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s")
            time.sleep(poll)

    def submit_with_retry(self, kind: str, spec: Dict[str, Any], *,
                          attempts: int = 5,
                          client: Optional[str] = None) -> Dict[str, Any]:
        """Submit, honouring backpressure: sleeps out ``retry_after`` on
        queue-full/quota rejections before retrying."""
        last: Optional[ServiceError] = None
        for _ in range(attempts):
            try:
                return self.submit(kind, spec, client=client)
            except ServiceError as exc:
                if exc.code not in (protocol.ERR_QUEUE_FULL,
                                    protocol.ERR_QUOTA_EXCEEDED):
                    raise
                last = exc
                time.sleep(min(exc.retry_after or 0.2, 5.0))
        raise last
