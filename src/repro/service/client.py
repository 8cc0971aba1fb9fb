"""Minimal stdlib HTTP client for the allocation service.

Wraps ``urllib.request`` so scripts, the CLI and the smoke check
talk to the server the same way.  Raises :class:`ServiceError` for any
non-2xx response, carrying the decoded error payload.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError


class ServiceError(ReproError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        self.status = status
        self.payload = payload
        super().__init__(f"HTTP {status}: "
                         f"{payload.get('error', payload)}")


class ServiceClient:
    """Talk to one service instance at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 630.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------ plumbing

    def _call(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) \
            -> Tuple[int, Dict[str, Any]]:
        url = self.base_url + path
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"}
            if data is not None else {})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
                return response.status, payload
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except ValueError:
                payload = {"error": str(exc)}
            return exc.code, payload

    def _expect_2xx(self, status: int,
                    payload: Dict[str, Any]) -> Dict[str, Any]:
        if status // 100 != 2:
            raise ServiceError(status, payload)
        return payload

    # ------------------------------------------------------------ endpoints

    def allocate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Synchronous ``POST /allocate`` (holds until done/degraded)."""
        return self._expect_2xx(*self._call("POST", "/allocate", request))

    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Async submission; returns the job-ID envelope immediately."""
        body = dict(request)
        body["async"] = True
        return self._expect_2xx(*self._call("POST", "/allocate", body))

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._expect_2xx(*self._call("GET", f"/jobs/{job_id}"))

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._expect_2xx(
            *self._call("POST", f"/jobs/{job_id}/cancel"))

    def healthz(self) -> Dict[str, Any]:
        return self._expect_2xx(*self._call("GET", "/healthz"))

    def metricsz(self, condensed: bool = False) -> Dict[str, Any]:
        path = "/metricsz?report=1" if condensed else "/metricsz"
        return self._expect_2xx(*self._call("GET", path))

    def wait(self, job_id: str, timeout: float = 600.0,
             poll_s: float = 0.2) -> Dict[str, Any]:
        """Poll ``GET /jobs/<id>`` until it leaves queued/running."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            if payload.get("status") not in ("queued", "running"):
                return payload
            if time.monotonic() >= deadline:
                raise ServiceError(408, {"error": f"job {job_id} still "
                                         f"{payload.get('status')} after "
                                         f"{timeout}s"})
            time.sleep(poll_s)

    def wait_until_healthy(self, timeout: float = 10.0,
                           poll_s: float = 0.1) -> Dict[str, Any]:
        """Spin until ``/healthz`` answers (server start-up grace)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except (ServiceError, OSError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll_s)
