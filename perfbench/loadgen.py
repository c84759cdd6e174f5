"""Open-loop HTTP load generator for ``serve_mixed``.

Independent users make an open loop: every request has a due time fixed
in advance by the schedule, and is sent at that time whether or not
earlier ones have been answered.  Latency is timed from the due time, so
a stall also charges the wait it imposes on the requests queued behind
it.  One process, at most ``nproc`` keep-alive connections; a request
that finds every connection busy waits (that wait is the backlog).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Optional

#: Keys every served report carries (``repro.io.report_to_dict``).
REPORT_KEYS = {"check_id", "url", "domain", "day", "ts", "guard", "origin",
               "observations"}
OBSERVATION_KEYS = {"vantage", "country", "city", "ok"}
JOB_STATES = {"queued", "running", "done", "failed"}


@dataclass
class Request:
    due: float  # seconds after the phase start
    step: int  # index of the rate step the request belongs to
    method: str
    path: str
    body: Optional[dict] = None
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str = ""
    reply: Optional[dict] = None

    @property
    def kind(self) -> str:
        if self.path == "/checks":
            return "check"
        return "job" if self.path.startswith("/jobs/") else "health"


def validate(request: Request, status: int, data: bytes) -> str:
    """Empty string if the reply has the right status and schema."""
    if status != 200:
        return f"status {status}"
    try:
        reply = json.loads(data)
    except ValueError:
        return "malformed JSON"
    if not isinstance(reply, dict):
        return "reply is not an object"
    request.reply = reply
    kind = request.kind
    if kind == "check":
        if not REPORT_KEYS <= reply.keys():
            return f"report missing {sorted(REPORT_KEYS - reply.keys())}"
        observations = reply["observations"]
        if not observations or not all(
            isinstance(obs, dict) and OBSERVATION_KEYS <= obs.keys()
            for obs in observations
        ):
            return "malformed observations"
        if reply["domain"] != request.body["domain"]:
            return "report for the wrong domain"
    elif kind == "job":
        if reply.get("status") not in JOB_STATES or not isinstance(
            reply.get("checks", {}).get("done"), int
        ):
            return "malformed job status"
    elif reply.get("status") != "ok":
        return "health not ok"
    return ""


class OpenLoop:
    """Replays a schedule of :class:`Request` over ``connections`` sockets."""

    def __init__(self, port: int, connections: int, timeout: float) -> None:
        self.port = port
        self.connections = connections
        self.timeout = timeout

    def run(self, schedule: list[Request], until=None) -> list[Request]:
        """Send requests at their due times; returns the ones sent.

        Times recorded on each request are seconds after the phase start.
        ``until(request)`` is asked after every answer; once it says yes,
        no further request is sent.
        """
        cursor = iter(range(len(schedule)))
        lock = threading.Lock()
        stop = threading.Event()
        start = time.monotonic() + 0.05

        def worker() -> None:
            conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout
            )
            try:
                while not stop.is_set():
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    request = schedule[index]
                    delay = start + request.due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    request.sent = time.monotonic() - start
                    try:
                        body = (None if request.body is None
                                else json.dumps(request.body))
                        conn.request(request.method, request.path, body=body,
                                     headers={"Content-Type": "application/json"})
                        response = conn.getresponse()
                        data = response.read()
                        request.error = validate(request, response.status, data)
                    except (OSError, http.client.HTTPException) as exc:
                        request.error = f"{type(exc).__name__}: {exc}"
                        conn.close()
                        conn = http.client.HTTPConnection(
                            "127.0.0.1", self.port, timeout=self.timeout
                        )
                    request.done = time.monotonic() - start
                    request.ok = not request.error
                    if until is not None and until(request):
                        stop.set()
            finally:
                conn.close()

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [request for request in schedule if request.done]


def backlog_at(schedule: list[Request], t: float) -> int:
    """Requests due by ``t`` that had not been sent yet at ``t``."""
    return sum(1 for r in schedule if r.due <= t < r.sent)


def backlog_max(schedule: list[Request]) -> int:
    """The most requests due but not yet answered at any one time."""
    events = []
    for r in schedule:
        events.append((r.due, 1))
        events.append((r.done, -1))
    events.sort()
    current = peak = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak
