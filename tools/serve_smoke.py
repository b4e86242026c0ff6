#!/usr/bin/env python3
"""End-to-end smoke test for the ``repro serve`` daemon.

CI's ``serve`` job runs this against the real process boundary -- not the
in-process :class:`~repro.server.QueryService` the unit tests use:

1. spawn ``python -m repro serve --port 0 --churn`` as a subprocess and
   parse the ephemeral port from its ``serving on http://...`` banner,
2. drive several concurrent paginating sessions (resume tokens, keep-alive
   connections) while the daemon's churn thread keeps checkpointing and
   compacting under them,
3. check the error surface (malformed resume token -> 400, never a 5xx),
4. time keep-alive round trips (``GET /health`` and a point ``POST /query``)
   and fail when the median reaches 20 ms -- half the kernel's 40 ms
   delayed-ACK timer, i.e. a constant of the failure being guarded against
   (a response that leaves in two sends), not of the machine,
5. send SIGTERM and require a graceful drain: exit code 0 and the
   ``drained`` banner.

Run with::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

SESSIONS = 4
PAGE_LIMIT = 40
STARTUP_TIMEOUT_S = 60
DRAIN_TIMEOUT_S = 60
ROUND_TRIPS = 40
#: Half the kernel's delayed-ACK timer: a split response costs 40 ms a round
#: trip everywhere, a whole one a millisecond or two even on a slow runner.
ROUND_TRIP_LIMIT_MS = 20.0


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def request(port: int, method: str, path: str, payload=None, conn=None):
    own = conn is None
    if own:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    body = json.dumps(payload) if payload is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body, headers)
    response = conn.getresponse()
    data = json.loads(response.read())
    if own:
        conn.close()
    return response.status, data


def check_keep_alive_round_trips(port: int) -> None:
    """Median keep-alive round trip per endpoint; fails at the limit."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    for method, path, payload in (("GET", "/health", None),
                                  ("POST", "/query", {"first_block": 0})):
        samples = []
        for _ in range(ROUND_TRIPS):
            start = time.perf_counter()
            status, _ = request(port, method, path, payload, conn=conn)
            samples.append((time.perf_counter() - start) * 1e3)
            if status != 200:
                fail(f"{method} {path} -> {status} while timing round trips")
        median = statistics.median(samples)
        print(f"  keep-alive {method} {path}: median {median:.2f} ms "
              f"over {ROUND_TRIPS} round trips")
        if median >= ROUND_TRIP_LIMIT_MS:
            fail(f"{method} {path} keep-alive round trip median {median:.1f} ms "
                 f">= {ROUND_TRIP_LIMIT_MS:.0f} ms: is the response leaving in "
                 f"more than one send?")
    conn.close()


def paginate(port: int, worker: int, errors):
    """One session: paginate a block range on a single keep-alive link."""
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        token, owners = None, 0
        while True:
            payload = {"first_block": 0, "num_blocks": 1 << 22,
                       "limit": PAGE_LIMIT + worker}
            if token:
                payload["resume_token"] = token
            status, page = request(port, "POST", "/query", payload, conn=conn)
            if status != 200:
                raise AssertionError(f"POST /query -> {status}: {page}")
            owners += page["count"]
            if page["exhausted"]:
                break
            token = page["resume_token"]
        conn.close()
        if owners == 0:
            raise AssertionError("session saw no owners at all")
        print(f"  session {worker}: {owners} owners")
    except Exception as exc:  # noqa: BLE001 - report, don't hang the join
        errors.append(f"session {worker}: {exc!r}")


def main() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.setdefault("PYTHONUNBUFFERED", "1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--churn",
         "--cps", "5", "--ops-per-cp", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    try:
        banner = None
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                fail(f"daemon exited early (rc={process.poll()})")
            match = re.search(r"serving on http://127\.0\.0\.1:(\d+)", line)
            if match:
                banner = line.strip()
                port = int(match.group(1))
                break
        if banner is None:
            fail("no 'serving on' banner within the startup timeout")
        print(banner)

        # Concurrent paginating sessions against the churning daemon.
        errors: list = []
        threads = [threading.Thread(target=paginate, args=(port, w, errors))
                   for w in range(SESSIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            fail("; ".join(errors))

        # Error surface: a mangled token is a clean 400, not a traceback.
        status, body = request(port, "POST", "/query",
                               {"resume_token": "bkq1.!!corrupt!!"})
        if status != 400 or "error" not in body:
            fail(f"bad token -> {status}: {body}")
        status, health = request(port, "GET", "/health")
        if status != 200 or health.get("status") != "ok":
            fail(f"health -> {status}: {health}")

        check_keep_alive_round_trips(port)

        # Graceful drain on SIGTERM.
        process.send_signal(signal.SIGTERM)
        try:
            remainder, _ = process.communicate(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("daemon did not drain within the timeout")
        if process.returncode != 0:
            fail(f"daemon exited {process.returncode}: {remainder}")
        if "drained (" not in remainder:
            fail(f"no 'drained' banner in output: {remainder!r}")
        print(remainder.strip())
        print("serve smoke: OK "
              f"({SESSIONS} concurrent sessions, graceful drain)")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    main()
