#!/usr/bin/env python3
"""End-to-end smoke test for the sharded ``repro serve --shards N`` daemon.

CI's ``cluster`` job runs this against the real process boundaries -- the
HTTP client, the coordinator daemon, and its N spawned shard workers:

1. spawn ``python -m repro serve --shards 3 --port 0 --churn`` and parse
   both banners: ``cluster workers: <pid> <pid> <pid>`` and the ephemeral
   port from ``serving on http://...``,
2. drive concurrent paginating sessions (the coordinator mints the engine's
   own ``bkq1.`` resume tokens) while the churn thread keeps checkpointing
   the cluster,
3. check ``GET /stats`` reports the cluster section: 3 shards, a published
   consistency point, and the advertised worker pids,
4. SIGKILL one shard worker outright, then keep querying: the coordinator
   must revive the shard transparently (same answers surface, no error
   responses) and ``/stats`` must show a fresh pid in that slot,
5. time keep-alive round trips through HTTP, coordinator and workers
   (``serve_smoke.check_keep_alive_round_trips``: median >= 20 ms fails),
6. send SIGTERM and require a graceful drain: exit code 0 and the
   ``drained`` banner.

Run with::

    PYTHONPATH=src python tools/cluster_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from serve_smoke import check_keep_alive_round_trips

SHARDS = 3
SESSIONS = 3
PAGE_LIMIT = 40
STARTUP_TIMEOUT_S = 120
DRAIN_TIMEOUT_S = 60


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def request(port: int, method: str, path: str, payload=None, conn=None):
    own = conn is None
    if own:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    body = json.dumps(payload) if payload is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body, headers)
    response = conn.getresponse()
    data = json.loads(response.read())
    if own:
        conn.close()
    return response.status, data


def paginate(port: int, worker: int, errors, results=None):
    """One session: paginate the whole block range on a keep-alive link."""
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        token, owners, saw_token = None, 0, False
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
            saw_token = saw_token or (token or "").startswith("bkq1.")
        conn.close()
        if owners == 0:
            raise AssertionError("session saw no owners at all")
        if not saw_token:
            raise AssertionError("cluster pagination never issued a bkq1. token")
        if results is not None:
            results[worker] = owners
        print(f"  session {worker}: {owners} owners")
    except Exception as exc:  # noqa: BLE001 - report, don't hang the join
        errors.append(f"session {worker}: {exc!r}")


def cluster_stats(port: int) -> dict:
    status, stats = request(port, "GET", "/stats")
    if status != 200 or "cluster" not in stats:
        fail(f"GET /stats -> {status}: no cluster section ({stats})")
    return stats


def run_sessions(port: int, label: str) -> None:
    errors: list = []
    threads = [threading.Thread(target=paginate, args=(port, w, errors))
               for w in range(SESSIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        fail(f"{label}: " + "; ".join(errors))


def main() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.setdefault("PYTHONUNBUFFERED", "1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--shards", str(SHARDS),
         "--port", "0", "--churn", "--cps", "5", "--ops-per-cp", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    try:
        worker_pids, port, banner = None, None, None
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                fail(f"daemon exited early (rc={process.poll()})")
            pids = re.search(r"cluster workers:((?: \d+)+)", line)
            if pids:
                worker_pids = [int(pid) for pid in pids.group(1).split()]
                print(line.strip())
            match = re.search(r"serving on http://127\.0\.0\.1:(\d+)", line)
            if match:
                banner = line.strip()
                port = int(match.group(1))
                break
        if banner is None:
            fail("no 'serving on' banner within the startup timeout")
        if worker_pids is None or len(worker_pids) != SHARDS:
            fail(f"no 'cluster workers' banner for {SHARDS} shards "
                 f"(got {worker_pids})")
        print(banner)

        stats = cluster_stats(port)
        cluster = stats["cluster"]
        if cluster["num_shards"] != SHARDS:
            fail(f"/stats reports {cluster['num_shards']} shards")
        if cluster["committed_cp"] < 1:
            fail("no consistency point published before serving")
        if cluster["worker_pids"] != worker_pids:
            fail(f"/stats pids {cluster['worker_pids']} != banner {worker_pids}")
        if len(stats.get("shards", [])) != SHARDS:
            fail("/stats is missing the per-shard breakdown")

        run_sessions(port, "pre-kill sessions")

        # Kill one shard worker outright; the coordinator must revive it
        # behind the very next requests that touch its partitions.
        victim = worker_pids[1]
        os.kill(victim, signal.SIGKILL)
        print(f"  killed shard worker pid {victim}")
        run_sessions(port, "post-kill sessions")

        stats = cluster_stats(port)
        revived = stats["cluster"]["worker_pids"]
        if revived[1] == victim:
            fail(f"shard 1 still reports the killed pid {victim}")
        if len(revived) != SHARDS or revived[0] != worker_pids[0]:
            fail(f"unexpected worker set after revive: {revived}")
        print(f"  shard 1 revived as pid {revived[1]}")

        check_keep_alive_round_trips(port)

        # Graceful drain on SIGTERM -- with all shards back in service.
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
        print(f"cluster smoke: OK ({SHARDS} shard workers, {SESSIONS} "
              "concurrent sessions, worker kill + revive, graceful drain)")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    main()
