"""The serve leg of a traced run: a workload's cells replayed through
``repro serve``.

One daemon (``--workers 2``, memory-only cache) receives every compiled
cell of the workload as ``.real`` text, in two waves.  The first wave
compiles each cell once (cache misses); the second sends the same
requests again, which the cache must answer.  Each wave is a closed
loop of two sender threads, one connection per request as the
program's own ``ServeClient`` does, so at most two connections are
open.  The daemon is stopped with SIGTERM, which drains.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

CONNECTIONS = 2
DAEMON_WORKERS = 2


def start_daemon(root: str, timeout: float = 60.0) -> Tuple[subprocess.Popen, int]:
    """Start ``repro serve`` on an ephemeral loopback port and wait
    until ``/healthz`` answers; return the process and its port."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(DAEMON_WORKERS), "--quiet",
        ],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        line = proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"daemon did not announce a port: {line!r}")
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = time.perf_counter() + timeout
        while True:
            try:
                status, _ = request(port, "GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon /healthz did not answer")
            time.sleep(0.005)
    except BaseException:
        stop_daemon(proc)
        raise
    return proc, port


def stop_daemon(proc: subprocess.Popen) -> None:
    """SIGTERM (the daemon drains), then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def request(port: int, method: str, path: str, body: Optional[bytes] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def body_of(cell, verify) -> bytes:
    """One compile request, with the options the timed run passed to
    ``compile_circuit``."""
    return json.dumps(
        {
            "circuit": cell.source.real,
            "format": "real",
            "device": cell.device,
            "name": cell.source.name,
            "options": {"route": cell.route, "verify": verify},
        }
    ).encode()


def wave(port: int, cells, verify) -> List[Dict]:
    """Send one request per cell over :data:`CONNECTIONS` connections,
    as fast as answers come back; one record per request (cell, sent,
    answered, status, response body)."""
    records: List[Dict] = [None] * len(cells)
    bodies = [body_of(cell, verify) for cell in cells]
    cursor = {"next": 0}
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(cells):
                    return
                cursor["next"] = index + 1
            sent = time.perf_counter()
            try:
                status, payload = request(port, "POST", "/compile", bodies[index])
            except (OSError, http.client.HTTPException) as error:
                payload, status = repr(error).encode(), -1
            records[index] = {
                "cell": cells[index],
                "sent": sent,
                "answered": time.perf_counter(),
                "status": status,
                "body": payload,
            }

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records
