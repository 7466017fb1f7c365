"""Smoke-test the resident fleet service end to end.

Drives a real ``iotls serve`` subprocess the way CI (and a curious
operator) would:

1. start the server on an ephemeral-ish port with a fresh ledger,
2. ``POST /runs`` the same trace request twice and assert the cache
   contract: ``miss`` then ``hit``, byte-identical stream bodies, each
   framed by a ``Content-Length`` equal to the bytes received, equal
   manifest digests, and **zero** new warm-pool dispatches for the hit,
3. assert a distinct request misses (the cache is content-addressed,
   not request-order magic),
4. compare the served trace body byte for byte with what a one-shot
   serial ``iotls trace --stream-out`` writes for the same request: the
   server computes its misses on a warm worker pool, and the pool must
   be invisible in the bytes,
5. check the streamed body, the final ``GET /status`` document and the
   access log against their registered contracts
   (``iotls-trace-stream/1``, ``iotls-serve-status/1``,
   ``iotls-serve-access/1``) through the one contract checker,
   :func:`repro.telemetry.schemas.check_contract`,
6. shut the server down.  With ``--keep DIR`` the ledger, artifacts,
   access log and status document stay in DIR for artifact upload;
   otherwise they live in a temp dir that is deleted on success and
   kept, with its path printed, on failure.

Exit codes: 0 = contract holds, 1 = violation, 2 = environment failure
(server would not start).

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--port N] [--keep DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from repro.telemetry.schemas import (  # noqa: E402
    ACCESS_LOG_SCHEMA,
    STATUS_SCHEMA,
    TRACE_STREAM_SCHEMA,
    check_contract,
)

TRACE_REQUEST = {"command": "trace", "scale": 1, "seed": "serve-smoke"}
OTHER_REQUEST = {"command": "trace", "scale": 1, "seed": "serve-smoke-b"}


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
        return json.loads(response.read())


def post_run(base: str, body: dict) -> tuple[dict, bytes]:
    request = urllib.request.Request(
        f"{base}/runs",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=600) as response:
        return dict(response.headers), response.read()


def wait_healthy(base: str, server: subprocess.Popen, deadline: float) -> bool:
    """Poll ``/healthz`` until it answers ``ok``.  ``False`` as soon as
    ``server`` has exited, or once the monotonic ``deadline`` passes."""
    while time.monotonic() < deadline and server.poll() is None:
        try:
            healthy = get(base, "/healthz").get("status") == "ok"
        except (urllib.error.URLError, ConnectionError, OSError):
            healthy = False
        if healthy:
            return True
        time.sleep(0.2)
    return False


def smoke(workdir: Path, port: int, workers: int) -> int:
    """Run the round trip inside ``workdir``; the exit code of :func:`main`."""
    access_log = workdir / "access.jsonl"
    base = f"http://127.0.0.1:{port}"
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else str(src)
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(port),
            "--workers",
            str(workers),
            "--ledger",
            str(workdir / "ledger.jsonl"),
            "--artifact-dir",
            str(workdir / "artifacts"),
            "--access-log",
            str(access_log),
        ],
        env=env,
        cwd=workdir,
    )
    failures: list[str] = []
    try:
        if not wait_healthy(base, server, time.monotonic() + 60):
            exited = server.poll()
            reason = "never became healthy" if exited is None else f"exited {exited}"
            print(f"error: server {reason}", file=sys.stderr)
            return 2

        first_headers, first_body = post_run(base, TRACE_REQUEST)
        dispatches_after_miss = (get(base, "/status")["pool"] or {}).get("dispatches", 0)
        second_headers, second_body = post_run(base, TRACE_REQUEST)
        dispatches_after_hit = (get(base, "/status")["pool"] or {}).get("dispatches", 0)

        if first_headers.get("X-IoTLS-Cache") != "miss":
            failures.append(f"first request: cache {first_headers.get('X-IoTLS-Cache')!r}, expected 'miss'")
        if second_headers.get("X-IoTLS-Cache") != "hit":
            failures.append(f"second request: cache {second_headers.get('X-IoTLS-Cache')!r}, expected 'hit'")
        digest_a = first_headers.get("X-IoTLS-Manifest-Digest")
        digest_b = second_headers.get("X-IoTLS-Manifest-Digest")
        if not digest_a or digest_a != digest_b:
            failures.append(f"manifest digests differ across identical requests: {digest_a} vs {digest_b}")
        if first_body != second_body:
            failures.append("cached stream body differs from the computed one")
        for name, headers, body in (
            ("first", first_headers, first_body),
            ("second", second_headers, second_body),
        ):
            if headers.get("Content-Length") != str(len(body)):
                failures.append(
                    f"{name} request: Content-Length {headers.get('Content-Length')!r}, "
                    f"received {len(body)} bytes"
                )
        if dispatches_after_hit != dispatches_after_miss:
            failures.append(
                f"cache hit dispatched work: pool dispatches {dispatches_after_miss} "
                f"-> {dispatches_after_hit}"
            )

        distinct_headers, _ = post_run(base, OTHER_REQUEST)
        if distinct_headers.get("X-IoTLS-Cache") != "miss":
            failures.append("distinct request did not miss the cache")

        stream_path = workdir / "stream-body.jsonl"
        stream_path.write_bytes(first_body)
        one_shot = workdir / "one-shot.jsonl"
        subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "trace",
                "--scale", str(TRACE_REQUEST["scale"]), "--seed", TRACE_REQUEST["seed"],
                "--stream-out", str(one_shot), "--no-ledger",
            ],
            env=env, cwd=workdir, check=True, stdout=subprocess.DEVNULL,
        )
        if one_shot.read_bytes() != first_body:
            failures.append(
                f"served trace body differs from `iotls trace --stream-out` ({one_shot})"
            )
        for problem in check_contract(stream_path, TRACE_STREAM_SCHEMA):
            failures.append(f"trace stream: {problem}")

        status = get(base, "/status")
        status_path = workdir / "status.json"
        status_path.write_text(json.dumps(status, sort_keys=True) + "\n")
        for problem in check_contract(status_path, STATUS_SCHEMA):
            failures.append(f"status: {problem}")
        print(
            "serve smoke:",
            json.dumps({"cache": status["cache"], "pool": status["pool"], "resident": status["resident"]}),
        )
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()

    for problem in check_contract(access_log, ACCESS_LOG_SCHEMA):
        failures.append(f"access log: {problem}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve smoke ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=8753)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--keep",
        metavar="DIR",
        help="run inside DIR and keep ledger/artifacts/access log "
        "(default: a temp dir, deleted on success)",
    )
    args = parser.parse_args()

    workdir = Path(args.keep) if args.keep else Path(tempfile.mkdtemp(prefix="iotls-serve-"))
    workdir.mkdir(parents=True, exist_ok=True)
    status = 1
    try:
        status = smoke(workdir, args.port, args.workers)
    finally:
        if status != 0:
            print(f"work directory kept: {workdir}", file=sys.stderr)
        elif not args.keep:
            shutil.rmtree(workdir)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
