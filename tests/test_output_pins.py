"""Run outputs are pinned next to the package version.

The serve result cache keys every run by ``config_digest(command,
params, __version__)``, so a change that moves an output must also bump
``repro.__version__``, or a host's ledger keeps serving the old output
as a cache hit.  These pins make such a move fail here: a change that
moves an output on purpose bumps the version and adds that version's
pins; one that moves nothing leaves both alone.

Each pin is what the CLI prints or writes, run in a fresh process.  A
run empties the telemetry registry before it starts, so the same run
after another in one process records the same manifest (the last test
holds that for ``audit_telemetry``):

* ``trace``: the manifest digest of ``iotls trace --scale 1``.  A plain
  manifest carries no artifact and no counters, so this pins the
  version, catalog and config; the next pin pins the trace's content.
* ``trace_telemetry``: the manifest digest of ``iotls trace --scale 1
  --telemetry``, whose counters hold the flow and handshake counts.
* ``audit_json``: the blake2s-128 of the ``iotls audit --json`` document.
* ``audit_telemetry``: the manifest digest of ``iotls audit --json
  campaign.json --telemetry`` (the manifest names the document by its
  basename; CI's "Run manifest and metrics snapshot" step runs the same
  command and uploads both files).
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

#: Version -> the outputs it produces.
PINS = {
    "1.1.0": {
        "trace": "94cefb44faebfb81de96bf4f9e51b14d",
        "trace_telemetry": "cc77ca94905b410619d63d581cf5b0f6",
        "audit_json": "08101316967575b302076d25d467b116",
        "audit_telemetry": "12d2e2e873eb9a3befe67faeda844414",
    },
}


def _manifest_digest(cwd: Path, *args: str) -> str:
    """Run ``iotls ARGS --no-ledger`` in a fresh process; its manifest digest."""
    src = Path(repro.__file__).resolve().parents[1]
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args, "--no-ledger"],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    return re.search(r"run manifest digest: (\w+)", completed.stdout).group(1)


def test_this_version_has_pins():
    assert repro.__version__ in PINS, (
        f"outputs of {repro.__version__} are unpinned: record them in PINS"
    )


def test_trace_manifests_are_pinned(tmp_path):
    pins = PINS[repro.__version__]
    assert _manifest_digest(tmp_path, "trace", "--scale", "1") == pins["trace"]
    assert (
        _manifest_digest(tmp_path, "trace", "--scale", "1", "--telemetry")
        == pins["trace_telemetry"]
    )


def test_audit_document_and_telemetry_manifest_are_pinned(tmp_path):
    pins = PINS[repro.__version__]
    digest = _manifest_digest(tmp_path, "audit", "--json", "campaign.json", "--telemetry")
    document = hashlib.blake2s((tmp_path / "campaign.json").read_bytes(), digest_size=16)
    assert document.hexdigest() == pins["audit_json"]
    assert digest == pins["audit_telemetry"]


def test_a_run_earlier_in_the_process_leaves_no_counter_behind(tmp_path):
    from repro import api, telemetry

    try:
        api.run_trace(api.RunConfig(scale=1, telemetry=True, stream=True, ledger=None))
        audit = api.run_audit(
            api.RunConfig(telemetry=True, ledger=None),
            json_path=tmp_path / "campaign.json",
        )
    finally:
        telemetry.configure(enabled=False)
    assert audit.manifest_digest == PINS[repro.__version__]["audit_telemetry"]
