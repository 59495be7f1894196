"""The process heap policy belongs to ``python -m repro`` alone.

``repro/__main__.py`` freezes the start-up heap and raises the collector's
young-generation threshold (``docs/architecture.md``, *Process heap
policy*).  Library use -- importing :mod:`repro.cli`, calling
:func:`repro.cli.main` in-process, embedding the daemon -- leaves ``gc`` as
the host process set it; a daemon started through the entry point reports
the policy in its ``stats``.
"""

import gc
import importlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.service import ServiceClient

SRC = str(Path(repro.__file__).resolve().parent.parent)


@pytest.fixture
def collector_state():
    return gc.get_threshold(), gc.get_freeze_count()


def test_in_process_cli_leaves_the_collector_alone(collector_state, capsys):
    importlib.import_module("repro.__main__")  # imported, not run as __main__
    assert cli.main(["list-programs"]) == 0
    assert "gr" in capsys.readouterr().out
    assert (gc.get_threshold(), gc.get_freeze_count()) == collector_state


def test_entry_point_daemon_reports_the_heap_policy(tmp_path):
    from repro.__main__ import GEN0_THRESHOLD

    socket_path = tmp_path / "policy.sock"
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [part for part in [environment.get("PYTHONPATH")] if part]
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(socket_path)],
        env=environment,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        while not socket_path.exists():
            assert process.poll() is None, process.stderr.read().decode()
            assert time.monotonic() < deadline, "daemon did not come up"
            time.sleep(0.05)
        with ServiceClient(socket_path) as client:
            stats = client.call("stats")["gc"]
            client.call("shutdown")
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stderr.close()
    assert stats["frozen"] > 0
    assert stats["threshold"][0] == GEN0_THRESHOLD
