"""A fresh server's first requests: no lazy imports, no 503 race.

Runs in a fresh interpreter, so nothing an earlier test imported can
hide an import that a request thread would otherwise do.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: One first submission per request path: every analysis, and named,
#: Python-file, C-file and constraint targets.
PAYLOADS = [
    {"analysis": "boundary", "target": "fig2"},
    {"analysis": "path", "target": "sec51-gh"},
    {"analysis": "overflow", "target": "examples/python_targets.py::fig2"},
    {"analysis": "coverage", "target": "examples/c/fig.c::fig2"},
    {"analysis": "inconsistency", "target": "gsl-hyperg"},
    {"analysis": "sat", "target": "x > 1.0 && x < 2.0"},
    {"analysis": "coverage", "target": "fig2"},
    {"analysis": "boundary", "target": "gsl-bessel"},
]

SCRIPT = r"""
import importlib.abc, json, sys, tempfile, threading
from repro.serve import ReproServer, ServeClient, ServeConfig, ServeError

payloads = json.loads(sys.argv[1])
root = sys.argv[2]
imports = []


class Recorder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        imports.append((threading.current_thread().name, name))
        return None


store = tempfile.mkdtemp()
config = ServeConfig(port=0, n_workers=1, store_dir=store + "/store")
with ReproServer(config).start() as server:
    sys.meta_path.insert(0, Recorder())
    barrier = threading.Barrier(len(payloads))
    outcomes = [None] * len(payloads)

    def submit(i, payload):
        payload = dict(payload, seed=7, smoke=True)
        if payload["target"].startswith("examples/"):
            payload["target"] = root + "/" + payload["target"]
        client = ServeClient(server.url)
        barrier.wait()
        try:
            job = client.submit(payload)
        except ServeError as exc:
            outcomes[i] = {"status": exc.status, "message": exc.message}
            return
        final = client.wait(job["id"], timeout=120)
        outcomes[i] = {"status": 202, "state": final["state"]}

    threads = [
        threading.Thread(target=submit, args=(i, p))
        for i, p in enumerate(payloads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150)
request_imports = sorted(
    {name for thread, name in imports if "process_request" in thread}
)
print(json.dumps({"outcomes": outcomes, "request_imports": request_imports}))
"""


@pytest.fixture(scope="module")
def first_requests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(PAYLOADS), str(ROOT)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_concurrent_first_submissions_are_all_accepted(first_requests):
    outcomes = first_requests["outcomes"]
    assert len(outcomes) == len(PAYLOADS)
    for payload, outcome in zip(PAYLOADS, outcomes):
        assert outcome == {"status": 202, "state": "done"}, (payload, outcome)


def test_request_threads_import_nothing(first_requests):
    assert first_requests["request_imports"] == []
