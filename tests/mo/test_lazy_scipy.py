"""SciPy loads only for what needs it: the ``differential_evolution``
and ``powell`` backends and the ``gsl-airy`` port.

Checked in a fresh interpreter, since the test session itself imports
SciPy (parity references, ``scipy.special`` oracles).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = r"""
import sys

import repro, repro.api, repro.cli, repro.scan, repro.serve
from repro.mo import BasinhoppingBackend, Objective
from repro.programs import get_program, list_programs
from repro.util.rng import make_rng

for name in list_programs():
    if name != "gsl-airy":
        get_program(name)
objective = Objective(lambda x: abs(x[0] - 2.0), n_dims=1)
BasinhoppingBackend(niter=5).minimize(objective, (9.0,), make_rng(1))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _loaded_scipy_modules(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_resolve_and_basinhopping_load_no_scipy():
    assert _loaded_scipy_modules(SCRIPT) == "[]"


def test_airy_port_still_loads_scipy_on_demand():
    script = (
        "import sys\n"
        "from repro.gsl import airy\n"
        "airy.make_program()\n"
        "print(['scipy.special'] if 'scipy.special' in sys.modules else [])\n"
    )
    assert _loaded_scipy_modules(script) == "['scipy.special']"
