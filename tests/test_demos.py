"""Each demo script runs to completion in a fresh interpreter and prints the
pinned output: a change that moves a demo's output re-pins it here and says why."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(__file__).resolve().parents[1] / "src")

# sha256 of each demo's stdout with one BLAS thread; 04 re-pinned when its
# labelling line lost the "(found-greedy)" status, the only status left
STDOUT_SHA256 = {
    "01_mixing_on_changing_graphs.py":
        "ba4e2bca75928383d3649204cae24afa19242379acd62c6937e0ca949bdb275f",
    "02_worst_case_scaling.py":
        "a739777f66b07a5b1d0482c51fbc8609f397624f09839c40f45c3cfc6bcc8884",
    "03_adversarial_schedules.py":
        "caee2e99119f9453dc5e18c0fb2d25786f7a84658165aa8689b1a006cc486cd2",
    "04_commute_time_bounds.py":
        "f3d88f9dba001ae6a230887cb4489c88cc718dd155a89a5e94176ca500876c5f",
}


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4
    assert {d.name for d in DEMOS} == set(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name], \
        proc.stdout
