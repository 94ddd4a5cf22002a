"""Golden report digests: any change to a number a suite reports fails here.

Each of the 14 suites runs once at a small config, and the sha256 of its CSV
body (the report without the ``#`` header lines) is compared with a pinned
digest, as is the sha256 of the text ``summarize`` makes of all their rows.
A refactor or speed-up must keep every body byte-identical; a change that is
meant to move a reported number re-pins the digest in the same change and
says which rows moved and by how much.

The suites run in one child process with one BLAS thread: with two OpenBLAS
threads some eigenvalues differ in the last digits (circulant-connectivity at
its full size, up to 3e-15 relative), so a digest is only reproducible with
the thread count fixed.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import dynwalks

CONFIGS = {
    "eq-mihai": {"seeds": [0, 1, 2]},
    "lemma-imp": {"seeds": [0, 1, 2]},
    "thm-average": {},
    "lemma-inftoell2": {"seeds": list(range(20))},
    "cheeger-ballsize": {"seeds": list(range(20))},
    "worst-case": {"sizes": [16, 32], "trials": 200},
    "torus-scaling": {"sizes": [4, 8]},
    "counterexamples": {},
    "nomixing": {},
    "commute-bounds": {"seeds": list(range(10)), "sizes": [3, 4, 5, 6]},
    "connected-labelling": {},
    "eq-interesting": {},
    "circulant-connectivity": {"sizes": [32, 64]},
    "cover-hit-gap": {"trials": 50},
}

# computed before the walk-math representations were collapsed; commute-bounds
# and circulant-connectivity re-pinned when the commute solves moved to the
# Laplacian pseudo-inverse (last-digit changes, every row still passing).
# nomixing re-pinned when large sparse steps moved to CSR operators (n=1000:
# the sparse product sums in another order), four rows moving, all passing:
#   nomixing-growth active step 1 rhs  0.0014861111111111112 -> ...117  (+2.9e-16 rel)
#   nomixing-growth active step 2 rhs  0.002472800925925926  -> ...9265 (+1.8e-16 rel)
#   nomixing-growth active step 3 rhs  0.0036092785493827156 -> ...717  (+3.6e-16 rel)
#   nomixing-final-mass rhs as step 3, measured_c 0.18580680014264453 -> ...456 (+1.5e-16 rel)
# thm-average re-pinned when E_Pbar became the mean of the window's per-step
# edge forms instead of the dense form of the average matrix (the sum runs in
# another order): 35 of the 100 instances move, every row still passing:
#   thm-average lhs (E_Pbar / 15w), 25 rows, at most 4.1e-16 rel, and the
#     extra dirichlet_avg of all 35
#   thm-average-normalized rhs (E_Pbar), 35 rows, at most 4.4e-16 rel, e.g.
#     random-3-regular-n8 t1=2 w=2 start=6  0.2458847736625515 -> ...151
#   thm-average-normalized margin, 35 rows, at most 1.5e-15 rel
# worst-case and cover-hit-gap re-pinned when the Monte Carlo stream blocks
# went from 1,024 steps to 64 (new stop times), one row each, both passing:
#   worsthit-mc-cross (trials=200) mc_mean 22.755 -> 30.79, lhs 4.81 -> 3.22,
#     rhs (3 stderr) 5.37 -> 6.20
#   coverhit-ratio (trials=50) ratio 15.03 -> 29.84 (>= 12.8), cover_mean
#     3161.26 -> 6900.86, hit_mean 210.28 -> 231.24
# connected-labelling re-pinned when its greedy_rate extra was dropped (with one
# way left to find an ordering it could only read 1.0): all 146 rows lose
# their extra {"greedy_rate": 1.0}, and nothing else in them moves.
GOLDEN = {
    "cheeger-ballsize": "b458249a2295c0d76a3fd993b820b131502eae580a315d738270b6b0bc1e7121",
    "circulant-connectivity": "064a8b12898bac620f0b2f4bf115bd36319c88aacd13ae7e0bafaa76114d5666",
    "commute-bounds": "7e2d8488a04af31b1bfb2428523af9451379b9e3b247064f03dbe21aa6ee25ea",
    "connected-labelling": "935542bc0b85dc64dac8df6e186e0bc36b1200f2e098f93328077f531fa9199c",
    "counterexamples": "0441ca9718fa27ff148b1c0adc0ae92dd9f2c6d01e596c08db5593afff99d295",
    "cover-hit-gap": "fc288b9a58de498462a55b1f687f10770eef3c8ef9c2f4f6c82b9b45c491a4b7",
    "eq-interesting": "5f155972e845dfec4e6da1025fbc29ebcc09c05d641ef8ae4617e83d780302d1",
    "eq-mihai": "153e4abe65bc01a8082539de7b73f71c3973dde706f88a3b40532f681790f284",
    "lemma-imp": "d1844f66b1338e0634f1382e6f72dedb4cf79bdcccb26e4d380da4617f70cca4",
    "lemma-inftoell2": "2c4ec9c8de3dc46b6a59be2d3e1ba30f87de1d9821d7e1865da56e12de9b698d",
    "nomixing": "099a09e2507e5a1b69f15bc7711aac4fda96a5579d72aad5ce9dda63d3170cff",
    "thm-average": "d38908d5c50ef27f0e72c3eb67cb1e3492406536d814c46c98e385feea866845",
    "torus-scaling": "4c17d82a89f7bd46eede70cd5ad9386fca438a1cf9bbc0244ad8c4a619ab3d86",
    "worst-case": "eae7cda0c4e9ed52fcfa27f4ef2a3b06b81a4cdc882b6620286b26aeb2aeaec5",
}

# sha256 of the digest ``summarize`` prints over every suite's rows, in suite
# name order, as ``dynwalks suite all`` prints it; pinned from the file-based
# digest, which re-read each suite's CSV, before it was built from the rows in
# memory
GOLDEN_SUMMARY = "714ec1ebd916fab233db20d63efcec77950b576c10a3668b4ae3fc11cf25dfd4"

_CHILD = """
import hashlib, json, os, sys
from dynwalks.reporting import csv_body, summarize
from dynwalks.suites import ExperimentConfig, run_suite

configs, out_dir = json.loads(sys.argv[1]), sys.argv[2]
bodies, reports = {}, []
for name in sorted(configs):
    rows, path, _ = run_suite(ExperimentConfig(suite=name, **configs[name]),
                              out_path=os.path.join(out_dir, name + ".csv"))
    bodies[name] = hashlib.sha256(csv_body(path)).hexdigest()
    reports += rows
summary = hashlib.sha256(summarize(reports)[0].encode()).hexdigest()
print(json.dumps({"bodies": bodies, "summary": summary}))
"""


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dynwalks.__file__)))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out_dir = tmp_path_factory.mktemp("golden-reports")
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(CONFIGS), str(out_dir)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_suite_is_pinned():
    from dynwalks.suites import SUITES

    assert set(CONFIGS) == set(GOLDEN) == set(SUITES)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_body_digest(digests, name):
    assert digests["bodies"][name] == GOLDEN[name]


def test_summary_digest(digests):
    assert digests["summary"] == GOLDEN_SUMMARY
