"""Golden realization digests: any change to the realized graphs fails here.

``schedule_hash`` hashes only the recipe of a generator-backed schedule
(family, params, seed), so a generator that changed its output would leave
every report's ``schedule`` column as it was. These digests hash the realized
edge arrays instead: their dtype, shape and bytes. A change that is meant to
alter the realizations re-pins the digests in the same change.
"""

import hashlib

import pytest

from dynwalks import constructions, graphs

# (builder, first T steps) per entry of constructions.GENERATOR_FAMILIES
SCHEDULES = {
    "expander_matching": (lambda: constructions.build_expander_matching(16, seed=3), 6),
    "random_regular_sequence": (
        lambda: constructions.build_random_regular_schedule(16, 4, seed=5), 20),
    "random_regular_sequence-connected": (
        lambda: constructions.build_random_regular_schedule(12, 3, seed=7, connected=True), 20),
    "torus_relabelled": (lambda: constructions.build_torus_schedule(2, 4, seed=2), 10),
    "nomixing": (lambda: constructions.build_nomixing(64, 4, seed=1), 6),
    "nohitting_doubled": (lambda: constructions.build_nohitting_doubled(8), 30),
}

GRAPHS = {
    "random_regular-n16-d4-s0": lambda: graphs.random_regular_graph(16, 4, 0),
    "random_regular-n33-d4-s1": lambda: graphs.random_regular_graph(33, 4, 1),
    "random_regular-n64-d3-s2": lambda: graphs.random_regular_graph(64, 3, 2),
    "random_regular-n10-d3-s3": lambda: graphs.random_regular_graph(10, 3, 3),
    "gnp_connected-n12-p0.3-s0": lambda: graphs.gnp_connected_graph(12, 0.3, 0),
    "gnp_connected-n40-p0.5-s[60,1]": lambda: graphs.gnp_connected_graph(40, 0.5, [60, 1]),
    "expander3-n16-s0": lambda: graphs.expander_graph(16, 0),
    "expander3-n48-s9": lambda: graphs.expander_graph(48, 9),
}

# computed before the 1-D edge-key rejection and dedupe landed in graphs.py
GOLDEN = {
    "expander_matching": "86d6a79b8a3bfaea51a4ae5e99839c6043a2b3a4c59578588a69db5650256798",
    "nohitting_doubled": "51e922c6337ef059dee0154d590e8d1a48b64c34855269b2aa516bf467efc298",
    "nomixing": "654c3d30114ae4bbcdf4ff6a41717fa8bb9430d661347855db8943f80f6c872f",
    "random_regular_sequence": "f3e5df9a0fc754ef4e7fe65827d1938b25c462af8538b91b00c9115466618ab3",
    "random_regular_sequence-connected": "bceca0d6d0576f70f7bae12189b30fef4c158683c325c30926853145964cfe73",
    "torus_relabelled": "8be996db0b63bb10bdb34d521dd1704977f599b6c36cf209509339b347f165fb",
    "expander3-n16-s0": "4037d7c98b2a49ea7cd6cf1f9cbc8cb6704a3a3d49b1ae38089575b8a3f38126",
    "expander3-n48-s9": "c9773f6c7659301225efa1e706256468433a48dfd7677b99a4ea17172ccbaa8d",
    "gnp_connected-n12-p0.3-s0": "64cb452332fd816d224a111902a8360c4f023caa26f29d03ea8ce473baf3bc20",
    "gnp_connected-n40-p0.5-s[60,1]": "25308e1193dbc1bf119903c28dac7a83c364754af617972b75aab738708b873e",
    "random_regular-n10-d3-s3": "9fd7c0ac022e439da6d5f4ee1be8abe4dcded96451e5a66f7a8252a0bddb9bbc",
    "random_regular-n16-d4-s0": "2b0c17e44291a1ec943a4c1c47f9fc20213b395f7ae30a5379619dbd8c8ecfc9",
    "random_regular-n33-d4-s1": "c4007d9f8d102a675c8289aa80176b2b71b845187a3ba2b55ac6e8e3abbb0d6e",
    "random_regular-n64-d3-s2": "3120ac1fbb079b9e49da13a099c2918f8697ea25321d40de053510f9ad7db328",
}


def _digest(gs) -> str:
    h = hashlib.sha256()
    for g in gs:
        e = g.edges
        h.update(f"{g.n}|{e.dtype.str}|{e.shape}|".encode())
        h.update(e.tobytes())
    return h.hexdigest()


def test_every_generator_family_is_pinned():
    pinned = {name.split("-")[0] for name in SCHEDULES}
    assert pinned == set(constructions.GENERATOR_FAMILIES)


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_schedule_realization_digest(name):
    build, T = SCHEDULES[name]
    s = build()
    assert s.kind == "generator"
    assert _digest(s.step(t) for t in range(1, T + 1)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_realization_digest(name):
    assert _digest([GRAPHS[name]()]) == GOLDEN[name]
