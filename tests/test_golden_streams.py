"""Golden Monte Carlo stop-time digests: any change to a trial's stream fails here.

Each trial draws from its own ``SeedSequence(seed).spawn`` child, one block
per 64 steps (64 coins, then 64 picks), so its stop times are a function of
the seed alone.  These
digests hash ``times`` (dtype, shape and bytes) for fixed seeds on the
complete-then-cycle schedule and on a generator-backed schedule.  A change
that is meant to alter the streams re-pins them in the same change.
"""

import hashlib

import pytest

from dynwalks import constructions, walks

CASES = {
    "ctc128-hit4-2500": (lambda: constructions.build_complete_then_cycle(128),
                         dict(seed=1201, trials=2500, stop=("hit", (64, 65, 66, 67)),
                              horizon=400_000)),
    "ctc128-cover-320": (lambda: constructions.build_complete_then_cycle(128),
                         dict(seed=1202, trials=320, stop=("cover",), horizon=400_000)),
    "rr16-hit-50": (lambda: constructions.build_random_regular_schedule(16, 4, seed=7,
                                                                        connected=True),
                    dict(seed=1203, trials=50, stop=("hit", 9), horizon=100_000)),
    # a seed of five 32-bit words: its pool mixes in an extra word before the trial's
    "ctc128-hit4-700-wideseed": (lambda: constructions.build_complete_then_cycle(128),
                                 dict(seed=2**130 + 1204, trials=700,
                                      stop=("hit", (64, 65, 66, 67)), horizon=400_000)),
}

# computed with the one-trial-at-a-time oracle of tests/test_walks.py
# (monte_carlo_one_at_a_time), not with the library, when blocks went from
# 1,024 steps to 64; the wide-seed case with the same oracle, before the
# trials' seeds were hashed in one vectorized pass
GOLDEN = {
    "ctc128-cover-320": "82c1e31bb155404d16e837e88ad283ec4c48d4880757821c53e043f7386ce86b",
    "ctc128-hit4-2500": "03afe3e11db43a136b98ca3a09612d5af858e32a70590c8bc669063ab02a8c3a",
    "ctc128-hit4-700-wideseed":
        "935070309129e89bc10a3357258311281b511148d70067be08e19ccc00de4a35",
    "rr16-hit-50": "15c248502f519953d4ec408f195e55e5519a6882fffaac683257c1768464646c",
}


def _digest(times) -> str:
    h = hashlib.sha256()
    h.update(f"{times.dtype.str}|{times.shape}|".encode())
    h.update(times.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_monte_carlo_stop_time_digest(name):
    build, kwargs = CASES[name]
    mc = walks.monte_carlo(build(), 0, **kwargs)
    assert _digest(mc.times) == GOLDEN[name]
