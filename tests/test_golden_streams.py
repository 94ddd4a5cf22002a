"""Golden Monte Carlo stop-time digests: any change to a trial's stream fails here.

Each trial draws from its own ``SeedSequence(seed).spawn`` child, in blocks of
coins then picks, so its stop times are a function of the seed alone.  These
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
}

# computed with the one-trial-at-a-time loop, before trials moved in lockstep
GOLDEN = {
    "ctc128-cover-320": "fa34fdeee3929c541563498e0800194d9c081297be3b0436a2df6f8e87b88314",
    "ctc128-hit4-2500": "9c67c0d2d95836f42ba80c74bc8d6b79a2b1895f9b0fa7c959089662b916090c",
    "rr16-hit-50": "71e392f2a430a3743468e2840ee17de24296b806f06ff12eec81f8a72d16e3be",
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
