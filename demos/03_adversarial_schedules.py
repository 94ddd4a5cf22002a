"""Three schedules that separate dynamic from static behaviour.

1. complete-then-cycle: hitting stays Theta(n) but covering costs Theta(n^2),
   a gap no static graph family exhibits.
2. the bucketed bipartite schedule: a legitimate common stationary
   distribution with exponentially small mass, making hitting exponential
   while every 4n-step window average is ergodic.
3. the nested-sets expander schedule: connected bounded-degree steps whose
   shifting stationary distributions pile walk mass onto a single vertex.
"""

import numpy as np

from dynwalks import constructions, schedule, walks

print("-- cover/hit gap on complete-then-cycle, n=128")
s = constructions.build_complete_then_cycle(128)
hit = walks.monte_carlo(s, 0, seed=1401, trials=200, stop=("hit", 64), horizon=400_000)
cov = walks.monte_carlo(s, 0, seed=1402, trials=200, stop=("cover",), horizon=400_000)
print(f"  hit mean   {hit.mean:8.1f} +- {hit.stderr:.1f}")
print(f"  cover mean {cov.mean:8.1f} +- {cov.stderr:.1f}")
print(f"  ratio {cov.mean / hit.mean:.1f} (n/10 = 12.8)")

print("-- bucketed bipartite schedule: exponential hitting")
for n in (8, 12, 16):
    sh = constructions.build_nohitting(n)
    k = n // 4
    est = walks.exact_hitting(sh, 0, set(range(4 * (k - 1), 4 * k)))
    print(f"  n={n:3d}: pi_min = {sh.pi.min():.2e}  "
          f"hit V1->V{k} = {est.lower:8.1f}  ({est.status})")
d = constructions.build_nohitting_doubled(16)
w = 3 * 16
bad = [t1 for t1 in range(w + 2) if not schedule.window_ergodic(d, t1, w)]
print(f"  doubled variant: width-{w} windows starting at {bad} are non-ergodic,")
print(f"  width-{w + 2} windows are all ergodic (matchings are exactly {w + 2} apart)")

print("-- nested-sets schedule: mass piles up without a common pi")
n, t = 1000, 9
sm = constructions.build_nomixing(n, t, seed=7)
sizes = sm.meta["set_sizes"]
start = sm.meta["active_start"]
trace = walks.evolve_trace(sm, np.full(n, 1.0 / n), t)
for i in range(1, sm.meta["active_steps"] + 1):
    lo = trace[start + i][: sizes[i]].min()
    print(f"  after active step {i}: min mass on S_{i} (|S_{i}|={sizes[i]:4d}) "
          f"= {lo:.2e} >= (10/8)^{i}/n = {(10 / 8) ** i / n:.2e}")
c = np.log(trace[t].max() * n) / np.log(n)
print(f"  final max mass {trace[t].max():.2e} = n^(-1+{c:.3f}): "
      "polynomially above uniform despite every step being a connected expander")
