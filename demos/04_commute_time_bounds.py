"""The static commute-time toolkit: exact values between cut-based bounds.

For every pair: Nash-Williams from edge-disjoint distance-layer cutsets is a
lower bound, the voltage-ordered prefix-cut sum an upper bound, and both are
exactly tight on paths.  Edge-connectivity alone already pins the circulant
family's maximum commute time to within a log factor.
"""

import numpy as np

from dynwalks import commute, graphs

print("-- path end-to-end: both bounds collapse onto 4(n-1)^2")
print(f"{'n':>3} {'nash-williams':>14} {'exact':>10} {'cut-sum':>10}")
for n in (4, 6, 8, 10):
    g = graphs.path_graph(n)
    nw = commute.nash_williams_lower(g, 0, n - 1,
                                     commute.distance_layer_cutsets(g, 0, n - 1))
    exact = commute.exact_commute(g, 0, n - 1)
    _, up = commute.cut_sum_upper(g, 0, n - 1)
    print(f"{n:>3} {nw.flow:>14.1f} {exact:>10.1f} {up.flow:>10.1f}")

print("-- random connected graphs: the sandwich never inverts")
rng = np.random.default_rng(0)
rows = []
for _ in range(6):
    g = graphs.gnp_connected_graph(8, 0.45, rng)
    s, t = 0, 7
    nw = commute.nash_williams_lower(g, s, t, commute.distance_layer_cutsets(g, s, t))
    exact = commute.exact_commute(g, s, t)
    _, up = commute.cut_sum_upper(g, s, t)
    print(f"  m={g.m:2d}: {nw.flow:7.1f} <= {exact:7.1f} <= {up.flow:7.1f} "
          f"(upper slack {up.flow / exact:.2f}x)")

print("-- circulants: edge-connectivity predicts max commute up to log(rho)")
print(f"{'rho':>4} {'n':>4} {'max commute':>12} {'n^2/rho':>9} {'conn bound':>11}")
for rho in (2, 4):
    for n in (32, 64):
        g = graphs.circulant_graph(n, rho)
        mc = commute.max_commute(g)
        cb = commute.connectivity_bound(g)
        print(f"{rho:>4} {n:>4} {mc:>12.1f} {n * n / rho:>9.1f} {cb:>11.1f}")

print("-- voltage ordering with connected prefixes (barbell, end to end)")
g = graphs.barbell_graph(9)
volt = commute.solve_voltage(g, 0, 8)
order = commute.connected_labelling(g, volt)
print(f"  order {order.tolist()}")
print(f"  voltages {np.round(volt.values[order], 3).tolist()}")
print(f"  1/E(g,g) = {commute.voltage_commute_bound(g, volt):.1f} "
      f"= exact commute {commute.exact_commute(g, 0, 8):.1f}")
