"""Lazy random walks on evolving graph sequences.

Exact simulation, Monte Carlo simulation, and numerical verification of
constant-explicit bounds for walks on dynamically changing graphs with a
time-invariant stationary distribution, plus the static-graph commute-time
toolkit the same analysis rests on.
"""

from .graphs import StaticGraph, edge_boundary, ball_size, edge_connectivity
from .chain import (
    StationaryDistribution,
    lazy_matrix,
    degree_stationary,
    variance_pi,
    dirichlet_form_edges,
    spectral_gap,
    conductance,
)
from .schedule import (
    GraphSchedule,
    WindowAverage,
    validate_common_stationary,
    window_average,
    min_window_gap,
    load_schedule,
    save_schedule,
    schedule_hash,
)
from .walks import (
    DistributionState,
    HittingEstimate,
    MonteCarloSummary,
    evolve,
    measure_mixing,
    exact_hitting,
    monte_carlo,
    verify_midpoint_bound,
)
from .constructions import (
    build_expander_matching,
    build_complete_then_cycle,
    build_nomixing,
    build_nohitting,
    build_nohitting_doubled,
    build_torus_schedule,
)
from .commute import (
    exact_commute,
    max_commute,
    solve_voltage,
    cut_sum_upper,
    connected_labelling,
    nash_williams_lower,
    profile_bound,
    eigen_sum,
    connectivity_bound,
)
from .reporting import BoundReport, summarize

__version__ = "0.1.0"
