"""Weight decision for Boolean oracles via Grover dynamics.

Exact simulators (full state vector and the two-dimensional invariant
plane), the randomized and sure-success decision algorithms, the
classical majority-vote baseline and the quantum-counting alternative,
plus a CLI that reproduces the quantitative claims.
"""

__version__ = "0.5.0"

from .oracle import BooleanOracle, from_bits, from_hex, make_random_oracle, round_weight
from .subspace import (
    BlochVector,
    PhaseSchedule,
    bloch_from_state,
    mu,
    recurrence_amplitudes,
    roots,
    run_schedule,
)
from .statevector import StateVector, measure_distribution, run_full_schedule, uniform_state
from .decision import (
    DecisionOutcome,
    PromisePair,
    distinguish_quarter,
    exact_success_probability,
    randomized_weight_decision,
)
from .sure_success import (
    SureSuccessPlan,
    cross_point,
    plan_for_weight,
    select_k,
    solve_theta1,
    sure_success_decide,
    verify_first_cross,
    verify_no_cross,
)
from .classical import error_probability
from .counting import (
    CountingPlan,
    cost_comparison,
    counting_distribution,
    decide_by_counting,
    plan_check_weight,
    plan_n_weights,
)

__all__ = [name for name in dir() if not name.startswith("_")]
