"""Weight decision for Boolean oracles via Grover dynamics.

Exact simulators (full state vector and the two-dimensional invariant
plane), the randomized and sure-success decision algorithms, the
classical majority-vote baseline and the quantum-counting alternative,
plus a CLI that reproduces the quantitative claims.

Names are resolved on first use (PEP 562), so importing the package, or
a closed-form module such as `subspace`, does not import numpy.
"""
import importlib

__version__ = "0.7.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "oracle": ("BooleanOracle", "from_bits", "from_hex", "make_random_oracle"),
    "subspace": (
        "BlochVector", "PhaseSchedule", "bloch_from_state", "mu", "recurrence_amplitudes",
        "roots", "round_weight", "run_schedule",
    ),
    "statevector": ("StateVector", "measure_distribution", "run_full_schedule", "uniform_state"),
    "decision": (
        "DecisionOutcome", "PromisePair", "distinguish_quarter", "exact_success_probability",
        "randomized_weight_decision",
    ),
    "sure_success": (
        "SureSuccessPlan", "cross_point", "plan_for_weight", "select_k", "solve_theta1",
        "sure_success_decide", "verify_first_cross", "verify_no_cross",
    ),
    "classical": ("error_probability",),
    "counting": (
        "CountingPlan", "cost_comparison", "counting_distribution", "decide_by_counting",
        "plan_check_weight", "plan_n_weights",
    ),
}
_SUBMODULES = (*_EXPORTS, "errors")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
