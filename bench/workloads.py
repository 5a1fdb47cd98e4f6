"""Seeded inputs, operations and result checks of the three workloads.

An operation (Op) is one call, or one short chain of calls, into
groverweight's public API.  A workload is generated in rounds: a round is a
balanced list of operations whose total cost hardly depends on the seed.
Sizes that set the cost are stratified (one draw per stratum) or paired
antithetically (u with 1 - u); the seed chooses the values inside them and
the order.  Every check compares a result with a reference computed here,
outside the timed region, and returns None or the reason it failed.
"""
from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import bdtr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from groverweight import classical, counting, decision, oracle, statevector, subspace, sure_success  # noqa: E402

WORKLOADS = ("cli-session", "plane-sweep", "full-state")

POLE_TOL = 1e-9   # sure-success and counting certainty
TV_TOL = 1e-9     # full state vs two-dimensional plane
REL_TOL = 1e-13   # report values printed at 15 significant digits
BINOM_RTOL = 1e-8  # log-gamma tail vs the incomplete-beta binomial cdf

# plane-sweep: operations per round of each family, sized so that the
# planner takes about half of the round at the commit that introduced it.
# Monte Carlo calls are few: each streams tens of MB, so their time follows the
# memory bandwidth left by other tenants of the machine, and a large block
# of them would pin latency_p90_s to that.
PLAN_OPS = 32
EXACT_OPS = 64
MC_OPS = 16
MC_TRIALS = 10**6
CLASSICAL_OPS_PER_REGIME = 192
PAIR_OPS = 256
REGISTER_OPS = 256

# full-state: state-vector sizes, and the largest n whose hex round trip
# is part of the workload (decoding is quadratic in 2^n).
FULL_N = range(14, 21)
HEX_MAX_N = 17
MAX_CROSS_STEPS = 50
PAIRED_CROSS_N = 18
MAX_STANDARD_K = 10
MAX_SURE_K = 10


@dataclass
class Op:
    family: str
    desc: tuple                      # the op's inputs, for determinism tests
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    peak_kib: int = 0                # peak RSS of the child process it ran, if any


def rng_for(seed: int, round_index: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index, tag])


def _strata(rng, lo: float, hi: float, count: int, log: bool = False) -> list[float]:
    """One uniform draw in each of `count` equal strata of [lo, hi], shuffled."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    points = a + (b - a) * (np.arange(count) + rng.random(count)) / count
    values = np.exp(points) if log else points
    rng.shuffle(values)
    return [float(v) for v in values]


def _close(a: float, b: float, rtol: float = REL_TOL, atol: float = 1e-300) -> bool:
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


# ---------------------------------------------------------------- references

def _hilbert(u: float) -> float:
    return math.asin(math.sqrt(u))


def _standard_success(k: int, t: int, size: int, t_small: int) -> float:
    """Closed-form success probability of the k-iteration parity rule."""
    beta = _hilbert(t / size)
    a = math.cos((2 * k + 1) * beta) / math.cos(beta)
    b = math.sin((2 * k + 1) * beta) / math.sin(beta)
    p_zero, p_one = (size - t) * a * a / size, t * b * b / size
    small_on_solutions = k % 2 == 1
    if t == t_small:
        return p_one if small_on_solutions else p_zero
    return p_zero if small_on_solutions else p_one


def _sure_solution_probability(k: int, theta1: float, theta2: float, u: float) -> float:
    """Solution-class probability of a sure-success schedule, in closed form.

    The k-2 standard iterations rotate the plane by 2(k-2) beta (up to a
    global sign); the two modified steps are applied as explicit 2x2 maps.
    """
    beta = _hilbert(u)
    m = k - 2
    psi = (math.cos(beta), math.sin(beta))
    c_ns, c_sol = complex(math.cos((2 * m + 1) * beta)), complex(math.sin((2 * m + 1) * beta))
    for theta in (-theta1, -theta2):
        c_sol = -c_sol
        overlap = (1.0 - cmath.exp(1j * theta)) * (psi[0] * c_ns + psi[1] * c_sol)
        c_ns, c_sol = -(c_ns - overlap * psi[0]), -(c_sol - overlap * psi[1])
    return abs(c_sol) ** 2


def _sure_correct(k: int, p_sol: float, small: bool) -> float:
    """Probability the parity rule names the hypothesis: smaller at -(-1)^k."""
    return p_sol if (k % 2 == 1) == small else 1.0 - p_sol


def _query_accuracy(k: int) -> float:
    return math.cos(math.pi * k / (2 * (2 * k + 1))) ** 2


def _tv_from_plane(sv, orc, t: int, size: int, plane) -> float:
    """Total-variation distance between a full state and the plane's law."""
    probs = np.abs(sv.amps) ** 2
    ones = orc.bits.astype(bool)
    per_sol = abs(plane.c_sol) ** 2 / t
    per_ns = abs(plane.c_ns) ** 2 / (size - t)
    return 0.5 * float(np.abs(probs[ones] - per_sol).sum() + np.abs(probs[~ones] - per_ns).sum())


def _hex_reference(bits: np.ndarray) -> str:
    """Truth table as hex, most significant digit for the highest input."""
    return np.packbits(bits, bitorder="little")[::-1].tobytes().hex()


# ---------------------------------------------------------------- plane-sweep

def _planner_op(w: float) -> Op:
    w_small = min(w, 1.0 - w)

    def call():
        plan = sure_success.plan_for_weight(w)
        return plan, sure_success.hypothesis_report(plan, w_small, 1.0 - w_small)

    def check(result):
        plan, report = result
        for (_, p_reported), u, small in zip(report, (w_small, 1.0 - w_small), (True, False)):
            p_ref = _sure_correct(plan.k, _sure_solution_probability(plan.k, plan.theta1, plan.theta2, u), small)
            if p_ref < 1.0 - POLE_TOL:
                return f"w={w!r}: reference p_correct {p_ref!r} below 1-{POLE_TOL}"
            if abs(p_reported - p_ref) > POLE_TOL:
                return f"w={w!r}: reported p_correct {p_reported!r} vs reference {p_ref!r}"
        return None

    return Op("planner", ("plan", w), call, check)


def _exact_op(k: int, t: int, size: int, t_small: int) -> Op:
    def check(value):
        bound = decision.theorem_bound(k, size)
        if not bound <= value <= 1.0 + 1e-12:
            return f"k={k} t={t} N={size}: exact {value!r} outside [bound {bound!r}, 1]"
        ref = _standard_success(k, t, size, t_small)
        if abs(value - ref) > 1e-9:
            return f"k={k} t={t} N={size}: exact {value!r} vs closed form {ref!r}"
        return None

    return Op("decision", ("exact", k, t, size), lambda: decision.exact_success_probability(k, t, size), check)


def _mc_op(orc, k: int, t_small: int, trial_seed: int) -> Op:
    def call():
        return decision.empirical_success_count(orc, k, MC_TRIALS, np.random.default_rng(trial_seed))

    def check(count):
        p = _standard_success(k, orc.t, orc.size, t_small)
        slack = 6.0 * math.sqrt(MC_TRIALS * p * (1.0 - p)) + 1.0
        if not 0 <= count <= MC_TRIALS or abs(count - MC_TRIALS * p) > slack:
            return f"k={k} t={orc.t}: {count} successes, expected {MC_TRIALS * p:.1f} +- {slack:.1f}"
        return None

    return Op("decision", ("mc", k, orc.n, orc.t, trial_seed), call, check)


def _classical_op(k: int, g: int) -> Op:
    def check(value):
        # scipy.special.bdtr, not scipy.stats.binom.cdf: importing
        # scipy.stats into the measuring process adds ~27k objects that
        # every full garbage collection then scans, which slowed the
        # measured operations by about a fifth.
        ref = float(bdtr((g - 1) // 2, g, _query_accuracy(k)))
        if not _close(value, ref, BINOM_RTOL):
            return f"k={k} g={g}: E {value!r} vs bdtr {ref!r}"
        return None

    return Op("classical", ("error", k, g), lambda: classical.error_probability(k, g), check)


def _counting_op(divisors: tuple, points: int, kind: str) -> Op:
    def call():
        plan = counting.plan_n_weights(divisors)
        return plan, [counting.hypothesis_success_probability(plan, i) for i in range(len(divisors))]

    def check(result):
        plan, masses = result
        if plan.P != points:
            return f"{divisors}: register {plan.P}, expected {points}"
        for a, mass in zip(divisors, masses):
            if not 1.0 - POLE_TOL <= mass <= 1.0 + POLE_TOL:
                return f"a={a} P={points}: success mass {mass!r}"
        return None

    return Op("counting", (kind, tuple(str(a) for a in divisors)), call, check)


def plane_sweep_round(seed: int, round_index: int) -> list[Op]:
    rng = rng_for(seed, round_index, 1)
    ops = []
    # Planner: 1/2 - w log-uniform, so k runs from 2 to about 1e4.
    for d in _strata(rng, 4e-5, 0.45, PLAN_OPS, log=True):
        ops.append(_planner_op(0.5 - d if rng.random() < 0.5 else 0.5 + d))
    # Exact success probability: k up to 1e3 at n = 20..30.
    for i, kf in enumerate(_strata(rng, 1, 1000, EXACT_OPS, log=True)):
        k, size = round(kf), 1 << (20 + i % 11)
        pair = decision.PromisePair.for_iterations(k, size)
        ops.append(_exact_op(k, pair.weights()[int(rng.integers(2))], size, pair.t_small))
    # Monte Carlo success count on prebuilt oracles (n = 12, 13).
    for i, kf in enumerate(_strata(rng, 1, 1000, MC_OPS, log=True)):
        k, n = round(kf), 12 + i % 2
        pair = decision.PromisePair.for_iterations(k, 1 << n)
        t = pair.weights()[int(rng.integers(2))]
        orc = oracle.make_random_oracle(n, t, seed=int(rng.integers(2**31)))
        ops.append(_mc_op(orc, k, pair.t_small, int(rng.integers(2**31))))
    # Majority-vote tail in the g = k, k^2, k^3 regimes, g <= 1e6.
    for exponent, k_max in ((1, 999_999), (2, 999), (3, 99)):
        for kf in _strata(rng, 1, k_max, CLASSICAL_OPS_PER_REGIME, log=True):
            k = round(kf)
            ops.append(_classical_op(k, classical.nearest_odd(float(k) ** exponent)))
    # Counting on the complementary pair decided by k iterations (P = 4k+2).
    for kf in _strata(rng, 1, 2499, PAIR_OPS, log=True):
        k = round(kf)
        ops.append(_counting_op(counting.comparison_pair(k), 4 * k + 2, "pair"))
    # Counting on 2-4 hypotheses sharing a P-point register, P <= 1e4.
    for pf in _strata(rng, 12, 10_000, REGISTER_OPS, log=True):
        points = round(pf)
        m = int(rng.integers(2, 5))
        outcomes = [1] + [int(x) + 2 for x in rng.choice((points + 1) // 2 - 2, m - 1, replace=False)]
        ops.append(_counting_op(tuple(Fraction(points, f) for f in outcomes), points, "register"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- full-state

class _Instance:
    """One oracle shared by a short chain of operations."""

    def __init__(self, n: int, t: int, seed: int):
        self.n, self.t, self.seed, self.size = n, t, seed, 1 << n
        self.oracle = None

    def build_op(self) -> Op:
        def call():
            self.oracle = None  # release the previous table before building
            self.oracle = oracle.make_random_oracle(self.n, self.t, seed=self.seed)
            return self.oracle

        def check(orc):
            if orc.n != self.n or orc.bits.shape != (self.size,):
                return f"n={self.n}: table of shape {orc.bits.shape}"
            if orc.t != self.t or int(np.count_nonzero(orc.bits)) != self.t:
                return f"n={self.n}: weight {orc.t}/{np.count_nonzero(orc.bits)}, wanted {self.t}"
            return None

        return Op("oracle", ("build", self.n, self.t, self.seed), call, check)

    def hex_op(self) -> Op:
        def call():
            text = self.oracle.to_hex()
            return text, oracle.from_hex(self.n, text)

        def check(result):
            text, back = result
            if text != _hex_reference(self.oracle.bits):
                return f"n={self.n}: to_hex differs from the packed-bit encoding"
            if not np.array_equal(back.bits, self.oracle.bits):
                return f"n={self.n}: from_hex(to_hex) changed the table"
            return None

        return Op("hex", ("hex", self.n, self.t, self.seed), call, check)

    def run_op(self, kind: str, schedule) -> Op:
        def check(sv):
            plane = subspace.run_schedule(self.t, self.size, schedule)
            tv = _tv_from_plane(sv, self.oracle, self.t, self.size, plane)
            return None if tv < TV_TOL else f"n={self.n} t={self.t} {kind}: TV {tv:.3e}"

        desc = (kind, self.n, self.t, len(schedule))
        return Op("statevector", desc, lambda: statevector.run_full_schedule(self.oracle, schedule), check)

    def cross_op(self, schedule) -> Op:
        def call():
            return (
                statevector.run_full_schedule(self.oracle, schedule),
                subspace.run_schedule(self.t, self.size, schedule),
            )

        def check(result):
            sv, plane = result
            tv = _tv_from_plane(sv, self.oracle, self.t, self.size, plane)
            return None if tv < TV_TOL else f"n={self.n} t={self.t} cross-check: TV {tv:.3e}"

        desc = ("cross", self.n, self.t, tuple(schedule))
        return Op("cross-check", desc, call, check)


def full_state_round(seed: int, round_index: int) -> list[Op]:
    rng = rng_for(seed, round_index, 2)
    chains = []
    for n in FULL_N:
        size = 1 << n
        half = size // 2
        # Two general instances: weights u and 1-u across [1, N/2], step
        # counts k and 11-k.  Cross-check lengths are L and 50-L where the
        # state is large enough to dominate the round's cost; below that,
        # one from each half of 0..50, so the step count varies with the seed.
        t_a = 1 + int(rng.random() * half)
        k_a = int(rng.integers(1, MAX_STANDARD_K + 1))
        middle = MAX_CROSS_STEPS // 2
        len_a = int(rng.integers(0, middle + 1))
        if n >= PAIRED_CROSS_N:
            len_b = MAX_CROSS_STEPS - len_a
        else:
            len_b = int(rng.integers(middle, MAX_CROSS_STEPS + 1))
        for t, k, length in ((t_a, k_a, len_a), (half + 1 - t_a, MAX_STANDARD_K + 1 - k_a, len_b)):
            inst = _Instance(n, t, int(rng.integers(2**31)))
            chain = [inst.build_op()]
            if n <= HEX_MAX_N:
                chain.append(inst.hex_op())
            chain.append(inst.run_op("standard", subspace.PhaseSchedule.standard(k)))
            phases = rng.uniform(-math.pi, math.pi, size=(length, 2))
            chain.append(inst.cross_op(subspace.PhaseSchedule(tuple(map(tuple, phases)))))
            chains.append(chain)
        # Two sure-success instances with k and 12-k: the weight is drawn
        # from the bracket (mu_{k-1} N, mu_k N] that selects k.
        k_s = int(rng.integers(2, MAX_SURE_K + 1))
        for k in (k_s, MAX_SURE_K + 2 - k_s):
            lo = 1 if k == 2 else math.floor(subspace.mu(k - 1) * size) + 1
            hi = math.floor(subspace.mu(k) * size)
            t = int(rng.integers(lo, hi + 1))
            plan = sure_success.plan_for_weight(t / size)
            inst = _Instance(n, t, int(rng.integers(2**31)))
            chains.append([inst.build_op(), inst.run_op("sure-success", plan.schedule)])
    rng.shuffle(chains)
    return [op for chain in chains for op in chain]


# ---------------------------------------------------------------- cli-session

def child_env() -> dict[str, str]:
    """Environment of CLI subprocesses: package on the path, one thread."""
    env = dict(os.environ)
    env.pop("GROVERWEIGHT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# The console entry point, plus an exit hook that reports the child's own
# peak resident memory on stderr (read back by cli_op).
CLI_PREFIX = (
    "-c",
    "import atexit, resource, sys\n"
    "atexit.register(lambda: print('peak_rss_kib', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
    " file=sys.stderr))\n"
    "from groverweight.cli import main\n"
    "main()",
)


def parse_report(text: str):
    """(metadata, columns, rows) of an emitted CSV or JSON report."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return payload["metadata"], payload["columns"], payload["rows"]
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif line.strip():
            lines.append(line)
    rows = list(csv.reader(lines))
    return meta, rows[0], rows[1:]


def _rows_match(rows, expected) -> str | None:
    """Compare report rows with expected tuples; floats to 15 digits."""
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for row, want in zip(rows, expected):
        if len(row) != len(want):
            return f"row {row} has {len(row)} fields, expected {len(want)}"
        for got, value in zip(row, want):
            if isinstance(value, float):
                if not (math.isnan(value) and got == "nan") and not _close(float(got), value):
                    return f"row {row}: {got} != {value!r}"
            elif got != str(value):
                return f"row {row}: {got} != {value}"
    return None


def _expect_mu(k_max):
    return [(k, subspace.mu(k)) for k in range(1, k_max + 1)]


def _expect_roots(k):
    a_roots, b_roots = subspace.roots(k)
    return [(k, "a", i + 1, r) for i, r in enumerate(a_roots)] + [
        (k, "b", i + 1, r) for i, r in enumerate(b_roots)
    ]


def _expect_classical(k):
    out = []
    for s in (1, 2):
        g = classical.nearest_odd(float(k) ** s)
        out.append((k, g, classical.single_query_accuracy(k), classical.error_probability(k, g), math.nan, 0))
    return out


def _expect_counting(t, size, points):
    return [(f, float(p)) for f, p in enumerate(counting.counting_distribution(float(t), size, points))]


def _expect_counting_plan(weights):
    plan = counting.plan_n_weights(weights)
    return [
        (i, str(h.a), h.weight, h.k, counting.hypothesis_success_probability(plan, i))
        for i, h in enumerate(plan.hypotheses)
    ]


def _expect_compare(k_max):
    return [(k, *counting.cost_comparison(k)) for k in range(1, k_max + 1)]


def _report_check(expected_fn, *fn_args):
    def check(text):
        _, _, rows = parse_report(text)
        return _rows_match(rows, expected_fn(*fn_args))

    return check


def _randomized_check(n, k):
    def check(text):
        _, _, rows = parse_report(text)
        size = 1 << n
        pair = decision.PromisePair.for_iterations(k, size)
        if len(rows) != 2:
            return f"randomized: {len(rows)} rows"
        for row, t in zip(rows, pair.weights()):
            trials, successes = int(row[3]), int(row[4])
            p = decision.exact_success_probability(k, t, size)
            fixed = _rows_match([row[:4] + row[5:]], [(n, k, t, trials, p, decision.theorem_bound(k, size))])
            if fixed:
                return fixed
            slack = 6.0 * math.sqrt(trials * p * (1.0 - p)) + 1.0
            if trials != 100_000 or abs(successes - trials * p) > slack:
                return f"randomized t={t}: {successes}/{trials} successes, p={p!r}"
        return None

    return check


def _sure_check(n, frac):
    def check(text):
        values = {}
        for line in text.splitlines():
            key, sep, rest = line.partition("=")
            if sep and key.strip() in ("k", "theta1", "theta2"):
                values[key.strip()] = float(rest)
            elif line.startswith("success:"):
                fields = line.split()
                values["p_small"], values["p_big"] = float(fields[2]), float(fields[4])
        size = 1 << n
        w = float(frac)
        plan = sure_success.plan_for_weight(w)
        t_small = round(min(w, 1 - w) * size)
        (_, p_small), (_, p_big) = sure_success.hypothesis_report(plan, t_small / size, 1 - t_small / size)
        want = {"k": plan.k, "theta1": plan.theta1, "theta2": plan.theta2, "p_small": p_small, "p_big": p_big}
        for key, value in want.items():
            if key not in values or abs(values[key] - value) > 1e-11:
                return f"sure-success w={frac}: {key} {values.get(key)} vs {value!r}"
        if min(p_small, p_big) < 1.0 - POLE_TOL:
            return f"sure-success w={frac}: success {p_small!r}, {p_big!r}"
        return None

    return check


def _distinguish_check(n, t, seed):
    def check(text):
        meta, _, rows = parse_report(text)
        orc = oracle.make_random_oracle(n, t, seed=seed)
        if len(rows) != 1:
            return f"distinguish: {len(rows)} rows"
        x = int(rows[0][2])
        expected = [(n, t, x, orc.value(x), t, 1, 2)]
        if meta.get("oracle") != orc.to_hex():
            return f"distinguish: oracle {meta.get('oracle')} != {orc.to_hex()}"
        return _rows_match(rows, expected)

    return check


def _verify_check(path):
    def check(text):
        return None if text.startswith("valid report") else f"--verify {path}: {text.strip()}"

    return check


@dataclass
class Invocation:
    argv: tuple
    check: Callable[[str], "str | None"]
    save_to: Path | None = None      # keep stdout here for a later --verify


def cli_cycle(seed: int, cycle: int) -> list[Invocation]:
    """One pass over the README's CLI examples, with seeded parameters.

    One report-emitting command writes JSON instead of CSV; the cycle
    ends with --verify of one to three of the reports it emitted.
    """
    rng = rng_for(seed, cycle, 3)
    pick = lambda lo, hi: int(rng.integers(lo, hi + 1))  # noqa: E731
    k_mu, k_roots, k_rand, k_cls, k_cmp = pick(5, 15), pick(5, 15), pick(1, 8), pick(21, 81), pick(5, 15)
    frac = Fraction(2 * pick(0, 7) + 1, 32)
    t_cnt, p_cnt = pick(1, 15), pick(4, 16)
    weights = [str(a) for a in counting.comparison_pair(pick(1, 12))]
    t_dist, s_dist, s_rand = 4 * (1 + 2 * pick(0, 1)), pick(0, 999), pick(0, 999)
    reports = [
        (("mu", "--k-max", str(k_mu)), _report_check(_expect_mu, k_mu)),
        (("roots", "--k", str(k_roots)), _report_check(_expect_roots, k_roots)),
        (("randomized", "--n", "12", "--k", str(k_rand), "--seed", str(s_rand)), _randomized_check(12, k_rand)),
        (("classical", "--k", str(k_cls), "--exponent", "1", "--exponent", "2", "--n", "12"),
         _report_check(_expect_classical, k_cls)),
        (("counting", "--t", str(t_cnt), "--n", "4", "--P", str(p_cnt)),
         _report_check(_expect_counting, t_cnt, 16, p_cnt)),
        (("counting", "plan", "--weights", *weights), _report_check(_expect_counting_plan, weights)),
        (("compare", "--k-max", str(k_cmp)), _report_check(_expect_compare, k_cmp)),
        (("distinguish", "--n", "4", "--t", str(t_dist), "--seed", str(s_dist)),
         _distinguish_check(4, t_dist, s_dist)),
    ]
    as_json = pick(0, len(reports) - 1)
    reports[as_json] = (reports[as_json][0] + ("--format", "json"), reports[as_json][1])
    cycle_ops = [Invocation(argv, check) for argv, check in reports]
    cycle_ops.append(Invocation(("sure-success", "--n", "5", "--w", str(frac)), _sure_check(5, frac)))
    order = list(rng.permutation(len(cycle_ops)))
    cycle_ops = [cycle_ops[i] for i in order]
    report_slots = [i for i, op in enumerate(cycle_ops) if op.argv[0] != "sure-success"]
    for slot in rng.choice(report_slots, pick(1, 3), replace=False):
        path = OUT / f"report-{seed}-{cycle}-{slot}.txt"
        cycle_ops[slot].save_to = path
        cycle_ops.append(Invocation(("--verify", str(path)), _verify_check(path)))
    return cycle_ops


def cli_op(inv: Invocation) -> Op:
    """The invocation as a fresh interpreter running the console entry point."""
    argv = (sys.executable, *CLI_PREFIX, *inv.argv)

    def call():
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
        for line in proc.stderr.splitlines():
            if line.startswith("peak_rss_kib "):
                op.peak_kib = int(line.split()[1])
        return proc

    def check(proc):
        if proc.returncode != 0:
            return f"{' '.join(inv.argv)}: exit {proc.returncode}: {proc.stdout[-200:]}{proc.stderr[-200:]}"
        if inv.save_to is not None:
            inv.save_to.write_text(proc.stdout, encoding="utf-8")
        return inv.check(proc.stdout)

    op = Op("cli", inv.argv, call, check)
    return op


def cli_round(seed: int, round_index: int) -> list[Op]:
    return [cli_op(inv) for inv in cli_cycle(seed, round_index)]


def make_round(workload: str, seed: int, round_index: int) -> list[Op]:
    if workload == "cli-session":
        return cli_round(seed, round_index)
    if workload == "plane-sweep":
        return plane_sweep_round(seed, round_index)
    if workload == "full-state":
        return full_state_round(seed, round_index)
    raise ValueError(f"unknown workload {workload!r}")


def in_process_op(inv: Invocation) -> Op:
    """The invocation run warm through cli.run in this process."""
    from groverweight import cli

    def call():
        out = io.StringIO()
        code = cli.run(list(inv.argv), stdout=out)
        if code != 0:
            raise RuntimeError(f"{' '.join(inv.argv)}: exit {code}")
        return out.getvalue()

    return Op("cli", inv.argv, call, inv.check)
