"""Command-line front end for experiments and reproduction tables.

Reports are CSV with '#'-prefixed metadata lines (command, parameters,
seed, version) followed by a header row and data rows at 15 significant
digits; --format json mirrors the same content.  Identical invocations,
seed included, produce byte-identical output.  Exit codes: 0 success,
1 parameter errors, 2 promise/feasibility errors, 3 internal
verification failures.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__, acceptance, classical, counting, decision, subspace, sure_success
from .errors import (
    GroverWeightError,
    ParameterError,
    PhaseSolutionFailureError,
)
from .oracle import MAX_VARIABLES, from_hex, make_random_oracle, round_weight
from .statevector import measure_distribution, run_full_schedule


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


class Report:
    """One tabular result: metadata, column names, rows."""

    def __init__(self, command: str, params: dict, columns: list[str], rows: list[tuple]):
        self.meta = {"command": command, "version": __version__}
        self.meta.update(params)
        self.meta.setdefault("seed", "none")
        self.columns = columns
        self.rows = rows

    def write_csv(self, fh) -> None:
        for key, value in self.meta.items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt(v) for v in row])

    def write_json(self, fh) -> None:
        payload = {
            "metadata": {k: str(v) for k, v in self.meta.items()},
            "columns": self.columns,
            "rows": [[_fmt(v) for v in row] for row in self.rows],
        }
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    def emit(self, out: str | None, fmt: str, stdout) -> None:
        if out is None:
            self.write_csv(stdout) if fmt == "csv" else self.write_json(stdout)
            return
        with open(out, "w", encoding="utf-8") as fh:
            self.write_csv(fh) if fmt == "csv" else self.write_json(fh)


def _parse_fraction(text: str) -> Fraction:
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse fraction {text!r}: {exc}") from None
    if not 0 < frac < 1:
        raise ParameterError(f"weight fraction must lie in (0, 1), got {frac}")
    return frac


def _cmd_roots(args, stdout) -> int:
    a_roots, b_roots = subspace.roots(args.k)
    rows = [(args.k, "a", i + 1, r) for i, r in enumerate(a_roots)]
    rows += [(args.k, "b", i + 1, r) for i, r in enumerate(b_roots)]
    Report("roots", {"k": args.k}, ["k", "set", "index", "root"], rows).emit(
        args.out, args.format, stdout
    )
    return 0


def _cmd_mu(args, stdout) -> int:
    ks = [args.k] if args.k is not None else list(range(1, args.k_max + 1))
    rows = [(k, subspace.mu(k)) for k in ks]
    Report("mu", {"k_max": max(ks)}, ["k", "mu"], rows).emit(args.out, args.format, stdout)
    return 0


def _cmd_distinguish(args, stdout) -> int:
    if args.oracle_hex is not None:
        orc = from_hex(args.n, args.oracle_hex)
    elif args.t is not None:
        orc = make_random_oracle(args.n, args.t, seed=args.seed)
    else:
        raise ParameterError("give either --t or --oracle-hex")
    outcome = decision.distinguish_quarter(orc, np.random.default_rng(args.seed))
    if args.dump_distribution is not None:
        sv = run_full_schedule(orc, subspace.PhaseSchedule.standard(1))
        dist_rows = [(x, float(p)) for x, p in enumerate(measure_distribution(sv))]
        with open(args.dump_distribution, "w", encoding="utf-8") as fh:
            Report(
                "distinguish-distribution",
                {"n": args.n, "t": orc.t, "oracle": orc.to_hex()},
                ["index", "probability"],
                dist_rows,
            ).write_csv(fh)
    rows = [
        (
            args.n,
            orc.t,
            outcome.measured_x,
            outcome.f_of_x,
            outcome.inferred_t,
            outcome.correct,
            outcome.oracle_calls,
        )
    ]
    Report(
        "distinguish",
        {"n": args.n, "t": orc.t, "seed": args.seed, "oracle": orc.to_hex()},
        ["n", "t", "measured_x", "f_of_x", "inferred_t", "correct", "oracle_calls"],
        rows,
    ).emit(args.out, args.format, stdout)
    return 0


def _cmd_randomized(args, stdout) -> int:
    if args.trials < 1:
        raise ParameterError(f"trials must be >= 1, got {args.trials}")
    if not 1 <= args.n <= MAX_VARIABLES:
        raise ParameterError(f"n must be in [1, {MAX_VARIABLES}], got {args.n}")
    size = 1 << args.n
    pair = decision.PromisePair.for_iterations(args.k, size)
    weights = [args.t] if args.t is not None else list(pair.weights())
    rows = []
    for t in weights:
        # Only the measured class decides a run, so the count is one
        # Binomial(trials, exact_p) draw; no truth table is built.
        exact_p = decision.exact_success_probability(args.k, t, size)
        successes = int(np.random.default_rng(args.seed).binomial(args.trials, exact_p))
        rows.append(
            (args.n, args.k, t, args.trials, successes, exact_p, decision.theorem_bound(args.k, size))
        )
    Report(
        "randomized",
        {"n": args.n, "k": args.k, "trials": args.trials, "seed": args.seed},
        ["n", "k", "true_t", "trials", "successes", "exact_p", "bound_p"],
        rows,
    ).emit(args.out, args.format, stdout)
    return 0


def _cmd_sure_success(args, stdout) -> int:
    if args.n < 1:
        raise ParameterError(f"n must be >= 1, got {args.n}")
    size = 1 << args.n
    fractions = [_parse_fraction(text) for text in args.w]
    rows = []
    for frac in fractions:
        w = float(frac)
        plan = sure_success.plan_for_weight(w)
        t_small = round_weight(min(w, 1 - w), size)
        t_big = round_weight(max(w, 1 - w), size)
        (z_small, p_small), (z_big, p_big) = sure_success.hypothesis_report(
            plan, t_small / size, t_big / size
        )
        rows.append(
            (str(frac), plan.k, plan.theta1, plan.theta2, z_small, z_big, p_small, p_big)
        )
        if len(fractions) == 1 and args.out is None and args.format == "csv":
            stdout.write(f"w = {frac}  (n = {args.n}, weights {t_small} vs {t_big})\n")
            stdout.write(f"k      = {plan.k}\n")
            stdout.write(f"theta1 = {plan.theta1:.12f}\n")
            stdout.write(f"theta2 = {plan.theta2:.12f}\n")
            stdout.write(f"final z:   smaller {z_small:.12f}   bigger {z_big:.12f}\n")
            stdout.write(f"success:   smaller {p_small:.12f}   bigger {p_big:.12f}\n")
            return 0
    Report(
        "sure-success",
        {"n": args.n, "w": ",".join(str(f) for f in fractions)},
        ["w", "k", "theta1", "theta2", "z_small", "z_big", "p_small", "p_big"],
        rows,
    ).emit(args.out, args.format, stdout)
    return 0


def _cmd_classical(args, stdout) -> int:
    if args.trials < 0:
        raise ParameterError(f"trials must be >= 0, got {args.trials}")
    size = 1 << args.n
    rows = []
    rng = np.random.default_rng(args.seed)
    exponents = args.exponent or [1.0, 2.0, 3.0]
    for k in args.k:
        pair = decision.PromisePair.for_iterations(k, size)
        gs = args.g if args.g else [classical.nearest_odd(float(k) ** s) for s in exponents]
        for g in gs:
            exact = classical.error_probability(k, g)
            if args.trials > 0:
                oracle = make_random_oracle(args.n, pair.t_small, seed=args.seed)
                empirical = classical.empirical_error_rate(oracle, g, args.trials, rng, pair)
            else:
                empirical = math.nan
            rows.append((k, g, classical.single_query_accuracy(k), exact, empirical, args.trials))
    Report(
        "classical",
        {"n": args.n, "trials": args.trials, "seed": args.seed},
        ["k", "g", "p", "E_exact", "E_empirical", "trials"],
        rows,
    ).emit(args.out, args.format, stdout)
    return 0


def _cmd_counting(args, stdout) -> int:
    size = 1 << args.n
    t = float(args.t)
    dist = counting.counting_distribution(t, size, args.P)
    rows = [(f_tilde, float(p)) for f_tilde, p in enumerate(dist)]
    Report(
        "counting",
        {"n": args.n, "t": _fmt(t), "P": args.P},
        ["f_tilde", "probability"],
        rows,
    ).emit(args.out, args.format, stdout)
    return 0


def _cmd_counting_plan(args, stdout) -> int:
    if len(args.weights) == 1:
        plan = counting.plan_check_weight(args.weights[0], multiplier=args.multiplier)
    else:
        plan = counting.plan_n_weights(args.weights)
    rows = [
        (i, str(h.a), h.weight, h.k, counting.hypothesis_success_probability(plan, i))
        for i, h in enumerate(plan.hypotheses)
    ]
    meta = {"P": plan.P, "counting_calls": plan.total_oracle_calls, "weights": ",".join(args.weights)}
    if len(plan.hypotheses) == 2:
        w1, w2 = (h.weight for h in plan.hypotheses)
        if abs(w1 + w2 - 1.0) < 1e-12 and (plan.P - 2) % 4 == 0:
            # complementary pair reachable by (P-2)/4 weight-decision iterations
            k = (plan.P - 2) // 4
            meta["weight_decision_calls"] = k + 1
            meta["call_ratio"] = _fmt(plan.total_oracle_calls / (k + 1))
    report = Report(
        "counting-plan",
        meta,
        ["index", "a", "weight", "expected_f", "success_probability"],
        rows,
    )
    report.emit(args.out, args.format, stdout)
    return 0


def _cmd_compare(args, stdout) -> int:
    ks = args.k if args.k else list(range(1, args.k_max + 1))
    rows = []
    for k in ks:
        dec_calls, cnt_calls, ratio = counting.cost_comparison(k)
        rows.append((k, dec_calls, cnt_calls, ratio))
    Report(
        "compare", {"k": ",".join(map(str, ks))},
        ["k", "weight_decision_calls", "counting_calls", "ratio"], rows,
    ).emit(args.out, args.format, stdout)
    return 0


def _cmd_selftest(args, stdout) -> int:
    numbers = args.criteria if args.criteria else None
    results = acceptance.run_all(numbers)
    for result in results:
        stdout.write(result.line() + "\n")
    failed = [r for r in results if not r.passed]
    stdout.write(f"{len(results) - len(failed)}/{len(results)} criteria passed\n")
    return 0 if not failed else 3


def _report_ok(text: str) -> bool:
    """Metadata present and rows rectangular; False on anything unparsable."""
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
            meta, columns, rows = payload["metadata"], payload["columns"], payload["rows"]
            return (
                isinstance(meta, dict)
                and {"command", "version"} <= meta.keys()
                and all(len(r) == len(columns) for r in rows)
            )
        except (ValueError, KeyError, TypeError):
            return False
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif line.strip():
            data_lines.append(line)
    try:
        rows = list(csv.reader(data_lines))
    except csv.Error:
        return False
    return (
        {"command", "version", "seed"} <= set(meta)
        and len(rows) >= 1
        and all(len(r) == len(rows[0]) for r in rows)
    )


def _verify_file(path: str, stdout) -> int:
    """Re-parse an emitted report; every file ends in valid or invalid."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        stdout.write(f"cannot read {path}: {exc}\n")
        return 1
    ok = _report_ok(text)
    stdout.write(("valid" if ok else "invalid") + f" report: {path}\n")
    return 0 if ok else 1


def _add_report_args(parser) -> None:
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> _Parser:
    parser = _Parser(prog="groverweight", description=__doc__)
    parser.add_argument("--verify", metavar="FILE", help="validate a previously emitted report")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("roots", help="weight-fraction zeros of the class amplitudes")
    p.add_argument("--k", type=int, required=True)
    _add_report_args(p)

    p = sub.add_parser("mu", help="closest-to-balanced decidable roots")
    p.add_argument("--k", type=int)
    p.add_argument("--k-max", type=int, default=10)
    _add_report_args(p)

    p = sub.add_parser("distinguish", help="one-iteration N/4 vs 3N/4 decision")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--oracle-hex", help="explicit truth table (msb = input N-1) instead of --t")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-distribution", metavar="PATH",
                   help="also write the post-iteration (index, probability) table")
    _add_report_args(p)

    p = sub.add_parser("randomized", help="k-iteration randomized weight decision")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, help="run a single weight instead of both promised ones")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_report_args(p)

    p = sub.add_parser("sure-success", help="phase-modified probability-1 decision")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", action="append", required=True, metavar="P/Q",
                   help="promised fraction as an exact p/q string (repeatable)")
    _add_report_args(p)

    p = sub.add_parser("classical", help="majority-vote baseline error rates")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--k", type=int, action="append", required=True)
    p.add_argument("--g", type=int, action="append", help="explicit odd query counts")
    p.add_argument("--exponent", type=float, action="append", default=None,
                   help="use g = nearest odd k^s instead of --g")
    p.add_argument("--trials", type=int, default=0, help="Monte Carlo trials (0 = exact only)")
    p.add_argument("--seed", type=int, default=0)
    _add_report_args(p)

    p = sub.add_parser("counting", help="register distribution of quantum counting")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    _add_report_args(p)

    p = sub.add_parser("counting-plan", help="register plan for exact weight hypotheses")
    p.add_argument("--weights", nargs="+", required=True, metavar="A",
                   help="angle divisors a (theta = pi/a) as exact p/q strings")
    p.add_argument("--multiplier", type=int, default=1)
    _add_report_args(p)

    p = sub.add_parser("compare", help="oracle-call costs: weight decision vs counting")
    p.add_argument("--k", type=int, action="append")
    p.add_argument("--k-max", type=int, default=10)
    _add_report_args(p)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", type=int, nargs="+", help="subset to run (default all)")

    return parser


_DISPATCH = {
    "roots": _cmd_roots,
    "mu": _cmd_mu,
    "distinguish": _cmd_distinguish,
    "randomized": _cmd_randomized,
    "sure-success": _cmd_sure_success,
    "classical": _cmd_classical,
    "counting": _cmd_counting,
    "counting-plan": _cmd_counting_plan,
    "compare": _cmd_compare,
    "selftest": _cmd_selftest,
}


def run(argv, stdout=None) -> int:
    """Parse and execute; returns the process exit code."""
    stdout = sys.stdout if stdout is None else stdout
    argv = list(argv)
    if argv[:2] == ["counting", "plan"]:  # documented spelling of counting-plan
        argv[1:2] = []
        argv[0] = "counting-plan"
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.verify is not None:
        return _verify_file(args.verify, stdout)
    if args.command is None:
        parser.print_usage(stdout)
        return 1
    try:
        return _DISPATCH[args.command](args, stdout)
    except PhaseSolutionFailureError as exc:
        stdout.write(f"verification failure: {exc}\n")
        return 3
    except ParameterError as exc:
        stdout.write(f"parameter error: {exc}\n")
        return 1
    except GroverWeightError as exc:
        stdout.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except (ValueError, IndexError) as exc:
        stdout.write(f"parameter error: {exc}\n")
        return 1
    except OSError as exc:  # --out or --dump-distribution cannot be written
        stdout.write(f"cannot write {exc.filename}: {exc.strerror}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
