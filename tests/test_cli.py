import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groverweight import __version__, acceptance, classical, cli, counting, decision, oracle, subspace


def run_cli(argv):
    buf = io.StringIO()
    code = cli.run(argv, stdout=buf)
    return code, buf.getvalue()


def parse_report(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif line.strip():
            cells = line.split(",")
            if header is None:
                header = cells
            else:
                rows.append(cells)
    return meta, header, rows


def test_roots_report_matches_library():
    code, text = run_cli(["roots", "--k", "4"])
    assert code == 0
    meta, header, rows = parse_report(text)
    assert meta["command"] == "roots" and meta["seed"] == "none"
    assert header == ["k", "set", "index", "root"]
    a_expected, b_expected = subspace.roots(4)
    got_a = [float(r[3]) for r in rows if r[1] == "a"]
    got_b = [float(r[3]) for r in rows if r[1] == "b"]
    assert np.allclose(got_a, a_expected, atol=1e-15)
    assert np.allclose(got_b, b_expected, atol=1e-15)


def test_csv_values_carry_15_significant_digits():
    _, text = run_cli(["mu", "--k", "2"])
    _, _, rows = parse_report(text)
    assert rows[0][1] == format(subspace.mu(2), ".15g")


def test_identical_invocations_are_byte_identical():
    first = run_cli(["randomized", "--n", "8", "--k", "2", "--trials", "2000", "--seed", "11"])
    second = run_cli(["randomized", "--n", "8", "--k", "2", "--trials", "2000", "--seed", "11"])
    assert first == second and first[0] == 0


def test_randomized_successes_are_the_seeded_binomial_draw():
    # n = 4, k = 2 decides (6, 10) with exact_p = 0.9765625 < 0.99, so the
    # count is a genuine draw, not trials.
    argv = ["randomized", "--n", "4", "--k", "2", "--trials", "5000", "--seed", "5"]
    code, text = run_cli(argv)
    assert code == 0 and run_cli(argv) == (code, text)
    _, header, rows = parse_report(text)
    assert [int(r[2]) for r in rows] == [6, 10]
    for row in rows:
        t = int(row[2])
        assert float(row[header.index("exact_p")]) < 0.99
        p_sol = abs(subspace.run_schedule(t, 16, subspace.PhaseSchedule.standard(2)).c_sol) ** 2
        p = decision.correct_probability(2, t == 6, 1.0 - p_sol, p_sol)
        assert int(row[header.index("successes")]) == np.random.default_rng(5).binomial(5000, p)
    # one weight alone gives the same row as in the pair
    _, single = run_cli(argv + ["--t", "10"])
    assert parse_report(single)[2] == rows[1:]


def test_json_mirrors_csv_content():
    _, csv_text = run_cli(["compare", "--k", "2"])
    code, json_text = run_cli(["compare", "--k", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(json_text)
    _, header, rows = parse_report(csv_text)
    assert payload["columns"] == header
    assert payload["rows"] == rows
    assert payload["metadata"]["command"] == "compare"


REPORT_COMMANDS = [
    ["roots", "--k", "3"],
    ["mu", "--k-max", "5"],
    ["distinguish", "--n", "4", "--t", "4", "--seed", "3"],
    ["randomized", "--n", "8", "--k", "2", "--trials", "1000", "--seed", "0"],
    ["sure-success", "--n", "6", "--w", "1/4", "--w", "3/10"],
    ["classical", "--k", "3", "--g", "3", "--n", "10", "--trials", "2000"],
    ["counting", "--t", "8", "--n", "4", "--P", "8"],
    ["counting", "plan", "--weights", "4", "6"],
    ["compare", "--k-max", "4"],
]


def test_verify_accepts_every_emitted_report(tmp_path):
    for i, argv in enumerate(REPORT_COMMANDS):
        path = tmp_path / f"report{i}.csv"
        code, _ = run_cli(argv + ["--out", str(path)])
        assert code == 0, argv
        code, text = run_cli(["--verify", str(path)])
        assert code == 0 and text.startswith("valid"), (argv, text)


def test_unwritable_output_is_one_error_line(tmp_path):
    target = tmp_path / "missing" / "x"
    runs = [argv + ["--out", str(target)] for argv in REPORT_COMMANDS]
    runs.append(["distinguish", "--n", "4", "--t", "4", "--dump-distribution", str(target)])
    for argv in runs:
        assert run_cli(argv) == (1, f"cannot write {target}: No such file or directory\n"), argv


def test_verify_rejects_garbage(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("not,a,report\n1,2\n")
    code, text = run_cli(["--verify", str(path)])
    assert code == 1 and text.startswith("invalid")


@pytest.mark.parametrize(
    "content",
    [
        '{"metadata": {"command": "mu", "version": "x"}, "columns": [',
        json.dumps({"metadata": {"command": "mu", "version": "x"}}),
        json.dumps({"metadata": {"command": "mu", "version": "x"}, "columns": ["k"]}),
        json.dumps({"columns": ["k"], "rows": [["1"]]}),
        json.dumps({"metadata": 3, "columns": ["k"], "rows": [["1"]]}),
        json.dumps({"metadata": "command, version", "columns": ["k"], "rows": [["1"]]}),
        json.dumps({"metadata": {"command": "mu", "version": "x"}, "columns": ["k"], "rows": [1]}),
        "# command = mu\n# version = x\n# seed = none\nk\n" + "1" * 200_000 + "\n",
    ],
    ids=["truncated-json", "no-columns", "no-rows", "no-metadata", "scalar-metadata",
         "string-metadata", "scalar-row", "oversized-csv-field"],
)
def test_verify_rejects_malformed_reports(tmp_path, content):
    path = tmp_path / "report.txt"
    path.write_text(content)
    code, text = run_cli(["--verify", str(path)])
    assert (code, text) == (1, f"invalid report: {path}\n")


def test_counting_plan_spelling_routes():
    code, text = run_cli(["counting", "plan", "--weights", "5", "10/3"])
    assert code == 0
    meta, header, rows = parse_report(text)
    assert meta["P"] == "10"
    assert [r[3] for r in rows] == ["2", "3"]


def test_sure_success_human_output():
    code, text = run_cli(["sure-success", "--n", "5", "--w", "11/32"])
    assert code == 0
    assert "theta1" in text and "theta2" in text
    # twelve digits after the decimal point on the phase lines
    theta_line = next(line for line in text.splitlines() if line.startswith("theta1"))
    assert len(theta_line.split("=")[1].strip().split(".")[1]) == 12


def test_exit_code_parameter_error():
    code, _ = run_cli(["roots", "--k", "0"])
    assert code == 1
    code, _ = run_cli(["randomized", "--n", "8", "--k", "0", "--trials", "10", "--seed", "0"])
    assert code == 1


def test_exit_code_promise_error():
    # distinguish on an off-promise weight: support spans both classes
    code, _ = run_cli(["distinguish", "--n", "4", "--t", "7", "--seed", "0"])
    assert code == 2


def test_exit_code_indistinguishable_weight():
    code, _ = run_cli(["sure-success", "--n", "4", "--w", "1/2"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["randomized", "--n", "4", "--k", "2", "--trials", "10", "--threads", "2"],
        ["selftest", "--criteria", "3", "--out", "report.csv"],
        ["selftest", "--criteria", "3", "--format", "json"],
    ],
)
def test_options_without_effect_are_usage_errors(argv):
    code, _ = run_cli(argv)
    assert code == 1


def test_classical_refuses_g_over_budget(monkeypatch):
    def no_tail(*args, **kwargs):
        raise AssertionError("tail terms built before the budget was checked")

    # np.arange builds the terms; the budget check must come first.
    monkeypatch.setattr(classical.np, "arange", no_tail)
    code, text = run_cli(["classical", "--k", "3", "--g", "1000001"])
    assert code == 1
    assert text.startswith("parameter error: g = 1000001")


@pytest.mark.parametrize(
    "argv",
    [
        ["counting", "--t", "8", "--n", "4", "--P", "1000001"],
        ["counting", "plan", "--weights", "101", "103", "107", "109", "113"],
    ],
)
def test_counting_refuses_registers_over_budget(monkeypatch, argv):
    def no_register(*args, **kwargs):
        raise AssertionError("register values built before the budget was checked")

    monkeypatch.setattr(counting.np, "arange", no_register)
    code, text = run_cli(argv)
    assert code == 1
    assert text.startswith("parameter error: register size P = ")


def test_cli_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, groverweight.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_selftest_subset_passes():
    code, text = run_cli(["selftest", "--criteria", "3", "8"])
    assert code == 0
    assert text.count("PASS") == 2
    assert "criterion 3" in text and "criterion 8" in text


def test_selftest_rejects_unknown_criteria_before_running_any(monkeypatch):
    def no_run(number):
        raise AssertionError(f"criterion {number} ran")

    monkeypatch.setattr(acceptance, "run_criterion", no_run)
    code, text = run_cli(["selftest", "--criteria", "3", "42"])
    assert code == 1
    assert text.startswith("parameter error: unknown criteria [42]")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classical", "--k", "5", "--g", "3", "--trials", "-5"], "trials must be >= 0, got -5"),
        (["sure-success", "--n", "0", "--w", "1/3"], "n must be >= 1, got 0"),
    ],
    ids=["classical-negative-trials", "sure-success-n-0"],
)
def test_rows_outside_the_domain_are_parameter_errors(argv, message):
    assert run_cli(argv) == (1, f"parameter error: {message}\n")


def test_distinguish_oracle_hex_round_trip(tmp_path):
    code, text = run_cli(["distinguish", "--n", "4", "--t", "4", "--seed", "2"])
    assert code == 0
    meta, _, rows = parse_report(text)
    code, replay = run_cli(
        ["distinguish", "--n", "4", "--oracle-hex", meta["oracle"], "--seed", "2"]
    )
    assert code == 0
    _, _, replay_rows = parse_report(replay)
    assert replay_rows == rows
    dump = tmp_path / "dist.csv"
    code, _ = run_cli(
        ["distinguish", "--n", "4", "--t", "4", "--seed", "2", "--dump-distribution", str(dump)]
    )
    assert code == 0
    code, text = run_cli(["--verify", str(dump)])
    assert code == 0 and text.startswith("valid")


def test_counting_plan_reports_cost_comparison():
    code, text = run_cli(["counting", "plan", "--weights", "5", "10/3"])
    assert code == 0
    meta, _, _ = parse_report(text)
    assert meta["counting_calls"] == "9"
    assert meta["weight_decision_calls"] == "3"


def test_counting_accepts_fractional_weight():
    size = 32
    t = size * math.sin(math.pi / 5) ** 2
    code, text = run_cli(["counting", "--t", str(t), "--n", "5", "--P", "10"])
    assert code == 0
    _, _, rows = parse_report(text)
    probs = {int(r[0]): float(r[1]) for r in rows}
    assert probs[2] == pytest.approx(0.5, abs=1e-12)
    assert probs[8] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_randomized_rejects_non_positive_trials(monkeypatch, trials):
    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle built before the trial count was checked")

    monkeypatch.setattr(cli, "make_random_oracle", no_oracle)
    code, text = run_cli(["randomized", "--n", "8", "--k", "2", "--trials", trials, "--seed", "0"])
    assert code == 1
    assert text.startswith("parameter error: trials")


def test_randomized_builds_no_truth_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("randomized built a truth table")

    monkeypatch.setattr(cli, "make_random_oracle", no_table)
    monkeypatch.setattr(oracle, "make_random_oracle", no_table)
    code, text = run_cli(["randomized", "--n", "24", "--k", "5"])
    assert code == 0 and parse_report(text)[0]["n"] == "24"
    assert run_cli(["randomized", "--n", "25", "--k", "5"]) == (
        1,
        "parameter error: n must be in [1, 24], got 25\n",
    )


README_RANDOMIZED = """\
# command = randomized
# version = *
# n = 12
# k = 5
# trials = 100000
# seed = 1
n,k,true_t,trials,successes,exact_p,bound_p
12,5,1757,100000,100000,0.999998437064176,0.999862670898438
12,5,2339,100000,100000,0.999998437064176,0.999862670898438
"""


def test_readme_randomized_command_prints_the_0_5_0_bytes():
    code, text = run_cli(["randomized", "--n", "12", "--k", "5", "--trials", "100000", "--seed", "1"])
    assert code == 0
    assert re.sub(r"^# version = .*$", "# version = *", text, flags=re.M) == README_RANDOMIZED


def test_package_and_project_versions_agree():
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1) == __version__
