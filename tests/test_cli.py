import errno
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groverweight import __version__, acceptance, classical, cli, counting, decision, oracle, subspace, sure_success


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


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that refuses writes")
def test_failed_write_to_a_report_file_names_the_file():
    # open succeeds and the write fails, so the error carries no file name of its own
    for argv in (
        ["mu", "--k-max", "5", "--out", "/dev/full"],
        ["distinguish", "--n", "4", "--t", "4", "--dump-distribution", "/dev/full"],
    ):
        assert run_cli(argv) == (1, "cannot write /dev/full: No space left on device\n"), argv


class _ClosedStream(io.StringIO):
    """A report stream whose every write fails with the given error."""

    def __init__(self, error):
        super().__init__()
        self.error, self.writes = error, 0

    def write(self, text):
        self.writes += 1
        raise self.error


def test_closed_report_stream_ends_the_run_quietly():
    stream = _ClosedStream(BrokenPipeError(errno.EPIPE, "Broken pipe"))
    assert cli.run(["mu", "--k-max", "5"], stdout=stream) == 1
    assert stream.writes == 1  # no "cannot write" line after the failed one
    # only errors that name a file are reported as "cannot write <file>"
    stream = _ClosedStream(OSError(errno.ENOSPC, "No space left on device"))
    with pytest.raises(OSError, match="No space left"):
        cli.run(["mu", "--k-max", "5"], stdout=stream)
    assert stream.writes == 1


def test_pipe_closed_after_one_line_exits_1_without_traceback(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    with open(tmp_path / "stderr", "w+b") as err:
        # about 2 MB of rows, far more than a pipe buffers
        proc = subprocess.Popen(
            [sys.executable, "-m", "groverweight.cli", "mu", "--k-max", "100000"],
            env={"PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=err,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        err.seek(0)
        stderr = err.read().decode()
    assert first == b"# command = mu\n"
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


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
        ["classical", "--k", "5", "--g", "25", "--exponent", "2"],
    ],
)
def test_options_without_effect_are_usage_errors(argv):
    code, _ = run_cli(argv)
    assert code == 1


def test_classical_refuses_g_over_budget(monkeypatch):
    def no_tail(*args, **kwargs):
        raise AssertionError("tail terms built before the budget was checked")

    # _vote_error builds the terms; the budget check must come first.
    monkeypatch.setattr(classical, "_vote_error", no_tail)
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

    # counting imports numpy inside the functions that build arrays
    monkeypatch.setattr(np, "arange", no_register)
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


def test_no_source_file_imports_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    importers = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if re.search(r"^\s*(import|from)\s+scipy\b", path.read_text(encoding="utf-8"), re.M)
    ]
    assert importers == []


NUMPY_FREE_PROBE = """
import io, sys
from groverweight import cli
loaded = ["import"] if "numpy" in sys.modules else []
report = sys.argv[1]
for argv in (
    ["mu", "--k-max", "10"],
    ["roots", "--k", "10"],
    ["compare", "--k-max", "10"],
    ["sure-success", "--n", "5", "--w", "11/32"],
    ["sure-success", "--n", "5", "--w", "11/32", "--w", "1/3", "--format", "json"],
    ["counting", "plan", "--weights", "5", "10/3"],
    ["counting-plan", "--weights", "7", "--multiplier", "3"],
    ["classical", "--k", "51", "--exponent", "1", "--exponent", "2", "--n", "12"],
    ["mu", "--k-max", "10", "--out", report],
    ["--verify", report],
):
    assert cli.run(argv, io.StringIO()) == 0, argv
    if "numpy" in sys.modules:
        loaded.append(" ".join(argv))
print(loaded)
"""


def test_closed_form_commands_leave_numpy_unloaded(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_PROBE, str(tmp_path / "mu.csv")],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves_lazily():
    import groverweight

    for name in groverweight.__all__:
        value = groverweight.__getattr__(name)
        if name in groverweight._SUBMODULES:
            assert value is sys.modules[f"groverweight.{name}"]
        else:
            assert value is getattr(sys.modules[f"groverweight.{groverweight._SOURCE[name]}"], name)
    assert set(groverweight.__all__) <= set(dir(groverweight))
    with pytest.raises(AttributeError, match="no_such_name"):
        groverweight.no_such_name


@pytest.mark.parametrize(
    "argv, message",
    [
        (["roots", "--k", "100000000"], "k = 100000000 needs 200000000 rows, over the budget MAX_ROWS = 1000000"),
        (["mu", "--k-max", "100000000"], "k_max = 100000000 needs 100000000 rows, over the budget MAX_ROWS = 1000000"),
        (["compare", "--k-max", "100000000"], "k_max = 100000000 needs 100000000 rows, over the budget MAX_ROWS = 1000000"),
        (["sure-success", "--n", "2000", "--w", "1/3"], "n = 2000 exceeds the budget MAX_N = 1023: 2^n overflows a float"),
        (["counting", "--t", "8", "--n", "2000", "--P", "8"], "n = 2000 exceeds the budget MAX_N = 1023: 2^n overflows a float"),
        (["classical", "--k", "5", "--n", "2000"], "n = 2000 exceeds the budget MAX_N = 1023: 2^n overflows a float"),
        (["mu", "--k-max", "0"], "k_max must be >= 1, got 0"),
        (["compare", "--k-max", "0"], "k_max must be >= 1, got 0"),
        (["compare", "--k-max", "-3"], "k_max must be >= 1, got -3"),
    ],
    ids=["roots", "mu", "compare", "sure-success", "counting", "classical", "mu-0", "compare-0", "compare-negative"],
)
def test_oversized_inputs_are_refused_before_any_row(monkeypatch, argv, message):
    def no_row(*args, **kwargs):
        raise AssertionError("a row was computed before the budget was checked")

    for module, name in (
        (subspace, "roots"),
        (subspace, "mu"),
        (sure_success, "plan_for_weight"),
        (counting, "cost_comparison"),
        (counting, "counting_distribution"),
        (classical, "error_probability"),
    ):
        monkeypatch.setattr(module, name, no_row)
    assert run_cli(argv) == (1, f"parameter error: {message}\n")


def test_budgets_admit_their_boundary(monkeypatch):
    monkeypatch.setattr(cli, "MAX_ROWS", 10)
    assert run_cli(["mu", "--k-max", "10"])[0] == 0
    assert run_cli(["compare", "--k-max", "10"])[0] == 0
    assert run_cli(["roots", "--k", "5"])[0] == 0
    for argv in (["mu", "--k-max", "11"], ["compare", "--k-max", "11"], ["roots", "--k", "6"]):
        assert run_cli(argv)[0] == 1
    code, text = run_cli(["sure-success", "--n", str(cli.MAX_N), "--w", "1/3", "--format", "json"])
    assert code == 0 and json.loads(text)["metadata"]["n"] == "1023"


def test_classical_trials_build_no_table_so_n_may_pass_24():
    code, text = run_cli(["classical", "--k", "3", "--g", "3", "--n", "30", "--trials", "10"])
    assert code == 0
    _, header, rows = parse_report(text)
    assert len(rows) == 1 and len(rows[0]) == len(header)
    wrong = float(rows[0][header.index("E_empirical")]) * 10
    assert wrong == round(wrong) and 0 <= wrong <= 10


def test_randomized_prints_a_clamped_bound_at_small_n():
    code, text = run_cli(["randomized", "--n", "3", "--k", "5"])
    assert code == 0
    _, header, rows = parse_report(text)
    assert [row[header.index("bound_p")] for row in rows] == ["0", "0"]


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

    monkeypatch.setattr(oracle, "make_random_oracle", no_oracle)
    code, text = run_cli(["randomized", "--n", "8", "--k", "2", "--trials", trials, "--seed", "0"])
    assert code == 1
    assert text.startswith("parameter error: trials")


def test_randomized_builds_no_truth_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("randomized built a truth table")

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
