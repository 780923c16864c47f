"""Tests of the benchmark's own oracle and checkers.

    python3 -m pytest -q bench/test_bench.py

The checkers must accept what the program writes today and reject each kind
of corrupted output; the oracle must reproduce the paper's closed forms.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from prstab.cli import main  # noqa: E402
from prstab.matrixio import write_matrix  # noqa: E402


@pytest.mark.parametrize("m", range(3, 16))
def test_oracle_matches_harmonic_lower_constant(m):
    g = 2 / np.sin(np.pi / m) if m % 2 == 0 else 1 / np.sin(np.pi / (2 * m))
    lower, _ = oracle.lower_exact(oracle.harmonic_rows(m))
    assert lower == pytest.approx(np.sqrt(m / 2 - g / 2), rel=1e-10, abs=1e-12)
    assert oracle.abs_sine_sum_grid_max(m) == pytest.approx(g, rel=1e-8)


def test_oracle_lower_is_zero_without_complement_property():
    # rows 0 and 2 span only e1, row 1 only e2: the split {0, 2} | {1} is singular on both sides
    A = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    lower, subset = oracle.lower_exact(A)
    assert lower <= 1e-12
    assert oracle.split_value_sq(A, subset) <= 1e-24


def _run(tmp_path, argv, kind):
    out = tmp_path / f"out.{kind}"
    assert main(argv + [f"--{kind}", str(out)]) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def exact_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exact")
    A = np.random.default_rng(1).standard_normal((9, 2))
    write_matrix(tmp / "a.mat", A)
    text = _run(tmp, ["analyze", "--matrix", str(tmp / "a.mat"), "--method", "exact"], "json")
    return A, checks.parse_json(text), oracle.lower_exact(A)


@pytest.fixture(scope="module")
def numeric_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("numeric")
    rng = np.random.default_rng(2)
    A = (rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))) / np.sqrt(2)
    write_matrix(tmp / "a.mat", A)
    argv = ["analyze", "--matrix", str(tmp / "a.mat"), "--method", "numeric", "--restarts", "8"]
    return A, checks.parse_json(_run(tmp, argv, "json"))


def test_exact_checker_accepts_program_output(exact_case):
    A, payload, exact = exact_case
    checks.check_exact_analyze(A, payload, exact)


def test_exact_checker_rejects_scaled_lower(exact_case):
    A, payload, exact = exact_case
    bad = json.loads(json.dumps(payload))
    bad["lower"] *= 1.001
    with pytest.raises(checks.CheckError, match="lower"):
        checks.check_exact_analyze(A, bad, exact)


def test_exact_checker_rejects_moved_subset_row(exact_case):
    A, payload, exact = exact_case
    bad = json.loads(json.dumps(payload))
    subset = bad["certificate"]["subset"]
    outside = next(i for i in range(A.shape[0] - 1) if i not in subset)
    bad["certificate"]["subset"] = sorted(subset[1:] + [outside])
    with pytest.raises(checks.CheckError, match="subset"):
        checks.check_exact_analyze(A, bad, exact)


def test_exact_checker_rejects_beta_below_floor(exact_case):
    A, payload, exact = exact_case
    bad = json.loads(json.dumps(payload))
    bad["beta"] = oracle.BETA0_REAL * 0.99
    with pytest.raises(checks.CheckError, match="beta"):
        checks.check_exact_analyze(A, bad, exact)


def test_gaussian_checker_rejects_beta_below_floor():
    b0 = oracle.BETA0_COMPLEX
    rows = [
        {"m": m, "trial": 0.0, "U_hat": 1.0, "L_hat": 1 / beta, "beta_hat": beta, "beta_0": b0,
         "excess": beta - b0}
        for m, beta in ((50.0, 3.0), (500.0, 2.5), (5000.0, 0.99 * b0))
    ]
    checks.check_gaussian(rows[:2], True, 2, [50, 500])
    with pytest.raises(checks.CheckError, match="below beta_0"):
        checks.check_gaussian(rows, True, 2, [50, 500, 5000])


def test_numeric_checker_accepts_program_output(numeric_case):
    A, payload = numeric_case
    checks.check_numeric_analyze(A, payload)


def test_numeric_checker_rejects_perturbed_certificate(numeric_case):
    A, payload = numeric_case
    bad = json.loads(json.dumps(payload))
    bad["certificate"]["pair"]["x"][0][0] += 1e-3
    with pytest.raises(checks.CheckError, match="certificate"):
        checks.check_numeric_analyze(A, bad)


def test_numeric_checker_rejects_lower_below_exact(tmp_path):
    A = np.random.default_rng(3).standard_normal((7, 3))
    write_matrix(tmp_path / "a.mat", A)
    argv = ["analyze", "--matrix", str(tmp_path / "a.mat"), "--method", "numeric"]
    payload = checks.parse_json(_run(tmp_path, argv, "json"))
    exact = oracle.lower_exact(A)
    checks.check_numeric_analyze(A, payload, exact)
    with pytest.raises(checks.CheckError, match="exact"):
        checks.check_numeric_analyze(A, payload, (exact[0] * 1.001, exact[1]))


def test_optimize_checker(tmp_path):
    text = _run(tmp_path, ["optimize", "--m", "5", "--restarts", "4", "--seed", "3"], "json")
    payload = checks.parse_json(text)
    checks.check_optimize(payload, 5)
    bad = json.loads(text)
    bad["frame"]["angles"][1] += 0.01
    with pytest.raises(checks.CheckError, match="beta_best"):
        checks.check_optimize(bad, 5)
    bad = json.loads(text)
    bad["improved"] = True
    with pytest.raises(checks.CheckError, match="odd"):
        checks.check_optimize(bad, 5)


def test_harmonic_checker(tmp_path):
    text = _run(tmp_path, ["harmonic", "--m-range", "3..9"], "csv")
    checks.check_harmonic(checks.parse_csv(text, checks.HARMONIC_HEADER), 3, 9)
    rows = checks.parse_csv(text, checks.HARMONIC_HEADER)
    rows[2]["beta_exact"] *= 1 + 1e-6
    with pytest.raises(checks.CheckError, match="beta_exact"):
        checks.check_harmonic(rows, 3, 9)


def test_kernel_and_recover_checkers(tmp_path):
    argv = ["kernel", "--field", "complex", "--grid", "3", "--mc-samples", "20000"]
    out = tmp_path / "k.csv"
    assert main(argv + ["--csv", str(out)]) == 0
    rows = checks.parse_csv(out.read_text(), checks.KERNEL_HEADER)
    checks.check_kernel(rows, {"rows": 3, "flagged": 0}, True)
    rows[-1]["closed_form"] += 1e-6
    with pytest.raises(checks.CheckError, match="pi/2"):
        checks.check_kernel(rows, {"rows": 3, "flagged": 0}, True)

    argv = ["recover", "--gaussian", "200,3", "--noise", "0.0", "--trials", "3"]
    out = tmp_path / "r.csv"
    assert main(argv + ["--csv", str(out)]) == 0
    rows = checks.parse_csv(out.read_text(), checks.RECOVER_HEADER)
    summary = {"trials": 3, "certified": 3, "certified_holds": 3}
    checks.check_recover(rows, summary, noiseless=True)
    rows[0]["holds"] = not rows[0]["holds"]
    with pytest.raises(checks.CheckError, match="holds"):
        checks.check_recover(rows, summary, noiseless=True)


def test_repeat_checker_rejects_one_changed_byte(exact_case):
    _, payload, _ = exact_case
    text = json.dumps(payload)
    checks.check_repeat({"file": text}, {"file": text})
    changed = text[:10] + chr(ord(text[10]) ^ 1) + text[11:]
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_repeat({"file": text}, {"file": changed})


def test_strict_json_rejects_nan():
    with pytest.raises(checks.CheckError, match="NaN"):
        checks.parse_json('{"upper": NaN}')


def test_self_time_subtracts_union_of_children():
    s = [
        spans.Span(1, None, "a", 0.0, 10.0, 1),
        spans.Span(2, 1, "b", 1.0, 4.0, 1),
        spans.Span(3, 1, "c", 3.0, 6.0, 2),  # overlaps b in another thread
    ]
    own = spans.self_times(s)
    assert own == {1: pytest.approx(5.0), 2: pytest.approx(3.0), 3: pytest.approx(3.0)}


def test_tracer_links_pool_tasks_to_their_caller():
    import prstab
    from prstab import workers

    tracer = spans.Tracer()
    tracer.install()
    try:
        prstab.condition_number(np.random.default_rng(4).standard_normal((6, 2)), threads=2)
    finally:
        tracer.uninstall()
    assert not hasattr(workers.run_indexed, "__wrapped__")
    by_id = {s.sid: s for s in tracer.spans}
    task = next(s for s in tracer.spans if s.name.endswith(spans.TASK))
    pool = by_id[task.parent]
    assert pool.name == spans.POOL
    assert by_id[pool.parent].name == "stability.lower_lipschitz_exact_real"
    assert task.name == "stability.lower_lipschitz_exact_real" + spans.TASK
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["workers.run_indexed.tasks"] == 1
    assert metrics["stability.exact_real.d2_s"] > 0


def test_benchmark_json_names_the_metrics_the_run_prints():
    import workloads

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {
        "setup_s": "s",
        **{name: "s" for name in workloads.COMMAND_METRICS},
        "peak_rss_mb": "MB",
    }
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = spans.layer_metrics([])
    assert per_layer == {name: spans.unit(name) for name in printed}
