"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are fixed here and match the package contracts.
"""

import time

import numpy as np

from prstab import (
    Field,
    GaussianExperiment,
    abs_sine_sum,
    abs_sine_sum_max,
    check_error_bound,
    condition_number,
    dist_batch,
    gaussian_beta_experiment,
    harmonic_condition_number,
    harmonic_frame,
    kernel_expectation_bound,
    kernel_expectation_complex,
    kernel_expectation_real,
    lower_lipschitz_exact_real,
    lower_lipschitz_numeric,
    make_gaussian_problem,
    mc_kernel_expectation,
    real_beta_lower_bound,
    sample_gaussian_matrix,
    solve_quadratic_model,
    split_bound,
    universal_lower_bound,
    upper_lipschitz,
)
from prstab.cli import main
from prstab.linalg import top_right_singular_vector
from prstab.stability import METHOD_EXACT, METHOD_NUMERIC

BETA0_REAL = universal_lower_bound(Field.REAL)
BETA0_COMPLEX = universal_lower_bound(Field.COMPLEX)


def report(cid: str, name: str, ok: bool, detail: str = ""):
    line = f"[{cid}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_01_harmonic_exactness():
    worst = 0.0
    slowest = 0.0
    for m in range(3, 16):
        t0 = time.perf_counter()
        rep = condition_number(harmonic_frame(m).matrix, METHOD_EXACT)
        elapsed = time.perf_counter() - t0
        worst = max(worst, abs(rep.beta - harmonic_condition_number(m)))
        slowest = max(slowest, elapsed)
    report(
        "A01",
        "exact enumeration matches the closed-form harmonic condition number",
        worst <= 1e-9 and slowest < 1.0,
        f"worst |diff|={worst:.2e}, slowest={slowest:.3f}s",
    )


def test_02_odd_m_optimality_equality():
    worst = max(
        abs(harmonic_condition_number(m) - real_beta_lower_bound(m)) for m in range(3, 16, 2)
    )
    anchor = abs(harmonic_condition_number(3) - np.sqrt(3))
    report(
        "A02",
        "odd-m harmonic frames attain the row-count lower bound",
        worst <= 1e-12 and anchor <= 1e-12,
        f"worst |diff|={worst:.2e}, m=3 anchor diff={anchor:.2e}",
    )


def test_03_universal_lower_bound(real_corpus, complex_corpus):
    worst_real = np.inf
    worst_md_slack = np.inf
    for A in real_corpus:
        rep = condition_number(A, METHOD_EXACT)
        worst_real = min(worst_real, rep.beta - BETA0_REAL)
        worst_md_slack = min(worst_md_slack, rep.beta - real_beta_lower_bound(A.shape[0]))
    worst_complex = np.inf
    for i, A in enumerate(complex_corpus):
        rep = condition_number(A, METHOD_NUMERIC, restarts=32, seed=i)
        worst_complex = min(worst_complex, rep.beta - BETA0_COMPLEX)
    report(
        "A03",
        f"beta floors on {len(real_corpus)} real + {len(complex_corpus)} complex matrices",
        worst_real >= -1e-6 and worst_md_slack >= -1e-9 and worst_complex >= -1e-6,
        f"min real excess={worst_real:.4f}, min md excess={worst_md_slack:.4f}, "
        f"min complex excess={worst_complex:.4f}",
    )


def test_04_bracket_property(real_corpus):
    ok = True
    worst_gap = 0.0
    for A in real_corpus:
        sigma = split_bound(A)
        delta, _ = lower_lipschitz_exact_real(A)
        ok &= sigma <= delta + 1e-12 and delta <= np.sqrt(2) * sigma + 1e-9
        worst_gap = max(worst_gap, delta - np.sqrt(2) * sigma)
    report(
        "A04",
        "split bound sandwiches the exact lower constant within sqrt(2)",
        ok,
        f"max (delta - sqrt2*sigma)={worst_gap:.2e} over {len(real_corpus)} matrices",
    )


def test_05_oracle_equivalence():
    rng = np.random.default_rng(515)
    t0 = time.perf_counter()
    worst_rel = 0.0
    for i in range(50):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2 * d - 1, 9))
        A = rng.standard_normal((m, d))
        exact, _ = lower_lipschitz_exact_real(A)
        numeric, _ = lower_lipschitz_numeric(A, restarts=32, max_iters=1500, tol=1e-6, seed=i)
        worst_rel = max(worst_rel, abs(numeric - exact) / max(exact, 1e-300))
    elapsed = time.perf_counter() - t0
    report(
        "A05",
        "numeric minimization reproduces the exact subset oracle",
        worst_rel <= 1e-4 and elapsed < 10.0,
        f"worst rel err={worst_rel:.2e}, total={elapsed:.2f}s over 50 instances",
    )


def _grid_refined_max(m: int) -> tuple[float, float]:
    """Independent maximization of the direct sum: dense grid + golden section."""
    theta = np.linspace(0.0, np.pi, 20000, endpoint=False)
    vals = abs_sine_sum(m, theta)
    k = int(np.argmax(vals))
    lo, hi = theta[k] - np.pi / 20000, theta[k] + np.pi / 20000
    invphi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, e = b - invphi * (b - a), a + invphi * (b - a)
    fc, fe = abs_sine_sum(m, c), abs_sine_sum(m, e)
    for _ in range(200):
        if b - a < 1e-13:
            break
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = abs_sine_sum(m, c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = abs_sine_sum(m, e)
    t_star = c if fc > fe else e
    return float(max(fc, fe)), float(t_star)


def test_06_abs_sine_sum_maxima():
    worst_val = 0.0
    worst_loc = 0.0
    worst_grid = 0.0
    for m in range(3, 41):
        found_max, found_at = _grid_refined_max(m)
        closed_max, closed_at = abs_sine_sum_max(m)
        period = np.pi / m if m % 2 == 0 else np.pi / (2 * m)
        loc_err = abs((found_at - closed_at + period / 2) % period - period / 2)
        worst_val = max(worst_val, abs(found_max - closed_max))
        worst_loc = max(worst_loc, loc_err)
        theta = np.linspace(0.0, np.pi, 10**4)
        from prstab import abs_sine_sum_closed

        worst_grid = max(
            worst_grid, float(np.abs(abs_sine_sum(m, theta) - abs_sine_sum_closed(m, theta)).max())
        )
    report(
        "A06",
        "closed-form maxima and identities for the absolute sine sum",
        worst_val <= 1e-8 and worst_loc <= 1e-6 and worst_grid <= 1e-10,
        f"max value err={worst_val:.2e}, max location err={worst_loc:.2e}, "
        f"max grid err={worst_grid:.2e}",
    )


def test_07_kernel_expectations():
    t0 = time.perf_counter()
    thetas = [k * np.pi / 12 for k in range(7)]
    ok = True
    worst_z = 0.0
    for field in (Field.REAL, Field.COMPLEX):
        estimates, ses = mc_kernel_expectation(field, thetas, 10**6, seed=1234)
        for t, est, se in zip(thetas, estimates, ses):
            closed = (
                kernel_expectation_real(t)
                if field is Field.REAL
                else kernel_expectation_complex(t)
            )
            z = abs(est - closed) / se
            worst_z = max(worst_z, z)
            ok &= z <= 4.0
            ok &= closed <= kernel_expectation_bound(field, t) + 1e-8
    tight_real = abs(kernel_expectation_real(np.pi / 2) - 2 / np.pi)
    tight_complex = abs(kernel_expectation_complex(np.pi / 2) - np.pi / 4)
    elapsed = time.perf_counter() - t0
    ok &= tight_real <= 1e-12 and tight_complex <= 1e-15 and elapsed < 30.0
    report(
        "A07",
        "kernel expectation closed forms vs Monte Carlo and tightness points",
        ok,
        f"worst |z|={worst_z:.2f}, tight real={tight_real:.1e}, "
        f"tight complex={tight_complex:.1e}, total={elapsed:.1f}s",
    )


def test_08_gaussian_asymptotics():
    t0 = time.perf_counter()
    ranges = {Field.REAL: (1.6589, 1.80), Field.COMPLEX: (2.1586, 2.35)}
    ok = True
    details = []
    for field in (Field.REAL, Field.COMPLEX):
        cfg = GaussianExperiment(field, 2, (50, 500, 5000), 10, seed=808)
        rows = gaussian_beta_experiment(cfg)
        lo, hi = ranges[field]
        at_5000 = [r.beta for r in rows if r.m == 5000]
        ok &= all(lo <= b <= hi for b in at_5000)
        medians = [
            float(np.median([r.excess for r in rows if r.m == m])) for m in cfg.m_values
        ]
        ok &= all(a > b for a, b in zip(medians, medians[1:]))
        details.append(
            f"{field.value}: beta(5000) in [{min(at_5000):.4f}, {max(at_5000):.4f}], "
            f"median excess {['%.4f' % v for v in medians]}"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(
        "A08",
        "Gaussian ensembles approach the universal floor as m grows",
        ok,
        "; ".join(details) + f"; total={elapsed:.0f}s",
    )


def test_09_recovery_bound():
    t0 = time.perf_counter()
    certified = 0
    held = 0
    for trial in range(100):
        problem = make_gaussian_problem(500, 5, Field.REAL, noise_level=0.1, seed=909, stream=trial)
        result = solve_quadratic_model(problem, seed=trial)
        if result.certified:
            certified += 1
            held += check_error_bound(result, problem, delta=0.05)["holds"]
    noiseless_ok = True
    for trial in range(5):
        problem = make_gaussian_problem(500, 5, Field.REAL, noise_level=0.0, seed=910, stream=trial)
        result = solve_quadratic_model(problem, seed=trial)
        noiseless_ok &= result.dist_to_truth <= 1e-8
    elapsed = time.perf_counter() - t0
    rate = held / certified if certified else 0.0
    report(
        "A09",
        "recovery error bound holds on certified noisy trials",
        certified >= 50 and rate >= 0.95 and noiseless_ok and elapsed < 120.0,
        f"certified={certified}/100, holds rate={rate:.3f}, total={elapsed:.0f}s",
    )


def test_10_upper_attainment(real_corpus, complex_corpus):
    rng = np.random.default_rng(1010)
    ok = True
    worst_attain = 0.0
    worst_excess = -np.inf
    for A in real_corpus + complex_corpus:
        m, d = A.shape
        upper = upper_lipschitz(A)
        x = top_right_singular_vector(A)
        attained = float(np.linalg.norm(np.abs(A @ x)))
        worst_attain = max(worst_attain, abs(attained - upper))
        cplx = np.iscomplexobj(A)
        X = rng.standard_normal((d, 10**4))
        Y = rng.standard_normal((d, 10**4))
        if cplx:
            X = X + 1j * rng.standard_normal((d, 10**4))
            Y = Y + 1j * rng.standard_normal((d, 10**4))
        num = np.linalg.norm(np.abs(A @ X) - np.abs(A @ Y), axis=0)
        den = dist_batch(X, Y)
        good = den > 1e-9
        excess = float((num[good] / den[good]).max() - upper)
        worst_excess = max(worst_excess, excess)
        ok &= abs(attained - upper) <= 1e-9 and excess <= 1e-9
    report(
        "A10",
        "spectral norm is attained and never exceeded by sampled pairs",
        ok,
        f"worst attainment err={worst_attain:.2e}, worst sampled excess={worst_excess:.2e}",
    )


def _run_cli_capture(tmp_path, capsys, tag, argv_builder):
    """Run a CLI command twice at 1 and 4 threads; return the four byte outputs."""
    outputs = []
    for threads in (1, 4):
        for run in (0, 1):
            out_file = tmp_path / f"{tag}-{threads}-{run}.out"
            argv = argv_builder(str(out_file)) + ["--threads", str(threads)]
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, f"{tag}: exit {code}: {captured.err}"
            outputs.append(out_file.read_bytes() + captured.out.encode())
    return outputs


def test_11_cli_determinism(tmp_path, capsys):
    from prstab import write_matrix

    matrix_path = tmp_path / "seed-matrix.mat"
    write_matrix(matrix_path, sample_gaussian_matrix(7, 3, Field.COMPLEX, seed=3))
    commands = {
        "analyze": lambda out: [
            "analyze", "--matrix", str(matrix_path), "--method", "numeric",
            "--seed", "11", "--json", out,
        ],
        "harmonic": lambda out: ["harmonic", "--m-range", "3..8", "--csv", out],
        "gaussian": lambda out: [
            "gaussian", "--field", "real", "--d", "2", "--m", "20,40",
            "--trials", "2", "--seed", "11", "--csv", out,
        ],
        "kernel": lambda out: [
            "kernel", "--field", "real", "--grid", "3", "--mc-samples", "2000",
            "--seed", "11", "--csv", out,
        ],
        "recover": lambda out: [
            "recover", "--gaussian", "40,3", "--noise", "0.1", "--trials", "2",
            "--seed", "11", "--csv", out,
        ],
        "optimize": lambda out: [
            "optimize", "--m", "3", "--restarts", "8", "--seed", "11", "--json", out,
        ],
    }
    # optimize takes no --threads flag
    threadless = {"optimize"}
    ok = True
    failures = []
    for tag, builder in commands.items():
        if tag in threadless:
            outs = []
            for run in (0, 1):
                out_file = tmp_path / f"{tag}-{run}.out"
                code = main(builder(str(out_file)))
                captured = capsys.readouterr()
                assert code == 0, captured.err
                outs.append(out_file.read_bytes() + captured.out.encode())
            same = outs[0] == outs[1]
        else:
            outs = _run_cli_capture(tmp_path, capsys, tag, builder)
            same = len(set(outs)) == 1
        ok &= same
        if not same:
            failures.append(tag)
    report(
        "A11",
        "seeded CLI commands are byte-identical across runs and thread counts",
        ok,
        "all commands stable" if ok else f"unstable: {failures}",
    )
