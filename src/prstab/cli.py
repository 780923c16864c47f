"""Command-line surface: analyze, harmonic, gaussian, kernel, recover, optimize.

Every command that takes --seed is bit-deterministic across runs and worker
counts.  Exit codes: 0 success, 2 precondition or bad configuration, 3 file
or parse errors.  Numbers are serialized with shortest round-trip decimal
formatting; an infinite condition number is written as the string "inf".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .gaussian import (
    GaussianExperiment,
    gaussian_beta_experiment,
    kernel_expectation_bound,
    kernel_expectation_complex,
    kernel_expectation_real,
    mc_kernel_expectation,
)
from .harmonic import (
    abs_sine_sum_max,
    harmonic_condition_number,
    harmonic_frame,
)
from .linalg import Field, FieldMismatchError
from .matrixio import MatrixFormatError, format_float, read_matrix
from .recovery import (
    ConditioningError,
    check_error_bound,
    make_gaussian_problem,
    make_problem_for_matrix,
    solve_quadratic_model,
)
from .stability import (
    FRAME_ROW_CAP,
    METHOD_EXACT,
    METHOD_NUMERIC,
    EnumerationCapError,
    PairCertificate,
    condition_number,
    optimize_frame_r2,
    real_beta_lower_bound,
)
from .workers import resolve_threads

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if np.isinf(x):
        return "inf"
    return format_float(x)


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else _fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            return [[float(v.real), float(v.imag)] for v in x]
        return [float(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return "inf" if np.isinf(x) else x
    return x


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_m_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(f"bad --m-range {text!r}, expected A..B")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"bad --m-range {text!r}, expected integers") from None
    if lo < 3 or hi < lo:
        raise ConfigError(f"need 3 <= A <= B, got {text!r}")
    return lo, hi


def _parse_field(name: str) -> Field:
    try:
        return Field(name)
    except ValueError:
        raise ConfigError(f"unknown field {name!r}, expected real or complex") from None


# ---------------------------------------------------------------- commands


def cmd_analyze(args) -> int:
    if args.restarts < 1:
        raise ConfigError(f"--restarts must be >= 1, got {args.restarts}")
    A = read_matrix(args.matrix)
    method = METHOD_EXACT if args.method == "exact" else METHOD_NUMERIC
    threads = resolve_threads(args.threads)
    report = condition_number(
        A, method=method, restarts=args.restarts, seed=args.seed, threads=threads
    )
    cert = report.lower_certificate
    if isinstance(cert, PairCertificate):
        certificate = {
            "pair": {
                "x": cert.x,
                "y": cert.y,
                "ratio": cert.ratio,
                "iterations": cert.iterations,
                "evaluations": cert.evaluations,
                "restarts": cert.restarts,
                "stop_reason": cert.stop_reason,
            }
        }
    else:
        certificate = {"subset": list(cert)}
    payload = {
        "upper": report.upper,
        "lower": report.lower,
        "beta": report.beta,
        "method": report.method,
        "certificate": certificate,
        "bounds": {
            "beta0": report.bounds["beta0"],
            "real_md_bound": report.bounds.get("real_md_bound"),
        },
        "tool_version": __version__,
        "seed": args.seed,
    }
    _write_json(args.json, payload)
    return EXIT_OK


def cmd_harmonic(args) -> int:
    lo, hi = _parse_m_range(args.m_range)
    resolve_threads(args.threads)  # validated only: the exact d = 2 path runs serially
    rows = []
    for m in range(lo, hi + 1):
        gmax, theta_star = abs_sine_sum_max(m)
        rows.append(
            [
                m,
                harmonic_condition_number(m),
                condition_number(harmonic_frame(m).matrix, METHOD_EXACT).beta,
                real_beta_lower_bound(m),
                gmax,
                theta_star,
            ]
        )
    _write_csv(
        args.csv, ["m", "beta_closed", "beta_exact", "md_lower_bound", "g_max", "theta_star"], rows
    )
    return EXIT_OK


def cmd_gaussian(args) -> int:
    field = _parse_field(args.field)
    try:
        m_values = tuple(int(v) for v in args.m.split(","))
    except ValueError:
        raise ConfigError(f"bad --m list {args.m!r}") from None
    try:
        cfg = GaussianExperiment(
            field=field, d=args.d, m_values=m_values, trials=args.trials, seed=args.seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    threads = resolve_threads(args.threads)
    table = gaussian_beta_experiment(cfg, threads=threads)
    rows = [[r.m, r.trial, r.upper, r.lower, r.beta, r.beta_floor, r.excess] for r in table]
    _write_csv(args.csv, ["m", "trial", "U_hat", "L_hat", "beta_hat", "beta_0", "excess"], rows)
    return EXIT_OK


def cmd_kernel(args) -> int:
    field = _parse_field(args.field)
    if args.grid < 2:
        raise ConfigError("--grid must be >= 2")
    if args.mc_samples < 1000:
        raise ConfigError("--mc-samples must be >= 1000")
    thetas = np.linspace(0.0, np.pi / 2, args.grid)
    rows = []
    flagged = 0
    for i, theta in enumerate(thetas):
        if field is Field.REAL:
            closed = kernel_expectation_real(theta)
        else:
            closed = kernel_expectation_complex(theta)
        est, se = mc_kernel_expectation(field, theta, args.mc_samples, args.seed, stream=i)
        if abs(closed - est) > 4 * se:
            flagged += 1
        rows.append([theta, closed, est, se, kernel_expectation_bound(field, theta)])
    _write_csv(args.csv, ["theta", "closed_form", "mc_estimate", "mc_se", "bound"], rows)
    if args.csv:
        sys.stdout.write(f"rows={len(rows)} flagged={flagged}\n")
    return EXIT_OK


def cmd_recover(args) -> int:
    if not (0 < args.delta <= 0.05):
        raise ConfigError(f"--delta must lie in (0, 0.05], got {args.delta}")
    if args.noise < 0:
        raise ConfigError("--noise must be >= 0")
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if (args.matrix is None) == (args.gaussian is None):
        raise ConfigError("exactly one of --matrix or --gaussian is required")
    matrix = None
    if args.matrix is not None:
        matrix = read_matrix(args.matrix)
    else:
        try:
            m_str, d_str = args.gaussian.split(",")
            gm, gd = int(m_str), int(d_str)
        except ValueError:
            raise ConfigError(f"bad --gaussian {args.gaussian!r}, expected m,d") from None
        if gm < 1 or gd < 1:
            raise ConfigError("--gaussian sizes must be >= 1")
    field = _parse_field(args.field)

    resolve_threads(args.threads)  # validated only: recovery runs its starts serially
    rows = []
    certified = 0
    holds = 0
    for trial in range(args.trials):
        if matrix is not None:
            problem = make_problem_for_matrix(matrix, args.noise, args.seed, stream=trial)
        else:
            problem = make_gaussian_problem(gm, gd, field, args.noise, args.seed, stream=trial)
        result = solve_quadratic_model(problem, restarts=args.restarts, seed=args.seed + trial)
        bound = check_error_bound(result, problem, delta=args.delta)
        certified += int(result.certified)
        holds += int(result.certified and bound["holds"])
        rows.append(
            [
                trial,
                result.residual,
                result.certified,
                bound["achieved"],
                bound["bound"],
                bound["holds"],
            ]
        )
    _write_csv(args.csv, ["trial", "residual", "certified", "dist", "bound", "holds"], rows)
    if args.csv:
        rate = holds / certified if certified else 0.0
        sys.stdout.write(
            f"trials={args.trials} certified={certified} certified_holds={holds} "
            f"holds_rate={_fmt(rate)}\n"
        )
    return EXIT_OK


def cmd_optimize(args) -> int:
    if not (3 <= args.m <= FRAME_ROW_CAP):
        raise ConfigError(f"--m must lie in [3, {FRAME_ROW_CAP}], got {args.m}")
    if args.restarts < 1:
        raise ConfigError(f"--restarts must be >= 1, got {args.restarts}")
    frame, beta_best = optimize_frame_r2(args.m, restarts=args.restarts, seed=args.seed)
    beta_harm = harmonic_condition_number(args.m)
    payload = {
        "m": args.m,
        "beta_best": beta_best,
        "beta_harmonic": beta_harm,
        "improved": bool(beta_best < beta_harm - 1e-6),
        "frame": {"radii": frame.radii, "angles": frame.angles},
        "restarts": args.restarts,
        "seed": args.seed,
        "tool_version": __version__,
    }
    _write_json(args.json, payload)
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prstab",
        description="Stability certificates for phase-retrieval measurement matrices.",
    )
    parser.add_argument("--version", action="version", version=f"prstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p, text="worker pool size (default: PRSTAB_THREADS or logical cores)"):
        p.add_argument("--threads", type=int, default=None, help=text)

    p = sub.add_parser("analyze", help="condition number of a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=["exact", "numeric"], default="exact")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="output path (default: stdout)")
    add_threads(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("harmonic", help="closed-form table for equidistant frames")
    p.add_argument("--m-range", required=True, help="inclusive range A..B")
    p.add_argument("--csv", default=None, help="output path (default: stdout)")
    add_threads(p, "accepted and validated; does not affect harmonic, whose d = 2 path is serial")
    p.set_defaults(fn=cmd_harmonic)

    p = sub.add_parser("gaussian", help="condition-number sweep over Gaussian matrices")
    p.add_argument("--field", choices=["real", "complex"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", required=True, help="comma-separated strictly increasing row counts")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    add_threads(p)
    p.set_defaults(fn=cmd_gaussian)

    p = sub.add_parser("kernel", help="kernel expectation: closed form vs Monte Carlo")
    p.add_argument("--field", choices=["real", "complex"], required=True)
    p.add_argument("--grid", type=int, default=7, help="theta points on [0, pi/2]")
    p.add_argument("--mc-samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("recover", help="magnitude least-squares recovery trials")
    p.add_argument("--matrix", default=None)
    p.add_argument("--gaussian", default=None, help="m,d for a fresh Gaussian matrix per run")
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--noise", type=float, default=0.1, help="noise norm relative to ||b||")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--csv", default=None)
    add_threads(p, "accepted and validated; does not affect recover, which runs serially")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("optimize", help="search for the best m x 2 real frame")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--restarts", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MatrixFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        ConfigError,
        EnumerationCapError,
        FieldMismatchError,
        ConditioningError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
