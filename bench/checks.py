"""Output checks for every command the benchmark runs.

Each checker takes the parsed output of one command and the inputs the
benchmark generated, and raises `CheckError` on the first violation.  The
references are the brute-force oracle, the paper's floors and closed forms,
and the direction of each bound; no stored copy of earlier output is used.
Tolerances on Lipschitz constants are scaled by the upper constant U.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle

REL = 1e-9  # agreement of two computations of one constant, relative to U
FLOOR_SLACK = 1e-9  # relative slack when comparing beta to a floor
NUMERIC_EXACT_TOL = 1e-4  # numeric lower constant within this share of exact (test A05)
GAUSSIAN_BAND = {False: (1.6589, 1.80), True: (2.1586, 2.35)}  # beta_hat at m=5000 (test A08)
NOISELESS_DIST = 1e-8
HOLDS_SLACK = 1e-10
MIN_CERTIFIED_SHARE = 0.5  # test A09
MIN_HOLDS_SHARE = 0.95  # test A09
HARMONIC_CAP = 24  # rows up to which `harmonic` must report beta_exact
HARMONIC_GRID_TOL = 1e-8


class CheckError(AssertionError):
    """An output of the program violates a reference property."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _reject_constant(name: str):
    raise CheckError(f"invalid JSON constant {name}")


def parse_json(text: str) -> dict:
    """Strict JSON: NaN and Infinity are not JSON, so they are errors."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"bad CSV cell {text!r}") from None
    require(not math.isnan(value), "NaN in CSV output")
    return value


def parse_csv(text: str, header: list[str]) -> list[dict]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == ",".join(header), f"CSV header is not {header}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        require(len(cells) == len(header), f"CSV row has {len(cells)} cells: {line!r}")
        rows.append({k: _cell(c) for k, c in zip(header, cells)})
    require(bool(rows), "CSV has no rows")
    return rows


def parse_summary(stdout: str) -> dict:
    """key=value pairs of the one summary line a CSV command prints."""
    lines = stdout.splitlines()
    require(len(lines) == 1, f"expected one summary line on stdout, got {stdout!r}")
    out = {}
    for item in lines[0].split():
        key, sep, value = item.partition("=")
        require(bool(sep), f"bad summary item {item!r}")
        out[key] = float(value)
    return out


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _check_beta(payload: dict, floor: float) -> None:
    upper, lower, beta = payload["upper"], payload["lower"], payload["beta"]
    require(0 < lower <= upper * (1 + REL), f"need 0 < lower <= upper, got {lower}, {upper}")
    require(_close(beta, upper / lower, 1e-12 * beta), f"beta {beta} != upper/lower")
    require(beta >= floor * (1 - FLOOR_SLACK), f"beta {beta} below the floor {floor}")


def check_exact_analyze(A: np.ndarray, payload: dict, exact: tuple[float, tuple]) -> None:
    """`analyze --method exact` against the split oracle `exact` = (L, subset)."""
    U = float(np.linalg.norm(A, 2))
    tol = REL * U
    require(_close(payload["upper"], U, tol), f"upper {payload['upper']} != ||A||_2 {U}")
    require(
        _close(payload["lower"], exact[0], tol),
        f"lower {payload['lower']} != brute-force L {exact[0]}",
    )
    subset = payload["certificate"]["subset"]
    m = A.shape[0]
    require(all(0 <= i < m for i in subset), f"subset {subset} out of range")
    from_subset = math.sqrt(max(oracle.split_value_sq(A, subset), 0.0))
    require(
        _close(from_subset, exact[0], tol),
        f"subset {subset} gives {from_subset}, brute-force L is {exact[0]}",
    )
    _check_beta(payload, max(oracle.md_floor(m), oracle.BETA0_REAL))


def check_numeric_analyze(
    A: np.ndarray, payload: dict, exact: tuple[float, tuple] | None = None
) -> None:
    """`analyze --method numeric`: certificate pair, bound direction, floor."""
    U = float(np.linalg.norm(A, 2))
    tol = REL * U
    cplx = np.iscomplexobj(A)
    require(_close(payload["upper"], U, tol), f"upper {payload['upper']} != ||A||_2 {U}")
    pair = payload["certificate"]["pair"]

    def vec(v):
        arr = np.asarray(v, dtype=float)
        return arr[:, 0] + 1j * arr[:, 1] if cplx else arr

    ratio = oracle.pair_ratio(A, vec(pair["x"]), vec(pair["y"]))
    require(
        _close(ratio, payload["lower"], tol),
        f"certificate pair ratio {ratio} != lower {payload['lower']}",
    )
    _check_beta(payload, oracle.beta0(cplx))
    if exact is not None:
        lower = payload["lower"]
        require(lower >= exact[0] - tol, f"numeric lower {lower} below exact L {exact[0]}")
        require(
            lower <= exact[0] * (1 + NUMERIC_EXACT_TOL),
            f"numeric lower {lower} above exact L {exact[0]} by more than {NUMERIC_EXACT_TOL}",
        )


HARMONIC_HEADER = ["m", "beta_closed", "beta_exact", "md_lower_bound", "g_max", "theta_star"]


def check_harmonic(rows: list[dict], lo: int, hi: int) -> None:
    require([int(r["m"]) for r in rows] == list(range(lo, hi + 1)), "harmonic rows skip an m")
    for r in rows:
        m = int(r["m"])
        closed = oracle.harmonic_beta(m)
        require(_close(r["beta_closed"], closed, 1e-12 * closed), f"m={m}: beta_closed")
        floor = oracle.md_floor(m)
        require(_close(r["md_lower_bound"], floor, 1e-12 * floor), f"m={m}: md_lower_bound")
        exact = r["beta_exact"]
        require(exact is not None or m > HARMONIC_CAP, f"m={m}: beta_exact missing")
        if exact is not None:
            require(_close(exact, closed, REL * closed), f"m={m}: beta_exact {exact} != {closed}")
            if m % 2:
                require(_close(exact, floor, REL * floor), f"m={m}: odd beta_exact != floor")
        gmax = oracle.abs_sine_sum_grid_max(m)
        require(_close(r["g_max"], gmax, HARMONIC_GRID_TOL * gmax), f"m={m}: g_max {r['g_max']}")
        at_star = float(oracle.abs_sine_sum(m, np.array(r["theta_star"])))
        require(_close(at_star, gmax, HARMONIC_GRID_TOL * gmax), f"m={m}: theta_star")


def check_optimize(payload: dict, m: int) -> None:
    """`optimize`: the returned frame has the reported beta and respects the floors."""
    require(payload["m"] == m, f"m {payload['m']} != {m}")
    rows = oracle.frame_from_polar(payload["frame"]["radii"], payload["frame"]["angles"])
    require(rows.shape == (m, 2), f"frame has shape {rows.shape}")
    best = payload["beta_best"]
    recomputed = oracle.beta_exact(rows)
    require(_close(best, recomputed, 1e-8 * recomputed), f"beta_best {best} != {recomputed}")
    require(best >= oracle.md_floor(m) * (1 - FLOOR_SLACK), f"beta_best {best} below floor")
    harm = oracle.harmonic_beta(m)
    require(_close(payload["beta_harmonic"], harm, 1e-12 * harm), "beta_harmonic")
    if m % 2:
        require(payload["improved"] is False, f"m={m} is odd, yet a frame beats E_m")


GAUSSIAN_HEADER = ["m", "trial", "U_hat", "L_hat", "beta_hat", "beta_0", "excess"]


def check_gaussian(rows: list[dict], complex_field: bool, d: int, m_values: list[int]) -> None:
    b0 = oracle.beta0(complex_field)
    for r in rows:
        U, L, beta = r["U_hat"], r["L_hat"], r["beta_hat"]
        where = f"m={int(r['m'])} trial={int(r['trial'])}"
        require(0 < L <= U, f"{where}: need 0 < L_hat <= U_hat")
        require(_close(beta, U / L, 1e-12 * beta), f"{where}: beta_hat != U_hat/L_hat")
        require(_close(r["beta_0"], b0, 1e-12), f"{where}: beta_0 {r['beta_0']}")
        require(beta >= b0 * (1 - FLOOR_SLACK), f"{where}: beta_hat {beta} below beta_0")
        require(_close(r["excess"], beta - b0, 1e-12 * beta), f"{where}: excess")
    require(sorted({int(r["m"]) for r in rows}) == m_values, "gaussian rows miss an m")
    medians = [np.median([r["excess"] for r in rows if int(r["m"]) == m]) for m in m_values]
    require(
        all(a > b for a, b in zip(medians, medians[1:])),
        f"median excess {medians} does not decrease with m",
    )
    if d == 2 and 5000 in m_values:
        lo, hi = GAUSSIAN_BAND[complex_field]
        at = [r["beta_hat"] for r in rows if int(r["m"]) == 5000]
        require(all(lo <= b <= hi for b in at), f"beta_hat at m=5000 {at} outside [{lo}, {hi}]")


KERNEL_HEADER = ["theta", "closed_form", "mc_estimate", "mc_se", "bound"]


def check_kernel(rows: list[dict], summary: dict, complex_field: bool) -> None:
    require(summary.get("rows") == len(rows), "summary row count")
    require(summary.get("flagged") == 0, f"flagged={summary.get('flagged')}")
    for r in rows:
        t, closed = r["theta"], r["closed_form"]
        if not complex_field:
            require(_close(closed, oracle.real_kernel(t), 1e-12), f"theta={t}: real closed form")
        elif t == 0.0:
            require(_close(closed, 1.0, 1e-8), f"complex closed form at 0 is {closed}")
        elif _close(t, np.pi / 2, 1e-15):
            require(_close(closed, np.pi / 4, 1e-8), f"complex closed form at pi/2 is {closed}")
        require(closed <= r["bound"] + 1e-8, f"theta={t}: closed form above bound")
        require(
            abs(r["mc_estimate"] - closed) <= 4 * r["mc_se"],
            f"theta={t}: Monte Carlo estimate more than 4 standard errors off",
        )


RECOVER_HEADER = ["trial", "residual", "certified", "dist", "bound", "holds"]


def check_recover(rows: list[dict], summary: dict, noiseless: bool) -> None:
    for r in rows:
        require(
            r["holds"] == (r["dist"] <= r["bound"] + HOLDS_SLACK),
            f"trial {int(r['trial'])}: holds disagrees with dist <= bound",
        )
        if noiseless:
            require(r["dist"] <= NOISELESS_DIST, f"trial {int(r['trial'])}: noiseless dist")
    certified = sum(r["certified"] for r in rows)
    holds = sum(r["certified"] and r["holds"] for r in rows)
    require(summary.get("trials") == len(rows), "summary trial count")
    require(summary.get("certified") == certified, "summary certified count")
    require(summary.get("certified_holds") == holds, "summary certified_holds count")
    if not noiseless:
        require(certified >= MIN_CERTIFIED_SHARE * len(rows), f"certified {certified}/{len(rows)}")
        require(holds >= MIN_HOLDS_SHARE * certified, f"bound holds on {holds}/{certified}")


def check_repeat(reference: dict[str, bytes], repeat: dict[str, bytes]) -> None:
    """A repeated pass must give byte-identical outputs (seeded determinism)."""
    require(reference.keys() == repeat.keys(), "a repeated pass wrote other outputs")
    for name, data in reference.items():
        require(repeat[name] == data, f"{name} differs from the first pass")
