"""The three workloads: seeded inputs, the CLI commands that use them, and
the check each command's output must pass.

`plan(name, seed, workdir, threads)` generates the inputs from the seed,
writes the matrix files and returns the commands of one pass.  Every
command's time counts toward one end-to-end metric.  Each workload runs its
main commands at full size and a probe of about half a second of every
other command, so that every end-to-end metric is measured on every
workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import oracle

WORKLOADS = ("exact-enum", "pair-search", "recovery")
SEARCH_POOL_SEED = 20240411
COMMAND_METRICS = (
    "analyze_exact_s",
    "harmonic_s",
    "optimize_s",
    "analyze_numeric_s",
    "gaussian_s",
    "kernel_s",
    "recover_s",
)


@dataclass
class Output:
    """What one command printed, and the text of the file it wrote, if any."""

    stdout: str
    text: str | None


@dataclass
class Command:
    metric: str
    argv: list[str]
    out: Path
    check: Callable[[Output], None]

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if "/" in a else a for a in self.argv)


class Plan:
    """Builds the commands of one workload from its two generators.

    `seeded` depends on the run's seed.  `fixed` gives the instances of the
    search commands (numeric `analyze`, `gaussian`, `optimize`), the same
    for every seed: their cost varies several-fold between instances of one
    size, with the iterations a search takes to converge, so per-run figures
    over a few seeded instances would measure the draw, not the program.
    """

    def __init__(self, name: str, seed: int, workdir: Path, threads: int):
        index = WORKLOADS.index(name)
        self.seeded = np.random.default_rng([index, seed])
        self.fixed = np.random.default_rng([index, SEARCH_POOL_SEED])
        self.workdir = workdir
        self.threads = str(threads)
        self.commands: list[Command] = []

    @staticmethod
    def cli_seed(rng: np.random.Generator) -> str:
        return str(int(rng.integers(0, 2**31 - 1)))

    def matrix(self, rng, m: int, d: int, complex_field: bool) -> tuple[np.ndarray, str]:
        """A standard Gaussian matrix from `rng`, written to its own file."""
        A = rng.standard_normal((m, d))
        if complex_field:
            A = (A + 1j * rng.standard_normal((m, d))) / np.sqrt(2)
        path = self.workdir / f"in{len(self.commands)}-{'c' if complex_field else 'r'}{m}x{d}.mat"
        from prstab import matrixio  # the module imported last, which the tracer wraps

        matrixio.write_matrix(path, A)
        return A, str(path)

    def add(self, metric: str, argv: list[str], kind: str, check) -> None:
        """Append a command that writes its `kind` ("json" or "csv") output to a file."""
        path = self.workdir / f"out{len(self.commands)}.{kind}"
        self.commands.append(Command(metric, argv + [f"--{kind}", str(path)], path, check))

    # ------------------------------------------------------------ commands

    def analyze_exact(self, m: int, d: int) -> None:
        A, path = self.matrix(self.seeded, m, d, False)
        argv = ["analyze", "--matrix", path, "--method", "exact", "--threads", self.threads]

        def check(o: Output):
            payload = checks.parse_json(o.text)
            checks.check_exact_analyze(A, payload, oracle.lower_exact(A))

        self.add("analyze_exact_s", argv, "json", check)

    def analyze_numeric(self, m: int, d: int, complex_field: bool, restarts: int = 32) -> None:
        A, path = self.matrix(self.fixed, m, d, complex_field)
        argv = ["analyze", "--matrix", path, "--method", "numeric"]
        argv += ["--seed", self.cli_seed(self.fixed)]
        argv += ["--restarts", str(restarts), "--threads", self.threads]

        def check(o: Output):
            payload = checks.parse_json(o.text)
            exact = None if complex_field else oracle.lower_exact(A)
            checks.check_numeric_analyze(A, payload, exact)

        self.add("analyze_numeric_s", argv, "json", check)

    def harmonic(self, lo: int, hi: int) -> None:
        argv = ["harmonic", "--m-range", f"{lo}..{hi}", "--threads", self.threads]

        def check(o: Output):
            rows = checks.parse_csv(o.text, checks.HARMONIC_HEADER)
            checks.check_harmonic(rows, lo, hi)

        self.add("harmonic_s", argv, "csv", check)

    def optimize(self, m: int, restarts: int) -> None:
        argv = ["optimize", "--m", str(m), "--restarts", str(restarts)]
        argv += ["--seed", self.cli_seed(self.fixed)]

        def check(o: Output):
            checks.check_optimize(checks.parse_json(o.text), m)

        self.add("optimize_s", argv, "json", check)

    def gaussian(self, complex_field: bool, d: int, m_values: list[int], trials: int) -> None:
        field = "complex" if complex_field else "real"
        argv = ["gaussian", "--field", field, "--d", str(d), "--m", ",".join(map(str, m_values))]
        argv += ["--trials", str(trials), "--seed", self.cli_seed(self.fixed)]
        argv += ["--threads", self.threads]

        def check(o: Output):
            rows = checks.parse_csv(o.text, checks.GAUSSIAN_HEADER)
            require_rows(rows, len(m_values) * trials)
            checks.check_gaussian(rows, complex_field, d, m_values)

        self.add("gaussian_s", argv, "csv", check)

    def kernel(self, complex_field: bool, grid: int, samples: int) -> None:
        argv = ["kernel", "--field", "complex" if complex_field else "real", "--grid", str(grid)]
        argv += ["--mc-samples", str(samples), "--seed", self.cli_seed(self.seeded)]

        def check(o: Output):
            rows = checks.parse_csv(o.text, checks.KERNEL_HEADER)
            require_rows(rows, grid)
            checks.check_kernel(rows, checks.parse_summary(o.stdout), complex_field)

        self.add("kernel_s", argv, "csv", check)

    def recover(self, source: list[str], trials: int, noise: float, restarts: int = 16) -> None:
        argv = ["recover", *source, "--noise", repr(noise), "--trials", str(trials)]
        argv += ["--restarts", str(restarts), "--seed", self.cli_seed(self.seeded)]
        argv += ["--threads", self.threads]

        def check(o: Output):
            rows = checks.parse_csv(o.text, checks.RECOVER_HEADER)
            require_rows(rows, trials)
            checks.check_recover(rows, checks.parse_summary(o.stdout), noise == 0.0)

        self.add("recover_s", argv, "csv", check)

    def recover_matrix(self, m: int, d: int, trials: int, noise: float) -> None:
        _, path = self.matrix(self.seeded, m, d, False)
        self.recover(["--matrix", path], trials, noise)


def require_rows(rows: list, count: int) -> None:
    checks.require(len(rows) == count, f"expected {count} rows, got {len(rows)}")


# ------------------------------------------------------------ workloads
# A pass takes a few seconds here, so a run holds several passes.


def _exact_enum(p: Plan) -> None:
    p.analyze_exact(20, 2)
    p.analyze_exact(19, 3)
    p.analyze_exact(11, 4)
    p.harmonic(3, 22)
    p.optimize(5, restarts=24)
    p.optimize(6, restarts=24)
    _probes(p, skip={"analyze_exact_s", "harmonic_s", "optimize_s"})


def _pair_search(p: Plan) -> None:
    # drawn first from the pool; with this many restarts its search runs to
    # the 4000-iteration budget
    p.analyze_numeric(12, 4, False, restarts=128)
    p.analyze_numeric(16, 3, True)
    p.analyze_numeric(16, 4, True)
    p.gaussian(True, 2, [50, 500, 5000], trials=1)
    p.gaussian(False, 3, [30, 100], trials=1)
    p.kernel(False, grid=5, samples=200_000)
    p.kernel(True, grid=5, samples=200_000)
    _probes(p, skip={"analyze_numeric_s", "gaussian_s", "kernel_s"})


def _recovery(p: Plan) -> None:
    p.recover(["--gaussian", "500,5"], trials=40, noise=0.1)
    p.recover(["--gaussian", "500,5"], trials=10, noise=0.0)
    p.recover(["--gaussian", "2000,20", "--field", "complex"], trials=4, noise=0.1)
    p.recover_matrix(300, 4, trials=10, noise=0.1)
    _probes(p, skip={"recover_s"})


def _probes(p: Plan, skip: set[str]) -> None:
    """A command of half a second or more for each metric the workload does not focus on.

    Shorter probes read too unsteadily from run to run on a shared machine.
    """
    probes = {
        "analyze_exact_s": lambda: p.analyze_exact(21, 2),
        "harmonic_s": lambda: p.harmonic(3, 21),
        "optimize_s": lambda: p.optimize(6, restarts=24),
        "analyze_numeric_s": lambda: [p.analyze_numeric(14, 2, False) for _ in range(12)],
        "gaussian_s": lambda: p.gaussian(False, 2, [10, 1000], trials=6),
        "kernel_s": lambda: p.kernel(False, grid=4, samples=1_000_000),
        # few, large pool tasks: 500x5 trials hand the pool tasks of a
        # fraction of a millisecond, whose time swings with machine load
        "recover_s": lambda: p.recover(
            ["--gaussian", "2000,20", "--field", "complex"], trials=4, noise=0.1
        ),
    }
    for metric in COMMAND_METRICS:
        if metric not in skip:
            probes[metric]()


BUILDERS = {"exact-enum": _exact_enum, "pair-search": _pair_search, "recovery": _recovery}


def plan(name: str, seed: int, workdir: Path, threads: int) -> list[Command]:
    """Generate the inputs of workload `name`; return the commands of one pass."""
    p = Plan(name, seed, workdir, threads)
    BUILDERS[name](p)
    return p.commands
