"""Seeded, output-checked benchmark of the prstab command line.

    python3 bench/run.py --workload exact-enum --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; prstab is imported from ./src.  The
run generates its inputs from --seed and writes the matrix files.  A pass
calls `prstab.cli.main(argv)` in this process for each command of the
workload, timing each call from outside.  Passes repeat until --seconds are
nearly used.  Afterwards the outputs of the first pass are checked against
references computed here, and every later pass must match them byte for
byte.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics: per-command times (median over passes of each pass's sum),
`setup_s` and `peak_rss_mb`.  With --trace 1 the passes alternate between
untraced and traced; the traced passes record spans around every public
function of the package, the JSON holds the per-layer metrics, and the
spans and the tracing overhead are written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 15
MIN_PASSES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_facts(threads: int) -> dict:
    """Facts that decide whether two sets of figures may be compared."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "cpu": cpu,
        "usable_cores": usable_cores(),
        "threads": threads,
    }


def import_prstab_afresh() -> None:
    """Execute prstab's modules again; numpy and the standard library stay loaded."""
    for name in [n for n in sys.modules if n == "prstab" or n.startswith("prstab.")]:
        del sys.modules[name]
    importlib.import_module("prstab.cli")


@dataclass
class Pass:
    traced: bool
    seconds: float = 0.0
    sums: dict = field(default_factory=dict)  # metric -> seconds spent in its commands
    commands: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # Output, or None where the command failed
    spans: list = field(default_factory=list)


class Runner:
    def __init__(self, args, threads: int, workdir: Path, tracer):
        import prstab.cli
        import workloads

        self.args = args
        self.threads = threads
        self.workdir = workdir
        self.tracer = tracer
        self.cli = prstab.cli
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def plan(self):
        return self.workloads.plan(self.args.workload, self.args.seed, self.workdir, self.threads)

    def run_command(self, command):
        """Run one command in-process; return (seconds, Output or None if it failed)."""
        command.out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main(command.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not the end of the run
                code = "traceback"
                traceback.print_exc()
        seconds = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{command.label}: exit {code}: {stderr.getvalue().strip()}")
            return seconds, None
        text = command.out.read_text(encoding="utf-8") if command.out.exists() else None
        return seconds, self.workloads.Output(stdout.getvalue(), text)

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(traced, sums=dict.fromkeys(self.workloads.COMMAND_METRICS, 0.0))
        first_span = len(self.tracer.spans) if traced else 0
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            p.commands = self.plan()
            for command in p.commands:
                seconds, output = self.run_command(command)
                p.sums[command.metric] += seconds
                p.outputs.append(output)
        finally:
            p.seconds = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
                p.spans = self.tracer.spans[first_span:]
        return p

    def run_all(self) -> list[Pass]:
        """Passes until --seconds are nearly used; traced and untraced alternate when tracing."""
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(traced=self.tracer is not None and len(passes) % 2 == 1))
            if len(passes) < MIN_PASSES or (self.tracer is not None and len(passes) % 2):
                continue
            if time.perf_counter() - start + passes[-1].seconds / 2 >= self.args.seconds:
                return passes

    def check(self, passes: list[Pass]) -> bool:
        """Check the first pass's outputs; every later pass must reproduce them."""
        import checks

        correct = True
        first = passes[0]
        for command, output in zip(first.commands, first.outputs):
            if output is None:
                continue
            try:
                command.check(output)
            except Exception as exc:  # a malformed output must not stop the run
                correct = False
                self.problems.append(f"{command.label}: {type(exc).__name__}: {exc}")
        for number, p in enumerate(passes[1:], start=2):
            for command, a, b in zip(p.commands, first.outputs, p.outputs):
                if a is None or b is None:
                    continue
                try:
                    checks.check_repeat(
                        {"stdout": a.stdout, "file": a.text}, {"stdout": b.stdout, "file": b.text}
                    )
                except checks.CheckError as exc:
                    correct = False
                    self.problems.append(f"pass {number}: {command.label}: {exc}")
        return correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prstab" / "__init__.py").is_file():
        print(f"error: no prstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import prstab

    import spans
    import workloads

    if Path(prstab.__file__).resolve().parent != SRC / "prstab":
        print(f"error: imported prstab from {prstab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    threads = usable_cores()
    facts = machine_facts(threads)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            import_prstab_afresh()
            workloads.plan(args.workload, args.seed, workdir, threads)
            setup_times.append(time.perf_counter() - start)
        runner = Runner(args, threads, workdir, spans.Tracer() if args.trace else None)
        passes = runner.run_all()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct = runner.check(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}"
    untraced = [p for p in passes if not p.traced]
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setup_times), "s")}
        for metric in workloads.COMMAND_METRICS:
            metrics[metric] = (statistics.median(p.sums[metric] for p in untraced), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        traced = [p for p in passes if p.traced]
        per_pass = [spans.layer_metrics(p.spans) for p in traced]
        metrics = {
            k: (statistics.median(row[k] for row in per_pass), spans.unit(k)) for k in per_pass[0]
        }
        overhead = statistics.median(t.seconds / u.seconds - 1 for u, t in zip(untraced, traced))
        print(f"tracing overhead: {overhead:+.2%} of pass time", file=sys.stderr)
        traced_spans = [s for p in traced for s in p.spans]
        own = spans.self_times(traced_spans)
        (OUT / f"trace-{name}.json").write_text(
            json.dumps(
                {
                    "overhead": overhead,
                    "columns": ["id", "parent", "name", "start", "end", "self", "thread", "attrs"],
                    "spans": [s.row(own[s.sid]) for s in traced_spans],
                }
            )
        )

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, machine=facts, workload=args.workload, seed=args.seed)
    record["setup_seconds"] = setup_times
    record["passes"] = [
        {"traced": p.traced, "seconds": p.seconds, **p.sums} for p in passes
    ]
    (OUT / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("machine: " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
