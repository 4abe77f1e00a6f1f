"""Fixed-work benchmark of the raygrowth command line.

    python3 bench/run.py --workload indicator-oracle --seed 0 --seconds 30 --trace 0

Runs the workload's seeded case list through ``raygrowth.cli.main(argv)`` in
this process, in whole rounds until ``--seconds`` have passed (three rounds
at least), checks every output table against mpmath references, and prints
one JSON line with the metrics.  ``--trace 1`` instead runs one pass in
which each case runs untraced, traced and untraced again, and reports
per-layer counts and self times.  See bench/README.md.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy is imported here or in a
# child: with the default pools the imports alone burn more CPU than wall time.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
RESULTS = os.path.join(BENCH, "results")

# the package is not installed: import it from the checkout
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

MIN_ROUNDS = 3
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 60
# Wall time of one reference_probe() on the reference machine in its fast
# spells (see bench/README.md).  Timings are reported in seconds at that speed.
REF_PROBE_S = 0.008
PROBE_REPEATS = 40


def _probe_integrand(x):
    return math.exp(-0.1 * x) * math.cos(3.0 * x) / (1.0 + x * x)


def reference_probe():
    """Wall time of a fixed piece of work that shares no code with raygrowth.

    The host this benchmark was built on runs the same code up to twice as
    slow for minutes at a time.  The probe is QUADPACK over a Python
    integrand, the mix of compiled code and Python callbacks that most cases
    spend their time in, so a slow spell stretches it about as much as the
    case timed next to it, and the ratio of the two moves far less than either.
    """
    from scipy import integrate

    t0 = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        integrate.quad(_probe_integrand, 0.0, 60.0, limit=400)
    return time.perf_counter() - t0


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="least timed wall time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _child(args):
    return subprocess.run([sys.executable] + args, cwd=ROOT, env=os.environ.copy(), capture_output=True,
                          text=True, check=True, timeout=CHILD_TIMEOUT_S)


SETUP_CODE = ("import time; t = time.perf_counter(); import raygrowth.cli; "
              "print(repr(time.perf_counter() - t))")


def measure_setup():
    """Wall time of ``import raygrowth.cli`` in one fresh interpreter."""
    return float(_child(["-c", SETUP_CODE]).stdout)


def measure_import_scipy():
    """Median scipy share of ``-X importtime`` for ``import raygrowth.cli``."""
    shares = []
    for _ in range(IMPORTTIME_RUNS):
        err = _child(["-X", "importtime", "-c", "import raygrowth.cli"]).stderr
        total_us = 0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                pkg = parts[2].strip()
                if pkg == "scipy" or pkg.startswith("scipy."):
                    total_us += int(parts[0].split(":")[1])
        shares.append(total_us * 1e-6)
    return statistics.median(shares)


def library_caches():
    """cache_clear of every memoised function in the package."""
    clears = []
    for name, module in list(sys.modules.items()):
        if name == "raygrowth" or name.startswith("raygrowth."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clears.append(clear)
    return clears


class Runner:
    """Runs cases through the CLI entry point, one output file at a time."""

    def __init__(self, cli, out_path):
        self.cli = cli
        self.out_path = out_path
        self.clears = library_caches()

    def run(self, case):
        """(exit status, seconds, output text or None) of one invocation.

        Caches are emptied first, so every case starts as a fresh CLI process
        would; without that a repeated round would hit the zero-set cache.
        """
        for clear in self.clears:
            clear()
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = case.argv + ["--format", "json", "--out", self.out_path]
        t0 = time.perf_counter()
        try:
            status = self.cli.main(argv)
        except Exception as exc:  # the CLI lets some faults escape as tracebacks
            status = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        text = None
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        return status, elapsed, text


class Tally:
    """Attempted and failed invocations, and the output each case printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.texts = {}
        self.problems = []

    def execute(self, runner, case):
        """Run one case and record it; returns its wall time."""
        status, elapsed, text = runner.run(case)
        self.attempted += 1
        if status != 0 or text is None:
            self.failed += 1
            self.problems.append(f"{case.ident}: exit status {status!r}")
        elif self.texts.setdefault(case.ident, text) != text:
            self.problems.append(f"{case.ident}: output changed between rounds")
        return elapsed


def versions():
    import mpmath
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "implementation": platform.python_implementation(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "cores": os.cpu_count(), "platform": platform.platform()}


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "raygrowth")):
        sys.exit(f"bench: no raygrowth package under {SRC}")
    args = parse_args(argv)
    import raygrowth.cli as cli
    from spans import Tracer
    from workloads import WORKLOADS, Report, make_cases

    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}"

    phases = [("start", time.perf_counter())]
    setup_times = []
    if not args.trace:
        measure_setup()  # discarded: it may compile the bytecode cache
    import_scipy_s = measure_import_scipy() if args.trace else None
    phases.append(("setup", time.perf_counter()))

    # inputs and references: untimed
    cases = make_cases(workload, args.seed)
    for case in cases:
        if case.model_text is not None:
            path = os.path.join(WORK, f"{tag}-{case.ident}.model")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(case.model_text)
            case.argv = case.argv + ["--model", path]
        workload.refs(case)
    phases.append(("references", time.perf_counter()))
    # every quadrature the cases run must converge without a flag
    problems = []
    for case in cases:
        problems += workload.precheck(case)
    runner = Runner(cli, os.path.join(WORK, f"{tag}-out.json"))
    runner.run(cases[0])  # warm-up of the CLI path
    phases.append(("precheck", time.perf_counter()))

    tally = Tally()
    times = {case.ident: [] for case in cases}
    ref_times = {}
    if not args.trace:
        ref_times = {case.ident: [] for case in cases}
        reference_probe()  # warm-up of the probe
        rounds = 0
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            for case in cases:
                # the case's wall time over that of the probes just before
                # and after it, in seconds at the reference speed
                before = reference_probe()
                elapsed = tally.execute(runner, case)
                times[case.ident].append(elapsed)
                ref_times[case.ident].append(elapsed / (0.5 * (before + reference_probe())) * REF_PROBE_S)
            rounds += 1
            # one fresh import after each round, so that the set-up samples
            # are spread over the run and not taken in one spell of the host
            setup_times.append(measure_setup())
        while len(setup_times) < SETUP_RUNS:
            setup_times.append(measure_setup())
        phases.append(("timed", time.perf_counter()))
        work_s = sum(statistics.median(t) for t in ref_times.values())
    else:
        # one pass in which every traced run of a case sits between two
        # untraced ones, so that the host's speed is about the same for both
        tracer = Tracer()
        traced_s = 0.0
        for case in cases:
            times[case.ident].append(tally.execute(runner, case))
            tracer.case = case.ident
            tracer.install()
            try:
                traced_s += tally.execute(runner, case)
            finally:
                tracer.uninstall()
            times[case.ident].append(tally.execute(runner, case))
        layer = tracer.layer_metrics(sum(1 for c in cases if c.argv[0] == "solve-order"))
        layer["setup.import_scipy_s"] = (import_scipy_s, "s")
        layer["trace.overhead_frac"] = (traced_s / sum(statistics.mean(t) for t in times.values()) - 1.0, "frac")
        tracer.write(os.path.join(RESULTS, f"{tag}-spans.json"))
        phases.append(("traced", time.perf_counter()))

    # checks: every case's output once, against its references
    rep = Report()
    for case in cases:
        if case.ident in tally.texts:
            workload.check(case, json.loads(tally.texts[case.ident]), rep)
    problems += tally.problems + rep.problems
    if not rep.digits:
        problems.append("no number was checked")
    phases.append(("checks", time.perf_counter()))
    if args.trace:
        metrics = layer
    else:
        metrics = {
            "cases_per_s": (len(cases) / work_s, "1/s"),
            "digits_p10": (statistics.quantiles(rep.digits, n=10, method="inclusive")[0]
                           if len(rep.digits) > 1 else 0.0, "digits"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    result = {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    runs_per_case = tally.attempted // len(cases)
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  cases=len(cases), runs_per_case=runs_per_case, checked_numbers=len(rep.digits),
                  setup_times_s=setup_times,
                  raw_cases_per_s=len(cases) / sum(statistics.median(t) for t in times.values()),
                  problems=problems, case_times_s=times, case_ref_s=ref_times,
                  phase_s={b[0]: b[1] - a[1] for a, b in zip(phases, phases[1:])}, **versions())
    with open(os.path.join(RESULTS, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for line in problems:
        print(f"bench: {line}", file=sys.stderr)
    print(f"bench: {workload.name} seed {args.seed}: {len(cases)} cases x {runs_per_case} runs, "
          f"{len(rep.digits)} numbers checked, {len(problems)} problems; phases "
          + ", ".join(f"{k} {v:.1f}s" for k, v in record["phase_s"].items()), file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
