"""specqual benchmark.

    python3 bench/run.py --workload {catalog,dense_models,cli_cold} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
With --trace 0 the run is untraced and reports the end-to-end metrics.  With
--trace 1 it measures an untraced and then a traced phase, half the time
each, on the same inputs, and reports the per-layer metrics and the tracing
overhead.  End-to-end times are scaled to a reference speed by a probe
kernel timed between operations (see SpeedProbe).  The last line of stdout
is the result as one JSON object.  See bench/README.md for every metric.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported, here and in every child
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog", "dense_models", "cli_cold")
SETUP_REPEATS = 7     # fresh interpreters timed for setup_s; the median is reported
CLI_PROBE_REPEATS = 5
MAIN_REPEATS = 3
MIN_SAMPLES = 100     # an untraced run goes on past --seconds until it has these
PROBE_EVERY_S = 0.2   # the speed probe runs between operations at least this often
PROBE_REF_MS = 5.0    # the speed probe's time at the reference speed

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

QUAL_SELF = ("srho_table", "check_weak_pair", "check_order_source_pair",
             "estimate_classical_order", "check_mp_qualification", "classify")


class SpeedProbe:
    """A fixed kernel, independent of specqual, timed between operations.

    A shared host's speed drifts: it can switch between a fast and a slow
    state within seconds (a 1.7x ratio), with a share of slow time that
    changes over minutes, so wall times of one workload can spread by 15% to
    50% between runs.  End-to-end times are therefore reported at the
    reference speed: wall time x PROBE_REF_MS / (the probe's trimmed mean
    time over the same interval).  The probe mixes the kinds of work the workloads do:
    interpreted Python, many small numpy calls and vectorised
    transcendentals.  It runs twice per sample and times the second pass, so
    that it always starts warm.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.big = np.linspace(1e-3, 10.0, 20000)
        self.small = np.linspace(0.1, 1.0, 64)
        self.times = []    # perf_counter at each sample
        self.ms = []       # probe time of each sample
        self.sample()

    def _kernel(self):
        np, big, small = self.np, self.big, self.small
        acc = 0
        for i in range(20000):
            acc += i % 7
        for _ in range(600):
            float(small @ small)
            np.argsort(small)
        for _ in range(4):
            np.logaddexp(np.log(big), np.log(np.abs(np.sin(big ** 1.5 / 0.3))))

    def sample(self):
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.ms.append((t1 - t0) * 1e3)

    def maybe_sample(self):
        if time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference over measured speed for the interval, from the probe
        samples in it (10% trimmed from each end)."""
        ms = sorted(m for t, m in zip(self.times, self.ms) if start <= t <= end)
        cut = len(ms) // 10
        return PROBE_REF_MS / statistics.fmean(ms[cut:len(ms) - cut])


@dataclass
class Phase:
    latencies: list = field(default_factory=list)   # seconds, one per operation
    groups: list = field(default_factory=list)
    summaries: list = field(default_factory=list)   # span totals per traced operation
    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    rounds: int = 0
    problems: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    @property
    def ops_per_s(self) -> float:
        """Round size over the median round's operation time: every round
        holds the same mix, and the median discards rounds that a burst of
        load on the host slowed."""
        size = len(self.latencies) // self.rounds
        rounds = [sum(self.latencies[i:i + size]) for i in range(0, len(self.latencies), size)]
        return size / statistics.median(rounds)


def measure(wl, seed: int, seconds: float, digests: dict, probe: SpeedProbe,
            tracer=None, min_samples: int = 1) -> Phase:
    """Closed loop, one caller: whole rounds until `seconds` have passed and
    `min_samples` operations have run."""
    probe.sample()
    phase = Phase(start=time.perf_counter())
    stop = phase.start + seconds
    while len(phase.latencies) < min_samples or time.perf_counter() < stop:
        for inp in wl.round(seed, phase.rounds):
            probe.maybe_sample()
            if tracer is not None:
                tracer.reset()
            t0 = time.perf_counter()
            try:
                out, problems = wl.run(inp), []
            except Exception as exc:  # a failed operation is counted; the run goes on
                out, problems = None, [f"{inp.group}: {type(exc).__name__}: {exc}"]
            latency = time.perf_counter() - t0
            if not problems:
                problems, digest = wl.check(inp, out)
                if digests.setdefault(inp.key, digest) != digest:
                    problems.append(f"{inp.group}: output differs from the first call "
                                    "with the same input")
            phase.latencies.append(latency)
            phase.groups.append(inp.group)
            phase.summaries.append(tracer.summary() if tracer is not None
                                   else getattr(out, "trace", None) or {})
            phase.attempted += 1
            if problems and inp.known_defect:
                phase.known_defects += 1
            elif problems:
                phase.failed += 1
                phase.problems.extend(problems[: 5 - len(phase.problems)])
        phase.rounds += 1
    probe.sample()
    phase.end = time.perf_counter()
    return phase


def timings(phase: Phase, setup_s: float, factor: float, setup_factor: float) -> dict:
    lat_ms = [x * 1e3 * factor for x in phase.latencies]
    return {
        "ops_per_s": phase.ops_per_s / factor,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "setup_s": setup_s * setup_factor,
    }


def end_to_end(phase: Phase, setup: tuple, probe: SpeedProbe, workload: str) -> tuple:
    """The metrics at the reference speed, and the same timings as measured."""
    setup_s, setup_factor = setup
    metrics = timings(phase, setup_s, probe.factor(phase.start, phase.end), setup_factor)
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    return metrics, timings(phase, setup_s, 1.0, 1.0)


def run_child(args: list, env: dict, work: Path) -> subprocess.CompletedProcess:
    from workloads import CHILD_TIMEOUT_S

    proc = subprocess.run(args, cwd=work, env=env, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1:3]} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-400:]}")
    return proc


def measure_setup(workload: str, env: dict, work: Path, probe: SpeedProbe) -> tuple:
    """Median over fresh interpreters of import plus the warm-up operation,
    and the speed factor over the same interval."""
    samples = []
    start = time.perf_counter()
    for _ in range(SETUP_REPEATS):
        proc = run_child([sys.executable, str(BENCH / "child.py"), "setup", workload,
                          str(work)], env, work)
        doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        samples.append(doc["import_s"] + doc["warmup_s"])
        probe.sample()
    return statistics.median(samples), probe.factor(start, time.perf_counter())


def wall_ms(args: list, env: dict, work: Path) -> float:
    samples = []
    for _ in range(CLI_PROBE_REPEATS):
        t0 = time.perf_counter()
        run_child(args, env, work)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def cli_main_ms(work: Path) -> float:
    """Warm in-process `cli.main` per call of the cycle, averaged in the cycle's mix."""
    from specqual import cli
    from workloads import CLI_CALLS

    per_call = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for call in CLI_CALLS:
            samples = []
            for i in range(MAIN_REPEATS + 1):
                sink = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        cli.main(list(call.argv))
                    except Exception:  # a known defect escapes main; it is timed all the same
                        pass
                if i:  # the first call warms up
                    samples.append(time.perf_counter() - t0)
            per_call.append(statistics.median(samples))
            if call.out_file:
                (work / call.out_file).unlink(missing_ok=True)
    finally:
        os.chdir(cwd)
    return statistics.fmean(per_call) * 1e3


def per_layer(workload: str, plain: Phase, traced: Phase, probe: SpeedProbe, env: dict,
              work: Path) -> dict:
    from workloads import CATALOG_ROWS, DENSE_DIMS

    ops = len(traced.summaries)
    tot = Counter()
    for s in traced.summaries:
        tot.update(s)

    def per_op(key, scale=1.0):
        return tot[key] / ops * scale

    def ratio(num, den, scale):
        return tot[num] / tot[den] * scale if tot[den] else 0.0

    m = {
        "filters.r_log.calls_per_op": per_op("filters.r_log.calls"),
        "filters.r_log.points_per_op": per_op("filters.r_log.points"),
        "filters.r_log.ms_per_op": per_op("filters.r_log.total_s", 1e3),
        "filters.r_log.ns_per_point": ratio("filters.r_log.total_s", "filters.r_log.points", 1e9),
        "limits.tail_limit.calls_per_op": per_op("limits.tail_limit.calls"),
        "limits.tail_limit.ms_per_op": per_op("limits.tail_limit.total_s", 1e3),
        "limits.tail_limit.us_per_call": ratio("limits.tail_limit.total_s",
                                               "limits.tail_limit.calls", 1e6),
        "expressions.parse_expr.ms_per_op": per_op("expressions.parse_expr.total_s", 1e3),
        "expressions.eval_array.calls_per_op": per_op("expressions.eval_array.calls"),
        "expressions.eval_array.ms_per_op": per_op("expressions.eval_array.total_s", 1e3),
        "rates.certify.calls_per_op": per_op("rates.certify.calls"),
        "rates.certify.self_ms_per_op": per_op("rates.certify.self_s", 1e3),
    }
    for name in QUAL_SELF:
        m[f"qualification.{name}.self_ms_per_op"] = per_op(f"qualification.{name}.self_s", 1e3)
    m["qualification.check_order_source_pair.r_log_calls_per_op"] = per_op(
        "qualification.check_order_source_pair>filters.r_log.calls")
    m["qualification.estimate_classical_order.tail_limit_calls_per_op"] = per_op(
        "qualification.estimate_classical_order>limits.tail_limit.calls")
    m["qualification.construct_weak_qualification.ms_per_op"] = per_op(
        "qualification.construct_weak_qualification.total_s", 1e3)
    m.update({
        "operators.svd_decompose.ms_per_op": per_op("operators.svd_decompose.total_s", 1e3),
        "operators.log_regularization_error.calls_per_op": per_op(
            "operators.log_regularization_error.calls"),
        "operators.log_regularization_error.ms_per_op": per_op(
            "operators.log_regularization_error.total_s", 1e3),
        "operators.membership_probe.ms_per_op": per_op("operators.membership_probe.total_s", 1e3),
        "experiments.run_convergence.self_ms_per_op": per_op(
            "experiments.run_convergence.self_s", 1e3),
        "experiments.fit_order.ms_per_op": per_op("experiments.fit_order.total_s", 1e3),
    })

    interpreter = import_ms = main_ms = 0.0
    if workload == "cli_cold":
        interpreter = wall_ms([sys.executable, "-c", "pass"], env, work)
        import_ms = wall_ms([sys.executable, "-c", "import specqual.cli"], env, work) - interpreter
        main_ms = cli_main_ms(work)
    m["cli.interpreter_ms"], m["cli.import_ms"], m["cli.main_ms"] = interpreter, import_ms, main_ms

    # both phases start at round 0, so their first k operations share inputs;
    # each phase's time is taken at the reference speed
    k = min(len(plain.latencies), len(traced.latencies))
    plain_s = sum(plain.latencies[:k]) * probe.factor(plain.start, plain.end)
    traced_s = sum(traced.latencies[:k]) * probe.factor(traced.start, traced.end)
    m["trace.untraced_ops_per_s"] = k / plain_s
    m["trace.traced_ops_per_s"] = k / traced_s
    m["trace.overhead_pct"] = (traced_s / plain_s - 1) * 100
    m["cli.known_defect_frac"] = ((plain.known_defects + traced.known_defects)
                                  / (plain.attempted + traced.attempted))

    # per-group breakdowns: wall times from the untraced phase, counts and
    # layer times from the traced one
    wall = defaultdict(list)
    for group, latency in zip(plain.groups, plain.latencies):
        wall[group].append(latency)
    spans = defaultdict(list)
    for group, summary in zip(traced.groups, traced.summaries):
        spans[group].append(summary)

    def group_median(group, key, scale=1.0):
        values = [s.get(key, 0.0) for s in spans.get(group, [])]
        return statistics.median(values) * scale if values else 0.0

    for row in (r[0] for r in CATALOG_ROWS):
        m[f"catalog.{row}.ms_p50"] = statistics.median(wall[row]) * 1e3 if wall[row] else 0.0
        m[f"catalog.{row}.r_log_calls"] = group_median(row, "filters.r_log.calls")
        m[f"catalog.{row}.r_log_points"] = group_median(row, "filters.r_log.points")
        m[f"catalog.{row}.tail_limit_calls"] = group_median(row, "limits.tail_limit.calls")
    ex9 = CATALOG_ROWS[8][0]
    for label, fn in (("srho_table", "srho_table"), ("order_source_pair", "check_order_source_pair"),
                      ("classical", "estimate_classical_order"), ("mp", "check_mp_qualification")):
        m[f"catalog.ex9_osc.{label}_ms"] = group_median(ex9, f"qualification.{fn}.total_s", 1e3)
    for n in DENSE_DIMS:
        m[f"dense_models.svd_decompose.n{n}_ms"] = group_median(
            f"n{n}", "operators.svd_decompose.total_s", 1e3)
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in (("_per_s", "1/s"), ("_pct", "%"), ("_frac", "fraction"),
                         ("ns_per_point", "ns"), ("us_per_call", "us"), ("_ms", "ms"),
                         ("ms_per_op", "ms"), ("ms_p50", "ms")):
        if name.endswith(suffix):
            return unit
    return "count"


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the name is informational
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_used": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # one core for the run, its children and the speed probe, so that the probe
    # sees the state of the core the operations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "specqual" / "__init__.py").is_file():
        print(f"bench: no specqual package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specqual

    if Path(specqual.__file__).resolve().parent != SRC / "specqual":
        print(f"bench: imported specqual from {specqual.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer, instrument

    env = workloads.child_env(SRC)
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    wall = None
    try:
        probe = SpeedProbe()
        setup = measure_setup(args.workload, env, work, probe)
        wl = workloads.make(args.workload, work, env)
        wl.prepare()
        wl.warmup(wl.warmup_input())
        digests = {}
        if not args.trace:
            phase = measure(wl, args.seed, args.seconds, digests, probe,
                            min_samples=MIN_SAMPLES)
            phases = [phase]
            metrics, wall = end_to_end(phase, setup, probe, args.workload)
        else:
            plain = measure(wl, args.seed, args.seconds / 2, digests, probe)
            tracer = Tracer()
            if args.workload == "cli_cold":
                wl.trace_file = work / "trace.json"
                traced = measure(wl, args.seed, args.seconds / 2, digests, probe)
            else:
                with instrument(tracer):
                    wl.prepare()  # filters made here carry the traced r_log
                    traced = measure(wl, args.seed, args.seconds / 2, digests, probe, tracer)
            phases = [plain, traced]
            metrics = per_layer(args.workload, plain, traced, probe, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    known = sum(p.known_defects for p in phases)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": [len(p.latencies) for p in phases],
        "rounds": [p.rounds for p in phases], "failed_frac": failed / attempted,
        "known_defect_failures": known,
        "problems": [q for p in phases for q in p.problems][:5],
        "wall": wall,
        "speed_factor": [probe.factor(p.start, p.end) for p in phases],
        "probe_ms_median": statistics.median(probe.ms),
        "machine": machine_info(),
    }
    for name, value in metrics.items():
        print(f"{name:64s} {value:16.6f} {unit_of(name)}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
