"""uwoclink benchmark: simulated frames per second on three link workloads.

Run from the root of a checkout:

    python3 bench/run.py                        # every workload, untraced and traced
    python3 bench/run.py --workload green-ook --seed 1 --seconds 30 --trace 0

One workload run prints readable lines and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (``frames_per_s`` and ``setup_s`` in
reference seconds, see REF_PROBE_S, and ``peak_rss_mb``); with ``--trace 1``
they are the per-layer ones from ``spans.PER_LAYER_UNITS``. See README.md in
this directory.
"""

import os

# One BLAS/OpenMP thread in this process and in every child it starts. This
# must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import PER_LAYER_UNITS, Tracer, layer_table, per_layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    SIM_SECONDS,
    WORKLOADS,
    check_report,
    check_run_ber,
    codec_probe,
    digest,
    simulated_stats,
    sub_seed,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
# Never used while the benchmark or a change is tuned; later claims are
# checked on it as well (choosing-metrics section 6.3).
HELD_OUT_SEED = 2310
RUN_SECONDS = 30
SETUP_REPS = 5
# A traced pass is this many calls: 120 simulated seconds, 720 frames.
TRACE_CALLS = 6

END_TO_END_UNITS = {"frames_per_s": "frames/s", "setup_s": "s", "peak_rss_mb": "MB"}

# The speed of a shared host drifts by up to 40 % over minutes as other tenants
# load its cores, and every kind of code slows alike. A fixed probe timed just
# before and after each measurement cancels that drift: frames_per_s and
# setup_s are in reference seconds, seconds on a host where the probe takes
# REF_PROBE_S.
REF_PROBE_S = 0.025

# Set-up as a user pays it: a fresh interpreter imports the package, loads the
# preset and builds the codec (the BCH tables).
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import uwoclink
uwoclink.load_preset(sys.argv[2]).codec
print(time.perf_counter() - t0)
"""


def import_package():
    """Import uwoclink from this checkout's src/, never from elsewhere."""
    package = SRC / "uwoclink"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import uwoclink

    if Path(uwoclink.__file__).resolve().parent != package:
        sys.exit(f"error: imported uwoclink from {uwoclink.__file__}, not {package}")
    return uwoclink


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def probe_seconds() -> float:
    """Seconds for a fixed mix of interpreter and numpy work like the workloads'."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc ^= (i * 2654435761) & 0xFFFF
    for _ in range(20):
        slots = rng.standard_normal(32_640)
        np.argmax(slots.reshape(-1, 4), axis=1)
        np.count_nonzero(slots > 0.5)
    return time.perf_counter() - t0


def measure_setup(preset: str, reps: int) -> list[tuple[float, float]]:
    """(set-up seconds, probe seconds) of ``reps`` fresh processes, one after
    another; the probe time is the mean of the probes just before and after."""
    times, probe = [], probe_seconds()
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), preset],
                             capture_output=True, text=True, timeout=120, check=True)
        after = probe_seconds()
        times.append((float(out.stdout.split()[-1]), (probe + after) / 2))
        probe = after
    return times


class Tally:
    """Operations attempted and failed: a call that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def call(self, what: str, fn, *args):
        """``fn(*args)``; an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.record(what, ["raised"])
            return None


def timed_call(tally, workload, u, spec, seed, sim_seconds, wrap=None):
    """One checked workload call; returns (report, seconds) or None."""
    fn = workload.call if wrap is None else wrap(workload.call)
    t0 = time.perf_counter()
    report = tally.call(f"seed {seed}", fn, u, spec, seed, sim_seconds)
    elapsed = time.perf_counter() - t0
    if report is None:
        return None
    if not tally.record(f"seed {seed}",
                        check_report(workload, spec, report, seed, sim_seconds)):
        return None
    return report, elapsed


def untraced_run(u, workload, seed, seconds, sim_seconds, setup_reps, tally):
    setup = measure_setup(workload.preset, setup_reps)
    spec = u.load_preset(workload.preset)
    # Call 0 warms up (it builds the codec tables) and is the digested reference.
    warm = timed_call(tally, workload, u, spec, sub_seed(seed, 0), sim_seconds)
    reference = warm and warm[0]
    host_rates, probes, errors, bits = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    index, probe = 0, probe_seconds()
    while index == 0 or time.perf_counter() < deadline:
        index += 1
        done = timed_call(tally, workload, u, spec, sub_seed(seed, index), sim_seconds)
        after = probe_seconds()
        if done is not None:
            report, elapsed = done
            host_rates.append(report.frames_sent / elapsed)
            probes.append((probe + after) / 2)
            errors += report.pre_fec_bit_errors
            bits += report.bits_simulated
        probe = after
    if not host_rates:
        return None, reference
    tally.record("run pre-FEC BER", check_run_ber(workload, errors, bits))
    rates = [r * p / REF_PROBE_S for r, p in zip(host_rates, probes)]
    setup_ref = [t * REF_PROBE_S / p for t, p in setup]
    print(f"frames_per_s: median {statistics.median(rates):.1f} frames per reference "
          f"second over {len(rates)} calls; per host second {quartiles(host_rates)}")
    print(f"setup_s: median {statistics.median(setup_ref):.4f} reference seconds of "
          f"{len(setup)} fresh processes; host seconds {[round(t, 4) for t, _ in setup]}")
    print(f"host probe: {quartiles([p * 1e3 for p in probes])} ms "
          f"(reference {REF_PROBE_S * 1e3:g} ms)")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "frames_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": peak_rss_mb,
    }, reference


def quartiles(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {median:.1f}, quartiles {q1:.1f} .. {q3:.1f}"


def traced_run(u, workload, seed, seconds, sim_seconds, tally):
    """Alternate untraced and traced passes over calls 0 .. TRACE_CALLS-1 of
    the run; per-layer metrics are medians over the traced passes."""
    spec = u.load_preset(workload.preset)
    seeds = [sub_seed(seed, i) for i in range(TRACE_CALLS)]

    def one_pass(wrap=None):
        reports, elapsed = [], 0.0
        for s in seeds:
            done = timed_call(tally, workload, u, spec, s, sim_seconds, wrap)
            if done is None:
                return None
            reports.append(done[0])
            elapsed += done[1]
        return [digest(r) for r in reports], elapsed, reports[0]

    warm = one_pass()  # builds the codec tables; its digests are the reference
    if warm is None:
        return None, None
    plain, traced, passes, last = [], [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        done = one_pass()
        if done is not None:
            plain.append(done[1])
        tracer = Tracer()
        with tracer.installed(u):
            done = one_pass(wrap=lambda fn: tracer.wrap(fn, "engine"))
        if done is not None and tally.record(
                "traced pass", [] if done[0] == warm[0]
                else ["tracing changed the simulated reports"]):
            traced.append(done[1])
            passes.append(per_layer_metrics(tracer))
            last = tracer
        if time.perf_counter() >= deadline:
            break
    if not passes or not plain:
        return None, warm[2]
    counts = [{k: v for k, v in p.items() if not k.endswith("_s")} for p in passes]
    tally.record("per-layer counts", [] if all(c == counts[0] for c in counts)
                 else ["counts differ between passes over the same input"])

    print(f"{'span':24} {'calls':>8} {'total_s':>10} {'self_s':>10}  (last traced pass)")
    for name, (calls, total, own) in sorted(layer_table(last.spans).items()):
        print(f"{name:24} {calls:8d} {total:10.4f} {own:10.4f}")
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    print(f"{len(passes)} traced and {len(plain)} untraced passes over seeds "
          f"{seeds[0]} .. {seeds[-1]}")
    return metrics, warm[2]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sim_seconds: int = SIM_SECONDS, setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run; prints readable lines and returns the result object."""
    u = import_package()
    workload = WORKLOADS[name]
    print(f"uwoclink benchmark: workload {name}, seed {seed}, {seconds:g} s measured, "
          f"trace {int(trace)}")
    print(f"machine: {json.dumps(machine())}")
    tally = Tally()
    if trace:
        metrics, reference = traced_run(u, workload, seed, seconds, sim_seconds, tally)
        units = PER_LAYER_UNITS
    else:
        metrics, reference = untraced_run(u, workload, seed, seconds, sim_seconds,
                                          setup_reps, tally)
        units = END_TO_END_UNITS
    spec = u.load_preset(workload.preset)
    probe_rng = np.random.default_rng(sub_seed(seed, 99_999))
    problems = tally.call("codec probe", codec_probe, u, spec, probe_rng)
    if problems is not None:
        tally.record("codec probe", problems)
    if metrics is None:
        sys.exit("error: no call of the workload completed its checks")
    if reference is not None:
        print(f"simulated (seed {sub_seed(seed, 0)}): "
              f"{json.dumps(simulated_stats(reference))}")
    for key, unit in units.items():
        print(f"{key}: {metrics[key]:.6g} ({unit})")
    print(f"failed_ratio: {tally.failed / tally.attempted:g} "
          f"({tally.failed} of {tally.attempted} operations)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u_} for k, u_ in units.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    rows, status = [], 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
            if trace == 0:
                ratio = result["failed"] / result["attempted"]
                rows.append((name, "failed_ratio", ratio, "ratio"))
    print()
    for name, key, value, unit in rows:
        print(f"{name:14} {key:24} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELD_OUT_SEED} is held out for "
                             f"checking claims (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed loop runs (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the traced run "
                             "(ignored with --workload all, which runs both)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
