"""nfmusic benchmark: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload ref_sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced calls of the same inputs and prints the
per-layer metrics.  The last line of standard output is one JSON object.
Results, the run manifest and every CSV the program wrote go to
``.perfbench_out/<workload>/`` under the repository root.  The exit code is
non-zero when an output check fails.  See README.md for the metric and
workload definitions.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
# Cold starts get the environment as found, whatever importing the program does to it.
ENV_AS_FOUND = dict(os.environ)

try:
    import numpy
    import scipy

    import nfmusic
    from calibrate import BLAS_THREADS, blas_threads, kernel_ms, scaled
    from layertrace import Tracer
    from workloads import PANEL_SEED, WORKLOADS, batch_seed, run_unit, score_fig1, score_sweep
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program under test: {exc}")
if not Path(nfmusic.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: nfmusic was imported from {nfmusic.__file__}, not from this checkout")

PROBES = 3  # cold starts per run; the program's bytecode is already compiled by this process
PROBE_TIMEOUT_S = 120
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class CheckFailed(Exception):
    pass


def declared(metrics, tier):
    """``metrics`` as name -> {value, unit} for the ``tier`` list of BENCHMARK.json,
    which must name exactly the metrics computed."""
    units = {m["name"]: m["unit"] for m in SPEC[tier]}
    if metrics.keys() != units.keys():
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json {tier}: "
                           f"{sorted(metrics.keys() ^ units.keys())}")
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(w, record):
    """Median wall time of fresh interpreters from start to their first result,
    each scaled by the calibration kernel run on either side of it."""
    kernel_ms()  # the first run in a process pays one-time costs; discard it
    times, cal = [], [kernel_ms()]
    for _ in range(PROBES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), w.name],
            cwd=ROOT,
            env=ENV_AS_FOUND,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=PROBE_TIMEOUT_S,
        )
        times.append(time.perf_counter() - started)
        cal.append(kernel_ms())
    record["setup_raw_s"], record["setup_kernel_ms"] = times, cal
    return statistics.median(scaled(times, cal))


def quality(w, out):
    """Quality figures on the fixed panel; also warms every code path before timing."""
    if w.kind == "sweep":
        report, digests = run_unit(w, PANEL_SEED, out / "panel", trials=w.panel_size)
        cfg = dataclasses.replace(w.cfg, seed=PANEL_SEED, trials=w.panel_size)
        return score_sweep(cfg, report), digests
    seeds = range(PANEL_SEED, PANEL_SEED + w.panel_size)
    runs = [run_unit(w, s, out / "panel" / str(s)) for s in seeds]
    cfgs = [dataclasses.replace(w.cfg, seed=s) for s in seeds]
    return score_fig1(cfgs, [r for r, _ in runs]), {s: d for s, (_, d) in zip(seeds, runs)}


def timed_unit(w, seed, out):
    started = time.perf_counter()
    _, digests = run_unit(w, seed, out)
    return (time.perf_counter() - started) * 1e3 / w.trials_per_batch, digests


def plain_run(w, seed, seconds, out, record):
    # The peak covers the whole process: imports, the quality panel, the timed
    # calls and the recheck.  The manifest has it after each phase.
    rss = record["peak_rss_mb_after"] = {"imports": peak_rss_mb()}
    setup_s = setup_seconds(w, record)
    scores, record["panel_sha256"] = quality(w, out)
    rss["panel"] = peak_rss_mb()

    ms, digests, cal = [], [], [kernel_ms()]
    deadline = time.perf_counter() + seconds
    while not ms or time.perf_counter() < deadline:
        t, d = timed_unit(w, batch_seed(seed, len(ms)), out / "sweep")
        cal.append(kernel_ms())
        ms.append(t)
        digests.append(d)
    record["batch_raw_ms_per_trial"], record["batch_kernel_ms"] = ms, cal
    record["batch_sha256"] = digests
    rss["timed"] = peak_rss_mb()

    # Same inputs again at one worker: the output must not depend on timing
    # or on the thread count.
    _, again = run_unit(w, batch_seed(seed, 0), out / "recheck", threads=1)
    if again != digests[0]:
        raise CheckFailed(f"batch 0 rerun at 1 worker wrote other bytes: {again} != {digests[0]}")
    bad = [k for k, v in scores.items() if not math.isfinite(v)]
    if bad:
        raise CheckFailed(f"quality metrics not finite: {bad}")

    metrics = {
        "ms_per_trial": statistics.median(scaled(ms, cal)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        **scores,
    }
    return declared(metrics, "end_to_end"), len(ms) * w.trials_per_batch


def traced_run(w, seed, seconds, out, record):
    run_unit(w, batch_seed(seed, 0), out / "warmup")
    tracer = Tracer()
    plain_ms, traced_ms = [], []
    deadline = time.perf_counter() + seconds
    while not traced_ms or time.perf_counter() < deadline:
        key = batch_seed(seed, len(traced_ms))
        digests = {}
        # Alternate which side goes first so drift falls on both equally.
        for traced in ((False, True) if len(traced_ms) % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    t, digests[traced] = timed_unit(w, key, out / "traced")
                traced_ms.append(t)
            else:
                t, digests[traced] = timed_unit(w, key, out / "plain")
                plain_ms.append(t)
        if digests[True] != digests[False]:
            raise CheckFailed(f"traced call of seed {key} wrote different bytes: {digests}")
    record["plain_raw_ms_per_trial"] = plain_ms
    record["traced_raw_ms_per_trial"] = traced_ms

    tracer.check_reached(w.kind)
    trials = len(traced_ms) * w.trials_per_batch
    metrics = tracer.layer_metrics(trials, w.threads)
    # Each traced call is paired with the untraced call of the same inputs
    # next to it, so host drift cancels in the ratio.
    metrics["trace.overhead_share"] = statistics.median(
        t / p for t, p in zip(traced_ms, plain_ms)
    ) - 1.0
    return declared(metrics, "per_layer"), 2 * trials


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, w):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: ENV_AS_FOUND.get(k) for k in THREAD_VARS},
        "blas_threads": blas_threads(),
        "kernel_blas_threads": BLAS_THREADS,
        "threads": w.threads,
        "config": dataclasses.asdict(w.cfg),
        "panel_seed": PANEL_SEED,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    w = WORKLOADS[args.workload]
    out = ROOT / ".perfbench_out" / w.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record = manifest(args, w)
    (out / "manifest.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    run = traced_run if args.trace else plain_run
    correct = True
    try:
        metrics, attempted = run(w, args.seed, args.seconds, out, record)
    except CheckFailed as exc:
        print(f"perfbench: CHECK FAILED: {exc}", file=sys.stderr)
        correct, metrics, attempted = False, {}, 1
    result = {"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}
    record["result"] = result
    (out / "manifest.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"{w.name}  seed={args.seed}  trace={args.trace}  attempted={attempted}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
