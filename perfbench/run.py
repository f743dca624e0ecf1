"""crossloc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload localize --seed 0 --seconds 30 --trace 0

Run from the root of a crossloc checkout; the package is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` replays the same ops alternately traced and untraced and
reports the per-layer metrics.  The last line of standard output is
one JSON object (correct, attempted, failed, metrics); the line before it
records the environment and workload details.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread: the workloads are a single client, and on a small shared
# machine BLAS helper threads add contention and CPU time, not throughput.
# Set before numpy loads; the thread count is recorded in every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import crossloc.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("localize", "train", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds() -> float:
    """Time to import crossloc in a fresh interpreter.

    The benchmark's own process imports crossloc only once, so the import
    part of set-up is timed in a short-lived child process, waited for.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def set_up(name: str, seed: int, work_dir: str):
    """One set-up: import crossloc fresh, then build the workload's inputs.

    Returns the workload and the import and build seconds.
    """
    import workloads

    import_s = import_seconds()
    workload = workloads.make(name, seed, str(ROOT))
    os.mkdir(work_dir)
    t = time.perf_counter()
    workload.build(work_dir)
    return workload, import_s, time.perf_counter() - t


def percentile_with_support(samples, q):
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) <= 10:
        return None
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return value if sum(s > value for s in samples) >= 10 else None


def timed_loop(workload, seconds: float, sample_setup):
    """Closed loop of rounds until ``seconds`` of round time have passed.

    ``sample_setup()`` is called SETUP_REPEATS - 1 times between rounds,
    spread evenly over the loop and left out of its wall and CPU time, so
    that set-up is sampled over the same stretch of time as the ops.
    Returns the rounds (each a list of ops), the wall and the CPU seconds.
    """
    done = []
    wall = cpu = 0.0
    samples = 1  # the set-up that built ``workload``
    while wall < seconds:
        if samples < SETUP_REPEATS and wall >= samples * seconds / SETUP_REPEATS:
            sample_setup()
            samples += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        done.append(workload.run_round(len(done)))
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
    for _ in range(samples, SETUP_REPEATS):
        sample_setup()
    return done, wall, cpu


def end_to_end(workload, seconds, sample_setup, setups):
    """The end-to-end metrics; ``setups`` collects (import_s, build_s) pairs."""
    rounds, wall, cpu = timed_loop(workload, seconds, sample_setup)
    ops = [op for ops in rounds for op in ops]
    # one latency sample per round: its wall time over the ops it completed
    latencies = [1e3 * sum(op.latency_s for op in ops) / len(ops) for ops in rounds]
    failures = [op.note for op in ops if not op.ok]
    metrics = {
        "ops_per_s": (len(ops) / wall, "op/s"),
        "cpu_ms_per_op": (cpu * 1e3 / len(ops), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(i + b for i, b in setups), "s"),
    }
    detail = {
        "failed_frac": len(failures) / len(ops),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile_with_support(latencies, 90),
        "latency_samples": len(latencies),
        "ops": len(ops),
        "timed_wall_s": wall,
        "failures": failures[:5],
        "setup_import_s": [i for i, _ in setups],
        "setup_build_s": [b for _, b in setups],
        **workload.detail(len(ops)),
    }
    return ops, failures, metrics, detail


def traced(workload, seconds, trace_path):
    """Whole passes, alternately traced and untraced, until ``seconds`` pass.

    Every pass replays the same rounds, so per-op counts do not depend on how
    many passes fit in the time.  Pairs of passes run traced then untraced,
    then untraced then traced, and so on, so that a drift in the machine's
    speed falls on both modes alike.  ``trace.overhead_frac`` is the traced
    over the untraced ops per second, minus 1: negative when tracing slows
    the ops down.
    """
    from layers import per_layer, top_self_ms
    from tracer import Tracer

    tracer = Tracer()
    ops = {True: [], False: []}
    wall = {True: 0.0, False: 0.0}
    traced_rounds = 0
    pairs = 0
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < seconds:
        for on in ((True, False) if pairs % 2 == 0 else (False, True)):
            if on:
                tracer.install()
            try:
                wall0 = time.perf_counter()
                for r in range(workload.PASS_ROUNDS):
                    if on:
                        tracer.op_id = traced_rounds
                        traced_rounds += 1
                    ops[on].extend(workload.run_round(r))
                wall[on] += time.perf_counter() - wall0
            finally:
                tracer.uninstall()
        pairs += 1
    tracer.write(trace_path)
    n_ops = len(ops[True])
    overhead = (n_ops / wall[True]) / (len(ops[False]) / wall[False]) - 1
    metrics, checks = per_layer(tracer, n_ops=n_ops, overhead_frac=overhead)
    ops = ops[True] + ops[False]
    failures = [op.note for op in ops if not op.ok] + checks
    detail = {
        "pass_pairs": pairs,
        "traced_ops": n_ops,
        "traced_wall_s": wall[True],
        "untraced_wall_s": wall[False],
        "spans": len(tracer.start),
        "trace_file": os.path.relpath(trace_path, ROOT),
        "identity_violations": checks[:5],
        "top_self_ms": top_self_ms(tracer, n_ops),
        "failures": failures[:5],
    }
    return ops, failures, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "crossloc").is_dir():
        print(f"error: no crossloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import envinfo

    OUT_DIR.mkdir(exist_ok=True)
    work_root = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR)
    try:
        workload, *first = set_up(args.workload, args.seed, os.path.join(work_root, "inputs"))
        setups = [tuple(first)]

        def sample_setup():
            work_dir = os.path.join(work_root, f"setup{len(setups)}")
            _, *times = set_up(args.workload, args.seed, work_dir)
            shutil.rmtree(work_dir)
            setups.append(tuple(times))

        workload.warmup()
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
            ops, failures, metrics, detail = traced(workload, args.seconds, trace_path)
        else:
            ops, failures, metrics, detail = end_to_end(
                workload, args.seconds, sample_setup, setups
            )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": envinfo.record(ROOT),
        "detail": detail,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
