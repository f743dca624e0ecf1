"""Measure the baseline of the workloads and write it as JSON.

    python3 perfbench/make_baseline.py --seeds 0..9 --sets 2 --out perfbench/baseline.json
    python3 perfbench/make_baseline.py --workloads localize --seeds 0..4 --traced-runs 0 --out spread.json

Each run is one ``perfbench/run.py`` process, one after another.  Per
workload: one untraced run per seed, summarized as median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and spread (the distance
between the quartiles as a share of the median) of every end-to-end metric,
with the detail-line figures (failed_frac, recall_1m, op_p50_ms, op_p90_ms,
the loss-curve gap); then traced runs of the first seed, whose per-layer
table is kept and whose exact counts must agree.  With ``--sets 2`` every
workload's seeds are run a second time after all of that, and each metric's
second median is compared with the first against its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from layers import EXACT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("localize", "train", "certify")


def seed_list(text: str):
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"seed": seed, "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(runs: list) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "samples": len(values),
        }
    return summary


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def untraced_set(workload: str, seeds: list, seconds: int) -> dict:
    runs = []
    for seed in seeds:
        runs.append(run_once(workload, seed, seconds, 0))
        metrics = runs[-1]["result"]["metrics"]
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in metrics.items()), flush=True)
    details = [r["info"]["detail"] for r in runs]
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    record = {
        "seeds": seeds,
        "end_to_end": summarize(runs),
        "per_run": {
            name: [r["result"]["metrics"][name]["value"] for r in runs]
            for name in runs[0]["result"]["metrics"]
        },
        "all_correct": all(r["result"]["correct"] for r in runs),
        "failed_frac": failed / attempted,
        "ops_attempted": attempted,
        "op_p50_ms_per_run": [d["op_p50_ms"] for d in details],
        "op_p90_ms_median": _median(d.get("op_p90_ms") for d in details),
        "latency_samples_per_run": [d["latency_samples"] for d in details],
        "env": runs[0]["info"]["env"],
    }
    if workload == "localize":
        record["recall_1m_per_run"] = [d["recall_1m"] for d in details]
        record["recall_1m_median"] = statistics.median(record["recall_1m_per_run"])
    if workload == "train":
        record["curve_max_gap_per_run"] = {
            str(r["seed"]): d["curve_max_gap"] for r, d in zip(runs, details)
        }
    return record


def traced_runs(workload: str, seed: int, seconds: int, count: int) -> dict:
    """Traced runs of one seed: the per-layer table and the repeat check."""
    traced = [run_once(workload, seed, seconds, 1) for _ in range(count)]
    per_layer = [t["result"]["metrics"] for t in traced]
    return {
        "seed": seed,
        "correct": [t["result"]["correct"] for t in traced],
        "per_layer": {k: v["value"] for k, v in per_layer[0].items()},
        "units": {k: v["unit"] for k, v in per_layer[0].items()},
        "exact_counts_repeat": all(
            p[k]["value"] == per_layer[0][k]["value"] for p in per_layer for k in EXACT
        ),
        "overhead_frac_per_run": [p["trace.overhead_frac"]["value"] for p in per_layer],
        "pass_pairs_per_run": [t["info"]["detail"]["pass_pairs"] for t in traced],
        "top_self_ms": traced[0]["info"]["detail"]["top_self_ms"],
    }


def compare(first: dict, second: dict, spec: dict) -> dict:
    """Second set against the first: each metric's change and whether it holds."""
    out = {}
    for name, a in first.items():
        b = second[name]
        change = (b["median"] - a["median"]) / a["median"]
        worse = change if spec[name]["better"] == "lower" else -change
        out[name] = {
            "median": b["median"],
            "spread": b["spread"],
            "change": change,
            "within_bound": worse <= spec[name]["bound"],
        }
    return out


def report(doc: dict, spec: dict) -> None:
    for workload, rec in doc["workloads"].items():
        for name, s in rec["end_to_end"].items():
            bound = spec[name]["bound"]
            flag = "" if s["spread"] < bound / 3 else "  <-- spread above bound/3"
            line = (f"{workload:9s} {name:14s} median {s['median']:.5g} "
                    f"spread {s['spread']:.3f} (bound {bound})")
            if "repeat" in rec:
                r = rec["repeat"][name]
                line += f" | set 2 spread {r['spread']:.3f} change {r['change']:+.3f}"
                flag += "" if r["within_bound"] else "  <-- set 2 worse than bound"
                flag += "" if r["spread"] < bound / 3 else "  <-- set 2 spread above bound/3"
            print(line + flag)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0..9")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--traced-runs", type=int, default=2)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = seed_list(args.seeds)
    names = args.workloads.split(",")

    doc = {"run_seconds": seconds, "workloads": {}}

    def save():
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    for workload in names:
        doc["workloads"][workload] = untraced_set(workload, seeds, seconds)
        save()
    if args.traced_runs:
        for workload in names:
            doc["workloads"][workload]["traced"] = traced_runs(
                workload, seeds[0], seconds, args.traced_runs
            )
            save()
    if args.sets == 2:
        for workload in names:
            rec = doc["workloads"][workload]
            second = untraced_set(workload, seeds, seconds)
            rec["repeat"] = compare(rec["end_to_end"], second["end_to_end"], spec)
            rec["repeat_per_run"] = second["per_run"]
            rec["repeat_all_correct"] = second["all_correct"]
            rec["repeat_failed_frac"] = second["failed_frac"]
            save()
    report(doc, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
