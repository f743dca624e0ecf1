"""Command-line surface: simulation, solving, sweeps, ablations, training.

Every subcommand reads/writes the package's artifact formats (FGRD/DPTH
binaries, sorted-key JSON results) so runs with fixed seeds reproduce
byte-identical outputs.  Exit codes: 0 success, 1 runtime failure
(reported on stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import math
import os
import sys

import numpy as np

from .errors import CrosslocError, FormatError, MetadataMissing, OutOfRange, UsageError
from .errors import require_real
from .estimator import PipelineConfig, RansacConfig, estimate_pose
from .geometry import SimilarityTransform2D, apply_transform
from .gradcheck import build_context, check
from .io import (
    _atomic_write_bytes,
    _json_number,
    read_depth_map,
    read_feature_grid,
    read_results,
    write_depth_map,
    write_feature_grid,
    write_results,
)
from .lifting import DepthMap, LiftConfig
from .metrics import ErrorSample, pose_errors, summarize
from .simulator import SceneConfig, generate
from .trainer import (
    REFERENCE_TRAIN,
    TrainConfig,
    reference_dataset,
    reference_eval_pipeline,
    reference_pipeline,
    train,
)

__all__ = ["main", "entry", "build_parser"]


def _parse_number(text: str, kind, what: str):
    """``kind(text)``, with a malformed value raised as a UsageError."""
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{what}: expected a number, got {text!r}") from None


def parse_seed_range(text: str):
    """'A..B' -> inclusive list of seeds; a single integer is a one-seed list.
    Seeds are non-negative."""
    if ".." in text:
        lo, hi = (_parse_number(v, int, "seed range") for v in text.split("..", 1))
        if hi < lo:
            raise UsageError(f"empty seed range {text!r}")
    else:
        lo = hi = _parse_number(text, int, "seed")
    if lo < 0:
        raise UsageError(f"seeds must be >= 0, got {text!r}")
    return list(range(lo, hi + 1))


def parse_factor_range(text: str, steps: int):
    """'0.001..1000' -> ``steps`` (>= 1) log-spaced factors, endpoints
    inclusive; a single factor is a one-factor list.  Factors are finite
    and positive."""
    if steps < 1:
        raise UsageError(f"--factor-steps must be >= 1, got {steps}")
    single = ".." not in text
    what = "factor" if single else "factor range"
    ends = (text, text) if single else text.split("..", 1)
    lo, hi = (_parse_number(v, float, what) for v in ends)
    if not 0 < lo <= hi < math.inf:
        need = "finite and positive" if single else "finite, positive and increasing"
        raise UsageError(f"{what} {text!r} must be {need}")
    if single:
        return [lo]
    return [float(f) for f in np.logspace(math.log10(lo), math.log10(hi), steps)]


def _from_args(build, *args, **kwargs):
    """``build(*args, **kwargs)``, with OutOfRange raised as a UsageError."""
    try:
        return build(*args, **kwargs)
    except OutOfRange as e:
        raise UsageError(str(e)) from None


def _from_config(build, doc, what: str):
    """``build(**doc)`` for a JSON config object (lists become tuples); an
    unknown key, or a value that ``build`` rejects as OutOfRange (of the
    wrong type or out of range), is a UsageError naming the key."""
    if not isinstance(doc, dict):
        raise UsageError(f"{what} config must be a JSON object, got {doc!r}")
    params = inspect.signature(build).parameters
    for key in doc:
        if key not in params:
            raise UsageError(f"unknown {what} config key {key!r}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
    try:
        return build(**kwargs)
    except OutOfRange as e:
        key = "" if e.field is None else f"{what} config key {e.field!r}: "
        raise UsageError(f"{key}{e}") from None


def _pipeline_from_args(args) -> PipelineConfig:
    ransac = None
    if getattr(args, "ransac", False):
        ransac = RansacConfig(
            iterations=args.ransac_iterations,
            inlier_threshold=args.inlier_threshold,
        )
    return PipelineConfig(
        num_correspondences=args.num_correspondences,
        lift=LiftConfig(
            max_depth=args.max_depth,
            initial_scale=args.initial_scale,
            projection_mode="topmost" if getattr(args, "topmost", False) else "all",
        ),
        ransac=ransac,
        scale_aware=not getattr(args, "no_scale", False),
    )


def _solve_record(est, truth=None) -> dict:
    record = {
        "estimate": {
            "scale": float(est.transform.scale),
            "theta": float(est.transform.theta),
            "t": [float(v) for v in est.transform.t],
            "inlier_count": est.inlier_count,
            "draws": est.draws,
            "redraws": est.redraws,
            "refit": est.refit,
        }
    }
    if truth is not None:
        record["errors"] = dataclasses.asdict(
            pose_errors(est.transform, truth, heading=truth.theta)
        )
    return record


def _section(doc, key: str, fields, path) -> list:
    """``doc[key][f]`` for each of ``fields`` in the JSON document read from
    ``path``.  A missing key raises MetadataMissing, and a document or
    ``doc[key]`` that is not an object FormatError, naming the file and key."""
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise MetadataMissing(f"{path}: missing key {key!r}")
    if not isinstance(doc[key], dict):
        raise FormatError(f"{path}: {key} must be an object, got {doc[key]!r}")
    missing = [f for f in fields if f not in doc[key]]
    if missing:
        raise MetadataMissing(f"{path}: {key} lacks key {missing[0]!r}")
    return [doc[key][f] for f in fields]


def _truth_from_results(doc, path):
    scale, theta, t = _section(doc, "truth", ("scale", "theta", "t"), path)
    if not (isinstance(t, list) and len(t) == 2):
        raise FormatError(f"{path}: truth.t must be two numbers, got {t!r}")
    return SimilarityTransform2D(
        _json_number(path, "truth.scale", scale, positive=True),
        _json_number(path, "truth.theta", theta),
        np.array([_json_number(path, "truth.t", v) for v in t]),
    )


# --- subcommands ------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _from_config(SceneConfig, read_results(args.config) if args.config else {}, "scene")
    seeds = parse_seed_range(args.seeds)
    os.makedirs(args.out, exist_ok=True)
    for seed in seeds:
        scene = generate(dataclasses.replace(cfg, seed=seed))
        stem = os.path.join(args.out, f"scene_{seed:04d}")
        write_feature_grid(scene.aerial, stem + "_aerial.fgrd")
        write_feature_grid(scene.ground, stem + "_ground.fgrd")
        write_depth_map(scene.depth, stem + "_depth.dpth")
        write_results(
            {
                "config": dataclasses.asdict(scene.config),
                "truth": {
                    "scale": float(scene.truth.scale),
                    "theta": float(scene.truth.theta),
                    "t": [float(v) for v in scene.truth.t],
                },
                "scale_gt": float(scene.scale_gt),
            },
            stem + "_truth.json",
        )
        print(f"wrote {stem}_[aerial|ground|depth|truth]")
    return 0


def _read_inputs(args):
    """The ``--aerial`` and ``--ground`` grids and the ``--depth`` map; a
    grid of the other kind raises FormatError naming its file."""
    grids = []
    for path, kind in ((args.aerial, "aerial"), (args.ground, "ground")):
        grid = read_feature_grid(path)
        if grid.kind != kind:
            raise FormatError(f"{path}: grid kind {grid.kind!r}, but --{kind} needs {kind!r}")
        grids.append(grid)
    return (*grids, read_depth_map(args.depth))


def cmd_solve(args) -> int:
    pipe = _from_args(_pipeline_from_args, args)
    aerial, ground, depth = _read_inputs(args)
    est = estimate_pose(aerial, ground, depth, ground.meta.rays, pipe)
    truth = _truth_from_results(read_results(args.truth), args.truth) if args.truth else None
    record = _solve_record(est, truth)
    record["config"] = _pipeline_echo(pipe)
    record["overlay"] = apply_transform(est.transform, est.ground_points3[:, :2]).tolist()
    write_results(record, args.out)
    line = "scale={scale:.6g} theta={theta:.6g} t=({t[0]:.6g}, {t[1]:.6g})".format(
        **record["estimate"]
    )
    if "errors" in record:
        line += f" loc_error={record['errors']['loc_error']:.3g}m"
    print(line)
    return 0


def _pipeline_echo(pipe: PipelineConfig) -> dict:
    doc = {
        "tau": pipe.tau,
        "num_correspondences": pipe.num_correspondences,
        "dustbin_z": pipe.dustbin_z,
        "max_depth": pipe.lift.max_depth,
        "initial_scale": pipe.lift.initial_scale,
        "projection_mode": pipe.lift.projection_mode,
        "scale_aware": pipe.scale_aware,
    }
    if pipe.ransac is not None:
        doc["ransac"] = {
            "iterations": pipe.ransac.iterations,
            "inlier_threshold": pipe.ransac.inlier_threshold,
            "seed": pipe.ransac.seed,
        }
    return doc


def cmd_sweep_scale(args) -> int:
    factors = parse_factor_range(args.factors, args.factor_steps)
    base = _from_args(_pipeline_from_args, args)
    lifts = [
        _from_args(dataclasses.replace, base.lift, max_depth=args.max_depth * factor)
        for factor in factors
    ]
    aerial, ground, depth = _read_inputs(args)
    runs = []
    for factor, lift in zip(factors, lifts):
        pipe = dataclasses.replace(base, lift=lift)
        scaled = DepthMap(depth.depth * factor, depth.kind)
        est = estimate_pose(aerial, ground, scaled, ground.meta.rays, pipe)
        runs.append(
            {
                "factor": factor,
                "scale": float(est.transform.scale),
                "scale_times_factor": float(est.transform.scale * factor),
                "theta": float(est.transform.theta),
                "t": [float(v) for v in est.transform.t],
            }
        )
    reference = min(runs, key=lambda r: abs(math.log10(r["factor"])))
    deviation = max(
        float(np.linalg.norm(np.array(r["t"]) - np.array(reference["t"])))
        for r in runs
    )
    doc = {
        "factors": factors,
        "runs": runs,
        "max_translation_deviation_m": deviation,
    }
    write_results(doc, args.out)
    print(f"max translation deviation across factors: {deviation:.3e} m")
    return 0


ABLATION_MODES = ("top-points", "no-scale", "N", "grid")


def cmd_ablate(args) -> int:
    base = _from_config(SceneConfig, read_results(args.config) if args.config else {}, "scene")
    seeds = parse_seed_range(args.seeds)
    values = (
        [_parse_number(v, int, "--values") for v in args.values.split(",")]
        if args.values
        else None
    )
    variants = _from_args(_ablation_variants, args.mode, values)
    configs = [_from_args(dataclasses.replace, base, **patch) for _, patch, _ in variants]
    results = {}
    for (name, _, pipe), scene_cfg in zip(variants, configs):
        samples = []
        for seed in seeds:
            scene = generate(dataclasses.replace(scene_cfg, seed=seed))
            est = estimate_pose(scene.aerial, scene.ground, scene.depth, scene.rays, pipe)
            samples.append(
                pose_errors(est.transform, scene.truth, heading=scene.truth.theta)
            )
        results[name] = summarize(samples).to_dict()
        print(
            f"{name}: median loc {results[name]['medians']['loc']:.3f} m, "
            f"median ori {results[name]['medians']['ori']:.3f} deg"
        )
    write_results({"mode": args.mode, "variants": results}, args.out)
    return 0


def _ablation_variants(mode: str, values):
    base_pipe = PipelineConfig(num_correspondences=128)
    if mode == "top-points":
        return [
            ("all-points", {}, base_pipe),
            (
                "topmost",
                {},
                dataclasses.replace(
                    base_pipe,
                    lift=dataclasses.replace(base_pipe.lift, projection_mode="topmost"),
                ),
            ),
        ]
    if mode == "no-scale":
        return [
            ("similarity", {}, base_pipe),
            ("orthogonal", {}, dataclasses.replace(base_pipe, scale_aware=False)),
        ]
    if mode == "N":
        values = values or [8, 16, 32, 64, 128]
        return [
            (f"N={n}", {}, dataclasses.replace(base_pipe, num_correspondences=n))
            for n in values
        ]
    values = values or [21, 41, 61]  # "grid"
    return [(f"grid={g}", {"aerial_cells": g}, base_pipe) for g in values]


def cmd_train(args) -> int:
    # With no --config the pinned reference configuration runs end to end;
    # config fields not given fall back to the TrainConfig defaults.
    doc = read_results(args.config) if args.config else {}
    data_doc = doc.pop("dataset", {}) if isinstance(doc, dict) else {}
    cfg = REFERENCE_TRAIN if doc == {} else _from_config(TrainConfig, doc, "train")
    scenes = _from_config(reference_dataset, data_doc, "dataset")
    if cfg.holdout >= len(scenes):
        raise UsageError(f"train config key 'holdout' cannot be {cfg.holdout}: it leaves "
                         f"no training scenes out of {len(scenes)}")
    result = train(
        scenes, cfg, reference_pipeline(), eval_pipe=reference_eval_pipeline()
    )
    m = result.metrics()
    record = {
        "train_config": dataclasses.asdict(cfg),
        "dataset": data_doc,
        "loss_curve": [float(v) for v in result.loss_curve],
        "metrics": m,
        "weights": {
            "matrix": [[float(v) for v in row] for row in result.weights.matrix],
            "dustbin_z": float(result.weights.dustbin_z),
        },
    }
    write_results(record, args.out)
    print(
        f"loss {m['initial_loss']:.4f} -> {m['final_smoothed_loss']:.4f} (smoothed) "
        f"over {m['steps']} steps"
    )
    return 0


GRADCHECK_SCENE = SceneConfig(
    extent=20.0,
    aerial_cells=7,
    landmark_count=10,
    ground_rows=4,
    ground_cols=8,
    feature_dim=8,
    noise_sigma=0.15,
    visibility_range=12.0,
    min_visible=4,
    max_height=6.0,
)


def cmd_gradcheck(args) -> int:
    _from_args(require_real, "--tol", args.tol, 0, ends="()")
    modes = ("score", "features", "projection") if args.mode == "all" else (args.mode,)
    pipe = PipelineConfig(num_correspondences=8, lift=LiftConfig(max_depth=15.0))
    reports = []
    failed = False
    for seed in parse_seed_range(args.seeds):
        scene = generate(dataclasses.replace(GRADCHECK_SCENE, seed=seed))
        for mode in modes:
            ctx = build_context(scene, pipe, mode=mode)
            report = check(ctx, tol=args.tol)
            reports.append({"seed": seed, **report.to_dict()})
            status = "PASS" if report.passed else "FAIL"
            detail = (
                f"max_rel={report.max_rel_err:.3e}"
                if report.error is None
                else report.error
            )
            print(f"seed={seed} mode={mode}: {status} ({detail})")
            failed = failed or not report.passed
    if args.out:
        write_results({"tol": args.tol, "reports": reports}, args.out)
    return 1 if failed else 0


def cmd_metrics(args) -> int:
    fields = [f.name for f in dataclasses.fields(ErrorSample)]
    samples = []
    for path in args.results:
        doc = read_results(path)
        if isinstance(doc, dict) and "errors" not in doc:
            raise MetadataMissing(
                f"{path} has no per-sample errors; solve it with --truth first"
            )
        values = _section(doc, "errors", fields, path)
        samples.append(
            ErrorSample(*(_json_number(path, f"errors.{f}", v) for f, v in zip(fields, values)))
        )
    summary = summarize(samples)
    write_results({"summary": summary.to_dict()}, args.out)
    print(
        f"n={summary.count} median loc {summary.medians['loc']:.3f} m, "
        f"median ori {summary.medians['ori']:.3f} deg, "
        + ", ".join(f"{k}={v:.1f}%" for k, v in summary.recalls.items())
    )
    return 0


def cmd_overlay(args) -> int:
    path = args.results
    doc = read_results(path)
    if not (isinstance(doc, dict) and "overlay" in doc):
        raise MetadataMissing(f"{path}: carries no overlay point list")
    points = doc["overlay"]
    if not (isinstance(points, list) and all(isinstance(p, list) and len(p) == 2 for p in points)):
        raise FormatError(f"{path}: overlay must be a list of [x, y] pairs")
    lines = "".join(
        f"{_json_number(path, 'overlay', x)!r} {_json_number(path, 'overlay', y)!r}\n"
        for x, y in points
    )
    _atomic_write_bytes(args.out, lines.encode())
    print(f"wrote {len(points)} points to {args.out}")
    return 0


# --- parser -----------------------------------------------------------------


def _add_solver_flags(p, num_default=256):
    p.add_argument("--num-correspondences", type=int, default=num_default)
    p.add_argument("--initial-scale", type=float, default=1.0)
    p.add_argument("--max-depth", type=float, default=35.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossloc",
        description="Cross-view pose estimation: simulate, solve, sweep, train.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic scenes to files")
    p.add_argument("--config", help="JSON file of scene-config overrides")
    p.add_argument("--seeds", required=True, help="A..B inclusive, or one seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="estimate the pose for one grid pair")
    p.add_argument("--aerial", required=True)
    p.add_argument("--ground", required=True)
    p.add_argument("--depth", required=True)
    p.add_argument("--truth", help="truth results file to score against")
    p.add_argument("--ransac", action="store_true")
    p.add_argument("--ransac-iterations", type=int, default=1000)
    p.add_argument("--inlier-threshold", type=float, default=1.0)
    p.add_argument("--topmost", action="store_true")
    p.add_argument("--no-scale", action="store_true")
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep-scale", help="re-solve under global depth rescalings")
    p.add_argument("--aerial", required=True)
    p.add_argument("--ground", required=True)
    p.add_argument("--depth", required=True)
    p.add_argument("--factors", default="0.001..1000")
    p.add_argument("--factor-steps", type=int, default=7)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_scale)

    p = sub.add_parser("ablate", help="compare estimator variants on seeded scenes")
    p.add_argument("--mode", required=True, choices=ABLATION_MODES)
    p.add_argument("--config", help="JSON file of scene-config overrides")
    p.add_argument("--seeds", required=True)
    p.add_argument("--values", help="comma-separated sweep values (N/grid modes)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("train", help="fit the shared feature projection")
    p.add_argument("--config", help="JSON file of train-config fields")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference gradient certification")
    p.add_argument("--seeds", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--mode", default="all", choices=("all", "score", "features", "projection"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("metrics", help="summarize solve results files")
    p.add_argument("--results", required=True, nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("overlay", help="extract layout points for plotting")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_overlay)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses for every call in a process: parsing
    leaves it unchanged, and building it costs about as much as a small
    command."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    # the command is looked up by name at call time, so a wrapped or patched
    # ``cmd_*`` runs even though the parser was built before
    command = globals()[args.func.__name__]
    try:
        return command(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (CrosslocError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
