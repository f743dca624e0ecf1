"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from crossloc import cli
from crossloc.cli import main, parse_factor_range, parse_seed_range
from crossloc.errors import FormatError, MetadataMissing, OutOfRange, UsageError
from crossloc.estimator import PipelineConfig, estimate_pose
from crossloc.geometry import apply_transform
from crossloc.io import read_depth_map, read_feature_grid, read_results, write_depth_map
from crossloc.lifting import DepthMap, LiftConfig, lift_ground_cells
from crossloc.simulator import SceneConfig
from crossloc.trainer import TrainConfig

SCENE = dict(
    extent=20.0,
    aerial_cells=7,
    landmark_count=10,
    ground_rows=4,
    ground_cols=10,
    feature_dim=8,
    min_visible=4,
    visibility_range=12.0,
)


@pytest.fixture()
def scene_dir(tmp_path):
    cfg_path = tmp_path / "scene.json"
    cfg_path.write_text(json.dumps(SCENE))
    out = tmp_path / "scenes"
    rc = main(["simulate", "--config", str(cfg_path), "--seeds", "7..8", "--out", str(out)])
    assert rc == 0
    return out


def scene_files(scene_dir, seed):
    stem = os.path.join(str(scene_dir), f"scene_{seed:04d}")
    return {
        "aerial": stem + "_aerial.fgrd",
        "ground": stem + "_ground.fgrd",
        "depth": stem + "_depth.dpth",
        "truth": stem + "_truth.json",
    }


# --- seed/factor parsing ----------------------------------------------------


def test_seed_range_parsing():
    assert parse_seed_range("3..6") == [3, 4, 5, 6]
    assert parse_seed_range("9") == [9]
    with pytest.raises(OutOfRange):
        parse_seed_range("5..2")


def test_factor_range_parsing():
    factors = parse_factor_range("0.001..1000", 7)
    assert len(factors) == 7
    np.testing.assert_allclose(factors[3], 1.0)
    np.testing.assert_allclose(factors[0], 1e-3)
    np.testing.assert_allclose(factors[-1], 1e3)
    with pytest.raises(OutOfRange):
        parse_factor_range("-1..10", 3)
    assert parse_factor_range("2.5", 7) == [2.5]
    # a single factor is held to the range's bounds, as a usage error naming it
    for bad in ("nan", "0", "-1", "inf"):
        with pytest.raises(UsageError, match=rf"^factor '{bad}' must be finite and positive"):
            parse_factor_range(bad, 3)


# --- subcommands ------------------------------------------------------------


def test_simulate_writes_complete_scene_sets(scene_dir):
    for seed in (7, 8):
        files = scene_files(scene_dir, seed)
        for path in files.values():
            assert os.path.exists(path), path
        truth = read_results(files["truth"])
        assert truth["config"]["aerial_cells"] == 7
        assert len(truth["truth"]["t"]) == 2


def test_solve_noiseless_scene_closes(scene_dir, tmp_path):
    files = scene_files(scene_dir, 7)
    out = tmp_path / "res.json"
    rc = main(
        [
            "solve",
            "--aerial", files["aerial"],
            "--ground", files["ground"],
            "--depth", files["depth"],
            "--truth", files["truth"],
            "--num-correspondences", "8",
            "--max-depth", "15",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = read_results(out)
    assert doc["errors"]["loc_error"] < 1e-6
    assert doc["errors"]["ori_error"] < 1e-6
    assert len(doc["overlay"]) == 8
    assert doc["config"]["num_correspondences"] == 8


def test_solve_results_are_deterministic(scene_dir, tmp_path):
    files = scene_files(scene_dir, 7)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = [
        "solve",
        "--aerial", files["aerial"],
        "--ground", files["ground"],
        "--depth", files["depth"],
        "--num-correspondences", "8",
        "--max-depth", "15",
    ]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_solve_writes_ransac_counts_only_when_ransac_ran(scene_dir, tmp_path):
    files = scene_files(scene_dir, 7)
    argv = solve_argv(files, tmp_path / "robust.json", "--ransac", "--ransac-iterations", "30")
    assert main(argv) == 0
    est = read_results(tmp_path / "robust.json")["estimate"]
    assert est["draws"] - est["redraws"] == 30 and est["refit"] is True
    assert main(solve_argv(files, tmp_path / "direct.json")) == 0
    est = read_results(tmp_path / "direct.json")["estimate"]
    assert [est[k] for k in ("inlier_count", "draws", "redraws", "refit")] == [None] * 4


def test_sweep_scale_reports_tiny_deviation(scene_dir, tmp_path):
    files = scene_files(scene_dir, 7)
    out = tmp_path / "sweep.json"
    rc = main(
        [
            "sweep-scale",
            "--aerial", files["aerial"],
            "--ground", files["ground"],
            "--depth", files["depth"],
            "--factors", "0.001..1000",
            "--num-correspondences", "8",
            "--max-depth", "15",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = read_results(out)
    assert len(doc["runs"]) == 7
    assert doc["max_translation_deviation_m"] < 0.01
    for run in doc["runs"]:
        np.testing.assert_allclose(
            run["scale_times_factor"], doc["runs"][3]["scale_times_factor"], rtol=1e-6
        )


def test_metrics_aggregates_solve_outputs(scene_dir, tmp_path):
    outs = []
    for seed in (7, 8):
        files = scene_files(scene_dir, seed)
        out = tmp_path / f"res{seed}.json"
        rc = main(
            [
                "solve",
                "--aerial", files["aerial"],
                "--ground", files["ground"],
                "--depth", files["depth"],
                "--truth", files["truth"],
                "--num-correspondences", "8",
                "--max-depth", "15",
                "--out", str(out),
            ]
        )
        assert rc == 0
        outs.append(str(out))
    summary_path = tmp_path / "summary.json"
    rc = main(["metrics", "--results", *outs, "--out", str(summary_path)])
    assert rc == 0
    doc = read_results(summary_path)
    assert doc["summary"]["count"] == 2
    assert doc["summary"]["recalls"]["R@1m"] == 100.0


def test_metrics_rejects_results_without_errors(scene_dir, tmp_path):
    files = scene_files(scene_dir, 7)
    out = tmp_path / "res.json"
    main(
        [
            "solve",
            "--aerial", files["aerial"],
            "--ground", files["ground"],
            "--depth", files["depth"],
            "--num-correspondences", "8",
            "--max-depth", "15",
            "--out", str(out),
        ]
    )
    rc = main(["metrics", "--results", str(out), "--out", str(tmp_path / "s.json")])
    assert rc == 1


def test_overlay_extracts_point_list(scene_dir, tmp_path):
    files = scene_files(scene_dir, 7)
    res = tmp_path / "res.json"
    main(
        [
            "solve",
            "--aerial", files["aerial"],
            "--ground", files["ground"],
            "--depth", files["depth"],
            "--num-correspondences", "8",
            "--max-depth", "15",
            "--out", str(res),
        ]
    )
    pts = tmp_path / "pts.txt"
    rc = main(["overlay", "--results", str(res), "--out", str(pts)])
    assert rc == 0
    rows = [line.split() for line in pts.read_text().splitlines()]
    assert len(rows) == 8
    doc = read_results(res)
    np.testing.assert_allclose(
        [[float(a), float(b)] for a, b in rows], doc["overlay"]
    )


def test_ablate_no_scale_mode_runs(scene_dir, tmp_path):
    cfg_path = tmp_path / "scene.json"
    cfg_path.write_text(json.dumps(SCENE))
    out = tmp_path / "ablate.json"
    rc = main(
        [
            "ablate", "--mode", "no-scale", "--config", str(cfg_path),
            "--seeds", "1..3", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = read_results(out)
    assert set(doc["variants"]) == {"similarity", "orthogonal"}
    assert doc["variants"]["similarity"]["count"] == 3


def test_gradcheck_subcommand_passes_and_writes(tmp_path):
    out = tmp_path / "grad.json"
    rc = main(["gradcheck", "--seeds", "1..2", "--mode", "score", "--out", str(out)])
    assert rc == 0
    doc = read_results(out)
    assert len(doc["reports"]) == 2
    assert all(r["passed"] for r in doc["reports"])


def test_gradcheck_onto_a_directory_exits_one_and_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "grad"
    out.mkdir()
    rc = main(["gradcheck", "--seeds", "0", "--mode", "projection", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["grad"]
    assert list(out.iterdir()) == []


def test_train_subcommand_smoke(tmp_path):
    cfg = {
        "lr": 0.0,
        "steps": 2,
        "holdout": 1,
        "dataset": {"n_scenes": 3},
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "train_out.json"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    doc = read_results(out)
    assert len(doc["loss_curve"]) == 2
    assert doc["loss_curve"][0] == doc["loss_curve"][1]
    assert len(doc["weights"]["matrix"]) == 16


# --- exit codes -------------------------------------------------------------


def test_main_reuses_one_parser_with_the_fresh_process_results(scene_dir, tmp_path, capsys):
    """One process runs a bad argument (exit 2), a valid ``solve`` and the
    bad argument again: the exit codes and stderr repeat, and the results
    file has the bytes of the same ``solve`` run in a fresh process."""
    bad = ["solve", "--ransac-iterations", "many"]
    assert main(bad) == 2
    first = capsys.readouterr().err
    files = scene_files(scene_dir, 7)
    argv = solve_argv(files, tmp_path / "reused.json", "--ransac", "--ransac-iterations", "30")
    assert main(argv) == 0
    assert main(bad) == 2
    assert capsys.readouterr().err == first and "invalid int value" in first
    fresh = solve_argv(files, tmp_path / "fresh.json", "--ransac", "--ransac-iterations", "30")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "crossloc.cli", *fresh], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "reused.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_argument_is_usage_error(capsys):
    assert main(["solve"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--seeds", "5.."],
        ["gradcheck", "--seeds", "x"],
        ["ablate", "--mode", "N", "--seeds", "0", "--values", "a"],
    ],
    ids=["open-seed-range", "non-numeric-seed", "non-numeric-values"],
)
def test_malformed_argument_values_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_seed_ranges_reject_negative_seeds():
    for text in ("-1", "-2..3"):
        with pytest.raises(UsageError):
            parse_seed_range(text)
    assert parse_seed_range("0..1") == [0, 1]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seeds", "-1"],
        ["ablate", "--mode", "grid", "--values", "5", "--seeds", "0"],
        ["ablate", "--mode", "N", "--values", "0", "--seeds", "0"],
        ["gradcheck", "--seeds", "0", "--tol", "nan"],
        ["gradcheck", "--seeds", "0", "--tol", "inf"],
        ["gradcheck", "--seeds", "0", "--tol", "0"],
        ["gradcheck", "--seeds", "0", "--tol=-0.5"],
    ],
    ids=[
        "negative-seed", "too-small-grid", "zero-count", "nan-tol", "inf-tol", "zero-tol",
        "negative-tol",
    ],
)
def test_settings_checked_after_parsing_are_usage_errors_before_any_scene(
    argv, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "generate", lambda cfg: pytest.fail("a scene was generated"))
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


def test_gradcheck_failure_writes_valid_json(tmp_path, monkeypatch, capsys):
    """A failed check carries infinite errors; --out must still be strict
    JSON (null, not a bare Infinity token), and the command exits 1."""
    real_check = cli.check

    def degenerate_check(ctx, tol):
        collapsed = dataclasses.replace(
            ctx, ground_planar=np.zeros_like(ctx.ground_planar)
        )
        return real_check(collapsed, tol=tol)

    monkeypatch.setattr(cli, "check", degenerate_check)
    out = tmp_path / "grad.json"
    rc = main(["gradcheck", "--seeds", "1", "--mode", "projection", "--out", str(out)])
    assert rc == 1
    capsys.readouterr()
    (report,) = json.loads(out.read_text(), parse_constant=pytest.fail)["reports"]
    assert report["passed"] is False
    assert report["max_abs_err"] is None and report["max_rel_err"] is None
    assert "DegenerateConfiguration" in report["error"]


CONFIG_ARGV = {
    "train": ["train"],
    "simulate": ["simulate", "--seeds", "0"],
    "ablate": ["ablate", "--mode", "no-scale", "--seeds", "0"],
}


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("train", {"steps": "ten"}, "'steps'"),
        ("train", {"dataset": {"bogus": 1}}, "'bogus'"),
        ("train", {"dataset": {"n_scenes": 2.5}}, "'n_scenes'"),
        ("train", {"lr": -1}, "lr"),
        ("train", {"gradient_mode": "fd"}, "'gradient_mode'"),
        ("train", {"batch": True}, "'batch'"),
        ("train", {"seed": -1}, "seed must be an integer >= 0, got -1"),
        ("train", {"holdout": 30}, "'holdout'"),
        ("train", {"dataset": {"n_scenes": 0}}, "n_scenes must be an integer >= 1, got 0"),
        ("train", {"dataset": {"seed": -2}}, "seed must be an integer >= 0, got -2\n"),
        ("train", {"dataset": {"n_scenes": 3, "nuisance_amp": math.nan}},
         "nuisance_amp must be finite and >= 0, got nan"),
        ("train", {"dataset": {"n_scenes": 3, "nuisance_amp": 1e308}},
         "nuisance_amp 1e+308 overflows"),
        ("train", [1, 2], "JSON object"),
        (
            "train",
            {"beta": math.nan, "steps": 2, "holdout": 1, "dataset": {"n_scenes": 3}},
            "beta",
        ),
        ("simulate", {"landmark_count": "many"}, "'landmark_count'"),
        ("simulate", {"outlier_fraction": 0.1}, "'outlier_fraction'"),
        ("simulate", {"landmark_count": -3}, "landmark_count"),
        ("ablate", {"scale_bounds": ["a", 1]}, "'scale_bounds'"),
        ("ablate", {"camera": None}, "'camera'"),
    ],
    ids=[
        "non-numeric-steps",
        "unknown-dataset-key",
        "fractional-scene-count",
        "negative-lr",
        "deleted-gradient-mode",
        "bool-batch",
        "negative-seed",
        "holdout-of-every-scene",
        "no-scenes",
        "negative-dataset-seed",
        "nan-nuisance-amp",
        "overflowing-nuisance-amp",
        "not-an-object",
        "nan-beta",
        "non-numeric-landmarks",
        "deleted-outlier-fraction",
        "negative-landmarks",
        "non-numeric-bounds",
        "null-camera",
    ],
)
def test_invalid_config_files_are_usage_errors(command, doc, named, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    argv = CONFIG_ARGV[command] + ["--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and named in err
    assert not out.exists()


def test_config_values_of_the_annotated_types_are_accepted():
    scene = cli._from_config(
        SceneConfig, {"extent": 20, "scale_bounds": [0.5, 2], "ray_tolerance": None}, "scene"
    )
    assert scene.extent == 20 and scene.scale_bounds == (0.5, 2.0)
    cfg = cli._from_config(TrainConfig, {"lr": 0, "batch": None, "beta": 0.5}, "train")
    assert cfg == TrainConfig(lr=0.0, batch=None, beta=0.5)


def test_runtime_failure_gives_exit_one(tmp_path, capsys):
    rc = main(
        [
            "solve",
            "--aerial", str(tmp_path / "missing.fgrd"),
            "--ground", str(tmp_path / "missing2.fgrd"),
            "--depth", str(tmp_path / "missing.dpth"),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--ransac", "--inlier-threshold", "-1"],
        ["--ransac", "--inlier-threshold", "nan"],
        ["--ransac", "--ransac-iterations", "0"],
        ["--num-correspondences", "0"],
        ["--max-depth", "-1"],
        ["--max-depth", "nan"],
        ["--initial-scale", "inf"],
        ["--initial-scale", "0"],
    ],
    ids=[
        "negative-threshold",
        "nan-threshold",
        "zero-iterations",
        "zero-matches",
        "negative-max-depth",
        "nan-max-depth",
        "inf-initial-scale",
        "zero-initial-scale",
    ],
)
def test_invalid_solver_settings_are_usage_errors(flags, scene_dir, tmp_path, capsys):
    files = scene_files(scene_dir, 7)
    out = tmp_path / "never.json"
    argv = [
        "solve",
        "--aerial", files["aerial"],
        "--ground", files["ground"],
        "--depth", files["depth"],
        "--out", str(out),
    ]
    assert main(argv + flags) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_solve_reports_a_bad_ray_override_as_a_format_error(scene_dir, tmp_path, capsys):
    """A malformed sidecar ends in exit 1 and a one-line error, not a
    traceback."""
    files = scene_files(scene_dir, 7)
    side = files["ground"] + ".json"
    doc = json.loads(open(side).read())
    doc["ray_overrides"] = [[99, 0, [1.0, 0.0, 0.0]]]
    with open(side, "w") as f:
        json.dump(doc, f)
    out = tmp_path / "never.json"
    argv = ["solve", "--aerial", files["aerial"], "--ground", files["ground"],
            "--depth", files["depth"], "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


PINHOLE = {"fx": 5.0, "fy": 5.0, "cx": 4.5, "cy": 1.5}


@pytest.mark.parametrize(
    "grid, edit, key",
    [
        ("aerial", {"meters_per_cell": "abc"}, "meters_per_cell"),
        ("aerial", {"meters_per_cell": 0}, "meters_per_cell"),
        ("aerial", {"meters_per_cell": -2.0}, "meters_per_cell"),
        ("aerial", {"meters_per_cell": float("nan")}, "meters_per_cell"),
        ("aerial", {"meters_per_cell": True}, "meters_per_cell"),
        ("aerial", {"meters_per_cell": 10**400}, "meters_per_cell"),
        ("aerial", {"center_offset": [1, 2, 3]}, "center_offset"),
        ("aerial", {"center_offset": 4.0}, "center_offset"),
        ("aerial", {"center_offset": [0.0, float("inf")]}, "center_offset"),
        ("aerial", {"center_offset": ["a", 0.0]}, "center_offset"),
        ("aerial", [1, 2], "sidecar must be a JSON object"),
        ("aerial", "{not json", "sidecar is not valid JSON"),
        ("ground", [1, 2], "sidecar must be a JSON object"),
        ("ground", {"camera": ["pinhole"]}, "camera"),
        ("ground", {"camera": {"kind": "pinhole", "params": [5.0, 5.0]}}, "camera.params"),
        ("ground", {"camera": {"kind": "pinhole", "params": {**PINHOLE, "k1": 0.1}}},
         "camera.params"),
        ("ground", {"camera": {"kind": "pinhole", "params": {**PINHOLE, "fx": 0.0}}},
         "camera.params.fx"),
        ("ground", {"camera": {"kind": "pinhole", "params": {**PINHOLE, "fy": "5"}}},
         "camera.params.fy"),
        ("ground", {"camera": {"kind": "pinhole", "params": {**PINHOLE, "cx": float("nan")}}},
         "camera.params.cx"),
    ],
    ids=[
        "cell-string", "cell-zero", "cell-negative", "cell-nan", "cell-bool", "cell-huge-int",
        "offset-three", "offset-scalar", "offset-inf", "offset-string", "aerial-list",
        "aerial-not-json",
        "ground-list", "camera-list", "params-list", "params-unknown-key", "fx-zero",
        "fy-string", "cx-nan",
    ],
)
def test_malformed_sidecar_is_a_format_error_with_exit_1(
    grid, edit, key, scene_dir, tmp_path, capsys
):
    """A sidecar of the wrong type, shape or range raises FormatError naming
    the sidecar and the key, and ``solve`` exits 1 with a one-line error
    instead of a traceback or a solve on a nonsensical calibration."""
    files = scene_files(scene_dir, 7)
    side = files[grid] + ".json"
    doc = edit if isinstance(edit, (list, str)) else {**json.loads(open(side).read()), **edit}
    with open(side, "w") as f:
        f.write(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(FormatError) as caught:
        read_feature_grid(files[grid])
    assert side in str(caught.value) and key in str(caught.value)
    out = tmp_path / "never.json"
    argv = ["solve", "--aerial", files["aerial"], "--ground", files["ground"],
            "--depth", files["depth"], "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


def test_sweep_scale_rejects_a_non_finite_scaled_max_depth(tmp_path, capsys):
    """Each factor's max depth is validated too (1e300 x 1e10 overflows),
    before any input file is read."""
    out = tmp_path / "never.json"
    argv = [
        "sweep-scale",
        "--aerial", str(tmp_path / "missing.fgrd"),
        "--ground", str(tmp_path / "missing.fgrd"),
        "--depth", str(tmp_path / "missing.dpth"),
        "--max-depth", "1e300",
        "--factors", "1e10",
        "--out", str(out),
    ]
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_sweep_scale_rejects_non_positive_factor_steps(steps, tmp_path, capsys):
    """A step count below 1 is a usage error, before any input file is read."""
    out = tmp_path / "never.json"
    argv = [
        "sweep-scale",
        "--aerial", str(tmp_path / "missing.fgrd"),
        "--ground", str(tmp_path / "missing.fgrd"),
        "--depth", str(tmp_path / "missing.dpth"),
        "--factor-steps", steps,
        "--out", str(out),
    ]
    assert main(argv) == 2
    assert "--factor-steps" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(UsageError):
        parse_factor_range("1", int(steps))


def solve_argv(files, out, *extra):
    return ["solve", "--aerial", files["aerial"], "--ground", files["ground"],
            "--depth", files["depth"], "--num-correspondences", "8", "--max-depth", "15",
            *extra, "--out", str(out)]


@pytest.mark.parametrize("command", ["metrics", "solve", "train"])
def test_invalid_json_input_is_an_error_naming_the_file(command, scene_dir, tmp_path, capsys):
    """A --results, --truth or --config file that is not JSON exits 1 with a
    one-line error naming it, not a bare decoder message."""
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    out = tmp_path / "never.json"
    argv = {
        "metrics": ["metrics", "--results", str(bad), "--out", str(out)],
        "solve": solve_argv(scene_files(scene_dir, 7), out, "--truth", str(bad)),
        "train": ["train", "--config", str(bad), "--out", str(out)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "not valid JSON" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, doc, error, named",
    [
        ("solve", {"config": {}}, MetadataMissing, "'truth'"),
        ("solve", {"truth": {"scale": 1.0, "theta": 0.0}}, MetadataMissing, "'t'"),
        ("solve", {"truth": {"scale": 1.0, "theta": "x", "t": [0, 0]}}, FormatError,
         "truth.theta"),
        ("solve", {"truth": {"scale": 1.0, "theta": 0.0, "t": [0]}}, FormatError, "truth.t"),
        ("solve", [1], FormatError, "JSON object"),
        ("metrics", {"errors": [1]}, FormatError, "errors"),
        ("metrics", {"errors": {"loc_error": 1.0}}, MetadataMissing, "'ori_error'"),
        ("metrics", {"errors": {"loc_error": 1.0, "ori_error": None, "lateral": 0.0,
                                "longitudinal": 0.0}}, FormatError, "errors.ori_error"),
        ("metrics", "text", FormatError, "JSON object"),
        ("overlay", {"overlay": [1]}, FormatError, "overlay"),
        ("overlay", {"overlay": [[1.0, 2.0, 3.0]]}, FormatError, "overlay"),
        ("overlay", {"overlay": [[1, "x"]]}, FormatError, "overlay"),
    ],
    ids=["no-truth-key", "truth-without-t", "string-theta", "short-t", "truth-list",
         "errors-list", "errors-without-ori", "null-ori", "results-string",
         "overlay-scalar", "overlay-triple", "overlay-string"],
)
def test_wrong_shape_documents_are_named_errors(
    command, doc, error, named, scene_dir, tmp_path, capsys
):
    """A truth or results document of the wrong shape raises a named format
    error (exit 1) naming the file and the key, not a traceback, and writes
    nothing."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never.json"
    if command == "solve":
        argv = solve_argv(scene_files(scene_dir, 7), out, "--truth", str(path))
        with pytest.raises(error) as caught:
            cli._truth_from_results(doc, path)
    else:
        argv = [command, "--results", str(path), "--out", str(out)]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(error) as caught:
            args.func(args)
    assert str(path) in str(caught.value) and named in str(caught.value)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and named in err
    assert not out.exists()


def test_solve_overlay_is_the_lifted_matches_under_the_pose(scene_dir, tmp_path):
    """The overlay is built from the points the estimate lifted, not from a
    second lift of the matched cells."""
    files = scene_files(scene_dir, 7)
    out = tmp_path / "r.json"
    argv = [
        "solve",
        "--aerial", files["aerial"],
        "--ground", files["ground"],
        "--depth", files["depth"],
        "--num-correspondences", "8",
        "--max-depth", "15",
        "--out", str(out),
    ]
    assert main(argv) == 0
    aerial = read_feature_grid(files["aerial"])
    ground = read_feature_grid(files["ground"])
    depth = read_depth_map(files["depth"])
    pipe = PipelineConfig(num_correspondences=8, lift=LiftConfig(max_depth=15.0))
    est = estimate_pose(aerial, ground, depth, ground.meta.rays, pipe)
    cells = np.stack(np.divmod(est.correspondences.ground, ground.cols), axis=1)
    points3 = lift_ground_cells(cells, depth, ground.meta.rays)
    np.testing.assert_array_equal(est.ground_points3, points3)
    expected = apply_transform(est.transform, points3[:, :2])
    assert read_results(out)["overlay"] == expected.tolist()


@pytest.mark.parametrize("command", ["solve", "sweep-scale"])
@pytest.mark.parametrize(
    "aerial, ground, wrong",
    [
        ("ground", "aerial", "aerial"),
        ("ground", "ground", "aerial"),
        ("aerial", "aerial", "ground"),
    ],
    ids=["swapped", "ground-twice", "aerial-twice"],
)
def test_a_grid_of_the_wrong_kind_is_a_format_error_naming_it(
    command, aerial, ground, wrong, scene_dir, tmp_path, capsys
):
    """A grid given to the flag of the other kind exits 1 with an error
    naming the file and the kind the flag needs."""
    files = scene_files(scene_dir, 7)
    out = tmp_path / "never.json"
    argv = [command, "--aerial", files[aerial], "--ground", files[ground],
            "--depth", files["depth"], "--max-depth", "15", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    flagged = files[aerial] if wrong == "aerial" else files[ground]
    assert err.startswith("error: ") and flagged in err and f"--{wrong} needs" in err
    assert not out.exists()
    with pytest.raises(FormatError):
        cli._read_inputs(cli.build_parser().parse_args(argv))


def test_a_depth_map_of_another_shape_exits_one(scene_dir, tmp_path, capsys):
    """A depth map with the ground grid's cell count but another shape is a
    named error (exit 1), not an index error."""
    files = scene_files(scene_dir, 7)
    depth = read_depth_map(files["depth"])
    reshaped = tmp_path / "reshaped.dpth"
    write_depth_map(DepthMap(depth.depth.reshape(10, 4), depth.kind), str(reshaped))
    out = tmp_path / "never.json"
    argv = solve_argv(dict(files, depth=str(reshaped)), out)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "depth map (10, 4) vs ground grid (4, 10)" in err
    assert not out.exists()
