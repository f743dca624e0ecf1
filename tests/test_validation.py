"""One validation rule for every config and public scalar argument.

``errors.require_int``, ``require_real`` and ``require_choice`` reject a
bool, a value of the wrong type, NaN and anything out of range with an
OutOfRange whose ``field`` names the argument, and they never convert a
value: what a config stores is what it was given.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from crossloc import gradcheck, matching, trainer
from crossloc.cli import main
from crossloc.errors import DimensionMismatch, OutOfRange, require_bool, require_choice, require_int, require_real
from crossloc.estimator import PipelineConfig, RansacConfig
from crossloc.lifting import LiftConfig
from crossloc.losses import virtual_point_grid
from crossloc.simulator import SceneConfig
from crossloc.trainer import TrainConfig, smoothed_curve

CONFIGS = (RansacConfig, PipelineConfig, LiftConfig, SceneConfig, TrainConfig)

# a valid value for each numeric field whose default is None
NONE_DEFAULT_STANDS_IN = {"batch": 2, "ray_tolerance": 0.05}


def numeric_fields():
    for config in CONFIGS:
        for f in dataclasses.fields(config):
            kind = f.type.removeprefix("Optional[").rstrip("]")
            if kind in ("int", "float"):
                yield config, f.name, kind


NUMERIC = list(numeric_fields())
NUMERIC_IDS = [f"{config.__name__}.{name}" for config, name, _ in NUMERIC]


@pytest.mark.parametrize("config, name, kind", NUMERIC, ids=NUMERIC_IDS)
@pytest.mark.parametrize("bad", [True, False, "1", math.nan], ids=["true", "false", "str", "nan"])
def test_every_numeric_config_field_rejects_a_bool_a_string_and_nan(config, name, kind, bad):
    with pytest.raises(OutOfRange) as info:
        config(**{name: bad})
    assert info.value.field == name
    assert str(info.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("config, name, kind", NUMERIC, ids=NUMERIC_IDS)
def test_numpy_numbers_are_accepted_and_stored_unconverted(config, name, kind):
    default = getattr(config(), name)
    plain = NONE_DEFAULT_STANDS_IN[name] if default is None else default
    value = np.int64(plain) if kind == "int" else np.float64(plain)
    assert getattr(config(**{name: value}), name) is value


def test_plain_ints_for_float_fields_stay_ints():
    """An int given for a float field is stored as given, so a scene's
    sidecar (which records its config) keeps the same bytes."""
    assert type(SceneConfig(extent=20).extent) is int
    assert type(TrainConfig(lr=0).lr) is int
    assert SceneConfig(scale_bounds=[0.5, 2]).scale_bounds == [0.5, 2]


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: SceneConfig(aerial_cells=21.5), "aerial_cells"),
        (lambda: SceneConfig(seed=1.5), "seed"),
        (lambda: SceneConfig(seed=True), "seed"),
        (lambda: PipelineConfig(num_correspondences=2.5), "num_correspondences"),
        (lambda: PipelineConfig(num_correspondences=True), "num_correspondences"),
        (lambda: PipelineConfig(dustbin_z=math.nan), "dustbin_z"),
        (lambda: PipelineConfig(tau=True), "tau"),
        (lambda: TrainConfig(lr=True), "lr"),
        (lambda: matching.score_matrix(np.eye(2), np.eye(2), tau=math.nan), "tau"),
        (lambda: matching.score_matrix(np.eye(2), np.eye(2), tau=math.inf), "tau"),
        (lambda: virtual_point_grid(extent=math.nan), "extent"),
        (lambda: virtual_point_grid(extent=math.inf), "extent"),
        (lambda: matching.sample_correspondences(np.eye(2), 2.5), "n"),
        (lambda: smoothed_curve(np.ones(3), window=2.5), "window"),
        (lambda: smoothed_curve(np.ones(3), window=True), "window"),
        (lambda: trainer.reference_dataset(n_scenes=True), "n_scenes"),
        (lambda: trainer.reference_dataset(nuisance_amp="0.5"), "nuisance_amp"),
        (lambda: trainer.ProjectionWeights(np.eye(2), dustbin_z="x"), "dustbin_z"),
        (lambda: trainer.ProjectionWeights(np.eye(2), dustbin_z=True), "dustbin_z"),
        (lambda: gradcheck.compare_gradients(np.ones(2), np.ones(2), tol=math.nan), "tol"),
        (lambda: gradcheck.compare_gradients(np.ones(2), np.ones(2), tol=math.inf), "tol"),
        (lambda: gradcheck.compare_gradients(np.ones(2), np.ones(2), tol=0.0), "tol"),
        (lambda: gradcheck.compare_gradients(np.ones(2), np.ones(2), floor=math.nan), "floor"),
        (lambda: gradcheck.compare_gradients(np.ones(2), np.ones(2), floor=0.0), "floor"),
    ],
    ids=[
        "scene-fractional-cells",
        "scene-fractional-seed",
        "scene-bool-seed",
        "pipeline-fractional-count",
        "pipeline-bool-count",
        "pipeline-nan-dustbin",
        "pipeline-bool-tau",
        "train-bool-lr",
        "score-nan-tau",
        "score-inf-tau",
        "lattice-nan-extent",
        "lattice-inf-extent",
        "sample-fractional-n",
        "smooth-fractional-window",
        "smooth-bool-window",
        "dataset-bool-count",
        "dataset-string-amp",
        "projection-string-dustbin",
        "projection-bool-dustbin",
        "compare-nan-tol",
        "compare-inf-tol",
        "compare-zero-tol",
        "compare-nan-floor",
        "compare-zero-floor",
    ],
)
def test_each_former_gap_is_out_of_range_naming_the_argument(call, field):
    with pytest.raises(OutOfRange) as info:
        call()
    assert info.value.field == field


@pytest.mark.parametrize("fd_shape", [(4,), (1,), (3, 1)])
def test_compare_gradients_names_both_shapes_of_a_mismatch(fd_shape):
    """Gradients of different shapes are a DimensionMismatch naming both,
    not numpy's broadcast error or a silent broadcast."""
    with pytest.raises(DimensionMismatch) as info:
        gradcheck.compare_gradients(np.ones(3), np.ones(fd_shape))
    assert f"{(3,)}" in str(info.value) and f"{fd_shape}" in str(info.value)


@pytest.mark.parametrize("config, name", [(PipelineConfig, "scale_aware"),
                                          (RansacConfig, "refit_on_inliers")])
@pytest.mark.parametrize("bad", ["no", 0, 1, None, np.bool_(False)], ids=repr)
def test_bool_config_fields_take_only_a_bool(config, name, bad):
    """A truthy "no" would switch the option on, and 0 and 1 are not bools
    either: every non-bool is OutOfRange naming the field; a bool is stored."""
    with pytest.raises(OutOfRange) as info:
        config(**{name: bad})
    assert info.value.field == name
    assert str(info.value) == f"{name} must be a bool, got {bad!r}"
    for flag in (True, False):
        assert getattr(config(**{name: flag}), name) is flag


def test_an_infinite_divergence_factor_is_accepted():
    assert TrainConfig(divergence_factor=math.inf).divergence_factor == math.inf


@pytest.mark.parametrize(
    "check, args, kwargs, message",
    [
        (require_int, ("x", 0.5, 1), {}, "x must be an integer >= 1, got 0.5"),
        (require_int, ("x", np.uint8(0), 1), {}, "x must be an integer >= 1, got np.uint8(0)"),
        (require_real, ("x", math.inf, 0), {}, "x must be finite and >= 0, got inf"),
        (require_real, ("x", 0.0, 0), {"ends": "()"}, "x must be finite and > 0, got 0.0"),
        (require_real, ("x", math.nan, 0), {"ends": "(]"}, "x must be > 0, got nan"),
        (require_real, ("x", 1.5, 0, 1), {"ends": "[]"}, "x must be in [0, 1], got 1.5"),
        (require_real, ("x", math.nan, -math.inf), {"ends": "()"}, "x must be finite, got nan"),
        (require_choice, ("x", None, ("a", "b")), {}, "x must be one of ('a', 'b'), got None"),
        (require_bool, ("x", 1), {}, "x must be a bool, got 1"),
    ],
)
def test_helper_messages_name_the_argument(check, args, kwargs, message):
    with pytest.raises(OutOfRange) as info:
        check(*args, **kwargs)
    assert str(info.value) == message and info.value.field == "x"


@pytest.mark.parametrize(
    "command, doc, named",
    [
        (["simulate", "--seeds", "0"], {"extent": True}, "scene config key 'extent': "),
        (["simulate", "--seeds", "0"], {"ray_tolerance": "wide"},
         "scene config key 'ray_tolerance': "),
        (["train"], {"lr": "fast"}, "train config key 'lr': "),
        (["train"], {"batch": 1.0}, "train config key 'batch': "),
        (["train"], {"dataset": {"nuisance_amp": True}}, "dataset config key 'nuisance_amp': "),
        (["train"], {"dataset": {"noise_sigma": "low"}}, "dataset config key 'noise_sigma': "),
    ],
    ids=["scene-bool", "scene-string", "train-string", "train-float-count",
         "dataset-bool", "dataset-string"],
)
def test_cli_names_the_key_of_a_wrongly_typed_config_value(command, doc, named, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(command + ["--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {named}")
    assert not out.exists()


def test_cli_errors_without_a_field_keep_their_own_message(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"dataset": {"n_scenes": 1, "nuisance_amp": 1e308}}))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "never")]) == 2
    assert capsys.readouterr().err.startswith("usage error: nuisance_amp 1e+308 overflows")
