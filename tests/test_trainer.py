"""Tests for gradient-descent training of the shared feature projection."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from crossloc import estimator, gradcheck, matching, trainer
from crossloc.errors import (
    DimensionMismatch,
    DivergenceDetected,
    EmptyInput,
    InsufficientMatches,
    OutOfRange,
)
from crossloc.estimator import PipelineConfig, build_correspondences
from crossloc.gradcheck import build_context
from crossloc.lifting import DepthMap, LiftConfig, depth_valid_mask
from crossloc.simulator import SceneConfig, generate
from crossloc.trainer import (
    ProjectionWeights,
    TrainConfig,
    evaluate_projection,
    smoothed_curve,
    train,
)

SMALL_SCENE = SceneConfig(
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

SMALL_PIPE = PipelineConfig(num_correspondences=8, lift=LiftConfig(max_depth=15.0))


def small_scenes(n, sigma=0.15, seed0=100):
    return [
        generate(dataclasses.replace(SMALL_SCENE, noise_sigma=sigma, seed=seed0 + i))
        for i in range(n)
    ]


def prepared(scenes, pipe):
    """Each scene prepared as ``train`` prepares its training scenes."""
    return [gradcheck._prepare(scene, pipe, "projection") for scene in scenes]


def frozen(prep, beta, params, pseudo):
    """``prep``'s context at ``params``, frozen alone with a loss mode's
    beta and target scale."""
    return gradcheck._freeze([prep], beta, params, pseudo)[0][0]


# --- ProjectionWeights ------------------------------------------------------


def test_weights_validation():
    with pytest.raises(OutOfRange):
        ProjectionWeights(np.ones((2, 3)))
    with pytest.raises(OutOfRange):
        ProjectionWeights(np.full((2, 2), np.nan))
    with pytest.raises(OutOfRange):
        ProjectionWeights(np.eye(2), dustbin_z=float("inf"))


def test_weights_apply_preserves_metadata():
    scene = small_scenes(1)[0]
    w = ProjectionWeights(np.eye(SMALL_SCENE.feature_dim))
    out = w.apply(scene.aerial)
    assert out.kind == "aerial"
    assert out.meta is scene.aerial.meta
    np.testing.assert_allclose(out.data, scene.aerial.data)


def test_weights_param_layout_matches_gradcheck():
    scene = small_scenes(1)[0]
    rng = np.random.default_rng(0)
    w = ProjectionWeights(np.eye(8) + 0.1 * rng.standard_normal((8, 8)), 0.25)
    ctx = build_context(scene, SMALL_PIPE, mode="projection", params0=w.as_params())
    np.testing.assert_array_equal(ctx.params0, w.as_params())


def test_a_step_at_non_finite_weights_names_params0():
    """A scene-step at non-finite weights is OutOfRange naming ``params0``,
    the leaf vector the step freezes the selection at, not a misleading
    InsufficientMatches."""
    prep = prepared(small_scenes(1), SMALL_PIPE)[0]
    params = ProjectionWeights(np.eye(8), 0.25).as_params()
    params[5] = np.nan
    with pytest.raises(OutOfRange) as info:
        frozen(prep, TrainConfig().beta, params, False)
    assert info.value.field == "params0"


# --- config validation ------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(OutOfRange):
        TrainConfig(lr=-1e-3)
    with pytest.raises(OutOfRange):
        TrainConfig(lr=float("nan"))
    with pytest.raises(OutOfRange):
        TrainConfig(steps=0)
    with pytest.raises(OutOfRange):
        TrainConfig(loss_mode="nonsense")
    with pytest.raises(OutOfRange):
        TrainConfig(batch=0)
    for bad in ({"beta": float("nan")}, {"beta": -0.1}, {"beta": float("inf")},
                {"init_jitter": -1.0}, {"init_jitter": float("nan")},
                {"divergence_factor": 0.0}, {"divergence_factor": float("nan")}):
        with pytest.raises(OutOfRange, match=next(iter(bad))):
            TrainConfig(**bad)
    for bad in ({"steps": 2.5}, {"steps": True}, {"batch": 2.5}, {"batch": False},
                {"holdout": 1.5}, {"holdout": -1}, {"seed": 1.5}, {"seed": -1},
                {"seed": True}):
        with pytest.raises(OutOfRange, match=f"{next(iter(bad))} must be an integer"):
            TrainConfig(**bad)
    TrainConfig(lr=0.0)  # explicitly allowed: freezes the weights
    TrainConfig(beta=0.0, init_jitter=0.0)
    TrainConfig(steps=np.int64(3), batch=np.int32(2), holdout=np.int64(0), seed=np.uint8(7))


@pytest.mark.parametrize("kwargs", [{"n_scenes": 0}, {"n_scenes": 2.5}, {"n_scenes": True},
                                    {"seed": -2}, {"seed": 1.5}, {"seed": None}])
def test_reference_dataset_rejects_a_bad_count_or_seed(kwargs):
    """The error names the argument and the value given, not a derived
    scene seed, and comes before any scene is generated."""
    (name, value), = kwargs.items()
    with pytest.raises(OutOfRange, match=f"^{name} must be an integer >= [01], got {value!r}$"):
        trainer.reference_dataset(**kwargs)


@pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf, -0.5])
def test_reference_dataset_rejects_a_non_finite_or_negative_nuisance_amp(amp):
    with pytest.raises(OutOfRange, match=f"^nuisance_amp must be finite and >= 0, got {amp!r}$"):
        trainer.reference_dataset(n_scenes=1, nuisance_amp=amp)


def test_reference_dataset_rejects_a_nuisance_amp_whose_clutter_overflows():
    """A finite amplitude can still leave features whose squared norm is
    not finite, which matching would turn into all-zero unit rows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="^nuisance_amp 1e\\+308 overflows the aerial"):
            trainer.reference_dataset(n_scenes=1, nuisance_amp=1e308)


def test_empty_dataset_raises():
    with pytest.raises(EmptyInput):
        train([], TrainConfig(steps=1))


def test_holdout_swallowing_all_scenes_raises():
    scenes = small_scenes(2)
    with pytest.raises(OutOfRange):
        train(scenes, TrainConfig(steps=1, holdout=2), SMALL_PIPE)


# --- smoothing --------------------------------------------------------------


def test_smoothed_curve_hand_case():
    np.testing.assert_allclose(
        smoothed_curve(np.array([1.0, 3.0, 5.0]), window=2), [1.0, 2.0, 4.0]
    )


def test_smoothed_window_one_is_identity():
    curve = np.array([2.0, 7.0, 1.0, 4.0])
    np.testing.assert_array_equal(smoothed_curve(curve, window=1), curve)


def test_smoothed_rejects_bad_window():
    with pytest.raises(OutOfRange):
        smoothed_curve(np.ones(3), window=0)


# --- training loop invariants ----------------------------------------------


def test_zero_learning_rate_curve_is_exactly_constant():
    scenes = small_scenes(3)
    cfg = TrainConfig(lr=0.0, steps=5, holdout=1, init_jitter=0.1, seed=3)
    res = train(scenes, cfg, SMALL_PIPE)
    assert np.all(res.loss_curve == res.loss_curve[0])
    assert res.eval_before == res.eval_after


def test_zero_lr_single_scene_batches_cycle_exactly():
    scenes = small_scenes(3)
    cfg = TrainConfig(lr=0.0, steps=6, batch=1, holdout=0, init_jitter=0.1)
    res = train(scenes, cfg, SMALL_PIPE)
    np.testing.assert_array_equal(res.loss_curve[:3], res.loss_curve[3:])
    assert len(set(res.loss_curve[:3])) == 3  # three distinct scenes


def test_training_is_deterministic():
    scenes = small_scenes(3)
    cfg = TrainConfig(lr=1e-2, steps=4, holdout=1, init_jitter=0.1, seed=9)
    a = train(scenes, cfg, SMALL_PIPE)
    b = train(scenes, cfg, SMALL_PIPE)
    np.testing.assert_array_equal(a.loss_curve, b.loss_curve)
    np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)
    assert a.weights.dustbin_z == b.weights.dustbin_z


@pytest.mark.parametrize("loss_mode", ["gt-scale", "pseudo-scale"])
def test_training_contexts_pass_gradient_check(loss_mode):
    """The gradient each training step descends matches the long-double FD
    oracle on contexts built exactly as ``train`` builds them (each scene
    prepared once, then frozen) at jittered projection weights, with the
    mode's contrastive target scale and beta 0.7."""
    cfg = TrainConfig(beta=0.7, loss_mode=loss_mode, init_jitter=0.05, seed=1)
    rng = np.random.default_rng(cfg.seed)
    dim = SMALL_SCENE.feature_dim
    matrix = np.eye(dim) + cfg.init_jitter * rng.standard_normal((dim, dim))
    params = ProjectionWeights(matrix, SMALL_PIPE.dustbin_z).as_params()
    scenes = small_scenes(2)
    for scene, prep in zip(scenes, prepared(scenes, SMALL_PIPE)):
        ctx = frozen(prep, cfg.beta, params, loss_mode == "pseudo-scale")
        assert (ctx.mode, ctx.beta) == ("projection", 0.7)
        np.testing.assert_array_equal(ctx.params0, params)
        if loss_mode == "gt-scale":
            assert ctx.target_scale == scene.scale_gt / SMALL_PIPE.lift.initial_scale
        report = gradcheck.check(ctx)
        assert report.passed, f"{loss_mode}: rel {report.max_rel_err:.2e}"


def test_value_and_grad_is_certified_where_the_reference_run_trains():
    """At the weights of a short reference run, the gradient ``train``
    descends on the reference scenes (21 x 21 grids, its own contexts) meets
    the long-double FD oracle's bar, as gate 05 checks it at the identity
    on 7 x 7 scenes.  Two scenes, about 3.6 s on a 2-core VM."""
    params = trainer.reference_run(steps=20).weights.as_params()
    scenes = trainer.reference_dataset(n_scenes=2)
    pipe = trainer.reference_pipeline()
    for prep in prepared(scenes, pipe):
        ctx = frozen(prep, trainer.REFERENCE_TRAIN.beta, params, True)
        assert (ctx.mode, ctx.beta, ctx.n_aerial) == ("projection", 0.7, 21 * 21)
        report = gradcheck.check(ctx)
        assert report.passed, f"rel {report.max_rel_err:.2e}"


def test_scene_steps_take_the_loss_modes_beta_and_target_scale(monkeypatch):
    """``train`` freezes its scenes with the loss mode's beta and whether
    the targets take the solver's scale.  On relative depth gt-scale places
    targets with the true scale and pseudo-scale with the solver's estimate
    at the frozen weights, one ``solve_similarity`` call per scene-step;
    vce-only makes none, turns the contrastive terms off and never reads
    its targets.  On metric depth pseudo-scale takes the true scale, with
    no call."""
    freezes, freeze = [], trainer._freeze
    monkeypatch.setattr(trainer, "_freeze", lambda preps, beta, params0, pseudo: (
        freezes.append((beta, pseudo)) or freeze(preps, beta, params0, pseudo)))
    for mode in trainer.LOSS_MODES:
        train(small_scenes(2), TrainConfig(steps=1, holdout=1, beta=0.7, loss_mode=mode),
              SMALL_PIPE)
    assert freezes == [(0.7, False), (0.7, True), (0.0, False)]
    relative = generate(dataclasses.replace(SMALL_SCENE, seed=100, depth_kind="relative",
                                            scale_bounds=(0.8, 1.25)))
    params = ProjectionWeights(np.eye(SMALL_SCENE.feature_dim)).as_params()
    estimate = build_context(relative, SMALL_PIPE, "projection", params0=params).target_scale
    calls = count_calls(monkeypatch, "solve_similarity")

    def frozen_twice(scene, beta, pseudo):
        """The context of the second of two scene-steps, and the solves."""
        prep = prepared([scene], SMALL_PIPE)[0]
        calls["solve_similarity"] = 0
        contexts = [frozen(prep, beta, params, pseudo) for _ in range(2)]
        return contexts[-1], calls["solve_similarity"]

    contexts, solves = zip(*(frozen_twice(relative, *mapping) for mapping in freezes))
    gt, pseudo, vce = contexts
    assert solves == (0, 2, 0)
    assert gt.target_scale == vce.target_scale == relative.scale_gt
    assert pseudo.target_scale == estimate
    assert [ctx.beta for ctx in contexts] == [0.7, 0.7, 0.0]
    blind = dataclasses.replace(vce, target_scale=math.nan, g2s_pairs=None, g2s_targets=None,
                                s2g_keep=None, s2g_pos=None)
    (value, grad), (blind_value, blind_grad) = map(gradcheck.value_and_grad, (vce, blind))
    assert blind_value == value
    np.testing.assert_array_equal(blind_grad, grad)

    metric = small_scenes(1)[0]
    pseudo, solves = frozen_twice(metric, *freezes[1])
    assert (pseudo.target_scale, solves) == (metric.scale_gt / SMALL_PIPE.lift.initial_scale, 0)


def count_calls(monkeypatch, *names):
    """Count the calls of each named function through every binding of it
    in the trainer, gradcheck, estimator and matching modules."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in names:
        for module in (trainer, gradcheck, estimator, matching):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_analytic_mode_runs_one_stage_two_pass_per_step(monkeypatch):
    """Each step runs stage two once over its scenes, which share N, and
    stage one once per scene-step; no separate forward or backward pass."""
    names = ("_stage_two", "_stage_one", "value_and_grad", "forward_value", "backward")
    calls = count_calls(monkeypatch, *names)
    cfg = TrainConfig(lr=1e-2, steps=3, holdout=1, init_jitter=0.05, seed=1)
    train(small_scenes(3), cfg, SMALL_PIPE)
    assert calls == {"_stage_two": 3, "_stage_one": 3 * 2, "value_and_grad": 0,
                     "forward_value": 0, "backward": 0}


def assert_step_is_each_contexts_own(preps, beta, pseudo, params, batches):
    """The step's contexts, frozen together, come in ``batches`` and equal
    each scene's context frozen alone; their losses and gradients from the
    batched stage two equal ``value_and_grad`` on each context, bit for bit."""
    step = gradcheck._freeze(preps, beta, params, pseudo)
    assert [len(batch) for batch in step] == batches
    together = [ctx for batch in step for ctx in batch]
    results = [out for batch in step for out in gradcheck._values_and_grads(batch)]
    for prep, ctx, (value, grad) in zip(preps, together, results, strict=True):
        alone = frozen(prep, beta, params, pseudo)
        for name in ("target_scale", "g2s_pairs", "g2s_targets", "s2g_keep", "s2g_pos"):
            np.testing.assert_array_equal(getattr(ctx, name), getattr(alone, name))
        alone_value, alone_grad = gradcheck.value_and_grad(alone)
        assert value == alone_value
        np.testing.assert_array_equal(grad, alone_grad)


def test_a_batched_step_gives_every_scene_its_own_contexts_bits():
    """The 16 reference training scenes share N = 24 pairs, so a step runs
    their targets and stage two once over a leading scene axis; each
    scene's loss and gradient are single-context ``value_and_grad``'s to
    the bit, at the run's initial weights and after 20 reference steps."""
    cfg, pipe = trainer.REFERENCE_TRAIN, trainer.reference_pipeline()
    preps = prepared(trainer.reference_dataset()[: -cfg.holdout], pipe)
    dim = trainer.REFERENCE_SCENE.feature_dim
    rng = np.random.default_rng(cfg.seed)
    matrix = np.eye(dim) + cfg.init_jitter * rng.standard_normal((dim, dim))
    initial = ProjectionWeights(matrix, pipe.dustbin_z)
    trained = trainer.reference_run(steps=20).weights
    for weights in (initial, trained):
        assert_step_is_each_contexts_own(preps, cfg.beta, True, weights.as_params(), [16])


def test_a_step_whose_scenes_differ_in_n_runs_batches_of_one(monkeypatch):
    """Topmost selection keeps 5 or 6 of 8 pairs on these scenes, so a
    step's scenes differ in N: each runs the same functions as a batch of
    one, with its own context's bits, and training runs stage two once per
    scene-step."""
    topmost = dataclasses.replace(SMALL_PIPE.lift, projection_mode="topmost")
    pipe = dataclasses.replace(SMALL_PIPE, lift=topmost)
    scenes = small_scenes(4)
    preps = prepared(scenes, pipe)
    params = ProjectionWeights(np.eye(SMALL_SCENE.feature_dim)).as_params()
    assert [len(frozen(prep, 0.7, params, False).sel) for prep in preps] == [6, 5, 5, 6]
    assert_step_is_each_contexts_own(preps, 0.7, False, params, [1, 1, 1, 1])
    calls = count_calls(monkeypatch, "_stage_two")
    train(scenes, TrainConfig(lr=1e-2, steps=2, holdout=1, beta=0.7), pipe)
    assert calls == {"_stage_two": 2 * 3}


def test_training_step_matches_once_in_the_loss_chain(monkeypatch):
    """Each scene-step runs the chain's stage one once (build_context
    records it, value_and_grad reuses it); the inference path's matching
    runs only in the before/after evaluations, one held-out scene each.
    Both soft-assign through ``soft_assign``."""
    names = ("build_correspondences", "soft_assign", "_stage_one")
    calls = count_calls(monkeypatch, *names)
    cfg = TrainConfig(lr=1e-2, steps=3, holdout=1, init_jitter=0.05, seed=1)
    train(small_scenes(3), cfg, SMALL_PIPE)
    assert calls == {"build_correspondences": 2, "soft_assign": 2 + 3 * 2, "_stage_one": 3 * 2}


def bad_scene(scene, what):
    """``scene`` with one input the estimator refuses, and the error, message
    and ``field`` it refuses it with."""
    depth, rays, grids = scene.depth, scene.rays, {"aerial": scene.aerial, "ground": scene.ground}
    field = None
    if what == "depth-shape":
        depth = DepthMap(depth.depth[:, :-1], depth.kind)
        error, message = DimensionMismatch, r"^depth map \(4, 7\) vs ground grid \(4, 8\)$"
    elif what == "ray-shape":
        rays = dataclasses.replace(rays, directions=rays.directions[:-1])
        error, message = DimensionMismatch, r"^ray table \(3, 8\) vs ground grid \(4, 8\)$"
    elif what == "no-valid-depth":
        depth = DepthMap(np.full_like(depth.depth, np.nan), depth.kind)
        error, message = InsufficientMatches, "^only 0 correspondences: no ground cell has valid depth$"
    elif what == "dim-mismatch":
        wide = np.pad(scene.ground.data, [(0, 0), (0, 0), (0, 2)])  # two zero dims: same norms
        grids["ground"] = dataclasses.replace(scene.ground, data=wide)
        error, message = DimensionMismatch, r"^feature dims differ: aerial 8 vs ground 10$"
    else:
        field, value = {"nan-aerial": ("aerial", np.nan), "inf-ground": ("ground", np.inf)}[what]
        valid = depth_valid_mask(scene.depth, SMALL_PIPE.lift)
        cell = (3, 5) if field == "aerial" else tuple(np.argwhere(valid)[0].tolist())
        data = grids[field].data.copy()
        data[cell + (2,)] = value
        grids[field] = dataclasses.replace(grids[field], data=data)
        error, message = OutOfRange, rf"^{field} feature at cell \({cell[0]}, {cell[1]}\) "
    bad = dataclasses.replace(scene, depth=depth, rays=rays, **grids)
    return bad, error, message, field


@pytest.mark.parametrize(
    "what", ["depth-shape", "ray-shape", "nan-aerial", "inf-ground", "no-valid-depth",
             "dim-mismatch"]
)
@pytest.mark.parametrize(
    "route", ["build_correspondences", "build_context-score", "build_context-features",
              "build_context-projection", "train"]
)
def test_every_route_refuses_a_bad_scene_with_the_estimators_errors(route, what, monkeypatch):
    """Inference, every gradient-context mode and training take their
    scene's valid columns and lifted points from one front end, so a depth
    map or ray table of another shape, a ground grid wider than the aerial
    one, a non-finite feature (here in a scored ground cell) and a depth
    map with no valid cell are refused with the same named error and
    message on each route; training refuses a bad training scene before
    step 0."""
    good, scene = small_scenes(2)
    scene, error, message, field = bad_scene(scene, what)
    calls = count_calls(monkeypatch, "value_and_grad")
    with pytest.raises(error, match=message) as caught:
        if route == "build_correspondences":
            build_correspondences(scene.aerial, scene.ground, scene.depth, scene.rays, SMALL_PIPE)
        elif route == "train":
            train([scene, good], TrainConfig(steps=1, holdout=1), SMALL_PIPE)
        else:
            build_context(scene, SMALL_PIPE, route.removeprefix("build_context-"))
    assert getattr(caught.value, "field", None) == field
    assert calls == {"value_and_grad": 0}


@pytest.mark.parametrize("odd, batch", [(1, None), (2, None), (1, 1)])
def test_train_refuses_scenes_whose_feature_dims_differ(odd, batch, monkeypatch):
    """A scene of feature dim 16 among scenes of dim 8 -- a training scene,
    the held-out scene, or the second training scene with one scene per
    step -- is refused before any evaluation or preparation, naming the
    scene and both dims."""
    scenes = small_scenes(3)
    scenes[odd] = generate(dataclasses.replace(SMALL_SCENE, feature_dim=16, seed=100 + odd))
    calls = count_calls(monkeypatch, "estimate_pose", "_prepare")
    with pytest.raises(DimensionMismatch, match=rf"^scene {odd} has feature dim 16, scene 0 has 8$"):
        train(scenes, TrainConfig(lr=1e-2, steps=2, holdout=1, batch=batch), SMALL_PIPE)
    assert calls == {"estimate_pose": 0, "_prepare": 0}


def test_divergence_detected_at_huge_learning_rate():
    """An absurd learning rate blows the first step's loss up by well over
    an order of magnitude; the guard (threshold configurable, default 1000x)
    must convert that into DivergenceDetected instead of training on."""
    scenes = small_scenes(3)
    cfg = TrainConfig(
        lr=1e4, steps=50, holdout=1, init_jitter=0.1, divergence_factor=5.0
    )
    with pytest.raises(DivergenceDetected) as info:
        train(scenes, cfg, SMALL_PIPE)
    assert "5" in str(info.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lr", [1e10, 1e30, 1e150, 1e300])
def test_a_descent_step_that_wrecks_the_weights_is_divergence(lr):
    """A learning rate that blows the weights up leaves the loss near its
    start, so the loss guard cannot fire; the next step's failure -- the
    dustbin taking the mass, or overflowing feature norms at 1e300 -- is
    DivergenceDetected naming the step, lr and dustbin score, with no
    RuntimeWarning on the way."""
    cfg = dataclasses.replace(trainer.REFERENCE_TRAIN, lr=lr, steps=4, holdout=1)
    pipe, eval_pipe = trainer.reference_pipeline(), trainer.reference_eval_pipeline()
    with pytest.raises(DivergenceDetected) as info:
        train(trainer.reference_dataset(n_scenes=4), cfg, pipe, eval_pipe=eval_pipe)
    message = str(info.value)
    assert f"at step 1 (lr {lr:g})" in message
    assert "the dustbin score 1.82e+" in message and "every real score (<= 10)" in message


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lr", [1e10, 1e30, 1e150, 1e300, 1e308])
def test_a_wrecking_last_step_is_divergence_at_the_final_evaluation(lr):
    """When the last descent step wrecks the weights, the held-out
    evaluation after it fails as a scene-step would, and is
    DivergenceDetected naming that step, lr and the dustbin score."""
    cfg = dataclasses.replace(trainer.REFERENCE_TRAIN, lr=lr, steps=1, holdout=1)
    pipe, eval_pipe = trainer.reference_pipeline(), trainer.reference_eval_pipeline()
    with pytest.raises(DivergenceDetected) as info:
        train(trainer.reference_dataset(n_scenes=4), cfg, pipe, eval_pipe=eval_pipe)
    message = str(info.value)
    assert f"at the final evaluation, after step 0 (lr {lr:g})" in message
    assert "the dustbin score 1.82e+" in message and "every real score (<= 10)" in message


def test_identity_init_on_noiseless_scenes_stays_put():
    """With exact features the initial loss is already near-minimal; training
    must not push held-out error up by more than numerical drift."""
    scenes = small_scenes(4, sigma=0.0)
    cfg = TrainConfig(lr=1e-3, steps=10, holdout=2, init_jitter=0.0)
    res = train(scenes, cfg, SMALL_PIPE)
    # a small positive floor remains (clutter keeps softmax mass off the
    # positives), but training barely moves anything
    assert res.loss_curve[-1] <= res.loss_curve[0] + 1e-9
    assert (
        res.eval_after["median_loc_error"]
        <= res.eval_before["median_loc_error"] + 1e-6
    )
    drift = np.abs(res.weights.matrix - np.eye(SMALL_SCENE.feature_dim)).max()
    assert drift < 1e-3


def test_loss_modes_change_the_objective():
    scenes = small_scenes(2)
    curves = {}
    for mode in ("gt-scale", "pseudo-scale", "vce-only"):
        cfg = TrainConfig(lr=0.0, steps=1, holdout=0, loss_mode=mode, init_jitter=0.2)
        curves[mode] = train(scenes, cfg, SMALL_PIPE).loss_curve[0]
    # contrastive terms contribute in the first two modes but not vce-only
    assert curves["vce-only"] < curves["gt-scale"]
    assert curves["vce-only"] < curves["pseudo-scale"]


def test_evaluate_projection_identity_on_noiseless_scene():
    scenes = small_scenes(2, sigma=0.0)
    out = evaluate_projection(
        ProjectionWeights(np.eye(SMALL_SCENE.feature_dim)), scenes, SMALL_PIPE
    )
    assert out["count"] == 2
    assert out["median_loc_error"] < 1e-6
    assert out["median_ori_error_rad"] < 1e-9


def test_evaluate_projection_scores_with_the_weights_dustbin():
    """The evaluation runs the model being evaluated: weights carrying the
    dustbin score c = 2 evaluate as under a pipeline whose dustbin score is
    c, whatever the given pipeline's, and c moves the metrics."""
    scenes = small_scenes(3)
    matrix = np.eye(SMALL_SCENE.feature_dim)
    pipe = dataclasses.replace(SMALL_PIPE, num_correspondences=24)
    learned = ProjectionWeights(matrix, 2.0)
    out = evaluate_projection(learned, scenes, pipe)
    assert out == evaluate_projection(learned, scenes, dataclasses.replace(pipe, dustbin_z=2.0))
    assert out != evaluate_projection(ProjectionWeights(matrix), scenes, pipe)


# --- reference dataset ------------------------------------------------------


def test_reference_dataset_confines_signal_and_adds_branch_clutter():
    from crossloc.trainer import (
        NUISANCE_AMP,
        SIGNAL_DIM,
        _subspace_split,
        reference_dataset,
    )

    raw = reference_dataset(n_scenes=1, nuisance_amp=0.0)[0]
    scene = reference_dataset(n_scenes=1)[0]
    dim = raw.config.feature_dim
    signal, nuisance = _subspace_split(dim, SIGNAL_DIM, seed=0)

    for grid, raw_grid in ((scene.aerial, raw.aerial), (scene.ground, raw.ground)):
        flat = grid.data.reshape(-1, dim)
        # inside the signal subspace the features are the raw ones, projected
        np.testing.assert_allclose(
            flat @ signal, raw_grid.data.reshape(-1, dim) @ signal, atol=1e-12
        )
        # outside it every cell carries clutter of fixed magnitude
        np.testing.assert_allclose(
            np.linalg.norm(flat @ nuisance, axis=1), NUISANCE_AMP, atol=1e-12
        )

    # the clutter is branch-specific: aerial and ground draws differ
    a = scene.aerial.data.reshape(-1, dim) @ nuisance
    g = scene.ground.data.reshape(-1, dim) @ nuisance
    assert np.abs(a[: len(g)] - g[: len(a)]).max() > 0.1


def test_reference_dataset_zero_amp_keeps_raw_scenes():
    from crossloc.simulator import generate as gen
    from crossloc.trainer import REFERENCE_SCENE, reference_dataset

    scene = reference_dataset(n_scenes=1, nuisance_amp=0.0)[0]
    direct = gen(dataclasses.replace(REFERENCE_SCENE, noise_sigma=0.2, seed=0))
    np.testing.assert_array_equal(scene.aerial.data, direct.aerial.data)
    np.testing.assert_array_equal(scene.ground.data, direct.ground.data)


def test_reference_dataset_is_deterministic():
    from crossloc.trainer import reference_dataset

    a = reference_dataset(n_scenes=2, seed=3)
    b = reference_dataset(n_scenes=2, seed=3)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.aerial.data, y.aerial.data)
        np.testing.assert_array_equal(x.ground.data, y.ground.data)
        np.testing.assert_array_equal(x.depth.depth, y.depth.depth)


def test_vce_only_training_decreases_loss_on_reference_scenes():
    from crossloc.trainer import (
        REFERENCE_TRAIN,
        reference_dataset,
        reference_pipeline,
    )

    scenes = reference_dataset(n_scenes=8)
    cfg = dataclasses.replace(
        REFERENCE_TRAIN, loss_mode="vce-only", steps=100, holdout=2
    )
    res = train(scenes, cfg, reference_pipeline())
    smoothed = smoothed_curve(res.loss_curve)
    assert smoothed[-1] < res.loss_curve[0]
