"""Desk-scale end-to-end training of a shared linear feature projection.

The trainable parameters are a single dim x dim matrix applied to the raw
feature vectors of *both* grids before normalization, plus the dustbin
score.  Optimization is plain full-batch gradient descent on the combined
alignment-plus-contrastive loss.  Each scene is prepared once per run
(``gradcheck._prepare``); each step freezes every scene's selection and
targets at the current weights (``gradcheck._freeze``, the per-step half of
``build_context``, runs the loss chain's matching stage once) and takes the
scene's loss and gradient from ``gradcheck.value_and_grad``, which reuses
that stage, finishes the chain in float64 and sweeps back once over what it
recorded.
Gate 05 certifies that gradient against the long-double FD oracle, which
evaluates the same chain.  No momentum, no adaptive
scaling: the point is to demonstrate that pose supervision alone moves the
projection toward better matching, not to engineer an optimizer.

Three loss modes mirror the ablation settings of the alignment objective:

* ``"gt-scale"``     -- contrastive targets placed with the true depth
                        scale (assumes the scale is known during training);
* ``"pseudo-scale"`` -- targets placed with the solver's own scale
                        estimate at the current weights (stop-gradient),
                        on relative depth only: on the all-metric
                        ``reference_dataset`` it trains gt-scale's bits;
* ``"vce-only"``     -- contrastive terms off (beta = 0).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceDetected, EmptyInput, InsufficientMatches, OutOfRange
from .errors import require_choice, require_int, require_real
from .estimator import PipelineConfig, RansacConfig, estimate_pose
from .gradcheck import _freeze, _prepare, value_and_grad
from .lifting import LiftConfig
from .matching import FeatureGrid
from .metrics import pose_errors
from .simulator import SceneConfig, generate

__all__ = [
    "ProjectionWeights",
    "TrainConfig",
    "TrainResult",
    "train",
    "evaluate_projection",
    "smoothed_curve",
    "reference_dataset",
    "reference_pipeline",
    "reference_eval_pipeline",
    "reference_run",
    "REFERENCE_SCENE",
    "REFERENCE_TRAIN",
]

LOSS_MODES = ("gt-scale", "pseudo-scale", "vce-only")


@dataclass(frozen=True)
class ProjectionWeights:
    """A linear projection shared by both feature branches, plus the dustbin.

    Both grids observe the same latent space in the synthetic scenes, so a
    single shared matrix is the natural parameterization; separate per-branch
    matrices would only double the parameter count without adding capacity
    the toy problem can use.
    """

    matrix: np.ndarray  # (dim, dim)
    dustbin_z: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise OutOfRange(f"projection matrix must be square, got {self.matrix.shape}")
        if not np.isfinite(self.matrix).all():
            raise OutOfRange("projection weights must be finite")
        require_real("dustbin_z", self.dustbin_z, -math.inf, ends="()")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def as_params(self) -> np.ndarray:
        """Flat parameter vector in the gradcheck projection-mode layout."""
        return np.append(self.matrix.ravel(), self.dustbin_z)

    def apply(self, grid: FeatureGrid) -> FeatureGrid:
        """Project a feature grid through the matrix (metadata preserved)."""
        return FeatureGrid(grid.data @ self.matrix.T, grid.kind, grid.meta)


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent schedule and loss selection.

    ``lr`` must be finite and may be zero (useful for verifying that the
    loss curve is then exactly constant) but not negative.  ``batch=None``
    uses every training scene each step; smaller values cycle in order.
    ``divergence_factor=inf`` is accepted and disables the divergence guard.
    """

    lr: float = 1e-4
    steps: int = 100
    batch: Optional[int] = None  # scenes per step; None = full batch
    beta: float = 0.1
    loss_mode: str = "gt-scale"
    seed: int = 0
    holdout: int = 2  # trailing scenes reserved for evaluation
    init_jitter: float = 0.0  # stddev of the identity-offset initialization
    divergence_factor: float = 1e3

    def __post_init__(self):
        require_choice("loss_mode", self.loss_mode, LOSS_MODES)
        for name, least in (("steps", 1), ("holdout", 0), ("seed", 0)):
            require_int(name, getattr(self, name), least)
        if self.batch is not None:
            require_int("batch", self.batch, 1)
        for name in ("lr", "beta", "init_jitter"):
            require_real(name, getattr(self, name), 0)
        require_real("divergence_factor", self.divergence_factor, 0, ends="(]")


@dataclass(frozen=True)
class TrainResult:
    """Learned weights plus the loss curve and before/after evaluation."""

    weights: ProjectionWeights
    loss_curve: np.ndarray  # (steps,) mean batch loss per step
    eval_before: dict
    eval_after: dict

    def metrics(self) -> dict:
        """JSON-ready summary of the run."""
        smooth = smoothed_curve(self.loss_curve)
        return {
            "steps": int(self.loss_curve.shape[0]),
            "initial_loss": float(self.loss_curve[0]),
            "final_loss": float(self.loss_curve[-1]),
            "final_smoothed_loss": float(smooth[-1]),
            "eval_before": self.eval_before,
            "eval_after": self.eval_after,
        }


def smoothed_curve(curve: np.ndarray, window: int = 20) -> np.ndarray:
    """Trailing moving average: entry i averages the last ``window`` values."""
    require_int("window", window, 1)
    curve = np.asarray(curve, dtype=float)
    out = np.empty_like(curve)
    csum = np.concatenate([[0.0], np.cumsum(curve)])
    for i in range(curve.shape[0]):
        lo = max(0, i - window + 1)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def evaluate_projection(weights: ProjectionWeights, scenes, pipe: PipelineConfig) -> dict:
    """Run the estimator on projected features, with the weights' dustbin
    score, and summarize the ``metrics.pose_errors`` of each scene
    (orientation in radians)."""
    if not scenes:
        return {"count": 0}
    pipe = dataclasses.replace(pipe, dustbin_z=weights.dustbin_z)
    loc, ori = [], []
    for scene in scenes:
        est = estimate_pose(
            weights.apply(scene.aerial),
            weights.apply(scene.ground),
            scene.depth,
            scene.rays,
            pipe,
        )
        sample = pose_errors(est.transform, scene.truth, heading=scene.truth.theta)
        loc.append(sample.loc_error)
        ori.append(math.radians(sample.ori_error))
    return {
        "count": len(scenes),
        "median_loc_error": float(np.median(loc)),
        "mean_loc_error": float(np.mean(loc)),
        "median_ori_error_rad": float(np.median(ori)),
        "mean_ori_error_rad": float(np.mean(ori)),
    }


def _scene_steps(cfg: TrainConfig, scenes, pipe: PipelineConfig) -> list:
    """Per training scene, prepared once per run, the map from a step's
    leaf vector (``ProjectionWeights.as_params`` layout) to the scene's
    frozen projection-mode ``GradContext`` at it, with the loss mode's
    beta and whether its targets take the solver's scale."""
    beta = 0.0 if cfg.loss_mode == "vce-only" else cfg.beta
    pseudo = cfg.loss_mode == "pseudo-scale"
    return [functools.partial(_freeze, _prepare(scene, pipe, "projection"), beta, pseudo=pseudo)
            for scene in scenes]


def train(
    dataset,
    cfg: TrainConfig = TrainConfig(),
    pipe: PipelineConfig = None,
    eval_pipe: PipelineConfig = None,
) -> TrainResult:
    """Gradient-descend the shared projection on a list of scenes.

    The trailing ``cfg.holdout`` scenes are excluded from gradient steps and
    used only for the before/after estimator evaluation (with no holdout the
    evaluation falls back to the training scenes).  Each training scene is
    prepared once (``_scene_steps``); each step freezes every batch scene's
    pipeline view at the current weights, takes the scene's loss and
    gradient from one ``value_and_grad`` pass, averages them in dataset
    order, and takes one descent step.
    Raises DivergenceDetected as soon as the batch loss exceeds
    ``divergence_factor`` times its step-0 value, and when a descent step's
    weights overflow or leave no weighted pair in the next step or in the
    final evaluation (naming the step, ``lr`` and a dustbin score that
    outranks every real score); step 0 and the first evaluation raise as is.

    ``eval_pipe`` lets the before/after evaluation use different estimator
    settings than training (typically more correspondences plus the robust
    solve); it defaults to ``pipe``.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyInput("train() needs at least one scene")
    if pipe is None:
        pipe = PipelineConfig()
    if eval_pipe is None:
        eval_pipe = pipe
    if cfg.holdout >= len(dataset):
        raise OutOfRange(
            f"holdout {cfg.holdout} leaves no training scenes out of {len(dataset)}"
        )
    train_scenes = dataset[: len(dataset) - cfg.holdout] if cfg.holdout else dataset
    held_scenes = dataset[len(dataset) - cfg.holdout :] if cfg.holdout else dataset

    dim = train_scenes[0].aerial.dim
    rng = np.random.default_rng(cfg.seed)
    matrix = np.eye(dim) + cfg.init_jitter * rng.standard_normal((dim, dim))
    initial_weights = ProjectionWeights(matrix, pipe.dustbin_z)
    eval_before = evaluate_projection(initial_weights, held_scenes, eval_pipe)
    params = initial_weights.as_params()

    scene_steps = _scene_steps(cfg, train_scenes, pipe)
    n_train = len(train_scenes)
    batch = n_train if cfg.batch is None else min(cfg.batch, n_train)
    curve = np.empty(cfg.steps)
    initial = None
    for step in range(cfg.steps):
        start = (step * batch) % n_train
        loss_sum = 0.0
        grad_sum = np.zeros_like(params)
        where = f"at step {step}"
        with _divergence(where, cfg, pipe, params) if step else contextlib.nullcontext():
            for i in range(start, start + batch):
                value, grad = value_and_grad(scene_steps[i % n_train](params))
                loss_sum += value
                grad_sum += grad

        loss = loss_sum / batch
        curve[step] = loss
        if initial is None:
            initial = loss
        elif loss > cfg.divergence_factor * initial:
            raise DivergenceDetected(
                f"loss {loss:.3e} at step {step} exceeds "
                f"{cfg.divergence_factor:g}x the initial {initial:.3e}"
            )

        with np.errstate(over="ignore", invalid="ignore"):  # _freeze rejects non-finite ones
            params = params - cfg.lr * (grad_sum / batch)

    with _divergence(f"at the final evaluation, after step {cfg.steps - 1}", cfg, pipe, params):
        weights = ProjectionWeights(params[:-1].reshape(dim, dim), params[-1])
        eval_after = evaluate_projection(weights, held_scenes, eval_pipe)
    return TrainResult(weights, curve, eval_before, eval_after)


@contextlib.contextmanager
def _divergence(where: str, cfg: TrainConfig, pipe: PipelineConfig, params: np.ndarray):
    """Run the block on weights a descent step made, with overflow and
    invalid operations raising; its InsufficientMatches, OutOfRange or
    FloatingPointError becomes DivergenceDetected naming ``where``, ``lr``
    and a dustbin score that outranks every real score."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (InsufficientMatches, OutOfRange, FloatingPointError) as exc:
        z, top = params[-1], 1.0 / pipe.tau
        why = f"; the dustbin score {z:.3g} outranks every real score (<= {top:g})"
        raise DivergenceDetected(
            f"training diverged {where} (lr {cfg.lr:g}): {exc}{why if z > top else ''}"
        ) from exc


# --- seeded reference configuration ----------------------------------------
#
# A fixed, fast-enough-for-CI training setup used by the acceptance suite:
# moderate grids, feature noise sigma = 0.2, identity-plus-jitter init.  The
# committed reference artifact pins the loss-curve numbers this run produces.
#
# On raw simulated scenes the identity projection is already optimal -- both
# branches observe the same latent features under isotropic noise -- so a
# trained projection could only overfit and held-out pose error would not
# improve.  The reference scenes therefore confine the informative features
# to a fixed subspace and add branch-specific unit-norm clutter in its
# orthogonal complement.  The clutter decorrelates cross-branch matching for
# the identity projection but vanishes under the projector onto the signal
# subspace, and because that subspace is shared across scenes, a projection
# learned on the training split transfers to held-out scenes.

REFERENCE_SCENE = SceneConfig(
    extent=36.0,
    aerial_cells=21,
    landmark_count=24,
    ground_rows=6,
    ground_cols=24,
    feature_dim=16,
    noise_sigma=0.2,
    visibility_range=20.0,
    min_visible=6,
    max_height=6.0,
)

SIGNAL_DIM = 10  # informative directions out of REFERENCE_SCENE.feature_dim
NUISANCE_AMP = 0.5  # magnitude of the branch-specific clutter component

REFERENCE_TRAIN = TrainConfig(
    lr=1e-2,
    steps=500,
    beta=0.7,
    loss_mode="pseudo-scale",
    seed=0,
    holdout=6,
    init_jitter=0.05,
)


def reference_pipeline() -> PipelineConfig:
    return PipelineConfig(
        num_correspondences=24, lift=LiftConfig(max_depth=40.0)
    )


def reference_eval_pipeline() -> PipelineConfig:
    """Robustified settings for the before/after pose evaluations."""
    return dataclasses.replace(
        reference_pipeline(),
        num_correspondences=64,
        ransac=RansacConfig(iterations=300, inlier_threshold=2.0),
    )


def _subspace_split(dim: int, signal_dim: int, seed: int):
    """Orthonormal bases for the signal subspace and its complement."""
    rng = np.random.default_rng(7777 + seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q[:, :signal_dim], q[:, signal_dim:]


def _add_branch_clutter(grid, proj_signal, nuisance_basis, amp, rng):
    """Project features onto the signal subspace, add clutter outside it."""
    flat = grid.data.reshape(-1, grid.data.shape[-1])
    coef = rng.standard_normal((flat.shape[0], nuisance_basis.shape[1]))
    coef /= np.linalg.norm(coef, axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        data = flat @ proj_signal.T + amp * (coef @ nuisance_basis.T)
        if not np.isfinite(np.einsum("ij,ij->i", data, data)).all():
            raise OutOfRange(f"nuisance_amp {amp!r} overflows the {grid.kind} feature norms")
    return FeatureGrid(data.reshape(grid.data.shape), grid.kind, grid.meta)


def reference_dataset(
    n_scenes: int = 22,
    seed: int = 0,
    noise_sigma: float = 0.2,
    nuisance_amp: float = NUISANCE_AMP,
):
    """Deterministic scene list for the reference run (last scenes held out).

    Each scene's feature grids are restricted to a fixed signal subspace and
    given branch-specific clutter in the complementary directions (see the
    section comment above); the clutter coefficients are drawn per scene and
    per branch.  ``nuisance_amp=0`` leaves the raw generated scenes untouched.
    Raises OutOfRange unless ``n_scenes`` >= 1 and ``seed`` >= 0 are integers
    and ``nuisance_amp`` is >= 0 and leaves the features' norms finite.
    """
    require_int("n_scenes", n_scenes, 1)
    require_int("seed", seed, 0)
    require_real("nuisance_amp", nuisance_amp, 0)
    dim = REFERENCE_SCENE.feature_dim
    signal, nuisance = _subspace_split(dim, SIGNAL_DIM, seed)
    proj_signal = signal @ signal.T
    scenes = []
    for i in range(n_scenes):
        scene = generate(
            dataclasses.replace(
                REFERENCE_SCENE, noise_sigma=noise_sigma, seed=1000 * seed + i
            )
        )
        if nuisance_amp:
            rng = np.random.default_rng(50_000 + 1000 * seed + i)
            scene = dataclasses.replace(
                scene,
                aerial=_add_branch_clutter(
                    scene.aerial, proj_signal, nuisance, nuisance_amp, rng
                ),
                ground=_add_branch_clutter(
                    scene.ground, proj_signal, nuisance, nuisance_amp, rng
                ),
            )
        scenes.append(scene)
    return scenes


def reference_run(steps: int = None) -> TrainResult:
    """The pinned seed-0 training run (optionally truncated for smoke tests)."""
    cfg = REFERENCE_TRAIN
    if steps is not None:
        cfg = dataclasses.replace(cfg, steps=steps)
    return train(
        reference_dataset(),
        cfg,
        reference_pipeline(),
        eval_pipe=reference_eval_pipeline(),
    )
