"""The benchmark's workloads: closed loops over crossloc's command line.

Each workload drives ``crossloc.cli.main`` in-process, one client, the next
op starting when the previous returns.  A workload builds its inputs from
the seed (``build``), runs one cheap op to warm caches (``warmup``), and
then runs rounds of ops (``run_round``); every op is checked for correct
output.  ``PASS_ROUNDS`` rounds make one pass over the workload's inputs,
which the traced run repeats so that its counts do not depend on time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import time
from typing import NamedTuple, Optional

from crossloc import cli


class Op(NamedTuple):
    """One completed op: its wall latency and whether its output checked out."""

    latency_s: float
    ok: bool
    note: Optional[str] = None


def call_cli(argv):
    """Run ``crossloc <argv>`` in-process; returns (exit code or error, stderr, seconds).

    ``cli.main`` is looked up at call time so that the traced run sees its
    wrapper.  An exception escaping the CLI is a failed op, not a crash of
    the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # the op failed; the loop goes on and counts it
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, err.getvalue().strip(), time.perf_counter() - start


def _read_json(path):
    with open(path) as f:
        return json.load(f)


class Localize:
    """``crossloc solve --ransac --truth`` with CLI defaults over a fixed
    rotation of default-size scenes in four variants."""

    # panorama and pinhole cameras, each without and with feature noise
    VARIANTS = (("panorama", 0.0), ("pinhole", 0.0), ("panorama", 0.1), ("pinhole", 0.1))
    SCENES_PER_VARIANT = 6
    RECALL_RADIUS_M = 1.0

    def __init__(self, seed: int, scenes_per_variant: int = SCENES_PER_VARIANT):
        self.seed = seed
        self.per_variant = scenes_per_variant
        self.PASS_ROUNDS = len(self.VARIANTS) * scenes_per_variant
        self.stems = []
        self.out = None
        self.loc_errors = []

    def build(self, work_dir: str) -> None:
        first = self.seed * self.per_variant
        seeds = f"{first}..{first + self.per_variant - 1}"
        stems = {}
        for camera, noise in self.VARIANTS:
            out_dir = os.path.join(work_dir, f"{camera}-{noise}")
            config = out_dir + ".json"
            with open(config, "w") as f:
                json.dump({"camera": camera, "noise_sigma": noise}, f)
            rc, err, _ = call_cli(["simulate", "--config", config, "--seeds", seeds, "--out", out_dir])
            if rc != 0:
                raise RuntimeError(f"simulate {camera}/{noise} failed: {rc} {err}")
            stems[camera, noise] = [
                os.path.join(out_dir, f"scene_{s:04d}") for s in range(first, first + self.per_variant)
            ]
        # interleave the variants so that consecutive solves differ in kind
        self.stems = [stems[v][i] for i in range(self.per_variant) for v in self.VARIANTS]
        self.out = os.path.join(work_dir, "pose.json")

    def warmup(self) -> None:
        self.run_round(0)
        self.loc_errors.clear()

    def run_round(self, r: int) -> list:
        stem = self.stems[r % len(self.stems)]
        if os.path.exists(self.out):
            os.remove(self.out)
        rc, err, latency = call_cli([
            "solve", "--aerial", stem + "_aerial.fgrd", "--ground", stem + "_ground.fgrd",
            "--depth", stem + "_depth.dpth", "--truth", stem + "_truth.json",
            "--ransac", "--out", self.out,
        ])
        if rc != 0:
            return [Op(latency, False, f"{stem}: exit {rc} {err}")]
        record = _read_json(self.out)
        est = record.get("estimate", {})
        pose = [est.get("scale"), est.get("theta"), *est.get("t", [])]
        if len(pose) != 4 or not all(isinstance(v, float) and math.isfinite(v) for v in pose):
            return [Op(latency, False, f"{stem}: non-finite pose {pose}")]
        if "errors" not in record:
            return [Op(latency, False, f"{stem}: no errors block")]
        self.loc_errors.append(record["errors"]["loc_error"])
        return [Op(latency, True)]

    def detail(self, attempted: int) -> dict:
        within = sum(e <= self.RECALL_RADIUS_M for e in self.loc_errors)
        return {"recall_1m": within / attempted, "solves_within_1m": within}


class Train:
    """``crossloc train --config`` with every REFERENCE_TRAIN field, ``steps``
    truncated and ``dataset.seed`` set from the benchmark seed."""

    STEPS = 10
    PASS_ROUNDS = 1
    CURVE_TOL = 1e-9  # gate 10's bar on the pinned seed-0 curve
    REFERENCE = os.path.join("reference", "train_seed0.json")

    def __init__(self, seed: int, root: str, steps: int = STEPS):
        self.seed = seed
        self.root = root
        self.steps = steps
        self.expected = None
        self.max_gap = 0.0

    def _config(self, path: str, steps: int) -> None:
        from crossloc.trainer import REFERENCE_TRAIN

        doc = dataclasses.asdict(dataclasses.replace(REFERENCE_TRAIN, steps=steps))
        doc["dataset"] = {"seed": self.seed}
        with open(path, "w") as f:
            json.dump(doc, f)

    def build(self, work_dir: str) -> None:
        self.config = os.path.join(work_dir, "train.json")
        self.warm_config = os.path.join(work_dir, "train-warmup.json")
        self._config(self.config, self.steps)
        self._config(self.warm_config, 1)
        self.out = os.path.join(work_dir, "train-out.json")
        if self.seed == 0:
            pinned = _read_json(os.path.join(self.root, self.REFERENCE))["loss_curve"]
            self.expected = pinned[: self.steps]

    def warmup(self) -> None:
        call_cli(["train", "--config", self.warm_config, "--out", self.out])

    def run_round(self, r: int) -> list:
        if os.path.exists(self.out):
            os.remove(self.out)
        rc, err, latency = call_cli(["train", "--config", self.config, "--out", self.out])
        per_step = latency / self.steps
        if rc != 0:
            return [Op(per_step, False, f"exit {rc} {err}")] * self.steps
        curve = _read_json(self.out)["loss_curve"]
        if self.expected is None:  # other seeds: every op repeats the run's first curve
            self.expected = curve
        if len(curve) != len(self.expected):
            return [Op(per_step, False, f"curve has {len(curve)} steps")] * self.steps
        gap = max(abs(a - b) for a, b in zip(curve, self.expected))
        self.max_gap = max(self.max_gap, gap)
        tol = self.CURVE_TOL if self.seed == 0 else 0.0
        note = None if gap <= tol else f"loss curve off by {gap:.3e} (tolerance {tol:g})"
        return [Op(per_step, note is None, note)] * self.steps

    def detail(self, attempted: int) -> dict:
        against = "reference/train_seed0.json" if self.seed == 0 else "first curve of the run"
        return {"curve_max_gap": self.max_gap, "curve_checked_against": against}


class Certify:
    """``crossloc gradcheck --seeds S --mode M`` over gate 05's instances
    (scene seed i in leaf mode i % 3), one score/features/projection cycle
    per round."""

    MODES = ("score", "features", "projection")
    INSTANCES = 48  # gate 05's first 48 instances: 16 whole cycles
    PASS_ROUNDS = 1

    def __init__(self, seed: int):
        self.offset = 3 * (seed % (self.INSTANCES // 3))

    def build(self, work_dir: str) -> None:
        pass  # every input is generated inside the gradcheck command

    def _instance(self, i: int) -> Op:
        mode = self.MODES[i % 3]
        rc, err, latency = call_cli(["gradcheck", "--seeds", str(i), "--mode", mode])
        return Op(latency, rc == 0, None if rc == 0 else f"seed {i} {mode}: exit {rc} {err}")

    def warmup(self) -> None:
        self._instance(self.offset + 2)  # the cheap projection-mode instance

    def run_round(self, r: int) -> list:
        first = (self.offset + 3 * r) % self.INSTANCES
        return [self._instance(i) for i in range(first, first + 3)]

    def detail(self, attempted: int) -> dict:
        return {"first_instance": self.offset}


def make(name: str, seed: int, root: str):
    if name == "localize":
        return Localize(seed)
    if name == "train":
        return Train(seed, root)
    if name == "certify":
        return Certify(seed)
    raise ValueError(f"unknown workload {name!r}")
