"""Checks of the benchmark itself: the tracer, exact counts and identities.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload is traced twice on one seed over one pass of a reduced input;
the exact counts must repeat exactly and the count identities must hold.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import numpy as np  # noqa: E402
import crossloc.estimator  # noqa: E402
import crossloc.geometry  # noqa: E402
import crossloc.gradcheck  # noqa: E402
import crossloc.matching  # noqa: E402
from crossloc.errors import DegenerateConfiguration  # noqa: E402
from layers import EXACT  # noqa: E402
from tracer import Report, Tracer  # noqa: E402
from workloads import Certify, Localize, Train  # noqa: E402


def test_tracer_wraps_every_binding_reraises_and_restores():
    original = crossloc.matching.score_matrix
    solver = crossloc.geometry.solve_similarity
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = crossloc.matching.score_matrix
        assert wrapped is not original
        assert crossloc.estimator.score_matrix is wrapped
        assert crossloc.gradcheck.score_matrix is wrapped
        p = np.zeros((3, 2))
        with pytest.raises(DegenerateConfiguration) as caught:
            crossloc.geometry.solve_similarity(p, p, np.ones(3))
    finally:
        tracer.uninstall()
    assert type(caught.value) is DegenerateConfiguration
    assert crossloc.matching.score_matrix is original
    assert crossloc.estimator.score_matrix is original
    assert crossloc.geometry.solve_similarity is solver
    names = list(tracer.names)
    tracer.install()  # a reinstall reuses the wrappers and their names
    try:
        assert crossloc.estimator.score_matrix is wrapped
        with pytest.raises(DegenerateConfiguration):
            crossloc.geometry.solve_similarity(p, p, np.ones(3))
    finally:
        tracer.uninstall()
    assert tracer.names == names
    rep = Report(tracer)
    hits = rep.indices("geometry.solve_similarity", ok_only=False)
    assert len(hits) == 2 and all(rep.spans["raised"][hits] == 1)
    assert len(rep.indices("geometry.solve_similarity")) == 0


def _traced_pass(workload, work_dir):
    workload.build(str(work_dir))
    ops, failures, metrics, detail = run.traced(workload, 0, work_dir / "trace.npz")
    assert not failures, failures
    return {name: metrics[name][0] for name in EXACT}, metrics


@pytest.mark.parametrize(
    "make",
    [
        lambda: Localize(seed=0, scenes_per_variant=1),
        lambda: Train(seed=0, root=str(HERE.parent), steps=2),
        lambda: Certify(seed=1),
    ],
    ids=["localize", "train", "certify"],
)
def test_exact_counts_repeat(make, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, metrics = _traced_pass(make(), tmp_path / "a")
    second, _ = _traced_pass(make(), tmp_path / "b")
    assert first == second
    assert metrics["estimator.kept_frac"][0] <= 1.0
    assert metrics["estimator.inlier_frac"][0] <= 1.0


def test_localize_identities(tmp_path):
    workload = Localize(seed=1, scenes_per_variant=1)
    workload.build(str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        for r in range(workload.PASS_ROUNDS):
            tracer.op_id = r
            assert all(op.ok for op in workload.run_round(r))
    finally:
        tracer.uninstall()
    rep = Report(tracer)
    counts = rep.ransac_counts()
    assert counts["violations"] == []
    assert rep.kept_violations() == []
    # solver calls inside RANSAC = completed iterations + redraws + refit
    assert counts["solver_calls"] == counts["completed"] + counts["redraws"] + counts["refits"]
    assert counts["completed"] == 1000 * workload.PASS_ROUNDS
    kept = rep.extra_sum("estimator.build_correspondences", 0)
    assert kept <= rep.extra_sum("matching.sample_correspondences", 0)
    assert rep.extra_sum("estimator.ransac_estimate", 0) <= kept
