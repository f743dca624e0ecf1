"""Per-layer metrics of a traced run, per op.

Self times are in ms per op, ``.calls`` are calls per op and the exact
counts (entries, matches) are totals per op.  Ratios are taken over the
whole run.  ``per_layer`` also returns the count identities that failed.
"""

from __future__ import annotations

from tracer import Report

# name, unit: the order in which the metrics are reported
METRICS = (
    ("matching.score_matrix.self_ms", "ms"),
    ("matching.mask_ground_columns.self_ms", "ms"),
    ("matching.softmax.calls", "count"),
    ("matching.softmax.self_ms", "ms"),
    ("matching.softmax_entries", "count"),
    ("matching.softmax_bytes", "B"),
    ("matching.valid_col_frac", "ratio"),
    ("matching.sample_correspondences.self_ms", "ms"),
    ("matching.topn_entries", "count"),
    ("lifting.self_ms", "ms"),
    ("geometry.solve_similarity.calls", "count"),
    ("geometry.solve_similarity.self_ms", "ms"),
    ("estimator.build_correspondences.self_ms", "ms"),
    ("estimator.ransac_estimate.self_ms", "ms"),
    ("estimator.count_inliers.calls", "count"),
    ("estimator.count_inliers.self_ms", "ms"),
    ("estimator.kept_frac", "ratio"),
    ("estimator.inlier_frac", "ratio"),
    ("estimator.redraw_frac", "ratio"),
    ("gradcheck.build_context.calls", "count"),
    ("gradcheck.build_context.self_ms", "ms"),
    ("gradcheck.forward.calls", "count"),
    ("gradcheck.forward.self_ms", "ms"),
    ("gradcheck.backward.calls", "count"),
    ("gradcheck.backward.self_ms", "ms"),
    ("gradcheck.forward_value.calls", "count"),
    ("gradcheck.forward_value.self_ms", "ms"),
    ("gradcheck.finite_difference.self_ms", "ms"),
    ("losses.self_ms", "ms"),
    ("trainer.train.self_ms", "ms"),
    ("trainer.evaluate_projection.self_ms", "ms"),
    ("trainer.reference_dataset.self_ms", "ms"),
    ("simulator.generate.calls", "count"),
    ("simulator.generate.self_ms", "ms"),
    ("io.read.self_ms", "ms"),
    ("io.write_results.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("metrics.pose_errors.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)

# Exact counts: equal on two traced runs of one seed.
EXACT = tuple(
    name for name, unit in METRICS
    if (unit in ("count", "B") or name.endswith("_frac")) and name != "trace.overhead_frac"
)

SOFTMAXES = ("matching.row_softmax", "matching.col_softmax", "matching.dual_softmax")
READERS = ("io.read_feature_grid", "io.read_depth_map", "io.read_results")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, n_ops: int, overhead_frac: float):
    """(metrics as name -> (value, unit), list of identity violations)."""
    rep = Report(tracer)
    ransac = rep.ransac_counts()
    violations = ransac.pop("violations") + rep.kept_violations() + tracer.hook_errors

    entries = rep.extra_sum("matching.row_softmax", 0) + rep.extra_sum("matching.col_softmax", 0)
    sampled = rep.extra_sum("matching.sample_correspondences", 0)
    kept = rep.extra_sum("estimator.build_correspondences", 0)
    inliers = rep.extra_sum("estimator.ransac_estimate", 0)
    ransac_kept = rep.extra_sum("estimator.ransac_estimate", 1)
    if kept > sampled:
        violations.append(f"kept {kept} > sampled {sampled}")
    if inliers > ransac_kept:
        violations.append(f"inliers {inliers} > kept {ransac_kept}")

    def calls(name):
        return rep.ncalls(name) / n_ops

    def self_ms(*prefixes):
        return sum(rep.self_ms(p) for p in prefixes) / n_ops

    values = {
        "matching.score_matrix.self_ms": self_ms("matching.score_matrix"),
        "matching.mask_ground_columns.self_ms": self_ms("matching.mask_ground_columns"),
        "matching.softmax.calls": calls("matching.row_softmax"),
        "matching.softmax.self_ms": self_ms(*SOFTMAXES),
        "matching.softmax_entries": entries / n_ops,
        "matching.softmax_bytes": 8 * entries / n_ops,  # computed: entries x 8 B
        "matching.valid_col_frac": _ratio(
            rep.extra_sum("matching.mask_ground_columns", 0),
            rep.extra_sum("matching.mask_ground_columns", 1),
        ),
        # top-N selection: the sampler plus the ranking it calls
        "matching.sample_correspondences.self_ms": self_ms(
            "matching.sample_correspondences", "matching.top_n_flat_indices"
        ),
        "matching.topn_entries": rep.extra_sum("matching.top_n_flat_indices", 0) / n_ops,
        "lifting.self_ms": self_ms("lifting."),
        "geometry.solve_similarity.calls": calls("geometry.solve_similarity"),
        "geometry.solve_similarity.self_ms": self_ms("geometry.solve_similarity"),
        "estimator.build_correspondences.self_ms": self_ms("estimator.build_correspondences"),
        "estimator.ransac_estimate.self_ms": self_ms("estimator.ransac_estimate"),
        "estimator.count_inliers.calls": calls("estimator.count_inliers"),
        "estimator.count_inliers.self_ms": self_ms("estimator.count_inliers"),
        "estimator.kept_frac": _ratio(kept, sampled),
        "estimator.inlier_frac": _ratio(inliers, ransac_kept),
        "estimator.redraw_frac": _ratio(ransac["redraws"], ransac["solver_calls"]),
        "trace.overhead_frac": overhead_frac,
    }
    for fn in ("build_context", "forward", "backward", "forward_value"):
        values[f"gradcheck.{fn}.calls"] = calls(f"gradcheck.{fn}")
        values[f"gradcheck.{fn}.self_ms"] = self_ms(f"gradcheck.{fn}")
    values["gradcheck.finite_difference.self_ms"] = self_ms("gradcheck.finite_difference")
    values["losses.self_ms"] = self_ms("losses.")
    for fn in ("train", "evaluate_projection", "reference_dataset"):
        values[f"trainer.{fn}.self_ms"] = self_ms(f"trainer.{fn}")
    values["simulator.generate.calls"] = calls("simulator.generate")
    values["simulator.generate.self_ms"] = self_ms("simulator.generate")
    values["io.read.self_ms"] = self_ms(*READERS)
    values["io.write_results.self_ms"] = self_ms("io.write_results")
    values["cli.main.self_ms"] = self_ms("cli.main")
    values["metrics.pose_errors.self_ms"] = self_ms("metrics.pose_errors")

    metrics = {name: (values[name], unit) for name, unit in METRICS}
    return metrics, violations


def top_self_ms(tracer, n_ops: int, count: int = 15) -> dict:
    """The ``count`` functions with the most self time, in ms per op."""
    rep = Report(tracer)
    order = sorted(range(len(rep.names)), key=lambda i: -rep.self_s[i])[:count]
    return {
        rep.names[i]: {"self_ms": 1e3 * rep.self_s[i] / n_ops, "calls": int(rep.calls[i]) / n_ops}
        for i in order if rep.calls[i]
    }
