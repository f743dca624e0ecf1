"""crossloc: fine-grained cross-view localization on synthetic scenes.

Ground-view features are matched to aerial-view features, lifted to a
bird's-eye-view point set via per-cell rays and depths, and aligned to the
aerial frame with a weighted scale-aware point-set solver, yielding planar
position, heading, and the depth scale in one shot.
"""

from .geometry import (
    SimilarityTransform2D,
    apply_transform,
    solve_orthogonal,
    solve_similarity,
    wrap_angle,
)

__version__ = "0.1.0"

__all__ = [
    "SimilarityTransform2D",
    "apply_transform",
    "solve_orthogonal",
    "solve_similarity",
    "wrap_angle",
    "__version__",
]
