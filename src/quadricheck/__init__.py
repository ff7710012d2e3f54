"""Exact decision procedure for ten labeled points on a quadric surface.

The synthetic pipeline (reductions + generic case) uses only joins, meets
and von Staudt constructions on integer representatives of the points; the
oracle module holds the 10x10 determinant ground truth every verdict is
checked against.
"""

from .decision import Decision, Labeling, PlanePair
from .extensors import Extensor, grassmann_criterion, join, meet
from .generic_case import (
    GenericConfig,
    build_M,
    compute_Q,
    construct_test_point,
    decide_generic,
)
from .oracle import oracle_decide, sample_generic, sample_on_quadric
from .projective import (
    Point,
    QuadricCoeffs,
    Transform,
    bracket,
    quadric_through,
)
from .reductions import decide, normalize

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "Extensor",
    "GenericConfig",
    "Labeling",
    "PlanePair",
    "Point",
    "QuadricCoeffs",
    "Transform",
    "bracket",
    "build_M",
    "compute_Q",
    "construct_test_point",
    "decide",
    "decide_generic",
    "grassmann_criterion",
    "join",
    "meet",
    "normalize",
    "oracle_decide",
    "quadric_through",
    "sample_generic",
    "sample_on_quadric",
    "__version__",
]
