"""Verdicts, certificates and labelings shared by the decision pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from .projective import GeometryError, Point, QuadricCoeffs, _canonical_ints, _decimal_strings


class PreconditionViolated(GeometryError):
    """An operation was invoked on a configuration outside its contract."""


class InternalInconsistency(GeometryError):
    """An exact identity the algorithm relies on failed; indicates a bug."""


# Every exit of the decision pipeline, in the order they can fire.
BRANCHES = (
    "duplicate",
    "four-collinear",
    "six-on-conic",
    "three-lines-grassmann",
    "two-lines-coincident-transversals",
    "plane-line-case",
    "two-lines-grassmann",
    "coplanar",
    "two-planes",
    "plane-split",
    "generic",
)


@dataclass(frozen=True)
class Labeling:
    """A permutation of {0..9}; perm[role] is the input index playing role."""

    perm: tuple

    def __post_init__(self):
        perm = tuple(int(i) for i in self.perm)
        if sorted(perm) != list(range(10)):
            raise ValueError("labeling must be a permutation of 0..9")
        object.__setattr__(self, "perm", perm)

    def apply(self, points):
        return [points[i] for i in self.perm]

    def compose(self, inner: "Labeling") -> "Labeling":
        """Labeling that first applies self, then inner on the result."""
        return Labeling(tuple(self.perm[inner.perm[r]] for r in range(10)))


@dataclass(frozen=True)
class PlanePair:
    """A reducible quadric: the product of two linear forms."""

    forms: tuple

    def __post_init__(self):
        forms = tuple(_canonical_ints(f) for f in self.forms)
        if len(forms) != 2 or any(len(f) != 4 for f in forms):
            raise ValueError("a plane pair is two linear forms on x, y, z, w")
        object.__setattr__(self, "forms", forms)

    def evaluate(self, p: Point):
        vals = [sum(c * x for c, x in zip(f, p.coords)) for f in self.forms]
        return vals[0] * vals[1]


Certificate = QuadricCoeffs | PlanePair


def certificate_to_json(cert):
    if cert is None:
        return None
    if isinstance(cert, QuadricCoeffs):
        return {"type": "quadric", "coeffs": cert.to_strings()}
    return {"type": "plane-pair", "planes": [_decimal_strings(f) for f in cert.forms]}


@dataclass(frozen=True)
class Decision:
    """Verdict of the synthetic pipeline.

    branch names the exit that fired; certificate, when present on a YES
    verdict, is a (possibly reducible) quadric vanishing at all ten points.
    """

    on_quadric: bool
    branch: str
    labeling: Labeling | None = None
    certificate: Certificate | None = None
    trace: object | None = None

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise ValueError(f"unknown branch {self.branch!r}")

    def to_json(self):
        return {
            "on_quadric": self.on_quadric,
            "branch": self.branch,
            "labeling": list(self.labeling.perm) if self.labeling else None,
            "certificate": certificate_to_json(self.certificate),
            "trace_ref": None,
        }
