"""Exponential-map lifting of atomic measures to a tangent chart and back.

Supported manifolds: the circle (quotient coordinates in [0,1)), the flat
2-torus, and the unit 2-sphere in colatitude/longitude angles. These cover
both the parallelizable and the non-parallelizable tangent-bundle cases the
flat-space solvers are reused for. Manifold and tangent atoms are plain
`DiscreteMeasure`s, so they are read and written as every other measure is.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import sphere_distance, sphere_xyz, wrap_signed, wrap_unit
from .measures import DiscreteMeasure

MANIFOLDS = ("circle", "torus2", "sphere2")
ROUND_TRIP_TOL = 1e-9
SPHERE_CAP = 3.0  # < pi, keeps the exp Jacobian away from the cut locus


class LiftError(ValueError):
    """Chart precondition violated."""


def _sphere_angles(xyz: np.ndarray) -> np.ndarray:
    theta = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), 2.0 * np.pi)
    return np.column_stack([theta, phi])


@dataclass(frozen=True)
class ManifoldChart:
    """Geodesic normal chart exp_p / exp_p^{-1} at a base point.

    Points and tangent vectors are rows of the base point's dimension, a
    sphere point (colatitude, longitude); a row of another length is a LiftError.

    Injectivity caps: 0.5 in quotient units on the circle and torus, 3.0 on
    the unit sphere (the exp Jacobian degenerates at the cut locus pi). On
    the circle and torus a radius of 0.5 itself is rejected whatever the
    cap: it reaches the cut locus, where a point has no unique tangent vector.
    """

    manifold: str
    base_point: np.ndarray
    cap: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.manifold not in MANIFOLDS:
            raise LiftError(f"manifold must be one of {MANIFOLDS}")
        p = np.asarray(self.base_point, dtype=float).ravel()
        expected = {"circle": 1, "torus2": 2, "sphere2": 2}[self.manifold]
        if len(p) != expected:
            raise LiftError(f"{self.manifold} base point needs {expected} coordinates")
        if not np.isfinite(p).all():
            raise LiftError(f"chart base point must be finite, got {p.tolist()}")
        flat = self.manifold in ("circle", "torus2")
        cap = self.cap
        if cap is None:
            cap = 0.5 if flat else SPHERE_CAP
        if not (np.isfinite(cap) and cap > 0):
            raise LiftError(f"chart cap must be a finite number > 0, got {cap!r}")
        if flat and cap > 0.5:
            raise LiftError(f"{self.manifold} chart cap must stay at or below the "
                            f"injectivity radius 0.5, got {cap!r}")
        if not flat and cap >= np.pi:
            raise LiftError("sphere chart cap must stay below the cut locus pi")
        object.__setattr__(self, "base_point", p)
        object.__setattr__(self, "cap", float(cap))

    def _rows(self, arr) -> np.ndarray:
        """arr as an (m, d) float array, d the base point's dimension; LiftError otherwise."""
        rows = np.atleast_2d(np.asarray(arr, dtype=float))
        dim = len(self.base_point)
        if rows.ndim != 2 or rows.shape[1] != dim:
            raise LiftError(f"{self.manifold} rows need {dim} coordinates, got shape {rows.shape}")
        return rows

    def _check_cap(self, radii: np.ndarray, rows: np.ndarray, message: str) -> None:
        """LiftError naming the first row whose radius exceeds the cap, or on
        the circle and torus reaches the cut locus at 0.5, where a point has
        no unique tangent vector (`wrap_signed` takes +0.5 to -0.5); message
        holds {} where the row goes and is followed by the cap."""
        cut = (radii >= 0.5) & (self.manifold != "sphere2")
        bad = np.nonzero((radii > self.cap + 1e-15) | cut)[0]
        if bad.size:
            why = " (radius 0.5 is the cut locus)" if cut[bad[0]] else ""
            raise LiftError(f"{message.format(rows[bad[0]].tolist())} {self.cap}{why}")

    def _sphere_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        theta, phi = self.base_point
        p = sphere_xyz(self.base_point[None, :])[0]
        e1 = np.array([np.cos(theta) * np.cos(phi),
                       np.cos(theta) * np.sin(phi),
                       -np.sin(theta)])
        e2 = np.array([-np.sin(phi), np.cos(phi), 0.0])
        return p, e1, e2

    def log(self, pts: np.ndarray) -> np.ndarray:
        """exp_p^{-1} of manifold points; rejects points beyond the cap."""
        pts = self._rows(pts)
        if self.manifold in ("circle", "torus2"):
            v = wrap_signed(pts - self.base_point[None, :])
            self._check_cap(np.sqrt(np.sum(v * v, axis=1)), pts,
                            "atom {} lies outside the injectivity cap")
            return v
        p, e1, e2 = self._sphere_frame()
        q = sphere_xyz(pts)
        d = sphere_distance(q, p)
        self._check_cap(d, pts, "atom {} lies outside the injectivity cap")
        rest = q - (q @ p)[:, None] * p[None, :]
        norm = np.sqrt(np.sum(rest * rest, axis=1))
        safe = np.where(norm > 1e-300, norm, 1.0)
        unit = rest / safe[:, None]
        v = d[:, None] * np.column_stack([unit @ e1, unit @ e2])
        v[norm <= 1e-300] = 0.0
        return v

    def exp(self, vecs: np.ndarray) -> np.ndarray:
        """exp_p of tangent vectors; rejects vectors beyond the cap."""
        v = self._rows(vecs)
        norms = np.sqrt(np.sum(v * v, axis=1))
        self._check_cap(norms, v, "tangent vector {} exceeds the radius cap")
        if self.manifold in ("circle", "torus2"):
            return wrap_unit(self.base_point[None, :] + v)
        p, e1, e2 = self._sphere_frame()
        safe = np.where(norms > 1e-300, norms, 1.0)
        unit = (v[:, 0, None] * e1[None, :] + v[:, 1, None] * e2[None, :]) / safe[:, None]
        q = np.cos(norms)[:, None] * p[None, :] + np.sin(norms)[:, None] * unit
        q[norms <= 1e-300] = p
        return _sphere_angles(q)


def log_lift(chart: ManifoldChart, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Lift an atomic measure to the tangent space at the chart base point."""
    return DiscreteMeasure(chart.log(mu.points), mu.weights)


def exp_push(chart: ManifoldChart, mu_tangent: DiscreteMeasure) -> DiscreteMeasure:
    """Push a tangent-space atomic measure back to the manifold."""
    return DiscreteMeasure(chart.exp(mu_tangent.points), mu_tangent.weights)
