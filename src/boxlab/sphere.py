"""Verified sphere covers and the discretized singlet-measurement box.

Covers are built from a Fibonacci spiral lattice and then *audited*: a
deterministic latitude/longitude probe grid is checked against the cover,
and each probe's nearest-cover distance plus an analytic bound on its grid
cell's half-diagonal gives a sound upper bound on the true covering radius.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .boxes import CorrelationBox, check_distributions
from .quantum import (KET1, SINGLET, _haar, bloch_of, measurement_probs,
                      simple_bell_spec, unitary_for_point)

# empirical certified-radius constant of the audited Fibonacci lattice,
# certified_radius ~= RADIUS_FIT / sqrt(T); retuned if the audit ever fails
RADIUS_FIT = 2.95
T_SCALING_CAP = 10.0  # T <= T_SCALING_CAP / epsilon^2
AUDIT_PROBES_PER_POINT = 100
AUDIT_RETRIES = 3


def fibonacci_points(n: int) -> np.ndarray:
    """Offset Fibonacci spiral lattice, n quasi-uniform points on the sphere."""
    idx = np.arange(n, dtype=np.float64) + 0.5
    z = 1.0 - 2.0 * idx / n
    theta = 2.0 * np.pi * idx / ((1.0 + np.sqrt(5.0)) / 2.0)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def audit_cover(points: np.ndarray, n_probes: int) -> float:
    """Sound upper bound on the covering radius of a point set.

    Probes form a theta/phi grid of about ``n_probes`` cell centers.  Any
    sphere point s lies in some cell, so d(s, cover) <= d(probe, cover) +
    d(s, probe), and d(s, probe) is at most the cell's half-diagonal chord,
    bounded through the geodesic metric ds^2 = dtheta^2 + sin^2(theta) dphi^2.
    """
    from scipy.spatial import cKDTree     # imported here: only covers need scipy

    points = np.asarray(points, dtype=np.float64)
    n_theta = max(4, int(np.ceil(np.sqrt(n_probes / 2.0))))
    n_phi = 2 * n_theta
    d_theta = np.pi / n_theta
    d_phi = 2.0 * np.pi / n_phi
    tree = cKDTree(points)
    certified = 0.0
    thetas = (np.arange(n_theta) + 0.5) * d_theta
    phis = (np.arange(n_phi) + 0.5) * d_phi
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    for i, theta in enumerate(thetas):
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        probes = np.column_stack([sin_t * cos_p, sin_t * sin_p,
                                  np.full(n_phi, cos_t)])
        dists, _ = tree.query(probes)
        # max sin over the cell's theta range bounds the azimuthal arc length
        sin_max = max(np.sin(theta - d_theta / 2.0), np.sin(theta + d_theta / 2.0))
        if theta - d_theta / 2.0 < np.pi / 2.0 < theta + d_theta / 2.0:
            sin_max = 1.0
        cell_bound = 0.5 * np.hypot(d_theta, sin_max * d_phi)
        certified = max(certified, float(dists.max()) + cell_bound)
    return certified


@dataclass(frozen=True)
class SphereCover:
    """T unit vectors with an audited covering radius."""

    points: np.ndarray      # shape (T, 3)
    covering_radius: float

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 4:
            raise ValueError("cover needs at least 4 points in R^3")
        norms = np.linalg.norm(points, axis=1)
        if np.abs(norms - 1.0).max() > 1e-10:
            raise ValueError("cover points must be unit vectors")
        points = points.copy()
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def nearest(self, c: np.ndarray) -> int:
        """Index of the closest cover point; ties go to the smallest index."""
        d2 = ((self.points - np.asarray(c, dtype=np.float64)) ** 2).sum(axis=1)
        return int(np.argmin(d2))


def build_cover(epsilon: float) -> SphereCover:
    """Audited cover with covering_radius <= epsilon and T <= 10 / epsilon^2."""
    if not 0.0 < epsilon <= 2.0:
        raise ValueError("epsilon must lie in (0, 2]")
    t = max(4, int(np.ceil((RADIUS_FIT / epsilon) ** 2)))
    for _ in range(AUDIT_RETRIES + 1):
        points = fibonacci_points(t)
        certified = audit_cover(points, AUDIT_PROBES_PER_POINT * t)
        if certified <= epsilon:
            return SphereCover(points, certified)
        t = int(np.ceil(t * 1.3))
    raise ValueError("audit failed to certify radius %g after retries" % epsilon)


def octahedron_cover() -> SphereCover:
    """The six octahedron vertices, with an audited radius."""
    points = np.vstack([np.eye(3), -np.eye(3)])
    return SphereCover(points, audit_cover(points, 20000))


def _singlet_rows(dots: np.ndarray) -> np.ndarray:
    """Pr[a, b] of the singlet measured along directions with these dot
    products, indexed [..., a, b]."""
    rows = np.empty(np.shape(dots) + (2, 2))
    rows[..., 0, 0] = rows[..., 1, 1] = 0.25 - 0.25 * dots
    rows[..., 0, 1] = rows[..., 1, 0] = 0.25 + 0.25 * dots
    return rows


def discretized_box(cover: SphereCover) -> CorrelationBox:
    """Box on [T] x [T] with Pr[a = b | i, j] = 1/2 - (c_i . c_j) / 2."""
    return CorrelationBox(_singlet_rows(cover.points @ cover.points.T))


def cover_bell_spec(cover: SphereCover):
    """BELL spec reproducing discretized_box by measuring the singlet."""
    us = [unitary_for_point(c) for c in cover.points]
    return simple_bell_spec(us, us)


def _snap(unitaries: np.ndarray, cover: SphereCover) -> np.ndarray:
    """Nearest cover index of the Bloch point of U^-1|1>, U over [..., 2, 2]."""
    points = bloch_of(np.linalg.inv(unitaries) @ KET1)
    nearest = [cover.nearest(c) for c in points.reshape(-1, 3)]
    return np.reshape(nearest, points.shape[:-1])


def reduce_measurement(u: np.ndarray, v: np.ndarray,
                       cover: SphereCover) -> tuple[int, int]:
    """Nearest cover indices for the Bloch points of U^-1|1> and V^-1|1>."""
    i, j = _snap(np.array([u, v], dtype=np.complex128), cover).tolist()
    return i, j


def verify_reduction(cover: SphereCover, trials: int,
                     seed: int = 0) -> tuple[float, float]:
    """Exact TV error of the 1-query nearest-point reduction on Haar pairs.

    Per-trial generators derive deterministically from the master seed, so
    trials are order-independent and parallelizable.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    # each trial's generator draws U's real and imaginary parts, then V's
    draws = np.array([
        np.random.default_rng(np.random.SeedSequence([seed, trial]))
        .normal(size=(4, 2, 2)) for trial in range(trials)])
    uv = _haar(draws[:, 0::2] + 1j * draws[:, 1::2])    # [trial, (U, V), 2, 2]
    exact = measurement_probs(uv[:, 0], uv[:, 1], SINGLET)
    # one row of discretized_box per trial, not the whole T x T table; the
    # 1-D dot gives the float of its P @ P.T entry, where einsum would not
    approx = _singlet_rows(np.array([cover.points[i] @ cover.points[j]
                                     for i, j in _snap(uv, cover)]))
    check_distributions(exact)
    check_distributions(approx)
    tvs = 0.5 * np.abs(exact - approx).sum(axis=(1, 2))
    return float(tvs.max()), float(tvs.mean())


def cover_to_json(cover: SphereCover) -> str:
    payload = {
        "points": cover.points.tolist(),
        "covering_radius": cover.covering_radius,
    }
    return json.dumps(payload)


def cover_from_json(text: str) -> SphereCover:
    payload = json.loads(text)
    return SphereCover(np.asarray(payload["points"], dtype=np.float64),
                       float(payload["covering_radius"]))
