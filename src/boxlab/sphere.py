"""Verified sphere covers and the discretized singlet-measurement box.

Covers are built from a Fibonacci spiral lattice and then *audited*: a
deterministic latitude/longitude probe grid is checked against the cover,
and each probe's nearest-cover distance plus an analytic bound on its grid
cell's half-diagonal gives a sound upper bound on the true covering radius.

The audit is an exact nearest-point search in numpy, in three steps.
Seed: the inverse spherical Fibonacci mapping (Keinert, Innmann, Saenger
and Stamminger, ACM TOG 34(6), 2015) names 4 lattice points near each
probe; the distance to the best is an upper bound on the probe's nearest
distance, since it is the distance to a real point.  Prune: a probe whose
seed plus cell bound is no larger than a value already found cannot change
the result.  Finish: the probes left get their exact distance by brute
force over every point.  Distances are sqrt((p - q)**2 summed over x, y, z
in turn), the float formula of a cKDTree query, so the certified radius
equals a k-d tree audit's to the bit.  On a Fibonacci lattice one or two
probes reach the finish, in any order of the points; other point sets (the
octahedron) fall back to brute force over most probes.
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
OCTAHEDRON_PROBES = 20000
# entries of one temporary array in the distance kernels, far below
# boxes.PATH_TABLE_CAP: blocks this small stay in cache, which made the
# T = 3,481 audit twice as fast as one PATH_TABLE_CAP block and its peak 9x
# smaller
DISTANCE_BLOCK = 2 ** 15
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def fibonacci_points(n: int) -> np.ndarray:
    """Offset Fibonacci spiral lattice, n quasi-uniform points on the sphere:
    point i has z = 1 - (2i + 1)/n and azimuth 2 pi (i + 1/2) / GOLDEN."""
    idx = np.arange(n, dtype=np.float64) + 0.5
    z = 1.0 - 2.0 * idx / n
    theta = 2.0 * np.pi * idx / GOLDEN
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _nearest(probes: np.ndarray, points: np.ndarray, reduce) -> np.ndarray:
    """``reduce(d2, axis=1)`` per probe, d2 the squared distances to every
    point summed over x, y and z in turn, in blocks of DISTANCE_BLOCK
    entries.  ``np.min`` gives the nearest squared distance, ``np.argmin``
    the nearest index with ties to the smallest."""
    rows = max(1, DISTANCE_BLOCK // len(points))
    out = []
    for start in range(0, len(probes), rows):
        block = probes[start:start + rows, None, :]
        d2 = np.square(block[..., 0] - points[:, 0])
        d2 += np.square(block[..., 1] - points[:, 1])
        d2 += np.square(block[..., 2] - points[:, 2])
        out.append(reduce(d2, axis=1))
    return np.concatenate(out)


def _lattice_seeds(cols: np.ndarray, sin_t: np.ndarray, cos_t: np.ndarray,
                   cos_p: np.ndarray, sin_p: np.ndarray,
                   phis: np.ndarray) -> np.ndarray:
    """Distance from each probe [row, column] of a theta/phi grid to the best
    of 4 points whose indices the inverse spherical Fibonacci mapping picks.

    ``cols`` holds the points' x, y and z as contiguous rows.  Read as the
    lattice of ``fibonacci_points(n)``, point i sits at (2 pi i / GOLDEN,
    z_0 - 2i/n) in the (azimuth, z) plane after a turn by pi / GOLDEN, and
    index steps of the Fibonacci numbers F_k and F_(k+1) span that lattice
    with short vectors in the latitude zone k of Keinert et al.  The probe's
    cell in that basis has 4 corners, whose indices are integers.
    """
    n = cols.shape[1]
    # zone k and the index steps F_k, F_(k+1) are the same along a row
    k = np.maximum(2.0, np.floor(
        np.log(n * np.pi * np.sqrt(5.0) * (1.0 - cos_t * cos_t))
        / np.log(GOLDEN * GOLDEN)))
    f = np.round(GOLDEN ** np.stack([k, k + 1.0]) / np.sqrt(5.0))[:, :, None]
    # each step's azimuth, taken to the representative nearest 0, and z
    step_phi = 2.0 * np.pi * (f / GOLDEN - np.round(f / GOLDEN))
    step_z = -2.0 * f / n
    det = step_phi[0] * step_z[1] - step_phi[1] * step_z[0]
    # the probe's offset from point 0, solved in the (F_k, F_(k+1)) basis
    u = phis - np.pi / GOLDEN
    w = (cos_t - (1.0 - 1.0 / n))[:, None]
    base = (f[0] * np.floor((step_z[1] * u - step_phi[1] * w) / det)
            + f[1] * np.floor((step_phi[0] * w - step_z[0] * u) / det))
    px = sin_t[:, None] * cos_p
    py = sin_t[:, None] * sin_p
    pz = cos_t[:, None]
    best = None
    for step in (0.0, f[0], f[1], f[0] + f[1]):
        i = np.clip(base + step, 0, n - 1).astype(np.intp)
        d2 = np.square(px - cols[0].take(i))
        d2 += np.square(py - cols[1].take(i))
        d2 += np.square(pz - cols[2].take(i))
        best = d2 if best is None else np.minimum(best, d2, out=best)
    return np.sqrt(best)


def audit_cover(points: np.ndarray, n_probes: int) -> float:
    """Sound upper bound on the covering radius of a point set.

    Probes form a theta/phi grid of about ``n_probes`` cell centers.  Any
    sphere point s lies in some cell, so d(s, cover) <= d(probe, cover) +
    d(s, probe), and d(s, probe) is at most the cell's half-diagonal chord,
    bounded through the geodesic metric ds^2 = dtheta^2 + sin^2(theta) dphi^2.
    The result is the largest d(probe, cover) + cell bound.

    Blocks of grid rows of about DISTANCE_BLOCK probes go through three
    steps.  Seed: each probe's distance to the best of 4 Fibonacci lattice
    candidates (``_lattice_seeds``), an upper bound on its exact distance
    for any point set.  Prune: a probe whose seed plus cell bound is at most
    the largest value found so far cannot raise it; the block's largest
    bound is resolved first.  Finish: the other probes get their exact
    distance by brute force over all points.  The seeds read the points in
    order of descending z, which is the index order of a Fibonacci lattice,
    so Fibonacci covers in any order leave one or two probes to finish;
    other point sets (the octahedron) fall back to brute force over most
    probes.  The finish is a min over all points, so the order does not
    change the result.
    """
    points = np.asarray(points, dtype=np.float64)
    points = points[np.argsort(-points[:, 2], kind="stable")]
    n_theta = max(4, int(np.ceil(np.sqrt(n_probes / 2.0))))
    n_phi = 2 * n_theta
    d_theta = np.pi / n_theta
    d_phi = 2.0 * np.pi / n_phi
    thetas = (np.arange(n_theta) + 0.5) * d_theta
    phis = (np.arange(n_phi) + 0.5) * d_phi
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    sin_t, cos_t = np.sin(thetas), np.cos(thetas)
    # max sin over the cell's theta range bounds the azimuthal arc length
    sin_max = np.maximum(np.sin(thetas - d_theta / 2.0),
                         np.sin(thetas + d_theta / 2.0))
    sin_max[(thetas - d_theta / 2.0 < np.pi / 2.0)
            & (np.pi / 2.0 < thetas + d_theta / 2.0)] = 1.0
    cell_bound = 0.5 * np.hypot(d_theta, sin_max * d_phi)
    cols = np.ascontiguousarray(points.T)

    def finish(flat, start):
        """Largest exact distance + cell bound over these probes, given by
        their flat index in the block of rows from ``start``."""
        i, j = np.divmod(flat, n_phi)
        i += start
        probes = np.column_stack([sin_t[i] * cos_p[j], sin_t[i] * sin_p[j],
                                  cos_t[i]])
        dists = np.sqrt(_nearest(probes, points, np.min))
        return float((dists + cell_bound[i]).max())

    rows = max(1, DISTANCE_BLOCK // n_phi)
    certified = 0.0
    for start in range(0, n_theta, rows):
        r = slice(start, start + rows)
        bound = _lattice_seeds(cols, sin_t[r], cos_t[r], cos_p, sin_p, phis)
        bound += cell_bound[r, None]
        top = int(bound.argmax())
        if bound.flat[top] <= certified:
            continue
        certified = max(certified, finish(np.array([top]), start))
        rest = np.flatnonzero(bound > certified)
        if rest.size:
            certified = max(certified, finish(rest, start))
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
        if not np.all(np.abs(norms - 1.0) <= 1e-10):     # NaN fails too
            raise ValueError("cover points must be unit vectors")
        points = points.copy()
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def nearest(self, c: np.ndarray) -> int:
        """Index of the closest cover point; ties go to the smallest index."""
        probe = np.asarray(c, dtype=np.float64).reshape(1, 3)
        return int(_nearest(probe, self.points, np.argmin)[0])


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
    return SphereCover(points, audit_cover(points, OCTAHEDRON_PROBES))


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
    nearest = _nearest(points.reshape(-1, 3), cover.points, np.argmin)
    return nearest.reshape(points.shape[:-1])


def reduce_measurement(u: np.ndarray, v: np.ndarray,
                       cover: SphereCover) -> tuple[int, int]:
    """Nearest cover indices for the Bloch points of U^-1|1> and V^-1|1>."""
    i, j = _snap(np.array([u, v], dtype=np.complex128), cover).tolist()
    return i, j


def verify_reduction(cover: SphereCover, trials: int,
                     seed: int = 0) -> tuple[float, float]:
    """Largest and mean exact TV error of the 1-query nearest-point
    reduction over ``trials`` Haar pairs (U, V), a Monte-Carlo estimate
    bounded by the covering radius.

    One generator seeded with ``SeedSequence([seed])`` draws every trial:
    trial t is the t-th pair of ``quantum.random_unitary`` calls on it.  So
    the first n trials are the same for every ``trials`` >= n.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    # per trial, U's real and imaginary parts, then V's
    draws = rng.normal(size=(trials, 4, 2, 2))
    uv = _haar(draws[:, 0::2] + 1j * draws[:, 1::2])    # [trial, (U, V), 2, 2]
    exact = measurement_probs(uv[:, 0], uv[:, 1], SINGLET)
    # one row of discretized_box per trial, not the whole T x T table; the
    # stacked (1 x 3) @ (3 x 1) product rounds as its P @ P.T entry, where
    # einsum and (P[i] * P[j]).sum(1) would not
    i, j = _snap(uv, cover).T
    points = cover.points
    approx = _singlet_rows((points[i, None, :] @ points[j, :, None])[:, 0, 0])
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
    """Cover from ``cover_to_json`` text, with its radius audited again.

    The points are audited at the probe count of ``build_cover``, then of
    ``octahedron_cover``; the cover carries the first audit that is at most
    the file's ``covering_radius``, so the files of both load with the same
    radius.  A file whose radius is below both audits is refused.
    """
    payload = json.loads(text)
    claimed = SphereCover(np.asarray(payload["points"], dtype=np.float64),
                          float(payload["covering_radius"]))
    audits = []
    for probes in (AUDIT_PROBES_PER_POINT * claimed.size, OCTAHEDRON_PROBES):
        audits.append(audit_cover(claimed.points, probes))
        if audits[-1] <= claimed.covering_radius:
            return SphereCover(claimed.points, audits[-1])
    raise ValueError("covering_radius %r is below the audited radius %r"
                     % (claimed.covering_radius, min(audits)))
