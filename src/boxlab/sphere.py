"""Verified sphere covers and the discretized singlet-measurement box.

Covers are built from a Fibonacci spiral lattice and then *audited*: a
deterministic latitude/longitude probe grid is checked against the cover,
and each probe's nearest-cover distance plus an analytic bound on its grid
cell's half-diagonal gives a sound upper bound on the true covering radius.

The audit, ``audit_cover``, is an exact nearest-point search in numpy that
runs coarse to fine on any point set.  Seeds prune it: the distance to the
best of a few real points of the set bounds a nearest distance from above,
and the inverse spherical Fibonacci mapping (Keinert, Innmann, Saenger and
Stamminger, ACM TOG 34(6), 2015) makes those points the nearest ones on a
Fibonacci lattice.  Distances are sqrt((p - q)**2 summed over x, y, z in
turn), the float formula of a cKDTree query, so the certified radius equals
a k-d tree audit's to the bit, whatever the order of the points.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import boxes
from .boxes import (CorrelationBox, check_distributions, check_numbers,
                    frozen, read_only, tv_distance)
from .quantum import (BellBoxSpec, _haar, _require_unit_vectors,
                      _require_unitary, point_for_unitary, singlet_measure_box,
                      unitary_for_point)

# empirical certified-radius constant of the audited Fibonacci lattice,
# certified_radius ~= RADIUS_FIT / sqrt(T); retuned if the audit ever fails
RADIUS_FIT = 2.95
AUDIT_PROBES_PER_POINT = 100
AUDIT_RETRIES = 3
OCTAHEDRON_PROBES = 20000
# entries of one temporary array in the distance kernels, far below
# boxes.PATH_TABLE_CAP: blocks this small stay in cache, which made the
# T = 3,481 audit twice as fast as one PATH_TABLE_CAP block and its peak 9x
# smaller
DISTANCE_BLOCK = 2 ** 15
# margin of a coarse audit bound for the float error of the triangle
# inequality it rests on: a few units in the last place of distances of at
# most 2, so it does not change which probes are finished in practice
ROUNDING = 64 * np.finfo(np.float64).eps
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
# sets of at most this many points seed from every point, exactly, for the
# octahedron, which is not a lattice: with lattice seeds its 20,000-probe
# audit took 7.0-12.6 ms a call, with exact seeds 0.78-1.2 ms, for the same
# radius (7 x 20 calls, 2-core host); on lattices the two are within noise
EXACT_SEED_POINTS = 6


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
    out = []
    for rows in boxes.blocks(len(probes), len(points), DISTANCE_BLOCK):
        block = probes[rows, None, :]
        d2 = np.square(block[..., 0] - points[:, 0])
        d2 += np.square(block[..., 1] - points[:, 1])
        d2 += np.square(block[..., 2] - points[:, 2])
        out.append(reduce(d2, axis=1))
    return np.concatenate(out)


def _lattice_rows(n: int, cos_t: np.ndarray) -> np.ndarray:
    """The terms of the inverse spherical Fibonacci mapping that are the same
    along a row of probes at polar cosine ``cos_t``, one column per row.

    Read as the lattice of ``fibonacci_points(n)``, point i sits at
    (2 pi i / GOLDEN, z_0 - 2i/n) in the (azimuth, z) plane after a turn by
    pi / GOLDEN, and index steps of the Fibonacci numbers F_k and F_(k+1)
    span that lattice with short vectors in the latitude zone k of Keinert et
    al.  The rows are F_k and F_(k+1), each step's azimuth (taken to the
    representative nearest 0) and z, the determinant of the two steps, and
    the row's z offset from point 0.
    """
    k = np.maximum(2.0, np.floor(
        np.log(n * np.pi * np.sqrt(5.0) * (1.0 - cos_t * cos_t))
        / np.log(GOLDEN * GOLDEN)))
    f = np.round(GOLDEN ** np.stack([k, k + 1.0]) / np.sqrt(5.0))
    step_phi = 2.0 * np.pi * (f / GOLDEN - np.round(f / GOLDEN))
    step_z = -2.0 * f / n
    det = step_phi[0] * step_z[1] - step_phi[1] * step_z[0]
    return np.stack([f[0], f[1], step_phi[0], step_phi[1], step_z[0],
                     step_z[1], det, cos_t - (1.0 - 1.0 / n)])


def _seeds(cols: np.ndarray, rows: np.ndarray, sin_t: np.ndarray,
           cos_t: np.ndarray, phi: np.ndarray, cos_p: np.ndarray,
           sin_p: np.ndarray) -> np.ndarray:
    """Distance from each probe to the best of its candidate points: every
    point of a set of at most EXACT_SEED_POINTS, else 4 points whose indices
    the inverse spherical Fibonacci mapping picks.

    ``cols`` holds the points' x, y and z as contiguous rows.  ``rows`` holds
    the ``_lattice_rows`` terms of each probe's row; with ``sin_t`` and
    ``cos_t`` it broadcasts against the probe's azimuth ``phi`` and its
    cosine and sine.  The probe's offset from point 0, solved in the
    (F_k, F_(k+1)) basis, names a cell of the lattice whose 4 corners are
    the candidates.
    """
    px = sin_t * cos_p
    py = sin_t * sin_p
    if cols.shape[1] <= EXACT_SEED_POINTS:
        candidates = range(cols.shape[1])
    else:
        f0, f1, phi0, phi1, z0, z1, det, w = rows
        u = phi - np.pi / GOLDEN
        base = (f0 * np.floor((z1 * u - phi1 * w) / det)
                + f1 * np.floor((phi0 * w - z0 * u) / det))
        candidates = ((base + step).astype(np.intp)
                      for step in (0.0, f0, f1, f0 + f1))
    best = None
    for i in candidates:
        # indices past either end take the end point, a real point as well
        d2 = np.square(px - cols[0].take(i, mode="clip"))
        d2 += np.square(py - cols[1].take(i, mode="clip"))
        d2 += np.square(cos_t - cols[2].take(i, mode="clip"))
        best = d2 if best is None else np.minimum(best, d2, out=best)
    return np.sqrt(best)


def _largest_first(bound: np.ndarray, certified: float, refine) -> float:
    """Largest-first search of one audit level: ``refine(indices, value)``
    settles the entries of ``bound`` at those flat indices and returns the
    largest value so far; a bound at most that value is skipped."""
    top = int(bound.argmax())
    if bound.flat[top] <= certified:
        return certified
    certified = refine(np.array([top]), certified)
    rest = np.flatnonzero(bound > certified)
    return refine(rest, certified) if rest.size else certified


def audit_cover(points: np.ndarray, n_probes: int) -> float:
    """Sound upper bound on the covering radius of a point set.

    Probes form a theta/phi grid of about ``n_probes`` cell centers.  Any
    sphere point s lies in some cell, so d(s, cover) <= d(probe, cover) +
    d(s, probe), and d(s, probe) is at most the cell's half-diagonal chord,
    bounded through the geodesic metric ds^2 = dtheta^2 + sin^2(theta) dphi^2.
    The result is the largest d(probe, cover) + cell bound, the probe's
    value.

    The points are read in order of descending z, the index order of
    ``fibonacci_points(T)``, and the search runs coarse to fine over blocks
    of grid rows, each of at most DISTANCE_BLOCK probes.  Coarse: the center
    c of each 2 x 2 block of cells gets a seed, its distance to the best of
    its candidate points (``_seeds``) and so at least d(c, cover).  c is a
    corner of each of the block's cells, so d(c, probe) is at most the
    probe's cell bound; d(., cover) is 1-Lipschitz, so the seed plus twice
    the larger cell bound of the block's rows, plus ``ROUNDING``, bounds
    the values of its 4 probes.  A 2 x 2 block whose bound is at most the
    largest value found so far cannot raise it; each block of rows resolves
    its 2 x 2 block of largest bound first, then the others above the value
    found.  Fine: their probes get their own seeds, and a probe whose seed
    plus cell bound is at most the largest value so far drops out, the
    largest first.  Finish: the probes left get their exact distance by
    brute force over all points: one to three probes on the cover ladder,
    two on the octahedron, more where seeds are loose (a rotated lattice,
    scattered points).  The result is the largest value over all probes,
    so it does not depend on the order of the points.
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

    def finish(i, j):
        """Largest exact distance + cell bound over the probes [i, j]."""
        probes = np.column_stack([sin_t[i] * cos_p[j], sin_t[i] * sin_p[j],
                                  cos_t[i]])
        dists = np.sqrt(_nearest(probes, points, np.min))
        return float((dists + cell_bound[i]).max())

    cols = np.ascontiguousarray(points.T)
    # 2 x 2 block [a, b] holds grid rows 2a and 2a + 1 (only 2a at an odd
    # last row) and grid columns 2b and 2b + 1; its center is a corner of
    # each of its cells, so within a cell bound of each of its probes
    lo = np.arange(0, n_theta, 2)
    hi = np.minimum(lo + 1, n_theta - 1)
    theta_c = 0.5 * (thetas[lo] + thetas[hi])
    phi_c = np.arange(1, n_phi, 2) * d_phi
    sin_c, cos_c = np.sin(theta_c), np.cos(theta_c)
    cos_pc, sin_pc = np.cos(phi_c), np.sin(phi_c)
    fine, coarse = np.split(_lattice_rows(len(points), np.concatenate(
        [cos_t, cos_c])), [n_theta], axis=1)
    extra = 2.0 * np.maximum(cell_bound[lo], cell_bound[hi]) + ROUNDING
    corner_i, corner_j = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])

    def resolve(a, b, certified):
        """The largest value so far once the probes of the 2 x 2 blocks
        [a, b] are seeded, pruned (largest bound first) and finished."""
        i = (2 * a[:, None] + corner_i).ravel()
        j = (2 * b[:, None] + corner_j).ravel()
        keep = i < n_theta
        i, j = i[keep], j[keep]
        bound = _seeds(cols, fine[:, i], sin_t[i], cos_t[i], phis[j],
                       cos_p[j], sin_p[j])
        bound += cell_bound[i]
        return _largest_first(bound, certified,
                              lambda k, value: max(value, finish(i[k], j[k])))

    n_b = len(phi_c)
    certified = 0.0
    for r in boxes.blocks(len(theta_c), 4 * n_b, DISTANCE_BLOCK):
        bound = _seeds(cols, coarse[:, r, None], sin_c[r, None],
                       cos_c[r, None], phi_c, cos_pc, sin_pc)
        bound += extra[r, None]
        certified = _largest_first(bound, certified, lambda k, value: resolve(
            r.start + k // n_b, k % n_b, value))
    return certified


@dataclass(frozen=True, eq=False)
class SphereCover:
    """T unit vectors with an audited, finite covering radius."""

    points: np.ndarray      # shape (T, 3)
    covering_radius: float

    def __post_init__(self):
        points = read_only(self.points, np.float64)
        if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 4:
            raise ValueError("cover needs at least 4 points in R^3")
        object.__setattr__(self, "points", _require_unit_vectors(points))
        if not np.isfinite(self.covering_radius):
            raise ValueError("covering_radius %r is not finite"
                             % self.covering_radius)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def build_cover(epsilon: float) -> SphereCover:
    """Audited cover with covering_radius <= epsilon and T <= 10 / epsilon^2.

    A first or retried cover of more than PATH_TABLE_CAP coordinates (3T) is
    refused before it is built; the first from epsilon alone, as its T
    overflows a float for tiny epsilon."""
    too_large = "a cover of more than %d coordinates" % boxes.PATH_TABLE_CAP
    smallest = RADIUS_FIT * np.sqrt(3.0 / boxes.PATH_TABLE_CAP)  # about 0.0025
    if not smallest <= epsilon <= 2.0:
        raise ValueError("epsilon must lie in [%.4g, 2]; a smaller one asks "
                         "for %s" % (smallest, too_large))
    t = max(4, int(np.ceil((RADIUS_FIT / epsilon) ** 2)))
    for _ in range(AUDIT_RETRIES + 1):
        if 3 * t > boxes.PATH_TABLE_CAP:
            raise ValueError("epsilon %g asks for %s" % (epsilon, too_large))
        points = fibonacci_points(t)
        certified = audit_cover(points, AUDIT_PROBES_PER_POINT * t)
        if certified <= epsilon:
            return SphereCover(frozen(points), certified)
        t = int(np.ceil(t * 1.3))
    raise ValueError("audit failed to certify radius %g after retries" % epsilon)


def octahedron_cover() -> SphereCover:
    """The six octahedron vertices, with an audited radius."""
    points = np.vstack([np.eye(3), -np.eye(3)])
    return SphereCover(frozen(points), audit_cover(points, OCTAHEDRON_PROBES))


def _singlet_rows(dots: np.ndarray) -> np.ndarray:
    """Pr[a, b] of the singlet measured along directions with these dot
    products, indexed [..., a, b]."""
    rows = np.empty(np.shape(dots) + (2, 2))
    quarter = 0.25 * dots
    rows[..., 0, 0] = rows[..., 1, 1] = 0.25 - quarter
    rows[..., 0, 1] = rows[..., 1, 0] = 0.25 + quarter
    return rows


def _paired_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_singlet_rows`` of the dots of the rows a[n] and b[n], [n, 3] each,
    as stacked (1 x 3) @ (3 x 1) products: they round as np.dot and a P @ P.T
    entry do, where einsum and (a * b).sum(1) would not."""
    return _singlet_rows((a[:, None, :] @ b[:, :, None])[:, 0, 0])


def discretized_box(cover: SphereCover) -> CorrelationBox:
    """Box on [T] x [T] with Pr[a = b | i, j] = 1/2 - (c_i . c_j) / 2."""
    return CorrelationBox(frozen(_singlet_rows(cover.points @ cover.points.T)))


def cover_bell_spec(cover: SphereCover):
    """BELL spec reproducing discretized_box by measuring the singlet."""
    us = unitary_for_point(cover.points)
    # one array, taken over by both parties
    return BellBoxSpec(frozen(us), us)


def _snap(unitaries: np.ndarray, cover: SphereCover) -> np.ndarray:
    """Nearest cover index of the Bloch point of U^-1|1>, U over [..., 2, 2]."""
    points = point_for_unitary(unitaries)
    nearest = _nearest(points.reshape(-1, 3), cover.points, np.argmin)
    return nearest.reshape(points.shape[:-1])


def reduce_measurement(u: np.ndarray, v: np.ndarray,
                       cover: SphereCover) -> tuple[int, int]:
    """Nearest cover indices for the Bloch points of U^-1|1> and V^-1|1>."""
    return tuple(_snap(_require_unitary([u, v]), cover).tolist())


def _reduction_tvs(cover: SphereCover, rng: np.random.Generator,
                   trials: int) -> np.ndarray:
    """Exact TV error of the nearest-point reduction on the next ``trials``
    Haar pairs (U, V) that ``rng`` draws."""
    uv = _haar(rng, (trials, 2))
    exact = singlet_measure_box(uv[:, 0], uv[:, 1])
    # one row of discretized_box per trial, not the whole T x T table
    approx = _paired_rows(*cover.points[_snap(uv, cover).T])
    check_distributions(exact)
    check_distributions(approx)
    return tv_distance(exact, approx)


def verify_reduction(cover: SphereCover, trials: int,
                     seed: int) -> tuple[float, float]:
    """Largest and mean exact TV error of the 1-query nearest-point
    reduction over ``trials`` Haar pairs (U, V), a Monte-Carlo estimate
    bounded by the covering radius.

    One generator seeded with ``SeedSequence([seed])`` draws every trial:
    trial t is the t-th pair of ``quantum.random_unitary`` calls on it.  So
    the first n trials are the same for every ``trials`` >= n.  Trials go
    in blocks of PATH_TABLE_CAP // 128: a trial's arrays peak at about 706
    bytes, under 128 float64 entries, while its Haar pair is drawn; with
    the pair held, measuring it peaks at about 416 (the unitarity test's
    products, two complex 2 x 2 terms, the probabilities) and snapping it
    at about 320.  So one block's arrays stay within PATH_TABLE_CAP
    entries and memory does not grow past one block.  The
    mean is the sum of the blocks' sums over ``trials``, which is
    ``tvs.mean()`` in one block.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    worst, total = 0.0, 0.0
    for block in boxes.blocks(trials, 128):
        tvs = _reduction_tvs(cover, rng, block.stop - block.start)
        worst = max(worst, float(tvs.max()))
        total += tvs.sum()
    return worst, float(total / trials)


def cover_to_payload(cover: SphereCover) -> dict:
    return {
        "points": cover.points.tolist(),
        "covering_radius": cover.covering_radius,
    }


def cover_from_payload(payload: dict) -> SphereCover:
    """Cover from a ``cover_to_payload`` dict, with its radius audited again.

    The points are audited at the probe count of ``build_cover``, then of
    ``octahedron_cover``; the cover carries the first audit that is at most
    the file's ``covering_radius``, so the files of both load with the same
    radius.  A file whose radius is below both audits is refused.
    """
    points = np.array(payload["points"], dtype=object)
    radius = payload["covering_radius"]
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must be rows of 3 coordinates")
    check_numbers([radius, *points.ravel()], "cover entry", numbers.Real)
    claimed = SphereCover(frozen(points.astype(np.float64)), float(radius))
    audits = []
    for probes in (AUDIT_PROBES_PER_POINT * claimed.size, OCTAHEDRON_PROBES):
        audits.append(audit_cover(claimed.points, probes))
        if audits[-1] <= claimed.covering_radius:
            return SphereCover(claimed.points, audits[-1])
    raise ValueError("covering_radius %r is below the audited radius %r"
                     % (claimed.covering_radius, min(audits)))

