"""Analytic machinery: line-vs-omega geometry, measure bounds, gap certificates,
and the epsilon_k budget schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import PATH_TABLE_CAP
from .games import omega, omega_prime
from .protocols import (AffineFunction, Alphabets, check_bound_digits,
                        counting_bound)

ROOT_TOL = 1e-10
HALF_INTERVAL = 0.5  # |[1/2, 1]|


def omega_second_derivative(x: float) -> float:
    """omega''(x) = (x^2 + (1-x)^2)^(-3/2) / 2; at least 1/2 on [1/2, 1]."""
    return 0.5 * (x * x + (1.0 - x) ** 2) ** -1.5


def tangent_line(p0: float) -> AffineFunction:
    """Tangent to omega at p0."""
    slope = omega_prime(p0)
    return AffineFunction(omega(p0) - slope * p0, slope)


def _tangency(m):
    """The p in [1/2, 1] where omega'(p) = m, for slopes m in [0, 1/2].

    omega'(p) = s / sqrt(2 (1 + s^2)) with s = 2p - 1, solved for s >= 0.
    """
    return 0.5 + 0.5 * m * np.sqrt(2.0 / (1.0 - 2.0 * m * m))


def best_affine_fit() -> AffineFunction:
    """Chebyshev best uniform affine approximation of omega on [1/2, 1].

    Equioscillation: slope equals the secant slope, the line sits halfway
    between the secant and the parallel tangent.
    """
    a, b = 0.5, 1.0
    m = (omega(b) - omega(a)) / (b - a)
    t = _tangency(m)
    c = 0.5 * ((omega(a) - m * a) + (omega(t) - m * t))
    return AffineFunction(c, m)


def _omega_quadratic(c: float, m: float):
    """(A, B, C) with A p^2 + B p + C = p^2 + (1-p)^2 - r(p)^2 and
    r(p) = 2*(c + m*p) - 1: c + m*p = omega(p) where r(p) >= 0 and the
    quadratic is zero."""
    r0 = 2.0 * c - 1.0
    return 2.0 - 4.0 * m * m, -2.0 - 4.0 * m * r0, 1.0 - r0 * r0


def _omega_roots(c, m):
    """Roots in [1/2, 1] of c + m*p = omega(p), for floats or equal-length
    arrays of intercepts c and slopes m: (smaller, larger), NaN where a line
    has fewer than two; a line with one root has it first.

    The candidates are the stable roots q/A and C/q of ``_omega_quadratic``,
    or, where the discriminant is at or below zero, the vertex twice: a
    tangency.  Back-substitution (c + m*p >= 1/2, so r(p) >= 0) discards
    the spurious ones.  A simple root inside [1/2, 1] is kept as it is; a
    tangency, or a root that rounding puts just outside, is kept at the
    nearest point of [1/2, 1] only when the line is within ROOT_TOL of
    omega there.  Where |c| or |m| passes about 1e154 the coefficients
    overflow and their roots fail these tests.
    """
    with np.errstate(all="ignore"):
        A, B, C = _omega_quadratic(c, m)
        disc = B * B - 4.0 * A * C
        simple = disc > 0.0
        q = -0.5 * (B + np.copysign(np.sqrt(np.maximum(disc, 0.0)), B))
        first = q / A                   # the vertex where disc <= 0
        kept = []
        for p in (first, np.where(simple, C / q, first)):
            near = np.minimum(np.maximum(p, 0.5), 1.0)
            line = c + m * near
            keep = (line >= 0.5) & ((simple & (p == near))
                                    | (abs(line - omega(near)) <= ROOT_TOL))
            kept.append(np.where(keep, near, np.nan))
        return np.fmin(*kept), np.maximum(*kept)


def line_intersections(ell: AffineFunction) -> list[float]:
    """Roots of ell(p) = omega(p) in [1/2, 1], ascending; a tangency appears
    twice.  ``_omega_roots`` says how tangencies and the ends are decided."""
    return [float(p) for p in _omega_roots(ell.intercept, ell.slope)
            if not np.isnan(p)]


def _level_set_length(c: float, m: float, level: float) -> float:
    """Length of {p in [1/2, 1]: c + m*p - omega(p) >= level}.

    The set is an interval, g = ell - omega being concave.  Its ends are
    among 1/2, 1, the root of r and the roots of the line shifted by
    -level; between neighbouring cuts membership does not change and is
    read at the midpoint.  Where |c| or |m| passes about 1e154 the roots
    overflow; then the line misses omega, or the ends lie within 1/|m| of
    the root of r.
    """
    shifted = c - level
    cuts = [0.5, 1.0, *map(float, _omega_roots(shifted, m))]
    if m != 0.0:
        cuts.append((0.5 - shifted) / m)            # r = 0
    cuts = sorted(p for p in cuts if 0.5 <= p <= 1.0)
    length = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        if c + m * mid - omega(mid) >= level:
            length += b - a
    return length


def measure_near(ell: AffineFunction, epsilon: float) -> float:
    """Relative measure of {p in [1/2, 1]: |ell(p) - omega(p)| <= epsilon}.

    g(p) = ell(p) - omega(p) is concave, so {g >= -eps} and {g >= +eps} are
    intervals; the answer is the length difference, normalized by 1/2.
    Closed form, exact up to rounding: the interval ends are roots of the
    line shifted by +eps and by -eps, no search.
    """
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be finite and positive")
    c, m, epsilon = float(ell.intercept), float(ell.slope), float(epsilon)
    outer = _level_set_length(c, m, -epsilon)
    inner = _level_set_length(c, m, epsilon)
    return max(outer - inner, 0.0) / HALF_INTERVAL


@dataclass(frozen=True)
class GapCertificate:
    """Finite witness that no line of a family meets omega at p_star.

    ``resolution`` is the number of candidate points p at which
    ``find_hard_p`` evaluated the family: |family| x resolution is the
    size of the array that search evaluates, which the benchmark's
    ``analysis.find_hard_p.matrix_mb`` gauge reports.
    """

    description: str
    k: int
    family: tuple          # AffineFunction entries
    p_star: float
    gap: float
    resolution: int

    def recompute_gap(self) -> float:
        intercepts = np.array([ell.intercept for ell in self.family])
        slopes = np.array([ell.slope for ell in self.family])
        return float(_min_distance(intercepts, slopes,
                                   np.array([self.p_star]))[0])

    def verify(self, tol: float = 1e-12) -> bool:
        return abs(self.recompute_gap() - self.gap) <= tol


def _min_distance(intercepts: np.ndarray, slopes: np.ndarray,
                  ps: np.ndarray) -> np.ndarray:
    """min over lines of |ell(p) - omega(p)| at each p, in blocks of lines
    of at most PATH_TABLE_CAP entries."""
    rows = max(1, PATH_TABLE_CAP // len(ps))
    target = omega(ps)[:, None]
    best = np.full(len(ps), np.inf)
    for start in range(0, len(intercepts), rows):
        # one row a point, so each minimum runs along contiguous memory
        vals = ps[:, None] * slopes[start:start + rows] \
            + intercepts[start:start + rows]
        vals -= target
        np.minimum(best, np.abs(vals, out=vals).min(axis=1), out=best)
    return best


def _envelope_breaks(c: np.ndarray, m: np.ndarray,
                     lo: float, hi: float) -> tuple[list, list]:
    """Upper envelope on [lo, hi] of lines sorted by slope, then intercept:
    its breakpoints in [lo, hi), ascending, and the index of the line on
    top from lo and from each breakpoint on.

    Starts at the line highest at lo and moves to the nearest crossing with
    a steeper line until that crossing is past hi.  A line left behind is
    flatter than the current one, so it never returns.
    """
    at_lo = c + m * lo
    i = len(c) - 1 - int(np.argmax(at_lo[::-1]))   # ties: the steepest
    p, breaks, top = lo, [], [i]
    while True:
        steeper = int(np.searchsorted(m, m[i], side="right"))
        if steeper == len(m):
            return breaks, top
        cross = np.maximum((c[i] - c[steeper:]) / (m[steeper:] - m[i]), p)
        j = len(cross) - 1 - int(np.argmin(cross[::-1]))
        if cross[j] >= hi:
            return breaks, top
        p, i = float(cross[j]), steeper + j
        breaks.append(p)
        top.append(i)


def _piece_candidates(intercepts: np.ndarray, slopes: np.ndarray,
                      lo: float, hi: float) -> np.ndarray:
    """The points of [lo, hi] where g can peak, on a piece where every line
    lies wholly above or wholly below omega; the lines sorted by slope,
    then intercept.

    There g = min(omega - U, L - omega), with U the upper envelope of the
    lines below and L the lower envelope of those above.  Between the
    breakpoints of U and L the active lines a (of U) and b (of L) are
    fixed; omega - a is convex and b - omega concave, so min(...) peaks at
    an end, at the tangency point of b, or where the two are equal, at a
    root of the mean line (a + b)/2.
    """
    at = 0.5 * (lo + hi)
    above = intercepts + slopes * at > omega(at)
    if not above.any():
        return np.array([lo, *_envelope_breaks(intercepts, slopes, lo, hi)[0],
                         hi])
    below = ~above
    cu, mu = intercepts[below], slopes[below]
    upper = _envelope_breaks(cu, mu, lo, hi) if below.any() else ([], [])
    # L is minus the upper envelope of the negated lines, in reverse order
    cl, ml = -intercepts[above][::-1], -slopes[above][::-1]
    lower = _envelope_breaks(cl, ml, lo, hi)
    ends = np.array(sorted({lo, *upper[0], *lower[0], hi}))
    start, stop = ends[:-1], ends[1:]
    mid = 0.5 * (start + stop)
    b = np.asarray(lower[1])[np.searchsorted(lower[0], mid, side="right")]
    cb, mb = -cl[b], -ml[b]
    points = [ends, np.clip(_tangency(np.clip(mb, 0.0, 0.5)), start, stop)]
    if below.any():
        a = np.asarray(upper[1])[np.searchsorted(upper[0], mid, side="right")]
        roots = _omega_roots(0.5 * (cu[a] + cb), 0.5 * (mu[a] + mb))
        points.append(np.clip(roots, start, stop).ravel())
    # sorted, distinct, no NaN (p != p); np.unique imports numpy.ma, 1 MB
    return np.array(sorted({p for p in np.concatenate(points).tolist()
                            if p == p}))


def find_hard_p(family, *, description: str = "",
                k: int = 0) -> GapCertificate:
    """Maximize g(p) = min_ell |ell(p) - omega(p)| over [1/2, 1], exactly.

    Cuts [1/2, 1] wherever a line crosses omega, a tangency being no
    crossing; on each piece every line lies wholly above or below omega,
    and ``_piece_candidates`` lists the few points where g can peak there.
    g is evaluated at the candidates in blocks of lines of at most
    PATH_TABLE_CAP entries, and the first maximum in ascending p wins, so
    ties go to the smallest p.  For a family at or below omega, as for
    every quantum target, there is one piece and the candidates are 1/2,
    1 and the breakpoints of the lines' upper envelope.
    """
    family = tuple(family)
    if not family:
        raise ValueError("empty affine family")
    intercepts = np.array([ell.intercept for ell in family])
    slopes = np.array([ell.slope for ell in family])
    order = np.lexsort((intercepts, slopes))       # by slope, then intercept
    intercepts, slopes = intercepts[order], slopes[order]
    first, second = _omega_roots(intercepts, slopes)
    crossing = first != second     # a tangency leaves its line on one side
    roots = np.append(first[crossing], second[crossing])
    cuts = sorted({0.5, 1.0, *roots[~np.isnan(roots)].tolist()})
    # ascending: each piece's candidates are, and the pieces are
    ps = np.concatenate([_piece_candidates(intercepts, slopes, lo, hi)
                         for lo, hi in zip(cuts[:-1], cuts[1:])])
    dist = _min_distance(intercepts, slopes, ps)
    best = int(np.argmax(dist))
    return GapCertificate(description, k, family, float(ps[best]),
                          float(dist[best]), len(ps))


def certificate_to_payload(cert: GapCertificate, version: str = "") -> dict:
    return {
        "description": cert.description,
        "k": cert.k,
        "family": [[ell.intercept, ell.slope] for ell in cert.family],
        "p_star": cert.p_star,
        "gap": cert.gap,
        "resolution": cert.resolution,
        "version": version,
    }


def certificate_to_json(cert: GapCertificate, version: str = "") -> str:
    return json.dumps(certificate_to_payload(cert, version))


def certificate_from_json(text: str) -> GapCertificate:
    payload = json.loads(text)
    family = tuple(AffineFunction(c, m) for c, m in payload["family"])
    return GapCertificate(payload["description"], int(payload["k"]), family,
                          float(payload["p_star"]), float(payload["gap"]),
                          int(payload["resolution"]))


@dataclass(frozen=True)
class EpsilonSchedule:
    """epsilon_k = (c / (k^2 * bound_k))^2 with the doubly exponential
    protocol-count bound; satisfies k^4 * bound_k^2 * epsilon_k = c^2 exactly
    in rational arithmetic."""

    c: Fraction
    bounds: tuple          # ints, k = 1..k_max
    eps_exact: tuple       # Fractions
    eps: tuple             # floats (may underflow to 0 for large k)

    def verify_identity(self) -> bool:
        return all((k + 1) ** 4 * b * b * e == self.c * self.c
                   for k, (b, e) in enumerate(zip(self.bounds, self.eps_exact)))


def epsilon_schedule(x_size: int, y_size: int, a_size: int, b_size: int,
                     k_max: int, c: float) -> EpsilonSchedule:
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if not (np.isfinite(c) and c > 0.0):
        raise ValueError("c must be finite and positive")
    # the bounds are counting_bound's; the k_max one has the most digits
    al = Alphabets(2, 2, 2, 2, x_size, y_size, a_size, b_size)
    check_bound_digits(al, k_max)
    c_exact = Fraction(c)
    bounds = []
    eps_exact = []
    for k in range(1, k_max + 1):
        bound = counting_bound(al, k)
        bounds.append(bound)
        eps_exact.append((c_exact / (k * k * bound)) ** 2)
    return EpsilonSchedule(c_exact, tuple(bounds), tuple(eps_exact),
                           tuple(float(e) for e in eps_exact))
