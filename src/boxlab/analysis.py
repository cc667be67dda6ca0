"""Analytic machinery: line-vs-omega geometry, measure bounds, gap certificates,
and the epsilon_k budget schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__, boxes
from .games import omega, omega_prime
from .protocols import AffineFunction, Alphabets, LineFamily, counting_bound

ROOT_TOL = 1e-10
# 0, 1/2 and 1 as 0-d arrays, which numpy combines with the few-element
# arrays of a one-line call faster than Python floats; 1/2 is |[1/2, 1]|
_ZERO, _HALF, _ONE = np.array(0.0), np.array(0.5), np.array(1.0)


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


@np.errstate(all="ignore")
def _omega_roots(c, m) -> np.ndarray:
    """Both roots in [1/2, 1] of c + m*p = omega(p), unordered, for floats
    or broadcastable arrays c and m: an array [root, ...], NaN where a line
    has fewer than two.

    With r(p) = 2*(c + m*p) - 1 the line meets omega where r(p) >= 0 and
    A p^2 + B p + C = p^2 + (1-p)^2 - r(p)^2 is zero: at the stable roots
    q/A and C/q, or, where the discriminant is at or below zero, at the
    vertex twice, a tangency.  Back-substitution (r(p) >= 0) discards the
    spurious ones.  A simple root inside [1/2, 1] is kept as it is; a
    tangency, or a root rounded just outside, is kept at the nearest point
    of [1/2, 1] only when the line is within ROOT_TOL of omega there.  Past
    |c| or |m| of about 1e154 the coefficients overflow and their roots
    fail these tests.
    """
    r0, m4 = 2.0 * c - _ONE, 4.0 * m
    A, B, C = 2.0 - m4 * m, -2.0 - m4 * r0, _ONE - r0 * r0
    disc = B * B - 4.0 * A * C
    simple = disc > _ZERO
    q = -0.5 * (B + np.copysign(np.sqrt(np.maximum(disc, _ZERO)), B))
    first = q / A                       # the vertex where disc <= 0
    # both roots in one array, so each test below is one call
    p = np.array((first, np.where(simple, C / q, first)))
    near = np.minimum(np.maximum(p, _HALF), _ONE)
    line = c + m * near
    keep = (line >= _HALF) & ((simple & (p == near))
                            | (abs(line - omega(near)) <= ROOT_TOL))
    return np.where(keep, near, np.nan)


def line_intersections(family: LineFamily) -> np.ndarray:
    """Roots of ell(p) = omega(p) in [1/2, 1] of each line ell of a
    ``LineFamily``, as a float64 array [line, 2]: each row ascending, NaN
    after its roots, a tangency twice.  ``_omega_roots`` says how tangencies
    and the ends are decided."""
    return np.sort(_omega_roots(family.intercepts, family.slopes).T, axis=1)


@np.errstate(all="ignore")
def measure_near(family: LineFamily, epsilon: float) -> np.ndarray:
    """Relative measure of {p in [1/2, 1]: |ell(p) - omega(p)| <= epsilon}
    of each line ell of a ``LineFamily``, as a float64 array, in closed
    form, exact up to rounding.

    g = ell - omega is concave, so at each level -eps and +eps, {g >= level}
    is an interval with ends among 1/2, 1, the root of r and the roots of
    the line shifted by -level, found for both levels at once; a cut
    outside [1/2, 1], or none, moves to the nearer end.  Membership is read
    at the midpoint of each piece between cuts, and the answer is the
    difference of the two lengths over 1/2.  Where |c| or |m| passes about
    1e154 the roots overflow; then the line misses omega, or the ends lie
    within 1/|m| of the root of r.

    ell - omega is rounded to about 1e-16: near a tangency at p0, where the
    set is 2 sqrt(2 eps / omega''(p0)) wide, the result is within 1% of
    that for eps down to 1e-14, and from about 1e-16 down it can read 0 or
    many times the width.
    """
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be finite and positive")
    c, m = family.intercepts[:, None], family.slopes[:, None]   # [line, 1]
    levels = np.array((-epsilon, epsilon))
    shifted = c - levels                        # [line, level]
    cuts = np.empty((5,) + shifted.shape)       # [cut, line, level]
    cuts[0], cuts[1] = 0.5, 1.0
    cuts[2:4] = _omega_roots.__wrapped__(shifted, m)    # under this errstate
    np.divide(_HALF - shifted, m, cuts[4])                  # r = 0
    np.fmax(np.fmin(cuts, _ONE, cuts), _HALF, cuts)
    cuts.sort(axis=0)
    lo, hi = cuts[:-1], cuts[1:]
    mid = _HALF * (lo + hi)
    # the member pieces of each level in ascending order, added to 0.0
    lengths = np.add.reduce(hi - lo, where=c + m * mid - omega(mid) >= levels)
    return np.maximum(lengths[:, 0] - lengths[:, 1], _ZERO) / _HALF


@dataclass(frozen=True)
class GapCertificate:
    """Finite witness that no line of a family meets omega at p_star.

    ``family`` is the ``LineFamily`` searched, in the order it was given.
    ``resolution`` is the number of candidate points p at which
    ``find_hard_p`` evaluated the family, in blocks of lines of at most
    PATH_TABLE_CAP entries.
    """

    description: str
    k: int
    family: LineFamily
    p_star: float
    gap: float
    resolution: int

    def recompute_gap(self) -> float:
        return float(_min_distance(self.family.intercepts, self.family.slopes,
                                   np.array([self.p_star]))[0])

    def verify(self) -> bool:
        return abs(self.recompute_gap() - self.gap) <= 1e-12


def _min_distance(intercepts: np.ndarray, slopes: np.ndarray,
                  ps: np.ndarray) -> np.ndarray:
    """min over lines of |ell(p) - omega(p)| at each p, in blocks of lines
    of at most PATH_TABLE_CAP entries."""
    target = omega(ps)[:, None]
    best = np.full(len(ps), np.inf)
    for rows in boxes.blocks(len(intercepts), len(ps)):
        # one row a point, so each minimum runs along contiguous memory
        vals = ps[:, None] * slopes[rows] + intercepts[rows]
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
    # sorted, distinct, no NaN (p != p); the plain np.unique would import
    # numpy.ma (1 MB) through its hash path, which its index forms skip
    return np.array(sorted({p for p in np.concatenate(points).tolist()
                            if p == p}))


def find_hard_p(family: LineFamily, *, description: str = "",
                k: int) -> GapCertificate:
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
    if not len(family):
        raise ValueError("empty affine family")
    order = np.lexsort((family.intercepts, family.slopes))  # slope, intercept
    intercepts, slopes = family.intercepts[order], family.slopes[order]
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


def certificate_to_payload(cert: GapCertificate) -> dict:
    family = cert.family
    return {
        "description": cert.description,
        "k": cert.k,
        "family": np.column_stack((family.intercepts, family.slopes)).tolist(),
        "p_star": cert.p_star,
        "gap": cert.gap,
        "resolution": cert.resolution,
        "version": __version__,
    }


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
    # the k_max bound has the most digits, so it is the first built or refused
    al = Alphabets(2, 2, 2, 2, x_size, y_size, a_size, b_size)
    bounds = tuple([counting_bound(al, k) for k in range(k_max, 0, -1)][::-1])
    c_exact = Fraction(c)
    eps_exact = tuple((c_exact / (k * k * bound)) ** 2
                      for k, bound in enumerate(bounds, 1))
    try:
        eps = tuple(float(e) for e in eps_exact)
    except OverflowError:
        raise ValueError("c = %g gives an epsilon_k past the float range"
                         % c) from None
    return EpsilonSchedule(c_exact, bounds, eps_exact, eps)
