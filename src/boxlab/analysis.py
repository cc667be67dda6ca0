"""Analytic machinery: line-vs-omega geometry, measure bounds, gap certificates,
and the epsilon_k budget schedule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import PATH_TABLE_CAP
from .games import omega, omega_prime
from .protocols import (AffineFunction, Alphabets, check_bound_digits,
                        counting_bound)

ROOT_TOL = 1e-10
HALF_INTERVAL = 0.5  # |[1/2, 1]|
ABOVE_OMEGA_TOL = 1e-12     # lines this far above omega still take the envelope


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


def line_intersections(ell: AffineFunction) -> list[float]:
    """Roots of ell(p) = omega(p) in [1/2, 1]; a tangency appears twice.

    Reduces to the quadratic p^2 + (1-p)^2 = r(p)^2 with r(p) = 2*ell(p) - 1,
    discards spurious quadratic roots by back-substitution, and polishes
    simple roots by Newton steps on ell - omega.  A discriminant within
    rounding of zero is a tangency, a double root at the vertex, when ell is
    within ROOT_TOL of omega there; otherwise its roots are simple.  The
    back-substitution runs before the polish, which could move a spurious
    root onto the real one: at a real root r(p) >= 1/sqrt(2), at a spurious
    one r(p) <= -1/sqrt(2).
    """
    m, c = ell.slope, ell.intercept
    A, B, C = _omega_quadratic(c, m)
    scale = max(abs(A), abs(B), abs(C), 1.0)
    candidates: list[float] = []
    double_root = False
    if abs(A) <= 1e-14 * scale:
        if abs(B) > 1e-14 * scale:
            candidates = [-C / B]
    else:
        disc = B * B - 4.0 * A * C
        vertex = -B / (2.0 * A)
        # a near-zero disc is a tangency only if the line touches omega at
        # the vertex; a line above it there crosses twice close together
        if (abs(disc) <= 1e-9 * max(B * B, abs(4.0 * A * C), 1.0)
                and abs(ell(vertex) - omega(vertex)) <= ROOT_TOL):
            candidates = [vertex]
            double_root = True
        elif disc > 0.0:
            sq = np.sqrt(disc)
            candidates = [(-B - sq) / (2.0 * A), (-B + sq) / (2.0 * A)]

    roots: list[float] = []
    for p in candidates:
        if 2.0 * ell(p) - 1.0 < 0.0:
            continue  # spurious branch: sqrt is nonnegative
        if not double_root:
            # Newton polish on h(p) = ell(p) - omega(p); simple roots only
            for _ in range(50):
                h = ell(p) - omega(p)
                dh = m - omega_prime(p)
                if abs(dh) < 1e-14 or abs(h) < 1e-15:
                    break
                p = p - h / dh
        if not (0.5 - 1e-12 <= p <= 1.0 + 1e-12):
            continue
        p = float(np.clip(p, 0.5, 1.0))
        if abs(ell(p) - omega(p)) > ROOT_TOL:
            continue
        roots.append(p)
    if double_root and roots:
        roots = roots * 2
    roots.sort()
    if len(roots) > 2:
        raise AssertionError("affine line with more than two omega intersections")
    return roots


def _level_set_length(c: float, m: float, level: float) -> float:
    """Length of {p in [1/2, 1]: c + m*p - omega(p) >= level}.

    The set is an interval, g = ell - omega being concave.  Its ends are
    among 1/2, 1, the root of r and the roots of the quadratic of
    ``_omega_quadratic`` for the intercept c - level; between neighbouring
    cuts membership does not change and is read at the midpoint.  Where
    |c| or |m| passes about 1e154 the coefficients overflow and their roots
    fail the range test; then the line misses omega, or the ends lie within
    1/|m| of the root of r.
    """
    shifted = c - level
    A, B, C = _omega_quadratic(shifted, m)
    cuts = [0.5, 1.0]
    if m != 0.0:
        cuts.append((0.5 - shifted) / m)            # r = 0
    disc = B * B - 4.0 * A * C
    if disc >= 0.0:
        # stable roots; A = 2 - 4 m^2 is not 0 for any float m
        q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
        cuts += [q / A, C / q] if q != 0.0 else [q / A]
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
    Closed form, exact up to rounding: the interval ends are roots of one
    quadratic, no search.
    """
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be finite and positive")
    c, m, epsilon = float(ell.intercept), float(ell.slope), float(epsilon)
    outer = _level_set_length(c, m, -epsilon)
    inner = _level_set_length(c, m, epsilon)
    return max(outer - inner, 0.0) / HALF_INTERVAL


@dataclass(frozen=True)
class GapCertificate:
    """Finite witness that no line of a family meets omega at p_star."""

    description: str
    k: int
    family: tuple          # AffineFunction entries
    p_star: float
    gap: float
    resolution: int

    def recompute_gap(self) -> float:
        intercepts = np.array([ell.intercept for ell in self.family])
        slopes = np.array([ell.slope for ell in self.family])
        return float(np.abs(intercepts + slopes * self.p_star
                            - omega(self.p_star)).min())

    def verify(self, tol: float = 1e-12) -> bool:
        return abs(self.recompute_gap() - self.gap) <= tol


def _min_distance(intercepts: np.ndarray, slopes: np.ndarray,
                  ps: np.ndarray) -> np.ndarray:
    """min over lines of |ell(p) - omega(p)| at each p, in blocks of lines
    of at most PATH_TABLE_CAP entries."""
    rows = max(1, PATH_TABLE_CAP // len(ps))
    target = omega(ps)
    best = np.full(len(ps), np.inf)
    for start in range(0, len(intercepts), rows):
        vals = intercepts[start:start + rows, None] \
            + slopes[start:start + rows, None] * ps[None, :]
        vals -= target
        np.minimum(best, np.abs(vals, out=vals).min(axis=0), out=best)
    return best


def _rise_above_omega(intercepts: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """max over p in [1/2, 1] of ell(p) - omega(p), one value per line.

    ell - omega is concave, so the maximum is where omega' = slope, clipped
    to the interval; 1/2 and 1 are checked as well against rounding.
    """
    t = _tangency(np.clip(slopes, 0.0, 0.5))
    return np.maximum.reduce([intercepts + slopes * q - omega(q)
                              for q in (0.5, t, 1.0)])


def _envelope_breaks(intercepts: np.ndarray, slopes: np.ndarray) -> list:
    """Breakpoints in (1/2, 1) of the upper envelope of the lines, ascending.

    Starts at the line highest at 1/2 and moves to the nearest crossing with
    a steeper line until that crossing is past 1.  A line left behind is
    flatter than the current one, so it never returns.
    """
    order = np.lexsort((intercepts, slopes))       # by slope, then intercept
    c, m = intercepts[order], slopes[order]
    at_half = c + m * 0.5
    i = len(c) - 1 - int(np.argmax(at_half[::-1]))  # ties: the steepest
    p, breaks = 0.5, []
    while True:
        steeper = int(np.searchsorted(m, m[i], side="right"))
        if steeper == len(m):
            return breaks
        cross = np.maximum((c[i] - c[steeper:]) / (m[steeper:] - m[i]), p)
        j = len(cross) - 1 - int(np.argmin(cross[::-1]))
        if cross[j] >= 1.0:
            return breaks
        p, i = float(cross[j]), steeper + j
        breaks.append(p)


def find_hard_p(family, resolution: int = 10 ** 4, *, description: str = "",
                k: int = 0) -> GapCertificate:
    """Maximize g(p) = min_ell |ell(p) - omega(p)| over [1/2, 1].

    Exact when no line rises more than ABOVE_OMEGA_TOL above omega, as for
    every family of a quantum target: then g = omega - U with U the upper
    envelope of the lines, omega - ell is convex on each piece of U, and the
    maximum is at 1/2, at 1 or at a breakpoint of U; ``resolution`` is
    unused.  Otherwise a grid scan of ``resolution`` points with local
    refinement down to width 1e-10, in blocks of lines of at most
    PATH_TABLE_CAP entries.  Either way the first maximum wins, so ties go
    to the smallest p.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    family = tuple(family)
    if not family:
        raise ValueError("empty affine family")
    intercepts = np.array([ell.intercept for ell in family])
    slopes = np.array([ell.slope for ell in family])

    if _rise_above_omega(intercepts, slopes).max() <= ABOVE_OMEGA_TOL:
        ps = np.array([0.5, *_envelope_breaks(intercepts, slopes), 1.0])
        best_p = float(ps[int(np.argmax(_min_distance(intercepts, slopes, ps)))])
    else:
        lo, hi = 0.5, 1.0
        while True:
            ps = np.linspace(lo, hi, resolution)
            idx = int(np.argmax(_min_distance(intercepts, slopes, ps)))
            best_p = float(ps[idx])
            width = (hi - lo) / (resolution - 1)
            if width < 1e-10:
                break
            lo = max(0.5, best_p - width)
            hi = min(1.0, best_p + width)
    gap = float(_min_distance(intercepts, slopes, np.array([best_p]))[0])
    return GapCertificate(description, k, family, best_p, gap, resolution)


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
