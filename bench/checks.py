"""Output checks made apart from boxlab.

Everything here is recomputed from first principles with numpy and the
standard library: the Tsirelson curve, box tables, induced boxes, win
probabilities, counting formulas and grid estimates.  Each ``check_*``
function returns a list of failure messages; an empty list means the output
passed.  None of them imports boxlab, and none compares against a saved copy
of an earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

OCTAHEDRON_GAP = (math.sqrt(2.0) - 1.0) / 4.0   # omega(1/2) - 3/4


class KnownFault(Exception):
    """A known fault of boxlab shown by a fixed input: the operation is
    counted as failed, as if boxlab had raised, and not as a check failure."""


# --- reference computations -------------------------------------------

def omega(p):
    """Optimal quantum win probability of CHSH[p, 1/2]."""
    p = np.asarray(p, dtype=np.float64)
    return 0.5 + 0.5 * np.sqrt(p * p + (1.0 - p) ** 2)


def omega_prime(p: float) -> float:
    return (2.0 * p - 1.0) / (2.0 * math.sqrt(p * p + (1.0 - p) ** 2))


def tangent(p0: float) -> tuple[float, float]:
    """(intercept, slope) of the tangent to omega at p0."""
    m = omega_prime(p0)
    return float(omega(p0)) - m * p0, m


def chord(p1: float, p2: float) -> tuple[float, float]:
    m = float(omega(p2) - omega(p1)) / (p2 - p1)
    return float(omega(p1)) - m * p1, m


def win_prob(table, p: float, q: float = 0.5) -> float:
    """Win probability of a binary box table in CHSH[p, q]."""
    t = np.asarray(table, dtype=np.float64)
    equal = t[:, :, 0, 0] + t[:, :, 1, 1]
    wins = np.array([[equal[0, 0], equal[0, 1]],
                     [equal[1, 0], 1.0 - equal[1, 1]]])
    wx = np.array([1.0 - p, p])
    wy = np.array([1.0 - q, q])
    return float(wx @ wins @ wy)


def line_of_table(table) -> tuple[float, float]:
    """(intercept, slope) of p -> win probability of a binary box."""
    c = win_prob(table, 0.0)
    return c, win_prob(table, 1.0) - c


def pr_table() -> np.ndarray:
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                t[x, y, a, a ^ (x & y)] = 0.5
    return t


def local_table(f, g, a_size: int = 2, b_size: int = 2) -> np.ndarray:
    t = np.zeros((len(f), len(g), a_size, b_size))
    for x, fx in enumerate(f):
        for y, gy in enumerate(g):
            t[x, y, fx, gy] = 1.0
    return t


def local_deterministic_tables() -> list:
    maps = [(a, b) for a in range(2) for b in range(2)]
    return [local_table(f, g) for f in maps for g in maps]


def random_ns_table(rng, local_only: bool) -> np.ndarray:
    """Random mixture of the PR box and the 16 local deterministic boxes."""
    parts = [pr_table()] + local_deterministic_tables()
    weights = rng.dirichlet(np.ones(len(parts)))
    if local_only:
        weights[0] = 0.0
        weights /= weights.sum()
    return sum(w * t for w, t in zip(weights, parts))


def singlet_table(alice_dirs, bob_dirs) -> np.ndarray:
    """Pr[a = b | i, j] = 1/2 - c_i . d_j / 2, split evenly over a."""
    dots = np.asarray(alice_dirs) @ np.asarray(bob_dirs).T
    t = np.empty(dots.shape + (2, 2))
    t[..., 0, 0] = t[..., 1, 1] = 0.25 - 0.25 * dots
    t[..., 0, 1] = t[..., 1, 0] = 0.25 + 0.25 * dots
    return t


def octahedron_points() -> np.ndarray:
    return np.vstack([np.eye(3), -np.eye(3)])


def classical_lines() -> set:
    """Lines of the 16 deterministic 0-query strategies a = s(x), b = t(y)."""
    out = set()
    for table in local_deterministic_tables():
        out.add(line_of_table(table))
    return out


def tv_max(t1, t2) -> float:
    """Max over input pairs of the TV distance between output distributions."""
    diff = np.abs(np.asarray(t1) - np.asarray(t2))
    return float(0.5 * diff.sum(axis=(2, 3)).max())


def induced_table(proto: dict, target) -> np.ndarray:
    """Box a deterministic protocol induces, summed breadth-first over paths.

    ``proto`` holds the flat map tables of the protocol file format:
    alphabets (x1, y1, a1, b1, x2, y2, a2, b2), k, q_maps, r_maps, s_map,
    t_map, with the most recent response least significant.
    """
    x1, y1, a1, b1, x2, y2, a2, b2 = proto["alphabets"]
    k = proto["k"]
    target = np.asarray(target)
    out = np.zeros((x1, y1, a1, b1))
    for x in range(x1):
        for y in range(y1):
            paths = {(0, 0): 1.0}
            for depth in range(k):
                nxt: dict = {}
                for (ap, bp), w in paths.items():
                    xi = proto["q_maps"][depth][x * a2 ** depth + ap]
                    yi = proto["r_maps"][depth][y * b2 ** depth + bp]
                    for ai in range(a2):
                        for bi in range(b2):
                            key = (ap * a2 + ai, bp * b2 + bi)
                            nxt[key] = nxt.get(key, 0.0) + w * target[xi, yi, ai, bi]
                paths = nxt
            for (ap, bp), w in paths.items():
                out[x, y, proto["s_map"][x * a2 ** k + ap],
                    proto["t_map"][y * b2 ** k + bp]] += w
    return out


def protocol_count(alphabets, k: int) -> int:
    """Number of deterministic k-query protocols: one choice per map entry."""
    x1, y1, a1, b1, x2, y2, a2, b2 = alphabets
    n = 1
    for depth in range(k):
        n *= x2 ** (x1 * a2 ** depth) * y2 ** (y1 * b2 ** depth)
    return n * a1 ** (x1 * a2 ** k) * b1 ** (y1 * b2 ** k)


def counting_bound(x2: int, y2: int, a2: int, b2: int, k: int) -> int:
    return (2 * x2) ** (2 * a2 ** k) * (2 * y2) ** (2 * b2 ** k)


def max_above_omega(c: float, m: float) -> float:
    """max over p in [1/2, 1] of c + m p - omega(p), in closed form.

    The difference is concave; its maximum sits where omega'(p) = m.  With
    u = 2p - 1, omega'(p) = u / sqrt(2 (1 + u^2)), so u^2 = 2m^2 / (1 - 2m^2).
    """
    if m <= 0.0:
        p = 0.5
    elif m >= 0.5:
        p = 1.0
    else:
        p = 0.5 * (1.0 + math.sqrt(2.0 * m * m / (1.0 - 2.0 * m * m)))
    return max(c + m * q - float(omega(q)) for q in (0.5, p, 1.0))


def grid_gap(lines, n: int = 2001) -> float:
    """max over an n-point grid of min over lines of |ell(p) - omega(p)|."""
    ps = np.linspace(0.5, 1.0, n)
    arr = np.asarray(lines, dtype=np.float64)
    vals = arr[:, :1] + arr[:, 1:2] * ps[None, :]
    return float(np.abs(vals - omega(ps)[None, :]).min(axis=0).max())


def near_measure_grid(c: float, m: float, eps: float, n: int = 100001) -> float:
    """Grid estimate of |{p in [1/2, 1]: |ell - omega| <= eps}| / (1/2)."""
    ps = np.linspace(0.5, 1.0, n)
    near = np.abs(c + m * ps - omega(ps)) <= eps
    return float(near.mean())


def sign_changes(c: float, m: float, n: int = 20001) -> int:
    """Sign changes of ell - omega on a grid, skipping points within 1e-12."""
    ps = np.linspace(0.5, 1.0, n)
    h = c + m * ps - omega(ps)
    s = np.sign(h[np.abs(h) > 1e-12])
    return int(np.count_nonzero(s[1:] != s[:-1]))


def farthest_probe(points, probes, block_entries: int = 4_000_000) -> float:
    """Largest chord distance from a probe to its nearest cover point."""
    points = np.asarray(points, dtype=np.float64)
    step = max(1, block_entries // len(points))
    worst = -1.0
    for i in range(0, len(probes), step):
        dots = probes[i:i + step] @ points.T
        worst = max(worst, float(dots.max(axis=1).min()))
    return math.sqrt(max(0.0, 2.0 - 2.0 * worst))


def random_unit_vectors(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def schedule_exact(x2, y2, a2, b2, k_max, c: float):
    """Bounds and exact epsilons of the schedule k^4 bound^2 eps = c^2."""
    c_exact = Fraction(c)
    bounds = [counting_bound(x2, y2, a2, b2, k) for k in range(1, k_max + 1)]
    eps = [(c_exact / (k * k * b)) ** 2 for k, b in enumerate(bounds, 1)]
    return c_exact, bounds, eps


# --- checks ------------------------------------------------------------

def _contains(lines, line, tol: float) -> bool:
    return any(abs(a - line[0]) <= tol and abs(b - line[1]) <= tol
               for a, b in lines)


def check_octahedron(p_star: float, gap: float) -> list:
    out = []
    if abs(gap - OCTAHEDRON_GAP) > 1e-12:
        out.append("octahedron gap %r != (sqrt2-1)/4" % gap)
    if abs(p_star - 0.5) > 1e-12:
        out.append("octahedron p* %r != 1/2" % p_star)
    return out


def check_below_omega(lines, tol: float = 1e-12) -> list:
    """Wirings of quantum boxes stay quantum: ell <= omega on [1/2, 1]."""
    worst = max(max_above_omega(c, m) for c, m in lines)
    return [] if worst <= tol else ["a line rises %.3g above omega" % worst]


def check_below_classical(lines, tol: float = 1e-12) -> list:
    """Wirings of local boxes stay local: ell <= (1 + p)/2 on [1/2, 1]."""
    worst = max(max(c + m * p - (1.0 + p) / 2.0 for p in (0.5, 1.0))
                for c, m in lines)
    return [] if worst <= tol else ["a line rises %.3g above (1+p)/2" % worst]


def check_contains(lines, required, what: str, tol: float = 1e-12) -> list:
    missing = [r for r in required if not _contains(lines, r, tol)]
    return ["family misses %d %s" % (len(missing), what)] if missing else []


def check_certificate(lines, p_star: float, gap: float) -> list:
    out = []
    if not 0.5 <= p_star <= 1.0:
        out.append("p* %r outside [1/2, 1]" % p_star)
    arr = np.asarray(lines, dtype=np.float64)
    recomputed = float(np.abs(arr[:, 0] + arr[:, 1] * p_star - omega(p_star)).min())
    if abs(recomputed - gap) > 1e-12:
        out.append("gap %r != min |ell(p*) - omega(p*)| = %r" % (gap, recomputed))
    grid = grid_gap(lines)
    if gap < grid - 1e-9:
        out.append("gap %r below the 2001-point grid maximum %r" % (gap, grid))
    return out


def check_protocol_line(line, induced, own_induced, family) -> list:
    """affine_of against the induced box at p = 1/2 and p = 1, and the family."""
    out = []
    if np.abs(np.asarray(induced) - own_induced).max() > 1e-12:
        out.append("induced box differs from the path sum")
    for p in (0.5, 1.0):
        if abs(line[0] + line[1] * p - win_prob(own_induced, p)) > 1e-12:
            out.append("affine_of disagrees with the induced box at p=%g" % p)
    if not _contains(family, line, 1e-12):
        out.append("affine_of line is not in the family")
    return out


def check_cover(eps: float, size: int, radius: float, points, probes) -> list:
    out = []
    if radius > eps:
        out.append("covering radius %r > epsilon %r" % (radius, eps))
    if size > 10.0 / eps ** 2 or size != len(points):
        out.append("T = %d breaks T <= 10/eps^2 = %g" % (size, 10.0 / eps ** 2))
    norms = np.linalg.norm(np.asarray(points), axis=1)
    if np.abs(norms - 1.0).max() > 1e-10:
        out.append("cover points are not unit vectors")
    far = farthest_probe(points, probes)
    if far > radius:
        out.append("a probe lies %r from the cover, beyond radius %r" % (far, radius))
    return out


def check_reduction_tv(max_tv: float, mean_tv: float, radius: float) -> list:
    """TV = |x.y - c_i.c_j|/2 <= r for nearest cover points within r."""
    out = []
    if max_tv > radius:
        out.append("max_tv %r > covering radius %r" % (max_tv, radius))
    if not 0.0 <= mean_tv <= max_tv:
        out.append("mean_tv %r outside [0, max_tv]" % mean_tv)
    return out


def check_close(name: str, got, want, tol: float) -> list:
    diff = float(np.abs(np.asarray(got, dtype=np.float64) - want).max())
    return [] if diff <= tol else ["%s off by %.3g" % (name, diff)]


def check_box_table(table, tol: float = 1e-12, ns_tol: float = 1e-10) -> list:
    """Normalised and non-signaling."""
    t = np.asarray(table, dtype=np.float64)
    out = []
    if t.min() < -tol or np.abs(t.sum(axis=(2, 3)) - 1.0).max() > tol:
        out.append("box is not normalised")
    ma, mb = t.sum(axis=3), t.sum(axis=2)
    if (np.abs(ma - ma[:, :1]).max() > ns_tol
            or np.abs(mb - mb[:1]).max() > ns_tol):
        out.append("box is signaling")
    return out


def check_roots(c: float, m: float, roots) -> list:
    out = []
    for r in roots:
        if not 0.5 <= r <= 1.0 or abs(c + m * r - float(omega(r))) > 1e-10:
            out.append("root %r has residual above 1e-10" % r)
    if len(roots) != sign_changes(c, m):
        out.append("%d roots, %d sign changes" % (len(roots), sign_changes(c, m)))
    return out


def check_measure(c: float, m: float, eps: float, measure: float) -> list:
    out = []
    if measure > 8.0 * math.sqrt(eps):
        out.append("measure %r > 8 sqrt(eps)" % measure)
    grid = near_measure_grid(c, m, eps)
    if abs(measure - grid) > 1e-4:
        out.append("measure %r, grid estimate %r" % (measure, grid))
    return out


def check_schedule(x2, y2, a2, b2, k_max, c, bounds, eps, identity) -> list:
    c_exact, want_bounds, want_eps = schedule_exact(x2, y2, a2, b2, k_max, c)
    out = []
    if [int(b) for b in bounds] != want_bounds:
        out.append("schedule bounds differ from (2|X|)^(2|A|^k) (2|Y|)^(2|B|^k)")
    if list(eps) != [float(e) for e in want_eps]:
        out.append("schedule epsilons are not the rounded exact values")
    if any(k ** 4 * b * b * e != c_exact * c_exact
           for k, (b, e) in enumerate(zip(want_bounds, want_eps), 1)):
        out.append("k^4 bound^2 eps != c^2 in Fractions")
    if identity is not True:
        out.append("identity_exact is not true")
    return out

