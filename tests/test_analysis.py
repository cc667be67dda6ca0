import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab as bl
from boxlab import analysis, boxes
from boxlab.analysis import (best_affine_fit, certificate_to_payload,
                             omega_second_derivative, tangent_line)
from boxlab.cli import main
from boxlab.games import omega_prime
from boxlab.protocols import AffineFunction, LineFamily
from boxlab.sphere import build_cover


def family_of(lines):
    """The ``LineFamily`` of a list of ``AffineFunction``s, in its order."""
    return LineFamily([ell.intercept for ell in lines],
                      [ell.slope for ell in lines])


def roots_of(ell):
    """line_intersections of the one-line family of ``ell``, its NaNs
    dropped, as a list."""
    roots = bl.line_intersections(family_of([ell]))[0]
    return roots[~np.isnan(roots)].tolist()


def measure_one(ell, epsilon):
    """measure_near of the one-line family of ``ell``, as a float."""
    return float(bl.measure_near(family_of([ell]), epsilon)[0])


def test_second_derivative_closed_form_and_bound():
    for x in np.linspace(0.0, 1.0, 101):
        value = omega_second_derivative(float(x))
        assert value >= 0.5 - 1e-12
        # finite differences on omega itself
        h = 1e-5
        fd = (bl.omega(float(x) + h) - 2 * bl.omega(float(x))
              + bl.omega(float(x) - h)) / h ** 2 if 0.1 < x < 0.9 else value
        assert abs(fd - value) <= 1e-5


def test_tangent_line_touches_from_below():
    # omega is convex, so its tangents sit below the curve
    for p0 in (0.55, 0.6, 0.75, 0.9):
        ell = tangent_line(p0)
        assert float(ell(p0)) == pytest.approx(bl.omega(p0), abs=1e-12)
        for p in np.linspace(0.5, 1.0, 101):
            assert float(ell(p)) <= bl.omega(float(p)) + 1e-12


def test_tangent_line_intersections_double_root():
    for p0 in (0.55, 0.75, 0.9):
        roots = roots_of(tangent_line(p0))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(p0, abs=1e-6)
        assert roots[1] == pytest.approx(p0, abs=1e-6)


@pytest.mark.parametrize("shift", [1e-9, 1e-10, 1e-11])
@pytest.mark.parametrize("p0", [0.6, 0.75, 0.9])
def test_close_crossings_are_both_reported(p0, shift):
    # the tangent at p0 raised by 1e-9 to 1e-11 crosses omega twice, some
    # 1e-4 to 1e-5 apart; its discriminant is near zero, and the vertex,
    # less than ROOT_TOL above omega, is no root
    tangent = tangent_line(p0)
    ell = AffineFunction(tangent.intercept + shift, tangent.slope)
    roots = roots_of(ell)
    ps = np.linspace(p0 - 1e-4, p0 + 1e-4, 200001)
    g = ell(ps) - bl.omega(ps)
    crossings = ps[:-1][np.sign(g[1:]) != np.sign(g[:-1])]
    assert len(crossings) == 2
    assert roots == pytest.approx(crossings.tolist(), abs=2e-9)


@pytest.mark.parametrize("p0", [0.6, 0.75, 0.9])
def test_lowered_tangent_misses_omega(p0):
    tangent = tangent_line(p0)
    lowered = AffineFunction(tangent.intercept - 1e-9, tangent.slope)
    assert roots_of(lowered) == []


@pytest.mark.parametrize("p0", [0.6, 0.75])
def test_exact_tangent_touches_once(p0):
    # float discriminants at or below zero: one double root at the vertex
    touch = roots_of(tangent_line(p0))
    assert len(touch) == 2 and touch[0] == touch[1]


def test_secant_line_intersections_exact():
    # chord through (0.5, omega(0.5)) and (1, 1)
    p1, p2 = 0.5, 1.0
    slope = (bl.omega(p2) - bl.omega(p1)) / (p2 - p1)
    ell = AffineFunction(bl.omega(p1) - slope * p1, slope)
    roots = roots_of(ell)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(p1, abs=1e-9)
    assert roots[1] == pytest.approx(p2, abs=1e-9)


def test_line_below_omega_has_no_intersections():
    assert roots_of(AffineFunction(0.5, 0.0)) == []
    assert roots_of(AffineFunction(0.0, 0.3)) == []


STEEP_P1 = [round(0.55 + 0.005 * i, 3) for i in range(88)]


def steep_line(p1):
    """The line through (p1, omega(p1)) steeper than omega there by 0.3."""
    slope = omega_prime(p1) + 0.3
    return AffineFunction(bl.omega(p1) - slope * p1, slope)


@pytest.mark.parametrize("p1", STEEP_P1)
def test_steep_line_reports_each_crossing_once(p1):
    # steeper than omega at p1: it crosses upward at p1 and maybe back down
    # later, never tangentially
    ell = steep_line(p1)
    ps = np.linspace(0.5, 1.0, 20001)
    above = ell(ps) > bl.omega(ps)
    roots = roots_of(ell)
    assert len(roots) == int(np.count_nonzero(above[1:] != above[:-1]))
    assert len(set(roots)) == len(roots)
    assert roots[0] == pytest.approx(p1, abs=1e-9)


def test_intersections_residual_small():
    rng = np.random.default_rng(13)
    for _ in range(500):
        ell = AffineFunction(float(rng.uniform(0.4, 1.3)),
                             float(rng.uniform(-1.0, 1.0)))
        roots = roots_of(ell)
        assert len(roots) <= 2
        for r in roots:
            assert 0.5 - 1e-12 <= r <= 1.0 + 1e-12
            assert abs(float(ell(r)) - bl.omega(min(max(r, 0.5), 1.0))) <= 1e-10


def test_measure_near_tangent_sqrt_scaling():
    ell = tangent_line(0.75)
    for eps in (1e-2, 1e-3, 1e-4):
        m = measure_one(ell, eps)
        assert 0.0 < m <= 8.0 * math.sqrt(eps)
    # log-log slope close to 1/2
    eps = np.logspace(-2, -6, 9)
    ms = [measure_one(ell, float(e)) for e in eps]
    slope = np.polyfit(np.log(eps), np.log(ms), 1)[0]
    assert abs(slope - 0.5) <= 0.05


def test_measure_near_far_line_is_zero():
    assert measure_one(AffineFunction(2.0, 0.0), 1e-3) == 0.0


def test_measure_near_saturates_for_large_epsilon():
    # the tangent at 0.75 stays within ~0.032 of omega on all of [1/2, 1],
    # so at epsilon = 0.25 the near set is the whole interval
    big = measure_one(tangent_line(0.75), 0.25)
    assert big == pytest.approx(1.0, abs=1e-3)


def test_measure_near_of_tangents_holds_down_to_its_rounding_floor():
    # a tangent at p0 is within eps of omega on a set about
    # 2 sqrt(2 eps / omega''(p0)) wide, 4 sqrt(2 eps / omega''(p0)) of
    # [1/2, 1]; ell - omega is rounded to about 1e-16, and down to
    # eps = 1e-14 the result stays within 2% of that (0.77% at worst)
    p0 = np.linspace(0.52, 0.98, 24)
    family = family_of([tangent_line(float(p)) for p in p0])
    curvature = np.array([omega_second_derivative(float(p)) for p in p0])
    for eps in np.geomspace(1e-6, 1e-14, 9):
        width = 4.0 * np.sqrt(2.0 * eps / curvature)
        assert np.abs(bl.measure_near(family, eps) / width - 1.0).max() <= 0.02


def bisection_level_interval(g, level, strict=False):
    """Oracle: {p in [1/2, 1]: g(p) >= level} (> level with strict) for
    concave g, by ternary search for the peak and bisection to 1e-12 toward
    each crossing, the search measure_near used before its closed form."""
    a, b = 0.5, 1.0
    for _ in range(200):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if g(m1) < g(m2):
            a = m1
        else:
            b = m2
    peak = 0.5 * (a + b)
    if g(peak) < level or (strict and g(peak) <= level):
        return None

    def cross(inside, outside):
        if g(outside) >= level:
            return outside
        while abs(outside - inside) >= 1e-12:
            mid = 0.5 * (inside + outside)
            if g(mid) >= level:
                inside = mid
            else:
                outside = mid
        return 0.5 * (inside + outside)

    return cross(peak, 0.5), cross(peak, 1.0)


def bisection_measure(ell, epsilon):
    def g(p):
        return float(ell(p) - bl.omega(p))

    outer = bisection_level_interval(g, -epsilon)
    if outer is None:
        return 0.0
    inner = bisection_level_interval(g, epsilon, strict=True)
    length = (outer[1] - outer[0]) - (0.0 if inner is None else inner[1] - inner[0])
    return max(length, 0.0) / 0.5


def near_lines():
    """(line, epsilon): tangents shifted by up to 2 epsilon either way,
    chords of omega and random lines, epsilon in [1e-6, 0.25]."""
    eps = st.floats(min_value=1e-6, max_value=0.25)
    p = st.floats(min_value=0.5, max_value=1.0)

    def shifted(p0, t, e):
        ell = tangent_line(p0)
        return AffineFunction(ell.intercept + t * e, ell.slope), e

    def chord(a, b, e):
        a, b = min(a, b), max(a, b) + 1e-9
        slope = (bl.omega(b) - bl.omega(a)) / (b - a)
        return AffineFunction(bl.omega(a) - slope * a, slope), e

    random_line = st.builds(
        lambda c, m, e: (AffineFunction(c, m), e),
        st.floats(min_value=0.0, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5), eps)
    return st.one_of(
        st.builds(shifted, p, st.floats(min_value=-2.0, max_value=2.0), eps),
        st.builds(chord, p, p, eps), random_line)


@settings(max_examples=300, deadline=None)
@given(near_lines())
def test_measure_near_equals_the_bisection_oracle(case):
    ell, eps = case
    # where a level meets the peak of ell - omega the set's length is the
    # square root of rounding, so the bound grows by how far the oracle
    # moves when epsilon moves by 1e-14, some 45 units in the last place
    conditioning = abs(bisection_measure(ell, eps + 1e-14)
                       - bisection_measure(ell, eps - 1e-14))
    value = measure_one(ell, eps)
    assert abs(value - bisection_measure(ell, eps)) <= 1e-10 + conditioning


SQRT_HALF = math.sqrt(0.5)
TANGENT = tangent_line(0.75)
EXTREME_LINES = [
    (0.8, SQRT_HALF, 1e-3), (0.2, SQRT_HALF, 0.25), (0.8, -SQRT_HALF, 1e-3),
    (1.3, -SQRT_HALF, 1e-3), (1.3, -SQRT_HALF, 0.25),
    (1.3, -math.nextafter(SQRT_HALF, 1.0), 1e-3),
    (0.8, 0.0, 1e-3), (0.9, 0.0, 1e-3), (0.5 + 0.5 * SQRT_HALF, 0.0, 1e-3),
    (0.8, 1e300, 1e-3), (0.8, -1e300, 1e-3), (-0.75e300, 1e300, 0.25),
    (-0.75e300, 1e300, 1.0),
    (-1e300, 0.1, 1e-3), (-1e300, 0.1, 0.25), (-1e300, -1e300, 1e-3),
    (0.8, 0.1, 1e-300), (0.5 + 0.5 * SQRT_HALF, 0.0, 1e-300),
    (float(TANGENT.intercept), float(TANGENT.slope), 1e-300),
]


@pytest.mark.parametrize("intercept,slope,epsilon", EXTREME_LINES)
def test_measure_near_extreme_lines(capsys, intercept, slope, epsilon):
    ell = AffineFunction(intercept, slope)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = measure_one(ell, epsilon)
        assert main(["analysis", "measure", "--intercept=%r" % intercept,
                     "--slope=%r" % slope, "--epsilon=%r" % epsilon]) == 0
    assert math.isfinite(value) and 0.0 <= value <= 1.0
    assert json.loads(capsys.readouterr().out)["result"]["measure"] == value
    # at the tangent with epsilon 1e-300 either answer is rounding, a set
    # some 1e-8 wide
    assert value == pytest.approx(bisection_measure(ell, epsilon), abs=1e-7)


def level_set_length(c, m, level):
    """Oracle: measure_near's former scalar loop over the sorted cuts of one
    level, which skipped the cuts outside [1/2, 1]."""
    shifted = c - level
    cuts = [0.5, 1.0, *map(float, analysis._omega_roots(shifted, m))]
    if m != 0.0:
        cuts.append((0.5 - shifted) / m)
    cuts = sorted(p for p in cuts if 0.5 <= p <= 1.0)
    length = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        if c + m * mid - bl.omega(mid) >= level:
            length += b - a
    return length


def scalar_measure(c, m, epsilon):
    """Oracle: measure_near's former scalar form."""
    outer = level_set_length(c, m, -epsilon)
    inner = level_set_length(c, m, epsilon)
    return max(outer - inner, 0.0) / 0.5


def seeded_near_lines(rng, epsilon, n):
    """(intercepts, slopes): exact and shifted tangents of omega, chords of
    omega, horizontal and random lines, and lines past 1e300."""
    p0 = rng.uniform(0.5, 1.0, n)
    tangent = [tangent_line(float(p)) for p in p0]
    a, b = np.sort(rng.uniform(0.5, 1.0, (2, n)), axis=0)
    b += 1e-9
    chord = (bl.omega(b) - bl.omega(a)) / (b - a)
    huge = rng.choice([-1.0, 1.0], (2, n)) \
        * 10.0 ** rng.uniform(-300.0, 300.0, (2, n))
    kinds = [(np.array([ell.intercept for ell in tangent]),
              np.array([ell.slope for ell in tangent])),
             (np.array([ell.intercept for ell in tangent])
              + rng.uniform(-2.0, 2.0, n) * epsilon,
              np.array([ell.slope for ell in tangent])),
             (bl.omega(a) - chord * a, chord),
             (rng.uniform(0.5, 1.2, n), np.zeros(n)),
             (rng.uniform(0.0, 1.5, n), rng.uniform(-1.5, 1.5, n)),
             (huge[0], huge[1])]
    return (np.concatenate([c for c, _ in kinds]),
            np.concatenate([m for _, m in kinds]))


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_measure_near_of_a_family_equals_the_scalar_form_bit_for_bit():
    # 10,819 (line, epsilon) cases, 30 lines of each of six kinds at each of
    # 60 epsilons, and the extreme lines at their own epsilons
    rng = np.random.default_rng(1601)
    cases = 0
    for epsilon in [*np.geomspace(1e-7, 0.25, 58).tolist(), 1.0, 1e-300]:
        intercepts, slopes = seeded_near_lines(rng, epsilon, 30)
        family = LineFamily(intercepts, slopes)
        values = bl.measure_near(family, epsilon)
        assert values.dtype == np.float64 and values.shape == (len(family),)
        single = [measure_one(ell, epsilon) for ell in family]
        oracle = [scalar_measure(c, m, epsilon)
                  for c, m in zip(intercepts.tolist(), slopes.tolist())]
        assert bits(values) == bits(single) == bits(oracle)
        cases += len(family)
    for c, m, epsilon in EXTREME_LINES:
        value = bl.measure_near(LineFamily([c], [m]), epsilon)
        assert bits(value) == bits(scalar_measure(c, m, epsilon))
        cases += 1
    assert cases >= 10 ** 4
    assert bl.measure_near(LineFamily([], []), 1e-3).shape == (0,)
    with pytest.raises(ValueError, match="epsilon"):
        bl.measure_near(LineFamily([0.8], [0.1]), 0.0)


def test_best_affine_fit_equioscillates():
    ell = best_affine_fit()
    grid = np.linspace(0.5, 1.0, 2001)
    gaps = np.array([float(ell(p)) - bl.omega(float(p)) for p in grid])
    worst = np.abs(gaps).max()
    # endpoints sit below omega by the worst error, the interior touch
    # point sits above by the same amount: three alternations
    assert gaps[0] == pytest.approx(-worst, abs=1e-9)
    assert gaps[-1] == pytest.approx(-worst, abs=1e-9)
    # interior maximum sampled on a grid, so allow curvature-sized slack
    assert gaps.max() == pytest.approx(worst, abs=1e-7)
    assert worst > 0.0


def test_best_affine_fit_coefficients_are_pinned():
    # the values of the bisection-free fit before the tangency became a helper
    ell = best_affine_fit()
    assert ell.intercept == 0.6912286491163062
    assert ell.slope == 0.29289321881345254


def grid_distance(family, ps):
    """min over the lines of |ell(p) - omega(p)| at each p, in blocks of
    lines so that large families fit in memory."""
    intercepts = np.array([ell.intercept for ell in family])
    slopes = np.array([ell.slope for ell in family])
    best = np.full(len(ps), np.inf)
    for start in range(0, len(family), 256):
        vals = intercepts[start:start + 256, None] \
            + slopes[start:start + 256, None] * ps[None, :]
        best = np.minimum(best, np.abs(vals - bl.omega(ps)).min(axis=0))
    return best


def grid_hard_p(family, resolution=10 ** 4):
    """Oracle: the grid scan with local refinement that find_hard_p used
    for families with a line above omega.  Returns (p_star, gap)."""
    lo, hi = 0.5, 1.0
    while True:
        ps = np.linspace(lo, hi, resolution)
        best_p = float(ps[int(np.argmax(grid_distance(family, ps)))])
        width = (hi - lo) / (resolution - 1)
        if width < 1e-10:
            break
        lo = max(0.5, best_p - width)
        hi = min(1.0, best_p + width)
    return best_p, float(grid_distance(family, np.array([best_p]))[0])


FUNCTIONS = [(0, 0), (0, 1), (1, 0), (1, 1)]     # every map {0, 1} -> {0, 1}


def quantum_targets():
    rng = np.random.default_rng(71)
    targets = {"fib4": bl.discretized_box(build_cover(2.0)),
               "octahedron": bl.discretized_box(bl.octahedron_cover())}
    for i, (nx, ny) in enumerate([(2, 2), (3, 2), (3, 4), (4, 3)]):
        spec = bl.simple_bell_spec([bl.random_unitary(rng) for _ in range(nx)],
                                   [bl.random_unitary(rng) for _ in range(ny)])
        targets["singlet%d" % i] = bl.bell_box(spec, bl.SINGLET)
    return targets


@pytest.mark.parametrize("name", quantum_targets())
def test_exact_search_reaches_the_grid_maximum(name):
    family = bl.affine_family(quantum_targets()[name], 1)
    cert = bl.find_hard_p(family, k=1)
    _, grid_gap = grid_hard_p(family)
    assert grid_gap <= cert.gap <= grid_gap + 1e-9
    assert cert.verify()
    assert cert.recompute_gap() == cert.gap


@pytest.mark.parametrize("name", ["pr", "ns", "singlet1", "fib4", "octahedron"])
def test_recompute_gap_equals_the_per_line_loop(name):
    if name == "pr":
        target = bl.pr_box()
    elif name == "ns":
        rng = np.random.default_rng(5)
        parts = [bl.pr_box()] + [bl.local_box(f, g) for f in FUNCTIONS
                                 for g in FUNCTIONS]
        target = bl.mix(parts, rng.dirichlet(np.ones(len(parts))))
    else:
        target = quantum_targets()[name]
    cert = bl.find_hard_p(bl.affine_family(target, 1), k=1)
    loop = min(abs(float(ell(cert.p_star)) - bl.omega(cert.p_star))
               for ell in cert.family)
    assert cert.recompute_gap() == loop


def test_exact_search_on_the_t9_cover_box():
    family = bl.affine_family(bl.discretized_box(build_cover(1.0)), 1)
    assert len(family) == 11029
    cert = bl.find_hard_p(family, k=1)
    _, grid_gap = grid_hard_p(family, resolution=1000)
    assert grid_gap <= cert.gap <= grid_gap + 1e-9


def test_exact_search_finds_an_interior_breakpoint():
    # two tangents of omega: g is largest where they cross, inside (1/2, 1)
    a, b = tangent_line(0.6), tangent_line(0.9)
    family = family_of([a, b])
    cert = bl.find_hard_p(family, k=0)
    crossing = (a.intercept - b.intercept) / (b.slope - a.slope)
    assert cert.p_star == pytest.approx(crossing, abs=1e-15)
    assert 0.6 < cert.p_star < 0.9
    _, gap_grid = grid_hard_p(family)
    assert gap_grid <= cert.gap <= gap_grid + 1e-9


def crossing_families():
    """Families with lines above omega: the PR box's, five copies of it, a
    chord of omega with a line below, three tangents raised by 0.05 (all
    above omega between 0.57 and 0.90) and seeded tangents of omega shifted
    by N(0, 0.01)."""
    pr = bl.affine_family(bl.pr_box(), 1)
    # a chord of omega rises above it between its ends, farthest inside,
    # where the envelope has no breakpoint
    ends = (bl.omega(0.51), bl.omega(0.99))
    slope = (ends[1] - ends[0]) / 0.48
    families = {"pr": pr, "pr5": family_of(list(pr) * 5),
                "chord": LineFamily([0.5, ends[0] - slope * 0.51],
                                    [0.0, slope]),
                "raised": family_of([
                    AffineFunction(ell.intercept + 0.05, ell.slope)
                    for ell in map(tangent_line, (0.6, 0.75, 0.9))])}
    rng = np.random.default_rng(29)
    for i in range(20):
        p0 = rng.uniform(0.5, 1.0, int(rng.integers(2, 40)))
        shifts = rng.normal(0.0, 0.01, len(p0))
        families["shifted%d" % i] = family_of([
            AffineFunction(ell.intercept + float(shift), ell.slope)
            for ell, shift in zip(map(tangent_line, p0), shifts)])
    return families


CROSSING = crossing_families()
# |ell(p) - omega(p)| sums terms near 1, so its rounding error is a few
# units of 2^-52; near a flat maximum of g, as at a tangency point, a grid
# point can beat the exact candidate by that much
ROUNDING = 4 * np.finfo(float).eps


@pytest.mark.parametrize("name", CROSSING)
def test_exact_search_on_families_that_cross_omega(name):
    family = CROSSING[name]
    cert = bl.find_hard_p(family, description=name, k=1)
    _, grid_gap = grid_hard_p(family)
    assert grid_gap <= cert.gap + ROUNDING
    assert cert.verify()
    # the certificate holds the lines in the order given
    assert cert.family == family
    assert (cert.description, cert.k) == (name, 1)
    ps = np.clip(cert.p_star + np.linspace(-1e-3, 1e-3, 20001), 0.5, 1.0)
    assert grid_distance(family, ps).max() <= cert.gap + ROUNDING
    if name == "chord":
        assert 0.6 < cert.p_star < 0.9


@pytest.mark.parametrize("name", CROSSING)
def test_find_hard_p_does_not_depend_on_the_order_of_the_lines(name):
    family = CROSSING[name]
    cert = bl.find_hard_p(family, description=name, k=1)
    rng = np.random.default_rng(list(CROSSING).index(name))
    for order in (np.arange(len(family))[::-1],
                  rng.permutation(len(family))):
        shuffled = LineFamily(family.intercepts[order], family.slopes[order])
        other = bl.find_hard_p(shuffled, description=name, k=1)
        # the same point and gap, bit for bit, from the same candidates
        assert (other.p_star, other.gap, other.resolution) == (
            cert.p_star, cert.gap, cert.resolution)
        # but the certificate holds the lines in the order given
        assert other.family == shuffled and other.verify()


def scalar_roots(c, m):
    """Oracle: line_intersections' former scalar form, on Python floats."""
    return sorted(float(p) for p in analysis._omega_roots(c, m) if p == p)


def test_line_intersections_of_a_family_equals_one_line_calls_bit_for_bit():
    # the acceptance battery's 10^4 lines, tangents of omega raised and
    # lowered by up to 1e-9, the steep lines and the crossing families; each
    # row also holds the roots of the former scalar form
    rng = np.random.default_rng(5)
    tangents = [tangent_line(float(p)) for p in np.linspace(0.5, 1.0, 101)]
    families = [LineFamily(*rng.normal((0.8, 0.0), (0.4, 0.6), (10 ** 4, 2)).T),
                family_of([AffineFunction(ell.intercept + shift, ell.slope)
                           for ell in tangents
                           for shift in (0.0, 1e-9, 1e-10, 1e-11, -1e-9)]),
                family_of(list(map(steep_line, STEEP_P1))), *CROSSING.values()]
    for family in families:
        rows = bl.line_intersections(family)
        assert rows.dtype == np.float64 and rows.shape == (len(family), 2)
        for i, row in enumerate(rows):
            one = bl.line_intersections(LineFamily(family.intercepts[i:i + 1],
                                                   family.slopes[i:i + 1]))
            assert bits(row) == bits(one[0])
            c, m = family.intercepts[i].item(), family.slopes[i].item()
            assert bits(row[~np.isnan(row)]) == bits(scalar_roots(c, m))
        # each row ascending, NaN after its roots
        first, second = rows.T
        assert not (np.isnan(first) & ~np.isnan(second)).any()
        assert not (first > second).any()
    assert bl.line_intersections(LineFamily([], [])).shape == (0, 2)


@pytest.mark.parametrize("name", ["octahedron", "fib4"])
def test_the_gap_pipeline_builds_no_line_objects(monkeypatch, capsys, name):
    target = quantum_targets()[name]

    def refuse(self):
        raise AssertionError("built an AffineFunction")

    monkeypatch.setattr(AffineFunction, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="built an AffineFunction"):
        AffineFunction(0.5, 0.0)
    family = bl.affine_family(target, 1)
    cert = bl.find_hard_p(family, description=name, k=1)
    payload = analysis.certificate_to_payload(cert)
    assert cert.verify() and len(payload["family"]) == len(family)
    # and the CLI commands that print a certificate and a family
    assert main(["analysis", "gap", "--target", "octahedron"]) == 0
    assert main(["protocol", "family", "--target", "pr", "--k", "1",
                 "--format", "csv"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert_payload_holds(cert, payload)


def test_search_in_blocks_of_lines(monkeypatch, block_walks):
    family = family_of(list(bl.affine_family(bl.pr_box(), 1)) * 5)
    whole = bl.find_hard_p(family, k=1)
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 3 * whole.resolution)
    blocked = bl.find_hard_p(family, k=1)
    assert blocked == whole
    # the two searches: all 65 lines in one block, then 3 lines a block
    assert [walk.sizes for walk in block_walks[-2:]] == [[65], [3] * 21 + [2]]


def test_gap_search_leaves_numpy_ma_out(fresh_python):
    # exact ids come from np.unique with an index output, which skips the
    # hash path whose masked-array check imports numpy.ma, about 1.1 MB;
    # numpy before 2.0 imports numpy.ma with numpy itself
    code = """
import sys
import boxlab as bl
seen = ['numpy.ma' in sys.modules]
for box in (bl.discretized_box(bl.octahedron_cover()), bl.pr_box()):
    bl.find_hard_p(bl.affine_family(box, 1, up_to_k=True), k=1)
seen.append('numpy.ma' in sys.modules)
print(seen)
"""
    assert fresh_python(code) in ("[False, False]", "[True, True]")


def test_t14_cover_box_gap_in_bounded_memory():
    # the full grid scan asked for one 5.1 GiB matrix here
    box = bl.discretized_box(build_cover(0.8))
    tracemalloc.start()
    try:
        family = bl.affine_family(box, 1)
        cert = bl.find_hard_p(family, k=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family) == 68971
    assert peak < 256e6
    assert cert.gap == pytest.approx(0.00771, abs=1e-5)
    assert cert.verify()


def test_find_hard_p_octahedron_certificate():
    target = bl.discretized_box(bl.octahedron_cover())
    family = bl.affine_family(target, 1, up_to_k=True)
    cert = bl.find_hard_p(family, description="octahedron k=1", k=1)
    assert cert.gap > 1e-4
    assert cert.verify()
    assert cert.gap == pytest.approx(np.sqrt(2) / 4 - 0.25, abs=1e-9)
    assert cert.p_star == pytest.approx(0.5, abs=1e-6)


def assert_payload_holds(cert, payload):
    """Every field of the certificate, its family bit for bit, survives
    the payload's JSON round trip."""
    again = json.loads(json.dumps(payload))
    lines = np.array(again.pop("family"), dtype=np.float64).reshape(-1, 2)
    assert lines[:, 0].tobytes() == cert.family.intercepts.tobytes()
    assert lines[:, 1].tobytes() == cert.family.slopes.tobytes()
    assert [again[key] for key in ("description", "k", "p_star", "gap",
                                   "resolution")] \
        == [cert.description, cert.k, cert.p_star, cert.gap, cert.resolution]


def test_certificate_json_roundtrip_and_verify():
    target = bl.discretized_box(bl.octahedron_cover())
    family = bl.affine_family(target, 1, up_to_k=True)
    cert = bl.find_hard_p(family, description="octahedron k=1", k=1)
    assert cert.verify()
    assert_payload_holds(cert, certificate_to_payload(cert))


def test_certificate_verify_rejects_tampering():
    target = bl.discretized_box(bl.octahedron_cover())
    family = bl.affine_family(target, 1, up_to_k=True)
    cert = bl.find_hard_p(family, k=1)
    bad = bl.GapCertificate(cert.description, cert.k, cert.family,
                            cert.p_star, cert.gap + 1e-3, cert.resolution)
    assert not bad.verify()


def test_epsilon_schedule_identity_and_monotone():
    sched = bl.epsilon_schedule(2, 2, 2, 2, 4, 0.01)
    assert sched.verify_identity()
    assert sched.bounds[0] == 65536
    assert all(e2 < e1 for e1, e2 in zip(sched.eps, sched.eps[1:]))
    for k, (bound, eps) in enumerate(zip(sched.bounds, sched.eps), start=1):
        assert k ** 4 * bound ** 2 * eps == pytest.approx(0.01 ** 2, rel=1e-9)


def test_epsilon_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        bl.epsilon_schedule(2, 2, 2, 2, 0, 0.01)
    with pytest.raises(ValueError):
        bl.epsilon_schedule(2, 2, 2, 2, 3, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_intersections_never_more_than_two(intercept, slope):
    # every finite float: any overflow warning in the kernel fails the test
    ell = AffineFunction(intercept, slope)
    roots = roots_of(ell)
    assert len(roots) <= 2
    assert roots == sorted(roots)
    assert 0.0 <= measure_one(ell, 1e-3) <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.51, max_value=0.99),
       st.floats(min_value=1e-6, max_value=1e-2))
def test_measure_bound_holds_for_random_tangents(p0, eps):
    assert measure_one(tangent_line(p0), eps) <= 8.0 * math.sqrt(eps)
