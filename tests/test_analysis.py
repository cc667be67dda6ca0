import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab as bl
from boxlab.analysis import (best_affine_fit, certificate_from_json,
                             certificate_to_json, omega_second_derivative,
                             tangent_line)
from boxlab.games import omega_prime
from boxlab.protocols import AffineFunction


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
        roots = bl.line_intersections(tangent_line(p0))
        assert len(roots) == 2
        assert roots[0] == pytest.approx(p0, abs=1e-6)
        assert roots[1] == pytest.approx(p0, abs=1e-6)


def test_secant_line_intersections_exact():
    # chord through (0.5, omega(0.5)) and (1, 1)
    p1, p2 = 0.5, 1.0
    slope = (bl.omega(p2) - bl.omega(p1)) / (p2 - p1)
    ell = AffineFunction(bl.omega(p1) - slope * p1, slope)
    roots = bl.line_intersections(ell)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(p1, abs=1e-9)
    assert roots[1] == pytest.approx(p2, abs=1e-9)


def test_line_below_omega_has_no_intersections():
    assert bl.line_intersections(AffineFunction(0.5, 0.0)) == []
    assert bl.line_intersections(AffineFunction(0.0, 0.3)) == []


@pytest.mark.parametrize("p1", [round(0.55 + 0.005 * i, 3) for i in range(88)])
def test_steep_line_reports_each_crossing_once(p1):
    # through (p1, omega(p1)), steeper than omega there: it crosses upward at
    # p1 and maybe back down later, never tangentially
    slope = omega_prime(p1) + 0.3
    ell = AffineFunction(bl.omega(p1) - slope * p1, slope)
    ps = np.linspace(0.5, 1.0, 20001)
    above = ell(ps) > bl.omega(ps)
    roots = bl.line_intersections(ell)
    assert len(roots) == int(np.count_nonzero(above[1:] != above[:-1]))
    assert len(set(roots)) == len(roots)
    assert roots[0] == pytest.approx(p1, abs=1e-9)


def test_intersections_residual_small():
    rng = np.random.default_rng(13)
    for _ in range(500):
        ell = AffineFunction(float(rng.uniform(0.4, 1.3)),
                             float(rng.uniform(-1.0, 1.0)))
        roots = bl.line_intersections(ell)
        assert len(roots) <= 2
        for r in roots:
            assert 0.5 - 1e-12 <= r <= 1.0 + 1e-12
            assert abs(float(ell(r)) - bl.omega(min(max(r, 0.5), 1.0))) <= 1e-10


def test_measure_near_tangent_sqrt_scaling():
    ell = tangent_line(0.75)
    for eps in (1e-2, 1e-3, 1e-4):
        m = bl.measure_near(ell, eps)
        assert 0.0 < m <= 8.0 * math.sqrt(eps)
    # log-log slope close to 1/2
    eps = np.logspace(-2, -6, 9)
    ms = [bl.measure_near(ell, float(e)) for e in eps]
    slope = np.polyfit(np.log(eps), np.log(ms), 1)[0]
    assert abs(slope - 0.5) <= 0.05


def test_measure_near_far_line_is_zero():
    assert bl.measure_near(AffineFunction(2.0, 0.0), 1e-3) == 0.0


def test_measure_near_saturates_for_large_epsilon():
    # the tangent at 0.75 stays within ~0.032 of omega on all of [1/2, 1],
    # so at epsilon = 0.25 the near set is the whole interval
    big = bl.measure_near(tangent_line(0.75), 0.25)
    assert big == pytest.approx(1.0, abs=1e-3)


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


def test_find_hard_p_octahedron_certificate():
    target = bl.discretized_box(bl.octahedron_cover())
    family = bl.affine_family(target, 1, up_to_k=True)
    cert = bl.find_hard_p(family, description="octahedron k=1")
    assert cert.gap > 1e-4
    assert cert.verify(1e-12)
    assert cert.gap == pytest.approx(np.sqrt(2) / 4 - 0.25, abs=1e-9)
    assert cert.p_star == pytest.approx(0.5, abs=1e-6)


def test_certificate_json_roundtrip_and_verify():
    target = bl.discretized_box(bl.octahedron_cover())
    family = bl.affine_family(target, 1, up_to_k=True)
    cert = bl.find_hard_p(family, description="octahedron k=1")
    again = certificate_from_json(certificate_to_json(cert))
    assert again.verify(1e-12)
    assert again.gap == cert.gap and again.p_star == cert.p_star


def test_certificate_verify_rejects_tampering():
    target = bl.discretized_box(bl.octahedron_cover())
    family = bl.affine_family(target, 1, up_to_k=True)
    cert = bl.find_hard_p(family)
    bad = bl.GapCertificate(cert.description, cert.k, cert.family,
                            cert.p_star, cert.gap + 1e-3, cert.resolution)
    assert not bad.verify(1e-12)


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
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_intersections_never_more_than_two(intercept, slope):
    roots = bl.line_intersections(AffineFunction(intercept, slope))
    assert len(roots) <= 2
    assert roots == sorted(roots)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.51, max_value=0.99),
       st.floats(min_value=1e-6, max_value=1e-2))
def test_measure_bound_holds_for_random_tangents(p0, eps):
    assert bl.measure_near(tangent_line(p0), eps) <= 8.0 * math.sqrt(eps)
