"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines, or use
`boxlab suite acceptance` for the same battery from the command line.
"""

import numpy as np
import pytest

from boxlab import acceptance, analysis, quantum


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=lambda c: c.__name__.removeprefix("criterion_"))
def test_criterion(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.details


def test_run_all_reports_every_criterion():
    results = acceptance.run_all()
    assert len(results) == len(acceptance.CRITERIA)
    assert all(r.passed for r in results)


# details that depend on the order of the seeded draws and on the kernels
# that check them, as the per-line and per-unitary loops recorded them
PINNED = {
    acceptance.criterion_intersections: {
        "worst_residual": 4.440892098500626e-16, "max_roots": 2},
    acceptance.criterion_property_suite: {
        "max_singlet_defect": 9.992007221626409e-16,
        "max_dot_product_dev": 1.1102230246251565e-15,
        "omega_dd_min": 0.5, "omega_dd_fd_dev": 2.8239533822471685e-08},
}


@pytest.mark.parametrize("criterion", PINNED,
                         ids=lambda c: c.__name__.removeprefix("criterion_"))
def test_draw_order_details_are_pinned(criterion):
    details = criterion().details
    assert {key: details[key] for key in PINNED[criterion]} == PINNED[criterion]


def test_the_intersection_lines_are_the_per_line_draws(monkeypatch):
    # the worst residual and root count hardly move with the lines, so the
    # lines themselves are checked: intercept, then slope, line by line
    families = []
    kernel = analysis.line_intersections
    monkeypatch.setattr(analysis, "line_intersections",
                        lambda family: families.append(family) or kernel(family))
    assert acceptance.criterion_intersections().passed
    rng = np.random.default_rng(5)
    lines = [(rng.normal(0.8, 0.4), rng.normal(0.0, 0.6)) for _ in range(10 ** 4)]
    [family] = families
    assert family.intercepts.tobytes() == np.array(lines)[:, 0].tobytes()
    assert family.slopes.tobytes() == np.array(lines)[:, 1].tobytes()


def test_the_property_suite_unitaries_are_the_per_call_draws(monkeypatch):
    # 1,000 unitaries for the defect, then 1,000 pairs (U, V), each the
    # matrix quantum.random_unitary draws next, bit for bit
    defects, pairs = [], []
    defect, measure = (quantum.singlet_invariance_defect,
                       quantum.singlet_measure_box)
    monkeypatch.setattr(quantum, "singlet_invariance_defect",
                        lambda v: defects.append(v) or defect(v))
    monkeypatch.setattr(quantum, "singlet_measure_box",
                        lambda u, v: pairs.append((u, v)) or measure(u, v))
    assert acceptance.criterion_property_suite().passed
    rng = np.random.default_rng(77)
    drawn = [quantum.random_unitary(rng) for _ in range(3000)]
    [(u, v)] = pairs
    assert np.array(defects).tobytes() == np.array(drawn[:1000]).tobytes()
    assert u.tobytes() == np.array(drawn[1000::2]).tobytes()
    assert v.tobytes() == np.array(drawn[1001::2]).tobytes()
