"""Desk-scale acceptance battery.

Each criterion returns a CriterionResult; run_all executes the whole list.
All numeric tolerances are pinned here, next to the checks they gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import boxes, games, protocols, analysis, sphere, quantum

# golden value, recorded on first computation of the octahedron k=1 pipeline
OCTAHEDRON_GAP = 0.10355339059327373
OCTAHEDRON_P_STAR = 0.5


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = field(default=0.0, compare=False)  # wall time, set by run_all

    def line(self) -> str:
        return "%s %s" % ("PASS" if self.passed else "FAIL", self.name)


def criterion_tsirelson_anchor() -> CriterionResult:
    """Optimized strategies hit omega(p) within 1e-6 and never beat it."""
    ps = np.round(np.arange(0.5, 1.0001, 0.05), 10)
    achieved = [games.achieved_win_prob(p) for p in ps.tolist()]
    short = games.omega(ps) - achieved
    worst_short = max(0.0, float(short.max()))
    worst_over = max(0.0, float(-short.min()))
    passed = worst_short <= 1e-6 and worst_over <= 1e-9
    return CriterionResult("tsirelson_omega_anchor", passed,
                           {"worst_shortfall": worst_short,
                            "worst_overshoot": worst_over,
                            "achieved": dict(zip(ps.tolist(), achieved))})


def criterion_classical_chsh() -> CriterionResult:
    """Local deterministic maximum is exactly 3/4; PR wins with certainty."""
    local_max = max(games.win_prob(b, 0.5, 0.5)
                    for b in protocols.local_deterministic_boxes())
    pr = boxes.pr_box()
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]    # dyadic, so the sum is exact
    pr_ok = all(games.win_prob(pr, p, q) == 1.0 for p in grid for q in grid)
    passed = local_max == 0.75 and pr_ok
    return CriterionResult("classical_chsh_bound", passed,
                           {"local_max": local_max, "pr_wins_grid": pr_ok})


def criterion_counting_bound() -> CriterionResult:
    """1-query binary protocol count matches the product formula and bound.

    The product formula |X|^2 |Y|^2 2^4 2^4 evaluates to 4*4*16*16 = 4096
    for all-binary alphabets (not 16384; see the enumeration oracle), and is
    at most (2|X|)^(2|A|) * (2|Y|)^(2|B|) = 65536.
    """
    al = protocols.BINARY
    enumerated = sum(1 for _ in protocols.enumerate_protocols(al, 1))
    formula = protocols.count_protocols(al, 1)
    bound = protocols.counting_bound(al, 1)
    passed = enumerated == formula == 4 * 4 * 16 * 16 and formula <= bound == 65536
    return CriterionResult("protocol_counting_bound", passed,
                           {"enumerated": enumerated, "formula": formula,
                            "bound": bound})


def criterion_affine_consistency() -> CriterionResult:
    """affine_of agrees with win_prob of the induced box at 3 p-values."""
    rng = np.random.default_rng(20240)
    al = protocols.BINARY
    worst = 0.0
    for _ in range(100):
        table = rng.random((2, 2, 2, 2))
        table /= table.sum(axis=(2, 3), keepdims=True)
        target = boxes.CorrelationBox(table)
        protocol = _random_protocol(rng, al, k=1)
        ell = protocols.affine_of(protocol, target)
        induced = protocols.induced_box(protocol, target)
        for p in (0.5, 0.7, 1.0):
            worst = max(worst, abs(float(ell(p))
                                   - games.win_prob(induced, p, 0.5)))
    return CriterionResult("affine_consistency", worst <= 1e-12,
                           {"worst_deviation": worst})


def _random_protocol(rng, al, k):
    q_maps = tuple(tuple(rng.integers(0, al.x2, al.x1 * al.a2 ** i).tolist())
                   for i in range(k))
    r_maps = tuple(tuple(rng.integers(0, al.y2, al.y1 * al.b2 ** i).tolist())
                   for i in range(k))
    s_map = tuple(rng.integers(0, al.a1, al.x1 * al.a2 ** k).tolist())
    t_map = tuple(rng.integers(0, al.b1, al.y1 * al.b2 ** k).tolist())
    return protocols.DeterministicProtocol(al, k, q_maps, r_maps, s_map, t_map)


def criterion_intersections() -> CriterionResult:
    """10^4 random lines each meet omega at most twice, residuals <= 1e-10."""
    rng = np.random.default_rng(5)
    # per line its intercept, then its slope
    c, m = rng.normal((0.8, 0.0), (0.4, 0.6), (10 ** 4, 2)).T
    roots = analysis.line_intersections(protocols.LineFamily(c, m))
    found = ~np.isnan(roots)
    residual = np.abs(c[:, None] + m[:, None] * roots - games.omega(roots))
    worst_residual = float(residual.max(initial=0.0, where=found))
    max_roots = int(found.sum(axis=1).max())
    passed = max_roots <= 2 and worst_residual <= 1e-10
    return CriterionResult("line_intersections", passed,
                           {"max_roots": max_roots,
                            "worst_residual": worst_residual})


def criterion_sqrt_eps_measure() -> CriterionResult:
    """measure_near <= 8*sqrt(eps); tangent-line log-log slope is 0.5 +- 0.05."""
    lines = [*map(analysis.tangent_line, (0.55, 0.6, 0.7, 0.75, 0.8)),
             analysis.best_affine_fit()]
    family = protocols.LineFamily([ell.intercept for ell in lines],
                                  [ell.slope for ell in lines])
    eps_grid = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    measures = np.array([analysis.measure_near(family, e) for e in eps_grid])
    bound_ok = bool((measures[:3] <= 8.0 * np.sqrt(eps_grid[:3, None])).all())
    # each tangent's log-log fit; the fitted line has no power law
    slopes = [float(np.polyfit(np.log(eps_grid), np.log(column), 1)[0])
              for column in measures[:, :-1].T]
    slope_ok = all(abs(s - 0.5) <= 0.05 for s in slopes)
    return CriterionResult("sqrt_eps_measure_law", bound_ok and slope_ok,
                           {"bound_ok": bound_ok, "slopes": slopes})


def criterion_gap_certificate() -> CriterionResult:
    """Octahedron-box k=1 pipeline emits a self-verifying gap > 1e-4."""
    box = sphere.discretized_box(sphere.octahedron_cover())
    family = protocols.affine_family(box, 1)
    cert = analysis.find_hard_p(family, description="octahedron cover box, k=1",
                                k=1)
    passed = (cert.gap > 1e-4 and cert.verify()
              and abs(cert.gap - OCTAHEDRON_GAP) <= 1e-9
              and abs(cert.p_star - OCTAHEDRON_P_STAR) <= 1e-9)
    return CriterionResult("gap_certificate", passed,
                           {"p_star": cert.p_star, "gap": cert.gap,
                            "family_size": len(family)})


def criterion_epsilon_schedule() -> CriterionResult:
    """k^4 * bound_k^2 * eps_k = c^2 exactly, for binary alphabets, k <= 3."""
    sched = analysis.epsilon_schedule(2, 2, 2, 2, 3, 0.01)
    identity_ok = sched.verify_identity()
    # the asymptotic lower-bound inequality, with the constant c^2 that the
    # exact identity implies
    ineq_ok = all((k + 1) ** 4 * b * b >= sched.c * sched.c * (1 / e)
                  for k, (b, e) in enumerate(zip(sched.bounds, sched.eps_exact)))
    passed = identity_ok and ineq_ok and sched.bounds[0] == 65536
    return CriterionResult("epsilon_schedule", passed,
                           {"bounds": [str(b) for b in sched.bounds],
                            "eps": list(sched.eps)})


def criterion_sphere_cover() -> CriterionResult:
    """Audited covers, the 1-query reduction error, and the 1/eps^2 scaling."""
    cover = sphere.build_cover(0.2)
    max_tv, mean_tv = sphere.verify_reduction(cover, 1000, seed=7)
    box = sphere.discretized_box(cover)
    bell = quantum.bell_box(sphere.cover_bell_spec(cover), quantum.SINGLET)
    recon_dev = float(np.abs(box.table - bell.table).max())
    scaling_ok = all(sphere.build_cover(e).size * e * e <= 10.0
                     for e in (0.5, 0.1, 0.05))
    passed = (cover.size <= 250 and cover.covering_radius <= 0.2
              and max_tv <= 0.2 and mean_tv < max_tv
              and recon_dev <= 1e-10
              and cover.size * 0.04 <= 10.0 and scaling_ok)
    return CriterionResult("sphere_cover_positive_result", passed,
                           {"T": cover.size, "radius": cover.covering_radius,
                            "max_tv": max_tv, "mean_tv": mean_tv,
                            "bell_reconstruction_dev": recon_dev})


def criterion_property_suite() -> CriterionResult:
    """Normalization, non-signaling, singlet invariance, dot-product law,
    convexity of omega, direct-sum restriction fidelity."""
    rng = np.random.default_rng(77)
    details: dict = {}

    # the defect is rounded one matrix at a time
    defect = max(map(quantum.singlet_invariance_defect,
                     quantum._haar(rng, (1000,))))
    details["max_singlet_defect"] = defect

    uv = quantum._haar(rng, (1000, 2))
    rows = quantum.singlet_measure_box(uv[:, 0], uv[:, 1])
    amp_path = boxes.agreement(rows)[0]
    xy = quantum.point_for_unitary(uv)
    law = boxes.agreement(sphere._paired_rows(xy[:, 0], xy[:, 1]))[0]
    dot_dev = float(np.abs(amp_path - law).max())
    details["max_dot_product_dev"] = dot_dev

    xs = np.linspace(0.5, 1.0, 101)
    second = analysis.omega_second_derivative(xs)
    h, inner = 1e-4, xs[1:-1]
    fd = (games.omega(inner + h) - 2 * games.omega(inner)
          + games.omega(inner - h)) / (h * h)
    fd_dev = float(np.abs(fd - second[1:-1]).max())
    details["omega_dd_min"] = float(second.min())
    details["omega_dd_fd_dev"] = fd_dev

    spec1 = games.optimal_strategy(0.5).to_bell_spec()
    spec2 = games.optimal_strategy(0.75).to_bell_spec()
    combined = quantum.direct_sum_bell(spec1, spec2)
    big = quantum.bell_box(combined, quantum.SINGLET)
    block1 = quantum.restrict_box(big, (0, 1), (0, 1), (0, 1), (0, 1))
    restrict_tv = boxes.tv_closeness(block1,
                                     quantum.bell_box(spec1, quantum.SINGLET))
    details["direct_sum_restriction_tv"] = restrict_tv

    ns_ok = all(boxes.is_nonsignaling(b) for b in
                [boxes.pr_box(), big,
                 boxes.mix([boxes.pr_box(), boxes.local_box([0, 1], [0, 1])],
                           [0.5, 0.5]),
                 protocols.induced_box(protocols.identity_protocol(),
                                       boxes.pr_box())])
    details["nonsignaling_ok"] = ns_ok

    passed = (defect <= 1e-10 and dot_dev <= 1e-10 and second.min() >= 0.5
              and fd_dev <= 1e-6 and restrict_tv == 0.0 and ns_ok)
    return CriterionResult("property_suites", passed, details)


CRITERIA = [
    criterion_tsirelson_anchor,
    criterion_classical_chsh,
    criterion_counting_bound,
    criterion_affine_consistency,
    criterion_intersections,
    criterion_sqrt_eps_measure,
    criterion_gap_certificate,
    criterion_epsilon_schedule,
    criterion_sphere_cover,
    criterion_property_suite,
]


def run_all() -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        start = time.perf_counter()
        results.append(fn())
        results[-1].seconds = time.perf_counter() - start
    return results
