import functools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest

import boxlab as bl
from boxlab import boxes, sphere
from boxlab.sphere import (RADIUS_FIT, audit_cover,
                           cover_bell_spec, cover_from_payload,
                           cover_to_payload,
                           fibonacci_points, reduce_measurement)
from test_quantum import KET1

LADDER = (2.0, 0.5, 0.4, 0.3, 0.25, 0.2, 0.05)   # the benchmark's, and T = 4
T_SCALING_CAP = 10.0        # build_cover promises T <= 10 / epsilon^2


def kdtree_audit(points, n_probes):
    """Reference: the audit as one k-d tree query per probe row."""
    from scipy.spatial import cKDTree

    points = np.asarray(points, dtype=np.float64)
    n_theta = max(4, int(np.ceil(np.sqrt(n_probes / 2.0))))
    n_phi = 2 * n_theta
    d_theta = np.pi / n_theta
    d_phi = 2.0 * np.pi / n_phi
    tree = cKDTree(points)
    certified = 0.0
    thetas = (np.arange(n_theta) + 0.5) * d_theta
    phis = (np.arange(n_phi) + 0.5) * d_phi
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    for theta in thetas:
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        probes = np.column_stack([sin_t * cos_p, sin_t * sin_p,
                                  np.full(n_phi, cos_t)])
        dists, _ = tree.query(probes)
        sin_max = max(np.sin(theta - d_theta / 2.0),
                      np.sin(theta + d_theta / 2.0))
        if theta - d_theta / 2.0 < np.pi / 2.0 < theta + d_theta / 2.0:
            sin_max = 1.0
        cell_bound = 0.5 * np.hypot(d_theta, sin_max * d_phi)
        certified = max(certified, float(dists.max()) + cell_bound)
    return certified


def loop_nearest(points, probes):
    """Reference: the nearest index of each probe, one probe at a time."""
    return np.array([int(np.argmin(((points - c) ** 2).sum(axis=1)))
                     for c in probes], dtype=np.intp)


def cover_size(eps):
    return max(4, int(np.ceil((RADIUS_FIT / eps) ** 2)))


def finished_probes(monkeypatch):
    """Patch the audit's exact step to count the probes it is given."""
    counted = []
    kernel = sphere._nearest

    def counting(probes, points, reduce):
        if reduce is np.min:
            counted.append(len(probes))
        return kernel(probes, points, reduce)

    monkeypatch.setattr(sphere, "_nearest", counting)
    return counted


def test_fibonacci_points_on_sphere():
    pts = fibonacci_points(500)
    assert pts.shape == (500, 3)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12


def test_audit_is_an_upper_bound_on_sampled_distances():
    pts = fibonacci_points(200)
    certified = audit_cover(pts, 20000)
    rng = np.random.default_rng(2)
    samples = rng.normal(size=(5000, 3))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    worst = max(np.linalg.norm(pts - s, axis=1).min() for s in samples)
    assert worst <= certified


def test_octahedron_cover_radius():
    cover = bl.octahedron_cover()
    assert cover.points.shape == (6, 3)
    # worst point of the octahedron cover is a cube vertex at chord
    # distance sqrt(2 - 2/sqrt(3)) ~ 0.9194
    exact = np.sqrt(2.0 - 2.0 / np.sqrt(3.0))
    assert exact <= cover.covering_radius <= 0.94


def test_build_cover_meets_size_and_radius_targets():
    cover = bl.build_cover(0.2)
    t = len(cover.points)
    assert cover.covering_radius <= 0.2
    assert t <= 250
    assert t <= T_SCALING_CAP / 0.2 ** 2
    assert t >= (RADIUS_FIT / 0.2) ** 2 * 0.5


def test_scaling_law_across_epsilons():
    for eps in (0.5, 0.3, 0.1):
        cover = bl.build_cover(eps)
        assert cover.covering_radius <= eps
        assert len(cover.points) * eps ** 2 <= T_SCALING_CAP


def test_nearest_returns_closest_point():
    cover = bl.octahedron_cover()
    near_x = bl.unitary_for_point(np.array([0.9, 0.1, 0.0]) / np.hypot(0.9, 0.1))
    assert reduce_measurement(near_x, near_x, cover) == (0, 0)
    rng = np.random.default_rng(8)
    for _ in range(100):
        u, v = bl.random_unitary(rng), bl.random_unitary(rng)
        for i, w in zip(reduce_measurement(u, v, cover), (u, v)):
            c = bl.bloch_of(np.linalg.inv(w) @ KET1)
            dists = np.linalg.norm(cover.points - c, axis=1)
            assert dists[i] == dists.min()


@pytest.mark.parametrize("matrix", [[[1, 1], [0, 1]], [[2, 0], [0, 1]]])
def test_reduce_measurement_refuses_a_matrix_that_is_not_unitary(matrix):
    # U^-1|1> is read as U^dagger|1>, which only a unitary makes equal
    identity = np.eye(2)
    for u, v in ((matrix, identity), (identity, matrix)):
        with pytest.raises(ValueError, match="not unitary"):
            reduce_measurement(np.array(u), np.array(v), bl.octahedron_cover())


def test_discretized_box_matches_dot_products():
    cover = bl.octahedron_cover()
    box = bl.discretized_box(cover)
    t = len(cover.points)
    assert box.table.shape == (t, t, 2, 2)
    assert bl.is_nonsignaling(box)
    for i in range(t):
        for j in range(t):
            dot = float(cover.points[i] @ cover.points[j])
            want = 0.5 - 0.5 * dot
            got = box.table[i, j, 0, 0] + box.table[i, j, 1, 1]
            assert abs(got - want) <= 1e-12


def test_cover_bell_spec_reconstructs_discretized_box():
    cover = bl.octahedron_cover()
    spec = cover_bell_spec(cover)
    quantum = bl.bell_box(spec, bl.SINGLET)
    assert bl.tv_closeness(quantum, bl.discretized_box(cover)) <= 1e-10


def test_reduce_measurement_snaps_to_lattice():
    cover = bl.build_cover(0.3)
    rng = np.random.default_rng(5)
    for _ in range(100):
        u, v = bl.random_unitary(rng), bl.random_unitary(rng)
        i, j = reduce_measurement(u, v, cover)
        x = bl.bloch_of(np.linalg.inv(u) @ KET1)
        y = bl.bloch_of(np.linalg.inv(v) @ KET1)
        assert np.linalg.norm(cover.points[i] - x) <= cover.covering_radius
        assert np.linalg.norm(cover.points[j] - y) <= cover.covering_radius


def test_verify_reduction_within_radius():
    cover = bl.build_cover(0.2)
    max_tv, mean_tv = bl.verify_reduction(cover, trials=300, seed=7)
    assert 0.0 < mean_tv < max_tv <= 0.2
    # deterministic given the seed
    again = bl.verify_reduction(cover, trials=300, seed=7)
    assert again == (max_tv, mean_tv)


def reference_tvs(cover, trials, seed):
    """The TV of each trial of verify_reduction, as a per-trial loop over
    the whole T x T box."""
    box = bl.discretized_box(cover)
    tvs = np.empty(trials)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    for trial in range(trials):
        u = bl.random_unitary(rng)
        v = bl.random_unitary(rng)
        i, j = reduce_measurement(u, v, cover)
        exact = bl.singlet_measure_box(u, v)
        tvs[trial] = 0.5 * np.abs(exact - box.table[i, j]).sum()
    return tvs


def reference_verify_reduction(cover, trials, seed):
    tvs = reference_tvs(cover, trials, seed)
    return float(tvs.max()), float(tvs.mean())


@pytest.mark.parametrize("eps,trials,seed", [(0.5, 300, 1), (0.4, 1000, 7),
                                             (0.3, 500, 123), (0.2, 1000, 7)])
def test_verify_reduction_equals_the_per_trial_loop(eps, trials, seed):
    cover = bl.build_cover(eps)
    assert (bl.verify_reduction(cover, trials, seed)
            == reference_verify_reduction(cover, trials, seed))


def test_verify_reduction_of_n_trials_is_a_prefix_of_one_stream():
    cover = bl.build_cover(0.3)
    tvs = reference_tvs(cover, 1000, 11)
    for n in (1, 17, 300):
        assert (bl.verify_reduction(cover, n, 11)
                == (float(tvs[:n].max()), float(tvs[:n].mean())))


@pytest.mark.parametrize("eps", (0.5, 0.2, 0.05))
def test_verify_reduction_dots_are_the_discretized_box_entries(monkeypatch,
                                                              eps):
    seen = {}
    snap, rows = sphere._snap, sphere._singlet_rows

    def snapping(uv, cover):
        seen["ij"] = snap(uv, cover)
        return seen["ij"]

    def singlet_rows(dots):
        seen["dots"] = dots
        return rows(dots)

    monkeypatch.setattr(sphere, "_snap", snapping)
    monkeypatch.setattr(sphere, "_singlet_rows", singlet_rows)
    cover = bl.build_cover(eps)
    bl.verify_reduction(cover, 2000, seed=3)
    i, j = seen["ij"].T
    # discretized_box is _singlet_rows of this T x T product
    assert np.array_equal(seen["dots"], (cover.points @ cover.points.T)[i, j])


def test_verify_reduction_memory_grows_with_trials_not_t_squared():
    cover = bl.build_cover(0.05)            # T = 3481: the T x T box is 388 MB
    tracemalloc.start()
    try:
        bl.verify_reduction(cover, 20, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_verify_reduction_runs_in_blocks_of_trials(monkeypatch, block_walks):
    cover = bl.build_cover(0.3)
    tvs = reference_tvs(cover, 1000, 9)

    def peak_of(trials):
        tracemalloc.start()
        try:
            got = bl.verify_reduction(cover, trials, seed=9)
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # blocks of 64 trials: 1000 trials span 16 blocks of one stream
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 128 * 64)
    (max_tv, mean_tv), _ = peak_of(1000)
    assert max_tv == float(tvs.max())
    assert mean_tv == float(sum(tvs[s:s + 64].sum()
                                for s in range(0, 1000, 64)) / 1000)
    assert mean_tv == pytest.approx(float(tvs.mean()), rel=1e-14)
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 128 * 4096)
    _, one_block = peak_of(4096)
    _, blocks = peak_of(3 * 4096 + 100)
    # four blocks take the memory of one, about 3 MB; 12,388 trials in one
    # block take 9 MB
    assert blocks < 1.5 * one_block
    # the trial walks; the distance kernels walk in DISTANCE_BLOCK entries
    assert [walk.sizes for walk in block_walks if walk.cap is None] \
        == [[64] * 15 + [40], [4096], [4096] * 3 + [100]]


def test_verify_reduction_blocks_stay_within_the_table_cap(block_walks):
    # two real blocks of PATH_TABLE_CAP // 128 trials at T = 97; one block of
    # PATH_TABLE_CAP // 16 trials peaked at about 185 MB
    cover = bl.build_cover(0.3)
    assert cover.size == 97
    trials = boxes.PATH_TABLE_CAP // 128 + 100
    tracemalloc.start()
    try:
        bl.verify_reduction(cover, trials, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < boxes.PATH_TABLE_CAP * 8
    assert [walk.sizes for walk in block_walks if walk.cap is None] \
        == [[boxes.PATH_TABLE_CAP // 128, 100]]


def test_import_leaves_scipy_out(fresh_python):
    # import, cover building and the CLI's cover command, one after another
    code = """
import sys
import boxlab
from boxlab.cli import main
seen = ['scipy' in sys.modules]
boxlab.build_cover(0.2)
seen.append('scipy' in sys.modules)
boxlab.octahedron_cover()
seen.append('scipy' in sys.modules)
assert main(['cover', 'build', '--epsilon', '0.3', '--out', 'c.json']) == 0
seen.append('scipy' in sys.modules)
print(seen)
"""
    assert fresh_python(code) == "[False, False, False, False]"


# T in 4..60 whose lattice audit finishes two probes, one per call: the
# 2 x 2 block with the largest coarse bound finishes its top probe first,
# and these lattices hold their largest value in another block
TWO_FINISHES = (5, 6, 8, 10, 12, 14, 15, 17, 18, 19, 21, 22, 25, 27, 28, 30,
                31, 32, 37, 40, 41, 42, 43, 44, 45, 46, 48, 49, 50, 51, 52,
                54, 55, 56, 58)
# probes finished on the cover ladder, equal for a permuted cover
LADDER_FINISHES = {2.0: [1], 0.5: [1], 0.4: [1, 1], 0.3: [1, 1],
                   0.25: [1, 1], 0.2: [1], 0.05: [1, 1, 1]}


def test_audit_equals_the_kdtree_audit_on_fibonacci_lattices(monkeypatch):
    counted = finished_probes(monkeypatch)
    for t in range(4, 61):
        counted.clear()
        points = fibonacci_points(t)
        got = audit_cover(points, 100 * t)
        assert got == kdtree_audit(points, 100 * t)
        assert type(got) is float
        # the lattice seed is exact around the maximum: one probe finishes
        # per 2 x 2 block that holds a value above those found before
        assert counted == ([1, 1] if t in TWO_FINISHES else [1])


@pytest.mark.parametrize("eps", LADDER)
def test_audit_equals_the_kdtree_audit_on_the_cover_ladder(monkeypatch, eps):
    counted = finished_probes(monkeypatch)
    points = fibonacci_points(cover_size(eps))
    got = audit_cover(points, 100 * len(points))
    assert got == kdtree_audit(points, 100 * len(points))
    assert type(got) is float
    assert counted == LADDER_FINISHES[eps]
    cover = bl.build_cover(eps)
    assert np.array_equal(cover.points, points)
    assert cover.covering_radius == got
    # sorted by descending z, a permuted lattice is in index order again
    counted.clear()
    order = np.random.default_rng(43).permutation(len(points))
    assert audit_cover(points[order], 100 * len(points)) == got
    assert counted == LADDER_FINISHES[eps]


def test_audit_equals_the_kdtree_audit_on_a_large_lattice(monkeypatch):
    counted = finished_probes(monkeypatch)
    points = fibonacci_points(9670)
    assert audit_cover(points, 967000) == kdtree_audit(points, 967000)
    assert counted == [1, 1]


def probe_count(n_probes):
    n_theta = max(4, int(np.ceil(np.sqrt(n_probes / 2.0))))
    return n_theta, 2 * n_theta * n_theta


def test_audit_equals_the_kdtree_audit_on_odd_grid_edges(monkeypatch):
    # 400 and 700 probes make grids of 15 and 19 rows: the last 2 x 2 block
    # of rows holds one row
    counted = finished_probes(monkeypatch)
    for t in (4, 5, 7):
        points = fibonacci_points(t)
        assert audit_cover(points, 100 * t) == kdtree_audit(points, 100 * t)
    assert [probe_count(100 * t)[0] % 2 for t in (4, 5, 7)] == [1, 0, 1]
    assert counted == [1, 1, 1, 1]


def test_audit_equals_the_kdtree_audit_on_other_point_sets(monkeypatch):
    counted = finished_probes(monkeypatch)
    rng = np.random.default_rng(41)
    turn = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    for t in (4, 9, 55, 218):
        lattice = fibonacci_points(t)
        scattered = rng.normal(size=(t, 3))
        scattered /= np.linalg.norm(scattered, axis=1, keepdims=True)
        for points in (lattice[::-1], lattice[rng.permutation(t)], scattered,
                       lattice @ turn.T):
            assert audit_cover(points, 100 * t) == kdtree_audit(points, 100 * t)
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    for probes in (600, 20000):
        counted.clear()
        radius = audit_cover(octahedron, probes)
        assert radius == kdtree_audit(octahedron, probes)
        # its 6 points give exact seeds, so only the largest values finish
        assert sum(counted) <= 4
        assert type(radius) is float
    assert radius == 0.9286412092862907
    assert bl.octahedron_cover().covering_radius == radius


@pytest.mark.parametrize("t", range(4, sphere.EXACT_SEED_POINTS + 5))
def test_audit_equals_the_kdtree_audit_around_the_exact_seed_size(t):
    # random sets on both sides of EXACT_SEED_POINTS, spread over the
    # sphere or clustered around a pole, with a repeated point
    rng = np.random.default_rng(100 + t)
    for spread in (1.0, 1.0, 0.3, 0.05):
        points = rng.normal(size=(t, 3)) * spread + [0.0, 0.0, 1.0 - spread]
        points[-1] = points[0]
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        assert audit_cover(points, 100 * t) == kdtree_audit(points, 100 * t)


def test_audit_blocks_are_bounded_in_memory():
    points = fibonacci_points(cover_size(0.05))        # T = 3,481
    tracemalloc.start()
    try:
        audit_cover(points, 100 * len(points))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks of DISTANCE_BLOCK probes: about 3 MB, where the 349,448-probe
    # grid in one block would take 28 MB
    assert peak < 8e6


def test_nearest_kernel_equals_the_per_point_loop(monkeypatch):
    rng = np.random.default_rng(12)
    octahedron = bl.octahedron_cover()
    # exact ties go to the smallest index
    tie = np.array([[1.0, 1.0, 0.0], [0.0, -1.0, -1.0], [1.0, 1.0, 1.0],
                    [-1.0, -1.0, -1.0]])
    tie /= np.linalg.norm(tie, axis=1, keepdims=True)
    got = sphere._nearest(tie, octahedron.points, np.argmin)
    assert got.tolist() == loop_nearest(octahedron.points, tie).tolist()
    assert got[0] == 0
    # through reduce_measurement: each point tied with its copy goes to the
    # first, the copy's index less T
    doubled = bl.SphereCover(np.vstack([octahedron.points] * 2),
                             octahedron.covering_radius)
    draws = np.random.default_rng(14)
    for _ in range(20):
        u, v = bl.random_unitary(draws), bl.random_unitary(draws)
        assert reduce_measurement(u, v, doubled) \
            == reduce_measurement(u, v, octahedron)
    covers = (octahedron, bl.build_cover(0.3))
    probes = rng.normal(size=(500, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    wants = [loop_nearest(cover.points, probes) for cover in covers]
    for block in (sphere.DISTANCE_BLOCK, 1000):     # one block, then many
        monkeypatch.setattr(sphere, "DISTANCE_BLOCK", block)
        for cover, want in zip(covers, wants):
            got = sphere._nearest(probes, cover.points, np.argmin)
            assert np.array_equal(got, want)


def test_snap_equals_the_per_point_loop():
    # the reference reads each direction as U^-1 |1> through a matrix inverse
    rng = np.random.default_rng(13)
    uv = np.array([[bl.random_unitary(rng) for _ in range(2)]
                   for _ in range(2000)])
    points = bl.bloch_of(np.linalg.inv(uv) @ KET1).reshape(-1, 3)
    for cover in (bl.octahedron_cover(), *map(bl.build_cover, LADDER)):
        want = loop_nearest(cover.points, points)
        assert np.array_equal(sphere._snap(uv, cover), want.reshape(2000, 2))


def test_tv_bounded_by_half_chord_distance():
    # TV between singlet rows at (x, y) and (x', y') is at most
    # (|x - x'| + |y - y'|) / 2; the reduction verifier relies on this
    cover = bl.build_cover(0.4)
    rng = np.random.default_rng(19)
    for _ in range(200):
        u, v = bl.random_unitary(rng), bl.random_unitary(rng)
        i, j = reduce_measurement(u, v, cover)
        row = bl.singlet_measure_box(u, v)
        snapped = bl.discretized_box(cover).table[i, j]
        x = bl.bloch_of(np.linalg.inv(u) @ KET1)
        y = bl.bloch_of(np.linalg.inv(v) @ KET1)
        dist = (np.linalg.norm(cover.points[i] - x)
                + np.linalg.norm(cover.points[j] - y))
        assert 0.5 * np.abs(row - snapped).sum() <= dist / 2.0 + 1e-12


def test_cover_json_roundtrip():
    for cover in (bl.build_cover(0.35), bl.build_cover(2.0),
                  bl.octahedron_cover()):
        again = cover_from_payload(json.loads(json.dumps(
            cover_to_payload(cover))))
        assert np.array_equal(cover.points, again.points)
        assert again.covering_radius == cover.covering_radius


@pytest.mark.parametrize("path,value", [
    (("points", 0, 0), "1.0"), (("points", 5, 2), True),
    (("covering_radius",), "0.93"), (("covering_radius",), None)])
def test_non_numeric_cover_payload_entries_are_refused(path, value):
    payload = cover_to_payload(bl.octahedron_cover())
    *outer, last = path
    functools.reduce(operator.getitem, outer, payload)[last] = value
    with pytest.raises(ValueError, match="cover entry .* is not a number"):
        cover_from_payload(payload)


def test_cover_from_payload_audits_the_radius():
    cover = bl.build_cover(0.5)
    text = json.dumps(cover_to_payload(cover))
    # a larger claim loads with the audited radius
    loose = text.replace(repr(cover.covering_radius), "1.5")
    assert cover_from_payload(json.loads(loose)).covering_radius \
        == cover.covering_radius
    order = np.random.default_rng(44).permutation(cover.size)
    shuffled = bl.SphereCover(cover.points[order], cover.covering_radius)
    again = cover_from_payload(json.loads(json.dumps(
        cover_to_payload(shuffled))))
    assert again.covering_radius == cover.covering_radius
    for claim in ("0.001", "-1.0"):
        with pytest.raises(ValueError, match="below the audited radius"):
            cover_from_payload(json.loads(
                text.replace(repr(cover.covering_radius), claim)))


@pytest.mark.parametrize("path,value,message", [
    (("covering_radius",), float("nan"), "covering_radius nan is not finite"),
    (("covering_radius",), float("inf"), "covering_radius inf is not finite"),
    (("covering_radius",), float("-inf"), "covering_radius -inf is not finite"),
    (("points", 1), [0.0, 1.0], "points must be rows of 3 coordinates"),
    (("points", 1), [0.0, 1.0, 0.0, 0.0], "points must be rows of 3 "),
    (("points",), [1.0, 0.0, 0.0], "points must be rows of 3 coordinates"),
    (("points", 1, 2), [0.0], "cover entry \\[0.0\\] is not a number")])
def test_a_bad_cover_payload_is_refused_naming_its_fault(path, value, message):
    # NaN and Infinity as json.loads reads the JSON literals
    payload = cover_to_payload(bl.octahedron_cover())
    *outer, last = path
    functools.reduce(operator.getitem, outer, payload)[last] = value
    with pytest.raises(ValueError, match="^%s" % message):
        cover_from_payload(json.loads(json.dumps(payload)))


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_a_cover_radius_must_be_finite(radius):
    points = bl.octahedron_cover().points
    with pytest.raises(ValueError, match="covering_radius .* is not finite"):
        bl.SphereCover(points, radius)


def test_build_cover_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        bl.build_cover(0.0)
    with pytest.raises(ValueError):
        bl.build_cover(2.5)


def test_build_cover_refuses_more_than_the_table_cap_before_building(
        monkeypatch):
    built = []
    lattice = sphere.fibonacci_points

    def building(n):
        built.append(n)
        return lattice(n)

    monkeypatch.setattr(sphere, "fibonacci_points", building)
    # 3T <= PATH_TABLE_CAP holds down to epsilon ~ 0.0025, T = 1,398,101
    for eps in (0.0024, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="more than 4194304 coordinates"):
            bl.build_cover(eps)
    assert built == []
    # epsilon 0.5 asks for T = 35 first, 46 on a retry; a cap of 3 * 35
    # coordinates builds the first and refuses the retry
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 3 * 35)
    monkeypatch.setattr(sphere, "audit_cover", lambda points, n_probes: 1.0)
    with pytest.raises(ValueError, match="more than 105 coordinates"):
        bl.build_cover(0.5)
    assert built == [35]
