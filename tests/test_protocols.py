import functools
import itertools
import json
import math
import operator
import sys
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

import boxlab as bl
from boxlab import boxes, protocols
from boxlab.protocols import (BINARY, AffineFunction, Alphabets, LineFamily,
                              local_deterministic_boxes,
                              protocol_from_payload, protocol_to_payload)
from boxlab.sphere import build_cover


def key(ell):
    """The dedup key of one line, the scalar form of affine_family's rule:
    both coefficients over DEDUP_TOL, rounded half to even."""
    scale = 1.0 / protocols.DEDUP_TOL
    return (round(ell.intercept * scale), round(ell.slope * scale))


def same_lines(fam1, fam2):
    """Two families hold the same lines in the same order, bit for bit."""
    return (np.array_equal(fam1.intercepts, fam2.intercepts)
            and np.array_equal(fam1.slopes, fam2.slopes))


def k0_protocol(s_map, t_map):
    return bl.DeterministicProtocol(BINARY, 0, (), (), tuple(s_map),
                                    tuple(t_map))


def test_k0_equals_local_box():
    protocol = k0_protocol((0, 1), (1, 0))
    induced = bl.induced_box(protocol, bl.pr_box())
    assert bl.tv_closeness(induced, bl.local_box([0, 1], [1, 0])) == 0.0


def test_identity_protocol_reproduces_pr():
    protocol = bl.identity_protocol()
    ok, tv = bl.check_reduction(protocol, bl.pr_box(), bl.pr_box(), 0.0)
    assert ok and tv == 0.0


def test_one_query_pr_protocol_wins_chsh():
    best = max(bl.win_prob(bl.induced_box(pi, bl.pr_box()), 0.5, 0.5)
               for pi in bl.enumerate_protocols(BINARY, 1))
    assert best == 1.0


def test_counting():
    assert bl.count_protocols(BINARY, 0) == 16
    assert bl.count_protocols(BINARY, 1) == 4096
    assert bl.counting_bound(BINARY, 1) == 65536
    assert sum(1 for _ in bl.enumerate_protocols(BINARY, 0)) == 16
    assert sum(1 for _ in bl.enumerate_protocols(BINARY, 1)) == 4096


def test_enumeration_cap():
    big = Alphabets(2, 2, 2, 2, 10, 10, 4, 4)
    with pytest.raises(ValueError):
        next(bl.enumerate_protocols(big, 2))


def test_enumeration_yields_distinct_protocols():
    seen = set(pi for pi in bl.enumerate_protocols(BINARY, 0))
    assert len(seen) == 16


def test_randomized_protocol_mixture_linearity():
    # shared randomness picks a deterministic protocol; the box it induces
    # is bl.mix of the induced boxes, and its win probability their mean
    p1 = k0_protocol((0, 0), (0, 0))
    p2 = k0_protocol((1, 1), (1, 1))
    target = bl.pr_box()
    b1, b2 = bl.induced_box(p1, target), bl.induced_box(p2, target)
    mixed = bl.mix([b1, b2], [0.5, 0.5])
    assert np.array_equal(mixed.table, 0.5 * b1.table + 0.5 * b2.table)
    for p in (0.5, 0.6, 1.0):
        assert bl.win_prob(mixed, p, 0.5) == pytest.approx(
            0.5 * bl.win_prob(b1, p, 0.5) + 0.5 * bl.win_prob(b2, p, 0.5),
            abs=1e-15)
    assert bl.tv_closeness(bl.mix([b1], [1.0]), b1) == 0.0


def test_induced_box_of_bell_target_nonsignaling():
    rng = np.random.default_rng(3)
    spec = bl.simple_bell_spec([bl.random_unitary(rng) for _ in range(2)],
                               [bl.random_unitary(rng) for _ in range(2)])
    target = bl.bell_box(spec, bl.SINGLET)
    for pi in list(bl.enumerate_protocols(BINARY, 1))[:200]:
        assert bl.is_nonsignaling(bl.induced_box(pi, target))


def test_k0_cannot_approximate_pr_below_quarter():
    # deterministic side: every k=0 protocol is at TV >= 1/2 from PR
    pr = bl.pr_box()
    for pi in bl.enumerate_protocols(BINARY, 0):
        _, tv = bl.check_reduction(pi, pr, pr, 0.0)
        assert tv >= 0.5
    # mixtures: LP over the 16 local deterministic vertices; the best
    # achievable max-input TV to PR is exactly 1/4
    vertices = [b.table.reshape(4, 4) for b in local_deterministic_boxes()]
    target = pr.table.reshape(4, 4)
    n = len(vertices)
    # variables: weights w_i, slacks e[input, outcome], objective t
    n_vars = n + 16 + 1
    c = np.zeros(n_vars)
    c[-1] = 1.0
    a_ub, b_ub = [], []
    for inp in range(4):
        for out in range(4):
            # e >= +- (sum_i w_i v_i - target)
            for sign in (1.0, -1.0):
                row = np.zeros(n_vars)
                for i in range(n):
                    row[i] = sign * vertices[i][inp, out]
                row[n + 4 * 0 + 0] = 0.0
                row[n + inp * 4 + out] = -1.0
                a_ub.append(row)
                b_ub.append(sign * target[inp, out])
        row = np.zeros(n_vars)
        row[n + inp * 4: n + inp * 4 + 4] = 0.5
        row[-1] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
    a_eq = np.zeros((1, n_vars))
    a_eq[0, :n] = 1.0
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=a_eq, b_eq=[1.0], bounds=[(0, None)] * n_vars)
    assert res.success
    assert res.fun == pytest.approx(0.25, abs=1e-9)


def test_affine_of_matches_win_prob():
    rng = np.random.default_rng(9)
    for _ in range(30):
        table = rng.random((2, 2, 2, 2))
        table /= table.sum(axis=(2, 3), keepdims=True)
        target = bl.CorrelationBox(table)
        pi = next(bl.enumerate_protocols(BINARY, 1))
        ell = bl.affine_of(pi, target)
        induced = bl.induced_box(pi, target)
        for p in (0.5, 0.7, 1.0):
            assert abs(float(ell(p))
                       - bl.win_prob(induced, p, 0.5)) <= 1e-12


def strategy_rows(q_map, out_map):
    """Rows of ``_all_strategies(2, 2, 1)`` of a party's binary k = 1
    strategies on inputs 0 and 1: the query, then the output on each
    response."""
    outputs = np.reshape(out_map, (2, 2)).T         # [response, input]
    return np.ravel_multi_index((q_map, *outputs), (2, 2, 2))


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_affine_of_is_the_family_line_of_its_protocol(seed):
    # I and J as _candidate_lines forms them from the family's tables, at
    # the protocol's strategies alpha_x (Alice on x) and beta_y (Bob on y)
    target = bl.pr_box() if seed is None else bl.CorrelationBox(
        random_table(np.random.default_rng(seed), (2, 2, 2, 2)))
    strategies = protocols._all_strategies(2, 2, 1)
    eq, ne = boxes.agreement(protocols._response_tables(
        strategies, strategies, target, 2, 2))
    for pi in bl.enumerate_protocols(BINARY, 1):
        alpha0, alpha1 = strategy_rows(pi.q_maps[0], pi.s_map)
        beta0, beta1 = strategy_rows(pi.r_maps[0], pi.t_map)
        i, j = 0.5 * np.array([eq[alpha0, beta0] + eq[alpha0, beta1],
                               eq[alpha1, beta0] + ne[alpha1, beta1]])
        ell = bl.affine_of(pi, target)
        assert np.array([ell.intercept, ell.slope]).tobytes() \
            == np.array([i, j - i]).tobytes()


def test_pass_through_on_pr_is_constant_one():
    ell = bl.affine_of(bl.identity_protocol(), bl.pr_box())
    assert ell.intercept == pytest.approx(1.0, abs=1e-12)
    assert ell.slope == pytest.approx(0.0, abs=1e-12)


def test_all_zero_k0_line():
    ell = bl.affine_of(k0_protocol((0, 0), (0, 0)), bl.pr_box())
    assert ell.intercept == pytest.approx(1.0, abs=1e-12)
    assert ell.slope == pytest.approx(-0.5, abs=1e-12)


def test_queries_useless_against_constant_box():
    const = bl.local_box([0, 0], [0, 0])
    fam0 = sorted(key(ell) for ell in bl.affine_family(const, 0))
    fam1 = sorted(key(ell) for ell in bl.affine_family(const, 1))
    assert fam0 == fam1


def test_family_monotone_in_k():
    pr = bl.pr_box()
    fam0 = set(key(ell) for ell in bl.affine_family(pr, 0))
    fam1 = set(key(ell) for ell in bl.affine_family(pr, 1))
    assert fam0 <= fam1
    both = set(key(ell) for ell in bl.affine_family(pr, 1, up_to_k=True))
    assert both == fam0 | fam1


def test_family_of_bell_target_below_omega():
    rng = np.random.default_rng(21)
    spec = bl.simple_bell_spec([bl.random_unitary(rng) for _ in range(2)],
                               [bl.random_unitary(rng) for _ in range(2)])
    target = bl.bell_box(spec, bl.SINGLET)
    family = bl.affine_family(target, 1)
    assert len(family) <= 4096
    for p in np.linspace(0.5, 1.0, 101):
        best = max(float(ell(p)) for ell in family)
        assert best <= bl.omega(float(p)) + 1e-9


def test_best_vs_average():
    rng = np.random.default_rng(31)
    protos = [p for i, p in zip(range(8), bl.enumerate_protocols(BINARY, 1))]
    weights = rng.random(len(protos))
    weights /= weights.sum()
    target = bl.pr_box()
    mixture = bl.mix([bl.induced_box(pi, target) for pi in protos], weights)
    mixture_win = bl.win_prob(mixture, 0.6, 0.5)
    best = max(bl.win_prob(bl.induced_box(pi, target), 0.6, 0.5)
               for pi in protos)
    assert best >= mixture_win - 1e-12


def test_protocol_json_roundtrip():
    pi = bl.identity_protocol()
    again = protocol_from_payload(json.loads(json.dumps(
        protocol_to_payload(pi))))
    assert again == pi


def test_protocol_of_numpy_integers_round_trips_through_json():
    maps = np.array([[0, 1, 0, 1], [0, 1, 0, 1]])
    al = Alphabets(*np.full(8, 2))
    pi = bl.DeterministicProtocol(al, np.int64(1), (tuple(maps[0, :2]),),
                                  (tuple(maps[1, :2]),), tuple(maps[0]),
                                  tuple(maps[1]))
    payload = protocol_to_payload(pi)
    text = json.dumps(payload)
    assert text == json.dumps(protocol_to_payload(bl.identity_protocol()))
    again = protocol_from_payload(json.loads(text))
    assert again == bl.identity_protocol()
    assert all(type(v) is int for v in [again.k, *again.s_map,
                                        *vars(again.alphabets).values()])


@pytest.mark.parametrize("path,value", [
    (("q_maps", 0, 0), 0.5), (("r_maps", 0, 1), 1.0), (("s_map", 2), True),
    (("t_map", 0), "0"), (("k",), 1.7), (("k",), True), (("k",), "1"),
    (("alphabets", 4), 2.0)])
def test_non_integer_protocol_entries_are_refused(path, value):
    payload = protocol_to_payload(bl.identity_protocol())
    *outer, last = path
    functools.reduce(operator.getitem, outer, payload)[last] = value
    with pytest.raises(ValueError, match="is not an integer"):
        protocol_from_payload(payload)


def test_protocol_maps_take_python_and_numpy_integers_only():
    one = np.int64(1)
    pi = bl.DeterministicProtocol(BINARY, one, ((0, one),), ((0, 1),),
                                  (0, one, 0, 1), (0, 1, 0, 1))
    assert bl.induced_box(pi, bl.pr_box()).table.tobytes() \
        == bl.pr_box().table.tobytes()
    for bad in (0.0, np.float64(1.0), False, "1", None):
        with pytest.raises(ValueError, match="is not an integer"):
            bl.DeterministicProtocol(BINARY, 1, ((0, 1),), ((bad, 1),),
                                     (0, 1, 0, 1), (0, 1, 0, 1))
        with pytest.raises(ValueError, match="is not an integer"):
            bl.DeterministicProtocol(BINARY, 0, (), (), (0, 1), (bad, 1))
    with pytest.raises(ValueError, match="k 1.0 is not an integer"):
        bl.DeterministicProtocol(BINARY, 1.0, ((0, 1),), ((0, 1),),
                                 (0, 1, 0, 1), (0, 1, 0, 1))
    with pytest.raises(ValueError, match="alphabet size 2.0 is not an integer"):
        Alphabets(2, 2, 2, 2, 2.0, 2, 2, 2)


def path_sum(protocol, target):
    """Induced table [x, y, a, b], summed breadth-first over response paths."""
    al, k = protocol.alphabets, protocol.k
    a2, b2 = al.a2, al.b2
    out = np.zeros((al.x1, al.y1, al.a1, al.b1))
    for x in range(al.x1):
        for y in range(al.y1):
            paths = {(0, 0): 1.0}
            for depth in range(k):
                nxt = {}
                for (ap, bp), w in paths.items():
                    xi = protocol.q_maps[depth][x * a2 ** depth + ap]
                    yi = protocol.r_maps[depth][y * b2 ** depth + bp]
                    for ai in range(a2):
                        for bi in range(b2):
                            key = (ap * a2 + ai, bp * b2 + bi)
                            nxt[key] = nxt.get(key, 0.0) + w * target[xi, yi, ai, bi]
                paths = nxt
            for (ap, bp), w in paths.items():
                out[x, y, protocol.s_map[x * a2 ** k + ap],
                    protocol.t_map[y * b2 ** k + bp]] += w
    return out


def path_sum_key(protocol, target):
    """Dedup key of the protocol's CHSH[p, 1/2] line, from ``path_sum``."""
    table = path_sum(protocol, target)
    eq = table[:, :, 0, 0] + table[:, :, 1, 1]
    ne = table[:, :, 0, 1] + table[:, :, 1, 0]
    intercept = 0.5 * (eq[0, 0] + eq[0, 1])
    return key(AffineFunction(intercept,
                              0.5 * (eq[1, 0] + ne[1, 1]) - intercept))


def random_table(rng, shape):
    table = rng.random(shape)
    return table / table.sum(axis=(2, 3), keepdims=True)


def random_protocol(rng, al, k):
    return bl.DeterministicProtocol(
        al, k,
        tuple(tuple(rng.integers(0, al.x2, al.x1 * al.a2 ** i).tolist())
              for i in range(k)),
        tuple(tuple(rng.integers(0, al.y2, al.y1 * al.b2 ** i).tolist())
              for i in range(k)),
        tuple(rng.integers(0, al.a1, al.x1 * al.a2 ** k).tolist()),
        tuple(rng.integers(0, al.b1, al.y1 * al.b2 ** k).tolist()))


@pytest.mark.parametrize("al", [BINARY, Alphabets(2, 2, 2, 2, 3, 2, 3, 2),
                                Alphabets(3, 2, 3, 2, 3, 2, 3, 2)],
                         ids=["binary", "inner-3232", "outer-and-inner-3232"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_induced_box_matches_path_sum(al, k):
    rng = np.random.default_rng([k, al.x1, al.x2])
    target = random_table(rng, (al.x2, al.y2, al.a2, al.b2))
    for _ in range(10):
        pi = random_protocol(rng, al, k)
        induced = bl.induced_box(pi, bl.CorrelationBox(target)).table
        assert np.abs(induced - path_sum(pi, target)).max() <= 1e-15


def family_targets():
    rng = np.random.default_rng(41)
    return {"pr": bl.pr_box().table,
            **{"binary%d" % i: random_table(rng, (2, 2, 2, 2)) for i in range(3)},
            "3232": random_table(rng, (3, 2, 3, 2))}


@pytest.mark.parametrize("name", family_targets())
@pytest.mark.parametrize("k", [0, 1])
def test_family_matches_brute_force(name, k):
    table = family_targets()[name]
    al = Alphabets(2, 2, 2, 2, *table.shape)
    family = bl.affine_family(bl.CorrelationBox(table), k)
    assert {key(ell) for ell in family} == {
        path_sum_key(pi, table) for pi in bl.enumerate_protocols(al, k)}
    lines = [(ell.intercept, ell.slope) for ell in family]
    assert lines == sorted(lines)


@pytest.mark.parametrize("name", family_targets())
def test_up_to_k_is_the_union_of_each_k(name):
    target = bl.CorrelationBox(family_targets()[name])
    union = {key(ell) for k in (0, 1) for ell in bl.affine_family(target, k)}
    assert {key(ell) for ell in bl.affine_family(target, 1, up_to_k=True)} == union


def loop_family(target, k, up_to_k=False):
    """Reference: affine_family's former loop over Bob pairs and the
    distinct I and J values, first line of each key kept."""
    al = Alphabets(2, 2, 2, 2, target.x_size, target.y_size,
                   target.a_size, target.b_size)
    seen = {}
    for kk in (range(k + 1) if up_to_k else (k,)):
        eq, ne = boxes.agreement(protocols._response_tables(
            protocols._all_strategies(al.x2, al.a2, kk),
            protocols._all_strategies(al.y2, al.b2, kk), target, 2, 2))
        for beta0 in range(eq.shape[1]):
            for beta1 in range(eq.shape[1]):
                js = np.unique(0.5 * (eq[:, beta0] + ne[:, beta1]))
                for intercept in np.unique(0.5 * (eq[:, beta0] + eq[:, beta1])):
                    for j in js:
                        ell = AffineFunction(float(intercept), float(j - intercept))
                        seen.setdefault(key(ell), ell)
    return sorted(seen.values(), key=lambda ell: (ell.intercept, ell.slope))


def singlet_box(rng, n):
    spec = bl.simple_bell_spec([bl.random_unitary(rng) for _ in range(n)],
                               [bl.random_unitary(rng) for _ in range(n)])
    return bl.bell_box(spec, bl.SINGLET)


def negative_zeros(box):
    return bl.CorrelationBox(np.where(box.table == 0.0, -0.0, box.table))


def repeated_alice_input(table):
    """A 3 x 2 box whose Alice input 2 repeats input 0: Alice's strategies
    that query 2 copy those that query 0, and Bob has no copies."""
    return bl.CorrelationBox(np.concatenate([table, table[:1]]))


def loop_targets():
    # the singlet and cover boxes have more exact-distinct (I, J) pairs than
    # lines, so which pair of a key is kept first shows in the bits
    rng = np.random.default_rng(43)
    return {"pr": bl.pr_box(),
            "octahedron": bl.discretized_box(bl.octahedron_cover()),
            "cover4": bl.discretized_box(build_cover(2.0)),
            **{"binary%d" % i: bl.CorrelationBox(random_table(rng, (2, 2, 2, 2)))
               for i in range(3)},
            "3232": bl.CorrelationBox(random_table(rng, (3, 2, 3, 2))),
            "singlet3": singlet_box(rng, 3),
            "singlet4": singlet_box(rng, 4),
            "cover7": bl.discretized_box(build_cover(1.2)),
            "pr-negative-zeros": negative_zeros(bl.pr_box()),
            "local-negative-zeros": negative_zeros(bl.local_box([0, 1], [1, 1])),
            "repeated-alice-input": repeated_alice_input(
                random_table(rng, (2, 2, 2, 2)))}


@pytest.mark.parametrize("name", loop_targets())
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("up_to_k", [False, True], ids=["k", "up-to-k"])
def test_family_equals_the_loop(name, k, up_to_k):
    target = loop_targets()[name]
    assert list(bl.affine_family(target, k, up_to_k=up_to_k)) \
        == loop_family(target, k, up_to_k)


@pytest.mark.parametrize("name", ["octahedron", "binary0", "singlet4"])
@pytest.mark.parametrize("up_to_k", [False, True], ids=["k", "up-to-k"])
def test_family_in_small_blocks_equals_the_loop(monkeypatch, block_walks,
                                                name, up_to_k):
    # blocks of a few Bob pairs and runs of a few (Bob pair, I) rows: lines
    # met again in later runs must keep the representative found first
    target = loop_targets()[name]
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 100)
    assert list(bl.affine_family(target, 1, up_to_k=up_to_k)) \
        == loop_family(target, 1, up_to_k=up_to_k)
    # the Bob pairs of k = 1 and some of their runs take several blocks
    assert sum(len(walk.slices) > 1 for walk in block_walks) > 1


@pytest.mark.parametrize("n_queries,n_responses,k",
                         [(2, 2, 0), (2, 2, 1), (3, 2, 1), (6, 2, 1), (2, 3, 1),
                          (2, 2, 2), (1, 1, 3), (3, 1, 2)])
def test_all_strategies_are_the_product_rows_in_order(n_queries, n_responses, k):
    # the order decides which line of a dedup key comes first
    widths = [n_responses ** d for d in range(k + 1)]
    rows = list(itertools.product(*map(range, [n_queries] * sum(widths[:k])
                                       + [2] * widths[k])))
    queries, outputs = protocols._all_strategies(n_queries, n_responses, k)
    assert len(queries) == k
    table = np.column_stack(queries + [outputs])
    assert table.dtype == np.intp and table.tolist() == [list(r) for r in rows]
    assert [q.shape[1] for q in queries] + [outputs.shape[1]] == widths


@pytest.mark.parametrize("target,alice,bob", [
    (bl.discretized_box(bl.octahedron_cover()), (8, 24), (8, 24)),
    (bl.discretized_box(build_cover(2.0)), (10, 16), (10, 16)),
    (bl.discretized_box(build_cover(1.2)), (20, 28), (20, 28)),
    (bl.pr_box(), (6, 8), (6, 8)),
    (singlet_box(np.random.default_rng(5), 3), (12, 12), (12, 12)),
    (repeated_alice_input(random_table(np.random.default_rng(5), (2, 2, 2, 2))),
     (8, 12), (8, 8)),
], ids=["octahedron", "cover4", "cover7", "pr", "singlet3",
        "repeated-alice-input"])
def test_each_distinct_strategy_reaches_the_candidates_once(
        monkeypatch, target, alice, bob):
    # (distinct, all) k = 1 strategies of each party
    assert len(protocols._all_strategies(target.x_size, target.a_size, 1)[1]) \
        == alice[1]
    assert len(protocols._all_strategies(target.y_size, target.b_size, 1)[1]) \
        == bob[1]
    shapes = []
    candidate_lines = protocols._candidate_lines

    def spy(tables):
        shapes.append(tables.shape)
        return candidate_lines(tables)

    monkeypatch.setattr(protocols, "_candidate_lines", spy)
    bl.affine_family(target, 1)
    assert shapes == [(bob[0], alice[0], 2)]


def test_family_memory_on_the_t11_cover_box():
    # 56 MB is the peak of the former kernel, which rounded and lexsorted
    # every candidate line; exact ids over the 28 distinct strategies of 44
    # a party take about 13 MB
    target = bl.discretized_box(build_cover(0.9))
    assert target.x_size == 11
    tracemalloc.start()
    try:
        bl.affine_family(target, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56e6


def test_candidate_arrays_stay_under_a_small_cap(monkeypatch, block_walks):
    # T=7: 20 distinct strategies a party and 400 Bob pairs, so a cap of
    # 1,000 entries splits the I and J values into 16 blocks of Bob pairs
    target = bl.discretized_box(build_cover(1.2))
    family = bl.affine_family(target, 1)
    cap = 1000
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", cap)
    sizes = []

    def inside(frame):
        while frame is not None:
            if frame.f_code is protocols._candidate_lines.__code__:
                return True
            frame = frame.f_back
        return False

    def record(frame, event, arg):
        # every named array of the kernel and of what it calls, and what
        # each returns or yields
        values = list(frame.f_locals.values())
        if event == "return":
            values += arg if isinstance(arg, tuple) else [arg]
        sizes.extend(v.size for v in values if isinstance(v, np.ndarray))
        return record

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: record if inside(frame) else None)
    try:
        small = bl.affine_family(target, 1)
    finally:
        sys.settrace(old)
    assert same_lines(small, family)
    assert len(sizes) > 1000 and max(sizes) <= cap
    # the 400 Bob pairs of 2 * 20 entries each (I and J values in one
    # pool), 1000 // 40 = 25 a block
    assert [walk.sizes for walk in block_walks
            if (walk.n, walk.width) == (400, 40)][-1] == [25] * 16


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("-inf")])
def test_affine_function_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError):
        AffineFunction(bad, 0.0)
    with pytest.raises(ValueError):
        AffineFunction(0.5, bad)
    ell = AffineFunction(np.float64(0.5), 0.25)
    assert float(ell(1.0)) == 0.75


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_line_family_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        LineFamily([0.5, bad], [0.0, 0.25])
    with pytest.raises(ValueError, match="finite"):
        LineFamily([0.5, 0.75], [bad, 0.25])
    with pytest.raises(ValueError, match="finite"):
        LineFamily(np.array([0.5, 0.75, bad]), np.zeros(3))


def test_line_family_refuses_ragged_or_nested_arrays():
    with pytest.raises(ValueError, match="equal length"):
        LineFamily([0.5, 0.75], [0.0])
    with pytest.raises(ValueError, match="equal length"):
        LineFamily([[0.5, 0.75]], [[0.0, 0.25]])


def test_line_family_keeps_the_given_order_in_read_only_copies():
    intercepts = np.array([0.75, 0.5, 0.5, 0.25])
    slopes = np.array([0.0, 0.5, -0.25, 0.5])
    family = LineFamily(intercepts, slopes)
    assert family.intercepts.dtype == family.slopes.dtype == np.float64
    assert family.intercepts.tolist() == [0.75, 0.5, 0.5, 0.25]
    assert family.slopes.tolist() == [0.0, 0.5, -0.25, 0.5]
    for values in (family.intercepts, family.slopes):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
    # the caller's arrays stay writable, and writing them leaves the family
    intercepts[0] = 1.0
    assert family.intercepts[0] == 0.75


def test_line_family_len_and_equality():
    lines = [AffineFunction(0.75, 0.0), AffineFunction(0.5, 0.5)]
    family = LineFamily([0.75, 0.5], [0.0, 0.5])
    assert len(family) == 2 and len(LineFamily([], [])) == 0
    assert same_lines(family, LineFamily([0.75, 0.5], [0.0, 0.5]))
    assert not same_lines(family, LineFamily([0.5, 0.75], [0.5, 0.0]))
    assert not same_lines(family, LineFamily([0.75], [0.0]))
    assert not same_lines(family, LineFamily([0.75, 0.5], [0.0, 0.25]))
    assert list(family) == lines


def test_line_family_iterates_as_the_former_list():
    # affine_family returned a list of AffineFunction with Python float
    # coefficients; iterating the family gives the same, bit for bit
    family = bl.affine_family(bl.discretized_box(build_cover(1.2)), 1)
    lines = list(family)
    assert len(lines) == len(family) > 1000
    assert all(type(ell.intercept) is float and type(ell.slope) is float
               for ell in lines)
    pairs = np.array([(ell.intercept, ell.slope) for ell in lines])
    assert pairs.tobytes() == np.column_stack(
        (family.intercepts, family.slopes)).tobytes()


def loop_count(al, k):
    """Reference: count_protocols' former product over the query depths."""
    n = 1
    for i in range(k):
        n *= al.x2 ** (al.x1 * al.a2 ** i)
        n *= al.y2 ** (al.y1 * al.b2 ** i)
    n *= al.a1 ** (al.x1 * al.a2 ** k)
    n *= al.b1 ** (al.y1 * al.b2 ** k)
    return n


def test_count_protocols_closed_form_equals_the_loop():
    for sizes in itertools.product((1, 2, 3), repeat=8):
        al = Alphabets(*sizes)
        for k in range(5):
            assert bl.count_protocols(al, k) == loop_count(al, k), (sizes, k)


def test_count_protocols_on_one_letter_responses_takes_no_loop():
    # the loop took 0.58 s at k = 10^6; 10^10 steps would take hours
    start = time.perf_counter()
    assert bl.count_protocols(Alphabets(2, 2, 2, 2, 1, 1, 1, 1), 10**10) == 16
    assert bl.count_protocols(Alphabets(2, 2, 2, 2, 2, 1, 1, 1), 10 ** 3) \
        == 2 ** (2 * 10 ** 3) * 16
    assert time.perf_counter() - start < 1.0


def test_count_digits_is_log10_of_the_count():
    for sizes in [(2,) * 8, (2, 2, 2, 2, 3, 2, 3, 2), (1, 2, 1, 3, 1, 2, 1, 5),
                  (2, 2, 2, 2, 1, 1, 1, 1), (3, 2, 2, 4, 2, 3, 1, 2)]:
        al = Alphabets(*sizes)
        for k in range(8):
            count = bl.count_protocols(al, k)
            assert protocols.count_digits(al, k) == pytest.approx(
                math.log10(count), rel=1e-12, abs=1e-12)
    # past 2^20 queries every term is capped at 10^300 digits
    assert protocols.count_digits(BINARY, 10 ** 500) == 4e300
    with pytest.raises(ValueError):
        protocols.count_digits(BINARY, -1)


def test_a_count_far_past_the_cap_is_refused_unbuilt(monkeypatch):
    def build(al, k):
        raise AssertionError("built the count")

    monkeypatch.setattr(protocols, "count_protocols", build)
    with pytest.raises(ValueError, match="about 10"):
        next(bl.enumerate_protocols(BINARY, 3))
    with pytest.raises(ValueError, match="about 10"):
        bl.affine_family(bl.pr_box(), 25)
    monkeypatch.undo()
    # within a digit of the cap the exact count decides, as before
    with pytest.raises(ValueError, match="protocol count 268435456 exceeds"):
        bl.affine_family(bl.pr_box(), 3, up_to_k=True)


def test_a_constant_count_is_refused_past_log2_of_the_cap(monkeypatch):
    one = bl.CorrelationBox(np.ones((1, 1, 1, 1)))
    al = Alphabets(2, 2, 2, 2, 1, 1, 1, 1)
    # 16 protocols at every k: the count never reaches the cap
    assert bl.count_protocols(al, 26) == 16
    assert same_lines(bl.affine_family(one, 26), bl.affine_family(one, 0))

    def build(*args):
        raise AssertionError("built the strategies or the count")

    monkeypatch.setattr(protocols, "_all_strategies", build)
    monkeypatch.setattr(protocols, "count_protocols", build)
    for k in (27, 3 * 10 ** 6):
        with pytest.raises(ValueError, match="log2 of cap"):
            bl.affine_family(one, k)
        with pytest.raises(ValueError, match="log2 of cap"):
            next(bl.enumerate_protocols(al, k))


def test_the_counting_bound_is_refused_for_one_letter_responses():
    # (2|X|)^(2|A|^k) needs |A|, |B| >= 2: here the bound is below the count
    al = Alphabets(2, 2, 2, 2, 2, 2, 1, 1)
    assert bl.counting_bound(al, 2) < bl.count_protocols(al, 2)
    for sizes in [(2, 2, 1, 1), (1, 1, 1, 1), (2, 2, 2, 1), (3, 2, 1, 2)]:
        with pytest.raises(ValueError, match="at least 2 letters"):
            protocols.check_bound_digits(Alphabets(2, 2, 2, 2, *sizes), 1)
        with pytest.raises(ValueError, match="at least 2 letters"):
            bl.epsilon_schedule(*sizes, 3, 0.01)
    protocols.check_bound_digits(BINARY, 10)
