import dataclasses

import numpy as np
import pytest

import boxlab as bl
from boxlab import boxes, quantum
from boxlab.quantum import PHI_PLUS, SINGLET, measurement_probs, restrict_box
from boxlab.sphere import _singlet_rows, build_cover, cover_bell_spec

RNG = np.random.default_rng(123)

BIT_FLIP = np.array([[0, 1], [1, 0]], dtype=np.complex128)
IDENTITY = np.eye(2, dtype=np.complex128)
KET0 = np.array([1.0, 0.0], dtype=np.complex128)
KET1 = np.array([0.0, 1.0], dtype=np.complex128)


def test_bloch_convention_anchors():
    assert np.allclose(bl.bloch_of(KET0), [0, 0, 1])
    assert np.allclose(bl.bloch_of(KET1), [0, 0, -1])
    plus = np.array([1, 1]) / np.sqrt(2)
    assert np.allclose(bl.bloch_of(plus), [1, 0, 0])
    plus_i = np.array([1, 1j]) / np.sqrt(2)
    assert np.allclose(bl.bloch_of(plus_i), [0, 1, 0])
    assert np.allclose(bl.bloch_of(KET0), -bl.bloch_of(KET1))


def test_unitary_for_point_roundtrip():
    for _ in range(1000):
        c = RNG.normal(size=3)
        c /= np.linalg.norm(c)
        u = bl.unitary_for_point(c)
        back = bl.bloch_of(np.linalg.inv(u) @ KET1)
        assert np.abs(back - c).max() <= 1e-10


def test_unitary_for_point_rejects_zero():
    with pytest.raises(ValueError):
        bl.unitary_for_point(np.zeros(3))


def reference_unitary_for_point(c):
    """The per-point formula: U^-1 has columns [psi_perp, psi], and the
    largest entry of U's first column is made real positive."""
    theta = np.arccos(np.clip(c[2], -1.0, 1.0))
    phi = np.arctan2(c[1], c[0])
    psi = np.array([np.cos(theta / 2.0),
                    np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=np.complex128)
    psi_perp = np.array([-np.conj(psi[1]), np.conj(psi[0])],
                        dtype=np.complex128)
    u = np.column_stack([psi_perp, psi]).conj().T
    col = u[:, 0]
    pivot = col[np.argmax(np.abs(col))]
    return u * (np.conj(pivot) / abs(pivot))


def test_unitary_for_point_stack_equals_the_per_point_formula():
    rng = np.random.default_rng(61)
    scattered = rng.normal(size=(1000, 3))
    scattered /= np.linalg.norm(scattered, axis=1, keepdims=True)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, -1.0]])
    sets = [build_cover(eps).points for eps in (2.0, 0.5, 0.4, 0.3, 0.25,
                                                0.2, 0.05)]
    sets += [bl.octahedron_cover().points, poles, scattered]
    for points in sets:
        stacked = bl.unitary_for_point(points)
        assert stacked.shape == (len(points), 2, 2)
        # bit for bit, signed zeros included
        want = np.array([reference_unitary_for_point(c) for c in points])
        assert stacked.tobytes() == want.tobytes()
        per_point = np.array([bl.unitary_for_point(c) for c in points])
        assert per_point.tobytes() == want.tobytes()
    grid = bl.unitary_for_point(scattered[:12].reshape(3, 4, 3))
    assert grid.tobytes() == bl.unitary_for_point(scattered[:12]).tobytes()
    spec = cover_bell_spec(build_cover(0.3))
    assert (np.array(spec.alice_unitaries).tobytes()
            == np.array([reference_unitary_for_point(c)
                         for c in build_cover(0.3).points]).tobytes())
    for bad in ([poles[0], np.zeros(3)], [poles[0], [np.nan, 0.0, 1.0]],
                np.ones((2, 2))):
        with pytest.raises(ValueError):
            bl.unitary_for_point(bad)


def test_random_unitary_is_unitary_and_uniform():
    points = []
    for _ in range(10 ** 4):
        u = bl.random_unitary(RNG)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-10
        points.append(bl.bloch_of(np.linalg.inv(u) @ KET1))
    means = np.mean(points, axis=0)
    assert np.abs(means).max() < 0.03
    assert abs(abs(np.linalg.det(bl.random_unitary(RNG))) - 1.0) <= 1e-10


# Per-matrix reference formulas: the batched code must give the same floats.

def reference_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def reference_bloch(psi):
    alpha, beta = psi
    cross = np.conj(alpha) * beta
    return np.array([2.0 * cross.real, 2.0 * cross.imag,
                     abs(alpha) ** 2 - abs(beta) ** 2])


def reference_bell_table(spec, state):
    table = np.zeros((spec.x_size, spec.y_size, 2, 2))
    for x, u in enumerate(spec.alice_unitaries):
        for y, v in enumerate(spec.bob_unitaries):
            table[x, y] = np.abs((np.kron(u, v) @ state).reshape(2, 2)) ** 2
    return table


def test_unitaries_bloch_and_probs_equal_the_reference_formulas():
    seed = np.random.SeedSequence(31)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    states = []
    for _ in range(500):
        u, v = bl.random_unitary(ours), bl.random_unitary(ours)
        assert u.tobytes() == reference_unitary(theirs).tobytes()
        assert v.tobytes() == reference_unitary(theirs).tobytes()
        psi = np.linalg.inv(u) @ KET1
        assert np.array_equal(bl.bloch_of(psi), reference_bloch(psi))
        states.append(psi)
        for state in (PHI_PLUS, SINGLET):
            assert np.array_equal(measurement_probs(u, v, state),
                                  np.abs((np.kron(u, v) @ state)
                                         .reshape(2, 2)) ** 2)
    stacked = bl.bloch_of(np.reshape(states, (100, 5, 2)))
    assert np.array_equal(stacked.reshape(500, 3),
                          [reference_bloch(psi) for psi in states])


@pytest.mark.parametrize("shape", [(1000,), (1000, 2)])
def test_a_haar_stack_is_consecutive_reference_draws(shape):
    ours, theirs = np.random.default_rng(32), np.random.default_rng(32)
    stack = quantum._haar(ours, shape)
    drawn = np.array([reference_unitary(theirs)
                      for _ in range(int(np.prod(shape)))])
    assert stack.shape == (*shape, 2, 2)
    assert stack.tobytes() == drawn.tobytes()
    # both generators stop at the same place in the stream
    assert ours.normal() == theirs.normal()


def test_point_for_unitary_undoes_unitary_for_point():
    cover = build_cover(0.3)
    assert cover.size == 97
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    scattered = np.random.default_rng(33).normal(size=(1000, 3))
    scattered /= np.linalg.norm(scattered, axis=1, keepdims=True)
    for points in (bl.octahedron_cover().points, cover.points, poles,
                   scattered):
        back = quantum.point_for_unitary(bl.unitary_for_point(points))
        assert np.linalg.norm(back - points, axis=1).max() <= 1e-12


def test_point_for_unitary_is_the_direction_through_the_inverse():
    # U's second row conjugated is U^-1 |1> for a unitary U
    uv = quantum._haar(np.random.default_rng(34), (10 ** 4, 2))
    points = quantum.point_for_unitary(uv)
    assert points.shape == (10 ** 4, 2, 3)
    assert np.abs(points - bl.bloch_of(np.linalg.inv(uv) @ KET1)).max() <= 1e-14


def test_measurement_probs_broadcasts_over_leading_axes():
    us = np.array([bl.random_unitary(RNG) for _ in range(3)])
    vs = np.array([bl.random_unitary(RNG) for _ in range(4)])
    probs = measurement_probs(us[:, None], vs[None], SINGLET)
    assert probs.shape == (3, 4, 2, 2)
    for x in range(3):
        for y in range(4):
            assert np.array_equal(probs[x, y],
                                  measurement_probs(us[x], vs[y], SINGLET))


def kron_amplitudes(u, v, state):
    """np.kron(a, b) @ state for each pair of the broadcast stacks u and v,
    one pair at a time, as [..., 2, 2]."""
    u, v = np.broadcast_arrays(u, v)
    amps = [np.kron(a, b) @ state
            for a, b in zip(u.reshape(-1, 2, 2), v.reshape(-1, 2, 2))]
    return np.reshape(amps, u.shape)


def haar_pairs(n):
    uv = quantum._haar(np.random.default_rng(n), (n, 2))
    return uv[:, 0], uv[:, 1]


@pytest.mark.parametrize("state", [SINGLET, PHI_PLUS], ids=["singlet", "phi+"])
@pytest.mark.parametrize("n", [1, 2, 300])
def test_measurement_probs_are_the_kron_products_bit_for_bit(state, n):
    u, v = haar_pairs(n)
    assert measurement_probs(u, v, state).tobytes() \
        == (np.abs(kron_amplitudes(u, v, state)) ** 2).tobytes()
    # the broadcast (T, 1) x (1, T) form bell_box uses
    u, v = u[:40, None], v[None, :40]
    assert measurement_probs(u, v, state).tobytes() \
        == (np.abs(kron_amplitudes(u, v, state)) ** 2).tobytes()


@pytest.mark.parametrize("n", [1, 2, 300])
def test_measurement_probs_of_a_state_with_four_amplitudes(n):
    rng = np.random.default_rng(51)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    u, v = haar_pairs(n)
    for u, v in ((u, v), (u[:40, None], v[None, :40])):
        u, v = np.broadcast_arrays(u, v)
        kron = np.array([np.kron(a, b) for a, b in zip(u.reshape(-1, 2, 2),
                                                       v.reshape(-1, 2, 2))])
        # the terms added in order of k, in numpy's arithmetic
        amps = kron[:, :, 0] * state[0]
        for k in range(1, 4):
            amps = amps + kron[:, :, k] * state[k]
        got = measurement_probs(u, v, state)
        assert got.tobytes() \
            == (np.abs(amps) ** 2).reshape(u.shape).tobytes()
        # a BLAS product may fuse multiplies into adds: the last bits move
        want = np.abs(kron_amplitudes(u, v, state)) ** 2
        assert np.abs(got - want).max() <= 8 * np.finfo(np.float64).eps


@pytest.mark.parametrize("eps", [0.5, 0.4, 0.3])
def test_bell_box_equals_the_per_pair_loop_on_cover_specs(eps):
    spec = cover_bell_spec(build_cover(eps))
    assert np.array_equal(bl.bell_box(spec, SINGLET).table,
                          reference_bell_table(spec, SINGLET))


@pytest.mark.parametrize("eps", [0.5, 0.4, 0.3])
def test_bell_box_in_blocks_of_alice_inputs_equals_one_block(monkeypatch,
                                                             block_walks, eps):
    spec = cover_bell_spec(build_cover(eps))
    us, vs = np.array(spec.alice_unitaries), np.array(spec.bob_unitaries)
    # the whole U (x) V stack in one measurement_probs call
    table = measurement_probs(us[:, None], vs[None], SINGLET)
    assert np.array_equal(bl.bell_box(spec, SINGLET).table, table)
    # 3 of Alice's inputs a block, the last block shorter
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 8 * spec.y_size * 3)
    assert np.array_equal(bl.bell_box(spec, SINGLET).table, table)
    n = spec.x_size                         # the walks of the two bell_box calls
    assert [walk.sizes for walk in block_walks[-2:]] \
        == [[n], [3] * (n // 3) + [n % 3]]


@pytest.mark.parametrize("state", [PHI_PLUS, SINGLET], ids=["phi+", "singlet"])
def test_direct_sum_bell_equals_the_per_pair_loop(state):
    spec1 = bl.simple_bell_spec([bl.random_unitary(RNG) for _ in range(3)],
                                [bl.random_unitary(RNG) for _ in range(2)])
    spec2 = bl.simple_bell_spec([bl.random_unitary(RNG) for _ in range(2)],
                                [bl.random_unitary(RNG) for _ in range(4)])
    # (block, unitary) of each input, block 1's inputs first
    alice = [(i, u) for i, spec in enumerate((spec1, spec2))
             for u in spec.alice_unitaries]
    bob = [(j, v) for j, spec in enumerate((spec1, spec2))
           for v in spec.bob_unitaries]
    table = np.zeros((5, 6, 4, 4))
    # every pair, cross-block ones too, puts block i's bit s at 2i + s
    for x, (i, u) in enumerate(alice):
        for y, (j, v) in enumerate(bob):
            p = np.abs((np.kron(u, v) @ state).reshape(2, 2)) ** 2
            for s in range(2):
                for t in range(2):
                    table[x, y, 2 * i + s, 2 * j + t] = p[s, t]
    assert np.array_equal(bl.direct_sum_bell(spec1, spec2, state).table,
                          table)


def test_bell_spec_rejects_non_unitary_and_stacked_entries():
    with pytest.raises(ValueError, match="not unitary"):
        bl.simple_bell_spec([IDENTITY, 2 * IDENTITY], [IDENTITY])
    with pytest.raises(ValueError, match="one 2x2 unitary per input"):
        bl.BellBoxSpec((np.array([IDENTITY, BIT_FLIP]),), (IDENTITY,))


@pytest.mark.parametrize("unitaries", [[], np.empty((0, 2, 2))],
                         ids=["list", "array"])
def test_a_bell_spec_with_no_inputs_is_refused(unitaries):
    with pytest.raises(ValueError, match="^alice has no inputs$"):
        bl.BellBoxSpec(unitaries, [IDENTITY])
    with pytest.raises(ValueError, match="^bob has no inputs$"):
        bl.BellBoxSpec([IDENTITY], unitaries)


NOT_UNITARY = "^matrix is not unitary within 1e-10$"


@pytest.mark.parametrize("bad", [
    np.full((2, 2), np.nan), [[np.nan, 0.0], [0.0, 1.0]],
    2 * IDENTITY, np.ones((2, 2)), IDENTITY + 1e-9,
    np.eye(3), np.ones(2), [IDENTITY, [[1.0, 0.0], [0.0, np.nan]]],
    [[IDENTITY, BIT_FLIP], [IDENTITY, 0.5 * BIT_FLIP]]],
    ids=["nan", "one-nan", "scaled", "ones", "off-1e-9", "3x3", "vector",
         "stack-nan", "stack-scaled"])
def test_the_unitarity_check_refuses_nan_non_unitary_and_wrong_shapes(bad):
    with pytest.raises(ValueError, match=NOT_UNITARY):
        quantum._require_unitary(bad)


def test_the_unitarity_check_accepts_unitary_stacks():
    haar = quantum._haar(np.random.default_rng(52), (300, 2))
    for u in (IDENTITY, BIT_FLIP, haar, haar[:, 0], IDENTITY + 1e-12,
              np.empty((0, 2, 2))):
        assert quantum._require_unitary(u).shape == np.shape(u)


def test_singlet_invariance_defect_refuses_a_stack():
    with pytest.raises(ValueError, match="^expected one 2x2 unitary, not a "
                                         "stack$"):
        bl.singlet_invariance_defect([IDENTITY, BIT_FLIP])


def test_bell_spec_holds_read_only_arrays():
    us = np.array([IDENTITY, BIT_FLIP], dtype=np.complex128)
    spec = bl.simple_bell_spec(us, [IDENTITY])
    # the unitaries are the whole spec: each input reports its measured bit
    assert [f.name for f in dataclasses.fields(spec)] \
        == ["alice_unitaries", "bob_unitaries"]
    assert spec.alice_unitaries.shape == (2, 2, 2)
    assert spec.bob_unitaries.shape == (1, 2, 2)
    assert (spec.x_size, spec.y_size) == (2, 1)
    for values in (spec.alice_unitaries, spec.bob_unitaries):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = values[0]
    # the caller's array stays writable, and writing it leaves the spec
    us[0] = BIT_FLIP
    assert np.array_equal(spec.alice_unitaries[0], IDENTITY)
    # a list of matrices gives the same spec as their stack
    again = bl.simple_bell_spec([IDENTITY, BIT_FLIP], [IDENTITY])
    assert again.alice_unitaries.tobytes() == spec.alice_unitaries.tobytes()


def test_bell_box_computational_basis():
    spec = bl.simple_bell_spec([IDENTITY], [IDENTITY])
    box = bl.bell_box(spec, PHI_PLUS)
    assert box.table[0, 0, 0, 0] == pytest.approx(0.5)
    assert box.table[0, 0, 1, 1] == pytest.approx(0.5)
    flipped = bl.bell_box(bl.simple_bell_spec([IDENTITY], [BIT_FLIP]), PHI_PLUS)
    assert flipped.table[0, 0, 0, 1] == pytest.approx(0.5)
    assert flipped.table[0, 0, 1, 0] == pytest.approx(0.5)


def test_bell_box_nonsignaling():
    for _ in range(20):
        spec = bl.simple_bell_spec([bl.random_unitary(RNG) for _ in range(2)],
                                   [bl.random_unitary(RNG) for _ in range(2)])
        assert bl.is_nonsignaling(bl.bell_box(spec, PHI_PLUS))
        assert bl.is_nonsignaling(bl.bell_box(spec, SINGLET))


def prob_equal(x, y):
    """Pr[a = b] of the singlet measured along Bloch directions x and y, by
    the dot-product law that discretized_box and verify_reduction use."""
    return float(_singlet_rows(np.dot(x, y)).trace())


def test_singlet_prob_equal_anchors():
    x = np.array([0.0, 0.0, 1.0])
    assert prob_equal(x, x) == 0.0
    assert prob_equal(x, -x) == 1.0
    assert prob_equal(x, np.array([1.0, 0.0, 0.0])) == 0.5


def test_singlet_measurement_matches_dot_product_law():
    for _ in range(1000):
        u, v = bl.random_unitary(RNG), bl.random_unitary(RNG)
        row = bl.singlet_measure_box(u, v)
        assert np.abs(row.sum(axis=1) - 0.5).max() <= 1e-10
        assert np.abs(row.sum(axis=0) - 0.5).max() <= 1e-10
        amp = row[0, 0] + row[1, 1]
        x = bl.bloch_of(np.linalg.inv(u) @ KET1)
        y = bl.bloch_of(np.linalg.inv(v) @ KET1)
        assert abs(amp - prob_equal(x, y)) <= 1e-10
        # |<1|U V^-1|1>|^2 = 1/2 + (x . y)/2, the overlap form of the law
        overlap = abs((KET1.conj() @ (u @ np.linalg.inv(v)) @ KET1)) ** 2
        assert abs(overlap - (0.5 + 0.5 * np.dot(x, y))) <= 1e-10


def test_singlet_same_unitary_anticorrelates():
    u = bl.random_unitary(RNG)
    row = bl.singlet_measure_box(u, u)
    assert row[0, 0] + row[1, 1] <= 1e-10
    base = bl.singlet_measure_box(IDENTITY, IDENTITY)
    assert base[0, 1] == pytest.approx(0.5)
    assert base[1, 0] == pytest.approx(0.5)


def test_singlet_invariance_defect():
    assert bl.singlet_invariance_defect(IDENTITY) <= 1e-12
    assert bl.singlet_invariance_defect(BIT_FLIP) <= 1e-12
    for _ in range(1000):
        assert bl.singlet_invariance_defect(bl.random_unitary(RNG)) <= 1e-10


def test_unitarity_closed_under_product_and_inverse():
    u, v = bl.random_unitary(RNG), bl.random_unitary(RNG)
    for w in (u @ v, np.linalg.inv(u)):
        assert np.abs(w.conj().T @ w - np.eye(2)).max() <= 1e-10


def test_direct_sum_restriction_and_cross_blocks():
    spec1 = bl.simple_bell_spec([bl.random_unitary(RNG) for _ in range(2)],
                                [bl.random_unitary(RNG) for _ in range(2)])
    spec2 = bl.simple_bell_spec([bl.random_unitary(RNG) for _ in range(3)],
                                [bl.random_unitary(RNG)])
    box = bl.direct_sum_bell(spec1, spec2, PHI_PLUS)
    assert bl.is_nonsignaling(box)
    block1 = restrict_box(box, range(2), range(2), range(2), range(2))
    assert bl.tv_closeness(block1, bl.bell_box(spec1, PHI_PLUS)) == 0.0
    block2 = restrict_box(box, range(2, 5), range(2, 3),
                          range(2, 4), range(2, 4))
    assert bl.tv_closeness(block2, bl.bell_box(spec2, PHI_PLUS)) == 0.0


def test_direct_sum_equal_blocks_symmetric():
    spec = bl.simple_bell_spec([bl.random_unitary(RNG)],
                               [bl.random_unitary(RNG)])
    box = bl.direct_sum_bell(spec, spec, PHI_PLUS)
    inblock = box.table[0, 0]
    # cross-block rows coincide with in-block rows up to the output offset
    assert np.allclose(box.table[0, 1].sum(), 1.0)
    cross = box.table[1, 0]
    assert np.allclose(inblock[:2, :2], cross[2:, :2])


def test_measurement_probs_rejects_bad_input():
    with pytest.raises(ValueError):
        measurement_probs(np.ones((2, 2)), IDENTITY, PHI_PLUS)
    with pytest.raises(ValueError):
        measurement_probs(IDENTITY, IDENTITY, np.array([1.0, 0, 0, 1.0]))
    with pytest.raises(ValueError, match="not unitary"):
        measurement_probs(np.array([IDENTITY, np.ones((2, 2))]), IDENTITY,
                          PHI_PLUS)


@pytest.mark.parametrize("state", [[np.nan, 0, 0, 0], [np.nan, 0, 0, 1.0],
                                   [1.0, 0, 0, 1.0], [0, 0, 0, 0]])
def test_a_two_qubit_state_off_norm_one_is_refused_by_its_norm(state):
    # a NaN state used to pass the norm test and fail later, at the box table
    with pytest.raises(ValueError, match="^state is not normalized$"):
        measurement_probs(IDENTITY, IDENTITY, np.array(state))
    with pytest.raises(ValueError, match="^state is not normalized$"):
        bl.bell_box(bl.simple_bell_spec([IDENTITY], [IDENTITY]), state)


def test_each_norm_check_keeps_its_message_and_refuses_nan():
    for bad in ([np.nan, 0.0], [[1.0, 0.0], [np.nan, np.nan]], [1.0, 1.0]):
        with pytest.raises(ValueError, match="^state is not normalized$"):
            bl.bloch_of(bad)
    for bad in ([np.nan, 0.0, 1.0], [[0.0, 0.0, 1.0], [2.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="^vector is not unit length$"):
            quantum.state_from_bloch(bad)
    with pytest.raises(ValueError, match="^zero vector has no direction$"):
        quantum.state_from_bloch([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])
