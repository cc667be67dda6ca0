import numpy as np
import pytest

import boxlab as bl
from boxlab import quantum
from boxlab.protocols import local_deterministic_boxes

TSIRELSON = 0.5 + np.sqrt(2.0) / 4.0


def test_win_prob_pr_always_one():
    pr = bl.pr_box()
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert bl.win_prob(pr, p, q) == 1.0


def test_win_prob_constant_box_closed_form():
    const = bl.local_box([0, 0], [0, 0])
    for p in (0.5, 0.6, 0.9):
        assert bl.win_prob(const, p, 0.5) == pytest.approx(1.0 - p / 2.0)


def test_classical_chsh_maximum():
    best = max(bl.win_prob(b, 0.5, 0.5) for b in local_deterministic_boxes())
    assert best == 0.75


def test_win_prob_rejects_nonbinary():
    # three inputs for Alice, then three outputs
    for wide in (bl.local_box([0, 1, 0], [0, 1]),
                 bl.CorrelationBox(np.full((2, 2, 3, 2), 1.0 / 6.0))):
        with pytest.raises(ValueError, match="binary"):
            bl.win_prob(wide, 0.5, 0.5)


def loop_win_prob(box, p, q):
    """Reference: win_prob's former double loop, Pr[a = b] summed per row."""
    wx = (1.0 - p, p)
    wy = (1.0 - q, q)
    total = 0.0
    for x in range(2):
        for y in range(2):
            row = box.table[x, y]
            p_equal = row[0, 0] + row[1, 1]
            total += wx[x] * wy[y] * (p_equal if x * y == 0 else 1.0 - p_equal)
    return total


def test_win_prob_equals_the_former_loop_bit_for_bit():
    rng = np.random.default_rng(6)
    tables = rng.random((200, 2, 2, 2, 2))
    tables /= tables.sum(axis=(3, 4), keepdims=True)
    uv = quantum._haar(rng, (50, 2, 2))
    singlet = [bl.bell_box(bl.simple_bell_spec(u, v), bl.SINGLET)
               for u, v in uv]
    grid = np.linspace(0.0, 1.0, 14).tolist()
    for box in [bl.pr_box(), *map(bl.CorrelationBox, tables), *singlet]:
        for p in grid:
            for q in grid:
                got, want = bl.win_prob(box, p, q), loop_win_prob(box, p, q)
                assert type(got) is type(want) and got.tobytes() == want.tobytes()


def test_win_prob_affine_in_p():
    rng = np.random.default_rng(5)
    for _ in range(20):
        table = rng.random((2, 2, 2, 2))
        table /= table.sum(axis=(2, 3), keepdims=True)
        box = bl.CorrelationBox(table)
        w = [bl.win_prob(box, p, 0.5) for p in (0.5, 0.75, 1.0)]
        assert abs(w[1] - 0.5 * (w[0] + w[2])) <= 1e-12


def test_omega_values():
    assert bl.omega(0.5) == pytest.approx(TSIRELSON, abs=1e-12)
    assert bl.omega(1.0) == 1.0
    assert bl.omega(0.75) == pytest.approx(0.5 + 0.5 * np.sqrt(0.625), abs=1e-12)


def test_biased_bound_matches_omega_at_half():
    for p in np.linspace(0.5, 1.0, 21):
        assert bl.biased_bound(p, 0.5) == pytest.approx(bl.omega(p), abs=1e-12)
    assert bl.biased_bound(0.5, 0.5) == pytest.approx(0.8535533906, abs=1e-9)
    assert bl.biased_bound(1.0, 0.5) == pytest.approx(1.0)


def test_biased_bound_regime_check():
    with pytest.raises(ValueError):
        bl.biased_bound(0.9, 0.7)       # q > 1/(2p)
    with pytest.raises(ValueError):
        bl.biased_bound(0.4, 0.5)       # p < 1/2


def test_optimal_strategy_hits_omega():
    for p in (0.5, 0.75, 1.0):
        achieved = bl.achieved_win_prob(p)
        assert achieved >= bl.omega(p) - 1e-6
        assert achieved <= bl.omega(p) + 1e-9


def test_optimal_strategy_attains_omega_on_a_fine_grid():
    # the old grid search and descent stalled short of omega near p = 0.96
    for p in np.linspace(0.5, 1.0, 201):
        assert abs(bl.achieved_win_prob(float(p)) - bl.omega(float(p))) <= 1e-15


def planar_win_prob(strategy, p, q=0.5):
    """Closed-form win probability: Pr[a=b | x, y] = 1/2 - cos(alpha_x - beta_y)/2."""
    wx = (1.0 - p, p)
    wy = (1.0 - q, q)
    total = 0.0
    for x, alpha in enumerate(strategy.alice_angles):
        for y, beta in enumerate(strategy.bob_angles):
            p_equal = 0.5 - 0.5 * np.cos(alpha - beta)
            total += wx[x] * wy[y] * (p_equal if x * y == 0 else 1.0 - p_equal)
    return total


def test_optimizer_closed_form_matches_box_path():
    for p in (0.55, 0.8):
        s = bl.optimal_strategy(p)
        assert (planar_win_prob(s, p)
                == pytest.approx(bl.win_prob(s.to_box(), p, 0.5), abs=1e-10))


def test_achieved_values_monotone_in_p():
    ps = np.linspace(0.5, 1.0, 11)
    values = [bl.achieved_win_prob(float(p)) for p in ps]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-6


def test_bell_boxes_respect_quantum_ceiling():
    rng = np.random.default_rng(17)
    ps = np.linspace(0.5, 1.0, 101)
    for _ in range(10):
        spec = bl.simple_bell_spec([bl.random_unitary(rng) for _ in range(2)],
                                   [bl.random_unitary(rng) for _ in range(2)])
        box = bl.bell_box(spec, bl.SINGLET)
        for p in ps:
            assert bl.win_prob(box, float(p), 0.5) <= bl.omega(float(p)) + 1e-9


def per_point_box(strategy):
    """to_box as four scalar unitary_for_point calls, one per angle."""
    def u_for(theta):
        return bl.unitary_for_point(np.array([np.sin(theta), 0.0, np.cos(theta)]))

    spec = bl.simple_bell_spec([u_for(t) for t in strategy.alice_angles],
                               [u_for(t) for t in strategy.bob_angles])
    return bl.bell_box(spec, bl.SINGLET)


def test_to_box_equals_the_per_point_unitaries():
    # the stacked np.sin and np.cos could round apart from the scalar ones;
    # 0.96, 0.975 and 0.99 are where the old optimizer stalled
    ps = np.concatenate([np.linspace(0.5, 1.0, 3001),
                         [0.75, 0.96, 0.975, 0.99, np.nextafter(1.0, 0.0)]])
    for p in ps:
        s = bl.optimal_strategy(float(p))
        assert s.to_box().table.tobytes() == per_point_box(s).table.tobytes()
