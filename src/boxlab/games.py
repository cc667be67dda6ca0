"""Biased CHSH games: evaluation, benchmark curves, and optimized strategies.

CHSH[p, q]: the referee draws x, y independently with Pr[x=1] = p and
Pr[y=1] = q; the players win iff a xor b = x*y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import CorrelationBox
from .quantum import SINGLET, BellBoxSpec, bell_box, simple_bell_spec, unitary_for_point

OPT_TOL = 1e-6
CEILING_TOL = 1e-9


def _check_bias(p: float, q: float) -> None:
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("biases must lie in [0, 1]")


def win_prob(box: CorrelationBox, p: float, q: float) -> float:
    """Exact win probability of a binary box in CHSH[p, q]."""
    if box.table.shape != (2, 2, 2, 2):
        raise ValueError("CHSH needs a binary box")
    _check_bias(p, q)
    wx = (1.0 - p, p)
    wy = (1.0 - q, q)
    total = 0.0
    for x in range(2):
        for y in range(2):
            row = box.table[x, y]
            p_equal = row[0, 0] + row[1, 1]
            total += wx[x] * wy[y] * (p_equal if x * y == 0 else 1.0 - p_equal)
    return total


def omega(p: float) -> float:
    """Optimal quantum win probability for CHSH[p, 1/2]."""
    return 0.5 + 0.5 * np.sqrt(p * p + (1.0 - p) ** 2)


def omega_prime(p: float) -> float:
    return (2.0 * p - 1.0) / (2.0 * np.sqrt(p * p + (1.0 - p) ** 2))


def biased_bound(p: float, q: float) -> float:
    """Quantum ceiling for CHSH[p, q] in the regime 1/2 <= q <= 1/(2p) <= 1."""
    _check_bias(p, q)
    if not (0.5 <= p <= 1.0 and 0.5 <= q and 2.0 * p * q <= 1.0 + 1e-15):
        raise ValueError("biased bound requires 1/2 <= q <= 1/(2p) <= 1")
    return 0.5 + 0.5 * np.sqrt(2.0) * np.sqrt(q * q + (1.0 - q) ** 2) \
        * np.sqrt(p * p + (1.0 - p) ** 2)


@dataclass(frozen=True)
class PlanarStrategy:
    """Singlet measurements in the X-Z Bloch plane, one angle per input bit."""

    alice_angles: tuple[float, float]
    bob_angles: tuple[float, float]

    def __post_init__(self):
        angles = (*self.alice_angles, *self.bob_angles)
        if any(not (0.0 <= t < 2.0 * np.pi) for t in angles):
            raise ValueError("angles must lie in [0, 2*pi)")

    def to_bell_spec(self) -> BellBoxSpec:
        def u_for(theta):
            return unitary_for_point(np.array([np.sin(theta), 0.0, np.cos(theta)]))

        return simple_bell_spec(
            [u_for(t) for t in self.alice_angles],
            [u_for(t) for t in self.bob_angles],
        )

    def to_box(self) -> CorrelationBox:
        return bell_box(self.to_bell_spec(), SINGLET)


def planar_win_prob(strategy: PlanarStrategy, p: float, q: float = 0.5) -> float:
    """Closed-form win probability: Pr[a=b | x, y] = 1/2 - cos(alpha_x - beta_y)/2."""
    _check_bias(p, q)
    wx = (1.0 - p, p)
    wy = (1.0 - q, q)
    total = 0.0
    for x, alpha in enumerate(strategy.alice_angles):
        for y, beta in enumerate(strategy.bob_angles):
            p_equal = 0.5 - 0.5 * np.cos(alpha - beta)
            total += wx[x] * wy[y] * (p_equal if x * y == 0 else 1.0 - p_equal)
    return total


def _win_grid(p: float, a1, b0, b1) -> np.ndarray:
    """Vectorized planar win probability with alpha_0 pinned to 0."""
    s00 = 0.5 - 0.5 * np.cos(-b0)
    s01 = 0.5 - 0.5 * np.cos(-b1)
    s10 = 0.5 - 0.5 * np.cos(a1 - b0)
    s11 = 0.5 - 0.5 * np.cos(a1 - b1)
    return 0.5 * ((1.0 - p) * (s00 + s01) + p * (s10 + 1.0 - s11))


def optimal_strategy(p: float, grid: int = 64) -> PlanarStrategy:
    """Best planar singlet strategy for CHSH[p, 1/2].

    Coarse grid search over (alpha_1, beta_0, beta_1) with alpha_0 = 0
    (singlet rotational invariance), then coordinate descent with a halving
    step down to 1e-10.  Deterministic; ties resolved by scan order, which
    picks the lexicographically smallest angle triple on the grid.
    """
    if not 0.5 <= p <= 1.0:
        raise ValueError("optimal_strategy requires p in [1/2, 1]")
    if grid < 1:
        raise ValueError("grid must be at least 1")
    angles = np.arange(grid) * (2.0 * np.pi / grid)
    a1 = angles[:, None, None]
    b0 = angles[None, :, None]
    b1 = angles[None, None, :]
    values = _win_grid(p, a1, b0, b1)
    best_flat = int(np.argmax(values))          # first max = lexicographically smallest
    ia, ib0, ib1 = np.unravel_index(best_flat, values.shape)
    theta = [float(angles[ia]), float(angles[ib0]), float(angles[ib1])]

    def value(t):
        return float(_win_grid(p, t[0], t[1], t[2]))

    step = 2.0 * np.pi / grid
    best = value(theta)
    while step > 1e-10:
        improved = False
        for i in range(3):
            for delta in (step, -step):
                trial = list(theta)
                trial[i] = (trial[i] + delta) % (2.0 * np.pi)
                v = value(trial)
                if v > best + 1e-16:
                    theta, best = trial, v
                    improved = True
        if not improved:
            step *= 0.5
    return PlanarStrategy((0.0, theta[0]), (theta[1], theta[2]))


def achieved_win_prob(p: float, grid: int = 64) -> float:
    """Win probability of the optimized strategy, evaluated from the exact box."""
    strategy = optimal_strategy(p, grid=grid)
    return win_prob(strategy.to_box(), p, 0.5)
