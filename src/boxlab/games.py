"""Biased CHSH games: evaluation, benchmark curves, and optimized strategies.

CHSH[p, q]: the referee draws x, y independently with Pr[x=1] = p and
Pr[y=1] = q; the players win iff a xor b = x*y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import CorrelationBox, agreement
from .quantum import SINGLET, BellBoxSpec, bell_box, simple_bell_spec, unitary_for_point


def _check_bias(p: float, q: float) -> None:
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("biases must lie in [0, 1]")


def win_prob(box: CorrelationBox, p: float, q: float) -> float:
    """Exact win probability of a binary box in CHSH[p, q]."""
    if box.table.shape != (2, 2, 2, 2):
        raise ValueError("CHSH needs a binary box")
    _check_bias(p, q)
    equal = agreement(box.table)[0]
    # a xor b = xy is a = b but at x = y = 1; terms in (x, y) order
    return sum(wx * wy * (equal[x, y] if x * y == 0 else 1.0 - equal[x, y])
               for x, wx in enumerate((1.0 - p, p))
               for y, wy in enumerate((1.0 - q, q)))


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
        def unitaries(angles):
            """One stacked unitary_for_point call for a party's angles."""
            t = np.array(angles)
            return unitary_for_point(
                np.stack([np.sin(t), np.zeros_like(t), np.cos(t)], axis=-1))

        return simple_bell_spec(unitaries(self.alice_angles),
                                unitaries(self.bob_angles))

    def to_box(self) -> CorrelationBox:
        return bell_box(self.to_bell_spec(), SINGLET)


def optimal_strategy(p: float) -> PlanarStrategy:
    """Optimal planar singlet strategy for CHSH[p, 1/2], in closed form.

    With alpha = (0, pi/2) the win probability is
    1/2 - (R/4) (cos(beta_0 - t) + cos(beta_1 + t)), where
    R = sqrt(p^2 + (1-p)^2) and t = atan2(p, 1 - p), so beta = (pi + t, pi - t)
    attains omega(p) = 1/2 + R/2.
    """
    if not 0.5 <= p <= 1.0:
        raise ValueError("optimal_strategy requires p in [1/2, 1]")
    t = float(np.arctan2(p, 1.0 - p))
    return PlanarStrategy((0.0, np.pi / 2.0), (np.pi + t, np.pi - t))


def achieved_win_prob(p: float) -> float:
    """Win probability of the optimal strategy, evaluated from the exact box."""
    return win_prob(optimal_strategy(p).to_box(), p, 0.5)
