"""Two-qubit machinery: unitaries, Bloch geometry, and BELL-member boxes.

Bloch convention used throughout:
    |0> -> (0, 0, +1),  |1> -> (0, 0, -1),  |+> -> (1, 0, 0),  |+i> -> (0, 1, 0).

The two maximally entangled states are stored explicitly:
``PHI_PLUS`` = (|00> + |11>)/sqrt(2) and ``SINGLET`` = (|01> - |10>)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boxes
from .boxes import CorrelationBox, frozen, read_only

UNITARY_TOL = 1e-10

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / np.sqrt(2.0)
_IDENTITY = np.eye(2)


def _require_norm_one(x: np.ndarray, message: str) -> None:
    """Raise ``message`` unless every vector [..., n] of ``x`` has norm 1
    within UNITARY_TOL; the test is written so that NaN fails it."""
    if not np.all(np.abs(np.linalg.norm(x, axis=-1) - 1.0) <= UNITARY_TOL):
        raise ValueError(message)


def _require_unitary(u: np.ndarray) -> np.ndarray:
    """``u`` as a complex [..., 2, 2] stack; raises unless every matrix is
    unitary: U^dagger U, added up from the entries' products as
    conj(U[r, i]) U[r, j] over the rows r, is I within UNITARY_TOL.  No
    stacked matmul; a NaN entry fails the test."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape[-2:] == (2, 2):
        products = u.conj()[..., :, :, None] * u[..., :, None, :]
        gram = products[..., 0, :, :] + products[..., 1, :, :]
        if (np.abs(gram - _IDENTITY) <= UNITARY_TOL).all():
            return u
    raise ValueError("matrix is not unitary within %g" % UNITARY_TOL)


def _haar(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Haar unitaries [*shape, 2, 2] from one draw: each takes its real
    draws, then its imaginary ones, as ``random_unitary`` calls in turn."""
    draws = rng.normal(size=(*shape, 2, 2, 2))
    q, r = np.linalg.qr(draws[..., 0, :, :] + 1j * draws[..., 1, :, :])
    # make the distribution Haar by absorbing the phases of diag(r)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary (QR of a complex Gaussian, phase-fixed)."""
    return _haar(rng, ())


def bloch_of(psi: np.ndarray) -> np.ndarray:
    """Bloch vectors [..., 3] of normalized single-qubit states [..., 2]."""
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape[-1:] != (2,):
        raise ValueError("expected a single-qubit state")
    _require_norm_one(psi, "state is not normalized")
    # conj(alpha) * beta and |.| in real arithmetic and hypot, which round as
    # numpy's complex scalars do; its complex array loops round differently
    alpha, beta = psi[..., 0], psi[..., 1]
    ar, ai, br, bi = alpha.real, alpha.imag, beta.real, beta.imag
    return np.stack([2.0 * (ar * br + ai * bi), 2.0 * (ar * bi - ai * br),
                     np.hypot(ar, ai) ** 2 - np.hypot(br, bi) ** 2], axis=-1)


def state_from_bloch(c: np.ndarray) -> np.ndarray:
    """Pure states [..., 2] whose Bloch vectors are the unit vectors [..., 3]."""
    c = _require_unit_vectors(c)
    theta = np.arccos(np.clip(c[..., 2], -1.0, 1.0))
    phi = np.arctan2(c[..., 1], c[..., 0])
    return np.stack([np.cos(theta / 2.0).astype(np.complex128),
                     np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1)


def _require_unit_vectors(c) -> np.ndarray:
    """``c`` as a float [..., 3] stack; raises unless every vector is unit."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape[-1:] != (3,):
        raise ValueError("expected a 3-vector")
    if np.any(np.linalg.norm(c, axis=-1) < 1e-12):
        raise ValueError("zero vector has no direction")
    _require_norm_one(c, "vector is not unit length")
    return c


def unitary_for_point(c: np.ndarray) -> np.ndarray:
    """Unitaries U [..., 2, 2] with bloch_of(U^-1 |1>) = c for unit vectors
    c [..., 3], phase-fixed for determinism.

    U^-1 has columns [psi_perp, psi] for the state psi of c, so U^-1 |1> =
    psi.  The global phase is chosen so that the largest-magnitude entry of
    the first column of U is real positive, the first of two equal ones.
    """
    psi = state_from_bloch(c)
    # rows conj(psi_perp) = (-psi_1, psi_0) and conj(psi)
    u = np.stack([np.stack([-psi[..., 1], psi[..., 0]], axis=-1), psi.conj()],
                 axis=-2)
    col = u[..., :, 0]
    pivot = np.take_along_axis(col, np.abs(col).argmax(axis=-1)[..., None],
                               axis=-1)[..., None]
    # conj(pivot) / |pivot| as numpy's complex scalars divide: each part
    # times 1 / |pivot|, and |.| by hypot; its complex array loops round
    # differently
    scale = 1.0 / np.hypot(pivot.real, pivot.imag)
    phase = np.empty_like(pivot)
    phase.real = pivot.real * scale
    phase.imag = -pivot.imag * scale
    return u * phase


def point_for_unitary(u: np.ndarray) -> np.ndarray:
    """Bloch points of U^-1 |1> = U^dagger |1>, the conjugated second row of
    each unitary U [..., 2, 2]; undoes ``unitary_for_point``."""
    return bloch_of(u[..., 1, :].conj())


@dataclass(frozen=True, eq=False)
class BellBoxSpec:
    """One pre-mixture BELL member: a unitary per input of each party.

    Input x of Alice measures U_x, input y of Bob measures V_y, and each
    reports its measured bit as the output.  Both fields are stored as
    read-only arrays, checked once.
    """

    alice_unitaries: np.ndarray  # complex, shape (x_size, 2, 2)
    bob_unitaries: np.ndarray    # complex, shape (y_size, 2, 2)

    def __post_init__(self):
        for party in ("alice", "bob"):
            us = read_only(getattr(self, party + "_unitaries"), np.complex128)
            if us.shape[:1] == (0,):
                raise ValueError("%s has no inputs" % party)
            us = _require_unitary(us)
            if us.ndim != 3:
                raise ValueError("expected one 2x2 unitary per input")
            object.__setattr__(self, party + "_unitaries", us)

    @property
    def x_size(self) -> int:
        return len(self.alice_unitaries)

    @property
    def y_size(self) -> int:
        return len(self.bob_unitaries)


def simple_bell_spec(alice_unitaries, bob_unitaries) -> BellBoxSpec:
    """The spec of Alice's and Bob's unitaries, one per input."""
    return BellBoxSpec(alice_unitaries, bob_unitaries)


def measurement_probs(u: np.ndarray, v: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Pr[(s, t)] = |<st| U (x) V |state>|^2 as an array indexed [..., s, t].

    ``u`` and ``v`` are 2x2 unitaries or stacks of them, [..., 2, 2], and
    broadcast against each other.  The amplitude of (s, t) is the sum, in
    order of k = 2i + j, of (U[s, i] V[t, j]) state[k] over the k with
    state[k] != 0: the terms of np.kron(u, v) @ state that are not zero,
    two of four for SINGLET and PHI_PLUS, with no Kronecker stack and no
    matmul.  For those two states one term has an even k and one an odd k,
    and each is a real multiple rounded once, so every probability is the
    float np.kron(u, v) @ state gives, bit for bit, wherever its BLAS kernel
    keeps even and odd k apart, as numpy's bundled OpenBLAS does on x86-64.
    For other states this is the sum in numpy arithmetic, which can differ
    in the last bits from a BLAS that fuses multiplies into adds.
    """
    u = _require_unitary(u)
    v = _require_unitary(v)
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (4,):
        raise ValueError("expected a two-qubit state")
    _require_norm_one(state, "state is not normalized")
    amps = None
    for k in state.nonzero()[0]:
        term = u[..., :, None, k // 2] * v[..., None, :, k % 2]
        term *= state[k]
        amps = term if amps is None else np.add(amps, term, out=amps)
    return np.abs(amps) ** 2


def bell_box(spec: BellBoxSpec, state: np.ndarray) -> CorrelationBox:
    """Exact correlation box from measuring ``state`` as ``spec`` prescribes:
    the [x, y, 2, 2] table of ``measurement_probs`` over every input pair.

    Alice's inputs go in blocks whose measurement temporaries hold at most
    PATH_TABLE_CAP entries each, 8 per input pair: a complex 2 x 2 term or
    sum of ``measurement_probs`` is 8 float64 entries.  One block is the table
    itself; several fill a table made for them, which keeps the peak at one
    table and one block.
    """
    us, vs = spec.alice_unitaries[:, None], spec.bob_unitaries[None]
    xs = list(boxes.blocks(spec.x_size, 8 * spec.y_size))
    if len(xs) == 1:
        return CorrelationBox(frozen(measurement_probs(us, vs, state)))
    table = np.empty((spec.x_size, spec.y_size, 2, 2))
    for x in xs:
        table[x] = measurement_probs(us[x], vs, state)
    return CorrelationBox(frozen(table))


def singlet_measure_box(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact Pr[a, b] of measuring (U (x) V) |singlet>, indexed [..., a, b]."""
    return measurement_probs(u, v, SINGLET)


def singlet_invariance_defect(v: np.ndarray) -> float:
    """1 - |<singlet| (V (x) V) |singlet>|; zero for every unitary V."""
    v = _require_unitary(v)
    if v.ndim != 2:
        raise ValueError("expected one 2x2 unitary, not a stack")
    overlap = np.vdot(SINGLET, np.kron(v, v) @ SINGLET)
    return float(1.0 - abs(overlap))


def direct_sum_bell(spec1: BellBoxSpec, spec2: BellBoxSpec,
                    state: np.ndarray) -> CorrelationBox:
    """Direct-sum box of two specs measuring ``state``: block-i inputs use
    block-i unitaries, and report their bit s at output 2i + s.

    Inputs are concatenated, block 1's first.  Restricting to either block
    reproduces that block's box exactly; a cross-block row puts the bits
    measured there at the two blocks' outputs.
    """
    measured = bell_box(BellBoxSpec(
        frozen(np.concatenate([spec1.alice_unitaries, spec2.alice_unitaries])),
        frozen(np.concatenate([spec1.bob_unitaries, spec2.bob_unitaries]))),
        state).table
    table = np.zeros(measured.shape[:2] + (4, 4))
    for i, xs in enumerate((slice(spec1.x_size), slice(spec1.x_size, None))):
        for j, ys in enumerate((slice(spec1.y_size),
                                slice(spec1.y_size, None))):
            table[xs, ys, 2 * i:2 * i + 2, 2 * j:2 * j + 2] = measured[xs, ys]
    return CorrelationBox(frozen(table))


def restrict_box(box: CorrelationBox, xs, ys, as_, bs) -> CorrelationBox:
    """Sub-box on the given input labels, projected onto the given outputs."""
    # fancy indexing makes a new array that owns its data
    sub = box.table[np.ix_(list(xs), list(ys), list(as_), list(bs))]
    return CorrelationBox(frozen(sub))
