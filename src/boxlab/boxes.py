"""Finite-alphabet bipartite correlation boxes.

A correlation box maps an input pair (x, y) to a joint probability
distribution over an output pair (a, b).  Boxes are stored as dense
float64 tables indexed [x, y, a, b] and are immutable after construction.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
NS_TOL = 1e-10
PATH_TABLE_CAP = 2 ** 22   # entries of one temporary array a kernel builds, 32 MB of float64
# entries of a stack below which numpy's one sum call beats an add per cell:
# the two met at about 128 tables of 2 x 2 cells (timeit, 2-core host)
SMALL_STACK = 512


def table_sums(tables: np.ndarray) -> np.ndarray:
    """The sum of each [a, b] table of a stack [..., a, b], bit for bit
    numpy's ``sum(axis=(-2, -1))``.

    numpy adds a table of fewer than 8 cells one cell at a time, in memory
    order, to a zero; on a C-ordered stack that is one vectorized add per
    cell in row-major order, which skips numpy's per-table inner loop.
    Tables of 8 or more cells (pairwise sums), other layouts and stacks of
    fewer than SMALL_STACK entries keep numpy's call.
    """
    if tables.size < SMALL_STACK or not tables.flags.c_contiguous \
            or tables.shape[-2] * tables.shape[-1] >= 8:
        return tables.sum(axis=(-2, -1))
    cells = tables.reshape(tables.shape[:-2] + (-1,))
    total = 0.0 + cells[..., 0]
    for k in range(1, cells.shape[-1]):
        total += cells[..., k]
    return total


def check_distributions(probs: np.ndarray) -> None:
    """Raise unless every table of a stack [..., a, b] is a distribution.

    Both tests are written so that a NaN entry fails them.
    """
    if not (probs >= -NORM_TOL).all():
        raise ValueError("negative probability entry")
    if not (np.abs(table_sums(probs) - 1.0) <= NORM_TOL).all():
        raise ValueError("probabilities do not sum to 1 within %g" % NORM_TOL)


def check_numbers(values, name: str, kind) -> None:
    """Raise unless every value is a ``kind``, ``numbers.Real`` or
    ``numbers.Integral``, and no bool: JSON numbers pass, strings and
    true/false do not.  A plain int or float, which always passes, is
    told apart by its type alone."""
    plain = int if kind is numbers.Integral else float
    for v in values:
        if type(v) is not plain and (isinstance(v, bool)
                                     or not isinstance(v, kind)):
            raise ValueError("%s %r is not %s" % (name, v, "an integer"
                             if kind is numbers.Integral else "a number"))


def read_only(values, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` array that cannot be written to: ``values``
    itself if it is already a read-only ``dtype`` array that owns its data,
    as ``frozen`` hands one over, else a new read-only copy.

    An array a caller may still write, a view of one, another dtype or a
    list is copied, so a value type never shares memory with one.  A caller
    who freezes an array of its own hands it over: a view of it made before
    would still write the value's array."""
    if not (type(values) is np.ndarray and values.dtype == dtype
            and values.base is None and not values.flags.writeable):
        values = np.array(values, dtype=dtype)
        values.flags.writeable = False
    return values


def frozen(array: np.ndarray) -> np.ndarray:
    """``array`` marked read-only, for the value type it is passed to to
    take over with no copy: a builder's handover of an array it has just
    made, owns, and keeps no view of."""
    array.flags.writeable = False
    return array


def blocks(n: int, width: int, cap: int | None = None):
    """Slices that cover range(n) in order, each of max(1, cap // width)
    items: the block walk of every kernel whose temporary arrays hold
    ``width`` entries an item and stay within ``cap``, PATH_TABLE_CAP read
    at the call unless given.  Lazy, as n may be any integer."""
    step = max(1, (PATH_TABLE_CAP if cap is None else cap) // width)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def scatter_outputs(probs: np.ndarray, a_map: np.ndarray, b_map: np.ndarray,
                    a_size: int, b_size: int) -> np.ndarray:
    """Table [x, y, a, b] of probs [x, y, s, t] added up at a = a_map[x, s]
    and b = b_map[y, t], in (s, t) order: per-input output maps applied to
    a stack of joint distributions.  The table owns its data, so a box can
    take it over."""
    n_x, n_y = probs.shape[:2]
    cell = (np.arange(n_x)[:, None] * n_y + np.arange(n_y)) * a_size
    index = cell[:, :, None, None] + a_map[:, None, :, None]
    index *= b_size
    index = index + b_map[None, :, None, :]
    table = np.bincount(index.ravel(), probs.ravel(),
                        n_x * n_y * a_size * b_size)
    # in place: a reshape would return a view, which a box copies
    table.shape = (n_x, n_y, a_size, b_size)
    return table


def agreement(table: np.ndarray):
    """Pr[a = b] and Pr[a != b] of binary output tables [..., a, b]."""
    return (table[..., 0, 0] + table[..., 1, 1],
            table[..., 0, 1] + table[..., 1, 0])


@dataclass(frozen=True, eq=False)
class CorrelationBox:
    """Stochastic map (x, y) -> distribution over (a, b), stored exactly.

    The table is held read-only: a read-only float64 array that owns its
    data is taken over as it is, anything else is copied (``read_only``).
    Like every value type that holds arrays, a box compares by identity."""

    table: np.ndarray  # shape (x_size, y_size, a_size, b_size)

    def __post_init__(self):
        table = read_only(self.table, np.float64)
        if table.ndim != 4:
            raise ValueError("table must be 4-d, indexed [x, y, a, b]")
        if min(table.shape) < 1:
            raise ValueError("alphabet sizes must be positive")
        check_distributions(table)
        object.__setattr__(self, "table", table)

    @property
    def x_size(self) -> int:
        return self.table.shape[0]

    @property
    def y_size(self) -> int:
        return self.table.shape[1]

    @property
    def a_size(self) -> int:
        return self.table.shape[2]

    @property
    def b_size(self) -> int:
        return self.table.shape[3]


def pr_box() -> CorrelationBox:
    """The Popescu-Rohrlich box: (0, xy) or (1, 1-xy), each with probability 1/2."""
    table = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            table[x, y, 0, x * y] = 0.5
            table[x, y, 1, 1 - x * y] = 0.5
    return CorrelationBox(frozen(table))


def local_box(f, g) -> CorrelationBox:
    """Deterministic local binary box: output point mass at (f(x), g(y)).

    ``f`` and ``g`` are sequences of the bits 0 and 1 indexed by input
    symbol; any other entry is refused.
    """
    check_numbers([*f, *g], "output bit", numbers.Integral)
    if any(v not in (0, 1) for v in [*f, *g]):
        raise ValueError("output map value out of range")
    table = np.zeros((len(f), len(g), 2, 2))
    for x, fx in enumerate(f):
        for y, gy in enumerate(g):
            table[x, y, fx, gy] = 1.0
    return CorrelationBox(frozen(table))


def mix(boxes, weights) -> CorrelationBox:
    """Entrywise convex combination of boxes with shared alphabets."""
    boxes = list(boxes)
    weights = np.asarray(weights, dtype=np.float64)
    if len(boxes) == 0 or len(boxes) != len(weights):
        raise ValueError("need one weight per box")
    check_distributions(weights[None])          # one [1, n] table
    shape = boxes[0].table.shape
    if any(b.table.shape != shape for b in boxes):
        raise ValueError("alphabet mismatch among mixture components")
    table = np.zeros(shape)
    for w, b in zip(weights, boxes):
        table += w * b.table
    return CorrelationBox(frozen(table))


def sample(box: CorrelationBox, x: int, y: int, rng: np.random.Generator,
           n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs (a, b) from the exact output distribution at (x, y).

    One ``rng.choice`` call gives the draws of n single-draw calls, in order.
    Entries down to -NORM_TOL, which a box table may hold, count as 0.
    """
    if not (0 <= x < box.x_size and 0 <= y < box.y_size):
        raise ValueError("input pair (%r, %r) out of range" % (x, y))
    flat = np.maximum(box.table[x, y].ravel(), 0.0)
    idx = rng.choice(flat.size, size=n, p=flat / flat.sum())
    return np.divmod(idx, box.b_size)


def tv_distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """TV distance between the tables of two stacks [..., a, b]."""
    return 0.5 * table_sums(np.abs(p - q))


def tv_closeness(box1: CorrelationBox, box2: CorrelationBox) -> float:
    """Max over input pairs of the TV distance between output distributions.

    Two boxes are epsilon-close iff this value is <= epsilon.
    """
    if box1.table.shape != box2.table.shape:
        raise ValueError("alphabet mismatch")
    return float(tv_distance(box1.table, box2.table).max())


def is_nonsignaling(box: CorrelationBox) -> bool:
    """True iff Alice's marginal is independent of y and Bob's of x, within
    NS_TOL."""
    marg_a = box.table.sum(axis=3)          # [x, y, a]
    marg_b = box.table.sum(axis=2)          # [x, y, b]
    dev_a = np.abs(marg_a - marg_a[:, :1, :]).max()
    dev_b = np.abs(marg_b - marg_b[:1, :, :]).max()
    return bool(dev_a <= NS_TOL and dev_b <= NS_TOL)


def box_to_payload(box: CorrelationBox) -> dict:
    """The canonical file form as a dict; round-trips doubles exactly."""
    return {
        "x_size": box.x_size,
        "y_size": box.y_size,
        "a_size": box.a_size,
        "b_size": box.b_size,
        "table": box.table.reshape(box.x_size, box.y_size, -1).tolist(),
    }


def box_from_payload(payload: dict) -> CorrelationBox:
    sizes = [payload[k] for k in ("x_size", "y_size", "a_size", "b_size")]
    check_numbers(sizes, "size", numbers.Integral)
    x_size, y_size, a_size, b_size = sizes
    table = np.array(payload["table"], dtype=object)
    if min(sizes) < 1 or table.shape != (x_size, y_size, a_size * b_size):
        raise ValueError("table must be x_size x y_size = %d x %d rows of "
                         "a_size * b_size = %d entries, for positive sizes"
                         % (x_size, y_size, a_size * b_size))
    check_numbers(table.ravel(), "table entry", numbers.Real)
    return CorrelationBox(frozen(table.reshape(sizes).astype(np.float64)))


def box_to_json(box: CorrelationBox) -> str:
    return json.dumps(box_to_payload(box))


def box_from_json(text: str) -> CorrelationBox:
    return box_from_payload(json.loads(text))
