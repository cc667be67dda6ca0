"""Adaptive k-query reduction protocols and their affine win-probability family.

A deterministic k-query protocol queries a target box k times, each query a
function of the party's own input and the responses seen so far, then emits
an output.  Response prefixes index map tables as base-|A2| integers with
the most recent response least significant.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import boxes
from .boxes import (CorrelationBox, agreement, check_numbers, local_box,
                    read_only, scatter_outputs, tv_closeness)

ENUMERATION_CAP = 10 ** 8
SCHEDULE_DIGIT_CAP = 4300  # Python's default limit on int-to-str conversion
DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class Alphabets:
    """Outer and inner alphabet sizes of a protocol."""

    x1: int
    y1: int
    a1: int
    b1: int
    x2: int
    y2: int
    a2: int
    b2: int

    def __post_init__(self):
        check_numbers(vars(self).values(), "alphabet size", numbers.Integral)
        if min(vars(self).values()) < 1:
            raise ValueError("alphabet sizes must be positive")


BINARY = Alphabets(2, 2, 2, 2, 2, 2, 2, 2)


@dataclass(frozen=True)
class DeterministicProtocol:
    """Flat-table form of a deterministic k-query protocol.

    ``q_maps[i]`` has length x1 * a2**i, indexed x * a2**i + prefix;
    ``s_map`` has length x1 * a2**k, same indexing.  Bob's maps mirror these.
    """

    alphabets: Alphabets
    k: int
    q_maps: tuple         # k tuples of ints in range(x2)
    r_maps: tuple         # k tuples of ints in range(y2)
    s_map: tuple          # ints in range(a1)
    t_map: tuple          # ints in range(b1)

    def __post_init__(self):
        al, k = self.alphabets, self.k
        check_numbers([k], "k", numbers.Integral)
        if k < 0:
            raise ValueError("k must be >= 0")
        if len(self.q_maps) != k or len(self.r_maps) != k:
            raise ValueError("need one query map per query")

        def check(values, length, size, name):
            if len(values) != length:
                raise ValueError("%s has wrong length" % name)
            check_numbers(values, name + " entry", numbers.Integral)
            if any(not 0 <= v < size for v in values):
                raise ValueError("%s value out of range" % name)

        for i in range(k):
            check(self.q_maps[i], al.x1 * al.a2 ** i, al.x2, "q_maps[%d]" % i)
            check(self.r_maps[i], al.y1 * al.b2 ** i, al.y2, "r_maps[%d]" % i)
        check(self.s_map, al.x1 * al.a2 ** k, al.a1, "s_map")
        check(self.t_map, al.y1 * al.b2 ** k, al.b1, "t_map")


@dataclass(frozen=True)
class AffineFunction:
    """ell(p) = intercept + slope * p."""

    intercept: float
    slope: float

    def __post_init__(self):
        if not (math.isfinite(self.intercept) and math.isfinite(self.slope)):
            raise ValueError("coefficients must be finite")

    def __call__(self, p):
        return self.intercept + self.slope * np.asarray(p, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class LineFamily:
    """Lines intercepts[i] + slopes[i] * p in the order given, held as two
    read-only float64 copies checked once to be finite and 1-D of equal
    length: no object per line.  Iterating yields ``AffineFunction``s."""

    intercepts: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        for name in ("intercepts", "slopes"):
            values = read_only(getattr(self, name), np.float64)
            if not np.isfinite(values).all():
                raise ValueError("coefficients must be finite")
            object.__setattr__(self, name, values)
        if self.intercepts.shape != self.slopes.shape or self.slopes.ndim != 1:
            raise ValueError("need 1-D intercepts and slopes of equal length")

    def __len__(self):
        return len(self.intercepts)

    def __iter__(self):
        return map(AffineFunction, self.intercepts.tolist(), self.slopes.tolist())


def identity_protocol() -> DeterministicProtocol:
    """Binary 1-query pass-through: query your input, output the response."""
    return DeterministicProtocol(BINARY, 1, ((0, 1),), ((0, 1),),
                                 (0, 1, 0, 1), (0, 1, 0, 1))


def _response_tables(alice, bob, target: CorrelationBox,
                     a1: int, b1: int) -> np.ndarray:
    """Joint output table [u, v, a, b] of every pair of local strategies.

    A local strategy is what one party does on one outer input: one query
    map per depth and an output map, all indexed by the response prefix.
    ``alice`` is ``(queries, outputs)`` with ``queries[d]`` an integer array
    of shape (n_u, a2**d) and ``outputs`` of shape (n_u, a2**k); ``bob``
    likewise with n_v rows.  Response paths are summed depth by depth.
    """
    (q_maps, s_map), (r_maps, t_map) = alice, bob
    n_u, n_v = len(s_map), len(t_map)
    weights = np.ones((n_u, n_v, 1, 1))        # [u, v, a_prefix, b_prefix]
    for q, r in zip(q_maps, r_maps):
        rows = target.table[q[:, None, :, None], r[None, :, None, :]]
        rows *= weights[..., None, None]
        # [u, v, a_prefix, a, b_prefix, b]; the newest response is least significant
        u, v, ap, bp, a, b = rows.shape
        weights = rows.transpose(0, 1, 2, 4, 3, 5).reshape(u, v, ap * a, bp * b)
    return scatter_outputs(weights, s_map, t_map, a1, b1)


def _protocol_strategies(protocol: DeterministicProtocol,
                         target: CorrelationBox):
    """Alice's x1 and Bob's y1 local strategies, in ``_response_tables`` form."""
    al = protocol.alphabets
    if target.table.shape != (al.x2, al.y2, al.a2, al.b2):
        raise ValueError("target alphabets do not match the protocol")
    entries = al.x1 * al.y1 * (al.a2 * al.b2) ** protocol.k
    if entries > boxes.PATH_TABLE_CAP:
        raise ValueError("response-path table of %d entries exceeds %d"
                         % (entries, boxes.PATH_TABLE_CAP))
    def maps(m, rows):
        return np.array(m, dtype=np.intp).reshape(rows, -1)

    alice = ([maps(m, al.x1) for m in protocol.q_maps],
             maps(protocol.s_map, al.x1))
    bob = ([maps(m, al.y1) for m in protocol.r_maps],
           maps(protocol.t_map, al.y1))
    return alice, bob


def _all_strategies(n_queries: int, n_responses: int, k: int):
    """Every local k-query strategy with binary outputs, which the lines of
    ``affine_family`` need, in ``_response_tables`` form and in the order of
    ``itertools.product`` over the table entries."""
    widths = [n_responses ** d for d in range(k + 1)]
    sizes = [n_queries] * sum(widths[:k]) + [2] * widths[k]
    flat = np.indices(sizes, dtype=np.intp).reshape(len(sizes), -1).T
    cols = list(itertools.accumulate(widths, initial=0))
    return [flat[:, cols[d]:cols[d + 1]] for d in range(k)], flat[:, cols[k]:]


def induced_box(protocol: DeterministicProtocol,
                target: CorrelationBox) -> CorrelationBox:
    """Exact box the protocol induces by summing over all response paths."""
    al = protocol.alphabets
    return CorrelationBox(_response_tables(
        *_protocol_strategies(protocol, target), target, al.a1, al.b1))


def check_reduction(protocol: DeterministicProtocol, target: CorrelationBox,
                    source: CorrelationBox, epsilon: float) -> tuple[bool, float]:
    """Is the induced box epsilon-close to the source?  Returns (ok, achieved TV)."""
    achieved = tv_closeness(induced_box(protocol, target), source)
    return achieved <= epsilon, achieved


def _digits(terms) -> float:
    """Decimal digits, as log10, of the product of base ** e over the
    (base, log10 e) terms; each term is capped at 10^300 digits, so neither
    the product nor the estimate is ever built or overflows."""
    return sum(10.0 ** min(log_e + math.log10(math.log10(base)), 300.0)
               for base, log_e in terms if base > 1)


def _log10_power(n: int, k: int) -> float:
    """log10 of n ** k; k past 2^20 gives a capped _digits term either way."""
    return min(k, 1 << 20) * math.log10(n)


def _log10_geometric(n: int, k: int) -> float:
    """log10 of 1 + n + ... + n^(k-1), for k >= 1."""
    if n == 1:
        return math.log10(k)
    power = _log10_power(n, k)
    return power + math.log10((1.0 - 10.0 ** -power) / (n - 1))


def count_digits(al: Alphabets, k: int) -> float:
    """Decimal digits (log10) of count_protocols(al, k), from logarithms."""
    if k < 0:
        raise ValueError("k must be >= 0")
    terms = [(al.a1, math.log10(al.x1) + _log10_power(al.a2, k)),
             (al.b1, math.log10(al.y1) + _log10_power(al.b2, k))]
    if k:
        terms += [(al.x2, math.log10(al.x1) + _log10_geometric(al.a2, k)),
                  (al.y2, math.log10(al.y1) + _log10_geometric(al.b2, k))]
    return _digits(terms)


def check_bound_digits(al: Alphabets, k: int) -> None:
    """Refuse response alphabets of one letter, where counting_bound(al, k)
    is no bound, and, from logarithms and before it is built, a bound of
    more than SCHEDULE_DIGIT_CAP digits.  With binary outer alphabets and
    |A|, |B| >= 2 the bound is at least count_protocols(al, k), so that
    count is refused too."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if min(al.a2, al.b2) < 2:
        raise ValueError("the counting bound needs response alphabets of at "
                         "least 2 letters")
    digits = _digits([(2 * al.x2, math.log10(2.0) + _log10_power(al.a2, k)),
                      (2 * al.y2, math.log10(2.0) + _log10_power(al.b2, k))])
    if digits > SCHEDULE_DIGIT_CAP:
        raise ValueError("the k = %d bound has about %.3g digits, more than %d"
                         % (k, digits, SCHEDULE_DIGIT_CAP))


def count_protocols(al: Alphabets, k: int) -> int:
    """Exact number of deterministic k-query protocols over the given alphabets,
    x2^(x1 G(a2)) y2^(y1 G(b2)) a1^(x1 a2^k) b1^(y1 b2^k), in closed form:
    G(a) = 1 + a + ... + a^(k-1) query-map entries per input over k depths."""
    g_a, g_b = (k if a == 1 else (a ** k - 1) // (a - 1)
                for a in (al.a2, al.b2))
    return (al.x2 ** (al.x1 * g_a) * al.y2 ** (al.y1 * g_b)
            * al.a1 ** (al.x1 * al.a2 ** k) * al.b1 ** (al.y1 * al.b2 ** k))


def counting_bound(al: Alphabets, k: int) -> int:
    """(2|X|)^(2|A|^k) * (2|Y|)^(2|B|^k), a bound on the count for binary
    outer alphabets and |A|, |B| >= 2."""
    return (2 * al.x2) ** (2 * al.a2 ** k) * (2 * al.y2) ** (2 * al.b2 ** k)


def _refuse_past_cap(al: Alphabets, k: int) -> None:
    # the estimate first: a count a digit or more past the cap is never built
    digits = count_digits(al, k)
    if digits > math.log10(ENUMERATION_CAP) + 1:
        raise ValueError("protocol count of about 10^%.3g exceeds cap %d"
                         % (digits, ENUMERATION_CAP))
    # a count that grows with k is at least 2^k, so past log2 of the cap only
    # a constant count (a 1x1x1x1 target's) is left; its strategies take k steps
    if k > math.log2(ENUMERATION_CAP):
        raise ValueError("k = %d is more than log2 of cap %d"
                         % (k, ENUMERATION_CAP))
    total = count_protocols(al, k)
    if total > ENUMERATION_CAP:
        raise ValueError("protocol count %d exceeds cap %d"
                         % (total, ENUMERATION_CAP))


def enumerate_protocols(al: Alphabets, k: int):
    """Yield every deterministic k-query protocol exactly once."""
    _refuse_past_cap(al, k)
    q_spaces = [itertools.product(range(al.x2), repeat=al.x1 * al.a2 ** i)
                for i in range(k)]
    r_spaces = [itertools.product(range(al.y2), repeat=al.y1 * al.b2 ** i)
                for i in range(k)]
    s_space = itertools.product(range(al.a1), repeat=al.x1 * al.a2 ** k)
    t_space = itertools.product(range(al.b1), repeat=al.y1 * al.b2 ** k)
    for parts in itertools.product(*q_spaces, *r_spaces, s_space, t_space):
        q_maps = parts[:k]
        r_maps = parts[k:2 * k]
        s_map, t_map = parts[2 * k], parts[2 * k + 1]
        yield DeterministicProtocol(al, k, q_maps, r_maps, s_map, t_map)


def affine_of(protocol: DeterministicProtocol,
              target: CorrelationBox) -> AffineFunction:
    """Win probability of the protocol in CHSH[p, 1/2], as a function of p."""
    al = protocol.alphabets
    if (al.x1, al.y1, al.a1, al.b1) != (2, 2, 2, 2):
        raise ValueError("parity win probabilities need binary outer alphabets")
    eq, ne = agreement(_response_tables(
        *_protocol_strategies(protocol, target), target, 2, 2))
    # the win probability at (x, y) is Pr[a xor b = x*y]; I and J are formed
    # as affine_family forms them, so the line is the family's, bit for bit
    intercept = 0.5 * (eq[0, 0] + eq[0, 1])
    return AffineFunction(intercept, 0.5 * (eq[1, 0] + ne[1, 1]) - intercept)


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct key."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return np.sort(order[first])


def _id_rows(values: np.ndarray):
    """Exact ids of a 2-D array, with each row's distinct ids ascending,
    padded with the pool size (past every id) and cut to the widest row."""
    pool, ids = np.unique(np.sort(values, axis=1), return_inverse=True)
    ids = ids.reshape(values.shape)             # 1-D before numpy 2
    ids[:, 1:][ids[:, 1:] == ids[:, :-1]] = len(pool)
    ids.sort(axis=1)
    width = int(np.count_nonzero(ids < len(pool), axis=1).max())
    return pool, np.ascontiguousarray(ids[:, :width])


def _exact_lines(i_ids: np.ndarray, j_rows: np.ndarray, pool: np.ndarray):
    """(intercept, slope) of the first of each distinct (I, J) pair, pairing
    each I id with the J ids of its row, in that order.

    A function of its own so that a run's keys are freed before the
    caller yields its lines."""
    n = len(pool)
    keys = (i_ids[:, None] * n + j_rows)[j_rows < n]
    i_ids, j_ids = np.divmod(keys[_first_occurrences(keys)], n)
    intercepts = pool[i_ids]
    return intercepts, pool[j_ids] - intercepts


def _candidate_lines(tables: np.ndarray):
    """(intercept, slope) arrays of the first of each exact (I, J) pair,
    from the agreement tables [beta, alpha, (W_eq, W_ne)].

    The candidates are, for each Bob pair, every distinct I paired with
    every distinct J, in the order (beta0, beta1, I, J), each of I and J
    ascending.  The I and J values are replaced by exact ids from one pool
    (``np.unique``): equal ids are equal floats.  Each Bob pair keeps its
    distinct ids in a row padded past the largest id, so a candidate is one
    integer key i_id * n_pool + j_id, and one pass keeps the first
    occurrence of each key, in order.

    The I and J values are built for at most PATH_TABLE_CAP // (2 n_u) Bob
    pairs at a time, and their candidates in runs of (Bob pair, I) rows of
    at most PATH_TABLE_CAP // 4 entries: a run's keys, sort order and masks
    take about as much memory as one float64 array of PATH_TABLE_CAP
    entries.  A pair met again in a later run is left to ``_first_per_key``.
    """
    n_v, n_u = tables.shape[:2]
    eq, ne = tables[..., 0], tables[..., 1]
    for pairs in boxes.blocks(n_v * n_v, 2 * n_u):
        beta0, beta1 = np.divmod(np.arange(pairs.start, pairs.stop), n_v)
        eq0 = eq[beta0]
        pool, rows = _id_rows(0.5 * np.concatenate([eq0 + eq[beta1],
                                                    eq0 + ne[beta1]]))
        i_rows, j_rows = rows[:len(beta0)], rows[len(beta0):]
        valid = i_rows < len(pool)
        pair = np.repeat(np.arange(len(i_rows)), np.count_nonzero(valid, axis=1))
        i_ids = i_rows[valid]                   # (Bob pair, I) rows, in order
        for run in boxes.blocks(len(i_ids), 4 * j_rows.shape[1]):
            yield _exact_lines(i_ids[run], j_rows[pair[run]], pool)


def _first_per_key(intercepts: np.ndarray, slopes: np.ndarray):
    """The first line of each dedup key, in their order: the library's one
    rule for equal lines.  A line's key is its two coefficients over
    DEDUP_TOL, rounded half to even; they become dense ranks in one pool,
    combined into one integer."""
    scale = 1.0 / DEDUP_TOL
    pool, ids = np.unique(np.rint(np.concatenate([intercepts, slopes]) * scale),
                          return_inverse=True)
    keep = _first_occurrences(ids[:len(intercepts)] * len(pool)
                              + ids[len(intercepts):])
    return intercepts[keep], slopes[keep]


def _distinct(table: np.ndarray) -> np.ndarray:
    """The rows of ``table`` that are no byte-for-byte copy of an earlier
    row, in order."""
    first: dict = {}
    for i, row in enumerate(table):
        first.setdefault(row.tobytes(), i)
    return table[list(first.values())]


def affine_family(target: CorrelationBox, k: int, *,
                  up_to_k: bool = False) -> LineFamily:
    """All distinct win-probability lines of deterministic k-query protocols,
    as a ``LineFamily``.

    With ``up_to_k`` the union over query counts 0..k is returned; the
    default is exactly k queries.  Lines are deduplicated with tolerance
    ``DEDUP_TOL`` on the coefficient pair, keeping the first line of each
    ``_first_per_key`` key in the order below, and sorted by
    (intercept, slope).

    A protocol is a choice of local strategies (alpha0, alpha1) for Alice
    and (beta0, beta1) for Bob.  Its line has intercept
    I = (W_eq[alpha0, beta0] + W_eq[alpha0, beta1]) / 2 and slope J - I with
    J = (W_eq[alpha1, beta0] + W_ne[alpha1, beta1]) / 2, so for each Bob
    pair only the distinct I and J values need combining.  The order is
    (k, beta0, beta1, I, J), each of I and J ascending.

    Each distinct local strategy is enumerated once: a strategy whose
    (W_eq, W_ne) row (Alice) or column (Bob) is a byte-for-byte copy of an
    earlier one is dropped, and the first of each is kept, in order
    (``_distinct``).  The lines stay the same bit for bit.  An Alice copy
    gives I and J values equal to those of its first, and each Bob pair
    keeps only its distinct values.  A Bob pair that holds a copy repeats
    exactly the candidates of the pair of first copies, which comes earlier
    in (beta0, beta1) order; so the first occurrence of every (I, J) pair,
    and with it the first line of every key, does not change.

    Every candidate line is a small integer key over exact ids of the I and
    J values, and only the first of equal (I, J) pairs survives
    (``_candidate_lines``).  A repeated pair has the dedup key of its first
    occurrence, so the survivors still hold the first line of
    every key, and only they are rounded to keys (``_first_per_key``).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    al = Alphabets(2, 2, 2, 2, target.x_size, target.y_size,
                   target.a_size, target.b_size)
    intercepts, slopes = np.empty(0), np.empty(0)
    for kk in (range(k + 1) if up_to_k else (k,)):
        _refuse_past_cap(al, kk)
        tables = np.stack(agreement(_response_tables(
            _all_strategies(al.x2, al.a2, kk),
            _all_strategies(al.y2, al.b2, kk), target, 2, 2)), axis=-1)
        # Alice's distinct rows, then Bob's: [beta, alpha, (W_eq, W_ne)]
        tables = _distinct(_distinct(tables).transpose(1, 0, 2))
        # lines kept from earlier runs and query counts come first, so they stay
        for new_intercepts, new_slopes in _candidate_lines(tables):
            intercepts, slopes = _first_per_key(
                np.concatenate([intercepts, new_intercepts]),
                np.concatenate([slopes, new_slopes]))
    # complex numbers sort by real part, then imaginary part: one stable
    # argsort in place of lexsort's two
    lines = intercepts.astype(complex)
    lines.imag = slopes
    order = np.argsort(lines, kind="stable")
    return LineFamily(intercepts[order], slopes[order])


def local_deterministic_boxes():
    """All 16 deterministic local binary boxes (a = f(x), b = g(y))."""
    maps = list(itertools.product(range(2), repeat=2))
    return [local_box(f, g) for f in maps for g in maps]


def protocol_to_payload(protocol: DeterministicProtocol) -> dict:
    # int() of every entry: a protocol may hold numpy integers
    return {
        "alphabets": [int(v) for v in vars(protocol.alphabets).values()],
        "k": int(protocol.k),
        "q_maps": [[int(v) for v in m] for m in protocol.q_maps],
        "r_maps": [[int(v) for v in m] for m in protocol.r_maps],
        "s_map": [int(v) for v in protocol.s_map],
        "t_map": [int(v) for v in protocol.t_map],
    }


def protocol_from_payload(payload: dict) -> DeterministicProtocol:
    def listed(value, name):
        if not isinstance(value, list):
            raise ValueError("%s must be a list" % name)
        return tuple(value)

    def maps(name):
        return tuple(listed(m, "%s[%d]" % (name, i))
                     for i, m in enumerate(listed(payload[name], name)))

    sizes = payload["alphabets"]
    if not isinstance(sizes, list) or len(sizes) != 8:
        raise ValueError("alphabets must be a list of 8 sizes")
    return DeterministicProtocol(
        Alphabets(*sizes), payload["k"], maps("q_maps"), maps("r_maps"),
        listed(payload["s_map"], "s_map"), listed(payload["t_map"], "t_map"))
