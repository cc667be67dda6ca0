import functools
import numbers
import operator
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxlab as bl
from boxlab import boxes, games, protocols, quantum, sphere
from boxlab.boxes import (box_from_json, box_from_payload, box_to_json,
                         box_to_payload, check_numbers, scatter_outputs)


def test_pr_box_rows():
    pr = bl.pr_box()
    assert pr.table[0, 0, 0, 0] == 0.5
    assert pr.table[0, 0, 1, 1] == 0.5
    assert pr.table[1, 1, 0, 1] == 0.5
    assert pr.table[1, 1, 1, 0] == 0.5
    for x in range(2):
        for y in range(2):
            assert np.allclose(pr.table[x, y].sum(axis=1), [0.5, 0.5])
            assert np.allclose(pr.table[x, y].sum(axis=0), [0.5, 0.5])


def test_local_box_point_masses():
    identity = bl.local_box([0, 1], [0, 1])
    assert identity.table[1, 0, 1, 0] == 1.0
    const = bl.local_box([0, 0], [0, 0])
    # binary outputs whatever the maps use
    assert const.table.shape == (2, 2, 2, 2)
    for x in range(2):
        for y in range(2):
            assert const.table[x, y, 0, 0] == 1.0
    assert bl.is_nonsignaling(identity)
    assert bl.is_nonsignaling(const)
    for f, g in (([0, 2], [0, 1]), ([0, 1], [-1, 0])):
        with pytest.raises(ValueError, match="out of range"):
            bl.local_box(f, g)


@pytest.mark.parametrize("bad", [0.7, 1.9, 1.0, True, False, "1", None])
def test_local_box_refuses_anything_but_the_bits(bad):
    for f, g in (([0, bad], [0, 1]), ([0, 1], [bad, 1])):
        with pytest.raises(ValueError, match="output bit .* is not an integer"):
            bl.local_box(f, g)


def test_local_box_takes_numpy_bits():
    assert np.array_equal(bl.local_box(np.array([0, 1]), (np.int64(1), 0)).table,
                          bl.local_box([0, 1], [1, 0]).table)


def refused_by_the_reference(value, kind):
    """The number check as first written: one isinstance test a value."""
    return isinstance(value, bool) or not isinstance(value, kind)


NUMBER_CORPUS = [0, 1, -7, 2 ** 80, True, False, np.int64(3), np.bool_(True),
                 0.5, -0.0, float("nan"), float("inf"), float("-inf"),
                 np.float32(0.5), np.float64(0.25), Fraction(1, 3),
                 Decimal("0.5"), 1 + 2j, "1", None]


@pytest.mark.parametrize("kind", [numbers.Integral, numbers.Real])
@pytest.mark.parametrize("value", NUMBER_CORPUS, ids=repr)
def test_check_numbers_agrees_with_the_reference_predicate(kind, value):
    if refused_by_the_reference(value, kind):
        with pytest.raises(ValueError, match="entry .* is not"):
            check_numbers([1, value], "entry", kind)
    else:
        check_numbers([1, value], "entry", kind)


def test_mix_identity_and_midpoint():
    pr = bl.pr_box()
    assert bl.tv_closeness(bl.mix([pr], [1.0]), pr) == 0.0
    b1 = bl.local_box([0, 0], [0, 0])
    b2 = bl.local_box([1, 1], [1, 1])
    m = bl.mix([b1, b2], [0.5, 0.5])
    for x in range(2):
        for y in range(2):
            assert m.table[x, y, 0, 0] == 0.5
            assert m.table[x, y, 1, 1] == 0.5


def test_mix_errors():
    pr = bl.pr_box()
    with pytest.raises(ValueError):
        bl.mix([pr, bl.local_box([0], [0])], [0.5, 0.5])
    with pytest.raises(ValueError):
        bl.mix([pr, pr], [0.7, 0.7])


@pytest.mark.parametrize("weights,message", [
    ([np.nan, np.nan], "negative probability entry"),
    ([np.nan, 1.0], "negative probability entry"),
    ([np.inf, -np.inf], "negative probability entry"),
    ([1.5, -0.5], "negative probability entry"),
    ([0.7, 0.7], "probabilities do not sum to 1 within 1e-12"),
])
def test_mix_checks_its_weights_as_a_distribution_before_the_table(
        monkeypatch, weights, message):
    # NaN weights used to pass both weight tests and fail at the box table
    pr, check, checked = bl.pr_box(), boxes.check_distributions, []
    monkeypatch.setattr(boxes, "check_distributions",
                        lambda probs: checked.append(probs.shape) or check(probs))
    with pytest.raises(ValueError, match="^%s$" % message):
        bl.mix([pr, pr], weights)
    assert checked == [(1, 2)]


def test_tv_closeness_values():
    pr = bl.pr_box()
    const = bl.local_box([0, 0], [0, 0])
    assert bl.tv_closeness(pr, pr) == 0.0
    assert bl.tv_closeness(pr, const) == 1.0
    # the maximum is attained at input (1, 1): PR puts no mass on (0, 0)
    assert 0.5 * np.abs(pr.table[1, 1] - const.table[1, 1]).sum() == 1.0


@pytest.mark.parametrize("n,width,cap,sizes", [
    (10, 3, 7, [2] * 5),
    (10, 2, 7, [3, 3, 3, 1]),
    (3, 8, 7, [1, 1, 1]),                   # width past the cap: one item
    (5, 1, 100, [5]),
    (0, 1, 7, []),
])
def test_blocks_cover_the_range_in_order(n, width, cap, sizes):
    walk = list(boxes.blocks(n, width, cap))
    assert [i for block in walk for i in range(n)[block]] == list(range(n))
    assert [block.stop - block.start for block in walk] == sizes


def test_blocks_read_the_table_cap_at_the_call_and_walk_lazily(monkeypatch):
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 6)
    assert list(boxes.blocks(7, 2)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    monkeypatch.undo()
    assert next(boxes.blocks(10 ** 18, 1)) == slice(0, boxes.PATH_TABLE_CAP)


def test_signaling_box_detected():
    table = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            table[x, y, y, 0] = 1.0    # a reveals y
    assert not bl.is_nonsignaling(bl.CorrelationBox(table))


def test_sample_matches_table():
    pr = bl.pr_box()
    rng = np.random.default_rng(42)
    n = 10 ** 5
    a, b = bl.sample(pr, 0, 1, rng, n)
    assert a.shape == b.shape == (n,)
    hits = np.count_nonzero((a == 0) & (b == 0))
    assert abs(hits / n - 0.5) < 5e-3


def test_sample_equals_single_draws():
    """One n-draw call gives the draws of n single rng.choice calls."""
    table = np.random.default_rng(3).random((2, 2, 3, 2))
    boxes = [bl.pr_box(), bl.local_box([0, 1], [1, 1]),
             bl.CorrelationBox(table / table.sum(axis=(2, 3), keepdims=True))]
    for seed, box in enumerate(boxes):
        x, y, n = 1, 0, 2000
        flat = box.table[x, y].ravel()
        reference = np.random.default_rng(seed)
        draws = [int(reference.choice(flat.size, p=flat / flat.sum()))
                 for _ in range(n)]
        a, b = bl.sample(box, x, y, np.random.default_rng(seed), n)
        assert a.tolist() == [d // box.b_size for d in draws]
        assert b.tolist() == [d % box.b_size for d in draws]


def test_sample_draws_a_rounded_negative_entry_with_probability_0():
    # the dot-product law rounds some diagonal entries of the library's own
    # cover boxes just below 0, which the box accepts and sample must too
    box = bl.discretized_box(bl.build_cover(0.5))
    x, y, a, b = np.argwhere(box.table < 0)[0]
    assert -boxes.NORM_TOL <= box.table[x, y, a, b] < 0
    draws_a, draws_b = bl.sample(box, x, y, np.random.default_rng(0), 1000)
    assert not np.any((draws_a == a) & (draws_b == b))


def test_normalization_rejected():
    bad = np.full((1, 1, 2, 2), 0.3)
    with pytest.raises(ValueError):
        bl.CorrelationBox(bad)
    with pytest.raises(ValueError):
        bl.CorrelationBox(np.array([[[[1.2, -0.2], [0.0, 0.0]]]]))


@pytest.mark.parametrize("where", ["all", "one"])
def test_nan_tables_rejected(where):
    table = np.full((2, 2, 2, 2), np.nan)
    if where == "one":
        table = bl.pr_box().table.copy()
        table[1, 0, 0, 1] = np.nan
    with pytest.raises(ValueError):
        bl.CorrelationBox(table)


def stacks_of(cells, rng):
    """Stacks of ``cells`` tables on both sides of SMALL_STACK, with signed
    zeros, infinities and magnitudes far apart, in C order and in two
    other layouts."""
    size = cells[0] * cells[1]
    small = boxes.SMALL_STACK // size - 1
    large = boxes.SMALL_STACK // size + 1
    for n in (1, 2, small, large, 3001):
        tables = rng.normal(size=(n, *cells)) * 10.0 ** rng.integers(
            -12, 13, (n, *cells))
        tables[0] = -0.0
        tables[-1, 0] = 0.0
        tables[-1, 1:] = -0.0
        if n > 2:
            tables[1, 0, 0] = np.inf
        yield tables
        yield np.asfortranarray(tables)
        yield np.swapaxes(np.ascontiguousarray(np.swapaxes(tables, -1, -2)),
                          -1, -2)
    yield rng.random((40, 30, *cells))


@pytest.mark.parametrize("cells", [(2, 2), (2, 3), (4, 4)])
def test_table_sums_are_numpys_sums_bit_for_bit(cells):
    sizes = set()
    for tables in stacks_of(cells, np.random.default_rng(41)):
        assert boxes.table_sums(tables).tobytes() \
            == tables.sum(axis=(-2, -1)).tobytes()
        sizes.add(tables.size >= boxes.SMALL_STACK)
    # both sides of the switch to one add per cell
    assert sizes == {False, True}


@pytest.mark.parametrize("n", [1, 3000])
def test_check_distributions_refuses_nan_and_negative_entries(n):
    tables = np.full((n, 2, 2), 0.25)
    boxes.check_distributions(tables)
    for bad, message in ((np.nan, "negative probability entry"),
                         (-0.25, "negative probability entry"),
                         (0.5, "do not sum to 1")):
        broken = tables.copy()
        broken[n // 2, 1, 0] = bad
        with pytest.raises(ValueError, match=message):
            boxes.check_distributions(broken)
    # an infinite entry passes the sign test and fails the sum test
    broken = tables.copy()
    broken[-1, 0] = np.inf
    with pytest.raises(ValueError, match="do not sum to 1"):
        boxes.check_distributions(broken)


def test_check_distributions_accepts_an_empty_stack():
    boxes.check_distributions(np.empty((0, 2, 2)))
    boxes.check_distributions(np.empty((0, 3, 2, 2)))


def test_out_of_range_errors():
    pr = bl.pr_box()
    rng = np.random.default_rng(0)
    for x, y in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="out of range"):
            bl.sample(pr, x, y, rng, 1)


def test_json_roundtrip_bit_exact():
    rng = np.random.default_rng(7)
    table = rng.random((3, 2, 2, 4))
    table /= table.sum(axis=(2, 3), keepdims=True)
    box = bl.CorrelationBox(table)
    again = box_from_json(box_to_json(box))
    assert np.array_equal(box.table, again.table)


@pytest.mark.parametrize("path,value", [
    (("table", 0, 0, 0), "0.5"), (("table", 1, 1, 1), True),
    (("table", 0, 1, 3), None), (("x_size",), "2"), (("b_size",), 2.0),
    (("a_size",), True)])
def test_non_numeric_box_payload_entries_are_refused(path, value):
    payload = box_to_payload(bl.pr_box())
    *outer, last = path
    functools.reduce(operator.getitem, outer, payload)[last] = value
    with pytest.raises(ValueError, match="is not (an integer|a number)"):
        box_from_payload(payload)
    # ints and floats both load, as JSON writes them
    payload = box_to_payload(bl.local_box([0, 1], [1, 0]))
    payload["table"][0][0] = [0, 1, 0, 0]
    assert box_from_payload(payload).table.tobytes() \
        == bl.local_box([0, 1], [1, 0]).table.tobytes()


@pytest.mark.parametrize("sizes", [
    {"x_size": 1}, {"y_size": 3}, {"a_size": 1}, {"b_size": 4},
    {"x_size": 10 ** 6, "y_size": 10 ** 6}, {"a_size": -2, "b_size": -2}])
def test_a_table_off_its_sizes_is_refused(sizes):
    # before, a larger table loaded truncated, and huge sizes asked for a
    # table of their size before any row was read
    payload = box_to_payload(bl.pr_box())
    payload.update(sizes)
    with pytest.raises(ValueError, match="^table must be x_size x y_size"):
        box_from_payload(payload)


@pytest.mark.parametrize("table", [[[[0.5, 0, 0, 0.5]], [[1, 0, 0, 0]]],
                                   [[[0.5, 0, 0, 0.5]], [0.25] * 4],
                                   [[[[0.5, 0], [0, 0.5]]]], "0.5", 1.0])
def test_a_ragged_or_scalar_table_is_refused(table):
    payload = {"x_size": 1, "y_size": 1, "a_size": 2, "b_size": 2,
               "table": table}
    with pytest.raises(ValueError, match="^table must be"):
        box_from_payload(payload)


@st.composite
def random_boxes(draw, shape=(2, 2, 2, 2)):
    n = int(np.prod(shape))
    raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                        min_size=n, max_size=n))
    table = np.array(raw).reshape(shape)
    table /= table.sum(axis=(2, 3), keepdims=True)
    return bl.CorrelationBox(table)


@settings(max_examples=50, deadline=None)
@given(random_boxes(), random_boxes(), random_boxes())
def test_tv_is_a_metric(b1, b2, b3):
    assert bl.tv_closeness(b1, b2) == bl.tv_closeness(b2, b1)
    assert bl.tv_closeness(b1, b3) <= (bl.tv_closeness(b1, b2)
                                       + bl.tv_closeness(b2, b3) + 1e-12)
    assert bl.tv_closeness(b1, b1) == 0.0


@settings(max_examples=30, deadline=None)
@given(random_boxes(), random_boxes(),
       st.floats(min_value=0.0, max_value=1.0))
def test_mix_properties(b1, b2, t):
    mixed = bl.mix([b1, b2], [1.0 - t, t])
    # TV contraction under mixing toward a component
    assert bl.tv_closeness(mixed, b1) <= t * bl.tv_closeness(b2, b1) + 1e-12
    # associativity in distribution
    inner = bl.mix([b1, b2], [0.5, 0.5])
    left = bl.mix([inner, b2], [0.5, 0.5])
    right = bl.mix([b1, b2], [0.25, 0.75])
    assert np.abs(left.table - right.table).max() <= 1e-12


def test_mix_preserves_nonsignaling():
    rng = np.random.default_rng(11)
    ns_boxes = [bl.pr_box(), bl.local_box([0, 1], [1, 0])]
    for _ in range(20):
        w = rng.random()
        assert bl.is_nonsignaling(bl.mix(ns_boxes, [w, 1.0 - w]))


def test_scatter_outputs_equals_add_at_and_the_one_hot_einsum():
    rng = np.random.default_rng(17)
    for x, y, s, t, a, b in ((5, 4, 3, 2, 2, 3), (2, 2, 16, 16, 2, 2),
                             (3, 1, 4, 2, 1, 3)):
        probs = rng.random((x, y, s, t))
        a_map = rng.integers(0, a, (x, s))
        b_map = rng.integers(0, b, (y, t))
        got = scatter_outputs(probs, a_map, b_map, a, b)
        want = np.zeros((x, y, a, b))
        xs, ys = np.ogrid[:x, :y]
        np.add.at(want, (xs[..., None, None], ys[..., None, None],
                         a_map[:, None, :, None], b_map[None, :, None, :]),
                  probs)
        assert got.tobytes() == want.tobytes()
        one_hot = np.einsum("uvpq,upa,vqb->uvab", probs, np.eye(a)[a_map],
                            np.eye(b)[b_map])
        assert got.tobytes() == one_hot.tobytes()
        assert got.base is None           # a box takes it over as it is


def test_read_only_takes_over_a_frozen_float64_array_that_owns_its_data():
    fresh = boxes.frozen(np.arange(4.0))
    assert boxes.read_only(fresh, np.float64) is fresh


@pytest.mark.parametrize("values", [
    np.arange(4.0),                                  # writeable
    boxes.frozen(np.arange(0.0, 4.0, 0.5))[::2],     # a view: base is set
    boxes.frozen(np.arange(4, dtype=np.float32)),    # another dtype
    [0.0, 1.0, 2.0, 3.0],
], ids=["writeable", "view", "float32", "list"])
def test_read_only_copies_anything_a_caller_might_still_write(values):
    got = boxes.read_only(values, np.float64)
    assert got is not values and got.base is None
    assert got.dtype == np.float64 and not got.flags.writeable
    assert np.array_equal(got, np.arange(4.0))


def test_a_box_keeps_its_table_when_the_caller_writes_theirs():
    table = np.array(bl.pr_box().table)
    box = bl.CorrelationBox(table)
    table[...] = 0.25
    assert np.array_equal(box.table, bl.pr_box().table)


@pytest.fixture
def copies(monkeypatch):
    """The values each ``read_only`` call of the test copied, through
    every boxlab module that calls it."""
    made = []
    read_only = boxes.read_only

    def spy(values, dtype):
        got = read_only(values, dtype)
        if got is not values:
            made.append(values)
        return got

    for module in (boxes, quantum, sphere, protocols):
        monkeypatch.setattr(module, "read_only", spy)
    return made


def handovers():
    """(inputs, builder) of each library builder: the builder called on
    the inputs returns a value whose arrays are fresh."""
    def spec(n):
        rng = np.random.default_rng(n)
        return bl.simple_bell_spec(*([bl.random_unitary(rng) for _ in range(m)]
                                     for m in (n, n + 1)))

    def cover():
        return sphere.build_cover(0.3)

    return {
        "discretized_box": (lambda: (cover(),), sphere.discretized_box),
        "bell_box": (lambda: (sphere.cover_bell_spec(cover()),
                              quantum.SINGLET), quantum.bell_box),
        "cover_bell_spec": (lambda: (cover(),), sphere.cover_bell_spec),
        "to_bell_spec": (lambda: (games.optimal_strategy(0.75),),
                         games.PlanarStrategy.to_bell_spec),
        "restrict_box": (lambda: (bl.pr_box(), [1, 0], [0], [0, 1], [1, 0]),
                         quantum.restrict_box),
        "direct_sum_bell": (lambda: (spec(2), spec(3), quantum.PHI_PLUS),
                            quantum.direct_sum_bell),
        "pr_box": (tuple, bl.pr_box),
        "local_box": (lambda: ([0, 1], [1, 1]), bl.local_box),
        "mix": (lambda: ([bl.pr_box(), bl.local_box([0, 1], [1, 0])],
                         [0.25, 0.75]), bl.mix),
        "box_from_payload": (lambda: (box_to_payload(bl.pr_box()),),
                             box_from_payload),
        "induced_box": (lambda: (protocols.identity_protocol(), bl.pr_box()),
                        protocols.induced_box),
        "build_cover": (lambda: (0.3,), sphere.build_cover),
        "octahedron_cover": (tuple, sphere.octahedron_cover),
        "cover_from_payload": (lambda: (sphere.cover_to_payload(
            sphere.octahedron_cover()),), sphere.cover_from_payload),
        "affine_family": (lambda: (bl.pr_box(), 1), protocols.affine_family),
    }


@pytest.mark.parametrize("name", list(handovers()))
def test_builders_hand_their_fresh_arrays_over(copies, name):
    inputs, build = handovers()[name]
    inputs = inputs()
    copies.clear()
    value = build(*inputs)
    assert copies == []
    arrays = [v for v in vars(value).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.base is None and not a.flags.writeable
                          for a in arrays)


def test_bell_box_in_blocks_hands_its_table_over(copies, monkeypatch):
    spec = sphere.cover_bell_spec(sphere.build_cover(0.3))
    monkeypatch.setattr(boxes, "PATH_TABLE_CAP", 8 * spec.y_size * 3)
    copies.clear()
    box = quantum.bell_box(spec, quantum.SINGLET)
    assert copies == [] and box.table.base is None
