"""Fast tests of the benchmark's own parts: every output check rejects a
corrupted output, and the reference-second arithmetic holds."""

import math

import numpy as np
import pytest

import checks
import refclock
import workload


def _octahedron_lines():
    # two lines of the octahedron family; min |ell - omega| peaks at p = 1/2,
    # where both sit (sqrt2 - 1)/4 below omega
    return [(0.75, 0.0), (0.5, 0.5)]


def test_certificate_rejects_gap_off_by_1e9():
    lines = _octahedron_lines()
    gap = float(checks.omega(0.5)) - 0.75
    assert checks.check_certificate(lines, 0.5, gap) == []
    assert checks.check_octahedron(0.5, gap) == []
    assert checks.check_certificate(lines, 0.5, gap + 1e-9)
    assert checks.check_octahedron(0.5, gap + 1e-9)
    assert checks.check_octahedron(0.5 + 1e-9, gap)


def test_certificate_rejects_a_gap_below_the_grid_maximum():
    lines = _octahedron_lines()
    p = 0.9      # a valid min-distance at a non-maximal point
    gap = float(np.abs(np.asarray(lines)[:, 0] + np.asarray(lines)[:, 1] * p
                       - checks.omega(p)).min())
    assert any("grid" in f for f in checks.check_certificate(lines, p, gap))


def test_below_omega_rejects_a_line_above_omega():
    c, m = checks.tangent(0.7)
    assert checks.check_below_omega([(c, m), (0.75, 0.0)]) == []
    assert checks.check_below_omega([(c + 1e-9, m)])
    assert checks.check_below_omega([(0.5, 0.52)])       # crosses near p = 1


def test_below_classical_rejects_a_line_above_the_local_bound():
    assert checks.check_below_classical([(0.5, 0.5), (0.75, 0.0)]) == []
    assert checks.check_below_classical([(0.5, 0.5 + 1e-9)])


def test_reduction_tv_rejects_max_tv_above_the_radius():
    assert checks.check_reduction_tv(0.19, 0.05, 0.2) == []
    assert checks.check_reduction_tv(0.2 + 1e-9, 0.05, 0.2)
    assert checks.check_reduction_tv(0.1, 0.11, 0.2)     # mean above max


def test_cover_rejects_a_probe_beyond_the_certified_radius():
    points = checks.octahedron_points()
    probes = checks.random_unit_vectors(np.random.default_rng(0), 20_000)
    true_radius = math.sqrt(2.0 - 2.0 / math.sqrt(3.0))   # face centres
    assert checks.check_cover(1.0, 6, true_radius + 1e-9, points, probes) == []
    fails = checks.check_cover(1.0, 6, 0.85, points, probes)
    assert any("probe" in f for f in fails)
    assert checks.check_cover(0.5, 6, 0.95, points, probes)   # radius > eps


class _Drifting:
    """A workload whose one operation writes other bytes on each repeat."""

    def __init__(self):
        self.calls = 0

    def ops(self, state):
        def run():
            self.calls += 1
            return b"out %d" % self.calls
        return [("drift", run, bytes)]

    def check(self, state, records):
        return []


def test_rounds_reject_differing_bytes_on_a_repeat():
    res = workload.run_rounds(_Drifting(), None, 0.0, 2, refclock.RefTimer())
    assert res["attempted"] == 2 and res["failed"] == 0
    assert res["fails"] == ["drift: output differs on a repeat"]


class _KnownFaulty:
    """A workload with one operation whose record shows a known fault."""

    def ops(self, state):
        def record(out):
            raise checks.KnownFault("wrong output")
        return [("good", lambda: b"ok", bytes), ("known", lambda: b"bad", record)]

    def check(self, state, records):
        assert records == {"good": b"ok", "known": None}
        return []


def test_rounds_count_a_known_fault_as_failed_not_as_a_check_failure():
    res = workload.run_rounds(_KnownFaulty(), None, 0.0, 3, refclock.RefTimer())
    assert (res["attempted"], res["failed"], res["fails"]) == (6, 3, [])
    assert res["peak_rss_mb"] > 0.0


def test_roots_measure_and_schedule_checks():
    c, m = checks.chord(0.6, 0.8)
    assert checks.check_roots(c, m, [0.6, 0.8]) == []
    assert checks.check_roots(c, m, [0.6])
    assert checks.check_roots(c, m, [0.6, 0.8 + 1e-6])
    c, m = checks.tangent(0.7)
    assert checks.check_measure(c, m, 1e-3, 0.0)
    _, bounds, eps = checks.schedule_exact(2, 2, 2, 2, 3, 0.01)
    good = [float(e) for e in eps]
    assert checks.check_schedule(2, 2, 2, 2, 3, 0.01, bounds, good, True) == []
    assert checks.check_schedule(2, 2, 2, 2, 3, 0.01, bounds,
                                 [good[0] * (1 + 1e-15)] + good[1:], True)


def test_reference_tables_and_counts():
    identity = {"alphabets": [2] * 8, "k": 1, "q_maps": [[0, 1]],
                "r_maps": [[0, 1]], "s_map": [0, 1, 0, 1], "t_map": [0, 1, 0, 1]}
    pr = checks.pr_table()
    assert np.array_equal(checks.induced_table(identity, pr), pr)
    assert checks.check_box_table(pr) == []
    assert checks.line_of_table(pr) == (1.0, 0.0)
    assert checks.protocol_count([2] * 8, 1) == 4096
    assert checks.counting_bound(2, 2, 2, 2, 1) == 65536
    assert max(c + m for c, m in checks.classical_lines()) == 1.0


def test_reference_second_arithmetic():
    nominal = refclock.REF_NOMINAL_S
    assert refclock.scale(0.002, 0.004) == pytest.approx(nominal / 0.003)
    # a stretch as long as one reference burst reads as the nominal duration
    assert 0.003 * refclock.scale(0.003, 0.003) == pytest.approx(nominal)
    # a host twice as slow doubles raw time and bursts alike: no change
    assert (2.0 * 0.5 * refclock.scale(0.006, 0.006)
            == pytest.approx(0.5 * refclock.scale(0.003, 0.003)))
    with pytest.raises(ValueError):
        refclock.scale(0.0, 0.003)


def test_ref_timer_scales_a_stretch_by_its_bursts(monkeypatch):
    bursts = iter([0.002, 0.006])
    monkeypatch.setattr(refclock, "burst", lambda: next(bursts))
    timer = refclock.RefTimer(stretch_s=3600.0)
    slot, result, error = timer.measure(lambda: 7)
    assert (result, error) == (7, None)
    with pytest.raises(RuntimeError):
        timer.ref_seconds(slot)
    timer.flush()
    assert timer.ref_seconds(slot) == pytest.approx(
        timer.raw[slot] * refclock.REF_NOMINAL_S / 0.004)
    slot, _, error = timer.measure(lambda: 1 / 0)
    assert isinstance(error, ZeroDivisionError)


def test_span_cost_of_a_wrapper_is_small_and_positive():
    import tracer
    assert 0.0 < tracer.span_cost(calls=500, reps=3) < 1e-3
