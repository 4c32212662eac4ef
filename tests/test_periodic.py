import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambdabv import (
    Interval,
    derivative_lp_norm,
    function_from_json,
    function_to_json,
    increment,
    make_plpf,
    monotone_arcs,
    sup_norm,
    superpose,
)

from helpers import IntervalSystem, random_plpf

TRIANGLE = make_plpf([(0.0, 0.0), (0.5, 1.0)])


def plpf_strategy(max_breaks=6):
    def build(draw):
        n = draw(st.integers(2, max_breaks))
        pos = draw(
            st.lists(
                st.integers(0, 63), min_size=n, max_size=n, unique=True
            ).map(sorted)
        )
        vals = draw(
            st.lists(
                st.floats(-4.0, 4.0, allow_nan=False), min_size=n, max_size=n
            )
        )
        return make_plpf([(p / 64.0, v) for p, v in zip(pos, vals)])

    return st.composite(lambda draw: build(draw))()


class TestConstruction:
    def test_points_sorted_on_input_order(self):
        f = make_plpf([(0.75, 2.0), (0.25, 1.0)])
        assert f.positions == (0.25, 0.75)
        assert f.values == (1.0, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_plpf([])

    def test_duplicate_position_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_plpf([(0.25, 1.0), (0.25, 2.0)])

    def test_position_outside_period_rejected(self):
        with pytest.raises(ValueError):
            make_plpf([(0.0, 0.0), (1.0, 1.0)])

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueError):
            make_plpf([(0.0, math.nan), (0.5, 1.0)])


class TestEval:
    def test_breakpoint_values_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_plpf(rng)
            for x, y in f.breakpoints():
                assert f.eval(x) == y

    def test_linear_between_breakpoints(self):
        assert TRIANGLE.eval(0.25) == 0.5
        assert TRIANGLE.eval(0.75) == 0.5
        assert TRIANGLE(0.1) == pytest.approx(0.2, abs=1e-15)

    def test_periodic_on_representable_shifts(self):
        rng = np.random.default_rng(12)
        f = random_plpf(rng)
        for k in range(0, 64, 7):
            x = k / 64.0
            assert f.eval(x) == f.eval(x + 1.0) == f.eval(x - 1.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(13)
        f = random_plpf(rng)
        xs = rng.uniform(-2.0, 2.0, 40)
        out = f.eval(xs)
        assert out.shape == xs.shape
        for x, y in zip(xs, out):
            assert f.eval(float(x)) == y

    def test_constant_function(self):
        f = make_plpf([(0.3, 2.5)])
        assert f.eval(0.0) == 2.5
        assert f.eval(0.99) == 2.5

    @given(plpf_strategy())
    def test_values_within_breakpoint_range(self, f):
        xs = np.linspace(0.0, 1.0, 101)
        out = f.eval(xs)
        assert np.all(out >= min(f.values) - 1e-12)
        assert np.all(out <= max(f.values) + 1e-12)


class TestIntervals:
    def test_interval_endpoint_unrolled(self):
        assert Interval(0.75, 0.5).b == 1.25
        assert Interval(0.25, 0.5).b == 0.75

    @pytest.mark.parametrize("a,length", [(-0.1, 0.5), (1.0, 0.5), (0.2, 0.0), (0.2, 1.5)])
    def test_interval_rejects_bad_params(self, a, length):
        with pytest.raises(ValueError):
            Interval(a, length)

    def test_system_accepts_wrapping_arrangement(self):
        IntervalSystem((Interval(0.8, 0.5), Interval(0.4, 0.2)))

    def test_system_accepts_touching_full_cover(self):
        IntervalSystem((Interval(0.0, 0.5), Interval(0.5, 0.5)))

    def test_system_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            IntervalSystem((Interval(0.0, 0.5), Interval(0.4, 0.3)))

    def test_system_rejects_oversize(self):
        with pytest.raises(ValueError):
            IntervalSystem((Interval(0.0, 0.7), Interval(0.5, 0.6)))


class TestIncrement:
    def test_half_period_on_triangle(self):
        assert increment(TRIANGLE, Interval(0.0, 0.5)) == 1.0
        assert increment(TRIANGLE, Interval(0.5, 0.5)) == -1.0

    def test_wrapping_interval(self):
        assert increment(TRIANGLE, Interval(0.75, 0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_full_period_is_zero(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            f = random_plpf(rng)
            a = float(rng.uniform(0.0, 1.0))
            assert increment(f, Interval(a, 1.0)) == pytest.approx(0.0, abs=1e-12)


class TestMonotoneArcs:
    def test_triangle_decomposition(self):
        dec = monotone_arcs(TRIANGLE)
        assert len(dec.arcs) == 2
        assert sorted(a.increment for a in dec.arcs) == [-1.0, 1.0]
        assert dec.is_baseline_separated()

    def test_signs_alternate_and_sum_to_zero(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            f = random_plpf(rng)
            dec = monotone_arcs(f)
            inc = dec.increments
            if len(inc) == 0:
                continue
            assert len(inc) % 2 == 0
            assert all(a * b < 0 for a, b in zip(inc, np.roll(inc, 1)))
            assert abs(float(np.sum(inc))) < 1e-9

    def test_start_values_match_function(self):
        rng = np.random.default_rng(16)
        f = random_plpf(rng)
        dec = monotone_arcs(f)
        for arc, sv in zip(dec.arcs, dec.start_values):
            assert f.eval(arc.start) == pytest.approx(sv, abs=1e-12)

    def test_constant_gives_no_arcs(self):
        dec = monotone_arcs(make_plpf([(0.0, 1.0)]))
        assert dec.arcs == ()

    def test_value_tol_merges_shallow_wiggle(self):
        f = make_plpf([(0.0, 0.0), (0.25, 1.0), (0.5, 0.999), (0.75, 1.5)])
        assert len(monotone_arcs(f).arcs) == 4


class TestSuperposeAndNorms:
    def test_superpose_pointwise_additive(self):
        rng = np.random.default_rng(17)
        fs = [random_plpf(rng, 5) for _ in range(3)]
        s = superpose(fs)
        for x in rng.uniform(0.0, 1.0, 50):
            assert s.eval(float(x)) == pytest.approx(
                sum(f.eval(float(x)) for f in fs), abs=1e-12
            )

    def test_superpose_empty_rejected(self):
        with pytest.raises(ValueError):
            superpose([])

    def test_derivative_norm_triangle(self):
        # slope magnitude 2 everywhere, any p
        for p in (1.0, 1.5, 2.0, 3.0):
            assert derivative_lp_norm(TRIANGLE, p) == pytest.approx(2.0, rel=1e-12)

    def test_derivative_norm_matches_riemann(self):
        rng = np.random.default_rng(18)
        f = random_plpf(rng)
        p = 2.0
        xs = (np.arange(200_000) + 0.5) / 200_000
        h = 1e-7
        deriv = (f.eval(xs + h) - f.eval(xs)) / h
        riemann = float(np.mean(np.abs(deriv) ** p)) ** (1.0 / p)
        assert derivative_lp_norm(f, p) == pytest.approx(riemann, rel=1e-3)

    def test_derivative_norm_rejects_small_p(self):
        with pytest.raises(ValueError):
            derivative_lp_norm(TRIANGLE, 0.5)

    def test_sup_norm(self):
        assert sup_norm(TRIANGLE) == 1.0
        assert sup_norm(make_plpf([(0.0, -3.0), (0.5, 1.0)])) == 3.0


class TestJson:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(19)
        f = random_plpf(rng)
        g = function_from_json(function_to_json(f))
        assert g.positions == f.positions
        assert g.values == f.values

    @pytest.mark.parametrize(
        "text",
        ["[]", "{}", '{"breakpoints": 5}', '{"breakpoints": [[0.1]]}'],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            function_from_json(text)
