import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambdabv import (
    Interval,
    LambdaSequence,
    PiecewiseLinearPeriodic,
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


def arcs_by_loop(f):
    """Per-arc reference for monotone_arcs: drop each breakpoint whose value
    repeats its predecessor's, then walk the survivors' extrema."""
    pts = list(zip(f.positions.tolist(), f.values.tolist()))
    kept = [pt for i, pt in enumerate(pts) if pt[1] != pts[i - 1][1]]
    m = len(kept)
    ext = [
        i for i in range(m)
        if (kept[(i + 1) % m][1] > kept[i][1]) != (kept[i][1] > kept[i - 1][1])
    ]
    arcs = []
    for k, j0 in enumerate(ext):
        j1 = ext[(k + 1) % len(ext)]
        (x0, y0), (x1, y1) = kept[j0], kept[j1]
        arcs.append((x0, x1, y1 - y0, y0))
    return arcs


class TestConstruction:
    def test_points_sorted_on_input_order(self):
        f = make_plpf([(0.75, 2.0), (0.25, 1.0)])
        assert f.positions.tolist() == [0.25, 0.75]
        assert f.values.tolist() == [1.0, 2.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^need at least one breakpoint$"):
            make_plpf([])

    def test_duplicate_position_rejected(self):
        with pytest.raises(ValueError, match="^duplicate breakpoint position 0.25$"):
            make_plpf([(0.75, 0.0), (0.25, 1.0), (0.25, 2.0)])

    @pytest.mark.parametrize(
        "positions,values,message",
        [
            ((), (), "need at least one breakpoint"),
            ((0.0, 0.5), (1.0,), "positions and values must have equal length"),
            ((0.0, math.nan), (0.0, 1.0), r"breakpoint positions must lie in \[0, 1\)"),
            ((0.0, math.inf), (0.0, 1.0), r"breakpoint positions must lie in \[0, 1\)"),
            ((-0.25, 0.5), (0.0, 1.0), r"breakpoint positions must lie in \[0, 1\)"),
            ((0.0, 1.0), (0.0, 1.0), r"breakpoint positions must lie in \[0, 1\)"),
            ((0.0, 0.5), (0.0, math.inf), "breakpoint values must be finite"),
            ((0.0, 0.5), (math.nan, 1.0), "breakpoint values must be finite"),
            ((0.5, 0.25), (0.0, 1.0), "breakpoint positions must be strictly increasing"),
            ((0.25, 0.25), (0.0, 1.0), "breakpoint positions must be strictly increasing"),
            (((0.0, 0.5),), ((0.0, 1.0),), "positions and values must be one-dimensional"),
        ],
    )
    def test_constructor_rejection_messages(self, positions, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PiecewiseLinearPeriodic(positions, values)

    def test_fields_are_read_only_copies(self):
        pos, val = np.array([0.0, 0.5]), np.array([1.0, 2.0])
        f = PiecewiseLinearPeriodic(pos, val)
        pos[1], val[0] = 0.75, 9.0
        assert f.positions.tolist() == [0.0, 0.5]
        assert f.values.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            f.values[0] = 3.0
        with pytest.raises(ValueError):
            f.positions[0] = 0.25

    def test_equality_and_hash_by_value(self):
        f = PiecewiseLinearPeriodic((0.0, 0.5), (1.0, -0.0))
        same = [
            PiecewiseLinearPeriodic(np.array([-0.0, 0.5]), np.array([1.0, 0.0])),
            make_plpf([(0.5, 0), (0, 1)]),
            function_from_json(function_to_json(f)),
        ]
        for g in same:
            assert f == g and hash(f) == hash(g)
        assert len({f, *same}) == 1
        assert f != make_plpf([(0.0, 1.0), (0.5, 1e-300)])
        assert f != make_plpf([(0.0, 1.0), (0.25, 0.0)])
        assert f != (0.0, 0.5)
        lam = LambdaSequence.explicit([1.0, 2.0])
        assert f != lam and lam != f

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
            for x, y in zip(f.positions, f.values):
                assert f.eval(x) == y

    def test_linear_between_breakpoints(self):
        assert TRIANGLE.eval(0.25) == 0.5
        assert TRIANGLE.eval(0.75) == 0.5
        assert TRIANGLE.eval(0.1) == pytest.approx(0.2, abs=1e-15)

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
        assert f.eval(np.linspace(-2.0, 2.0, 41)).tolist() == [2.5] * 41
        for p in (1.0, 1.5, 2.0, 3.0):
            assert derivative_lp_norm(f, p) == 0.0

    def test_tiny_negative_argument(self):
        # -1e-20 - floor(-1e-20) rounds to 1.0, one period past the first breakpoint
        f = make_plpf([(0.0, 0.25), (0.5, 1.0)])
        assert f.eval(-1e-20) == f.eval(np.array([-1e-20]))[0] == 0.25

    def test_nonfinite_argument_gives_nan(self):
        f = make_plpf([(0.1, 0.0), (0.5, 1.0)])
        with np.errstate(invalid="ignore"):
            for x in (math.nan, math.inf, -math.inf):
                assert math.isnan(f.eval(x))
            out = f.eval(np.array([0.3, math.nan, math.inf, -math.inf, 2.7]))
        assert np.isnan(out[1:4]).all()
        assert out[[0, 4]].tolist() == [f.eval(0.3), f.eval(2.7)]

    def test_finite_arguments_match_exact_interpolant(self):
        # the exact rational interpolant of frac = x - floor(x) on the wrapped
        # float table: the breakpoints wrapped by one segment on each side
        def exact_error(f, x):
            p, v = f.positions.tolist(), f.values.tolist()
            pe, ve = [p[-1] - 1.0, *p, p[0] + 1.0], [v[-1], *v, v[0]]
            frac = x - math.floor(x)
            i = min(int(np.searchsorted(pe, frac, side="right")) - 1, len(pe) - 2)
            x0, x1, y0, y1 = map(Fraction, (pe[i], pe[i + 1], ve[i], ve[i + 1]))
            want = y0 + (Fraction(frac) - x0) * (y1 - y0) / (x1 - x0)
            return abs(Fraction(f.eval(x)) - want), abs(ve[i]) + abs(ve[i + 1])

        rng = np.random.default_rng(131)
        for _ in range(50):
            f = random_plpf(rng)
            xs = np.concatenate([
                rng.uniform(-3.0, 3.0, 200), f.positions, f.positions + 1.0,
                [0.0, 1.0, -1e-20, 1.0 - 1e-17, 1e300, -1e300],
            ])
            out = f.eval(xs)
            assert [f.eval(float(x)) for x in xs] == out.tolist()
            for x in xs.tolist():
                err, scale = exact_error(f, x)
                assert err <= 2.0 * np.finfo(float).eps * scale

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
        assert len(dec) == 2
        assert sorted(dec.increments.tolist()) == [-1.0, 1.0]
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
        want = arcs_by_loop(f)
        assert dec.start_values.tolist() == [sv for _, _, _, sv in want]
        for start, _, _, sv in want:
            assert f.eval(start) == pytest.approx(sv, abs=1e-12)

    def test_constant_gives_no_arcs(self):
        dec = monotone_arcs(make_plpf([(0.0, 1.0)]))
        assert len(dec) == 0

    def test_value_tol_merges_shallow_wiggle(self):
        f = make_plpf([(0.0, 0.0), (0.25, 1.0), (0.5, 0.999), (0.75, 1.5)])
        assert len(monotone_arcs(f)) == 4

    def test_arrays_match_per_arc_loop(self):
        rng = np.random.default_rng(20)
        wrapped = 0
        for _ in range(200):
            n = int(rng.integers(1, 12))
            pos = np.sort(rng.choice(64, n, replace=False)) / 64.0
            # few distinct values, so plateaus and repeated extrema are common
            vals = rng.integers(-2, 3, n).astype(float)
            f = make_plpf(np.column_stack([pos, vals]))
            dec = monotone_arcs(f)
            want = arcs_by_loop(f)
            got = list(zip(dec.increments.tolist(), dec.start_values.tolist()))
            assert got == [(inc, sv) for _, _, inc, sv in want]
            assert len(dec) == len(want)
            wrapped += any(end <= start for start, end, _, _ in want)
        assert wrapped > 50


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
        assert g.positions.tolist() == f.positions.tolist()
        assert g.values.tolist() == f.values.tolist()

    def test_bytes_equal_json_dumps(self):
        # the writer joins reprs; json.dumps writes every finite float as its
        # repr, so the two agree byte for byte, signed zeros and subnormals too
        pos_edge = [-0.0, 5e-324, 1e-5, 1e-4, 0.5, 0.9999999999999999]
        val_edge = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                    1e16, 9999999999999998.0, 1e-4, 1e-5]
        rng = np.random.default_rng(2300)
        for trial in range(1200):
            n = 1 if trial % 8 == 0 else int(rng.integers(2, 24))
            pos = np.where(rng.random(n) < 0.3, rng.choice(pos_edge, n), rng.random(n))
            pos = np.unique(pos)
            exps = rng.integers(-320, 308, len(pos)).astype(float)
            vals = np.where(rng.random(len(pos)) < 0.4, rng.choice(val_edge, len(pos)),
                            rng.uniform(-1.0, 1.0, len(pos)) * 10.0**exps)
            f = PiecewiseLinearPeriodic(pos, vals)
            text = function_to_json(f)
            assert text == json.dumps({"breakpoints": np.column_stack([f.positions, f.values]).tolist()})
            g = function_from_json(text)
            assert g == f
            assert g.positions.tobytes() == f.positions.tobytes() and g.values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "{}",
            '{"breakpoints": 5}',
            '{"breakpoints": [[0.1]]}',
            # strings and booleans used to load as numbers
            '{"breakpoints": [["0.0", "1"], ["0.5", true]]}',
            '{"breakpoints": [[0.0, 0.0], [0.5, true]]}',
            '{"breakpoints": [[0.0, null], [0.5, 1.0]]}',
            # an integer past the double range used to raise OverflowError
            '{"breakpoints": [[0.0, 1%s], [0.5, 1.0]]}' % ("0" * 400),
            '{"breakpoints": [[1%s, 0.0], [0.5, 1.0]]}' % ("0" * 400),
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            function_from_json(text)

    @pytest.mark.parametrize("extra", ["extra", "positions", "family"])
    def test_unknown_key_named(self, extra):
        # an unknown key used to be ignored
        text = json.dumps({"breakpoints": [[0.0, 0.0], [0.5, 1.0]], extra: 1})
        with pytest.raises(ValueError, match=f"^function JSON has no key '{extra}'$"):
            function_from_json(text)
