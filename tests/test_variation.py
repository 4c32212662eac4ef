import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lambdabv import variation
from lambdabv import (
    Interval,
    LambdaSequence,
    WitnessSpec,
    derivative_lp_norm,
    extremal_function,
    lambda_variation,
    lip_norm,
    lp_modulus,
    make_plpf,
    modulus_p_continuity,
    monotone_arcs,
    p_cont_ratio_norm,
    p_variation,
)
from lambdabv.variation import (
    MAX_DELTA_DEPTH,
    MAX_EXACT_ARCS,
    _BLOCK_CELLS,
    _cyclic_subset_max,
    _dyadic_grid,
    _hump_dp,
    _p_power_profile,
    _refined_cycle,
    _rounding_slack,
    _shift_bounds,
    _shift_norms,
    _shift_samples,
    _window_successors,
)

from helpers import (
    IntervalSystem,
    alternating_plpf,
    assert_matches_lp_reference,
    brute_lambda_variation,
    brute_p_variation,
    chain_dp_profile,
    chain_humps,
    chunked_subset_scan_max,
    circle_oracle,
    comb_grid_modulus,
    folded_lp_profile,
    hump_pair_classes,
    lambda_sum_score,
    max_over_cuts,
    mp_l2_modulus_profile,
    mp_lp_modulus_profile,
    mp_shift_norm,
    mp_shift_power,
    p_sum_score,
    random_lambda_prefix,
    random_plpf,
    subset_scan_max,
    system_lambda_sum,
    system_p_sum,
)

TRIANGLE = make_plpf([(0.0, 0.0), (0.5, 1.0)])
LAM_N = LambdaSequence.power(1.0)

# Interval systems can beat every arrangement of whole monotone arcs, so the
# suprema cannot be read off sorted arc increments.  This function's best
# p-variation system uses the two full rises 0 -> 1.9 and 1.9 -> 0 even
# though no single arc realizes them.
SPLIT_RISE = make_plpf([(0.0, 0.0), (0.25, 1.0), (0.5, 0.9), (0.75, 1.9)])


def max_ratio(deltas, moduli, exponent):
    """The ratio norm read off a modulus profile: max of modulus / delta^exponent."""
    return max(m / d**exponent for d, m in zip(deltas, moduli))


class TestPVariation:
    def test_triangle(self):
        assert p_variation(TRIANGLE, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert p_variation(TRIANGLE, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_constant_is_zero(self):
        assert p_variation(make_plpf([(0.0, 4.0)]), 2.0) == 0.0

    def test_exceeds_sorted_arc_power_sum(self):
        arcs = monotone_arcs(SPLIT_RISE).increments
        arc_sum = float(np.sum(np.abs(arcs) ** 2))
        assert arc_sum == pytest.approx(5.62, rel=1e-12)
        assert p_variation(SPLIT_RISE, 2.0) ** 2 == pytest.approx(7.22, rel=1e-12)

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            p_variation(TRIANGLE, 0.99)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(30):
            f = random_plpf(rng, 5)
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            oracle = circle_oracle(f, f.positions, p_sum_score(p))
            assert p_variation(f, p) ** p == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_matches_brute_dp_with_midpoints(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            f = random_plpf(rng, 8)
            p = float(rng.choice([1.5, 2.0, 3.0]))
            pos = list(f.positions)
            mids = [
                (a + b) / 2.0 for a, b in zip(pos, pos[1:] + [pos[0] + 1.0])
            ]
            cand = pos + [m % 1.0 for m in mids]
            assert p_variation(f, p) ** p == pytest.approx(
                brute_p_variation(f, p, cand), rel=1e-9, abs=1e-12
            )

    def test_brute_p1_equals_total_arc_variation(self):
        rng = np.random.default_rng(102)
        for _ in range(10):
            f = random_plpf(rng, 6)
            total = float(np.sum(np.abs(monotone_arcs(f).increments)))
            assert brute_p_variation(f, 1.0, f.positions) == pytest.approx(
                total, rel=1e-12, abs=1e-12
            )

    def test_scale_and_reflection_equivariance(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            f = random_plpf(rng)
            c = float(rng.uniform(0.5, 3.0))
            scaled = make_plpf([(x, c * y) for x, y in zip(f.positions, f.values)])
            neg = make_plpf([(x, -y) for x, y in zip(f.positions, f.values)])
            v = p_variation(f, 2.0)
            assert p_variation(scaled, 2.0) == pytest.approx(c * v, rel=1e-12)
            assert p_variation(neg, 2.0) == pytest.approx(v, rel=1e-12)

    def test_rotation_invariance_on_dyadic_grid(self):
        rng = np.random.default_rng(104)
        pos = sorted(rng.choice(64, size=6, replace=False).tolist())
        vals = rng.uniform(-1.0, 1.0, 6)
        f = make_plpf([(p / 64.0, v) for p, v in zip(pos, vals)])
        g = make_plpf([(((p + 32) % 64) / 64.0, v) for p, v in zip(pos, vals)])
        assert p_variation(g, 2.0) == pytest.approx(p_variation(f, 2.0), rel=1e-12)


class TestLambdaVariation:
    def test_triangle_lambda_n(self):
        assert lambda_variation(TRIANGLE, LAM_N) == pytest.approx(1.5, rel=1e-15)

    def test_exceeds_sorted_arc_weighted_sum(self):
        lam = LambdaSequence.explicit([1.0, 1.0, 1000.0, 1000.0])
        mags = sorted(np.abs(monotone_arcs(SPLIT_RISE).increments), reverse=True)
        sorted_arc = sum(m / l for m, l in zip(mags, [1.0, 1.0, 1000.0, 1000.0]))
        assert sorted_arc == pytest.approx(2.9011, rel=1e-12)
        assert lambda_variation(SPLIT_RISE, lam) == pytest.approx(3.8, rel=1e-12)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(105)
        for _ in range(25):
            f = random_plpf(rng, 5)
            lam_terms = random_lambda_prefix(rng, 16)
            lam = LambdaSequence.explicit(lam_terms)
            oracle = circle_oracle(f, f.positions, lambda_sum_score(lam_terms))
            assert lambda_variation(f, lam) == pytest.approx(
                oracle, rel=1e-9, abs=1e-12
            )

    def test_matches_brute_subset_scan(self):
        rng = np.random.default_rng(106)
        for _ in range(40):
            f = random_plpf(rng, 5)
            lam = LambdaSequence.explicit(random_lambda_prefix(rng, 16))
            assert lambda_variation(f, LAM_N) == pytest.approx(
                brute_lambda_variation(f, LAM_N, f.positions), rel=1e-9
            )
            assert lambda_variation(f, lam) == pytest.approx(
                brute_lambda_variation(f, lam, f.positions), rel=1e-9
            )

    def test_baseline_separated_comb_allows_many_arcs(self):
        # 24 teeth -> 48 arcs, fine because all valleys sit at the baseline
        pts = []
        for k in range(24):
            pts.append((k / 24.0, 0.0))
            pts.append((k / 24.0 + 1.0 / 48.0, 1.0 + k / 100.0))
        f = make_plpf(pts)
        expected = sum((1.0 + k / 100.0) for k in range(24))
        got = lambda_variation(f, LambdaSequence.power(0.0))
        # doubled teeth against constant weights: both sides of each tooth count
        assert got == pytest.approx(2.0 * expected, rel=1e-12)

    def test_many_arc_general_function_rejected(self):
        rng = np.random.default_rng(107)
        pts = [(k / 42.0, float((-1) ** k) * (1.0 + rng.uniform(0, 0.5))) for k in range(42)]
        f = make_plpf(pts)
        assert len(monotone_arcs(f)) == MAX_EXACT_ARCS + 2
        assert not monotone_arcs(f).is_baseline_separated()
        with pytest.raises(ValueError, match="arcs"):
            lambda_variation(f, LAM_N)

    @pytest.mark.parametrize(
        "lam",
        [LambdaSequence.power(1.0), LambdaSequence.block_power_log(0.5, 0.5), LambdaSequence.explicit([1.0])],
        ids=["power", "block_power_log", "explicit"],
    )
    def test_constant_is_zero(self, lam):
        # no arcs: the empty sorted sum, even against a one-term prefix
        for f in (make_plpf([(0.0, 4.0)]), make_plpf([(0.0, -0.5), (0.3, -0.5), (0.7, -0.5)])):
            assert lambda_variation(f, lam) == 0.0

    def test_short_explicit_sequence_rejected(self):
        lam = LambdaSequence.explicit([1.0])
        with pytest.raises(ValueError):
            lambda_variation(SPLIT_RISE, lam)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(108)
        for _ in range(10):
            f = random_plpf(rng, 6)
            c = float(rng.uniform(0.5, 3.0))
            scaled = make_plpf([(x, c * y) for x, y in zip(f.positions, f.values)])
            assert lambda_variation(scaled, LAM_N) == pytest.approx(
                c * lambda_variation(f, LAM_N), rel=1e-12
            )

    def test_dominates_single_system(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            f = random_plpf(rng, 5)
            a = float(rng.uniform(0.0, 0.5))
            w = float(rng.uniform(0.02, (1.0 - a) / 5.1))
            system = IntervalSystem(
                (Interval(a, w), Interval(a + 2 * w, w), Interval(a + 4 * w, w))
            )
            assert system_lambda_sum(f, system, LAM_N) <= lambda_variation(f, LAM_N) + 1e-9
            assert system_p_sum(f, system, 2.0) <= p_variation(f, 2.0) ** 2 + 1e-9

    def test_holder_comparison_with_p_variation(self):
        rng = np.random.default_rng(110)
        pp = 2.0
        for _ in range(20):
            f = random_plpf(rng)
            lam_terms = random_lambda_prefix(rng, 32)
            lam = LambdaSequence.explicit(lam_terms)
            k = len(monotone_arcs(f))
            cap = p_variation(f, pp) * float(
                np.sum(lam_terms[: max(k, 1)] ** -2.0) ** 0.5
            )
            assert lambda_variation(f, lam) <= cap + 1e-9


def _random_weights(rng, m):
    if rng.integers(2):
        return LambdaSequence.power(float(rng.choice([0.0, 0.1, 0.5, 1.0, 1.5])))
    return LambdaSequence.explicit(random_lambda_prefix(rng, m))


class TestReducedSearch:
    """The pruned search of _cyclic_subset_max against the scan over every
    subset of the cyclic values."""

    def test_matches_subset_scan_on_random_lists(self):
        # integer values give ties and orders that do not alternate
        rng = np.random.default_rng(120)
        for trial in range(320):
            m = int(rng.integers(2, 13))
            if trial % 3 == 0:
                vals = rng.uniform(-1.0, 1.0, m)
            else:
                vals = rng.integers(0, 2 + trial % 4, m).astype(float)
            lam = _random_weights(rng, m)
            assert _cyclic_subset_max(vals, lam) == subset_scan_max(vals, lam), vals

    @pytest.mark.parametrize("m,seed", [(14, 121), (14, 122), (16, 123), (16, 124)])
    def test_matches_subset_scan_on_alternating_functions(self, m, seed):
        rng = np.random.default_rng(seed)
        f = alternating_plpf(rng, m)
        arcs = monotone_arcs(f)
        assert len(arcs) == m and not arcs.is_baseline_separated()
        lam = _random_weights(rng, m)
        assert lambda_variation(f, lam) == subset_scan_max(arcs.start_values, lam)

    @pytest.mark.parametrize("m,seed", [(18, 125), (20, 126)])
    def test_matches_chunked_scan_above_sixteen_arcs(self, m, seed):
        rng = np.random.default_rng(seed)
        f = alternating_plpf(rng, m)
        arcs = monotone_arcs(f)
        assert len(arcs) == m and not arcs.is_baseline_separated()
        lam = LambdaSequence.power(0.5)
        assert lambda_variation(f, lam) == pytest.approx(
            chunked_subset_scan_max(arcs.start_values, lam), rel=1e-12
        )

    def test_window_rule_steps(self):
        # a step i -> j is offered iff every value strictly between them lies
        # strictly between its end values
        rng = np.random.default_rng(127)
        for _ in range(200):
            v = rng.integers(0, 4, int(rng.integers(3, 12))).astype(float).tolist()
            m = len(v) - 1
            want = [
                [j for j in range(i + 1, m + 1)
                 if all(min(v[i], v[j]) < x < max(v[i], v[j]) for x in v[i + 1 : j])]
                for i in range(m)
            ]
            assert _window_successors(v) == want, v

    def test_forty_arcs_between_arc_bounds(self):
        rng = np.random.default_rng(128)
        f = alternating_plpf(rng, MAX_EXACT_ARCS)
        lam = LambdaSequence.power(1.0)
        got = lambda_variation(f, lam)
        arcs = monotone_arcs(f)
        w = 1.0 / lam.terms(MAX_EXACT_ARCS)
        # the arc tiling is one system; the total variation against the
        # first weight bounds every system
        assert float(np.sort(np.abs(arcs.increments))[::-1] @ w) <= got
        assert got <= float(np.abs(arcs.increments).sum()) * w[0]


class TestModulus:
    def test_query_validation(self):
        with pytest.raises(ValueError, match="delta"):
            modulus_p_continuity(TRIANGLE, 2.0, [0.0])
        with pytest.raises(ValueError, match="delta"):
            modulus_p_continuity(TRIANGLE, 2.0, [1.5])
        with pytest.raises(ValueError, match="grid_refinement must be nonnegative"):
            modulus_p_continuity(TRIANGLE, 2.0, [0.5], -1)
        # one bad delta anywhere in the grid rejects the whole grid
        for deltas in ([0.5, 0.0], [1.0, 0.25, 1.5], [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\]$"):
                modulus_p_continuity(TRIANGLE, 2.0, deltas)
        assert modulus_p_continuity(TRIANGLE, 2.0, []) == []

    def test_grid_entries_equal_single_delta_calls(self):
        # the chain and its hump blocks do not depend on delta, so one call
        # over the grid gives each one-element grid's value bit for bit
        rng = np.random.default_rng(125)
        deltas = [2.0**-j for j in range(7)] + [0.3, 0.07]
        for _ in range(10):
            f = random_plpf(rng, 12)
            for p in (1.5, 2.0, 3.0):
                for m in (0, 1, 2):
                    got = modulus_p_continuity(f, p, deltas, m)
                    assert got == [modulus_p_continuity(f, p, [d], m)[0] for d in deltas]
        # deltas split across DP calls: 61 deltas in one call on a
        # 12-breakpoint function; the ~1,000 humps of a level-9 comb in
        # groups of four deltas, its last block at refinement 1 taking four
        # deltas a call; and the long hump of a 64-breakpoint function at
        # refinement 2, which takes its 61 deltas in three calls
        comb = extremal_function(WitnessSpec(LAM_N, 2.0, 0.75, 9))[-1].function()
        generic = random_plpf(rng, 64, min_gap=1e-5, min_breaks=64)
        for f, p, grid, m in (
            (random_plpf(rng, 12, min_breaks=12), 1.5, _dyadic_grid(60), 0),
            (comb, 2.0, deltas, 0),
            (comb, 3.0, deltas, 1),
            (generic, 1.5, _dyadic_grid(60), 2),
        ):
            got = modulus_p_continuity(f, p, grid, m)
            assert got == [modulus_p_continuity(f, p, [d], m)[0] for d in grid]

    @pytest.mark.parametrize("depth", [60, 1074])
    def test_memory_bounded_across_deltas(self, depth):
        # the level-12 comb has 8,191 humps; holding one hump-power row per
        # delta would take 4 MB for a 61-delta grid and 70 MB for the
        # 1,075-delta one, and the deltas' groups keep their (delta, hump)
        # pairs to 16 * _BLOCK_CELLS, like each DP call's cells to _BLOCK_CELLS
        comb = extremal_function(WitnessSpec(LAM_N, 2.0, 0.75, 12))[-1]
        g = comb.function()
        tracemalloc.start()
        try:
            modulus_p_continuity(g, 2.0, _dyadic_grid(depth), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_triangle_quarter_delta(self):
        assert modulus_p_continuity(TRIANGLE, 2.0, [0.25], 0)[0] == 0.0
        assert modulus_p_continuity(TRIANGLE, 2.0, [0.25], 1)[0] == pytest.approx(
            1.0, rel=1e-12
        )

    def test_endpoint_equals_p_variation_bitwise(self):
        rng = np.random.default_rng(111)
        for _ in range(30):
            f = random_plpf(rng)
            p = float(rng.choice([1.5, 2.0, 3.0]))
            assert modulus_p_continuity(f, p, [1.0])[0] == p_variation(f, p)

    def test_cut_policies_agree(self):
        rng = np.random.default_rng(112)
        for _ in range(15):
            f = random_plpf(rng)
            p = float(rng.choice([1.5, 2.0, 3.0]))
            for j in (1, 2, 4):
                va = modulus_p_continuity(f, p, [2.0**-j], 1)[0]
                vb = max_over_cuts(*_refined_cycle(f, 1), p, 2.0**-j) ** (1.0 / p)
                assert va == pytest.approx(vb, rel=1e-12, abs=1e-15)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(113)
        for _ in range(15):
            f = random_plpf(rng)
            vals = [
                modulus_p_continuity(f, 2.0, [2.0**-j], 1)[0]
                for j in range(6)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        # a whole grid is exactly monotone: each hump's value is, and every
        # delta sums its humps in one fixed order
        deltas = sorted([2.0**-j for j in range(8)] + rng.random(8).tolist(), reverse=True)
        lams = [LAM_N, LambdaSequence.power_log(0.5, 1.0), LambdaSequence.block_power_log(-0.4, 0.8)]
        witnesses = [comb.function() for lam in lams
                     for comb in extremal_function(WitnessSpec(lam, 2.0, 0.75, 12))]
        for f in witnesses + [random_plpf(rng, max_breaks=40) for _ in range(36)]:
            for p in (1.5, 2.0, 3.0):
                for m in (0, 1):
                    vals = modulus_p_continuity(f, p, deltas, m)
                    assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_monotone_under_nested_refinement(self):
        # grids are nested only along m = 2^k - 1
        rng = np.random.default_rng(114)
        for _ in range(10):
            f = random_plpf(rng)
            vals = [
                modulus_p_continuity(f, 2.0, [0.25], m)[0]
                for m in (0, 1, 3, 7)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_length_constrained_oracle(self):
        rng = np.random.default_rng(115)
        for _ in range(12):
            f = random_plpf(rng, 5)
            p = float(rng.choice([1.5, 2.0]))
            delta = float(rng.choice([0.25, 0.5]))
            oracle = circle_oracle(f, f.positions, p_sum_score(p), max_length=delta)
            got = modulus_p_continuity(f, p, [delta], 0)[0]
            assert got**p == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_holder_bound_from_derivative(self):
        rng = np.random.default_rng(116)
        for _ in range(15):
            f = random_plpf(rng)
            p = float(rng.choice([1.5, 2.0, 3.0]))
            q = 1.0 - 1.0 / p
            for j in (1, 3, 5):
                delta = 2.0**-j
                bound = derivative_lp_norm(f, p) * delta**q
                assert modulus_p_continuity(f, p, [delta], 1)[0] <= bound + 1e-9

    def test_requires_p_above_one(self):
        with pytest.raises(ValueError):
            modulus_p_continuity(TRIANGLE, 1.0, [0.5])

    def test_grid_refinement_must_be_an_integer(self):
        # 1.5 would lay 2.5 points per segment at arange(2.5) / 2.5, a grid
        # that is not uniform
        f = make_plpf([(0.0, 0.0), (0.3, 1.0), (0.5, 0.2), (0.7, 0.9)])
        for call in (lambda m: modulus_p_continuity(f, 2.0, [0.25, 0.125], m),
                     lambda m: p_cont_ratio_norm(f, 2.0, 0.75, 3, m)):
            with pytest.raises(TypeError, match="^grid_refinement must be an integer, not float$"):
                call(1.5)
            assert call(1) == call(True) == call(np.int64(1))


DYADIC = [2.0**-j for j in range(7)]

# baseline 0 with zero plateaus (two consecutive minima), one-apex teeth, a
# two-apex hump and one long hump, so humps of 1 to 13 steps share a block,
# each padded to the widest one's length
PLATEAU_HUMPS = make_plpf(
    [(0.0, 0.0), (0.05, 0.0), (0.08, 1.0), (0.1, 0.0), (0.13, 0.7), (0.15, 0.2), (0.2, 1.1),
     (0.22, 0.0), (0.3, 0.0), (0.32, 0.4), (0.34, 0.0)]
    + [(0.4 + 0.03 * k, v) for k, v in enumerate(
        [0.0, 0.9, 0.3, 1.4, 0.6, 0.8, 0.1, 1.9, 0.5, 1.2, 0.2, 0.7, 0.4, 0.0])]
    + [(0.85, 0.3), (0.9, 0.0), (0.95, 0.0)]
)


def mixed_width_comb(rng, teeth=120, long=(50, 120, 300)):
    """Baseline-0 teeth of two steps and a few long humps of the given step
    counts, in random order at jittered uniform positions; a last tooth of
    apex 2 holds the global maximum, so the cut leaves every long hump whole."""
    widths = [2] * teeth + list(long)
    rng.shuffle(widths)
    vals = np.concatenate([[0.0, *rng.uniform(0.1, 1.0, w - 1)] for w in widths] + [[0.0, 2.0]])
    pos = (np.arange(len(vals)) + rng.uniform(0.1, 0.9, len(vals))) / len(vals)
    return make_plpf(list(zip(pos.tolist(), vals.tolist())))


def hump_extents(f, m):
    """Per hump of the cut chain at refinement m, with its first and last
    points: (xs[start], xs[end], float extent xs[end] - xs[start], shortest
    step)."""
    xs, starts, ends = chain_humps(f, m)
    return [(xs[s], xs[e], xs[e] - xs[s], float(np.min(np.diff(xs[s : e + 1]))))
            for s, e in zip(starts.tolist(), ends.tolist())]


def assert_profile_matches_chain_dp(f, p, m):
    got = _p_power_profile(f, p, DYADIC, m)
    assert got == pytest.approx(chain_dp_profile(f, p, DYADIC, m), rel=1e-12, abs=0.0)


class TestHumpProfile:
    """The per-hump profile against the whole-chain DP it replaces."""

    @pytest.mark.parametrize("levels", [6, 7, 8, 9, 10])
    def test_witnesses(self, levels):
        # the whole-chain DP is O(n^2) in the grid size, so it runs up to
        # level 8; the closed form from the level data holds every level
        for p in (1.5, 2.0, 3.0):
            comb = extremal_function(WitnessSpec(LAM_N, p, 0.75, levels))[-1]
            g = comb.function()
            for m in (0, 1, 3):
                got = _p_power_profile(g, p, DYADIC, m)
                assert got == pytest.approx(comb_grid_modulus(comb, p, DYADIC, m), rel=1e-12, abs=0.0)
                if levels <= 8:
                    assert got == pytest.approx(chain_dp_profile(g, p, DYADIC, m), rel=1e-12, abs=0.0)

    def test_random_generic_functions(self):
        rng = np.random.default_rng(125)
        for _ in range(40):
            f = random_plpf(rng, 24)
            for p in (1.5, 2.0, 3.0):
                for m in (0, 1):
                    assert_profile_matches_chain_dp(f, p, m)

    def test_plateaus_and_uneven_humps(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            for m in (0, 1, 3):
                assert_profile_matches_chain_dp(PLATEAU_HUMPS, p, m)
            assert p_variation(PLATEAU_HUMPS, p) ** p == pytest.approx(
                brute_p_variation(PLATEAU_HUMPS, p, PLATEAU_HUMPS.positions), rel=1e-12
            )

    def test_small_multi_minimum_functions_match_brute(self):
        rng = np.random.default_rng(126)
        for _ in range(20):
            f = random_plpf(rng, 8)
            # pull a few breakpoints down to the global minimum
            vals = np.array(f.values)
            vals[rng.random(len(vals)) < 0.4] = vals.min()
            g = make_plpf(list(zip(f.positions, vals.tolist())))
            p = float(rng.choice([1.5, 2.0, 3.0]))
            assert_profile_matches_chain_dp(g, p, 1)
            assert p_variation(g, p) ** p == pytest.approx(
                brute_p_variation(g, p, g.positions), rel=1e-12, abs=1e-15
            )

    def test_refinement_zero_is_the_breakpoint_cycle(self):
        rng = np.random.default_rng(119)
        for f in (TRIANGLE, SPLIT_RISE, make_plpf([(0.25, -1.0)]),
                  *(random_plpf(rng, 40, min_breaks=1) for _ in range(20))):
            cx, cy = _refined_cycle(f, 0)
            assert np.array_equal(cx, f.positions)
            assert np.array_equal(cy, f.values)

    def test_columns_only_for_free_humps_and_constrained_pairs(self, monkeypatch):
        # one limit-inf column (bounds all 0) per hump that some delta frees,
        # one column per constrained pair, none for an empty pair; no delta
        # here lies within the 2^-50 slack of a step, where an empty pair
        # would go to the DP.  The plateau grid holds the extents of its
        # humps of several steps, where xs[end] - delta == xs[start] frees
        # a hump only by the test's equality
        columns = []

        def recorded(ys, lo, p):
            columns.append((lo.shape[1], int(np.count_nonzero(~lo.any(axis=0)))))
            return _hump_dp(ys, lo, p)

        monkeypatch.setattr(variation, "_hump_dp", recorded)
        empty = 0
        comb = extremal_function(WitnessSpec(LAM_N, 2.0, 0.75, 12))[-1].function()
        generic = random_plpf(np.random.default_rng(127), 64, min_gap=1e-5, min_breaks=64)
        humps = hump_extents(PLATEAU_HUMPS, 0)
        assert any(last - d == first for first, last, d, step in humps if d > step)
        extents = sorted({d for _, _, d, step in humps if d > step})
        for f, grid, m in ((comb, _dyadic_grid(1074), 0), (comb, DYADIC, 1),
                           (PLATEAU_HUMPS, DYADIC + [0.03, 0.011], 3), (PLATEAU_HUMPS, extents, 0),
                           (generic, _dyadic_grid(60), 1)):
            classes = hump_pair_classes(f, grid, m)
            columns.clear()
            _p_power_profile(f, 2.0, grid, m)
            unbounded = sum(z for _, z in columns)
            assert unbounded == np.count_nonzero((classes == 2).any(axis=0))
            assert sum(c for c, _ in columns) - unbounded == np.count_nonzero(classes == 1)
            empty += np.count_nonzero(classes == 0)
        assert empty > 8191 * 1000

    def test_class_boundaries_equal_single_delta_calls(self):
        # deltas on the class boundaries: each hump's float extent, at which
        # xs[end] - delta == xs[start] frees it by the search's own test, its
        # shortest step, and their neighbouring doubles
        for m in (0, 1, 3):
            humps = hump_extents(PLATEAU_HUMPS, m)
            assert any(last - d == first for first, last, d, _ in humps)
            edges = [d for _, _, d, _ in humps] + [step for _, _, _, step in humps]
            grid = sorted({float(np.nextafter(d, t)) for d in edges for t in (0.0, d, 1.0)})
            grid = [d for d in grid if 0.0 < d <= 1.0]
            for p in (1.5, 2.0, 3.0):
                got = _p_power_profile(PLATEAU_HUMPS, p, grid, m)
                assert got == [_p_power_profile(PLATEAU_HUMPS, p, [d], m)[0] for d in grid]
                assert got == pytest.approx(chain_dp_profile(PLATEAU_HUMPS, p, grid, m), rel=1e-12, abs=0.0)

    def test_hump_in_every_class_across_one_grid(self):
        # the triangle's first hump at refinement 1 has two steps of 1/4: free
        # at delta 1/2, constrained at 0.3, empty at 0.1
        grid = [1.0, 0.5, 0.3, 0.1, 0.25]
        assert hump_pair_classes(TRIANGLE, grid, 1)[:, 0].tolist() == [2, 2, 1, 0, 1]
        for p in (1.5, 2.0, 3.0):
            got = _p_power_profile(TRIANGLE, p, grid, 1)
            assert got == [_p_power_profile(TRIANGLE, p, [d], 1)[0] for d in grid]
            assert got == pytest.approx(chain_dp_profile(TRIANGLE, p, grid, 1), rel=1e-12, abs=0.0)

    def test_mixed_width_comb(self):
        # two-step teeth share blocks with humps of up to 600 steps: a block
        # takes _BLOCK_CELLS // (w + 1) columns of its first, widest hump,
        # so the teeth behind a long hump are padded to its length
        f = mixed_width_comb(np.random.default_rng(128))
        for m in (0, 1):
            for grid in (_dyadic_grid(6), _dyadic_grid(60)):
                got = _p_power_profile(f, 2.0, grid, m)
                assert got == [_p_power_profile(f, 2.0, [d], m)[0] for d in grid]
                assert got == pytest.approx(chain_dp_profile(f, 2.0, grid, m), rel=1e-12, abs=0.0)

    def test_blocks_hold_at_most_block_cells(self, monkeypatch):
        # a DP call over more than _BLOCK_CELLS cells has one column only; the
        # 1,100-step hump has 4,401 points at refinement 3
        calls = []

        def recorded(ys, lo, p):
            calls.append(ys.shape)
            return _hump_dp(ys, lo, p)

        monkeypatch.setattr(variation, "_hump_dp", recorded)
        comb = extremal_function(WitnessSpec(LAM_N, 2.0, 0.75, 10))[-1].function()
        generic = random_plpf(np.random.default_rng(129), 64, min_gap=1e-5, min_breaks=64)
        long = mixed_width_comb(np.random.default_rng(130), teeth=40, long=(50, 1100))
        for f in (mixed_width_comb(np.random.default_rng(131)), long, comb, generic, PLATEAU_HUMPS):
            for m in (0, 1, 3):
                _p_power_profile(f, 2.0, _dyadic_grid(30), m)
        assert max(rows for rows, _ in calls) + 1 > _BLOCK_CELLS
        assert all(rows * cols <= _BLOCK_CELLS or cols == 1 for rows, cols in calls)

    def test_single_minimum_and_constant(self):
        constant = make_plpf([(0.0, 2.0), (0.5, 2.0)])
        for p in (1.5, 2.0):
            for m in (0, 1, 3):
                assert_profile_matches_chain_dp(SPLIT_RISE, p, m)
                assert _p_power_profile(constant, p, DYADIC, m) == [0.0] * len(DYADIC)


class TestLpModulus:
    def test_triangle_closed_form(self):
        # shift h in [0, 0.1] moves mass linearly; the sup sits at h = 0.1
        assert lp_modulus(TRIANGLE, 1.0, [0.1])[0] == pytest.approx(0.18, rel=1e-12)

    def test_triangle_matches_riemann_oracle(self):
        xs = (np.arange(1_000_000) + 0.5) / 1_000_000
        riemann = float(np.mean(np.abs(TRIANGLE.eval(xs + 0.1) - TRIANGLE.eval(xs))))
        assert lp_modulus(TRIANGLE, 1.0, [0.1])[0] == pytest.approx(riemann, abs=1e-6)

    def test_zero_delta(self):
        assert lp_modulus(TRIANGLE, 2.0, [0.0])[0] == 0.0

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(117)
        for _ in range(10):
            f = random_plpf(rng)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            vals = [lp_modulus(f, p, [2.0**-j])[0] for j in range(7)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_dominated_by_sup_of_shifts(self):
        rng = np.random.default_rng(118)
        f = random_plpf(rng)
        spread = float(np.max(f.values) - np.min(f.values))
        assert lp_modulus(f, 2.0, [1.0])[0] <= spread + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            lp_modulus(TRIANGLE, 0.5, [0.1])
        with pytest.raises(ValueError):
            lp_modulus(TRIANGLE, 2.0, [1.5])


class TestLpModulusProfile:
    # The difference f(. + 1/16) - f is nearly flat (slope -8e-13) on the
    # pieces where x and x + 1/16 straddle the middle breakpoint.  The closed
    # form (G(v) - G(u)) / (v - u) loses eps |G| / |v - u| there; used on
    # every piece, it reads this case 7.9e-5 below the exact value.
    NEARLY_FLAT = make_plpf([(0.0, 0.0), (0.25, 5.0 + 1e-13), (0.5, 10.0)])

    def test_nearly_flat_piece_matches_reference(self):
        f, h, p = self.NEARLY_FLAT, 0.0625, 1.5
        assert _shift_norms(f, np.asarray([h]), p)[0] == pytest.approx(
            mp_shift_norm(f, h, p), rel=1e-12
        )
        want = mp_lp_modulus_profile(f, p, [h])
        assert lp_modulus(f, p, [h])[0] == pytest.approx(want[0], rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_matches_reference_on_small_functions(self, p):
        rng = np.random.default_rng(int(10 * p))
        deltas = [2.0**-j for j in range(7)]
        for _ in range(3):
            f = random_plpf(rng)
            assert_matches_lp_reference(f, p, deltas, lp_modulus(f, p, deltas))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_matches_reference_across_blocks(self, p):
        # one function for every p, so the reference's pieces are reused
        f = random_plpf(np.random.default_rng(20), 80, min_gap=1e-4, min_breaks=70)
        deltas = [2.0**-6, 0.012, 2.0**-8]
        rows = max(1, _BLOCK_CELLS // len(f.positions))
        count = int(np.sum(_shift_samples(f) <= deltas[0]))
        assert count > rows and count % rows != 0
        assert_matches_lp_reference(f, p, deltas, lp_modulus(f, p, deltas))

    def test_single_breakpoint_and_zero_delta(self):
        assert lp_modulus(make_plpf([(0.3, 2.0)]), 2.0, [1.0, 0.5, 0.0]) == [0.0] * 3
        assert lp_modulus(TRIANGLE, 2.0, [0.0]) == [0.0]
        assert lp_modulus(TRIANGLE, 2.0, [0.5, 0.0])[1] == 0.0
        assert lp_modulus(TRIANGLE, 2.0, []) == []

    def test_delta_below_every_candidate(self):
        # the smallest sample is the dyadic 2^-40; a delta below it still
        # reads its own sample
        got = lp_modulus(TRIANGLE, 2.0, [1.0, 2.0**-40, 2.0**-45])
        assert got[1] > 0.0 and got[2] > 0.0
        assert got[2] == lp_modulus(TRIANGLE, 2.0, [2.0**-45])[0]

    def test_grid_entries_equal_single_delta_calls(self):
        # each value depends on its delta alone, on every kind of grid; a
        # shift's norm does not depend on the block it is integrated in
        tent = make_plpf([(0.0, 0.0), (0.25, 1.0), (0.5, 0.0)])
        assert lp_modulus(tent, 2.0, [0.9, 0.3])[1] == lp_modulus(tent, 2.0, [0.3])[0]
        assert_matches_lp_reference(tent, 2.0, [0.3], lp_modulus(tent, 2.0, [0.3]))
        rng = np.random.default_rng(122)
        for i in range(200):
            f, p, deltas = modulus_case(rng, i)
            got = lp_modulus(f, p, deltas)
            assert got == [lp_modulus(f, p, [d])[0] for d in deltas], (i, p, deltas)

    def test_l2_scales_exactly_by_powers_of_two(self):
        # at p = 2, f is scaled to max |f| in [1/2, 1) by a power of two and
        # only products of two values enter, so 2^k f reads 2^k times the
        # values exactly wherever 2^k f is normal, where a square of 2^-600
        # underflows and one of 2^600 overflows
        f = random_plpf(np.random.default_rng(124), 12)
        want = lp_modulus(f, 2.0, DYADIC)
        for k in range(-1000, 1001):
            scaled = make_plpf(list(zip(f.positions.tolist(), (f.values * 2.0**k).tolist())))
            assert lp_modulus(scaled, 2.0, DYADIC) == [2.0**k * v for v in want], k

    @pytest.mark.parametrize("height", [1e-300, 1e-160, 1e-120, 1e120, 1e300])
    def test_l2_tent_is_exact_at_every_scale(self, height):
        # N(1/2) = 2 ||f||_2 on this tent, the sup; at 1e-160 the slopes'
        # square (1.6e-319) is subnormal, at 1e300 the values' square overflows
        tent = make_plpf([(0.0, height), (0.5, -height)])
        got = lp_modulus(tent, 2.0, [1.0, 0.5, 2.0**-10])
        want = [2.0 / math.sqrt(3.0) * height] * 2 + mp_l2_modulus_profile(tent, [2.0**-10])
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        assert math.isfinite(lip_norm(tent, 2.0, 0.5, 10))

    @pytest.mark.parametrize("steep", [False, True], ids=["gentle", "steep"])
    def test_l2_clustered_breakpoints_match_reference(self, steep):
        # 12 of 16 breakpoints lie within 1e-6, so the sweep restarts at
        # shifts 1e-7 ... 9e-7 inside the cluster, and the block after the
        # last of them runs past it.  Values 1e-8 apart there give slopes up
        # to ~2e2; 1e-2 apart give slopes up to ~7e7, whose drops of C' (up
        # to ~1e15) cancel to ~1e7 past the cluster
        rng = np.random.default_rng(126)
        cluster = 0.3 + np.sort(rng.uniform(0.0, 1e-6, 12))
        pos = np.sort(np.concatenate([cluster, rng.uniform(0.0, 1.0, 4)]))
        vals = rng.normal(size=16)
        inside = (pos >= 0.3) & (pos <= 0.3 + 1e-6)
        vals[inside] = 0.5 + np.cumsum(rng.normal(size=12)) * (1e-2 if steep else 1e-8)
        f = make_plpf(list(zip(pos.tolist(), vals.tolist())))
        deltas = [2.0**-j for j in (1, 3, 6, 9, 12, 15, 20, 22, 25, 28)]
        got = lp_modulus(f, 2.0, deltas)
        assert got == pytest.approx(mp_l2_modulus_profile(f, deltas), rel=1e-12, abs=0.0)

    def test_l2_monotone_and_below_the_lipschitz_line(self):
        # the exact sup never falls as delta grows along a dyadic grid down to
        # 2^-50, and never exceeds delta ||f'||_2 (Minkowski), both exactly
        rng = np.random.default_rng(125)
        grid = [2.0**-j for j in range(51)]
        for i in range(200):
            f, _, _ = modulus_case(rng, i)
            got = lp_modulus(f, 2.0, grid)
            bound = derivative_lp_norm(f, 2.0)
            assert all(a >= b for a, b in zip(got, got[1:])), i
            assert all(v <= d * bound for d, v in zip(grid, got)), i

    def test_lip_norm_is_max_over_profile(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            f = random_plpf(rng)
            deltas = _dyadic_grid(6)
            assert lip_norm(f, 1.5, 0.75, 6) == max_ratio(deltas, lp_modulus(f, 1.5, deltas), 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            lp_modulus(TRIANGLE, 0.5, [0.1])
        with pytest.raises(ValueError):
            lp_modulus(TRIANGLE, 2.0, [0.5, 1.5])
        with pytest.raises(ValueError):
            lp_modulus(TRIANGLE, 2.0, [math.nan])


def few_valued_plpf(rng, max_breaks):
    """Breakpoints on the 1/64 lattice with values in {0, 1, 2}: tied values,
    and shifted kinks that land exactly on breakpoints."""
    n = int(rng.integers(2, max_breaks + 1))
    pos = np.sort(rng.choice(64, n, replace=False)) / 64.0
    vals = rng.integers(0, 3, n).astype(float)
    return make_plpf(list(zip(pos.tolist(), vals.tolist())))


def modulus_grid(rng, kind):
    """A dyadic grid; the same with non-dyadic deltas inside; a grid led by
    a non-dyadic delta in (1/2, 1); one with a delta below every sample
    (2^-40); or one holding 0 and 1."""
    dyadic = [2.0**-j for j in range(int(rng.integers(1, 8)))]
    if kind == 0:
        return dyadic
    if kind == 1:
        return dyadic + rng.uniform(0.0, 1.0, 3).tolist()
    if kind == 2:
        return [float(rng.uniform(0.5, 1.0))] + dyadic[1:] + rng.uniform(0.0, 0.5, 2).tolist()
    if kind == 3:
        return dyadic + [float(2.0 ** rng.uniform(-50.0, -40.0))]
    return [0.0] + rng.uniform(0.0, 1.0, 2).tolist() + [1.0]


def modulus_case(rng, i):
    """(f, p, deltas) for the i-th case of a sweep: functions of 2-80
    breakpoints, few-valued ones with ties, and NEARLY_FLAT; every grid kind
    of modulus_grid."""
    shape = i % 4
    if shape == 0:
        f = random_plpf(rng, 80, min_gap=1e-4)
    elif shape == 1:
        f = random_plpf(rng, 12)
    elif shape == 2:
        f = few_valued_plpf(rng, 24)
    else:
        f = TestLpModulusProfile.NEARLY_FLAT if i % 8 == 3 else few_valued_plpf(rng, 6)
    return f, float(rng.choice([1.0, 1.5, 2.0, 3.0])), modulus_grid(rng, i % 5)


class TestLpModulusPruning:
    def test_equals_every_folded_shift_integrated(self):
        # skipped shifts never hold a delta's max, so the values are the
        # unpruned ones bit for bit.  p = 2 reads the exact sup instead.  The
        # cubic reference takes its squares from _shift_norms (mp_shift_power
        # would take minutes at 80 breakpoints), which loses about
        # eps |f| / (h ||f'||) to the cancellation in f(x + h) - f(x): so
        # mpmath's below h = 2^-10, and the samples' floor only from there
        rng = np.random.default_rng(1101)
        for i in range(240):
            f, p, deltas = modulus_case(rng, i)
            got, folded = lp_modulus(f, p, deltas), folded_lp_profile(f, p, deltas)
            if p != 2.0:
                assert got == folded, (i, p, deltas)
                continue
            assert all(g >= s * (1.0 - 1e-12) for g, s, d in zip(got, folded, deltas) if d >= 2.0**-10), i

            def squares(hs, f=f):
                far = _shift_norms(f, np.array(hs, dtype=float), 2.0) ** 2
                return [mp_shift_power(f, h, 2) if h < 2.0**-10 else y for h, y in zip(hs, far)]

            assert got == pytest.approx(mp_l2_modulus_profile(f, deltas, squares), rel=1e-12), (i, deltas)

    def test_most_shifts_skipped(self, monkeypatch):
        f = random_plpf(np.random.default_rng(1102), 64, min_gap=1e-4, min_breaks=64)
        hs = _shift_samples(f)
        seen = []

        def counted(f, h, p):
            seen.append(len(h))
            return _shift_norms(f, h, p)

        monkeypatch.setattr(variation, "_shift_norms", counted)
        got = lp_modulus(f, 1.5, DYADIC)
        assert 2 <= len(seen) <= 3 and sum(seen) < len(hs) / 2
        monkeypatch.undo()
        assert got == folded_lp_profile(f, 1.5, DYADIC)

    def test_bounds_cover_every_skippable_shift(self):
        # the pruning's only premise: no bound undercuts a computed norm.  The
        # smallest samples are the dyadic 2^-40, 2^-39, ..., where N rises at
        # almost exactly ||f'||_p, so a bound with a smaller constant fails
        rng = np.random.default_rng(1107)
        for i in range(30):
            f = few_valued_plpf(rng, 24) if i % 3 == 0 else random_plpf(rng, 24)
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            hs = _shift_samples(f)
            norms = _shift_norms(f, hs, p)
            done = rng.uniform(size=len(hs)) < 0.1
            done[::8] = True
            bounds = _shift_bounds(hs, np.where(done, norms, 0.0), done, derivative_lp_norm(f, p),
                                   _rounding_slack(f))
            assert np.all(bounds >= norms[~done])

    def test_huge_p_does_not_overflow(self):
        # ||f'||_p is taken over the largest slope, so the pruning bound stays
        # finite where slope^p overflows; the values are the unpruned ones
        tent = make_plpf([(0.0, 0.0), (0.5, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lp_modulus(tent, 1e20, DYADIC)
            assert derivative_lp_norm(tent, 1e20) == 2.0
        assert got == folded_lp_profile(tent, 1e20, DYADIC)

    def test_shift_norm_symmetric(self):
        rng = np.random.default_rng(1103)
        for _ in range(20):
            f = random_plpf(rng, 16)
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            hs = rng.uniform(0.0, 1.0, 50)
            assert _shift_norms(f, hs, p) == pytest.approx(_shift_norms(f, 1.0 - hs, p), rel=1e-12, abs=1e-15)

    def test_shift_norm_lipschitz(self):
        # Minkowski: |N(h1) - N(h2)| <= |h1 - h2| ||f'||_p, on near and far pairs
        rng = np.random.default_rng(1104)
        for _ in range(20):
            f = random_plpf(rng, 16)
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            h1 = rng.uniform(0.0, 1.0, 200)
            h2 = np.mod(h1 + rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-9.0, 0.0, 200), 1.0)
            gap = np.abs(_shift_norms(f, h1, p) - _shift_norms(f, h2, p))
            step = np.abs(h1 - h2)
            step = np.minimum(step, 1.0 - step)
            assert np.all(gap <= step * derivative_lp_norm(f, p) * (1.0 + 1e-9) + 1e-13)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_delta_above_half_reads_its_fold(self, p):
        # the sample delta in (1/2, 1) folds to 1 - delta, placed where N peaks
        # between the samples up to 1/2 (the first function of the seed that
        # peaks there), so it raises the value above the one at 1/2; the
        # reference integrates h = delta itself
        rng = np.random.default_rng(1105)
        fine = np.linspace(0.0, 0.5, 4097)[1:]
        while True:
            f = random_plpf(rng, 6)
            norms = _shift_norms(f, fine, p)
            if norms.max() > lp_modulus(f, p, [0.5])[0] * (1.0 + 1e-9):
                break
        delta = 1.0 - float(fine[np.argmax(norms)])
        got = lp_modulus(f, p, [delta, 0.5, 0.25])
        assert got[0] > got[1] * (1.0 + 1e-9)
        assert got == pytest.approx(mp_lp_modulus_profile(f, p, [delta, 0.5, 0.25]), rel=1e-12)

    def test_delta_above_half_reads_the_half_at_p2(self):
        # at p = 2 the sup over [0, 1/2] is exact, so a delta in (1/2, 1) has
        # no fold of its own to add: it reads 1/2's value, which reaches the
        # fine samples where the sampled path needed the fold
        rng = np.random.default_rng(1105)
        fine = np.linspace(0.0, 0.5, 4097)[1:]
        for _ in range(10):
            f = random_plpf(rng, 6)
            norms = _shift_norms(f, fine, 2.0)
            got = lp_modulus(f, 2.0, [1.0 - float(fine[np.argmax(norms)]), 0.5])
            assert got[0] == got[1] >= norms.max() * (1.0 - 1e-12)


class TestNormReports:
    def test_lip_value_is_max_ratio(self):
        deltas = [2.0**-j for j in range(7)]
        want = max_ratio(deltas, lp_modulus(TRIANGLE, 2.0, deltas), 0.75)
        assert lip_norm(TRIANGLE, 2.0, 0.75, 6) == want

    def test_lip_alpha_one_bounded_by_derivative(self):
        rng = np.random.default_rng(119)
        for _ in range(10):
            f = random_plpf(rng)
            p = float(rng.choice([1.5, 2.0, 3.0]))
            assert lip_norm(f, p, 1.0, 6) <= derivative_lp_norm(f, p) + 1e-9

    def test_ratio_norm_constant_is_zero(self):
        assert p_cont_ratio_norm(make_plpf([(0.0, 3.0)]), 2.0, 0.75, 4) == 0.0

    def test_ratio_norm_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            p_cont_ratio_norm(TRIANGLE, 2.0, 0.5, 4)

    @pytest.mark.parametrize("report", [lip_norm, p_cont_ratio_norm])
    def test_depth_range_named(self, report):
        # 2^-1075 is 0.0, which divided the ratio; 2^-1074 still reads
        message = r"^dyadic_depth must lie in \[1, 1074\]$"
        for depth in (0, MAX_DELTA_DEPTH + 1):
            with pytest.raises(ValueError, match=message):
                report(TRIANGLE, 2.0, 0.75, depth)
        deltas = [2.0**-j for j in range(MAX_DELTA_DEPTH + 1)]
        assert deltas[-1] == 2.0**-1074
        if report is lip_norm:
            want = max_ratio(deltas, lp_modulus(TRIANGLE, 2.0, deltas), 0.75)
        else:
            want = max_ratio(deltas, modulus_p_continuity(TRIANGLE, 2.0, deltas), 0.25)
        assert report(TRIANGLE, 2.0, 0.75, MAX_DELTA_DEPTH) == want

    def test_ratio_norm_rejects_negative_refinement(self):
        with pytest.raises(ValueError, match="grid_refinement must be nonnegative"):
            p_cont_ratio_norm(TRIANGLE, 2.0, 0.75, 3, -1)

    def test_ratio_norm_is_max_over_modulus(self):
        # both go through one chain-DP profile, so the moduli match bit for bit
        rng = np.random.default_rng(124)
        deltas = _dyadic_grid(5)
        for _ in range(10):
            f = random_plpf(rng)
            for p in (1.5, 2.0, 3.0):
                for m in (0, 1):
                    omegas = [modulus_p_continuity(f, p, [delta], m)[0] for delta in deltas]
                    assert p_cont_ratio_norm(f, p, 0.9, 5, m) == max_ratio(deltas, omegas, 0.9 - 1.0 / p)

    def test_ratio_norm_uses_exact_exponent_weights(self):
        deltas = [1.0, 0.5, 0.25, 0.125]
        omegas = modulus_p_continuity(TRIANGLE, 2.0, deltas, 1)
        assert p_cont_ratio_norm(TRIANGLE, 2.0, 0.75, 3, 1) == max_ratio(deltas, omegas, 0.25)
