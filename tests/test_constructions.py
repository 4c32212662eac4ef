import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from lambdabv import (
    Interval,
    LambdaSequence,
    TriangleCombSpec,
    WitnessComb,
    WitnessSpec,
    criterion_partial_sums,
    derivative_lp_norm,
    duality_weights,
    embedding_bound_check,
    embedding_exponents,
    extremal_function,
    lambda_variation,
    make_plpf,
    monotone_arcs,
    p_cont_ratio_norm,
    p_variation,
    perlman_witness,
    superpose,
    triangle_comb,
    wang_gap_family,
    wang_partial_sums,
)

from lambdabv import cli
from lambdabv.constructions import PERLMAN_PART

from helpers import (
    brute_lambda_variation,
    brute_p_variation,
    comb_ratio_norm_by_arcs,
    mp_comb_ratio_norm,
    perlman_sums_by_arrays,
    perlman_weights_by_arrays,
    random_comb_spec,
    witness_heights,
)

LAM_N = LambdaSequence.power(1.0)


def comb_p_variation(spec, p):
    h = np.asarray(spec.heights)
    return float(np.sum(2.0 * h**p) ** (1.0 / p))


def comb_derivative_norm(spec, p):
    halfw = spec.interval.length / spec.n_teeth / 2.0
    h = np.asarray(spec.heights)
    return float(np.sum(2.0 * h**p * halfw ** (1.0 - p)) ** (1.0 / p))


def valleys(f):
    """Values of f at its local minima, in cyclic order."""
    dec = monotone_arcs(f)
    return np.asarray(dec.start_values)[dec.increments > 0].tolist()


class TestTriangleComb:
    def test_spec_validation(self):
        iv = Interval(0.0, 0.5)
        for n_teeth, heights, message in [
            (0, (), "n_teeth must be at least 1"),
            (2, (1.0,), "heights must have one entry per tooth"),
            (2, (1.0, 2.0, 3.0), "heights must have one entry per tooth"),
            (1, (-1.0,), "heights must be nonnegative and finite"),
            (1, (math.nan,), "heights must be nonnegative and finite"),
            (2, (1.0, math.inf), "heights must be nonnegative and finite"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                TriangleCombSpec(iv, n_teeth, heights)

    def test_heights_stored_as_float_tuple(self):
        spec = TriangleCombSpec(Interval(0.0, 0.5), 3, np.array([1, 0, 2]))
        assert spec.heights == (1.0, 0.0, 2.0)
        assert all(type(h) is float for h in spec.heights)
        assert spec == TriangleCombSpec(Interval(0.0, 0.5), 3, [1.0, 0.0, 2.0])

    def test_breakpoint_layout(self):
        spec = TriangleCombSpec(Interval(0.25, 0.5), 2, (1.0, 2.0))
        f = triangle_comb(spec)
        assert len(f.positions) == 5
        assert f.eval(0.25) == 0.0
        assert f.eval(0.375) == 1.0
        assert f.eval(0.5) == 0.0
        assert f.eval(0.625) == 2.0
        assert f.eval(0.75) == 0.0

    def test_full_period_drops_wrap_point(self):
        spec = TriangleCombSpec(Interval(0.0, 1.0), 2, (1.0, 1.0))
        f = triangle_comb(spec)
        assert len(f.positions) == 4

    def test_zero_outside_support(self):
        spec = TriangleCombSpec(Interval(0.5, 0.25), 3, (1.0, 2.0, 3.0))
        f = triangle_comb(spec)
        for x in (0.0, 0.1, 0.4, 0.49, 0.76, 0.9):
            assert f.eval(x) == 0.0

    def test_arc_multiset_doubles_heights(self):
        spec = TriangleCombSpec(Interval(0.1, 0.6), 4, (1.0, 0.0, 2.0, 0.5))
        dec = monotone_arcs(triangle_comb(spec))
        mags = sorted(np.abs(dec.increments).tolist())
        assert mags == pytest.approx([0.5, 0.5, 1.0, 1.0, 2.0, 2.0])
        assert dec.is_baseline_separated()

    def test_all_zero_heights_constant(self):
        spec = TriangleCombSpec(Interval(0.0, 0.5), 3, (0.0,) * 3)
        f = triangle_comb(spec)
        assert p_variation(f, 2.0) == 0.0

    def test_closed_forms_random(self):
        rng = np.random.default_rng(200)
        for _ in range(25):
            spec = random_comb_spec(rng)
            f = triangle_comb(spec)
            for p in (1.0, 1.5, 2.0, 3.0):
                assert p_variation(f, p) == pytest.approx(
                    comb_p_variation(spec, p), rel=1e-12
                )
                assert derivative_lp_norm(f, p) == pytest.approx(
                    comb_derivative_norm(spec, p), rel=1e-12
                )


class TestDualityWeights:
    def test_normalized_and_attains_duality(self):
        rng = np.random.default_rng(201)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            l_terms = rng.uniform(0.01, 3.0, m)
            p = float(rng.uniform(1.2, 4.0))
            alpha = float(rng.uniform(1.0 / p + 0.02, 0.98))
            delta = duality_weights(l_terms, p, alpha)
            assert float(np.sum(delta)) == pytest.approx(1.0, abs=1e-12)
            a_exp = alpha - 1.0 / p
            r_prime = 1.0 / (1.0 + 1.0 / p - alpha)
            lhs = float(np.sum(delta**a_exp * l_terms))
            rhs = float(np.sum(l_terms**r_prime) ** (1.0 / r_prime))
            assert lhs == pytest.approx(rhs, rel=1e-9)
            assert lhs >= 0.5 * rhs

    def test_single_entry_gets_everything(self):
        delta = duality_weights([0.7], 2.0, 0.75)
        assert np.allclose(delta, [1.0])

    def test_weights_are_the_shares_near_r_prime_one(self):
        # alpha one double above 1/p: r' = 1/(1+1/p-alpha) rounds to 1, so
        # each weight is L_n / sum L; a second power of exponent r ~ 2e16
        # read [0.0022, 0.1189, 0.8789]
        delta = duality_weights([1.0, 2.0, 3.0], 3.0, 0.33333333333333337)
        assert delta == pytest.approx([1 / 6, 1 / 3, 1 / 2], rel=0.0, abs=1e-12)

    def test_weights_track_a_50_digit_reference(self):
        # L_n^r' / sum L_m^r' with r' from the doubles p and alpha, in
        # 50-digit arithmetic; through a second power of exponent r the
        # worst of these draws was 4.1e-14 off
        rng = np.random.default_rng(3501)
        worst = 0.0
        for _ in range(3000):
            p = float(rng.choice([1.5, 2.0, 2.5, 3.0, 4.0]))
            alpha = float(rng.uniform(1.0 / p + 0.02, 0.98))
            l_terms = rng.uniform(0.01, 3.0, int(rng.integers(1, 13)))
            got = duality_weights(l_terms, p, alpha)
            with mpmath.workdps(50):
                r_prime = 1 / (1 + 1 / mpmath.mpf(p) - mpmath.mpf(alpha))
                w = [mpmath.mpf(x) ** r_prime for x in l_terms]
                want = [float(x / mpmath.fsum(w)) for x in w]
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst < 4e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            duality_weights([], 2.0, 0.75)
        with pytest.raises(ValueError):
            duality_weights([1.0], 1.0, 0.75)
        with pytest.raises(ValueError):
            duality_weights([1.0], 2.0, 0.5)


class TestWitness:
    def test_level_sum_underflow_named(self):
        # p' = 10^7: every L_n is a sum of positive terms that underflows to 0
        with pytest.raises(ValueError, match="^the first level sum underflows to 0 at this p$"):
            extremal_function(WitnessSpec(LAM_N, 1.0000001, 0.99999999, 3))

    def test_level_one_from_first_principles(self):
        spec = WitnessSpec(LAM_N, 2.0, 0.75, 1)
        comb = extremal_function(spec)[-1]
        g = comb.function()

        k = np.arange(2.0, 5.0)
        inner = float(np.sum(k**-2.5))
        l1 = inner**0.5
        s1 = float((2.0**-2.0 + 3.0**-2.0) ** 0.5)
        h2 = 0.5**0.25 / (2.0 * s1)
        h3 = 0.5**0.25 / (3.0 * s1)

        assert comb.delta.tolist() == comb.beta.tolist() == comb.tile_lengths.tolist() == [1.0]
        assert comb.L_inclusive[0] == pytest.approx(l1, rel=1e-13)
        assert comb.S[0] == pytest.approx(s1, rel=1e-13)
        assert witness_heights(g, 1)[0] == pytest.approx((h2, h3), rel=1e-13)
        assert comb.arc_pair_sum == pytest.approx(2.0 * (h2 / 2.0 + h3 / 3.0), rel=1e-13)
        assert comb.analytic_lower_bound == pytest.approx(2.0**0.25 * l1, rel=1e-13)
        assert comb.criterion_partials[0] == pytest.approx(inner ** (2.0 / 3.0), rel=1e-13)
        # best system stacks both sides of each tooth against weights 1..4
        expected_var = h2 + h2 / 2.0 + h3 / 3.0 + h3 / 4.0
        assert lambda_variation(g, LAM_N) == pytest.approx(expected_var, rel=1e-13)

        assert g.positions.tolist() == [0.0, 0.25, 0.5, 0.75]
        assert g.eval(0.25) == pytest.approx(h2, rel=1e-13)
        assert g.eval(0.75) == pytest.approx(h3, rel=1e-13)
        assert comb.lambda_variation(LAM_N) == lambda_variation(g, LAM_N)
        # four arcs of length 1/4: omega^2 = 2(h2^2 + h3^2) down to delta =
        # 1/4, then half and a quarter of that at 1/8 and 1/16, so the ratio
        # omega / delta^(1/4) peaks at delta = 1/4
        assert comb.ratio_norm(6) == pytest.approx(2.0 * math.hypot(h2, h3), rel=1e-13)

    def test_level_one_regression_anchor(self):
        comb = extremal_function(WitnessSpec(LAM_N, 2.0, 0.75, 1))[-1]
        g = comb.function()
        assert lambda_variation(g, LAM_N) == pytest.approx(
            1.321595318547927, rel=1e-12
        )
        assert comb.criterion_partials[0] ** (1.0 / (4.0 / 3.0)) == pytest.approx(
            comb.L_inclusive[0], rel=1e-12
        )

    def test_small_witness_matches_brute_force(self):
        spec = WitnessSpec(LAM_N, 2.0, 0.75, 2)
        comb = extremal_function(spec)[-1]
        g = comb.function()
        pts = list(g.positions)
        assert lambda_variation(g, LAM_N) == pytest.approx(
            brute_lambda_variation(g, LAM_N, pts), rel=1e-12
        )
        assert p_variation(g, 2.0) ** 2 == pytest.approx(
            brute_p_variation(g, 2.0, pts), rel=1e-12
        )

    def test_per_level_identities(self):
        lam = LambdaSequence.power(0.25)
        spec = WitnessSpec(lam, 2.0, 0.75, 3)
        comb = extremal_function(spec)[-1]
        g = comb.function()
        for idx in range(3):
            n = idx + 1
            k = np.arange(float(2**n), float(2 ** (n + 1)))
            lam_k = k**0.25
            h = witness_heights(g, 3)[idx]
            scale = (2.0**-n * comb.beta[idx]) ** 0.25
            # sum H_k / lambda_k = (2^-n beta_n)^(alpha-1/p) S_n
            assert float(np.sum(h / lam_k)) == pytest.approx(
                scale * comb.S[idx], rel=1e-12
            )
            # sum H_k^p = (2^-n beta_n)^(p(alpha-1/p))
            assert float(np.sum(h**2.0)) == pytest.approx(scale**2.0, rel=1e-12)

    def test_tiles_partition_the_period(self):
        for levels in (1, 3, 6):
            comb = extremal_function(WitnessSpec(LAM_N, 2.0, 0.75, levels))[-1]
            assert abs(sum(comb.tile_lengths) - 1.0) < 1e-12
            assert all(t > 0.0 for t in comb.tile_lengths)

    def test_valleys_on_baseline(self):
        # adjacent tiles share a bit-identical foot, so no valley is left a few
        # ulps above 0.0 (block_power_log(-0.4, 0.8) at p = 2, alpha = 0.6,
        # level 6 was)
        families = [LAM_N, LambdaSequence.power_log(0.3, 5.0),
                    LambdaSequence.block_power_log(-0.4, 0.8), LambdaSequence.block_power_log(2.0, 0.3)]
        for lam in families:
            for p, alphas in ((1.5, (0.7, 0.9)), (2.0, (0.6, 0.8)), (3.0, (0.4, 0.75))):
                for alpha in alphas:
                    for comb in extremal_function(WitnessSpec(lam, p, alpha, 10)):
                        g = comb.function()
                        assert min(g.values) == 0.0
                        assert set(valleys(g)) == {0.0}, (lam, p, alpha, len(comb.starts))

    @pytest.mark.parametrize(
        "lam,p,alpha",
        [(LambdaSequence.block_power_log(-0.4, 0.8), 2.0, 0.6),
         (LambdaSequence.power_log(0.5, 1.0), 2.0, 0.75)],
        ids=["block_power_log", "power_log"],
    )
    def test_witness_is_the_sum_of_its_combs(self, lam, p, alpha):
        # reference: one comb per level with its final foot pinned to the next
        # tile boundary, summed with superpose; the witness lays the same
        # nodes out in one pass and must match it bit for bit
        for comb in extremal_function(WitnessSpec(lam, p, alpha, 12)):
            g = comb.function()
            levels = len(comb.starts)
            cuts = np.cumsum(comb.beta)
            boundaries = np.concatenate([[0.0], cuts / cuts[-1]])
            assert np.diff(boundaries).tobytes() == comb.tile_lengths.tobytes()
            combs = []
            for idx, heights in enumerate(witness_heights(g, levels)):
                n_teeth = len(heights)
                a, length = boundaries[idx], comb.tile_lengths[idx]
                positions = a + length * (np.arange(2 * n_teeth + 1) / (2 * n_teeth))
                positions[-1] = boundaries[idx + 1] % 1.0
                values = np.zeros(2 * n_teeth + 1)
                values[1::2] = heights
                if length == 1.0:
                    positions, values = positions[:-1], values[:-1]
                combs.append(make_plpf(np.column_stack([positions, values])))
            reference = superpose(combs)
            assert set(valleys(g)) == {0.0}, levels
            assert g.positions.tobytes() == reference.positions.tobytes(), levels
            assert g.values.tobytes() == reference.values.tobytes(), levels

    @pytest.mark.parametrize(
        "lam",
        [LambdaSequence.power(0.5), LambdaSequence.power_log(0.5, 1.0),
         LambdaSequence.block_power_log(-0.4, 0.8)],
        ids=lambda lam: lam.family,
    )
    @pytest.mark.parametrize("p,alpha", [(1.5, 0.8), (2.0, 0.75), (3.0, 0.6)])
    def test_each_truncation_is_its_own_build(self, lam, p, alpha):
        # one call shares the lower levels' block sums among every truncation,
        # and each truncation keeps the bits of a build that stops at it
        builds = extremal_function(WitnessSpec(lam, p, alpha, 12))
        assert type(builds) is tuple and len(builds) == 12
        for levels in range(1, 13):
            assert builds[levels - 1] == extremal_function(WitnessSpec(lam, p, alpha, levels))[-1]
            assert len(builds[levels - 1].starts) == levels

    @pytest.mark.parametrize(
        "lam",
        [LambdaSequence.power(0.5), LambdaSequence.power_log(0.5, 1.0),
         LambdaSequence.block_power_log(-0.4, 0.8)],
        ids=lambda lam: lam.family,
    )
    @pytest.mark.parametrize("p,alpha", [(1.5, 0.8), (2.0, 0.75), (3.0, 0.6)])
    def test_comb_measures_match_the_built_function(self, lam, p, alpha):
        # the level-data closed forms against the built function at every
        # level: the per-arc sum at 1e-14, every grid value of the chain DP
        # at or below it, and the general Lambda-variation bit for bit
        for comb in extremal_function(WitnessSpec(lam, p, alpha, 12)):
            g = comb.function()
            for depth in (6, 20):
                grid = [2.0**-j for j in range(depth + 1)]
                want = comb_ratio_norm_by_arcs(g, p, alpha, grid)
                assert comb.ratio_norm(depth) == pytest.approx(want, rel=1e-14, abs=0.0)
            exact = comb.ratio_norm(6)
            for r in range(4):
                assert exact >= p_cont_ratio_norm(g, p, alpha, 6, r) * (1.0 - 1e-14), (len(comb.starts), r)
            assert comb.lambda_variation(lam) == lambda_variation(g, lam), len(comb.starts)

    @pytest.mark.parametrize(
        "lam",
        [LAM_N, LambdaSequence.power(0.5), LambdaSequence.power_log(0.5, 1.0),
         LambdaSequence.block_power_log(-0.4, 0.8)],
        ids=["power(1)", "power(0.5)", "power_log", "block_power_log"],
    )
    @pytest.mark.parametrize("p,alpha", [(1.5, 0.8), (2.0, 0.75), (3.0, 0.6)])
    def test_lambda_variation_tracks_fsum(self, lam, p, alpha):
        # the sorted products h_k / lambda_k of the level-12 witness, summed
        # by fsum: a dot product over a reversed view was up to 4e-13 off
        comb = extremal_function(WitnessSpec(lam, p, alpha, 12))[-1]
        h = np.sort(np.repeat(comb.heights[comb.heights > 0.0], 2))[::-1]
        want = math.fsum(h * (1.0 / lam.terms(len(h))))
        for got in (comb.lambda_variation(lam), lambda_variation(comb.function(), lam)):
            assert got == pytest.approx(want, rel=5e-14, abs=0.0)

    @pytest.mark.parametrize(
        "lam",
        [LAM_N, LambdaSequence.power_log(0.5, 1.0), LambdaSequence.block_power_log(-0.4, 0.8)],
        ids=["power", "power_log", "block_power_log"],
    )
    @pytest.mark.parametrize("p,alpha", [(1.5, 0.8), (2.0, 0.75), (3.0, 0.6)])
    def test_analytic_bound_is_the_criterion_partial_sum(self, lam, p, alpha):
        # the duality weights give sum delta_n^(alpha-1/p) L_n = ||L||_r', and
        # L_n^r' is the criterion's block term: the bound ties the witness to
        # the criterion at every level
        r_prime = embedding_exponents(p, alpha)[2]
        for comb in extremal_function(WitnessSpec(lam, p, alpha, 12)):
            want = 2.0 ** (alpha - 1.0 / p) * comb.criterion_partials[-1] ** (1.0 / r_prime)
            assert comb.analytic_lower_bound == pytest.approx(want, rel=1e-14, abs=0.0), len(comb.starts)

    def test_comb_is_read_only_level_data(self):
        comb = extremal_function(WitnessSpec(LAM_N, 2.0, 0.75, 3))[-1]
        assert len(comb.starts) == len(comb.tile_lengths) == 3 and len(comb.heights) == 2 + 4 + 8
        arrays = [f.name for f in dataclasses.fields(comb) if isinstance(getattr(comb, f.name), np.ndarray)]
        assert arrays == ["starts", "tile_lengths", "heights", "delta", "beta", "S", "L_inclusive",
                          "criterion_partials"]
        for name in arrays:
            with pytest.raises(ValueError):
                getattr(comb, name)[0] = 0.5
        same = dataclasses.replace(comb, **{name: list(getattr(comb, name)) for name in arrays})
        assert same == comb and hash(same) == hash(comb)
        assert dataclasses.replace(comb, heights=comb.heights * 2.0) != comb
        assert dataclasses.replace(comb, beta=comb.beta * 2.0) != comb
        assert dataclasses.replace(comb, arc_pair_sum=2.0 * comb.arc_pair_sum) != comb
        # -0.0 is 0.0, and a comb is never its function or a sequence
        signed = dataclasses.replace(comb, starts=np.where(comb.starts == 0.0, -0.0, comb.starts),
                                     heights=np.append(comb.heights, -0.0))
        zero = dataclasses.replace(comb, heights=np.append(comb.heights, 0.0))
        assert signed == zero and hash(signed) == hash(zero)
        g = comb.function()
        assert comb != g and g != comb and comb != LAM_N and LAM_N != comb
        with pytest.raises(dataclasses.FrozenInstanceError):
            comb.heights = comb.heights
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^heights must be nonnegative and finite$"):
                dataclasses.replace(comb, heights=np.append(comb.heights[:-1], bad))

    def test_ratio_norm_on_the_deepest_grid(self):
        # arc / delta overflows past depth ~1000; phi reads it from delta /
        # arc and fmod(arc, delta) instead, with no warning and no NaN
        for lam in (LAM_N, LambdaSequence.power_log(0.5, 1.0)):
            for p, alpha in ((1.5, 0.8), (2.0, 0.75), (3.0, 0.6)):
                comb = extremal_function(WitnessSpec(lam, p, alpha, 12))[-1]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert comb.ratio_norm(1074) == comb.ratio_norm(60)
        with pytest.raises(ValueError, match="dyadic_depth"):
            comb.ratio_norm(0)

    @pytest.mark.parametrize(
        "lam,p,alpha,levels",
        [(LambdaSequence.block_power_log(3.5, 0.75), 1000.0, 0.5, 7),
         (LambdaSequence.block_power_log(-0.4, 0.8), 1000.0, 0.9, 2),
         (LAM_N, 5000.0, 0.5, 8),
         (LAM_N, 1.5, 0.8, 12),
         (LambdaSequence.power_log(0.5, 1.0), 2.0, 0.75, 12),
         (LambdaSequence.block_power_log(-0.4, 0.8), 3.0, 0.6, 12)],
        ids=["block_power_log-p1000", "block_power_log-p1000-level2", "power-p5000",
             "power-p1.5", "power_log-p2", "block_power_log-p3"],
    )
    def test_ratio_norm_does_not_underflow(self, lam, p, alpha, levels):
        # each level's sum of H^p is read from beta in logs: at p = 1000 the
        # height powers are subnormal or 0 (the sums read 13% and 36% low),
        # and at p = 5000 every one underflows (the ratio norm read 0.0)
        comb = extremal_function(WitnessSpec(lam, p, alpha, levels))[-1]
        for depth in (6, 20):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = comb.ratio_norm(depth)
            assert got == pytest.approx(mp_comb_ratio_norm(comb, depth), rel=1e-14, abs=0.0), depth

    def test_measured_dominates_certified_bounds(self):
        for lam in (LAM_N, LambdaSequence.power(0.25)):
            for levels in (2, 4, 6):
                comb = extremal_function(WitnessSpec(lam, 2.0, 0.75, levels))[-1]
                g = comb.function()
                v = lambda_variation(g, lam)
                # one arc per tooth with rank-dominated weights is always achievable
                assert v >= 0.5 * comb.arc_pair_sum * (1.0 - 1e-12)
                assert v >= comb.analytic_lower_bound * (1.0 - 1e-12)

    def test_auto_delta_attains_duality(self):
        comb = extremal_function(WitnessSpec(LAM_N, 2.0, 0.75, 5))[-1]
        l_arr, delta = comb.L_inclusive, comb.delta
        r_prime = 4.0 / 3.0
        lhs = float(np.sum(delta**0.25 * l_arr))
        rhs = float(np.sum(l_arr**r_prime) ** (1.0 / r_prime))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_criterion_partials_increasing(self):
        ps = extremal_function(WitnessSpec(LAM_N, 2.0, 0.75, 5))[-1].criterion_partials
        assert len(ps) == 5
        assert np.all(np.diff(ps) > 0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WitnessSpec(LAM_N, 2.0, 0.75, 0)
        with pytest.raises(ValueError):
            WitnessSpec(LAM_N, 2.0, 0.75, 13)
        with pytest.raises(ValueError):
            WitnessSpec(LAM_N, 1.0, 0.75, 2)
        with pytest.raises(ValueError):
            WitnessSpec(LAM_N, 2.0, 0.5, 2)
        with pytest.raises(ValueError):
            WitnessSpec(LambdaSequence.explicit([1.0, 2.0]), 2.0, 0.75, 2)

    def test_report_json_round_trips(self, tmp_path):
        # the sharpness summary's witness is the deepest comb, every field but
        # its starts and heights, with its level count and both measures
        seq = tmp_path / "seq.json"
        seq.write_text('{"family": "power", "params": {"s": 1.0}}\n')
        argv = ["--command", "sharpness", "--sequence", str(seq), "--levels", "2", "--delta-depth", "4",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        witness = json.loads((tmp_path / "out" / "sharpness.json").read_text())["witness"]
        comb = extremal_function(WitnessSpec(LAM_N, 2.0, 0.75, 2))[-1]
        arrays = ("delta", "beta", "tile_lengths", "S", "L_inclusive", "criterion_partials")
        assert witness == {
            "p": 2.0,
            "alpha": 0.75,
            "levels": 2,
            **{name: getattr(comb, name).tolist() for name in arrays},
            "arc_pair_sum": comb.arc_pair_sum,
            "analytic_lower_bound": comb.analytic_lower_bound,
            "measured_lambda_variation": comb.lambda_variation(LAM_N),
            "omega_ratio_norm": comb.ratio_norm(4),
        }


class TestEmbeddingBoundCheck:
    def test_scale_invariant_ratio(self):
        spec = TriangleCombSpec(Interval(0.1, 0.5), 3, (1.0, 0.5, 2.0))
        f = triangle_comb(spec)
        scaled = make_plpf([(x, 7.0 * y) for x, y in zip(f.positions, f.values)])
        _, _, r1 = embedding_bound_check(f, LAM_N, 2.0, 0.75, 10, dyadic_depth=4)
        _, _, r2 = embedding_bound_check(scaled, LAM_N, 2.0, 0.75, 10, dyadic_depth=4)
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_constant_function_all_zero(self):
        f = make_plpf([(0.0, 5.0)])
        assert embedding_bound_check(f, LAM_N, 2.0, 0.75, 10) == (0.0, 0.0, 0.0)

    def test_divergent_family_rejected(self):
        f = triangle_comb(TriangleCombSpec(Interval(0.0, 0.5), 2, (1.0, 1.0)))
        with pytest.raises(ValueError, match="diverges"):
            embedding_bound_check(f, LambdaSequence.power(0.25), 2.0, 0.75, 10)

    def test_ratios_bounded_across_comb_family(self):
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(25):
            nt = int(rng.integers(1, 9))
            a = float(rng.uniform(0, 0.5))
            ln = float(rng.uniform(0.2, 0.5))
            h = tuple(rng.uniform(0.05, 2.0, nt).tolist())
            f = triangle_comb(TriangleCombSpec(Interval(a, ln), nt, h))
            lhs, rhs, ratio = embedding_bound_check(
                f, LAM_N, 2.0, 0.75, 12, dyadic_depth=5
            )
            assert lhs > 0.0 and rhs > 0.0
            assert ratio == pytest.approx(lhs / rhs, rel=1e-12)
            ratios.append(ratio)
        assert 0.01 < min(ratios) and max(ratios) < 5.0
        assert max(ratios) / min(ratios) < 5.0


# checkpoints on and beside the part boundaries, out of order and repeated
PART_EDGES = [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16, 10**6, 5, 2**16]


class TestPerlmanWitness:
    def test_harmonic_sqrt_closed_form(self):
        # d_n = n^-1/2 at p = 2 makes lambda_n = H_n sqrt(n), so the companion
        # terms are 1/(n H_n) and 1/(n H_n^2)
        n = np.arange(1.0, 6.0)
        harmonic = np.cumsum(1.0 / n)
        sums = perlman_witness(0.5, 2.0, range(1, 6))
        assert sums[:, 0] == pytest.approx(np.cumsum(1.0 / (n * harmonic)), rel=1e-12)
        assert sums[:, 1] == pytest.approx(np.cumsum(1.0 / (n * harmonic**2)), rel=1e-12)

    @pytest.mark.parametrize("w", [0.0, 0.5, 3.0])
    def test_single_term(self, w):
        # lambda_1 = d_1 = 1
        assert perlman_witness(w, 2.0, [1]).tolist() == [[1.0, 1.0]]

    def test_companion_sums_behave(self):
        sums = perlman_witness(0.5, 2.0, [10**k for k in range(2, 6)])
        div_incs, conv_incs = np.diff(sums, axis=0).T
        # the divergent companion adds a near-constant amount per decade,
        # the convergent one (a 1/(n log^2 n) tail) adds less each decade
        assert all(inc > 0.1 for inc in div_incs)
        assert all(b < a for a, b in zip(conv_incs, conv_incs[1:]))
        assert conv_incs[-1] < div_incs[-1] / 5.0

    def test_geometric_d_makes_both_converge(self):
        d = 0.5 ** np.arange(60.0)
        terms = perlman_weights_by_arrays(d, 2.0)
        partial = np.cumsum(d / terms)
        assert partial[-1] - partial[29] < 1e-8

    @pytest.mark.parametrize("w", [0.2, 2.0 / 3.0, 1.0, 2.0])
    def test_weights_nondecreasing(self, w):
        # the convergent companion's increments are lambda_n^-p', each read
        # to within the rounding of the partial sums
        sums = perlman_witness(w, 1.5, range(1, 101))
        t = np.diff(sums[:, 1], prepend=0.0)
        assert np.all(np.diff(t) <= 2.0 * np.spacing(sums[-1, 1]))

    def test_memory(self):
        # one pass over parts: d and the weights (then the two series) in two
        # rows of one part beside a few one-part temporaries; an array of
        # 10^6 doubles alone would be 15 parts
        tracemalloc.start()
        try:
            perlman_witness(0.5, 2.0, [10**6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * PERLMAN_PART

    @pytest.mark.parametrize("p, w", [(2.0, 0.5), (1.2, 0.8), (1.5, 1.0), (3.7, 0.2), (4.0, 2.0)])
    def test_sums_are_the_whole_array_sums(self, p, w):
        # a sum carried into each part's first term gives np.cumsum's bits
        divergent, convergent = perlman_sums_by_arrays(w, p, max(PART_EDGES))
        want = np.array([[divergent[n - 1], convergent[n - 1]] for n in PART_EDGES])
        assert perlman_witness(w, p, PART_EDGES).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p, w, message", [
        (1.0, 0.5, "p must satisfy p > 1"),
        (math.inf, 0.5, "p must satisfy p > 1"),
        (2.0, math.nan, "d entries must be positive and finite"),
        # d underflows to 0 in the part after the first infinite weight
        (2.0, 60.0, "d entries must be positive and finite"),
        (2.0, -0.5, "d must be nonincreasing"),
        (2.0, 53.0, "sequence terms must be positive and finite"),
        (400.0, 1.0, "sequence terms must be positive and finite"),
    ])
    def test_errors_are_the_whole_array_errors(self, p, w, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            perlman_sums_by_arrays(w, p, max(PART_EDGES))
        with pytest.raises(ValueError, match=f"^{message}$"):
            perlman_witness(w, p, PART_EDGES)

    def test_checkpoints_are_positive_integers(self):
        with pytest.raises(ValueError, match="^checkpoints must be"):
            perlman_witness(0.5, 2.0, [])
        with pytest.raises(ValueError, match="^checkpoints must be"):
            perlman_witness(0.5, 2.0, [5, 0])
        with pytest.raises(TypeError, match="^checkpoints must be an integer, not float$"):
            perlman_witness(0.5, 2.0, [5.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            perlman_weights_by_arrays([1.0, 2.0], 2.0)
        with pytest.raises(ValueError):
            perlman_weights_by_arrays([1.0, -1.0], 2.0)
        with pytest.raises(ValueError):
            perlman_weights_by_arrays([], 2.0)
        with pytest.raises(ValueError):
            perlman_weights_by_arrays([1.0], 1.0)


class TestEmbeddingParameters:
    @pytest.mark.parametrize(
        "p,alpha,message",
        [
            (1.0, 0.75, "p must satisfy p > 1"),
            (math.inf, 0.75, "p must satisfy p > 1"),
            (math.nan, 0.75, "p must satisfy p > 1"),
            (2.0, 0.5, "alpha must lie in (1/p, 1)"),
            (2.0, 1.0, "alpha must lie in (1/p, 1)"),
            (2.0, math.nan, "alpha must lie in (1/p, 1)"),
            # above 1.0/p as doubles, below 1/p as the decimals written
            (16.876, 0.05925574780753733, "alpha must lie in (1/p, 1)"),
        ],
    )
    def test_every_caller_keeps_its_message(self, p, alpha, message):
        # extremal_function takes a WitnessSpec, which rejects these first
        tri = make_plpf([(0.0, 0.0), (0.5, 1.0)])
        callers = [
            lambda: embedding_exponents(p, alpha),
            lambda: criterion_partial_sums(LAM_N, p, alpha, 4),
            lambda: duality_weights([1.0, 0.5], p, alpha),
            lambda: WitnessSpec(LAM_N, p, alpha, 2),
            lambda: wang_gap_family(p, alpha, 2.0),
            lambda: embedding_bound_check(tri, LAM_N, p, alpha, 4),
        ]
        for call in callers:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()


class TestWangGapFamily:
    def test_window_arithmetic(self):
        # upper edge (1 + 1/p - alpha)/(1 - alpha) = 3 for p=2, alpha=3/4
        fam = wang_gap_family(2.0, 0.75, 2.0)
        assert fam.family == "block_power_log"
        assert fam.s == 2.0
        assert fam.alpha == 0.75

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0, 3.5])
    def test_edges_and_outside_rejected(self, s):
        with pytest.raises(ValueError, match="gap window"):
            wang_gap_family(2.0, 0.75, s)

    def test_top_of_window_never_converges(self):
        # the float edge and the double below it, on a decimal grid: an
        # accepted s lies below the edge of p and alpha as written, where the
        # criterion's verdict is decided
        for p in [i / 10 for i in range(11, 100)]:
            for alpha in [j / 100 for j in range(1, 100)]:
                if not 1.0 / p < alpha:
                    continue
                upper = (1.0 + 1.0 / p - alpha) / (1.0 - alpha)
                for s in (math.nextafter(upper, 0.0), upper):
                    try:
                        fam = wang_gap_family(p, alpha, s)
                    except ValueError:
                        continue
                    assert criterion_partial_sums(fam, p, alpha, 2).symbolic_verdict == "diverges"

    def test_produces_the_gap_verdicts(self):
        fam = wang_gap_family(2.0, 0.75, 2.0)
        assert wang_partial_sums(fam, 0.75, 2).symbolic_verdict == "converges"
        assert criterion_partial_sums(fam, 2.0, 0.75, 2).symbolic_verdict == "diverges"

    def test_criterion_terms_decay_like_power_of_index(self):
        # block terms fall off like n^(-s(1-alpha)r') = n^(-2/3): summable never
        fam = wang_gap_family(2.0, 0.75, 2.0)
        rep = criterion_partial_sums(fam, 2.0, 0.75, 30)
        terms = np.diff(np.concatenate([[0.0], rep.partial_sums]))
        idx = np.arange(31, dtype=float)
        slope = np.log(terms[30] / terms[29]) / np.log(idx[30] / idx[29])
        assert slope == pytest.approx(-2.0 / 3.0, abs=1e-3)
