import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lambdabv import (
    LambdaSequence,
    criterion_partial_sums,
    dual_extremizer,
    embedding_exponents,
    hardy_two_sides,
    membership_report,
    regularize_sequence,
    sequence_from_json,
    sequence_to_json,
    wang_partial_sums,
    weighted_block_sum,
)

from lambdabv import sequences
from lambdabv.sequences import _SUM_CHUNK

from helpers import mp_power_sum, one_array_block_sum, random_lambda_prefix


def _case_ids(cases):
    """Name each case by its index and verdict only, as pytest does for a
    (sequence, verdict) pair, so the p and alpha columns leave ids alone."""
    return [f"lam{i}-{case[-1]}" for i, case in enumerate(cases)]


# (sequence, p, alpha, verdict); the last two sit on the boundary s = 1 - alpha,
# where 1.0 - 0.7 and 1.0 - 0.9 as doubles miss the decimal value
CRITERION_CASES = [
    (LambdaSequence.power(0.5), 2.0, 0.75, "converges"),
    (LambdaSequence.power(0.25), 2.0, 0.75, "diverges"),
    (LambdaSequence.power(0.26), 2.0, 0.75, "converges"),
    (LambdaSequence.power_log(0.25, 1.0), 2.0, 0.75, "converges"),
    (LambdaSequence.power_log(0.25, 0.75), 2.0, 0.75, "diverges"),
    (LambdaSequence.block_power_log(2.0, 0.75), 2.0, 0.75, "diverges"),
    (LambdaSequence.block_power_log(4.0, 0.75), 2.0, 0.75, "converges"),
    (LambdaSequence.explicit(np.arange(1.0, 9.0)), 2.0, 0.75, "undetermined"),
    # t r' = 5 * 1.25 > 1
    (LambdaSequence.power_log(0.3, 5.0), 2.0, 0.7, "converges"),
    # t r' = 0.1 * 5/3 < 1
    (LambdaSequence.power_log(0.1, 0.1), 2.0, 0.9, "diverges"),
]

# (sequence, alpha, verdict); the last sits on the boundary s = 1 - alpha
WANG_CASES = [
    (LambdaSequence.power(0.25), 0.75, "diverges"),
    (LambdaSequence.power(0.3), 0.75, "converges"),
    (LambdaSequence.block_power_log(2.0, 0.75), 0.75, "converges"),
    (LambdaSequence.block_power_log(1.0, 0.75), 0.75, "diverges"),
    (LambdaSequence.explicit([1.0, 2.0]), 0.75, "undetermined"),
    (LambdaSequence.power(0.3), 0.7, "diverges"),
]


class TestLambdaSequence:
    def test_explicit_basic(self):
        lam = LambdaSequence.explicit([1.0, 2.0, 4.0])
        assert len(lam) == 3
        assert lam.term(2) == 2.0
        assert list(lam.terms(3)) == [1.0, 2.0, 4.0]

    def test_explicit_rejects_bad_input(self):
        with pytest.raises(ValueError):
            LambdaSequence.explicit([])
        with pytest.raises(ValueError):
            LambdaSequence.explicit([1.0, 0.5])
        with pytest.raises(ValueError):
            LambdaSequence.explicit([0.0, 1.0])
        with pytest.raises(ValueError):
            LambdaSequence.explicit([1.0, math.inf])

    def test_explicit_terms_read_only(self):
        lam = LambdaSequence.explicit([1.0, 2.0])
        with pytest.raises(ValueError):
            lam.explicit_terms[0] = 5.0

    def test_require_explicit(self):
        lam = LambdaSequence.explicit([1.0, 2.0])
        lam.require(2)
        with pytest.raises(ValueError):
            lam.require(3)

    @pytest.mark.parametrize("lam", [LambdaSequence.power(1.0), LambdaSequence.explicit([1.0, 2.0, 3.0])],
                             ids=["power", "explicit"])
    def test_indices_must_be_integers(self, lam):
        # a float n used to be summed or sliced as if it were an integer:
        # terms(2.5) gave 3 terms
        for method in (lam.term, lam.terms, lam.require):
            for n in (2.5, 2.0, np.float64(3.0)):
                with pytest.raises(TypeError, match="n must be an integer"):
                    method(n)
        assert lam.term(np.int64(3)) == lam.term(3)
        assert np.array_equal(lam.terms(np.int32(3)), lam.terms(3))

    def test_power_terms(self):
        lam = LambdaSequence.power(0.5)
        assert lam.term(4) == 2.0
        assert np.allclose(lam.terms(9), np.arange(1.0, 10.0) ** 0.5)

    def test_power_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            LambdaSequence.power(-0.1)

    def test_power_log_terms(self):
        lam = LambdaSequence.power_log(1.0, 1.0)
        assert lam.term(1) == pytest.approx(math.log(2.0), rel=1e-15)
        assert lam.term(7) == pytest.approx(7.0 * math.log(8.0), rel=1e-15)

    def test_power_log_rejects_decreasing_start(self):
        # n^0.1 log(n+1)^-1 decreases across the first step
        with pytest.raises(ValueError):
            LambdaSequence.power_log(0.1, -1.0)
        LambdaSequence.power_log(1.0, -1.0)

    def test_block_family_shares_first_block(self):
        lam = LambdaSequence.block_power_log(2.0, 0.75)
        assert lam.term(1) == lam.term(2)
        assert lam.term(3) == lam.term(2)
        assert lam.term(4) > lam.term(3)

    def test_block_family_validation(self):
        with pytest.raises(ValueError):
            LambdaSequence.block_power_log(2.0, 1.0)
        with pytest.raises(ValueError):
            LambdaSequence.block_power_log(-1.5, 0.75)

    def test_named_families_nondecreasing(self):
        for lam in (
            LambdaSequence.power(0.0),
            LambdaSequence.power(1.3),
            LambdaSequence.power_log(1.0, -1.0),
            LambdaSequence.block_power_log(2.0, 0.75),
        ):
            t = lam.terms(4096)
            assert np.all(np.diff(t) >= -1e-15 * t[:-1])

    def test_len_only_for_explicit(self):
        with pytest.raises(TypeError):
            len(LambdaSequence.power(1.0))

    def test_equality_and_hash_by_value(self):
        assert LambdaSequence.power(1.0) == LambdaSequence.power(1.0)
        assert LambdaSequence.power(1.0) != LambdaSequence.power(1.5)
        assert LambdaSequence.power(1.0) != LambdaSequence.power_log(1.0, 0.0)
        a = LambdaSequence.explicit([1.0, 2.0, 4.0])
        b = LambdaSequence.explicit(np.array([1.0, 2.0, 4.0]))
        assert a == b and a is not b
        assert a != LambdaSequence.explicit([1.0, 2.0, 5.0])
        assert a != LambdaSequence.explicit([1.0, 2.0])
        assert hash(a) == hash(b)
        assert hash(LambdaSequence.power(1.0)) == hash(LambdaSequence.power(1.0))
        assert len({a, b, LambdaSequence.power(1.0), LambdaSequence.power(1.0)}) == 2

    def test_describe_mentions_family(self):
        assert "power" in LambdaSequence.power(1.0).describe()
        assert "explicit" in LambdaSequence.explicit([1.0]).describe()


FOUR_FAMILIES = [
    LambdaSequence.power(0.5),
    LambdaSequence.power_log(0.7, 1.3),
    LambdaSequence.block_power_log(1.0, 0.75),
    LambdaSequence.explicit(np.arange(1.0, 9000.0)),
]


class TestWeightedBlockSum:
    @pytest.mark.parametrize("lo, hi, name", [(2.5, 10, "lo"), (2, 10.7, "hi"), (2.0, 10, "lo"),
                                              (2, np.float64(10.0), "hi")])
    def test_bounds_must_be_integers(self, lo, hi, name):
        # lo = 2.5 used to sum over k = 2.5, 3.5, ..., and hi = 10.7 up to 11
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            weighted_block_sum(LambdaSequence.power(1.0), 1.0, 1.0, lo, hi)

    @pytest.mark.parametrize("lam", FOUR_FAMILIES, ids=lambda lam: lam.family)
    @pytest.mark.parametrize("lo, hi", [(2, 10), (4096, 8191), (3, 8999)])
    def test_numpy_integer_bounds(self, lam, lo, hi):
        for kind in (np.int64, np.int32, np.uint64):
            assert weighted_block_sum(lam, 0.3, 1.5, kind(lo), kind(hi)) == weighted_block_sum(lam, 0.3, 1.5, lo, hi)

    @pytest.mark.parametrize("lam", FOUR_FAMILIES, ids=lambda lam: lam.family)
    @pytest.mark.parametrize("lo", [1, 2, 4097, 2**40])
    def test_empty_range_is_zero(self, lam, lo):
        assert weighted_block_sum(lam, 0.3, 1.5, lo, lo - 1) == 0.0

    def test_power_matches_direct_small(self):
        lam = LambdaSequence.power(0.5)
        got = weighted_block_sum(lam, 0.25, 2.0, 3, 17)
        k = np.arange(3.0, 18.0)
        assert got == pytest.approx(float(np.sum(k**-0.25 * k**-1.0)), rel=1e-14)

    def test_power_zeta_path_matches_direct(self):
        # ranges above the direct-summation cutoff go through the 40-digit
        # Euler-Maclaurin sum; here it meets a float sum of every term
        lam = LambdaSequence.power(0.5)
        lo, hi = 2, 100_000
        got = weighted_block_sum(lam, 0.3, 2.0, lo, hi)
        k = np.arange(float(lo), float(hi) + 1.0)
        want = float(np.sum(k**-0.3 * (k**0.5) ** -2.0))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "c", [0.0, 0.5, 0.9999999999999999, 1.0, 1.0 + 1e-13, 1.3, 2.0, 6.0, 40.0, 1e4, 1e6]
    )
    @pytest.mark.parametrize(
        "lo, hi",
        [(1, 4097), (2, 100_000), (4096, 8192), (4097, 2**20), (2**30, 2**31),
         (2**100, 2**101), (2**1022, 2**1023)],
    )
    def test_long_power_sum_is_the_rounded_reference(self, c, lo, hi):
        # the Euler-Maclaurin sum and its head, for every c: the closest
        # double to the 60-digit zeta difference, with no fallback near c = 1
        got = weighted_block_sum(LambdaSequence.power(0.0), c, 1.0, lo, hi)
        assert got == mp_power_sum(c, lo, hi)

    def test_harmonic_special_case(self):
        lam = LambdaSequence.power(1.0)
        lo, hi = 5, 200_000
        got = weighted_block_sum(lam, 0.0, 1.0, lo, hi)
        want = float(mpmath.harmonic(hi) - mpmath.harmonic(lo - 1))
        assert got == pytest.approx(want, rel=1e-13)

    def test_explicit_direct(self):
        lam = LambdaSequence.explicit([1.0, 2.0, 3.0, 4.0])
        got = weighted_block_sum(lam, 1.0, 1.0, 2, 4)
        assert got == pytest.approx(1.0 / (2.0 * 2.0) + 1.0 / (3.0 * 3.0) + 1.0 / (4.0 * 4.0), rel=1e-15)

    def test_power_log_range_cap(self):
        lam = LambdaSequence.power_log(1.0, 1.0)
        with pytest.raises(ValueError):
            weighted_block_sum(lam, 0.0, 1.0, 1, 1 << 23)

    @pytest.mark.parametrize(
        "length",
        [_SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1, 2 * _SUM_CHUNK + 7, 2**20 + 1, 2**21 + 1],
    )
    @pytest.mark.parametrize("lo", [1, 3, 2**12 + 5, 2**20 + 2**19 + 7])
    @pytest.mark.parametrize("family", ["power_log", "explicit"])
    def test_chunked_direct_sum_is_the_one_array_sum(self, family, lo, length):
        # a long direct sum runs in chunks split where numpy's pairwise sum
        # splits, so it keeps that sum's bits; a numpy that split elsewhere
        # would fail here
        hi = lo + length - 1
        if family == "power_log":
            lam = LambdaSequence.power_log(0.7, 1.3)
        else:
            lam = LambdaSequence.explicit(np.cumsum(np.random.default_rng(lo).uniform(0.5, 1.5, hi)))
        got = weighted_block_sum(lam, 1.1, 0.6, lo, hi)
        assert got == one_array_block_sum(lam, 1.1, 0.6, lo, hi)

    def test_long_direct_sum_memory(self):
        # 2^21 + 1 terms are 16 MB a float array; the chunks keep every
        # temporary at _SUM_CHUNK terms
        lam = LambdaSequence.power_log(0.5, 1.0)
        tracemalloc.start()
        try:
            weighted_block_sum(lam, 1.2, 0.7, 2**21, 2**22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_block_family_blockwise_closed_form(self):
        # inside one lambda-block the weight is constant
        lam = LambdaSequence.block_power_log(2.0, 0.75)
        got = weighted_block_sum(lam, 0.0, 1.0, 4, 7)
        assert got == pytest.approx(4.0 / lam.term(4), rel=1e-13)


class TestCriterion:
    def test_conjugate_exponents_consistent(self):
        rep = criterion_partial_sums(LambdaSequence.power(1.0), 2.0, 0.75, 3)
        assert 1.0 / rep.r + 1.0 / rep.r_prime == pytest.approx(1.0, abs=1e-12)
        assert rep.r == pytest.approx(1.0 / (0.75 - 0.5), rel=1e-12)

    def test_partial_sums_nondecreasing(self):
        rep = criterion_partial_sums(LambdaSequence.power(0.5), 2.0, 0.75, 20)
        ps = np.asarray(rep.partial_sums)
        assert np.all(np.diff(ps) >= 0.0)
        assert len(ps) == 21

    def test_scale_covariance(self):
        rng = np.random.default_rng(7)
        base = random_lambda_prefix(rng, 64)
        c = 3.7
        r1 = criterion_partial_sums(LambdaSequence.explicit(base), 2.0, 0.75, 4)
        r2 = criterion_partial_sums(LambdaSequence.explicit(c * base), 2.0, 0.75, 4)
        scale = c**-r1.r_prime
        for a, b in zip(r1.partial_sums, r2.partial_sums):
            assert b == pytest.approx(a * scale, rel=1e-12)

    def test_power_family_decay_rate(self):
        # block terms of the power family decay like 2^(n r'(1-alpha-s))
        rep = criterion_partial_sums(LambdaSequence.power(0.5), 2.0, 0.75, 20)
        terms = np.diff(np.concatenate([[0.0], rep.partial_sums]))
        target = 2.0 ** (rep.r_prime * (1.0 - 0.75 - 0.5))
        assert terms[-1] / terms[-2] == pytest.approx(target, abs=1e-5)

    @pytest.mark.parametrize("lam,p,alpha,verdict", CRITERION_CASES, ids=_case_ids(CRITERION_CASES))
    def test_symbolic_verdicts(self, lam, p, alpha, verdict):
        rep = criterion_partial_sums(lam, p, alpha, 2)
        assert rep.symbolic_verdict == verdict

    def test_block_zero_covers_one_and_two(self):
        # block n spans 2^n .. 2^(n+1) with both endpoints included
        lam = LambdaSequence.explicit([2.0] + [1000.0] * 10)
        rep = criterion_partial_sums(lam, 2.0, 0.75, 0)
        inner = (1.0 ** 0.25 * 2.0) ** -2.0 + (2.0**0.25 * 1000.0) ** -2.0
        assert rep.partial_sums[0] == pytest.approx(
            inner ** (rep.r_prime / 2.0), rel=1e-13
        )

    def test_power_log_cap_raises_before_any_sum(self, monkeypatch):
        # blocks 22..30 run past the 2^22-term cap; the last one is summed
        # first, so blocks 0..21 never pay for their direct sums
        calls = []
        direct = sequences._direct_block_sum

        def counted(*args):
            calls.append(args)
            return direct(*args)

        monkeypatch.setattr(sequences, "_direct_block_sum", counted)
        with pytest.raises(ValueError, match="^range too long for direct summation of the power_log family$"):
            criterion_partial_sums(LambdaSequence.power_log(0.5, 1.0), 2.0, 0.75, 30)
        assert calls == []
        criterion_partial_sums(LambdaSequence.power_log(0.5, 1.0), 2.0, 0.75, 3)
        assert len(calls) == 4

    def test_short_prefix_names_first_block_past_it(self):
        lam = LambdaSequence.explicit([float(k) for k in range(1, 11)])
        with pytest.raises(ValueError, match="^explicit sequence has 10 terms, but 16 are required$"):
            criterion_partial_sums(lam, 2.0, 0.75, 30)

    def test_invalid_parameters(self):
        lam = LambdaSequence.power(1.0)
        with pytest.raises(ValueError):
            criterion_partial_sums(lam, 1.0, 0.75, 2)
        with pytest.raises(ValueError):
            criterion_partial_sums(lam, 2.0, 0.5, 2)
        with pytest.raises(ValueError):
            criterion_partial_sums(lam, 2.0, 1.0, 2)
        with pytest.raises(ValueError):
            criterion_partial_sums(lam, 2.0, 0.75, -1)


class TestWang:
    def test_block_increments_closed_form(self):
        fam = LambdaSequence.block_power_log(2.0, 0.75)
        rep = wang_partial_sums(fam, 0.75, 10)
        inc = np.diff(rep.partial_sums)
        for m in (2, 5, 9):
            assert inc[m - 1] == pytest.approx(float(m) ** -2.0, rel=1e-12)

    def test_empty_when_no_blocks(self):
        rep = wang_partial_sums(LambdaSequence.power(1.0), 0.75, 0)
        assert rep.partial_sums == ()

    @pytest.mark.parametrize("lam,alpha,verdict", WANG_CASES, ids=_case_ids(WANG_CASES))
    def test_symbolic_verdicts(self, lam, alpha, verdict):
        rep = wang_partial_sums(lam, alpha, 1)
        assert rep.symbolic_verdict == verdict

    def test_exponent_recorded(self):
        # lambda_n^-exponent with exponent = 1/(1-alpha)
        rep = wang_partial_sums(LambdaSequence.power(1.0), 0.75, 1)
        assert rep.exponent == pytest.approx(4.0, rel=1e-12)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            wang_partial_sums(LambdaSequence.power(1.0), 1.0, 1)


class TestMembership:
    def test_power_one_in_both_classes(self):
        rep = membership_report(LambdaSequence.power(1.0), 2.0, 4096)
        assert rep.class_S == "proved"
        assert rep.class_Sq == "proved"

    def test_constant_sequence_refuted(self):
        rep = membership_report(LambdaSequence.power(0.0), 2.0, 64)
        assert rep.class_S == "refuted"

    def test_power_half_s_only(self):
        rep = membership_report(LambdaSequence.power(0.5), 2.0, 64)
        assert rep.class_S == "proved"
        assert rep.class_Sq == "refuted"

    def test_explicit_is_numeric_only(self):
        rep = membership_report(LambdaSequence.explicit([1.0, 2.0, 3.0]), 2.0, 3)
        assert rep.class_S == "undetermined-numeric"
        assert rep.class_Sq == "undetermined-numeric"
        n, s = rep.class_S_partial[-1]
        assert n == 3
        assert s == pytest.approx(1.0 + 0.5 + 1.0 / 3.0, rel=1e-15)

    def test_power_log_edge_cases(self):
        assert membership_report(LambdaSequence.power_log(1.0, 1.0), 2.0, 64).class_S == "proved"
        assert membership_report(LambdaSequence.power_log(1.0, 1.5), 2.0, 64).class_S == "refuted"

    def test_block_family_membership(self):
        # q(1-alpha) = 0.75 < 1: the q-th power sum still diverges
        rep3 = membership_report(LambdaSequence.block_power_log(2.0, 0.75), 3.0, 64)
        assert rep3.class_S == "proved"
        assert rep3.class_Sq == "refuted"
        # boundary q(1-alpha) = 1: block sums become b^-s, so s decides
        rep4 = membership_report(LambdaSequence.block_power_log(2.0, 0.75), 4.0, 64)
        assert rep4.class_Sq == "proved"
        rep4s = membership_report(LambdaSequence.block_power_log(1.0, 0.75), 4.0, 64)
        assert rep4s.class_Sq == "refuted"
        rep5 = membership_report(LambdaSequence.block_power_log(2.0, 0.75), 5.0, 64)
        assert rep5.class_Sq == "proved"
        # q(1-alpha) = 5 * 0.2 = 1 exactly, and q(1-alpha)s = 2 > 1; the
        # doubles give 5 * (1.0 - 0.8) < 1
        rep_edge = membership_report(LambdaSequence.block_power_log(2.0, 0.8), 5.0, 64)
        assert rep_edge.class_Sq == "proved"

    def test_checkpoints_dyadic(self):
        rep = membership_report(LambdaSequence.power(1.0), 2.0, 100)
        ns = [n for n, _ in rep.class_S_partial]
        assert ns == [1, 2, 4, 8, 16, 32, 64, 100]
        direct = float(np.sum(1.0 / np.arange(1.0, 101.0)))
        assert rep.class_S_partial[-1][1] == pytest.approx(direct, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            membership_report(LambdaSequence.power(1.0), 1.0, 8)
        with pytest.raises(ValueError):
            membership_report(LambdaSequence.power(1.0), 2.0, 0)


class TestRegularize:
    def test_spike_closed_form(self):
        beta = regularize_sequence([1.0] + [0.0] * 7, 2.0, 0.5)
        for k, b in enumerate(beta):
            assert b == 2.0 ** (-k / 2.0)

    def test_three_conclusions_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            k = int(rng.integers(1, 30))
            a = rng.uniform(0.0, 1.0, k) * (rng.uniform(0.0, 1.0, k) < 0.7)
            if not np.any(a > 0):
                a[0] = 0.5
            for theta, gamma in ((2.0, 0.5), (1.5, 1.0)):
                beta = np.asarray(regularize_sequence(a, theta, gamma))
                c = theta ** (1 + gamma) / ((theta - 1) * (theta**gamma - 1))
                assert np.all(a <= beta + 1e-15)
                assert beta.sum() <= c * a.sum() * (1 + 1e-12)
                if k > 1:
                    rat = beta[1:] / beta[:-1]
                    assert np.all(rat >= theta**-gamma - 1e-12)
                    assert np.all(rat <= theta + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            regularize_sequence([1.0], 1.0, 0.5)
        with pytest.raises(ValueError):
            regularize_sequence([1.0], 2.0, 0.0)
        with pytest.raises(ValueError):
            regularize_sequence([-1.0], 2.0, 0.5)


class TestHardy:
    NU = tuple(float(2**k) for k in range(11))

    def test_spike_closed_forms(self):
        a = np.zeros(64)
        a[0] = 1.0
        for beta, r in ((0.25, 1.5), (0.5, 2.0), (1.0, 3.0)):
            lhs, rhs = hardy_two_sides(beta, r, a, self.NU)
            assert lhs == pytest.approx(
                sum(2.0 ** (-n * beta) for n in range(11)), rel=1e-13
            )
            assert rhs == pytest.approx(2.0**-beta, rel=1e-13)

    def test_zero_input(self):
        lhs, rhs = hardy_two_sides(0.5, 2.0, np.zeros(16), self.NU)
        assert lhs == 0.0 and rhs == 0.0

    def test_lhs_dominates_rhs_random(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a = rng.exponential(1.0, 64)
            lhs, rhs = hardy_two_sides(
                float(rng.uniform(0.1, 2.0)), float(rng.uniform(1.1, 4.0)), a, self.NU
            )
            assert lhs >= rhs - 1e-12

    @pytest.mark.parametrize(
        "nu",
        [NU, (1.0, 2.5, 7.25, 100.0, 1e6), (1.0,)],
        ids=["dyadic-past-draw", "non-integer", "one-element"],
    )
    def test_rows_equal_one_draw_calls(self, nu):
        rng = np.random.default_rng(5)
        a = rng.exponential(1.0, (40, 64))
        a[0] = 0.0
        for beta, r in ((0.25, 1.5), (0.5, 2.0), (1.0, 3.0), (0.37, 1.13)):
            lhs, rhs = hardy_two_sides(beta, r, a, nu)
            assert lhs.shape == rhs.shape == (40,)
            for t, row in enumerate(a):
                assert (lhs[t], rhs[t]) == hardy_two_sides(beta, r, row, nu)

    def test_validation(self):
        with pytest.raises(ValueError):
            hardy_two_sides(0.0, 2.0, [1.0], self.NU)
        with pytest.raises(ValueError):
            hardy_two_sides(0.5, 1.0, [1.0], self.NU)
        with pytest.raises(ValueError):
            hardy_two_sides(0.5, 2.0, [1.0], (2.0, 4.0))
        with pytest.raises(ValueError):
            hardy_two_sides(0.5, 2.0, [1.0], (1.0, 1.0))
        with pytest.raises(ValueError):
            hardy_two_sides(0.5, 2.0, [1.0], (1.0, float("nan")))
        with pytest.raises(ValueError):
            hardy_two_sides(0.5, 2.0, np.ones((2, 2, 2)), self.NU)

    @pytest.mark.parametrize(
        "a", [[float("nan"), 1.0], [[1.0, 2.0], [1.0, float("nan")]]], ids=["1-D", "2-D"]
    )
    def test_nan_draw_named(self, a):
        with pytest.raises(ValueError, match="^a must be nonnegative$"):
            hardy_two_sides(0.5, 2.0, a, self.NU)


class TestDualExtremizer:
    def test_attains_holder_equality(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            m = int(rng.integers(1, 12))
            x = rng.uniform(0.01, 3.0, m)
            p = float(rng.uniform(1.2, 4.0))
            q = p / (p - 1.0)
            u = dual_extremizer(x, p)
            assert float(np.sum(u**q)) == pytest.approx(1.0, rel=1e-12)
            assert float(np.sum(x * u)) == pytest.approx(
                float(np.sum(x**p) ** (1.0 / p)), rel=1e-12
            )

    def test_basis_vector_fixed(self):
        u = dual_extremizer([0.0, 1.0, 0.0], 2.0)
        assert np.allclose(u, [0.0, 1.0, 0.0])

    def test_flat_vector(self):
        u = dual_extremizer([1.0, 1.0], 2.0)
        assert np.allclose(u, [2.0**-0.5, 2.0**-0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            dual_extremizer([0.0, 0.0], 2.0)
        with pytest.raises(ValueError):
            dual_extremizer([1.0], 1.0)


class TestJson:
    @pytest.mark.parametrize(
        "lam",
        [
            LambdaSequence.power(1.5),
            LambdaSequence.power_log(1.0, -1.0),
            LambdaSequence.block_power_log(2.0, 0.75),
            LambdaSequence.explicit([1.0, 2.5, 7.0]),
        ],
    )
    def test_round_trip(self, lam):
        lam2 = sequence_from_json(sequence_to_json(lam))
        assert lam2.family == lam.family
        n = len(lam) if lam.family == "explicit" else 8
        assert np.allclose(lam2.terms(n), lam.terms(n))

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"family": "power"}',
            '{"family": "nope", "params": {}}',
            '{"family": "explicit", "terms": "x"}',
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            sequence_from_json(text)

    @pytest.mark.parametrize(
        "text,name",
        [
            ('{"family": "power", "params": {}}', "power family is missing parameter 's'"),
            ('{"family": "power_log", "params": {"s": 1}}', "power_log family is missing parameter 't'"),
            ('{"family": "block_power_log", "params": {"s": 1}}',
             "block_power_log family is missing parameter 'alpha'"),
        ],
    )
    def test_missing_parameter_named(self, text, name):
        with pytest.raises(ValueError, match=f"^{name}$"):
            sequence_from_json(text)


class TestEmbeddingExponents:
    def test_floats_equal_the_inline_formulas(self):
        # the expressions each caller wrote out before the rule had one home
        for p in (1.5, 2.0, 2.5, 3.0, 4.0):
            for alpha in (0.6, 0.7, 0.8, 0.9):
                if not 1.0 / p < alpha:
                    continue
                want = (p / (p - 1.0), 1.0 / (alpha - 1.0 / p), 1.0 / (1.0 + 1.0 / p - alpha))
                got = embedding_exponents(p, alpha)
                assert all(type(x) is float for x in got)
                assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_fractions_give_exact_rationals(self):
        got = embedding_exponents(Fraction(3), Fraction(7, 10))
        assert all(type(x) is Fraction for x in got)
        assert got == (Fraction(3, 2), Fraction(30, 11), Fraction(30, 19))
