import decimal
import math
import random
import re
import sys
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
    wang_partial_sums,
    weighted_block_sum,
)

import lambdabv
from lambdabv import sequences
from lambdabv.sequences import _FAMILIES, _SUM_CHUNK

from helpers import (
    hardy_by_loop,
    mp_power_sum,
    one_array_block_sum,
    random_lambda_prefix,
    sequence_to_json,
)


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
        assert len(lam.explicit_terms) == 3
        assert lam.terms(2)[1] == 2.0
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

    def test_explicit_copies_a_writable_array(self):
        terms = np.array([1.0, 2.0, 4.0])
        lam = LambdaSequence.explicit(terms)
        terms[0] = 1.5
        assert lam.explicit_terms.tolist() == [1.0, 2.0, 4.0]
        assert not lam.explicit_terms.flags.writeable
        # a read-only view of a writable array is copied too
        view = terms[:]
        view.setflags(write=False)
        lam = LambdaSequence.explicit(view)
        terms[0] = 1.0
        assert lam.explicit_terms.tolist() == [1.5, 2.0, 4.0]

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
        for method in (lam.terms, lam.require):
            for n in (2.5, 2.0, np.float64(3.0)):
                with pytest.raises(TypeError, match="n must be an integer"):
                    method(n)
        assert np.array_equal(lam.terms(np.int64(3)), lam.terms(3))
        assert np.array_equal(lam.terms(np.int32(3)), lam.terms(3))

    def test_power_terms(self):
        lam = LambdaSequence.power(0.5)
        assert lam.terms(4)[3] == 2.0
        assert np.allclose(lam.terms(9), np.arange(1.0, 10.0) ** 0.5)

    def test_power_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            LambdaSequence.power(-0.1)

    def test_power_log_terms(self):
        lam = LambdaSequence.power_log(1.0, 1.0)
        assert lam.terms(1)[0] == pytest.approx(math.log(2.0), rel=1e-15)
        assert lam.terms(7)[6] == pytest.approx(7.0 * math.log(8.0), rel=1e-15)

    def test_power_log_rejects_decreasing_start(self):
        # n^0.1 log(n+1)^-1 decreases across the first step
        with pytest.raises(ValueError):
            LambdaSequence.power_log(0.1, -1.0)
        LambdaSequence.power_log(1.0, -1.0)

    def test_block_family_shares_first_block(self):
        lam = LambdaSequence.block_power_log(2.0, 0.75)
        t = lam.terms(4)
        assert t[0] == t[1] == t[2] < t[3]
        # the block of 2^m - 1 is m - 1 up to 2^53; the family's evaluator
        # takes these indices without a 2^53-term prefix
        terms = _FAMILIES[lam.family].terms
        for m in range(2, 54):
            below, start, top = terms(lam, np.array([2.0**m - 1, 2.0 ** (m - 1), 2.0**m]))
            assert below == start < top

    def test_block_family_terms_are_the_block_sums_weights(self):
        # one libm weight per dyadic block, which the block sums read too;
        # numpy's vectorized power differed from it in the last bit
        rng = np.random.default_rng(3401)
        for _ in range(3600):
            lam = LambdaSequence.block_power_log(rng.uniform(-1.0, 5.0), rng.uniform(0.01, 0.99))
            k = max(1, 2 ** int(rng.integers(1, 14)) + int(rng.integers(-1, 2)))
            assert weighted_block_sum(lam, 0.0, -1.0, [(k, k)]) == [lam.terms(k)[-1]], (lam, k)

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
        # -0.0 is 0.0, in a parameter and in one the family does not have
        for c in (LambdaSequence.power(-0.0), LambdaSequence("power", s=0.0, t=-0.0)):
            assert c == LambdaSequence.power(0.0) and hash(c) == hash(LambdaSequence.power(0.0))
        f = lambdabv.make_plpf([(0.0, 1.0), (0.5, 2.0), (0.75, 4.0)])
        assert a != f and f != a and a != a.explicit_terms.tolist()

    def test_describe_mentions_family(self):
        assert "power" in LambdaSequence.power(1.0).describe()
        assert "explicit" in LambdaSequence.explicit([1.0]).describe()

    @pytest.mark.parametrize("family, params, foreign", [
        (family, params, foreign)
        for family, params in (("power", {"s": 1.0}), ("power_log", {"s": 1.0, "t": 1.0}),
                               ("block_power_log", {"s": 1.0, "alpha": 0.5}),
                               ("explicit", {"explicit_terms": [1.0, 2.0]}))
        for foreign in ("s", "t", "alpha", "explicit_terms")
        if foreign not in params and not (family == "explicit" and foreign == "explicit_terms")
    ])
    def test_foreign_parameter_rejected(self, family, params, foreign):
        # power with t = 5 used to load, equal power(1) and describe itself as power(s=1)
        value = [5.0, 6.0] if foreign == "explicit_terms" else 5.0
        with pytest.raises(ValueError, match=f"^{family} family has no parameter '{foreign}'$"):
            LambdaSequence(family, **params, **{foreign: value})
        # a zero foreign field is the default, so it is no parameter of any kind
        if foreign != "explicit_terms":
            assert LambdaSequence(family, **params, **{foreign: 0.0}) == LambdaSequence(family, **params)


FOUR_FAMILIES = [
    LambdaSequence.power(0.5),
    LambdaSequence.power_log(0.7, 1.3),
    LambdaSequence.block_power_log(1.0, 0.75),
    LambdaSequence.explicit(np.arange(1.0, 9000.0)),
]


_TENT = lambdabv.make_plpf([(0.0, 0.0), (0.5, 1.0)])
_LAM_N = LambdaSequence.power(1.0)


@pytest.mark.parametrize("call, name", [
    (lambda: lambdabv.WitnessSpec(_LAM_N, 2.0, 0.75, 2.0), "levels"),
    (lambda: lambdabv.p_cont_ratio_norm(_TENT, 2.0, 0.75, 6.0), "dyadic_depth"),
    (lambda: lambdabv.lip_norm(_TENT, 2.0, 0.75, 2.5), "dyadic_depth"),
    (lambda: criterion_partial_sums(_LAM_N, 2.0, 0.75, 2.5), "n_blocks"),
    (lambda: wang_partial_sums(_LAM_N, 0.5, 3.0), "n_blocks"),
    (lambda: membership_report(_LAM_N, 2.0, 10.5), "n_terms"),
    (lambda: lambdabv.embedding_bound_check(_TENT, _LAM_N, 2.0, 0.75, 10.0), "n_blocks"),
], ids=["levels", "p_cont_depth", "lip_depth", "criterion", "wang", "membership", "bound_check"])
def test_integer_arguments_named(call, name):
    # a float count used to fail as the wrong argument, or with no name at all
    with pytest.raises(TypeError, match=f"^{name} must be an integer, not float$"):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: lambdabv.make_plpf([0.0, 1.0]), ValueError, "points must be (position, value) pairs"),
    (lambda: _LAM_N.terms(-1), ValueError, "n must be nonnegative"),
    (lambda: wang_partial_sums(_LAM_N, 0.5, -1), ValueError, "n_blocks must be nonnegative"),
    (lambda: regularize_sequence([], 2.0, 1.0), ValueError, "input must be a nonempty sequence"),
    (lambda: regularize_sequence([0.0, 0.0], 2.0, 1.0), ValueError, "input must have a positive term"),
    (lambda: hardy_two_sides(1.0, 2.0, np.ones((1, 4)), []), ValueError,
     "nu must be a nonempty sequence"),
    (lambda: dual_extremizer([1.0, -1.0], 2.0), ValueError,
     "input terms must be nonnegative and finite"),
    (lambda: lambdabv.lambda_variation(_TENT, [1.0, 2.0]), TypeError, "lam must be a LambdaSequence"),
    (lambda: lambdabv.lip_norm(_TENT, 1.0, 0.5, 2), ValueError, "p must satisfy p > 1"),
    (lambda: lambdabv.lip_norm(_TENT, 2.0, 0.0, 2), ValueError, "alpha must lie in (0, 1]"),
    (lambda: lambdabv.p_cont_ratio_norm(_TENT, 1.0, 0.5, 2), ValueError, "p must satisfy p > 1"),
], ids=["plpf_pairs", "terms", "wang_blocks", "regularize_empty", "regularize_zeros",
        "hardy_nu", "dual_negative", "lambda_type", "lip_p", "lip_alpha", "p_cont_p"])
def test_rejections_named(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_sequence_never_equals_a_number():
    assert (_LAM_N == 1) is False


class TestWeightedBlockSum:
    @pytest.mark.parametrize("lo, hi, name", [(2.5, 10, "lo"), (2, 10.7, "hi"), (2.0, 10, "lo"),
                                              (2, np.float64(10.0), "hi")])
    def test_bounds_must_be_integers(self, lo, hi, name):
        # lo = 2.5 used to sum over k = 2.5, 3.5, ..., and hi = 10.7 up to 11
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            weighted_block_sum(LambdaSequence.power(1.0), 1.0, 1.0, [(lo, hi)])

    @pytest.mark.parametrize("lam", FOUR_FAMILIES, ids=lambda lam: lam.family)
    @pytest.mark.parametrize("lo, hi", [(2, 10), (4096, 8191), (3, 8999)])
    def test_numpy_integer_bounds(self, lam, lo, hi):
        for kind in (np.int64, np.int32, np.uint64):
            assert (weighted_block_sum(lam, 0.3, 1.5, [(kind(lo), kind(hi))])
                    == weighted_block_sum(lam, 0.3, 1.5, [(lo, hi)]))

    @pytest.mark.parametrize("lam", FOUR_FAMILIES, ids=lambda lam: lam.family)
    @pytest.mark.parametrize("lo", [1, 2, 4097, 2**40])
    def test_empty_range_is_zero(self, lam, lo):
        # every block goes to the family unfiltered, and each family sums an
        # empty one to +0.0 itself
        block_sum = _FAMILIES[lam.family].block_sum
        for got in (weighted_block_sum(lam, 0.3, 1.5, [(lo, lo - 1)]),
                    block_sum(lam, 0.3, 1.5, [(lo, lo - 1)]), block_sum(lam, 0.3, 1.5, [(lo, lo - 9)])):
            assert got == [0.0] and math.copysign(1.0, got[0]) == 1.0
        mixed = weighted_block_sum(lam, 0.3, 1.5, [(2, 10), (lo, lo - 1), (3, 5000)])
        assert mixed == [*weighted_block_sum(lam, 0.3, 1.5, [(2, 10)]), 0.0,
                         *weighted_block_sum(lam, 0.3, 1.5, [(3, 5000)])]

    def test_power_matches_direct_small(self):
        lam = LambdaSequence.power(0.5)
        got = weighted_block_sum(lam, 0.25, 2.0, [(3, 17)])[0]
        k = np.arange(3.0, 18.0)
        assert got == pytest.approx(float(np.sum(k**-0.25 * k**-1.0)), rel=1e-14)

    def test_power_zeta_path_matches_direct(self):
        # ranges above the direct-summation cutoff go through the 40-digit
        # Euler-Maclaurin sum; here it meets a float sum of every term
        lam = LambdaSequence.power(0.5)
        lo, hi = 2, 100_000
        got = weighted_block_sum(lam, 0.3, 2.0, [(lo, hi)])[0]
        k = np.arange(float(lo), float(hi) + 1.0)
        want = float(np.sum(k**-0.3 * (k**0.5) ** -2.0))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "c", [0.0, 0.5, 0.9999999999999999, 1.0, 1.0 + 1e-13, 1.3, 2.0, 6.0, 40.0, 1e4, 1e6]
    )
    @pytest.mark.parametrize(
        "lo, hi",
        [(1, 4097), (2, 100_000), (4096, 8192), (4097, 2**20), (2**30, 2**31),
         (2**100, 2**101), (2**1022, 2**1023),
         # the criterion's blocks, the Wang and S-norm blocks and the
         # membership blocks, each series in one call; [2^12, 2^13 - 1] and
         # [2^12 + 1, 2^13] have 4,096 terms, a direct float sum
         pytest.param([2**n for n in range(12, 32)], [2 ** (n + 1) for n in range(12, 32)], id="dyadic-closed"),
         pytest.param([2**n for n in range(13, 32)], [2 ** (n + 1) - 1 for n in range(13, 32)], id="dyadic-open"),
         pytest.param([2**n + 1 for n in range(13, 32)], [2 ** (n + 1) for n in range(13, 32)], id="dyadic-upper")],
    )
    def test_long_power_sum_is_the_rounded_reference(self, c, lo, hi):
        # the Euler-Maclaurin sum and its head, for every c: the closest
        # double to the 60-digit zeta difference, with no fallback near c = 1
        blocks = list(zip(lo, hi)) if isinstance(lo, list) else [(lo, hi)]
        got = weighted_block_sum(LambdaSequence.power(0.0), c, 1.0, blocks)
        assert got == [mp_power_sum(c, a, b) for a, b in blocks]

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lo", [2**100, 2**200, 2**1000])
    def test_long_power_sum_far_out(self, c, lo):
        # hi/lo rounds to 1 at 40 digits from lo ~ 2^120 on, so a log of that
        # rounded ratio put the integral at 0 and the sum at about lo^-c;
        # the reference is every term at 50 digits
        hi = lo + 5000
        with mpmath.workdps(50):
            want = float(mpmath.fsum(mpmath.mpf(k) ** -c for k in range(lo, hi + 1)))
        assert weighted_block_sum(LambdaSequence.power(0.0), c, 1.0, [(lo, hi)]) == [want]

    @pytest.mark.parametrize("kind", ["c=1", "|c-1|<1e-9", "c<0", "c>0"])
    def test_long_power_sum_random_draws(self, kind):
        # 500 (c, block) draws a kind, 10 blocks to an exponent in one call,
        # each the double nearest to the 60-digit reference: dyadic blocks
        # with and without their top end, heads from k < |c| + 32, other
        # ratios, some near 1 (40 digits of log r and of expm1), and bounds
        # past the largest double
        rng = random.Random(f"power sums {kind}")
        exponent = {"c=1": lambda: 1.0, "|c-1|<1e-9": lambda: 1.0 + rng.choice([-1, 1]) * 10 ** rng.uniform(-16, -9),
                    "c<0": lambda: rng.uniform(-6.0, 0.0), "c>0": lambda: rng.uniform(0.0, 8.0)}[kind]
        for i in range(50):
            c = exponent()
            n = [rng.randint(13, 60) for _ in range(5)]
            blocks = [(2**m, 2 ** (m + 1) - rng.randint(0, 1)) for m in n]
            heads = [rng.randint(1, int(abs(c)) + 31) for _ in range(1 if i % 4 == 0 else 2)]
            blocks += [(lo, lo + rng.randint(4097, 10**6)) for lo in heads]
            others = [rng.randint(4097, 10**12) for _ in range(2)]
            blocks += [(lo, lo + rng.randint(4097, 10**6)) for lo in others]
            if i % 4 == 0:  # a ratio within 1e-7 of 1 and a block past the largest double
                lo, far = rng.randint(2**40, 2**200), rng.randint(2**1024, 2**1100)
                blocks += [(lo, lo + rng.randint(4097, 10**5)),
                           (far, rng.choice([2 * far - 1, 2 * far, far + rng.randint(4097, 10**4)]))]
            else:
                lo = rng.randint(4097, 10**12)
                blocks.append((lo, 2 * lo + rng.randint(-1000, 1000)))
            assert len(blocks) == 10
            got = weighted_block_sum(LambdaSequence.power(0.0), c, 1.0, blocks)
            assert got == [mp_power_sum(c, lo, hi) for lo, hi in blocks], c

    def test_a_subnormal_sum_is_rounded_once(self):
        # float() of an mpf rounds to 53 bits and then to the bits a subnormal
        # keeps, here one ulp off; the pass and the reference round once
        c, lo, hi = 46.31116894917245, 5748475, 5986533
        with mpmath.workdps(80):
            exact = mpmath.zeta(c, lo) - mpmath.zeta(c, hi + 1)
        assert float(exact) == 9.66813881662785e-309
        got = weighted_block_sum(LambdaSequence.power(0.0), c, 1.0, [(lo, hi)])
        assert got == [mp_power_sum(c, lo, hi)] == [9.668138816627843e-309]

    def test_long_power_sums_keep_their_own_decimal_context(self):
        # the pass builds a fresh 40-digit context: a caller's 5 digits, small
        # Emax and Emin, and trapped Inexact, Underflow and FloatOperation
        # change no double, also where a sum reaches inf
        blocks = [(2**n, 2 ** (n + 1)) for n in range(12, 31)]
        blocks += [(2**20, 2**21 - 1), (3, 10**6), (10**12, 10**12 + 5000), (2**1030, 2**1031 - 1)]
        exponents = [1.0, 1.5, 1.0 + 1e-12, -2.0, -40.0, 300.0]
        lam = LambdaSequence.power(0.0)
        want = [weighted_block_sum(lam, c, 1.0, blocks) for c in exponents]
        assert math.isinf(want[4][-1]) and want[5][-1] == 0.0
        assert sequences._em_power_sums(-1e17, [(2**57, 2**58 - 1)]) == [math.inf]
        sequences._ln.cache_clear()
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax, ctx.Emin = 5, 10, -10
            for signal in (decimal.Inexact, decimal.Underflow, decimal.FloatOperation):
                ctx.traps[signal] = True
            assert [weighted_block_sum(lam, c, 1.0, blocks) for c in exponents] == want
            assert sequences._em_power_sums(-1e17, [(2**57, 2**58 - 1)]) == [math.inf]
            assert decimal.getcontext().prec == 5 and not any(ctx.flags.values())

    def test_em_weights_are_bernoulli_numbers_over_factorials(self):
        # B_2j / (2j)! exactly, as mpmath's Bernoulli numbers give it
        for j in range(1, 33):
            weight = sequences._em_weight(j)
            assert weight == Fraction(*mpmath.bernfrac(2 * j)) / math.factorial(2 * j)
            with mpmath.workdps(50):
                want = mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                assert abs(mpmath.mpf(weight.numerator) / weight.denominator - want) <= 1e-48 * abs(want)

    def test_bounds_past_the_largest_double(self, monkeypatch):
        # np.arange raises OverflowError on an index that rounds past the
        # largest double: power and block_power_log sum such blocks at 40
        # digits, power_log rejects them before any sum, and short blocks up
        # to the largest double keep their term-by-term sums
        long, em_power_sums = [], sequences._em_power_sums

        def recorded(c, blocks):
            long.extend(blocks)
            return em_power_sums(c, blocks)

        monkeypatch.setattr(sequences, "_em_power_sums", recorded)
        top, far = int(sys.float_info.max), 2**1100
        blocks = [(2**1023, 2**1023 + 7), (top - 3, top), (top + 1, top + 1), (far, far + 5)]
        with mpmath.workdps(50):
            want = [float(mpmath.fsum(mpmath.mpf(k) ** -0.001 for k in range(lo, hi + 1))) for lo, hi in blocks[2:]]
        lam = LambdaSequence.power(0.0)
        direct = [one_array_block_sum(lam, 0.001, 1.0, lo, hi) for lo, hi in blocks[:2]]
        assert weighted_block_sum(lam, 0.001, 1.0, blocks) == direct + want
        # at an infinite exponent only k = 1 and one k >= 2 are summed, never at 40 digits
        infinite = [(far, far + 5), (far, 5), (1, far), (3, 3), (3, 2)]
        assert weighted_block_sum(lam, math.inf, 1.0, infinite) == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert weighted_block_sum(lam, -math.inf, 1.0, infinite) == [math.inf, 0.0, math.inf, math.inf, 0.0]
        assert long == blocks[2:]
        assert weighted_block_sum(LambdaSequence.power(1.0), 0.0, 1.0, [(far, far)]) == [0.0]
        long.clear()
        lam = LambdaSequence.block_power_log(1.0, 0.5)
        # past the double range, lambda_k^2 overflows to inf, not OverflowError
        assert weighted_block_sum(lam, -2.0, -2.0, blocks[3:]) == [math.inf]
        assert long == blocks[3:]
        lam = LambdaSequence.power_log(0.0, 1.0)
        assert weighted_block_sum(lam, 0.001, 1.0, blocks[:2]) == [
            one_array_block_sum(lam, 0.001, 1.0, lo, hi) for lo, hi in blocks[:2]]
        for block in blocks[2:]:
            with pytest.raises(ValueError, match="^block bound past the largest double in the power_log family$"):
                weighted_block_sum(lam, 0.001, 1.0, [(1, 2), block])

    @pytest.mark.parametrize("lam", FOUR_FAMILIES, ids=lambda lam: lam.family)
    def test_an_empty_block_far_out_sums_to_zero(self, lam):
        # np.arange(lo, hi + 1) cannot span an empty range that starts at 2^64
        assert weighted_block_sum(lam, 0.3, 1.5, [(2**64, 5), (2**1100, 2**70), (3, 2)]) == [0.0] * 3

    @pytest.mark.parametrize("k_exp, lam_exp", [(0.3, 1.5), (40.0, 1.0)])
    @pytest.mark.parametrize("lam", FOUR_FAMILIES, ids=lambda lam: lam.family)
    def test_series_call_is_the_per_block_calls(self, lam, k_exp, lam_exp):
        # dyadic blocks with both ends, without the top one and without the
        # bottom one, empty blocks, long blocks whose head is summed term by
        # term (from k = 1 and 3), and ranges of 4,096 and 4,097 terms; every
        # sum is == its own call
        top = 8999 if lam.family == "explicit" else 2**16
        dyadic = [2**n for n in range(16) if 2 ** (n + 1) <= top]
        lo = dyadic * 2 + [a + 1 for a in dyadic] + [5, 10**6, 1, 3, 100, 100, 1000]
        hi = [2 * a for a in dyadic] + [2 * a - 1 for a in dyadic] + [2 * a for a in dyadic]
        hi += [4, 3, 5000, 6000, 4195, 4196, top]
        want = [weighted_block_sum(lam, k_exp, lam_exp, [(a, b)])[0] for a, b in zip(lo, hi)]
        assert want[len(dyadic) * 3: len(dyadic) * 3 + 2] == [0.0, 0.0]
        assert weighted_block_sum(lam, k_exp, lam_exp, list(zip(lo, hi))) == want
        assert weighted_block_sum(lam, k_exp, lam_exp, np.array([lo, hi]).T) == want
        assert weighted_block_sum(lam, k_exp, lam_exp, []) == []

    @pytest.mark.parametrize("lo, hi, bad, error, message", [
        ([1, 0], [2, 5], 1, ValueError, "^block bounds start at 1$"),
        ([1, 2.0], [2, 5], 1, TypeError, "^lo must be an integer, not float$"),
        ([1, 2], [2, np.float64(5.0)], 1, TypeError, "^hi must be an integer, not float64$"),
        ([1, 2, 4, 8], [2, 4, 20, 30], 2, ValueError, "^explicit sequence has 10 terms, but 20 are required$"),
    ])
    def test_series_checks_every_block_before_any_sum(self, monkeypatch, lo, hi, bad, error, message):
        # the first bad block raises what its own call raises, and no block
        # before it has been summed
        lam = LambdaSequence.explicit(np.arange(1.0, 11.0))
        with pytest.raises(error, match=message):
            weighted_block_sum(lam, 0.3, 1.5, [(lo[bad], hi[bad])])
        calls = []
        monkeypatch.setattr(sequences, "_direct_block_sum", lambda *args: calls.append(args))
        with pytest.raises(error, match=message):
            weighted_block_sum(lam, 0.3, 1.5, list(zip(lo, hi)))
        assert calls == []

    @pytest.mark.parametrize("blocks, error", [
        ([(1, 2), (3, 4, 5)], ValueError), ([(1, 2), (3,)], ValueError), ([(1, 2), 3], TypeError),
        ((1, 2), TypeError),  # one block not in a list
    ])
    def test_blocks_must_be_pairs(self, monkeypatch, blocks, error):
        calls = []
        monkeypatch.setattr(sequences, "_power_block_sums", lambda *args: calls.append(args))
        with pytest.raises(error):
            weighted_block_sum(LambdaSequence.power(1.0), 1.0, 1.0, blocks)
        assert calls == []

    def test_harmonic_special_case(self):
        lam = LambdaSequence.power(1.0)
        lo, hi = 5, 200_000
        got = weighted_block_sum(lam, 0.0, 1.0, [(lo, hi)])[0]
        want = float(mpmath.harmonic(hi) - mpmath.harmonic(lo - 1))
        assert got == pytest.approx(want, rel=1e-13)

    def test_explicit_direct(self):
        lam = LambdaSequence.explicit([1.0, 2.0, 3.0, 4.0])
        got = weighted_block_sum(lam, 1.0, 1.0, [(2, 4)])[0]
        assert got == pytest.approx(1.0 / (2.0 * 2.0) + 1.0 / (3.0 * 3.0) + 1.0 / (4.0 * 4.0), rel=1e-15)

    def test_power_log_range_cap(self):
        lam = LambdaSequence.power_log(1.0, 1.0)
        with pytest.raises(ValueError):
            weighted_block_sum(lam, 0.0, 1.0, [(1, 1 << 23)])

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
        got = weighted_block_sum(lam, 1.1, 0.6, [(lo, hi)])[0]
        assert got == one_array_block_sum(lam, 1.1, 0.6, lo, hi)

    def test_long_direct_sum_memory(self):
        # 2^21 + 1 terms are 16 MB a float array; the chunks keep every
        # temporary at _SUM_CHUNK terms
        lam = LambdaSequence.power_log(0.5, 1.0)
        tracemalloc.start()
        try:
            weighted_block_sum(lam, 1.2, 0.7, [(2**21, 2**22)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_block_family_blockwise_closed_form(self):
        # inside one lambda-block the weight is constant
        lam = LambdaSequence.block_power_log(2.0, 0.75)
        got = weighted_block_sum(lam, 0.0, 1.0, [(4, 7)])[0]
        assert got == pytest.approx(4.0 / lam.terms(4)[3], rel=1e-13)


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
            lhs, rhs = hardy_two_sides(beta, r, a[None], self.NU)
            assert lhs[0] == pytest.approx(
                sum(2.0 ** (-n * beta) for n in range(11)), rel=1e-13
            )
            assert rhs[0] == pytest.approx(2.0**-beta, rel=1e-13)

    def test_zero_input(self):
        lhs, rhs = hardy_two_sides(0.5, 2.0, np.zeros((1, 16)), self.NU)
        assert lhs[0] == 0.0 and rhs[0] == 0.0

    def test_lhs_dominates_rhs_random(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a = rng.exponential(1.0, 64)
            lhs, rhs = hardy_two_sides(
                float(rng.uniform(0.1, 2.0)), float(rng.uniform(1.1, 4.0)), a[None], self.NU
            )
            assert lhs[0] >= rhs[0] - 1e-12

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
                one_lhs, one_rhs = hardy_two_sides(beta, r, row[None], nu)
                assert (lhs[t], rhs[t]) == (one_lhs[0], one_rhs[0])

    @pytest.mark.parametrize(
        "nu",
        [NU, (1.0, 2.5, 7.25, 100.0, 1e6), (1.0,), (1.0, 3.0, 5.0, 9.0, 17.0, 40.0)],
        ids=["dyadic-past-draw", "non-integer", "one-element", "within-draw"],
    )
    def test_equals_loop_reference(self, nu):
        # bit for bit: Python's pow, and each side added from left to right
        rng = np.random.default_rng(27)
        a = rng.exponential(1.0, (60, 48))
        a[:3] = 0.0
        a[3, ::2] = 0.0
        for beta, r in ((0.25, 1.5), (0.5, 2.0), (1.0, 3.0), (0.37, 1.13), (2.5, 7.0)):
            lhs, rhs = hardy_two_sides(beta, r, a, nu)
            ref_lhs, ref_rhs = hardy_by_loop(beta, r, a, nu)
            assert lhs.tolist() == ref_lhs.tolist()
            assert rhs.tolist() == ref_rhs.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            hardy_two_sides(0.0, 2.0, [[1.0]], self.NU)
        with pytest.raises(ValueError):
            hardy_two_sides(0.5, 1.0, [[1.0]], self.NU)
        with pytest.raises(ValueError):
            hardy_two_sides(0.5, 2.0, [[1.0]], (2.0, 4.0))
        with pytest.raises(ValueError):
            hardy_two_sides(0.5, 2.0, [[1.0]], (1.0, 1.0))
        with pytest.raises(ValueError):
            hardy_two_sides(0.5, 2.0, [[1.0]], (1.0, float("nan")))
        for a in ([1.0], np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="^a must be a 2-D array of draws$"):
                hardy_two_sides(0.5, 2.0, a, self.NU)

    @pytest.mark.parametrize(
        "a", [[[float("nan"), 1.0]], [[1.0, 2.0], [1.0, float("nan")]]], ids=["one-row", "two-rows"]
    )
    def test_nan_draw_named(self, a):
        with pytest.raises(ValueError, match="^a must be nonnegative$"):
            hardy_two_sides(0.5, 2.0, a, self.NU)

    @pytest.mark.parametrize(
        "a", [[[math.inf, 1.0]], [[1.0, 2.0], [1.0, math.inf]]], ids=["one-row", "two-rows"]
    )
    def test_infinite_draw_named(self, a):
        # an infinite draw passed the sign check and gave inf sides
        with pytest.raises(ValueError, match="^a must be finite$"):
            hardy_two_sides(0.5, 2.0, a, self.NU)
        with pytest.raises(ValueError, match="^a must be nonnegative$"):
            hardy_two_sides(0.5, 2.0, -np.asarray(a), self.NU)


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
        with pytest.raises(ValueError, match="^input must not be all zero$"):
            dual_extremizer([0.0, 0.0], 2.0)
        with pytest.raises(ValueError):
            dual_extremizer([1.0], 1.0)
        # positive terms whose l^p norm underflows are not all zero
        with pytest.raises(ValueError, match=r"^the l\^2308 norm of the input underflows to 0$"):
            dual_extremizer([0.42, 0.17], 2308.0)


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
        n = len(lam.explicit_terms) if lam.family == "explicit" else 8
        assert np.allclose(lam2.terms(n), lam.terms(n))

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"family": "power"}',
            '{"family": "nope", "params": {}}',
            '{"family": "explicit", "terms": "x"}',
            # strings, booleans and integers past the double range used to
            # load as numbers or raise OverflowError
            '{"family": "explicit", "terms": [1, "2"]}',
            '{"family": "explicit", "terms": [1, true]}',
            '{"family": "explicit", "terms": [1, 1%s]}' % ("0" * 400),
            '{"family": "power", "params": {"s": 1%s}}' % ("0" * 400),
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
            # a name the family lacks used to be dropped without a word
            ('{"family": "power", "params": {"s": 1, "t": 5}}', "power family has no parameter 't'"),
            ('{"family": "power_log", "params": {"s": 1, "t": 2, "alpha": 0.5}}',
             "power_log family has no parameter 'alpha'"),
            ('{"family": "block_power_log", "params": {"s": 1, "alpha": 0.5, "t": 0}}',
             "block_power_log family has no parameter 't'"),
            # so was a top-level key the format lacks: power(1) dropped the terms
            ('{"family": "power", "params": {"s": 1}, "terms": [5, 6]}',
             "power sequence JSON has no key 'terms'"),
            ('{"family": "block_power_log", "params": {"s": 1, "alpha": 0.5}, "extra": 1}',
             "block_power_log sequence JSON has no key 'extra'"),
            ('{"family": "explicit", "terms": [1, 2], "params": {}}',
             "explicit sequence JSON has no key 'params'"),
            ('{"terms": [1], "family": "explicit", "s": 2}', "explicit sequence JSON has no key 's'"),
            # these loaded as power(1.5), power(1) and power_log(1, 0)
            ('{"family": "power", "params": {"s": "1.5"}}', "power family parameter 's' must be a number"),
            ('{"family": "power", "params": {"s": true}}', "power family parameter 's' must be a number"),
            ('{"family": "power_log", "params": {"s": 1, "t": false}}',
             "power_log family parameter 't' must be a number"),
            ('{"family": "block_power_log", "params": {"s": null, "alpha": 0.5}}',
             "block_power_log family parameter 's' must be a number"),
            ('{"family": "explicit", "terms": [1, true]}', 'explicit sequences need a "terms" list of numbers'),
            ('{"family": "power", "params": {"s": 1%s}}' % ("0" * 400), "parameter s must be finite"),
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

    def test_floats_are_read_as_written_and_fractions_as_given(self):
        # alpha is above 1.0/p as a double and below 1/p as the decimals
        # written; the doubles' exact values, as Fractions that hash like the
        # floats, still satisfy 1/p < alpha, in either order of the calls
        p, alpha = 16.876, 0.05925574780753733
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^alpha must lie in \(1/p, 1\)$"):
                embedding_exponents(p, alpha)
            assert embedding_exponents(Fraction(p), Fraction(alpha))[2] > 1
