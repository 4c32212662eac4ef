"""Weight-sequence machinery: named nondecreasing families and explicit
prefixes, membership diagnostics for the divergent-sum classes, the embedding
criterion series over dyadic blocks, the 1/(1-alpha)-power necessary
condition, max-convolution regularization, a dyadic two-sided partial-sum
comparison, and the l^p duality extremizer."""

from __future__ import annotations

import decimal
import functools
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .periodic import _ValueEquality, _frozen

__all__ = [
    "LambdaSequence",
    "MembershipReport",
    "CriterionReport",
    "WangReport",
    "membership_report",
    "regularize_sequence",
    "embedding_exponents",
    "criterion_partial_sums",
    "wang_partial_sums",
    "hardy_two_sides",
    "dual_extremizer",
    "weighted_block_sum",
    "sequence_from_json",
]

# ranges at most this long are summed term by term in floats; longer power
# sums go through a 40-digit Euler-Maclaurin sum
_DIRECT_SUM_LIMIT = 4096
_POWER_LOG_LIMIT = 1 << 22
# longer direct sums run in parts of at most this many terms (256 KB a temporary)
_SUM_CHUNK = 1 << 15
# the 40-digit pass's own context, whatever the caller's: a sum past MAX_EMAX reads inf
_CONTEXT = decimal.Context(prec=40, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX, traps=[decimal.InvalidOperation])


@functools.cache
def _em_weight(j: int) -> Fraction:
    """B_2j / (2j)! exactly: sum_{k<=n} B_k/(k! (n+1-k)!) = 0 (n >= 1), B_1 = -1/2, 0 = B_3 = B_5..."""
    return Fraction(2 * j - 1, 2 * math.factorial(2 * j + 1)) - sum(
        _em_weight(i) / math.factorial(2 * (j - i) + 1) for i in range(1, j))


@functools.lru_cache(maxsize=1024)
def _ln(k: int) -> decimal.Decimal:
    """ln k at 40 digits, kept across calls; below 2^16, ln p + ln(k/p) for k's least prime factor p."""
    p = next((p for p in range(2, math.isqrt(k) + 1) if k % p == 0), k) if k < 1 << 16 else k
    with decimal.localcontext(_CONTEXT):
        return decimal.Decimal(k).ln() if p == k else _ln(p) + _ln(k // p)


def _power_block_sums(c: float, blocks) -> list[float]:
    """sum_{k=lo}^{hi} k^-c for each block (lo, hi), +0.0 if empty: term by
    term in floats up to _DIRECT_SUM_LIMIT terms below the largest double,
    the other blocks together in one 40-digit _em_power_sums call."""
    if not math.isfinite(c):  # k^-c is 0 or inf for every k >= 2, so a block may start at 2
        blocks = [(min(lo, 2), min(lo, 2) + min(hi - lo, 1)) for lo, hi in blocks]
    direct = [hi - lo + 1 <= _DIRECT_SUM_LIMIT and hi <= sys.float_info.max for lo, hi in blocks]
    long = iter(_em_power_sums(c, [block for block, short in zip(blocks, direct) if not short]))
    return [float(np.sum(np.arange(lo, hi + 1, dtype=float) ** -c)) if short else next(long)
            for (lo, hi), short in zip(blocks, direct)]


def _em_power_sums(c: float, blocks) -> list[float]:
    """sum_{k=lo}^{hi} k^-c for each block (lo, hi), at 40 significant digits
    in decimal: a head below |c| + 32 term by term, then an Euler-Maclaurin
    sum for f(x) = x^-c over the rest [a, b].  With r = b/a that sum is a^-c
    times a F(r) + (1 + r^-c)/2 + sum_j L_j(r) a^(1-2j): the integral, with
    F(r) = expm1((1-c) log r)/(1-c) (log r at c = 1), the trapezoid ends, and
    the derivative terms, L_j(r) = B_2j/(2j)! c(c+1)...(c+2j-2) (1 - r^(1-c-2j)).

    f^(2m) keeps one sign on (0, inf), so the remainder after m - 1 terms is
    at most twice the m-th (DLMF 2.10.3); terms go in until that bound is
    below 1e-36 of the sum.  Term j + 1 is at most ((|c| + 2j)/(2 pi a))^2
    of term j, so from a >= |c| + 32 on, 32 terms always suffice.  For c > 1
    the head stops once the rest, at most a^-c (1 + a/(c - 1)), is that small.

    The blocks of one call share F(r), r^-c and the L_j(r) per reduced ratio,
    and a^-c per a: (2^-c)^n, one integer power, at a = 2^n, else e^(-c ln a).
    log r and expm1 carry the digits that r - 1 and 1 - c cancel.  A block
    [a, 2a - 1] from a >= |c| + 32 on is [a, 2a] less its end term, so every
    dyadic block has r = 2 and at most one digit cancels.  Each double is the
    nearest to the 60-digit reference (test_long_power_sum_random_draws)."""
    if not blocks:
        return []
    with decimal.localcontext(_CONTEXT):
        c, tol = decimal.Decimal(c), decimal.Decimal("1e-36")
        head_end, two_c = int(abs(c)) + 32, (-c * _ln(2)).exp()
        power = functools.cache(lambda k: two_c ** (k.bit_length() - 1) if k & (k - 1) == 0 else (-c * _ln(k)).exp())

        @functools.cache
        def ratio_terms(n: int, d: int):  # F(r), (1 + r^-c)/2 and r^-c at r = n/d
            with decimal.localcontext() as wide:
                wide.prec += len(str(d // max(n - d, 1))) + max(0, -(1 - c).adjusted())
                log_r = _ln(n) if d == 1 else (decimal.Decimal(n) / d).ln()
                r_c = (-c * log_r).exp()
                integral = log_r if c == 1 else (((1 - c) * log_r).exp() - 1) / (1 - c)
            return +integral, (1 + r_c) / 2, +r_c

        @functools.cache
        def rising(j: int):  # c(c+1)...(c+2j-2)
            return c if j == 1 else rising(j - 1) * (c + 2 * j - 3) * (c + 2 * j - 2)

        @functools.cache
        def em_coefficient(n: int, d: int, j: int):  # L_j(n/d)
            weight = _em_weight(j).numerator * rising(j) / _em_weight(j).denominator
            return weight * (1 - ratio_terms(n, d)[2] * (decimal.Decimal(d) / n) ** (2 * j - 1))

        def block_sum(a: int, b: int):
            total = decimal.Decimal(0)
            while a < min(b + 1, head_end):
                total += power(a)
                a += 1
                # past the double range, more positive terms change nothing
                if (c > 1 and power(a) * (1 + a / (c - 1)) <= tol * total) or math.isinf(total):
                    return total
            if a > b:
                return total
            n, d = b // math.gcd(a, b), a // math.gcd(a, b)
            integral, ends, _ = ratio_terms(n, d)
            inner, z = a * integral + ends, 1 / decimal.Decimal(a)  # z = a^(1-2j)
            bound, step = tol * inner / 2, z * z
            for j in itertools.count(1):
                term = em_coefficient(n, d, j) * z
                if abs(term) <= bound:
                    return total + power(a) * inner
                inner += term
                z *= step

        def dyadic_sum(lo: int, hi: int):  # an infinite end term would leave inf - inf
            if lo >= head_end and hi == 2 * lo - 1 and power(hi + 1).is_finite():
                return block_sum(lo, hi + 1) - power(hi + 1)
            return block_sum(lo, hi)

        return [float(dyadic_sum(lo, hi)) for lo, hi in blocks]


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


def _pow(x: float, y: float) -> float:
    """x ** y in Python floats (libm's pow), inf past the double range as in numpy."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def _block_index(k: int) -> int:
    return max(int(k).bit_length() - 1, 1)


class _Family(NamedTuple):
    """Everything that differs between weight families.

    params names the family's own parameters (they drive describe, the JSON
    format, equality and the exact growth exponents); checks pairs each
    validity condition with the error it raises; terms evaluates lambda at a
    float array of indices; block_sum(lam, k_exp, lam_exp, blocks) is the
    list of weighted block sums over the blocks (lo, hi), +0.0 for an empty
    one (hi < lo); growth maps the exact parameters to (sigma, tau) with
    lambda_k ~ 2^(n sigma) n^tau on dyadic block n.  Explicit prefixes have
    no growth exponents, because finite data settles no convergence question.
    """

    params: tuple[str, ...]
    checks: tuple[tuple[Callable[[LambdaSequence], bool], str], ...]
    terms: Callable[[LambdaSequence, np.ndarray], np.ndarray]
    block_sum: Callable[[LambdaSequence, float, float, list[tuple[int, int]]], list[float]]
    growth: Callable[..., tuple[Fraction, Fraction]] | None


def _block_power_log_term(lam: LambdaSequence, b: int) -> float:
    """The one weight of dyadic block b, in libm's pow, whatever numpy's SIMD dispatch."""
    return _pow(2.0, b * (1.0 - lam.alpha)) * _pow(float(b), (1.0 - lam.alpha) * lam.s)


def _block_power_log_terms(lam: LambdaSequence, k: np.ndarray) -> np.ndarray:
    # frexp gives floor(log2 k) + 1 exactly; log2 rounds 2^m - 1 up to m from m = 50
    b = np.maximum(np.frexp(k)[1] - 1, 1)
    return np.array([_block_power_log_term(lam, j) for j in range(1, b.max(initial=1) + 1)])[b - 1]


def _direct_block_sum(lam: LambdaSequence, k_exp: float, lam_exp: float, lo: int, hi: int) -> float:
    """The terms' np.sum, in temporaries of at most _SUM_CHUNK terms: a longer
    range splits where numpy's pairwise sum splits (half, rounded down to a
    multiple of 8), so each part is a subtree of numpy's own and the result
    keeps its bits."""
    n = hi - lo + 1
    if n > _SUM_CHUNK:
        h = n // 2 - n // 2 % 8
        return (_direct_block_sum(lam, k_exp, lam_exp, lo, lo + h - 1)
                + _direct_block_sum(lam, k_exp, lam_exp, lo + h, hi))
    k = np.arange(lo, hi + 1, dtype=float)
    lam_k = _FAMILIES[lam.family].terms(lam, k)
    return float(np.sum(k**-k_exp * lam_k**-lam_exp))


def _power_log_block_sum(lam: LambdaSequence, k_exp: float, lam_exp: float, blocks) -> list[float]:
    # power_log has no closed form; cap the direct summation honestly, before any sum
    if any(hi - lo + 1 > _POWER_LOG_LIMIT for lo, hi in blocks):
        raise ValueError("range too long for direct summation of the power_log family")
    if any(hi > sys.float_info.max for lo, hi in blocks):
        raise ValueError("block bound past the largest double in the power_log family")
    return [_direct_block_sum(lam, k_exp, lam_exp, lo, hi) for lo, hi in blocks]


def _block_power_log_block_sum(lam: LambdaSequence, k_exp: float, lam_exp: float, blocks) -> list[float]:
    # lambda is constant on each dyadic block, so each block is a sum of power
    # sums, one per dyadic block it meets; all of them are summed in one call
    pieces = []  # (block, lo, hi) of each piece
    for i, (lo, hi) in enumerate(blocks):
        while lo <= hi:
            pieces.append((i, lo, min(hi, 2 ** (_block_index(lo) + 1) - 1)))
            lo = pieces[-1][2] + 1
    totals = [0.0] * len(blocks)
    for (i, lo, _), power_sum in zip(pieces, _power_block_sums(k_exp, [piece[1:] for piece in pieces])):
        totals[i] += _pow(_block_power_log_term(lam, _block_index(lo)), -lam_exp) * power_sum
    return totals


_FAMILIES = {
    "explicit": _Family(
        params=(),
        checks=(
            (lambda lam: lam.explicit_terms.ndim == 1 and lam.explicit_terms.size > 0,
             "explicit sequence needs at least one term"),
            (lambda lam: np.all(np.isfinite(lam.explicit_terms)) and np.all(lam.explicit_terms > 0.0),
             "sequence terms must be positive and finite"),
            (lambda lam: np.all(lam.explicit_terms[1:] >= lam.explicit_terms[:-1]),
             "sequence terms must be nondecreasing"),
        ),
        terms=lambda lam, k: lam.explicit_terms[k.astype(np.intp) - 1],
        block_sum=lambda lam, k_exp, lam_exp, blocks: [_direct_block_sum(lam, k_exp, lam_exp, *block)
                                                       for block in blocks],
        growth=None,
    ),
    "power": _Family(
        params=("s",),
        checks=((lambda lam: lam.s >= 0.0, "power family needs s >= 0 to be nondecreasing"),),
        terms=lambda lam, k: k**lam.s,
        block_sum=lambda lam, k_exp, lam_exp, blocks: _power_block_sums(k_exp + lam_exp * lam.s, blocks),
        growth=lambda s: (s, 0),
    ),
    "power_log": _Family(
        params=("s", "t"),
        # n^s log(n+1)^t is nondecreasing iff s*log(n+1)*(n+1)/n >= -t for all
        # n >= 1; the left side is increasing, so the worst case is n = 1
        checks=(
            (lambda lam: lam.s >= 0.0, "power_log family needs s >= 0"),
            (lambda lam: lam.s * math.log(2.0) * 2.0 + lam.t >= 0.0,
             "power_log family decreases at n = 1 for these s, t"),
            (lambda lam: _pow(math.log(2.0), lam.t) > 0.0, "power_log family's lambda_1 underflows to 0"),
        ),
        terms=lambda lam, k: k**lam.s * np.log(k + 1.0) ** lam.t,
        block_sum=_power_log_block_sum,
        growth=lambda s, t: (s, t),
    ),
    "block_power_log": _Family(
        params=("s", "alpha"),
        checks=(
            (lambda lam: 0.0 < lam.alpha < 1.0, "block_power_log family needs alpha in (0, 1)"),
            (lambda lam: lam.s >= -1.0, "block_power_log family needs s >= -1 to be nondecreasing"),
        ),
        terms=_block_power_log_terms,
        block_sum=_block_power_log_block_sum,
        growth=lambda s, alpha: (1 - alpha, (1 - alpha) * s),
    ),
}


def _family(name) -> _Family:
    try:
        return _FAMILIES[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown sequence family {name!r}; expected one of {tuple(_FAMILIES)}") from None


@functools.lru_cache(maxsize=1024, typed=True)  # typed: 0.1 and Fraction(0.1) hash alike
def _exact(x: float | Fraction) -> Fraction:
    """The decimal a float was written as: 0.7 becomes 7/10, not the double
    nearest to it, so that boundaries such as s = 1 - alpha hold exactly; a
    Fraction is already exact."""
    return x if isinstance(x, Fraction) else Fraction(repr(float(x)))


@dataclass(frozen=True, eq=False)
class LambdaSequence(_ValueEquality):
    """Positive nondecreasing weight sequence, 1-indexed.

    Either an explicit finite prefix or a named closed-form family:

    - power:            lambda_n = n^s
    - power_log:        lambda_n = n^s * log(n+1)^t
    - block_power_log:  lambda_k = 2^(n(1-alpha)) * n^((1-alpha)s) for
                        k in [2^n, 2^(n+1)), with the k = 1 block sharing
                        block 1's value

    Positivity and monotonicity are validated at construction: numerically on
    the accessible prefix for explicit sequences, symbolically on the
    parameters for named families.  Equality and hashing go by value: the
    family, the parameters (0.0 where the family has none) and the explicit
    terms.
    """

    family: str
    s: float = 0.0
    t: float = 0.0
    alpha: float = 0.0
    explicit_terms: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        spec = _family(self.family)
        for name in ("s", "t", "alpha"):
            if name in spec.params and not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
            if name not in spec.params and getattr(self, name) != 0.0:
                raise ValueError(f"{self.family} family has no parameter {name!r}")
        object.__setattr__(self, "explicit_terms", _frozen(self.explicit_terms))
        if spec.params and self.explicit_terms.size:
            raise ValueError(f"{self.family} family has no parameter 'explicit_terms'")
        for ok, message in spec.checks:
            if not ok(self):
                raise ValueError(message)

    # constructors

    @classmethod
    def explicit(cls, terms) -> "LambdaSequence":
        return cls(family="explicit", explicit_terms=np.asarray(terms, dtype=float))

    @classmethod
    def power(cls, s: float) -> "LambdaSequence":
        return cls(family="power", s=float(s))

    @classmethod
    def power_log(cls, s: float, t: float) -> "LambdaSequence":
        return cls(family="power_log", s=float(s), t=float(t))

    @classmethod
    def block_power_log(cls, s: float, alpha: float) -> "LambdaSequence":
        return cls(family="block_power_log", s=float(s), alpha=float(alpha))

    # accessors

    def require(self, n: int) -> None:
        """Fail fast on a non-integer n or an explicit prefix too short for n
        terms; named families extend analytically and never truncate."""
        n = _integer(n, "n")
        if self.family == "explicit" and n > len(self.explicit_terms):
            raise ValueError(
                f"explicit sequence has {len(self.explicit_terms)} terms, "
                f"but {n} are required"
            )

    def terms(self, n: int) -> np.ndarray:
        """First n terms as an array."""
        self.require(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        return _FAMILIES[self.family].terms(self, np.arange(1, n + 1, dtype=float))

    def describe(self) -> str:
        if self.family == "explicit":
            return f"explicit[{len(self.explicit_terms)}]"
        params = ", ".join(f"{name}={getattr(self, name):g}" for name in _FAMILIES[self.family].params)
        return f"{self.family}({params})"


def weighted_block_sum(lam: LambdaSequence, k_exp: float, lam_exp: float, blocks) -> list[float]:
    """sum_{k=lo}^{hi} k^-k_exp * lambda_k^-lam_exp for each block (lo, hi) of
    integers, in closed form where the family allows it, so dyadic blocks far
    beyond direct summation stay exact.

    Every block is checked, in order, before any is summed; an empty one
    (hi < lo) sums to 0.0.  The long power sums of a call share one 40-digit
    pass, so a series costs one call per exponent, and each block's sum is
    the double its own one-block call gives.
    """
    checked = []
    for lo, hi in blocks:
        lo, hi = _integer(lo, "lo"), _integer(hi, "hi")
        if lo < 1:
            raise ValueError("block bounds start at 1")
        if hi >= lo:
            lam.require(hi)
        checked.append((lo, hi) if hi >= lo else (1, 0))  # however far out, empty sums to 0.0
    return _FAMILIES[lam.family].block_sum(lam, k_exp, lam_exp, checked)


def _growth(lam: LambdaSequence) -> tuple[Fraction, Fraction] | None:
    spec = _FAMILIES[lam.family]
    if spec.growth is None:
        return None
    return spec.growth(*(_exact(getattr(lam, name)) for name in spec.params))


def _condensation(lam: LambdaSequence, a, b, c) -> bool | None:
    """Whether sum_n (sum_{k in block n} k^-a lambda_k^-b)^c converges, for
    exact rationals a, b and c > 0; None for an explicit prefix.

    With lambda_k ~ 2^(n sigma) n^tau on block n, the block terms are
    ~ 2^(nE) n^-F with E = c(1 - a - b sigma) and F = c b tau, and by Cauchy
    condensation the series converges iff E < 0, or E = 0 and F > 1.
    """
    growth = _growth(lam)
    if growth is None:
        return None
    sigma, tau = growth
    e = c * (1 - a - b * sigma)
    f = c * b * tau
    return e < 0 or (e == 0 and f > 1)


_SERIES_VERDICT = {True: "converges", False: "diverges", None: "undetermined"}
_MEMBER_VERDICT = {True: "proved", False: "refuted", None: "undetermined-numeric"}


@dataclass(frozen=True)
class MembershipReport:
    """Verdicts and partial sums for the divergent-harmonic class (positive
    nondecreasing lambda_n -> infinity with sum 1/lambda_n = infinity) and its
    q-summable subclass (additionally sum lambda_n^-q < infinity).

    Verdicts are "proved"/"refuted" only for named families, where the
    classification is symbolic in the parameters; explicit prefixes stay
    "undetermined-numeric" because finite data cannot settle divergence.
    """

    q: float
    class_S: str
    class_S_partial: tuple[tuple[int, float], ...]
    class_Sq: str
    class_Sq_partial: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class CriterionReport:
    """Dyadic-block partial sums of the embedding criterion series
    sum_n ( sum_{k=2^n}^{2^(n+1)} (k^(alpha-1/p) lambda_k)^-p' )^(r'/p').

    Finiteness of the series characterizes the inclusion of the
    shift-modulus class Lip(alpha; p) in the weighted-variation class of
    lambda; block_terms rows are (n, inner sum, block term).
    """

    r: float
    r_prime: float
    block_terms: tuple[tuple[int, float, float], ...]
    partial_sums: tuple[float, ...]
    symbolic_verdict: str


@dataclass(frozen=True)
class WangReport:
    """Partial sums of sum_n lambda_n^(-1/(1-alpha)) at dyadic checkpoints;
    entry m covers indices up to 2^(m+1) - 1 (dyadic blocks 0..m).  This sum
    must diverge for the embedding to fail, making its convergence a
    necessary condition, but not a sufficient one."""

    partial_sums: tuple[float, ...]
    symbolic_verdict: str


def membership_report(lam: LambdaSequence, q: float, n_terms: int) -> MembershipReport:
    """Partial sums of sum 1/lambda_n and sum lambda_n^-q at geometric
    checkpoints up to n_terms, with symbolic verdicts for named families."""
    if not (math.isfinite(q) and q > 1.0):
        raise ValueError("q must satisfy q > 1")
    if _integer(n_terms, "n_terms") < 1:
        raise ValueError("n_terms must be at least 1")
    lam.require(n_terms)
    checkpoints = sorted({2**j for j in range(0, 64) if 2**j <= n_terms} | {n_terms})

    def rows(b):
        sums = weighted_block_sum(lam, 0.0, b, zip([1] + [k + 1 for k in checkpoints[:-1]], checkpoints))
        return tuple(zip(checkpoints, itertools.accumulate(sums)))

    harmonic_sums = _condensation(lam, 0, 1, 1)
    in_s = in_sq = None
    if harmonic_sums is not None:
        # class S also needs lambda -> infinity: sigma > 0, or sigma = 0 and tau > 0
        in_s = _growth(lam) > (0, 0) and not harmonic_sums
        in_sq = in_s and _condensation(lam, 0, _exact(q), 1)
    return MembershipReport(q, _MEMBER_VERDICT[in_s], rows(1.0), _MEMBER_VERDICT[in_sq], rows(q))


def embedding_exponents(p, alpha):
    """(p', r, r') of the embedding criterion: p' = p/(p-1), r = 1/(alpha-1/p)
    and r' = 1/(1+1/p-alpha), for p > 1 and 1/p < alpha < 1.

    Floats give floats and Fractions give exact Fractions.  Floats must
    also satisfy 1/p < alpha as the decimals they were written as.
    """
    if not (math.isfinite(p) and p > 1):
        raise ValueError("p must satisfy p > 1")
    if not (1 / p < alpha < 1 and 1 / _exact(p) < _exact(alpha)):
        raise ValueError("alpha must lie in (1/p, 1)")
    return p / (p - 1), 1 / (alpha - 1 / p), 1 / (1 + 1 / p - alpha)


def criterion_partial_sums(lam: LambdaSequence, p: float, alpha: float, n_blocks: int) -> CriterionReport:
    """Block terms and partial sums of the embedding criterion series for
    dyadic blocks n = 0..n_blocks.

    Inner sums include both block endpoints 2^n and 2^(n+1); the boundary
    double count is harmless for convergence.  Every block is checked before
    any is summed: an explicit prefix fails at the first block past it, and
    a family's range cap before any direct sum.
    """
    p_prime, r, r_prime = embedding_exponents(p, alpha)
    if _integer(n_blocks, "n_blocks") < 0:
        raise ValueError("n_blocks must be nonnegative")
    ns = range(n_blocks + 1)
    blocks = [(2**n, 2 ** (n + 1)) for n in ns]
    inners = weighted_block_sum(lam, p_prime * (alpha - 1.0 / p), p_prime, blocks)
    terms = [_pow(inner, r_prime / p_prime) for inner in inners]
    # the same series in exact rationals: a = p'(alpha - 1/p), b = p', c = r'/p'
    ep, ea = _exact(p), _exact(alpha)
    ep_prime, _, er_prime = embedding_exponents(ep, ea)
    converges = _condensation(lam, ep_prime * (ea - 1 / ep), ep_prime, er_prime / ep_prime)
    return CriterionReport(r, r_prime, tuple(zip(ns, inners, terms)),
                           tuple(itertools.accumulate(terms)), _SERIES_VERDICT[converges])


def wang_partial_sums(lam: LambdaSequence, alpha: float, n_blocks: int) -> WangReport:
    """Partial sums of sum_n lambda_n^(-1/(1-alpha)) at the dyadic
    checkpoints 2^(m+1) - 1 for m = 0..n_blocks-1 (empty for n_blocks = 0)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if _integer(n_blocks, "n_blocks") < 0:
        raise ValueError("n_blocks must be nonnegative")
    blocks = [(2**m, 2 ** (m + 1) - 1) for m in range(n_blocks)]
    sums = itertools.accumulate(weighted_block_sum(lam, 0.0, 1.0 / (1.0 - alpha), blocks))
    converges = _condensation(lam, 0, 1 / (1 - _exact(alpha)), 1)
    return WangReport(tuple(sums), _SERIES_VERDICT[converges])


def regularize_sequence(a, theta: float, gamma: float) -> np.ndarray:
    """Smallest max-convolution envelope of ``a`` with two-sided geometric
    decay: beta_k = max_j a_j * w_(k-j), w_d = theta^(-gamma d) for d >= 0 and
    theta^d for d < 0.

    Guarantees a_k <= beta_k, theta^-gamma <= beta_(k+1)/beta_k <= theta, and
    sum beta <= theta^(1+gamma) / ((theta-1)(theta^gamma-1)) * sum a.
    """
    if not (math.isfinite(theta) and theta > 1.0):
        raise ValueError("theta must exceed 1")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive")
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("input must be a nonempty sequence")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("input terms must be nonnegative and finite")
    if not np.any(arr > 0.0):
        raise ValueError("input must have a positive term")
    k = len(arr)
    offsets = np.arange(-(k - 1), k)
    w = np.where(offsets >= 0, theta ** (-gamma * offsets), theta ** offsets.astype(float))
    # beta_k = max_j a_j * w[k-j]; indices k-j span [-(k-1), k-1]
    idx = np.arange(k)[:, None] - np.arange(k)[None, :] + (k - 1)
    return np.max(arr[None, :] * w[idx], axis=1)


def hardy_two_sides(beta: float, r: float, a, nu):
    """Two sides of a dyadic-weight partial-sum comparison.

    lhs = sum_n 2^(-n beta) (sum_{1 <= k <= nu_n} a_k)^(1/r) over all
    available n, and rhs = sum_{n >= 1} 2^(-n beta) with the inner sum taken
    over the block nu_(n-1) <= k <= nu_n (inclusive real bounds on integer
    k).  The lhs dominates the rhs termwise; the interesting direction,
    lhs <= c * rhs, is observed empirically.

    ``a`` is a 2-D array with one draw per row; entry t of each returned
    array is the result on row t.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError("beta must be positive")
    if not (math.isfinite(r) and r > 1.0):
        raise ValueError("r must satisfy r > 1")
    nu_arr = np.asarray(nu, dtype=float)
    if nu_arr.ndim != 1 or nu_arr.size == 0:
        raise ValueError("nu must be a nonempty sequence")
    if nu_arr[0] != 1.0:
        raise ValueError("nu must start at 1")
    if not np.all(np.diff(nu_arr) > 0.0):
        raise ValueError("nu must be strictly increasing")
    a_arr = np.asarray(a, dtype=float)
    if a_arr.ndim != 2:
        raise ValueError("a must be a 2-D array of draws")
    if not np.all(a_arr >= 0.0):
        raise ValueError("a must be nonnegative")
    if np.isinf(a_arr).any():
        raise ValueError("a must be finite")
    m = a_arr.shape[1]
    prefix = np.zeros((len(a_arr), m + 1))
    np.cumsum(a_arr, axis=1, out=prefix[:, 1:])
    # integer k bounds clipped to the draw: the head is 1..top, block n is
    # lo..hi, empty when hi < lo (it adds w * 0.0 = 0.0 and is left out)
    top = np.minimum(np.floor(nu_arr), m).astype(np.intp)
    lo = np.minimum(np.ceil(nu_arr[:-1]), m + 1).astype(np.intp)
    hi = np.maximum(top[1:], lo - 1)
    full = np.flatnonzero(hi >= lo)
    # each distinct prefix[end] - prefix[start] (a head's start is 0) goes once
    # through Python's pow (libm), whose result numpy's array ** can miss by 1 ulp
    pairs = np.concatenate((top * (m + 1), hi[full] * (m + 1) + lo[full] - 1))
    keys, col = np.unique(pairs, return_inverse=True)
    sums = (prefix[:, keys // (m + 1)] - prefix[:, keys % (m + 1)]).ravel().tolist()
    powers = np.fromiter(map(math.pow, sums, itertools.repeat(1.0 / r)), float, len(sums))
    powers = powers.reshape(len(a_arr), len(keys))
    # each side adds w_n s_n^(1/r) from left to right from 0.0, as sum() does in CPython 3.11
    weights = [2.0 ** (-n * beta) for n in range(len(nu_arr))]
    lhs, rhs = np.zeros(len(a_arr)), np.zeros(len(a_arr))
    for side, ns, cols in ((lhs, range(len(top)), col[: len(top)]), (rhs, full + 1, col[len(top) :])):
        for n, c in zip(ns, cols):
            side += weights[n] * powers[:, c]
    return lhs, rhs


def dual_extremizer(x, p: float) -> np.ndarray:
    """The l^p' unit vector realizing sup_{||a||_p' <= 1} sum a_n x_n =
    ||x||_p for nonnegative x: a_n = (x_n / ||x||_p)^(p-1)."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError("p must satisfy p > 1")
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("input must be a nonempty sequence")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("input terms must be nonnegative and finite")
    norm = float(np.sum(arr**p) ** (1.0 / p))
    if norm == 0.0:
        raise ValueError(f"the l^{p:g} norm of the input underflows to 0"
                         if np.any(arr > 0.0) else "input must not be all zero")
    return (arr / norm) ** (p - 1.0)


def sequence_from_json(text: str) -> LambdaSequence:
    """Parse the sequence file format:
    {"family": "power"|"power_log"|"block_power_log"|"explicit",
     "params": {...} | "terms": [...]}; any other key is rejected, and so is
    any parameter or term that is not a JSON number."""
    obj = json.loads(text, parse_int=float)
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError('sequence JSON must be an object with a "family" key')
    family = obj["family"]
    names = _family(family).params
    unknown = [k for k in obj if k not in ("family", "terms" if family == "explicit" else "params")]
    if unknown:
        raise ValueError(f"{family} sequence JSON has no key {unknown[0]!r}")
    if family == "explicit":
        terms = obj.get("terms")
        if not (isinstance(terms, list) and all(isinstance(v, float) for v in terms)):
            raise ValueError('explicit sequences need a "terms" list of numbers')
        return LambdaSequence.explicit(terms)
    params = obj.get("params")
    if not isinstance(params, dict):
        raise ValueError('named families need a "params" object')
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"{family} family is missing parameter {missing[0]!r}")
    unknown = [name for name in params if name not in names]
    if unknown:
        raise ValueError(f"{family} family has no parameter {unknown[0]!r}")
    bad = [name for name in names if not isinstance(params[name], float)]
    if bad:
        raise ValueError(f"{family} family parameter {bad[0]!r} must be a number")
    return LambdaSequence(family, **params)
