"""Weight-sequence machinery: named nondecreasing families and explicit
prefixes, membership diagnostics for the divergent-sum classes, the embedding
criterion series over dyadic blocks, the 1/(1-alpha)-power necessary
condition, max-convolution regularization, a dyadic two-sided partial-sum
comparison, and the l^p duality extremizer."""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

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
    "sequence_to_json",
    "sequence_from_json",
]

# ranges at most this long are summed term by term in floats; longer power
# sums go through a 40-digit Euler-Maclaurin sum
_DIRECT_SUM_LIMIT = 4096
_POWER_LOG_LIMIT = 1 << 22
# longer direct sums run in parts of at most this many terms (256 KB a temporary)
_SUM_CHUNK = 1 << 15


@functools.cache
def _em_weight(j: int):
    """B_2j / (2j)!, the weight of the j-th Euler-Maclaurin term, in the
    40-digit context of its one caller."""
    import mpmath as mp
    return mp.bernoulli(2 * j) / mp.factorial(2 * j)


def _power_block_sum(c: float, lo: int, hi: int) -> float:
    """sum_{k=lo}^{hi} k^-c: term by term in floats for short ranges; for long
    ones, at 40 digits, a head below |c| + 32 term by term and an
    Euler-Maclaurin sum for f(x) = x^-c over the rest [a, hi].

    f^(2m) keeps one sign on (0, inf), so the remainder after m - 1 terms is
    at most twice the m-th (DLMF 2.10.3); terms go in until that bound is
    below 1e-36 of the total.  Term j + 1 is at most ((|c| + 2j)/(2 pi a))^2
    of term j, so from a >= |c| + 32 on, 32 terms always suffice.  For c > 1
    the head stops once the rest, at most a^-c (1 + a/(c - 1)), is that small.
    """
    if not math.isfinite(c):  # k^-c is 0 or inf for every k >= 2
        hi = min(hi, lo + 1)
    if hi - lo + 1 <= _DIRECT_SUM_LIMIT:
        k = np.arange(lo, hi + 1, dtype=float)
        return float(np.sum(k**-c))
    import mpmath as mp  # deferred: only long power sums need it
    with mp.workdps(40):
        c, tol = mp.mpf(c), mp.mpf(10) ** -36
        a, total = lo, mp.mpf(0)
        fa = mp.mpf(a) ** -c
        head_end = min(hi + 1, int(abs(c)) + 32)
        while a < head_end:
            total += fa
            a += 1
            fa = mp.mpf(a) ** -c
            # past the double range, more positive terms change nothing
            if (c > 1 and fa * (1 + a / (c - 1)) <= tol * total) or math.isinf(total):
                return float(total)
        if a > hi:
            return float(total)
        ma, mb = mp.mpf(a), mp.mpf(hi)
        fb, log_ratio = mb**-c, mp.log(mb / ma)
        # the integral of f over [a, hi], then the trapezoid ends
        total += log_ratio if c == 1 else ma * fa * mp.expm1((1 - c) * log_ratio) / (1 - c)
        total += (fa + fb) / 2
        # f^(2j-1)(x) = -c(c+1)...(c+2j-2) x^(-c-2j+1)
        da, db = -c * fa / ma, -c * fb / mb
        inv_a2, inv_b2 = 1 / ma**2, 1 / mb**2
        for j in itertools.count(1):
            term = _em_weight(j) * (db - da)
            if 2 * abs(term) <= tol * total:
                return float(total)
            total += term
            step = (c + (2 * j - 1)) * (c + 2 * j)
            da, db = da * step * inv_a2, db * step * inv_b2


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


def _block_index(k: int) -> int:
    return max(int(k).bit_length() - 1, 1)


class _Family(NamedTuple):
    """Everything that differs between weight families.

    params names the family's own parameters (they drive describe, the JSON
    format, equality and the exact growth exponents); checks pairs each
    validity condition with the error it raises; term and terms evaluate
    lambda at one index and at a float array of indices; block_sum(lam, k_exp,
    lam_exp, lo, hi) is the weighted block sum over lo..hi; growth maps the
    exact parameters to (sigma, tau) with lambda_k ~ 2^(n sigma) n^tau on
    dyadic block n.  Explicit prefixes have no growth exponents, because
    finite data settles no convergence question.
    """

    params: tuple[str, ...]
    checks: tuple[tuple[Callable[[LambdaSequence], bool], str], ...]
    term: Callable[[LambdaSequence, int], float]
    terms: Callable[[LambdaSequence, np.ndarray], np.ndarray]
    block_sum: Callable[[LambdaSequence, float, float, int, int], float]
    growth: Callable[..., tuple[Fraction, Fraction]] | None


def _block_power_log_term(lam: LambdaSequence, n: int) -> float:
    b = _block_index(n)
    return 2.0 ** (b * (1.0 - lam.alpha)) * float(b) ** ((1.0 - lam.alpha) * lam.s)


def _block_power_log_terms(lam: LambdaSequence, k: np.ndarray) -> np.ndarray:
    b = np.maximum(np.floor(np.log2(np.maximum(k, 1.0))), 1.0)
    return 2.0 ** (b * (1.0 - lam.alpha)) * b ** ((1.0 - lam.alpha) * lam.s)


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


def _power_log_block_sum(lam: LambdaSequence, k_exp: float, lam_exp: float, lo: int, hi: int) -> float:
    # power_log has no closed form; cap the direct summation honestly
    if hi - lo + 1 > _POWER_LOG_LIMIT:
        raise ValueError("range too long for direct summation of the power_log family")
    return _direct_block_sum(lam, k_exp, lam_exp, lo, hi)


def _block_power_log_block_sum(lam: LambdaSequence, k_exp: float, lam_exp: float, lo: int, hi: int) -> float:
    # lambda is constant on each dyadic block, so each block is a power sum
    total = 0.0
    while lo <= hi:
        block_hi = min(hi, 2 ** (_block_index(lo) + 1) - 1)
        total += lam.term(lo) ** -lam_exp * _power_block_sum(k_exp, lo, block_hi)
        lo = block_hi + 1
    return total


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
        term=lambda lam, n: float(lam.explicit_terms[n - 1]),
        terms=lambda lam, k: lam.explicit_terms[k.astype(np.intp) - 1],
        block_sum=_direct_block_sum,
        growth=None,
    ),
    "power": _Family(
        params=("s",),
        checks=((lambda lam: lam.s >= 0.0, "power family needs s >= 0 to be nondecreasing"),),
        term=lambda lam, n: float(n) ** lam.s,
        terms=lambda lam, k: k**lam.s,
        block_sum=lambda lam, k_exp, lam_exp, lo, hi: _power_block_sum(k_exp + lam_exp * lam.s, lo, hi),
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
        ),
        term=lambda lam, n: float(n) ** lam.s * math.log(n + 1.0) ** lam.t,
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
        term=_block_power_log_term,
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


def _exact(x: float) -> Fraction:
    """The decimal a float was written as: 0.7 becomes 7/10, not the double
    nearest to it, so that boundaries such as s = 1 - alpha hold exactly."""
    return Fraction(repr(float(x)))


@dataclass(frozen=True, eq=False)
class LambdaSequence:
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
    family, its own parameters, and the explicit terms.
    """

    family: str
    s: float = 0.0
    t: float = 0.0
    alpha: float = 0.0
    explicit_terms: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        spec = _family(self.family)
        for name in spec.params:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        terms = np.array(self.explicit_terms, dtype=float)
        terms.setflags(write=False)
        object.__setattr__(self, "explicit_terms", terms)
        for ok, message in spec.checks:
            if not ok(self):
                raise ValueError(message)

    def _key(self) -> tuple:
        # positive finite terms are equal exactly when their bytes are
        params = tuple(getattr(self, name) for name in _FAMILIES[self.family].params)
        return self.family, params, self.explicit_terms.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaSequence):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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

    def __len__(self) -> int:
        if self.family != "explicit":
            raise TypeError("named families have no finite length")
        return len(self.explicit_terms)

    def require(self, n: int) -> None:
        """Fail fast on a non-integer n or an explicit prefix too short for n
        terms; named families extend analytically and never truncate."""
        n = _integer(n, "n")
        if self.family == "explicit" and n > len(self.explicit_terms):
            raise ValueError(
                f"explicit sequence has {len(self.explicit_terms)} terms, "
                f"but {n} are required"
            )

    def term(self, n: int) -> float:
        self.require(n)
        if n < 1:
            raise ValueError("sequence indices start at 1")
        return _FAMILIES[self.family].term(self, n)

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


def weighted_block_sum(lam: LambdaSequence, k_exp: float, lam_exp: float, lo: int, hi: int) -> float:
    """sum_{k=lo}^{hi} k^-k_exp * lambda_k^-lam_exp, in closed form where the
    family allows it, so dyadic blocks far beyond direct summation stay exact.
    """
    lo, hi = _integer(lo, "lo"), _integer(hi, "hi")
    if lo < 1:
        raise ValueError("block bounds start at 1")
    if hi < lo:
        return 0.0
    lam.require(hi)
    return _FAMILIES[lam.family].block_sum(lam, k_exp, lam_exp, lo, hi)


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

    p: float
    alpha: float
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

    alpha: float
    exponent: float
    partial_sums: tuple[float, ...]
    symbolic_verdict: str


def membership_report(lam: LambdaSequence, q: float, n_terms: int) -> MembershipReport:
    """Partial sums of sum 1/lambda_n and sum lambda_n^-q at geometric
    checkpoints up to n_terms, with symbolic verdicts for named families."""
    if not (math.isfinite(q) and q > 1.0):
        raise ValueError("q must satisfy q > 1")
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    lam.require(n_terms)
    checkpoints = sorted({2**j for j in range(0, 64) if 2**j <= n_terms} | {n_terms})

    def rows(b):
        sums = (weighted_block_sum(lam, 0.0, b, lo + 1, hi) for lo, hi in zip([0] + checkpoints, checkpoints))
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

    Floats give floats and Fractions give exact Fractions.
    """
    if not (math.isfinite(p) and p > 1):
        raise ValueError("p must satisfy p > 1")
    if not (1 / p < alpha < 1):
        raise ValueError("alpha must lie in (1/p, 1)")
    return p / (p - 1), 1 / (alpha - 1 / p), 1 / (1 + 1 / p - alpha)


def criterion_partial_sums(lam: LambdaSequence, p: float, alpha: float, n_blocks: int) -> CriterionReport:
    """Block terms and partial sums of the embedding criterion series for
    dyadic blocks n = 0..n_blocks.

    Inner sums include both block endpoints 2^n and 2^(n+1); the boundary
    double count is harmless for convergence.  Every block is checked before
    any is summed: an explicit prefix fails at the first block past it, and
    the last, longest block meets a family's range cap first.
    """
    p_prime, r, r_prime = embedding_exponents(p, alpha)
    if n_blocks < 0:
        raise ValueError("n_blocks must be nonnegative")
    for n in range(n_blocks + 1):
        lam.require(2 ** (n + 1))
    inner = functools.partial(weighted_block_sum, lam, p_prime * (alpha - 1.0 / p), p_prime)
    last = inner(2**n_blocks, 2 ** (n_blocks + 1))
    inners = [inner(2**n, 2 ** (n + 1)) for n in range(n_blocks)] + [last]
    terms = [inner ** (r_prime / p_prime) for inner in inners]
    # the same series in exact rationals: a = p'(alpha - 1/p), b = p', c = r'/p'
    ep, ea = _exact(p), _exact(alpha)
    ep_prime, _, er_prime = embedding_exponents(ep, ea)
    converges = _condensation(lam, ep_prime * (ea - 1 / ep), ep_prime, er_prime / ep_prime)
    return CriterionReport(p, alpha, r, r_prime, tuple(zip(range(n_blocks + 1), inners, terms)),
                           tuple(itertools.accumulate(terms)), _SERIES_VERDICT[converges])


def wang_partial_sums(lam: LambdaSequence, alpha: float, n_blocks: int) -> WangReport:
    """Partial sums of sum_n lambda_n^(-1/(1-alpha)) at the dyadic
    checkpoints 2^(m+1) - 1 for m = 0..n_blocks-1 (empty for n_blocks = 0)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if n_blocks < 0:
        raise ValueError("n_blocks must be nonnegative")
    exponent = 1.0 / (1.0 - alpha)
    sums = itertools.accumulate(
        weighted_block_sum(lam, 0.0, exponent, 2**m, 2 ** (m + 1) - 1) for m in range(n_blocks)
    )
    converges = _condensation(lam, 0, 1 / (1 - _exact(alpha)), 1)
    return WangReport(alpha, exponent, tuple(sums), _SERIES_VERDICT[converges])


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

    A 1-D ``a`` gives two floats; a 2-D ``a`` holds one draw per row and
    gives two arrays whose entry t is the 1-D result on row t.
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
    if a_arr.ndim not in (1, 2):
        raise ValueError("a must be one draw or a 2-D array of draws")
    if not np.all(a_arr >= 0.0):
        raise ValueError("a must be nonnegative")
    draws = np.atleast_2d(a_arr)
    m = draws.shape[1]
    prefix = np.pad(np.cumsum(draws, axis=1), ((0, 0), (1, 0)))
    # integer k bounds clipped to the draw: the head is 1..top, block n is
    # lo..hi, empty when hi < lo
    top = np.minimum(np.floor(nu_arr), m).astype(np.intp)
    lo = np.minimum(np.ceil(nu_arr[:-1]), m + 1).astype(np.intp)
    hi = np.maximum(top[1:], lo - 1)
    heads = prefix[:, top].tolist()
    blocks = np.where(hi >= lo, prefix[:, hi] - prefix[:, lo - 1], 0.0).tolist()
    # term by term in Python floats, whose ** differs from numpy's array **
    # in the last bit on some inputs
    weights = [2.0 ** (-n * beta) for n in range(len(nu_arr))]
    lhs, rhs = (
        np.array([sum(w * s ** (1.0 / r) for w, s in zip(ws, row)) for row in sums], dtype=float)
        for ws, sums in ((weights, heads), (weights[1:], blocks))
    )
    if a_arr.ndim == 1:
        return float(lhs[0]), float(rhs[0])
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
        raise ValueError("input must not be all zero")
    return (arr / norm) ** (p - 1.0)


def sequence_to_json(lam: LambdaSequence) -> str:
    """Serialize to the sequence file format."""
    if lam.family == "explicit":
        obj = {"family": "explicit", "terms": [float(v) for v in lam.explicit_terms]}
    else:
        params = {name: getattr(lam, name) for name in _FAMILIES[lam.family].params}
        obj = {"family": lam.family, "params": params}
    return json.dumps(obj)


def sequence_from_json(text: str) -> LambdaSequence:
    """Parse the sequence file format:
    {"family": "power"|"power_log"|"block_power_log"|"explicit",
     "params": {...} | "terms": [...]}."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError('sequence JSON must be an object with a "family" key')
    family = obj["family"]
    if family == "explicit":
        if "terms" not in obj or not isinstance(obj["terms"], list):
            raise ValueError('explicit sequences need a "terms" list')
        return LambdaSequence.explicit(obj["terms"])
    params = obj.get("params")
    if not isinstance(params, dict):
        raise ValueError('named families need a "params" object')
    names = _family(family).params
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"{family} family is missing parameter {missing[0]!r}")
    return LambdaSequence(family, **{name: float(params[name]) for name in names})
