"""Explicit extremal constructions: triangle combs, the multi-level comb
witness whose weighted variation tracks the criterion partial sums while its
modulus ratio stays bounded, the duality choice of level weights, a numeric
check of the embedding inequality, the divergent/convergent companion-series
witness, and the family separating the power necessary condition from the
embedding criterion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .periodic import Interval, PiecewiseLinearPeriodic, _ValueEquality, _frozen, make_plpf
from .sequences import (
    LambdaSequence,
    _exact,
    _integer,
    criterion_partial_sums,
    embedding_exponents,
    regularize_sequence,
    weighted_block_sum,
)
from .variation import _dyadic_grid, _sorted_lambda_sum, lambda_variation, p_cont_ratio_norm

__all__ = [
    "TriangleCombSpec",
    "WitnessSpec",
    "WitnessComb",
    "triangle_comb",
    "duality_weights",
    "extremal_function",
    "embedding_bound_check",
    "perlman_witness",
    "wang_gap_family",
]

MAX_WITNESS_LEVELS = 12
PERLMAN_PART = 1 << 16  # terms per part in perlman_witness


@dataclass(frozen=True)
class TriangleCombSpec:
    """N isosceles triangles of given heights on equal bases tiling an
    interval, zero elsewhere: tooth j rises from 0 to heights[j] over the
    first half of its base and falls back to 0 over the second half."""

    interval: Interval
    n_teeth: int
    heights: tuple

    def __post_init__(self) -> None:
        if self.n_teeth < 1:
            raise ValueError("n_teeth must be at least 1")
        if np.shape(self.heights) != (self.n_teeth,):
            raise ValueError("heights must have one entry per tooth")
        h = np.asarray(self.heights, dtype=float)
        if not np.all(np.isfinite(h) & (h >= 0.0)):
            raise ValueError("heights must be nonnegative and finite")
        object.__setattr__(self, "heights", tuple(h.tolist()))


def _comb_nodes(a: float, length: float, heights) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of a comb of len(heights) teeth on [a, a + length] without its
    final foot: the half-base marks a + length * k / (2N), k = 0..2N-1,
    valued exactly 0.0 at feet and exactly heights[j] at apexes."""
    n = len(heights)
    positions = a + length * (np.arange(2 * n, dtype=float) / (2 * n))
    values = np.zeros(2 * n)
    values[1::2] = heights
    return positions, values


def triangle_comb(spec: TriangleCombSpec) -> PiecewiseLinearPeriodic:
    """Build the comb as a periodic piecewise-linear function.

    Nodes sit at the 2N+1 half-base marks with value exactly 0.0 at tooth
    feet and exactly heights[j] at apexes; when the interval is the whole
    circle the final foot coincides with the first and is left out.
    """
    positions, values = _comb_nodes(spec.interval.a, spec.interval.length, spec.heights)
    if spec.interval.length != 1.0:
        positions, values = np.append(positions, spec.interval.b), np.append(values, 0.0)
    positions = np.where(positions >= 1.0, positions - 1.0, positions)
    return make_plpf(np.column_stack([positions, values]))


def duality_weights(l_terms, p: float, alpha: float) -> np.ndarray:
    """Level weights delta_n = L_n^r' / sum_m L_m^r': L_n^r' is the
    criterion's block term, so delta_n is level n's share of the criterion
    partial sum, and sum delta_n^(alpha-1/p) L_n = ||L||_r' up to rounding.
    One power of L / max L, which can neither overflow nor sum to 0."""
    r_prime = embedding_exponents(p, alpha)[2]
    arr = np.asarray(l_terms, dtype=float)
    if arr.ndim != 1 or not (np.all(np.isfinite(arr) & (arr >= 0.0)) and np.any(arr > 0.0)):
        raise ValueError("l_terms must be a nonempty 1-D sequence of finite nonnegative terms, not all zero")
    w = (arr / arr.max()) ** r_prime
    return w / w.sum()


@dataclass(frozen=True)
class WitnessSpec:
    """Parameters of the multi-level comb witness: level n carries 2^n teeth
    on a tile whose length is proportional to the regularized level weight
    beta_n, with tooth heights shaped by the weight sequence so that each
    level's height power sum collapses to a closed form."""

    lam: LambdaSequence
    p: float
    alpha: float
    levels: int

    def __post_init__(self) -> None:
        embedding_exponents(self.p, self.alpha)
        if not (1 <= _integer(self.levels, "levels") <= MAX_WITNESS_LEVELS):
            raise ValueError(f"levels must lie in 1..{MAX_WITNESS_LEVELS}")
        self.lam.require(2 ** (self.levels + 1))
        # the heights read lambda_1..lambda_top: past the double range no p helps
        top = 2 ** (self.levels + 1) - 1
        if not math.isfinite(self.lam.terms(top)[-1]):
            raise ValueError(f"lambda_{top} is past the double range")

    @property
    def exponents(self) -> tuple[float, float, float]:
        """(p', r, r') of the embedding criterion at this spec's p and alpha."""
        return embedding_exponents(self.p, self.alpha)


@dataclass(frozen=True, eq=False)
class WitnessComb(_ValueEquality):
    """One truncation of the witness: its level data and how it was built.
    Level n = 1..L carries 2^n triangular teeth on the tile [starts[n-1],
    starts[n-1] + tile_lengths[n-1]], each rising from 0.0 to its apex
    height over half its base and falling back; ``heights`` holds every
    level's apex heights in order, level n's at 2^n - 2 .. 2^(n+1) - 3.

    p and alpha are the spec's; delta are the duality weights and beta
    their regularization, which sets the tiles and heights.  S is the
    per-level weight norm over k in [2^n, 2^(n+1)-1]; L_inclusive extends
    the range to 2^(n+1) (the criterion's inner sums); criterion_partials[m-1]
    sums the criterion block terms over n = 1..m.  arc_pair_sum counts every
    tooth height twice against its own 1/lambda_k; it is NOT in general a
    lower bound for the measured variation, which assigns sorted arcs to the
    weight prefix, but half of it is (one arc per tooth, weight indices
    dominated by ranks).  The array fields are read-only float arrays copied
    from the input; equality and hashing go by value.
    """

    starts: np.ndarray
    tile_lengths: np.ndarray
    heights: np.ndarray
    p: float
    alpha: float
    delta: np.ndarray
    beta: np.ndarray
    S: np.ndarray
    L_inclusive: np.ndarray
    criterion_partials: np.ndarray
    arc_pair_sum: float
    analytic_lower_bound: float

    def __post_init__(self) -> None:
        for name in ("starts", "tile_lengths", "heights", "delta", "beta", "S", "L_inclusive",
                     "criterion_partials"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if not np.all(np.isfinite(self.heights) & (self.heights >= 0.0)):
            raise ValueError("heights must be nonnegative and finite")

    def function(self) -> PiecewiseLinearPeriodic:
        """The comb as a function, its nodes laid out in one pass: each
        tile's half-base marks, valued exactly 0.0 at feet and exactly the
        heights at apexes; a tile's final foot is the next tile's first foot
        (the last tile's: 0.0)."""
        heights = (self.heights[2**n - 2 : 2 ** (n + 1) - 2] for n in range(1, len(self.starts) + 1))
        nodes = [_comb_nodes(a, length, h) for a, length, h in zip(self.starts, self.tile_lengths, heights)]
        return PiecewiseLinearPeriodic(*map(np.concatenate, zip(*nodes)))

    def lambda_variation(self, lam: LambdaSequence) -> float:
        """lambda_variation(self.function(), lam), bit for bit.  Valleys are
        exactly 0.0, so the comb is baseline-separated, and each tooth of
        positive height is two arcs, rising and falling by that height: the
        sorted arc increments are the sorted heights, each counted twice."""
        h = self.heights[self.heights > 0.0]
        return _sorted_lambda_sum(np.repeat(h, 2), 1.0 / lam.terms(2 * len(h)))

    def ratio_norm(self, dyadic_depth: int) -> float:
        """max over delta = 2^-j, j = 0..dyadic_depth, of omega_{1-1/p}(g;
        delta) / delta^(alpha - 1/p) for g = self.function(), the modulus
        taken over all intervals, not a grid.

        Each arc of g is one segment and g is baseline-separated, so an
        optimal system cuts each arc on its own into floor(x) pieces of length
        delta and one remainder, x = arc / delta: omega^p = sum_n 2 P_n
        phi_p(a_n / delta), a_n = tile_lengths[n-1] / 2^(n+1), phi_p(x) = 1
        for x <= 1 and (floor(x) + frac(x)^p) / x^p above.  P_n, level n's
        sum of H^p, is (2^-n beta_n)^((alpha-1/p)p) by construction:
        H_k^p = (2^-n beta_n)^((alpha-1/p)p) lambda_k^-p' S_n^-p' and
        S_n^p' = sum_k lambda_k^-p'.  phi_p is taken from 1/x = delta / a_n
        and frac(x)/x = fmod(a_n, delta) / a_n (fmod is exact), which stay
        finite where a_n / delta overflows.  Every term is held by its log
        and the levels are summed by log-sum-exp, so no power underflows at
        a large p; the exponential comes last.
        """
        p, a_exp = self.p, self.alpha - 1.0 / self.p
        deltas = np.array(_dyadic_grid(dyadic_depth))[:, None]
        n = np.arange(1, len(self.starts) + 1)
        arc = self.tile_lengths / 2.0 ** (n + 1)
        log_sums = math.log(2.0) + a_exp * p * np.log(self.beta / 2.0**n)  # log 2 P_n
        # 1/x and frac(x)/x; at x <= 1 they read 1 and 1 (0 at x = 1), so phi = 1
        y, fy = np.minimum(deltas / arc, 1.0), np.fmod(arc, deltas) / arc
        with np.errstate(divide="ignore"):  # log 0 is -inf: a term that is 0
            log_phi = np.logaddexp(np.log1p(-fy) + (p - 1.0) * np.log(y), p * np.log(fy))
        log_omega = np.logaddexp.reduce(log_sums + log_phi, axis=1) / p
        return float(np.exp(np.max(log_omega - a_exp * np.log(deltas[:, 0]))))


def extremal_function(spec: WitnessSpec) -> tuple[WitnessComb, ...]:
    """Build the witness truncated at each level L = 1..spec.levels: item
    L - 1 is the comb of levels 1..L, with how it was built.

    Level n contributes a comb with 2^n teeth of heights
    H_k = (2^-n beta_n)^(alpha-1/p) lambda_k^(-1/(p-1)) S_n^(-p'/p) for
    k in [2^n, 2^(n+1)-1]; tiles partition the circle proportionally to the
    regularized weights beta (theta = 3/2, gamma = 1).  The block sums, S
    norms and weights of level n do not depend on L and are computed once;
    each truncation has its own beta, tiles and heights, kept as level data:
    comb.function() builds the function, and comb.lambda_variation and
    comb.ratio_norm measure it from the level data alone.
    """
    lam, p, alpha, levels = spec.lam, spec.p, spec.alpha, spec.levels
    p_prime, _, r_prime = spec.exponents
    a_exp = alpha - 1.0 / p
    ns = range(1, levels + 1)

    lows = [2**n for n in ns]
    inner = np.array(weighted_block_sum(lam, p_prime * a_exp, p_prime, [(lo, 2 * lo) for lo in lows]))
    l_inclusive = inner ** (1.0 / p_prime)
    if l_inclusive[0] == 0.0:
        # every truncation's duality weights read L_1, a sum of positive terms
        raise ValueError("the first level sum underflows to 0 at this p")
    s_sums = weighted_block_sum(lam, 0.0, p_prime, [(lo, 2 * lo - 1) for lo in lows])
    s_norms = np.array([s ** (1.0 / p_prime) for s in s_sums])
    criterion_partials = np.cumsum(inner ** (r_prime / p_prime))
    terms = lam.terms(2 ** (levels + 1) - 1)
    lam_k = [terms[2**n - 1 : 2 ** (n + 1) - 1] for n in ns]
    lam_pow = [lam_n ** (-1.0 / (p - 1.0)) for lam_n in lam_k]

    combs = []
    for top in ns:
        delta = duality_weights(l_inclusive[:top], p, alpha)
        beta = regularize_sequence(delta, 1.5, 1.0)
        cuts = np.cumsum(beta)
        boundaries = np.concatenate([[0.0], cuts / cuts[-1]])
        heights = [(2.0 ** -(idx + 1) * beta[idx]) ** a_exp * lam_pow[idx] * s_norms[idx] ** (-p_prime / p)
                   for idx in range(top)]
        combs.append(WitnessComb(
            starts=boundaries[:-1], tile_lengths=np.diff(boundaries), heights=np.concatenate(heights),
            p=p, alpha=alpha, delta=delta, beta=beta, S=s_norms[:top], L_inclusive=l_inclusive[:top],
            criterion_partials=criterion_partials[:top],
            arc_pair_sum=sum(2.0 * float(np.sum(h / lam_n)) for h, lam_n in zip(heights, lam_k)),
            analytic_lower_bound=2.0**a_exp * float(np.sum(delta**a_exp * l_inclusive[:top]))))
    return tuple(combs)


def embedding_bound_check(
    f: PiecewiseLinearPeriodic,
    lam: LambdaSequence,
    p: float,
    alpha: float,
    n_blocks: int,
    *,
    dyadic_depth: int = 6,
    grid_refinement: int = 1,
) -> tuple[float, float, float]:
    """Both sides of the embedding inequality on a concrete function.

    Returns (lhs, rhs_core, ratio) with lhs the measured weighted variation
    and rhs_core the measured modulus ratio norm times the criterion partial
    sum to the power 1/r'.  The attached constant is unknown, so the ratio is
    reported, never asserted; it is scale invariant.  A family whose
    criterion diverges is rejected: the ratio would be meaningless.
    """
    crit = criterion_partial_sums(lam, p, alpha, n_blocks)
    if crit.symbolic_verdict == "diverges":
        raise ValueError("criterion series diverges for this family; ratio is meaningless")
    lhs = lambda_variation(f, lam)
    if lhs == 0.0:
        return 0.0, 0.0, 0.0
    ratio_norm = p_cont_ratio_norm(f, p, alpha, dyadic_depth, grid_refinement)
    rhs_core = ratio_norm * crit.partial_sums[-1] ** (1.0 / crit.r_prime)
    return lhs, rhs_core, lhs / rhs_core


def perlman_witness(d_power: float, p: float, checkpoints) -> np.ndarray:
    """Companion sums of lambda_n = (sum_{k<=n} d_k^p) / d_n^(p-1), d_n =
    n^-d_power: row i is (sum_{n<=N} d_n/lambda_n, sum_{n<=N} lambda_n^-p')
    at N = checkpoints[i].  The first, sum d_n^p / sum_{k<=n} d_k^p, diverges
    whenever sum d_n^p does; the second converges.

    One pass in parts of PERLMAN_PART terms carries the running sums and the
    reciprocal weights' running minimum (a float guard: they are
    nonincreasing already) into each part's first term; np.cumsum adds from
    left to right, so each sum is the whole-array one bit for bit.  Every d_n
    is checked before the weights are.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError("p must satisfy p > 1")
    checkpoints = [_integer(n, "checkpoints") for n in checkpoints]
    if not checkpoints or min(checkpoints) < 1:
        raise ValueError("checkpoints must be a nonempty sequence of positive term counts")
    power_sum, carry, unsorted, least, last_d = 0.0, np.zeros(2), False, math.inf, math.inf
    sums = np.empty((len(checkpoints), 2))
    with np.errstate(all="ignore"):  # a term out of range raises below
        for lo in range(0, max(checkpoints), PERLMAN_PART):
            both = np.empty((2, min(PERLMAN_PART, max(checkpoints) - lo)))
            d, terms = both
            d[:] = np.arange(lo + 1, lo + d.size + 1)
            d **= -d_power
            if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
                raise ValueError("d entries must be positive and finite")
            unsorted = unsorted or d[0] > last_d or bool(np.any(d[1:] > d[:-1]))
            last_d = d[-1]
            terms[:] = d**p
            terms[0] += power_sum
            power_sum = np.cumsum(terms, out=terms)[-1]
            np.divide(d ** (p - 1.0), terms, out=terms)
            # the reciprocal weights' running minimum, taken only where they rise
            if terms[0] > least or np.any(terms[1:] > terms[:-1]):
                terms[0] = min(terms[0], least)
                np.minimum.accumulate(terms, out=terms)
            least = terms[-1]
            np.divide(d, np.divide(1.0, terms, out=terms), out=d)
            np.power(terms, -p / (p - 1.0), out=terms)
            both[:, 0] += carry
            carry = np.cumsum(both, axis=1, out=both)[:, -1].copy()
            for i, n in enumerate(checkpoints):
                if lo < n <= lo + d.size:
                    sums[i] = both[:, n - lo - 1]
        if unsorted:
            raise ValueError("d must be nonincreasing")
        # the weights are nondecreasing, so the last, 1/least, is the largest
        if not np.isfinite(1.0 / least):
            raise ValueError("sequence terms must be positive and finite")
    return sums


def wang_gap_family(p: float, alpha: float, s: float) -> LambdaSequence:
    """Block weight family for which the power necessary condition holds (its
    series converges) while the embedding criterion fails (its series
    diverges): lambda_k = 2^(n(1-alpha)) n^((1-alpha)s) on k in
    [2^n, 2^(n+1)), for s strictly inside (1, (1+1/p-alpha)/(1-alpha))."""
    embedding_exponents(p, alpha)
    # the series verdicts read p, alpha and s as the decimals they were written as
    ep, ea = _exact(p), _exact(alpha)
    upper = (1 + 1 / ep - ea) / (1 - ea)
    if not (math.isfinite(s) and 1 < _exact(s) < upper):
        raise ValueError(f"s must lie strictly inside the gap window (1, {float(upper):g})")
    return LambdaSequence.block_power_log(s, alpha)
