"""Shared test utilities: random inputs, brute-force oracles and an
exhaustive system oracle.

circle_oracle deliberately avoids the library's chain DP and extremum
search: it enumerates every system of nonoverlapping index pairs over a
small candidate set, cutting the circle at each candidate in turn, so the
fast implementations can be checked against a search with no shortcuts.
chain_dp is the chain maximization one point at a time over the whole cut
chain (chain_from_cycle), with no split into humps, and hump_pair_classes
classes each (delta, hump) pair of the modulus profile (humps from
chain_humps) one step at a time; subset_scan_max scores every cyclic subset
of extremum values, with no anchor, window rule or bound, and
chunked_subset_scan_max does the same in vectorized blocks for 17 to ~22
values.  The brute_* oracles run these on arbitrary candidate grids, with
the circle cut at every candidate instead of at a global maximum.
IntervalSystem and system_*_sum score one explicit system of intervals.
mp_shift_norm is the matching reference for the L^p shift integral: mpmath
at 40 digits, one piece at a time (mp_shift_power, before the root).
mp_l2_modulus_profile is the exact L^2 modulus: per interval between
breakpoint differences, the cubic through four squared shift norms,
maximized in mpmath; assert_matches_lp_reference holds the library's
modulus to it at p = 2 and to mp_lp_modulus_profile, the max over the
library's shift samples, otherwise.  mp_power_sum is the reference for long
power sums: Hurwitz zeta differences at 60 digits (a per-block
Euler-Maclaurin sum at c <= 0), rounded once by nearest_double.  one_array_block_sum is
a direct block sum as one np.sum over every term at once, the bitwise
reference for the library's chunked sum.  folded_lp_profile is the L^p
modulus without the Lipschitz pruning: every shift sample integrated.
witness_heights reads each level's tooth heights back off a witness,
comb_ratio_norm_by_arcs measures a built witness's continuum ratio norm one
arc at a time, and comb_grid_modulus is a witness's grid modulus in closed
form from its level data.
hardy_by_loop is the bitwise reference for hardy_two_sides: one row at a
time, every power and addition in Python floats from left to right.
perlman_weights_by_arrays is Perlman's weight sequence over a whole
array d; perlman_sums_by_arrays takes its companion series as whole-array
cumulative sums, the bitwise reference for perlman_witness, and
perlman_demo_by_arrays is the perlman-demo runner on those sums.
sequence_to_json writes a weight sequence in the sequence file format.
"""

import functools
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lambdabv import Interval, LambdaSequence, TriangleCombSpec, increment, make_plpf, monotone_arcs
from lambdabv.cli import PERLMAN_DECADES, ValidationError, _field
from lambdabv.sequences import _FAMILIES
from lambdabv.variation import _refined_cycle, _shift_norms, _shift_samples

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    """Run the CLI in a child interpreter that imports this checkout's src;
    a child that printed a traceback or a warning fails the calling test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lambdabv", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, (args, proc.stderr)
    return proc


def sequence_to_json(lam):
    """Serialize to the sequence file format."""
    if lam.family == "explicit":
        obj = {"family": "explicit", "terms": [float(v) for v in lam.explicit_terms]}
    else:
        params = {name: getattr(lam, name) for name in _FAMILIES[lam.family].params}
        obj = {"family": lam.family, "params": params}
    return json.dumps(obj)


def random_plpf(rng, max_breaks=8, scale=1.5, min_gap=1e-3, min_breaks=2):
    n = int(rng.integers(min_breaks, max_breaks + 1))
    while True:
        pos = np.sort(rng.uniform(0.0, 1.0, n))
        gaps = np.diff(np.concatenate([pos, [pos[0] + 1.0]]))
        if np.min(gaps) > min_gap:
            break
    vals = rng.uniform(-scale, scale, n)
    return make_plpf(list(zip(pos.tolist(), vals.tolist())))


def alternating_plpf(rng, m):
    """m breakpoints at jittered uniform positions whose values alternate
    between maxima in [0.2, 1) and minima in [-1, -0.2): m monotone arcs (m
    even) and, almost surely, no common baseline."""
    k = np.arange(m)
    pos = (k + rng.uniform(0.0, 0.5, m)) / m
    vals = np.where(k % 2 == 0, rng.uniform(0.2, 1.0, m), rng.uniform(-1.0, -0.2, m))
    return make_plpf(list(zip(pos.tolist(), vals.tolist())))


def random_comb_spec(rng, max_teeth=8):
    n = int(rng.integers(1, max_teeth + 1))
    a = float(rng.uniform(0.0, 1.0))
    length = float(rng.uniform(0.1, 1.0))
    heights = rng.uniform(0.0, 2.0, n)
    heights[int(rng.integers(0, n))] += 0.05  # keep at least one tooth real
    return TriangleCombSpec(Interval(a, length), n, tuple(heights.tolist()))


def witness_heights(g, levels):
    """Tooth heights of a witness of levels 1..levels, one array per level:
    its apexes g.values[1::2] in layout order, 2^n of them for level n."""
    return np.split(g.values[1::2], np.cumsum([2**n for n in range(1, levels)]))


def comb_ratio_norm_by_arcs(g, p, alpha, deltas):
    """max over deltas of omega_{1-1/p}(g; delta) / delta^(alpha - 1/p), the
    modulus over all intervals, for a baseline-separated g whose monotone
    arcs are single segments, summed one arc of g at a time: an arc of length
    l and rise h cut into floor(l/delta) pieces of length delta and one
    remainder, as the exact branch of perfbench's oracle.comb_modulus."""
    assert monotone_arcs(g).is_baseline_separated()
    dx = np.diff(g.positions, append=g.positions[0] + 1.0)
    dy = np.diff(g.values, append=g.values[0])
    sign = np.sign(dy[dy != 0.0])
    assert np.all(sign != np.roll(sign, 1)), "an arc spans more than one segment"
    lengths, h = dx[dy != 0.0], np.abs(dy[dy != 0.0])
    best = 0.0
    for d in deltas:
        full = np.floor(lengths / d)
        rest = lengths / d - full
        total = np.sum(full * (h * d / lengths) ** p + (h * rest * d / lengths) ** p)
        best = max(best, float(total) ** (1.0 / p) / d ** (alpha - 1.0 / p))
    return best


def mp_comb_ratio_norm(comb, depth):
    """WitnessComb.ratio_norm's dyadic formula at 50 digits over the built
    heights: each level's sum of H^p taken term by term, each arc cut into
    floor(x) pieces of length delta and one remainder, x = arc / delta."""
    with mpmath.workdps(50):
        p = mpmath.mpf(comb.p)
        a_exp = mpmath.mpf(comb.alpha) - 1 / p
        levels = range(1, len(comb.starts) + 1)
        sums = [mpmath.fsum(mpmath.mpf(h) ** p for h in comb.heights[2**n - 2 : 2 ** (n + 1) - 2]) for n in levels]
        best = mpmath.mpf(0)
        for j in range(depth + 1):
            delta = mpmath.mpf(2) ** -j
            total = mpmath.mpf(0)
            for n, power_sum in zip(levels, sums):
                x = mpmath.mpf(comb.tile_lengths[n - 1]) / 2 ** (n + 1) / delta
                phi = 1 if x <= 1 else (mpmath.floor(x) + (x - mpmath.floor(x)) ** p) / x**p
                total += 2 * power_sum * phi
            best = max(best, total ** (1 / p) / delta**a_exp)
        return float(best)


def comb_grid_modulus(comb, p, deltas, refinement=0):
    """omega_{1-1/p} of comb.function() on its grid of ``refinement`` points
    per segment, per delta, in closed form from the WitnessComb level data
    (all heights positive), as the grid branch of perfbench's
    oracle.comb_modulus: the comb is baseline-separated and each of its arcs,
    two per tooth, is one segment of refinement + 1 grid steps, cut on its
    own into q pieces of K steps, K the most steps within delta, and one
    remainder of r steps."""
    steps = refinement + 1
    ns = np.arange(1, len(comb.starts) + 1)
    arcs = np.repeat(comb.tile_lengths / 2.0 ** (ns + 1), 2**ns)
    rise = (comb.heights / steps) ** p
    out = []
    for d in deltas:
        # a hair below the step, so that a float tie never admits a piece the grid would not
        k = np.minimum(np.floor(d / (arcs * (1.0 + 1e-12) / steps)), steps)
        q = np.where(k > 0, steps // np.maximum(k, 1), 0)
        r = np.where(k > 0, steps - q * k, 0)
        out.append(float(np.sum(2.0 * (q * k**p + r**p) * rise)) ** (1.0 / p))
    return out


def random_lambda_prefix(rng, n, start=0.2):
    return start + np.cumsum(rng.uniform(0.05, 1.0, n))


@dataclass(frozen=True)
class IntervalSystem:
    """Finite list of closed intervals with pairwise disjoint interiors whose
    union fits inside one period."""

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        ivs = self.intervals
        if not ivs:
            return
        total = sum(iv.length for iv in ivs)
        if total > 1.0 + 1e-12:
            raise ValueError("total interval length exceeds one period")
        # a valid system leaves some interval end non-interior; cut there and
        # check the unrolled intervals are ordered without interior overlap
        for cut in {iv.b % 1.0 for iv in ivs}:
            shifted = sorted(((iv.a - cut) % 1.0, iv.length) for iv in ivs)
            ok = all(s + ln <= 1.0 + 1e-12 for s, ln in shifted)
            for (s0, l0), (s1, _) in zip(shifted, shifted[1:]):
                if s1 < s0 + l0 - 1e-12:
                    ok = False
                    break
            if ok:
                return
        raise ValueError("intervals overlap or do not fit inside one period")


def system_p_sum(f, system, p):
    """(sum |f(I)|^p)^(1/p) for one explicit interval system."""
    if not system.intervals:
        return 0.0
    incs = np.asarray([increment(f, iv) for iv in system.intervals])
    return float(np.sum(np.abs(incs) ** p) ** (1.0 / p))


def system_lambda_sum(f, system, lam):
    """Sorted-weighted increment sum for one explicit interval system."""
    if not system.intervals:
        return 0.0
    incs = np.sort(np.abs([increment(f, iv) for iv in system.intervals]))[::-1]
    return float(incs @ (1.0 / lam.terms(len(incs))))


def chain_dp(xs, ys, p, delta):
    """Max of sum |y_j - y_i|^p over nonoverlapping index intervals of the
    whole chain with x-length <= delta, one chain point at a time and with no
    split into humps.  Returns the p-power sum."""
    n = len(xs)
    best = np.zeros(n)
    square = p == 2.0
    # the full-period pair is the only one whose float length can exceed 1,
    # and its increment is exactly zero, so delta = 1 admits every pair
    unbounded = delta >= 1.0
    for j in range(1, n):
        lo = 0 if unbounded else int(np.searchsorted(xs, xs[j] - delta, side="left"))
        b = best[j - 1]
        if lo < j:
            d = ys[j] - ys[lo:j]
            cand = best[lo:j] + (d * d if square else np.abs(d) ** p)
            m = cand.max()
            if m > b:
                b = m
        best[j] = b
    return float(best[-1])


def chain_from_cycle(cx, cy, i):
    """Cut the cycle (cx, cy) before index i: a chain spanning exactly one
    period from cx[i] to cx[i] + 1."""
    return np.concatenate([cx[i:], cx[: i + 1] + 1.0]), np.concatenate([cy[i:], cy[: i + 1]])


def chain_dp_profile(f, p, deltas, refinement=0):
    """Reference for the library's modulus profile: chain_dp on the refined
    cycle cut at its global maximum, p-th root, per delta."""
    cx, cy = _refined_cycle(f, refinement)
    xs, ys = chain_from_cycle(cx, cy, int(np.argmax(cy)))
    return [chain_dp(xs, ys, p, d) ** (1.0 / p) for d in deltas]


def chain_humps(f, refinement=0):
    """The refined cycle cut at its global maximum, and the first and last
    chain indices of its humps, split at every point of the global minimum:
    (xs, starts, ends)."""
    cx, cy = _refined_cycle(f, refinement)
    xs, ys = chain_from_cycle(cx, cy, int(np.argmax(cy)))
    is_cut = ys == ys.min()
    is_cut[[0, -1]] = True
    cuts = np.flatnonzero(is_cut)
    return xs, cuts[:-1], cuts[1:]


def hump_pair_classes(f, deltas, refinement=0):
    """Reference classes of the modulus profile's (delta, hump) pairs: one row
    per delta, one column per hump of chain_humps; 2 free (the hump's first
    and last points admissible), 1 constrained (some consecutive step
    admissible), 0 empty (none).  Every step is tested with the chain DP's
    own test xs[i] >= xs[j] - delta, with delta >= 1 admitting every pair."""
    xs, starts, ends = chain_humps(f, refinement)
    out = np.zeros((len(deltas), len(starts)), dtype=int)
    for row, d in zip(out, deltas):
        lim = d if d < 1.0 else math.inf
        row[np.logical_or.reduceat(xs[:-1] >= xs[1:] - lim, starts)] = 1
        row[xs[starts] >= xs[ends] - lim] = 2
    return out


def max_over_cuts(cx, cy, p, delta):
    """Chain maximization of the cycle (cx, cy) with the circle cut at every
    point, not only at a global maximum.  Returns the p-power sum."""
    return max(chain_dp(*chain_from_cycle(cx, cy, i), p, delta) for i in range(len(cx)))


def brute_p_variation(f, p, candidate_points):
    """Oracle for v_p on a finite grid: chain maximization over sorted
    candidates, tried over every circle cut.  Returns the p-power sum."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("p must satisfy p >= 1")
    pts = np.unique(np.mod(np.asarray(candidate_points, dtype=float), 1.0))
    if len(pts) < 2:
        return 0.0
    return max_over_cuts(pts, np.asarray(f.eval(pts)), p, 1.0)


def subset_scan_max(values, lam):
    """Max of the sorted-weighted increment sum over every cyclic subset of
    at least two of ``values``, one subset at a time: the tiling of the
    circle by consecutive chosen points, its increments sorted against
    1/lambda in one dot product."""
    m = len(values)
    if m < 2:
        return 0.0
    lam.require(m)
    inv = 1.0 / lam.terms(m)
    bits = 1 << np.arange(m)
    best = 0.0
    for mask in range(1, 1 << m):
        if mask.bit_count() < 2:
            continue
        chosen = values[mask & bits != 0]
        diffs = np.abs(chosen - np.concatenate((chosen[1:], chosen[:1])))
        diffs[::-1].sort()
        s = float(diffs @ inv[: len(diffs)])
        if s > best:
            best = s
    return best


def chunked_subset_scan_max(values, lam):
    """subset_scan_max over blocks of 2^13 masks at once, for 17 to ~22
    values.  Unchosen points get increment 0; each chosen point takes the
    value of the next chosen one, found as a running minimum of chosen
    indices over two laps.  Sums run in another order than the one-subset
    scan, so results agree to rounding, not bit for bit."""
    values = np.asarray(values, dtype=float)
    m = len(values)
    if m < 2:
        return 0.0
    lam.require(m)
    inv = 1.0 / lam.terms(m)
    lap = np.arange(2 * m)
    chunk = 1 << 13
    best = 0.0
    for start in range(0, 1 << m, chunk):
        masks = np.arange(start, min(start + chunk, 1 << m), dtype=np.int64)
        chosen = (masks[:, None] >> np.arange(m)) & 1 == 1
        marks = np.where(np.tile(chosen, 2), lap, 2 * m)
        after = np.minimum.accumulate(marks[:, ::-1], axis=1)[:, ::-1]
        nxt = after[:, 1 : m + 1] % m
        diffs = np.where(chosen, np.abs(values - values[nxt]), 0.0)
        diffs = -np.sort(-diffs, axis=1)
        best = max(best, float((diffs @ inv).max()))
    return best


def brute_lambda_variation(f, lam, candidate_points):
    """Oracle: exact max of sum |f(I_n)| / lambda_sigma(n) over all systems of
    nonoverlapping intervals with endpoints among the candidates and all
    weight assignments sigma (sorted-decreasing is optimal by rearrangement).
    """
    pts = np.unique(np.mod(np.asarray(candidate_points, dtype=float), 1.0))
    if len(pts) > 14:
        raise ValueError("brute enumeration supports at most 14 candidate points")
    if len(pts) < 2:
        return 0.0
    return subset_scan_max(np.asarray(f.eval(pts)), lam)


def iter_line_systems(n):
    """Yield every tuple of nonoverlapping index pairs over n ordered points.

    Pairs may share endpoints; interiors never overlap. Each system is
    produced exactly once, ordered by left endpoint.
    """

    def rec(start):
        yield ()
        for i in range(start, n - 1):
            for j in range(i + 1, n):
                for rest in rec(j):
                    yield ((i, j),) + rest

    return rec(0)


def circle_oracle(f, candidates, score, max_length=None):
    """Maximize score(list of increments) over all systems on the circle.

    Cuts the circle at each candidate point, unrolls to a line, and
    enumerates all nonoverlapping pair systems (optionally restricted to
    pairs spanning at most max_length).
    """
    pts = sorted({float(c) % 1.0 for c in candidates})
    m = len(pts)
    vals = [float(f.eval(x)) for x in pts]
    best = 0.0
    for cut in range(m):
        xs = [pts[(cut + k) % m] + (1.0 if cut + k >= m else 0.0) for k in range(m)]
        xs.append(pts[cut] + 1.0)
        ys = [vals[(cut + k) % m] for k in range(m)] + [vals[cut]]
        for system in iter_line_systems(m + 1):
            if max_length is not None and any(
                xs[j] - xs[i] > max_length + 1e-12 for i, j in system
            ):
                continue
            incs = [ys[j] - ys[i] for i, j in system]
            best = max(best, score(incs))
    return best


def p_sum_score(p):
    def score(incs):
        return float(sum(abs(v) ** p for v in incs))

    return score


def lambda_sum_score(lam_terms):
    terms = np.asarray(lam_terms, dtype=float)

    def score(incs):
        mags = sorted((abs(v) for v in incs), reverse=True)
        return float(sum(m / terms[k] for k, m in enumerate(mags)))

    return score


@functools.lru_cache(maxsize=None)
def _mp_pieces(f, h):
    """(width, u, v) per linear piece of f(. + h) - f, at 40 digits, over the
    deduplicated kinks (breakpoints and breakpoints shifted back by h)."""
    pos = [mpmath.mpf(x) for x in f.positions]
    val = [mpmath.mpf(y) for y in f.values]
    h = mpmath.mpf(h)
    ext_x = [pos[-1] - 1] + pos + [pos[0] + 1]
    ext_y = [val[-1]] + val + [val[0]]

    def ev(x):
        x = x - mpmath.floor(x)
        i = bisect_right(ext_x, x) - 1
        t = (x - ext_x[i]) / (ext_x[i + 1] - ext_x[i])
        return ext_y[i] + t * (ext_y[i + 1] - ext_y[i])

    kinks = sorted(set(pos) | {(x - h) - mpmath.floor(x - h) for x in pos})
    ends = kinks[1:] + [kinks[0] + 1]
    diff = [ev(x + h) - ev(x) for x in kinks]
    return tuple(zip([b - a for a, b in zip(kinks, ends)], diff, diff[1:] + diff[:1]))


def mp_shift_power(f, h, p):
    """||f(. + h) - f||_p^p in mpmath at 40 digits, as an mpf.

    The kinks are exact at this precision, the difference is evaluated at
    each kink, and each linear piece is integrated exactly in closed form;
    only a piece flat to 1e-20 takes |midpoint|^p, whose error is below 1e-40.
    """
    if len(f.positions) == 1 or h == 0:
        return mpmath.mpf(0)
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        g = lambda c: mpmath.sign(c) * abs(c) ** (p + 1) / (p + 1)
        total = mpmath.mpf(0)
        for w, u, v in _mp_pieces(f, h):
            m = (u + v) / 2
            if abs(v - u) <= mpmath.mpf("1e-20") * abs(m):
                total += w * abs(m) ** p
            else:
                total += w * (g(v) - g(u)) / (v - u)
        return total


def mp_shift_norm(f, h, p):
    """Reference ||f(. + h) - f||_p: mp_shift_power's root, rounded once."""
    with mpmath.workdps(40):
        return float(mp_shift_power(f, h, p) ** (1 / mpmath.mpf(p)))


def nearest_double(x) -> float:
    """The double nearest to the mpf x, rounded once.  float(x) rounds a
    value below the normal range twice, to 53 bits and then to the bits the
    subnormal keeps, and can land one ulp off."""
    man, exp = x.man_exp
    try:
        return float(Fraction(man) * Fraction(2) ** exp)
    except OverflowError:
        return math.inf if man > 0 else -math.inf


def mp_power_sum(c, lo, hi):
    """sum_{k=lo}^{hi} k^-c at 60 significant digits, rounded to the nearest
    double: zeta(c, lo) - zeta(c, hi + 1) for c >= 0 (digamma at c = 1), and
    for c < 0, where mpmath's Hurwitz zeta takes seconds to minutes a block,
    the terms below -c + 64 one by one and an Euler-Maclaurin sum of the rest,
    this block alone, with mpmath's Bernoulli numbers.

    mpmath's Hurwitz zeta stops its tail at an absolute 2^-prec, so a sum far
    below 1 would keep only the digits above that, and the difference cancels
    the digits of zeta(c, lo) ~ lo^(1-c)/(c-1) (digamma(lo) ~ log lo) above
    the sum; the precision grows by the larger of the binary exponent of the
    largest term lo^-c and the bits that cancel, against the least the sum can
    be, the larger of lo^-c and (hi - lo + 1) hi^-c.  A sum that bounds itself below 2^-1100 by
    (hi - lo + 1) lo^-c rounds to 0.0.
    """
    if c < 0:
        return nearest_double(_mp_em_power_sum(c, lo, hi))
    with mpmath.workdps(60):
        largest = mpmath.mpf(lo) ** -c
        if largest * (hi - lo + 1) < mpmath.mpf(2) ** -1100:
            return 0.0
        size = mpmath.log(lo + 1) if c == 1 else mpmath.mpf(lo) ** (1 - c) / abs(c - 1)
        least = max(largest, (hi - lo + 1) * mpmath.mpf(hi) ** -c)
        prec = mpmath.mp.prec + max(0, -mpmath.mag(largest), mpmath.mag(size) - mpmath.mag(least))
    with mpmath.workprec(prec):
        if c == 1:
            return nearest_double(mpmath.digamma(hi + 1) - mpmath.digamma(lo))
        return nearest_double(mpmath.zeta(c, lo) - mpmath.zeta(c, hi + 1))


def _mp_em_power_sum(c, lo, hi):
    """sum_{k=lo}^{hi} k^-c for c < 0 at 60 digits, more by the digits that
    b^(1-c) - a^(1-c) cancels: int f + (f(a) + f(b))/2 +
    sum_j B_2j/(2j)! (f^(2j-1)(b) - f^(2j-1)(a)) over [a, b] for f(x) = x^-c,
    from a = -c + 64 on, until a term is below 1e-70 of the sum."""
    a = min(hi + 1, max(lo, int(-c) + 64))
    with mpmath.workdps(60 + len(str(a // max(hi - a, 1)))):
        s = -mpmath.mpf(c)
        total = mpmath.fsum(mpmath.mpf(k) ** s for k in range(lo, a))
        if a > hi:
            return total
        # f^(m)(x) = s (s - 1) ... (s - m + 1) x^(s - m)
        total += (mpmath.mpf(hi) ** (s + 1) - mpmath.mpf(a) ** (s + 1)) / (s + 1)
        total += (mpmath.mpf(hi) ** s + mpmath.mpf(a) ** s) / 2
        falling = s
        for j in itertools.count(1):
            m = 2 * j - 1
            term = mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * falling * (
                mpmath.mpf(hi) ** (s - m) - mpmath.mpf(a) ** (s - m))
            total += term
            if abs(term) <= mpmath.mpf(10) ** -70 * abs(total):
                return total
            falling *= (s - m) * (s - m - 1)


def hardy_by_loop(beta, r, a, nu):
    """hardy_two_sides one row at a time in Python floats: the prefix sums,
    each term 2^(-n beta) * pow(s_n, 1/r) (an empty block's s_n is 0.0) and
    each side's total added explicitly from left to right, starting at 0.0."""
    lhs, rhs = [], []
    for row in np.asarray(a, dtype=float).tolist():
        m = len(row)
        prefix = [0.0]
        for x in row:
            prefix.append(prefix[-1] + x)
        top = [min(math.floor(v), m) for v in nu]
        head = 0.0
        for n in range(len(nu)):
            head = head + 2.0 ** (-n * beta) * pow(prefix[top[n]], 1.0 / r)
        tail = 0.0
        for n in range(1, len(nu)):
            lo = min(math.ceil(nu[n - 1]), m + 1)
            s = prefix[top[n]] - prefix[lo - 1] if top[n] >= lo else 0.0
            tail = tail + 2.0 ** (-n * beta) * pow(s, 1.0 / r)
        lhs.append(head)
        rhs.append(tail)
    return np.array(lhs), np.array(rhs)


def perlman_weights_by_arrays(d, p: float) -> np.ndarray:
    """lambda_n = (sum_{k<=n} d_k^p) / d_n^(p-1) for a nonincreasing
    positive array d, as whole arrays: the cumulative sum, the reciprocal
    weights made monotone by their running minimum, and their reciprocals."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError("p must satisfy p > 1")
    arr = np.asarray(d, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("d must be a nonempty sequence")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("d entries must be positive and finite")
    if np.any(arr[1:] > arr[:-1]):
        raise ValueError("d must be nonincreasing")
    alpha = arr ** (p - 1.0) / np.cumsum(arr**p)
    if np.any(alpha[1:] > alpha[:-1]):
        np.minimum.accumulate(alpha, out=alpha)
    with np.errstate(divide="ignore", over="ignore"):
        # explicit() rejects a weight past the double range
        return LambdaSequence.explicit(1.0 / alpha).explicit_terms


def perlman_sums_by_arrays(d_power: float, p: float, n_terms: int):
    """d_n = n^-d_power for n <= n_terms and the whole-array cumulative
    sums of sum d_n/lambda_n and sum lambda_n^-p'."""
    d = np.arange(1, n_terms + 1, dtype=float)
    d **= -d_power
    terms = perlman_weights_by_arrays(d, p)
    return np.cumsum(d / terms), np.cumsum(np.power(terms, -p / (p - 1.0)))


def perlman_demo_by_arrays(config):
    """The perlman-demo runner over arrays of 10^6 doubles: d, Perlman's
    weights and each companion series' np.cumsum."""
    if not config.p > 1.0:
        raise ValidationError("p", "must satisfy p > 1")
    w = config.d_power if config.d_power is not None else 1.0 / config.p
    with _field("d-power"):
        divergent, convergent = perlman_sums_by_arrays(w, config.p, PERLMAN_DECADES[-1])
    rows = [[n, divergent[n - 1], convergent[n - 1]] for n in PERLMAN_DECADES]
    inc_div = float(divergent[-1] - divergent[10**5 - 1])
    summary = {
        "p": config.p,
        "d_power": w,
        "terms": PERLMAN_DECADES[-1],
        "last_decade_increment_divergent": inc_div,
        "last_decade_increment_convergent": float(convergent[-1] - convergent[10**5 - 1]),
    }
    failure = None
    if inc_div < 0.05:
        failure = (
            "expected the divergent companion sum to grow by at least 0.05 over the "
            f"last decade, got {inc_div:.6g}"
        )
    header = ["N", "sum_d_over_lambda", "sum_lambda_minus_pprime"]
    return header, rows, summary, {}, failure


def one_array_block_sum(lam, k_exp, lam_exp, lo, hi):
    """sum_{k=lo}^{hi} k^-k_exp lambda_k^-lam_exp as one np.sum over arrays
    of every term, in numpy's pairwise order."""
    k = np.arange(lo, hi + 1, dtype=float)
    lam_k = _FAMILIES[lam.family].terms(lam, k)
    return float(np.sum(k**-k_exp * lam_k**-lam_exp))


def mp_lp_modulus_profile(f, p, deltas):
    """Per delta, the max of mp_shift_norm over the library's shift samples
    up to min(delta, 1/2) and over delta's own sample min(delta, 1 - delta)."""
    hs = _shift_samples(f)
    hs = hs[hs <= min(max(deltas), 0.5)]
    ref = np.asarray([mp_shift_norm(f, float(h), p) for h in hs])
    return [
        max(float(ref[hs <= min(d, 0.5)].max(initial=0.0)), mp_shift_norm(f, min(d, 1.0 - d), p))
        for d in deltas
    ]


def mp_l2_modulus_profile(f, deltas, squares=None):
    """The exact L^2 modulus per delta, max N(h) over h in [0, min(delta, 1/2)]
    with N(h) = ||f(. + h) - f||_2, sharing nothing with the library's sweep.

    N^2 is a cubic between consecutive breakpoint differences (x_j - x_i)
    mod 1, taken exactly at 40 digits, so on each such interval up to
    min(max delta, 1/2) the cubic through N^2 at four equally spaced points
    is maximized in mpmath: at the interval's ends (the second one clipped
    to delta) and at the roots of its derivative between them.
    ``squares(hs)`` gives N(h)^2 at a list of mpf shifts; by default
    mp_shift_power at 40 digits.
    """
    with mpmath.workdps(40):
        squares = squares or (lambda hs: [mp_shift_power(f, h, 2) for h in hs])
        pos = [mpmath.mpf(x) for x in f.positions]
        top = mpmath.mpf(min(max(deltas, default=0.0), 0.5))
        gaps = {b - a - mpmath.floor(b - a) for a in pos for b in pos}
        knots = sorted({k for k in gaps if k < top} | {mpmath.mpf(0), top})
        hs = [a + i * (b - a) / 3 for a, b in zip(knots, knots[1:]) for i in range(3)] + [top]
        ys = [mpmath.mpf(y) for y in squares(hs)]

        def peak(i, end):
            # the cubic y0 + d1 u + d2 u(u-1)/2 + d3 u(u-1)(u-2)/6 through
            # u = 0..3, maximized over u in [0, end]
            y0, y1, y2, y3 = ys[3 * i : 3 * i + 4]
            d1, d2, d3 = y1 - y0, y2 - 2 * y1 + y0, y3 - 3 * y2 + 3 * y1 - y0
            cubic = lambda u: y0 + d1 * u + d2 * u * (u - 1) / 2 + d3 * u * (u - 1) * (u - 2) / 6
            a, b, c = d3 / 2, d2 - d3, d1 - d2 / 2 + d3 / 3
            if a != 0 and b * b >= 4 * a * c:
                roots = [(-b + s * mpmath.sqrt(b * b - 4 * a * c)) / (2 * a) for s in (-1, 1)]
            else:
                roots = [-c / b] if a == 0 and b != 0 else []
            return max(cubic(u) for u in [mpmath.mpf(0), end] + [u for u in roots if 0 < u < end])

        whole = [peak(i, 3) for i in range(len(knots) - 1)]
        out = []
        for d in deltas:
            d = mpmath.mpf(min(d, 0.5))
            i = bisect_right(knots, d) - 1
            if i + 1 < len(knots):
                best = max(whole[:i] + [peak(i, 3 * (d - knots[i]) / (knots[i + 1] - knots[i]))])
            else:
                best = max(whole, default=0)
            out.append(float(mpmath.sqrt(max(best, 0))))
        return out


def assert_matches_lp_reference(f, p, deltas, got):
    """``got`` within 1e-12 of the mpmath reference: the sampled sup, or at
    p = 2 the exact sup, which must also reach the sampled one."""
    want = mp_lp_modulus_profile(f, p, deltas)
    if p == 2.0:
        assert all(g >= s * (1.0 - 1e-12) for g, s in zip(got, want)), (got, want)
        want = mp_l2_modulus_profile(f, deltas)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def folded_lp_profile(f, p, deltas):
    """The library's L^p modulus without its pruning: every shift sample on
    (0, 1/2] integrated by _shift_norms, and per delta the max over the
    samples up to min(delta, 1/2) and delta's own sample min(delta, 1 - delta)."""
    hs = _shift_samples(f)
    norms = _shift_norms(f, hs, p)
    return [
        max(float(norms[hs <= min(d, 0.5)].max(initial=0.0)),
            float(_shift_norms(f, np.asarray([min(d, 1.0 - d)]), p)[0]))
        for d in deltas
    ]
