"""Variation functionals of periodic piecewise-linear functions: p-variation,
weighted (Lambda) variation, modulus of p-continuity, L^p-modulus and ratio
norms.

All suprema over interval systems are computed exactly on their grids.  Four
reductions make this tractable and are themselves cross-checked by the
brute-force oracles of the tests: a maximizing system may take all its
endpoints at local extrema; cutting the circle at a global maximum never
loses value (splitting any interval at a global max point can only increase
the objective); neither does splitting the cut chain at every point of its
global minimum, so the p-continuity chain maximization runs per hump between
two such points; and for the Lambda-variation neither does inserting an
extremum that a system's interval skips unless it lies strictly between the
interval's end values, so its search steps only through such windows.

The L^p modulus is a max over sampled shifts h of ||f(.+h) - f||_p, which is
symmetric under h -> 1 - h and Lipschitz in h with constant ||f'||_p; so the
samples are fixed on (0, 1/2], each delta adds only its own sample folded
there, and a sample whose Lipschitz bound from integrated neighbours cannot
reach the running max is skipped.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .periodic import PiecewiseLinearPeriodic, monotone_arcs
from .sequences import LambdaSequence

__all__ = [
    "RatioNormReport",
    "p_variation",
    "lambda_variation",
    "modulus_p_continuity",
    "lp_modulus",
    "lip_norm",
    "p_cont_ratio_norm",
    "MAX_EXACT_ARCS",
    "H_SAMPLES",
    "MAX_DELTA_DEPTH",
]

# the exact search over local extrema is exponential in the worst case; beyond
# this arc count only baseline-separated functions are supported
MAX_EXACT_ARCS = 40

# uniform shift samples per unit shift in the L^p modulus; a power of two
H_SAMPLES = 64

# deepest dyadic scale of a ratio norm: 2^-1074 is the smallest positive double
MAX_DELTA_DEPTH = 1074

# cells per vectorized block: shift x breakpoint cells in the L^p modulus,
# hump x chain-point cells in the chain DP; temporaries stay small
_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class RatioNormReport:
    """Sup over a dyadic delta grid of modulus(delta) / delta^exponent.

    ``per_delta`` rows are (delta, modulus, ratio) with delta decreasing from
    1 to 2^-delta_grid; ``value`` equals the max of the ratio column.
    """

    value: float
    per_delta: tuple[tuple[float, float, float], ...]
    delta_grid: int


def _validate_lambda(lam: LambdaSequence) -> None:
    if not isinstance(lam, LambdaSequence):
        raise TypeError("lam must be a LambdaSequence")


def _refined_cycle(f: PiecewiseLinearPeriodic, refinement: int):
    """Breakpoint cycle with ``refinement`` uniform interior points inserted
    per segment; positions ascend from the first breakpoint over one period."""
    pos, val = f.positions, f.values
    x1 = np.append(pos[1:], pos[0] + 1.0)
    y1 = np.append(val[1:], val[0])
    fr = np.arange(refinement + 1) / (refinement + 1)
    cx = (pos[:, None] + (x1 - pos)[:, None] * fr).ravel()
    cy = (val[:, None] + (y1 - val)[:, None] * fr).ravel()
    return cx, cy


def _chain_from_cycle(cx: np.ndarray, cy: np.ndarray, i: int | None = None):
    """Cut the cycle before index ``i`` (by default its first global
    maximum): a chain spanning exactly one period from cx[i] to cx[i] + 1."""
    if i is None:
        i = int(np.argmax(cy))
    xs = np.concatenate([cx[i:], cx[:i] + 1.0, [cx[i] + 1.0]])
    ys = np.concatenate([cy[i:], cy[:i], [cy[i]]])
    return xs, ys


def _hump_dp(ys: np.ndarray, lo: np.ndarray, p: float) -> np.ndarray:
    """Per column of ``ys`` (a hump under one delta), the max of sum
    |y_j - y_i|^p over nonoverlapping row pairs i < j with i >= lo[j, column].
    Returns the p-power sums.

    One Python loop runs over the rows.  Row j starts at the smallest bound
    of all columns, and the entries before a column's own bound are masked
    to 0, which never beats the carried best (every sum is >= 0).  At p = 2
    the values match x * x bit for bit only because numpy computes an
    in-place ``**= 2.0`` as ``np.square``.
    """
    best = np.zeros(ys.shape)
    rows = np.arange(len(ys))[:, None]
    for j, start in enumerate(lo.min(axis=1).tolist()):
        if start >= j:
            if j:
                best[j] = best[j - 1]
            continue
        cand = ys[start:j] - ys[j]
        np.abs(cand, out=cand)
        cand **= p
        cand += best[start:j]
        cand[rows[start:j] < lo[j]] = 0.0
        np.maximum(best[j - 1], cand.max(axis=0), out=best[j])
    return best[-1]


def _p_power_profile(
    f: PiecewiseLinearPeriodic, p: float, deltas, refinement: int = 0
) -> list[float]:
    """omega_{1-1/p}(f; delta) on the refined grid for each delta: the p-th
    root of the max of sum |f(I)|^p over systems of grid intervals of length
    <= delta, exact on the grid.

    The circle is cut once at a global maximum, and the chain is split into
    humps at every point where it attains its global minimum b.  An interval
    holding such a point v splits at v into two shorter intervals that lose
    nothing, since |A - B|^p <= A^p + B^p for A, B >= 0 measured from b; so
    the p-power sum is the sum of the humps' own maximizations.  The pair
    (i, j) stays admissible iff xs[i] >= xs[j] - delta on the cut chain.
    Humps are batched in buckets of up to 2^k steps (split into blocks of
    about _BLOCK_CELLS cells), one hump per column, each padded with copies of
    its closing point, which add no length and no increment.  A block with
    cells to spare repeats its humps, one column per (delta, hump) pair, so
    few long humps take many deltas in one DP; each column does its own
    delta's additions, so each value is that of its delta alone.  Deltas run
    in groups whose hump powers fill at most _BLOCK_CELLS floats.
    """
    if refinement < 0:
        raise ValueError("grid_refinement must be nonnegative")
    xs, ys = _chain_from_cycle(*_refined_cycle(f, refinement))
    is_cut = ys == ys.min()
    is_cut[[0, -1]] = True
    cuts = np.flatnonzero(is_cut)
    starts, ends = cuts[:-1], cuts[1:]
    keys = np.frexp(ends - starts - 1)[1]
    # the full-period pair is the only one whose float length can exceed 1,
    # and its increment is exactly zero, so delta = 1 admits every pair: its
    # bounds come from x - inf
    limits = np.array([d if d < 1.0 else math.inf for d in deltas])[:, None]
    blocks = []
    for key in sorted(set(keys.tolist())):
        humps = np.flatnonzero(keys == key)
        span = np.arange(int((ends[humps] - starts[humps]).max()) + 1)[:, None]
        per = max(1, _BLOCK_CELLS // len(span))
        for c in range(0, len(humps), per):
            block = humps[c : c + per]
            idx = np.minimum(starts[block] + span, ends[block])
            reps = max(1, min(len(limits), per // len(block)))
            blocks.append((block, idx[0], xs[idx][:, None], np.tile(ys[idx], reps), reps))
    group = max(1, _BLOCK_CELLS // len(starts))
    out = []
    for g in range(0, len(limits), group):
        ds = limits[g : g + group]
        power = np.empty((len(ds), len(starts)))
        for humps, first, x, hy, reps in blocks:
            for k in range(0, len(ds), reps):
                # rows x deltas x humps: every delta's bounds in one search
                lo = np.searchsorted(xs, x - ds[k : k + reps], side="left")
                lo -= first
                np.maximum(lo, 0, out=lo)
                best = _hump_dp(hy[:, : lo[0].size], lo.reshape(len(lo), -1), p)
                power[k : k + reps, humps] = best.reshape(-1, len(humps))
        out.extend(math.fsum(row) ** (1.0 / p) for row in power.tolist())
    return out


def p_variation(f: PiecewiseLinearPeriodic, p: float) -> float:
    """v_p(f): sup of (sum |f(I_n)|^p)^(1/p) over systems of nonoverlapping
    intervals in a period.

    For piecewise-linear f the supremum is attained on the breakpoint grid,
    so the chain maximization below is exact (cross-checked against a
    brute-force oracle in the tests).
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("p must satisfy p >= 1")
    return _p_power_profile(f, p, [1.0])[0]


def modulus_p_continuity(
    f: PiecewiseLinearPeriodic, p: float, deltas, grid_refinement: int = 0
) -> list[float]:
    """omega_{1-1/p}(f; delta) for each delta in ``deltas``: the p-variation
    sup restricted to systems whose intervals have length <= delta.

    Endpoints run over the breakpoints plus ``grid_refinement`` uniform points
    per segment, so each value is a certified lower bound of the true
    supremum, converging upward with grid_refinement along nested
    refinements, and exact at refinement 0 when delta = 1.  The refined chain
    is built once for the whole grid; entry i equals the one-element grid
    [deltas[i]] bit for bit.
    """
    deltas = list(deltas)
    if not all(math.isfinite(d) and 0.0 < d <= 1.0 for d in deltas):
        raise ValueError("delta must lie in (0, 1]")
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError("p must satisfy p > 1")
    return _p_power_profile(f, p, deltas, grid_refinement)


def _sorted_weighted_sum(d_sorted: np.ndarray, lam: LambdaSequence) -> float:
    return float(d_sorted @ (1.0 / lam.terms(len(d_sorted))))


def _window_successors(v: list[float]) -> list[list[int]]:
    """For each i < m = len(v) - 1, the steps i -> j (i < j <= m) of the
    reduced search: every value strictly between positions i and j lies
    strictly inside (min(v[i], v[j]), max(v[i], v[j])).  j = i + 1 always
    qualifies; once the skipped values span v[i], no later j can."""
    m = len(v) - 1
    succ = []
    for i in range(m):
        vi = v[i]
        js = [i + 1]
        lo = hi = v[i + 1]
        for j in range(i + 2, m + 1):
            if lo <= vi <= hi:
                break
            vj = v[j]
            if min(vi, vj) < lo and hi < max(vi, vj):
                js.append(j)
            lo, hi = min(lo, vj), max(hi, vj)
        succ.append(js)
    return succ


def _cyclic_subset_max(values: np.ndarray, lam: LambdaSequence) -> float:
    """Exact max of the sorted-weighted increment sum F over all systems whose
    endpoints take the given cyclic values.

    For a fixed endpoint subset, tiling the circle with all consecutive
    intervals dominates every sparser pattern (adding a nonnegative increment
    never lowers F against nonincreasing weights 1/lambda), so a system is a
    cyclic subset.  Inserting a point into an interval never lowers F when it
    replaces the increment d by one >= d plus one more >= 0, which prunes the
    subsets to a depth-first search:

    - anchor: an interval around a global maximum splits that way, so the
      values are rotated to start at the first one and the search runs over
      paths 0 -> m, position m being 0 again;
    - window rule: a step i -> j is taken only if every value between them
      lies strictly inside (min(v_i, v_j), max(v_i, v_j)); a value outside
      splits the step that way, and one equal to an endpoint adds a 0;
    - bound: a path reaching i is dropped when F of its increments joined
      with R*(i) does not beat the best complete path.  U_b(i), the largest
      sum of b increments along any window path from i to m, comes from one
      backward pass, and R*(i) lists its steps U_b(i) - U_(b-1)(i).  The b
      largest increments of every completion sum to at most U_b(i), which
      the b largest of R*(i) reach, and F = sum over k of (w_k - w_(k+1))
      times the sum of the k largest is nondecreasing in each such sum, so
      the bound holds.  It is widened by a relative 1e-12 so that rounding
      cannot drop the best path.

    A complete path is scored as a scan over all subsets scores one (its
    increments sorted against 1/lambda in one dot product); the tests hold
    the result to that scan bit for bit.
    """
    m = len(values)
    inv = 1.0 / lam.terms(m)
    w = inv.tolist()
    g = int(np.argmax(values))
    v = np.concatenate([values[g:], values[:g], values[g : g + 1]]).tolist()
    succ = _window_successors(v)
    top = [np.zeros(m + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        for j in succ[i]:
            np.maximum(top[i], top[j], out=top[i])
            np.maximum(top[i][1:], top[j][:-1] + abs(v[j] - v[i]), out=top[i][1:])
    rest = [np.diff(u)[: m - i].tolist() for i, u in enumerate(top)]
    best = 0.0
    d = []

    def visit(i: int) -> None:
        nonlocal best
        for j in succ[i]:
            d.append(abs(v[j] - v[i]))
            if j == m:
                s = np.array(d)
                s[::-1].sort()
                s = float(s @ inv[: len(s)])
                if s > best:
                    best = s
            elif sum(map(operator.mul, sorted(d + rest[j], reverse=True), w)) * (1.0 + 1e-12) > best:
                visit(j)
            d.pop()

    visit(0)
    return best


def lambda_variation(f: PiecewiseLinearPeriodic, lam: LambdaSequence) -> float:
    """v_Lambda(f): sup over systems of nonoverlapping intervals of
    sum |f(I_n)| / lambda_n with the increments assigned to the weights in
    nonincreasing order (optimal by rearrangement).

    Exact for baseline-separated functions (all local minima equal, or all
    local maxima equal), where the sorted arc increments realize the
    supremum, and for functions with at most MAX_EXACT_ARCS monotone arcs via
    a pruned depth-first search over systems of local extrema anchored at a
    global maximum, whose intervals skip only extrema strictly between their
    end values.  Other shapes raise, rather than silently undercounting the
    supremum.
    """
    _validate_lambda(lam)
    dec = monotone_arcs(f)
    if dec.is_baseline_separated():
        d = np.sort(np.abs(dec.increments))[::-1]
        return _sorted_weighted_sum(d, lam)
    if len(dec) <= MAX_EXACT_ARCS:
        return _cyclic_subset_max(dec.start_values, lam)
    raise ValueError(
        f"function has {len(dec)} monotone arcs and no common baseline; the exact "
        f"search is exponential and supported only up to {MAX_EXACT_ARCS} arcs"
    )


def _shift_norms(f: PiecewiseLinearPeriodic, hs: np.ndarray, p: float) -> np.ndarray:
    """||f(.+h) - f||_p for each shift h in ``hs``, 0 <= h < 1, by exact
    integration of the difference D = f(.+h) - f, linear between its kinks:
    the breakpoints x_i, where D = f(x_i + h) - y_i, and the shifted
    breakpoints x_j - h (wrapped by adding 1 where negative), where
    D = y_j - f(x_j - h).  So each kink takes one interpolation, and the kinks
    are sorted together with their D values.  They are not deduplicated: a
    repeated kink is a zero-width piece and adds exactly 0.

    A piece from u to v of width w integrates to w (G(v) - G(u)) / (v - u),
    G(c) = sign(c)|c|^(p+1)/(p+1), and a piece's v is the next piece's u, so
    G is taken once per kink.  That cancels on a nearly flat piece, so where
    |v - u| <= 1e-3 |m|, m = (u + v)/2, the midpoint expansion
    w |m|^p (1 + p(p-1)x^2/24 + p(p-1)(p-2)(p-3)x^4/1920), x = (v - u)/m,
    replaces it (the dropped terms are O(x^6)).  Each shift's row is
    integrated on its own, so its norm does not depend on the other shifts.
    """
    pos, val = f.positions, f.values
    n = len(pos)
    rows = max(1, _BLOCK_CELLS // n)
    c2, c4 = p * (p - 1.0) / 24.0, p * (p - 1.0) * (p - 2.0) * (p - 3.0) / 1920.0
    out = np.empty(len(hs))
    for s in range(0, len(hs), rows):
        h = hs[s : s + rows, None]
        back = pos - h
        back += back < 0.0
        k = np.concatenate([np.broadcast_to(pos, back.shape), back], axis=1)
        u = np.concatenate([f.eval(pos + h) - val, val - f.eval(back)], axis=1)
        order = np.argsort(k, axis=1)
        k = np.take_along_axis(k, order, axis=1)
        u = np.take_along_axis(u, order, axis=1)
        w = np.concatenate([k[:, 1:], k[:, :1] + 1.0], axis=1) - k
        g = np.sign(u) * np.abs(u) ** (p + 1.0) / (p + 1.0)
        v = np.roll(u, -1, axis=1)
        m, d = 0.5 * (u + v), v - u
        near = np.abs(d) <= 1e-3 * np.abs(m)
        piece = (np.roll(g, -1, axis=1) - g) / np.where(near, 1.0, d)
        mn = m[near]
        x2 = (d[near] / np.where(mn == 0.0, 1.0, mn)) ** 2
        piece[near] = np.abs(mn) ** p * (1.0 + c2 * x2 + c4 * x2 * x2)
        out[s : s + len(h)] = np.sum(w * piece, axis=1)
    return out ** (1.0 / p)


_DYADIC_SHIFTS = tuple(2.0 ** (-j) for j in range(1, 41))


def _shift_samples(f: PiecewiseLinearPeriodic) -> np.ndarray:
    """Shift samples on (0, 1/2], ascending: the breakpoint differences
    (while n^2 <= 10^6), a uniform grid of H_SAMPLES per unit shift and the
    dyadic shifts 2^-1 ... 2^-40.

    They do not depend on delta, and N(h) = N(1 - h) makes samples above
    1/2 redundant, so the sup up to any delta reads a prefix of this set.
    """
    pos = f.positions
    hs = [np.asarray(_DYADIC_SHIFTS), np.linspace(0.0, 0.5, H_SAMPLES // 2 + 1)]
    if len(pos) ** 2 <= 1_000_000:
        hs.append(np.mod(pos[None, :] - pos[:, None], 1.0).ravel())
    h = np.concatenate(hs)
    h = np.sort(h[(h > 0.0) & (h <= 0.5)])
    return h[np.diff(h, prepend=0.0) > 0.0]


def _shift_bounds(
    f: PiecewiseLinearPeriodic, p: float, hs: np.ndarray, norms: np.ndarray, done: np.ndarray
) -> np.ndarray:
    """Upper bounds of N(h) = ||f(.+h) - f||_p at the shifts hs[~done], from
    the values norms[done] at the integrated ones (hs ascending, done[0] set).

    |N(h1) - N(h2)| <= |h1 - h2| ||f'||_p by Minkowski, so each bound is the
    smaller of N + |h - h'| ||f'||_p over the nearest integrated h' on either
    side.  ||f'||_p and the bound are widened by a relative 1e-9, plus 1e-12
    of the function's scale (max |y| + max |slope|), which covers the rounding
    of an interpolated f(x +- h) that every computed N carries.
    """
    dx = np.diff(f.positions, append=f.positions[0] + 1.0)
    slopes = np.abs(np.diff(f.values, append=f.values[0])) / dx
    lip = float(slopes**p @ dx) ** (1.0 / p) * (1.0 + 1e-9)
    known, rest = np.flatnonzero(done), np.flatnonzero(~done)
    right = np.searchsorted(known, rest)
    bound = np.minimum(
        *(norms[nb] + np.abs(hs[rest] - hs[nb]) * lip
          for nb in (known[right - 1], known[np.minimum(right, len(known) - 1)]))
    )
    return bound * (1.0 + 1e-9) + 1e-12 * (np.abs(f.values).max() + slopes.max())


def lp_modulus(f: PiecewiseLinearPeriodic, p: float, deltas) -> list[float]:
    """omega(f; delta)_p for each delta in ``deltas``: sup over shifts h in
    [0, delta] of N(h) = ||f(.+h) - f||_p.

    The shift integral is exact in closed form; the sup is taken over the
    samples of _shift_samples up to min(delta, 1/2) and delta's own sample
    min(delta, 1 - delta), since N(h) = N(1 - h) (substitute x -> x - h).
    Each value is thus a lower bound of the true modulus that depends on
    delta alone: entry i equals the one-element grid [deltas[i]] for every
    grid, and the values are monotone along a dyadic grid.

    N is Lipschitz with constant ||f'||_p, so a sample is skipped when the
    bound of _shift_bounds from its nearest integrated neighbours stays below
    the running max at the first delta whose prefix includes it.  Every 8th
    sample and the deltas' own samples are integrated first, then the
    survivors in at most three rounds (every other one, every other one, the
    rest).  A skipped sample cannot be the max of any delta's read, so the
    values equal integrating every sample, bit for bit.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("p must satisfy p >= 1")
    deltas = list(deltas)
    if not all(math.isfinite(d) and 0.0 <= d <= 1.0 for d in deltas):
        raise ValueError("delta must lie in [0, 1]")
    d = np.asarray(deltas, dtype=float)
    hs = _shift_samples(f)
    ends = np.searchsorted(hs, np.minimum(d, 0.5), side="right")
    hs = hs[: ends.max(initial=0)]
    # per sample, the end of the first read whose prefix includes it
    reads = np.sort(ends)
    opens = reads[np.searchsorted(reads, np.arange(len(hs)), side="right")]
    norms = np.zeros(len(hs))
    done = np.zeros(len(hs), dtype=bool)
    todo = np.arange(0, len(hs), 8)
    first = np.concatenate([hs[todo], np.minimum(d, 1.0 - d)])
    norms[todo], own = np.split(_shift_norms(f, first, p), [len(todo)])
    for step in (2, 2, 1):
        done[todo] = True
        rest = np.flatnonzero(~done)
        peak = np.maximum.accumulate(norms)
        todo = rest[_shift_bounds(f, p, hs, norms, done) >= peak[opens[rest] - 1]][::step]
        norms[todo] = _shift_norms(f, hs[todo], p)
    peak = np.maximum.accumulate(np.concatenate([[0.0], norms]))
    return np.maximum(peak[ends], own).tolist()


def _dyadic_grid(depth: int) -> list[float]:
    if not 1 <= depth <= MAX_DELTA_DEPTH:
        raise ValueError(f"dyadic_depth must lie in [1, {MAX_DELTA_DEPTH}]")
    return [2.0 ** (-j) for j in range(depth + 1)]


def _ratio_report(deltas, moduli, exponent: float, depth: int) -> RatioNormReport:
    rows = tuple((d, m, m / d**exponent) for d, m in zip(deltas, moduli))
    return RatioNormReport(max(r[2] for r in rows), rows, depth)


def lip_norm(
    f: PiecewiseLinearPeriodic,
    p: float,
    alpha: float,
    dyadic_depth: int,
) -> RatioNormReport:
    """sup over dyadic delta of omega(f; delta)_p / delta^alpha, a lower
    bound of the shift-modulus ratio norm (within a factor 2^alpha of the
    continuum sup by subadditivity of the modulus)."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError("p must satisfy p > 1")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    deltas = _dyadic_grid(dyadic_depth)
    return _ratio_report(deltas, lp_modulus(f, p, deltas), alpha, dyadic_depth)


def p_cont_ratio_norm(
    f: PiecewiseLinearPeriodic,
    p: float,
    alpha: float,
    dyadic_depth: int,
    grid_refinement: int = 0,
) -> RatioNormReport:
    """sup over dyadic delta of omega_{1-1/p}(f; delta) / delta^(alpha - 1/p).

    Requires alpha > 1/p; below that threshold the ratio norm does not
    control bounded functions and the query is rejected.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError("p must satisfy p > 1")
    if not (1.0 / p < alpha <= 1.0):
        raise ValueError("alpha must lie in (1/p, 1]")
    deltas = _dyadic_grid(dyadic_depth)
    moduli = _p_power_profile(f, p, deltas, grid_refinement)
    return _ratio_report(deltas, moduli, alpha - 1.0 / p, dyadic_depth)
