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

The L^p modulus is a sup over shifts h of ||f(.+h) - f||_p, symmetric under
h -> 1 - h: exact at p = 2 from one sweep over the sorted breakpoint
differences, and elsewhere a max over samples fixed on (0, 1/2], each delta
adding only its own sample folded there, where a sample whose Lipschitz
bound (constant ||f'||_p) from integrated neighbours cannot reach the
running max is skipped.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .periodic import PiecewiseLinearPeriodic, derivative_lp_norm, monotone_arcs
from .sequences import LambdaSequence, _integer

__all__ = [
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

# breakpoint differences serve as shift samples, and at p = 2 as sweep knots, up to this n^2
_MAX_DIFFERENCES = 1_000_000

# cells per vectorized block: shift x breakpoint cells in the L^p modulus,
# hump x chain-point cells in the chain DP; temporaries stay small
_BLOCK_CELLS = 4096


def _refined_cycle(f: PiecewiseLinearPeriodic, refinement: int):
    """Breakpoint cycle with ``refinement`` uniform interior points inserted
    per segment; positions ascend from the first breakpoint over one period."""
    pos, val = f.positions, f.values
    fr = np.arange(refinement + 1) / (refinement + 1)
    dx = np.concatenate([pos[1:], pos[:1] + 1.0]) - pos
    dy = np.concatenate([val[1:], val[:1]]) - val
    return (pos[:, None] + dx[:, None] * fr).ravel(), (val[:, None] + dy[:, None] * fr).ravel()


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

    A (delta, hump) pair is free if the hump's end points pass that test,
    and reads the hump's unconstrained value: one DP column, bounds from
    x - inf, per hump the largest delta frees (the test is monotone in delta).
    A pair is empty (0) if delta is below the hump's shortest step less a
    2^-50 slack, relative and absolute: on the cut chain, in [0, 3), x - delta
    rounds by at most 2^-52.  Other pairs take a column each.  Sorted widest
    hump first, the columns fill blocks in turn: a block whose first hump has
    w steps takes _BLOCK_CELLS // (w + 1) columns (at least one), each hump
    padded to w + 1 points with copies of its closing point, which add no
    length and no increment.  A column does only its own delta's additions
    and max is exact, so each value is that of its delta alone.  The deltas
    run in groups of at most 16 * _BLOCK_CELLS pairs.
    Each delta sums its row of a (delta, hump) table: one entry per hump,
    summed pairwise in an order fixed by that length, so a grid entry equals
    its one-element grid bit for bit and is monotone in delta.
    """
    if _integer(refinement, "grid_refinement") < 0:
        raise ValueError("grid_refinement must be nonnegative")
    cx, cy = _refined_cycle(f, refinement)
    i = int(np.argmax(cy))
    xs, ys = np.concatenate([cx[i:], cx[: i + 1] + 1.0]), np.concatenate([cy[i:], cy[: i + 1]])
    cuts = np.flatnonzero(np.concatenate([[True], ys[1:-1] == ys.min(), [True]]))
    starts, ends = cuts[:-1], cuts[1:]
    width = ends - starts
    short = np.minimum.reduceat(xs[1:] - xs[:-1], starts) * (1.0 - 2.0**-50) - 2.0**-50
    # only the full period, of increment 0, can exceed 1: delta = 1 admits all
    limits = [d if d < 1.0 else math.inf for d in deltas]
    out = []
    group = max(1, 16 * _BLOCK_CELLS // len(starts))
    for g in range(0, len(limits), group):
        ds = np.array([math.inf] + limits[g : g + group])[:, None]
        free = xs[starts] >= xs[ends] - ds
        pick = ~free & (ds >= short)
        pick[0] = xs[starts] >= xs[ends] - max(limits) if g == 0 else False
        rows, hump = np.nonzero(pick)
        order = np.argsort(-width[hump], kind="stable")
        table = np.zeros(pick.shape)
        c = 0
        while c < len(order):
            block = order[c : c + max(1, _BLOCK_CELLS // (width[hump[order[c]]] + 1))]
            c += len(block)
            h = hump[block]
            idx = np.minimum(starts[h] + np.arange(width[h[0]] + 1)[:, None], ends[h])
            lo = np.searchsorted(xs, xs[idx] - ds[rows[block]].T, side="left") - starts[h]
            table[rows[block], h] = _hump_dp(ys[idx], np.maximum(lo, 0), p)
        if g == 0:
            unconstrained = table[0]
        # Python's pow: numpy's vectorized power can differ in the last bit, by CPU
        out += [s ** (1.0 / p) for s in np.where(free, unconstrained, table)[1:].sum(axis=1).tolist()]
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


def _sorted_lambda_sum(d, inv: np.ndarray) -> float:
    """sum of the increments ``d`` sorted nonincreasing against the first
    len(d) entries of ``inv`` = 1/lambda, the rearrangement optimum: one
    contiguous copy sorted in place through a reversed view, then one dot
    product, so every caller scores the same increments to the same bits."""
    s = np.array(d, dtype=float)
    s[::-1].sort()
    return float(s @ inv[: len(s)])


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

    A complete path is scored by _sorted_lambda_sum, as a scan over all
    subsets scores one; the tests hold the result to that scan bit for bit.
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
                best = max(best, _sorted_lambda_sum(d, inv))
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
    if not isinstance(lam, LambdaSequence):
        raise TypeError("lam must be a LambdaSequence")
    dec = monotone_arcs(f)
    if dec.is_baseline_separated():
        return _sorted_lambda_sum(np.abs(dec.increments), 1.0 / lam.terms(len(dec)))
    if len(dec) <= MAX_EXACT_ARCS:
        return _cyclic_subset_max(dec.start_values, lam)
    raise ValueError(
        f"function has {len(dec)} monotone arcs and no common baseline; the exact "
        f"search is exponential and supported only up to {MAX_EXACT_ARCS} arcs"
    )


def _shift_norms(f: PiecewiseLinearPeriodic, hs: np.ndarray, p: float) -> np.ndarray:
    """||f(.+h) - f||_p for each shift h in ``hs``, 0 <= h < 1, by exact
    integration of the difference D = f(.+h) - f, linear between its kinks:
    the breakpoints and the breakpoints shifted back by h (wrapped by adding
    1 where negative).  Each row's kinks are sorted once and D is taken at
    every sorted kink k as f(k + h) - f(k).  They are not deduplicated: a
    repeated kink is a zero-width piece and adds exactly 0.

    A piece from u to v of width w integrates to w (G(v) - G(u)) / (v - u),
    G(c) = sign(c)|c|^(p+1)/(p+1), and a piece's v is the next piece's u, so
    G is taken once per kink.  That cancels on a nearly flat piece, so where
    |v - u| <= 1e-3 |m|, m = (u + v)/2, the midpoint expansion
    w |m|^p (1 + p(p-1)x^2/24 + p(p-1)(p-2)(p-3)x^4/1920), x = (v - u)/m,
    replaces it (the dropped terms are O(x^6)).  Each shift's row is
    integrated on its own, so its norm does not depend on the other shifts.
    """
    pos = f.positions
    rows = max(1, _BLOCK_CELLS // len(pos))
    c2, c4 = p * (p - 1.0) / 24.0, p * (p - 1.0) * (p - 2.0) * (p - 3.0) / 1920.0
    out = np.empty(len(hs))
    for s in range(0, len(hs), rows):
        h = hs[s : s + rows, None]
        back = pos - h
        back += back < 0.0
        k = np.sort(np.concatenate([np.broadcast_to(pos, back.shape), back], axis=1), axis=1)
        u = f.eval(k + h) - f.eval(k)
        w = np.concatenate([k[:, 1:], k[:, :1] + 1.0], axis=1) - k
        g = np.sign(u) * np.abs(u) ** (p + 1.0) / (p + 1.0)
        v = np.concatenate([u[:, 1:], u[:, :1]], axis=1)
        m, d = 0.5 * (u + v), v - u
        near = np.abs(d) <= 1e-3 * np.abs(m)
        piece = np.diff(g, axis=1, append=g[:, :1]) / np.where(near, 1.0, d)
        mn = m[near]
        x2 = (d[near] / np.where(mn == 0.0, 1.0, mn)) ** 2
        piece[near] = np.abs(mn) ** p * (1.0 + c2 * x2 + c4 * x2 * x2)
        out[s : s + len(h)] = np.sum(w * piece, axis=1)
    return out ** (1.0 / p)


def _carried_sum(a, b, low) -> tuple[np.ndarray, np.ndarray]:
    """Running sums of a * b + low along each row as s + carry: s those of the
    rounded products, carry those of low and of the rounding of each product
    (Dekker's split) and each sum (two-sum), so large terms cancel cleanly."""
    ah, bh = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))
    x = a * b
    low = low + ((ah * bh - x) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)
    s = np.cumsum(x, axis=1)
    before = np.concatenate([np.zeros_like(s[:, :1]), s[:, :-1]], axis=1)
    return s, np.cumsum((before - (s - (s - before))) + (x - (s - before)) + low, axis=1)


def _l2_terms(val, slope, jump, lo, gap, i, j, knots, at) -> np.ndarray:
    """Rows Q = N^2 / 2, Q' = int D(x) f'(x + h) dx, C = int f'(x) f'(x + h) dx
    and C' = sum_j J_j f'(x_j - h) (two parts) at h = knots[at], the pairs
    (i, j) of knots 1 ... at crossed.  D = f(.+h) - f is linear between its
    kinks x_i and x_j - h.  If x_i + h crossed x_m last, D(x_i) = v_m - v_i +
    s_m (h - gap(i, m)); if x_j - h crossed x_m last (or m = j), D(x_j - h) =
    v_j - v_m + s_{m-1} (h - gap(m, j)), g_{m-1} - (h - gap(m, j)) into piece
    m - 1: no D or width is a difference of nearby values or positions.  A
    piece from u to v of width w adds w (u^2 + uv + v^2) / 6 to Q,
    w s(x + h) (u + v) / 2 to Q' and w s(x) s(x + h) to C."""
    n, ix = len(val), np.arange(len(val))
    # per shift and breakpoint, how many of its pairs have been crossed, forward from x_i and back from x_j
    first = np.searchsorted(at, np.arange(1, len(knots))) * n
    fwd, back = ((ix + sign * np.cumsum(np.bincount(first + e, minlength=(len(at) + 1) * n)
                                        .reshape(-1, n)[:-1], axis=0)) % n for e, sign in ((i, 1), (j, -1)))
    g = gap[ix, (ix + 1) % n]
    out = np.empty((5, len(at)))
    out[3:] = [a[:, -1] for a in _carried_sum(jump, slope[back - 1], lo * slope[back - 1])]
    rows = max(1, _BLOCK_CELLS // n)
    nxt = lambda a: np.concatenate([a[:, 1:], a[:, :1]], axis=1)
    for s in range(0, len(at), rows):
        m, b, h = fwd[s : s + rows], back[s : s + rows], knots[at[s : s + rows], None]
        # per kink, x_i then x_j - h: its piece, how far into it, D and s(x + h)
        piece = np.concatenate([np.broadcast_to(ix, m.shape), (b - 1) % n], axis=1)
        into = np.concatenate([np.zeros(m.shape), np.clip(g[b - 1] - (h - gap[b, ix]), 0.0, g[b - 1])], axis=1)
        d = np.concatenate([val[m] - val + slope[m] * (h - gap[ix, m]),
                            val - val[b] + slope[b - 1] * (h - gap[b, ix])], axis=1)
        ahead = np.concatenate([slope[m], np.broadcast_to(slope, b.shape)], axis=1)
        o = np.lexsort((into, piece))
        piece, into, u, ahead = (np.take_along_axis(a, o, axis=1) for a in (piece, into, d, ahead))
        # to the next kink: the rest of the piece, into the piece, or x_j - h to x_{j+1} - h
        w = np.where(nxt(o) < n, g[piece] - into, np.where(o < n, nxt(into), g[o - n]))
        v = nxt(u)
        out[:3, s : s + rows] = [np.sum(w * (u * u + u * v + v * v), axis=1) / 6.0,
                                 np.sum(w * ahead * (u + v), axis=1) / 2.0,
                                 np.sum(w * slope[piece] * ahead, axis=1)]
    return out


def _l2_modulus(f: PiecewiseLinearPeriodic, deltas: np.ndarray) -> list[float]:
    """The exact max of N(h) = sqrt(2 Q(h)) over h in [0, min(delta, 1/2)].

    Q = R(0) - R(h), R the autocorrelation of f, so Q'' = C, continuous and
    piecewise linear: C' = sum_j J_j f'(x_j - h) (J_j the slope jump at x_j)
    drops by J_j (s_i - s_{i-1}) at each knot x_j - x_i mod 1.  So Q is a
    cubic between the knots sorted on (0, 1/2]; running sums, restarted from
    _l2_terms every n knots, give every piece, whose max lies at its ends or
    at the root of Q' where Q'' < 0.  C' carries every rounding (each jump's
    too), so each breakpoint's drops add up to J_j times a slope exactly and
    large drops near steep breakpoints cancel cleanly.  Each delta reads the
    pieces up to it: entry i equals the grid [deltas[i]] bit for bit.  f is
    divided by 2^ex, ex the exponent of max |f|, and values are multiplied
    only in pairs: no square under- or overflows, and 2^k f reads exactly
    2^k times the values."""
    pos, n, ix = f.positions, len(f.positions), np.arange(len(f.positions))
    ex = math.frexp(np.abs(f.values).max())[1]
    val = np.ldexp(f.values, -ex)
    slope = np.diff(val, append=val[0]) / np.diff(pos, append=pos[0] + 1.0)
    jump = slope - slope[ix - 1]
    # each jump's rounding (two-sum): jump + lo is s_j - s_{j-1} exactly
    lo = (slope - (jump - (jump - slope))) + (-slope[ix - 1] - (jump - slope))
    gap = np.mod(pos[None, :] - pos[:, None], 1.0)
    keep = (gap > 0.0) & (gap <= min(deltas.max(initial=0.0), 0.5))
    i, j = np.nonzero(keep)
    order = np.argsort(gap[i, j], kind="stable")
    i, j = i[order], j[order]
    knots = np.concatenate([[0.0], gap[i, j]])
    count, blocks = len(knots), -(-len(knots) // n)
    starts = _l2_terms(val, slope, jump, lo, gap, i, j, knots, np.arange(0, count, n))
    q, q1, c, dc, dc_low = (a[:, None] for a in starts)
    # one row per restart, padded with zero-width pieces: t, and the drops of C'
    t, a, b, low = (np.concatenate([z, np.zeros(blocks * n - count)]).reshape(blocks, n)
                    for z in (np.diff(knots, append=knots[-1]), np.append(0.0, -jump[i]),
                              np.append(0.0, jump[j]), np.append(0.0, -(lo[i] * jump[j] + jump[i] * lo[j]))))
    a[:, 0], b[:, 0], low[:, 0] = dc[:, 0], 1.0, dc_low[:, 0]
    dc = np.add(*_carried_sum(a, b, low))
    # Q(t + tau) - Q(t) on a piece where Q', Q'' and Q''' are q1, c and dc at t
    rise = lambda q1, c, dc, tau: q1 * tau + c * (tau * tau / 2.0) + dc * (tau * tau * tau / 6.0)
    after = lambda start, step: start + np.cumsum(
        np.concatenate([np.zeros_like(step[:, :1]), step[:, :-1]], axis=1), axis=1)
    c = after(c, dc * t)
    q1 = after(q1, c * t + dc * (t * t / 2.0))
    q, q1, c, dc, t = (a.ravel()[:count] for a in (after(q, rise(q1, c, dc, t)), q1, c, dc, t))
    # Q' = a + b tau + e tau^2 on a piece, scaled so that no square overflows
    scale = math.ldexp(1.0, -math.frexp(c[0])[1])
    a, b, e = q1 * scale, c * scale, dc * (scale / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * e), b))
        top = np.where(np.signbit(b), a / r, r / e)
    # the root clipped to the piece (NaN to 0) is a point of it either way
    peak = q + rise(q1, c, dc, np.fmin(np.fmax(top, 0.0), t))
    best = np.maximum.accumulate(np.maximum(q, np.append(0.0, peak[:-1])))
    d = np.minimum(deltas, 0.5)
    k = np.searchsorted(knots, d, side="right") - 1
    tau = d - knots[k]
    own = [rise(q1[k], c[k], dc[k], x) for x in (tau, np.fmin(np.fmax(top[k], 0.0), tau))]
    return np.ldexp(np.sqrt(2.0 * np.maximum(best[k], q[k] + np.maximum(*own))), ex).tolist()


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
    if len(pos) ** 2 <= _MAX_DIFFERENCES:
        hs.append(np.mod(pos[None, :] - pos[:, None], 1.0).ravel())
    h = np.concatenate(hs)
    h = np.sort(h[(h > 0.0) & (h <= 0.5)])
    return h[np.diff(h, prepend=0.0) > 0.0]


def _rounding_slack(f: PiecewiseLinearPeriodic) -> float:
    """1e-12 of f's scale, max |y| + max |slope|: the rounding of f(x +- h) in every N."""
    dx = np.diff(f.positions, append=f.positions[0] + 1.0)
    slopes = np.abs(np.diff(f.values, append=f.values[0])) / dx
    return 1e-12 * (np.abs(f.values).max() + slopes.max())


def _shift_bounds(
    hs: np.ndarray, norms: np.ndarray, done: np.ndarray, lip: float, slack: float
) -> np.ndarray:
    """Upper bounds of N(h) = ||f(.+h) - f||_p at the shifts hs[~done], from
    the values norms[done] at the integrated ones (hs ascending, done[0] set).

    |N(h1) - N(h2)| <= |h1 - h2| lip by Minkowski, lip = ||f'||_p, so each
    bound is the smaller of N + |h - h'| lip over the nearest integrated h' on
    either side.  lip and the bound are widened by a relative 1e-9, plus
    ``slack``, from _rounding_slack.
    """
    known, rest = np.flatnonzero(done), np.flatnonzero(~done)
    right = np.searchsorted(known, rest)
    bound = np.minimum(
        *(norms[nb] + np.abs(hs[rest] - hs[nb]) * (lip * (1.0 + 1e-9))
          for nb in (known[right - 1], known[np.minimum(right, len(known) - 1)]))
    )
    return bound * (1.0 + 1e-9) + slack


def lp_modulus(f: PiecewiseLinearPeriodic, p: float, deltas) -> list[float]:
    """omega(f; delta)_p for each delta in ``deltas``: sup over shifts h in
    [0, delta] of N(h) = ||f(.+h) - f||_p.

    At p = 2 with n^2 <= _MAX_DIFFERENCES, _l2_modulus gives the exact sup.
    Otherwise the shift integral is exact in closed form; the sup is taken
    over the samples of _shift_samples up to min(delta, 1/2) and delta's own
    sample min(delta, 1 - delta), since N(h) = N(1 - h) (substitute x -> x - h),
    and is a lower bound of the true modulus.  Either way each value depends
    on delta alone: entry i equals the one-element grid [deltas[i]] for every
    grid, and the values are monotone along a dyadic grid.

    N is Lipschitz with constant ||f'||_p, so a sample is skipped when the
    bound of _shift_bounds from its nearest integrated neighbours stays below
    the running max at the first delta whose prefix includes it.  Every 8th
    sample and the deltas' own samples are integrated first, then the
    survivors in two rounds (every other one, then the rest).  A skipped
    sample cannot be the max of any delta's read, so the values equal
    integrating every sample, bit for bit.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("p must satisfy p >= 1")
    deltas = list(deltas)
    if not all(math.isfinite(d) and 0.0 <= d <= 1.0 for d in deltas):
        raise ValueError("delta must lie in [0, 1]")
    d = np.asarray(deltas, dtype=float)
    if p == 2.0 and len(f.positions) ** 2 <= _MAX_DIFFERENCES:
        return _l2_modulus(f, d)
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
    lip, slack = derivative_lp_norm(f, p), _rounding_slack(f)
    for step in (2, 1):
        done[todo] = True
        rest = np.flatnonzero(~done)
        peak = np.maximum.accumulate(norms)
        todo = rest[_shift_bounds(hs, norms, done, lip, slack) >= peak[opens[rest] - 1]][::step]
        norms[todo] = _shift_norms(f, hs[todo], p)
    peak = np.maximum.accumulate(np.concatenate([[0.0], norms]))
    return np.maximum(peak[ends], own).tolist()


def _dyadic_grid(depth: int) -> list[float]:
    if not 1 <= _integer(depth, "dyadic_depth") <= MAX_DELTA_DEPTH:
        raise ValueError(f"dyadic_depth must lie in [1, {MAX_DELTA_DEPTH}]")
    return [2.0 ** (-j) for j in range(depth + 1)]


def lip_norm(
    f: PiecewiseLinearPeriodic,
    p: float,
    alpha: float,
    dyadic_depth: int,
) -> float:
    """max over dyadic delta of omega(f; delta)_p / delta^alpha, a lower
    bound of the shift-modulus ratio norm (within a factor 2^alpha of the
    continuum sup by subadditivity of the modulus)."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError("p must satisfy p > 1")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    deltas = _dyadic_grid(dyadic_depth)
    return max(m / d**alpha for d, m in zip(deltas, lp_modulus(f, p, deltas)))


def p_cont_ratio_norm(
    f: PiecewiseLinearPeriodic,
    p: float,
    alpha: float,
    dyadic_depth: int,
    grid_refinement: int = 0,
) -> float:
    """max over dyadic delta of omega_{1-1/p}(f; delta) / delta^(alpha - 1/p).

    Requires alpha > 1/p; below that threshold the ratio norm does not
    control bounded functions and the query is rejected.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError("p must satisfy p > 1")
    if not (1.0 / p < alpha <= 1.0):
        raise ValueError("alpha must lie in (1/p, 1]")
    deltas = _dyadic_grid(dyadic_depth)
    exponent = alpha - 1.0 / p
    return max(m / d**exponent for d, m in zip(deltas, _p_power_profile(f, p, deltas, grid_refinement)))
