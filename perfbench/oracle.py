"""Reference values for checking lambdabv's outputs.

Nothing here imports lambdabv.  Every value is computed from the input files
the benchmark generated, by code that shares no implementation with the
program under test.  Exact quantities come back as numbers; quantities the
program only bounds from below come back as (lower, upper) brackets whose
upper end is a certified bound, so an output that becomes exact still passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

# ranges longer than this are summed by Euler-Maclaurin instead of term by term
DIRECT_TERMS = 4096
_SHIFT_CHUNK = 256
# ulps of |G(u)| + |G(v)| that G(v) - G(u) may lose in floats: about one for
# each power, division and the subtraction, doubled as a margin (shortfalls
# of up to half this bound were seen)
_CLOSED_FORM_ULPS = 8.0


class PL:
    """Continuous 1-periodic function, linear between sorted breakpoints."""

    def __init__(self, breakpoints):
        bp = sorted((float(x), float(y)) for x, y in breakpoints)
        self.pos = np.array([x for x, _ in bp])
        self.val = np.array([y for _, y in bp])
        self._xe = np.concatenate([[self.pos[-1] - 1.0], self.pos, [self.pos[0] + 1.0]])
        self._ye = np.concatenate([[self.val[-1]], self.val, [self.val[0]]])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x - np.floor(x), self._xe, self._ye)

    def segments(self):
        """Per breakpoint segment: start position, length, start and end value."""
        x1 = np.append(self.pos[1:], self.pos[0] + 1.0)
        y1 = np.append(self.val[1:], self.val[0])
        return self.pos, x1 - self.pos, self.val, y1

    def derivative_norm(self, p: float) -> float:
        _, w, y0, y1 = self.segments()
        return float(np.sum(np.abs((y1 - y0) / w) ** p * w) ** (1.0 / p))


def extrema(f: PL) -> np.ndarray:
    """Indices of the local extrema in cyclic order (plateaus collapsed)."""
    v = f.val
    idx = np.flatnonzero(v != np.roll(v, 1))
    if idx.size < 2:
        return idx[:0]
    step = np.sign(np.roll(v[idx], -1) - v[idx])
    return idx[np.flatnonzero(step != np.roll(step, 1))]


def arcs(f: PL):
    """Lengths and signed increments of the maximal monotone arcs."""
    e = extrema(f)
    xs, ys = f.pos[e], f.val[e]
    lengths = np.diff(np.append(xs, xs[0] + 1.0))
    return lengths, np.roll(ys, -1) - ys, e


def baseline_separated(f: PL) -> bool:
    _, inc, e = arcs(f)
    if e.size == 0:
        return True
    vals = f.val[e]
    valleys, peaks = vals[inc > 0], vals[inc < 0]
    return bool(np.all(valleys == valleys[0]) or np.all(peaks == peaks[0]))


def _chain_best(xs: np.ndarray, ys: np.ndarray, p: float, delta: float) -> float:
    """Max of sum |y_j - y_i|^p over disjoint index intervals of x-length
    <= delta along one chain; the p-power sum."""
    n = len(xs)
    best = np.zeros(n)
    lo = np.searchsorted(xs, xs - delta, side="left") if delta < 1.0 else np.zeros(n, int)
    for j in range(1, n):
        b = best[j - 1]
        i0 = lo[j]
        if i0 < j:
            b = max(b, float(np.max(best[i0:j] + np.abs(ys[j] - ys[i0:j]) ** p)))
        best[j] = b
    return float(best[-1])


def _cut_at_max(xs: np.ndarray, ys: np.ndarray):
    i = int(np.argmax(ys))
    return (
        np.concatenate([xs[i:], xs[:i] + 1.0, [xs[i] + 1.0]]),
        np.concatenate([ys[i:], ys[:i], [ys[i]]]),
    )


def p_variation(f: PL, p: float) -> float:
    """Exact v_p: a maximizing system may take its endpoints at local extrema
    and the circle may be cut at a global maximum."""
    e = extrema(f)
    if e.size < 2:
        return 0.0
    if baseline_separated(f):
        _, inc, _ = arcs(f)
        return float(np.sum(np.abs(inc) ** p) ** (1.0 / p))
    xs, ys = _cut_at_max(f.pos[e], f.val[e])
    return _chain_best(xs, ys, p, 1.0) ** (1.0 / p)


def grid_modulus(f: PL, p: float, delta: float, refine: int) -> float:
    """omega_{1-1/p}(f; delta) restricted to the breakpoint grid with
    ``refine`` uniform points added per segment: the value a grid search
    certifies from below."""
    x0, w, y0, y1 = f.segments()
    fr = np.arange(refine + 1) / (refine + 1)
    xs = (x0[:, None] + w[:, None] * fr).ravel()
    ys = (y0[:, None] + (y1 - y0)[:, None] * fr).ravel()
    return _chain_best(*_cut_at_max(xs, ys), p, delta) ** (1.0 / p)


def comb_modulus(f: PL, p: float, delta: float, refine: int) -> tuple[float, float]:
    """(grid value, exact value) of omega_{1-1/p}(f; delta) for a
    baseline-separated function whose monotone arcs are single segments.

    Splitting an interval at the extremum it straddles never lowers the
    p-sum (|a - b|^p <= a^p + b^p for a, b >= 0), so each arc contributes on
    its own: pieces of length delta and one remainder in the continuum, and
    pieces of at most K grid steps on the refined grid.
    """
    lengths, inc, _ = arcs(f)
    h = np.abs(inc)
    full = np.floor(lengths / delta)
    rest = lengths / delta - full
    exact = np.sum(full * (h * delta / lengths) ** p + (h * rest * delta / lengths) ** p)
    steps = refine + 1
    # shrink the step a hair so a float tie never admits a piece the grid
    # search would reject
    k = np.minimum(np.floor(delta / (lengths * (1.0 + 1e-12) / steps)), steps)
    q = np.where(k > 0, np.floor(steps / np.maximum(k, 1)), 0)
    r = np.where(k > 0, steps - q * k, 0)
    grid = np.sum((q * k**p + r**p) * (h / steps) ** p)
    return float(grid ** (1.0 / p)), float(exact ** (1.0 / p))


def _piece_integrals(u: np.ndarray, v: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Integral of |linear from u to v|^p over a width w."""
    m = 0.5 * (u + v)
    d = v - u
    near = np.abs(d) <= 1e-3 * np.abs(m)
    x2 = np.where(near, (d / np.where(m == 0.0, 1.0, m)) ** 2, 0.0)
    series = np.abs(m) ** p * (
        1.0 + p * (p - 1.0) * x2 / 24.0 + p * (p - 1.0) * (p - 2.0) * (p - 3.0) * x2 * x2 / 1920.0
    )
    g = lambda c: np.sign(c) * np.abs(c) ** (p + 1.0) / (p + 1.0)
    closed = (g(v) - g(u)) / np.where(near, 1.0, d)
    return w * np.where(near, series, closed)


def shift_integrals(f: PL, hs: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Per shift h: the integral of |f(. + h) - f|^p, integrated exactly
    between the kinks at breakpoints and breakpoints shifted back by h, and a
    bound on the rounding error of evaluating the same pieces in the closed
    form w (G(v) - G(u)) / (v - u), G(c) = sign(c)|c|^(p+1)/(p+1), that a
    program may use for every piece with |v - u| above 1e-14 max(|u|, |v|, 1).

    G(v) - G(u) loses up to a few ulps of |G(u)| + |G(v)|; dividing by a
    small v - u turns that into a large error on a nearly flat piece.
    """
    total = np.empty(len(hs))
    error = np.empty(len(hs))
    for s in range(0, len(hs), _SHIFT_CHUNK):
        h = hs[s : s + _SHIFT_CHUNK, None]
        k = np.sort(
            np.concatenate([np.broadcast_to(f.pos, (len(h), len(f.pos))), np.mod(f.pos - h, 1.0)], axis=1),
            axis=1,
        )
        x1 = np.concatenate([k[:, 1:], k[:, :1] + 1.0], axis=1)
        u = f(k + h) - f(k)
        v = f(x1 + h) - f(x1)
        w = x1 - k
        total[s : s + len(h)] = np.sum(_piece_integrals(u, v, w, p), axis=1)
        d = np.abs(v - u)
        closed = d > 0.5e-14 * np.maximum(np.maximum(np.abs(u), np.abs(v)), 1.0)
        g = (np.abs(u) ** (p + 1.0) + np.abs(v) ** (p + 1.0)) / (p + 1.0)
        err = w * _CLOSED_FORM_ULPS * np.finfo(float).eps * g / np.where(closed, d, 1.0)
        error[s : s + len(h)] = np.sum(np.where(closed, err, 0.0), axis=1)
    return total, error


def lp_modulus_brackets(f: PL, p: float, deltas, h_samples: int):
    """Per delta, (sampled sup, rounding floor, delta * ||f'||_p).

    The sampled sup is the exact sup over the shift set the program samples
    (all breakpoint differences, a power-of-two uniform grid, all dyadic
    shifts).  The rounding floor is the least that sup can read when each
    nearly flat piece is evaluated in the closed form of shift_integrals.
    The upper end holds by Minkowski: ||f(. + h) - f||_p <= h ||f'||_p.
    """
    n = len(f.pos)
    count = 2 ** math.ceil(math.log2(max(h_samples, 1)))
    hs = np.concatenate(
        [
            np.mod(f.pos[None, :] - f.pos[:, None], 1.0).ravel(),
            np.linspace(0.0, 1.0, count + 1),
            [2.0**-j for j in range(41)],
        ]
    )
    hs = np.unique(hs[(hs > 0.0) & (hs <= 1.0)]) if n > 1 else np.empty(0)
    total, error = shift_integrals(f, hs, p) if hs.size else (np.empty(0), np.empty(0))
    norms = total ** (1.0 / p)
    floors = np.maximum(total - error, 0.0) ** (1.0 / p)
    dnorm = f.derivative_norm(p)
    out = []
    for d in deltas:
        sel = hs <= d
        if not sel.any():
            out.append((0.0, 0.0, d * dnorm))
            continue
        out.append((float(norms[sel].max()), float(floors[sel].max()), d * dnorm))
    return out


def lambda_variation(f: PL, inv_weights: np.ndarray) -> float:
    """Exact Lambda-variation, given the reciprocal weights 1/lambda_1.. .

    Baseline-separated functions take the sorted arc increments; otherwise
    every subset of local extrema is tried as the endpoint set of a tiling
    system, in vectorized chunks of masks.
    """
    _, inc, e = arcs(f)
    m = e.size
    if m < 2:
        return 0.0
    if baseline_separated(f):
        return float(np.sort(np.abs(inc))[::-1] @ inv_weights[:m])
    v = f.val[e]
    best = 0.0
    chunk = 1 << 14
    for start in range(0, 1 << m, chunk):
        masks = np.arange(start, min(start + chunk, 1 << m), dtype=np.int64)
        chosen = (masks[:, None] >> np.arange(m)) & 1 == 1
        # nxt[:, i] = value at the next chosen index after i, cyclically
        nxt = np.zeros((len(masks), m))
        carry = np.zeros(len(masks))
        for _ in range(2):
            for i in range(m - 1, -1, -1):
                nxt[:, i] = carry
                carry = np.where(chosen[:, i], v[i], carry)
        diffs = np.where(chosen, np.abs(v - nxt), 0.0)
        diffs = -np.sort(-diffs, axis=1)
        best = max(best, float(np.max(diffs @ inv_weights[:m])))
    return best


# ---------------------------------------------------------------- sequences


def lam_terms(family: str, params: dict, k: np.ndarray) -> np.ndarray:
    """lambda_k for named families, in float64, straight from the formulas."""
    if family == "power":
        return k ** params["s"]
    if family == "power_log":
        return k ** params["s"] * np.log(k + 1.0) ** params["t"]
    if family == "block_power_log":
        b = np.maximum(np.floor(np.log2(k)), 1.0)
        a = 1.0 - params["alpha"]
        return 2.0 ** (b * a) * b ** (a * params["s"])
    raise ValueError(family)


def _power_sum(c, lo: int, hi: int):
    """sum_{k=lo}^{hi} k^-c as an mpf: direct for short ranges, otherwise
    Euler-Maclaurin with three correction terms (error below 1e-20 here)."""
    if hi - lo + 1 <= DIRECT_TERMS:
        return mp.fsum(mp.mpf(k) ** -c for k in range(lo, hi + 1))
    a, b = mp.mpf(lo), mp.mpf(hi)
    integral = mp.log(b / a) if c == 1 else (b ** (1 - c) - a ** (1 - c)) / (1 - c)
    total = integral + (a**-c + b**-c) / 2
    # derivatives of x^-c: f^(2j-1)(x) = -c(c+1)...(c+2j-2) x^(-c-2j+1)
    for j, bern in ((1, mp.mpf(1) / 6), (2, mp.mpf(-1) / 30), (3, mp.mpf(1) / 42)):
        rising = mp.rf(c, 2 * j - 1)
        total += bern / mp.factorial(2 * j) * (-rising) * (b ** (-c - 2 * j + 1) - a ** (-c - 2 * j + 1))
    return total


def weighted_sum(family: str, params: dict, k_exp, lam_exp, lo: int, hi: int) -> float:
    """sum_{k=lo}^{hi} k^-k_exp lambda_k^-lam_exp for a named family."""
    with mp.workdps(30):
        if hi - lo + 1 <= DIRECT_TERMS:
            k = np.arange(lo, hi + 1, dtype=float)
            return math.fsum((k**-k_exp * lam_terms(family, params, k) ** -lam_exp).tolist())
        if family == "power":
            return float(_power_sum(mp.mpf(k_exp) + mp.mpf(lam_exp) * params["s"], lo, hi))
        if family == "block_power_log":
            total = mp.mpf(0)
            n = max(lo.bit_length() - 1, 1)
            while lo <= hi:
                top = min(hi, 2 ** (n + 1) - 1)
                lam = lam_terms(family, params, np.array([float(2**n)]))[0]
                total += mp.mpf(lam) ** -lam_exp * _power_sum(mp.mpf(k_exp), lo, top)
                lo, n = top + 1, n + 1
            return float(total)
        # power_log: Euler-Maclaurin with numerical quadrature and derivatives
        s, t = mp.mpf(params["s"]), mp.mpf(params["t"])
        g = lambda x: x ** -mp.mpf(k_exp) * (x**s * mp.log(x + 1) ** t) ** -mp.mpf(lam_exp)
        a, b = mp.mpf(lo), mp.mpf(hi)
        total = mp.quad(g, [a, b]) + (g(a) + g(b)) / 2
        total += (mp.diff(g, b, 1) - mp.diff(g, a, 1)) / 12
        total -= (mp.diff(g, b, 3) - mp.diff(g, a, 3)) / 720
        return float(total)


def criterion_rows(family: str, params: dict, p: float, alpha: float, blocks: int):
    """(inner sum, block term, partial sum) for n = 0..blocks, inclusive
    upper block ends, as the embedding criterion defines them."""
    p_prime = p / (p - 1.0)
    r_prime = 1.0 / (1.0 + 1.0 / p - alpha)
    rows, total = [], 0.0
    for n in range(blocks + 1):
        inner = weighted_sum(family, params, p_prime * (alpha - 1.0 / p), p_prime, 2**n, 2 ** (n + 1))
        term = inner ** (r_prime / p_prime)
        total += term
        rows.append((inner, term, total))
    return rows


def _converges(e: Fraction, f: Fraction) -> bool:
    """Cauchy condensation: a block term of size 2^(nE) n^(-F) sums iff
    E < 0, or E = 0 and F > 1."""
    return e < 0 or (e == 0 and f > 1)


def criterion_verdict(family: str, params: dict, p: str, alpha: str) -> str:
    """Verdict of the criterion series in exact rationals of the decimal
    inputs.  Block terms behave like 2^(n r'(1 - alpha - s)) n^(-r' t) for
    power and power_log, and like 2^(n r'(alpha_f - alpha)) n^(-r'(1 - alpha_f) s)
    for block_power_log."""
    p, alpha = Fraction(p), Fraction(alpha)
    r_prime = 1 / (1 + 1 / p - alpha)
    s = Fraction(params["s"])
    if family in ("power", "power_log"):
        t = Fraction(params.get("t", "0"))
        ok = _converges(r_prime * (1 - alpha - s), r_prime * t)
    else:
        af = Fraction(params["alpha"])
        ok = _converges(r_prime * (af - alpha), r_prime * (1 - af) * s)
    return "converges" if ok else "diverges"


def wang_verdict(s: str, alpha_f: str, alpha: str) -> str:
    """Verdict of sum lambda_k^(-1/(1-alpha)) for block_power_log(s, alpha_f):
    block m contributes 2^(m(1 - (1-alpha_f)/(1-alpha))) m^(-s(1-alpha_f)/(1-alpha))."""
    s, af, alpha = Fraction(s), Fraction(alpha_f), Fraction(alpha)
    ratio = (1 - af) / (1 - alpha)
    return "converges" if _converges(1 - ratio, s * ratio) else "diverges"


def wang_rows(s: float, alpha_f: float, alpha: float, blocks: int):
    """Partial sums of sum lambda_k^(-1/(1-alpha)) at k = 2^(m+1) - 1."""
    e = 1.0 / (1.0 - alpha)
    params = {"s": s, "alpha": alpha_f}
    out, total = [], 0.0
    for m in range(blocks):
        lam = lam_terms("block_power_log", params, np.array([float(max(2**m, 2))]))[0]
        total += 2**m * lam**-e
        out.append(total)
    return out


def perlman_rows(p: float, w: float, terms: int, checkpoints):
    """Companion sums sum d_n/lambda_n and sum lambda_n^-p' at checkpoints,
    with lambda_n = sum_{k<=n} d_k^p / d_n^(p-1) and d_n = n^-w; also the last
    decade's growth of the divergent sum."""
    d = np.arange(1, terms + 1, dtype=float) ** -w
    dp = d**p
    head = np.cumsum(dp)
    div = np.cumsum(dp / head)
    conv = np.cumsum((d ** (p - 1.0) / head) ** (p / (p - 1.0)))
    rows = [(n, div[n - 1], conv[n - 1]) for n in checkpoints]
    return rows, float(div[-1] - div[terms // 10 - 1])


def hardy_rows(seed: int, betas, rs, trials: int, draw: int, nu):
    """max and mean of lhs/rhs per (beta, r), replaying the demo's draws."""
    rng = np.random.default_rng(seed)
    nu = np.asarray(nu, dtype=float)
    out = []
    for beta in betas:
        for r in rs:
            a = rng.exponential(1.0, (trials, draw))
            prefix = np.concatenate([np.zeros((trials, 1)), np.cumsum(a, axis=1)], axis=1)
            top = np.minimum(np.floor(nu).astype(int), draw)
            lo = np.maximum(np.ceil(nu[:-1]).astype(int), 1)
            hi = np.minimum(np.floor(nu[1:]).astype(int), draw)
            weight = 2.0 ** (-np.arange(len(nu)) * beta)
            lhs = (prefix[:, top] ** (1.0 / r)) @ weight
            block = np.where(hi >= lo, prefix[:, hi] - prefix[:, np.minimum(lo - 1, draw)], 0.0)
            rhs = (block ** (1.0 / r)) @ weight[1:]
            ratio = lhs / rhs
            out.append((beta, r, float(ratio.max()), float(ratio.mean())))
    return out
