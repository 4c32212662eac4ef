"""Shared test utilities: random inputs and an exhaustive system oracle.

The oracle here deliberately avoids the library's chain DP and subset-scan
code paths: it enumerates every system of nonoverlapping index pairs over a
small candidate set, cutting the circle at each candidate in turn, so the
fast implementations can be checked against a search with no shortcuts.
mp_shift_norm is the matching reference for the L^p shift integral: mpmath
at 40 digits, one piece at a time.
"""

import functools
import os
import pathlib
import subprocess
import sys
from bisect import bisect_right

import mpmath
import numpy as np

from lambdabv import Interval, TriangleCombSpec, make_plpf
from lambdabv.variation import _shift_candidates

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    """Run the CLI in a child interpreter that imports this checkout's src."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lambdabv", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def random_plpf(rng, max_breaks=8, scale=1.5, min_gap=1e-3, min_breaks=2):
    n = int(rng.integers(min_breaks, max_breaks + 1))
    while True:
        pos = np.sort(rng.uniform(0.0, 1.0, n))
        gaps = np.diff(np.concatenate([pos, [pos[0] + 1.0]]))
        if np.min(gaps) > min_gap:
            break
    vals = rng.uniform(-scale, scale, n)
    return make_plpf(list(zip(pos.tolist(), vals.tolist())))


def random_comb_spec(rng, max_teeth=8):
    n = int(rng.integers(1, max_teeth + 1))
    a = float(rng.uniform(0.0, 1.0))
    length = float(rng.uniform(0.1, 1.0))
    heights = rng.uniform(0.0, 2.0, n)
    heights[int(rng.integers(0, n))] += 0.05  # keep at least one tooth real
    return TriangleCombSpec(Interval(a, length), n, tuple(heights.tolist()))


def random_lambda_prefix(rng, n, start=0.2):
    return start + np.cumsum(rng.uniform(0.05, 1.0, n))


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


def mp_shift_norm(f, h, p):
    """Reference ||f(. + h) - f||_p in mpmath at 40 digits.

    The kinks are exact at this precision, the difference is evaluated at
    each kink, and each linear piece is integrated exactly in closed form;
    only a piece flat to 1e-20 takes |midpoint|^p, whose error is below 1e-40.
    """
    if len(f.positions) == 1 or h == 0.0:
        return 0.0
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
        return float(total ** (1 / p))


def mp_lp_modulus_profile(f, p, deltas, h_samples=64):
    """Per delta, the max of mp_shift_norm over the library's own shift
    samples for max(deltas) that do not exceed delta (0.0 if none do)."""
    hs = _shift_candidates(f, max(deltas), h_samples)
    ref = np.asarray([mp_shift_norm(f, float(h), p) for h in hs])
    return [float(ref[hs <= d].max()) if (hs <= d).any() else 0.0 for d in deltas]
