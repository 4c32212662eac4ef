"""Continuous 1-periodic piecewise-linear functions: evaluation, monotone
arc decomposition, superposition, and exact derivative/sup norms."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PiecewiseLinearPeriodic",
    "Interval",
    "Arc",
    "MonotoneArcDecomposition",
    "make_plpf",
    "increment",
    "monotone_arcs",
    "superpose",
    "derivative_lp_norm",
    "sup_norm",
    "function_to_json",
    "function_from_json",
]


@dataclass(frozen=True)
class PiecewiseLinearPeriodic:
    """A continuous 1-periodic function, linear between breakpoints.

    ``positions`` are strictly increasing and lie in [0, 1).  The function
    interpolates linearly between consecutive breakpoints and between the
    last breakpoint and the first one shifted by the period, which forces
    continuity and 1-periodicity by construction.
    """

    positions: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.positions) == 0:
            raise ValueError("need at least one breakpoint")
        if len(self.positions) != len(self.values):
            raise ValueError("positions and values must have equal length")
        for x in self.positions:
            if not (math.isfinite(x) and 0.0 <= x < 1.0):
                raise ValueError("breakpoint positions must lie in [0, 1)")
        for y in self.values:
            if not math.isfinite(y):
                raise ValueError("breakpoint values must be finite")
        for i in range(len(self.positions) - 1):
            if self.positions[i] >= self.positions[i + 1]:
                raise ValueError("breakpoint positions must be strictly increasing")

    @cached_property
    def _pos(self) -> np.ndarray:
        a = np.asarray(self.positions, dtype=float)
        a.setflags(write=False)
        return a

    @cached_property
    def _val(self) -> np.ndarray:
        a = np.asarray(self.values, dtype=float)
        a.setflags(write=False)
        return a

    @cached_property
    def _pos_ext(self) -> np.ndarray:
        # one wrapped segment on each side so every x in [0, 1) falls strictly
        # inside some segment of the extended table
        p = self._pos
        a = np.concatenate([[p[-1] - 1.0], p, [p[0] + 1.0]])
        a.setflags(write=False)
        return a

    @cached_property
    def _val_ext(self) -> np.ndarray:
        v = self._val
        a = np.concatenate([[v[-1]], v, [v[0]]])
        a.setflags(write=False)
        return a

    def eval(self, x):
        """Evaluate at ``x`` (scalar or array); ``x`` is reduced modulo 1.

        Breakpoint values are reproduced exactly.  Periodicity is exact
        whenever the fractional part of ``x`` is exactly representable.
        """
        scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
        xs = np.asarray(x, dtype=float)
        frac = xs - np.floor(xs)
        if len(self.positions) == 1:
            out = np.full(frac.shape, self.values[0])
            return float(out) if scalar else out
        pe, ve = self._pos_ext, self._val_ext
        idx = np.searchsorted(pe, frac, side="right") - 1
        x0 = pe[idx]
        y0 = ve[idx]
        out = y0 + (frac - x0) * (ve[idx + 1] - y0) / (pe[idx + 1] - x0)
        return float(out) if scalar else out

    __call__ = eval

    def breakpoints(self) -> list[tuple[float, float]]:
        return list(zip(self.positions, self.values))


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, a + length] on the unit circle."""

    a: float
    length: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and 0.0 <= self.a < 1.0):
            raise ValueError("interval start must lie in [0, 1)")
        if not (math.isfinite(self.length) and 0.0 < self.length <= 1.0):
            raise ValueError("interval length must lie in (0, 1]")

    @property
    def b(self) -> float:
        return self.a + self.length


@dataclass(frozen=True)
class Arc:
    """Maximal monotone arc: start/end positions in [0, 1) (the arc wraps when
    end <= start) and its signed increment."""

    start: float
    end: float
    increment: float


@dataclass(frozen=True)
class MonotoneArcDecomposition:
    """Circular list of maximal monotone arcs of a piecewise-linear function.

    ``start_values`` holds the function value at each arc start, in the same
    cyclic order as ``arcs``; arc starts are exactly the local extrema.
    """

    arcs: tuple[Arc, ...]
    start_values: tuple[float, ...]

    @cached_property
    def increments(self) -> np.ndarray:
        a = np.asarray([arc.increment for arc in self.arcs], dtype=float)
        a.setflags(write=False)
        return a

    def is_baseline_separated(self) -> bool:
        """True when all local minima agree exactly or all local maxima agree
        exactly; sorted arc increments then realize the variation suprema."""
        if not self.arcs:
            return True
        sv = np.asarray(self.start_values)
        inc = self.increments
        valleys = sv[inc > 0]
        peaks = sv[inc < 0]
        return bool(np.all(valleys == valleys[0]) or np.all(peaks == peaks[0]))


def make_plpf(points) -> PiecewiseLinearPeriodic:
    """Build a PiecewiseLinearPeriodic from (position, value) pairs.

    Positions must be distinct and lie in [0, 1); they are sorted here.
    """
    pts = sorted((float(x), float(y)) for x, y in points)
    if not pts:
        raise ValueError("need at least one breakpoint")
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x0 == x1:
            raise ValueError(f"duplicate breakpoint position {x0!r}")
    xs, ys = zip(*pts)
    return PiecewiseLinearPeriodic(tuple(xs), tuple(ys))


def increment(f: PiecewiseLinearPeriodic, interval: Interval) -> float:
    """f(b) - f(a) over the interval [a, a + length]."""
    if interval.length == 1.0:
        # full period: exactly zero by periodicity, independent of float drift
        return 0.0
    return float(f.eval(interval.a + interval.length) - f.eval(interval.a))


def monotone_arcs(f: PiecewiseLinearPeriodic) -> MonotoneArcDecomposition:
    """Decompose ``f`` into maximal circular monotone arcs.

    Consecutive equal breakpoint values (plateaus) are collapsed first.  Each
    survivor then differs from its cyclic neighbours, so the survivors of a
    non-constant function rise and fall at least once each; a constant
    function yields an empty decomposition.
    """
    pos, val = f._pos, f._val
    keep = val != np.roll(val, 1)
    if not keep.any():
        return MonotoneArcDecomposition((), ())
    sp, sv = pos[keep], val[keep]
    sign = np.sign(np.roll(sv, -1) - sv)
    ext = np.flatnonzero(sign != np.roll(sign, 1))
    arcs = []
    m = ext.size
    for i in range(m):
        j0, j1 = ext[i], ext[(i + 1) % m]
        arcs.append(Arc(float(sp[j0]), float(sp[j1]), float(sv[j1] - sv[j0])))
    return MonotoneArcDecomposition(tuple(arcs), tuple(float(v) for v in sv[ext]))


def superpose(fs) -> PiecewiseLinearPeriodic:
    """Pointwise sum; the breakpoint set is the union of the inputs' sets.

    Exact at shared breakpoints and wherever all but one summand vanish, so
    superposing functions with disjoint supports preserves values exactly.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("superpose needs at least one function")
    if len(fs) == 1:
        return fs[0]
    pos = np.unique(np.concatenate([f._pos for f in fs]))
    total = np.zeros(len(pos))
    for f in fs:
        total = total + f.eval(pos)
    return PiecewiseLinearPeriodic(tuple(pos.tolist()), tuple(total.tolist()))


def derivative_lp_norm(f: PiecewiseLinearPeriodic, p: float) -> float:
    """(sum over segments of |slope|^p * length)^(1/p), exact closed form."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("p must satisfy p >= 1")
    if len(f.positions) == 1:
        return 0.0
    pos, val = f._pos, f._val
    dx = np.diff(np.append(pos, pos[0] + 1.0))
    dy = np.diff(np.append(val, val[0]))
    slopes = dy / dx
    return float(np.sum(np.abs(slopes) ** p * dx) ** (1.0 / p))


def sup_norm(f: PiecewiseLinearPeriodic) -> float:
    """max |f|; attained at a breakpoint for piecewise-linear functions."""
    return float(np.max(np.abs(f._val)))


def function_to_json(f: PiecewiseLinearPeriodic) -> str:
    """Serialize to the breakpoint file format with full double precision."""
    return json.dumps({"breakpoints": [[x, y] for x, y in f.breakpoints()]})


def function_from_json(text: str) -> PiecewiseLinearPeriodic:
    """Parse the breakpoint file format: {"breakpoints": [[x, y], ...]}."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "breakpoints" not in obj:
        raise ValueError('function JSON must be an object with a "breakpoints" key')
    bps = obj["breakpoints"]
    if not isinstance(bps, list) or any(len(b) != 2 for b in bps):
        raise ValueError('"breakpoints" must be a list of [position, value] pairs')
    return make_plpf([(float(x), float(y)) for x, y in bps])
