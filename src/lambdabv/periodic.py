"""Continuous 1-periodic piecewise-linear functions: evaluation, monotone
arc decomposition, superposition, and exact derivative/sup norms."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PiecewiseLinearPeriodic",
    "Interval",
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


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class _ValueEquality:
    """Equality and hashing of a dataclass by its fields: arrays by their
    bytes after adding 0.0, which maps -0.0 to 0.0 (so finite values are
    equal exactly when their bytes are), other fields by ==.  An object of
    another type is never equal."""

    def _key(self) -> tuple:
        fields = (getattr(self, f.name) for f in dataclasses.fields(self))
        return tuple((v + 0.0).tobytes() if isinstance(v, np.ndarray) else v for v in fields)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPeriodic(_ValueEquality):
    """A continuous 1-periodic function, linear between breakpoints.

    ``positions`` are strictly increasing and lie in [0, 1).  The function
    interpolates linearly between consecutive breakpoints and between the
    last breakpoint and the first one shifted by the period, which forces
    continuity and 1-periodicity by construction.  Both fields are read-only
    float arrays copied from the input; equality and hashing go by value.
    """

    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        pos, val = _frozen(self.positions), _frozen(self.values)
        if pos.ndim != 1 or val.ndim != 1:
            raise ValueError("positions and values must be one-dimensional")
        if len(pos) == 0:
            raise ValueError("need at least one breakpoint")
        if len(pos) != len(val):
            raise ValueError("positions and values must have equal length")
        # NaN fails both comparisons
        if not np.all((pos >= 0.0) & (pos < 1.0)):
            raise ValueError("breakpoint positions must lie in [0, 1)")
        if not np.all(np.isfinite(val)):
            raise ValueError("breakpoint values must be finite")
        if np.any(pos[1:] <= pos[:-1]):
            raise ValueError("breakpoint positions must be strictly increasing")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "values", val)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        # one wrapped segment on each side, so every frac in [0, 1] lies on it
        p, v = self.positions, self.values
        return (_frozen(np.concatenate([[p[-1] - 1.0], p, [p[0] + 1.0]])),
                _frozen(np.concatenate([[v[-1]], v, [v[0]]])))

    def eval(self, x):
        """Evaluate at ``x`` (scalar or array); ``x`` is reduced modulo 1.

        Breakpoint values are reproduced exactly.  Periodicity is exact
        whenever the fractional part of ``x`` is exactly representable.  A
        NaN or infinite ``x`` evaluates to NaN.
        """
        scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
        xs = np.asarray(x, dtype=float)
        out = np.interp(xs - np.floor(xs), *self._table)
        return float(out) if scalar else out


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


@dataclass(frozen=True, eq=False)
class MonotoneArcDecomposition:
    """Maximal monotone arcs of a piecewise-linear function, as arrays in
    cyclic order.

    Arc i rises by the signed ``increments[i]``, and ``start_values[i]`` is
    the function value at its start, a local extremum; arc i + 1 starts
    where arc i ends.
    """

    increments: np.ndarray
    start_values: np.ndarray

    def __len__(self) -> int:
        return len(self.increments)

    def is_baseline_separated(self) -> bool:
        """True when all local minima agree exactly or all local maxima agree
        exactly; sorted arc increments then realize the variation suprema."""
        if len(self) == 0:
            return True
        sv, inc = self.start_values, self.increments
        valleys = sv[inc > 0]
        peaks = sv[inc < 0]
        return bool(np.all(valleys == valleys[0]) or np.all(peaks == peaks[0]))


def make_plpf(points) -> PiecewiseLinearPeriodic:
    """Build a PiecewiseLinearPeriodic from (position, value) pairs.

    Positions must be distinct and lie in [0, 1); they are sorted here.
    """
    pts = np.array(points, dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one breakpoint")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (position, value) pairs")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    xs = pts[:, 0]
    dup = np.flatnonzero(xs[1:] == xs[:-1])
    if dup.size:
        raise ValueError(f"duplicate breakpoint position {float(xs[dup[0]])!r}")
    return PiecewiseLinearPeriodic(xs, pts[:, 1])


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
    val = f.values
    sv = val[val != np.concatenate([val[-1:], val[:-1]])]
    sign = np.sign(np.diff(sv, append=sv[:1]))
    ext = sv[sign != np.concatenate([sign[-1:], sign[:-1]])]
    return MonotoneArcDecomposition(np.diff(ext, append=ext[:1]), ext)


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
    pos = np.unique(np.concatenate([f.positions for f in fs]))
    total = np.zeros(len(pos))
    for f in fs:
        total = total + f.eval(pos)
    return PiecewiseLinearPeriodic(pos, total)


def derivative_lp_norm(f: PiecewiseLinearPeriodic, p: float) -> float:
    """(sum over segments of |slope|^p * length)^(1/p), exact closed form,
    scaled by the largest |slope| so that no power overflows at a large p."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("p must satisfy p >= 1")
    pos, val = f.positions, f.values
    dx = np.diff(np.append(pos, pos[0] + 1.0))
    slopes = np.abs(np.diff(np.append(val, val[0])) / dx)
    top = float(slopes.max()) or 1.0
    return top * float(np.sum((slopes / top) ** p * dx)) ** (1.0 / p)


def sup_norm(f: PiecewiseLinearPeriodic) -> float:
    """max |f|; attained at a breakpoint for piecewise-linear functions."""
    return float(np.max(np.abs(f.values)))


def function_to_json(f: PiecewiseLinearPeriodic) -> str:
    """Serialize to the breakpoint file format with full double precision:
    the bytes of json.dumps, which writes each (finite) float as its repr."""
    pairs = ", ".join([f"[{x!r}, {y!r}]" for x, y in zip(f.positions.tolist(), f.values.tolist())])
    return '{"breakpoints": [' + pairs + "]}"


def function_from_json(text: str) -> PiecewiseLinearPeriodic:
    """Parse the breakpoint file format: {"breakpoints": [[x, y], ...]}; any
    other key is rejected, and so is any coordinate that is not a JSON number."""
    obj = json.loads(text, parse_int=float)
    if not isinstance(obj, dict) or "breakpoints" not in obj:
        raise ValueError('function JSON must be an object with a "breakpoints" key')
    unknown = [key for key in obj if key != "breakpoints"]
    if unknown:
        raise ValueError(f"function JSON has no key {unknown[0]!r}")
    bps = obj["breakpoints"]
    pts = np.array(bps, dtype=object)
    numbers = all(isinstance(v, float) for v in pts.flat)
    if not isinstance(bps, list) or (bps and pts.shape[1:] != (2,)) or not numbers:
        raise ValueError('"breakpoints" must be a list of [position, value] pairs of numbers')
    return make_plpf(pts.astype(float))
