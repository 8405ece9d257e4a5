"""Shared numeric primitives: boxes, populations, statistics and seeded streams.

Everything downstream (benchmarks, corrections, engines, telemetry) is built
on the small value types defined here.  Conventions fixed once and for all:

* the box is closed -- a component sitting exactly on a bound is feasible;
* the box is finite and no component is wider than ``MAX_BOX_WIDTH``;
* population variance uses the biased 1/N formula;
* a random stream is fully determined by ``(seed, stream_path)``, so
  parallel sweeps are schedule-free.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Bounds",
    "Population",
    "PopulationStats",
    "RngStream",
    "population_stats",
    "stable_key",
]


#: the widest a box component may be: the squared deviations of a population
#: of N points in the box then sum to at most N * 1e300, which stays finite for
#: N below about 10^8
MAX_BOX_WIDTH = 1e150


@dataclass(frozen=True, eq=False)
class Bounds:
    """A box D = [lower_1, upper_1] x ... x [lower_n, upper_n]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or up.ndim != 1 or lo.shape != up.shape:
            raise ValueError("bounds must be 1-D vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise ValueError("bounds must be finite")
        if not np.all(lo < up):
            raise ValueError("every lower bound must be strictly below its upper bound")
        too_wide = (up > lo + MAX_BOX_WIDTH).nonzero()[0]  # up - lo itself may overflow
        if too_wide.size:
            i = too_wide[0]
            raise ValueError(f"bounds component {i} spans [{lo[i]:g}, {up[i]:g}], wider than MAX_BOX_WIDTH = "
                             f"{MAX_BOX_WIDTH:g}, the widest box in which a population's variance stays finite")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def symmetric(cls, half_width: float, dimension: int) -> "Bounds":
        """The box [-half_width, half_width]^dimension."""
        return cls(np.full(dimension, -float(half_width)), np.full(dimension, float(half_width)))

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def outside(self, x: np.ndarray) -> np.ndarray:
        """The closed-box violation mask of the array ``x``, one entry per
        component: a component violates unless it lies in the closed box, so
        NaN violates."""
        return ~((x >= self.lower) & (x <= self.upper))

    def contains(self, x: np.ndarray) -> np.ndarray | bool:
        """Closed-box membership; reduces over the last (component) axis."""
        x = np.asarray(x, dtype=float)
        inside = np.logical_and.reduce((x >= self.lower) & (x <= self.upper), axis=-1)  # ~outside(x), reduced
        return bool(inside) if inside.ndim == 0 else inside


@dataclass(eq=False)
class Population:
    """Column-stacked population state.

    ``positions`` has shape (N, n) and ``fitness`` shape (N,).  The engines
    require N >= 4 (distinct indices for rand/1 mutation); the container
    itself allows any non-empty population so small hand-built fixtures work.
    ``stats`` holds :func:`population_stats` of ``positions`` once an engine
    has computed them, so a generation computes them only once.
    """

    positions: np.ndarray
    fitness: np.ndarray
    generation: int = 0
    stats: PopulationStats | None = None

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2:
            self.positions = np.atleast_2d(self.positions)
        self.fitness = np.asarray(self.fitness, dtype=float).ravel()
        if self.positions.shape[0] != self.fitness.size:
            raise ValueError("positions and fitness must have matching leading size")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def best_index(self) -> int:
        return int(self.fitness.argmin())


@dataclass(frozen=True, eq=False)
class PopulationStats:
    """Per-component mean and biased (1/N) variance of a population."""

    mean: np.ndarray
    variance: np.ndarray


def population_stats(pop: Population) -> PopulationStats:
    """Component-wise mean and 1/N variance of the population positions."""
    if pop.size == 0:
        raise ValueError("empty population")
    # the operations ndarray.mean and ndarray.var perform along axis 0, with
    # the mean computed once; the results are bit-identical to theirs
    mean = np.add.reduce(pop.positions, axis=0) / pop.size
    deviation = pop.positions - mean
    variance = np.add.reduce(deviation * deviation, axis=0) / pop.size  # biased 1/N formula
    return PopulationStats(mean=mean, variance=variance)


def stable_key(*parts) -> int:
    """64-bit key derived from a tuple of primitives.

    Stable across platforms and processes (unlike Python's salted hash), so
    instance generation and sweep seeding are reproducible everywhere.
    """
    text = "\x1f".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


class RngStream:
    """Seeded random stream addressable by a hierarchical path.

    Two streams with the same ``(seed, stream_path)`` produce bit-identical
    draw sequences, and streams with different paths are independent.
    """

    def __init__(self, seed: int, stream_path: tuple[int, ...] = ()) -> None:
        self.seed = int(seed)
        self.stream_path = tuple(int(k) for k in stream_path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream_path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_path={self.stream_path})"

    # -- draws ---------------------------------------------------------
    def random(self, size=None):
        """Unit draws from U[0, 1)."""
        return self._gen.random(size)

    def uniform(self, low, high, size=None):
        """U[low, high]; array arguments broadcast.  low == high is allowed
        (degenerate draw), low > high is not."""
        if _anywhere(operator.lt, high, low):
            raise ValueError("invalid distribution parameters: uniform needs high >= low")
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        if _anywhere(operator.le, scale, 0.0):
            raise ValueError("invalid distribution parameters: normal scale must be > 0")
        if size is None:  # one draw per entry of the broadcast parameters, as Generator.normal does
            size = np.broadcast_shapes(np.shape(loc), np.shape(scale)) or None
        # bit-identical to Generator.normal, without its slow array-parameter path
        return loc + scale * self._gen.standard_normal(size)

    def cauchy(self, loc=0.0, scale=1.0, size=None):
        if _anywhere(operator.le, scale, 0.0):
            raise ValueError("invalid distribution parameters: cauchy scale must be > 0")
        if size is None:  # one draw per entry of the broadcast parameters, as normal does
            size = np.broadcast_shapes(np.shape(loc), np.shape(scale)) or None
        return loc + scale * self._gen.standard_cauchy(size)

    def beta(self, a, b, size=None):
        """Beta draws; numpy samples these exactly via gamma variates."""
        if _anywhere(operator.le, a, 0.0) or _anywhere(operator.le, b, 0.0):
            raise ValueError("invalid distribution parameters: beta shapes must be > 0")
        return self._gen.beta(a, b, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)


def _anywhere(compare, a, b) -> bool:
    """Whether ``compare(a, b)`` holds for any element: a plain comparison
    when both are Python numbers, a reduction over the broadcast otherwise."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return compare(a, b)
    return bool(np.logical_or.reduce(compare(np.asarray(a), b), axis=None))
