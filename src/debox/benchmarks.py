"""Strict-box benchmark problems.

The suite mirrors the strict-box benchmarking style: every problem lives on
the box [-5, 5]^n, and evaluating a point outside the closed box yields
+inf (death-penalty semantics); whether that spends budget is a run setting.
Instances are seeded purely by their coordinates, so the same (function,
instance, dimension, mode) always yields the same problem.

Two placement modes exist:

* ``SBOX``      -- the optimum is drawn from U[-5, 5]^n, i.e. it can land
                   arbitrarily close to the boundary;
* ``BBOB_LIKE`` -- the optimum is kept inside [-4, 4]^n, leaving a
                   boundary margin free of optima.

The linear slope always places its optimum on a corner of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Bounds, RngStream, stable_key

__all__ = [
    "BenchmarkProblem",
    "ExternalProblem",
    "catalog_ids",
    "create_problem",
    "make_instance",
    "register_problem",
    "registered_problem_ids",
]

MODES = ("SBOX", "BBOB_LIKE")
BOX_HALF_WIDTH = 5.0
INNER_HALF_WIDTH = 4.0
OFFSET_RANGE = 100.0  # f* ~ U[-100, 100]


# ---------------------------------------------------------------------------
# raw landscapes, all expressed on shifted coordinates z = x - x* with
# minimum value 0 at z = 0
# ---------------------------------------------------------------------------

def _raw_sphere(z: np.ndarray) -> np.ndarray:
    return np.add.reduce(z * z, axis=-1)


def _raw_separable_ellipsoid(z: np.ndarray) -> np.ndarray:
    n = z.shape[-1]
    exponents = 6.0 * np.arange(n) / (n - 1)
    return np.add.reduce(10.0**exponents * z * z, axis=-1)


def _raw_rastrigin(z: np.ndarray) -> np.ndarray:
    n = z.shape[-1]
    return 10.0 * (n - np.add.reduce(np.cos(2.0 * np.pi * z), axis=-1)) + np.add.reduce(z * z, axis=-1)


def _raw_rosenbrock(z: np.ndarray) -> np.ndarray:
    # classic Rosenbrock has its optimum at the all-ones vector; evaluating
    # on w = z + 1 moves that optimum to z = 0 so the stored x* stays exact
    w = z + 1.0
    head, tail = w[..., :-1], w[..., 1:]
    return np.add.reduce(100.0 * (head**2 - tail) ** 2 + (head - 1.0) ** 2, axis=-1)


def _raw_different_powers(z: np.ndarray) -> np.ndarray:
    n = z.shape[-1]
    exponents = 2.0 + 4.0 * np.arange(n) / (n - 1)
    return np.add.reduce(np.abs(z) ** exponents, axis=-1)


def _slope(x: np.ndarray, x_star: np.ndarray, signed_weights: np.ndarray) -> np.ndarray:
    """Linear landscape, 0 at the corner x* and strictly positive elsewhere in the box."""
    # w_i sign(x*_i) is w_i or -w_i exactly, so this is bit for bit w_i (x*_i - x_i) sign(x*_i)
    return np.add.reduce(signed_weights * (x_star - x), axis=-1)


def _signed_slope_weights(x_star: np.ndarray, bounds: Bounds) -> np.ndarray:
    """w_i sign(x*_i) with w_i = 10^(i/(n-1)); raises unless x* is a corner of the box."""
    if not np.logical_and.reduce((x_star == bounds.lower) | (x_star == bounds.upper)):
        raise ValueError("linear slope requires corner optimum")
    n = x_star.size
    return 10.0 ** (np.arange(n) / (n - 1)) * np.sign(x_star)


#: id -> landscape of a batch (m, n); linear_slope's also takes x* and its signed weights
_CATALOG: dict[str, Callable[..., np.ndarray]] = {
    "sphere": _raw_sphere,
    "separable_ellipsoid": _raw_separable_ellipsoid,
    "rastrigin": _raw_rastrigin,
    "linear_slope": _slope,
    "rosenbrock": _raw_rosenbrock,
    "different_powers": _raw_different_powers,
}


def catalog_ids() -> list[str]:
    return sorted(_CATALOG)


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BenchmarkProblem:
    """A problem under strict-box semantics: a seeded catalogue instance, or a
    user-supplied ``objective`` (see :func:`ExternalProblem`).

    The two evaluation tallies are the only mutable state: the object's own
    lifetime count, which no run reads or resets, so runs may share one
    problem.  Without ``optimum_value`` a run cannot report an error, and
    behaviour classification degrades to the variance-only form.
    """

    function_id: str
    instance_id: int
    dimension: int
    bounds: Bounds
    optimum_location: np.ndarray | None
    optimum_value: float | None
    mode: str = "SBOX"
    objective: Callable[[np.ndarray], float] | None = None  # one point to a float; None: the catalogue
    feasible_evaluations: int = field(default=0, compare=False)
    infeasible_evaluations: int = field(default=0, compare=False)
    _slope_weights: np.ndarray | None = field(default=None, init=False, repr=False)  # linear_slope only

    def __post_init__(self) -> None:
        if self.optimum_value is not None and not math.isfinite(self.optimum_value):
            raise ValueError(f"problem {self.function_id!r}: optimum_value must be finite, "
                             f"got {self.optimum_value}")
        if self.bounds.dimension != self.dimension:
            raise ValueError(f"problem {self.function_id!r}: bounds of dimension {self.bounds.dimension} "
                             f"for a problem of dimension {self.dimension}")
        if self.objective is not None:
            return
        if self.function_id not in _CATALOG:
            raise ValueError(f"unknown function {self.function_id!r}")
        if self.dimension < 2:
            raise ValueError(f"problem {self.function_id!r}: dimension must be >= 2, got {self.dimension}")
        self.optimum_location = np.asarray(self.optimum_location, dtype=float)
        if self.optimum_location.size != self.dimension:
            raise ValueError("optimum_location length must equal dimension")
        if self.function_id == "linear_slope":  # its corner is checked once, here, not per evaluation
            self._slope_weights = _signed_slope_weights(self.optimum_location, self.bounds)

    def evaluate(self, x: np.ndarray) -> float:
        """Strict-box evaluation of one point: +inf outside the closed box.

        Infeasible calls never touch the raw landscape; they add to the
        ``infeasible_evaluations`` tally, and a run charges them as its config says.
        """
        return float(self.evaluate_batch(np.asarray(x, dtype=float)[None])[0])

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Strict-box evaluation of a batch (m, n); one value per row.

        Rows outside the closed box score +inf without reaching the landscape
        and count as infeasible evaluations; the others count as feasible.  A
        NaN objective value scores +inf, so minimum searches and greedy
        selection never pick it; an objective value of -inf raises
        ``ValueError``, since no error can be measured from it.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dimension:
            raise ValueError("dimension mismatch")
        inside = self.bounds.contains(xs)
        feasible = int(np.count_nonzero(inside))
        self.feasible_evaluations += feasible
        self.infeasible_evaluations += len(xs) - feasible
        if feasible == len(xs):
            values = np.asarray(self._landscape(xs), dtype=float)
        else:
            values = np.full(len(xs), np.inf)
            if feasible:
                values[inside] = self._landscape(xs.compress(inside, axis=0))  # xs[inside], without fancy indexing
        if not np.minimum.reduce(values, initial=np.inf) > -np.inf:  # some value is NaN or -inf
            values[np.isnan(values)] = np.inf
            if np.logical_or.reduce(values == -np.inf):
                raise ValueError(f"problem {self.function_id!r}: the objective returned -inf")
        return values

    def _landscape(self, xs: np.ndarray) -> np.ndarray:
        """Objective values of in-box rows; a plugin objective must return one number per point."""
        if self.objective is not None:
            refusal = f"problem {self.function_id!r}: the objective must return one number per point"
            results = [self.objective(x) for x in xs]
            if any(r is None for r in results):  # an objective that misses its return
                raise ValueError(f"{refusal}, got None")
            try:
                values = np.array(results, dtype=float)
            except (TypeError, ValueError) as error:  # results of unequal shapes, or not numbers
                raise ValueError(f"{refusal} ({error})") from error
            if values.ndim != 1:
                raise ValueError(f"{refusal}, got shape {values.shape[1:]}")
            return values
        if self._slope_weights is not None:
            return _slope(xs, self.optimum_location, self._slope_weights) + self.optimum_value
        return _CATALOG[self.function_id](xs - self.optimum_location) + self.optimum_value


def ExternalProblem(name: str, dimension: int, bounds: Bounds, objective: Callable[[np.ndarray], float],
                    optimum_value: float | None = None) -> BenchmarkProblem:
    """Strict-box semantics for a user-supplied ``objective`` of one point.

    Only (name, dimension, bounds, objective) are required; the objective
    sees one in-box point at a time and its values are used as they are.
    """
    return BenchmarkProblem(function_id=name, instance_id=0, dimension=dimension, bounds=bounds,
                            optimum_location=None, optimum_value=optimum_value, mode="external",
                            objective=objective)


def make_instance(
    function_id: str,
    instance_id: int,
    dimension: int,
    mode: str = "SBOX",
) -> BenchmarkProblem:
    """Instantiate a catalogue function; a pure function of its arguments.
    :class:`BenchmarkProblem` checks the function id and the dimension."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    bounds = Bounds.symmetric(BOX_HALF_WIDTH, dimension)
    stream = RngStream(stable_key("instance", function_id, instance_id, dimension, mode))
    offset = stream.uniform(-OFFSET_RANGE, OFFSET_RANGE)
    if function_id == "linear_slope":
        corner_sign = np.where(stream.random(dimension) < 0.5, -1.0, 1.0)
        x_star = corner_sign * BOX_HALF_WIDTH
    else:
        half = INNER_HALF_WIDTH if mode == "BBOB_LIKE" else BOX_HALF_WIDTH
        x_star = stream.uniform(-half, half, dimension)
    return BenchmarkProblem(
        function_id=function_id,
        instance_id=instance_id,
        dimension=dimension,
        bounds=bounds,
        optimum_location=x_star,
        optimum_value=float(offset),
        mode=mode,
    )


# ---------------------------------------------------------------------------
# plugin problems
# ---------------------------------------------------------------------------

_PROBLEM_REGISTRY: dict[str, Callable[[int, int], BenchmarkProblem]] = {}


def register_problem(name: str, factory: Callable[[int, int], BenchmarkProblem]) -> None:
    """Register an external problem factory under ``name``.

    The factory is called as ``factory(instance_id, dimension)`` and must
    return a :class:`BenchmarkProblem`, usually one built by
    :func:`ExternalProblem`.  A catalogue id cannot be registered, since
    :func:`create_problem` resolves the catalogue first.
    """
    if name in _CATALOG:
        raise ValueError(f"{name!r} is a catalogue function id; register the problem under another name")
    _PROBLEM_REGISTRY[name] = factory


def registered_problem_ids() -> list[str]:
    return sorted(_PROBLEM_REGISTRY)


def create_problem(
    function_id: str,
    instance_id: int,
    dimension: int,
    mode: str = "SBOX",
) -> BenchmarkProblem:
    """Resolve a function id against the catalogue, then the plugin registry."""
    if function_id in _CATALOG:
        return make_instance(function_id, instance_id, dimension, mode)
    if function_id in _PROBLEM_REGISTRY:
        problem = _PROBLEM_REGISTRY[function_id](instance_id, dimension)
        if not isinstance(problem, BenchmarkProblem):
            raise TypeError(f"plugin problem {function_id!r} returned {type(problem).__name__}, "
                            "not a BenchmarkProblem")
        return problem
    raise ValueError(f"unknown function {function_id!r}")
