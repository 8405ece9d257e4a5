"""Bound constraint handling methods (BCHMs).

Each method maps an infeasible trial vector back into the closed box (or
discards it).  Component-wise methods touch only the violated components;
vector-wise methods rescale the whole vector toward a feasible reference
point.  All corrections accept either a single vector of shape (n,) or a
batch of shape (m, n); the engines hand a generation's whole trial block to
one call, and a vector is repaired as a one-row batch would be.  A row with
no violated component comes back bit-unchanged and consumes no draw, so a
block repairs exactly as its infeasible rows alone would.

Each public call validates its input once and gathers the violated entries
once, in row-major order (row by row, and by component within a row); a
method that draws consumes its draws in that order.  Input with a NaN or
infinite component raises ``ValueError``: such a trial has no defined repair.

Method ids used in configs and CSV output:

    sat, mirror, uniform, beta, expTarget, expBest, expMidpoint,
    vectorTarget, vectorBest, vectorMidpoint, dismiss, adaptive
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Bounds, PopulationStats, RngStream

__all__ = [
    "ADAPTIVE_POOL",
    "AdaptiveState",
    "BetaFitParams",
    "CORRECTING_METHOD_IDS",
    "CorrectionContext",
    "CorrectionOutcome",
    "METHOD_IDS",
    "adaptive_correct",
    "adaptive_select",
    "adaptive_update",
    "beta_correct",
    "correct",
    "dismiss",
    "exp_confined",
    "fit_beta_params",
    "mirror",
    "saturate",
    "vector_alpha",
    "vector_correct",
]

METHOD_IDS = (
    "sat",
    "mirror",
    "uniform",
    "beta",
    "expTarget",
    "expBest",
    "expMidpoint",
    "vectorTarget",
    "vectorBest",
    "vectorMidpoint",
    "dismiss",
    "adaptive",
)

#: every method that actually produces a corrected vector (dismiss discards)
CORRECTING_METHOD_IDS = tuple(m for m in METHOD_IDS if m != "dismiss")

@dataclass(eq=False)
class CorrectionContext:
    """Feasible reference information available at the repair point.

    ``target`` is the trial's target individual, ``pbest`` a p-best element
    and ``population_mean`` the midpoint (mean) of the current population;
    ``stats`` carries the per-component mean/variance needed by the Beta
    correction.
    """

    bounds: Bounds
    target: np.ndarray
    pbest: np.ndarray
    population_mean: np.ndarray
    stats: PopulationStats | None = None
    beta_epsilon: float = 0.1


@dataclass(eq=False)
class CorrectionOutcome:
    """Result of applying a BCHM: either a feasible vector or a dismissal.

    For a batch, ``dismiss`` reports a per-row mask in ``dismissed`` and keeps
    the input rows in ``vector``.
    """

    vector: np.ndarray | None
    dismissed: bool | np.ndarray = False
    components_corrected: int = 0
    vector_alpha: float | np.ndarray | None = None


def _as_float_array(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError("expected a vector (n,) or a batch (m, n)")
    if not np.logical_and.reduce(np.isfinite(y), axis=None):
        raise ValueError("trial vectors must be finite: NaN and inf have no repair")
    return y


class _Violations(NamedTuple):
    """The violated entries of a trial array, in row-major order."""

    y: np.ndarray  # the trial array
    at: np.ndarray  # flat row-major index of each violated entry
    cols: np.ndarray  # its component index
    values: np.ndarray  # its value
    lo: np.ndarray  # its component's lower bound
    hi: np.ndarray  # its component's upper bound
    below: np.ndarray  # whether it lies below ``lo`` (else above ``hi``)


def _violations(y, bounds: Bounds) -> _Violations:
    y = _as_float_array(y)
    return _gather(y, ((y < bounds.lower) | (y > bounds.upper)).ravel().nonzero()[0], bounds)


def _gather(y: np.ndarray, at: np.ndarray, bounds: Bounds) -> _Violations:
    """The entries of ``y`` at the flat indices ``at``, all of them violated."""
    cols = at % y.shape[-1]
    values, lo = y.ravel()[at], bounds.lower[cols]
    return _Violations(y, at, cols, values, lo, bounds.upper[cols], values < lo)


def _repaired(v: _Violations, repairs) -> CorrectionOutcome:
    """The trial array with its violated entries replaced by ``repairs``."""
    corrected = v.y.copy()
    corrected.ravel()[v.at] = repairs  # a view: the copy is C-contiguous
    return CorrectionOutcome(corrected, components_corrected=v.at.size)


def _clip(y, lower, upper) -> np.ndarray:
    """np.clip(y, lower, upper), bit for bit, without its Python-level overhead."""
    return np.minimum(np.maximum(y, lower), upper)


#: reference name -> the CorrectionContext field holding the reference point
_REFERENCE_FIELDS = {"target": "target", "pbest": "pbest", "midpoint": "population_mean"}


def resolve_reference(reference: str, ctx: CorrectionContext) -> np.ndarray:
    if reference not in _REFERENCE_FIELDS:
        raise ValueError(f"unknown reference {reference!r}, expected one of {tuple(_REFERENCE_FIELDS)}")
    return np.asarray(getattr(ctx, _REFERENCE_FIELDS[reference]), dtype=float)


def _reference_at(R: np.ndarray, v: _Violations) -> np.ndarray:
    """R at the violated entries; a shared (n,) reference repeats on every row."""
    return R.ravel()[v.at % R.size]


# ---------------------------------------------------------------------------
# component-wise corrections
# ---------------------------------------------------------------------------

def saturate(y, bounds: Bounds) -> CorrectionOutcome:
    """Set each violated component on the violated bound."""
    y = _as_float_array(y)
    # the clip moves exactly the violated entries, each onto its bound
    corrected = _clip(y, bounds.lower, bounds.upper)
    return CorrectionOutcome(corrected, components_corrected=np.count_nonzero(corrected != y))


def mirror(y, bounds: Bounds) -> CorrectionOutcome:
    """Reflect violated components back into the box.

    Uses the closed-form fold with period 2*(b-a), equivalent to applying
    the reflections 2a-y / 2b-y repeatedly until the component is feasible
    (a single reflection can itself land outside for violations larger than
    the box width).
    """
    v = _violations(y, bounds)
    return _repaired(v, _mirrored(v))


def _mirrored(v: _Violations) -> np.ndarray:
    width2 = 2.0 * (v.hi - v.lo)
    z = np.mod(v.values - v.lo, width2)
    return v.lo + np.minimum(z, width2 - z)


@dataclass(eq=False)
class BetaFitParams:
    """Shape parameters of the per-component Beta correction.

    Components where the population moments are not Beta-representable
    (zero variance, or variance at/above m*(1-m)) are flagged in
    ``fallback_mask`` and handled by uniform resampling instead.
    """

    alpha: np.ndarray
    beta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    epsilon: float
    fallback_mask: np.ndarray


def fit_beta_params(stats: PopulationStats, bounds: Bounds,
                    epsilon: float = CorrectionContext.beta_epsilon) -> BetaFitParams:
    """Moment-match Beta shapes to the population mean and variance.

    With the box rescaled to [0, 1]:  m_i = (Mean_i - a_i)/(b_i - a_i)
    (clamped into [epsilon, 1-epsilon]) and v_i = Var_i/(b_i - a_i)^2, then

        alpha_i = m_i * (m_i*(1 - m_i)/v_i - 1),   beta_i = alpha_i*(1 - m_i)/m_i.
    """
    width = bounds.width
    m = _clip((stats.mean - bounds.lower) / width, epsilon, 1.0 - epsilon)
    v = stats.variance / width**2
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = m * (m * (1.0 - m) / v - 1.0)
        beta = alpha * (1.0 - m) / m
    fallback = ~np.isfinite(alpha) | ~np.isfinite(beta) | (alpha <= 0.0) | (beta <= 0.0) | (v <= 0.0)
    return BetaFitParams(alpha=alpha, beta=beta, m=m, v=v, epsilon=epsilon, fallback_mask=fallback)


def beta_correct(
    y, bounds: Bounds, stats: PopulationStats, rng: RngStream, epsilon: float = CorrectionContext.beta_epsilon
) -> CorrectionOutcome:
    """Replace violated components with draws from a_i + Beta(alpha_i, beta_i)*(b_i - a_i).

    The shapes are moment-matched to the current population so the corrected
    components have (approximately) the population mean and variance.
    Fallback components follow uniform resampling.  Beta draws are consumed
    first (row-major over violated positions), then uniform fallback draws.
    """
    v = _violations(y, bounds)
    return _repaired(v, _beta_values(v, fit_beta_params(stats, bounds, epsilon), rng))


def _beta_values(v: _Violations, params: BetaFitParams, rng: RngStream) -> np.ndarray:
    use_beta = ~params.fallback_mask[v.cols]
    fallback = ~use_beta
    values = np.empty(v.at.size)
    if np.logical_or.reduce(use_beta):
        cols, lo, hi = v.cols[use_beta], v.lo[use_beta], v.hi[use_beta]
        values[use_beta] = lo + rng.beta(params.alpha[cols], params.beta[cols]) * (hi - lo)
    if np.logical_or.reduce(fallback):
        values[fallback] = rng.uniform(v.lo[fallback], v.hi[fallback])
    return _clip(values, v.lo, v.hi)


def exp_confined(
    y, bounds: Bounds, reference: str, ctx: CorrectionContext, rng: RngStream
) -> CorrectionOutcome:
    """Exponentially confined correction between the violated bound and a reference.

    For a lower violation the corrected component is

        c(y_i) = a_i - ln(1 + r * (exp(a_i - R_i) - 1)),    r ~ U[0, 1],

    and symmetrically c(y_i) = b_i + ln(1 + (1 - r) * (exp(R_i - b_i) - 1))
    for an upper violation; r is drawn fresh per violated component
    (row-major order).  The output lies in [a_i, R_i] resp. [R_i, b_i].
    """
    R = resolve_reference(reference, ctx)
    v = _violations(y, bounds)
    return _repaired(v, _exp_values(v, R, rng))


def _exp_values(v: _Violations, R: np.ndarray, rng: RngStream) -> np.ndarray:
    ref = _reference_at(R, v)
    r = rng.random(v.at.size)
    # log1p/expm1 keep the correction strictly inside the interval for small r
    lower = v.lo - np.log1p(r * np.expm1(v.lo - ref))
    upper = v.hi + np.log1p((1.0 - r) * np.expm1(ref - v.hi))
    return _clip(np.where(v.below, lower, upper), v.lo, v.hi)


# ---------------------------------------------------------------------------
# vector-wise correction
# ---------------------------------------------------------------------------

def vector_alpha(y, R, bounds: Bounds) -> float | np.ndarray:
    """Scaling factor moving y onto the box along the segment toward R.

    alpha = min_i alpha_i with alpha_i = (R_i - a_i)/(R_i - y_i) for lower
    violations, (b_i - R_i)/(y_i - R_i) for upper violations and 1 for
    feasible components.  alpha is in [0, 1]; alpha = 1 means y is feasible.
    """
    return _shrink(_violations(y, bounds), np.asarray(R, dtype=float), bounds)


def _shrink(v: _Violations, R: np.ndarray, bounds: Bounds, out: np.ndarray | None = None):
    """Every row's alpha; with ``out``, also write alpha*y + (1-alpha)*R into
    it on each row with a violated entry in ``v``."""
    ref = _reference_at(R, v)
    if np.logical_or.reduce(ref == v.values):
        raise ValueError("degenerate reference")
    alpha_i = np.full(v.y.shape, np.inf)  # a violated entry's alpha_i is at most 1
    alpha_i.ravel()[v.at] = np.where(v.below, (ref - v.lo) / (ref - v.values),
                                     (v.hi - ref) / (v.values - ref))
    row_min = np.asarray(np.minimum.reduce(alpha_i, axis=-1))
    alpha = _clip(row_min, 0.0, 1.0)
    if out is not None:
        a = alpha[..., np.newaxis]
        # a*y + (1-a)*R can overshoot the binding bound by one ulp
        shrunk = _clip(a * v.y + (1.0 - a) * R, bounds.lower, bounds.upper)
        np.copyto(out, shrunk, where=(row_min < np.inf)[..., np.newaxis])
    return float(alpha) if alpha.ndim == 0 else alpha


def vector_correct(y, reference: str, ctx: CorrectionContext) -> CorrectionOutcome:
    """Shrink the whole vector toward the reference: c = alpha*y + (1-alpha)*R.

    The corrected point is where the segment [R, y] crosses the box, so for
    reference = target the search direction y - x is preserved exactly.
    Feasible rows (alpha = 1) come back untouched.
    """
    R = resolve_reference(reference, ctx)
    v = _violations(y, ctx.bounds)
    corrected = v.y.copy()
    alpha = _shrink(v, R, ctx.bounds, corrected)
    return CorrectionOutcome(corrected, components_corrected=np.count_nonzero(corrected != v.y), vector_alpha=alpha)


def dismiss(y, bounds: Bounds) -> CorrectionOutcome:
    """Discard infeasible vectors (death penalty); feasible input passes through.

    A single dismissed vector yields ``vector=None``; a batch yields its rows
    unchanged and the mask of dismissed rows.
    """
    y = _as_float_array(y)
    inside = bounds.contains(y)
    if y.ndim == 2:
        return CorrectionOutcome(y.copy(), dismissed=~inside)
    if inside:
        return CorrectionOutcome(y.copy())
    return CorrectionOutcome(None, dismissed=True)


# ---------------------------------------------------------------------------
# adaptive selection
# ---------------------------------------------------------------------------

#: pool of methods available to the adaptive selector, in selection order
ADAPTIVE_POOL = ("vectorBest", "expBest", "sat", "vectorTarget", "beta")


@dataclass(eq=False)
class AdaptiveState:
    """Selection probabilities plus use/success counters for the method pool.

    The probabilities are adjusted every ``update_period`` generations from
    the per-method success ratios and never drop below ``floor_probability``.
    """

    pool: tuple[str, ...] = ADAPTIVE_POOL
    probabilities: np.ndarray = None
    uses: np.ndarray = None
    successes: np.ndarray = None
    update_period: int = 25
    floor_probability: float = 0.05

    def __post_init__(self) -> None:
        k = len(self.pool)
        if self.probabilities is None:
            self.probabilities = np.full(k, 1.0 / k)
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.uses is None:
            self.uses = np.zeros(k, dtype=int)
        if self.successes is None:
            self.successes = np.zeros(k, dtype=int)


def adaptive_select(state: AdaptiveState, rng: RngStream, size: int | None = None):
    """Draw from the categorical selection distribution and count the uses.

    Returns one method id, or with ``size`` an array of ``size`` pool indices
    (one unit draw each).
    """
    u = rng.random(size)
    k = np.minimum(np.searchsorted(np.cumsum(state.probabilities), u, side="right"), len(state.pool) - 1)
    state.uses += np.bincount(np.ravel(k), minlength=len(state.pool))
    return state.pool[int(k)] if size is None else k


def _floor_and_normalize(p: np.ndarray, floor: float) -> np.ndarray:
    """Renormalize p to sum 1 with every entry >= floor."""
    p = np.asarray(p, dtype=float).copy()
    floored = np.zeros(p.size, dtype=bool)
    for _ in range(p.size):
        low = p < floor
        if not low.any():
            break
        floored |= low
        p[floored] = floor
        free = ~floored
        remaining = 1.0 - floor * floored.sum()
        p[free] = p[free] / p[free].sum() * remaining
    return p


def adaptive_update(state: AdaptiveState) -> AdaptiveState:
    """Refresh selection probabilities from the observed success ratios.

    Laplace-smoothed scores (successes+1)/(uses+2) are normalized into a
    distribution, floored at ``floor_probability`` and renormalized; the
    counters restart from zero for the next learning period.
    """
    scores = (state.successes + 1.0) / (state.uses + 2.0)
    probabilities = _floor_and_normalize(scores / scores.sum(), state.floor_probability)
    return dataclasses.replace(state, probabilities=probabilities, uses=None, successes=None)


def adaptive_correct(
    y, ctx: CorrectionContext, rng: RngStream, state: AdaptiveState
) -> tuple[CorrectionOutcome, int | np.ndarray]:
    """Select a pool method per infeasible vector and repair each with its method.

    Returns the outcome and the pool index of each vector, -1 for a feasible
    one (an int for a single vector).  Draw order: one selection draw per
    infeasible vector, in row order, then each method's draws on the
    violated entries of its vectors, row-major, in pool order.  Reference
    vectors of shape (m, n) in ``ctx`` are read at each vector's own row.
    """
    batch = np.atleast_2d(_as_float_array(y))
    outside = (batch < ctx.bounds.lower) | (batch > ctx.bounds.upper)
    infeasible = np.logical_or.reduce(outside, axis=1)
    picks, corrected = np.full(len(batch), -1), batch.copy()
    if np.logical_or.reduce(infeasible):
        picks[infeasible] = adaptive_select(state, rng, size=np.count_nonzero(infeasible))
        at = outside.ravel().nonzero()[0]
        entry_picks = picks[at // batch.shape[1]]
        # one gather, grouped by method; each group's entries stay in row-major order
        v = _gather(batch, at[entry_picks.argsort(kind="stable")], ctx.bounds)
        stops = np.bincount(entry_picks, minlength=len(state.pool)).cumsum().tolist()
        for method, start, stop in zip(state.pool, [0] + stops, stops):
            if stop == start:
                continue
            group = _Violations(batch, *(field[start:stop] for field in v[1:]))
            if method.startswith("vector"):
                _shrink(group, resolve_reference(_suffix_reference(method), ctx), ctx.bounds, corrected)
            else:
                corrected.ravel()[group.at] = _entry_repairs(method, group, ctx, rng)
    changed = np.count_nonzero(corrected != batch)
    if np.ndim(y) == 1:
        return CorrectionOutcome(corrected[0], components_corrected=changed), int(picks[0])
    return CorrectionOutcome(corrected, components_corrected=changed), picks


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _entry_repairs(method_id: str, v: _Violations, ctx: CorrectionContext, rng: RngStream) -> np.ndarray:
    """The violated entries ``v`` repaired by a component-wise method."""
    if method_id == "sat":
        return np.where(v.below, v.lo, v.hi)
    if method_id == "mirror":
        return _mirrored(v)
    if method_id == "uniform":
        return rng.uniform(v.lo, v.hi)
    if method_id == "beta":
        if ctx.stats is None:
            raise ValueError("beta correction requires population stats in the context")
        return _beta_values(v, fit_beta_params(ctx.stats, ctx.bounds, ctx.beta_epsilon), rng)
    if method_id.startswith("exp"):
        return _exp_values(v, resolve_reference(_suffix_reference(method_id), ctx), rng)
    raise ValueError(f"{method_id!r} is not a repair")


def _suffix_reference(method_id: str) -> str:
    """The reference an exp*/vector* id names by suffix: expTarget, vectorBest (pbest), ..."""
    reference = method_id.removeprefix("exp").removeprefix("vector").lower()
    return "pbest" if reference == "best" else reference


def correct(method_id: str, y, ctx: CorrectionContext, rng: RngStream) -> CorrectionOutcome:
    """Apply the method named by ``method_id`` to the trial vector ``y``."""
    if method_id not in METHOD_IDS:
        raise ValueError(f"unknown method id {method_id!r}")
    if method_id == "sat":
        return saturate(y, ctx.bounds)
    if method_id == "dismiss":
        return dismiss(y, ctx.bounds)
    if method_id == "adaptive":
        raise ValueError("the adaptive method needs state; use adaptive_correct")
    if method_id.startswith("vector"):
        return vector_correct(y, _suffix_reference(method_id), ctx)
    v = _violations(y, ctx.bounds)
    return _repaired(v, _entry_repairs(method_id, v, ctx, rng))
