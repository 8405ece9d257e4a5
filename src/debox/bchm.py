"""Bound constraint handling methods (BCHMs).

Each method maps an infeasible trial vector back into the closed box (or
discards it).  Component-wise methods touch only the violated components;
vector-wise methods rescale the whole vector toward a feasible reference
point.  ``correct(method_id, y, ctx, rng)`` applies a method and
``adaptive_correct`` picks a pool method per vector; each validates its
input, builds its violation mask and reports what it did in a
``CorrectionOutcome``.  Both accept either a single vector of shape (n,) or a
batch of shape (m, n), and a vector is repaired as a one-row batch would be.
Both repair through one private block entry, ``_repair_block``, which the
engines call directly with the violation and infeasible-row masks they built
for a generation's trial block.  A row with no violated component comes back
bit-unchanged and consumes no draw, so a block repairs exactly as its
infeasible rows alone would.

Each repair gathers the violated entries once, in row-major order (row by
row, and by component within a row); a method that draws consumes its draws
in that order.  ``sat`` and ``dismiss`` need no gather: a clip of the whole
block and the row mask.  Input to a public entry with a NaN or infinite
component raises ``ValueError``: such a trial has no defined repair.

Method ids used in configs and CSV output:

    sat, mirror, uniform, beta, expTarget, expBest, expMidpoint,
    vectorTarget, vectorBest, vectorMidpoint, dismiss, adaptive
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import Bounds, PopulationStats, RngStream

__all__ = [
    "ADAPTIVE_FLOOR",
    "ADAPTIVE_POOL",
    "ADAPTIVE_UPDATE_PERIOD",
    "AdaptiveState",
    "BetaFitParams",
    "CORRECTING_METHOD_IDS",
    "CorrectionContext",
    "CorrectionOutcome",
    "METHOD_IDS",
    "adaptive_correct",
    "adaptive_select",
    "adaptive_update",
    "correct",
    "fit_beta_params",
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


@dataclass(eq=False)
class CorrectionOutcome:
    """Result of applying a BCHM: either a feasible vector or a dismissal.

    ``dismiss`` discards an infeasible vector (death penalty) as
    ``vector=None``; for a batch it reports a per-row mask in ``dismissed``
    and keeps the input rows in ``vector``.  A vector-wise method reports
    each row's scaling factor in ``vector_alpha`` (1 on a feasible row).
    """

    vector: np.ndarray | None
    dismissed: bool | np.ndarray = False
    components_corrected: int = 0
    vector_alpha: float | np.ndarray | None = None


def _validated_block(y, bounds: Bounds):
    """The trial vector (n,) or block (m, n) ``y`` as a validated block (m, n),
    with its violation mask and its infeasible-row mask."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError("expected a vector (n,) or a batch (m, n)")
    if not np.logical_and.reduce(np.isfinite(y), axis=None):
        raise ValueError("trial vectors must be finite: NaN and inf have no repair")
    block = np.atleast_2d(y)
    outside = bounds.outside(block)
    return block, outside, np.logical_or.reduce(outside, axis=1)


class _Violations(NamedTuple):
    """The violated entries of a trial array, in row-major order."""

    y: np.ndarray  # the trial array
    at: np.ndarray  # flat row-major index of each violated entry
    cols: np.ndarray  # its component index
    values: np.ndarray  # its value
    lo: np.ndarray  # its component's lower bound
    hi: np.ndarray  # its component's upper bound
    below: np.ndarray  # whether it lies below ``lo`` (else above ``hi``)


def _violations(y: np.ndarray, bounds: Bounds, outside: np.ndarray) -> _Violations:
    """The violated entries of the trial block ``y``, given its violation mask ``outside``."""
    at = outside.ravel().nonzero()[0]
    cols = at % y.shape[-1]
    values, lo = y.ravel()[at], bounds.lower[cols]
    return _Violations(y, at, cols, values, lo, bounds.upper[cols], values < lo)


def _clip(y, lower, upper) -> np.ndarray:
    """np.clip(y, lower, upper), bit for bit, without its Python-level overhead."""
    return np.minimum(np.maximum(y, lower), upper)


#: an exp*/vector* id's suffix -> the CorrectionContext field holding its reference point
_REFERENCES = {"Target": "target", "Best": "pbest", "Midpoint": "population_mean"}


def _reference(method_id: str, ctx: CorrectionContext) -> np.ndarray:
    suffix = method_id.removeprefix("exp").removeprefix("vector")
    return np.asarray(getattr(ctx, _REFERENCES[suffix]), dtype=float)


def _reference_at(R: np.ndarray, v: _Violations) -> np.ndarray:
    """R at the violated entries; a shared (n,) reference repeats on every row."""
    return R.ravel()[v.at % R.size]


# ---------------------------------------------------------------------------
# component-wise corrections
# ---------------------------------------------------------------------------

def _mirrored(v: _Violations) -> np.ndarray:
    """Reflect the violated entries back into the box.

    The closed-form fold with period 2*(b-a) equals applying the reflections
    2a-y / 2b-y until the entry is feasible (one reflection can itself land
    outside when the violation exceeds the box width).
    """
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
    fallback_mask: np.ndarray


#: how far the Beta correction keeps the population mean, rescaled to [0, 1], from 0 and 1
BETA_EPSILON = 0.1


def fit_beta_params(stats: PopulationStats, bounds: Bounds) -> BetaFitParams:
    """Moment-match Beta shapes to the population mean and variance.

    With the box rescaled to [0, 1]:  m_i = (Mean_i - a_i)/(b_i - a_i)
    (clamped into [BETA_EPSILON, 1-BETA_EPSILON]) and v_i = Var_i/(b_i - a_i)^2, then

        alpha_i = m_i * (m_i*(1 - m_i)/v_i - 1),   beta_i = alpha_i*(1 - m_i)/m_i.
    """
    width = bounds.width
    m = _clip((stats.mean - bounds.lower) / width, BETA_EPSILON, 1.0 - BETA_EPSILON)
    v = stats.variance / width**2
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = m * (m * (1.0 - m) / v - 1.0)
        beta = alpha * (1.0 - m) / m
    fallback = ~np.isfinite(alpha) | ~np.isfinite(beta) | (alpha <= 0.0) | (beta <= 0.0) | (v <= 0.0)
    return BetaFitParams(alpha=alpha, beta=beta, m=m, fallback_mask=fallback)


def _beta_values(v: _Violations, params: BetaFitParams, rng: RngStream) -> np.ndarray:
    """Draw each violated entry from a_i + Beta(alpha_i, beta_i)*(b_i - a_i).

    The shapes are moment-matched to the population (:func:`fit_beta_params`),
    so the corrected components have about its mean and variance.  Fallback
    components are resampled uniformly, with their draws after the Beta draws.
    """
    use_beta = ~params.fallback_mask[v.cols]
    fallback = ~use_beta
    values = np.empty(v.at.size)
    if np.logical_or.reduce(use_beta):
        cols, lo, hi = v.cols[use_beta], v.lo[use_beta], v.hi[use_beta]
        values[use_beta] = lo + rng.beta(params.alpha[cols], params.beta[cols]) * (hi - lo)
    if np.logical_or.reduce(fallback):
        values[fallback] = rng.uniform(v.lo[fallback], v.hi[fallback])
    return _clip(values, v.lo, v.hi)


def _exp_values(v: _Violations, R: np.ndarray, rng: RngStream) -> np.ndarray:
    """Exponentially confined correction between the violated bound and R.

    For a lower violation the corrected component is

        c(y_i) = a_i - ln(1 + r * (exp(a_i - R_i) - 1)),    r ~ U[0, 1],

    and symmetrically c(y_i) = b_i + ln(1 + (1 - r) * (exp(R_i - b_i) - 1))
    for an upper violation, with one fresh r per violated entry.  The
    output lies in [a_i, R_i] resp. [R_i, b_i].
    """
    ref = _reference_at(R, v)
    r = rng.random(v.at.size)
    # log1p/expm1 keep the correction strictly inside the interval for small r
    lower = v.lo - np.log1p(r * np.expm1(v.lo - ref))
    upper = v.hi + np.log1p((1.0 - r) * np.expm1(ref - v.hi))
    return _clip(np.where(v.below, lower, upper), v.lo, v.hi)


# ---------------------------------------------------------------------------
# vector-wise correction
# ---------------------------------------------------------------------------

def _shrink(v: _Violations, R: np.ndarray, bounds: Bounds, out: np.ndarray):
    """Shrink each row with a violated entry in ``v`` toward R: write
    c = alpha*y + (1-alpha)*R into ``out``, and return every row's alpha.

    alpha = min_i alpha_i with alpha_i = (R_i - a_i)/(R_i - y_i) for lower
    violations, (b_i - R_i)/(y_i - R_i) for upper violations and 1 for
    feasible components, so alpha is in [0, 1] and 1 on a feasible row.
    c is where the segment [R, y] crosses the box, so for R = target the
    search direction y - x is preserved exactly.
    """
    ref = _reference_at(R, v)
    if np.logical_or.reduce(ref == v.values):
        raise ValueError("degenerate reference")
    alpha_i = np.full(v.y.shape, np.inf)  # a violated entry's alpha_i is at most 1
    alpha_i.ravel()[v.at] = np.where(v.below, (ref - v.lo) / (ref - v.values),
                                     (v.hi - ref) / (v.values - ref))
    row_min = np.minimum.reduce(alpha_i, axis=1)
    alpha = _clip(row_min, 0.0, 1.0)
    a = alpha[:, np.newaxis]
    # a*y + (1-a)*R can overshoot the binding bound by one ulp
    shrunk = _clip(a * v.y + (1.0 - a) * R, bounds.lower, bounds.upper)
    np.copyto(out, shrunk, where=(row_min < np.inf)[:, np.newaxis])
    return alpha


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def _repair(method_id: str, v: _Violations, ctx: CorrectionContext, rng: RngStream, out: np.ndarray):
    """Write the repair of the violated entries ``v`` into ``out``, a C-ordered
    copy of ``v.y``; return each row's alpha for a vector-wise method, else None."""
    if method_id.startswith("vector"):
        return _shrink(v, _reference(method_id, ctx), ctx.bounds, out)
    if method_id == "sat":  # an adaptive group; _repair_block clips a whole block instead
        values = np.where(v.below, v.lo, v.hi)
    elif method_id == "mirror":
        values = _mirrored(v)
    elif method_id == "uniform":
        values = rng.uniform(v.lo, v.hi)
    elif method_id == "beta":
        if ctx.stats is None:
            raise ValueError("beta correction requires population stats in the context")
        values = _beta_values(v, fit_beta_params(ctx.stats, ctx.bounds), rng)
    else:
        values = _exp_values(v, _reference(method_id, ctx), rng)
    out.ravel()[v.at] = values  # a view: ``out`` is C-contiguous
    return None


def _repair_block(method_id: str, y: np.ndarray, outside: np.ndarray, infeasible: np.ndarray,
                  ctx: CorrectionContext, rng: RngStream, state: AdaptiveState | None = None):
    """Repair the finite block ``y`` (m, n) with the method ``method_id``, given
    its violation mask ``outside`` and infeasible-row mask ``infeasible``.

    Returns the repaired block (``y`` itself under ``dismiss``), the dismissed
    rows (None but under ``dismiss``), each row's pool index under
    ``adaptive`` (-1 on a feasible row, drawn as :func:`adaptive_correct`
    says; else None) and each row's alpha under a vector-wise method (else
    None).  ``state`` is given under ``adaptive`` and only there.
    """
    if method_id not in METHOD_IDS or (method_id == "adaptive") != (state is not None):
        if method_id not in METHOD_IDS:
            raise ValueError(f"unknown method id {method_id!r}")
        raise ValueError("the adaptive method needs an AdaptiveState" if state is None
                         else f"an AdaptiveState serves the adaptive method only, not {method_id!r}")
    if method_id == "sat":  # the clip moves exactly the violated entries, each onto its bound
        return _clip(y, ctx.bounds.lower, ctx.bounds.upper), None, None, None
    if method_id == "dismiss":
        return y, infeasible, None, None
    v = _violations(y, ctx.bounds, outside)
    repaired = y.copy()
    if method_id != "adaptive":
        return repaired, None, None, _repair(method_id, v, ctx, rng, repaired)
    picks = np.full(len(y), -1)
    if v.at.size:
        picks[infeasible] = adaptive_select(state, rng, size=np.count_nonzero(infeasible))
        entry_picks = picks[v.at // y.shape[1]]
        # the entries grouped by method; each group's entries stay in row-major order
        order = entry_picks.argsort(kind="stable")
        grouped = [field[order] for field in v[1:]]
        stops = np.bincount(entry_picks, minlength=len(ADAPTIVE_POOL)).cumsum().tolist()
        for method, start, stop in zip(ADAPTIVE_POOL, [0] + stops, stops):
            if stop > start:
                _repair(method, _Violations(y, *(field[start:stop] for field in grouped)), ctx, rng, repaired)
    return repaired, None, picks, None


def correct(method_id: str, y, ctx: CorrectionContext, rng: RngStream) -> CorrectionOutcome:
    """Apply the method named by ``method_id`` to a trial vector (n,) or block (m, n)."""
    if method_id == "adaptive":
        raise ValueError("the adaptive method needs state; use adaptive_correct")
    block, outside, infeasible = _validated_block(y, ctx.bounds)
    repaired, dismissed, _, alpha = _repair_block(method_id, block, outside, infeasible, ctx, rng)
    if dismissed is not None:
        if np.ndim(y) == 2:
            return CorrectionOutcome(block.copy(), dismissed=dismissed)
        return CorrectionOutcome(None, dismissed=True) if dismissed[0] else CorrectionOutcome(block[0].copy())
    if alpha is None and method_id != "sat":  # a gathered repair moves exactly the violated entries
        changed = int(np.count_nonzero(outside))
    else:  # the clip and the shrink count what moved, as a numpy integer
        changed = np.count_nonzero(repaired != block)
    if np.ndim(y) == 1:
        alpha = None if alpha is None else float(alpha[0])
        return CorrectionOutcome(repaired[0], components_corrected=changed, vector_alpha=alpha)
    return CorrectionOutcome(repaired, components_corrected=changed, vector_alpha=alpha)


# ---------------------------------------------------------------------------
# adaptive selection
# ---------------------------------------------------------------------------

#: pool of methods available to the adaptive selector, in selection order
ADAPTIVE_POOL = ("vectorBest", "expBest", "sat", "vectorTarget", "beta")
#: generations between two updates of the selection probabilities
ADAPTIVE_UPDATE_PERIOD = 25
#: the least selection probability of a pool method
ADAPTIVE_FLOOR = 0.05


@dataclass(eq=False)
class AdaptiveState:
    """Selection probabilities plus use/success counters for ``ADAPTIVE_POOL``.

    The probabilities are adjusted every ``ADAPTIVE_UPDATE_PERIOD`` generations
    from the per-method success ratios and never drop below ``ADAPTIVE_FLOOR``.
    """

    probabilities: np.ndarray = field(default_factory=lambda: np.full(len(ADAPTIVE_POOL), 1.0 / len(ADAPTIVE_POOL)))
    uses: np.ndarray = field(default_factory=lambda: np.zeros(len(ADAPTIVE_POOL), dtype=int))
    successes: np.ndarray = field(default_factory=lambda: np.zeros(len(ADAPTIVE_POOL), dtype=int))


def adaptive_select(state: AdaptiveState, rng: RngStream, size: int | None = None):
    """Draw from the categorical selection distribution and count the uses.

    Returns one method id, or with ``size`` an array of ``size`` pool indices
    (one unit draw each).
    """
    u = rng.random(size)
    k = np.minimum(np.searchsorted(np.cumsum(state.probabilities), u, side="right"), len(ADAPTIVE_POOL) - 1)
    state.uses += np.bincount(np.ravel(k), minlength=len(ADAPTIVE_POOL))
    return ADAPTIVE_POOL[int(k)] if size is None else k


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
    distribution, floored at ``ADAPTIVE_FLOOR`` and renormalized; the
    counters restart from zero for the next learning period.
    """
    scores = (state.successes + 1.0) / (state.uses + 2.0)
    probabilities = _floor_and_normalize(scores / scores.sum(), ADAPTIVE_FLOOR)
    return AdaptiveState(probabilities)


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
    block, outside, infeasible = _validated_block(y, ctx.bounds)
    repaired, _, picks, _ = _repair_block("adaptive", block, outside, infeasible, ctx, rng, state)
    changed = np.count_nonzero(repaired != block)
    if np.ndim(y) == 1:
        return CorrectionOutcome(repaired[0], components_corrected=changed), int(picks[0])
    return CorrectionOutcome(repaired, components_corrected=changed), picks
