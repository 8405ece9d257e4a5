"""Property tests of the repair layer over extreme boxes, violations and references.

Boxes are asymmetric, with widths from 1e-9 to 1e6 and offsets up to 1e6;
violations reach 1e300 beyond a bound; reference points may sit on a bound.
A block that mixes feasible and infeasible rows repairs exactly as its
infeasible rows alone would.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from debox.bchm import (
    ADAPTIVE_POOL,
    CORRECTING_METHOD_IDS,
    METHOD_IDS,
    AdaptiveState,
    CorrectionContext,
    adaptive_correct,
    correct,
)
from debox.core import Bounds, Population, RngStream, population_stats

COMPONENT_WISE = ("sat", "mirror", "uniform", "beta", "expTarget", "expBest", "expMidpoint")

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def _in_box(lower, upper, units):
    """Points at unit positions of the box; 0 and 1 land exactly on the bounds."""
    units = np.asarray(units)
    inside = np.clip(lower + units * (upper - lower), lower, upper)
    return np.where(units == 0.0, lower, np.where(units == 1.0, upper, inside))


units = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def entries(draw, lower, upper):
    """One trial component: inside, on a bound, or up to 1e300 beyond one."""
    kind = draw(st.sampled_from(["inside", "below", "above"]))
    if kind == "inside":
        return float(_in_box(lower, upper, draw(units)))
    distance = 10.0 ** draw(st.floats(-9.0, 300.0))
    return lower - distance if kind == "below" else upper + distance


@st.composite
def cases(draw, max_rows=3):
    """(trial batch, context) on an asymmetric box."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, max_rows))
    lower = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    width = 10.0 ** np.array(draw(st.lists(st.floats(-9.0, 6.0), min_size=n, max_size=n)))
    bounds = Bounds(lower, lower + width)
    y = np.array([[draw(entries(bounds.lower[j], bounds.upper[j])) for j in range(n)] for _ in range(m)])
    population = _in_box(bounds.lower, bounds.upper, np.array(
        draw(st.lists(st.lists(units, min_size=n, max_size=n), min_size=m + 2, max_size=m + 2))))
    stats = population_stats(Population(population, np.zeros(len(population))))
    ctx = CorrectionContext(bounds=bounds, target=population[:m], pbest=population[m],
                            population_mean=population[m + 1], stats=stats)
    return y, ctx


def _apply(method, y, ctx, seed=0):
    rng = RngStream(seed)
    if method == "adaptive":
        return adaptive_correct(y, ctx, rng, AdaptiveState())[0]
    return correct(method, y, ctx, rng)


@PROPERTY
@given(cases())
def test_every_correcting_method_returns_in_box_output(case):
    y, ctx = case
    for method in CORRECTING_METHOD_IDS:
        out = _apply(method, y, ctx).vector
        assert np.all(out >= ctx.bounds.lower) and np.all(out <= ctx.bounds.upper), method


@PROPERTY
@given(cases())
def test_component_wise_methods_touch_only_violated_entries(case):
    y, ctx = case
    feasible = (y >= ctx.bounds.lower) & (y <= ctx.bounds.upper)
    for method in COMPONENT_WISE:
        outcome = _apply(method, y, ctx)
        assert outcome.vector[feasible].tobytes() == y[feasible].tobytes(), method
        assert outcome.components_corrected == np.count_nonzero(~feasible), method


@PROPERTY
@given(cases(max_rows=1))
def test_vector_call_equals_row_of_one_row_batch(case):
    batch, ctx = case
    row = CorrectionContext(ctx.bounds, ctx.target[0], ctx.pbest, ctx.population_mean, ctx.stats)
    for method in CORRECTING_METHOD_IDS:
        single, rows = _apply(method, batch[0], row), _apply(method, batch, ctx)
        assert single.vector.tobytes() == rows.vector[0].tobytes(), method
        assert single.components_corrected == rows.components_corrected, method
        if single.vector_alpha is not None:
            assert single.vector_alpha == rows.vector_alpha[0], method


@st.composite
def blocks(draw):
    """(trial block, context, infeasible-row mask): some rows of a case put
    back in the box, with ``pbest`` shared or one row per trial."""
    y, ctx = draw(cases(max_rows=6))
    lower, upper = ctx.bounds.lower, ctx.bounds.upper
    for i in range(len(y)):
        if draw(st.booleans()):
            y[i] = _in_box(lower, upper, np.array(draw(st.lists(units, min_size=y.shape[1], max_size=y.shape[1]))))
    if draw(st.booleans()):
        ctx.pbest = ctx.target[::-1].copy()
    return y, ctx, ~ctx.bounds.contains(y)


def _rows_context(ctx, rows):
    """``ctx`` as a repair of the rows ``rows`` alone sees it."""
    pbest = ctx.pbest[rows] if ctx.pbest.ndim == 2 else ctx.pbest
    return CorrectionContext(ctx.bounds, ctx.target[rows], pbest, ctx.population_mean, ctx.stats)


def _repair(method, y, ctx, seed=0):
    """The outcome, the adaptive picks and uses, and the next draw of the stream."""
    rng, state = RngStream(seed), AdaptiveState()
    if method == "adaptive":
        outcome, picks = adaptive_correct(y, ctx, rng, state)
    else:
        outcome, picks = correct(method, y, ctx, rng), None
    return outcome, picks, state.uses.tolist(), rng.random()


@PROPERTY
@given(blocks())
def test_block_repairs_as_its_infeasible_rows_alone(block):
    y, ctx, infeasible = block
    rows = infeasible.nonzero()[0]
    for method in METHOD_IDS:
        whole, picks, uses, after = _repair(method, y, ctx)
        assert whole.vector[~infeasible].tobytes() == y[~infeasible].tobytes(), method
        if method == "adaptive":
            assert np.all(picks[~infeasible] == -1), method
        if not rows.size:
            assert whole.components_corrected == 0 and after == RngStream(0).random(), method
            continue
        alone, alone_picks, alone_uses, alone_after = _repair(method, y[rows], _rows_context(ctx, rows))
        assert whole.vector[rows].tobytes() == alone.vector.tobytes(), method
        assert whole.components_corrected == alone.components_corrected, method
        assert (uses, after) == (alone_uses, alone_after), method
        if method == "adaptive":
            assert picks[rows].tolist() == alone_picks.tolist()
        if method == "dismiss":
            assert whole.dismissed.tolist() == infeasible.tolist() and alone.dismissed.all()
        if whole.vector_alpha is not None:
            assert np.all(whole.vector_alpha[~infeasible] == 1.0), method
            assert whole.vector_alpha[rows].tobytes() == alone.vector_alpha.tobytes(), method


def _adaptive_by_groups(y, ctx, rng, state):
    """The per-group formulation of adaptive repair, on infeasible rows only:
    one selection draw per row, then ``correct`` on each method's rows, in
    pool order, with per-row references split with the groups."""
    u = np.asarray(rng.random(len(y)))
    picks = np.minimum(np.searchsorted(np.cumsum(state.probabilities), u, side="right"), len(ADAPTIVE_POOL) - 1)
    state.uses += np.bincount(picks, minlength=len(ADAPTIVE_POOL))
    corrected = np.empty_like(y)
    for k, method in enumerate(ADAPTIVE_POOL):
        rows = (picks == k).nonzero()[0]
        if rows.size:
            corrected[rows] = correct(method, y[rows], _rows_context(ctx, rows), rng).vector
    return corrected, np.count_nonzero(corrected != y), picks


@PROPERTY
@given(blocks(), st.integers(0, 2**32 - 1))
def test_adaptive_equals_the_per_group_formulation(block, seed):
    y, ctx, infeasible = block
    rows = infeasible.nonzero()[0]
    rng, state = RngStream(seed), AdaptiveState()
    outcome, picks = adaptive_correct(y, ctx, rng, state)
    if not rows.size:
        assert outcome.vector.tobytes() == y.tobytes() and state.uses.sum() == 0
        assert rng.random() == RngStream(seed).random()
        return
    by_groups_rng, by_groups_state = RngStream(seed), AdaptiveState()
    corrected, changed, group_picks = _adaptive_by_groups(y[rows], _rows_context(ctx, rows),
                                                          by_groups_rng, by_groups_state)
    assert outcome.vector[rows].tobytes() == corrected.tobytes()
    assert outcome.components_corrected == changed
    assert picks[rows].tolist() == group_picks.tolist()
    assert state.uses.tolist() == by_groups_state.uses.tolist()
    assert rng.random() == by_groups_rng.random()
