"""Bit-identity guard for the repair layer.

Every method id runs on fixed seeded inputs: a 1-D infeasible vector, a 1-D
feasible one, and 2-D blocks with some feasible rows, against shared (n,)
and per-row (m, n) ``target``/``pbest`` references.  Each call feeds a hash
with the outcome's ``vector``, ``dismissed``, ``components_corrected`` and
``vector_alpha`` (type, dtype, shape and bytes), the adaptive picks and
``state.uses``, and the next ``rng.random()`` of the repair stream, which
pins the draw order.  The digests were recorded from the repair code before
its entry points were merged into ``correct``; a change to any repaired bit,
count, type or draw fails here.
"""

import hashlib

import numpy as np
import pytest

from debox.bchm import METHOD_IDS, AdaptiveState, CorrectionContext, adaptive_correct, correct
from debox.core import Bounds, Population, RngStream, population_stats

BOUNDS = Bounds(np.array([-5.0, -1.0, 0.0, -100.0, 2.0]), np.array([5.0, 3.0, 1.0, 100.0, 2.5]))

DIGESTS = {
    "sat": "e52c9e0c70a44b50b0539f1aa9139116719d131effd2fd8821045ab5a9ce7643",
    "mirror": "ed89cdbe402aab93102dce6c853c89d2b147f6ee5e552382267e2e418cc2c7fb",
    "uniform": "7164c59c1b5222f135cf8d6dc158da08fbe6abffc5f512ebe1045dad33af3452",
    "beta": "6b81fa2c635a51fe255f02ceabd5c7d71df81970a02d90eee42ab657e03bebd4",
    "expTarget": "fedc2551d78aa69e3975ddd93f7863a09719f3e0143edce16ad06b938266d41d",
    "expBest": "7f236fb03f3c20977044ce583b392b7d14daf97e71ffa67ea873ca0df96224c7",
    "expMidpoint": "eb711e9a5b322d3e6a7f1834a116861d24ebdb160f3f890aedfa40a4878a26f0",
    "vectorTarget": "e7825d999289522c3b368cf57c037b97b4a5a53e856dfe9733c88358ed7394f6",
    "vectorBest": "bdecc9d670bbc28de6a52da8106ceba24f6c408bf75d01a97ecaa3a7960a875c",
    "vectorMidpoint": "bd70a1c84ddc523ca491bb379cf278582c2d3de83645752a9d2c8d49ce4a6875",
    "dismiss": "7dc2972005632dc0087ca9c57e20a130fb623fd52d772e7ef9ef19f62c0dc762",
    "adaptive": "697f39a9d04f8a39497157a95193e42bbdd668a6509d5b10d6c65f61072d2618",
}


def _inside(rng, m):
    return BOUNDS.lower + (BOUNDS.upper - BOUNDS.lower) * rng.uniform(0.05, 0.95, (m, BOUNDS.dimension))


def _cases():
    """(trial, ctx) pairs; the population keeps component 4 constant, so the
    Beta fit falls back to uniform resampling there."""
    rng = RngStream(4242)
    population = _inside(rng, 12)
    population[:, 4] = 2.2
    stats = population_stats(Population(population, np.zeros(12)))
    width = BOUNDS.upper - BOUNDS.lower

    def ctx(target, pbest):
        return CorrectionContext(bounds=BOUNDS, target=target, pbest=pbest,
                                 population_mean=stats.mean, stats=stats)

    shared = ctx(population[0], population[1])
    wild = BOUNDS.lower + width * np.array([-0.7, 1.4, 3.6, 0.5, -2.2])  # folds more than once
    yield wild, shared
    yield _inside(rng, 1)[0], shared
    for m in (7, 40):
        block = BOUNDS.lower + width * rng.uniform(-1.5, 2.5, (m, BOUNDS.dimension))
        block[::3] = _inside(rng, len(block[::3]))  # every third row is feasible
        yield block, shared
        yield block, ctx(_inside(rng, m), _inside(rng, m))


def _feed(h, value):
    h.update(type(value).__name__.encode())
    if value is not None:
        a = np.asarray(value)
        h.update(f"{a.dtype}{a.shape}".encode() + a.tobytes())


@pytest.mark.parametrize("method", METHOD_IDS)
def test_repair_outcomes_match_recorded_digest(method):
    h = hashlib.sha256()
    state = AdaptiveState()
    for k, (y, ctx) in enumerate(_cases()):
        rng = RngStream(9000 + k)
        if method == "adaptive":
            outcome, picks = adaptive_correct(y, ctx, rng, state)
            _feed(h, picks)
            _feed(h, state.uses)
        else:
            outcome = correct(method, y, ctx, rng)
        for value in (outcome.vector, outcome.dismissed, outcome.components_corrected, outcome.vector_alpha):
            _feed(h, value)
        _feed(h, rng.random())
    assert h.hexdigest() == DIGESTS[method], method
