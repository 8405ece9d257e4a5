"""Bit-identity guard for whole runs.

Both engines run every BCHM on ``linear_slope`` (n=3, optimum in a corner of
the box, so most trials need repair), with infeasible evaluations free and
charged: 48 short runs.  Each run feeds a hash with its trajectory CSV text
and every ``RunResult`` field but the timings (``wall_time_seconds`` and
``phase_seconds``), each with its type, so a float turning into a numpy
scalar fails as surely as a changed bit.  The digests were recorded before
``Trajectory`` lost its row access and its trim; a change to any recorded
value, type or draw of a run fails here, and names the run.
"""

import hashlib

import numpy as np
import pytest

from debox.bchm import METHOD_IDS
from debox.benchmarks import make_instance
from debox.engine import RunConfig, run
from debox.telemetry import trajectory_csv_text

DIGESTS = {
    ("classic", "sat", False): "cda38fa5039f4bb47724406876c90b7cf51e2cf7c001046cfdd0560751af67ad",
    ("classic", "sat", True): "cda38fa5039f4bb47724406876c90b7cf51e2cf7c001046cfdd0560751af67ad",
    ("classic", "mirror", False): "7c683bbde707be34394b196e9e577c46e9be773bbd2cc408dd7a64b849e02255",
    ("classic", "mirror", True): "7c683bbde707be34394b196e9e577c46e9be773bbd2cc408dd7a64b849e02255",
    ("classic", "uniform", False): "7665b2d87249f3286640e1a2012e12879506cf42c9b3dda215b4c9da8bfa357a",
    ("classic", "uniform", True): "7665b2d87249f3286640e1a2012e12879506cf42c9b3dda215b4c9da8bfa357a",
    ("classic", "beta", False): "fd7bf6aba14e67837907b1e50821cdd510c9691f2d136460c8282246147d53a3",
    ("classic", "beta", True): "fd7bf6aba14e67837907b1e50821cdd510c9691f2d136460c8282246147d53a3",
    ("classic", "expTarget", False): "42fe3f959a1217bc82df825a9eaf46b5dfde9e5895f4d215d59fd3679d69c212",
    ("classic", "expTarget", True): "42fe3f959a1217bc82df825a9eaf46b5dfde9e5895f4d215d59fd3679d69c212",
    ("classic", "expBest", False): "9aae8448ea5c33f4020f4c587e1846f9ced279db39a5a664b42d925c87c20d19",
    ("classic", "expBest", True): "9aae8448ea5c33f4020f4c587e1846f9ced279db39a5a664b42d925c87c20d19",
    ("classic", "expMidpoint", False): "0ca1f176173a5c555e976d2f63a83c56ee67d2393ad366517cb8420077dc0c25",
    ("classic", "expMidpoint", True): "0ca1f176173a5c555e976d2f63a83c56ee67d2393ad366517cb8420077dc0c25",
    ("classic", "vectorTarget", False): "8a5f6b46e1860108261e14ffa75e0787af94b4ef1db4e9da1f7ee3b8a5573e1c",
    ("classic", "vectorTarget", True): "8a5f6b46e1860108261e14ffa75e0787af94b4ef1db4e9da1f7ee3b8a5573e1c",
    ("classic", "vectorBest", False): "0579969ddf85ccf3c3c58bf232385071c03b24a24f1b6843cb7e72b8024d2037",
    ("classic", "vectorBest", True): "0579969ddf85ccf3c3c58bf232385071c03b24a24f1b6843cb7e72b8024d2037",
    ("classic", "vectorMidpoint", False): "fbf01d82c2cc3a3c6c5956d2ace4f08a086d9599aade39bf5be6a86f231a4b48",
    ("classic", "vectorMidpoint", True): "fbf01d82c2cc3a3c6c5956d2ace4f08a086d9599aade39bf5be6a86f231a4b48",
    ("classic", "dismiss", False): "6110eb1162963a910f26414f88531f30f2b4b7693e7b9e0c87e1e3a1c963d53c",
    ("classic", "dismiss", True): "ff7565e1ecde2762d0e4d19889792287a7c2a494d259f992ab40371c892695fb",
    ("classic", "adaptive", False): "e2061ae3ac1ca28c0b631e08f2ba47f4f5401c45f34862c4b45cc49192da5585",
    ("classic", "adaptive", True): "e2061ae3ac1ca28c0b631e08f2ba47f4f5401c45f34862c4b45cc49192da5585",
    ("lshade", "sat", False): "fd4deb09da8618294e1225734581235728a5e51985a73095c8ea59a1b71426be",
    ("lshade", "sat", True): "fd4deb09da8618294e1225734581235728a5e51985a73095c8ea59a1b71426be",
    ("lshade", "mirror", False): "4c84c08e9ec601bfa5d2caef512e908f1378cb8da8e180113a9aebfba48a8f77",
    ("lshade", "mirror", True): "4c84c08e9ec601bfa5d2caef512e908f1378cb8da8e180113a9aebfba48a8f77",
    ("lshade", "uniform", False): "2f9018b5cf46a0359d52cdcd79f25673d26634411de5e9d6b72f67919b85402c",
    ("lshade", "uniform", True): "2f9018b5cf46a0359d52cdcd79f25673d26634411de5e9d6b72f67919b85402c",
    ("lshade", "beta", False): "97dc4826ddc07b6f6294f21eabe5640dfa279523d74ab4bcac80604ef0a58e1e",
    ("lshade", "beta", True): "97dc4826ddc07b6f6294f21eabe5640dfa279523d74ab4bcac80604ef0a58e1e",
    ("lshade", "expTarget", False): "ed8dac64b9e5b2fb7c95e7bb7a039f5d1ca9e04d15f55ef46e417368d7fd23c2",
    ("lshade", "expTarget", True): "ed8dac64b9e5b2fb7c95e7bb7a039f5d1ca9e04d15f55ef46e417368d7fd23c2",
    ("lshade", "expBest", False): "97357106bdc520699647819acb4311a59b82bbc5111c1c1ec1a0cbea488e415f",
    ("lshade", "expBest", True): "97357106bdc520699647819acb4311a59b82bbc5111c1c1ec1a0cbea488e415f",
    ("lshade", "expMidpoint", False): "cfa20df00236064c65c5c5e2007ef01c69e78c76de8fe18f0e804d17e7451b2e",
    ("lshade", "expMidpoint", True): "cfa20df00236064c65c5c5e2007ef01c69e78c76de8fe18f0e804d17e7451b2e",
    ("lshade", "vectorTarget", False): "dfc893d700a511f147a19b23141a6c1d2fcb39028b650075110d7fc89f6c64f0",
    ("lshade", "vectorTarget", True): "dfc893d700a511f147a19b23141a6c1d2fcb39028b650075110d7fc89f6c64f0",
    ("lshade", "vectorBest", False): "8e45c86c9fc5e8a6247fee24b1efedabcc82f858db8d9ccb720056498d12f2d5",
    ("lshade", "vectorBest", True): "8e45c86c9fc5e8a6247fee24b1efedabcc82f858db8d9ccb720056498d12f2d5",
    ("lshade", "vectorMidpoint", False): "e4948f91c69f8961bc8fa0065f38416f08c0920e5597fa2044da4f774bc07e7c",
    ("lshade", "vectorMidpoint", True): "e4948f91c69f8961bc8fa0065f38416f08c0920e5597fa2044da4f774bc07e7c",
    ("lshade", "dismiss", False): "4038260ebd479fa7c06101e89c304616be507aef54f01a7bc8a05ca64d6d1bea",
    ("lshade", "dismiss", True): "48f8a1ec3992106a125823bfbdfe0ca450c8e20fe5d31b01c44961fae78e247e",
    ("lshade", "adaptive", False): "bbe8bb60420c63c40b53a09087816990d429ee6df8830bb9caa738ec17391afc",
    ("lshade", "adaptive", True): "bbe8bb60420c63c40b53a09087816990d429ee6df8830bb9caa738ec17391afc",
}


def _feed(h, value):
    h.update(type(value).__name__.encode())
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode() + value.tobytes())
    else:
        h.update(repr(value).encode())


def _digest(result) -> str:
    h = hashlib.sha256()
    _feed(h, trajectory_csv_text(result.records))
    for value in (result.best_error, result.best_fitness, result.best_position, result.behaviour,
                  result.classification_mode, result.evaluations_used, result.generations,
                  result.final_max_component_variance, result.stop_reason):
        _feed(h, value)
    return h.hexdigest()


@pytest.mark.parametrize("charged", [False, True], ids=["free", "charged"])
@pytest.mark.parametrize("bchm", METHOD_IDS)
@pytest.mark.parametrize("engine", ["classic", "lshade"])
def test_runs_match_recorded_digest(engine, bchm, charged):
    problem = make_instance("linear_slope", 1, 3, "SBOX")
    result = run(RunConfig(problem=problem, count_infeasible_evals=charged, engine=engine, bchm=bchm,
                           budget=600, seed=7))
    assert _digest(result) == DIGESTS[engine, bchm, charged], (engine, bchm, charged)
