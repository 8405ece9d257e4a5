import warnings

import numpy as np
import pytest

# A failing @given test makes Hypothesis import this module to write a patch
# of its failing examples.  Where libcst is installed, that import warns (a
# deprecated mypy_extensions name), and under ``-W error`` the warning turns
# into an INTERNALERROR that loses the falsifying example and stops the
# session.  Importing it here first, with that warning ignored, avoids both.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis skips the patch
        pass


class ScriptedStream:
    """Test double for RngStream driven by queues of predetermined draws.

    ``units`` feeds random()/uniform() (values in [0, 1] mapped linearly for
    uniform); ``normal_values`` are returned verbatim by normal().  Every
    draw takes ``size`` values (an int or a shape) from its queue, or the
    broadcast shape of the parameters when ``size`` is None; a shape () draw
    returns a plain number.  ``calls`` lists the number of units each
    random() call took, ``consumed`` their sum.
    """

    def __init__(self, units=(), normal_values=()):
        self.units = [float(u) for u in units]
        self.normal_values = [float(v) for v in normal_values]
        self.calls = []

    @property
    def consumed(self):
        return sum(self.calls)

    @staticmethod
    def _shape(size, *params):
        if size is None:
            return np.broadcast(*(np.asarray(p) for p in params)).shape if params else ()
        return tuple(np.atleast_1d(size).astype(int))

    def _pop(self, queue, what, shape):
        k = int(np.prod(shape)) if shape else 1
        if k > len(queue):
            raise AssertionError(f"scripted stream exhausted: wanted {k} more {what} draws")
        out = np.array([queue.pop(0) for _ in range(k)]).reshape(shape)
        return out.item() if shape == () else out

    def random(self, size=None):
        out = self._pop(self.units, "unit", self._shape(size))
        self.calls.append(np.size(out))
        return out

    def uniform(self, low, high, size=None):
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        u = self.random(self._shape(size, low, high))
        out = low + (high - low) * np.asarray(u)
        return float(out) if np.ndim(out) == 0 else out

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._pop(self.normal_values, "normal", self._shape(size, loc, scale))

    def beta(self, a, b, size=None):
        raise AssertionError("scripted stream has no beta draws")


@pytest.fixture
def scripted():
    return ScriptedStream
