"""The benchmark's ``--trace 1`` patches each traced name in its owner's
``__dict__``; a renamed or deleted name breaks only the traced benchmark, so
this guard checks the patch table where tier-1 sees it."""

import importlib
import os

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def test_every_traced_name_is_its_owners_own(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in spans._targets() if attr not in owner.__dict__]
    assert missing == []
