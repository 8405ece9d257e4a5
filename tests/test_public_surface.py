"""No public name exists only for the tests.

Every name in a module's ``__all__`` needs a reference outside the tests: a
code token (a ``tokenize`` NAME, not a string or a comment) in ``src/``
other than its own ``def``/``class`` name, its ``__all__`` entry and its
``__init__`` re-export; in a demo; in the benchmark; or in the acceptance
contract in ``tests/test_acceptance.py``.
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "debox"

#: public names that are entry points for user code rather than for the package itself:
#: the modules named in ``plugin_modules`` build their problems with ``ExternalProblem``
#: and hand them to ``register_problem``
ENTRY_POINTS = {"ExternalProblem", "register_problem"}


def _statement_lines(tree: ast.Module, keep) -> set[int]:
    """The line numbers of every top-level statement ``keep`` selects."""
    return {line for node in tree.body if keep(node) for line in range(node.lineno, node.end_lineno + 1)}


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)


def _public_names() -> dict[str, str]:
    """name -> module file, for every ``__all__`` entry of the package."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _is_all(node):
                names.update((name, path.name) for name in ast.literal_eval(node.value))
    return names


def _references(path: Path, skip=frozenset()) -> set[str]:
    """The names ``path`` uses as code: its NAME tokens outside the ``skip``
    lines, less the name each ``def`` or ``class`` statement defines."""
    names, previous = set(), None
    with tokenize.open(path) as f:
        for token in tokenize.generate_tokens(f.readline):
            if token.type == tokenize.NAME and token.start[0] not in skip and previous not in ("def", "class"):
                names.add(token.string)
            previous = token.string
    return names


def _source_references() -> set[str]:
    """The names ``src/`` uses, outside ``__all__`` and the ``__init__`` re-exports."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = _statement_lines(tree, _is_all)
        if path.name == "__init__.py":
            skip |= _statement_lines(tree, lambda node: isinstance(node, ast.ImportFrom) and node.level == 1)
        names |= _references(path, skip)
    return names


def _outside_references() -> set[str]:
    paths = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    return set().union(*map(_references, paths))


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = _source_references() | _outside_references() | ENTRY_POINTS
    unreferenced = [f"{module}: {name}" for name, module in sorted(_public_names().items()) if name not in referenced]
    assert not unreferenced, "public names that only tests use:\n" + "\n".join(unreferenced)
