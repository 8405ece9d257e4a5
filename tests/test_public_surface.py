"""No public name exists only for the tests.

Every name in a module's ``__all__`` needs a whole-word reference outside
the tests: a line of ``src/`` other than its own ``def``/``class`` line, its
``__all__`` entry and its ``__init__`` re-export; a demo; the benchmark; or
the acceptance contract in ``tests/test_acceptance.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "debox"

#: public names that are entry points for user code rather than for the package itself
ENTRY_POINTS = {"register_problem"}  # called by the modules named in ``plugin_modules``


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


def _source_lines() -> list[str]:
    """The lines of ``src/`` that may reference a public name: not ``__all__``
    and not the ``__init__`` re-exports."""
    lines = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        skip = _statement_lines(tree, _is_all)
        if path.name == "__init__.py":
            skip |= _statement_lines(tree, lambda node: isinstance(node, ast.ImportFrom) and node.level == 1)
        lines += [line for number, line in enumerate(text.splitlines(), 1) if number not in skip]
    return lines


def _outside_lines() -> list[str]:
    paths = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    return [line for path in paths for line in path.read_text().splitlines()]


def test_every_public_name_has_a_caller_outside_the_tests():
    source, outside = _source_lines(), _outside_lines()
    unreferenced = []
    for name, module in sorted(_public_names().items()):
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        used = any(word.search(line) and not own.match(line) for line in source)
        if not (used or name in ENTRY_POINTS or any(word.search(line) for line in outside)):
            unreferenced.append(f"{module}: {name}")
    assert not unreferenced, "public names that only tests use:\n" + "\n".join(unreferenced)
