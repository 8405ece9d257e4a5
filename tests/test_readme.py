"""README's code examples run as written.

The library quick start runs in a fresh interpreter that imports debox from
this tree, and the plugin module is written out as ``my_problems.py`` and
named by a ``debox run`` config, so an example that uses a name the package
no longer has fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def _code_block(heading: str, language: str) -> str:
    """The first ``language`` block under ``heading`` in the README."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _python(args, cwd):
    """``python args`` in a fresh interpreter that imports debox from this tree and modules from ``cwd``."""
    path = os.pathsep.join(filter(None, [str(SRC), str(cwd), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def test_library_quick_start_runs(tmp_path):
    script = tmp_path / "quick_start.py"
    script.write_text(_code_block("## Library quick start", "python"))
    done = _python([str(script)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 2


def test_plugin_module_runs_from_a_config(tmp_path):
    (tmp_path / "my_problems.py").write_text(_code_block("### Plugin problems", "python"))
    config = {"function": "shifted_abs", "plugin_modules": ["my_problems"], "dimension": 2, "engine": "classic",
              "bchm": "sat", "seed": 1, "budget": 200, "classic_population_size": 10}
    (tmp_path / "run.json").write_text(json.dumps(config))
    done = _python(["-m", "debox.cli", "run", "--config", "run.json", "--out", "out"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert sorted(path.suffix for path in (tmp_path / "out").iterdir()) == [".csv", ".json"]
