"""Import layering: the exact layer (gauss, exterior, curve) and the commands
that need no numpy (``check``, ``verify identities`` and ``verify growth``,
whose Jensen heights use ``math`` alone) never load numpy, nor
``dataclasses`` and the ``inspect`` it pulls in, and the numeric layer
(nevanlinna, harness) loads on first use.  Each command case runs in a
fresh interpreter, since the test process has long loaded everything;
exterior, which has no float boundary at all, is checked on its source."""

import ast
from pathlib import Path

import pytest

from conftest import run_fresh

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ROOT / "scripts" / "configs" / "twisted_cubic.ini"


EXACT_COMMANDS = {"check": ["check"], "identities": ["verify", "identities"],
                  "growth": ["verify", "growth"]}


@pytest.mark.parametrize("command,module", [
    pytest.param(command, module,
                 id=command if module == "numpy" else f"{command}-{module}")
    for module in ("numpy", "dataclasses", "inspect")
    for command in EXACT_COMMANDS])
def test_exact_commands_load_no_numpy(tmp_path, command, module):
    result = run_fresh(f"""
import json, sys
from nevlab.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, {module!r} in sys.modules]))
""", *EXACT_COMMANDS[command], "--config", str(SHIPPED),
        "--out", str(tmp_path / "out.txt"))
    assert result == [0, False]


def test_import_loads_no_numpy():
    result = run_fresh("""
import json, sys
import nevlab
print(json.dumps(["numpy" in sys.modules,
                  "nevlab.nevanlinna" in sys.modules,
                  "nevlab.heights" in sys.modules,
                  "nevlab.harness" in sys.modules]))
""")
    assert result == [False, True, True, True]


def test_exterior_imports_no_numpy():
    """The exact layer's exterior module has no float boundary: no numpy
    import at module level, inside a function or under TYPE_CHECKING."""
    tree = ast.parse((ROOT / "src" / "nevlab" / "exterior.py").read_text(
        encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m.split(".")[0] == "numpy"]
