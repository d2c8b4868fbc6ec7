"""Import layering: the exact layer (gauss, exterior, curve) and the commands
that need no numpy (``check``, ``verify identities`` and ``verify growth``,
whose Jensen heights use ``math`` alone) never load numpy, nor
``dataclasses`` and the ``inspect`` it pulls in, nor the closed-form means
(``nevlab.arcs``), which no command on the shipped configs loads either,
and the numeric layer (nevanlinna, harness) loads on first use.  Each command case runs in a
fresh interpreter, since the test process has long loaded everything;
exterior, which has no float boundary at all, is checked on its source.
Every module-level import in src/nevlab, tests and scripts binds a name its
module uses; perfbench is left to its own files."""

import ast
import json
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
    for module in ("numpy", "dataclasses", "inspect", "nevlab.arcs")
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


def test_shipped_commands_load_no_closed_form(tmp_path):
    """Every row of every command on the three shipped configs converges
    within one node chunk, so none loads the closed-form means: their
    outputs stay those of the midpoint rule, bit for bit."""
    shipped = json.loads((ROOT / "perfbench" / "data" / "shipped.json")
                         .read_text(encoding="utf-8"))["configs"]
    runs = []
    for name, config in shipped.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(config["ini"], encoding="utf-8")
        runs += [[*command, "--config", str(path), "--out",
                  str(tmp_path / "out.txt")] for command in config["commands"]]
    assert len(runs) == 21
    result = run_fresh("""
import json, sys
from nevlab.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, "nevlab.arcs" in sys.modules]))
""", json.dumps(runs))
    assert result == [[0] * 21, False]


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


def _module_imports(tree):
    """(line, bound name) of each import at module level, in an if or try
    block there included; __future__ imports are compiler directives."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [s for h in getattr(node, "handlers", []) for s in h.body]
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.asname or a.name.split(".")[0])
                        for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)


def _used_names(tree) -> set:
    """Every name the module reads, in quoted annotations too, and the
    entries of its __all__."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
    trees = [tree] + [ast.parse(c.value, mode="eval")
                      for a in annotations if a is not None
                      for c in ast.walk(a)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def test_no_unused_module_imports():
    """Every name a module-level import binds in src/nevlab, tests and
    scripts is used in its module (or listed in its __all__)."""
    unused = []
    for folder in ("src/nevlab", "tests", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = _used_names(tree)
            unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                       for line, name in _module_imports(tree)
                       if name not in used]
    assert not unused
