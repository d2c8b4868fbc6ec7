"""Import layering: the exact layer (gauss, exterior, curve) and the commands
that stay exact (``check``, ``verify identities``) never load numpy, and the
numeric layer (nevanlinna, harness) loads on first use.  Each case runs in a
fresh interpreter, since the test process has long loaded everything."""

from pathlib import Path

import pytest

from conftest import run_fresh

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ROOT / "scripts" / "configs" / "twisted_cubic.ini"


@pytest.mark.parametrize("argv", [["check"], ["verify", "identities"]],
                         ids=["check", "identities"])
def test_exact_commands_load_no_numpy(tmp_path, argv):
    result = run_fresh("""
import json, sys
from nevlab.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "numpy" in sys.modules]))
""", *argv, "--config", str(SHIPPED), "--out", str(tmp_path / "out.txt"))
    assert result == [0, False]


def test_import_loads_no_numpy():
    result = run_fresh("""
import json, sys
import nevlab
print(json.dumps(["numpy" in sys.modules,
                  "nevlab.nevanlinna" in sys.modules,
                  "nevlab.harness" in sys.modules]))
""")
    assert result == [False, True, True]

