"""The node launcher imports only the node's code.

``python -m repro.net.node`` starts once per wire trial, and every
module it imports sits on the trial's critical path.  The ``repro.net``
and ``repro.chaos`` package ``__init__``s therefore export lazily.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a node never uses: the driver and parity oracle, the fuzzer.
NOT_FOR_NODES = (
    "repro.net.driver",
    "repro.net.parity",
    "repro.chaos.fuzzer",
    "repro.chaos.grammar",
    "repro.chaos.shrink",
    "repro.chaos.oracles",
    "repro.baselines.ben_or",
)


def test_node_import_skips_driver_parity_and_fuzzer():
    probe = (
        "import json, sys\n"
        "import repro.net.node\n"
        f"print(json.dumps([m for m in {NOT_FOR_NODES!r} if m in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=SRC,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == []


@pytest.mark.parametrize("package", ["repro.net", "repro.chaos"])
def test_lazy_exports_resolve(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{package}.{name}"
    with pytest.raises(AttributeError):
        module.nonexistent_thing
