"""What importing the package and running ``repro check`` load.

Each package resolves its public names on first access (PEP 562), and
the CLI imports the engines a command runs in the branch that runs
them, so plain ``repro check`` never loads the class sweep, the sharded
driver, the disk stores or numpy.  Module lists are taken in a fresh
interpreter: this test process has imported everything already.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = [
    "repro",
    "repro.checker",
    "repro.store",
    "repro.core",
    "repro.memory",
    "repro.sim",
    "repro.service",
]

#: Modules plain ``repro check`` (N=2: safety plus wait-freedom) never runs.
NOT_ON_THE_N2_PATH = [
    "numpy",
    "repro.checker.parallel",
    "repro.checker.fast_snapshot",
    "repro.checker.atomicity",
    "repro.store.spill",
    "repro.core.consensus",
    "repro.api",
    "repro.checker.symmetry",
    "repro.store.base",
]


def _modules_after(code):
    """Run ``code`` in a fresh interpreter: its output lines, and the
    modules loaded when it ends."""
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\n"
         "print(json.dumps(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *out, modules = done.stdout.splitlines()
    return out, set(json.loads(modules))


def test_repro_check_loads_only_what_it_runs():
    out, modules = _modules_after(
        "import repro.cli\nassert repro.cli.main(['check']) == 0"
    )
    assert out == [
        "wiring ((0, 1), (0, 1)): 7235 states, safety+wait-freedom OK",
        "wiring ((0, 1), (1, 0)): 7235 states, safety+wait-freedom OK",
    ]
    assert sorted(modules & set(NOT_ON_THE_N2_PATH)) == []


def test_heartbeat_loads_neither_asyncio_nor_the_wire_protocol():
    # Every ``--heartbeat`` run imports it; the service package is lazy.
    _, modules = _modules_after(
        "from repro.service.heartbeat import Heartbeat"
    )
    assert sorted(modules & {"asyncio", "repro.service.protocol"}) == []


def test_import_repro_loads_no_submodule():
    _, modules = _modules_after("import repro")
    assert sorted(name for name in modules if name.startswith("repro.")) == []


def _defining_module(package, name, value):
    """A module, not a package, that binds ``name`` to ``value`` itself:
    the value's own module, else (constants, aliases) a submodule."""
    candidates = [getattr(value, "__module__", "")] + [
        info.name
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
        if not info.ispkg and info.name != "repro.__main__"
    ]
    for candidate in candidates:
        if candidate.startswith("repro."):
            module = importlib.import_module(candidate)
            if not hasattr(module, "__path__") and vars(module).get(name) is value:
                return candidate
    return None


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves_to_its_defining_object(name):
    package = importlib.import_module(name)
    for public in package.__all__:
        if public == "__version__":
            assert package.__version__ == repro.__version__
            continue
        value = getattr(package, public)
        assert public in dir(package)
        assert _defining_module(package, public, value), public
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        getattr(package, "missing")
