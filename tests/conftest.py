import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from chargeplane import resonance

# A failing draw prints its @reproduce_failure blob, so a draw-dependent
# failure can be replayed exactly; the draws themselves stay random.
settings.register_profile("chargeplane", print_blob=True)
settings.load_profile("chargeplane")


@pytest.fixture(autouse=True)
def _empty_assembly_cache():
    """Each test starts with no shared assembly, so assembly counts do not
    depend on which tests ran before it."""
    resonance.shared_hamiltonian.cache_clear()


@pytest.fixture
def fresh_python():
    """run(script, *args): the standard output of `script` run in a new
    interpreter that imports this chargeplane, which must exit with 0."""
    src = str(Path(resonance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}

    def run(script: str, *args) -> str:
        proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
