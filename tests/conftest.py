import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from chargeplane import lapack, resonance
from chargeplane.basis import gauss_rule

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
def no_ilp64(monkeypatch):
    """numpy built on a LAPACK without the ILP64 routines: the one library
    lookup finds none, so LDL^T falls back to scipy and the Gauss rule to
    numpy's dense eigensolver. What was resolved or computed through the
    lookup, the LDL^T backend, the Gauss rules and the shared assemblies, is
    dropped on entry and again on exit, before the lookup is restored."""

    def drop_resolved():
        lapack._backend.cache_clear()
        gauss_rule.cache_clear()
        resonance.shared_hamiltonian.cache_clear()

    monkeypatch.setattr(lapack, "_ilp64", lambda: None)
    drop_resolved()
    yield
    drop_resolved()


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
