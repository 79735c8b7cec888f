import pytest

from chargeplane import resonance


@pytest.fixture(autouse=True)
def _empty_assembly_cache():
    """Each test starts with no shared assembly, so assembly counts do not
    depend on which tests ran before it."""
    resonance.shared_hamiltonian.cache_clear()
