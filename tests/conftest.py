import pytest


@pytest.fixture(autouse=True)
def no_size_bound_override(monkeypatch):
    """Every test starts without ORBIT_MAX_SIZE; a test that needs it sets it itself."""
    monkeypatch.delenv("ORBIT_MAX_SIZE", raising=False)
