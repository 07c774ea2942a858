import pytest

from qchar import expansion, smallness


@pytest.fixture
def closures(monkeypatch):
    """The report of every closure the cell pipeline runs, in call order."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(expansion.fm_algorithm(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(smallness, "fm_algorithm", recording)
    return seen
