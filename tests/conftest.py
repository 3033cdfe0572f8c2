import tempfile

import pytest

from nrrw import engine


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test, so that the
    test's loader sees its own environment and later tests see theirs."""
    engine._kernel.cache_clear()
    yield
    engine._kernel.cache_clear()


@pytest.fixture
def no_compiler(monkeypatch, tmp_path, fresh_loader):
    """A process that cannot build the kernel: an empty directory as the
    PATH (no gcc), the cache and the temporary directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
