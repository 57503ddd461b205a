import pytest

from zetabounds import verify as vf
from zetabounds import zeros as zr


@pytest.fixture(scope="session")
def zl_med():
    """Zeros through t = 2000 (1517 of them)."""
    return zr.find_zeros(2000.0, 1e-9)


@pytest.fixture(scope="session")
def zl_small():
    """Zeros through t = 300."""
    return zr.find_zeros(300.0, 1e-9)


@pytest.fixture(scope="session")
def zl_deep():
    """Zeros through the height of the default appendix-b list, deep
    enough for the tail estimates."""
    return zr.find_zeros(vf.APPENDIX_B_T, 1e-9)
