import pytest

from zetabounds import verify as vf


@pytest.mark.parametrize("suite, check",
                         [(suite, check) for suite, _, check in vf.REGISTRY],
                         ids=[check.__name__ for _, _, check in vf.REGISTRY])
def test_invariant(suite, check, request):
    """Every registry row holds; the appendix-b rows run on the zeros
    through APPENDIX_B_T, where none of them may be skipped."""
    args = ((request.getfixturevalue("zl_deep"),)
            if suite == vf.ZERO_SUITE else ())
    assert check(*args) is True
