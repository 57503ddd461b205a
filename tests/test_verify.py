import pytest

from zetabounds import special as sp
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


@pytest.mark.parametrize("n", range(11))
def test_laurent_check_fails_on_a_broken_sign_pattern(monkeypatch, n):
    """A Stieltjes constant of the wrong sign breaks the alternation of
    the c_n (gamma_0, gamma_3 and gamma_4) or moves a c_n away from the
    Cauchy integral of -zeta'/zeta (each of gamma_0 ... gamma_10), and the
    check returns False."""
    flipped = list(sp._STIELTJES)
    flipped[n] = -flipped[n]
    monkeypatch.setattr(sp, "_STIELTJES", flipped)
    assert vf.check_laurent_alternating() is False
