"""Start-up: the package and each CLI command import only the modules
they use, and every public name still resolves."""

import json
import os
import subprocess
import sys

import pytest

import zetabounds

# the names the package has always exported, by defining submodule
PUBLIC = {
    "extremal": ("ApproximantParams beurling_majorant glued_contour_weight "
                 "l1_gap phi_hat phi_hat_lerch phi_weight truncated_exp"),
    "formula": ("BoundContext BoundReport CounterexampleSpec "
                "counterexample_mean explicit_formula_bound "
                "nontrivial_zero_sum perron_identity_check "
                "psi_concrete_bound trivial_zero_terms zero_sum_bound"),
    "sieve": ("ExtremaRecord SieveCheckpoint extrema_scan lambda_segment "
              "psi_checkpoints"),
    "special": ("EvalWithError LaurentCoeffs badabook_f cot_stable "
                "coth_stable digamma ei_and_bound fejer laurent_coeffs_A "
                "lerch log_deriv_zeta zeta_em"),
    "util": "PoleError PrecisionError",
    "weights": ("WeightContext F_and_A constants_C omega_plus theta "
                "tremic_check weight_split_error weighted_inv_integral "
                "weighted_log_integral"),
    "zeros": ("MissedZeroError ZeroCountStats ZeroFileError ZeroList "
              "box_count_bound bundled_zeros count_and_Q find_zeros "
              "inverse_square_tail lehman_sum load_zeros local_log_deriv "
              "save_zeros"),
}
NAMES = [(module, name) for module, names in PUBLIC.items()
         for name in names.split()]


def _run(code):
    """The JSON that `code` prints last, run in a fresh interpreter with the
    package imported from this checkout."""
    src = os.path.dirname(os.path.dirname(zetabounds.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def _loaded_after(code, *watch):
    """Which of the modules `watch` are loaded after running `code`."""
    return _run(f"{code}\nimport json, sys\n"
                f"print(json.dumps([m for m in {list(watch)!r} "
                "if m in sys.modules]))")


def test_setup_imports_skip_sieve_extremal_and_verify():
    """The benchmark's set-up import loads five of the submodules."""
    loaded = _loaded_after(
        "import zetabounds\nfrom zetabounds import formula, weights, zeros",
        "zetabounds.sieve", "zetabounds.extremal", "zetabounds.verify",
        "zetabounds.cli", "concurrent.futures", "zetabounds.formula")
    assert loaded == ["zetabounds.formula"]


def test_bare_package_import_loads_no_submodule():
    loaded = _loaded_after("import zetabounds", *(
        f"zetabounds.{m}" for m in (*PUBLIC, "verify", "cli")))
    assert loaded == []


def test_one_thread_sieve_loads_no_thread_pool():
    loaded = _loaded_after(
        "from zetabounds import sieve\n"
        "assert sieve.psi_checkpoints([10 ** 5])[0].psi > 0\n"
        "sieve.extrema_scan(10 ** 5, sieve.STAT_PSI)",
        "concurrent.futures")
    assert loaded == []


def test_zeros_command_loads_only_zeros_special_and_util(tmp_path):
    out, stats = tmp_path / "z.txt", tmp_path / "s.json"
    loaded = _loaded_after(
        "from zetabounds import cli\n"
        f"assert cli.main(['zeros', '--t-max', '100', '--out', {str(out)!r},"
        f" '--stats-out', {str(stats)!r}]) == 0",
        "zetabounds.verify", "zetabounds.extremal", "zetabounds.sieve",
        "zetabounds.formula", "zetabounds.weights", "concurrent.futures",
        "zetabounds.zeros")
    assert loaded == ["zetabounds.zeros"]
    assert json.loads(stats.read_text())["count"] == 29


def test_public_names_are_exactly_the_old_ones():
    assert sorted(zetabounds.__all__) == sorted(name for _, name in NAMES)


def test_public_names_resolve_to_their_modules():
    for module, name in NAMES:
        namespace = {}
        exec(f"from zetabounds import {name}", namespace)
        defining = sys.modules[f"zetabounds.{module}"]
        assert namespace[name] is getattr(defining, name), name
        assert getattr(zetabounds, name) is namespace[name], name


def test_dir_lists_the_public_names_before_their_first_use():
    listed = _run("import json, zetabounds\n"
                  "print(json.dumps(dir(zetabounds)))")
    assert {name for _, name in NAMES} <= set(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        zetabounds.nope
    with pytest.raises(ImportError):
        exec("from zetabounds import nope", {})
