import json
import math
import os
import stat

import pytest

from zetabounds import cli
from zetabounds import sieve as sv
from zetabounds import zeros as zr



@pytest.fixture(scope="module")
def zeros_237(tmp_path_factory, zl_100):
    """A zero file of the first 100 zeros, complete through t = 237."""
    path = tmp_path_factory.mktemp("zeros") / "zeros-237.txt"
    zr.save_zeros(zl_100, str(path))
    return str(path)


def run(argv):
    return cli.main(argv)


def test_constants_flag(capsys):
    assert run(["--paper-constants"]) == 0
    out = capsys.readouterr().out
    assert "C1" in out and "0.168938" in out


def test_zeros_roundtrip(tmp_path, capsys):
    zfile = tmp_path / "z.txt"
    sfile = tmp_path / "s.json"
    rc = run(["zeros", "--t-max", "100", "--out", str(zfile),
              "--stats-out", str(sfile)])
    assert rc == 0
    stats = json.loads(sfile.read_text())
    assert stats["count"] == 29
    zl = zr.load_zeros(str(zfile))
    assert len(zl) == 29


def test_out_files_get_the_mode_open_gives(tmp_path):
    """Under umask 022 every new output file is 0644, as open(path, "w")
    would make it, an existing one keeps its own mode, and no temp file
    is left beside them."""
    out, stats, kept = (tmp_path / name for name in ("cp.csv", "s.json", "z"))
    kept.write_text("")
    kept.chmod(0o600)
    old = os.umask(0o022)
    try:
        assert run(["sieve", "--x-max", "100", "--checkpoints", "10,100",
                    "--out", str(out)]) == 0
        assert run(["zeros", "--t-max", "30", "--out", str(kept),
                    "--stats-out", str(stats)]) == 0
    finally:
        os.umask(old)
    for path, mode in ((out, 0o644), (stats, 0o644), (kept, 0o600)):
        assert stat.S_IMODE(os.stat(path).st_mode) == mode, path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cp.csv", "s.json",
                                                          "z"]


def test_zeros_empty_valid_file(tmp_path):
    zfile = tmp_path / "z5.txt"
    assert run(["zeros", "--t-max", "5", "--out", str(zfile)]) == 0
    assert len(zr.load_zeros(str(zfile))) == 0


def test_zeros_corrupt_load(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("13.0\n")
    rc = run(["zeros", "--load", str(bad), "--t-max", "5"])
    assert rc != 0
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ZeroFileError"


def test_psi_bound_pipeline(tmp_path, zl_med):
    zfile = tmp_path / "z.txt"
    zr.save_zeros(zl_med, str(zfile))
    out = tmp_path / "rep.json"
    rc = run(["psi-bound", "--t-max", "1000", "--zero-file", str(zfile),
              "--x", "1e5,1e6", "--sigma", "0", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2
    assert all(r["sieve_inside"] for r in rows)
    lo = float(rows[0]["total_lower"])
    hi = float(rows[0]["total_upper"])
    assert lo <= float(rows[0]["sieve_value"]) <= hi


def test_psi_bound_sigma_one_branch(tmp_path, zl_med, prime_powers):
    zfile = tmp_path / "z.txt"
    zr.save_zeros(zl_med, str(zfile))
    out = tmp_path / "rep.json"
    rc = run(["psi-bound", "--t-max", "1000", "--zero-file", str(zfile),
              "--x", "1e5,100000.9", "--sigma", "1", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    want = math.log(1e5) - 0.5772156649015328606
    assert abs(float(rows[0]["main_term"]) - want) < 1e-12
    # at both x the sieve value is sum_{n <= x} Lambda(n)/n, as sieved
    ns, ls = prime_powers.window(2, 100_000)
    c = sv.psi_checkpoints([100_000])[0]
    for r in rows:
        assert abs(float(r["sieve_value"]) - math.fsum(ls / ns)) < 1e-12
        assert float(r["sieve_value"]) == c.sum_lambda_over_n


def test_psi_bound_usage_error(tmp_path, zl_med, capsys):
    zfile = tmp_path / "z.txt"
    zr.save_zeros(zl_med, str(zfile))
    rc = run(["psi-bound", "--t-max", "1000", "--zero-file", str(zfile),
              "--x", "100"])
    assert rc != 0
    assert "must exceed" in json.loads(capsys.readouterr().out)["message"]


def test_psi_bound_missing_zero_file_is_an_error(tmp_path, capsys):
    # exit 3 means a sieve value outside the sandwich; a missing zero file
    # is an ordinary error, whatever its name
    missing = tmp_path / "no-sandwich.txt"
    rc = run(["psi-bound", "--t-max", "100", "--x", "1e5",
              "--zero-file", str(missing)])
    assert rc == cli.EXIT_ERROR
    assert "no-sandwich" in json.loads(capsys.readouterr().out)["message"]


def test_psi_bound_byte_identical(tmp_path, zl_med):
    zfile = tmp_path / "z.txt"
    zr.save_zeros(zl_med, str(zfile))
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    for o in (o1, o2):
        assert run(["psi-bound", "--t-max", "1000", "--zero-file",
                    str(zfile), "--x", "1e5", "--out", str(o)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_psi_bound_no_sieve_off_sigma_0_and_1(tmp_path, zl_med,
                                              monkeypatch):
    zfile = tmp_path / "z.txt"
    zr.save_zeros(zl_med, str(zfile))
    argv = ["psi-bound", "--t-max", "1000", "--zero-file", str(zfile),
            "--x", "1e5,1e6", "--sigma", "0.5"]
    plain, sieved = tmp_path / "a.json", tmp_path / "b.json"
    assert run(argv + ["--sieve-limit", "0", "--out", str(plain)]) == 0

    def no_sieve(*args, **kwargs):
        raise AssertionError("psi-bound sieved at sigma = 0.5")

    monkeypatch.setattr(sv, "psi_checkpoints", no_sieve)
    assert run(argv + ["--out", str(sieved)]) == 0
    assert sieved.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("head, tail, error, line", [
    # the first 100 zeros reach t = 237; 4520 zeros lie below 5000
    ("# t_max=5000 rh=1\n", "", "MissedZeroError", None),
    ("", "inf\n", "ZeroFileError", None),
    ("# t_max=nan rh=1\n", "", "ZeroFileError", None),
    # a header token that does not parse is reported at its line
    ("# t_max=abc rh=1\n", "", "ZeroFileError", 1),
    ("# t_max=237 rh=yes\n", "", "ZeroFileError", 1),
    ("\n# t_max=237 rh=1 t_max=300\n", "", "ZeroFileError", 2),
], ids=["stops-below-t_max", "inf-ordinate", "nan-t_max",
        "t_max-not-a-number", "rh-not-0-or-1", "t_max-repeated"])
def test_psi_bound_rejects_an_unsound_zero_file(tmp_path, capsys, zeros_237,
                                                head, tail, error, line):
    with open(zeros_237, encoding="ascii") as fh:
        body = "".join(l for l in fh if not l.startswith("#"))
    zfile = tmp_path / "z.txt"
    zfile.write_text(head + body + tail)
    rc = run(["psi-bound", "--t-max", "5000", "--zero-file", str(zfile),
              "--x", "1e6", "--sigma", "0.5"])
    assert rc == cli.EXIT_ERROR
    reported = json.loads(capsys.readouterr().out)
    assert reported["error"] == error
    if line is not None:
        assert reported["message"].startswith(f"{zfile}:{line}: ")


def test_counterexample_table(tmp_path):
    out = tmp_path / "c.csv"
    rc = run(["counterexample", "--K", "60", "--T", "1", "--delta", "0.1",
              "--N", "1,2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,x,empirical_mean,predicted,allowance"
    assert len(lines) == 3


def test_counterexample_far_above_the_ceiling_is_a_json_error(capsys):
    # x = e^(2 pi 1e300) overflows exp: the ceiling is checked first
    rc = run(["counterexample", "--K", "60", "--T", "1", "--delta", "0.1",
              "--N", "1e300"])
    assert rc == cli.EXIT_ERROR
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValueError",
        "message": "x exceeds the direct-summation ceiling 1e9"}


def test_psi_bound_at_a_huge_x(tmp_path, zeros_237):
    # x^3 overflows a double; the trivial-zero terms underflow to 0
    out = tmp_path / "rep.json"
    rc = run(["psi-bound", "--t-max", "200", "--zero-file", zeros_237,
              "--x", "1e300", "--sigma", "0.5", "--out", str(out)])
    assert rc == 0
    row, = json.loads(out.read_text())
    assert float(row["trivial_zero_bound"]) == 0.0
    numbers = [float(v) for k, v in row.items() if not k.endswith("_path")]
    assert all(math.isfinite(v) for v in numbers)
    assert float(row["total_lower"]) < float(row["total_upper"])


def test_psi_bound_from_the_closed_form_floor_needs_no_zero_file(tmp_path,
                                                                  capsys):
    # from T = VIHUELA_T_FLOOR the radius reads no zero; x just above T
    # keeps the sieve small
    out = tmp_path / "rep.json"
    assert run(["psi-bound", "--t-max", "1e7", "--x", "1.1e7",
                "--out", str(out)]) == 0
    row, = json.loads(out.read_text())
    assert row["zero_sum_path"] == "closed-form"
    assert row["zero_sum_exact"] is None
    assert row["sieve_inside"] is True
    # between the computable ceiling and the floor the zeros are needed
    assert run(["psi-bound", "--t-max", "5e6", "--x", "1.1e7"]) \
        == cli.EXIT_ERROR
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValueError",
        "message": "t_max above the computable ceiling needs a zero file"}


@pytest.mark.parametrize("tol", ["0.5", "1e300"])
def test_zeros_rejects_a_tol_above_the_first_zero_check(capsys, tol):
    assert run(["zeros", "--t-max", "60", "--tol", tol]) == cli.EXIT_ERROR
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValueError",
        "message": "tol must be finite and in [1e-9, 1e-4]"}


def test_sieve_extrema_csv(capsys):
    rc = run(["sieve", "--x-max", "1e6", "--statistic", "lambda-over-n"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1,min,1423,1," in out


@pytest.mark.parametrize("x_min", ["0", "-5"])
def test_sieve_rejects_x_min_below_one(capsys, x_min):
    rc = run(["sieve", "--x-max", "100", f"--x-min={x_min}"])
    assert rc == cli.EXIT_ERROR
    err = json.loads(capsys.readouterr().out)
    assert err["message"] == "x_min must be >= 1"


@pytest.mark.parametrize("argv, message", [
    (["--x-max", "0"], "x_max must be >= 1"),
    (["--x-max", "100", "--x-min", "1000"], "x_min must be <= x_max"),
], ids=["x-max-0", "x-min-above-x-max"])
def test_sieve_rejects_an_empty_range(capsys, argv, message):
    rc = run(["sieve"] + argv)
    assert rc == cli.EXIT_ERROR
    assert json.loads(capsys.readouterr().out)["message"] == message


@pytest.mark.parametrize("threads", ["0", "-3"], ids=["0", "-3"])
def test_threads_below_one_are_an_error(tmp_path, zl_med, capsys, threads):
    zfile = tmp_path / "z.txt"
    zr.save_zeros(zl_med, str(zfile))
    for argv in (["sieve", "--x-max", "100"],
                 ["sieve", "--checkpoints", "10,50", "--x-max", "100"],
                 ["psi-bound", "--t-max", "1000", "--zero-file", str(zfile),
                  "--x", "1e5"]):
        rc = run(argv + [f"--threads={threads}"])
        assert rc == cli.EXIT_ERROR
        err = json.loads(capsys.readouterr().out)
        assert err == {"error": "ValueError",
                       "message": "threads must be >= 1"}


def test_psi_bound_checks_threads_at_every_sigma(capsys, zeros_237):
    # sigma = 0.5 runs no sieve, and a bad --threads is still an error
    rc = run(["psi-bound", "--t-max", "200", "--zero-file", zeros_237,
              "--sigma", "0.5", "--x", "1e5", "--threads=0"])
    assert rc == cli.EXIT_ERROR
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValueError", "message": "threads must be >= 1"}


@pytest.mark.parametrize("argv, option", [
    (["psi-bound", "--t-max", "200", "--zero-file", "zeros.txt",
      "--x", "1e6,inf"], "x"),
    (["psi-bound", "--t-max", "200", "--zero-file", "zeros.txt",
      "--sigma", "0.5", "--x", "1e6,inf"], "x"),
    (["psi-bound", "--t-max", "200", "--zero-file", "zeros.txt",
      "--x", "1e6", "--sieve-limit", "nan"], "sieve-limit"),
    (["sieve", "--x-max", "inf"], "x-max"),
    (["sieve", "--x-max", "100", "--checkpoints", "1,inf"], "checkpoints"),
    (["sieve", "--x-max", "100", "--checkpoints", "1,nan"], "checkpoints"),
    (["counterexample", "--K", "5", "--T", "1", "--delta", "0.1",
      "--N", "1,inf"], "N"),
    (["zeros", "--t-max", "60", "--tol", "nan"], "tol"),
    (["zeros", "--t-max", "60", "--tol", "inf"], "tol"),
], ids=["psi-bound-x", "psi-bound-x-sigma-half", "psi-bound-sieve-limit",
        "sieve-x-max", "sieve-checkpoints-inf", "sieve-checkpoints-nan",
        "counterexample-N", "zeros-tol-nan", "zeros-tol-inf"])
def test_non_finite_numbers_are_a_json_error(capsys, argv, option):
    # the numbers are checked before any file is read
    assert run(argv) == cli.EXIT_ERROR
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": "ValueError",
                               "message": f"--{option} must be finite"}


@pytest.mark.parametrize("argv, message", [
    (["sieve", "--x-max", "100.9", "--x-min", "1.5"],
     "--x-max takes integers only"),
    (["sieve", "--x-max", "100", "--x-min", "1.5"],
     "--x-min takes integers only"),
    (["sieve", "--x-max", "2.7"], "--x-max takes integers only"),
    (["sieve", "--x-max", "100", "--checkpoints", "10,2.5"],
     "--checkpoints takes integers only"),
    (["sieve", "--x-max", "100", "--checkpoints", "5,10,500"],
     "checkpoints must be <= x_max"),
    (["sieve", "--x-max", "2e9"],
     "x_max beyond ceiling (pass long_run=True)"),
    (["sieve", "--x-max", "2e9", "--checkpoints", "10"],
     "x_max beyond ceiling (pass long_run=True)"),
    (["sieve", "--x-max", "100", "--checkpoints", "10", "--statistic",
      "psi"], "--statistic and --x-min set a scan, not --checkpoints"),
    (["sieve", "--x-max", "100", "--checkpoints", "10", "--x-min", "1"],
     "--statistic and --x-min set a scan, not --checkpoints"),
    (["counterexample", "--K", "5", "--T", "1", "--delta", "0.1",
      "--N", "1,2.5"], "--N takes integers only"),
], ids=["sieve-x-max-and-x-min", "sieve-x-min", "sieve-x-max",
        "sieve-checkpoints", "sieve-checkpoint-above-x-max",
        "sieve-x-max-above-the-ceiling",
        "sieve-checkpoints-x-max-above-the-ceiling",
        "sieve-checkpoints-statistic", "sieve-checkpoints-x-min",
        "counterexample-N"])
def test_integer_options_reject_other_values(capsys, argv, message):
    # each was truncated, ignored, or a checkpoint above x_max or up to an
    # x_max above the ceiling sieved, before
    assert run(argv) == cli.EXIT_ERROR
    assert json.loads(capsys.readouterr().out) == {"error": "ValueError",
                                                   "message": message}


@pytest.mark.parametrize("argv, option", [
    (["sieve", "--x-max", "1e6", "--x-min", ","], "x-min"),
    (["sieve", "--x-max", "1e6", "--checkpoints", ","], "checkpoints"),
    (["psi-bound", "--t-max", "100", "--x", ","], "x"),
    (["counterexample", "--K", "5", "--T", "1", "--delta", "0.1",
      "--N", ","], "N"),
], ids=["sieve-x-min", "sieve-checkpoints", "psi-bound-x",
        "counterexample-N"])
def test_empty_lists_are_a_json_error(tmp_path, capsys, argv, option):
    # a header-only CSV, a scan in place of the checkpoints, or [], before
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == cli.EXIT_ERROR
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValueError", "message": f"--{option} needs at least one value"}
    assert not out.exists()


def test_integer_options_read_integral_spellings(capsys):
    outs = []
    for x_max, cps in (("100", "10,100"), ("1e2", "1e1,100.0")):
        assert run(["sieve", "--x-max", x_max, "--checkpoints", cps]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].count("\n") == 3


def test_sieve_checkpoint_csv(capsys):
    rc = run(["sieve", "--x-max", "1000", "--checkpoints", "10,100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x,psi,delta"


def test_verify_suite(tmp_path, capsys):
    out = tmp_path / "v.json"
    rc = run(["verify", "--suite", "appendix-c", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert rows and all(r["pass"] for r in rows)


def test_verify_deterministic(tmp_path):
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    for o in (o1, o2):
        assert run(["verify", "--suite", "appendix-c", "--out",
                    str(o)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_verify_skips_what_a_short_list_cannot_support(tmp_path, capsys,
                                                       zeros_237):
    # the first 100 zeros reach t = 237: too short for the inverse-square
    # tail and the local expansion at t = 1500, enough for the rest
    out = tmp_path / "v.json"
    rc = run(["verify", "--suite", "appendix-b", "--zero-file", zeros_237,
              "--out", str(out)])
    assert rc == 0
    got = {r["check"]: r["pass"] for r in json.loads(out.read_text())}
    skipped = {"inverse-square tail below bound",
               "local log-derivative expansion"}
    assert len(got) == 5
    assert all(got[c] is None for c in skipped)
    assert all(got[c] is True for c in got.keys() - skipped)
    lines = capsys.readouterr().out.splitlines()
    assert sorted(l for l in lines if l.startswith("SKIP")) == sorted(
        f"SKIP [appendix-b] {c}" for c in skipped)


@pytest.mark.parametrize("t_max, computed", [
    (0.0, set()),
    (20.0, {"counting remainder bounds"}),
    (27.0, {"counting remainder bounds", "window counts below box bound"}),
])
def test_verify_skips_appendix_b_checks_below_their_heights(
        tmp_path, zl_100, t_max, computed):
    """A list too short for a check's random windows skips that check
    instead of failing the run: the counting check needs t_max >= 15, the
    box counts 26 and the monotone sums 28.  t_max = 0 is an empty file,
    whose height falls back to 0."""
    zfile = tmp_path / "z.txt"
    if t_max:
        g = zl_100.ordinates
        zr.save_zeros(zr.ZeroList(g[g <= t_max], t_max), str(zfile))
    else:
        zfile.write_text("")
    out = tmp_path / "v.json"
    rc = run(["verify", "--suite", "appendix-b", "--zero-file", str(zfile),
              "--out", str(out)])
    assert rc == 0
    got = {r["check"]: r["pass"] for r in json.loads(out.read_text())}
    assert len(got) == 5
    assert {c for c, v in got.items() if v is not None} == computed
    assert all(got[c] is True for c in computed)
