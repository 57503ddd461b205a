"""tools/byte_identity.py: its table covers every command and help text,
and its report reads synthetic outputs as it should.  Nothing here runs
the CLI."""

import importlib.util
import json
import math
import pathlib

from zetabounds import cli

_TOOL = pathlib.Path(__file__).parents[1] / "tools" / "byte_identity.py"
_spec = importlib.util.spec_from_file_location("byte_identity", _TOOL)
bi = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bi)


def test_every_command_and_help_text_has_a_row():
    cli_args = [args[2:] for _, _, args, _ in bi.OUTPUTS
                if args[:2] == ("-m", "zetabounds.cli")]
    runs = {args[0] for args in cli_args if "--help" not in args}
    helps = {args[:-1] for args in cli_args if args[-1:] == ("--help",)}
    assert set(cli.COMMANDS) <= runs
    assert helps == {(), *((cmd,) for cmd in cli.COMMANDS)}


def test_each_output_is_named_once():
    files = [f for file, _, _, stdout in bi.OUTPUTS
             for f in (file, stdout) if f not in (None, bi.STDOUT)]
    assert len(files) == len(set(files))
    assert {kind for _, kind, _, _ in bi.OUTPUTS} == {"text", *bi.REPORTS}


def test_every_snippet_compiles():
    snippets = [args[1] for _, _, args, _ in bi.OUTPUTS if args[0] == "-c"]
    assert {bi.QUADRATURE, bi.KERNELS, bi.BOUND_ROWS} <= set(snippets)
    for code in snippets:
        compile(code, "<snippet>", "exec")


def _row(lines, start):
    return next(line for line in lines if line.startswith(start))


def test_report_on_synthetic_outputs(tmp_path):
    cell = -0.758582552
    zeros = "# t_max=30.000000000 rh=1\n14.134725142\n21.022039639\n"
    sides = {
        "base": {
            "verify.json": "[]\n",
            "sieve-psi.csv": f"x_min,kind,x_at,left_limit,value\n"
                             f"1,min,1423,1,{cell:.16e}\n",
            "zeros-2000.txt": zeros,
            "psi-bound.json": json.dumps([{
                "x": "1e6", "sieve_inside": True, "zero_sum_path": "direct",
                "zero_sum_bound": "4.0", "zero_sum_exact": "-1.0"}]),
            "quadrature.txt": f"perron_identity_check 0 {2.0 ** -52!r}\n",
        },
    }
    sides["head"] = dict(
        sides["base"],
        **{"sieve-psi.csv": sides["base"]["sieve-psi.csv"].replace(
               f"{cell:.16e}", f"{math.nextafter(cell, -1.0):.16e}"),
           "zeros-2000.txt": zeros.replace("21.022039639", "21.022039640"),
           "psi-bound.json": sides["base"]["psi-bound.json"].replace(
               '"-1.0"', '"-1.5"'),
           "quadrature.txt": f"perron_identity_check 0 "
                             f"{3.0 * 2.0 ** -52!r}\n"})
    for side, files in sides.items():
        (tmp_path / side).mkdir()
        for name, text in files.items():
            (tmp_path / side / name).write_text(text)
    codes = {"base": {"verify.json": 0}, "head": {"verify.json": 1}}
    lines = bi.report(tmp_path / "base", tmp_path / "head", codes)

    assert "- `verify.json`: identical" in lines
    assert "- `kernels.txt`: missing in base" in lines
    assert _row(lines, "- `zeros-2000.txt`: differ: ").endswith(", line 3")
    assert "- `exit-codes`: verify.json 0 -> 1" in lines
    # one ulp in a sieve cell
    assert ("- sieve-psi.csv: 1 of 1 rows changed, largest change 1 ulps"
            in lines)
    # an ordinate moved by 1e-9
    assert ("- zeros-2000.txt: 1 of 3 lines changed, max ordinate delta "
            "1e-09" in lines)
    # zero_sum_exact: |delta| 0.5 on the scale of zero_sum_bound 4
    assert _row(lines, "- psi-bound.json: ").endswith(
        "x 0, zero_sum_bound 0, zero_sum_exact 0.125")
    # a Perron residual's change in ulps of 1, not relative to itself
    assert (f"  - perron_identity_check 0: {2.0 ** -52!r} -> "
            f"{3.0 * 2.0 ** -52!r}, change 2 ulps of 1" in lines)
