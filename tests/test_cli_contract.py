"""The command-line contract, one row per case: the scenario, the arguments,
the exit code (0 pass, 1 FAIL or ERROR, 2 usage error, 3 scenario error),
all of stderr and what stdout holds.  A row runs ``cli_main`` in-process
under ``warnings.simplefilter("error")``, so a warning or a traceback fails
it; the rows in ``IN_MODULE`` run ``python -W error -m rcdirac`` instead,
for the interpreter flag and the ``__main__`` entry point.  A new hostile
input is one more row.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import GENERAL_TORSION_TEXT
import rcdirac
from rcdirac.harness import CHECKS, cli_main, resolve_scenario_path

FLAT = "[tetrad]\ne0_0 = 1\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n"     # text after it starts at line 6
VALID = "valid names: " + ", ".join(CHECKS)
WALL = re.compile(r"wall time: \d+\.\d\ds\n")
EXPONENT = "scenario error: line 2: syntax error at offset 3: expected an integer exponent, found '" + "1" * 40 + "'..."


def e00(expr: str) -> str:
    """The identity tetrad with e0_0 (line 2) set to ``expr``."""
    return FLAT.replace("e0_0 = 1", f'e0_0 = "{expr}"')


def cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def module(*argv: str, cwd: Path) -> tuple[int, str, str]:
    src = str(Path(rcdirac.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "rcdirac", *argv], cwd=cwd, timeout=120,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def verdicts(verdict: str, names):
    """stdout is one line per check, in this order, each with this verdict."""
    return lambda out: [line.split()[:2] for line in out.splitlines()] == [[verdict, n] for n in names]


def usage(id, *args, message):
    return (id, "curved_torsion", ["--points", "2", "--format", "json", *args], 2, f"usage error: {message}")


# (id, scenario, arguments, exit code, stderr, [stdout predicate]).  The
# scenario is a bundled name or a path, scenario text (it holds a newline)
# or bytes, or None for a command without one.  stderr is its one line, or
# a pattern that matches all of it.  Without a predicate, stdout is empty.
ROWS = [
    ("run_bundled_ok", "minkowski", ["--points", "2", "--only", "metricity,bianchi"], 0, WALL,
     verdicts("PASS", ["metricity", "bianchi"])),
    ("run_json", "flat_torsion", ["--points", "2", "--only", "lichnerowicz", "--format", "json"], 0, WALL,
     lambda out: [(c["name"], c["pass"]) for c in json.loads(out)["checks"]] == [("lichnerowicz", True)]),
    ("bom_minkowski", b"\xef\xbb\xbf" + resolve_scenario_path("minkowski").read_bytes(), ["--points", "2"], 0, WALL,
     lambda out: out == cli("run", "minkowski", "--points", "2")[1]),
    ("deep_parens", e00("(" * 400 + "1" + ")" * 400), ["--points", "2"], 0, WALL, verdicts("PASS", CHECKS)),
    ("bianchi_off", FLAT + "[checks]\nbianchi = off\n", ["--points", "2"], 0, WALL,
     verdicts("PASS", [n for n in CHECKS if n != "bianchi"])),
    ("list_checks", None, ["list-checks"], 0, "",
     lambda out: [line.split()[0] for line in out.splitlines()] == list(CHECKS)),
    ("explain", None, ["explain", "lichnerowicz"], 0, "",
     lambda out: "generalized Dalembertian" in out and "\norder:    needs jets of order 2\n" in out),
    ("failing_check_exits_one", GENERAL_TORSION_TEXT + "[checks]\nlichnerowicz = on\n", ["--points", "2"], 1, WALL,
     verdicts("FAIL", ["lichnerowicz"])),
    ("usage_error_no_scenario", None, ["run"], 2,
     re.compile(r"usage: rcdirac run .*\nrcdirac run: error: the following arguments are required: scenario\n", re.S)),
    ("usage_error_no_command", None, [], 2,
     re.compile(r"usage: rcdirac .*\nrcdirac: error: the following arguments are required: command\n", re.S)),
    ("unknown_check", "minkowski", ["--only", "bogus"], 2, f"usage error: unknown check name(s) bogus; {VALID}"),
    ("explain_unknown_check", None, ["explain", "bogus"], 2, f"unknown check 'bogus'; {VALID}"),
    usage("points_zero", "--points", "0", message="point count must be at least 1, got 0"),
    usage("seed_negative", "--seed", "-1", message="seed must be non-negative, got -1"),
    usage("tol_inf", "--tol", "inf", message="tolerance must be finite and non-negative, got inf"),
    usage("tol_nan", "--tol", "nan", message="tolerance must be finite and non-negative, got nan"),
    usage("tol_attached_negative", "--tol=-1e-8", message="tolerance must be finite and non-negative, got -1e-08"),
    usage("only_comma", "--only", ",", message=f"no check name given; {VALID}"),
    usage("only_empty", "--only=", message=f"no check name given; {VALID}"),
    usage("tol_negative", "--tol", "-1e-8", message="tolerance must be finite and non-negative, got -1e-08"),
    usage("tol_negative_exponent", "--tol", "-1E+3", message="tolerance must be finite and non-negative, got -1000.0"),
    ("missing_scenario", "missing.scn", [], 3,
     "scenario error: scenario 'missing.scn' not found (not a file, not a bundled scenario)"),
    ("malformed_scenario", "[tetrad]\ne0_0 = \n", [], 3, "scenario error: line 2: expected 'key = value'"),
    ("nan_torsion", FLAT + "[torsion]\nT0_12 = nan\n", [], 3, "scenario error: line 7: non-finite number 'nan'"),
    ("quoted_overflow_literal", FLAT + '[torsion]\nT0_12 = "1e400"\n', [], 3,
     "scenario error: line 7: syntax error at offset 0: expected a finite number, found '1e400'"),
    ("long_sum", FLAT + f'[torsion]\nT0_12 = "{"+".join(["x0"] * 3000)}"\n', [], 3,
     "scenario error: line 7: expression nested deeper than 100 levels"),
    ("deep_sum", FLAT + f'[torsion]\nT0_12 = "{"+".join(["x0"] * 101)}"\n', [], 3,
     "scenario error: line 7: expression nested deeper than 100 levels"),
    ("long_exponent", e00("x0^" + "1" * 5000), [], 3, EXPONENT + " (5000 characters)"),
    ("float_exponent", e00("x0^" + "1" * 4000), [], 3, EXPONENT + " (4000 characters)"),
    ("field_set_twice", FLAT + '[fields]\nA.vector.1 = "x0"\nA.vector.01 = "x1"\n', [], 3,
     "scenario error: line 8: 'A.vector.01' sets blade 1 of the vector field, already set at line 7"),
    ("underscore_tol", FLAT + "[sampling]\ntol = 1_0\n", [], 3, "scenario error: line 7: expected a number, got '1_0'"),
    ("arabic_indic_torsion", FLAT + "[torsion]\nT0_12 = ١٢\n", [], 3,
     "scenario error: line 7: expected a number, got '١٢'"),
    ("reversed_interval", FLAT + "[chart]\nx1_min = 2\nx1_max = 1.0\n", [], 3,
     "scenario error: line 8: empty chart interval x1: min 2.0 >= max 1.0"),
    # the test fields overflow at every point: a scenario error, and numpy warns nothing
    ("huge_bound", FLAT + "[chart]\nx2_max = 1.01e308\n", ["--points", "2"], 3,
     "scenario error: test field f.scalar has no finite non-zero value at the sampled points"),
]
IN_MODULE = {"bom_minkowski", "failing_check_exits_one", "float_exponent"}


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_cli_contract(tmp_path, row):
    id, scenario, args, code, err, *out = row
    if isinstance(scenario, str) and "\n" in scenario:
        scenario = scenario.encode()
    if isinstance(scenario, bytes):
        (tmp_path / "case.scn").write_bytes(scenario)
        scenario = str(tmp_path / "case.scn")
    argv = args if scenario is None else ["run", scenario, *args]
    got_code, got_out, got_err = module(*argv, cwd=tmp_path) if id in IN_MODULE else cli(*argv)
    assert got_code == code, got_err
    assert err.fullmatch(got_err) if isinstance(err, re.Pattern) else got_err == (err + "\n" if err else ""), got_err
    assert out[0](got_out) if out else got_out == "", got_out
