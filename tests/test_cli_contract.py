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
import re
import warnings

import pytest

from conftest import GENERAL_TORSION_TEXT, fresh_python
from rcdirac.harness import CHECKS, cli_main, resolve_scenario_path

FLAT = "[tetrad]\ne0_0 = 1\ne1_1 = 1\ne2_2 = 1\ne3_3 = 1\n"     # text after it starts at line 6
VALID = "valid names: " + ", ".join(CHECKS)
WALL = re.compile(r"wall time: \d+\.\d\ds\n")
RESERVED = "reserved names: f.scalar, A.vector, A.bivector, A.even, A.general, A.general2, A.current"
NO_VALUE = "scenario error: test field f.scalar has no finite non-zero value at the sampled points"
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


def module(*argv: str, cwd) -> tuple[int, str, str]:
    proc = fresh_python("-W", "error", "-m", "rcdirac", *argv, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


def verdicts(verdict: str, names):
    """stdout is one line per check, in this order, each with this verdict."""
    return lambda out: [line.split()[:2] for line in out.splitlines()] == [[verdict, n] for n in names]


def lines(*expected):
    """stdout is these lines."""
    return lambda out: out.splitlines() == list(expected)


def usage(id, *args, message):
    return (id, "curved_torsion", ["--points", "2", "--format", "json", *args], 2, f"usage error: {message}")


# (id, scenario, arguments, exit code, stderr, [stdout predicate]).  The
# scenario is a bundled name or a path, scenario text (it holds a newline)
# or bytes, or None for a command without one.  stderr is its one line, or
# a pattern that matches all of it.  Without a predicate, stdout is empty.
ROWS = [
    ("run_text", "minkowski", ["--points", "2", "--only", "metricity,bianchi"], 0, WALL,
     verdicts("PASS", ["metricity", "bianchi"])),
    ("run_json", "flat_torsion", ["--points", "2", "--only", "lichnerowicz", "--format", "json"], 0, WALL,
     lambda out: [(c["name"], c["pass"]) for c in json.loads(out)["checks"]] == [("lichnerowicz", True)]),
    # the report, scenario digest included, is the plain file's
    ("bom_minkowski", b"\xef\xbb\xbf" + resolve_scenario_path("minkowski").read_bytes(),
     ["--points", "2", "--format", "json"], 0, WALL,
     lambda out: out == cli("run", "minkowski", "--points", "2", "--format", "json")[1]),
    ("deep_parens", e00("(" * 400 + "1" + ")" * 400), ["--points", "2"], 0, WALL, verdicts("PASS", CHECKS)),
    ("bianchi_off", FLAT + "[checks]\nbianchi = off\n", ["--points", "2"], 0, WALL,
     verdicts("PASS", [n for n in CHECKS if n != "bianchi"])),
    ("two_checks_off", FLAT + "[checks]\nbianchi = off\nlichnerowicz = off\n", ["--points", "2"], 0, WALL,
     verdicts("PASS", [n for n in CHECKS if n not in ("bianchi", "lichnerowicz")])),
    ("only_repeated", "minkowski", ["--points", "1", "--only", "metricity,bianchi,metricity"], 0, WALL,
     verdicts("PASS", ["metricity", "bianchi"])),
    ("list_checks", None, ["list-checks"], 0, "",
     lambda out: [line.split()[0] for line in out.splitlines()] == list(CHECKS)),
    ("explain", None, ["explain", "lichnerowicz"], 0, "",
     lambda out: "generalized Dalembertian" in out and "\norder:    needs jets of order 2\n" in out),
    ("failing_check_exits_one", GENERAL_TORSION_TEXT + "[checks]\nlichnerowicz = on\n", ["--points", "2"], 1, WALL,
     verdicts("FAIL", ["lichnerowicz"])),
    # exp(800 x1) overflows a float for x1 > 0.887 and 640000 exp(800 x1), its
    # second derivative, for x1 > 0.871: at seed 1 one point falls in between,
    # so only its jets overflow; at seed 6 the value itself does
    ("jets_overflow", e00("exp(800*x1)"), ["--points", "6", "--seed", "1", "--only", "metricity"], 1, WALL,
     lines("FAIL metricity max=0.000000e+00 mean=0.000000e+00 worst=(0.247509,0.27809,0.0797333,0.0854976)",
           "ERROR metricity point=(0.472509,0.87809,0.799733,0.856926) NonFiniteFrameError: the tetrad is not "
           "finite at point (0.4725091027126743, 0.8780901132571248, 0.7997333342871005, 0.8569261419870882)")),
    ("value_overflow", e00("exp(800*x1)"), ["--points", "6", "--seed", "6", "--only", "metricity"], 1, WALL,
     lines("FAIL metricity max=0.000000e+00 mean=0.000000e+00 worst=(0.776564,0.24578,0.401181,0.236279)",
           "ERROR metricity point=(0.101564,0.94578,0.761181,0.493422) OverflowError: math range error")),
    ("usage_error_no_scenario", None, ["run"], 2,
     re.compile(r"usage: rcdirac run .*\nrcdirac run: error: the following arguments are required: scenario\n", re.S)),
    ("usage_error_no_command", None, [], 2,
     re.compile(r"usage: rcdirac .*\nrcdirac: error: the following arguments are required: command\n", re.S)),
    ("unknown_check", "minkowski", ["--only", "bogus"], 2, f"usage error: unknown check name(s) bogus; {VALID}"),
    ("explain_unknown_check", None, ["explain", "bogus"], 2, f"usage error: unknown check 'bogus'; {VALID}"),
    usage("points_zero", "--points", "0", message="point count must be at least 1, got 0"),
    usage("seed_negative", "--seed", "-1", message="seed must be non-negative, got -1"),
    usage("tol_inf", "--tol", "inf", message="tolerance must be finite and non-negative, got inf"),
    usage("tol_nan", "--tol", "nan", message="tolerance must be finite and non-negative, got nan"),
    usage("tol_attached_negative", "--tol=-1e-8", message="tolerance must be finite and non-negative, got -1e-08"),
    usage("only_comma", "--only", ",", message=f"no check name given; {VALID}"),
    usage("only_empty", "--only=", message=f"no check name given; {VALID}"),
    usage("tol_negative", "--tol", "-1e-8", message="tolerance must be finite and non-negative, got -1e-08"),
    usage("tol_negative_exponent", "--tol", "-1E+3", message="tolerance must be finite and non-negative, got -1000.0"),
    usage("workers_zero", "--workers", "0", message="worker count must be at least 1, got 0"),
    usage("workers_negative", "--workers", "-2", message="worker count must be at least 1, got -2"),
    ("missing_scenario", "missing.scn", [], 3,
     "scenario error: scenario 'missing.scn' not found (not a file, not a bundled scenario)"),
    ("malformed_scenario", "[tetrad]\ne0_0 = \n", [], 3, "scenario error: line 2: expected 'key = value'"),
    ("scenario_seed_negative", FLAT + "[sampling]\nseed = -1\n", ["--points", "1"], 3,
     "scenario error: line 7: seed must be non-negative, got '-1'"),
    *[(f"scenario_tol_{tol}", FLAT + f"[sampling]\ntol = {tol}\n", ["--points", "1"], 3,
       f"scenario error: line 7: tol must be finite and non-negative, got '{tol}'")
      for tol in ("nan", "inf", "-inf", "-1")],
    *[(f"scenario_{key}_{value}", FLAT + f"[sampling]\n{key} = {value}\n", ["--points", "1"], 3,
       f"scenario error: line 7: {key} must be an integer, got '{value}'")
      for key, value in [("points", "2.9"), ("seed", "1.7"), ("points", "inf"), ("points", "nan"), ("seed", "-inf")]],
    ("scenario_points_zero", FLAT + "[sampling]\npoints = 0\n", [], 3,
     "scenario error: line 7: points must be at least 1, got '0'"),
    # an empty selection is a scenario error, never an empty report that passes
    ("all_checks_off", FLAT + "[checks]\n" + "".join(f"{n} = off\n" for n in CHECKS), ["--points", "2"], 3,
     f"scenario error: line {6 + len(CHECKS)}: [checks] turns off every check"),
    # the section is validated before --only wins, and before a bad argument
    ("unknown_check_in_section", FLAT + "[checks]\nmetricity = on\nbogus = off\n",
     ["--workers", "0", "--only", "metricity"], 3, f"scenario error: line 8: unknown check name 'bogus'; {VALID}"),
    ("nan_torsion", FLAT + "[torsion]\nT0_12 = nan\n", [], 3, "scenario error: line 7: non-finite number 'nan'"),
    ("quoted_overflow_literal", FLAT + '[torsion]\nT0_12 = "1e400"\n', [], 3,
     "scenario error: line 7: syntax error at offset 0: expected a finite number, found '1e400'"),
    ("long_sum", FLAT + f'[torsion]\nT0_12 = "{"+".join(["x0"] * 3000)}"\n', [], 3,
     "scenario error: line 7: expression nested deeper than 100 levels"),
    ("deep_sum", FLAT + f'[torsion]\nT0_12 = "{"+".join(["x0"] * 101)}"\n', [], 3,
     "scenario error: line 7: expression nested deeper than 100 levels"),
    ("long_exponent", e00("x0^" + "1" * 5000), [], 3, EXPONENT + " (5000 characters)"),
    ("float_exponent", e00("x0^" + "1" * 4000), [], 3, EXPONENT + " (4000 characters)"),
    # a field the run would not read, or a component it would drop
    *[(f"field_key_{key}", FLAT + '[fields]\nf.scalar = "x0"\n' + f'{key} = "x2"\n', ["--points", "2"], 3,
       f"scenario error: line 8: {message}") for key, message in [
        ("f.phi", f"unknown field 'f.phi'; {RESERVED}"),
        ("A.vectr.1", f"unknown field 'A.vectr.1'; {RESERVED}"),
        ("A.scalar.0", f"unknown field 'A.scalar.0'; {RESERVED}"),
        ("A.vector.7", "field A.vector has a component at blade 7 (grade 2), but this reserved name only allows "
                       "grades (1,)"),
    ]],
    ("field_set_twice", FLAT + '[fields]\nA.vector.1 = "x0"\nA.vector.01 = "x1"\n', [], 3,
     "scenario error: line 8: 'A.vector.01' sets blade 1 of the vector field, already set at line 7"),
    ("underscore_tol", FLAT + "[sampling]\ntol = 1_0\n", [], 3, "scenario error: line 7: expected a number, got '1_0'"),
    ("arabic_indic_torsion", FLAT + "[torsion]\nT0_12 = ١٢\n", [], 3,
     "scenario error: line 7: expected a number, got '١٢'"),
    ("reversed_interval", FLAT + "[chart]\nx1_min = 2\nx1_max = 1.0\n", [], 3,
     "scenario error: line 8: empty chart interval x1: min 2.0 >= max 1.0"),
    ("wide_interval", "[chart]\nx0_min = -1e308\nx0_max = 1e308\n" + FLAT, ["--points", "2"], 3,
     "scenario error: line 3: chart interval x0 too wide: max - min overflows"),
    # a test field without a finite non-zero value, or one that fails at a
    # point, is a scenario error; exp(800*x0) overflows for x0 > 0.887
    ("field_zero", FLAT + '[fields]\nf.scalar = "0*x0"\n', ["--points", "3"], 3, NO_VALUE),
    ("field_infinite", FLAT + '[fields]\nf.scalar = "x0 + 1e308*1e308"\n', ["--points", "3"], 3, NO_VALUE),
    ("field_overflow", "[chart]\nx0_min = 0.9\nx0_max = 1.0\n" + FLAT + '[fields]\nf.scalar = "exp(800*x0)"\n',
     ["--points", "3"], 3, "scenario error: test field f.scalar: OverflowError at point (0.9063505315032295, "
     "0.5596514349690216, 0.606809276110565, 0.9333650918133277): math range error"),
    ("field_domain_error", FLAT + '[fields]\nA.vector.1 = "1/(x0 - x0)"\n', ["--points", "3"], 3,
     "scenario error: test field A.vector: domain error at point (0.0635053150322956, 0.5596514349690216, "
     "0.606809276110565, 0.9333650918133277): reciprocal of near-zero value 0.0"),
    # the test fields overflow at every point: a scenario error, and numpy warns nothing
    ("huge_bound", FLAT + "[chart]\nx2_max = 1.01e308\n", ["--points", "2"], 3, NO_VALUE),
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
