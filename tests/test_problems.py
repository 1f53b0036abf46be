"""Problem files: parsing diagnostics, runs, CSV output and the CLI."""

import dataclasses
import math
import re

import numpy as np
import pytest

from legpulse import solver
from legpulse.basis import BasisConfig
from legpulse.cli import main
from legpulse.exprlang import evaluate, is_difference_kernel
from legpulse.problems import (
    DEFAULT_GRID,
    GridRow,
    ProblemFileError,
    ProblemSpec,
    emit_csv,
    format_report,
    load_problem,
    parse_problem,
    run,
    write_csv,
)
from legpulse.solver import _jacobian, assemble, residual, solve

E = math.e

FREDHOLM_TEXT = """\
# comment line
kind = fredholm
lambda = 1
kernel = exp(t - s)   # trailing comment
f = e^(t + 1)
m = 0
n = 1
ics = 1
r = 2
q = 1
exact = exp(t)
"""

VOLTERRA_TEXT = """\
kind = volterra
beta = 1
kernel = sin(t - s)
f = 2*t^3 + t^2 - 12*t + 12*sin(t)
m = 0
n = 1
ics = 0
r = 3
q = 4
exact = t^2
M = 2
"""


def test_parse_fredholm_fields():
    spec = parse_problem(FREDHOLM_TEXT, origin="inline")
    assert spec.kind == "fredholm"
    assert spec.scalar == 1.0
    assert (spec.m, spec.n) == (0, 1)
    assert spec.initial_conditions == (1.0,)
    assert (spec.r, spec.q) == (2, 1)
    assert spec.grid == DEFAULT_GRID
    assert spec.exact is not None
    assert spec.deriv_bound is None
    assert spec.origin == "inline"


def test_parse_optional_grid_and_bound():
    spec = parse_problem(VOLTERRA_TEXT + "grid = 0, 0.5, 0.75\n")
    assert spec.grid == (0.0, 0.5, 0.75)
    assert spec.deriv_bound == 2.0


def _expect_error(text, fragment, line=None):
    with pytest.raises(ProblemFileError) as info:
        parse_problem(text, origin="bad.prob")
    assert fragment in str(info.value)
    if line is not None:
        assert info.value.line == line
    return info.value


def test_unknown_key_names_line():
    err = _expect_error(FREDHOLM_TEXT + "wavelets = 3\n", "unknown key", line=12)
    assert str(err).startswith("bad.prob:12:")


def test_duplicate_key_rejected():
    _expect_error(FREDHOLM_TEXT + "r = 3\n", "duplicate key 'r'", line=12)


def test_missing_kind_rejected():
    _expect_error("lambda = 1\n", "missing required key 'kind'")


def test_bad_kind_rejected():
    _expect_error("kind = cauchy\n", "kind must be", line=1)


def test_wrong_scalar_key_rejected():
    text = FREDHOLM_TEXT.replace("lambda = 1", "beta = 1")
    err = _expect_error(text, "does not apply to kind=fredholm")
    assert "'lambda'" in str(err)


def test_kernel_syntax_error_carries_position():
    text = FREDHOLM_TEXT.replace("kernel = exp(t - s)   # trailing comment", "kernel = 2**t")
    err = _expect_error(text, "position 2", line=4)
    assert "kernel" in str(err)


def test_forcing_must_not_use_s():
    text = FREDHOLM_TEXT.replace("f = e^(t + 1)", "f = e^(t + s)")
    _expect_error(text, "may only use variable(s) t", line=5)


def test_exact_must_not_use_s():
    text = FREDHOLM_TEXT.replace("exact = exp(t)", "exact = exp(s)")
    _expect_error(text, "may only use variable(s) t")


def test_ics_count_must_match_orders():
    text = FREDHOLM_TEXT.replace("ics = 1", "ics = 1, 0")
    err = _expect_error(text, "y(0) .. y^(0)(0)", line=8)
    assert "2 value(s)" in str(err)


def test_missing_ics_reports_requirement():
    text = FREDHOLM_TEXT.replace("ics = 1\n", "")
    _expect_error(text, "missing key 'ics'")


def test_grid_outside_domain_rejected():
    _expect_error(VOLTERRA_TEXT + "grid = 0.5, 1.0\n", "[0, 1)", line=12)


def test_negative_orders_and_sizes_rejected():
    _expect_error(FREDHOLM_TEXT.replace("m = 0", "m = -1"), "at least 0")
    _expect_error(FREDHOLM_TEXT.replace("r = 2", "r = 0"), "at least 1")
    _expect_error(FREDHOLM_TEXT.replace("q = 1", "q = x"), "integer")


def test_non_numeric_scalar_rejected():
    _expect_error(FREDHOLM_TEXT.replace("lambda = 1", "lambda = fast"), "real number")


def test_line_without_equals_rejected():
    _expect_error("kind fredholm\n", "key = value", line=1)


def test_empty_value_rejected():
    _expect_error("kind =\n", "empty value", line=1)


def test_negative_bound_rejected():
    _expect_error(VOLTERRA_TEXT.replace("M = 2", "M = -2"), "nonnegative")


def test_spec_validation_on_direct_construction():
    spec = parse_problem(VOLTERRA_TEXT)
    with pytest.raises(ValueError):
        dataclasses.replace(spec, r=0)
    with pytest.raises(ValueError):
        dataclasses.replace(spec, grid=(0.5, 1.5))
    with pytest.raises(ValueError):
        dataclasses.replace(spec, initial_conditions=())


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("deriv_bound", -1.0, "M must be finite and nonnegative, got -1.0"),
        ("scalar", math.nan, "beta must be finite, got nan"),
        ("initial_conditions", (math.inf,), "ics must be finite, got inf"),
    ],
)
def test_spec_rejects_what_the_file_rejects(field, value, fragment):
    # a spec built by replace is held to the file's rules, under the file's key
    spec = parse_problem(VOLTERRA_TEXT)
    with pytest.raises(ValueError, match=fragment):
        dataclasses.replace(spec, **{field: value})


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("kind", "hammerstein", "kind must be 'fredholm' or 'volterra', got 'hammerstein'"),
        ("scalar", math.nan, "lambda must be finite, got nan"),
        ("m", -1, "m must be at least 0, got -1"),
        ("n", -1, "n must be at least 0, got -1"),
        ("ics", (), "ics lists 0 value(s)"),
        ("ics", (1.0, 2.0), "ics lists 2 value(s)"),
        ("ics", (math.inf,), "ics must be finite, got inf"),
    ],
    ids=["kind", "scalar", "m", "n", "too-few-ics", "too-many-ics", "ics-inf"],
)
def test_assemble_and_spec_reject_alike(field, value, fragment):
    # one rulebook: assemble and a spec built by replace say the same thing
    spec = parse_problem(FREDHOLM_TEXT)
    args = {"kind": "fredholm", "scalar": 1.0, "m": 0, "n": 1, "ics": (1.0,), field: value}
    with pytest.raises(ValueError) as from_assemble:
        assemble(
            BasisConfig(q=1, r=2),
            args["kind"],
            args["scalar"],
            lambda t, s: np.exp(t - s),
            lambda t: np.exp(t + 1.0),
            args["m"],
            args["n"],
            args["ics"],
        )
    spec_field = "initial_conditions" if field == "ics" else field
    with pytest.raises(ValueError) as from_spec:
        dataclasses.replace(spec, **{spec_field: value})
    assert str(from_assemble.value) == str(from_spec.value)
    assert fragment in str(from_spec.value)


@pytest.mark.parametrize(
    "old, new, fragment, line",
    [
        ("m = 0", "m = -1", "m must be at least 0, got -1", 6),
        ("n = 1", "n = -1", "n must be at least 0, got -1", 7),
        ("r = 2", "r = 0", "r must be at least 1, got 0", 9),
        ("q = 1", "q = 0", "q must be at least 1, got 0", 10),
        ("ics = 1", "ics = 1, 2", "ics lists 2 value(s)", 8),
        ("exact = exp(t)", "exact = exp(t)\ngrid = 0.5, 1.0", "grid points must lie", 12),
        ("exact = exp(t)", "exact = exp(t)\nM = -1", "M must be finite and nonnegative", 12),
        ("lambda = 1", "lambda = inf", "lambda must be finite, got inf", 3),
    ],
    ids=["m", "n", "r", "q", "ics", "grid", "M", "lambda"],
)
def test_field_error_names_its_line(old, new, fragment, line):
    err = _expect_error(FREDHOLM_TEXT.replace(old, new), fragment, line=line)
    assert str(err).startswith(f"bad.prob:{line}: ")


def test_load_problem_uses_path_as_origin(tmp_path):
    path = tmp_path / "sample.prob"
    path.write_text(VOLTERRA_TEXT)
    spec = load_problem(path)
    assert spec.origin == str(path)


def test_run_volterra_matches_published_numbers():
    out = run(parse_problem(VOLTERRA_TEXT))
    assert out.report.converged
    assert len(out.rows) == 10
    assert out.max_abs_error < 1e-4
    assert out.bound == pytest.approx(2.0 / 192.0, abs=1e-12)
    # published absolute error at t = 0.2 is 4.99e-8
    assert out.rows[2].abs_error == pytest.approx(4.99e-8, abs=5e-5)
    assert out.rows[2].abs_error < 5e-6


def test_run_without_exact_leaves_blanks():
    text = VOLTERRA_TEXT.replace("exact = t^2\n", "").replace("M = 2\n", "")
    out = run(parse_problem(text))
    assert out.bound is None
    assert out.max_abs_error is None
    assert all(row.y_exact is None and row.abs_error is None for row in out.rows)
    csv = emit_csv(out.rows)
    assert csv.splitlines()[1].endswith(",,")


def test_csv_format_and_determinism():
    out_a = run(parse_problem(VOLTERRA_TEXT))
    out_b = run(parse_problem(VOLTERRA_TEXT))
    csv_a, csv_b = emit_csv(out_a.rows), emit_csv(out_b.rows)
    assert csv_a == csv_b  # byte-identical across runs
    lines = csv_a.split("\n")
    assert lines[0] == "t,y_approx,y_exact,abs_error"
    assert len(lines) == 12 and lines[-1] == ""
    assert "\r" not in csv_a
    # 17 significant digits: 0.1 renders with its full double expansion
    assert lines[2].startswith("0.10000000000000001,")


def test_csv_17_digit_cells():
    rows = (GridRow(t=1.0 / 3.0, y_approx=2.0 / 3.0, y_exact=None, abs_error=None),)
    csv = emit_csv(rows)
    assert csv.splitlines()[1] == "0.33333333333333331,0.66666666666666663,,"


def test_empty_grid_gives_header_only():
    assert emit_csv(()) == "t,y_approx,y_exact,abs_error\n"


def test_write_csv_forces_lf(tmp_path):
    out = run(parse_problem(VOLTERRA_TEXT))
    path = tmp_path / "table.csv"
    write_csv(path, out.rows)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def test_format_report_mentions_everything():
    out = run(parse_problem(VOLTERRA_TEXT, origin="volterra.prob"))
    report = format_report(out)
    assert "volterra.prob" in report
    assert "converged: yes" in report
    assert "stopped by: converged" in report
    assert "iterations:" in report
    assert "residual max-norm:" in report
    assert "error bound:" in report
    assert "coefficients:" in report
    assert "max abs error" in report


def test_cli_solve_writes_outputs(tmp_path, capsys):
    problem = tmp_path / "volterra.prob"
    problem.write_text(VOLTERRA_TEXT)
    csv_path = tmp_path / "out.csv"
    report_path = tmp_path / "report.txt"
    code = main(
        ["solve", str(problem), "--out", str(csv_path), "--report", str(report_path)]
    )
    assert code == 0
    assert csv_path.read_text().startswith("t,y_approx,y_exact,abs_error\n")
    assert "converged: yes" in report_path.read_text()


def test_cli_solve_stdout_and_grid_size(tmp_path, capsys):
    problem = tmp_path / "volterra.prob"
    problem.write_text(VOLTERRA_TEXT)
    code = main(["solve", str(problem), "--grid-size", "5"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert len(lines) == 6
    assert lines[1].startswith("0,")


def test_cli_rejects_malformed_file_with_position(tmp_path, capsys):
    problem = tmp_path / "broken.prob"
    problem.write_text(FREDHOLM_TEXT.replace("kernel = exp(t - s)   # trailing comment", "kernel = 2**t"))
    code = main(["solve", str(problem)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{problem}:4:" in captured.err
    assert "position 2" in captured.err


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("lambda = 1", "lambda = nan", 3),
        ("ics = 1", "ics = inf", 8),
        ("f = e^(t + 1)", "f = 1e999*t", 5),
        ("exact = exp(t)", "exact = exp(t)\nM = nan", 12),
    ],
    ids=["lambda", "ics", "f-literal", "M"],
)
def test_cli_rejects_non_finite_numbers_with_line(tmp_path, capsys, old, new, line):
    problem = tmp_path / "non_finite.prob"
    problem.write_text(FREDHOLM_TEXT.replace(old, new))
    code = main(["solve", str(problem)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"{problem}:{line}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "f",
    ["(" * 10_000 + "t" + ")" * 10_000, "-" * 10_000 + "t", "t" + "+t" * 10_000],
    ids=["parentheses", "minus", "sum"],
)
def test_cli_rejects_a_deeply_nested_formula_with_one_line(tmp_path, capsys, f):
    # each overflowed the parser or exprlang.variables with a RecursionError
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "problems" / "fredholm_exp.prob").read_text()
    problem = tmp_path / "deep.prob"
    problem.write_text(text.replace("f = e^(t + 1)", f"f = {f}"))
    code = main(["solve", str(problem)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"{problem}:10: in f: expression nested deeper than ")
    assert captured.err.count("\n") == 1


def test_cli_rejects_missing_file(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "absent.prob")])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read" in captured.err


def test_cli_rejects_bad_overrides(tmp_path, capsys):
    problem = tmp_path / "volterra.prob"
    problem.write_text(VOLTERRA_TEXT)
    assert main(["solve", str(problem), "--r", "0"]) == 2
    assert main(["solve", str(problem), "--grid-size", "0"]) == 2
    for tol in ("-1", "nan", "inf"):
        assert main(["solve", str(problem), "--tol", tol]) == 2
    capsys.readouterr()
    assert main(["solve", str(problem), "--max-iter", "0"]) == 2
    assert capsys.readouterr().err == "max_iter must be at least 1, got 0\n"


def test_cli_rejects_bad_tol_before_assembling(tmp_path, capsys):
    # the kernel cannot be sampled on the diagonal nodes, where t == s, so
    # the flag error shows only if it is raised before assembly
    problem = tmp_path / "domain.prob"
    problem.write_text(DOMAIN_ERROR_TEXT.format(kernel="log(t - s)", f="t").replace("q = 2", "q = 1"))
    assert main(["solve", str(problem), "--tol", "-1"]) == 2
    assert capsys.readouterr().err == "tol must be finite and positive, got -1.0\n"


def test_cli_reports_non_convergence(tmp_path, capsys):
    problem = tmp_path / "volterra.prob"
    problem.write_text(VOLTERRA_TEXT)
    code = main(["solve", str(problem), "--max-iter", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "did not converge: Newton stopped (iteration limit) after 1 of at most 1 iteration(s), "
        "residual max-norm 1.864e-04 > 1e-12\n"
    )


def test_cli_override_shapes_change_output(tmp_path):
    problem = tmp_path / "fredholm.prob"
    problem.write_text(FREDHOLM_TEXT)
    coarse_csv = tmp_path / "coarse.csv"
    fine_csv = tmp_path / "fine.csv"
    assert main(["solve", str(problem), "--out", str(coarse_csv)]) == 0
    assert main(["solve", str(problem), "--r", "3", "--q", "4", "--out", str(fine_csv)]) == 0
    assert coarse_csv.read_text() != fine_csv.read_text()


def test_bundled_problem_files_load():
    from pathlib import Path

    problems_dir = Path(__file__).resolve().parent.parent / "problems"
    for name in ("fredholm_exp.prob", "volterra_sin.prob"):
        spec = load_problem(problems_dir / name)
        out = run(spec)
        assert out.report.converged


@pytest.mark.parametrize("q", [12, 40])
def test_difference_kernel_spelled_as_a_product_gives_the_same_solution(q):
    # exp(t)*exp(-s) is not written in t - s, so it takes the full projection,
    # while exp(t - s) takes t-blocks 0 and q - 1 only; from q = 28 up each
    # kernel call takes one t-block, over the sample budget
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "problems" / "fredholm_exp.prob").read_text()
    spellings = [parse_problem(text), parse_problem(text.replace("exp(t - s)", "exp(t)*exp(-s)"))]
    assert [is_difference_kernel(spec.kernel) for spec in spellings] == [True, False]
    toeplitz, full = (run(dataclasses.replace(spec, r=3, q=q)) for spec in spellings)
    assert toeplitz.report.converged and full.report.converged
    np.testing.assert_allclose(
        [row.y_approx for row in toeplitz.rows], [row.y_approx for row in full.rows], rtol=1e-10, atol=0
    )


@pytest.mark.parametrize(
    "name,rates",
    [
        # max grid error falls as q^-r for Fredholm; measured 1.87 .. 5.05
        ("fredholm_exp.prob", {2: 2, 3: 3, 4: 4, 5: 5}),
        # and as q^-2 at r = 2, then q^-(r+1), for Volterra; measured 2.06 .. 6.05
        ("volterra_sin.prob", {2: 2, 3: 4, 4: 5, 5: 6}),
    ],
)
def test_grid_error_converges_at_its_order(name, rates):
    from pathlib import Path

    base = load_problem(Path(__file__).resolve().parent.parent / "problems" / name)
    grid = tuple(i / 1000 for i in range(1000))

    def error(r, q):
        return run(dataclasses.replace(base, r=r, q=q, grid=grid)).max_abs_error

    for r, rate in rates.items():
        errors = [error(r, q) for q in (2, 4, 8, 16, 32)]
        orders = [math.log2(e / e_half) for e, e_half in zip(errors, errors[1:])]
        assert min(orders) >= rate - 0.3, (r, orders)
    # measured 2.5e-13 for Fredholm and 2.6e-14 for Volterra
    assert error(8, 64) < 1e-12


@pytest.mark.parametrize(
    "name,bound",
    [
        # max grid error at q = 1, r = 40, 45, 50: 6.2e-14, 7.6e-14, 3.6e-14 with
        # basis's rule, 1.1e-12, 2.8e-12, 2.0e-12 with numpy's leggauss weights
        ("fredholm_exp.prob", 2e-13),
        # 1.8e-14, 1.1e-14, 3.9e-15 against 8.6e-14, 1.5e-13, 9.2e-14
        ("volterra_sin.prob", 5e-14),
    ],
)
def test_grid_error_stays_at_rounding_level_at_high_r(name, bound):
    # the approximation error is far below rounding at these r, so what is
    # left is the rounding of the Gauss weights and of the solve
    from pathlib import Path

    base = load_problem(Path(__file__).resolve().parent.parent / "problems" / name)
    grid = tuple(i / 200 for i in range(200))
    for r in (40, 45, 50):
        output = run(dataclasses.replace(base, r=r, q=1, grid=grid))
        assert output.report.converged
        assert output.max_abs_error <= bound, (r, output.max_abs_error)


DOMAIN_ERROR_TEXT = """\
kind = fredholm
lambda = 1
kernel = {kernel}
f = {f}
m = 0
n = 0
r = 2
q = 2
"""


@pytest.mark.parametrize(
    "kernel, f, message",
    [
        # the diagonal Gauss nodes have t == s exactly
        ("log(t - s)", "t", "cannot evaluate log(t-s) for argument 0.0"),
        (
            "t*s",
            "sqrt(t - 0.5)",
            "cannot evaluate sqrt(t-0.5) for argument -0.4987968049992553",
        ),
    ],
)
def test_cli_names_runtime_domain_error(tmp_path, capsys, kernel, f, message):
    problem = tmp_path / "domain.prob"
    problem.write_text(DOMAIN_ERROR_TEXT.format(kernel=kernel, f=f))
    code = main(["solve", str(problem)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"could not assemble {problem}: {message}" in captured.err


@pytest.mark.parametrize("q", ["1", "3"])
def test_log_kernel_names_the_first_diagonal_node_on_either_projection_path(tmp_path, capsys, q):
    # q = 1 samples its one t-block, q = 3 t-blocks 0 and 2 only; both sample
    # t-block 0 first, and its diagonal block (0, 0), where t == s
    problem = tmp_path / "domain.prob"
    problem.write_text(DOMAIN_ERROR_TEXT.format(kernel="log(t - s)", f="t").replace("q = 2", f"q = {q}"))
    assert main(["solve", str(problem)]) == 1
    assert "cannot evaluate log(t-s) for argument 0.0:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kernel, difference",
    [
        ("exp(t - s)", True),
        ("1", True),
        ("2*sin(s - t)", True),
        ("cos(5*t*s)", False),
        ("t*s", False),
        ("(t - s) + t", False),
        ("t", False),
    ],
)
def test_run_samples_block_row_and_column_exactly_for_difference_kernels(monkeypatch, kernel, difference):
    seen = []
    project = solver.project_kernel

    def spy(config, g, **options):
        seen.append(options)
        return project(config, g, **options)

    monkeypatch.setattr(solver, "project_kernel", spy)
    text = DOMAIN_ERROR_TEXT.format(kernel=kernel, f="exp(t)").replace("lambda = 1", "lambda = 0.1")
    assert run(parse_problem(text)).report.converged
    assert seen == [{"difference_kernel": difference}]


# a warning from numpy would otherwise be printed to stderr above the error
@pytest.mark.filterwarnings("error")
def test_cli_rejects_forcing_whose_projection_overflows(tmp_path, capsys):
    # every sample of f is finite; only the projection's sum overflows
    problem = tmp_path / "overflow.prob"
    problem.write_text(
        "kind = fredholm\nlambda = 1\nkernel = 1\nf = 1.5e308\nm = 0\nn = 0\nr = 2\nq = 1\n"
    )
    code = main(["solve", str(problem)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"could not assemble {problem}: coefficient vector contains non-finite entries\n"
    )


OVERFLOWING_RESIDUAL_TEXT = """\
kind = fredholm
lambda = 0
kernel = 1
f = 1e300*t^5
m = 0
n = 0
r = 5
q = 1
exact = 1e300*t^5
"""


# the squared coefficients overflow although the scalar is 0; the run must
# stop with its own error line, not a numpy warning or a non-convergence
@pytest.mark.filterwarnings("error")
def test_cli_rejects_residual_that_overflows_at_the_start(tmp_path, capsys):
    problem = tmp_path / "overflow.prob"
    problem.write_text(OVERFLOWING_RESIDUAL_TEXT)
    code = main(["solve", str(problem)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"could not solve {problem}: the starting residual is not finite (max-norm nan)\n"
    )


# the residual is near overflow, about 1e300, on every Newton iterate, and
# the line search's dot products of it would overflow unless scaled; the
# Jacobian turns singular after a few steps, well short of the limit
NEAR_OVERFLOW_TEXT = """\
kind = fredholm
lambda = 1
kernel = 1
f = 1e150
m = 0
n = 0
r = 2
q = 1
"""


@pytest.mark.filterwarnings("error")
def test_cli_reports_the_iterations_newton_took_near_overflow(tmp_path, capsys):
    problem = tmp_path / "overflow.prob"
    problem.write_text(NEAR_OVERFLOW_TEXT)
    code = main(["solve", str(problem)])
    captured = capsys.readouterr()
    # the step at which the Jacobian turns singular and the residual's digits
    # move with rounding (after 2, 3 or 4 steps, 1.8e297 to 9.8e299); the
    # reason, the message's shape and the residual's exponent, 296 to 299, do not
    assert code == 1
    match = re.fullmatch(
        r"did not converge: Newton stopped \(singular Jacobian\) after \d+ of at most 100 "
        r"iteration\(s\), residual max-norm (\S+) > 1e-12\n",
        captured.err,
    )
    assert match is not None, captured.err
    assert 1e296 <= float(match.group(1)) < 1e300


BOUND_ESTIMATE_TEXT = """\
kind = fredholm
lambda = 0.5
kernel = exp(t - s)
f = exp(t) + 0.5*exp(t)*(exp(1) - 1)
m = 0
n = 1
ics = 1
r = 50
q = 1
exact = exp(t)
"""


# without M the bound comes from derivative_max at order r, whose stencil
# does not fit in [0, 1] for r >= 50; that ends the run with one error line
def test_cli_reports_a_failed_bound_estimate(tmp_path, capsys):
    problem = tmp_path / "bound.prob"
    problem.write_text(BOUND_ESTIMATE_TEXT)
    code = main(["solve", str(problem)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"could not bound the error of {problem}: "
        "step 0.01 is too large for order 50 on [0.0, 1.0]\n"
    )
    problem.write_text(BOUND_ESTIMATE_TEXT + "M = 3\n")
    assert main(["solve", str(problem)]) == 0


SPURIOUS_ROOT_TEXT = """\
kind = fredholm
lambda = {scalar}
kernel = 1
f = t^2 + 2*{scalar}
m = 1
n = 2
ics = 0, 0
r = 3
q = 2
exact = t^2
"""


@pytest.mark.parametrize(
    "scalar",
    [
        pytest.param(
            "1",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: Newton from Y = F converges to a second, "
                "spurious root with Y(0) = 0.0414 (grid error 4.1e-2)",
            ),
        ),
        "-3",
    ],
)
def test_solution_in_basis_span_is_recovered(scalar):
    # t^2 lies in the span at r = 3, so the intended root reproduces it to rounding
    output = run(parse_problem(SPURIOUS_ROOT_TEXT.format(scalar=scalar)))
    assert output.report.converged
    assert output.max_abs_error <= 1e-10


# ROADMAP item 1's second reproducer, with a smooth kernel at the fredholm-wide
# shape: the projection of exp(1.1 t) is near a root (grid error 1.6e-5), but
# Newton from Y = F converges to another root, with grid error 4.47
SMOOTH_KERNEL_SPURIOUS_ROOT_TEXT = """\
kind = fredholm
lambda = 1.3
kernel = cos(5*t*s)
f = exp(1.1*t) + 1.43*(exp(2.2)*(2.2*cos(5*t) + 5*t*sin(5*t)) - 2.2)/(4.84 + 25*t^2)
m = 0
n = 1
ics = 1
r = 3
q = 12
exact = exp(1.1*t)
"""


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: Newton from Y = F converges to a spurious root "
    "with y(0) = 2.61 (grid error 4.47)",
)
def test_smooth_kernel_solution_is_recovered():
    output = run(parse_problem(SMOOTH_KERNEL_SPURIOUS_ROOT_TEXT))
    assert output.report.converged
    assert output.max_abs_error <= 1e-4


# y = 1 lies in the basis span, but the kernel exp(-|t - s|) has a kink along
# t = s, which the tensor Gauss rule on each diagonal block does not resolve:
# the grid error is 1.5e-5 at (3, 4), 1.6e-6 at (3, 12) and 1.0e-7 at (3, 48),
# falling as q^-2 whatever r is
KINKED_KERNEL_TEXT = """\
kind = fredholm
lambda = 0.5
kernel = exp(-abs(t - s))
f = 1 + 0.5*(2 - exp(-t) - exp(t - 1))
m = 0
n = 0
r = 3
q = 12
exact = 1
"""


@pytest.mark.xfail(
    strict=True,
    reason="the tensor Gauss rule integrates a kernel's kink along t = s only to "
    "O(q^-2); a rule split along t = s would resolve it",
)
def test_kinked_kernel_solution_in_basis_span_is_recovered():
    output = run(parse_problem(KINKED_KERNEL_TEXT))
    assert output.report.converged
    assert output.max_abs_error <= 1e-12


# problem 410 of the benchmark's volterra-deep stream at seed 3: Newton from
# Y = F stalls at residual 1.19e-12, just above the default tol, where the
# residual's rounding floor lies
ROUNDING_FLOOR_VOLTERRA_TEXT = """\
kind = volterra
beta = 1.830216910980261
kernel = exp(t - s)
f = exp(1.2457104136399884*t) + 2.372212801588509*(exp(2.4914208272799767*t) - exp(t))
m = 1
n = 2
ics = 1, 1.2457104136399884
r = 12
q = 4
exact = exp(1.2457104136399884*t)
M = 48.530000813048126
"""

# a problem of the benchmark's fredholm-wide shape (r = 3, q = 12)
FREDHOLM_WIDE_TEXT = """\
kind = fredholm
lambda = 1.434352542334553
kernel = exp(t - s)
f = exp(1.1934295914085835*t) + 3.705686133122966*exp(t)
m = 0
n = 1
ics = 1
r = 3
q = 12
exact = exp(1.1934295914085835*t)
"""


def _halving_newton(system, tol=1e-12, max_iter=100):
    """Newton from Y = F that only halves its steps, without the exact line
    search: the oracle for the roots the line search must keep."""
    y = system.forcing.copy()
    res = residual(system, y)
    for _ in range(max_iter):
        norm = np.abs(res).max()
        if norm <= tol:
            break
        step = np.linalg.solve(_jacobian(system, y), -res)
        if np.abs(step).max() <= 64 * np.finfo(float).eps * np.abs(y).max():
            break
        for halvings in range(21):
            candidate = y + 0.5**halvings * step
            cand_res = residual(system, candidate)
            if np.abs(cand_res).max() < norm:
                break
        y, res = candidate, cand_res
    return y


def test_line_search_solves_a_rank_1_fredholm_problem_in_one_step():
    # exp(t - s) has rank 1, so the root lies on the Newton line from Y = F,
    # and one step with the line search lands on it.  That step is asserted
    # by its Y, not by the iteration count: its residual sits within a few
    # eps * max|R(F)| of tol, so rounding alone can make solve confirm it
    # with a second step.  Without the line search Newton takes 6.
    spec = parse_problem(FREDHOLM_WIDE_TEXT)
    output = run(spec)
    assert output.report.converged
    system = assemble(
        output.config,
        spec.kind,
        spec.scalar,
        lambda t, s: evaluate(spec.kernel, t, s),
        lambda t: evaluate(spec.forcing, t),
        spec.m,
        spec.n,
        spec.initial_conditions,
    )
    report = solve(system)
    assert report.converged
    assert report.iterations <= 2
    expected = _halving_newton(system)
    scale = np.abs(expected).max()
    one_step = solve(system, max_iter=1).Y
    for Y in (one_step, report.Y, output.report.Y):
        np.testing.assert_allclose(Y, expected, rtol=0, atol=1e-11 * scale)


def test_newton_stalled_at_rounding_floor_keeps_the_intended_root():
    output = run(parse_problem(ROUNDING_FLOOR_VOLTERRA_TEXT))
    assert output.report.converged
    assert output.max_abs_error <= 1e-10


@pytest.mark.parametrize(
    "text, limit",
    [(ROUNDING_FLOOR_VOLTERRA_TEXT, 1e-10), (FREDHOLM_WIDE_TEXT, 1e-4)],
    ids=["volterra-deep", "fredholm-wide"],
)
def test_tolerance_below_rounding_floor_still_converges(text, limit):
    # no residual reaches 1e-15; Newton stops once its step is at rounding level
    output = run(parse_problem(text), tol=1e-15)
    assert output.report.converged
    assert output.max_abs_error <= limit
