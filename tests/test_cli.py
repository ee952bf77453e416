import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import plasmeq
from plasmeq import cli, fields, flux
from plasmeq.cli import main


def data_path(name: str) -> str:
    return str(resources.files("plasmeq.data").joinpath(name))


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which is not JSON")


def read_report(out_dir: Path) -> dict:
    with open(out_dir / "report.json") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def run(tmp_path, sub, *argv):
    out = tmp_path / sub
    code = main(["--out", str(out), *argv])
    return code, out


def test_detsys_counts_and_listing(tmp_path):
    code, out = run(tmp_path, "d", "lie", "detsys", data_path("mhd_static.pde"))
    assert code == 0
    report = read_report(out)
    assert report["pass"] is True
    assert report["counts"]["count"] == 133
    assert report["counts"]["target"] == 133
    assert report["counts"]["matches_target"] is True
    lines = (out / "detsys.txt").read_text().splitlines()
    assert lines[0].startswith("# count=133")
    assert len(lines) == 134


# SHA-256 of the detsys.txt listings, pinned so that refactors of the
# symbolic half keep the determining systems byte for byte
DETSYS_SHA256 = {
    "mhd_static": "3dafe4ce2823f2740b854bd5749225cd9f5e36de42c48356412056978fe7aa11",
    "cgl_static": "802fc8f6decbe908b86e9220d765e6f4c75105e1125a5b3943f20315e10fdc38",
    "cgl_static_closed": "4a4e4ed9ef74cdc38b5d15a736296f5f1188b80859c13aa9787b5380728f3735",
}


@pytest.mark.parametrize("name", list(DETSYS_SHA256))
def test_detsys_listing_is_pinned(tmp_path, name):
    code, out = run(tmp_path, "d", "lie", "detsys", data_path(f"{name}.pde"))
    assert code == 0
    assert hashlib.sha256((out / "detsys.txt").read_bytes()).hexdigest() == DETSYS_SHA256[name]


# SHA-256 of report.json of `lie detsys` on each bundled system and of `lie
# verify` on the bundled generator files, run from a directory holding copies
# of the inputs so that the reports name bare file names
LIE_REPORT_SHA256 = {
    ("mhd_static.pde",): "17d4619beeba97d4d422496a01b26aa3ed7e7aeef4bf591eef52979fde575a71",
    ("cgl_static.pde",): "2772051d4add10ab6957c0d097c624f81915c50ac6f99e2eb34d9531eb57b9da",
    ("cgl_static_closed.pde",): "ba07023615837dd50586bf83773ff6516aa80c74dd2832cc2cb3bd7bf29d62a0",
    ("mhd_static.pde", "mhd_translations.gen"): "0d009767dd30956d533acb62fcc8e3f0c9039cc26edd76607907521916ca5e05",
    ("mhd_static.pde", "mhd_rotations.gen"): "bdb3c9f38065696b20c75455ae7572c2d0f93bff8106b430aca346a58a47fd0f",
    ("mhd_static.pde", "mhd_scalings.gen"): "5ca31a18d3e6414ce696d712a98e26e127bae97e71656c9c7a9d8d1a7ab2e8e6",
    ("mhd_static.pde", "mhd_bogus.gen"): "8f3bf15ef9a17b09fdeea7024dac8c7bc7aa1bb6a1797dbb229ecab190b8ca9a",
    ("cgl_static_closed.pde", "cgl_line_function.gen"): "09b336321ac8c283a24148c49bb73c2db18be35dc582b69ec0f463cc9d3f3343",
    ("cgl_static.pde", "cgl_line_function.gen"): "9ee3bacc8d0954b6dbb52a82464fa6b94691204b49cf792bf3708a0a57294d7e",
}


@pytest.mark.parametrize("files", list(LIE_REPORT_SHA256), ids="+".join)
def test_lie_reports_are_pinned(tmp_path, monkeypatch, files):
    for name in files:
        shutil.copy(data_path(name), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    command = "detsys" if len(files) == 1 else "verify"
    code = main(["--out", "out", "lie", command, *files])
    assert code == (3 if "mhd_bogus.gen" in files else 0)
    assert hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest() == LIE_REPORT_SHA256[files]


def test_detsys_open_anisotropic_count(tmp_path):
    code, out = run(tmp_path, "d", "lie", "detsys", data_path("cgl_static.pde"))
    assert code == 0
    report = read_report(out)
    assert report["counts"]["count"] == 253
    assert report["counts"]["matches_target"] is True


def test_detsys_reports_count_deviation(tmp_path):
    code, out = run(tmp_path, "d", "lie", "detsys", data_path("cgl_static_closed.pde"))
    assert code == 0
    report = read_report(out)
    # the obtained and published counts differ for this system; both must
    # appear in the report and the run still passes (counts are soft)
    assert report["counts"]["count"] == 227
    assert report["counts"]["target"] == 199
    assert report["counts"]["matches_target"] is False
    assert report["pass"] is True
    assert report["assumptions"] == ["B1 != 0"]


def test_verify_accepts_known_generators(tmp_path):
    for gen in ("mhd_translations.gen", "mhd_rotations.gen", "mhd_scalings.gen"):
        code, out = run(tmp_path, gen, "lie", "verify", data_path("mhd_static.pde"), data_path(gen))
        assert code == 0
        assert read_report(out)["pass"] is True


def test_verify_line_function_on_closed_system(tmp_path):
    code, out = run(
        tmp_path, "v", "lie", "verify", data_path("cgl_static_closed.pde"), data_path("cgl_line_function.gen")
    )
    assert code == 0
    assert read_report(out)["counts"]["nonzero_residuals"] == 0


def test_verify_rejects_bogus_generator(tmp_path):
    code, out = run(tmp_path, "v", "lie", "verify", data_path("mhd_static.pde"), data_path("mhd_bogus.gen"))
    assert code == 3
    report = read_report(out)
    assert report["pass"] is False
    assert report["counts"]["nonzero_residuals"] >= 1


def test_verify_report_counts_source_equations(tmp_path):
    code, out = run(
        tmp_path, "v", "lie", "verify", data_path("cgl_static_closed.pde"), data_path("cgl_line_function.gen")
    )
    assert code == 0
    report = read_report(out)
    assert report["counts"] == {"source_equations": 5, "nonzero_residuals": 0}
    assert report["assumptions"] == ["B1 != 0"]


def test_verify_undeclared_component_is_validation_error(tmp_path):
    gen = tmp_path / "undeclared.gen"
    gen.write_text("xi(q) = 1;\n")
    code, out = run(tmp_path, "v", "lie", "verify", data_path("mhd_static.pde"), str(gen))
    assert code == 2
    report = read_report(out)
    assert report["pass"] is False
    assert report["error"] == "xi(q): undeclared variable 'q'"


def test_vortex_transform_check_pipeline(tmp_path):
    code, vortex_out = run(tmp_path, "vortex", "vortex", "--R", "1", "--n", "3", "--grid", "33")
    assert code == 0
    state_csv = vortex_out / "state.csv"
    assert state_csv.exists()

    code, check_out = run(
        tmp_path, "check0", "check", "--state", str(state_csv), "--system", "mhd", "--mask-sphere", "1.0"
    )
    assert code == 0
    assert read_report(check_out)["pass"] is True

    code, trans_out = run(
        tmp_path, "trans", "transform", "--state", str(state_csv), "--M", "1 + psi*sin(psi)"
    )
    assert code == 0
    transformed = trans_out / "transformed.csv"

    for system in ("cgl", "alt"):
        code, check_out = run(
            tmp_path,
            f"check_{system}",
            "check",
            "--state",
            str(transformed),
            "--system",
            system,
            "--mask-sphere",
            "1.0",
            "--stability",
        )
        assert code == 0
        report = read_report(check_out)
        assert report["pass"] is True
        assert report["stability"]["counts"]["fire_hose_unstable"] == 0


def test_identity_transform_yields_byte_identical_values(tmp_path):
    _, vortex_out = run(tmp_path, "vortex", "vortex", "--grid", "17")
    code, trans_out = run(
        tmp_path, "trans", "transform", "--state", str(vortex_out / "state.csv"), "--M", "1"
    )
    assert code == 0
    assert (vortex_out / "state.csv").read_bytes() == (trans_out / "transformed.csv").read_bytes()


def _box_state(tmp_path, counts):
    problem, _ = flux.parse_problem_file(Path(data_path("flux_axisym_example.flux")).read_text())
    grid = flux.default_cartesian_box(problem, counts)
    path = tmp_path / "box.csv"
    fields.write_csv(path, dict(zip("xyz", grid.axes())), {"psi": np.full(grid.counts, 0.5)})
    return path


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp: run(tmp, "v", "vortex", "--grid", "33", "--extent", "1.3")[1] / "state.csv",
        lambda tmp: run(tmp, "v", "vortex", "--grid", "65", "--extent", "0.9")[1] / "state.csv",
        lambda tmp: _box_state(tmp, 33),
        lambda tmp: _box_state(tmp, (21, 17, 29)),
    ],
    ids=["vortex-33", "vortex-65", "box-33", "box-21x17x29"],
)
def test_state_csv_round_trips_byte_identically(tmp_path, make):
    first = make(tmp_path)
    axes, columns = fields.read_csv(first, ("x", "y", "z"))
    grid = fields.Grid3.from_axes(*axes)
    again = tmp_path / "again.csv"
    fields.write_csv(again, dict(zip("xyz", grid.axes())), columns)
    assert first.read_bytes() == again.read_bytes()


def test_reports_are_deterministic(tmp_path):
    _, out1 = run(tmp_path, "a", "lie", "detsys", data_path("mhd_static.pde"))
    _, out2 = run(tmp_path, "b", "lie", "detsys", data_path("mhd_static.pde"))
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "detsys.txt").read_bytes() == (out2 / "detsys.txt").read_bytes()


def test_flux_pipeline(tmp_path):
    code, sol_out = run(tmp_path, "sol", "flux", "solve", data_path("flux_axisym_example.flux"))
    assert code == 0
    report = read_report(sol_out)
    assert report["pass"] is True
    assert report["norms"]["final_update"] < 1e-10
    assert report["norms"]["updates"][-1] == report["norms"]["final_update"]
    assert len(report["norms"]["updates"]) == report["counts"]["iterations"]

    code, state_out = run(
        tmp_path, "state", "flux", "tocgl", str(sol_out / "solution.json"), "--tau", "psi/2.6", "--grid", "17"
    )
    assert code == 0

    code, check_out = run(
        tmp_path, "check", "check", "--state", str(state_out / "state.csv"), "--system", "cgl"
    )
    assert code == 0
    # div B and tau's advection are rounding on both grids: no ratio
    ratios = read_report(check_out)["convergence_ratios"]
    assert ratios["div_b"] is None and ratios["tau_advection"] is None
    assert isinstance(ratios["momentum"], float)


def test_helical_flux_pipeline(tmp_path):
    code, sol_out = run(tmp_path, "sol", "flux", "solve", data_path("flux_helical_example.flux"))
    assert code == 0
    assert read_report(sol_out)["pass"] is True

    code, state_out = run(
        tmp_path, "state", "flux", "tocgl", str(sol_out / "solution.json"), "--tau", "0.2", "--grid", "17"
    )
    assert code == 0

    code, check_out = run(
        tmp_path, "check", "check", "--state", str(state_out / "state.csv"), "--system", "cgl"
    )
    assert code == 0
    assert read_report(check_out)["pass"] is True


# Runs ``plasmeq.cli.main`` on the argv given in a fresh interpreter (no
# call for an empty argv), then imports the modules named, and prints as
# the last line of stdout the exit code and the plasmeq, numpy and scipy
# modules loaded, as JSON.
PROBE_SCRIPT = """
import json, sys

import plasmeq.cli

argv, imports = json.loads(sys.argv[1])
code = plasmeq.cli.main(argv) if argv else 0
for name in imports:
    __import__(name)
loaded = sorted(sys.modules)
print(json.dumps({
    "code": code,
    "plasmeq": [m for m in loaded if m.startswith("plasmeq.")],
    "numpy": "numpy" in loaded,
    "scipy": [m for m in loaded if m.split(".")[0] == "scipy"],
}))
"""


def probe(argv, imports=()):
    """(exit code, stderr, modules loaded) of one fresh-interpreter run."""
    env = dict(os.environ, PYTHONPATH=str(Path(plasmeq.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_SCRIPT, json.dumps([argv, list(imports)])],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return loaded.pop("code"), proc.stderr, loaded


@pytest.fixture(scope="module")
def probe_inputs(tmp_path_factory):
    """A 9^3 vortex state and a flux solution, the inputs of the probed
    commands that read one."""
    out = tmp_path_factory.mktemp("probe-inputs")
    assert main(["--out", str(out / "vortex"), "vortex", "--grid", "9"]) == 0
    assert main(["--out", str(out / "solve"), "flux", "solve", data_path("flux_axisym_example.flux")]) == 0
    (out / "empty.pde").write_text("")
    return out


# each command's argv (given the probe inputs), the plasmeq modules besides
# cli it loads, and whether it loads numpy
COMMAND_MODULES = {
    "import": (lambda d: [], set(), False),
    "lie detsys": (lambda d: ["lie", "detsys", data_path("mhd_static.pde")], {"expr", "lie"}, False),
    "lie verify": (
        lambda d: ["lie", "verify", data_path("mhd_static.pde"), data_path("mhd_rotations.gen")],
        {"expr", "lie"},
        False,
    ),
    "vortex": (lambda d: ["vortex", "--grid", "9"], {"equilibria", "fields"}, True),
    "check": (
        lambda d: ["check", "--state", str(d / "vortex" / "state.csv"), "--system", "mhd"],
        {"equilibria", "fields"},
        True,
    ),
    "transform": (
        lambda d: ["transform", "--state", str(d / "vortex" / "state.csv"), "--M", "1 + 0.5*psi"],
        {"equilibria", "fields", "expr"},
        True,
    ),
    "flux solve": (
        lambda d: ["flux", "solve", data_path("flux_axisym_example.flux")], {"flux", "fields", "expr"}, True
    ),
    "flux tocgl": (
        lambda d: ["flux", "tocgl", str(d / "solve" / "solution.json"), "--tau", "psi/2.6", "--grid", "9"],
        {"flux", "fields", "expr", "equilibria"},
        True,
    ),
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_what_it_runs(tmp_path, probe_inputs, command):
    argv, modules, numpy_loaded = COMMAND_MODULES[command]
    argv = argv(probe_inputs)
    code, _, loaded = probe(["--out", str(tmp_path), *argv] if argv else [])
    assert code == 0
    assert loaded["plasmeq"] == sorted(f"plasmeq.{name}" for name in {"cli", *modules})
    assert loaded["numpy"] is numpy_loaded
    # no command imports scipy
    assert loaded["scipy"] == []


def test_the_startup_probe_sees_scipy_once_imported():
    _, _, loaded = probe([], imports=["scipy.sparse"])
    assert "scipy.sparse" in loaded["scipy"]


# errors raised by the symbolic kernel, which cli imports only on the error
# path: a fresh interpreter meets them with the kernel not yet loaded
LAZY_ERRORS = {
    "transform magnitude that ends early": (
        lambda d: ["transform", "--state", str(d / "vortex" / "state.csv"), "--M", "psi+"],
        "expected a value, found 'end of input' (line 1, column 5)",
    ),
    "tocgl tau with a missing exponent": (
        lambda d: ["flux", "tocgl", str(d / "solve" / "solution.json"), "--tau", "psi^"],
        "exponent must be an integer literal (line 1, column 5)",
    ),
    "detsys of an empty file": (lambda d: ["lie", "detsys", str(d / "empty.pde")], "system declares no equations"),
}


@pytest.mark.parametrize("case", list(LAZY_ERRORS))
def test_lazily_imported_errors_exit_two(tmp_path, probe_inputs, case):
    argv, message = LAZY_ERRORS[case]
    code, err, _ = probe(["--out", str(tmp_path), *argv(probe_inputs)])
    assert code == 2
    assert err == f"error: {message}\n"
    report = read_report(tmp_path)
    assert report["error"] == message
    assert report["pass"] is False


def test_lie_commands_call_the_kernel_names_rebound_on_cli(tmp_path, monkeypatch):
    # a tracer or an injected fault re-binds the kernel functions on cli
    calls = []
    build = cli.build_determining_system

    def counted(system):
        calls.append(system)
        return build(system)

    monkeypatch.setattr(cli, "build_determining_system", counted)
    code, _ = run(tmp_path, "det", "lie", "detsys", data_path("mhd_static.pde"))
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "raised, message",
    [
        (
            MemoryError("Unable to allocate 59.6 TiB for an array with shape (200000, 200000, 200000)"),
            "Unable to allocate 59.6 TiB for an array with shape (200000, 200000, 200000)",
        ),
        (MemoryError(), "out of memory"),
    ],
    ids=["numpy-message", "bare"],
)
def test_memory_error_exits_two_without_a_traceback(tmp_path, capsys, monkeypatch, raised, message):
    def exhausted(args):
        raise raised

    # the parser binds the handler by its module-level name when main runs
    monkeypatch.setattr(cli, "cmd_vortex", exhausted)
    code, out = run(tmp_path, "oom", "vortex", "--grid", "9")
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert read_report(out) == {"command": "vortex", "error": message, "assumptions": [], "pass": False}


def test_check_absolute_threshold_failure(tmp_path):
    _, vortex_out = run(tmp_path, "vortex", "vortex", "--grid", "17")
    code, check_out = run(
        tmp_path,
        "check",
        "check",
        "--state",
        str(vortex_out / "state.csv"),
        "--system",
        "mhd",
        "--threshold",
        "1e-12",
    )
    assert code == 3
    assert read_report(check_out)["pass"] is False


def test_check_even_grid_needs_threshold(tmp_path):
    _, vortex_out = run(tmp_path, "vortex", "vortex", "--grid", "16")
    code, check_out = run(
        tmp_path, "check", "check", "--state", str(vortex_out / "state.csv"), "--system", "mhd"
    )
    assert code == 2
    assert read_report(check_out)["pass"] is False


def test_unreadable_file_is_validation_error(tmp_path):
    code, out = run(tmp_path, "x", "lie", "detsys", str(tmp_path / "missing.pde"))
    assert code == 2
    report = read_report(out)
    assert report["pass"] is False
    assert "missing.pde" in report["error"]


def test_transform_with_vanishing_magnitude_fails_validation(tmp_path):
    _, vortex_out = run(tmp_path, "vortex", "vortex", "--grid", "17")
    code, out = run(
        tmp_path, "t", "transform", "--state", str(vortex_out / "state.csv"), "--M", "psi - 0.99",
        "--m-min", "0.05",
    )
    assert code == 2
    assert read_report(out)["pass"] is False


def _solution(tmp_path, drop=None, rows=None, profile=None):
    """Solve the bundled axisymmetric problem, with its ``dN = -2`` line
    replaced by ``profile`` if given; optionally drop a manifest key, or
    pass the psi.csv data rows through ``rows``."""
    problem_file = data_path("flux_axisym_example.flux")
    if profile is not None:
        text = Path(problem_file).read_text()
        assert "\ndN = -2\n" in text
        problem_file = _file(tmp_path, "problem.flux", text.replace("\ndN = -2\n", f"\n{profile}\n"))
    code, sol_out = run(tmp_path, "sol", "flux", "solve", problem_file)
    assert code == 0
    path = sol_out / "solution.json"
    if drop is not None:
        manifest = json.loads(path.read_text())
        del manifest[drop]
        path.write_text(json.dumps(manifest))
    if rows is not None:
        _edit_rows(sol_out / "psi.csv", rows)
    return str(path)


def _solution_with(tmp_path, **changes):
    """The bundled axisymmetric solution with manifest entries replaced."""
    path = Path(_solution(tmp_path))
    manifest = json.loads(path.read_text())
    manifest.update(changes)
    path.write_text(json.dumps(manifest))
    return str(path)


def _edit_rows(path, rows):
    """Pass the data rows of a CSV file through ``rows``, keeping its header."""
    header, *lines = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(rows(lines)))


def _shuffled(lines):
    random.Random(1).shuffle(lines)
    return lines


def _second_r_moved(lines):
    """Move the second r value halfway to the third: a full, ordered but
    non-uniform tensor grid."""
    r = sorted({float(line.split(",")[0]) for line in lines})
    moved = repr((r[1] + r[2]) / 2)
    return [moved + line[line.index(",") :] if float(line.split(",")[0]) == r[1] else line for line in lines]


def _set_value(lines, row, column, text):
    """Put ``text`` into one cell of the data rows (both counted from 0)."""
    cells = lines[row].rstrip("\n").split(",")
    cells[column] = text
    lines[row] = ",".join(cells) + "\n"
    return lines


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _flux_file(tmp_path, profiles):
    return _file(tmp_path, "problem.flux", f"r0 = 0.5\nr1 = 1.5\nzu0 = -0.5\nzu1 = 0.5\nnr = 9\nnzu = 9\n{profiles}\n")


def _state(tmp_path, grid=9, rows=None):
    _, out = run(tmp_path, "vortex", "vortex", "--grid", str(grid))
    if rows is not None:
        _edit_rows(out / "state.csv", rows)
    return str(out / "state.csv")


def _out_is_a_file(tmp_path):
    (tmp_path / "bad").write_text("a file, not a directory\n")
    return ["vortex", "--grid", "9"]


UNKNOWN_PDE = "indep x, y;\ndep u;\n{}\neq diff(u,x) = 0;\n"


STATE_HEADER = "x,y,z,B1,B2,B3,p_perp,p_par,tau,psi\n"

# case -> (argv builder, fragment of the error message)
BAD_INPUTS = {
    "vortex grid of one node": (lambda tmp: ["vortex", "--grid", "1"], "at least 2 nodes"),
    "tocgl grid of one node": (
        lambda tmp: ["flux", "tocgl", _solution(tmp), "--tau", "0.1", "--grid", "1"],
        "at least 2 nodes",
    ),
    "division by zero in M": (
        lambda tmp: ["transform", "--state", _state(tmp), "--M", "psi/0"],
        "division by zero",
    ),
    "division by zero in a flux file": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\ndN = 1/0")],
        "division by zero",
    ),
    "division by zero in a PDE file": (
        lambda tmp: ["lie", "detsys", _file(tmp, "div.pde", "indep x;\ndep u;\neq diff(u,x) = 1/0;\n")],
        "division by zero",
    ),
    "non-finite profile": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = -1\ndN = log(psi)")],
        "non-finite",
    ),
    "mode index out of reach": (lambda tmp: ["vortex", "--n", "100000", "--grid", "9"], "mode index 100000"),
    "solution without r0": (
        lambda tmp: ["flux", "tocgl", _solution(tmp, drop="r0"), "--tau", "0.1"],
        "missing r0",
    ),
    "solution rows out of order": (
        lambda tmp: ["flux", "tocgl", _solution(tmp, rows=_shuffled), "--tau", "0.1"],
        "psi.csv: rows are not in row-major zu-fastest order",
    ),
    "solution with a header only": (
        lambda tmp: ["flux", "tocgl", _solution(tmp, rows=lambda lines: []), "--tau", "0.1"],
        "psi.csv: no data rows",
    ),
    "solution rows of two columns": (
        lambda tmp: [
            "flux", "tocgl", _solution(tmp, rows=lambda lines: [",".join(line.split(",")[:2]) + "\n" for line in lines]),
            "--tau", "0.1",
        ],
        "psi.csv: data rows have 2 columns, the header has 3",
    ),
    "solution on a non-uniform r axis": (
        lambda tmp: ["flux", "tocgl", _solution(tmp, rows=_second_r_moved), "--tau", "0.1"],
        "psi.csv: r coordinates are not uniformly spaced",
    ),
    "solution with a nan": (
        lambda tmp: ["flux", "tocgl", _solution(tmp, rows=lambda lines: _set_value(lines, 40, 2, "nan")), "--tau", "0.1"],
        "psi.csv: holds a non-finite psi (nan) in data row 41",
    ),
    "transform by an undefined M": (
        lambda tmp: ["transform", "--state", _state(tmp, grid=17), "--M", "log(psi - 2)"],
        "M = log(psi - 2) is undefined (NaN) at psi = ",
    ),
    "pressure profile undefined on the padded flux range": (
        lambda tmp: [
            "flux", "tocgl", _solution(tmp, profile="dN = -2 + 0.001*sqrt(psi)"), "--tau", "0.1", "--grid", "9",
        ],
        "dN is not finite at psi = -0.0",
    ),
    "transform to non-finite values": (
        lambda tmp: ["transform", "--state", _state(tmp, grid=17), "--M", "exp(1000*psi)"],
        "M = exp(1000*psi) is infinite at psi = ",
    ),
    "state with an inf": (
        lambda tmp: [
            "check", "--state", _state(tmp, rows=lambda lines: _set_value(lines, 4, 3, "inf")), "--system", "cgl",
        ],
        "state.csv: holds a non-finite B1 (inf) in data row 5",
    ),
    "--out names an existing file": (_out_is_a_file, "cannot create output directory"),
    "unknown arguments joined by an operator": (
        lambda tmp: ["lie", "detsys", _file(tmp, "u.pde", UNKNOWN_PDE.format("unknown f(x + 3 u);"))],
        "malformed unknown declaration (line 3, column 1)",
    ),
    "unknown arguments with an empty slot": (
        lambda tmp: ["lie", "detsys", _file(tmp, "u.pde", UNKNOWN_PDE.format("unknown f(x,, y u);"))],
        "malformed unknown declaration (line 3, column 1)",
    ),
    "generator statement without ';'": (
        lambda tmp: ["lie", "verify", data_path("mhd_static.pde"), _file(tmp, "g.gen", "param a\nxi(x) = 1;\n")],
        "malformed param declaration (line 1, column 1)",
    ),
    "generator error on line 2": (
        lambda tmp: ["lie", "verify", data_path("mhd_static.pde"), _file(tmp, "g.gen", "xi(x) = 1;\neta(B1) = 2*;\n")],
        "(line 2, column 12)",
    ),
    "generator component assigned twice": (
        lambda tmp: ["lie", "verify", data_path("mhd_static.pde"), _file(tmp, "g.gen", "xi(x) = 1; xi(x) = 2;\n")],
        "xi(x) is assigned twice (line 1, column 12)",
    ),
    "empty equation side in a PDE file": (
        lambda tmp: [
            "lie", "detsys", _file(tmp, "empty.pde", "indep x;\ndep u;\nsolve_for: diff(u,x);\neq = diff(u,x);\n"),
        ],
        "empty expression (line 4, column 4)",
    ),
    "state with no data rows": (
        lambda tmp: ["check", "--state", _file(tmp, "empty.csv", STATE_HEADER), "--system", "mhd"],
        "empty.csv: no data rows",
    ),
    "state rows shorter than the header": (
        lambda tmp: [
            "transform", "--state", _file(tmp, "short.csv", STATE_HEADER + "0,0,0,1,0,0\n0,0,1,1,0,0\n"), "--M", "1",
        ],
        "short.csv: data rows have 6 columns, the header has 10",
    ),
    "iteration cap of zero": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nmax_iter = 0")],
        "iteration cap must be at least 1, got 0",
    ),
    "fractional iteration cap": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nmax_iter = 9.5")],
        "problem file: max_iter is not an integer: '9.5'",
    ),
    "tolerance of zero": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\ntol = 0")],
        "tolerance must be a positive finite number, got 0.0",
    ),
    "tolerance of nan": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\ntol = nan")],
        "problem file: tol must be finite, got nan",
    ),
    "pitch length of nan": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "geometry = helical\nboundary = r\ngamma = nan")],
        "problem file: gamma must be finite, got nan",
    ),
    "solution with an infinite r1": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, r1=math.inf), "--tau", "0.1"],
        "solution manifest: r1 must be finite, got inf",
    ),
    "solution with a list of profiles": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, profiles=["boundary"]), "--tau", "0.1"],
        "solution manifest profiles must map names to expressions",
    ),
    "solution with a number for its resolution": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, resolution=5), "--tau", "0.1"],
        "solution manifest: resolution must be two integers, got 5",
    ),
    "solution with a fractional resolution": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, resolution=[33, 33.5]), "--tau", "0.1"],
        "solution manifest: resolution must be two integers, got [33, 33.5]",
    ),
    "solution with a negative iteration count": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, iterations=-1), "--tau", "0.1"],
        "solution manifest: iterations must be a positive integer, got -1",
    ),
    "solution with a text final update": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, final_update="small"), "--tau", "0.1"],
        "solution manifest: final_update must be a finite number, got 'small'",
    ),
    "solution with a nan final update": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, final_update=math.nan), "--tau", "0.1"],
        "solution manifest: final_update must be a finite number, got nan",
    ),
    "solution with a final update beyond the float range": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, final_update=10**400), "--tau", "0.1"],
        "solution manifest: final_update must be a finite number, got 1000",
    ),
    "solution with a text convergence flag": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, converged="yes"), "--tau", "0.1"],
        "solution manifest: converged must be true or false, got 'yes'",
    ),
    "solution with an infinite update": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, updates=[1.0, math.inf]), "--tau", "0.1"],
        "solution manifest: updates must be a list of finite numbers, got [1.0, inf]",
    ),
    "solution with updates that miss iterations": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, updates=[1e-11]), "--tau", "0.1"],
        "solution manifest: updates must hold one entry per iteration, the last equal to final_update",
    ),
    "solution whose psi.csv misses the recorded domain": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, r1=4.5, zu1=5.5), "--tau", "0.1"],
        "psi.csv: r runs over [0.5, 1.5], not over the domain [0.5, 4.5] that solution.json records",
    ),
    "tau undefined on the attained flux range": (
        lambda tmp: ["flux", "tocgl", _solution(tmp), "--tau", "log(psi - 0.5)"],
        "tau = log(psi - 0.5) is undefined (NaN) at psi = 0.015625",
    ),
    "axisymmetric flux file with a pitch length": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "geometry = axisymmetric\ngamma = 0.7\nboundary = r")],
        "and agree with gamma = 0.7",
    ),
    "check threshold below zero": (
        lambda tmp: ["check", "--state", _state(tmp), "--system", "mhd", "--threshold", "-1"],
        "--threshold must not be negative, got -1.0",
    ),
    "check threshold of nan": (
        lambda tmp: ["check", "--state", _state(tmp), "--system", "mhd", "--threshold", "nan"],
        "--threshold must be a finite number, got nan",
    ),
    "vortex radius of inf": (lambda tmp: ["vortex", "--R", "inf", "--grid", "9"], "--R must be a finite number, got inf"),
    "transform floor of nan": (
        lambda tmp: ["transform", "--state", _state(tmp), "--M", "1", "--m-min", "nan"],
        "--m-min must be a finite number, got nan",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_two_with_an_error(tmp_path, capsys, case):
    build, message = BAD_INPUTS[case]
    argv = build(tmp_path)
    capsys.readouterr()
    code, out = run(tmp_path, "bad", *argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    if out.is_file():
        # --out names a file: it stays as it was and no report can be written
        assert out.read_text() == "a file, not a directory\n"
        return
    report = read_report(out)
    assert report["pass"] is False
    assert message in report["error"]
    # the report names the full subcommand, as a successful run's does
    assert report["command"] == " ".join(argv[:2] if argv[0] in ("lie", "flux") else argv[:1])
    # a failed command leaves its report and nothing else
    assert [p.name for p in out.iterdir()] == ["report.json"]


def test_unknown_subcommand_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "frobnicate"])
    assert exc.value.code == 2


def test_vtk_artifact(tmp_path):
    code, out = run(tmp_path, "v", "vortex", "--grid", "9", "--vtk")
    assert code == 0
    text = (out / "state.vtk").read_text().splitlines()
    assert text[4] == "DIMENSIONS 9 9 9"


def _uniform_state(tmp_path, b):
    """A 9^3 state with the constant field ``b``, unit pressures and tau 0:
    every residual vanishes exactly."""
    grid = fields.Grid3.cube(-1.0, 1.0, 9)
    const = lambda v: np.full(grid.counts, float(v))
    columns = dict(zip(("B1", "B2", "B3"), map(const, b)))
    columns.update(p_perp=const(1), p_par=const(1), tau=const(0), psi=const(0))
    path = tmp_path / "uniform.csv"
    fields.write_csv(path, dict(zip("xyz", grid.axes())), columns)
    return str(path)


@pytest.mark.parametrize("half_width", [0.7, 1.2, 1.3])
@pytest.mark.parametrize("n", [17, 21, 25, 33, 41, 65])
def test_check_passes_an_exact_rigid_rotation(tmp_path, n, half_width):
    # B = (-0.37 y, 0.37 x, 0.91) balances p = 2.3 - 0.1369 (x^2 + y^2), and
    # central differences are exact on both: every residual is rounding
    # noise on both grids of the two-grid probe
    grid = fields.Grid3.cube(-half_width, half_width, n)
    X, Y, _ = grid.meshgrid()
    p = 2.3 - 0.1369 * (X**2 + Y**2)
    columns = dict(B1=-0.37 * Y, B2=0.37 * X, B3=np.full(grid.counts, 0.91), p_perp=p, p_par=p)
    columns.update(tau=np.zeros(grid.counts), psi=p / 2.3)
    path = tmp_path / "rigid.csv"
    fields.write_csv(path, dict(zip("xyz", grid.axes())), columns)
    code, out = run(tmp_path, "c", "check", "--state", str(path), "--system", "cgl")
    assert code == 0
    report = read_report(out)
    assert max(entry["linf"] for entry in report["norms"].values()) < report["params"]["noise_floor"]
    assert all(ratio is None for ratio in report["convergence_ratios"].values())


@pytest.mark.parametrize("b", [(1.0, 0.0, 0.0), (0.0, 0.0, 0.0)], ids=["uniform field", "field-free"])
def test_stability_check_of_a_balanced_state_writes_strict_json(tmp_path, b):
    code, out = run(tmp_path, "c", "check", "--state", _uniform_state(tmp_path, b), "--system", "cgl", "--stability")
    assert code == 0
    report = read_report(out)
    assert report["pass"] is True
    # no fine residual to divide by: no ratio
    assert report["convergence_ratios"] == {"div_b": None, "momentum": None, "tau_advection": None}
    margins = report["stability"]["margins"]
    if any(b):
        assert margins["fire_hose"] == -1.0
    else:
        # no node is applicable: no margin
        assert margins == {"fire_hose": None, "mirror": None}


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["transform", "--state", _state(tmp, grid=17), "--M", "exp(1000*psi)"],
        lambda tmp: ["vortex", "--R", "1e-300", "--grid", "9"],
    ],
    ids=["transform to overflow", "vortex of a tiny radius"],
)
def test_numpy_warnings_stay_off_stderr(tmp_path, capsys, argv):
    argv = argv(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "bad", *argv)
    assert code == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_iteration_cap_warning_is_one_line_on_stderr_and_in_the_report(tmp_path, capsys):
    problem = _flux_file(tmp_path, "boundary = 0.25*r^4\ndN = -2\nmax_iter = 3")
    capsys.readouterr()
    code, out = run(tmp_path, "sol", "flux", "solve", problem)
    assert code == 3
    warning = "flux solve stopped at the iteration cap (3) with update "
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"warning: {warning}")
    (note,) = read_report(out)["warnings"]
    assert err[0] == f"warning: {note}"


@pytest.mark.parametrize(
    "argv",
    [["transform", "--M", "2"], ["check", "--system", "cgl"]],
    ids=["transform", "check"],
)
def test_tau_mismatch_warning_is_one_line_on_stderr_and_in_the_report(tmp_path, capsys, argv):
    state = Path(_state(tmp_path))
    tau = state.read_text().split("\n", 1)[0].split(",").index("tau")

    def disagreeing_tau(lines):
        # every tau replaced by 0.3, which (p_par - p_perp)/B^2 is not
        for line in lines:
            values = line.rstrip("\n").split(",")
            values[tau] = "0.3"
            yield ",".join(values) + "\n"

    _edit_rows(state, disagreeing_tau)
    capsys.readouterr()
    code, out = run(tmp_path, "out", *argv, "--state", str(state))
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: {state}: tau column disagrees with (p_par - p_perp)/B^2 (scaled mismatch 3.00e-01)"]
    assert read_report(out)["warnings"] == [err[0].removeprefix("warning: ")]


def test_report_has_no_warnings_key_without_warnings(tmp_path, capsys):
    code, out = run(tmp_path, "sol", "flux", "solve", data_path("flux_axisym_example.flux"))
    assert code == 0
    assert "warnings" not in read_report(out)
    assert capsys.readouterr().err == ""


def test_number_profile_round_trips_as_decimal_text(tmp_path):
    problem = flux.FluxProblem(
        (0.5, 1.5), (-0.5, 0.5), boundary="0.25*r^4", dN=np.float64(-2.0)
    )
    flux.write_solution(flux.solve_flux(problem, (17, 17)), tmp_path / "sol")
    manifest = json.loads((tmp_path / "sol" / "solution.json").read_text())
    assert manifest["profiles"]["dN"] == "-2.0"
    back = flux.load_solution(tmp_path / "sol" / "solution.json")
    assert back.problem.texts == problem.texts
    code, _ = run(tmp_path, "state", "flux", "tocgl", str(tmp_path / "sol" / "solution.json"), "--tau", "0.1", "--grid", "9")
    assert code == 0


def _spiked_state(tmp_path, node):
    """An 11^3 state with a uniform field and p = 0.1 z plus a unit spike at
    ``node``: the momentum residual -grad p peaks one node below it in z."""
    grid = fields.Grid3.cube(-1.0, 1.0, 11)
    p = 0.1 * grid.meshgrid()[2]
    p[node] += 1.0
    zero = np.zeros(grid.counts)
    columns = {"B1": zero, "B2": zero, "B3": zero + 1.0, "p_perp": p, "p_par": p, "tau": zero, "psi": zero}
    path = tmp_path / "spiked.csv"
    fields.write_csv(path, dict(zip("xyz", grid.axes())), columns)
    return str(path), grid


@pytest.mark.parametrize("mask", [[], ["--mask-sphere", "1.6"]], ids=["whole grid", "masked"])
def test_check_reports_the_node_of_the_worst_residual(tmp_path, capsys, mask):
    path, grid = _spiked_state(tmp_path, (6, 4, 6))
    capsys.readouterr()
    code, out = run(tmp_path, "c", "check", "--state", path, "--system", "mhd", "--threshold", "100", *mask)
    assert code == 0
    report = read_report(out)
    xyz = [float(c[i]) for c, i in zip(grid.axes(), (6, 4, 5))]
    assert report["worst"] == {
        "residual": "momentum",
        "linf": report["norms"]["momentum"]["linf"],
        "node": [6, 4, 5],
        "xyz": xyz,
    }
    assert all(isinstance(i, int) for i in report["norms"]["momentum"]["node"])
    line = capsys.readouterr().out
    assert "momentum at node (6, 4, 5)" in line
    assert f"(x, y, z) = ({xyz[0]:.6g}, {xyz[1]:.6g}, {xyz[2]:.6g})" in line
    code, again = run(tmp_path, "c2", "check", "--state", path, "--system", "mhd", "--threshold", "100", *mask)
    assert (out / "report.json").read_bytes() == (again / "report.json").read_bytes()
    # the two-grid probe's coarse norms index the coarsened grid: the spike
    # sits at its node (3, 2, 3) and the coarse residual peaks below it
    code, probed = run(tmp_path, "c3", "check", "--state", path, "--system", "mhd", *mask)
    report = read_report(probed)
    assert report["norms"]["momentum"]["node"] == [6, 4, 5]
    assert report["norms_coarse"]["momentum"]["node"] == [3, 2, 2]


def test_check_stability_counts_nonpositive_pressure(tmp_path):
    code, sol = run(tmp_path, "sol", "flux", "solve", data_path("flux_axisym_example.flux"))
    assert code == 0
    code, state = run(tmp_path, "state", "flux", "tocgl", str(sol / "solution.json"), "--tau", "psi/2.6", "--grid", "9")
    assert code == 0
    code, out = run(tmp_path, "c", "check", "--state", str(state / "state.csv"), "--system", "cgl", "--stability")
    stability = read_report(out)["stability"]
    # the bundled example has negative pressures at every node
    assert stability["counts"]["nonpositive_pressure"] == 9**3
    worst = stability["worst_pressure"]
    assert sorted(worst) == ["node", "p_par", "p_perp", "xyz"]
    assert min(worst["p_perp"], worst["p_par"]) < 0


@pytest.mark.parametrize("radius", ["0.05", "0", "-1"])
def test_check_refuses_a_mask_within_its_margin(tmp_path, radius):
    # on 17^3 over [-1.2, 1.2] two coarse stencil widths are 4 h = 0.6
    state = _state(tmp_path, grid=17)
    code, out = run(tmp_path, "c", "check", "--state", state, "--system", "mhd", "--mask-sphere", radius)
    assert code == 2
    report = read_report(out)
    assert report["pass"] is False
    assert report["error"] == (
        f"--mask-sphere {float(radius):.6g} must exceed its margin of two coarse stencil widths, 0.6"
    )


def test_check_refuses_a_probe_mask_below_one_coarse_spacing(tmp_path):
    # on 17^3 over [-1.2, 1.2] the margin is 0.6 and one coarse spacing 0.3:
    # 0.61 leaves a radius of 0.01, a ball that holds only the centre node
    state = _state(tmp_path, grid=17)
    code, out = run(tmp_path, "c", "check", "--state", state, "--system", "mhd", "--mask-sphere", "0.61")
    assert code == 2
    assert read_report(out)["error"] == (
        "--mask-sphere 0.61 leaves a radius of 0.01 after its margin, below one coarse spacing, 0.3, "
        "for the two-grid probe"
    )
    # a radius just above the limit is probed, with a ratio for every residual
    code, out = run(tmp_path, "c2", "check", "--state", state, "--system", "mhd", "--mask-sphere", "0.91")
    assert code == 0
    report = read_report(out)
    assert report["params"]["mask_radius_used"] == pytest.approx(0.31)
    assert all(ratio is not None for ratio in report["convergence_ratios"].values())
    # an absolute threshold replaces the probe, and the small ball stays allowed there
    code, out = run(tmp_path, "c3", "check", "--state", state, "--system", "mhd", "--mask-sphere", "0.61",
                    "--threshold", "1")
    assert code == 0
    assert read_report(out)["params"]["mask_radius_used"] == pytest.approx(0.01)


def _uniform_state_csv(tmp_path, counts, tau=0.0):
    """A uniform state (B = e_z, p_perp = 1, p_par = 1 + tau) on ``counts``
    nodes of spacing 0.1, centred on the origin."""
    axes = [0.1 * (np.arange(n) - (n - 1) / 2) for n in counts]
    zero = np.zeros(counts)
    columns = {"B1": zero, "B2": zero, "B3": zero + 1.0, "p_perp": zero + 1.0, "p_par": zero + 1.0 + tau,
               "tau": zero + tau, "psi": zero}
    path = tmp_path / "uniform.csv"
    fields.write_csv(path, dict(zip("xyz", axes)), columns)
    return str(path)


@pytest.mark.parametrize(
    "counts, tau, argv, message",
    [
        ((9, 9, 9), 1.5, ["--system", "alt"], "the recast system needs tau < 1 everywhere on the grid"),
        ((9, 4, 9), 0.0, ["--system", "mhd"], "stencil requires at least 5 nodes along every axis"),
        # 2 h = 0.2 leaves a radius of 0.01, within which a 10^3 grid has no node
        ((10, 10, 10), 0.0, ["--system", "mhd", "--mask-sphere", "0.21"], "norm over an empty node set"),
    ],
    ids=["alt with tau >= 1", "4-node axis", "empty mask"],
)
def test_check_residual_errors_exit_two(tmp_path, counts, tau, argv, message):
    path = _uniform_state_csv(tmp_path, counts, tau)
    code, out = run(tmp_path, "c", "check", "--state", path, "--threshold", "1", *argv)
    assert code == 2
    assert read_report(out)["error"] == message


def test_check_rejects_an_unknown_system(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "check", "--state", "s.csv", "--system", "qqq"])
    assert exc.value.code == 2
    assert "invalid choice: 'qqq'" in capsys.readouterr().err
