import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
import warnings
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import plasmeq
from plasmeq import cli, equilibria, fields, flux
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
    ("mhd_static.pde", "space_scaling.gen"): "f1ab7c5a49314e37af6de8d521e189a561c867becdc7b0d028d204f5cf5a0cbe",
    ("mhd_static.pde", "mhd_field_scaling.gen"): "f1517103c6eb242394fb56014a8e2a5aba5c394e07996b9f219a619f0fdbccfc",
    ("cgl_static.pde", "cgl_translations.gen"): "50463b400088dc26378f6e74a6d9905b869ea0b9b49577f39037255645ac02ac",
    ("cgl_static.pde", "mhd_rotations.gen"): "e86f5d9c343809bf172ad4475599f5e9d52efc139e1a286ee2c83be3ecc098d7",
    ("cgl_static.pde", "space_scaling.gen"): "863708ac966d9d96a448e1e6efaea4ecd238b0ed0f3cd1be472b142554ae90fe",
    ("cgl_static.pde", "cgl_field_scaling.gen"): "028ac550739b054a41a458718fc1901e66a4272f8bad963c677495e9829c11da",
    ("cgl_static.pde", "cgl_pressure_anisotropy_scaling.gen"): (
        "da80ef63f6c6f108b498560b5cff669b3cf8feb7018bf0d09671c35c5bf71460"
    ),
    ("cgl_static_closed.pde", "cgl_translations.gen"): "ebfa514d1dfdaead8b9565103d554bd54f47b72029391732d73cb6e114ff1614",
    ("cgl_static_closed.pde", "mhd_rotations.gen"): "d9a90cefb0a3d15f2116e9ce5ded521202ca26005035533ece0952266b24ba8d",
    ("cgl_static_closed.pde", "space_scaling.gen"): "a6613bc93a0974f633609925a3b4b584c249df37e82d9b04de245339857e391c",
    ("cgl_static_closed.pde", "cgl_field_scaling.gen"): "4c2df5250ad0a5062f5f8774cb272f4ca7d4b51e02ca59f406595f3f4e30e344",
    ("cgl_static_closed.pde", "cgl_pressure_anisotropy_scaling.gen"): (
        "67073fac207cb9a3f81045282a89b67b779a0fb2b70708ee35bf808a66f6b82c"
    ),
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


def test_lie_pins_hold_twice_in_one_process(tmp_path, monkeypatch):
    # every system is parsed once per process and then shared: the whole
    # table, forward and then reversed, must not move a listing or report byte
    for name in {name for files in LIE_REPORT_SHA256 for name in files}:
        shutil.copy(data_path(name), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    table = list(LIE_REPORT_SHA256)
    for files in table + table[::-1]:
        command = "detsys" if len(files) == 1 else "verify"
        assert main(["--out", "out", "lie", command, *files]) == (3 if "mhd_bogus.gen" in files else 0)
        assert hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest() == LIE_REPORT_SHA256[files]
        if command == "detsys":
            listing = (tmp_path / "out" / "detsys.txt").read_bytes()
            assert hashlib.sha256(listing).hexdigest() == DETSYS_SHA256[files[0].removesuffix(".pde")]


def test_a_malformed_pde_file_is_named_on_every_run(tmp_path):
    bad = tmp_path / "bad.pde"
    bad.write_text("indep x;\ndep u;\nsolve_for: diff(u,x);\neq diff(u,x)^2 = u;\n")
    errors = []
    for sub in ("a", "b"):
        code, out = run(tmp_path, sub, "lie", "verify", str(bad), data_path("space_scaling.gen"))
        assert code == 2
        errors.append(read_report(out)["error"])
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"{bad}: equation is not linear in its leading coordinate")


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
    assert report["error"] == f"{gen}: xi(q): undeclared variable 'q'"


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


def test_vortex_samples_high_mode_numbers(tmp_path):
    # the root of mode 39 leaves |g| = 1.09e-10, which an absolute 1e-10
    # bound refused; the bound grows with the cube of the root instead
    for n, lam in ((39, 62.819914182602176), (3000, 4713.95961760957)):
        code, out = run(tmp_path, f"v{n}", "vortex", "--n", str(n), "--grid", "9")
        assert code == 0
        assert read_report(out)["params"]["lam"] == lam


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


def test_vortex_flux_solve_reports_its_newton_steps(tmp_path, capsys):
    # the bundled vortex lies past the first eigenvalue of its box's
    # operator, and its right-hand side is linear in psi: one elimination
    capsys.readouterr()
    code, sol_out = run(tmp_path, "sol", "flux", "solve", data_path("flux_vortex_example.flux"))
    assert code == 0
    report = read_report(sol_out)
    assert set(report["params"]) == {"shape", "tol_outer", "max_iter"}
    assert report["counts"] == {"iterations": 1, "krylov_iterations": []}
    assert report["norms"]["updates"] == [0.0]
    assert capsys.readouterr().out == "flux solve: 0 Newton steps, 0 GMRES iterations, final |F| 0.000e+00, converged\n"
    manifest = json.loads((sol_out / "solution.json").read_text())
    assert manifest["converged"] is True and manifest["iterations"] == 1


def test_a_flux_problem_with_no_solution_names_its_newton_steps(tmp_path, capsys):
    # N' = 50 e^psi on a zero boundary is past the Bratu fold
    problem = _flux_file(tmp_path, "boundary = 0\ndN = 50*exp(psi)")
    capsys.readouterr()
    code, _ = run(tmp_path, "bad", "flux", "solve", problem)
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(r"problem\.flux: solver diverged: .+ at Newton step \d+ \(\d+ GMRES iterations in all\), "
                     r"last \|F\| \S+; \|F\| history \S+(, \S+)*\n$", err), err


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


# argv pairs run one after the other in one process, the first with an
# option that the second leaves out
REPEATED_COMMANDS = {
    "check with and then without --stability": lambda state: [
        ["check", "--state", state, "--system", "mhd", "--stability"],
        ["check", "--state", state, "--system", "mhd"],
    ],
    "vortex with and then without --vtk": lambda state: [
        ["vortex", "--grid", "9", "--vtk"],
        ["vortex", "--grid", "9"],
    ],
}


@pytest.mark.parametrize("case", list(REPEATED_COMMANDS))
def test_a_call_of_main_reports_as_a_fresh_process_does(tmp_path, case):
    # main parses with one parser per process: nothing of a call may reach
    # the next.  No report names its output directory, so the reports of
    # the two processes compare byte for byte.
    assert main(["--out", str(tmp_path / "input"), "vortex", "--grid", "9"]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(plasmeq.__file__).parents[1]))
    for i, argv in enumerate(REPEATED_COMMANDS[case](str(tmp_path / "input" / "state.csv"))):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        code = main(["--out", str(here), *argv])
        proc = subprocess.run(
            [sys.executable, "-m", "plasmeq.cli", "--out", str(fresh), *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == code, proc.stderr
        assert (here / "report.json").read_bytes() == (fresh / "report.json").read_bytes()
        assert sorted(p.name for p in here.iterdir()) == sorted(p.name for p in fresh.iterdir())


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
        {"equilibria", "fields", "expr"},
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
# path: a fresh interpreter meets them with the kernel not yet loaded.  An
# error in an option's expression names the option
LAZY_ERRORS = {
    "transform magnitude that ends early": (
        lambda d: ["transform", "--state", str(d / "vortex" / "state.csv"), "--M", "psi+"],
        "--M: expected a value, found 'end of input' (line 1, column 5)",
    ),
    "tocgl tau with a missing exponent": (
        lambda d: ["flux", "tocgl", str(d / "solve" / "solution.json"), "--tau", "psi^"],
        "--tau: exponent must be an integer literal (line 1, column 5)",
    ),
    # an error in a PDE file names the file
    "detsys of an empty file": (
        lambda d: ["lie", "detsys", str(d / "empty.pde")],
        lambda d: f"{d / 'empty.pde'}: system declares no equations",
    ),
}


@pytest.mark.parametrize("case", list(LAZY_ERRORS))
def test_lazily_imported_errors_exit_two(tmp_path, probe_inputs, case):
    argv, message = LAZY_ERRORS[case]
    if callable(message):
        message = message(probe_inputs)
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


def _solution_file(tmp_path, profile):
    """The bundled axisymmetric problem with its ``N = 4 - 2*psi`` line
    replaced by ``profile``."""
    text = Path(data_path("flux_axisym_example.flux")).read_text()
    assert "\nN = 4 - 2*psi\n" in text
    return _file(tmp_path, "problem.flux", text.replace("\nN = 4 - 2*psi\n", f"\n{profile}\n"))


def _solution(tmp_path, drop=None, rows=None, profile=None):
    """Solve the bundled axisymmetric problem, with its pressure line
    replaced by ``profile`` if given; optionally drop a manifest key, or
    pass the psi.csv data rows through ``rows``."""
    problem_file = data_path("flux_axisym_example.flux") if profile is None else _solution_file(tmp_path, profile)
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


def _helical_solution_with_profiles(tmp_path, profiles):
    """The bundled helical solution with its profiles passed through ``profiles``."""
    path = Path(_solved(tmp_path, data_path("flux_helical_example.flux")))
    manifest = json.loads(path.read_text())
    manifest["profiles"] = profiles(manifest["profiles"])
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


def _undecodable(path):
    """Put a byte that is not UTF-8 in front of a file; returns its path."""
    path = Path(path)
    path.write_bytes(b"\xff" + path.read_bytes())
    return str(path)


def _flux_file(tmp_path, profiles):
    return _file(tmp_path, "problem.flux", f"r0 = 0.5\nr1 = 1.5\nzu0 = -0.5\nzu1 = 0.5\nnr = 9\nnzu = 9\n{profiles}\n")


def _state(tmp_path, grid=9, rows=None):
    _, out = run(tmp_path, "vortex", "vortex", "--grid", str(grid))
    if rows is not None:
        _edit_rows(out / "state.csv", rows)
    return str(out / "state.csv")


def _flux_state(tmp_path):
    """The README's 17^3 ``flux tocgl`` state of the bundled axisymmetric
    solution, which lies off the origin: its nearest interior node is 0.650
    from it, and its coarse grid's 0.700."""
    code, out = run(tmp_path, "state", "flux", "tocgl", _solution(tmp_path), "--tau", "psi/2.6", "--grid", "17")
    assert code == 0
    return str(out / "state.csv")


def _state_with_column(tmp_path, name):
    """A vortex state.csv with a last column of zeros headed ``name``."""
    path = Path(_state(tmp_path))
    header, *lines = path.read_text().splitlines()
    path.write_text(f"{header},{name}\n" + "".join(f"{line},0\n" for line in lines))
    return str(path)


def _solution_with_undecodable_psi(tmp_path):
    sol = _solution(tmp_path)
    _undecodable(Path(sol).parent / "psi.csv")
    return sol


def _out_is_a_file(tmp_path):
    (tmp_path / "bad").write_text("a file, not a directory\n")
    return ["vortex", "--grid", "9"]


def _detsys(tmp_path, text):
    return ["lie", "detsys", _file(tmp_path, "s.pde", text)]


def _state_with_header(tmp_path, header):
    """A vortex state.csv with its header passed through ``header``."""
    path = Path(_state(tmp_path))
    first, rest = path.read_text().split("\n", 1)
    path.write_text(f"{header(first)}\n{rest}")
    return str(path)


def _solved(tmp_path, problem_file):
    code, out = run(tmp_path, "sol", "flux", "solve", problem_file)
    assert code == 0
    return str(out / "solution.json")


def _solution_with_psi_header(tmp_path, header):
    sol = _solution(tmp_path)
    path = Path(sol).parent / "psi.csv"
    first, rest = path.read_text().split("\n", 1)
    path.write_text(f"{header}\n{rest}")
    return sol


def _solution_of_radii_near_1e_200(tmp_path):
    """The bundled solution moved to r in [1e-200, 1.5e-200], its psi.csv
    rewritten on that domain."""
    sol = _solution_with(tmp_path, r0=1e-200, r1=1.5e-200)
    (r, zu), cols = fields.read_csv(Path(sol).parent / "psi.csv", ("r", "zu"))
    fields.write_csv(Path(sol).parent / "psi.csv", {"r": np.linspace(1e-200, 1.5e-200, len(r)), "zu": zu}, cols)
    return ["flux", "tocgl", sol, "--tau", "0.1"]


SMALL_PDE = "indep x, y;\ndep u;\n{}\neq diff(u,x) = 0;\n"


STATE_HEADER = "x,y,z,B1,B2,B3,p_perp,p_par,tau,psi\n"

LONG_LITERAL = "number literal of more than 4300 digits when written out"

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
    # the extent 2e308 overflows the grid spacing, which the grid refuses
    # before a node is sampled
    "vortex extent beyond the float range": (
        lambda tmp: ["vortex", "--extent", "1e308", "--grid", "5"],
        "grid origin (-1e+308, -1e+308, -1e+308) and spacing (inf, inf, inf) must be finite, the spacing positive",
    ),
    "vortex extent of zero": (lambda tmp: ["vortex", "--extent", "0", "--grid", "5"], "--extent must be positive, got 0.0"),
    "negative vortex extent": (lambda tmp: ["vortex", "--extent", "-1", "--grid", "5"], "--extent must be positive, got -1.0"),
    "mode index out of reach": (lambda tmp: ["vortex", "--n", "1000000000", "--grid", "9"], "mode index 1000000000"),
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
    # the solve takes dN itself; only the map to a state needs N
    "pressure derivative that is not a polynomial": (
        lambda tmp: [
            "flux", "tocgl", _solution(tmp, profile="dN = -2 + 0.001*sqrt(psi)"), "--tau", "0.1", "--grid", "9",
        ],
        "sol/solution.json: dN = -2 + 0.001*sqrt(psi) is not a polynomial in psi, so N is not its exact "
        "antiderivative: state the pressure profile itself as N",
    ),
    # 1/psi is psi^-1: a Laurent monomial, and still not a polynomial
    "pressure derivative that is a reciprocal of psi": (
        lambda tmp: [
            "flux", "tocgl",
            _helical_solution_with_profiles(tmp, lambda p: {**{k: v for k, v in p.items() if k != "N"}, "dN": "1/psi"}),
            "--tau", "0.1", "--grid", "9",
        ],
        "sol/solution.json: dN = 1/psi is not a polynomial in psi",
    ),
    "pressure stated by N and by dN": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nN = 1 - psi\ndN = -1")],
        "problem.flux: the pressure is stated by both N and dN: give one of N (the profile; helical L) "
        "or dN (its derivative; helical dL), not both",
    ),
    "pressure stated by the helical L and dN": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "gamma = 0.7\nboundary = r\ndN = -1\nL = 1 - psi")],
        "problem.flux: the pressure is stated by both L and dN",
    ),
    "current derivative that is not J'": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nJ = psi^2\ndJ = 3*psi")],
        "problem.flux: dJ = 3*psi is not the derivative of J = psi^2, which is 2*psi: omit dJ, which is taken from J",
    ),
    # J' printed in the normal form of a reciprocal
    "current derivative of a square root off by a factor of two": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nJ = sqrt(psi)\ndJ = 1/sqrt(psi)")],
        "problem.flux: dJ = 1/sqrt(psi) is not the derivative of J = sqrt(psi), which is 1/2*sqrt(psi)^-1",
    ),
    # the margin of two coarse stencil widths is 0.2 on the flux state
    "mask without a node of the state's grid": (
        lambda tmp: ["check", "--state", _flux_state(tmp), "--system", "cgl", "--mask-sphere", "0.5"],
        "--mask-sphere 0.5 leaves a radius of 0.3 after its margin, which holds no interior node of the "
        "state's grid: the nearest is 0.649777 from the origin",
    ),
    "mask without a node of the coarse probe's grid": (
        lambda tmp: ["check", "--state", _flux_state(tmp), "--system", "cgl", "--mask-sphere", "0.87"],
        "--mask-sphere 0.87 leaves a radius of 0.67 after its margin, which holds no interior node of the "
        "coarse probe's grid: the nearest is 0.699553 from the origin",
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
        lambda tmp: ["lie", "detsys", _file(tmp, "u.pde", SMALL_PDE.format("unknown f(x + 3 u);"))],
        "malformed unknown declaration (line 3, column 1)",
    ),
    "unknown arguments with an empty slot": (
        lambda tmp: ["lie", "detsys", _file(tmp, "u.pde", SMALL_PDE.format("unknown f(x,, y u);"))],
        "malformed unknown declaration (line 3, column 1)",
    ),
    "target_count given twice": (
        lambda tmp: ["lie", "detsys", _file(tmp, "t.pde", SMALL_PDE.format("target_count: 1;\ntarget_count: 5;"))],
        "target_count is declared twice (line 4, column 1)",
    ),
    "fractional target_count": (
        lambda tmp: ["lie", "detsys", _file(tmp, "t.pde", SMALL_PDE.format("target_count: 1.5;"))],
        "target_count must be 'target_count: <integer>' (line 3, column 1)",
    ),
    "target_count in exponent notation": (
        lambda tmp: ["lie", "detsys", _file(tmp, "t.pde", SMALL_PDE.format("target_count: 1e3;"))],
        "target_count must be 'target_count: <integer>' (line 3, column 1)",
    ),
    "solve_for given twice": (
        lambda tmp: [
            "lie", "detsys", _file(tmp, "s.pde", SMALL_PDE.format("solve_for: diff(u,x);\nsolve_for: diff(u,y);")),
        ],
        "solve_for is declared twice (line 4, column 1)",
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
        "empty.pde: empty expression (line 4, column 4)",
    ),
    "PDE file error in lie verify": (
        lambda tmp: [
            "lie", "verify", _file(tmp, "bad.pde", "indep x;\ndep u;\neq = diff(u,x);\n"), data_path("mhd_rotations.gen"),
        ],
        "bad.pde: empty expression (line 3, column 4)",
    ),
    "generator with no assignment": (
        lambda tmp: ["lie", "verify", data_path("mhd_static.pde"), _file(tmp, "empty.gen", "")],
        "empty.gen: no xi(...) or eta(...) assignment",
    ),
    "generator of parameters only": (
        lambda tmp: ["lie", "verify", data_path("mhd_static.pde"), _file(tmp, "params.gen", "param a;\n")],
        "params.gen: no xi(...) or eta(...) assignment",
    ),
    "PDE file that is not UTF-8": (
        lambda tmp: [
            "lie", "verify", _undecodable(_file(tmp, "s.pde", SMALL_PDE.format(""))), data_path("mhd_rotations.gen"),
        ],
        "s.pde: 'utf-8' codec can't decode byte 0xff in position 0",
    ),
    "generator file that is not UTF-8": (
        lambda tmp: ["lie", "verify", data_path("mhd_static.pde"), _undecodable(_file(tmp, "g.gen", "xi(x) = 1;\n"))],
        "g.gen: 'utf-8' codec can't decode byte 0xff in position 0",
    ),
    "flux file that is not UTF-8": (
        lambda tmp: ["flux", "solve", _undecodable(_flux_file(tmp, "boundary = r"))],
        "problem.flux: 'utf-8' codec can't decode byte 0xff in position 0",
    ),
    "state that is not UTF-8": (
        lambda tmp: ["transform", "--state", _undecodable(_state(tmp)), "--M", "1"],
        "state.csv: 'utf-8' codec can't decode byte 0xff in position 0",
    ),
    "solution manifest that is not UTF-8": (
        lambda tmp: ["flux", "tocgl", _undecodable(_solution(tmp)), "--tau", "0.1"],
        "solution.json: 'utf-8' codec can't decode byte 0xff in position 0",
    ),
    "solution manifest that is not JSON": (
        lambda tmp: ["flux", "tocgl", _file(tmp, "solution.json", "{r0: 0.5}\n"), "--tau", "0.1"],
        "solution.json: not JSON: Expecting property name enclosed in double quotes",
    ),
    "solution psi.csv that is not UTF-8": (
        lambda tmp: ["flux", "tocgl", _solution_with_undecodable_psi(tmp), "--tau", "0.1"],
        "psi.csv: 'utf-8' codec can't decode byte 0xff in position 0",
    ),
    "state with a repeated column": (
        lambda tmp: ["check", "--state", _state_with_column(tmp, "B1"), "--system", "mhd"],
        "state.csv: column B1 appears twice in the header",
    ),
    "state row with one column too many": (
        lambda tmp: ["check", "--state", _state(tmp, rows=lambda lines: _set_value(lines, 4, 9, "0,0")),
                     "--system", "mhd"],
        "state.csv: data row 5 has 11 columns, the header has 10",
    ),
    "state with an empty cell": (
        lambda tmp: ["check", "--state", _state(tmp, rows=lambda lines: _set_value(lines, 2, 9, "")),
                     "--system", "mhd"],
        "state.csv: data row 3 holds '' for psi, not a number",
    ),
    # Python's float reads each of these three as a number, numpy none of them
    "state with an underscore in a number": (
        lambda tmp: ["check", "--state", _state(tmp, rows=lambda lines: _set_value(lines, 18, 0, "1_0")),
                     "--system", "mhd"],
        "state.csv: data row 19 holds '1_0' for x, not a number",
    ),
    "state with a digit that is not ASCII": (
        lambda tmp: ["check", "--state", _state(tmp, rows=lambda lines: _set_value(lines, 18, 5, "\u0661")),
                     "--system", "mhd"],
        "state.csv: data row 19 holds '\u0661' for B3, not a number",
    ),
    "state with a blank before an underscore": (
        lambda tmp: ["transform", "--state", _state(tmp, rows=lambda lines: _set_value(lines, 18, 9, " 1_0")),
                     "--M", "1"],
        "state.csv: data row 19 holds '1_0' for psi, not a number",
    ),
    "state whose rows end in a comma": (
        lambda tmp: ["transform", "--state", _state(tmp, rows=lambda lines: [l.rstrip("\n") + ",\n" for l in lines]),
                     "--M", "1"],
        "state.csv: data row 1 has 11 columns, the header has 10",
    ),
    # numpy reads a line of blanks as a row of one column, not as a blank line
    "state with a line of spaces": (
        lambda tmp: ["check", "--state", _state(tmp, rows=lambda lines: [*lines[:3], "   \n", *lines[3:]]),
                     "--system", "mhd"],
        "state.csv: data row 4 has 1 columns, the header has 10",
    ),
    "state with a line of tabs": (
        lambda tmp: ["transform", "--state", _state(tmp, rows=lambda lines: [*lines[:3], "\t\t\n", *lines[3:]]),
                     "--M", "1"],
        "state.csv: data row 4 has 1 columns, the header has 10",
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
        "problem.flux: iteration cap must be at least 1, got 0",
    ),
    "fractional iteration cap": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nmax_iter = 9.5")],
        "problem.flux: max_iter is not an integer: '9.5'",
    ),
    "tolerance of zero": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\ntol = 0")],
        "problem.flux: tolerance must be a positive finite number, got 0.0",
    ),
    # the Newton solve has no relaxation weight, so any omega is refused
    "relaxation weight": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nomega = 0.8")],
        "problem.flux: unrecognized problem keys: ['omega']",
    ),
    "radial resolution below nine": (
        lambda tmp: [
            "flux", "solve", _file(tmp, "coarse.flux", "r0 = 0.5\nr1 = 1.5\nzu0 = -0.5\nzu1 = 0.5\nnr = 5\nboundary = r\n"),
        ],
        "coarse.flux: resolution must be at least 9 x 9",
    ),
    "flux profile beyond the float range": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\ndN = -1e400")],
        "problem.flux: dN: constant beyond the float range in '-1e400'",
    ),
    # a constant beyond the float range in a derivative the problem takes,
    # or in the right-hand side or its slope, names the file and the keys
    "derived current beyond the float range": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nJ = 1e308*psi^3")],
        "problem.flux: J: the derivative of J = 1e308*psi^3 has a constant beyond the float range",
    ),
    "derived pressure beyond the float range": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nN = 1e308*psi^3")],
        "problem.flux: N: the derivative of N = 1e308*psi^3 has a constant beyond the float range",
    ),
    "right-hand side beyond the float range": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nJ = 1e200*psi^2")],
        "problem.flux: J, N: the right-hand side J dJ/(r^2+gamma^2) + 2 gamma J/(r^2+gamma^2)^2 + dN or its "
        "psi-derivative has a constant beyond the float range",
    ),
    "right-hand side slope beyond the float range": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\ndN = 1e308*psi^2")],
        "problem.flux: J, dN: the right-hand side J dJ/(r^2+gamma^2) + 2 gamma J/(r^2+gamma^2)^2 + dN or its "
        "psi-derivative has a constant beyond the float range",
    ),
    "solution with a derived pressure beyond the float range": (
        lambda tmp: [
            "flux", "tocgl", _solution_with(tmp, profiles={"boundary": "0.25*r^4", "N": "1e308*psi^3"}), "--tau", "0.1",
        ],
        "solution.json: solution manifest: N: the derivative of N = 1e308*psi^3 has a constant beyond the float range",
    ),
    "tocgl tau beyond the float range": (
        lambda tmp: ["flux", "tocgl", _solution(tmp), "--tau", "1e400*psi"],
        "constant beyond the float range in '1e400*psi'",
    ),
    "transform magnitude beyond the float range": (
        lambda tmp: ["transform", "--state", _state(tmp), "--M", "1e400"],
        "constant beyond the float range in '1e400'",
    ),
    # a literal is refused from its text, before any big-integer work on it
    "transform magnitude of ten million digits": (
        lambda tmp: ["transform", "--state", _state(tmp), "--M", "1e10000000"],
        f"--M: {LONG_LITERAL} (line 1, column 1)",
    ),
    "tocgl tau of 5000 digits": (
        lambda tmp: ["flux", "tocgl", _solution(tmp), "--tau", "psi/" + "7" * 5000],
        f"--tau: {LONG_LITERAL} (line 1, column 5)",
    ),
    "PDE file with a literal of three million digits": (
        lambda tmp: ["lie", "detsys", _file(tmp, "big.pde", SMALL_PDE.format("eq diff(u,y) = 1e3000000*u;"))],
        f"big.pde: {LONG_LITERAL} (line 3, column 16)",
    ),
    "generator file with a literal of three million digits": (
        lambda tmp: [
            "lie", "verify", data_path("mhd_static.pde"), _file(tmp, "big.gen", "xi(x) = 1;\neta(P) = 1e3000000;\n"),
        ],
        f"big.gen: {LONG_LITERAL} (line 2, column 10)",
    ),
    # a constant that an operator builds is bounded as a literal is, before it is built
    "PDE file squaring a literal of three thousand digits": (
        lambda tmp: ["lie", "detsys", _file(tmp, "big.pde", SMALL_PDE.format("eq diff(u,y) = (1e3000)^2*u;"))],
        "big.pde: constant of more than 4300 digits when written out (line 3, column 24)",
    ),
    "generator file multiplying two literals of three thousand digits": (
        lambda tmp: [
            "lie", "verify", data_path("mhd_static.pde"), _file(tmp, "big.gen", "xi(x) = 1;\neta(P) = 1e3000*1e3000;\n"),
        ],
        "big.gen: constant of more than 4300 digits when written out (line 2, column 16)",
    ),
    "transform magnitude of a power of ten million": (
        lambda tmp: ["transform", "--state", _state(tmp), "--M", "3^10000000"],
        "--M: constant of more than 4300 digits when written out (line 1, column 2)",
    ),
    "flux profile of ten million digits": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\ndN = 1e10000000")],
        f"problem.flux: dN: {LONG_LITERAL} (line 1, column 1)",
    ),
    "tolerance of nan": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\ntol = nan")],
        "problem.flux: tol must be finite, got nan",
    ),
    "flux file with an undeclared name": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = x")],
        "problem.flux: boundary: undeclared identifier 'x' (line 1, column 1)",
    ),
    "flux file with a malformed line": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\nomega 0.5")],
        "problem.flux: line 8: expected key = value, got 'omega 0.5'",
    ),
    "flux file with an empty radial range": (
        lambda tmp: ["flux", "solve", _file(tmp, "thin.flux", "r0 = 1\nr1 = 1\nzu0 = 0\nzu1 = 1\nboundary = r\n")],
        "thin.flux: radial domain requires 0 < r0 < r1 (the axis is excluded)",
    ),
    "pitch length of nan": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "geometry = helical\nboundary = r\ngamma = nan")],
        "problem.flux: gamma must be finite, got nan",
    ),
    "solution with an infinite r1": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, r1=math.inf), "--tau", "0.1"],
        "solution manifest: r1 must be finite, got inf",
    ),
    "solution with a list of profiles": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, profiles=["boundary"]), "--tau", "0.1"],
        "solution manifest profiles must map names to expressions",
    ),
    # a profile key is one of the six names: the helical name L is a problem
    # file's alias of N, and the domain is the manifest's own
    "solution with the helical pressure name": (
        lambda tmp: [
            "flux", "tocgl",
            _helical_solution_with_profiles(tmp, lambda p: {("L" if k == "N" else k): v for k, v in p.items()}),
            "--tau", "0.1",
        ],
        "sol/solution.json: solution manifest: unrecognized profile keys: ['L'], not among J, dJ, N, dN, boundary, source",
    ),
    "solution with an unknown profile": (
        lambda tmp: ["flux", "tocgl", _helical_solution_with_profiles(tmp, lambda p: {**p, "bogus": "x"}), "--tau", "0.1"],
        "sol/solution.json: solution manifest: unrecognized profile keys: ['bogus']",
    ),
    "solution with a domain key among its profiles": (
        lambda tmp: ["flux", "tocgl", _helical_solution_with_profiles(tmp, lambda p: {**p, "r0": "0.55"}), "--tau", "0.1"],
        "sol/solution.json: solution manifest: unrecognized profile keys: ['r0']",
    ),
    # each profile is expression text, never null
    "solution with a null profile": (
        lambda tmp: ["flux", "tocgl", _helical_solution_with_profiles(tmp, lambda p: {**p, "J": None}), "--tau", "0.1"],
        "sol/solution.json: solution manifest profiles must map names to expressions",
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
    "solution with a number for its grid file": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, psi_csv=5), "--tau", "0.1"],
        "solution manifest: psi_csv must be a file name with no directory part, got 5",
    ),
    "solution with a null grid file": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, psi_csv=None), "--tau", "0.1"],
        "solution manifest: psi_csv must be a file name with no directory part, got None",
    ),
    "solution with a list for its grid file": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, psi_csv=["psi.csv"]), "--tau", "0.1"],
        "solution manifest: psi_csv must be a file name with no directory part, got ['psi.csv']",
    ),
    "solution with a grid file in another directory": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, psi_csv="../psi.csv"), "--tau", "0.1"],
        "solution manifest: psi_csv must be a file name with no directory part, got '../psi.csv'",
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
    "transform floor of zero": (
        lambda tmp: ["transform", "--state", _state(tmp), "--M", "0", "--m-min", "0"],
        "--m-min must be positive, got 0.0",
    ),
    "transform floor below zero": (
        lambda tmp: ["transform", "--state", _state(tmp), "--M", "psi - 0.5", "--m-min", "-1"],
        "--m-min must be positive, got -1.0",
    ),
    "transform floor of nan": (
        lambda tmp: ["transform", "--state", _state(tmp), "--M", "1", "--m-min", "nan"],
        "--m-min must be a finite number, got nan",
    ),
    # the .pde grammar
    "equation with two '='": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("eq diff(u,y) = 0 = u;")),
        "s.pde: eq statement needs exactly one '=' (line 3, column 1)",
    ),
    "solve_for without ':'": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("solve_for diff(u,x);")),
        "s.pde: solve_for must be followed by ':' (line 3, column 1)",
    ),
    "solve_for of a dependent": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("solve_for: u;")),
        "s.pde: solve_for entries must be single derivative coordinates (line 3, column 1)",
    ),
    "trailing input in an equation": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("eq diff(u,y) = u u;")),
        "s.pde: trailing input starting at 'u' (line 3, column 18)",
    ),
    "diff of a number": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("eq diff(1, x) = 0;")),
        "s.pde: diff() expects a dependent variable or unknown function first (line 3, column 9)",
    ),
    "diff by a number": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("eq diff(u, 1) = 0;")),
        "s.pde: diff() differentiation variables must be identifiers (line 3, column 12)",
    ),
    "diff by nothing": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("eq diff(u) = 0;")),
        "s.pde: diff() needs at least one differentiation variable (line 3, column 4)",
    ),
    "unknown function applied to other arguments": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("unknown f(x);\neq diff(u,y) = f(y);")),
        "s.pde: unknown function 'f' must be applied to its declared arguments (line 4, column 16)",
    ),
    "sine of two arguments": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("eq diff(u,y) = sin(u, x);")),
        "s.pde: sin takes one argument (line 3, column 16)",
    ),
    "undeclared function": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("eq diff(u,y) = g(u);")),
        "s.pde: undeclared function 'g' (line 3, column 16)",
    ),
    "zero to a negative power": (
        lambda tmp: _detsys(tmp, SMALL_PDE.format("eq diff(u,y) = 0^-1;")),
        "s.pde: zero to a negative power (line 3, column 19)",
    ),
    # systems the symmetry analysis refuses
    "system of no equations": (lambda tmp: _detsys(tmp, "indep x;\ndep u;\n"), "s.pde: system declares no equations"),
    "leading coordinate solved for twice": (
        lambda tmp: _detsys(
            tmp, "indep x;\ndep u;\nsolve_for: diff(u,x), diff(u,x);\neq diff(u,x) = 0;\neq diff(u,x) = u;\n"
        ),
        "s.pde: leading derivative coordinates must be pairwise distinct",
    ),
    "second-order coordinate": (
        lambda tmp: _detsys(tmp, "indep x, y;\ndep u;\nsolve_for: diff(u,x);\neq diff(u,x) = diff(u,x,y);\n"),
        "s.pde: equation contains a higher-order coordinate u_x_y",
    ),
    "sine of a derivative coordinate": (
        lambda tmp: _detsys(tmp, "indep x, y;\ndep u;\nsolve_for: diff(u,x);\neq diff(u,x) = sin(diff(u,y));\n"),
        "s.pde: equation applies sin(...) to a derivative coordinate; not polynomial in the jet coordinates",
    ),
    "reciprocal of a derivative coordinate": (
        lambda tmp: _detsys(tmp, "indep x, y;\ndep B2;\nsolve_for: diff(B2,x);\neq diff(B2,x) = 1/diff(B2,y);\n"),
        "s.pde: equation divides by diff(B2,y); not polynomial in the jet coordinates",
    ),
    "leading coordinate of degree two": (
        lambda tmp: _detsys(tmp, "indep x;\ndep u;\nsolve_for: diff(u,x);\neq diff(u,x)^2 = u;\n"),
        "s.pde: equation is not linear in its leading coordinate u_x (degree 2)",
    ),
    "circular solved form": (
        lambda tmp: _detsys(
            tmp,
            "indep x;\ndep u, v;\nsolve_for: diff(u,x), diff(v,x);\n"
            "eq diff(u,x) = diff(v,x);\neq diff(v,x) = diff(u,x) + u;\n",
        ),
        "s.pde: solved form is circular; cannot reduce to triangular form",
    ),
    # generator components on the wrong kind of variable
    "eta of an independent": (
        lambda tmp: ["lie", "verify", data_path("mhd_static.pde"), _file(tmp, "g.gen", "eta(x) = 1;\n")],
        "g.gen: eta(x) requires a dependent variable",
    ),
    "xi of a dependent": (
        lambda tmp: ["lie", "verify", data_path("mhd_static.pde"), _file(tmp, "g.gen", "xi(B1) = 1;\n")],
        "g.gen: xi(B1) requires an independent variable",
    ),
    # state files
    "state whose coordinate columns are not first": (
        lambda tmp: ["check", "--state", _state_with_header(tmp, lambda h: h.replace("x,y,z", "y,x,z", 1)),
                     "--system", "mhd"],
        "state.csv: expected x,y,z coordinate columns first",
    ),
    "state that misses a node": (
        lambda tmp: ["check", "--state", _state(tmp, rows=lambda lines: lines[:-1]), "--system", "mhd"],
        "state.csv: nodes do not form a full tensor grid",
    ),
    # flux solve
    # N' = 50 e^psi on a zero boundary is past the Bratu fold: no solution
    "diverging flux solve": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = 0\ndN = 50*exp(psi)")],
        "problem.flux: solver diverged: ",
    ),
    # the start T(0) exceeds 0.5 inside, where the profile is not defined
    "flux profile that blows up": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = r\ndN = sqrt(0.5 - psi)")],
        "problem.flux: constitutive profile evaluated to a non-finite value",
    ),
    "boundary data that is not finite": (
        lambda tmp: ["flux", "solve", _flux_file(tmp, "boundary = log(zu)")],
        "problem.flux: boundary data is not finite",
    ),
    # flux tocgl
    "solution manifest without its iteration count": (
        lambda tmp: ["flux", "tocgl", _solution(tmp, drop="iterations"), "--tau", "0.1"],
        "sol/solution.json: solution manifest is missing iterations",
    ),
    "solution psi.csv with another value column": (
        lambda tmp: ["flux", "tocgl", _solution_with_psi_header(tmp, "r,zu,phi"), "--tau", "0.1"],
        "sol/psi.csv: expected columns r,zu,psi",
    ),
    "solution psi.csv of another resolution": (
        lambda tmp: ["flux", "tocgl", _solution_with(tmp, resolution=[33, 17]), "--tau", "0.1"],
        "sol/psi.csv: solution CSV does not match the recorded resolution",
    ),
    # squares of radii near 1e-200 underflow to zero, which no box fits between
    "solution domain too thin for the default box": (
        _solution_of_radii_near_1e_200,
        "sol/solution.json: radial domain r in [1e-200, 1.5e-200] is too thin to hold the default sampling box",
    ),
    # a pitch length of 10 widens the box's zu range past the domain's
    "helical solution too steep for the default box": (
        lambda tmp: [
            "flux", "tocgl", _solved(tmp, _flux_file(tmp, "gamma = 10\nboundary = r")), "--tau", "0.1",
        ],
        "sol/solution.json: zu range [-0.5, 0.5] is too short for the default sampling box at pitch length "
        "gamma = 10, which shifts zu by up to ",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_two_with_an_error(tmp_path, capsys, case):
    build, message = BAD_INPUTS[case]
    _assert_refused(tmp_path, capsys, build(tmp_path), message)


def test_state_whose_column_count_changes_between_read_blocks(tmp_path, capsys, monkeypatch):
    # rows 1-4 form one read block of ten columns, and the blocks after it
    # have eleven: the row that first breaks the header's count is named
    monkeypatch.setattr(fields, "_READ_BLOCK", 4)
    state = _state(tmp_path, rows=lambda lines: lines[:4] + [line.rstrip("\n") + ",0\n" for line in lines[4:]])
    _assert_refused(
        tmp_path, capsys, ["check", "--state", state, "--system", "mhd"],
        "state.csv: data row 5 has 11 columns, the header has 10",
    )


def _assert_refused(tmp_path, capsys, argv, message):
    """``argv`` exits 2 with one ``error:`` line holding ``message``, no
    traceback, and a report of the error as the only output."""
    capsys.readouterr()
    code, out = run(tmp_path, "bad", *argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [err.splitlines()[0]]
    assert "Traceback" not in err
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


def test_a_power_of_ten_million_is_refused_within_a_second(tmp_path):
    # the size of 3^10000000 is judged before it is built, which takes seconds
    state = _state(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(plasmeq.__file__).parents[1]))
    argv = [sys.executable, "-m", "plasmeq.cli", "--out", str(tmp_path / "t"), "transform", "--state", state]
    start = time.perf_counter()
    proc = subprocess.run([*argv, "--M", "3^10000000"], env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stderr == "error: --M: constant of more than 4300 digits when written out (line 1, column 2)\n"
    assert elapsed < 1.0


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
    # the current is quadratic in psi: a psi-free problem is one solve
    # whatever the cap, and a linear one takes one Newton step
    problem = _flux_file(tmp_path, "boundary = 0.25*r^4\nJ = 0.5*psi^2\ndN = -2\nmax_iter = 1")
    capsys.readouterr()
    code, out = run(tmp_path, "sol", "flux", "solve", problem)
    assert code == 3
    warning = "flux solve stopped at the iteration cap (1) with update "
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


@pytest.mark.parametrize("system", ["mhd", "cgl"])
def test_check_fails_a_spike_that_the_coarse_grid_does_not_see(tmp_path, capsys, system):
    # a uniform state (B = e_z, p = 1) on 17^3 over [-1, 1] with p += 0.5 at
    # node (7, 7, 7), odd on every axis: the coarse grid (the even nodes)
    # misses the spike, so its momentum residual is exactly 0 and the fine
    # one, 0.5 / (2 h) = 2, fails the two-grid rule
    grid = fields.Grid3.cube(-1.0, 1.0, 17)
    p = np.ones(grid.counts)
    p[7, 7, 7] += 0.5
    zero = np.zeros(grid.counts)
    columns = {"B1": zero, "B2": zero, "B3": zero + 1.0, "p_perp": p, "p_par": p, "tau": zero, "psi": zero}
    path = tmp_path / "spike.csv"
    fields.write_csv(path, dict(zip("xyz", grid.axes())), columns)
    capsys.readouterr()
    code, out = run(tmp_path, "c", "check", "--state", str(path), "--system", system)
    assert code == 3
    report = read_report(out)
    assert report["pass"] is False
    assert report["worst"] == {"residual": "momentum", "linf": 2.0, "node": [6, 7, 7], "xyz": [-0.25, -0.125, -0.125]}
    assert report["norms_coarse"]["momentum"]["linf"] == 0.0
    assert report["convergence_ratios"]["momentum"] == 0.0
    assert capsys.readouterr().out.endswith("-> FAIL\n")


def test_transform_of_a_state_with_tau_of_one_or_more_warns_once(tmp_path, capsys):
    # the note is one warning line on stderr and one entry under warnings;
    # the command still passes and states no assumptions
    capsys.readouterr()
    code, out = run(tmp_path, "t", "transform", "--state", _uniform_state_csv(tmp_path, (9, 9, 9), tau=1.5),
                    "--M", "2")
    assert code == 0
    assert capsys.readouterr().err == "warning: input state has tau >= 1 somewhere\n"
    report = read_report(out)
    assert report["warnings"] == ["input state has tau >= 1 somewhere"]
    assert report["assumptions"] == [] and report["pass"] is True


def _array_refs(values):
    """Weak references to ``values`` and every array it is a view of."""
    refs = []
    while values is not None:
        refs.append(weakref.ref(values))
        values = values.base
    return refs


def test_transform_lets_go_of_its_input_before_it_writes(tmp_path, monkeypatch):
    # the write runs beside the image alone: the input's B, p_perp and tau
    # are freed when the map returns, and its psi lives on in the image
    state_csv = _state(tmp_path)
    read, write = equilibria.read_state_csv, equilibria.write_state_csv
    freed, shared = [], []

    def reading(path):
        state = read(path)
        freed.append(weakref.ref(state))
        for f in (state.B, state.p_perp, state.tau):
            freed.extend(_array_refs(f.values))
        shared.append(_array_refs(state.psi.values)[-1])
        return state

    def writing(state, path):
        assert [r() for r in freed] == [None] * len(freed)
        assert np.shares_memory(state.psi.values, shared[0]())
        write(state, path)

    monkeypatch.setattr(equilibria, "read_state_csv", reading)
    monkeypatch.setattr(equilibria, "write_state_csv", writing)
    code, out = run(tmp_path, "t", "transform", "--state", state_csv, "--M", "1 + psi*sin(psi)")
    assert code == 0 and (out / "transformed.csv").is_file()
    assert len(freed) > 1


def test_check_stability_counts_nonpositive_pressure(tmp_path):
    # the bundled example with N = -2 psi, negative at every node since psi > 0
    code, sol = run(tmp_path, "sol", "flux", "solve", _solution_file(tmp_path, "N = -2*psi"))
    assert code == 0
    code, state = run(tmp_path, "state", "flux", "tocgl", str(sol / "solution.json"), "--tau", "psi/2.6", "--grid", "9")
    assert code == 0
    code, out = run(tmp_path, "c", "check", "--state", str(state / "state.csv"), "--system", "cgl", "--stability")
    stability = read_report(out)["stability"]
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


def test_check_refuses_an_empty_mask_before_any_residual(tmp_path, monkeypatch):
    state = _flux_state(tmp_path)
    calls = []
    monkeypatch.setattr(equilibria, "residual_norms", lambda *args, **kwargs: calls.append(args))
    # the ball leaves out every node of the state's grid, then of the coarse one
    for radius in ("0.5", "0.87"):
        code, out = run(tmp_path, f"c{radius}", "check", "--state", state, "--system", "cgl", "--mask-sphere", radius)
        assert code == 2
        assert read_report(out)["error"].startswith(f"--mask-sphere {radius} leaves a radius of ")
    assert calls == []


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
        (
            (10, 10, 10),
            0.0,
            ["--system", "mhd", "--mask-sphere", "0.21"],
            "--mask-sphere 0.21 leaves a radius of 0.01 after its margin, which holds no interior node of the "
            "state's grid: the nearest is 0.0866025 from the origin",
        ),
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
