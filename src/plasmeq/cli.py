"""Command-line workbench.

Subcommands
-----------
``lie detsys``    derive and list the determining equations of a PDE file
``lie verify``    check generator candidates against a PDE file
``vortex``        sample the spherical-vortex equilibrium to CSV (and VTK)
``transform``     apply a field-line transform M(psi) to a state CSV
``flux solve``    solve an axisymmetric or helical flux problem
``flux tocgl``    map a flux solution to a sampled anisotropic state
``check``         evaluate residual norms (and optional stability flags)

Every run writes ``report.json`` (machine-readable, deterministic for
identical inputs) into the output directory.  Exit codes: 0 success, 2
validation error, 3 verification failure (nonzero symbolic residual,
residual norms over threshold, or an unconverged solve).  A warning raised
during a run is printed as one ``warning: <message>`` line on stderr and
listed under ``warnings`` in ``report.json``.

Each command imports what it runs when it runs: the ``lie`` commands load
the symbolic kernel (``expr``, ``lie``) and no numpy; ``vortex`` loads
``equilibria`` and ``fields``; ``transform`` and ``check`` add ``expr``
(``check`` evaluates the equations of a bundled ``.pde`` file); ``flux
solve`` loads ``flux``, ``fields`` and ``expr``; ``flux tocgl`` adds
``equilibria``.

The argument parser is built once per process, on the first call of
``main``, and every call parses into a fresh namespace.  Each command is
bound to its handler's name, not to the function: ``main`` looks the name
up on this module when it runs, so that a handler re-bound here is the one
that runs.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
import warnings
from pathlib import Path

from . import RESIDUAL_SYSTEMS

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3

# ``check``'s two-grid probe passes a fine Linf up to this times coarse Linf / 4
THRESHOLD_FACTOR = 10.0


def _write_report(out_dir: Path, report: dict) -> None:
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ValueError(f"cannot read {path}: {err}") from None


# ---------------------------------------------------------------------------
# lie
# ---------------------------------------------------------------------------

# the symbolic kernel's names that the lie commands call: attributes of this
# module that import their own module on first use (``__getattr__``).  The
# commands look them up on this module, so that a function re-bound here
# (the benchmark's self-test injects a fault as ``cli.verify_generator``)
# or on its own module (its tracer) is the one that runs.
_KERNEL_NAMES = {
    "pretty": "expr",
    "PdeSystem": "lie",
    "build_determining_system": "lie",
    "parse_generator": "lie",
    "verify_generator": "lie",
}


def __getattr__(name: str):
    if name in _KERNEL_NAMES:
        return getattr(importlib.import_module(f"{__package__}.{_KERNEL_NAMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _naming(source: str, errors: type | tuple[type, ...], fn, *args):
    """``fn(*args)``, with one of ``errors`` that it raises reported as a
    ValueError naming ``source``, the file or option the input came from."""
    try:
        return fn(*args)
    except errors as err:
        raise ValueError(f"{source}: {err}") from None


def _read_kernel_file(path: str, parse):
    """``parse`` of the text of the file at ``path``, a PDE or generator
    file; an error in it names the file."""
    from .expr import ExprError
    from .lie import LieError

    return _naming(path, (ValueError, ExprError, LieError), parse, _read_text(path))


def cmd_lie_detsys(args) -> tuple[int, dict]:
    kernel = sys.modules[__name__]
    system = _read_kernel_file(args.pde_file, kernel.PdeSystem.from_text)
    det = kernel.build_determining_system(system)
    listing = Path(args.out) / "detsys.txt"
    with open(listing, "w") as fh:
        fh.write(f"# count={det.count} assumptions={list(det.assumptions)}\n")
        for eqn in det.equations:
            fh.write(kernel.pretty(eqn) + "\n")
    counts = {
        "count": det.count,
        "count_up_to_scale": det.stats["count_up_to_scale"],
        "raw": det.stats["raw"],
    }
    if system.target_count is not None:
        counts["target"] = system.target_count
        counts["matches_target"] = det.count == system.target_count
    report = {
        "inputs": {"pde_file": str(args.pde_file)},
        "params": {},
        "counts": counts,
        "assumptions": list(det.assumptions),
        "artifacts": {"equations": listing.name},
        "pass": True,
    }
    print(f"determining equations: {det.count} (up to scale: {det.stats['count_up_to_scale']})")
    if system.target_count is not None:
        print(f"target count: {system.target_count} ({'match' if counts['matches_target'] else 'deviation'})")
    return EXIT_OK, report


def cmd_lie_verify(args) -> tuple[int, dict]:
    kernel = sys.modules[__name__]
    system = _read_kernel_file(args.pde_file, kernel.PdeSystem.from_text)
    label = Path(args.generator_file).stem
    gen = _read_kernel_file(args.generator_file, lambda text: kernel.parse_generator(system.context, text, label))
    verification = kernel.verify_generator(system, gen)
    nonzero = [kernel.pretty(r) for r in verification if not r.is_zero]
    ok = not nonzero
    report = {
        "inputs": {"pde_file": str(args.pde_file), "generator_file": str(args.generator_file)},
        "params": {},
        "counts": {"source_equations": len(system.equations), "nonzero_residuals": len(nonzero)},
        "nonzero_residuals": nonzero[:10],
        "assumptions": list(verification.assumptions),
        "pass": ok,
    }
    print(
        f"generator {gen.label or '(unnamed)'}: "
        + ("verified, all residuals vanish" if ok else f"{len(nonzero)} nonzero residuals")
    )
    return (EXIT_OK if ok else EXIT_VERIFICATION), report


# ---------------------------------------------------------------------------
# vortex / transform
# ---------------------------------------------------------------------------


def cmd_vortex(args) -> tuple[int, dict]:
    from . import equilibria as eq
    from . import fields as fd

    if not args.extent > 0:
        raise ValueError(f"--extent must be positive, got {args.extent}")
    params = eq.vortex_params(R=args.R, n=args.n, B0=args.B0, P0=args.P0)
    grid = fd.Grid3.cube(-args.extent, args.extent, args.grid)
    state = eq.vortex_state(params, grid, pressure_profile=args.pressure_profile)
    out_dir = Path(args.out)
    eq.write_state_csv(state, out_dir / "state.csv")
    artifacts = {"state": "state.csv"}
    if args.vtk:
        eq.write_state_vtk(state, out_dir / "state.vtk")
        artifacts["vtk"] = "state.vtk"
    report = {
        "inputs": {},
        "params": {
            "R": args.R,
            "B0": args.B0,
            "P0": args.P0,
            "n": args.n,
            "grid": args.grid,
            "extent": args.extent,
            "pressure_profile": args.pressure_profile,
            "lam": params.lam,
            "gamma_b": params.gamma_b,
        },
        "artifacts": artifacts,
        "pass": True,
    }
    print(f"vortex state on {args.grid}^3 written (mode {args.n}, lam={params.lam:.6f})")
    return EXIT_OK, report


def cmd_transform(args) -> tuple[int, dict]:
    from . import equilibria as eq
    from .expr import ExprError

    if not args.m_min > 0:
        raise ValueError(f"--m-min must be positive, got {args.m_min}")
    state = eq.read_state_csv(args.state)
    spec = eq.TransformSpec(args.M, m_min=args.m_min)
    transformed = _naming("--M", ExprError, eq.apply_infinite_transform, state, spec)
    # the write runs beside the image alone, which shares psi with the input
    del state
    eq.write_state_csv(transformed, Path(args.out) / "transformed.csv")
    report = {
        "inputs": {"state": str(args.state)},
        "params": {"M": args.M, "m_min": args.m_min},
        "artifacts": {"state": "transformed.csv"},
        "pass": True,
    }
    print(f"transformed state written (M = {args.M})")
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# flux
# ---------------------------------------------------------------------------


def cmd_flux_solve(args) -> tuple[int, dict]:
    from . import flux as fx

    problem, params = fx.parse_problem_file(_read_text(args.problem_file), args.problem_file)
    try:
        sol = fx.solve_flux(problem, **params)
    except (ValueError, ArithmeticError, fx.SolverDiverged) as err:
        raise ValueError(f"{args.problem_file}: {err}") from None
    manifest = fx.write_solution(sol, args.out)
    report = {
        "inputs": {"problem_file": str(args.problem_file)},
        "params": {
            "shape": list(params["shape"]),
            "tol_outer": params["tol_outer"],
            "max_iter": params["max_iter"],
        },
        "norms": {"final_update": sol.final_update, "updates": list(sol.updates)},
        "counts": {"iterations": sol.iterations, "krylov_iterations": list(sol.krylov_iterations)},
        "artifacts": {"solution": "solution.json", "psi": manifest["psi_csv"]},
        "pass": sol.converged,
    }
    steps = len(sol.krylov_iterations)
    print(
        f"flux solve: {steps} Newton step{'s' * (steps != 1)}, {sum(sol.krylov_iterations)} GMRES iterations, "
        f"final |F| {sol.final_update:.3e}, " + ("converged" if sol.converged else "NOT converged")
    )
    return (EXIT_OK if sol.converged else EXIT_VERIFICATION), report


def cmd_flux_tocgl(args) -> tuple[int, dict]:
    from . import equilibria as eq
    from . import flux as fx
    from .expr import ExprError

    sol = fx.load_solution(args.solution)
    _naming(args.solution, ValueError, sol.pressure)  # a dN with no exact N
    grid = _naming(args.solution, ValueError, fx.default_cartesian_box, sol.problem, args.grid)
    state = _naming("--tau", ExprError, fx.flux_to_cgl, sol, args.tau, grid)
    eq.write_state_csv(state, Path(args.out) / "state.csv")
    report = {
        "inputs": {"solution": str(args.solution)},
        "params": {"tau": args.tau, "grid": args.grid},
        "artifacts": {"state": "state.csv"},
        "pass": True,
    }
    print(f"anisotropic state written from flux solution (tau = {args.tau})")
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> tuple[int, dict]:
    if args.threshold is not None and args.threshold < 0:
        raise ValueError(f"--threshold must not be negative, got {args.threshold}")

    import numpy as np

    from . import equilibria as eq

    state = eq.read_state_csv(args.state)
    can_coarsen = all(n % 2 == 1 and n >= 9 for n in state.grid.counts)
    if not can_coarsen and args.threshold is None:
        raise ValueError(
            "grid counts must be odd (and at least 9) for the built-in two-grid "
            "threshold probe; rerun with an explicit --threshold"
        )

    mask_radius = None
    params: dict = {"system": args.system, "threshold_factor": THRESHOLD_FACTOR}
    if args.mask_sphere is not None:
        h = max(state.grid.spacing)
        margin = 2.0 * (2.0 * h if can_coarsen else h)
        mask_radius = args.mask_sphere - margin
        if mask_radius <= 0:
            raise ValueError(
                f"--mask-sphere {args.mask_sphere:.6g} must exceed its margin of two "
                f"{'coarse ' if can_coarsen else ''}stencil widths, {margin:.6g}"
            )
        if args.threshold is None and mask_radius < 2.0 * h:
            # a smaller ball holds a few nodes of the coarse grid, or only its centre
            raise ValueError(
                f"--mask-sphere {args.mask_sphere:.6g} leaves a radius of {mask_radius:.6g} after its margin, "
                f"below one coarse spacing, {2.0 * h:.6g}, for the two-grid probe"
            )
        grids = {"the state's grid": state.grid}
        if args.threshold is None:
            grids["the coarse probe's grid"] = state.grid.coarsen()
        for name, grid in grids.items():
            # the smallest x^2 + y^2 + z^2 of an interior node, summed as
            # ``fields.sphere_mask`` sums it
            x, y, z = (float(np.min(a * a)) for a in grid.interior().axes())
            nearest = x + y + z
            if nearest > mask_radius * mask_radius:
                raise ValueError(
                    f"--mask-sphere {args.mask_sphere:.6g} leaves a radius of {mask_radius:.6g} after its margin, "
                    f"which holds no interior node of {name}: the nearest is {math.sqrt(nearest):.6g} from the origin"
                )
        params["mask_sphere"] = args.mask_sphere
        params["mask_radius_used"] = mask_radius

    norms = eq.residual_norms(state, args.system, mask_radius=mask_radius)
    report: dict = {
        "inputs": {"state": str(args.state)},
        "params": params,
        "norms": norms,
    }

    ok = True
    if args.threshold is not None:
        params["threshold"] = args.threshold
        ok = not any(entry["linf"] > args.threshold for entry in norms.values())
    else:
        coarse = eq.residual_norms(state.coarsen(), args.system, mask_radius=mask_radius)
        report["norms_coarse"] = coarse
        # a residual below this floor passes: an exact state's residuals are
        # rounding (plus the flux solve's 1e-10 tolerance) over h,
        # noise that does not shrink with h; the floor scales with B^2 and the
        # pressures (momentum), B (div B) and B tau (tau's advection)
        b_max = math.sqrt(float(np.max(state.b_squared())))
        p_max = float(max(np.max(np.abs(state.p_perp.values)), np.max(np.abs(state.p_par.values))))
        scale = b_max**2 + p_max + b_max * (1.0 + float(np.max(np.abs(state.tau.values))))
        floor = params["noise_floor"] = 1e-9 * scale / min(state.grid.spacing)
        ratios = {}
        for name in norms:
            fine_linf = norms[name]["linf"]
            coarse_linf = coarse[name]["linf"]
            # two residuals at the noise floor, or an exactly vanishing fine
            # one, have no meaningful ratio
            at_floor = max(fine_linf, coarse_linf) <= floor
            ratios[name] = None if at_floor or fine_linf == 0 else float(coarse_linf / fine_linf)
            # pass when the fine-grid residual sits below the second-order
            # expectation (coarse/4) widened by ``THRESHOLD_FACTOR``, or
            # below the noise floor
            if fine_linf > max(THRESHOLD_FACTOR * coarse_linf / 4.0, floor):
                ok = False
        report["convergence_ratios"] = ratios

    if args.stability:
        report["stability"] = eq.stability_report(state).summary()

    report["pass"] = ok
    worst = max(norms, key=lambda name: norms[name]["linf"])
    linf, node = norms[worst]["linf"], norms[worst]["node"]
    xyz = state.grid.point(node)
    report["worst"] = {"residual": worst, "linf": linf, "node": node, "xyz": xyz}
    print(
        f"check {args.system}: worst Linf {linf:.3e} ({worst} at node {node}, "
        f"(x, y, z) = ({xyz[0]:.6g}, {xyz[1]:.6g}, {xyz[2]:.6g})) -> {'pass' if ok else 'FAIL'}"
    )
    return (EXIT_OK if ok else EXIT_VERIFICATION), report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of a process.  Each
    command names its handler, which ``main`` looks up on this module when
    it runs."""
    parser = argparse.ArgumentParser(prog="plasmeq", description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".", help="output directory for artifacts and report.json")
    sub = parser.add_subparsers(dest="command", required=True)

    lie = sub.add_parser("lie", help="point-symmetry analysis")
    lie_sub = lie.add_subparsers(dest="subcommand", required=True)
    detsys = lie_sub.add_parser("detsys", help="derive the determining equations")
    detsys.add_argument("pde_file")
    detsys.set_defaults(handler="cmd_lie_detsys")
    verify = lie_sub.add_parser("verify", help="verify generator candidates")
    verify.add_argument("pde_file")
    verify.add_argument("generator_file")
    verify.set_defaults(handler="cmd_lie_verify")

    vortex = sub.add_parser("vortex", help="sample the spherical-vortex equilibrium")
    vortex.add_argument("--R", type=float, default=1.0)
    vortex.add_argument("--B0", type=float, default=1.0)
    vortex.add_argument("--P0", type=float, default=1.0)
    vortex.add_argument("--n", type=int, default=3, help="mode index")
    vortex.add_argument("--grid", type=int, default=65, help="nodes per axis")
    vortex.add_argument("--extent", type=float, default=1.2, help="half-width of the cubic box")
    vortex.add_argument(
        "--pressure-profile",
        choices=("balanced", "unscaled"),
        default="balanced",
        help="'balanced' satisfies the force balance; 'unscaled' keeps the historical profile",
    )
    vortex.add_argument("--vtk", action="store_true", help="also write a legacy VTK file")
    vortex.set_defaults(handler="cmd_vortex")

    transform = sub.add_parser("transform", help="apply a field-line transform")
    transform.add_argument("--state", required=True, help="input state CSV")
    transform.add_argument("--M", required=True, help="magnitude expression in psi")
    transform.add_argument("--m-min", type=float, default=1e-8, help="smallest |M| accepted (positive)")
    transform.set_defaults(handler="cmd_transform")

    flux = sub.add_parser("flux", help="flux-function solvers")
    flux_sub = flux.add_subparsers(dest="subcommand", required=True)
    fsolve = flux_sub.add_parser("solve", help="solve a flux problem file")
    fsolve.add_argument("problem_file")
    fsolve.set_defaults(handler="cmd_flux_solve")
    tocgl = flux_sub.add_parser("tocgl", help="map a solution to an anisotropic state")
    tocgl.add_argument("solution", help="solution.json from flux solve")
    tocgl.add_argument("--tau", required=True, help="anisotropy expression in psi")
    tocgl.add_argument("--grid", type=int, default=33, help="nodes per axis of the sampling box")
    tocgl.set_defaults(handler="cmd_flux_tocgl")

    check = sub.add_parser("check", help="residual norms of a sampled state")
    check.add_argument("--state", required=True)
    check.add_argument("--system", required=True, choices=RESIDUAL_SYSTEMS)
    check.add_argument("--stability", action="store_true")
    check.add_argument(
        "--mask-sphere",
        type=float,
        default=None,
        help="restrict norms to a ball of this radius shrunk by two stencil widths (it must exceed them)",
    )
    check.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="absolute Linf pass threshold (replaces the two-grid probe)",
    )
    check.set_defaults(handler="cmd_check")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = getattr(sys.modules[__name__], args.handler)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        # with no directory there is no report.json to write either
        print(f"error: cannot create output directory {out_dir}: {err.strerror or err}", file=sys.stderr)
        return EXIT_VALIDATION
    command = " ".join(filter(None, (args.command, vars(args).get("subcommand"))))
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            for name, value in vars(args).items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"--{name.replace('_', '-')} must be a finite number, got {value}")
            if args.command == "lie":
                code, report = handler(args)
            else:
                import numpy as np

                # numpy's floating-point warnings stay off stderr: the finite
                # checks on sampled values and on written files report those cases
                with np.errstate(all="ignore"):
                    code, report = handler(args)
        except (ValueError, ArithmeticError, OSError) as err:
            error = str(err)
        except MemoryError as err:
            # numpy's message names the allocation; a bare MemoryError has none
            error = str(err) or "out of memory"
        except Exception as err:
            # the symbolic kernel's own errors, imported only on this path so
            # that the commands which never load the kernel stay without it
            from .expr import ExprError
            from .lie import LieError

            if not isinstance(err, (ExprError, LieError)):
                raise
            error = str(err)
        if error is not None:
            code, report = EXIT_VALIDATION, {"error": error, "pass": False}
    notes = [str(w.message) for w in caught]
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    if notes:
        report["warnings"] = notes
    # a command that states no assumptions (every numeric one) lists none
    _write_report(out_dir, {"command": command, "assumptions": [], **report})
    return code


if __name__ == "__main__":
    sys.exit(main())
