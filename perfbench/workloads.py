"""The four benchmark workloads: set-up, one timed pass, and output checks.

Every operation of a pass goes through ``Pass.run``, which times it under
one end-to-end metric and then checks its output; an exception or a wrong
answer marks the operation failed (it counts in ``fail_ratio``) and the pass
goes on.  The seed picks input parameters only, never sizes, so the work of
a pass does not depend on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from plasmeq import cli, equilibria, expr, fields, flux, lie, systems

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "plasmeq" / "data"
SHIM = Path(__file__).resolve().parent / "cli_shim.py"

# Sizes of every workload.  "full" is the benchmark; "tiny" only serves the
# self-test of the harness.
SIZES = {
    "full": {
        "systems": ("mhd", "cgl", "cgl_closed"),
        "state_grid": 129,
        "state_tocgl_grid": 65,
        "state_flux_shape": 65,
        "flux_shapes": (129, 257, 385),
        "flux_tocgl_grid": 33,
        "readme_vortex_grid": 65,
        "readme_tocgl_grid": 33,
        "readme_flux_shape": 33,
    },
    "tiny": {
        "systems": ("mhd",),
        "state_grid": 33,
        "state_tocgl_grid": 33,
        "state_flux_shape": 33,
        "flux_shapes": (65, 129),
        "flux_tocgl_grid": 33,
        "readme_vortex_grid": 33,
        "readme_tocgl_grid": 33,
        "readme_flux_shape": 33,
    },
}

PDE_FILES = {"mhd": "mhd_static.pde", "cgl": "cgl_static.pde", "cgl_closed": "cgl_static_closed.pde"}
# determining-equation counts of the bundled systems (see the acceptance suite)
PINNED_COUNTS = {"mhd": 133, "cgl": 253, "cgl_closed": 227}
# coarse/fine Linf ratio of a second-order residual is 4; the band allows
# for the masked sphere edge and for the pointwise maximum moving between
# grids (3.2-4.0 seen at the seed commit)
RATIO_BAND = (2.8, 5.0)
# max |psi - closed form| <= FLUX_ERROR_K * h^2 for the seeded exact-solution
# problems (0.006-0.043 seen at the seed commit)
FLUX_ERROR_K = 0.1
# trilinear resampling of the translated state: max |p_perp error| <= this
# times the grid spacing, as a share of max |p_perp| (first order, since
# p_perp has a kink at the sphere; 1.7e-4 seen at h = 0.019)
TRILINEAR_REL_TOL_PER_H = 0.1
EXACT_REL_TOL = 1e-9


def rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Each workload class has ``nominal_pass_s``, about the seconds of one pass
# at the reference CPU speed (see ``speed.py``) at the commit that defined
# the benchmark, rounded up; a run makes ``--seconds // nominal_pass_s``
# passes (at least one), so the pass count comes from these constants and
# not from the clock.


class Pass:
    """One pass of a workload: the interval of every operation, and failures."""

    def __init__(self):
        self.intervals: list[tuple[str, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, metric: str | None, label: str, fn, *args, check=None):
        """Time ``fn(*args)`` under ``metric``; ``check(result)`` returns an
        error message or None.  Returns the result, or None on failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as err:  # a crashed operation is a failed one; the pass goes on
            self._add(metric, t0)
            return self.fail(label, f"{type(err).__name__}: {err}")
        self._add(metric, t0)
        try:
            problem = check(result) if check is not None else None
        except Exception as err:
            problem = f"check raised {type(err).__name__}: {err}"
        if problem:
            return self.fail(label, problem)
        return result

    def _add(self, metric, t0):
        if metric is not None:
            self.intervals.append((metric, t0, time.perf_counter()))

    def fail(self, label, message):
        self.failed += 1
        self.failures.append(f"{label}: {message}")
        return None


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def _ratio_problem(fine: dict, coarse: dict) -> str | None:
    """The two-grid check of ``cli check``, plus the stated ratio band."""
    for name in fine:
        f, c = fine[name]["linf"], coarse[name]["linf"]
        ratio = c / f if f > 0 else math.inf
        if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
            return f"{name}: convergence ratio {ratio:.3f} outside {RATIO_BAND}"
        if f > 10.0 * c / 4.0:
            return f"{name}: fine Linf {f:.3e} above the two-grid threshold"
    return None


# ---------------------------------------------------------------------------
# seeded flux problems with closed-form solutions
# ---------------------------------------------------------------------------


def _r4(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def flux_problems(rng: random.Random, shape: int) -> list[dict]:
    """Exact-solution problems of both geometries (the families of
    ``flux_axisym_example.flux`` and ``flux_helical_example.flux``)."""
    c, a, b, j = _r4(rng, 0.8, 1.2), _r4(rng, -0.2, 0.2), _r4(rng, -0.1, 0.1), _r4(rng, 0.0, 0.3)
    axisym = {
        "text": (
            "geometry = axisymmetric\nr0 = 0.5\nr1 = 1.5\nzu0 = -0.5\nzu1 = 0.5\n"
            f"J = {j}\ndJ = 0\ndN = {-2 * c:.4f}\n"
            f"boundary = {c}*r^4/4 + {a}*r^2 + {b}*zu\nnr = {shape}\nnzu = {shape}\n"
        ),
        "exact": lambda r, zu, c=c, a=a, b=b: c * r**4 / 4 + a * r**2 + b * zu,
    }
    c, g, b = _r4(rng, 0.8, 1.2), _r4(rng, 0.5, 0.9), _r4(rng, -0.1, 0.1)
    helical = {
        "text": (
            "geometry = helical\nr0 = 0.6\nr1 = 1.6\nzu0 = -0.6\nzu1 = 0.6\n"
            f"gamma = {g}\nJ = 0\ndJ = 0\ndL = {-2 * c:.4f}\n"
            f"boundary = {c}*(r^4 + 2*{g}^2*r^2)/4 + {b}*zu\nnr = {shape}\nnzu = {shape}\n"
        ),
        "exact": lambda r, zu, c=c, g=g, b=b: c * (r**4 + 2 * g**2 * r**2) / 4 + b * zu,
    }
    for prob in (axisym, helical):
        prob["tau_share"] = _r4(rng, 0.2, 0.5)
    return [axisym, helical]


def tau_text(sol, share: float) -> str:
    """A tau profile linear in psi that peaks at ``share`` on the attained range."""
    lo, hi = sol.attained_range()
    return f"psi*{share / max(abs(lo), abs(hi)):.6f}"


def flux_error_problem(sol, exact) -> str | None:
    R, ZU = np.meshgrid(sol.r, sol.zu, indexing="ij")
    err = float(np.max(np.abs(sol.psi - exact(R, ZU))))
    h = max(sol.r[1] - sol.r[0], sol.zu[1] - sol.zu[0])
    if not sol.converged:
        return "solve did not converge"
    if err > FLUX_ERROR_K * h * h:
        return f"max error {err:.3e} against the closed form exceeds {FLUX_ERROR_K} h^2"
    return None


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------


def generator_text(gen: lie.CandidateGenerator) -> str:
    lines = []
    if gen.context.parameters:
        lines.append("param " + ", ".join(p.name for p in gen.context.parameters) + ";")
    for kind, comps in (("xi", gen.xi), ("eta", gen.eta)):
        for sym in sorted(comps, key=lambda s: s.name):
            if not comps[sym].is_zero:
                lines.append(f"{kind}({sym.name}) = {expr.pretty(comps[sym])};")
    return "\n".join(lines) + "\n"


def _scaled(gen: lie.CandidateGenerator, q: Fraction) -> lie.CandidateGenerator:
    k = expr.Expr.number(q)
    return lie.CandidateGenerator(
        gen.context, {s: v * k for s, v in gen.xi.items()}, {s: v * k for s, v in gen.eta.items()}, gen.label
    )


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))


class Symbolic:
    """``lie detsys`` and ``lie verify`` through ``plasmeq.cli.main`` in-process."""

    nominal_pass_s = 28.0

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        rng = random.Random(seed)
        self.dir = workdir
        self.systems = sizes["systems"]
        self.coeffs = {}
        for name in self.systems:
            n_catalogue = 4 if name == "mhd" else 6
            self.coeffs[name] = {
                "combo": [_rational(rng) for _ in range(n_catalogue)],
                "line": (_rational(rng), _rational(rng)),
                "perturb": (_rational(rng), rng.choice(("x", "y", "z"))),
            }
        # warm-up: argparse, report writing and the kernel's first calls
        self._cli("warmup", "lie", "detsys", str(DATA / PDE_FILES["mhd"]))

    def _cli(self, tag: str, *argv: str):
        out = self.dir / tag
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", str(out), *argv])
        with open(out / "report.json") as fh:
            return code, json.load(fh)

    def _catalogue(self, name: str) -> dict[str, tuple[str, int]]:
        """Write every generator file of one system; returns tag -> (path, expected exit)."""
        system = systems.load_system(name)
        gens = systems.classical_generators(system)
        if name != "mhd":
            gens += [systems.pressure_anisotropy_scaling(system), systems.line_function_generator(system, "1")]
        c = self.coeffs[name]
        terms = [_scaled(g, q) for g, q in zip(gens, c["combo"])]
        if name == "cgl_closed":
            a, b = c["line"]
            terms[-1] = systems.line_function_generator(system, f"{a} + {b}*tau")
        combo = terms[0]
        for t in terms[1:]:
            combo = combo + t
        q, axis = c["perturb"]
        ctx = combo.context
        pressure = ctx.symbol("P" if name == "mhd" else "pperp")
        bogus = lie.CandidateGenerator(ctx, {}, {pressure: ctx.var(axis) * expr.Expr.number(q)}, "perturbation")
        cases = [(g.label, g, 0) for g in gens] + [("combination", combo, 0), ("perturbed", combo + bogus, 3)]
        files = {}
        for label, gen, expected in cases:
            text = generator_text(gen)
            back = lie.parse_generator(system.context, text, label)
            if back.xi != {s: v for s, v in gen.xi.items() if not v.is_zero} or back.eta != {
                s: v for s, v in gen.eta.items() if not v.is_zero
            }:
                raise ValueError(f"{name}/{label}: generator text does not round-trip")
            path = self.dir / f"{name}-{label}.gen"
            path.write_text(text)
            files[f"{name}/{label}"] = (str(path), expected)
        return files

    def run_pass(self, p: Pass) -> None:
        for name in self.systems:
            pde = str(DATA / PDE_FILES[name])
            files = p.run(None, f"catalogue {name}", self._catalogue, name) or {}
            p.run(
                "detsys_s",
                f"detsys {name}",
                self._cli,
                f"detsys-{name}",
                "lie",
                "detsys",
                pde,
                check=lambda res, name=name: _detsys_problem(res, PINNED_COUNTS[name]),
            )
            if name == "mhd":
                files["mhd/mhd_bogus"] = (str(DATA / "mhd_bogus.gen"), 3)
            for tag, (path, expected) in files.items():
                p.run(
                    "verify_s",
                    f"verify {tag}",
                    self._cli,
                    "verify",
                    "lie",
                    "verify",
                    pde,
                    path,
                    check=lambda res, expected=expected: _exit_problem(res, expected),
                )


def _exit_problem(res, expected: int) -> str | None:
    code, report = res
    if code != expected:
        return f"exit {code}, expected {expected}"
    if report.get("pass") is not (expected == 0):
        return f"report pass={report.get('pass')} with exit {code}"
    return None


def _detsys_problem(res, count: int) -> str | None:
    problem = _exit_problem(res, 0)
    if problem:
        return problem
    got = res[1]["counts"]["count"]
    return None if got == count else f"count {got}, pinned {count}"


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def _zxz(phi: float, theta: float, psi: float) -> np.ndarray:
    def rz(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])

    c, s = math.cos(theta), math.sin(theta)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    return rz(phi) @ rx @ rz(psi)


class States:
    """Sampling, transforming and checking 3-D states in memory."""

    nominal_pass_s = 12.0

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        rng = random.Random(seed)
        self.R = _r4(rng, 0.9, 1.1)
        self.params = equilibria.vortex_params(R=self.R, n=rng.choice((1, 2, 3)))
        self.grid = fields.Grid3.cube(-1.2 * self.R, 1.2 * self.R, sizes["state_grid"])
        a, b = _r4(rng, 0.2, 0.5), _r4(rng, 0.0, 0.3)
        self.spec = equilibria.TransformSpec(f"1 + {a}*psi*sin(psi) + {b}*psi^2")
        self.angles = tuple(_r4(rng, 0.0, 2 * math.pi) for _ in range(3))
        self.offset = tuple(_r4(rng, -0.05, 0.05) * self.R for _ in range(3))
        self.t, self.s = _r4(rng, 0.9, 1.1), _r4(rng, 0.8, 1.2)
        n = self.grid.counts[0]
        idx = np.array([[rng.randrange(2, n - 2) for _ in range(3)] for _ in range(64)])
        self.nodes = tuple(idx.T)
        self.points = tuple(self.grid.origin[i] + self.grid.spacing[i] * idx[:, i] for i in range(3))
        h = max(self.grid.spacing)
        self.mask_radius = self.R - 2.0 * 2.0 * h
        prob = flux_problems(rng, sizes["state_flux_shape"])[0]
        problem, solver = flux.parse_problem_file(prob["text"])
        self.solution = flux.solve_flux(problem, **solver)
        self.tau = tau_text(self.solution, prob["tau_share"])
        self.tocgl_grid = flux.default_cartesian_box(problem, sizes["state_tocgl_grid"])
        # warm-up: every call of the pass once, on a tiny grid
        tiny = fields.Grid3.cube(-1.2 * self.R, 1.2 * self.R, 9)
        state = equilibria.apply_infinite_transform(equilibria.vortex_state(self.params, tiny), self.spec)
        equilibria.translate_state(equilibria.rotate_state(state, *self.angles), self.offset)
        equilibria.scale_state(state, self.t, self.s, pressure_factor="generator")
        equilibria.residual_norms(state, "cgl")
        flux.flux_to_cgl(self.solution, self.tau, grid=flux.default_cartesian_box(problem, 9))

    def _at_nodes(self, grid_values) -> np.ndarray:
        i, j, k = self.nodes
        return grid_values[..., i, j, k]

    def run_pass(self, p: Pass) -> None:
        base = p.run("sample_s", "vortex_state", equilibria.vortex_state, self.params, self.grid,
                     check=self._check_vortex)
        if base is None:
            return
        tr = p.run("transform_s", "apply_infinite_transform", equilibria.apply_infinite_transform, base,
                   self.spec, check=lambda out: self._check_invariant(base, out))
        if tr is None:
            return
        rot = p.run("transform_s", "rotate_state", equilibria.rotate_state, tr, *self.angles,
                    check=lambda out: self._check_rotation(tr, out))
        if rot is not None:
            p.run("transform_s", "translate_state", equilibria.translate_state, rot, self.offset,
                  check=lambda out: self._check_translation(tr, out))
        p.run("transform_s", "scale_state", self._scale, tr, check=lambda out: self._check_scale(tr, out))
        p.run("check_s", "two-grid check", self._two_grid, tr, self.mask_radius,
              check=lambda norms: _ratio_problem(*norms))
        p.run("check_s", "stability_report", equilibria.stability_report, tr,
              check=lambda rep: self._check_stability(tr, rep))
        state = p.run("tocgl_s", "flux_to_cgl", flux.flux_to_cgl, self.solution, self.tau, self.tocgl_grid,
                      check=_check_tocgl)
        if state is not None:
            p.run("check_s", "flux_to_cgl two-grid check", self._two_grid, state, None,
                  check=lambda norms: _ratio_problem(*norms))

    def _scale(self, state):
        return equilibria.scale_state(state, self.t, self.s, pressure_factor="generator")

    @staticmethod
    def _two_grid(state, mask_radius):
        fine = equilibria.residual_norms(state, "cgl", mask_radius=mask_radius)
        coarse = equilibria.residual_norms(state.coarsen(), "cgl", mask_radius=mask_radius)
        return fine, coarse

    def _check_vortex(self, state) -> str | None:
        if np.any(state.tau.values != 0.0):
            return "isotropic vortex has nonzero tau"
        if abs(float(np.max(np.abs(state.psi.values))) - 1.0) > 1e-12:
            return "field-line label is not normalized"
        return None

    @staticmethod
    def _check_invariant(before, after) -> str | None:
        def invariant(s):
            return s.p_perp.values + 0.5 * s.tau.values * s.b_squared()

        err = _rel_err(invariant(after), invariant(before))
        return None if err <= EXACT_REL_TOL else f"p_perp + tau B^2/2 changed by {err:.3e}"

    def _check_rotation(self, src, out) -> str | None:
        rot = _zxz(*self.angles)
        X, Y, Z = self.points
        Xs, Ys, Zs = (rot.T @ np.stack([X, Y, Z]))
        want_b = rot @ np.asarray(src.evaluators.B(Xs, Ys, Zs))
        want_p = np.asarray(src.evaluators.p_perp(Xs, Ys, Zs))
        err = max(_rel_err(self._at_nodes(out.B.values), want_b), _rel_err(self._at_nodes(out.p_perp.values), want_p))
        return None if err <= EXACT_REL_TOL else f"rotated state differs from the rotated evaluators by {err:.3e}"

    def _check_translation(self, src, out) -> str | None:
        if out.meta.get("resampling") != "trilinear (lossy)":
            return "translation of a sampled-only state did not take the trilinear path"
        rot = _zxz(*self.angles)
        X, Y, Z = self.points
        shifted = np.stack([X - self.offset[0], Y - self.offset[1], Z - self.offset[2]])
        Xs, Ys, Zs = rot.T @ shifted
        want = np.asarray(src.evaluators.p_perp(Xs, Ys, Zs))
        got = self._at_nodes(out.p_perp.values)
        err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(src.p_perp.values)))
        tol = TRILINEAR_REL_TOL_PER_H * max(self.grid.spacing)
        return None if err <= tol else f"trilinear translation error {err:.3e} above {tol:.3e}"

    def _check_scale(self, src, out) -> str | None:
        X, Y, Z = (c / self.t for c in self.points)
        want_b = self.s * np.asarray(src.evaluators.B(X, Y, Z))
        want_p = self.s**2 * np.asarray(src.evaluators.p_perp(X, Y, Z))
        err = max(_rel_err(self._at_nodes(out.B.values), want_b), _rel_err(self._at_nodes(out.p_perp.values), want_p))
        return None if err <= EXACT_REL_TOL else f"scaled state differs from the scaled evaluators by {err:.3e}"

    @staticmethod
    def _check_stability(state, rep) -> str | None:
        c = rep.counts
        if c["applicable"] + c["not_applicable"] != state.grid.n_nodes:
            return "stability counts do not cover the grid"
        if c["fire_hose_unstable"]:
            return f"{c['fire_hose_unstable']} fire-hose unstable nodes with tau < 1"
        return None


def _check_tocgl(state) -> str | None:
    if float(np.max(state.tau.values)) >= 1.0:
        return "tau reaches 1"
    if equilibria.tau_consistency_error(state) > 1e-9:
        return "tau disagrees with (p_par - p_perp)/B^2"
    return None


# ---------------------------------------------------------------------------
# flux
# ---------------------------------------------------------------------------


class Flux:
    """Flux-function solves at three resolutions plus a small mapping."""

    nominal_pass_s = 6.5

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.problems = flux_problems(random.Random(seed), 33)
        self.shapes = sizes["flux_shapes"]
        self.tocgl_grid = sizes["flux_tocgl_grid"]
        # warm-up: both geometries once at the smallest size
        for prob in self.problems:
            problem, solver = flux.parse_problem_file(prob["text"])
            sol = flux.solve_flux(problem, **solver)
            flux.flux_to_cgl(sol, tau_text(sol, prob["tau_share"]), grid=flux.default_cartesian_box(problem, 9))

    def run_pass(self, p: Pass) -> None:
        for prob in self.problems:
            parsed = p.run(None, "parse_problem_file", flux.parse_problem_file, prob["text"])
            if parsed is None:
                continue
            problem, solver = parsed
            first = None
            for n in self.shapes:
                sol = p.run("solve_s", f"solve_flux {problem.geometry} {n}", flux.solve_flux, problem,
                            (n, n), solver["tol_outer"], solver["max_iter"], solver["omega"],
                            check=lambda s, exact=prob["exact"]: flux_error_problem(s, exact))
                first = first or sol
            if first is None:
                continue
            grid = flux.default_cartesian_box(problem, self.tocgl_grid)
            state = p.run("tocgl_s", f"flux_to_cgl {problem.geometry}", flux.flux_to_cgl, first,
                          tau_text(first, prob["tau_share"]), grid, check=_check_tocgl)
            if state is not None:
                p.run("check_s", f"flux_to_cgl two-grid check {problem.geometry}", States._two_grid, state,
                      None, check=lambda norms: _ratio_problem(*norms))


# ---------------------------------------------------------------------------
# readme_cli
# ---------------------------------------------------------------------------

CHILD_DEADLINE_S = 160.0
IMPORT_PROBE = "import time; t = time.perf_counter(); import plasmeq.cli; print(time.perf_counter() - t)"


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import(timeout: float = 60.0) -> tuple[float, float, float]:
    """(seconds of ``import plasmeq.cli`` timed inside a new interpreter, start, end of that process)."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=subprocess_env(), capture_output=True,
                          text=True, timeout=timeout, check=True)
    return float(done.stdout.strip().splitlines()[-1]), t0, time.perf_counter()


class ReadmeCli:
    """The README command sequence, one ``python -m plasmeq.cli`` at a time."""

    nominal_pass_s = 12.0

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        # every child process must have ended by then (a run must end within 180 s)
        self.deadline = time.monotonic() + CHILD_DEADLINE_S
        rng = random.Random(seed)
        self.dir = workdir
        self.sizes = sizes
        self.R = _r4(rng, 0.9, 1.1)
        self.n = rng.choice((1, 2, 3))
        a, b = _r4(rng, 0.2, 0.5), _r4(rng, 0.0, 0.3)
        self.M = f"1 + {a}*psi*sin(psi) + {b}*psi^2"
        prob = flux_problems(rng, sizes["readme_flux_shape"])[0]
        self.exact = prob["exact"]
        self.tau_share = prob["tau_share"]
        self.problem_file = workdir / "problem.flux"
        self.problem_file.write_text(prob["text"])
        self.tau = None
        self.tracer = None

    def _timeout(self) -> float:
        return max(5.0, self.deadline - time.monotonic())

    def _cli(self, tag: str, *argv: str):
        out = self.dir / tag
        cmd = ["--out", str(out), *argv]
        if self.tracer is None:
            full = [sys.executable, "-m", "plasmeq.cli", *cmd]
        else:
            spans_file = self.dir / f"{tag}.spans.json"
            full = [sys.executable, "-X", "importtime", str(SHIM), str(spans_file), *cmd]
        done = subprocess.run(full, env=subprocess_env(), capture_output=True, text=True, timeout=self._timeout())
        if self.tracer is not None:
            self._adopt(spans_file, done.stderr)
        with open(out / "report.json") as fh:
            return done.returncode, json.load(fh)

    def _adopt(self, spans_file: Path, stderr: str) -> None:
        from spans import parse_importtime

        with open(spans_file) as fh:
            child = json.load(fh)
        current = self.tracer.current()
        self.tracer.merge(child["spans"], child["counts"], current["id"] if current else None)
        cli_s, scipy_s = parse_importtime(stderr)
        self.tracer.counts["cli.import_us"] += round(cli_s * 1e6)
        self.tracer.counts["cli.import_scipy_us"] += round(scipy_s * 1e6)
        self.tracer.counts["cli.processes"] += 1

    def run_pass(self, p: Pass) -> None:
        d = str(self.dir)
        pde = str(DATA / "mhd_static.pde")
        p.run("detsys_s", "lie detsys", self._cli, "detsys", "lie", "detsys", pde,
              check=lambda res: _detsys_problem(res, PINNED_COUNTS["mhd"]))
        p.run("verify_s", "lie verify rotations", self._cli, "rot", "lie", "verify", pde,
              str(DATA / "mhd_rotations.gen"), check=lambda res: _exit_problem(res, 0))
        p.run("verify_s", "lie verify bogus", self._cli, "bogus", "lie", "verify", pde,
              str(DATA / "mhd_bogus.gen"), check=lambda res: _exit_problem(res, 3))
        grid = str(self.sizes["readme_vortex_grid"])
        p.run("sample_s", "vortex", self._cli, "vortex", "vortex", "--R", str(self.R), "--n", str(self.n),
              "--grid", grid, "--extent", str(1.2 * self.R), check=lambda res: _exit_problem(res, 0))
        p.run("transform_s", "transform", self._cli, "anis", "transform", "--state", f"{d}/vortex/state.csv",
              "--M", self.M, check=lambda res: _exit_problem(res, 0))
        p.run("check_s", "check transformed", self._cli, "check", "check", "--state", f"{d}/anis/transformed.csv",
              "--system", "cgl", "--mask-sphere", str(self.R), "--stability", check=_check_report_problem)
        p.run("solve_s", "flux solve", self._cli, "sol", "flux", "solve", str(self.problem_file),
              check=self._check_solution)
        if self.tau is None:
            return
        p.run("tocgl_s", "flux tocgl", self._cli, "state", "flux", "tocgl", f"{d}/sol/solution.json", "--tau",
              self.tau, "--grid", str(self.sizes["readme_tocgl_grid"]), check=lambda res: _exit_problem(res, 0))
        p.run("check_s", "check mapped", self._cli, "check2", "check", "--state", f"{d}/state/state.csv",
              "--system", "cgl", check=_check_report_problem)

    def _check_solution(self, res) -> str | None:
        problem = _exit_problem(res, 0)
        if problem:
            return problem
        sol = flux.load_solution(self.dir / "sol" / "solution.json")
        self.tau = tau_text(sol, self.tau_share)
        return flux_error_problem(sol, self.exact)


def _check_report_problem(res) -> str | None:
    problem = _exit_problem(res, 0)
    if problem:
        return problem
    report = res[1]
    ratios = report["convergence_ratios"]
    bad = {k: v for k, v in ratios.items() if not RATIO_BAND[0] <= v <= RATIO_BAND[1]}
    if bad:
        return f"convergence ratios {bad} outside {RATIO_BAND}"
    stability = report.get("stability")
    if stability and stability["counts"]["fire_hose_unstable"]:
        return "fire-hose unstable nodes in a state with tau < 1"
    return None


WORKLOADS = {"symbolic": Symbolic, "states": States, "flux": Flux, "readme_cli": ReadmeCli}
