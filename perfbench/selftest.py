"""Self-test of the benchmark harness at tiny sizes (a minute or two).

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits every end-to-end
metric with a unit and no failed operation, that a traced run emits every
per-layer metric, and that a deliberately wrong output raises
``fail_ratio``.  It also checks that ``BENCHMARK.json`` names the metrics
the harness emits.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.cap_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from plasmeq import cli, equilibria, fields, flux  # noqa: E402


@contextmanager
def patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _accept_everything(system, det, cand):
    return []


def _skewed_transform(state, spec, _original=equilibria.apply_infinite_transform):
    out = _original(state, spec)
    return dataclasses.replace(out, p_perp=fields.ScalarGrid(out.grid, out.p_perp.values * 1.001))


def _offset_solve(*args, _original=flux.solve_flux, **kwargs):
    sol = _original(*args, **kwargs)
    return dataclasses.replace(sol, psi=sol.psi + 1e-3)


def _corrupting_cli(self, tag, *argv, _original=workloads.ReadmeCli._cli):
    res = _original(self, tag, *argv)
    if tag == "sol":  # overwrite the written flux solution with a wrong one
        path = self.dir / "sol" / "psi.csv"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        data[:, 2] += 1e-3
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="r,zu,psi", comments="")
    return res


# a wrong output of the program for each workload, injected from outside
FAULTS = {
    "symbolic": (cli, "verify_generator", _accept_everything),
    "states": (equilibria, "apply_infinite_transform", _skewed_transform),
    "flux": (flux, "solve_flux", _offset_solve),
    "readme_cli": (workloads.ReadmeCli, "_cli", _corrupting_cli),
}


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"SELFTEST FAIL: {message}")
        sys.exit(1)


def check_benchmark_file() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS,
           "BENCHMARK.json per_layer differs from spans.PER_LAYER_UNITS")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")


def main() -> int:
    check_benchmark_file()
    for name in run.WORKLOAD_NAMES:
        res = run.run_workload(name, seed=1, seconds=0, trace=False, size="tiny")
        wanted = [n for n, _ in run.END_TO_END] + list(run.WORKLOAD_OPERATIONS[name]) + ["fail_ratio"]
        expect(sorted(res["metrics"]) == sorted(wanted), f"{name}: metrics {sorted(res['metrics'])}")
        expect(all(unit for _, unit in res["metrics"].values()), f"{name}: a metric has no unit")
        expect(res["metrics"]["fail_ratio"][0] == 0.0, f"{name}: clean run failed: {res['failures']}")

        traced = run.run_workload(name, seed=1, seconds=0, trace=True, size="tiny")
        expect(list(traced.get("per_layer", {})) == list(spans.PER_LAYER_UNITS), f"{name}: per-layer metrics")
        expect(traced["metrics"]["fail_ratio"][0] == 0.0, f"{name}: traced run failed: {traced['failures']}")

        with patched(*FAULTS[name]):
            bad = run.run_workload(name, seed=1, seconds=0, trace=False, size="tiny")
        expect(bad["metrics"]["fail_ratio"][0] > 0.0, f"{name}: a wrong output left fail_ratio at 0")
        print(f"selftest {name}: ok ({len(res['metrics'])} end-to-end, {len(traced['per_layer'])} per-layer "
              f"metrics; injected fault -> fail_ratio {bad['metrics']['fail_ratio'][0]:.3f})")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
