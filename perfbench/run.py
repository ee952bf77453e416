"""plasmeq benchmark: one workload, one seed, a fixed measuring window.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The load is a closed loop with one
client: one operation at a time, the next when the previous one returns.
A run makes ``--seconds`` divided by the workload's nominal pass time
passes (at least one).  Every output is checked; a wrong answer is a failed
operation.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The lines before it list every metric of the workload by name and unit,
and the environment; ``perfbench/out/`` keeps the same as JSON, plus the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("symbolic", "states", "flux", "readme_cli")
SETUP_REPEATS = 5
# a traced run starts with an untraced warm-up pass when all its passes fit
# in this many nominal seconds (the long symbolic pass is pure Python, whose
# first pass is not slower, and a run must end within 180 s)
TRACE_WARMUP_LIMIT_S = 60.0

# (name, unit) of the end-to-end metrics every workload reports; BENCHMARK.json lists the same
END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# end-to-end metrics of single operation kinds, reported by the workloads that run them
OPERATION_METRICS = ("detsys_s", "verify_s", "sample_s", "transform_s", "check_s", "solve_s", "tocgl_s")
WORKLOAD_OPERATIONS = {
    "symbolic": ("detsys_s", "verify_s"),
    "states": ("sample_s", "transform_s", "check_s", "tocgl_s"),
    "flux": ("solve_s", "tocgl_s", "check_s"),
    "readme_cli": OPERATION_METRICS + ("import_s",),
}
# systems whose determining equations the traced-run kernel probe uses
PROBE_SYSTEMS = {"symbolic": None, "readme_cli": ("mhd",), "states": (), "flux": ()}


def cap_threads() -> None:
    """BLAS/OpenMP threads equal to the CPUs this process may use, whatever
    the environment says; must run before numpy is imported."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def environment(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in lscpu.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    field_mb = 129**3 * 8 / 2**20
    return {
        "git_revision": rev or "unknown (not a git checkout)",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "caches": caches,
        "bytes_per_129^3_field": 129**3 * 8,
        "note": (
            f"a 129^3 scalar field is {field_mb:.1f} MiB (a vector field {3 * field_mb:.1f} MiB); "
            "arrays are not >= 4x the last-level cache, so no bandwidth claim is made"
        ),
    }


def expr_probe(systems_names, repeats: int = 3) -> dict[str, float]:
    """Kernel times over the determining equations of the given systems:
    products of neighbouring equations, substitution of every unknown, and
    hashing of every monomial and coefficient.  Traced runs only."""
    from plasmeq import expr, lie, systems

    out = {"expr.mul_s": 0.0, "expr.substitute_s": 0.0, "expr.hash_s": 0.0}
    for name in systems_names:
        system = systems.load_system(name)
        eqs = lie.build_determining_system(system).equations
        x = system.context.var(system.context.independents[0].name)
        replacement = expr.ONE + x

        def resolver(atom):
            return replacement if isinstance(atom, expr.FnAtom) else None

        for _ in range(repeats):
            t0 = time.perf_counter()
            for a, b in zip(eqs, eqs[1:]):
                a * b
            t1 = time.perf_counter()
            for e in eqs:
                e.substitute_atoms(resolver)
            t2 = time.perf_counter()
            for e in eqs:
                for mono, coeff in e.terms():
                    hash(mono)
                    hash(coeff)
            t3 = time.perf_counter()
            out["expr.mul_s"] += (t1 - t0) / repeats
            out["expr.substitute_s"] += (t2 - t1) / repeats
            out["expr.hash_s"] += (t3 - t2) / repeats
    return out


def importtime_probe() -> tuple[float, float]:
    from spans import parse_importtime
    from workloads import subprocess_env

    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import plasmeq.cli"], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return parse_importtime(done.stderr)


def measure(workload, passes: int, tracer=None) -> list:
    """Run ``passes`` timed passes of the workload."""
    from workloads import Pass

    done = []
    for index in range(passes):
        p = Pass()
        p.start = time.perf_counter()
        if tracer is None:
            workload.run_pass(p)
        else:
            with tracer.span("pass", index=index):
                workload.run_pass(p)
        p.end = time.perf_counter()
        done.append(p)
    return done


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, measure and check one workload; returns the full result."""
    import spans
    import workloads
    from speed import SpeedProbe

    probe = SpeedProbe().start()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    cls = workloads.WORKLOADS[name]
    raw = {"probe": probe, "setups": []}
    try:
        # A set-up is what a user pays before the first operation: a fresh
        # ``import plasmeq.cli`` (timed in a new interpreter, since this one
        # has imported it already) plus input generation and warm-up.
        for _ in range(SETUP_REPEATS):
            imported = workloads.fresh_import()
            t0 = time.perf_counter()
            workload = cls(seed, workloads.SIZES[size], workdir)
            raw["setups"].append((imported, t0, time.perf_counter()))

        # A fixed number of passes per run, so that every run of a workload
        # takes the same samples (the first pass of a process is the slowest).
        n_passes = max(1, int(seconds // workload.nominal_pass_s))
        if trace and (2 * n_passes + 1) * workload.nominal_pass_s <= TRACE_WARMUP_LIMIT_S:
            measure(workload, 1)  # warm-up, so untraced and traced passes start equally warm
        raw["passes"] = measure(workload, n_passes)
        if trace:
            tracer = spans.Tracer()
            if name == "readme_cli":
                workload.tracer = tracer  # the commands trace themselves (cli_shim.py)
            else:
                spans.install(tracer)
            try:
                raw["traced"] = measure(workload, n_passes, tracer)
            finally:
                tracer.uninstall()
            raw["tracer"] = tracer
            systems = PROBE_SYSTEMS[name]
            raw["kernel"] = expr_probe(workloads.SIZES[size]["systems"] if systems is None else systems)
            if name == "readme_cli":
                n = tracer.counts.get("cli.processes", 0) or 1
                raw["import"] = (tracer.counts["cli.import_us"] / 1e6 / n,
                                 tracer.counts["cli.import_scipy_us"] / 1e6 / n)
            else:
                raw["import"] = importtime_probe()
        if name == "readme_cli":
            import resource

            raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        else:
            raw["peak_rss_mb"] = workloads.rss_mb()
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(name, raw)


def summarize(name: str, raw: dict) -> dict:
    """Metrics of one run.  Times are at the reference CPU speed (see
    ``speed.py``); raw wall times and the measured slowdown are kept too."""
    import spans

    probe = raw["probe"]
    passes = raw["passes"]
    all_passes = passes + raw.get("traced", [])
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    scaled = [probe.scaled(p.start, p.end) for p in passes]
    walls = [p.end - p.start for p in passes]
    imports = [v * probe.factor(a, b) for (v, a, b), _, _ in raw["setups"]]
    setups = [imp + probe.scaled(t0, t1) for imp, (_, t0, t1) in zip(imports, raw["setups"])]
    metrics = {
        "pass_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    for op in WORKLOAD_OPERATIONS[name]:
        if op == "import_s":
            value = statistics.median(imports)
        else:
            value = statistics.median(
                sum(probe.scaled(a, b) for metric, a, b in p.intervals if metric == op) for p in passes
            )
        metrics[op] = (value, "s")
    metrics["fail_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
    out = {
        "workload": name,
        "samples": {"pass_s": len(walls)},
        "pass_scaled_s": scaled,
        "pass_wall_s": walls,
        "slowdown": statistics.median(w / s for w, s in zip(walls, scaled)),
        "setup_parts_s": {"imports": imports, "setups": setups},
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in all_passes for f in p.failures],
        "metrics": metrics,
    }
    if "traced" in raw:
        tracer = raw["tracer"]
        traced = raw["traced"]
        layer = spans.layer_metrics(tracer, len(traced))
        layer.update(raw["kernel"])
        layer["cli.import_s"], layer["cli.import_scipy_s"] = raw["import"]
        # per-layer seconds at the reference speed, like the end-to-end ones
        factor = statistics.median(probe.factor(p.start, p.end) for p in traced)
        for key, unit in spans.PER_LAYER_UNITS.items():
            if unit == "s":
                layer[key] *= factor
            elif unit == "1/s":
                layer[key] /= factor
        traced_s = statistics.median(probe.scaled(p.start, p.end) for p in traced)
        layer["trace.overhead_ratio"] = traced_s / statistics.median(scaled)
        out["per_layer"] = {k: (layer[k], unit) for k, unit in spans.PER_LAYER_UNITS.items()}
        out["tracer"] = tracer
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plasmeq" / "cli.py").is_file():
        print(f"error: no plasmeq sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one CPU for the benchmark and its children, so that the speed probe
    # samples the CPU that does the work
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(nproc, cpu)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {k: v for k, v in res.items() if k != "tracer"}
    record["environment"] = env
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if "tracer" in res:
        res["tracer"].dump(OUT / f"{tag}.spans.json")

    print("env " + json.dumps(env, sort_keys=True))
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(f"samples pass_s {res['samples']['pass_s']}; median CPU slowdown {res['slowdown']:.3f}; "
          f"pass wall times {[round(w, 3) for w in res['pass_wall_s']]} s")
    for key in ("metrics", "per_layer"):
        for mname, (value, unit) in res.get(key, {}).items():
            print(f"metric {mname} {value:.6g} {unit}")
    chosen = res["per_layer"] if args.trace else {k: res["metrics"][k] for k, _ in END_TO_END}
    final = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
