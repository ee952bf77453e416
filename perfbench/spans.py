"""In-memory span tracing of plasmeq's layers, installed from outside.

A ``Tracer`` keeps spans (id, parent id, name, start, end, attributes) and
counters in memory; ``install`` wraps plasmeq's public functions so that
each call records a span.  A wrapped function is re-bound under every name
that refers to it in any ``plasmeq`` module, so names imported into another
module (``cli.build_determining_system``, ``flux.sample_scalar``,
``lie.collect``) nest like the originals.  Nothing under ``src/`` changes.

``layer_metrics`` turns the spans of the traced passes into the per-layer
metrics; a layer's self time is its span's duration minus the time covered
by its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None, "name": name,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def current(self) -> dict | None:
        return self.spans[self._stack[-1]] if self._stack else None

    # -- wrapping -----------------------------------------------------------
    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "plasmeq" or mod_name.startswith("plasmeq."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, replacement)

    def _wrapper(self, func, name: str, after, span: bool, describe):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            if not span:
                return func(*args, **kwargs)
            with self.span(name, **(describe(args) if describe else {})) as rec:
                result = func(*args, **kwargs)
                if after is not None:
                    replaced = after(self, result, args, kwargs, rec)
                    if replaced is not None:
                        result = replaced
            return result

        return wrapper

    def wrap_function(self, func, name: str, after=None, span: bool = True, describe=None) -> None:
        """Record a span named ``name`` around every call of ``func`` (or
        only count the calls); ``describe(args)`` gives extra span
        attributes, and ``after(tracer, result, args, kwargs, rec)`` may
        count and may return a replacement result."""
        self._rebind(func, self._wrapper(func, name, after, span, describe))

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, after, True, None))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def merge(self, spans: list[dict], counts: dict, parent: int | None) -> None:
        """Adopt spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=rec["id"] + offset)
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + offset
            self.spans.append(rec)
        self.counts.update(counts)


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------

_STENCILS = ("gradient", "divergence", "curl", "directional")


def _after_det(tracer, det, args, kwargs, rec):
    rec["count"] = det.count
    rec["raw"] = det.stats["raw"]


def _after_sample(tracer, result, args, kwargs, rec):
    rec["nodes"] = result.grid.n_nodes


def _after_stencil(tracer, result, args, kwargs, rec):
    parent = tracer.spans[rec["parent"]] if rec["parent"] is not None else None
    if parent is None or parent["name"] != "fields.stencil":
        # computed from array sizes: every input read once, the output written once
        rec["bytes"] = sum(a.values.nbytes for a in args) + result.values.nbytes


def _after_write_csv(tracer, result, args, kwargs, rec):
    rec["bytes"] = os.path.getsize(args[0])


def _after_read_csv(tracer, result, args, kwargs, rec):
    rec["bytes"] = os.path.getsize(args[0])


def _describe_cli(args) -> dict:
    """The subcommand of a ``cli.main(argv)`` call, e.g. ``lie verify``."""
    argv = list(args[0]) if args and args[0] is not None else sys.argv[1:]
    words = [w for i, w in enumerate(argv) if not w.startswith("-") and (i == 0 or argv[i - 1] != "--out")]
    return {"command": " ".join(words[:2] if words and words[0] in ("lie", "flux") else words[:1])}


def _after_solve(tracer, sol, args, kwargs, rec):
    rec["iterations"] = sol.iterations
    rec["unknowns"] = (len(sol.r) - 2) * (len(sol.zu) - 2)


def _after_point_transform(tracer, state, args, kwargs, rec):
    if state.meta.get("resampling") == "trilinear (lossy)":
        tracer.counts["equilibria.interp_resamples"] += 1


def _after_vortex(tracer, state, args, kwargs, rec):
    """Count the calls plasmeq makes into the base state's evaluators (the
    benchmark's own output checks call them outside any layer span)."""
    ev = state.evaluators
    if ev is None:
        return None

    def counted(fn):
        @functools.wraps(fn)
        def inner(*a, **k):
            current = tracer.current()
            if current is not None and current["name"] != "pass":
                tracer.counts["equilibria.evaluator_calls"] += 1
            return fn(*a, **k)

        return inner

    fields = {f.name: counted(getattr(ev, f.name)) for f in dataclasses.fields(ev)}
    return dataclasses.replace(state, evaluators=dataclasses.replace(ev, **fields))


def _after_spline(tracer, spline, args, kwargs, rec):
    ev = spline.ev

    def counted_ev(*a, **k):
        tracer.counts["flux.spline_ev"] += 1
        return ev(*a, **k)

    spline.ev = counted_ev


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module."""
    from plasmeq import cli, equilibria, expr, fields, flux, lie, systems

    tracer.wrap_function(cli.main, "cli.main", describe=_describe_cli)
    tracer.wrap_method(expr.Context, "parse", "expr.parse")
    tracer.wrap_function(expr.parse_program, "expr.parse")
    tracer.wrap_function(expr.collect, "expr.collect")
    tracer.wrap_function(expr.compile_numeric, "expr.compile_numeric", span=False)
    tracer.wrap_function(lie.build_determining_system, "lie.build_determining_system", after=_after_det)
    tracer.wrap_function(lie.reduce_on_manifold, "lie.reduce_on_manifold")
    tracer.wrap_function(lie.verify_generator, "lie.verify_generator")
    tracer.wrap_function(systems.load_system, "systems.load_system")
    tracer.wrap_function(fields.sample_scalar, "fields.sample", after=_after_sample)
    tracer.wrap_function(fields.sample_vector, "fields.sample", after=_after_sample)
    for name in _STENCILS:
        tracer.wrap_function(getattr(fields, name), "fields.stencil", after=_after_stencil)
    tracer.wrap_function(fields.norm, "fields.norm")
    tracer.wrap_function(fields.write_csv, "fields.write_csv", after=_after_write_csv)
    tracer.wrap_function(fields.read_csv, "fields.read_csv", after=_after_read_csv)
    tracer.wrap_function(equilibria.vortex_state, "equilibria.vortex_state", after=_after_vortex)
    tracer.wrap_function(equilibria.apply_infinite_transform, "equilibria.apply_infinite_transform")
    for name in ("rotate_state", "translate_state", "scale_state"):
        tracer.wrap_function(
            getattr(equilibria, name), "equilibria.point_transform", after=_after_point_transform
        )
    tracer.wrap_function(equilibria.residual_norms, "equilibria.residual_norms")
    tracer.wrap_function(equilibria.stability_report, "equilibria.stability_report")
    tracer.wrap_function(flux.solve_flux, "flux.solve_flux", after=_after_solve)
    tracer.wrap_function(flux.splu, "flux.splu")
    tracer.wrap_function(flux.flux_to_cgl, "flux.flux_to_cgl")
    tracer.wrap_function(flux.quad, "flux.quad", span=False)
    tracer.wrap_method(flux.FluxSolution, "spline", "flux.spline", after=_after_spline)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIMES = (
    "cli.main",
    "expr.parse",
    "expr.collect",
    "lie.build_determining_system",
    "lie.reduce_on_manifold",
    "lie.verify_generator",
    "systems.load_system",
    "fields.sample",
    "fields.stencil",
    "fields.norm",
    "fields.write_csv",
    "fields.read_csv",
    "equilibria.vortex_state",
    "equilibria.apply_infinite_transform",
    "equilibria.point_transform",
    "equilibria.residual_norms",
    "equilibria.stability_report",
    "flux.solve_flux",
    "flux.splu",
    "flux.flux_to_cgl",
)
CALLS = (
    "expr.parse",
    "expr.collect",
    "expr.compile_numeric",
    "lie.build_determining_system",
    "lie.reduce_on_manifold",
    "lie.verify_generator",
    "fields.sample",
    "flux.quad",
)

# name -> unit of every per-layer metric, in the order they are reported
PER_LAYER_UNITS: dict[str, str] = {}
for _n in SELF_TIMES:
    PER_LAYER_UNITS[f"{_n}.self_s"] = "s"
for _n in CALLS:
    PER_LAYER_UNITS[f"{_n}.calls"] = "count"
PER_LAYER_UNITS.update(
    {
        "cli.import_s": "s",
        "cli.import_scipy_s": "s",
        "expr.mul_s": "s",
        "expr.substitute_s": "s",
        "expr.hash_s": "s",
        "lie.det_builds_per_verify": "ratio",
        "lie.equations": "count",
        "lie.unique_ratio": "ratio",
        "fields.sample.nodes": "count",
        "fields.stencil.bytes": "bytes_computed",
        "fields.write_csv.bytes": "bytes",
        "fields.read_csv.bytes": "bytes",
        "equilibria.evaluator_calls": "count",
        "equilibria.interp_resamples": "count",
        "flux.iterations": "count",
        "flux.unknown_updates_per_s": "1/s",
        "flux.spline_ev_per_tocgl": "count",
        "trace.overhead_ratio": "ratio",
    }
)


def self_times(spans: list[dict]) -> dict[str, float]:
    covered = defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["end"] - rec["start"]
    out: dict[str, float] = defaultdict(float)
    for rec in spans:
        out[rec["name"]] += rec["end"] - rec["start"] - covered[rec["id"]]
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass per-layer values from the spans of ``passes`` traced passes
    (the import and probe metrics are filled in by the caller)."""
    spans = tracer.spans
    own = self_times(spans)
    by_id = {rec["id"]: rec for rec in spans}
    out: dict[str, float] = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = own.get(name, 0.0) / passes
    for name in CALLS:
        out[f"{name}.calls"] = tracer.counts.get(f"{name}.calls", 0) / passes

    def verify_ancestor(rec) -> bool:
        while rec["parent"] is not None:
            rec = by_id[rec["parent"]]
            if rec["name"] == "cli.main" and rec.get("command") == "lie verify":
                return True
        return False

    dets = [r for r in spans if r["name"] == "lie.build_determining_system"]
    verifies = [r for r in spans if r["name"] == "cli.main" and r.get("command") == "lie verify"]
    out["lie.det_builds_per_verify"] = (
        sum(1 for r in dets if verify_ancestor(r)) / len(verifies) if verifies else 0.0
    )
    out["lie.equations"] = sum(r["count"] for r in dets) / passes
    raw = sum(r["raw"] for r in dets)
    out["lie.unique_ratio"] = sum(r["count"] for r in dets) / raw if raw else 0.0

    def total(name, key):
        return sum(r.get(key, 0) for r in spans if r["name"] == name)

    out["fields.sample.nodes"] = total("fields.sample", "nodes") / passes
    out["fields.stencil.bytes"] = total("fields.stencil", "bytes") / passes
    out["fields.write_csv.bytes"] = total("fields.write_csv", "bytes") / passes
    out["fields.read_csv.bytes"] = total("fields.read_csv", "bytes") / passes
    out["equilibria.evaluator_calls"] = tracer.counts.get("equilibria.evaluator_calls", 0) / passes
    out["equilibria.interp_resamples"] = tracer.counts.get("equilibria.interp_resamples", 0) / passes

    solves = [r for r in spans if r["name"] == "flux.solve_flux"]
    solve_time = sum(r["end"] - r["start"] for r in solves)
    out["flux.iterations"] = sum(r["iterations"] for r in solves) / len(solves) if solves else 0.0
    updates = sum(r["iterations"] * r["unknowns"] for r in solves)
    out["flux.unknown_updates_per_s"] = updates / solve_time if solve_time else 0.0
    tocgl = tracer.counts.get("flux.flux_to_cgl.calls", 0)
    out["flux.spline_ev_per_tocgl"] = tracer.counts.get("flux.spline_ev", 0) / tocgl if tocgl else 0.0
    return out


# ---------------------------------------------------------------------------
# Import cost from ``python -X importtime``
# ---------------------------------------------------------------------------


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(seconds importing plasmeq and plasmeq.cli, seconds in scipy modules)."""
    cli_us = 0
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
        if name in ("plasmeq", "plasmeq.cli"):
            cli_us += cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return cli_us / 1e6, scipy_us / 1e6
