"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``TRACED`` by a
wrapper, in every loaded ``som_atlas`` module that holds a reference to it
(``from .x import f`` copies the reference, so patching only the defining
module would miss most call sites). A wrapper records one span: name, start,
end, parent, and the work the call did as attributes taken from its
arguments and result. A re-entrant call of a function already on the span
stack (``parse_csv`` reopening itself on a path) is passed straight through.

With ``memory=True`` the spans listed in ``MEMORY`` also measure their peak
Python/numpy allocation with ``tracemalloc``. Tracing allocations slows the
training kernel several times over, so memory is measured in a pass of its
own and never in the pass whose times are reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

# (module, function) pairs wrapped in the traced run; the module is the layer.
TRACED = (
    ("cli", "main"),
    ("cli", "cmd_train"),
    ("cli", "cmd_classify"),
    ("cli", "cmd_cluster"),
    ("cli", "cmd_planes"),
    ("cli", "cmd_correlate"),
    ("ingest", "parse_csv"),
    ("ingest", "normalize"),
    ("hexgrid", "distance_matrix"),
    ("som", "train"),
    ("som", "quantization_error"),
    ("som", "init_codebook"),
    ("kernels", "train_loop"),
    ("kernels", "bmu"),
    ("analysis", "classify"),
    ("analysis", "kmeans_codebook"),
    ("analysis", "cluster_stats"),
    ("analysis", "plane_correlation"),
    ("render", "render_plane"),
    ("render", "render_cluster_map"),
    ("model_io", "loads_model"),
    ("model_io", "dumps_model"),
    ("fileio", "atomic_write_bytes"),
)
LAYERS = tuple(dict.fromkeys(module for module, _ in TRACED))
MEMORY = frozenset({"hexgrid.distance_matrix", "som.train"})


def _train_loop_work(a, result):
    # Operation count and minimum float64 traffic of the reference kernel,
    # computed from shapes: every step scans the codebook for the winner
    # (subtract, square, add per weight); a cooperative step then updates
    # every weight (subtract, scale, add) after scaling the neighbourhood
    # row, a competitive step only the winner's.
    n, dim = a["weights"].shape
    steps = len(a["order"])
    coop = max(0, min(steps, int(a["competitive_start"])))
    return {
        "steps": steps,
        "flops": 3 * steps * n * dim + coop * (n + 3 * n * dim) + (steps - coop) * 3 * dim,
        "bytes": 8 * steps * n * dim + coop * (16 * n * dim + 4 * n),
    }


def _ppm_pixels(data: bytes) -> int:
    _, w, h = data.split(maxsplit=3)[:3]
    return int(w) * int(h)


def _render_plane_work(a, result):
    fmt = a.get("format", "svg")
    return {"format": fmt, "pixels": _ppm_pixels(result)} if fmt == "ppm" else {"format": fmt}


# Work attributes per span name, from the bound arguments and the result.
WORK = {
    "kernels.train_loop": _train_loop_work,
    "hexgrid.distance_matrix": lambda a, r: {"bytes": int(r.nbytes)},
    "ingest.parse_csv": lambda a, r: {"rows": r.n_rows + len(r.dropped_rows)},
    "analysis.classify": lambda a, r: {"rows": len(r)},
    "render.render_plane": _render_plane_work,
    "fileio.atomic_write_bytes": lambda a, r: {"bytes": len(a["data"])},
}


class _MemoryMeter:
    """Peak traced allocation inside nested spans, relative to their entry."""

    def __init__(self):
        self._frames = []  # [allocated at entry, highest allocation seen]

    def enter(self) -> None:
        if not self._frames:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._frames:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._frames.append([current, current])

    def exit(self) -> float:
        """MB allocated at the span's peak beyond what it started with."""
        base, top = self._frames.pop()
        top = max(top, tracemalloc.get_traced_memory()[1])
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], top)
        else:
            tracemalloc.stop()
        return (top - base) / 1e6


class Tracer:
    """Records spans as ``[id, parent, name, start, end, attrs]`` lists."""

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: set = set()
        self._meter = _MemoryMeter() if memory else None
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every function in TRACED that the loaded program defines."""
        for module_name, func_name in TRACED:
            module = importlib.import_module(f"som_atlas.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:  # renamed or removed since this list was written
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for name, mod in list(sys.modules.items()):
                if name != "som_atlas" and not name.startswith("som_atlas."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):  # a compiled function may not expose one
            work = None
        meter = self._meter if name in MEMORY else None
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fn in active:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, {}]
            spans.append(span)
            stack.append(span[0])
            active.add(fn)
            if meter:
                meter.enter()
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5]["error"] = type(exc).__name__
                raise
            finally:
                span[4] = time.perf_counter()
                if meter:
                    span[5]["peak_mb"] = meter.exit()
                active.discard(fn)
                stack.pop()
            if work:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5].update(work(bound.arguments, result))
                except (KeyError, AttributeError, TypeError, ValueError):
                    # The program changed shape under this probe: keep the
                    # span, drop the work count rather than fail the run.
                    pass
            return result

        return traced


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on an empty function."""
    tracer = Tracer()

    def empty():
        return None

    wrapped = tracer._wrap("calibration", empty)
    t0 = time.perf_counter()
    for _ in range(calls):
        empty()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


# Per-layer metrics of the traced run: (name, unit, better). ``<name>.s`` is
# the summed duration of the function's spans; rates divide a work attribute
# by that time. A function the workload never calls reports 0.
PER_LAYER = (
    ("cli.main.s", "s", "lower"),
    ("cli.main.untraced_s", "s", "lower"),
    ("cli.main.trace_overhead_s", "s", "lower"),
    ("cli.main.span_cost_s", "s", "lower"),
    ("cli.cmd_train.s", "s", "lower"),
    ("cli.cmd_classify.s", "s", "lower"),
    ("cli.cmd_cluster.s", "s", "lower"),
    ("cli.cmd_planes.s", "s", "lower"),
    ("cli.cmd_correlate.s", "s", "lower"),
    ("ingest.parse_csv.s", "s", "lower"),
    ("ingest.parse_csv.rows_per_s", "1/s", "higher"),
    ("ingest.normalize.s", "s", "lower"),
    ("hexgrid.distance_matrix.s", "s", "lower"),
    ("hexgrid.distance_matrix.peak_mb", "MB", "lower"),
    ("hexgrid.distance_matrix.bytes", "B", "lower"),
    ("som.train.s", "s", "lower"),
    ("som.train.self_s", "s", "lower"),
    ("som.train.peak_mb", "MB", "lower"),
    ("som.quantization_error.s", "s", "lower"),
    ("som.init_codebook.s", "s", "lower"),
    ("kernels.train_loop.s", "s", "lower"),
    ("kernels.train_loop.steps", "count", "lower"),
    ("kernels.train_loop.steps_per_s", "1/s", "higher"),
    ("kernels.train_loop.flops", "flop_computed", "lower"),
    ("kernels.train_loop.bytes", "B_computed", "lower"),
    ("kernels.bmu.calls", "count", "lower"),
    ("kernels.bmu.s", "s", "lower"),
    ("analysis.classify.s", "s", "lower"),
    ("analysis.classify.rows_per_s", "1/s", "higher"),
    ("analysis.kmeans_codebook.s", "s", "lower"),
    ("analysis.cluster_stats.s", "s", "lower"),
    ("analysis.plane_correlation.s", "s", "lower"),
    ("render.render_plane.ppm_s", "s", "lower"),
    ("render.render_plane.ppm_pixels_per_s", "1/s", "higher"),
    ("render.render_plane.svg_s", "s", "lower"),
    ("render.render_cluster_map.s", "s", "lower"),
    ("model_io.loads_model.s", "s", "lower"),
    ("model_io.dumps_model.s", "s", "lower"),
    ("fileio.atomic_write_bytes.s", "s", "lower"),
    ("fileio.atomic_write_bytes.bytes", "B", "lower"),
) + tuple((f"{layer}.errors", "count", "lower") for layer in LAYERS)


def layer_metrics(spans, memory_spans, untraced_s: float, cost: float) -> dict[str, float]:
    """Every PER_LAYER value from the spans of one traced and one memory pass."""

    def pick(name, **attrs):
        return [
            s for s in spans if s[2] == name and all(s[5].get(k) == v for k, v in attrs.items())
        ]

    def seconds(name, **attrs):
        return sum((s[4] - s[3] for s in pick(name, **attrs)), 0.0)

    def work(name, key, **attrs):
        return sum(s[5].get(key, 0) for s in pick(name, **attrs))

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    own = self_times(spans)
    main_s = seconds("cli.main")
    loop_s = seconds("kernels.train_loop")
    parse_s = seconds("ingest.parse_csv")
    classify_s = seconds("analysis.classify")
    ppm_s = seconds("render.render_plane", format="ppm")
    values = {
        "cli.main.s": main_s,
        "cli.main.untraced_s": untraced_s,
        "cli.main.trace_overhead_s": main_s - untraced_s,
        "cli.main.span_cost_s": len(spans) * cost,
        "ingest.parse_csv.rows_per_s": rate(work("ingest.parse_csv", "rows"), parse_s),
        "hexgrid.distance_matrix.bytes": work("hexgrid.distance_matrix", "bytes"),
        "som.train.self_s": sum(own[s[0]] for s in pick("som.train")),
        "kernels.train_loop.steps": work("kernels.train_loop", "steps"),
        "kernels.train_loop.steps_per_s": rate(work("kernels.train_loop", "steps"), loop_s),
        "kernels.train_loop.flops": work("kernels.train_loop", "flops"),
        "kernels.train_loop.bytes": work("kernels.train_loop", "bytes"),
        "kernels.bmu.calls": len(pick("kernels.bmu")),
        "analysis.classify.rows_per_s": rate(work("analysis.classify", "rows"), classify_s),
        "render.render_plane.ppm_s": ppm_s,
        "render.render_plane.ppm_pixels_per_s": rate(
            work("render.render_plane", "pixels", format="ppm"), ppm_s
        ),
        "render.render_plane.svg_s": seconds("render.render_plane", format="svg"),
        "fileio.atomic_write_bytes.bytes": work("fileio.atomic_write_bytes", "bytes"),
    }
    for name in MEMORY:
        values[f"{name}.peak_mb"] = max(
            (s[5].get("peak_mb", 0.0) for s in memory_spans if s[2] == name), default=0.0
        )
    for layer in LAYERS:
        values[f"{layer}.errors"] = sum(
            1 for s in spans if s[2].startswith(layer + ".") and "error" in s[5]
        )
    return {
        name: values[name] if name in values else seconds(name[: -len(".s")])
        for name, _, _ in PER_LAYER
    }
