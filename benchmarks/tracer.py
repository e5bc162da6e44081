"""Span tracer for the traced benchmark run.

The tracer wraps the public statorlab functions that ``statorlab.cli`` and
the workloads call, records one span per call (name, start, end, parent,
op id) in memory, and is dumped when the run ends.  It patches module
attributes at run time, from the benchmark's own files only; nothing in
``src/`` knows about it, and ``uninstall`` restores every original.

Besides the spans of the program's own calls, the tracer runs two probes
after each op, outside the op's own time: ``modal.assemble`` on the same
(plate, n, mesh) inputs as each ``solve_modes`` call, and
``modal.mode_shape_eval`` of every basis mode on each grid the op rendered
on.  They show assembly's share of a solve and the shape-evaluation cost
of rendering, neither of which is a public call inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import warnings

CLOCK = time.monotonic      # CLOCK_MONOTONIC: comparable across processes

# A span is a list in this field order.
SPAN_FIELDS = ("name", "start", "end", "parent", "op", "error", "own_failure",
               "attrs")
NAME, START, END, PARENT, OP, ERROR, OWN, ATTRS = range(len(SPAN_FIELDS))

LAYERS = ("config", "geometry", "modal", "dynamics", "grids", "holography",
          "analysis", "ioutil", "reference", "cli")

# Public functions wrapped per module.  Every alias of the same function
# object inside the statorlab package (``from .modal import solve_modes``
# in cli, the package re-exports) is patched as well.
FUNCTIONS = {
    "config": ("validate_config", "default_config", "apply_overrides",
               "deep_merge", "load_config"),
    "geometry": ("homogenize",),
    "modal": ("solve_modes", "calibrate", "format_radial_profiles"),
    "dynamics": ("respond", "field_envelope", "snapshot_at_strobe",
                 "field_at", "probe", "calibrate_force_per_volt",
                 "settling_damping_ratio"),
    "grids": ("circle_values",),
    "holography": ("time_averaged", "stroboscopic",
                   "unwrap_to_displacement"),
    "analysis": ("detect_mode_number", "fit_eq1", "track_strobe_phase",
                 "asymmetry_index"),
    "ioutil": ("atomic_write_bytes", "atomic_write_text", "write_csv",
               "write_pgm", "write_field_f32"),
    "reference": ("build_report",),
}
# Methods are patched on their class, which keeps isinstance checks on the
# real classes working; grid construction is all in __post_init__.
METHODS = (("grids", "RasterGrid", "__post_init__", "grids.RasterGrid"),
           ("grids", "RingGrid", "__post_init__", "grids.RingGrid"),
           ("analysis", "CircleSample", "from_field",
            "analysis.CircleSample.from_field"))


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.recording = True
        self._stack = []
        self._seen_errors = set()
        self._restore = []
        self._solves = []        # (plate, first n, last n, disc) per solve
        self._renders = {}       # (id(basis), id(grid)) -> (basis, grid)

    # -- spans ---------------------------------------------------------
    def begin(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, CLOCK(), None, parent, self.op, None, False,
                           attrs or {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx, exc=None):
        span = self.spans[idx]
        span[END] = CLOCK()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")
        if exc is not None:
            span[ERROR] = type(exc).__name__
            span[OWN] = id(exc) not in self._seen_errors
            self._seen_errors.add(id(exc))

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        idx = self.begin(name, attrs)
        try:
            yield self.spans[idx]
        except BaseException as exc:
            self.end(idx, exc)
            raise
        self.end(idx)

    @contextlib.contextmanager
    def paused(self):
        """Context in which wrapped calls run without recording."""
        before, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = before

    # -- installation --------------------------------------------------
    def install(self):
        """Wrap the traced functions in every loaded statorlab module."""
        for layer, names in FUNCTIONS.items():
            module = importlib.import_module(f"statorlab.{layer}")
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for mod in _statorlab_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapped)
        for layer, cls_name, meth, span_name in METHODS:
            cls = getattr(importlib.import_module(f"statorlab.{layer}"), cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(span_name, original.__func__))
            else:
                wrapped = self._wrap(span_name, original)
            setattr(cls, meth, wrapped)
        modal = importlib.import_module("statorlab.modal")
        self._assemble = modal.assemble
        self._mode_shape_eval = modal.mode_shape_eval

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        tracer = self
        note = _NOTES.get(name)
        watch_warnings = name.startswith("holography.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            result = exc = None
            try:
                if watch_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    tracer.spans[idx][ATTRS]["runtime_warnings"] = sum(
                        issubclass(w.category, RuntimeWarning) for w in caught)
                else:
                    result = fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                tracer.end(idx, exc)
                if note:
                    note(tracer, tracer.spans[idx], args, kwargs, result, exc)
            if watch_warnings:
                for w in caught:
                    warnings.warn_explicit(w.message, w.category, w.filename,
                                           w.lineno)
            return result

        return traced

    # -- ops and probes ------------------------------------------------
    def begin_op(self, op_id, name):
        """Open the root span of one op; later spans carry its id."""
        self.op = op_id
        self._seen_errors.clear()
        return self.begin(name)

    def adopt(self, child_spans):
        """Nest spans recorded by a child process under the open span.

        The open span notes when the child's first span began and its last
        one ended; the gaps are interpreter start-up and exit.
        """
        offset = len(self.spans)
        top = self._stack[-1]
        for span in child_spans:
            span = list(span)
            span[PARENT] = top if span[PARENT] is None else span[PARENT] + offset
            span[OP] = self.op
            self.spans.append(span)
        if child_spans:
            self.spans[top][ATTRS]["child_first"] = min(s[START] for s in child_spans)
            self.spans[top][ATTRS]["child_last"] = max(s[END] for s in child_spans)

    def run_probes(self):
        """Time the assemble/mode-eval probes for the op just finished."""
        for plate, n_first, n_last, disc in self._solves:
            for n in range(n_first, n_last + 1):
                with self.span("modal.assemble", {"probe": True}):
                    self._assemble(plate, n, disc)
        for basis, grid in self._renders.values():
            r = grid.r[grid.mask]
            theta = grid.theta[grid.mask]
            with self.span("modal.mode_shape_eval",
                           {"probe": True, "points": len(basis) * r.size}):
                for mode in basis:
                    self._mode_shape_eval(mode, r, theta)
        self._solves.clear()
        self._renders.clear()
        self.op = None


def _statorlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "statorlab"
                                  or name.startswith("statorlab."))]


# -- per-call annotations --------------------------------------------------

def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _note_solve(tracer, span, args, kwargs, result, exc):
    plate = _arg(args, kwargs, 0, "plate")
    n_max = _arg(args, kwargs, 1, "n_max")
    n_min = _arg(args, kwargs, 3, "n_min", 0)
    disc = _arg(args, kwargs, 4, "disc")
    if disc is None:
        disc = importlib.import_module("statorlab.modal").Discretization()
    span[ATTRS]["radial_nodes"] = disc.radial_nodes
    if exc is not None:
        n_max = getattr(exc, "harmonic", None) or n_max
        span[ATTRS]["refused"] = type(exc).__name__ == "NumericalError"
    if tracer.op is not None:
        tracer._solves.append((plate, n_min, n_max, disc))


# Position of the grid argument of each rendering call.  snapshot_at_strobe
# renders through field_at, which counts the points.
_GRID_ARG = {"dynamics.field_envelope": 2, "dynamics.snapshot_at_strobe": 2,
             "dynamics.field_at": 3}


def _note_render(tracer, span, args, kwargs, result, exc):
    basis = _arg(args, kwargs, 0, "basis")
    grid = _arg(args, kwargs, _GRID_ARG[span[NAME]], "grid")
    if span[NAME] != "dynamics.snapshot_at_strobe":
        span[ATTRS]["render_points"] = len(basis) * int(grid.mask.sum())
    if tracer.op is not None:
        tracer._renders.setdefault((id(basis), id(grid)), (basis, grid))


def _note_respond(tracer, span, args, kwargs, result, exc):
    if result is not None:
        span[ATTRS]["samples"] = int(result.q.size)


def _note_holography(tracer, span, args, kwargs, result, exc):
    span[ATTRS]["pixels"] = int(args[0].grid.mask.size)


def _note_write(tracer, span, args, kwargs, result, exc):
    data = _arg(args, kwargs, 1, "data")
    if data is not None:
        span[ATTRS]["bytes"] = len(data)


_NOTES = {
    "modal.solve_modes": _note_solve,
    "dynamics.field_envelope": _note_render,
    "dynamics.field_at": _note_render,
    "dynamics.snapshot_at_strobe": _note_render,
    "dynamics.respond": _note_respond,
    "holography.time_averaged": _note_holography,
    "holography.stroboscopic": _note_holography,
    "holography.unwrap_to_displacement": _note_holography,
    "ioutil.atomic_write_bytes": _note_write,
}


# -- metrics derived from spans ---------------------------------------------

def _duration(span):
    return span[END] - span[START]


def _child_time(spans):
    """Per span, the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += _duration(span)
    return covered


# metric -> (span name, what): "time" sums span durations, "calls" counts
# spans, any other word sums that span attribute.
NAMED = {
    "cli.import_s": ("cli.import", "time"),
    "config.validate_s": ("config.validate_config", "time"),
    "geometry.homogenize_s": ("geometry.homogenize", "time"),
    "geometry.homogenize_calls": ("geometry.homogenize", "calls"),
    "modal.solve_modes_s": ("modal.solve_modes", "time"),
    "modal.solve_modes_calls": ("modal.solve_modes", "calls"),
    "modal.calibrate_s": ("modal.calibrate", "time"),
    "modal.assemble_s": ("modal.assemble", "time"),
    "modal.mode_eval_s": ("modal.mode_shape_eval", "time"),
    "modal.mode_eval_points": ("modal.mode_shape_eval", "points"),
    "dynamics.respond_s": ("dynamics.respond", "time"),
    "dynamics.respond_samples": ("dynamics.respond", "samples"),
    "dynamics.field_envelope_s": ("dynamics.field_envelope", "time"),
    "dynamics.snapshot_s": ("dynamics.snapshot_at_strobe", "time"),
    "dynamics.probe_s": ("dynamics.probe", "time"),
    "dynamics.calibrate_force_s": ("dynamics.calibrate_force_per_volt", "time"),
    "grids.raster_build_s": ("grids.RasterGrid", "time"),
    "grids.circle_values_s": ("grids.circle_values", "time"),
    "holography.time_averaged_s": ("holography.time_averaged", "time"),
    "holography.stroboscopic_s": ("holography.stroboscopic", "time"),
    "holography.unwrap_s": ("holography.unwrap_to_displacement", "time"),
    "analysis.detect_s": ("analysis.detect_mode_number", "time"),
    "analysis.fit_s": ("analysis.fit_eq1", "time"),
    "analysis.track_s": ("analysis.track_strobe_phase", "time"),
    "ioutil.bytes_written": ("ioutil.atomic_write_bytes", "bytes"),
    "ioutil.files_written": ("ioutil.atomic_write_bytes", "calls"),
    "reference.build_report_s": ("reference.build_report", "time"),
}
REFUSAL_MESHES = (32, 48, 64, 80, 96, 128)


def _layer(span):
    """Layer a program span belongs to; None for op roots and probes.

    ``cli.import`` has its own metric, so the cli layer's self time is
    what ``cli.main`` spends outside its child spans.
    """
    layer = span[NAME].split(".", 1)[0]
    if layer not in LAYERS or span[ATTRS].get("probe") or span[NAME] == "cli.import":
        return None
    return layer


def layer_metrics(spans, pipelines=0):
    """Per-layer self time, calls and failures plus the named metrics."""
    child_time = _child_time(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.failures"] = 0
    for i, span in enumerate(spans):
        layer = _layer(span)
        if layer is None:
            continue
        out[f"{layer}.self_s"] += _duration(span) - child_time[i]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.failures"] += int(bool(span[OWN]))
    for metric, (name, what) in NAMED.items():
        picked = [s for s in spans if s[NAME] == name]
        if what == "time":
            out[metric] = sum(_duration(s) for s in picked)
        elif what == "calls":
            out[metric] = len(picked)
        else:
            out[metric] = sum(s[ATTRS].get(what, 0) for s in picked)
    out["ioutil.write_s"] = out["ioutil.self_s"]
    out["dynamics.render_points"] = sum(
        s[ATTRS].get("render_points", 0) for s in spans
        if s[NAME] in ("dynamics.field_envelope", "dynamics.field_at"))
    out["holography.pixels"] = sum(
        s[ATTRS].get("pixels", 0) for s in spans
        if s[NAME].startswith("holography."))
    out["holography.runtime_warnings"] = sum(
        s[ATTRS].get("runtime_warnings", 0) for s in spans
        if s[NAME].startswith("holography."))
    refused = [s for s in spans if s[NAME] == "modal.solve_modes" and s[OWN]
               and s[ATTRS].get("refused")]
    out["modal.refusals"] = len(refused)
    for mesh in REFUSAL_MESHES:
        out[f"modal.refusals_by_mesh.{mesh}"] = sum(
            s[ATTRS]["radial_nodes"] == mesh for s in refused)
    per_pipeline = 1.0 / pipelines if pipelines else 0.0
    out["cli.solve_modes_calls_per_pipeline"] = (
        out["modal.solve_modes_calls"] * per_pipeline)
    out["cli.respond_calls_per_pipeline"] = per_pipeline * sum(
        s[NAME] == "dynamics.respond" for s in spans)
    return out


def attribution(spans):
    """(op wall, part inside layer spans, part in child process start/exit),
    summed over ops.

    Probe spans that a child process ran inside an op are taken out of the
    op's wall time, since the untraced program never runs them.
    """
    child_time = _child_time(spans)
    wall = inside = process = 0.0
    for i, span in enumerate(spans):
        if span[NAME].startswith("op."):
            wall += _duration(span)
            if "child_first" in span[ATTRS]:
                process += (span[ATTRS]["child_first"] - span[START]
                            + span[END] - span[ATTRS]["child_last"])
        elif span[ATTRS].get("probe"):
            parent = span[PARENT]
            if parent is not None and spans[parent][NAME].startswith("op."):
                wall -= _duration(span)
        elif span[OP] is not None and (_layer(span) or span[NAME] == "cli.import"):
            inside += _duration(span) - child_time[i]
    return wall, inside, process
