"""Traced run: timing shims around the public calls into each layer.

The shims live here, not in the program.  ``Tracer.install`` swaps the
module attributes the workloads and the CLI look up at call time for
wrappers that record one span per call: name, start, end, parent span
and op id.  Spans stay in memory (flat integer arrays) and are written
out once, at the end of the run.

Span names are ``<layer>.<call>`` with the layer named after the module
(``mf``, ``rulebase``, ``engine``, ``reference``, ``pendulum``, ``cli``);
``glue`` marks the benchmark's own op and set-up spans.  Engine and
reference ``infer`` spans carry the engine token (``engine.gc-closed.infer``).

Self time is a span's duration minus what its child spans cost it, and
the shim's own cost is calibrated and subtracted: ``inner_ns`` (the part
of a shim that falls inside its span) from every span, and ``shim_ns``
(the whole cost of a shimmed call to its caller) per child span.
"""

from __future__ import annotations

import statistics
import time
from array import array
from pathlib import Path

import numpy as np

from it2fuzz import cli, mf, pendulum, rulebase
from it2fuzz.reference import ReferenceEngine

LAYERS = ("mf", "rulebase", "engine", "reference", "pendulum", "cli", "glue")

# Module attributes the shims replace: (owner, attribute, span name).
PATCHES = (
    (mf, "fit_bounds", "mf.fit_bounds"),
    (rulebase, "default_rulebase", "rulebase.default"),
    (rulebase, "dump_rulebase", "rulebase.dump"),
    (rulebase, "load_rulebase", "rulebase.load"),
    (pendulum, "simulate", "pendulum.simulate"),
    (pendulum, "settle_time", "pendulum.settle_time"),
    (pendulum, "write_trace_csv", "pendulum.write_trace_csv"),
    (cli, "generate_surface", "cli.generate_surface"),
    (ReferenceEngine, "__init__", "reference.build"),
)


class Tracer:
    """Span recorder plus the shims that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("q")      # per name id: calls that raised
        self.degenerate = array("q")  # per name id: degenerate inference results
        self.stack = [-1]
        self.op_id = -1
        self.ref_samples = 0          # output-grid samples one reference infer sweeps
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.failed.append(0)
            self.degenerate.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, flagged: bool = False):
        """A shim recording one span per call of fn.

        With ``flagged`` the result is an InferenceResult and degenerate
        results are counted.
        """
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        rec = self

        def shim(*args, **kwargs):
            stack = rec.stack
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(stack[-1])
            rec.op.append(rec.op_id)
            rec.end.append(0)
            stack.append(idx)
            rec.start.append(clock())
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                rec.end[idx] = clock()
                stack.pop()
                rec.failed[nid] += 1
                raise
            rec.end[idx] = clock()
            stack.pop()
            if flagged and res[1]:
                rec.degenerate[nid] += 1
            return res

        return shim

    def _build_engine_shim(self):
        build = self.wrap("cli.build_engine", cli.build_engine)

        def shim(rb, token, ref=None):
            engine = build(rb, token, ref)
            layer = "reference" if isinstance(engine, ReferenceEngine) else "engine"
            if layer == "reference":
                self.ref_samples = 2 * len(engine.rb.rules) * engine.ref.grid_points
            engine.infer = self.wrap(f"{layer}.{token}.infer", engine.infer, flagged=True)
            return engine

        return shim

    def install(self) -> None:
        """Swap every patched attribute for its shim."""
        if self._saved:
            return
        for owner, attr, name in PATCHES:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig))
        self._saved.append((cli, "build_engine", cli.build_engine))
        cli.build_engine = self._build_engine_shim()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def save(self, path: Path) -> None:
        """Write every span out, as arrays in one compressed file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64), op=np.array(self.op, dtype=np.int64),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64))


def calibrate(n: int = 20000) -> dict[str, float]:
    """Timer and shim costs in ns, each the median of five rounds.

    ``timer_ns``: one ``perf_counter_ns`` call.  ``inner_ns``: the
    duration a shim records around a call that does nothing.
    ``shim_ns``: what a shimmed call costs its caller beyond the bare
    call; ``flagged_ns`` the same for a shim that counts degenerate
    results.
    """
    clock = time.perf_counter_ns
    result = (0.0, False)

    def noop(*args):
        return result

    out: dict[str, list[float]] = {"timer_ns": [], "inner_ns": [], "shim_ns": [],
                                   "flagged_ns": []}
    for _ in range(5):
        t0 = clock()
        for _ in range(n):
            clock()
        out["timer_ns"].append((clock() - t0) / n)
        t0 = clock()
        for _ in range(n):
            noop(1)
        bare = (clock() - t0) / n
        for key, flagged in (("flagged_ns", True), ("shim_ns", False)):
            rec = Tracer()
            shim = rec.wrap("noop", noop, flagged=flagged)
            t0 = clock()
            for _ in range(n):
                shim(1)
            out[key].append((clock() - t0) / n - bare)
        out["inner_ns"].append(statistics.median(
            e - s for s, e in zip(rec.start, rec.end)))  # the unflagged shim's spans
    return {k: statistics.median(v) for k, v in out.items()}


def _q(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of values, linearly interpolated; 0 if empty."""
    return float(np.percentile(values, 100.0 * q)) if len(values) else 0.0


def layer_metrics(rec: Tracer, cal: dict[str, float], traced_ops: list[int],
                  untraced_ms: list[float], op_counts: dict[str, list[float]],
                  tokens: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as {name: (value, unit)}."""
    names = rec.names
    name = np.array(rec.name, dtype=np.int64)
    parent = np.array(rec.parent, dtype=np.int64)
    op = np.array(rec.op, dtype=np.int64)
    raw = np.array(rec.end, dtype=np.int64) - np.array(rec.start, dtype=np.int64)
    dur = raw - cal["inner_ns"]
    flagged = np.array([n.endswith(".infer") for n in names], dtype=bool)
    cost = dur + np.where(flagged[name], cal["flagged_ns"], cal["shim_ns"])
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], cost[has_parent])
    self_ns = dur - child
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=np.int64)

    in_ops = op >= 0
    n_ops = max(len(traced_ops), 1)

    def spans(pred) -> np.ndarray:
        return np.array([pred(n) for n in names], dtype=bool)[name]

    def durations(sel, scale: float, use_self: bool = False) -> np.ndarray:
        return (self_ns if use_self else dur)[sel] / scale

    def per_op_calls(sel) -> float:
        return float((sel & in_ops).sum()) / n_ops

    m: dict[str, tuple[float, str]] = {}
    op_span = in_ops & spans(lambda n: n == "glue.op")
    total_ns = float(self_ns[in_ops].sum()) or 1.0
    engine = spans(lambda n: n.startswith("engine.") and n.endswith(".infer"))
    ref = spans(lambda n: n.startswith("reference.") and n.endswith(".infer"))
    m["engine.infer.calls"] = (per_op_calls(engine), "calls/op")
    m["engine.infer.us_p50"] = (_q(durations(engine, 1e3), 0.5), "us")
    m["engine.infer.us_p99"] = (_q(durations(engine, 1e3), 0.99), "us")
    m["engine.degenerate.count"] = (
        sum(rec.degenerate[k] for k, n in enumerate(names) if n.startswith("engine.")) / n_ops,
        "count/op")
    for token in tokens:
        sel = spans(lambda n, t=token: n == f"engine.{t}.infer")
        m[f"engine.{token}.infer.us_p50"] = (_q(durations(sel, 1e3), 0.5), "us")

    sim_ms = _q(durations(spans(lambda n: n == "pendulum.simulate"), 1e6, use_self=True), 0.5)
    steps = _q(op_counts.get("pendulum.steps", []), 0.5)
    m["pendulum.simulate.self_ms_p50"] = (sim_ms, "ms")
    m["pendulum.rk4.us_per_step"] = (1e3 * sim_ms / steps if steps else 0.0, "us")
    m["pendulum.steps"] = (steps, "steps/op")
    csv = spans(lambda n: n == "pendulum.write_trace_csv")
    m["pendulum.write_trace_csv.ms_p50"] = (_q(durations(csv, 1e6), 0.5), "ms")
    m["pendulum.write_trace_csv.bytes"] = (
        _q(op_counts.get("pendulum.write_trace_csv.bytes", []), 0.5), "B")

    surf = spans(lambda n: n == "cli.generate_surface")
    m["cli.generate_surface.self_ms_p50"] = (_q(durations(surf, 1e6, use_self=True), 0.5), "ms")
    m["cli.build_engine.us_p50"] = (
        _q(durations(spans(lambda n: n == "cli.build_engine"), 1e3), 0.5), "us")

    m["reference.infer.calls"] = (per_op_calls(ref), "calls/op")
    m["reference.infer.us_p50"] = (_q(durations(ref, 1e3), 0.5), "us")
    m["reference.infer.us_p99"] = (_q(durations(ref, 1e3), 0.99), "us")
    m["reference.build.ms_p50"] = (
        _q(durations(spans(lambda n: n == "reference.build"), 1e6), 0.5), "ms")
    m["reference.samples_per_call"] = (float(rec.ref_samples), "samples_computed")
    m["reference.bytes_per_call"] = (8.0 * rec.ref_samples, "B_computed")

    fit = spans(lambda n: n == "mf.fit_bounds")
    fit_failed = rec.failed[names.index("mf.fit_bounds")]
    m["mf.fit_bounds.calls"] = (per_op_calls(fit), "calls/op")
    m["mf.fit_bounds.ms_p50"] = (_q(durations(fit, 1e6), 0.5), "ms")
    m["mf.fit_bounds.ms_p99"] = (_q(durations(fit, 1e6), 0.99), "ms")
    m["mf.fit_bounds.failed"] = (float(fit_failed), "count")
    m["rulebase.load.ms"] = (
        _q(durations(spans(lambda n: n == "rulebase.load"), 1e6), 0.5), "ms")

    # Shares of the traced ops' corrected wall time; glue is the
    # benchmark's own time inside an op.  They sum to 1.
    for k, layer in enumerate(LAYERS):
        share = float(self_ns[in_ops & (layer_of[name] == k)].sum()) / total_ns
        m["engine.infer.share" if layer == "engine" else f"{layer}.share"] = (share, "share")
    for call in ("simulate", "write_trace_csv"):
        sel = in_ops & spans(lambda n, c=call: n == f"pendulum.{c}")
        m[f"pendulum.{call}.share"] = (float(self_ns[sel].sum()) / total_ns, "share")

    traced_ms = raw[op_span] / 1e6
    corrected_ms = np.bincount(op[in_ops], weights=self_ns[in_ops])[traced_ops] / 1e6
    untraced = _q(untraced_ms, 0.5) or 1.0
    m["trace.timer_ns"] = (cal["timer_ns"], "ns")
    m["trace.shim_ns"] = (cal["shim_ns"], "ns")
    m["trace.overhead_share"] = (_q(traced_ms, 0.5) / untraced - 1.0, "share")
    # How far the layers' corrected self times plus glue miss the untraced
    # op wall time; compare with the raw overhead above.
    m["trace.unaccounted_share"] = (abs(_q(corrected_ms, 0.5) / untraced - 1.0), "share")
    m["trace.spans_per_op"] = (float(in_ops.sum()) / n_ops, "spans/op")
    return m
