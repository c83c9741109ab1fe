"""Span tracing of gapflow's public functions, from outside the package.

``Tracer.install`` replaces every public module-level function of every
``gapflow`` module (plus the ``expm`` each layer imports from scipy) with a
wrapper that records one span per call: name, start, end and parent span.
Spans stay in memory and are written out once, when the traced run ends.
Nothing under ``src/`` is modified; ``uninstall`` restores the originals.

``layer_metrics`` folds a span list into the per-layer metrics named in
``PER_LAYER``. Self time is a span's duration minus the time its children
cover; inclusive time (``.s``) counts only the outermost span of a name, so
recursion is never counted twice.

Stdlib only at import time: the benchmark parent imports this module
without loading numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("geometry", "tensor", "model", "schwinger", "flow", "expansion", "verify", "cli")

# (metric name, unit, better) for every per-layer metric a traced run emits
PER_LAYER = [
    ("schwinger.lie_schwinger_series.calls", "count", "lower"),
    ("schwinger.lie_schwinger_series.s", "s", "lower"),
    ("schwinger.lie_schwinger_series.self_s", "s", "lower"),
    ("schwinger.assemble_g.s", "s", "lower"),
    ("schwinger.check_g_gap.s", "s", "lower"),
    ("schwinger.expm.s", "s", "lower"),
    ("schwinger.max_dim", "count", "lower"),
    ("schwinger.tail_certified_ratio", "ratio", "higher"),
    ("flow.apply_step.calls", "count", "lower"),
    ("flow.apply_step.self_s", "s", "lower"),
    ("flow.consistency_check.calls", "count", "lower"),
    ("flow.consistency_check.self_s", "s", "lower"),
    ("flow.assemble_hamiltonian.calls", "count", "lower"),
    ("flow.assemble_hamiltonian.s", "s", "lower"),
    ("flow.map_entries_max", "count", "lower"),
    ("flow.skipped_ratio", "ratio", "higher"),
    ("tensor.embed.calls", "count", "lower"),
    ("tensor.embed.s", "s", "lower"),
    ("tensor.embed.bytes_out", "bytes", "lower"),
    ("tensor.op_norm.calls", "count", "lower"),
    ("tensor.op_norm.s", "s", "lower"),
    ("tensor.offdiag_norm.calls", "count", "lower"),
    ("tensor.offdiag_norm.s", "s", "lower"),
    ("tensor.hermitian_spectrum.s", "s", "lower"),
    ("expansion.enumerate_branches.calls", "count", "lower"),
    ("expansion.enumerate_branches.self_s", "s", "lower"),
    ("expansion.branches", "count", "lower"),
    ("expansion.branch_sum.s", "s", "lower"),
    ("expansion.weighted_branch_sum.s", "s", "lower"),
    ("expansion.expm.calls", "count", "lower"),
    ("verify.verify_main_theorem.self_s", "s", "lower"),
    ("verify.inequality_suite.s", "s", "lower"),
    ("verify.inequality_rows", "count", "higher"),
    ("model.random_model.s", "s", "lower"),
    ("model.build_hamiltonian.s", "s", "lower"),
    ("geometry.g_set.calls", "count", "lower"),
    ("cli.build_model.s", "s", "lower"),
    ("cli.write_report.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _embed_bytes(result, op, *_args, **_kwargs) -> dict:
    # embed hands back its input unchanged when no identity legs are added
    return {"bytes": 0 if result is op else result.matrix.nbytes}


# span name -> function(result, *call args) giving the counters kept on the span
HOOKS = {
    "schwinger.lie_schwinger_series": lambda ops, *a, **k: {
        "dim": ops.g.matrix.shape[0],
        "certified": bool(ops.tail_certified),
    },
    "flow.apply_step": lambda out, *a, **k: {
        "skipped": out[1] is None,
        "entries": len(out[0].interactions),
    },
    "tensor.embed": _embed_bytes,
    "expansion.enumerate_branches": lambda exp, *a, **k: {"branches": len(exp.branches)},
    "verify.inequality_suite": lambda rows, *a, **k: {"rows": len(rows)},
}


class Tracer:
    """Records spans ``[name, start_ns, end_ns, parent, attrs]`` while active."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                rec[4] = hook(out, *args, **kwargs)
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of every gapflow module, in every module
        namespace (the package included) that holds a reference to them."""
        import gapflow

        mods = [importlib.import_module(f"gapflow.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    wrappers.setdefault(id(obj), self.wrap(f"{short}.{attr}", obj))
                elif attr == "expm":
                    # scipy's expm, timed per importing layer
                    self._patch(mod, attr, self.wrap(f"{short}.expm", obj))
        for mod in mods + [gapflow]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not attr.startswith("_"):
                    self._patch(mod, attr, wrappers[id(obj)])

    def _patch(self, mod, attr: str, new) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._patched):
            setattr(mod, attr, old)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh, separators=(",", ":"))


def load_spans(path: str) -> list[list]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span in ns: its duration minus its children's.

    Spans come from one thread, so siblings never overlap and the time the
    children cover is the sum of their durations.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive seconds of the outermost spans
    (``s``), summed self seconds (``self_s``) and the hook counters."""
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []})
        st["calls"] += 1
        st["self_s"] += selfs[i] / 1e9
        if extra is not None:
            st["attrs"].append(extra)
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            st["s"] += (end - start) / 1e9
    return stats


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every ``PER_LAYER`` metric except ``trace.overhead_s``, from one run."""
    stats = span_stats(spans)

    def attrs(name: str, key: str) -> list:
        return [a[key] for a in stats.get(name, {"attrs": []})["attrs"]]

    def ratio(name: str, key: str) -> float:
        values = attrs(name, key)
        return sum(values) / len(values) if values else 0.0

    derived = {
        "schwinger.max_dim": max(attrs("schwinger.lie_schwinger_series", "dim"), default=0),
        "schwinger.tail_certified_ratio": ratio("schwinger.lie_schwinger_series", "certified"),
        "flow.map_entries_max": max(attrs("flow.apply_step", "entries"), default=0),
        "flow.skipped_ratio": ratio("flow.apply_step", "skipped"),
        "tensor.embed.bytes_out": sum(attrs("tensor.embed", "bytes")),
        "expansion.branches": sum(attrs("expansion.enumerate_branches", "branches")),
        "verify.inequality_rows": sum(attrs("verify.inequality_suite", "rows")),
    }
    out: dict[str, float] = {}
    for metric, _unit, _better in PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        if metric in derived:
            out[metric] = derived[metric]
        else:
            span, _, kind = metric.rpartition(".")
            out[metric] = stats[span][kind] if span in stats else 0
    return out
