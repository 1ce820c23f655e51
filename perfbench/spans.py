"""Span recording for the traced benchmark run, and the per-layer metrics
computed from the spans.

A `Tracer` keeps span records in memory and appends them to
`<trace_dir>/<pid>.jsonl` when `flush` is called: by `traced_cli.py` at
exit, and by each forked pool worker as it exits.  A record is a dict with
`id`, `parent`, `name`, `start`, `end` (perf_counter seconds, which share
one clock across processes on Linux), `pid`, `cmd` and, when the wrapped
call returned a list or tuple, `items` (its length).  A *mark* is a record
with `start == end`: a counted event, not a span.

Wrappers are installed from outside the program: `install` replaces each
traced function in its defining module and in every `extremal_count`
module that imported the name, and replaces `ProcessPoolExecutor` where the
package imported it.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

# (module, function) -> span name.  Each function's self time and call
# count are layer metrics; list-valued results also record their length.
SPANS = {
    ("extremal_count._kernels", "count_injective"): "kernels.count_injective",
    ("extremal_count._kernels", "canonical_mask"): "kernels.canonical_mask",
    ("extremal_count._kernels", "triangle_free_canonical_masks"):
        "kernels.triangle_free_canonical_masks",
    ("extremal_count.oracle", "triangle_free_masks"): "oracle.triangle_free_masks",
    ("extremal_count.oracle", "find_maximizers"): "oracle.find_maximizers",
    ("extremal_count.oracle", "is_complete_bipartite"): "oracle.is_complete_bipartite",
    ("extremal_count.oracle", "canonical_form"): "oracle.canonical_form",
    # the per-host scoring task, run in the caller or in a pool worker
    ("extremal_count.oracle", "_count_task"): "oracle.score_hosts",
    ("extremal_count.embeddings", "count_embeddings"): "embeddings.count_embeddings",
    ("extremal_count.embeddings", "h_degrees"): "embeddings.h_degrees",
    ("extremal_count.embeddings", "count_copies"): "embeddings.count_copies",
    ("extremal_count.embeddings", "count_automorphisms"): "embeddings.count_automorphisms",
    ("extremal_count.blowup", "weighted_hom_sum"): "blowup.weighted_hom_sum",
    ("extremal_count.blowup", "optimize_weights"): "blowup.optimize_weights",
    ("extremal_count.blowup", "leading_coefficient"): "blowup.leading_coefficient",
    ("extremal_count.bounds", "edge_bound_check"): "bounds.edge_bound_check",
    ("extremal_count.bounds", "thm1_sweep"): "bounds.thm1_sweep",
    ("extremal_count.bounds", "solve_theorem2_params"): "bounds.solve_theorem2_params",
    ("extremal_count.bounds", "theorem2_end_to_end"): "bounds.theorem2_end_to_end",
    ("extremal_count.cli", "render"): "cli.render",
}

# Functions recorded as marks only.  The pure canonical form is called once
# per candidate graph inside the pure enumerator; a span around it would
# take its time out of the enumerator's self time.
MARKS = {
    ("extremal_count._pykernels", "canonical_mask"): "pykernels.canonical_mask",
}

# Modules that import ProcessPoolExecutor; the fan-out layer is measured
# by replacing that name with a recording subclass.
POOL_MODULES = ("extremal_count.oracle", "extremal_count.embeddings",
                "extremal_count.blowup")


class Tracer:
    def __init__(self, trace_dir: str, cmd: str):
        self.trace_dir = trace_dir
        self.cmd = cmd
        self.pid = os.getpid()
        self.records: list[dict] = []
        self.stack: list[str] = []
        self._next = 0
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self):
        # Runs in each multiprocessing child (a pool worker).  The worker
        # keeps the open spans of the process that forked it as ancestors,
        # starts an empty buffer, and flushes it when it exits.
        self.pid = os.getpid()
        self.records = []
        self._next = 0
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def _new_id(self) -> str:
        self._next += 1
        return f"{self.pid}.{self._next}"

    def start(self, name: str) -> dict:
        rec = {"id": self._new_id(), "parent": self.stack[-1] if self.stack else None,
               "name": name, "pid": self.pid, "cmd": self.cmd,
               "start": time.perf_counter(), "end": None}
        self.stack.append(rec["id"])
        self.records.append(rec)
        return rec

    def end(self, rec: dict, items: int | None = None) -> None:
        rec["end"] = time.perf_counter()
        if items is not None:
            rec["items"] = items
        if self.stack and self.stack[-1] == rec["id"]:
            self.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span measured by the caller."""
        self.records.append({"id": self._new_id(),
                             "parent": self.stack[-1] if self.stack else None,
                             "name": name, "pid": self.pid, "cmd": self.cmd,
                             "start": start, "end": end})

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self.record(name, now, now)

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.start(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(rec, len(result) if isinstance(result, (list, tuple)) else None)
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.mark(name)
            return fn(*args, **kwargs)
        return wrapper

    def flush(self) -> None:
        done = [r for r in self.records if r["end"] is not None]
        self.records = [r for r in self.records if r["end"] is None]
        if not done:
            return
        path = os.path.join(self.trace_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for rec in done:
                fh.write(json.dumps(rec) + "\n")


def _replace_everywhere(module_name: str, attr: str, new) -> None:
    """Set `attr` to `new` in the defining module and in every loaded
    package module that holds the same object under that name."""
    old = getattr(sys.modules[module_name], attr)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "extremal_count" or name.startswith("extremal_count.")):
            continue
        if mod.__dict__.get(attr) is old:
            setattr(mod, attr, new)


def traced_pool_class(tracer: Tracer, base):
    class TracedProcessPoolExecutor(base):
        """Records one `fanout.pool` span from creation to shutdown and one
        `fanout.task` mark per submitted task."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._span = tracer.start("fanout.pool")

        def submit(self, fn, /, *args, **kwargs):
            tracer.mark("fanout.task")
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=wait, cancel_futures=cancel_futures)
            if self._span is not None:
                tracer.end(self._span)
                self._span = None

    return TracedProcessPoolExecutor


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS and MARKS and the pool class, in the
    defining modules and in every package module that imported them."""
    for (module_name, attr), name in SPANS.items():
        fn = getattr(importlib.import_module(module_name), attr)
        _replace_everywhere(module_name, attr, tracer.span(name, fn))
    for (module_name, attr), name in MARKS.items():
        fn = getattr(importlib.import_module(module_name), attr)
        _replace_everywhere(module_name, attr, tracer.counter(name, fn))
    traced_pool = traced_pool_class(tracer, ProcessPoolExecutor)
    for module_name in POOL_MODULES:
        module = sys.modules[module_name]
        if module.ProcessPoolExecutor is ProcessPoolExecutor:
            module.ProcessPoolExecutor = traced_pool


# ---------------------------------------------------------------------------
# reading spans back
# ---------------------------------------------------------------------------

def read_spans(trace_dir: str) -> list[dict]:
    spans = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.endswith(".jsonl"):
            with open(os.path.join(trace_dir, entry), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part covered by its children in the
    same process.  Children in other processes (pool workers) ran in
    parallel with their ancestor, so they do not reduce its self time."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict], backend: str,
                  count_cmds: set[str]) -> dict[str, float]:
    """Per-layer counts and self times summed over the given spans.

    `count_cmds` holds the ids of the `count` commands, whose embedding
    searches give `embeddings.searches_per_count`.  Metrics the backend
    does not expose are left out: the compiled enumerator computes its
    canonical forms in C, so `oracle.enum_canonical_forms` and
    `oracle.enum_yield` exist only for the pure backend.
    """
    selft = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    items = defaultdict(int)
    for s in spans:
        calls[s["name"]] += 1
        self_s[s["name"]] += selft[s["id"]]
        wall_s[s["name"]] += s["end"] - s["start"]
        items[s["name"]] += s.get("items", 0)

    out = {}
    for name in ("kernels.count_injective", "kernels.canonical_mask",
                 "oracle.is_complete_bipartite", "oracle.canonical_form",
                 "embeddings.count_embeddings", "blowup.weighted_hom_sum",
                 "blowup.leading_coefficient"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = self_s[name]
    for name in ("kernels.triangle_free_canonical_masks", "oracle.find_maximizers",
                 "embeddings.h_degrees", "embeddings.count_copies",
                 "embeddings.count_automorphisms", "blowup.optimize_weights",
                 "bounds.edge_bound_check", "bounds.thm1_sweep",
                 "bounds.solve_theorem2_params", "bounds.theorem2_end_to_end",
                 "cli.render"):
        out[f"{name}.s"] = self_s[name]

    out["oracle.hosts_enumerated"] = items["oracle.triangle_free_masks"]
    out["oracle.hosts_scored"] = items["oracle.score_hosts"]
    if backend == "python":
        enum_forms = sum(
            1 for s in spans if s["name"] == "pykernels.canonical_mask"
            and by_id.get(s["parent"], {}).get("name") == "kernels.triangle_free_canonical_masks")
        out["oracle.enum_canonical_forms"] = enum_forms
        out["oracle.enum_yield"] = (items["kernels.triangle_free_canonical_masks"] / enum_forms
                                    if enum_forms else 0.0)

    searches = sum(1 for s in spans if s["name"] == "embeddings.count_embeddings"
                   and s["cmd"] in count_cmds)
    out["embeddings.searches_per_count"] = searches / len(count_cmds) if count_cmds else 0.0

    out["fanout.pools"] = calls["fanout.pool"]
    out["fanout.tasks"] = calls["fanout.task"]
    out["fanout.s"] = wall_s["fanout.pool"]
    out["cli.import_s"] = wall_s["cli.import"]
    return out
