"""Spans around calls into csbmlab's layers, and the per-layer metrics.

A ``Tracer`` swaps the package's public functions, in the namespaces the
runners, the CLI and ``run_network`` call them from, for wrappers that
record one span per call: name, start, end, parent span, operation id,
round and counts. Spans are kept in memory and dumped when the run ends.
Nothing inside the package is edited; outside ``Tracer.installed()`` the
original functions are back in place.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("csbm.sample_csbm.self_s", "s"),
    ("csbm.sample_csbm.peak_alloc_mb", "MB"),
    ("csbm.from_edges.s", "s"),
    ("csbm.with_feature_params.s", "s"),
    ("csbm.dump_graph.s", "s"),
    ("csbm.load_graph.self_s", "s"),
    ("network.forward_layer.s", "s"),
    ("network.forward_layer.calls", "count"),
    ("network.forward_layer.uniform.arcs_per_s", "arcs/s"),
    ("network.forward_layer.sign.arcs_per_s", "arcs/s"),
    ("network.run_network.self_s", "s"),
    ("moments.closed_form_moments.s", "s"),
    ("moments.closed_form_moments.cells_per_s", "cells/s"),
    ("moments.monte_carlo_moments.s", "s"),
    ("moments.monte_carlo_moments.draws_per_s", "draws/s"),
    ("moments.monte_carlo_moments.peak_alloc_mb", "MB"),
    ("expcli.runner.self_s", "s"),
    ("expcli.parallelism", "ratio"),
    ("expcli.cli.gen.s", "s"),
    ("expcli.cli.forward.s", "s"),
    ("csbm.import_s", "s"),
    ("moments.import_s", "s"),
    ("expcli.import_s", "s"),
    ("trace.overhead_s", "s"),
)


def _layer_counts(graph, features, spec):
    kind = "uniform" if getattr(spec, "t", 0.0) == 0.0 else "sign"
    return {"kind": kind, "arcs": 2 * int(graph.edges.shape[0])}


def _cell_counts(inputs):
    return {"cells": (inputs.deg_p + 1) * (inputs.deg_q + 1)}


def _draw_counts(inputs, trials, *args, **kwargs):
    return {"draws": trials * (inputs.deg_p + inputs.deg_q + 1)}


def _seed_op(params, seed):
    return f"trial{seed}"


def _graph_op(graph, *args, **kwargs):
    return f"trial{graph.seed}"


def _cell_op(inputs, *args, **kwargs):
    return f"cell{inputs.deg_p},{inputs.deg_q},{inputs.t!r}"


class Tracer:
    """In-memory span recorder.

    A span's operation id is its parent's, if the parent has one; otherwise
    it is computed from the call's arguments (the trial seed for the
    sampler and the per-graph calls, the cell for the moment law) or given
    by the caller (a CLI invocation). The round's runner span has none.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.round: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Parent of spans opened on pool threads, whose own stack is empty.
        self._root: dict | None = None

    @contextmanager
    def span(self, name: str, op: str | None = None, root: bool = False, **counts):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        if parent is not None and parent["op"] is not None:
            op = parent["op"]
        record = {"id": next(self._ids), "name": name,
                  "parent": parent["id"] if parent else None,
                  "op": op, "round": self.round,
                  "thread": threading.get_ident(), "counts": counts}
        stack.append(record)
        if root:
            self._root = record
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            self.spans.append(record)

    def wrap(self, name: str, fn, counts=None, op=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = counts(*args, **kwargs) if counts else {}
            with self.span(name, op=op(*args, **kwargs) if op else None, **extra):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Wrap the layers' public functions where their callers look them up."""
        from csbmlab import csbm, moments, network
        from csbmlab.expcli import cli, runners

        wrappers = {
            "sample_csbm": self.wrap("csbm.sample_csbm", csbm.sample_csbm, op=_seed_op),
            "with_feature_params": self.wrap("csbm.with_feature_params",
                                             csbm.with_feature_params, op=_graph_op),
            "dump_graph": self.wrap("csbm.dump_graph", csbm.dump_graph),
            "load_graph": self.wrap("csbm.load_graph", csbm.load_graph),
            "run_network": self.wrap("network.run_network", network.run_network,
                                     op=_graph_op),
            "forward_layer": self.wrap("network.forward_layer", network.forward_layer,
                                       counts=_layer_counts),
            "closed_form_moments": self.wrap("moments.closed_form_moments",
                                             moments.closed_form_moments,
                                             counts=_cell_counts, op=_cell_op),
            "monte_carlo_moments": self.wrap("moments.monte_carlo_moments",
                                             moments.monte_carlo_moments,
                                             counts=_draw_counts, op=_cell_op),
        }
        targets = [(runners, "sample_csbm"), (cli, "sample_csbm"),
                   (runners, "with_feature_params"),
                   (cli, "dump_graph"), (cli, "load_graph"),
                   (runners, "run_network"), (cli, "run_network"),
                   (network, "forward_layer"),
                   (moments, "closed_form_moments"), (moments, "monte_carlo_moments")]
        saved = [(module, name, getattr(module, name)) for module, name in targets]
        from_edges = csbm.FeaturedGraph.__dict__["from_edges"]
        try:
            for module, name in targets:
                setattr(module, name, wrappers[name])
            csbm.FeaturedGraph.from_edges = classmethod(
                self.wrap("csbm.from_edges", from_edges.__func__))
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)
            csbm.FeaturedGraph.from_edges = from_edges

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def round_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one round: time busy, self time, counts, rates."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], ())]
        return dur(s) - _covered(kids, s["start"], s["end"])

    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, fn=dur):
        return sum((fn(s) for s in by_name.get(name, ())), 0.0)

    def rate(spans_, key):
        busy = sum(dur(s) for s in spans_)
        return sum(s["counts"][key] for s in spans_) / busy if busy > 0 else 0.0

    layers = by_name.get("network.forward_layer", [])
    runners_ = by_name.get("expcli.runner", [])
    runner_wall = sum(dur(r) for r in runners_)
    runner_kids = sum(dur(c) for r in runners_ for c in children.get(r["id"], ()))
    return {
        "csbm.sample_csbm.self_s": total("csbm.sample_csbm", self_time),
        "csbm.from_edges.s": total("csbm.from_edges"),
        "csbm.with_feature_params.s": total("csbm.with_feature_params"),
        "csbm.dump_graph.s": total("csbm.dump_graph"),
        "csbm.load_graph.self_s": total("csbm.load_graph", self_time),
        "network.forward_layer.s": total("network.forward_layer"),
        "network.forward_layer.calls": float(len(layers)),
        "network.forward_layer.uniform.arcs_per_s":
            rate([s for s in layers if s["counts"]["kind"] == "uniform"], "arcs"),
        "network.forward_layer.sign.arcs_per_s":
            rate([s for s in layers if s["counts"]["kind"] == "sign"], "arcs"),
        "network.run_network.self_s": total("network.run_network", self_time),
        "moments.closed_form_moments.s": total("moments.closed_form_moments"),
        "moments.closed_form_moments.cells_per_s":
            rate(by_name.get("moments.closed_form_moments", []), "cells"),
        "moments.monte_carlo_moments.s": total("moments.monte_carlo_moments"),
        "moments.monte_carlo_moments.draws_per_s":
            rate(by_name.get("moments.monte_carlo_moments", []), "draws"),
        "expcli.runner.self_s": total("expcli.runner", self_time),
        "expcli.parallelism": runner_kids / runner_wall if runner_wall > 0 else 0.0,
        "expcli.cli.gen.s": total("expcli.cli.gen"),
        "expcli.cli.forward.s": total("expcli.cli.forward"),
    }


def median_round_metrics(spans: list[dict]) -> dict[str, float]:
    """Median over rounds of each round's figures."""
    rounds: dict[int, list[dict]] = {}
    for s in spans:
        rounds.setdefault(s["round"], []).append(s)
    per_round = [round_metrics(r) for _, r in sorted(rounds.items())]
    return {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
