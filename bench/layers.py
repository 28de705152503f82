"""Per-layer metrics from the span files that ``trace_boot.py`` writes.

A span's self time is its duration minus the durations of its direct
children (the wrapped calls it made).  Each ``<layer>.<x>_s`` metric is the
summed self time of one function's spans, and ``<layer>.self_s`` is the
summed self time of every span in that layer.  Counts are summed over the
traced operations.
"""

from __future__ import annotations

import json
from collections import defaultdict

from trace_boot import LAYERS


class Aggregate:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()

    def add_file(self, path) -> None:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        names, spans = doc["names"], doc["spans"]
        child_ns = [0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name_id, start, end, _), children in zip(spans, child_ns):
            name = names[name_id]
            self.calls[name] += 1
            self.self_ns[name] += end - start - children
        for name, value in doc["counts"].items():
            self.counts[name] += value
        for layer, value in doc["errors"].items():
            self.errors[layer] += value
        self.absent.update(doc["absent"])

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in self.self_ns.items()
                   if name.startswith(layer + ".")) / 1e9


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def per_layer_metrics(agg: Aggregate, cache: dict, trace_wall: dict) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    calls = lambda name: agg.calls.get(name, 0) + agg.counts.get(name, 0)
    self_s = lambda name: agg.self_ns.get(name, 0) / 1e9
    count = lambda name: agg.counts.get(name, 0)
    m = {
        "partitions.enumerate_calls": (calls("partitions.enumerate_eps_diagrams"), "count"),
        "partitions.enumerate_s": (self_s("partitions.enumerate_eps_diagrams"), "s"),
        "partitions.diagrams_enumerated": (count("partitions.diagrams_enumerated"), "count"),
        "partitions.partition_new_calls": (count("partitions.Partition.__new__"), "count"),
        "partitions.eps_violation_calls": (calls("partitions.eps_violation"), "count"),
        "degeneration.minimal_degenerations_calls":
            (calls("degeneration.minimal_degenerations"), "count"),
        "degeneration.minimal_degenerations_s":
            (self_s("degeneration.minimal_degenerations"), "s"),
        "degeneration.dominates_calls": (calls("degeneration.dominates"), "count"),
        "degeneration.covers": (count("degeneration.covers"), "count"),
        "degeneration.cover_yield": (_ratio(count("degeneration.covers"),
                                            calls("degeneration.dominates")), "ratio"),
        "degeneration.hasse_s": (self_s("degeneration.hasse"), "s"),
        "reduction.irreducible_core_calls": (calls("reduction.irreducible_core"), "count"),
        "reduction.irreducible_core_s": (self_s("reduction.irreducible_core"), "s"),
        "reduction.erasure_steps": (count("reduction.erasure_steps"), "count"),
        "classification.classify_calls": (calls("classification.classify_core"), "count"),
        "classification.classify_s": (self_s("classification.classify_core"), "s"),
        "classification.annotate_s": (self_s("classification.annotate"), "s"),
        "normality.decide_calls": (calls("normality.decide"), "count"),
        "normality.decide_s": (self_s("normality.decide"), "s"),
        "normality.survey_s": (self_s("normality.survey"), "s"),
        "matrix_oracle.orbit_dim_calls": (calls("matrix_oracle.orbit_dim"), "count"),
        "matrix_oracle.centralizer_calls": (calls("matrix_oracle.centralizer_dim"), "count"),
        "matrix_oracle.orbit_dim_hit_ratio": (
            1.0 - _ratio(calls("matrix_oracle.centralizer_dim"),
                         calls("matrix_oracle.orbit_dim"))
            if calls("matrix_oracle.orbit_dim") else 0.0, "ratio"),
        "matrix_oracle.centralizer_s": (self_s("matrix_oracle.centralizer_dim"), "s"),
        "matrix_oracle.build_model_calls":
            (calls("matrix_oracle.build_nilpotent_model"), "count"),
        "matrix_oracle.build_model_s": (self_s("matrix_oracle.build_nilpotent_model"), "s"),
        "matrix_oracle.restrict_s": (self_s("matrix_oracle.restrict_to_image"), "s"),
        "matrix_oracle.jordan_s": (self_s("matrix_oracle.jordan_type"), "s"),
        "matrix_oracle.mat_rank_calls": (calls("matrix_oracle.mat_rank"), "count"),
        "cli.main_s": (agg.layer_self_s("cli"), "s"),
        "cli.cache_hits": (cache["hits"], "count"),
        "cli.cache_misses": (cache["misses"], "count"),
        "cli.cache_hit_ratio": (_ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "cli.cache_records": (cache["records"], "count"),
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (agg.layer_self_s(layer), "s")
        m[f"{layer}.errors"] = (agg.errors.get(layer, 0), "count")
    m["trace.ops"] = (trace_wall["ops"], "count")
    m["trace.traced_s"] = (trace_wall["traced"], "s")
    m["trace.untraced_s"] = (trace_wall["untraced"], "s")
    m["trace.overhead_s"] = (trace_wall["traced"] - trace_wall["untraced"], "s")
    m["trace.absent_names"] = (len(agg.absent), "count")
    return m
