"""Run one orbitnorm command with every public function of the package traced.

usage: python3 bench/trace_boot.py OUT.json OP_ID ARGS...

ARGS are the orbitnorm command line.  Before calling ``orbitnorm.cli.main``
this script wraps each public function of each layer module.  The wrapper
replaces the function at every ``orbitnorm.*`` module attribute that holds
it, because ``cli``, ``normality`` and ``classification`` import functions
by name.  Each wrapped call records a span (name, start, end, parent) in
memory; a few hot helpers only count calls, since a span on each of their
hundreds of thousands of calls would swamp the run.  ``Partition.__new__``
is counted too.  Spans and counts are written to OUT.json at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("partitions", "degeneration", "reduction", "classification", "normality",
          "matrix_oracle", "cli")

#: Called per element or per pair inside loops: counted, not spanned.
COUNT_ONLY = {
    "partitions.eps_violation",
    "partitions.is_eps_diagram",
    "degeneration.dominates",
    "matrix_oracle.mat_rank",
    "matrix_oracle.mat_mul",
}

#: Work measured from a function's result: (counter, size of the result).
RESULT_COUNTS = {
    "partitions.enumerate_eps_diagrams": ("partitions.diagrams_enumerated", len),
    "degeneration.minimal_degenerations": ("degeneration.covers", len),
    "reduction.irreducible_core": ("reduction.erasure_steps", lambda r: len(r.steps)),
}

#: Names the per-layer metrics read; any the package lacks is reported absent.
NAMED = (
    "partitions.Partition.__new__",
    "partitions.enumerate_eps_diagrams",
    "partitions.eps_violation",
    "degeneration.minimal_degenerations",
    "degeneration.dominates",
    "degeneration.hasse",
    "reduction.irreducible_core",
    "classification.classify_core",
    "classification.annotate",
    "normality.decide",
    "normality.survey",
    "matrix_oracle.orbit_dim",
    "matrix_oracle.centralizer_dim",
    "matrix_oracle.build_nilpotent_model",
    "matrix_oracle.restrict_to_image",
    "matrix_oracle.jordan_type",
    "matrix_oracle.mat_rank",
    "cli.main",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.last_error: dict[str, BaseException] = {}
        self.wrapped: set[str] = set()

    def _error(self, layer: str, exc: Exception) -> None:
        # an exception passing through several wrapped frames counts once per layer
        if self.last_error.get(layer) is not exc:
            self.last_error[layer] = exc
            self.errors[layer] = self.errors.get(layer, 0) + 1

    def span(self, name: str, layer: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name_id, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                counter, size = hook
                self.counts[counter] = self.counts.get(counter, 0) + size(result)
            return result

        return wrapper

    def counter(self, name: str, layer: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise

        return wrapper

    def install(self) -> None:
        import orbitnorm.cli  # noqa: F401  (imports every layer)

        replacement: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"orbitnorm.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                make = self.counter if name in COUNT_ONLY else self.span
                replacement[id(fn)] = make(name, layer, fn)
                self.wrapped.add(name)
        for modname, module in list(sys.modules.items()):
            if modname != "orbitnorm" and not modname.startswith("orbitnorm."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replacement:
                    setattr(module, attr, replacement[id(value)])

        partition = getattr(sys.modules["orbitnorm.partitions"], "Partition", None)
        if partition is not None and "__new__" in vars(partition):
            original = vars(partition)["__new__"]
            original = getattr(original, "__func__", original)
            counts = self.counts

            def counted_new(cls, *args, **kwargs):
                counts["partitions.Partition.__new__"] = (
                    counts.get("partitions.Partition.__new__", 0) + 1)
                return original(cls, *args, **kwargs)

            partition.__new__ = staticmethod(counted_new)
            self.wrapped.add("partitions.Partition.__new__")

    def dump(self, path: str, op_id: int) -> None:
        doc = {
            "op": op_id,
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "errors": self.errors,
            "absent": sorted(set(NAMED) - self.wrapped),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def main() -> int:
    out, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["orbitnorm.cli"]
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out, op_id)


if __name__ == "__main__":
    sys.exit(main())
