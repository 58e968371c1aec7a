"""Spans around calls into mdpreduce's layers, and the arithmetic that turns
operation times and spans into the benchmark's metrics.

The traced run replaces public functions by timing wrappers under the
names the library calls them by (``PATCHES``), so a later change to the
pipeline's call sequence shows in the spans without a change here.  The
untraced run installs nothing.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from dataclasses import dataclass, field

#: (module, attribute, span name).  The ``mdpreduce.pipelines`` names are
#: the calls of ``solve_total_cost`` and ``solve_average_cost``; the
#: ``mdpreduce.hvag`` and ``mdpreduce.solve`` names are what
#: ``verify_acoe``'s cross-check calls, which therefore shows as child
#: spans of ``hvag.verify``; the rest are the calls of the files workload.
PATCHES = (
    ("mdpreduce.pipelines", "maximize_lifetime", "transience.check"),
    ("mdpreduce.pipelines", "check_ht", "transience.check"),
    ("mdpreduce.pipelines", "build_hv", "hv.build"),
    ("mdpreduce.pipelines", "build_hvag", "hvag.build"),
    ("mdpreduce.pipelines", "solve", "solve.solve"),
    ("mdpreduce.pipelines", "lift_total_value", "hv.lift"),
    ("mdpreduce.pipelines", "total_optimal_actions", "hv.lift"),
    ("mdpreduce.pipelines", "extract_average_solution", "hvag.extract"),
    ("mdpreduce.pipelines", "verify_acoe", "hvag.verify"),
    ("mdpreduce.hvag", "check_ht", "transience.check"),
    ("mdpreduce.hvag", "build_hvag", "hvag.build"),
    ("mdpreduce.solve", "howard_pi", "solve.solve"),
    ("mdpreduce.solve", "optimal_actions", "solve.optimal_actions"),
    ("mdpreduce.model", "loads_instance", "model.loads"),
    ("mdpreduce.model", "validate", "model.validate"),
    ("mdpreduce.model", "dumps_instance", "model.dumps"),
    ("mdpreduce.hv", "dumps_discounted", "hv.dumps_discounted"),
    ("mdpreduce.hv", "loads_discounted", "hv.loads_discounted"),
    ("mdpreduce.solve", "emit_lp", "solve.emit_lp"),
)

#: Spans reported as ``<span>_s``: seconds per operation, top-level only.
LAYER_SPANS = (
    "transience.check",
    "hv.build",
    "hv.lift",
    "hvag.build",
    "hvag.extract",
    "hvag.verify",
    "solve.solve",
    "model.loads",
    "model.validate",
    "model.dumps",
    "hv.dumps_discounted",
    "hv.loads_discounted",
    "solve.emit_lp",
)

METHODS = ("vi", "howard", "dantzig")

SOLVE_METRICS = (
    ("solve.iterations", "count"),
    ("solve.s_per_iteration", "s"),
    ("solve.iters_per_mKlogK", "ratio"),
)

#: Every per-layer metric of the traced run, with its unit.  A metric whose
#: layer a workload does not call reads 0.
PER_LAYER = (
    tuple((f"{span}_s", "s") for span in LAYER_SPANS)
    + (("hvag.verify_cross_check_s", "s"),)
    + SOLVE_METRICS
    + tuple(
        (f"{name}.{method}", unit)
        for method in METHODS
        for name, unit in (("solve.solve_s", "s"),) + SOLVE_METRICS
    )
    + (
        ("solve.lp_bytes", "bytes"),
        ("pipelines.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    )
)


@dataclass(frozen=True)
class Span:
    """One timed call: its span name, the enclosing span's name (``None``
    at the top of an operation), its times, and, for a solve, the method
    and the iteration count."""

    name: str
    parent: str | None
    start: float
    end: float
    method: str | None = None
    iterations: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans in memory; ``install`` wraps the ``PATCHES``
    attributes and ``remove`` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    Span(
                        name,
                        parent,
                        start,
                        end,
                        kwargs.get("method"),
                        getattr(result, "iterations", None),
                    )
                )

        return traced

    def install(self) -> None:
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


@dataclass
class OpRecord:
    """One operation that returned: wall and CPU seconds, its method (or
    ``None``), the sizes its answer reports, and its spans when traced."""

    seconds: float
    cpu_seconds: float
    method: str | None
    shape: dict
    spans: list[Span] = field(default_factory=list)


def median(values) -> float:
    return float(statistics.median(values))


def ops_per_s(seconds) -> float:
    """Operations per second over the timed loop: a mean rate, not a median."""
    return len(seconds) / math.fsum(seconds)


def unattributed(record: OpRecord) -> float:
    """Operation time not covered by a top-level layer span."""
    return record.seconds - math.fsum(s.seconds for s in record.spans if s.parent is None)


def end_to_end(records: list[OpRecord]) -> dict[str, float]:
    seconds = [r.seconds for r in records]
    return {
        "op_s.p50": median(seconds),
        "ops_per_s": ops_per_s(seconds),
        "cpu_per_op_s": math.fsum(r.cpu_seconds for r in records) / len(records),
    }


def mk_log_k(shape: dict) -> float:
    """Solver iterations over the paper's shape m K log K (natural log);
    0 when K = 1, where the reduction has beta = 0 and the shape vanishes."""
    K = shape["K"]
    if K <= 1.0:
        return 0.0
    return shape["iterations"] / (shape["m"] * K * math.log(K))


def _solve_metrics(records: list[OpRecord], suffix: str) -> dict[str, float]:
    solves = [s for r in records for s in r.spans if s.parent is None and s.name == "solve.solve"]
    iterations = [s.iterations for s in solves]
    if not solves:
        names = ("solve.solve_s",) + tuple(name for name, _ in SOLVE_METRICS)
        return {f"{name}{suffix}": 0.0 for name in names}
    return {
        f"solve.solve_s{suffix}": math.fsum(s.seconds for s in solves) / len(records),
        f"solve.iterations{suffix}": sum(iterations) / len(solves),
        f"solve.s_per_iteration{suffix}": math.fsum(s.seconds for s in solves) / sum(iterations),
        f"solve.iters_per_mKlogK{suffix}": math.fsum(mk_log_k(r.shape) for r in records)
        / len(records),
    }


def per_layer(records: list[OpRecord], overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of the traced operations ``records``."""
    count = len(records)
    top = [s for r in records for s in r.spans if s.parent is None]
    metrics = {
        f"{name}_s": math.fsum(s.seconds for s in top if s.name == name) / count
        for name in LAYER_SPANS
    }
    metrics["hvag.verify_cross_check_s"] = (
        math.fsum(s.seconds for r in records for s in r.spans if s.parent == "hvag.verify")
        / count
    )
    metrics.update(_solve_metrics(records, ""))
    for method in METHODS:
        metrics.update(_solve_metrics([r for r in records if r.method == method], f".{method}"))
    metrics["solve.lp_bytes"] = math.fsum(r.shape.get("lp_bytes", 0) for r in records) / count
    metrics["pipelines.unattributed_s"] = math.fsum(unattributed(r) for r in records) / count
    metrics["trace.overhead_s"] = overhead_s
    return metrics
