"""Spans around memotrs layer entry points, for the traced run only.

`Tracer.install` replaces, for the duration of the traced run, the names
through which `memotrs.cli` reaches each layer (module globals, the Heap
readback methods, the `Program` constructor as parser and compiler call
it, and `Term.__ne__`, which `run --check-all` uses to compare values).
Nothing that runs once per machine step is wrapped. `restore` puts the
originals back. Spans and counts stay in memory until the run ends.

A span is [name, start_ns, end_ns, parent index, job id]. Span names are
`<module>.<entry point>`, so a layer is the part before the dot; a job's
root span is `cli.main`, whose self time is argparse, report building and
printing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if on_error is not None:
                    on_error(e)
                raise
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, **hooks) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def install(self) -> None:
        from memotrs import cli, grsr, parser
        from memotrs.errors import BudgetExceededError
        from memotrs.heap import Heap
        from memotrs.terms import Term

        c = self.counts

        def chars(result, args, kwargs):
            c["parser.output_chars"] += len(result)

        def machine(result, args, kwargs):
            cfg, stats = result
            heap_in = args[1]
            c["smallstep.runs"] += 1
            c["smallstep.steps"] += stats.total
            c["smallstep.m"] += stats.applies
            c["smallstep.reads"] += stats.reads
            c["smallstep.cache_entries"] += len(cfg.cache)
            c["heap.nodes"] += cfg.heap.node_count
            c["heap.merges"] += stats.merges
            c["heap.growth"] += cfg.heap.node_count - heap_in.node_count

        def memo(result, args, kwargs):
            st = kwargs["stats"]
            c["bigstep.memo_work"] += st.work
            c["bigstep.memo_reads"] += st.reads
            c["bigstep.memo_updates"] += st.updates

        def naive(result, args, kwargs):
            c["bigstep.naive_runs"] += 1
            c["bigstep.naive_inferences"] += result.total_steps

        def naive_overflow(e):
            if isinstance(e, BudgetExceededError):
                c["bigstep.naive_runs"] += 1
                c["bigstep.naive_overflows"] += 1

        def rules(result, args, kwargs):
            c["grsr.compiled_rules"] += len(result[0].rules)

        # Term inherits object.__ne__, which inverts Term.__eq__; wrapping it
        # times only the explicit value comparisons in cmd_run, not the
        # dict lookups that go through __eq__ inside the engines
        self.patch(Term, "__ne__", "terms.values_equal")
        self.patch(parser, "parse_program_loose", "parser.parse_program")
        self.patch(cli, "parse_program_loose", "parser.parse_program")
        self.patch(cli, "parse_term", "parser.parse_term")
        self.patch(cli, "format_term", "parser.format_term", on_result=chars)
        self.patch(cli, "format_program", "parser.format_program", on_result=chars)
        self.patch(parser, "Program", "terms.validate")
        self.patch(grsr, "Program", "terms.validate")
        self.patch(cli, "program_diagnostics", "terms.diagnostics")
        self.patch(cli, "minimal_shared_size", "terms.minimal_shared_size")
        self.patch(cli, "term_size", "terms.term_size")
        for method in ("unfold", "unfolded_size", "reachable_count", "to_dot"):
            self.patch(Heap, method, f"heap.{method}")
        self.patch(cli, "initial_expression", "smallstep.load")
        self.patch(cli, "run", "smallstep.run", on_result=machine)
        self.patch(cli, "run_traced", "smallstep.run", on_result=machine)
        self.patch(cli, "eval_memo", "bigstep.memo", on_result=memo)
        self.patch(cli, "naive_run", "bigstep.naive", on_result=naive,
                   on_error=naive_overflow)
        self.patch(cli, "parse_grsr", "grsr_parser.parse_grsr")
        self.patch(cli, "infer_tiers", "grsr.infer_tiers")
        self.patch(cli, "check_tiers_explained", "grsr.check_tiers")
        self.patch(cli, "default_tier_bound", "grsr.default_tier_bound")
        self.patch(cli, "infeasibility_reason", "grsr.infeasibility_reason")
        self.patch(cli, "compile_function", "grsr.compile_function", on_result=rules)
        self.patch(cli, "rename_operations", "grsr.rename_operations")


LAYERS = ("cli", "parser", "terms", "heap", "smallstep", "bigstep", "grsr_parser", "grsr")

# span names reported as `<name>_ms`, mean self time per traced job
TIMED = (
    "parser.parse_program", "parser.parse_term", "parser.format_term",
    "parser.format_program", "terms.validate", "terms.diagnostics",
    "terms.minimal_shared_size", "terms.term_size", "terms.values_equal",
    "heap.unfold", "heap.unfolded_size", "heap.reachable_count", "heap.to_dot",
    "smallstep.load", "smallstep.run", "bigstep.naive", "bigstep.memo",
    "grsr_parser.parse_grsr", "grsr.infer_tiers", "grsr.check_tiers",
    "grsr.compile_function", "grsr.rename_operations",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced executions, as name -> (value, unit)."""
    spans = tracer.spans
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    total = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_ns[name] += end - start - child[i]
        if parent < 0:
            total += end - start
    layer_ns: dict[str, int] = defaultdict(int)
    for name, ns in self_ns.items():
        layer_ns[name.split(".")[0]] += ns
    c = tracer.counts
    per_job = lambda ns: ns / jobs / 1e6  # noqa: E731
    out: dict[str, tuple[float, str]] = {"cli.self_ms": (per_job(self_ns["cli.main"]), "ms")}
    for name in TIMED:
        out[f"{name}_ms"] = (per_job(self_ns[name]), "ms")
    for layer in LAYERS:
        out[f"{layer}.share"] = (_ratio(layer_ns[layer], total), "ratio")
    out["parser.output_chars"] = (c["parser.output_chars"] / jobs, "count")
    out["heap.nodes"] = (c["heap.nodes"] / jobs, "count")
    out["heap.merge_hit_ratio"] = (1 - _ratio(c["heap.growth"], c["heap.merges"]), "ratio")
    out["smallstep.ns_per_step"] = (_ratio(self_ns["smallstep.run"], c["smallstep.steps"]), "ns")
    for name in ("steps", "m", "cache_entries"):
        out[f"smallstep.{name}"] = (c[f"smallstep.{name}"] / jobs, "count")
    out["smallstep.trace_bytes"] = (c["smallstep.trace_bytes"] / jobs, "bytes")
    out["smallstep.read_ratio"] = (
        _ratio(c["smallstep.reads"], c["smallstep.reads"] + c["smallstep.m"]), "ratio")
    out["bigstep.naive_ns_per_inference"] = (
        _ratio(self_ns["bigstep.naive"], c["bigstep.naive_inferences"]), "ns")
    out["bigstep.naive_overflow_ratio"] = (
        _ratio(c["bigstep.naive_overflows"], c["bigstep.naive_runs"]), "ratio")
    out["bigstep.memo_ns_per_work"] = (
        _ratio(self_ns["bigstep.memo"], c["bigstep.memo_work"]), "ns")
    out["bigstep.memo_read_ratio"] = (
        _ratio(c["bigstep.memo_reads"],
               c["bigstep.memo_reads"] + c["bigstep.memo_updates"]), "ratio")
    out["grsr.compiled_rules"] = (c["grsr.compiled_rules"] / jobs, "count")
    return out
