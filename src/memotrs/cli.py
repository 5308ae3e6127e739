"""Command-line surface.

Subcommands: run (evaluate a term under one of three engines), check
(orthogonality diagnostics), tier (check or infer tier signatures), compile
(function definitions to a rewrite program), bench (cost curves as CSV).

Exit codes: 0 ok, 1 analysis found problems or engines disagreed, 2 bad
input (parse or validation), 3 stuck term, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import math
import os
import sys
import time
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .bigstep import MemoStats, eval_memo, naive_run
from .errors import BudgetExceededError, MemotrsError, ParseError, StuckError
from .heap import Heap
from .parser import (
    MAX_POWER_NODES,
    TokenStream,
    format_program,
    format_term,
    load_term,
    parse_program,
    parse_program_loose,
    read_nat,
)
from .smallstep import initial_expression, run, run_traced
from .terms import (
    Program,
    Term,
    fresh_names,
    minimal_shared_size,
    program_diagnostics,
    term_size,
)

if TYPE_CHECKING:  # loaded at run time by _load_grsr
    from .grsr_parser import GrsrDef

DEFAULT_NAIVE_BUDGET = 10**7
DEFAULT_DEPTH_CAP = 16
# sizes at or above this print as a marker instead of a number
OVERFLOW_LIMIT = 2**63
MAX_BUDGET_BITS = 64


# What tier and compile use of the tier checker and compiler. cmd_tier and
# cmd_compile bind these on their first run, as does the first read of one
# from this module, so that run, check and bench never load grsr.
_GRSR_NAMES = (
    "TierSignature", "check_tiers_explained", "compile_function", "default_tier_bound",
    "infeasibility_reason", "infer_tiers", "operation_name", "parse_grsr",
    "rename_operations",
)


def _load_grsr() -> None:
    """Bind each name above not bound yet; one set from outside stays."""
    from . import grsr, grsr_parser

    for name in _GRSR_NAMES:
        globals().setdefault(name, getattr(grsr_parser if name == "parse_grsr" else grsr, name))


def __getattr__(name: str):
    if name == "parse_term":  # not called here; bench/tracing.py patches it by name
        from .parser import parse_term

        return parse_term
    if name not in _GRSR_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_grsr()
    return globals()[name]


class RunReport(NamedTuple):
    engine: str
    value_text: Optional[str]
    dag_nodes: int
    unfolded_size: Union[int, str]
    cost_m: int
    total_steps: int
    heap_size: Optional[int]
    cache_size: Optional[int]
    wall_ns: int


def _run(
    engine: str,
    program: Program,
    term: Union[tuple, str],
    budget: Optional[int],
    depth_cap: Optional[int],
    dot_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    shared: Optional[tuple[RunReport, int, Heap]] = None,
) -> tuple[RunReport, Union[Term, int], Optional[Heap]]:
    """Evaluate term under one engine: for the shared engine its text, for
    a term engine the code load_term gives for it without a heap. --dot
    and --trace apply to shared only. Without a depth cap the report holds
    no value text.

    shared is what this function returned for the shared engine on the
    same term and depth cap. A term engine's answer that denotes shared's
    answer takes shared's value text, DAG size and unfolded size, and is
    not walked again.

    Returns the report and the answer: a location in the returned heap
    where the answer is one (the shared engine's, or a term engine's that
    denotes shared's), and otherwise the term and no heap."""
    if engine == "naive" and budget is None:
        budget = DEFAULT_NAIVE_BUDGET
    heap = None
    if engine == "shared":
        heap, code = initial_expression(program, Heap(), term)
    with contextlib.ExitStack() as files:
        # opened before the first step, so an unwritable path costs no
        # evaluation, and closed however the run ends
        trace, dot = [
            None if path is None else files.enter_context(_write(path))
            for path in (trace_path, dot_path)
        ]
        t0 = time.perf_counter_ns()
        if engine == "naive":
            res = naive_run(program, term, budget)
            answer, m, total = res.value, res.rewrite_steps, res.total_steps
            cache_size = None
        elif engine == "memo":
            stats = MemoStats()
            out = eval_memo(program, {}, term, budget=budget, stats=stats)
            answer, m, total, cache_size = out.value, out.cost, stats.work, len(out.cache)
        elif trace is not None:
            cfg, rs = run_traced(program, heap, code, trace, step_budget=budget)
        else:
            cfg, rs = run(program, heap, code, step_budget=budget)
        wall = time.perf_counter_ns() - t0
        if dot is not None:
            dot.write(cfg.heap.to_dot([cfg.loc]))
    if heap is not None:
        heap, answer = cfg.heap, cfg.loc
        m, total, cache_size = rs.applies, rs.total, len(cfg.cache)
    elif shared is not None and shared[2].denotes(shared[1], answer):
        like, answer, heap = shared
        report = like._replace(
            engine=engine, cost_m=m, total_steps=total, heap_size=None,
            cache_size=cache_size, wall_ns=wall,
        )
        return report, answer, heap
    # sizes saturate at OVERFLOW_LIMIT, which prints as a marker anyway
    if heap is None:
        dag_nodes = minimal_shared_size([answer])
        size = term_size(answer, OVERFLOW_LIMIT)
    else:
        dag_nodes = heap.reachable_count(answer)
        size = heap.unfolded_size(answer, OVERFLOW_LIMIT)
    value_text = None
    if depth_cap is not None:
        value_text = format_term(answer, max_depth=depth_cap, compress=True, heap=heap)
    report = RunReport(
        engine=engine,
        value_text=value_text,
        dag_nodes=dag_nodes,
        unfolded_size=size if size < OVERFLOW_LIMIT else "overflow",
        cost_m=m,
        total_steps=total,
        heap_size=None if heap is None else heap.node_count,
        cache_size=cache_size,
        wall_ns=wall,
    )
    return report, answer, heap


ENGINES = ("memo", "naive", "shared")


def _print_report(r: RunReport, text: str, out) -> None:
    out.write(f"engine: {r.engine}\n")
    out.write(f"input: {text}\n")
    out.write(f"value: {r.value_text}\n")
    out.write(f"value dag nodes: {r.dag_nodes}\n")
    out.write(f"unfolded size: {r.unfolded_size}\n")
    out.write(f"m: {r.cost_m}\n")
    out.write(f"total steps: {r.total_steps}\n")
    if r.heap_size is not None:
        out.write(f"heap size: {r.heap_size}\n")
    if r.cache_size is not None:
        out.write(f"cache size: {r.cache_size}\n")
    out.write(f"wall ms: {r.wall_ns / 1e6:.3f}\n")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: {e}")


class _Output(io.FileIO):
    """A file for writing; a failed write, on closing too, raises ParseError."""

    def write(self, data) -> int:
        try:
            return super().write(data)
        except OSError as e:
            raise ParseError(f"cannot write {self.name}: {e.strerror}")


def _write(path: str):
    """path opened for writing text."""
    try:
        raw = _Output(path, "w")
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e.strerror}")
    return io.TextIOWrapper(io.BufferedWriter(raw), newline="")


def cmd_run(args) -> int:
    """Evaluate a term under one engine and print its report. With
    --check-all, under all three, shared first: a term engine agrees when
    its value denotes the shared answer in the run's heap (Heap.denotes),
    and its report then reads the value where the shared run left it. The
    shared answer is never unfolded into a term, and the reported heap
    size is the run's own. The shared engine loads the term's text into
    its heap; for the term engines the text is loaded once, without a
    heap, and both run that code."""
    program = parse_program(_read(args.file))
    from_text = args.check_all or args.engine == "shared"
    term = args.term if from_text else load_term(args.term, program.signature)
    out = sys.stdout
    if (args.trace or args.dot) and not from_text:
        raise ParseError("--trace and --dot need the shared engine")
    if args.check_all:
        shared = _run(
            "shared", program, term, args.budget, args.depth_cap,
            dot_path=args.dot, trace_path=args.trace,
        )
        term = load_term(args.term, program.signature)
        memo_rep, _, memo_heap = _run(
            "memo", program, term, args.budget, args.depth_cap, shared=shared
        )
        naive_note = None
        try:
            naive_rep, _, naive_heap = _run(
                "naive", program, term, args.budget, args.depth_cap,
                shared=shared,
            )
        except BudgetExceededError as e:
            naive_rep = None
            naive_note = str(e)
        shared_rep = shared[0]
        for rep in (shared_rep, memo_rep, naive_rep):
            if rep is not None:
                _print_report(rep, args.term, out)
                out.write("\n")
        if naive_note:
            out.write(f"naive: skipped ({naive_note})\n")
        problems = []
        if memo_heap is None:
            problems.append("memo and shared values differ")
        if memo_rep.cost_m != shared_rep.cost_m:
            problems.append(
                f"m differs: memo {memo_rep.cost_m}, shared {shared_rep.cost_m}"
            )
        if naive_rep is not None and naive_heap is None:
            problems.append("naive and shared values differ")
        if problems:
            for p in problems:
                out.write(f"DISAGREEMENT: {p}\n")
            return 1
        out.write("agreement: ok\n")
        return 0
    report, _, _ = _run(
        args.engine, program, term, args.budget, args.depth_cap,
        dot_path=args.dot, trace_path=args.trace,
    )
    _print_report(report, args.term, out)
    return 0


def cmd_check(args) -> int:
    sig, rules = parse_program_loose(_read(args.file))
    problems = program_diagnostics(sig, rules)
    if problems:
        for p in problems:
            print(p)
        return 1
    print("orthogonal")
    return 0


def _tier_line(d: GrsrDef, tmax_flag: Optional[int]) -> str:
    f = d.expr
    fully = d.tier_inputs is not None and d.tier_output is not None and all(
        i is not None for i in d.tier_inputs
    )
    if fully:
        sig = TierSignature(tuple(d.tier_inputs), d.tier_output)
        reason = check_tiers_explained(f, sig)
        if reason is None:
            return f"{d.name}: accepted {sig}"
        return f"{d.name}: rejected {sig}: {reason}"
    tmax = tmax_flag if tmax_flag is not None else default_tier_bound(f)
    pins = None if d.tier_inputs is None else (*d.tier_inputs, d.tier_output)
    sigs = infer_tiers(f, tmax, pins)
    if sigs:
        listed = ", ".join(str(s) for s in sigs)
        return f"{d.name}: signatures up to tier {tmax}: {listed}"
    reason = infeasibility_reason(f)
    tail = f": {reason}" if reason else ""
    return f"{d.name}: no signatures up to tier {tmax}{tail}"


def cmd_tier(args) -> int:
    _load_grsr()
    gf = parse_grsr(_read(args.file))
    for d in gf.defs:
        print(_tier_line(d, args.tmax))
    return 0


def cmd_compile(args) -> int:
    _load_grsr()
    gf = parse_grsr(_read(args.file))
    if not gf.defs:
        raise ParseError("no definitions to compile")
    if args.entry is not None:
        try:
            target = gf.lookup(args.entry)
        except KeyError:
            raise ParseError(f"no definition named {args.entry}")
    else:
        target = gf.defs[-1]
    program, entry = compile_function(target.expr)
    sig = program.signature
    mapping: dict[str, str] = {}
    for d in gf.defs:
        name = operation_name(d.expr, sig.constructors)
        if name in sig.operations and name not in mapping:
            mapping[name] = d.name
    # a def named like a constructor leaves that name to the constructor
    taken = {*sig.constructors, *sig.operations, *mapping.values()}
    fresh = fresh_names(sig.constructors.keys() & mapping.values(), taken)
    mapping = {k: fresh.get(v, v) for k, v in mapping.items() if k != v}
    program = rename_operations(program, mapping)
    entry = mapping.get(entry, entry)
    text = f"# entry: {entry}\n" + format_program(program)
    if args.output:
        with _write(args.output) as fh:
            fh.write(text)
        print(f"entry: {entry}")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _range_bounds(text: str) -> tuple[int, int]:
    """The bounds A <= B of A..B, each read as a number in a term is read."""
    lo_text, dots, hi_text = text.partition("..")
    bounds = (lo_text, hi_text)
    if not dots or not all(t.isascii() and t.isdigit() for t in bounds):
        raise ParseError(f"bad range {text!r}, expected A..B")
    lo, hi = (read_nat(TokenStream(t)) for t in bounds)
    if lo > hi:
        raise ParseError(f"bad range {text!r}, {lo} is above {hi}")
    return lo, hi


def _bench_row(
    eng: str, n: int, program: Program, term: Union[tuple, str], budget: Optional[int],
    shared: Optional[tuple[RunReport, int, Heap]] = None,
) -> tuple[str, Optional[tuple[RunReport, int, Heap]]]:
    """One engine's CSV row for term, an overflow row when over budget, and
    what _run returned, if it returned."""
    t0 = time.perf_counter_ns()
    try:
        result = _run(eng, program, term, budget, None, shared=shared)
    except BudgetExceededError:
        return f"{eng},{n},,,,overflow,{time.perf_counter_ns() - t0}\n", None
    r = result[0]
    # answer sub-DAG size for every engine, not the whole heap
    row = f"{eng},{n},{r.cost_m},{r.total_steps},{r.dag_nodes},{r.unfolded_size},{r.wall_ns}\n"
    return row, result


def cmd_bench(args) -> int:
    """Print one CSV row per engine and n, in the order --engine lists them.
    For each n a listed shared engine runs first, from the term's text, so
    the term engines, which share one load of that text (load_term without
    a heap), are read against its answer (see _run); its row, or its
    error, still comes at its place. A shared engine listed again also
    runs from the text."""
    program = parse_program(_read(args.file))
    engines = args.engine.split(",")
    for e in engines:
        if e not in ENGINES:
            raise ParseError(f"unknown engine {e}")
    lo, hi = _range_bounds(args.range)
    if args.template is None and args.entry is None:
        raise ParseError("give an entry operation or --template")
    sig = program.signature
    family = args.template
    if family is None:
        if hi > MAX_POWER_NODES:  # the limit run puts on suc^N, checked first
            raise ParseError(f"suc^{hi} would expand the term beyond {MAX_POWER_NODES} nodes")
        if sig.constructors.get("zero") != 0 or sig.constructors.get("suc") != 1:
            raise ParseError("the sucN family needs constructors zero/0 and suc/1")
        if sig.operations.get(args.entry) != 1:
            raise ParseError(f"the sucN family needs a unary operation, got {args.entry}")
        family = args.entry + "(suc^{n}(zero))"
    parsed = any(e != "shared" for e in engines)
    if parsed or args.template is not None:  # a bad template is refused before any output
        first = load_term(family.replace("{n}", str(lo)), sig)
    with _write(args.csv) if args.csv else contextlib.nullcontext(sys.stdout) as out:
        out.write("engine,n,m,total_steps,heap_nodes,unfolded_size_or_overflow,wall_ns\n")
        for n in range(lo, hi + 1):
            text = family.replace("{n}", str(n))
            term = (first if n == lo else load_term(text, sig)) if parsed else text
            shared = early = None
            at = engines.index("shared") if "shared" in engines else -1
            if at >= 0:
                try:
                    early, shared = _bench_row("shared", n, program, text, args.budget)
                except MemotrsError as e:
                    early = e
            for i, eng in enumerate(engines):
                if i != at:
                    given = text if eng == "shared" else term
                    row, _ = _bench_row(eng, n, program, given, args.budget, shared)
                elif isinstance(early, MemotrsError):
                    raise early
                else:
                    row = early
                out.write(row)
    return 0


def _budget_value(text: str) -> int:
    """A budget: a natural number N, or B^E for natural numbers B and E."""
    base, hat, exp = text.partition("^")
    b, e = _natural(base), _natural(exp) if hat else 1
    # checked before exponentiating: 10^999999999 alone needs ~415 MB
    if b > 1 and e * math.log2(b) > MAX_BUDGET_BITS:
        raise argparse.ArgumentTypeError(
            f"budget {text} is larger than 2^{MAX_BUDGET_BITS}"
        )
    return b**e


def _natural(text: str) -> int:
    """A natural number in ASCII digits, as a term or --range writes one:
    --tmax, --depth-cap, and a budget's base and exponent."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if digits != text:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return int(text)


@functools.cache  # built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="memotrs",
        description="Run, analyze, compile, and benchmark constructor "
        "rewrite programs with memoization and sharing.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="evaluate a term")
    p.add_argument("file", help="program file")
    p.add_argument("term", help="ground term to evaluate")
    p.add_argument("--engine", choices=ENGINES, default="shared")
    p.add_argument("--budget", type=_budget_value, default=None,
                   help="step budget (accepts B^E)")
    p.add_argument("--check-all", action="store_true",
                   help="run every engine and require agreement")
    p.add_argument("--dot", metavar="FILE", help="write the answer DAG (shared)")
    p.add_argument("--trace", metavar="FILE", help="write a step trace CSV (shared)")
    p.add_argument("--depth-cap", type=_natural, default=DEFAULT_DEPTH_CAP,
                   help="print the value only to this depth")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("check", help="orthogonality diagnostics")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("tier", help="check or infer tier signatures")
    p.add_argument("file")
    p.add_argument("--tmax", type=_natural, default=None, help="largest tier to try")
    p.set_defaults(fn=cmd_tier)

    p = sub.add_parser("compile", help="compile function definitions")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="FILE", help="write the program here")
    p.add_argument("--entry", help="definition to compile (default: last)")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("bench", help="cost curves over an input family")
    p.add_argument("file")
    p.add_argument("entry", nargs="?", default=None,
                   help="unary operation for the sucN family")
    p.add_argument("--template", default=None,
                   help="term template with an {n} placeholder (overrides family)")
    p.add_argument("--range", default="1..20", help="n range A..B")
    p.add_argument("--engine", default="shared",
                   help="comma-separated: naive,memo,shared")
    p.add_argument("--budget", type=_budget_value, default=None)
    p.add_argument("--csv", metavar="FILE", help="write rows here (default stdout)")
    p.set_defaults(fn=cmd_bench)
    return ap


def _discard_stdout() -> None:
    """Point a failed standard output at the null device, so what it still
    buffers goes nowhere when the interpreter flushes it at exit, which would
    otherwise fail again and turn the exit code into 120."""
    try:
        fd = sys.stdout.fileno()
    except io.UnsupportedOperation:  # a stream in memory, not the process's
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: Optional[list[str]] = None) -> int:
    # what the engines build holds no reference cycle: no collection is due
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        try:
            return args.fn(args)
        finally:
            sys.stdout.flush()  # a write that fails, fails here and not at exit
    except OSError as e:
        # _read and _write name their own paths, so this is standard output
        print(f"error: cannot write <stdout>: {e.strerror}", file=sys.stderr)
        _discard_stdout()
        return 2
    except StuckError as e:
        print(f"stuck: {e}", file=sys.stderr)
        return 3
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 4
    except MemotrsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
