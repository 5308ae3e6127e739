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
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Union

from .bigstep import MemoStats, eval_memo, naive_run
from .errors import (
    BudgetExceededError,
    MemotrsError,
    ParseError,
    StuckError,
)
from .grsr import (
    TierSignature,
    check_tiers_explained,
    compile_function,
    default_tier_bound,
    infeasibility_reason,
    infer_tiers,
    operation_name,
    rename_operations,
)
from .grsr_parser import GrsrDef, parse_grsr
from .heap import Heap
from .parser import (
    MAX_POWER_NODES,
    TokenStream,
    format_program,
    format_term,
    parse_program,
    parse_program_loose,
    parse_term,
    read_nat,
    tokenize,
)
from .smallstep import initial_expression, run, run_traced
from .terms import (
    App,
    Program,
    Term,
    minimal_shared_size,
    program_diagnostics,
    term_size,
)

DEFAULT_NAIVE_BUDGET = 10**7
DEFAULT_DEPTH_CAP = 16
# sizes at or above this print as a marker instead of a number
OVERFLOW_LIMIT = 2**63
MAX_BUDGET_BITS = 64


@dataclass
class RunReport:
    engine: str
    input_text: str
    value_text: str
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
    term: Term,
    text: str,
    budget: Optional[int],
    depth_cap: int,
    dot_path: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> tuple[RunReport, Union[Term, int], Optional[Heap]]:
    """Evaluate term under one engine; --dot and --trace apply to shared only.

    Returns the report and the answer as the engine holds it: a term, or
    for the shared engine a location in the returned heap."""
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
    # sizes saturate at OVERFLOW_LIMIT, which prints as a marker anyway
    if heap is None:
        dag_nodes = minimal_shared_size([answer])
        size = term_size(answer, OVERFLOW_LIMIT)
    else:
        heap, answer = cfg.heap, cfg.loc
        m, total, cache_size = rs.applies, rs.total, len(cfg.cache)
        dag_nodes = heap.reachable_count(answer)
        size = heap.unfolded_size(answer, OVERFLOW_LIMIT)
    report = RunReport(
        engine=engine,
        input_text=text,
        value_text=format_term(answer, max_depth=depth_cap, compress=True, heap=heap),
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


def _print_report(r: RunReport, out) -> None:
    out.write(f"engine: {r.engine}\n")
    out.write(f"input: {r.input_text}\n")
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


def _write(path: str):
    """path opened for writing text."""
    try:
        return open(path, "w", newline="")
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e.strerror}")


def cmd_run(args) -> int:
    program = parse_program(_read(args.file))
    term = parse_term(args.term, program.signature)
    out = sys.stdout
    if (args.trace or args.dot) and args.engine != "shared" and not args.check_all:
        raise ParseError("--trace and --dot need the shared engine")
    if args.check_all:
        shared_rep, loc, heap = _run(
            "shared", program, term, args.term, args.budget, args.depth_cap,
            dot_path=args.dot, trace_path=args.trace,
        )
        shared_val = heap.unfold(loc)
        memo_rep, memo_val, _ = _run(
            "memo", program, term, args.term, args.budget, args.depth_cap
        )
        naive_note = None
        naive_val = None
        try:
            naive_rep, naive_val, _ = _run(
                "naive", program, term, args.term, args.budget, args.depth_cap
            )
        except BudgetExceededError as e:
            naive_rep = None
            naive_note = str(e)
        for rep in (shared_rep, memo_rep, naive_rep):
            if rep is not None:
                _print_report(rep, out)
                out.write("\n")
        if naive_note:
            out.write(f"naive: skipped ({naive_note})\n")
        problems = []
        if memo_val != shared_val:
            problems.append("memo and shared values differ")
        if memo_rep.cost_m != shared_rep.cost_m:
            problems.append(
                f"m differs: memo {memo_rep.cost_m}, shared {shared_rep.cost_m}"
            )
        if naive_val is not None and naive_val != shared_val:
            problems.append("naive and shared values differ")
        if problems:
            for p in problems:
                out.write(f"DISAGREEMENT: {p}\n")
            return 1
        out.write("agreement: ok\n")
        return 0
    report, _, _ = _run(
        args.engine, program, term, args.term, args.budget, args.depth_cap,
        dot_path=args.dot, trace_path=args.trace,
    )
    _print_report(report, out)
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
        derivation, reason = check_tiers_explained(f, sig)
        if derivation is not None:
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
    gf = parse_grsr(_read(args.file))
    for d in gf.defs:
        print(_tier_line(d, args.tmax))
    return 0


def cmd_compile(args) -> int:
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
    mapping: dict[str, str] = {}
    for d in gf.defs:
        name = operation_name(d.expr, program.signature.constructors)
        if name in program.signature.operations and name not in mapping:
            mapping[name] = d.name
    mapping = {k: v for k, v in mapping.items() if k != v}
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


def _family_term(args, program: Program, n: int) -> Term:
    sig = program.signature
    if args.template is not None:
        return parse_term(args.template.replace("{n}", str(n)), sig)
    if sig.constructors.get("zero") != 0 or sig.constructors.get("suc") != 1:
        raise ParseError("the sucN family needs constructors zero/0 and suc/1")
    if sig.operations.get(args.entry) != 1:
        raise ParseError(f"the sucN family needs a unary operation, got {args.entry}")
    t: Term = App("zero", ())
    for _ in range(n):
        t = App("suc", (t,))
    return App(args.entry, (t,))


def _range_bounds(text: str) -> tuple[int, int]:
    """The bounds of A..B, each read as a number in a term is read."""
    lo_text, dots, hi_text = text.partition("..")
    bounds = (lo_text, hi_text)
    if not dots or not all(t.isascii() and t.isdigit() for t in bounds):
        raise ParseError(f"bad range {text!r}, expected A..B")
    lo, hi = (read_nat(TokenStream(tokenize(t))) for t in bounds)
    return lo, hi


def cmd_bench(args) -> int:
    program = parse_program(_read(args.file))
    engines = args.engine.split(",")
    for e in engines:
        if e not in ENGINES:
            raise ParseError(f"unknown engine {e}")
    lo, hi = _range_bounds(args.range)
    if args.template is None and args.entry is None:
        raise ParseError("give an entry operation or --template")
    if args.template is None and hi > MAX_POWER_NODES:
        # the limit run puts on suc^N, checked before any term is built
        raise ParseError(
            f"suc^{hi} would expand the term beyond {MAX_POWER_NODES} nodes"
        )
    first = _family_term(args, program, lo) if lo <= hi else None  # before any output
    out = _write(args.csv) if args.csv else sys.stdout
    try:
        out.write("engine,n,m,total_steps,heap_nodes,unfolded_size_or_overflow,wall_ns\n")
        for n in range(lo, hi + 1):
            term = first if n == lo else _family_term(args, program, n)
            text = format_term(term, max_depth=4)
            for eng in engines:
                t0 = time.perf_counter_ns()
                try:
                    report, _, _ = _run(eng, program, term, text, args.budget, 1)
                except BudgetExceededError:
                    wall = time.perf_counter_ns() - t0
                    out.write(f"{eng},{n},,,,overflow,{wall}\n")
                    continue
                # answer sub-DAG size for every engine, not the whole heap
                row_heap = report.dag_nodes
                out.write(
                    f"{eng},{n},{report.cost_m},{report.total_steps},"
                    f"{row_heap},{report.unfolded_size},{report.wall_ns}\n"
                )
    finally:
        if args.csv:
            out.close()
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


def main(argv: Optional[list[str]] = None) -> int:
    # what the engines build holds no reference cycle: no collection is due
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
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
