import argparse
import contextlib
import errno
import gc
import io
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from memotrs import (
    App,
    GrsrError,
    Heap,
    MemoStats,
    StuckError,
    compile_function,
    eval_memo,
    format_program,
    format_term,
    minimal_shared_size,
    naive_run,
    parse_grsr,
    parse_program,
    parser,
    rename_operations,
    term_size,
)
from memotrs import cli, grsr
from memotrs.cli import (
    DEFAULT_DEPTH_CAP,
    DEFAULT_NAIVE_BUDGET,
    OVERFLOW_LIMIT,
    _budget_value,
    _build_parser,
    main,
)
from memotrs.grsr_parser import MAX_ARITY, MAX_NESTING
from helpers import rabbit_tree, random_grsr, random_program, random_value
from oracle import eval_grsr

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def report_fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if ": " in line:
            k, v = line.split(": ", 1)
            out[k] = v
    return out


def test_run_shared_rabbits(capsys):
    assert main(["run", str(PROGRAMS / "rabbits.trs"), "rabbits(suc^6(zero))"]) == 0
    rep = report_fields(capsys.readouterr().out)
    assert rep["engine"] == "shared"
    assert rep["value dag nodes"] == "10"
    assert rep["unfolded size"] == "20"
    assert rep["m"] == "11"
    assert rep["total steps"] == "35"
    assert rep["heap size"] == "17"
    assert rep["cache size"] == "11"
    assert "wall ms" in rep


def test_run_memo_add(capsys):
    code = main(
        [
            "run",
            str(PROGRAMS / "add.trs"),
            "add(suc^2(zero), suc(zero))",
            "--engine",
            "memo",
        ]
    )
    assert code == 0
    rep = report_fields(capsys.readouterr().out)
    assert rep["engine"] == "memo"
    assert rep["value"] == "suc^3(zero)"
    assert rep["m"] == "3"
    assert rep["unfolded size"] == "4"
    assert main(["run", str(PROGRAMS / "add.trs"), "add(zero, zero)",
                 "--engine", "memo"]) == 0
    assert report_fields(capsys.readouterr().out)["m"] == "1"


def test_run_naive_budget_exit(capsys):
    code = main(
        [
            "run",
            str(PROGRAMS / "tree.trs"),
            "tree(suc^20(zero))",
            "--engine",
            "naive",
            "--budget",
            "10^6",
        ]
    )
    assert code == 4
    assert "budget exceeded" in capsys.readouterr().err


def test_run_shared_handles_huge_output(capsys):
    code = main(["run", str(PROGRAMS / "tree.trs"), "tree(suc^20(zero))"])
    assert code == 0
    rep = report_fields(capsys.readouterr().out)
    assert rep["m"] == "41"
    assert rep["value dag nodes"] == "21"
    assert rep["unfolded size"] == str(2**21 - 1)
    assert "..." in rep["value"]  # depth cap elides the output tree


def test_unfolded_size_overflows_at_the_limit(capsys):
    # the unfolding of tree(n) has 2^(n+1) - 1 nodes; 2^63 and more print
    # as overflow under both the heap and the term size computation
    for engine in ("shared", "memo"):
        for n, want in ((62, str(2**63 - 1)), (63, "overflow"), (70, "overflow")):
            argv = ["run", str(PROGRAMS / "tree.trs"), f"tree(suc^{n}(zero))"]
            assert main(argv + ["--engine", engine]) == 0
            assert report_fields(capsys.readouterr().out)["unfolded size"] == want


def test_answer_sizes_stay_small_on_huge_answers():
    # a complete tree of depth 40,000 as a heap and as a shared term. Exact
    # sizes would hold about depth^2 / 16 bytes of integers and take time
    # quadratic in the depth; saturated at the limit, the peak is 2 MB for
    # the heap and 9 MB for the term (its walk's own tables), against 110 MB
    # exact: the 30 MB bound leaves over 3x on either side
    depth = 40_000
    heap = Heap()
    loc = heap.merge("leaf", ())
    term = App("leaf", ())
    for _ in range(depth):
        loc = heap.merge("branch", (loc, loc))
        term = App("branch", (term, term))
    for size_of in (lambda: heap.unfolded_size(loc, OVERFLOW_LIMIT),
                    lambda: term_size(term, OVERFLOW_LIMIT)):
        tracemalloc.start()
        try:
            assert size_of() == OVERFLOW_LIMIT
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20


def test_run_depth_cap_flag(capsys):
    code = main(
        ["run", str(PROGRAMS / "rabbits.trs"), "rabbits(suc^6(zero))",
         "--depth-cap", "2"]
    )
    assert code == 0
    rep = report_fields(capsys.readouterr().out)
    assert "..." in rep["value"]


def test_check_all_agreement(capsys):
    code = main(
        ["run", str(PROGRAMS / "rabbits.trs"), "rabbits(suc^5(zero))", "--check-all"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("engine:") == 3
    assert "agreement: ok" in out
    assert "DISAGREEMENT" not in out


@pytest.mark.parametrize("engine, wrong, message", [
    ("eval_memo", "value", "memo and shared values differ"),
    ("eval_memo", "cost", "m differs: memo 10, shared 9"),
    ("naive_run", "value", "naive and shared values differ"),
])
def test_check_all_reports_each_disagreement(engine, wrong, message, monkeypatch, capsys):
    right = getattr(cli, engine)

    def skewed(*args, **kwargs):
        out = right(*args, **kwargs)
        if wrong == "value":
            out.value = App("leafn", ())
        else:
            out.cost += 1
        return out

    monkeypatch.setattr(cli, engine, skewed)
    code = main(["run", str(PROGRAMS / "rabbits.trs"), "rabbits(suc^5(zero))", "--check-all"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.endswith(f"DISAGREEMENT: {message}\n")
    assert out.count("DISAGREEMENT") == 1 and "agreement: ok" not in out


def _suc_over(n, bottom):
    for _ in range(n):
        bottom = App("suc", (bottom,))
    return bottom


ZERO = App("zero", ())


@pytest.mark.parametrize("engine, value", [
    # the answer is suc^300(zero); each value below is some other term
    ("eval_memo", _suc_over(300, App("leafm", ()))),  # only its bottom differs
    ("eval_memo", _suc_over(299, ZERO)),  # a value the run's heap holds
    ("eval_memo", _suc_over(301, ZERO)),
    ("eval_memo", App("add", (_suc_over(300, ZERO), ZERO))),  # operation at the head
    ("naive_run", _suc_over(300, App("leafs", (ZERO,)))),  # operation at the bottom
    ("naive_run", App("add", (ZERO,))),  # not at its arity
    ("naive_run", _suc_over(300, App("none", ()))),  # not declared
])
def test_check_all_compares_values_as_locations(engine, value, monkeypatch, capsys):
    right = getattr(cli, engine)

    def skewed(*args, **kwargs):
        out = right(*args, **kwargs)
        out.value = value
        return out

    monkeypatch.setattr(cli, engine, skewed)
    argv = ["run", str(PROGRAMS / "leafs.trs"), "add(suc^200(zero), suc^100(zero))",
            "--check-all"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    which = "memo" if engine == "eval_memo" else "naive"
    assert out.endswith(f"DISAGREEMENT: {which} and shared values differ\n")
    assert out.count("DISAGREEMENT") == 1


def test_check_all_reports_the_shared_runs_heap_size(capsys):
    for program, term in (("leafs.trs", "add(suc^200(zero), suc^100(zero))"),
                          ("rabbits.trs", "rabbits(suc^9(zero))")):
        argv = ["run", str(PROGRAMS / program), term]
        sizes = []
        for extra in ([], ["--check-all"]):
            assert main(argv + extra) == 0
            sizes.append(report_fields(capsys.readouterr().out)["heap size"])
        assert sizes[0] == sizes[1]


def _term_report(engine, text, value, m, total, cache_size):
    """The report lines of a term engine's answer, wall time left out, as
    the term printer and counters give them on the value itself."""
    size = term_size(value, OVERFLOW_LIMIT)
    lines = [
        f"engine: {engine}", f"input: {text}",
        f"value: {format_term(value, max_depth=DEFAULT_DEPTH_CAP, compress=True)}",
        f"value dag nodes: {minimal_shared_size([value])}",
        f"unfolded size: {size if size < OVERFLOW_LIMIT else 'overflow'}",
        f"m: {m}", f"total steps: {total}",
    ]
    return lines + ([] if cache_size is None else [f"cache size: {cache_size}"])


def test_check_all_term_reports_equal_reports_read_from_the_terms(tmp_path, capsys):
    # the term engines' reports are read where the shared run left the
    # answer; they must say what reading the engines' own values says
    cases = [(parse_program((PROGRAMS / f).read_text()), t) for f, t in (
        ("rabbits.trs", "rabbits(suc^9(zero))"), ("tree.trs", "tree(suc^11(zero))"),
        ("add.trs", "add(suc^40(zero), suc^7(zero))"),
        ("leafs.trs", "leafs(m(n(m(leafm, leafn)), m(leafn, n(leafn))))"))]
    for seed in range(80):
        p = random_program(seed)
        rng = random.Random(seed)
        cons = p.signature.constructors
        for op, k in p.signature.operations.items():
            args = [random_value(rng, cons, rng.randint(1, 4)) for _ in range(k)]
            cases.append((p, format_term(App(op, tuple(args)))))
    for i, (p, text) in enumerate(cases):
        path = tmp_path / f"p{i}.trs"
        path.write_text(format_program(p))
        assert main(["run", str(path), text, "--check-all"]) == 0
        blocks = capsys.readouterr().out.split("\n\n")
        term = cli.parse_term(text, p.signature)
        stats = MemoStats()
        memo = eval_memo(p, {}, term, stats=stats)
        naive = naive_run(p, term, DEFAULT_NAIVE_BUDGET)
        want = [
            _term_report("memo", text, memo.value, memo.cost, stats.work, len(memo.cache)),
            _term_report("naive", text, naive.value, naive.rewrite_steps, naive.total_steps,
                         None),
        ]
        got = [block.splitlines()[:-1] for block in blocks[1:3]]  # wall time last
        assert got == want, text
        assert blocks[3] == "agreement: ok\n"


def test_check_all_skips_naive_beyond_budget(capsys):
    code = main(
        [
            "run",
            str(PROGRAMS / "tree.trs"),
            "tree(suc^20(zero))",
            "--check-all",
            "--budget",
            "10^6",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "naive: skipped (" in out
    assert "agreement: ok" in out


def test_check_all_gives_naive_its_budget(capsys):
    add = str(PROGRAMS / "add.trs")
    assert main(["run", add, "zero", "--engine", "naive", "--budget", "0"]) == 4
    assert main(["run", add, "zero", "--check-all", "--budget", "0"]) == 0
    out = capsys.readouterr().out
    assert "engine: naive" not in out
    assert "naive: skipped (naive evaluation exceeded 0 inferences)" in out


def test_trace_and_dot_outputs(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    dot = tmp_path / "g.dot"

    def once():
        code = main(
            [
                "run",
                str(PROGRAMS / "rabbits.trs"),
                "rabbits(suc^6(zero))",
                "--trace",
                str(trace),
                "--dot",
                str(dot),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return trace.read_bytes(), dot.read_bytes()

    t1, d1 = once()
    lines = t1.decode().splitlines()
    assert lines[0] == "step,kind,weight,heap_size,cache_size"
    assert len(lines) == 36  # header plus one row per step
    assert d1.decode().count('label="l') == 10
    t2, d2 = once()
    assert (t1, d1) == (t2, d2)


def test_trace_needs_shared_engine(capsys):
    code = main(
        ["run", str(PROGRAMS / "add.trs"), "add(zero, zero)",
         "--engine", "memo", "--trace", "x.csv"]
    )
    assert code == 2
    assert "shared engine" in capsys.readouterr().err


def test_check_reports(tmp_path, capsys):
    assert main(["check", str(PROGRAMS / "rabbits.trs")]) == 0
    assert capsys.readouterr().out.strip() == "orthogonal"

    bad = tmp_path / "bad.trs"
    bad.write_text(
        "constructors: zero/0;\noperations: g/2;\nrules: g(x, x) -> x;\n"
    )
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().out == "linearity: variable x repeated in g(x, x)\n"
    # loading the program for a run fails on the same problem, worded alike
    assert main(["run", str(bad), "g(zero, zero)"]) == 2
    assert capsys.readouterr().err == "error: linearity: variable x repeated in g(x, x)\n"

    dup = tmp_path / "dup.trs"
    dup.write_text(
        "constructors: zero/0;\noperations: f/1;\n"
        "rules: f(x) -> x; f(zero) -> zero;\n"
    )
    assert main(["check", str(dup)]) == 1
    out = capsys.readouterr().out
    assert "ambiguity" in out and "f(x)" in out and "f(zero)" in out


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.trs")), ids=lambda p: p.name)
def test_shipped_program_is_orthogonal(path, capsys):
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "orthogonal\n"


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.grsr")), ids=lambda p: p.name)
def test_shipped_functions_tier_and_compile(path, capsys):
    assert main(["tier", str(path)]) == 0
    capsys.readouterr()
    assert main(["compile", str(path)]) == 0
    parse_program(capsys.readouterr().out)  # an orthogonal program


def test_parse_failures_exit_2(tmp_path, capsys):
    junk = tmp_path / "junk.trs"
    junk.write_text("constructors zero/0\n")
    assert main(["check", str(junk)]) == 2
    capsys.readouterr()
    assert main(["run", str(tmp_path / "missing.trs"), "zero"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", str(PROGRAMS / "add.trs"), "add(zero)"]) == 2
    capsys.readouterr()


def test_stuck_exit_3(tmp_path, capsys):
    partial = tmp_path / "half.trs"
    partial.write_text(
        "constructors: zero/0, suc/1;\n"
        "operations: half/1;\n"
        "rules:\n"
        "  half(zero) -> zero;\n"
        "  half(suc(suc(x))) -> suc(half(x));\n"
    )
    assert main(["run", str(partial), "half(suc^4(zero))"]) == 0
    capsys.readouterr()
    assert main(["run", str(partial), "half(suc^3(zero))"]) == 3
    assert "stuck" in capsys.readouterr().err


def test_tier_lines(capsys):
    assert main(["tier", str(PROGRAMS / "add.grsr")]) == 0
    assert capsys.readouterr().out.strip() == "add: accepted (2, 1) -> 1"

    assert main(["tier", str(PROGRAMS / "rabbits.grsr")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "adults: accepted (1) -> 0",
        "babies: accepted (1) -> 0",
        "rabbits: accepted (1) -> 0",
    ]

    assert main(["tier", str(PROGRAMS / "leafs.grsr")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "add: accepted (2, 1) -> 1"
    assert lines[1].startswith("one: signatures up to tier")
    assert lines[2] == (
        "leafs: rejected (1) -> 1: recursion argument must sit strictly above the result"
        " in rec[N{zero/0,suc/1}](proj[1,1];comp(cons[N.suc/1];proj[3,2]))@1")


def test_tier_lines_for_nested_recursions(capsys):
    assert main(["tier", str(PROGRAMS / "arith.grsr")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["add", "zr", "mul", "sq", "cube"]
    assert lines[0] == "add: accepted (2, 1) -> 1"
    assert lines[1] == "zr: signatures up to tier 2: (1) -> 0, (2) -> 0, (2) -> 1"
    assert lines[2].startswith("mul: signatures up to tier 4: (1, 1) -> 0, (1, 2) -> 0, ")
    assert lines[4] == ("cube: signatures up to tier 4: "
                        "(2) -> 0, (3) -> 0, (3) -> 1, (4) -> 0, (4) -> 1, (4) -> 2")


def test_tier_reports_a_cycle_of_recursion_tiers(tmp_path, capsys):
    # zr's result feeds its own recursion argument, whose tier must sit
    # above that result. In ab, the search settles the first argument's
    # classes, one pinned below its minimum, before it meets that cycle.
    src = tmp_path / "loop.grsr"
    src.write_text(
        "algebra N = zero/0, suc/1 ;\n"
        "algebra P = pz/0, pr/2 ;\n"
        "def zr = rec over N { zero => cons[zero] ; suc => proj 2 2 ; } ;\n"
        "def loop = comp cons[pr] (comp zr (zr), proj 1 1) ;\n"
        "def ab : N@0 x N@0 -> N@0 = comp (proj 2 1) (comp zr (comp zr (proj 2 1)),\n"
        "  comp cons[pr] (comp zr (comp zr (proj 2 2)), proj 2 2)) ;\n"
    )
    assert main(["tier", str(src)]) == 0
    reason = "recursion tiers form a cycle"
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"loop: no signatures up to tier 2: {reason}",
        "ab: rejected (0, 0) -> 0: tier 0 pinned below a required minimum of 2",
    ]
    defs = parse_grsr(src.read_text())
    for name in ("loop", "ab"):
        assert grsr.infeasibility_reason(defs.lookup(name).expr) == reason


def test_tier_tmax_flag(tmp_path, capsys):
    f = tmp_path / "p.grsr"
    f.write_text("algebra N = zero/0, suc/1 ;\ndef first = proj 2 1 ;\n")
    assert main(["tier", str(f), "--tmax", "0"]) == 0
    assert capsys.readouterr().out.strip() == (
        "first: signatures up to tier 0: (0, 0) -> 0"
    )


def test_tier_inference_is_bounded(tmp_path, capsys):
    f = tmp_path / "big.grsr"
    f.write_text("algebra N = zero/0, suc/1 ;\ndef big = proj 16 1 ;\n")
    t0 = time.perf_counter()
    assert main(["tier", str(f)]) == 2
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err == (
        "error: inferring tiers up to 1 for 16 arguments would try 2^17 tuples, "
        "more than 100000\n"
    )
    f.write_text("algebra N = zero/0, suc/1 ;\ndef one = comp cons[suc] (cons[zero]) ;\n")
    assert main(["tier", str(f), "--tmax", "100000"]) == 2
    assert "would try 100001^1 tuples" in capsys.readouterr().err


def test_tier_searches_only_open_positions(tmp_path, capsys):
    # 16 pinned inputs leave 2 tuples to try, and the next def is printed
    f = tmp_path / "pinned.grsr"
    ins = " x ".join(["N@1"] * 16)
    f.write_text(f"algebra N = zero/0, suc/1 ;\ndef big : {ins} -> N = proj 16 1 ;\n"
                 "def first = proj 2 1 ;\n")
    assert main(["tier", str(f)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"big: signatures up to tier 1: ({', '.join(['1'] * 16)}) -> 1",
        "first: signatures up to tier 1: (0, 0) -> 0, (0, 1) -> 0, (1, 0) -> 1, (1, 1) -> 1",
    ]


def test_negative_tmax_and_depth_cap_are_refused(capsys):
    for argv in (
        ["tier", str(PROGRAMS / "leafs.grsr"), "--tmax", "-1"],
        ["run", str(PROGRAMS / "add.trs"), "zero", "--depth-cap", "-1"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert capsys.readouterr().err.endswith(" -1 is negative\n")
    with pytest.raises(SystemExit) as e:
        main(["tier", str(PROGRAMS / "leafs.grsr"), "--tmax", "two"])
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith("argument --tmax: invalid int value: 'two'\n")


def test_numbers_are_ascii_digits_everywhere(capsys):
    """--budget (base and exponent), --tmax and --depth-cap read numbers as
    --range and terms do: ASCII digits only, anything else exit 2."""
    add, leafs = str(PROGRAMS / "add.trs"), str(PROGRAMS / "leafs.grsr")
    for bad in ("1_000", "\u0663\u0665", "+40", " 40 ", "4 0", "", "0x10", "4.0"):
        for argv in (
            ["run", add, "zero", "--budget", bad],
            ["run", add, "zero", "--budget", f"{bad}^2"],
            ["run", add, "zero", "--budget", f"2^{bad}"],
            ["run", add, "zero", "--depth-cap", bad],
            ["tier", leafs, "--tmax", bad],
        ):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 2, argv
        template = "add(suc^{n}(zero), zero)"
        assert main(["bench", add, "--template", template, "--range", f"{bad}..2"]) == 2
        if bad.strip() == bad and " " not in bad:  # a term may space its tokens
            assert main(["run", add, f"suc^{bad}(zero)"]) == 2, bad
    capsys.readouterr()
    assert main(["run", add, "suc^007(zero)", "--budget", "040", "--depth-cap", "03"]) == 0
    assert main(["run", add, "zero", "--budget", "2^064"]) == 0
    assert main(["tier", leafs, "--tmax", "01"]) == 0


def test_unwritable_outputs_exit_2(tmp_path, capsys):
    bad = str(tmp_path / "missing" / "x")
    add = str(PROGRAMS / "add.trs")
    for argv in (
        ["run", add, "add(zero, zero)", "--dot", bad],
        ["run", add, "add(zero, zero)", "--trace", bad],
        ["run", add, "add(zero, zero)", "--trace", bad, "--check-all"],
        ["compile", str(PROGRAMS / "add.grsr"), "-o", bad],
        ["bench", add, "--template", "add(zero, zero)", "--csv", bad],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == (
            f"error: cannot write {bad}: No such file or directory\n"
        )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("argv", [
    ["run", "add.trs", "add(suc^3(zero), zero)", "--trace", "/dev/full"],
    # a trace that fails during the run, while the --dot file is open
    ["run", "rabbits.trs", "rabbits(suc^300(zero))", "--trace", "/dev/full", "--dot", os.devnull],
    ["run", "add.trs", "add(suc^3(zero), zero)", "--dot", "/dev/full"],
    ["compile", "add.grsr", "-o", "/dev/full"],
    ["bench", "rabbits.trs", "rabbits", "--csv", "/dev/full"],
], ids=["trace", "long-trace", "dot", "output", "csv"])
def test_failed_writes_exit_2(argv, capsys):
    """A write or close that fails after the file opened exits 2, as a path
    that cannot be opened does, and names the file that failed."""
    argv = [argv[0], str(PROGRAMS / argv[1]), *argv[2:]]
    assert main(argv) == 2
    full = os.strerror(errno.ENOSPC)
    assert capsys.readouterr().err == f"error: cannot write /dev/full: {full}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("flags, argv", [
    ([], ["run", "add.trs", "add(suc^3(zero), zero)"]),
    ([], ["check", "add.trs"]),
    ([], ["tier", "add.grsr"]),
    ([], ["compile", "add.grsr"]),
    # rows past the stream's buffer, so a write fails before the last flush
    ([], ["bench", "rabbits.trs", "rabbits", "--range", "1..300"]),
    (["-u"], ["tier", "add.grsr"]),
], ids=["run", "check", "tier", "compile", "bench", "unbuffered"])
def test_failed_stdout_exits_2(flags, argv):
    """A command whose standard output cannot be written exits 2, as the
    process ends and a shell sees it, also once the interpreter has flushed
    what the stream still held."""
    argv = [argv[0], str(PROGRAMS / argv[1]), *argv[2:]]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(PROGRAMS.parent / "src")
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, *flags, "-m", "memotrs.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"


def test_failed_stdout_without_a_descriptor_exits_2(capsys):
    """In process, standard output may be a stream in memory, with no
    descriptor to point elsewhere; a write that fails still exits 2."""

    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with contextlib.redirect_stdout(Full()):
        assert main(["check", str(PROGRAMS / "add.trs")]) == 2
    full = os.strerror(errno.ENOSPC)
    assert capsys.readouterr().err == f"error: cannot write <stdout>: {full}\n"


@pytest.mark.parametrize("argv", [
    ["run", "{file}", "zero"],
    ["check", "{file}"],
    ["tier", "{file}"],
    ["compile", "{file}"],
    ["bench", "{file}", "f"],
], ids=lambda argv: argv[0])
def test_file_that_is_not_utf8_is_bad_input(tmp_path, capsys, argv):
    """A program file that does not decode as UTF-8 exits 2 naming the
    file, as an unreadable one does, instead of a traceback."""
    bad = tmp_path / "bad.trs"
    bad.write_bytes(b"constructors: zero/0 ;\xff\n")
    assert main([a.format(file=bad) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read {bad}: 'utf-8' codec can't decode "
                            "byte 0xff in position 22: invalid start byte\n")


def test_unwritable_dot_is_refused_before_the_first_step(tmp_path, capsys, monkeypatch):
    bad = str(tmp_path / "missing" / "x")
    trace = tmp_path / "t.csv"
    add = str(PROGRAMS / "add.trs")
    runs = []
    for name in ("run", "run_traced"):
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, real=real, **k: runs.append(1) or real(*a, **k)
        )
    for extra in ([], ["--check-all"], ["--trace", str(trace)]):
        argv = ["run", add, "add(suc^3(zero), zero)", "--dot", bad, *extra]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: cannot write {bad}: No such file or directory\n"
    assert runs == []
    # the trace file opened first is closed and left empty
    assert trace.read_bytes() == b""


@pytest.mark.parametrize("collecting", [True, False])
def test_main_pauses_the_collector_and_restores_it(collecting, tmp_path, monkeypatch, capsys):
    overlap = tmp_path / "overlap.trs"
    overlap.write_text("constructors: zero/0 ; operations: f/1 ;\n"
                       "rules: f(x) -> x ; f(zero) -> zero ;\n")
    add, leafs = str(PROGRAMS / "add.trs"), str(PROGRAMS / "leafs.trs")
    during = []
    real_run = cli.run
    monkeypatch.setattr(
        cli, "run", lambda *a, **k: during.append(gc.isenabled()) or real_run(*a, **k)
    )
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, code in (
            (["run", add, "add(suc(zero), zero)"], 0),
            (["check", str(overlap)], 1),
            (["run", add, "add(zero"], 2),
            (["run", leafs, "leafs(zero)"], 3),
            (["run", add, "add(suc^9(zero), zero)", "--budget", "3"], 4),
        ):
            assert main(argv) == code, argv
            assert gc.isenabled() == collecting, argv
        with pytest.raises(SystemExit):  # argparse's exit 2
            main(["run", add])
        assert gc.isenabled() == collecting

        def boom(text):
            raise RuntimeError("escapes main")

        monkeypatch.setattr(cli, "parse_program", boom)
        with pytest.raises(RuntimeError):
            main(["run", add, "add(zero, zero)"])
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if before else gc.disable)()
    capsys.readouterr()
    assert during == [False] * 3  # the runs of exits 0, 3 and 4


SHIPPED_TERMS = {
    "add.trs": "add(suc^3(zero), suc^2(zero))",
    "id.trs": "id(suc^5(zero))",
    "leafs.trs": "leafs(m(n(leafm), m(leafn, n(m(leafm, leafn)))))",
    "rabbits.trs": "rabbits(suc^6(zero))",
    "tree.trs": "tree(suc^5(zero))",
}


def test_commands_leave_no_reference_cycle(capsys):
    """With the collector off, as main keeps it during a command, every
    subcommand on the shipped files leaves nothing for the collector: a
    cycle would live until the collector is back on. One command runs
    first, so what a process builds once (argparse's parser) is not
    counted."""
    commands = []
    for path in sorted(PROGRAMS.glob("*.trs")):
        file, term = str(path), SHIPPED_TERMS[path.name]
        commands.append(["check", file])
        commands += [["run", file, term, "--engine", e] for e in cli.ENGINES]
        commands.append(["run", file, term, "--check-all"])
    commands.append(["bench", str(PROGRAMS / "rabbits.trs"), "rabbits", "--range", "0..6",
                     "--engine", "naive,memo,shared"])
    for path in sorted(PROGRAMS.glob("*.grsr")):
        file = str(path)
        commands += [["tier", file], ["tier", file, "--tmax", "2"]]
        for d in parse_grsr(path.read_text()).defs:
            commands.append(["compile", file, "--entry", d.name])
    before = gc.isenabled()
    gc.disable()
    try:
        main(commands[0])
        gc.collect()
        for argv in commands:
            assert main(argv) == 0, argv
            assert gc.collect() == 0, argv
    finally:
        if before:
            gc.enable()
    capsys.readouterr()


def test_compiled_names_never_clash(tmp_path, capsys):
    """A rule variable or helper named like a symbol of the compiled
    program reads back as the program it was printed from."""
    cases = [
        ("algebra B = x1/0, y1/0 ;\n"
         "def g = rec over N { zero => cons[y1] ; suc => proj 2 2 ; } ;\n",
         "g(suc(zero))", "y1"),
        ("def x1 = proj 1 1 ;\ndef f = comp x1 (comp cons[suc] (proj 1 1)) ;\n",
         "f(suc(zero))", "suc(suc(zero))"),
        ("def pr1_1 = proj 2 1 ;\n"
         "def f = comp pr1_1 (comp cons[suc] (proj 1 1), proj 1 1) ;\n",
         "f(zero)", "suc(zero)"),
    ]
    src, trs = tmp_path / "c.grsr", tmp_path / "c.trs"
    for text, term, value in cases:
        src.write_text("algebra N = zero/0, suc/1 ;\n" + text)
        assert main(["compile", str(src), "-o", str(trs)]) == 0
        capsys.readouterr()
        assert main(["check", str(trs)]) == 0
        assert capsys.readouterr().out == "orthogonal\n"
        assert main(["run", str(trs), term]) == 0
        assert report_fields(capsys.readouterr().out)["value"] == value


def test_compile_to_file_and_rerun(tmp_path, capsys):
    out = tmp_path / "rabbits_c.trs"
    code = main(["compile", str(PROGRAMS / "rabbits.grsr"), "-o", str(out)])
    assert code == 0
    msg = capsys.readouterr().out
    assert "entry: rabbits" in msg and f"wrote {out}" in msg
    text = out.read_text()
    assert text.startswith("# entry: rabbits\n")
    program = parse_program(text)
    assert "rabbits" in program.signature.operations
    assert main(["run", str(out), "rabbits(suc^6(zero))"]) == 0
    rep = report_fields(capsys.readouterr().out)
    # plumbing operations from compilation cost extra updates, but only a
    # constant factor per level, and the answer DAG is unchanged
    assert rep["m"] == "41"
    assert rep["value dag nodes"] == "10"
    assert rep["unfolded size"] == "20"


def test_compile_entry_flag(tmp_path, capsys):
    code = main(["compile", str(PROGRAMS / "rabbits.grsr"), "--entry", "adults"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("# entry: adults\n")
    program = parse_program(text)
    assert {"adults", "babies"} <= set(program.signature.operations)
    assert main(["compile", str(PROGRAMS / "rabbits.grsr"),
                 "--entry", "nosuch"]) == 2
    capsys.readouterr()


def compile_by_def_loop(gf, target) -> str:
    """What `memotrs compile` printed when it compiled every def again to
    learn its operation name: the reference for the one-compile CLI."""
    program, entry = compile_function(target.expr)
    mapping: dict[str, str] = {}
    for d in gf.defs:
        _, name = compile_function(d.expr)
        if name in program.signature.operations and name not in mapping:
            mapping[name] = d.name
    mapping = {k: v for k, v in mapping.items() if k != v}
    program = rename_operations(program, mapping)
    entry = mapping.get(entry, entry)
    return f"# entry: {entry}\n" + format_program(program)


def test_compile_matches_the_per_def_loop(tmp_path, capsys, monkeypatch):
    paths = sorted(PROGRAMS.glob("*.grsr"))
    for seed in range(60):
        paths.append(tmp_path / f"r{seed}.grsr")
        paths[-1].write_text(random_grsr(seed))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "compile_function", counted("compile", compile_function))
    monkeypatch.setattr(grsr, "Program", counted("Program", grsr.Program))
    for path in paths:
        gf = parse_grsr(path.read_text())
        for d in gf.defs:
            calls.clear()
            assert main(["compile", str(path), "--entry", d.name]) == 0
            # one compile, validated once: renaming its operations checks no more
            assert calls == {"compile": 1, "Program": 1}
            assert capsys.readouterr().out == compile_by_def_loop(gf, d)


def test_helpers_named_like_constructors_get_fresh_names(tmp_path, capsys):
    """A compiled helper (mk_<con>, pr<m>_<i>) named like a constructor of
    the program moves to the first free <name>_<k>; the program reads back,
    is orthogonal and computes the definition."""
    cases = [
        ("algebra N = zero/0, suc/1, mk_zero/0 ;\n"
         "def f = comp cons[suc] (cons[zero]) ;\n",
         "f", "mk_zero_1", "f", "suc(zero)"),
        ("algebra N = zero/0, pr1_1/1 ;\n"
         "def f = comp (proj 1 1) (cons[pr1_1]) ;\ndef g = cons[zero] ;\n",
         "f", "pr1_1_1", "f(zero)", "pr1_1(zero)"),
        # zero_1's helper mk_zero_1 is taken by a constructor too
        ("algebra N = zero/0, zero_1/0, mk_zero_1/0, s/1 ;\n"
         "def h = comp cons[s] (cons[zero_1]) ;\n",
         "h", "mk_zero_1_1", "h", "s(zero_1)"),
    ]
    src, trs = tmp_path / "c.grsr", tmp_path / "c.trs"
    for text, entry, helper, term, value in cases:
        src.write_text(text)
        assert main(["compile", str(src), "--entry", entry, "-o", str(trs)]) == 0
        assert capsys.readouterr().out == f"entry: {entry}\nwrote {trs}\n"
        program = parse_program(trs.read_text())
        assert helper in program.signature.operations
        assert main(["check", str(trs)]) == 0
        assert capsys.readouterr().out == "orthogonal\n"
        assert main(["run", str(trs), term]) == 0
        assert report_fields(capsys.readouterr().out)["value"] == value
    # only the target is compiled, and g's program has no helper in the way
    src.write_text(cases[1][0])
    assert main(["compile", str(src), "--entry", "g"]) == 0
    assert capsys.readouterr().out == (
        "# entry: g\nconstructors: zero/0, pr1_1/1;\noperations: g/0;\nrules:\n  g -> zero;\n"
    )


def test_defs_named_like_constructors_get_fresh_names(tmp_path, capsys):
    """A def's operation takes the def's name, but one named like a
    constructor moves to the first free <name>_<k>, as a helper does."""
    src, trs = tmp_path / "c.grsr", tmp_path / "c.trs"
    src.write_text(
        "algebra N = zero/0, suc/1, suc_1/0 ;\n"
        "def suc = comp cons[suc] (proj 1 1) ;\n"
        "def twice = comp suc (suc) ;\n"
    )
    assert main(["tier", str(src)]) == 0
    capsys.readouterr()
    for entry, op, value in (("suc", "suc_2", "suc(zero)"),
                             ("twice", "twice", "suc(suc(zero))")):
        assert main(["compile", str(src), "--entry", entry, "-o", str(trs)]) == 0
        assert capsys.readouterr().out == f"entry: {op}\nwrote {trs}\n"
        program = parse_program(trs.read_text())
        assert "suc_2" in program.signature.operations
        assert "suc" not in program.signature.operations
        assert main(["run", str(trs), f"{op}(zero)"]) == 0
        assert report_fields(capsys.readouterr().out)["value"] == value


def test_compiled_random_files_read_back_and_agree(tmp_path, capsys):
    """Every def tier accepts compiles to text that parses, formats back to
    itself, is orthogonal and evaluates as the definition does, though the
    files name constructors and defs like compiled variables and helpers."""
    rng = random.Random(7)
    out = tmp_path / "c.trs"
    compiled = valued = clashes = moved = 0
    for seed in range(60):
        path = tmp_path / f"r{seed}.grsr"
        path.write_text(random_grsr(seed))
        gf = parse_grsr(path.read_text())
        assert main(["tier", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for d, line in zip(gf.defs, lines):
            if " accepted " not in line and " signatures up to " not in line:
                continue
            assert main(["compile", str(path), "--entry", d.name, "-o", str(out)]) == 0
            capsys.readouterr()
            text = out.read_text()
            entry = text.splitlines()[0].removeprefix("# entry: ")
            program = parse_program(text)
            assert f"# entry: {entry}\n" + format_program(program) == text
            assert main(["check", str(out)]) == 0
            assert capsys.readouterr().out == "orthogonal\n"
            compiled += 1
            declared = {*program.signature.constructors, *program.signature.operations}
            clashes += bool(declared & {"x1", "x2", "y1", "y2", "z1", "z2"})
            moved += any(op.endswith(("_1_1", "suc_1", "zero_1", "2_1_1"))
                         for op in program.signature.operations)
            cons = program.signature.constructors  # whole algebras, all it can read
            for _ in range(6 if cons or not d.expr.arity else 0):
                args = tuple(random_value(rng, cons, 3) for _ in range(d.expr.arity))
                try:
                    want = eval_grsr(d.expr, args)
                except GrsrError:  # an argument outside its algebra
                    with pytest.raises(StuckError):
                        eval_memo(program, {}, App(entry, args))
                    continue
                assert eval_memo(program, {}, App(entry, args)).value == want
                valued += 1
    assert compiled > 150 and valued > 400 and clashes > 80 and moved > 10, (
        compiled, valued, clashes, moved)


def test_compiled_program_agrees_with_source(tmp_path, capsys):
    out = tmp_path / "r.trs"
    main(["compile", str(PROGRAMS / "rabbits.grsr"), "-o", str(out)])
    capsys.readouterr()
    assert main(["run", str(out), "rabbits(suc^7(zero))", "--check-all"]) == 0
    assert "agreement: ok" in capsys.readouterr().out


def test_bench_csv_schema_and_bound(tmp_path):
    csv = tmp_path / "rows.csv"
    code = main(
        [
            "bench",
            str(PROGRAMS / "rabbits.trs"),
            "rabbits",
            "--range",
            "1..8",
            "--engine",
            "shared,memo",
            "--csv",
            str(csv),
        ]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "engine,n,m,total_steps,heap_nodes,unfolded_size_or_overflow,wall_ns"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 16
    shared = {int(r[1]): r for r in rows if r[0] == "shared"}
    memo = {int(r[1]): r for r in rows if r[0] == "memo"}
    for n in range(1, 9):
        assert int(shared[n][2]) <= 2 * n + 1
        assert shared[n][2] == memo[n][2]  # same m under both engines
        assert shared[n][3] == memo[n][3]  # and the same machine steps
    # heap column holds the answer DAG size; cross-check one row
    from memotrs import minimal_shared_size

    assert int(shared[6][4]) == minimal_shared_size([rabbit_tree(6)]) == 10


def test_bench_overflow_marker(tmp_path):
    csv = tmp_path / "o.csv"
    code = main(
        [
            "bench",
            str(PROGRAMS / "tree.trs"),
            "tree",
            "--range",
            "18..18",
            "--engine",
            "naive",
            "--budget",
            "10^3",
            "--csv",
            str(csv),
        ]
    )
    assert code == 0
    row = csv.read_text().splitlines()[1].split(",")
    assert row[:6] == ["naive", "18", "", "", "", "overflow"]
    assert int(row[6]) > 0


def test_bench_template_family(tmp_path):
    csv = tmp_path / "t.csv"
    code = main(
        [
            "bench",
            str(PROGRAMS / "add.trs"),
            "--template",
            "add(suc^{n}(zero), suc(zero))",
            "--range",
            "2..5",
            "--engine",
            "memo",
            "--csv",
            str(csv),
        ]
    )
    assert code == 0
    rows = [l.split(",") for l in csv.read_text().splitlines()[1:]]
    for r in rows:
        n = int(r[1])
        assert int(r[2]) == n + 1  # one update per recursion level plus base


def _bench_rows(argv, capsys):
    """Exit code, rows without their wall time, and stderr of a bench run."""
    code = main(argv)
    out = capsys.readouterr()
    return code, [line.rsplit(",", 1)[0] for line in out.out.splitlines()], out.err


@pytest.mark.parametrize("engines", ["naive,memo,shared", "shared,memo", "memo,naive",
                                     "shared,shared,naive"])
def test_bench_rows_are_the_single_engine_rows_in_order(engines, tmp_path, capsys):
    # a listed shared engine runs first for each n; the rows, an overflow
    # row or a stuck input's exit still come in the order given
    stuck = tmp_path / "stuck.trs"
    stuck.write_text("constructors: zero/0, suc/1;\noperations: f/1;\n"
                     "rules: f(zero) -> suc(zero);\n")
    families = [
        ([str(PROGRAMS / "rabbits.trs"), "rabbits"], 0, 9, []),
        ([str(PROGRAMS / "rabbits.trs"), "rabbits"], 3, 9, ["--budget", "30"]),
        ([str(PROGRAMS / "tree.trs"), "tree"], 8, 14, ["--budget", "10^4"]),
        ([str(PROGRAMS / "add.trs"), "--template", "add(suc^{n}(zero), suc^{n}(zero))"],
         0, 30, []),
        ([str(stuck), "f"], 0, 3, []),  # stuck from n = 1 on
    ]
    order = engines.split(",")
    overflows = Counter()
    for family, lo, hi, flags in families:
        argv = ["bench", *family, "--range", f"{lo}..{hi}", *flags, "--engine"]
        single = {}
        for e in set(order):
            code, rows, err = _bench_rows(argv + [e], capsys)
            single[e] = ({int(r.split(",")[1]): r for r in rows[1:]}, code, err)
            overflows[e] += sum(r.endswith("overflow") for r in rows)
        want, want_code, want_err = [rows[0]], 0, ""
        for n in range(lo, hi + 1):
            missing = [e for e in order if n not in single[e][0]]
            for e in order:
                if e in missing:
                    _, want_code, want_err = single[e]
                    break
                want.append(single[e][0][n])
            if missing:
                break
        assert _bench_rows(argv + [engines], capsys) == (want_code, want, want_err)
        assert want_code in (0, 3)
    assert all(overflows[e] > 0 for e in order)  # the budgets stop every engine somewhere


def test_bench_prints_rows_without_formatting_terms(monkeypatch, capsys):
    # no row holds the input or a value, so neither is printed as text
    argv = ["bench", str(PROGRAMS / "rabbits.trs"), "rabbits", "--range", "0..8"]
    for engines in ("naive,memo,shared", "memo,naive"):
        want = _bench_rows(argv + ["--engine", engines], capsys)
        with monkeypatch.context() as m:
            m.setattr(cli, "format_term", None)
            assert _bench_rows(argv + ["--engine", engines], capsys) == want


def test_bench_refuses_oversized_families(capsys):
    rabbits = ["bench", str(PROGRAMS / "rabbits.trs"), "rabbits", "--budget", "1"]
    # suc^2000000(zero) alone would hold 2 million term nodes; run refuses
    # it, and bench does too, before building it or writing a row
    assert main(rabbits + ["--range", "2000000..2000000"]) == 2
    captured = capsys.readouterr()
    assert "beyond 1000000 nodes" in captured.err and captured.out == ""
    assert main(rabbits + ["--range", "1..1234567890123456789"]) == 2
    assert "more than 18 digits" in capsys.readouterr().err
    for bad in ("1..x", "1", "a..3", " 1..2", "1..2.5", "+1..2", "-1..2", "1_0..20",
                "\u0661..\u0663"):
        assert main(rabbits + [f"--range={bad}"]) == 2
        assert "bad range" in capsys.readouterr().err


def test_commands_refuse_what_they_cannot_do(tmp_path, capsys):
    bare = tmp_path / "bare.grsr"
    bare.write_text("algebra N = zero/0, suc/1 ;\n")
    assert main(["compile", str(bare)]) == 2
    assert capsys.readouterr().err == "error: no definitions to compile\n"
    # bench's sucN family applies the entry operation to suc^n(zero)
    lists = tmp_path / "lists.trs"
    lists.write_text("constructors: nil/0, cons/2;\noperations: id/1;\nrules:\n"
                     "  id(nil) -> nil;\n  id(cons(x, y)) -> cons(x, y);\n")
    assert main(["bench", str(lists), "id", "--range", "1..2"]) == 2
    assert capsys.readouterr().err == (
        "error: the sucN family needs constructors zero/0 and suc/1\n")
    assert main(["bench", str(PROGRAMS / "tree.trs"), "add", "--range", "1..2"]) == 2
    assert capsys.readouterr().err == "error: the sucN family needs a unary operation, got add\n"


def test_bench_refuses_a_family_before_any_output(tmp_path, capsys):
    # the sucN family of a binary operation, and a template with an
    # undeclared symbol: nothing on stdout, and no --csv file
    tree = str(PROGRAMS / "tree.trs")
    csv = tmp_path / "rows.csv"
    for family in (["add"], ["--template", "tree(nope^{n}(zero))"]):
        for out in ([], ["--csv", str(csv)]):
            assert main(["bench", tree, *family, "--range", "1..2", *out]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert not csv.exists()


def test_bench_refuses_a_reversed_range(tmp_path, capsys):
    rabbits = str(PROGRAMS / "rabbits.trs")
    csv = tmp_path / "rows.csv"
    for family in (["rabbits"], ["--template", "rabbits(suc^{n}(zero))"]):
        for out in ([], ["--csv", str(csv)]):
            assert main(["bench", rabbits, *family, "--range", "5..2", *out]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: bad range '5..2', 5 is above 2\n"
            assert not csv.exists()


def test_bench_needs_entry_or_template(capsys):
    assert main(["bench", str(PROGRAMS / "add.trs")]) == 2
    assert "entry" in capsys.readouterr().err


def test_bench_rejects_unknown_engine(capsys):
    assert main(
        ["bench", str(PROGRAMS / "add.trs"), "--template", "add(zero, zero)",
         "--engine", "warp"]
    ) == 2
    capsys.readouterr()


def test_budget_notation():
    assert _budget_value("10^6") == 10**6
    assert _budget_value("2^10") == 1024
    assert _budget_value("333") == 333
    assert _budget_value("2^64") == 2**64
    assert _budget_value("0") == 0 and _budget_value("0^0") == 1
    # an over-large power is refused before it is computed
    with pytest.raises(argparse.ArgumentTypeError):
        _budget_value("2^65")
    # budgets, bases and exponents are natural numbers
    for text in ("-3", "2^-1", "0^-1", "-2^3"):
        with pytest.raises(argparse.ArgumentTypeError):
            _budget_value(text)
    for text in ("-3", "2^-1", "0^-1"):
        with pytest.raises(SystemExit) as e:
            main(["run", str(PROGRAMS / "add.trs"), "zero", "--budget", text])
        assert e.value.code == 2
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as e:
        main(["run", str(PROGRAMS / "add.trs"), "add(zero, zero)",
              "--budget", "10^999999999"])
    assert e.value.code == 2
    assert time.perf_counter() - t0 < 5


def test_parser_is_built_once_on_first_use(capsys):
    # not at import, so importing the CLI costs no more than before
    probe = ("import memotrs.cli as c; n = c._build_parser.cache_info().currsize; "
             "c.main(['check', sys.argv[1]]); "
             "print(n, c._build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", "import sys; " + probe,
                          str(PROGRAMS / "add.trs")], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PROGRAMS.parent / "src")})
    assert out.stdout.splitlines() == ["orthogonal", "0 1"], out.stderr
    assert _build_parser() is _build_parser()
    # one parser, yet no option carries over from one call to the next
    add = str(PROGRAMS / "add.trs")
    assert main(["run", add, "add(suc^2(zero), zero)", "--engine", "naive",
                 "--budget", "5", "--depth-cap", "1"]) == 4
    assert main(["run", add, "add(suc^2(zero), zero)"]) == 0
    rep = report_fields(capsys.readouterr().out)
    assert rep["engine"] == "shared" and rep["value"] == "suc(suc(zero))"


def test_power_shorthand_is_bounded(capsys):
    t0 = time.perf_counter()
    code = main(["run", str(PROGRAMS / "add.trs"), "add(suc^999999999999(zero), zero)"])
    assert code == 2
    assert time.perf_counter() - t0 < 1
    assert "suc^999999999999 would expand" in capsys.readouterr().err


def test_long_numbers_in_files_are_refused(tmp_path, capsys):
    digits = "9" * 5000  # past the 4,300 digits int() accepts
    trs = tmp_path / "long.trs"
    trs.write_text(f"constructors: zero/{digits}, suc/1;\noperations: id/1;\n"
                   "rules: id(x) -> x;\n")
    assert main(["check", str(trs)]) == 2
    assert "1:20: number 99999" in capsys.readouterr().err
    grsr = tmp_path / "long.grsr"
    grsr.write_text(f"algebra N = zero/0, suc/1 ;\ndef one = proj {digits} 1 ;\n")
    assert main(["tier", str(grsr)]) == 2
    assert "2:16: number 99999" in capsys.readouterr().err


def test_printed_value_is_bounded(capsys, monkeypatch):
    # a 2^41-node tree: its text is refused before it is built
    tree = ["run", str(PROGRAMS / "tree.trs"), "tree(suc^40(zero))", "--depth-cap", "40"]
    t0 = time.perf_counter()
    assert main(tree) == 2
    assert time.perf_counter() - t0 < 5
    assert "longer than 10000000 characters" in capsys.readouterr().err
    small = ["run", str(PROGRAMS / "tree.trs"), "tree(suc^6(zero))", "--depth-cap", "5"]
    assert main(small + ["--check-all"]) == 0
    out = capsys.readouterr().out
    value = report_fields(out)["value"]
    monkeypatch.setattr(parser, "MAX_TEXT_CHARS", len(value))
    assert main(small + ["--check-all"]) == 0
    untimed = lambda text: [l for l in text.splitlines() if not l.startswith("wall ms")]  # noqa: E731
    assert untimed(capsys.readouterr().out) == untimed(out)
    monkeypatch.setattr(parser, "MAX_TEXT_CHARS", len(value) - 1)
    for engine in ("shared", "memo", "naive"):
        assert main(small + ["--engine", engine]) == 2
        err = capsys.readouterr().err
        assert f"longer than {len(value) - 1} characters" in err


def comp_chain(levels: int, inner: str = "proj 1 1") -> str:
    """inner under levels nested compositions with cons[suc]."""
    return "comp cons[suc] (" * levels + inner + ")" * levels


def test_grsr_nesting_is_bounded(tmp_path, capsys):
    head = "algebra N = zero/0, suc/1 ;\n"
    at_limit = tmp_path / "limit.grsr"
    at_limit.write_text(head + f"def f = {comp_chain(MAX_NESTING - 1)} ;\n")
    assert main(["tier", str(at_limit)]) == 0
    assert main(["compile", str(at_limit)]) == 0
    rec = "proj 1 1"  # each level nests three deep: comp, the group, rec
    for _ in range((MAX_NESTING - 1) // 3):
        rec = f"comp (rec over N {{ zero => {rec}; suc => proj 3 1; }}) (proj 1 1, proj 1 1)"
    at_limit.write_text(head + f"def r = {rec} ;\n")
    assert main(["tier", str(at_limit)]) == 0
    assert main(["compile", str(at_limit)]) == 0
    capsys.readouterr()
    over = tmp_path / "over.grsr"
    over.write_text(head + f"def f = {comp_chain(MAX_NESTING)} ;\n")
    col = len("def f = ") + len("comp cons[suc] (") * (MAX_NESTING - 1) + len("comp ") + 1
    for command in ("tier", "compile"):
        assert main([command, str(over)]) == 2
        err = capsys.readouterr().err
        assert f"2:{col}: function expression nested deeper than {MAX_NESTING}" in err
        assert "Traceback" not in err


def test_grsr_referenced_defs_add_no_nesting(tmp_path, capsys):
    # a def used by name is the expression already built for it, one level
    # where it is used: 56 compositions around the 201-deep g, or a chain of
    # 1,000 defs each composing the one before, are not refused
    head = "algebra N = zero/0, suc/1 ;\n"
    around = tmp_path / "around.grsr"
    around.write_text(head + f"def g = {comp_chain(200)} ;\n"
                      f"def h = {comp_chain(MAX_NESTING - 200, 'g')} ;\n")
    chain = tmp_path / "chain.grsr"
    chain.write_text(head + "def d0 = proj 1 1 ;\n" + "".join(
        f"def d{i + 1} = comp cons[suc] (d{i}) ;\n" for i in range(1000)))
    for path, last in ((around, "h"), (chain, "d1000")):
        assert main(["tier", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"{last}: signatures up to tier 1: (0) -> 0, (1) -> 1"
        assert main(["compile", str(path)]) == 0
        assert f"  {last}(x1) -> mk_suc(" in capsys.readouterr().out
    grouped = tmp_path / "grouped.grsr"
    grouped.write_text(head + "def p = " + "(" * MAX_NESTING + "proj 1 1"
                       + ")" * MAX_NESTING + " ;\n")
    assert main(["tier", str(grouped)]) == 2
    assert "2:265: function expression nested deeper" in capsys.readouterr().err


def test_grsr_arity_is_bounded(tmp_path, capsys):
    """A proj or a constructor declaration of arity MAX_ARITY passes tier
    and compile; one more is refused with its position before anything is
    built (one of 10^6 took about 500 MB before)."""
    files = {
        "proj": lambda m: f"def big = proj {m} 1 ;\n",
        "constructor": lambda m: f"algebra A = a/0, b/{m} ;\ndef big = cons[b] ;\n",
    }
    for kind, text in files.items():
        path = tmp_path / f"{kind}.grsr"
        path.write_text(text(MAX_ARITY))
        assert main(["tier", "--tmax", "0", str(path)]) == 0, kind
        assert main(["compile", str(path)]) == 0, kind
        capsys.readouterr()
        path.write_text(text(MAX_ARITY + 1))
        col = text(MAX_ARITY + 1).index(str(MAX_ARITY + 1)) + 1
        for command in ("tier", "compile"):
            assert main([command, str(path)]) == 2, kind
            err = capsys.readouterr().err
            assert err == f"error: 1:{col}: arity {MAX_ARITY + 1} is larger than {MAX_ARITY}\n"
