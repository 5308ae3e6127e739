import argparse
import time
from pathlib import Path

import pytest

from memotrs import parse_program
from memotrs.cli import _budget_value, main
from helpers import rabbit_tree

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
    assert "linearity" in capsys.readouterr().out

    dup = tmp_path / "dup.trs"
    dup.write_text(
        "constructors: zero/0;\noperations: f/1;\n"
        "rules: f(x) -> x; f(zero) -> zero;\n"
    )
    assert main(["check", str(dup)]) == 1
    out = capsys.readouterr().out
    assert "ambiguity" in out and "f(x)" in out and "f(zero)" in out


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
    assert lines[2].startswith("leafs: rejected (1) -> 1:")
    assert "strictly above" in lines[2]


def test_tier_tmax_flag(tmp_path, capsys):
    f = tmp_path / "p.grsr"
    f.write_text("algebra N = zero/0, suc/1 ;\ndef first = proj 2 1 ;\n")
    assert main(["tier", str(f), "--tmax", "0"]) == 0
    assert capsys.readouterr().out.strip() == (
        "first: signatures up to tier 0: (0, 0) -> 0"
    )


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
    # an over-large power is refused before it is computed
    with pytest.raises(argparse.ArgumentTypeError):
        _budget_value("2^65")
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as e:
        main(["run", str(PROGRAMS / "add.trs"), "add(zero, zero)",
              "--budget", "10^999999999"])
    assert e.value.code == 2
    assert time.perf_counter() - t0 < 5


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
