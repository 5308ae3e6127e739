"""What importing the package loads, and the names it serves on first use.

`run`, `check` and `bench` never reach the tier checker and compiler
(`memotrs.grsr`, `memotrs.grsr_parser`), so importing `memotrs` and
`memotrs.cli` leaves them unloaded, and nothing imported declares a
dataclass. Their names still resolve from both modules."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memotrs
from memotrs import cli

ROOT = Path(__file__).resolve().parent.parent
ADD = str(ROOT / "programs" / "add.grsr")

# every name the package exported before the tier checker and compiler were
# loaded on first use, by the module that defines it
EXPORTED = {
    "bigstep": ("CostedOutcome", "MemoStats", "NaiveResult", "eval_memo", "naive_run"),
    "errors": (
        "AmbiguityError", "ArityError", "BudgetExceededError", "GrsrError", "HeapError",
        "LinearityError", "MemotrsError", "ParseError", "RuleError", "SignatureError",
        "StuckError",
    ),
    "grsr": (
        "Algebra", "Case", "Comp", "ConstructorFn", "FunctionExpr", "Proj", "SimRec",
        "TierSignature", "check_tiers_explained", "compile_function",
        "default_tier_bound", "infeasibility_reason", "infer_tiers", "operation_name",
        "rename_operations",
    ),
    "grsr_parser": ("GrsrDef", "GrsrFile", "parse_grsr"),
    "heap": ("Heap",),
    "parser": (
        "format_program", "format_term", "parse_program", "parse_program_loose",
        "parse_term",
    ),
    "smallstep": (
        "Configuration", "RefCache", "RunStats", "initial_expression", "run", "run_traced",
    ),
    "terms": (
        "App", "Program", "Rule", "Signature", "Term", "Var", "minimal_shared_size",
        "patterns_overlap", "program_delta", "program_diagnostics", "term_size",
        "terms_equal", "validate_term", "vars_of",
    ),
}
NAMES = [name for names in EXPORTED.values() for name in names]


def fresh(code: str) -> subprocess.CompletedProcess:
    """code run in a new interpreter that imports memotrs from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, ADD], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def test_importing_the_cli_loads_only_the_run_path():
    # against the modules of the bare interpreter, which a site .pth may
    # already have grown by typing, re or enum
    out = fresh(
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import memotrs, memotrs.cli\n"
        "print(*sorted(set(sys.modules) - bare))\n"
        "assert memotrs.cli.main(['tier', sys.argv[1]]) == 0\n"
        "print(*sorted(set(sys.modules) - bare))\n"
    ).stdout.splitlines()
    imported, after_tier = (set(line.split()) for line in (out[0], out[-1]))
    assert {"memotrs.cli", "memotrs.smallstep", "memotrs.bigstep"} <= imported
    unwanted = {"memotrs.grsr", "memotrs.grsr_parser", "dataclasses", "inspect", "hashlib"}
    assert imported.isdisjoint(unwanted), sorted(imported & unwanted)
    assert out[1] == "add: accepted (2, 1) -> 1"
    assert {"memotrs.grsr", "memotrs.grsr_parser"} <= after_tier


def test_every_exported_name_resolves_to_its_definition(monkeypatch):
    for module, names in EXPORTED.items():
        source = importlib.import_module(f"memotrs.{module}")
        for name in names:
            assert getattr(memotrs, name) is getattr(source, name), name
    # a lazy name not bound yet is loaded again on its next read
    monkeypatch.delattr(memotrs, "parse_grsr")
    monkeypatch.delattr(memotrs, "TierSignature")
    assert memotrs.parse_grsr is importlib.import_module("memotrs.grsr_parser").parse_grsr
    assert memotrs.TierSignature is importlib.import_module("memotrs.grsr").TierSignature


def test_dir_and_star_import_list_every_name():
    assert set(NAMES) <= set(dir(memotrs))
    assert sorted(memotrs.__all__) == sorted(NAMES)
    namespace: dict = {}
    exec("from memotrs import *", namespace)
    assert set(NAMES) <= namespace.keys()
    for name in NAMES:
        assert namespace[name] is getattr(memotrs, name)


def test_an_unknown_name_raises_attribute_error():
    for module in (memotrs, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_a_wrapper_set_before_the_first_tier_job_is_the_one_called():
    # as a tracer patches the CLI: set before any job, deleted afterwards
    out = fresh(
        "import sys\n"
        "from memotrs import cli, grsr, grsr_parser\n"
        "calls = []\n"
        "def spy(name, fn):\n"
        "    return lambda *a: calls.append(name) or fn(*a)\n"
        "cli.parse_grsr = spy('parse_grsr', grsr_parser.parse_grsr)\n"
        "cli.compile_function = spy('compile_function', grsr.compile_function)\n"
        "assert cli.main(['tier', sys.argv[1]]) == 0\n"
        "assert cli.main(['compile', sys.argv[1]]) == 0\n"
        "print(*calls)\n"
        "del cli.parse_grsr, cli.compile_function\n"
        "assert cli.main(['tier', sys.argv[1]]) == 0\n"
        "assert cli.main(['compile', sys.argv[1]]) == 0\n"
        "print(*calls)\n"
        "print(cli.parse_grsr is grsr_parser.parse_grsr,"
        " cli.compile_function is grsr.compile_function)\n"
    ).stdout.splitlines()
    assert out[0] == "add: accepted (2, 1) -> 1"
    assert out[1] == "# entry: add"
    calls = "parse_grsr parse_grsr compile_function"
    assert out.count(calls) == 2
    assert out[-1] == "True True"
    # the jobs after the wrappers were deleted print what the first did
    first, second = (out[:out.index(calls)], out[out.index(calls) + 1:-2])
    assert first == second
