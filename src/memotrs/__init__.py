"""Constructor rewrite programs evaluated three ways: plain call-by-value,
memoized call-by-value, and a small-step machine over maximally shared
heaps; plus a ramified function algebra that compiles into such programs.

Importing the package loads the engines, the parsers and the heap. The
function algebra's names (`grsr`, `grsr_parser`: the tier checker and the
compiler) are served on first read, which loads those two modules then;
`dir()` and `from memotrs import *` list them all the same."""

from types import ModuleType as _Module

from .bigstep import (
    CostedOutcome,
    MemoStats,
    NaiveResult,
    eval_memo,
    naive_run,
)
from .errors import (
    AmbiguityError,
    ArityError,
    BudgetExceededError,
    GrsrError,
    HeapError,
    LinearityError,
    MemotrsError,
    ParseError,
    RuleError,
    SignatureError,
    StuckError,
)
from .heap import Heap
from .parser import (
    format_program,
    format_term,
    parse_program,
    parse_program_loose,
    parse_term,
)
from .smallstep import (
    Configuration,
    RefCache,
    RunStats,
    initial_expression,
    run,
    run_traced,
)
from .terms import (
    App,
    Program,
    Rule,
    Signature,
    Term,
    Var,
    minimal_shared_size,
    patterns_overlap,
    program_delta,
    program_diagnostics,
    term_size,
    terms_equal,
    validate_term,
    vars_of,
)

# each lazily served name -> the module defining it, imported on the name's
# first read (PEP 562)
_LAZY = dict.fromkeys(
    (
        "Algebra", "Case", "Comp", "ConstructorFn", "FunctionExpr", "Proj", "SimRec",
        "TierSignature", "check_tiers_explained", "compile_function",
        "default_tier_bound", "infeasibility_reason", "infer_tiers", "operation_name",
        "rename_operations",
    ),
    "grsr",
) | dict.fromkeys(("GrsrDef", "GrsrFile", "parse_grsr"), "grsr_parser")

# every public name but the submodules
__all__ = sorted(
    [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _Module)]
    + list(_LAZY)
)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
