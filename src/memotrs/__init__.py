"""Constructor rewrite programs evaluated three ways: plain call-by-value,
memoized call-by-value, and a small-step machine over maximally shared
heaps; plus a ramified function algebra that compiles into such programs."""

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
from .grsr import (
    Algebra,
    Case,
    Comp,
    ConstructorFn,
    FunctionExpr,
    Proj,
    SimRec,
    TierSignature,
    check_tiers_explained,
    compile_function,
    default_tier_bound,
    infeasibility_reason,
    infer_tiers,
    operation_name,
    rename_operations,
)
from .grsr_parser import GrsrDef, GrsrFile, parse_grsr
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

__version__ = "0.1.0"
