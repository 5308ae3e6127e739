"""Constructor rewrite programs evaluated three ways: plain call-by-value,
memoized call-by-value, and a small-step machine over maximally shared
heaps; plus a ramified function algebra that compiles into such programs."""

from .bigstep import (
    CostedOutcome,
    MemoStats,
    NaiveResult,
    equivalence_check,
    eval_cbv,
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
    TierDerivation,
    TierSignature,
    check_tiers,
    check_tiers_explained,
    compile_function,
    default_tier_bound,
    eval_grsr,
    infer_tiers,
    rename_operations,
    validate_derivation,
)
from .grsr import infeasibility_reason
from .grsr_parser import GrsrDef, GrsrFile, parse_grsr
from .heap import Heap, match_pattern_at
from .parser import (
    format_program,
    format_term,
    parse_program,
    parse_program_loose,
    parse_term,
)
from .smallstep import (
    Configuration,
    EAnnot,
    ECall,
    ECon,
    ELoc,
    Expr,
    RefCache,
    RunStats,
    expression_weight,
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
    match_term,
    minimal_shared_size,
    patterns_overlap,
    program_delta,
    program_diagnostics,
    substitute,
    subterms,
    term_depth,
    term_size,
    terms_equal,
    validate_term,
    vars_of,
)

__version__ = "0.1.0"
