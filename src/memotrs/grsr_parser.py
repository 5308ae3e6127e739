"""Parser for function definition files.

A file declares algebras and named functions:

    algebra N = zero/0, suc/1;

    def add : N@2 x N@1 -> N@1 =
      rec over N {
        zero => proj 1 1;
        suc  => comp cons[suc] (proj 3 2);
      };

Function expressions:

    cons[NAME]                    constructor function
    proj M N                      N-th of M arguments (1-based)
    comp F (G1, ..., Gk)          composition F(G1(xs), ..., Gk(xs))
    case over A { c => F; ... }   case split on the first argument
    rec over A { c => F1, ..., Fn; ... } [select J]
                                  simultaneous recursion, J-th component
    NAME                          reference to an earlier def
    (F)                           grouping

Each case or rec block must cover every constructor of its algebra exactly
once; branch order in the file is free. The tier annotation on a def is
optional, as is each @level inside one. Its algebra names are only checked
to be declared, not matched against the def: `def add : R@2 x R@1 -> R@1`
over a recursion on N is accepted. Constructor names are global: two
algebras cannot both declare the same name. # starts a line comment.

Function expressions nest at most MAX_NESTING deep in the text, counting
grouping parentheses; deeper input is refused with a ParseError before
anything is built. That bounds the parser's own recursion only: a def used
by name is the expression already built for it, and adds no nesting. Keys
have a fixed size, so parsing takes space linear in the file. An arity, of
a constructor or of a proj, above MAX_ARITY is refused the same way, since
inferring tiers and compiling build something per argument position.

The tokens are parser.TokenStream's: their texts, read by index. The parser
keeps the index of a token an error may name, and the error's line and
column are worked out from it only when it is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import GrsrError
from .grsr import Algebra, Case, Comp, ConstructorFn, FunctionExpr, Proj, SimRec
from .parser import TokenStream, read_nat

MAX_NESTING = 256
MAX_ARITY = 10_000

_KEYWORDS = frozenset(
    {"algebra", "def", "cons", "proj", "comp", "case", "rec", "over", "select"}
)


@dataclass(frozen=True)
class GrsrDef:
    name: str
    expr: FunctionExpr
    # None when the def carries no annotation; otherwise one entry per
    # argument, each possibly None when the @level was left off
    tier_inputs: Optional[tuple[Optional[int], ...]]
    tier_output: Optional[int]


@dataclass(frozen=True)
class GrsrFile:
    defs: tuple[GrsrDef, ...]

    def lookup(self, name: str) -> GrsrDef:
        for d in self.defs:
            if d.name == name:
                return d
        raise KeyError(name)


def _arity(ts: TokenStream) -> int:
    at = ts.pos
    n = read_nat(ts)
    if n > MAX_ARITY:
        raise ts.error(f"arity {n} is larger than {MAX_ARITY}", at)
    return n


def _name(ts: TokenStream, what: str) -> str:
    """The next token, a name; a refusal of the name raises at this token."""
    tok = ts.peek()
    if not tok.isidentifier():
        raise ts.error(f"expected {what}")
    if tok in _KEYWORDS:
        raise ts.error(f"{tok!r} is a keyword, not {what}")
    ts.pos += 1
    return tok


class _Parser:
    def __init__(self, ts: TokenStream):
        self.ts = ts
        self.algebras: dict[str, Algebra] = {}
        self.con_owner: dict[str, str] = {}  # constructor -> algebra name
        self.defs: list[GrsrDef] = []
        self.by_name: dict[str, FunctionExpr] = {}
        self.depth = 0  # nesting of the function expression being parsed

    def file(self) -> GrsrFile:
        ts = self.ts
        while ts.peek():
            if ts.at("algebra"):
                self.algebra_decl()
            elif ts.at("def"):
                self.def_decl()
            else:
                raise ts.error("expected 'algebra' or 'def'")
        return GrsrFile(tuple(self.defs))

    def algebra_decl(self) -> None:
        ts = self.ts
        ts.expect("algebra")
        at = ts.pos
        name = _name(ts, "an algebra name")
        if name in self.algebras:
            raise ts.error(f"algebra {name} is already declared", at)
        ts.expect("=")
        cons: list[tuple[str, int]] = []
        while True:
            at = ts.pos
            con = _name(ts, "a constructor name")
            if con in self.con_owner:
                raise ts.error(
                    f"constructor {con} already belongs to algebra "
                    f"{self.con_owner[con]}", at
                )
            ts.expect("/")
            cons.append((con, _arity(ts)))
            self.con_owner[con] = name
            if not ts.accept(","):
                break
        ts.expect(";")
        self.algebras[name] = Algebra(name, cons)

    def def_decl(self) -> None:
        ts = self.ts
        start = ts.pos
        ts.expect("def")
        at = ts.pos
        name = _name(ts, "a function name")
        if name in self.by_name:
            raise ts.error(f"def {name} is already declared", at)
        tier_ins: Optional[tuple[Optional[int], ...]] = None
        tier_out: Optional[int] = None
        if ts.accept(":"):
            tier_ins, tier_out = self.tier_annotation()
        ts.expect("=")
        expr = self.fexpr()
        ts.expect(";")
        if tier_ins is not None and len(tier_ins) != expr.arity:
            raise ts.error(
                f"def {name} takes {expr.arity} arguments but its annotation "
                f"lists {len(tier_ins)}",
                start,
            )
        self.defs.append(GrsrDef(name, expr, tier_ins, tier_out))
        self.by_name[name] = expr

    def tier_annotation(self) -> tuple[tuple[Optional[int], ...], Optional[int]]:
        ts = self.ts
        ins = [self.tier_atom()]
        while ts.accept("x"):
            ins.append(self.tier_atom())
        ts.expect("->", "arrow")
        out = self.tier_atom()
        return tuple(ins), out

    def tier_atom(self) -> Optional[int]:
        ts = self.ts
        self.algebra_ref()
        if ts.accept("@"):
            return read_nat(ts)
        return None

    def algebra_ref(self) -> Algebra:
        ts = self.ts
        at = ts.pos
        name = _name(ts, "an algebra name")
        if name not in self.algebras:
            raise ts.error(f"unknown algebra {name}", at)
        return self.algebras[name]

    def fexpr(self) -> FunctionExpr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.ts.error(f"function expression nested deeper than {MAX_NESTING}")
        expr = self._fexpr()
        self.depth -= 1
        return expr

    def _fexpr(self) -> FunctionExpr:
        ts = self.ts
        at = ts.pos
        if ts.accept("("):
            inner = self.fexpr()
            ts.expect(")")
            return inner
        if ts.accept("cons"):
            ts.expect("[")
            con_at = ts.pos
            con = _name(ts, "a constructor name")
            if con not in self.con_owner:
                raise ts.error(f"unknown constructor {con}", con_at)
            ts.expect("]")
            return ConstructorFn(self.algebras[self.con_owner[con]], con)
        if ts.accept("proj"):
            arity = _arity(ts)
            index = read_nat(ts)
            return self.checked(lambda: Proj(arity, index), at)
        if ts.accept("comp"):
            outer = self.fexpr()
            ts.expect("(")
            inners = [self.fexpr()]
            while ts.accept(","):
                inners.append(self.fexpr())
            ts.expect(")")
            return self.checked(lambda: Comp(outer, inners), at)
        if ts.accept("case"):
            ts.expect("over")
            algebra = self.algebra_ref()
            branches = self.branch_block(algebra, multi=False)
            return self.checked(
                lambda: Case(algebra, [row[0] for row in branches]), at
            )
        if ts.accept("rec"):
            ts.expect("over")
            algebra = self.algebra_ref()
            grid = self.branch_block(algebra, multi=True)
            select = 1
            if ts.accept("select"):
                select = read_nat(ts)
            return self.checked(lambda: SimRec(algebra, grid, select), at)
        name = _name(ts, "a function expression")
        if name not in self.by_name:
            raise ts.error(f"unknown function name {name}", at)
        return self.by_name[name]

    def checked(self, build, at: int) -> FunctionExpr:
        """Surface combinator shape errors at the token at index at."""
        try:
            return build()
        except GrsrError as e:
            raise self.ts.error(str(e), at) from e

    def branch_block(
        self, algebra: Algebra, multi: bool
    ) -> list[list[FunctionExpr]]:
        """Parse { con => fexpr[, fexpr]*; ... }, one row per constructor,
        reordered to the algebra's declaration order."""
        ts = self.ts
        ts.expect("{")
        rows: dict[str, list[FunctionExpr]] = {}
        while not ts.at("}"):
            at = ts.pos
            con = _name(ts, "a constructor name")
            if con not in {c for c, _ in algebra.constructors}:
                raise ts.error(f"{con} is not a constructor of {algebra.name}", at)
            if con in rows:
                raise ts.error(f"duplicate branch for {con}", at)
            ts.expect("=>", "darrow")
            row = [self.fexpr()]
            while multi and ts.accept(","):
                row.append(self.fexpr())
            ts.expect(";")
            rows[con] = row
        ts.expect("}")
        missing = [c for c, _ in algebra.constructors if c not in rows]
        if missing:
            raise ts.error(f"missing branches for {', '.join(missing)}")
        return [rows[c] for c, _ in algebra.constructors]


def parse_grsr(text: str) -> GrsrFile:
    return _Parser(TokenStream(text)).file()
