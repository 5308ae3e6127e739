"""First-order terms, rewrite rules, and orthogonal constructor rewrite programs."""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Optional

from .errors import (
    AmbiguityError,
    ArityError,
    LinearityError,
    RuleError,
    SignatureError,
)


# tree sizes saturate here, above every budget the CLI accepts (2^64), so
# a size is never a sum of big integers
SIZE_CAP = 2**65

# reprs of terms and machine expressions stop after this many characters
REPR_CHARS = 10_000


def bounded_repr(node) -> str:
    """repr of a term or expression node, built on an explicit stack so
    depth is no limit, and cut after REPR_CHARS characters with "..." so a
    shared node whose tree is huge costs no more than that. A node lays
    out its text with _repr_parts(): strings and child nodes, in order;
    nodes without it give their own repr."""
    out: list[str] = []
    chars = 0
    stack = [node]
    while stack:
        item = stack.pop()
        if type(item) is not str:
            parts = getattr(item, "_repr_parts", None)
            if parts is not None:
                stack += reversed(parts())
                continue
            item = repr(item)
        out.append(item)
        chars += len(item)
        if chars > REPR_CHARS:
            return "".join(out)[:REPR_CHARS] + "..."
    return "".join(out)


def call_repr_parts(cls: str, sym: str, args: tuple) -> list:
    """The parts of the repr Cls('sym', [arg, ...])."""
    parts: list = [f"{cls}({sym!r}, ["]
    for i, a in enumerate(args):
        if i:
            parts.append(", ")
        parts.append(a)
    parts.append("])")
    return parts


class Term:
    """Immutable first-order term; concrete nodes are Var and App. size is
    the term's node count seen as a tree, saturated at SIZE_CAP."""

    __slots__ = ("_hash", "size")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return terms_equal(self, other)


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("var", name))
        self.size = 1

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class App(Term):
    """A constructor or operation symbol applied to argument terms."""

    __slots__ = ("sym", "args")

    def __init__(self, sym: str, args: tuple[Term, ...] = ()):
        self.sym = sym
        self.args = args
        # hash((sym, *child hashes)); arities 0-2 spelled out, being most nodes
        n = len(args)
        if n == 0:
            self._hash = hash((sym,))
            self.size = 1
            return
        if n == 1:
            a = args[0]
            self._hash = hash((sym, a._hash))
            size = a.size + 1
        elif n == 2:
            a, b = args
            self._hash = hash((sym, a._hash, b._hash))
            size = a.size + b.size + 1
        else:
            self._hash = hash((sym, *[a._hash for a in args]))
            size = sum(a.size for a in args) + 1
        self.size = size if size < SIZE_CAP else SIZE_CAP

    def _repr_parts(self) -> list:
        if not self.args:
            return [f"App({self.sym!r})"]
        return call_repr_parts("App", self.sym, self.args)

    __repr__ = bounded_repr


# an App's (symbol, arguments): how the engines and the printer read a term
term_view = attrgetter("sym", "args")


def terms_equal(s: Term, t: Term) -> bool:
    """Structural equality, iterative and safe on deep or heavily shared terms."""
    stack = [(s, t)]
    seen: set[tuple[int, int]] = set()
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a._hash != b._hash or type(a) is not type(b):
            return False
        if isinstance(a, Var):
            if a.name != b.name:
                return False
            continue
        key = (id(a), id(b))
        if key in seen:
            continue
        seen.add(key)
        if a.sym != b.sym or len(a.args) != len(b.args):
            return False
        stack.extend(zip(a.args, b.args))
    return True


def _postorder(t: Term, within: Callable[[Term], bool]):
    """Yield each physically distinct node after its children, entering
    only the children for which within holds."""
    seen: set[int] = set()
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, done = stack.pop()
        if done:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, App):
            for a in node.args:
                if id(a) not in seen and within(a):
                    stack.append((a, False))


def term_size(t: Term, limit: Optional[int] = None) -> int:
    """Number of nodes of the term seen as a tree (variables count 1). With
    limit, sizes saturate there: the result is min(size, limit).

    This is t.size unless that is saturated and limit is above SIZE_CAP;
    then the nodes at the cap are summed once each, below them the slot."""
    size = t.size
    if size == SIZE_CAP and (limit is None or limit > SIZE_CAP):
        sizes: dict[int, int] = {}
        for node in _postorder(t, lambda a: a.size == SIZE_CAP):
            sizes[id(node)] = 1 + sum(
                sizes[id(a)] if a.size == SIZE_CAP else a.size for a in node.args
            )
        size = sizes[id(t)]
    return size if limit is None or size < limit else limit


def minimal_shared_size(terms: Iterable[Term]) -> int:
    """Number of distinct subterms across all given terms jointly.

    Nodes are numbered bottom-up, first by object, then by symbol and the
    numbers of their children, so equal subtrees are never compared node by
    node."""
    roots = list(terms)  # keeps every node alive, so no id is reused
    number: dict[int, int] = {}  # id(node) -> number of its class
    classes: dict[object, int] = {}  # variable name or (sym, *child numbers)
    stack: list[tuple[Term, bool]] = [(t, False) for t in roots]
    while stack:
        node, done = stack.pop()
        if done:
            key = (node.sym, *[number[id(a)] for a in node.args])
            number[id(node)] = classes.setdefault(key, len(classes))
        elif id(node) in number:
            continue
        elif type(node) is Var:
            number[id(node)] = classes.setdefault(node.name, len(classes))
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args)
    return len(classes)


def vars_of(t: Term) -> set[str]:
    return {node.name for node in _postorder(t, lambda a: True) if type(node) is Var}


def rename(t: Term, syms: dict[str, str], names: dict[str, str]) -> Term:
    """t with each symbol s written syms.get(s, s) and each variable v
    names.get(v, v); a shared node is rewritten once and stays shared."""
    new: dict[int, Term] = {}
    for node in _postorder(t, lambda a: True):
        if type(node) is Var:
            new[id(node)] = Var(names.get(node.name, node.name))
        else:
            args = tuple([new[id(a)] for a in node.args])
            new[id(node)] = App(syms.get(node.sym, node.sym), args)
    return new[id(t)]


def fresh_names(clashing: Iterable[str], taken: set[str]) -> dict[str, str]:
    """For each name in clashing, name_k for the least k >= 1 not in taken.
    Distinct names get distinct ones, as k follows the last underscore."""
    fresh: dict[str, str] = {}
    for name in clashing:
        k = 1
        while f"{name}_{k}" in taken:
            k += 1
        fresh[name] = f"{name}_{k}"
    return fresh


class Signature:
    """Disjoint constructor and operation declarations with fixed arities."""

    __slots__ = ("constructors", "operations")

    def __init__(self, constructors: dict[str, int], operations: dict[str, int]):
        for name, ar in list(constructors.items()) + list(operations.items()):
            if ar < 0:
                raise SignatureError(f"negative arity for {name}")
        dup = set(constructors) & set(operations)
        if dup:
            raise SignatureError(
                f"symbols declared both constructor and operation: {sorted(dup)}"
            )
        self.constructors = dict(constructors)
        self.operations = dict(operations)

    def arity(self, sym: str) -> int:
        if sym in self.constructors:
            return self.constructors[sym]
        if sym in self.operations:
            return self.operations[sym]
        raise SignatureError(f"undeclared symbol: {sym}")

    def __repr__(self) -> str:
        return f"Signature({self.constructors!r}, {self.operations!r})"


def validate_term(sig: Signature, t: Term) -> None:
    """Check every symbol is declared and applied at its arity."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            continue
        ar = sig.arity(node.sym)
        if ar != len(node.args):
            raise ArityError(
                f"{node.sym} declared with arity {ar}, applied to {len(node.args)}"
            )
        stack.extend(node.args)


class Rule:
    """One oriented equation f(p1..pk) -> r."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: App, rhs: Term):
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        return f"Rule({self.lhs!r}, {self.rhs!r})"


def patterns_overlap(a: Term, b: Term) -> bool:
    """Whether two linear patterns (renamed apart) can match a common term."""
    stack = [(a, b)]
    while stack:
        p, q = stack.pop()
        if isinstance(p, Var) or isinstance(q, Var):
            continue
        if p.sym != q.sym or len(p.args) != len(q.args):
            return False
        stack.extend(zip(p.args, q.args))
    return True


class Program:
    """A validated orthogonal constructor rewrite program.

    Construction raises the first problem `program_diagnostics` reports,
    as that problem's exception class with its message. by_op maps each
    operation with rules to its rules, in program order.
    """

    __slots__ = ("signature", "rules", "by_op", "_delta", "_code")

    def __init__(self, signature: Signature, rules: Iterable[Rule]):
        self.signature = signature
        self.rules = tuple(rules)
        by_op: dict[str, list[Rule]] = {}
        for error, message in _problems(signature, self.rules, by_op):
            raise error(message)
        self.by_op = {op: tuple(group) for op, group in by_op.items()}
        self._delta: Optional[int] = None
        self._code = None  # decision trees over compiled bodies, see core._Trees

    def __repr__(self) -> str:
        return f"Program({len(self.rules)} rules over {self.signature!r})"


def program_delta(p: Program) -> int:
    """Largest right-hand-side size across all rules."""
    if not p.rules:
        raise RuleError("program has no rules")
    if p._delta is None:
        p._delta = max(term_size(r.rhs) for r in p.rules)
    return p._delta


def program_diagnostics(signature: Signature, rules: Iterable[Rule]) -> list[str]:
    """All orthogonality violations, as printable messages; an empty list
    means the rules form a valid orthogonal program."""
    return [message for _, message in _problems(signature, rules, {})]


def _problems(signature: Signature, rules: Iterable[Rule], by_op: dict):
    """Yield (exception class, message) for each orthogonality violation.

    Each rule is checked for shape, lhs arity, patterns, linearity,
    right-hand symbols and scope, in that order; a rule without problems
    joins by_op under its operation. Then the rules in by_op are checked
    pairwise for overlap. A left-hand side is rendered only when a problem
    is reported."""
    from .parser import format_term

    for rule in rules:
        lhs, rhs = rule.lhs, rule.rhs
        if not isinstance(lhs, App) or lhs.sym not in signature.operations:
            where = format_term(lhs) if isinstance(lhs, App) else repr(lhs)
            yield RuleError, f"shape: left-hand head of {where} is not an operation"
            continue
        arity = signature.operations[lhs.sym]
        if arity != len(lhs.args):
            yield ArityError, (
                f"arity: {lhs.sym} declared with arity {arity} but "
                f"{format_term(lhs)} applies it to {len(lhs.args)}"
            )
            continue
        ok = True
        counts: dict[str, int] = {}  # per occurrence, so a shared Var counts per use
        for p in lhs.args:
            # patterns hold only constructors, at their arities, and variables;
            # the first problem met is reported, the variables all counted
            problem = None
            stack = [p]
            while stack:
                node = stack.pop()
                if isinstance(node, Var):
                    counts[node.name] = counts.get(node.name, 0) + 1
                    continue
                if problem is None:
                    ar = signature.constructors.get(node.sym)
                    if ar is None:
                        problem = RuleError, f"operation {node.sym} inside a pattern"
                    elif ar != len(node.args):
                        problem = ArityError, (
                            f"{node.sym} declared with arity {ar}, "
                            f"applied to {len(node.args)}"
                        )
                stack.extend(node.args)
            if problem is not None:
                yield problem[0], f"pattern: in {format_term(lhs)}: {problem[1]}"
                ok = False
        for v in sorted(v for v, k in counts.items() if k > 1):
            yield LinearityError, f"linearity: variable {v} repeated in {format_term(lhs)}"
            ok = False
        try:
            validate_term(signature, rhs)
        except (ArityError, SignatureError) as e:
            yield type(e), f"right-hand side of {format_term(lhs)}: {e}"
            ok = False
        free = vars_of(rhs) - set(counts)
        if free:
            yield RuleError, (
                f"scope: right-hand variable(s) {sorted(free)} of {format_term(lhs)} "
                "not bound on the left"
            )
            ok = False
        if ok:
            by_op.setdefault(lhs.sym, []).append(rule)
    for group in by_op.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if patterns_overlap(group[i].lhs, group[j].lhs):
                    yield AmbiguityError, (
                        f"ambiguity: rules {format_term(group[i].lhs)} and "
                        f"{format_term(group[j].lhs)} overlap"
                    )

