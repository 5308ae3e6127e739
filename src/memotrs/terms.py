"""First-order terms, rewrite rules, and orthogonal constructor rewrite programs."""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import (
    AmbiguityError,
    ArityError,
    LinearityError,
    RuleError,
    SignatureError,
)


class Term:
    """Immutable first-order term; concrete nodes are Var and App."""

    __slots__ = ("_hash", "ground")

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
        self.ground = False

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
            self.ground = True
        elif n == 1:
            a = args[0]
            self._hash = hash((sym, a._hash))
            self.ground = a.ground
        elif n == 2:
            a, b = args
            self._hash = hash((sym, a._hash, b._hash))
            self.ground = a.ground and b.ground
        else:
            self._hash = hash((sym, *[a._hash for a in args]))
            self.ground = all(a.ground for a in args)

    def __repr__(self) -> str:
        if not self.args:
            return f"App({self.sym!r})"
        return f"App({self.sym!r}, {list(self.args)!r})"


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


def _postorder(t: Term):
    """Yield each physically distinct node after its children."""
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
                if id(a) not in seen:
                    stack.append((a, False))


def term_size(t: Term) -> int:
    """Number of nodes of the term seen as a tree (variables count 1)."""
    sizes: dict[int, int] = {}
    for node in _postorder(t):
        if isinstance(node, App):
            sizes[id(node)] = 1 + sum(sizes[id(a)] for a in node.args)
        else:
            sizes[id(node)] = 1
    return sizes[id(t)]


def term_depth(t: Term) -> int:
    """Length of the longest root-to-leaf path, counted in edges."""
    depths: dict[int, int] = {}
    for node in _postorder(t):
        if isinstance(node, App) and node.args:
            depths[id(node)] = 1 + max(depths[id(a)] for a in node.args)
        else:
            depths[id(node)] = 0
    return depths[id(t)]


def subterms(t: Term) -> set[Term]:
    """All distinct subterms of t, including t itself."""
    out: set[Term] = set()
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.add(node)
        if isinstance(node, App):
            stack.extend(node.args)
    return out


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
    names: set[str] = set()
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            names.add(node.name)
        else:
            stack.extend(node.args)
    return names


def substitute(t: Term, binding: dict[str, Term]) -> Term:
    """Replace variables by their bindings; unbound variables are kept."""
    if t.ground:
        return t
    memo: dict[int, Term] = {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in memo:
            continue
        if done:
            new_args = tuple(memo[id(a)] for a in node.args)
            if all(n is a for n, a in zip(new_args, node.args)):
                memo[id(node)] = node
            else:
                memo[id(node)] = App(node.sym, new_args)
            continue
        if node.ground:
            memo[id(node)] = node
        elif isinstance(node, Var):
            memo[id(node)] = binding.get(node.name, node)
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args)
    return memo[id(t)]


def match_term(pattern: Term, subject: Term) -> Optional[dict[str, Term]]:
    """First-order matching of a constructor pattern against a term.

    Returns the binding on success, None on mismatch. Patterns in valid
    programs are linear; repeated variables are still handled (by equality).
    """
    binding: dict[str, Term] = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = binding.get(p.name)
            if bound is None:
                binding[p.name] = s
            elif not terms_equal(bound, s):
                return None
            continue
        if not isinstance(s, App) or s.sym != p.sym or len(s.args) != len(p.args):
            return None
        stack.extend(zip(p.args, s.args))
    return binding


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

    def is_constructor(self, sym: str) -> bool:
        return sym in self.constructors

    def is_operation(self, sym: str) -> bool:
        return sym in self.operations

    def arity(self, sym: str) -> int:
        if sym in self.constructors:
            return self.constructors[sym]
        if sym in self.operations:
            return self.operations[sym]
        raise SignatureError(f"undeclared symbol: {sym}")

    def __repr__(self) -> str:
        return f"Signature({self.constructors!r}, {self.operations!r})"


def validate_term(sig: Signature, t: Term, allow_vars: bool = True) -> None:
    """Check every symbol is declared and applied at its arity."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            if not allow_vars:
                raise ArityError(f"unexpected variable {node.name} in ground term")
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

    @property
    def operation(self) -> str:
        return self.lhs.sym

    def __repr__(self) -> str:
        return f"Rule({self.lhs!r}, {self.rhs!r})"


def _check_pattern(sig: Signature, t: Term) -> None:
    """Rule arguments may contain only constructors and variables."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            continue
        if not sig.is_constructor(node.sym):
            raise RuleError(f"operation {node.sym} inside a pattern")
        if sig.constructors[node.sym] != len(node.args):
            raise ArityError(
                f"{node.sym} declared with arity {sig.constructors[node.sym]}, "
                f"applied to {len(node.args)}"
            )
        stack.extend(node.args)


def _count_var_uses(t: Term, counts: dict[str, int]) -> None:
    # occurrence count, so shared Var objects are counted per use
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            counts[node.name] = counts.get(node.name, 0) + 1
        else:
            stack.extend(node.args)


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

    Construction checks: rule shape (operation head, constructor patterns),
    left-linearity, right-hand variables bound on the left, arity-correctness,
    and pairwise non-ambiguity of left-hand sides per operation.
    """

    __slots__ = ("signature", "rules", "_by_op", "_delta", "_code")

    def __init__(self, signature: Signature, rules: Iterable[Rule]):
        self.signature = signature
        self.rules = tuple(rules)
        by_op: dict[str, list[Rule]] = {}
        for idx, rule in enumerate(self.rules):
            self._validate_rule(idx, rule)
            by_op.setdefault(rule.operation, []).append(rule)
        for op, group in by_op.items():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if patterns_overlap(group[i].lhs, group[j].lhs):
                        raise AmbiguityError(
                            f"rules for {op} overlap: "
                            f"{_plain(group[i].lhs)} and {_plain(group[j].lhs)}"
                        )
        self._by_op = {op: tuple(group) for op, group in by_op.items()}
        self._delta: Optional[int] = None
        self._code = None  # compiled rule bodies, see core.program_code

    def _validate_rule(self, idx: int, rule: Rule) -> None:
        sig = self.signature
        lhs, rhs = rule.lhs, rule.rhs
        if not isinstance(lhs, App) or not sig.is_operation(lhs.sym):
            raise RuleError(f"rule {idx}: left-hand head must be an operation")
        if sig.operations[lhs.sym] != len(lhs.args):
            raise ArityError(
                f"rule {idx}: {lhs.sym} declared with arity "
                f"{sig.operations[lhs.sym]}, applied to {len(lhs.args)}"
            )
        counts: dict[str, int] = {}
        for p in lhs.args:
            _check_pattern(sig, p)
            _count_var_uses(p, counts)
        repeated = sorted(v for v, n in counts.items() if n > 1)
        if repeated:
            raise LinearityError(
                f"rule {idx}: variable(s) repeated on the left: {repeated}"
            )
        validate_term(sig, rhs)
        free = vars_of(rhs) - set(counts)
        if free:
            raise RuleError(
                f"rule {idx}: right-hand variable(s) not bound on the left: "
                f"{sorted(free)}"
            )

    def rules_for(self, op: str) -> tuple[Rule, ...]:
        return self._by_op.get(op, ())

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
    """All orthogonality violations, as printable messages.

    Unlike Program construction, which raises on the first problem, this
    collects every problem; an empty list means the rules form a valid
    orthogonal program."""
    problems: list[str] = []
    by_op: dict[str, list[Rule]] = {}
    for rule in rules:
        lhs, rhs = rule.lhs, rule.rhs
        where = _plain(lhs) if isinstance(lhs, App) else repr(lhs)
        if not isinstance(lhs, App) or not signature.is_operation(lhs.sym):
            problems.append(f"shape: left-hand head of {where} is not an operation")
            continue
        if signature.operations[lhs.sym] != len(lhs.args):
            problems.append(
                f"arity: {lhs.sym} declared with arity "
                f"{signature.operations[lhs.sym]} but {where} applies it to "
                f"{len(lhs.args)}"
            )
            continue
        ok = True
        counts: dict[str, int] = {}
        for p in lhs.args:
            try:
                _check_pattern(signature, p)
            except (RuleError, ArityError) as e:
                problems.append(f"pattern: in {where}: {e}")
                ok = False
            _count_var_uses(p, counts)
        for v in sorted(v for v, k in counts.items() if k > 1):
            problems.append(f"linearity: variable {v} repeated in {where}")
            ok = False
        try:
            validate_term(signature, rhs)
        except (RuleError, ArityError, SignatureError) as e:
            problems.append(f"right-hand side of {where}: {e}")
            ok = False
        free = vars_of(rhs) - set(counts)
        if free:
            problems.append(
                f"scope: right-hand variable(s) {sorted(free)} of {where} "
                "not bound on the left"
            )
            ok = False
        if ok:
            by_op.setdefault(lhs.sym, []).append(rule)
    for op, group in by_op.items():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if patterns_overlap(group[i].lhs, group[j].lhs):
                    problems.append(
                        f"ambiguity: rules {_plain(group[i].lhs)} and "
                        f"{_plain(group[j].lhs)} overlap"
                    )
    return problems


def _plain(t: Term) -> str:
    """Minimal rendering for error messages (full formatter lives in parser)."""
    parts: list[str] = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Var):
            parts.append(node.name)
        elif not node.args:
            parts.append(node.sym)
        else:
            parts.append(node.sym + "(")
            stack.append(")")
            for i, a in enumerate(reversed(node.args)):
                stack.append(a)
                if i != len(node.args) - 1:
                    stack.append(", ")
    return "".join(parts)
