"""Shared test utilities.

reference_eval is a deliberately simple recursive interpreter used as an
oracle; it shares no code with the engines under test (its own matching and
substitution). Also here: value enumeration, seeded generators of
structurally recursive programs and of .grsr files, tree-shape
accounting, and the rows of a CSV trace.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Optional

from memotrs import App, Heap, HeapError, Program, Rule, Signature, Term, Var


# --------------------------------------------------------------- oracle


def _match(pattern: Term, subject: Term, binding: dict[str, Term]) -> bool:
    if isinstance(pattern, Var):
        if pattern.name in binding:
            return binding[pattern.name] == subject
        binding[pattern.name] = subject
        return True
    if isinstance(subject, Var):
        return False
    if pattern.sym != subject.sym or len(pattern.args) != len(subject.args):
        return False
    return all(_match(p, s, binding) for p, s in zip(pattern.args, subject.args))


def subst(t: Term, binding: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return binding[t.name]
    return App(t.sym, tuple(subst(a, binding) for a in t.args))


def reference_eval(program: Program, t: Term) -> Term:
    """Innermost call-by-value evaluation by plain recursion."""
    if isinstance(t, Var):
        raise ValueError(f"free variable {t.name}")
    args = tuple(reference_eval(program, a) for a in t.args)
    if t.sym in program.signature.constructors:
        return App(t.sym, args)
    for rule in program.by_op.get(t.sym, ()):
        binding: dict[str, Term] = {}
        if all(
            _match(p, a, binding) for p, a in zip(rule.lhs.args, args)
        ) and len(rule.lhs.args) == len(args):
            return reference_eval(program, subst(rule.rhs, binding))
    raise ValueError(f"no rule for {t.sym}")


# --------------------------------------------------- value construction


def suc_chain(n: int) -> Term:
    t: Term = App("zero", ())
    for _ in range(n):
        t = App("suc", (t,))
    return t


def trace_rows(text: str) -> list[tuple]:
    """The rows of a CSV trace that run_traced wrote, as (index, kind,
    weight, heap nodes, cache entries), after checking its header."""
    head, *rows = text.splitlines()
    assert head == "step,kind,weight,heap_size,cache_size"
    return [(int(i), k, int(w), int(h), int(c)) for i, k, w, h, c in (r.split(",") for r in rows)]


def store_value(heap: Heap, value: Term) -> int:
    """Merge every subterm of a constructor value into heap, children first,
    last argument first; returns the root's location."""
    locs: dict[int, int] = {}
    stack: list[tuple[Term, bool]] = [(value, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in locs:
            continue
        if isinstance(node, Var):
            raise HeapError("cannot store a non-ground term")
        if done:
            locs[id(node)] = heap.merge(node.sym, tuple(locs[id(a)] for a in node.args))
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args)
    return locs[id(value)]


def nat_of(t: Term) -> int:
    n = 0
    while t.sym == "suc":
        n += 1
        t = t.args[0]
    assert t.sym == "zero"
    return n


def enum_values(constructors: dict[str, int], max_size: int) -> list[Term]:
    """Every ground constructor term with at most max_size nodes, smallest
    first; order is deterministic."""
    by_size: list[list[Term]] = [[] for _ in range(max_size + 1)]
    names = sorted(constructors)
    for size in range(1, max_size + 1):
        for con in names:
            k = constructors[con]
            if k == 0:
                if size == 1:
                    by_size[1].append(App(con, ()))
                continue
            # distribute size - 1 nodes among k children, each >= 1
            for split in _compositions(size - 1, k):
                for kids in product(*(by_size[s] for s in split)):
                    by_size[size].append(App(con, kids))
    out: list[Term] = []
    for bucket in by_size:
        out.extend(bucket)
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def random_value(rng: random.Random, constructors: dict[str, int], depth: int) -> Term:
    nullary = [c for c, k in constructors.items() if k == 0]
    if depth <= 0:
        return App(rng.choice(sorted(nullary)), ())
    con = rng.choice(sorted(constructors))
    k = constructors[con]
    return App(con, tuple(random_value(rng, constructors, depth - 1) for _ in range(k)))


# ----------------------------------------------- random program generator


def random_program(seed: int) -> Program:
    """A seeded orthogonal program: every operation case-splits its first
    argument over the whole constructor set, and recursive calls only ever
    receive pattern subvariables as their first argument, so evaluation
    always terminates."""
    rng = random.Random(seed)
    cons = {"a": 0}
    if rng.random() < 0.85:
        cons["b"] = 1
    if rng.random() < 0.65:
        cons["c"] = 2
    if rng.random() < 0.3:
        cons["d"] = 0
    n_ops = rng.randint(1, 3)
    op_names = ["f", "g", "h"][:n_ops]
    ops = {name: rng.randint(1, 2) for name in op_names}
    sig = Signature(cons, ops)

    def rhs_term(depth: int, recursers: list[Term], passthru: list[Term]) -> Term:
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            if passthru and rng.random() < 0.6:
                return rng.choice(passthru)
            nullary = sorted(c for c, k in cons.items() if k == 0)
            return App(rng.choice(nullary), ())
        if roll < 0.55 and recursers:
            op = rng.choice(op_names)
            first = rng.choice(recursers)
            rest = tuple(
                rhs_term(depth - 1, recursers, passthru)
                for _ in range(ops[op] - 1)
            )
            return App(op, (first, *rest))
        con = rng.choice(sorted(cons))
        return App(
            con, tuple(rhs_term(depth - 1, recursers, passthru) for _ in range(cons[con]))
        )

    rules = []
    for op, arity in ops.items():
        extra = [Var(f"x{i}") for i in range(2, arity + 1)]
        for con in sorted(cons):
            k = cons[con]
            ys = [Var(f"y{i}") for i in range(1, k + 1)]
            lhs = App(op, (App(con, tuple(ys)), *extra))
            rhs = rhs_term(2, list(ys), ys + extra)
            rules.append(Rule(lhs, rhs))
    return Program(sig, rules)


# ------------------------------------------- random .grsr file generator

_GRSR_ALGEBRAS = {
    "N": [("zero", 0), ("suc", 1)],
    "T": [("leaf", 0), ("node", 2)],
    "B": [("tt", 0), ("ff", 0)],
}


# names that rule variables and helper operations of compiled programs also
# use; constructors take only the first kind, since a constructor named like
# a helper (mk_<con>, pr<m>_<i>) cannot compile
_GRSR_CON_NAMES = ["x1", "y1", "z1", "x2", "y2", "z2"]
_GRSR_DEF_NAMES = _GRSR_CON_NAMES + ["pr1_1", "pr2_1", "pr1_1_1", "mk_suc", "mk_zero", "add"]


def random_grsr(seed: int) -> str:
    """A seeded .grsr file that parses: two or three algebras and a few
    defs built from every form, among them case splits, recursions of one
    to three components with a select, references to earlier defs,
    aliases (def g = f ;) and tier annotations, some of them partial.
    Arities stay at most 3 so that tier inference stays quick. Some
    constructors and defs are named like the variables and helper
    operations of compiled programs; those names are drawn from a second
    stream, so the file's shape does not depend on them."""
    rng = random.Random(seed)
    names = random.Random(f"names {seed}")
    algebras = ["N", "T", "B"] if rng.random() < 0.5 else ["N", "T"]
    spare = names.sample(_GRSR_CON_NAMES, len(_GRSR_CON_NAMES))
    algs = {
        a: [(spare.pop() if names.random() < 0.3 else c, ar) for c, ar in _GRSR_ALGEBRAS[a]]
        for a in algebras
    }
    cons = [c for a in algebras for c in algs[a]]
    lines = [f"algebra {a} = " + ", ".join(f"{c}/{ar}" for c, ar in algs[a]) + " ;"
             for a in algebras]
    def_names = [n for n in _GRSR_DEF_NAMES if n not in {c for c, _ in cons}]
    names.shuffle(def_names)
    defs: list[tuple[str, int]] = []  # name, arity

    def block(alg: str, width: int, params: int, depth: int) -> str:
        rows = []
        for c, ar in rng.sample(algs[alg], len(algs[alg])):
            entries = [expr(ar * (1 + width) + params, depth - 1) for _ in range(max(width, 1))]
            rows.append(f"{c} => {', '.join(entries)} ;")
        return "{ " + " ".join(rows) + " }"

    def expr(arity: int, depth: int) -> str:
        leaves = [f"cons[{c}]" for c, ar in cons if ar == arity]
        leaves += [f"proj {arity} {i}" for i in range(1, arity + 1)]
        leaves += [name for name, ar in defs if ar == arity]
        roll = rng.random()
        if arity > 3 or depth <= 0 or roll < 0.35:
            if leaves:
                return rng.choice(leaves)
            roll = 0.5  # no leaf of this arity: compose one
        if roll < 0.6:
            k = rng.randint(1, 2)
            inners = ", ".join(expr(arity, depth - 1) for _ in range(k))
            return f"comp ({expr(k, depth - 1)}) ({inners})"
        if arity == 0:
            return rng.choice([f"cons[{c}]" for c, ar in cons if ar == 0])
        alg = rng.choice(algebras)
        if roll < 0.78:
            return f"case over {alg} {block(alg, 0, arity - 1, depth)}"
        width = rng.randint(1, 3 if alg == "N" else 2)
        select = rng.randint(1, width)
        tail = f" select {select}" if select > 1 or rng.random() < 0.3 else ""
        return f"rec over {alg} {block(alg, width, arity - 1, depth)}{tail}"

    for i in range(rng.randint(2, 5)):
        name = def_names.pop() if names.random() < 0.5 else f"f{i}"
        if defs and rng.random() < 0.2:
            target, arity = rng.choice(defs)
            body = target  # an alias
        else:
            arity = rng.randint(0, 3)
            body = expr(arity, rng.randint(1, 3))
        head = f"def {name}"
        if arity and rng.random() < 0.4:
            def tier() -> str:
                t = rng.choice(algebras)
                return t if rng.random() < 0.3 else f"{t}@{rng.randint(0, 2)}"
            ins = " x ".join(tier() for _ in range(arity))
            head += f" : {ins} -> {tier()}"
        lines.append(f"{head} = {body} ;")
        defs.append((name, arity))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------- tree accounting


def depth_profile(t: Term) -> list[int]:
    """Node count of the unfolded tree at each depth; computed on the DAG,
    so exponentially large trees are fine."""
    profiles: dict[int, list[int]] = {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in profiles:
            continue
        if done:
            merged = [1]
            for a in node.args:
                for i, cnt in enumerate(profiles[id(a)], start=1):
                    if i == len(merged):
                        merged.append(0)
                    merged[i] += cnt
            profiles[id(node)] = merged
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args)
    return profiles[id(t)]


def fib(i: int) -> int:
    # fib(0) = fib(1) = 1
    a, b = 1, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def complete_tree(n: int) -> Term:
    t: Term = App("leaf", ())
    for _ in range(n):
        t = App("branch", (t, t))
    return t


def rabbit_tree(n: int) -> Term:
    """Independent recurrence for the expected rabbits output."""
    adults, babies = App("leafm", ()), App("leafn", ())
    if n == 0:
        return App("leafn", ())
    for _ in range(n - 1):
        adults, babies = App("m", (adults, babies)), App("n", (adults,))
    return babies
