"""Compiled programs and the one evaluation loop that all engines run.

Code is a postfix tuple of instructions (op, a, b): (VAR, slot, None) and
(VAL, value, None) push a value, (CON, sym, k) and (CALL, sym, k) pop k
arguments, and (RET, None, None) ends a body, storing its value under the
call's key. Postfix order is leftmost-innermost order, so no redex is ever
searched for. In a rule body a slot is the occurrence the matched call
bound the variable to; an input holds no variables. A CON or CALL of a rule
body whose arguments are all variables compiles, without their pushes, to
one (FCON, sym, get) or (FCALL, sym, get), where get(binding) gives the
arguments (Proebsting's superoperators, POPL 1995). The naive engine still
charges each of them, left to right as its push was, before the step's
budget check.

Each operation's rules compile into a decision tree (Maranget, "Compiling
Pattern Matching to Good Decision Trees", ML 2008). A call's arguments are
its first occurrences. A switch [at, branches, default] tests the head
symbol of occurrence at: a symbol in branches appends that value's
arguments as the next occurrences and goes on in its subtree, any other
symbol goes on in default. A leaf is (body code, body weight); the body is
compiled at each leaf of its rule, and the occurrences are its binding.
Orthogonal programs are left-linear and non-overlapping, so the tree never
backtracks nor compares two values, and a missing subtree (None) is a
stuck call.
"""

from __future__ import annotations

import sys
from operator import itemgetter
from typing import Callable, Optional

from .errors import StuckError
from .terms import App, Program, Rule, Signature, Term, Var, validate_term

VAR, VAL, RET, CON, CALL, FCON, FCALL = range(7)
APPLY, READ, STORE, MERGE = "apply", "read", "store", "merge"


def compile_term(sig: Signature, t: Term, slots: Optional[dict] = None) -> tuple:
    """Postfix code of t: of a rule body whose variables have the given
    slots, or without them of an input term, whose constructor-only
    subterms are one VAL push each. A variable in an input is free, and
    raises StuckError before any code runs; a symbol the signature does not
    declare at that arity raises as validate_term does."""
    code: list = []
    vals: dict[int, tuple] = {}  # id -> VAL push of a node met before
    stack: list = [(t, False)]
    while stack:
        node, done = stack.pop()
        if done:
            sym, k = node.sym, len(node.args)
            con = sym in sig.constructors
            if (sig.constructors if con else sig.operations).get(sym) != k:
                validate_term(sig, t)  # raises the signature's complaint
            ops = code[len(code) - k :]
            if slots is not None and all(ins[0] == VAR for ins in ops):
                # operands read from the binding tuple; a slice of one is a tuple
                at = [ins[1] for ins in ops] or [0]
                get = itemgetter(*at) if k > 1 else itemgetter(slice(at[0], at[0] + k))
                code[len(code) - k :] = [(FCON if con else FCALL, sym, get)]
            elif not con:
                code.append((CALL, sym, k))
            elif slots is None and all(ins[0] == VAL for ins in ops):
                # its arguments are values
                code[len(code) - k :] = [vals.setdefault(id(node), (VAL, node, None))]
            else:
                code.append((CON, sym, k))
        elif id(node) in vals:  # a shared value is pushed, not walked again
            code.append(vals[id(node)])
        elif type(node) is Var:
            if slots is None:
                raise StuckError(f"free variable {node.name} in evaluated term", node)
            code.append((VAR, slots[node.name], None))
        else:
            stack.append((node, True))
            for a in reversed(node.args):
                stack.append((a, False))
    code.append((RET, None, None))
    return tuple(code)


def _decision_tree(sig: Signature, op: str, rules: tuple[Rule, ...]) -> object:
    """The tree of op's rules. A row is (patterns, rule, occurrences of the
    variables already passed), its patterns lined up with a list of
    occurrences; None is a wildcard. A task builds its rows' tree into[key]."""
    n = sig.operations[op]
    root: list = [None]
    todo = [([(list(r.lhs.args), r, {}) for r in rules], list(range(n)), n, root, 0)]
    while todo:
        rows, cols, n, into, key = todo.pop()
        if not rows:
            continue  # no rule left: a stuck call
        pats, rule, env = rows[0]
        for j, p in enumerate(pats):
            if type(p) is App:
                break
        else:  # the first rule matches whatever is left
            env = {**env, **{p.name: at for p, at in zip(pats, cols) if p is not None}}
            body = compile_term(sig, rule.rhs, slots=env)
            into[key] = (body, sum(ins[0] >= CON for ins in body))
            continue
        at, rest = cols[j], cols[:j] + cols[j + 1 :]
        node = into[key] = [at, {}, None]
        groups = {r[0][j].sym: [] for r in rows if type(r[0][j]) is App}
        default = []
        for pats, rule, env in rows:
            p, others = pats[j], pats[:j] + pats[j + 1 :]
            if type(p) is App:
                groups[p.sym].append((others + list(p.args), rule, env))
                continue
            env = env if p is None else {**env, p.name: at}
            default.append((others, rule, env))
            for sym, sub in groups.items():
                sub.append((others + [None] * sig.constructors[sym], rule, env))
        todo.append((default, rest, n, node, 2))
        for sym, sub in groups.items():
            k = sig.constructors[sym]
            todo.append((sub, rest + list(range(n, n + k)), n + k, node[1], sym))
    return root[0]


class _Trees(dict):
    """Each operation's decision tree (None without rules), built on its
    first call."""

    def __init__(self, program: Program):
        self.sig, self.by_op = program.signature, program.by_op

    def __missing__(self, op: str) -> object:
        tree = self[op] = _decision_tree(self.sig, op, self.by_op.get(op, ()))
        return tree


def _ancestors(code: tuple, j: int) -> int:
    """Symbols of code whose subtree holds instruction j: the later CON and
    CALL instructions that pop the value j leaves behind, never a fused one."""
    n = above = 0  # values pushed after j and still on the stack
    for op, _, k in code[j + 1 :]:
        if op < CON or op >= FCON:
            above += 1
        elif k > above:
            n, above = n + 1, 0
        else:
            above -= k - 1
    return n


def execute(
    program: Program,
    code: tuple,
    view: Callable,
    witness: Callable,
    build: Callable,
    over: Callable,
    cache: Optional[dict] = None,
    push_cost: Optional[Callable] = None,
    limit: Optional[int] = None,
    emit: Optional[Callable] = None,
) -> tuple[object, tuple[int, int, int, int, int]]:
    """Run code to one value; returns it and (applies, reads, stores,
    merges, steps). The engines differ only in the domain passed here.

    view(v) gives the (symbol, arguments) of a value v, which the decision
    trees test; witness(sym, args) gives the term a stuck call reports;
    build(sym, args) gives a constructor value; over(counts) gives the
    error for a step beyond limit. Each CON, CALL (fused or not) and RET is
    a step; without a cache there are no reads and a RET stores nothing.
    With push_cost, each pushed value v, and each argument a fused
    instruction reads, costs push_cost(v) steps: the naive engine's
    inferences, one per node re-derived, a RET standing for the rule
    firing. emit(step, kind, change of weight) observes each step.
    """
    limit = sys.maxsize if limit is None else limit
    if program._code is None:  # kept on the program from its first run on
        program._code = _Trees(program)
    trees = program._code
    stack: list = []
    push = stack.append
    frames: list = []
    binding: tuple = ()  # the occurrences of the body being run
    key = None
    pc = 0
    applies = reads = stores = merges = steps = 0
    try:
        while True:
            op, a, b = code[pc]
            pc += 1
            if op >= FCON:  # the operands are read from the binding
                args = b(binding)
                if push_cost is not None:
                    for v in args:  # charged as their pushes were
                        nodes = push_cost(v)
                        if steps + nodes > limit:
                            raise over((applies, reads, stores, merges, steps))
                        steps += nodes
            elif op >= CON:
                if b == 1:
                    args = (stack.pop(),)
                else:
                    n = len(stack) - b
                    args = tuple(stack[n:])
                    del stack[n:]
            elif op == RET:
                if not frames:
                    return stack[-1], (applies, reads, stores, merges, steps)
                if steps >= limit:
                    raise over((applies, reads, stores, merges, steps))
                steps += 1
                if cache is not None:
                    stores += 1
                    cache[key] = stack[-1]
                    if emit is not None:
                        emit(steps, STORE, -1)
                code, pc, binding, key = frames.pop()
                continue
            else:
                v = binding[a] if op == VAR else a
                if push_cost is not None:
                    nodes = push_cost(v)
                    if steps + nodes > limit:
                        raise over((applies, reads, stores, merges, steps))
                    steps += nodes
                push(v)
                continue
            if steps >= limit:
                raise over((applies, reads, stores, merges, steps))
            steps += 1
            if op == CON or op == FCON:
                merges += 1
                push(build(a, args))
                if emit is not None:
                    emit(steps, MERGE, -1)
                continue
            call = None
            if cache is not None:
                call = (a, args)
                hit = cache.get(call)
                if hit is not None:
                    reads += 1
                    push(hit)
                    if emit is not None:
                        emit(steps, READ, -1)
                    continue
            node = trees[a]
            occ = args
            while type(node) is list:
                sym, kids = view(occ[node[0]])
                nxt = node[1].get(sym)
                if nxt is None:
                    node = node[2]
                else:
                    occ += kids
                    node = nxt
            if node is None:
                raise StuckError(f"no rule matches {a}/{len(args)} call", witness(a, args))
            applies += 1
            frames.append((code, pc, binding, key))
            code, body_weight = node
            pc, binding, key = 0, occ, call
            if emit is not None:
                emit(steps, APPLY, body_weight)
    except StuckError:
        if push_cost is not None:
            # a naive inference counts a symbol when evaluation reaches it
            # and a firing when it happens, the loop when each completes:
            # add the symbols reached and the bodies entered but not left
            # before choosing between stuck and over budget
            reached = len(frames) + _ancestors(code, pc - 1)
            reached += sum(_ancestors(c, p - 1) for c, p, _, _ in frames)
            if steps + reached > limit:
                raise over((applies, reads, stores, merges, steps)) from None
        raise
