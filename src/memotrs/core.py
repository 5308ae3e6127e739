"""Compiled programs and the one evaluation loop that all engines run.

Code is a postfix tuple of instructions (op, a, b): (VAR, slot, None) and
(VAL, value, None) push a value, (CON, sym, k) and (CALL, sym, k) pop k
arguments, and (RET, None, None) ends a body, storing its value under the
call's key. Postfix order is leftmost-innermost order, so no redex is ever
searched for. In a rule body a slot is the occurrence the matched call
bound the variable to; an input holds no variables. A VAL of an input
holds a term for the memo and naive engines, and for the shared engine
the heap location the term is merged into. `parser.load_term` loads
every input, a term or its text, for either kind of value;
`compile_term` compiles rule bodies only. A CON or CALL of a rule body
whose arguments are all variables compiles, without their pushes, to one
(FCON, sym, get) or (FCALL, sym, get), where get(binding) gives the
arguments (Proebsting's superoperators, POPL 1995). The naive engine
still charges each of them, left to right as its push was, before the
step's budget check.

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

A run is observed only through its step log (see `execute`): one list
append per step of an object the loop already holds, handed over every
LOG_BATCH steps, so no callback runs per step.
"""

from __future__ import annotations

import sys
from operator import itemgetter
from typing import Callable, Optional

from .errors import StuckError
from .terms import App, Program, Rule, Signature, Term, Var, validate_term

VAR, VAL, RET, CON, CALL, FCON, FCALL = range(7)
APPLY, READ, STORE, MERGE = "apply", "read", "store", "merge"
LOG_BATCH = 4096  # steps per batch of the step log


def compile_term(sig: Signature, t: Term, slots: dict) -> tuple:
    """Postfix code of a rule body t whose variables have the given slots.
    The one walk goes in pre-order from right to left and emits the code
    reversed, so a node's finish finds its arguments' code after its own
    instruction."""
    cons, ops = sig.constructors, sig.operations
    rev: list = [(RET, None, None)]  # the code, last instruction first
    stack: list = [t]  # nodes to walk, and the index in rev of a node's instruction
    while stack:
        node = stack.pop()
        if type(node) is int:  # a finish: rev[node] holds the instruction
            i = node
            op, sym, k = rev[i]
            con = op == CON
            if (cons if con else ops).get(sym) != k:
                validate_term(sig, t)
            if len(rev) != i + k + 1:  # an argument is more than one push
                continue
            args = rev[:i:-1]
            if all(ins[0] == VAR for ins in args):
                # operands read from the binding tuple; a slice of one is a tuple
                at = [ins[1] for ins in args] or [0]
                get = itemgetter(*at) if k > 1 else itemgetter(slice(at[0], at[0] + k))
                rev[i:] = [(FCON if con else FCALL, sym, get)]
        elif type(node) is Var:
            rev.append((VAR, slots[node.name], None))
        else:
            stack.append(len(rev))
            rev.append((CON if node.sym in cons else CALL, node.sym, len(node.args)))
            stack += node.args  # the last argument is walked first
    rev.reverse()
    return tuple(rev)


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
            body = compile_term(sig, rule.rhs, env)
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
    log: Optional[Callable] = None,
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
    firing. With push_cost and no cache, the steps and applies each call
    took after its CALL step are kept once it returns: an equal call later
    charges its CALL step and then those, in place of running its body
    again, and so goes over limit just where running it would have.

    log, when given, receives the step log in batches: a list holding, for
    each step in order, an object the loop already has at hand. An apply
    logs its decision-tree leaf, whose body weight is the change of
    weight; a read logs READ and a store STORE; a merge logs the value
    build returned (each changes the weight by -1). Steps the naive engine
    charges without one of these kinds (pushes, RETs, stored call counts)
    log -(their number of steps). So the step index of an entry is the
    running sum of its steps, and the heap location a machine merge logs
    is a new node iff it is at or above the heap's size so far. log is
    called every LOG_BATCH steps, and once when the run ends, however it
    ends, each time with a new list.
    """
    limit = sys.maxsize if limit is None else limit
    if program._code is None:  # kept on the program from its first run on
        program._code = _Trees(program)
    trees = program._code
    # call -> (value, steps, applies) of a returned call, for push_cost
    counted = None if push_cost is None else {}
    stack: list = []
    push = stack.append
    frames: list = []
    binding: tuple = ()  # the occurrences of the body being run
    key = None
    pc = 0
    applies = reads = stores = merges = steps = 0
    # a step at bound raises over at limit, or passes a batch to log
    bound = limit if log is None else min(limit, LOG_BATCH)
    entries: list = []
    add = None if log is None else entries.append

    def at_bound(counts: tuple) -> int:
        if counts[-1] >= limit:
            raise over(counts)
        batch = entries.copy()
        entries.clear()
        log(batch)
        return min(limit, counts[-1] + LOG_BATCH)

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
                        if add is not None:
                            add(-nodes)
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
                if steps >= bound:
                    bound = at_bound((applies, reads, stores, merges, steps))
                steps += 1
                if cache is not None:
                    stores += 1
                    cache[key] = stack[-1]
                    if add is not None:
                        add(STORE)
                elif counted is not None:
                    call, steps_at, applies_at = key
                    counted[call] = (stack[-1], steps - steps_at, applies - applies_at)
                    if add is not None:
                        add(-1)
                code, pc, binding, key = frames.pop()
                continue
            else:
                v = binding[a] if op == VAR else a
                if push_cost is not None:
                    nodes = push_cost(v)
                    if steps + nodes > limit:
                        raise over((applies, reads, stores, merges, steps))
                    steps += nodes
                    if add is not None:
                        add(-nodes)
                push(v)
                continue
            if steps >= bound:
                bound = at_bound((applies, reads, stores, merges, steps))
            steps += 1
            if op == CON or op == FCON:
                merges += 1
                v = build(a, args)
                push(v)
                if add is not None:
                    add(v)
                continue
            call = None
            if cache is not None:
                call = (a, args)
                hit = cache.get(call)
                if hit is not None:
                    reads += 1
                    push(hit)
                    if add is not None:
                        add(READ)
                    continue
            elif counted is not None:
                call = (a, args)
                hit = counted.get(call)
                if hit is not None:
                    value, nodes, fired = hit
                    if steps + nodes > limit:
                        raise over((applies, reads, stores, merges, steps))
                    steps += nodes
                    applies += fired
                    push(value)
                    if add is not None:
                        add(-1 - nodes)
                    continue
                call = (call, steps, applies)  # the counts its RET subtracts
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
            code = node[0]
            pc, binding, key = 0, occ, call
            if add is not None:
                add(node)
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
    finally:
        if entries:
            log(entries)
