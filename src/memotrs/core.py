"""Compiled rule bodies and the one evaluation loop that all engines run.

Code is a postfix tuple: (VAR, name) and (VAL, value) push a value, (CON,
sym, k) and (CALL, sym, k) pop k arguments, (ENTER, code, key) runs code as
the body of the call key (an annotation of a mid-run machine expression),
and (RET,) ends a body, storing its value under the call's key. Postfix
order is leftmost-innermost order, so no redex is ever searched for.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional

from .errors import StuckError
from .terms import Program, Rule, Signature, Term, Var

VAR, VAL, ENTER, RET, CON, CALL = range(6)
APPLY, READ, STORE, MERGE = "apply", "read", "store", "merge"


def compile_term(sig: Signature, t: Term, values: bool = False) -> tuple:
    """Postfix code of t. With values set (an input term), every
    constructor-only subterm becomes one VAL push of itself."""
    code: list = []
    stack: list = [(t, False)]
    while stack:
        node, done = stack.pop()
        if done:
            k = len(node.args)
            if not sig.is_constructor(node.sym):
                code.append((CALL, node.sym, k))
            elif values and all(ins[0] == VAL for ins in code[len(code) - k :]):
                code[len(code) - k :] = [(VAL, node)]  # its arguments are values
            else:
                code.append((CON, node.sym, k))
        elif type(node) is Var:
            code.append((VAR, node.name))
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(node.args))
    code.append((RET,))
    return tuple(code)


def program_code(program: Program) -> dict[Rule, tuple[tuple, int]]:
    """Each rule's compiled body and weight (its number of symbols), built
    on first use and kept on the program."""
    if program._code is None:
        program._code = {}
        for r in program.rules:
            body = compile_term(program.signature, r.rhs)
            program._code[r] = (body, sum(ins[0] >= CON for ins in body))
    return program._code


class _Unbound(dict):
    """The binding of an input's code: every variable in it is free."""

    def __missing__(self, name: str):
        raise StuckError(f"free variable {name} in evaluated term", Var(name))


def _ancestors(code: tuple, j: int) -> int:
    """Symbols of code whose subtree holds instruction j: the later CON and
    CALL instructions that pop the value j leaves behind."""
    n = above = 0  # values pushed after j and still on the stack
    for ins in code[j + 1 :]:
        if ins[0] < CON:
            above += 1
        elif ins[2] > above:
            n, above = n + 1, 0
        else:
            above -= ins[2] - 1
    return n


def execute(
    program: Program,
    code: tuple,
    match: Callable,
    build: Callable,
    over: Callable,
    cache: Optional[dict] = None,
    load: Optional[Callable] = None,
    limit: Optional[int] = None,
    emit: Optional[Callable] = None,
) -> tuple[object, tuple[int, int, int, int, int]]:
    """Run code to one value; returns it and (applies, reads, stores,
    merges, steps). The engines differ only in the domain passed here.

    match(sym, args) gives the matching rule and binding or raises
    StuckError; build(sym, args) gives a constructor value; over(counts)
    gives the error for a step beyond limit. Each CON, CALL and RET is a
    step; without a cache there are no reads and a RET stores nothing. With
    load, each pushed value v is replaced by the copy load(v) = (copy,
    nodes) at nodes steps: the naive engine's inferences, a RET standing for
    the rule firing. emit(step, kind, change of weight) observes each step.
    """
    limit = sys.maxsize if limit is None else limit
    bodies = program_code(program)
    stack: list = []
    push = stack.append
    frames: list = []
    binding: dict = _Unbound()
    key = None
    pc = 0
    applies = reads = stores = merges = steps = 0
    try:
        while True:
            ins = code[pc]
            pc += 1
            op = ins[0]
            if op == VAR or op == VAL:
                v = binding[ins[1]] if op == VAR else ins[1]
                if load is not None:
                    v, nodes = load(v)
                    if steps + nodes > limit:
                        raise over((applies, reads, stores, merges, steps))
                    steps += nodes
                push(v)
                continue
            if op == ENTER:
                frames.append((code, pc, binding, key))
                code, pc, key = ins[1], 0, ins[2]
                continue
            if op == RET and not frames:
                return stack[-1], (applies, reads, stores, merges, steps)
            if steps >= limit:
                raise over((applies, reads, stores, merges, steps))
            steps += 1
            if op == RET:
                if cache is not None:
                    stores += 1
                    cache[key] = stack[-1]
                    if emit is not None:
                        emit(steps, STORE, -1)
                code, pc, binding, key = frames.pop()
                continue
            if ins[2] == 1:
                args = (stack.pop(),)
            else:
                n = len(stack) - ins[2]
                args = tuple(stack[n:])
                del stack[n:]
            if op == CON:
                merges += 1
                push(build(ins[1], args))
                if emit is not None:
                    emit(steps, MERGE, -1)
                continue
            call = None
            if cache is not None:
                call = (ins[1], args)
                hit = cache.get(call)
                if hit is not None:
                    reads += 1
                    push(hit)
                    if emit is not None:
                        emit(steps, READ, -1)
                    continue
            rule, found = match(ins[1], args)
            applies += 1
            frames.append((code, pc, binding, key))
            code, body_weight = bodies[rule]
            pc, binding, key = 0, found, call
            if emit is not None:
                emit(steps, APPLY, body_weight)
    except StuckError:
        if load is not None:
            # a naive inference counts a symbol when evaluation reaches it
            # and a firing when it happens, the loop when each completes:
            # add the symbols reached and the bodies entered but not left
            # before choosing between stuck and over budget
            reached = len(frames) + _ancestors(code, pc - 1)
            reached += sum(_ancestors(c, p - 1) for c, p, _, _ in frames)
            if steps + reached > limit:
                raise over((applies, reads, stores, merges, steps)) from None
        raise
