"""Independent reference for checking what memotrs prints.

Nothing here imports memotrs. Program text is read by its own small parser,
values are hash-consed (one integer id per distinct constructor node, so
equal values are equal ids), and operation calls are memoized on those ids.
From one evaluation it gives what every engine must print:

- the value, rendered the way `memotrs run` renders it;
- m, the number of distinct operation calls on values (what the memo and
  shared engines count), and the naive engine's rewrite count (every call
  occurrence, re-derived each time);
- the DAG node count and the unfolded tree size of the value.

Evaluation uses an explicit stack, so long inputs do not hit the recursion
limit.
"""

from __future__ import annotations

import re
from typing import Optional

OVERFLOW_LIMIT = 2**63

_TOKEN_RE = re.compile(
    r"(?P<skip>[ \t\r\n]+|#[^\n]*)|(?P<arrow>->)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<nat>[0-9]+)|(?P<punct>[(),;:/^{}])"
)


class RefError(Exception):
    """Program text or a call the reference cannot handle."""


def _tokens(text: str) -> list[str]:
    out: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RefError(f"bad character {text[pos]!r} at {pos}")
        if m.lastgroup != "skip":
            out.append(m.group())
        pos = m.end()
    out.append("")
    return out


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos]

    def take(self, want: Optional[str] = None) -> str:
        tok = self.toks[self.pos]
        if want is not None and tok != want:
            raise RefError(f"expected {want!r}, found {tok!r}")
        self.pos += 1
        return tok

    def decls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        if self.peek() == ";":
            self.take()
            return out
        while True:
            name = self.take()
            self.take("/")
            out[name] = int(self.take())
            if self.take() == ";":
                return out

    def term(self, symbols: dict[str, int]):
        """A term as ("var", name) or (sym, args); sym^k(t) expands."""
        name = self.take()
        power = None
        if self.peek() == "^":
            self.take()
            power = int(self.take())
        args: list = []
        if self.peek() == "(":
            self.take()
            if self.peek() != ")":
                args.append(self.term(symbols))
                while self.peek() == ",":
                    self.take()
                    args.append(self.term(symbols))
            self.take(")")
        if power is not None:
            t = args[0]
            for _ in range(power):
                t = (name, (t,))
            return t
        if name not in symbols:
            if args:
                raise RefError(f"undeclared symbol {name}")
            return ("var", name)
        return (name, tuple(args))


class RefProgram:
    """A parsed rewrite program: signature plus rules grouped by operation."""

    def __init__(self, text: str):
        r = _Reader(text)
        r.take("constructors")
        r.take(":")
        self.constructors = r.decls()
        r.take("operations")
        r.take(":")
        self.operations = r.decls()
        r.take("rules")
        r.take(":")
        symbols = {**self.constructors, **self.operations}
        self.rules: dict[str, list] = {}
        while r.peek() != "":
            lhs = r.term(symbols)
            r.take("->")
            rhs = r.term(symbols)
            r.take(";")
            self.rules.setdefault(lhs[0], []).append(
                (lhs[1], self._postfix(rhs))
            )

    def _postfix(self, t) -> tuple:
        """Right-hand side as postfix code: ("v", name), ("c", sym, k), ("f", sym, k)."""
        code: list = []
        stack = [(t, False)]
        while stack:
            node, done = stack.pop()
            if node[0] == "var":
                code.append(("v", node[1]))
            elif done:
                tag = "c" if node[0] in self.constructors else "f"
                code.append((tag, node[0], len(node[1])))
            else:
                stack.append((node, True))
                stack.extend((a, False) for a in reversed(node[1]))
        return tuple(code)


class Store:
    """Hash-consed constructor nodes; a node's children have smaller ids."""

    def __init__(self):
        self.syms: list[str] = []
        self.kids: list[tuple[int, ...]] = []
        self.index: dict[tuple[str, tuple[int, ...]], int] = {}

    def node(self, sym: str, kids: tuple[int, ...] = ()) -> int:
        key = (sym, kids)
        v = self.index.get(key)
        if v is None:
            v = len(self.syms)
            self.syms.append(sym)
            self.kids.append(kids)
            self.index[key] = v
        return v

    def value(self, spec) -> int:
        """A value from its job encoding: [sym, *args] or ["^", sym, k, inner]."""
        if spec[0] == "^":
            _, sym, k, inner = spec
            v = self.value(inner)
            for _ in range(k):
                v = self.node(sym, (v,))
            return v
        return self.node(spec[0], tuple(self.value(a) for a in spec[1:]))

    def reachable(self, root: int) -> set[int]:
        seen: set[int] = set()
        stack = [root]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self.kids[v])
        return seen

    def dag_nodes(self, root: int) -> int:
        return len(self.reachable(root))

    def unfolded_size(self, root: int):
        size: dict[int, int] = {}
        for v in sorted(self.reachable(root)):
            size[v] = 1 + sum(size[k] for k in self.kids[v])
        n = size[root]
        return n if n < OVERFLOW_LIMIT else "overflow"

    def render(self, root: int, max_depth: int) -> str:
        """The value as `memotrs run` prints it: below max_depth subterms
        show as '...', and unary chains of length >= 3 as sym^N(inner)."""
        memo: dict[tuple[int, int], str] = {}

        def go(v: int, depth: int) -> str:
            if depth > max_depth:
                return "..."
            key = (v, depth)
            hit = memo.get(key)
            if hit is not None:
                return hit
            sym, kids = self.syms[v], self.kids[v]
            if len(kids) == 1:
                run, inner = 0, v
                while len(self.kids[inner]) == 1 and self.syms[inner] == sym:
                    run += 1
                    inner = self.kids[inner][0]
                if run >= 3:
                    out = f"{sym}^{run}(" + go(inner, depth + 1) + ")"
                    memo[key] = out
                    return out
            if not kids:
                out = sym
            else:
                out = sym + "(" + ", ".join(go(k, depth + 1) for k in kids) + ")"
            memo[key] = out
            return out

        return go(root, 0)


class Evaluator:
    """Memoized call-by-value evaluation of one program over a Store."""

    def __init__(self, program: RefProgram, store: Store):
        self.program = program
        self.store = store
        self.result: dict[tuple, int] = {}
        # every call occurrence met while evaluating a call's right-hand side
        self.callees: dict[tuple, list[tuple]] = {}

    def _match(self, pat, v: int, binding: dict[str, int]) -> bool:
        if pat[0] == "var":
            binding[pat[1]] = v
            return True
        st = self.store
        if st.syms[v] != pat[0] or len(st.kids[v]) != len(pat[1]):
            return False
        return all(self._match(p, k, binding) for p, k in zip(pat[1], st.kids[v]))

    def _frame(self, key: tuple) -> list:
        op, args = key
        for pats, code in self.program.rules.get(op, ()):
            binding: dict[str, int] = {}
            if len(pats) == len(args) and all(
                self._match(p, a, binding) for p, a in zip(pats, args)
            ):
                return [key, code, 0, [], binding, []]
        raise RefError(f"no rule matches a call of {op}")

    def call(self, op: str, args: tuple[int, ...]) -> int:
        key = (op, args)
        if key in self.result:
            return self.result[key]
        st = self.store
        stack = [self._frame(key)]
        returned: Optional[int] = None
        while stack:
            fr = stack[-1]
            code, vals, binding, callees = fr[1], fr[3], fr[4], fr[5]
            if returned is not None:
                vals.append(returned)
                returned = None
            pc = fr[2]
            pushed = False
            while pc < len(code):
                ins = code[pc]
                pc += 1
                if ins[0] == "v":
                    vals.append(binding[ins[1]])
                    continue
                k = ins[2]
                kids = tuple(vals[len(vals) - k:])
                del vals[len(vals) - k:]
                if ins[0] == "c":
                    vals.append(st.node(ins[1], kids))
                    continue
                ckey = (ins[1], kids)
                callees.append(ckey)
                hit = self.result.get(ckey)
                if hit is not None:
                    vals.append(hit)
                    continue
                fr[2] = pc
                stack.append(self._frame(ckey))
                pushed = True
                break
            if pushed:
                continue
            stack.pop()
            self.result[fr[0]] = vals[0]
            self.callees[fr[0]] = callees
            returned = vals[0]
        return self.result[key]

    def m(self, op: str, args: tuple[int, ...]) -> int:
        """Distinct calls reached from this call, itself included."""
        seen = {(op, args)}
        stack = [(op, args)]
        while stack:
            for c in self.callees[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return len(seen)

    def m_naive(self, op: str, args: tuple[int, ...]) -> int:
        """Rule firings without a cache: every call occurrence fires again."""
        count: dict[tuple, int] = {}
        stack = [((op, args), False)]
        while stack:
            key, done = stack.pop()
            if key in count:
                continue
            if done:
                count[key] = 1 + sum(count[c] for c in self.callees[key])
            else:
                stack.append((key, True))
                stack.extend((c, False) for c in self.callees[key] if c not in count)
        return count[(op, args)]


def render_spec(spec) -> str:
    """A job value encoding in the concrete syntax memotrs parses."""
    if spec[0] == "^":
        _, sym, k, inner = spec
        return f"{sym}^{k}({render_spec(inner)})"
    if len(spec) == 1:
        return spec[0]
    return spec[0] + "(" + ", ".join(render_spec(a) for a in spec[1:]) + ")"


def suc(n: int) -> list:
    return ["^", "suc", n, ["zero"]]


# --------------------------------------------------------------- GRSR side

_DEF_RE = re.compile(r"^def\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?::([^=]*))?=", re.M)
_TIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*@(\d+)")
_SIG_RE = re.compile(r"\([0-9, ]*\) -> [0-9]+")


def grsr_defs(text: str) -> list[tuple[str, Optional[str]]]:
    """(name, tier signature as memotrs prints it, or None) for each def."""
    out = []
    for m in _DEF_RE.finditer(text):
        ann = m.group(2)
        sig = None
        if ann is not None:
            ins_text, out_text = ann.split("->")
            ins = [int(t) for t in _TIER_RE.findall(ins_text)]
            sig = "(" + ", ".join(map(str, ins)) + ") -> " + _TIER_RE.findall(out_text)[0]
        out.append((m.group(1), sig))
    return out


def check_tier_output(text: str, grsr_text: str, tierable: dict[str, Optional[str]],
                      tmax: Optional[int]) -> Optional[str]:
    """None if `memotrs tier` output fits the known tier signatures, else why.

    tierable maps each def to a signature it must admit, or None when the
    def admits none. An annotated def must be accepted (or rejected when it
    admits none); an unannotated one must list its known signature."""
    lines = text.splitlines()
    defs = grsr_defs(grsr_text)
    if len(lines) != len(defs):
        return f"{len(lines)} lines for {len(defs)} defs"
    for line, (name, sig) in zip(lines, defs):
        want = tierable[name]
        if not line.startswith(name + ": "):
            return f"line {line!r} is not about {name}"
        rest = line[len(name) + 2:]
        if sig is not None:
            verdict = f"accepted {sig}" if want is not None else f"rejected {sig}:"
            if not rest.startswith(verdict):
                return f"{name}: expected {verdict!r}, got {rest!r}"
            continue
        if want is None:
            if not rest.startswith("no signatures up to tier"):
                return f"{name}: expected no signatures, got {rest!r}"
            continue
        head, _, listed = rest.partition(": ")
        if not head.startswith("signatures up to tier"):
            return f"{name}: expected a signature list, got {rest!r}"
        if tmax is not None and head != f"signatures up to tier {tmax}":
            return f"{name}: tier bound {head!r} ignores --tmax {tmax}"
        if want not in _SIG_RE.findall(listed):
            return f"{name}: {want} missing from {listed!r}"
    return None


def check_compiled(text: str, entry: str, counterpart: Optional[RefProgram],
                   counterpart_op: str, inputs: list, constant=None) -> Optional[str]:
    """None if the compiled program's entry computes what the counterpart
    program's operation computes on every input, else why."""
    first = text.splitlines()[0] if text else ""
    if first != f"# entry: {entry}":
        return f"first line {first!r}, expected '# entry: {entry}'"
    compiled = RefProgram(text)
    if entry not in compiled.operations:
        return f"entry {entry} is not an operation"
    st = Store()
    got_ev = Evaluator(compiled, st)
    want_ev = Evaluator(counterpart, st) if counterpart is not None else None
    for arg_specs in inputs:
        args = tuple(st.value(a) for a in arg_specs)
        got = got_ev.call(entry, args)
        want = st.value(constant) if want_ev is None else want_ev.call(counterpart_op, args)
        if got != want:
            return f"{entry}{arg_specs} differs from the counterpart"
    return None
