"""Concrete syntax: program files, terms on the command line, and formatting.

Program files have three sections, in order:

    constructors: zero/0, suc/1;
    operations: add/2;
    rules:
      add(zero, y) -> y;
      add(suc(x), y) -> suc(add(x, y));

Identifiers not declared in the signature are variables (rules only).
`suc^5(zero)` abbreviates five nested applications of a unary symbol and is
accepted anywhere a term is. `#` starts a line comment.

Tokens are the texts one regex pass finds, and a token's kind follows
from its text. A position is worked out only for an error, by scanning the
text again up to the token the error names, so a parse that succeeds reads
none.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Optional

from .core import CALL, CON, RET, VAL
from .errors import MemotrsError, ParseError
from .heap import Heap
from .terms import (
    App, Program, Rule, Signature, Term, Var, fresh_names, rename, term_view, vars_of
)

# whitespace and comments match without the group, so findall yields ""
# for them; any other character is a token of its own, refused by tokenize
_TOKEN_RE = re.compile(
    r"[ \t\r\n]+|#[^\n]*"
    r"|(->|=>|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[(),;:/^{}\[\]@=*]|.)"
)
_SIGNS = frozenset(["->", "=>", *"(),;:/^{}[]@=*"])

# most nodes the sym^N shorthands of one term may expand to (~100 MB of App)
MAX_POWER_NODES = 10**6
# most digits of a number in a term, program or GRSR file
MAX_NAT_DIGITS = 18
# longest text format_term returns; a longer one is refused before it is built
MAX_TEXT_CHARS = 10**7


def tokenize(text: str) -> list[str]:
    """The token texts of text, in order. A character that starts no token
    is refused, the first one in the text, before any parse error."""
    tokens = list(filter(None, _TOKEN_RE.findall(text)))
    # past the signs, a token is a name or a number, or a refused character
    bad = [
        tok for tok in set(tokens).difference(_SIGNS)
        if not (tok.isascii() and (tok.isidentifier() or tok.isdigit()))
    ]
    if bad:
        i = min(map(tokens.index, bad))
        raise ParseError(f"unexpected character {tokens[i]!r}", *token_position(text, i))
    return tokens


def token_position(text: str, index: int) -> tuple[int, int]:
    """Line and column of the token at index in text's tokens, or of the end
    of text past the last one; found by tokenizing text again up to it."""
    starts = (m.start() for m in _TOKEN_RE.finditer(text) if m.lastindex)
    offset = next(islice(starts, index, None), len(text))
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class TokenStream:
    """The tokens of a text, then "" for its end, and the index of the next."""

    __slots__ = ("text", "tokens", "pos")

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.tokens.append("")
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def accept(self, text: str) -> bool:
        """Whether the next token is text, stepping over it if so."""
        if self.tokens[self.pos] != text:
            return False
        self.pos += 1
        return True

    def expect(self, text: str, want: Optional[str] = None) -> None:
        """Step over the token text, or refuse what is there instead, as
        not want (by default text itself)."""
        if self.tokens[self.pos] != text:
            raise self.expected(text if want is None else want)
        self.pos += 1

    def name(self) -> str:
        tok = self.tokens[self.pos]
        if not tok.isidentifier():
            raise self.expected("name")
        self.pos += 1
        return tok

    def expected(self, want: str) -> ParseError:
        got = self.tokens[self.pos] or "end of input"
        return self.error(f"expected {want!r}, found {got!r}")

    def error(self, message: str, index: Optional[int] = None) -> ParseError:
        """message at the token at index, by default the next one."""
        at = self.pos if index is None else index
        return ParseError(message, *token_position(self.text, at))


def read_nat(ts: TokenStream) -> int:
    """The next number. Its digits are counted before int(), which is slow
    on long digit strings and refuses them past 4,300 digits."""
    at = ts.pos
    tok = ts.tokens[at]
    if not tok.isdigit():
        raise ts.expected("nat")
    ts.pos = at + 1
    digits = tok.lstrip("0") or "0"
    if len(digits) > MAX_NAT_DIGITS:
        shown = digits if len(digits) <= 20 else digits[:20] + "..."
        raise ts.error(f"number {shown} has more than {MAX_NAT_DIGITS} digits", at)
    return int(digits)


def _read_term(ts: TokenStream, arity: dict[str, int], allow_vars: bool) -> list:
    """The symbols of one term over a symbol -> arity map in reading order,
    a name or (name, N) for name^N, each checked as its token is read; with
    allow_vars an undeclared nullary name is a variable. Iterative, so deep
    input cannot overflow. ts.pos is set where the term ends or fails."""
    tokens = ts.tokens
    i = ts.pos
    syms: list = []
    frames: list[list] = []  # [sym, power, arguments read, index of sym]
    room = MAX_POWER_NODES  # nodes the powers read so far leave to expand
    while True:
        sym = tokens[i]
        if not sym.isidentifier():
            ts.pos = i
            raise ts.expected("name")
        at = i
        i += 1
        power: Optional[int] = None
        if tokens[i] == "^":
            ts.pos = i + 1
            power = read_nat(ts)
            i = ts.pos
            if power > room:
                msg = f"{sym}^{power} would expand the term beyond {MAX_POWER_NODES} nodes"
                raise ts.error(msg, at)
            room -= power
        if tokens[i] == "(":
            i += 1
            if tokens[i] != ")":
                frames.append([sym, power, 0, at])
                syms.append(sym if power is None else (sym, power))
                continue
            i += 1
            if power is not None:
                raise ts.error(f"{sym}^{power} needs one argument", at)
        elif power is not None:
            raise ts.error(f"{sym}^{power} needs a parenthesized argument", at)
        ar = arity.get(sym)
        if ar != 0 and not (ar is None and allow_vars):
            raise _misapplied(ts, sym, ar, 0, at)
        syms.append(sym)
        while frames:  # close the applications this argument ends
            frame = frames[-1]
            frame[2] += 1
            tok = tokens[i]
            if tok == ",":
                i += 1
                break
            if tok != ")":
                ts.pos = i
                raise ts.expected(")")
            i += 1
            frames.pop()
            sym, power, n, at = frame
            if power is not None and n != 1:
                raise ts.error(f"{sym}^{power} takes one argument", at)
            if arity.get(sym) != n:
                raise _misapplied(ts, sym, arity.get(sym), n, at)
        else:
            ts.pos = i
            return syms


def _misapplied(ts: TokenStream, sym: str, ar: Optional[int], n: int, at: int) -> ParseError:
    """The error for sym, of arity ar (None: undeclared), applied to n arguments."""
    wrong = f"{sym} declared with arity {ar}, applied to {n}"
    return ts.error(f"undeclared symbol: {sym}" if ar is None else wrong, at)


def parse_term_tokens(ts: TokenStream, arity: dict[str, int], allow_vars: bool) -> Term:
    """Parse one term over a signature's symbol -> arity map; with
    allow_vars an undeclared nullary name is a variable. The symbols
    _read_term gives are built from the last: each finds its arguments on
    a stack, the first on top."""
    stack: list[Term] = []
    push = stack.append
    for sym in _read_term(ts, arity, allow_vars)[::-1]:
        k = arity.get(sym, -1) if type(sym) is str else -2  # -1: a variable, -2: a power
        if k == 0:
            push(App(sym, ()))
        elif k == -1:
            push(Var(sym))
        elif k == 1:
            stack[-1] = App(sym, (stack[-1],))
        elif k == 2:
            push(App(sym, (stack.pop(), stack.pop())))
        elif k == -2:
            sym, power = sym
            t = stack[-1]
            for _ in range(power):
                t = App(sym, (t,))
            stack[-1] = t
        else:
            args = stack[len(stack) - k :]
            del stack[len(stack) - k :]
            args.reverse()
            push(App(sym, tuple(args)))
    return stack[0]


def load_term(text: str, sig: Signature, heap: Optional[Heap] = None) -> tuple:
    """compile_term's code for parse_term(text, sig), with heap if given,
    or parse_term's error, without building the term. Values are built
    children first, last argument first: the reverse of reading order, in
    which the symbols are taken. A constructor over values is a value, as
    is name^N over one: heap locations, name^N merged by one
    Heap.merge_run, or without a heap the Apps parse_term builds. Anything
    else is code: nested lists of instructions, values and arguments'
    code, flattened last."""
    ts = TokenStream(text)
    cons = sig.constructors
    arity = {**cons, **sig.operations}
    syms = _read_term(ts, arity, False)
    if ts.peek():
        raise ts.expected("eof")
    build = App if heap is None else heap.merge
    stack: list = []
    for sym in reversed(syms):
        if type(sym) is tuple:
            sym, power = sym
            a = stack[-1]
            if type(a) is list or sym not in cons:
                stack[-1] = [a, *[(CON if sym in cons else CALL, sym, 1)] * power]
            elif heap is None:
                for _ in range(power):
                    a = App(sym, (a,))
                stack[-1] = a
            elif power:
                stack[-1] = heap.merge_run([sym] * power, a)[-1]
            continue
        k = arity[sym]
        args = stack[len(stack) - k :][::-1]
        del stack[len(stack) - k :]
        if sym in cons and list not in map(type, args):
            stack.append(build(sym, tuple(args)))
        else:
            stack.append([*args, (CON if sym in cons else CALL, sym, k)])
    code: list = []
    while stack:
        ins = stack.pop()
        if type(ins) is list:
            stack += reversed(ins)
        else:
            code.append(ins if type(ins) is tuple else (VAL, ins, None))
    return (*code, (RET, None, None))


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a standalone ground term, validating its symbols against sig."""
    ts = TokenStream(text)
    t = parse_term_tokens(ts, {**sig.constructors, **sig.operations}, False)
    if ts.peek():
        raise ts.expected("eof")
    return t


def _parse_decls(ts: TokenStream) -> dict[str, int]:
    decls: dict[str, int] = {}
    if ts.accept(";"):
        return decls
    while True:
        at = ts.pos
        name = ts.name()
        ts.expect("/")
        ar = read_nat(ts)
        if name in decls:
            raise ts.error(f"duplicate declaration of {name}", at)
        decls[name] = ar
        if ts.accept(","):
            continue
        ts.expect(";")
        return decls


def parse_program_loose(text: str) -> tuple[Signature, list[Rule]]:
    """Parse a program file without the whole-program validity checks.

    Symbols and applied arities are still checked during term parsing; rule
    shape, linearity, and ambiguity are not. Used by diagnostics."""
    ts = TokenStream(text)
    ts.expect("constructors")
    ts.expect(":")
    constructors = _parse_decls(ts)
    ts.expect("operations")
    ts.expect(":")
    operations = _parse_decls(ts)
    sig = Signature(constructors, operations)
    arity = {**constructors, **operations}
    ts.expect("rules")
    ts.expect(":")
    rules: list[Rule] = []
    while ts.peek():
        at = ts.pos
        lhs = parse_term_tokens(ts, arity, allow_vars=True)
        ts.expect("->", "arrow")
        rhs = parse_term_tokens(ts, arity, allow_vars=True)
        ts.expect(";")
        if not isinstance(lhs, App):
            raise ts.error("left-hand side must be an operation call", at)
        rules.append(Rule(lhs, rhs))
    return sig, rules


def parse_program(text: str) -> Program:
    """Parse and validate a program file."""
    sig, rules = parse_program_loose(text)
    return Program(sig, rules)


def format_term(
    t: Term | int,
    max_depth: Optional[int] = None,
    compress: bool = False,
    heap: Optional[Heap] = None,
) -> str:
    """Render a term, or with heap given the tree that heap location t
    denotes, without unfolding it; beyond max_depth subterms print as '...'.

    With compress=True, unary chains of length >= 3 print as sym^N(inner).

    A node met again at the same depth (at any depth when there is no cap)
    pastes its text instead of being walked again; a node is a term object,
    keyed by its id, or a heap location, keyed by itself. The first meeting
    walks as usual, the second records the text its walk produces, and later
    meetings paste it. Only meetings outside a recording count, so
    recordings never nest: the recorded texts are disjoint pieces of the
    output, and no position of the printed tree is walked twice. A shared
    answer thus costs about two walks per distinct node and depth, plus the
    length of its text.

    A text longer than MAX_TEXT_CHARS raises MemotrsError, counting pasted
    texts as they are pasted, before the whole text is held in memory.
    """
    if heap is None:
        view, ident = term_view, id
    else:
        heap.entry(t)  # children of a known location are known
        view, ident = heap.entries.__getitem__, int
    if max_depth is None:
        cap, step = 0, 0  # every node sits at depth 0, keyed by its ident alone
    else:
        cap, step = max_depth, 1
    stride = cap + 1
    parts: list[str] = []
    emit = parts.append
    # ident(node) * stride + depth -> 1 after the first meeting, then the
    # node's text; every term object is reachable from t, so no id is reused
    # in the call
    texts: dict[int, object] = {}
    recording = False  # a recording walk is under way
    pasted = 0  # characters pasted so far
    stack: list = [(t, 0)]
    push, pop = stack.append, stack.pop
    while stack:
        item = pop()
        if type(item) is str:
            emit(item)
            continue
        node, depth = item
        if node is None:  # (None, (key, start)): the text of key is complete
            key, start = depth
            texts[key] = text = "".join(parts[start:])
            del parts[start:]
            emit(text)
            recording = False
            continue
        if depth > cap:
            emit("...")
            continue
        if type(node) is Var:
            emit(node.name)
            continue
        sym, args = view(node)
        if not args:
            emit(sym)
            continue
        key = ident(node) * stride + depth
        met = texts.get(key)
        if type(met) is str:
            pasted += len(met)
            if pasted > MAX_TEXT_CHARS:
                raise _too_long()
            emit(met)
            continue
        if not recording:  # inside one, a meeting is walked but not counted
            if met is None:
                texts[key] = 1
            else:
                push((None, (key, len(parts))))
                recording = True
        depth += step
        if compress and len(args) == 1:
            run = 1
            inner = args[0]
            while type(inner) is not Var:
                inner_sym, inner_args = view(inner)
                if inner_sym != sym or len(inner_args) != 1:
                    break
                run += 1
                inner = inner_args[0]
            if run >= 3:
                emit(f"{sym}^{run}(")
                push(")")
                push((inner, depth))
                continue
        emit(sym + "(")
        push(")")
        for a in args[:0:-1]:
            push((a, depth))
            push(", ")
        push((args[0], depth))
    text = "".join(parts)
    if len(text) > MAX_TEXT_CHARS:
        raise _too_long()
    return text


def _too_long() -> MemotrsError:
    return MemotrsError(f"the printed term would be longer than {MAX_TEXT_CHARS} characters")


def _format_decls(decls: dict[str, int]) -> str:
    return ", ".join(f"{name}/{ar}" for name, ar in decls.items())


def format_program(p: Program) -> str:
    """Canonical text for a program; parse_program inverts it, as a rule
    variable named like a declared symbol prints under a fresh name."""
    sig = p.signature
    lines = [
        f"constructors: {_format_decls(sig.constructors)};",
        f"operations: {_format_decls(sig.operations)};",
        "rules:",
    ]
    declared = {*sig.constructors, *sig.operations}
    for rule in p.rules:
        lhs, rhs = rule.lhs, rule.rhs
        names = vars_of(lhs)
        if not names.isdisjoint(declared):
            fresh = fresh_names(names & declared, declared | names)
            lhs, rhs = rename(lhs, {}, fresh), rename(rhs, {}, fresh)
        lines.append(f"  {format_term(lhs)} -> {format_term(rhs)};")
    return "\n".join(lines) + "\n"
