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

A token keeps its offset into the text. Its line and column are worked out
from that offset, in time linear in it, so only error messages read them.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import MemotrsError, ParseError
from .heap import Heap
from .terms import (
    App, Program, Rule, Signature, Term, Var, fresh_names, rename, term_view, vars_of
)

_TOKEN_RE = re.compile(
    r"[ \t\r\n]+|#[^\n]*"  # whitespace and comments, skipped
    r"|(?P<arrow>->)"
    r"|(?P<darrow>=>)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<nat>[0-9]+)"
    r"|(?P<punct>[(),;:/^{}\[\]@=*])"
    r"|(?P<bad>.)"
)

# most nodes the sym^N shorthands of one term may expand to (~100 MB of App)
MAX_POWER_NODES = 10**6
# most digits of a number in a term, program or GRSR file
MAX_NAT_DIGITS = 18
# longest text format_term returns; a longer one is refused before it is built
MAX_TEXT_CHARS = 10**7


class Token:
    __slots__ = ("kind", "text", "pos", "src")

    def __init__(self, kind: str, text: str, pos: int, src: str):
        self.kind = kind
        self.text = text
        self.pos = pos
        self.src = src

    line = property(lambda tok: tok.src.count("\n", 0, tok.pos) + 1)
    col = property(lambda tok: tok.pos - tok.src.rfind("\n", 0, tok.pos))

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is not None:
            tok = Token(kind, m.group(), m.start(), text)
            if kind == "bad":
                raise ParseError(f"unexpected character {tok.text!r}", tok.line, tok.col)
            tokens.append(tok)
    tokens.append(Token("eof", "", len(text), text))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_name(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == text

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else "end of input"
            raise ParseError(f"expected {want!r}, found {got!r}", tok.line, tok.col)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)


def read_nat(ts: TokenStream) -> int:
    """The next number. Its digits are counted before int(), which is slow
    on long digit strings and refuses them past 4,300 digits."""
    tok = ts.expect("nat")
    digits = tok.text.lstrip("0") or "0"
    if len(digits) > MAX_NAT_DIGITS:
        shown = digits if len(digits) <= 20 else digits[:20] + "..."
        raise ParseError(
            f"number {shown} has more than {MAX_NAT_DIGITS} digits", tok.line, tok.col
        )
    return int(digits)


def parse_term_tokens(ts: TokenStream, sig: Signature, allow_vars: bool) -> Term:
    """Parse one term over sig; with allow_vars an undeclared nullary name
    is a variable. Iterative, so deeply nested input cannot overflow."""

    def make(sym: str, args: tuple[Term, ...], tok: Token) -> Term:
        ar = sig.constructors.get(sym, sig.operations.get(sym))
        if ar is None:
            if not args and allow_vars:
                return Var(sym)
            raise ParseError(f"undeclared symbol: {sym}", tok.line, tok.col)
        if ar != len(args):
            raise ParseError(
                f"{sym} declared with arity {ar}, applied to {len(args)}",
                tok.line,
                tok.col,
            )
        return App(sym, args)

    result: Optional[Term] = None
    frames: list[list] = []  # [sym, power, args, name token]
    room = MAX_POWER_NODES  # nodes the powers read so far leave to expand
    while True:
        if result is None:
            tok = ts.expect("name")
            sym = tok.text
            power: Optional[int] = None
            if ts.at_punct("^"):
                ts.next()
                power = read_nat(ts)
                if power > room:
                    raise ParseError(
                        f"{sym}^{power} would expand the term beyond "
                        f"{MAX_POWER_NODES} nodes",
                        tok.line,
                        tok.col,
                    )
                room -= power
            if ts.at_punct("("):
                ts.next()
                if ts.at_punct(")"):
                    ts.next()
                    if power is not None:
                        raise ParseError(
                            f"{sym}^{power} needs one argument", tok.line, tok.col
                        )
                    result = make(sym, (), tok)
                else:
                    frames.append([sym, power, [], tok])
                    continue
            else:
                if power is not None:
                    raise ParseError(
                        f"{sym}^{power} needs a parenthesized argument",
                        tok.line,
                        tok.col,
                    )
                result = make(sym, (), tok)
        if not frames:
            return result
        frame = frames[-1]
        if ts.at_punct(","):
            ts.next()
            frame[2].append(result)
            result = None
            continue
        ts.expect("punct", ")")
        frame[2].append(result)
        frames.pop()
        sym, power, args, tok = frame
        if power is not None:
            if len(args) != 1:
                raise ParseError(f"{sym}^{power} takes one argument", tok.line, tok.col)
            probe = make(sym, (args[0],), tok)  # arity check on the repeated symbol
            result = probe if power else args[0]
            for _ in range(power - 1):
                result = App(sym, (result,))
        else:
            result = make(sym, tuple(args), tok)


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a standalone ground term, validating its symbols against sig."""
    ts = TokenStream(tokenize(text))
    t = parse_term_tokens(ts, sig, False)
    ts.expect("eof")
    return t


def _parse_decls(ts: TokenStream) -> dict[str, int]:
    decls: dict[str, int] = {}
    if ts.at_punct(";"):
        ts.next()
        return decls
    while True:
        tok = ts.expect("name")
        ts.expect("punct", "/")
        ar = read_nat(ts)
        if tok.text in decls:
            raise ParseError(f"duplicate declaration of {tok.text}", tok.line, tok.col)
        decls[tok.text] = ar
        if ts.at_punct(","):
            ts.next()
            continue
        ts.expect("punct", ";")
        return decls


def parse_program_loose(text: str) -> tuple[Signature, list[Rule]]:
    """Parse a program file without the whole-program validity checks.

    Symbols and applied arities are still checked during term parsing; rule
    shape, linearity, and ambiguity are not. Used by diagnostics."""
    ts = TokenStream(tokenize(text))
    ts.expect("name", "constructors")
    ts.expect("punct", ":")
    constructors = _parse_decls(ts)
    ts.expect("name", "operations")
    ts.expect("punct", ":")
    operations = _parse_decls(ts)
    sig = Signature(constructors, operations)
    ts.expect("name", "rules")
    ts.expect("punct", ":")
    rules: list[Rule] = []
    while ts.peek().kind != "eof":
        lhs_tok = ts.peek()
        lhs = parse_term_tokens(ts, sig, allow_vars=True)
        ts.expect("arrow")
        rhs = parse_term_tokens(ts, sig, allow_vars=True)
        ts.expect("punct", ";")
        if not isinstance(lhs, App):
            raise ParseError("left-hand side must be an operation call",
                             lhs_tok.line, lhs_tok.col)
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
        names = vars_of(rule.lhs)
        fresh = fresh_names(names & declared, declared | names)
        lhs, rhs = rename(rule.lhs, {}, fresh), rename(rule.rhs, {}, fresh)
        lines.append(f"  {format_term(lhs)} -> {format_term(rhs)};")
    return "\n".join(lines) + "\n"
