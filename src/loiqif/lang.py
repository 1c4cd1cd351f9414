"""A small imperative while-language and its observation semantics.

Grammar (C-like expression syntax, ``//`` comments)::

    program   := stmt*
    stmt      := 'skip' ';'
               | IDENT '=' expr ';'
               | 'if' '(' expr ')' stmt ('else' stmt)?
               | 'while' '(' expr ')' stmt
               | '{' stmt* '}'
    expr      := precedence-ordered binary/unary operators over
                 integer literals (decimal, 0x hex, leading-0 octal),
                 'true'/'false', and variables:
                 || && | ^ & (== !=) (< <= > >=) (<< >>) (+ -) (* / %)
                 and unary ! - ~

Values are integers (booleans are 1/0).  A variable declared in the
attacker configuration has a bit width; assignments to it wrap modulo
2^width (unsigned).  Undeclared variables are unbounded.  Every operator
has Python integer semantics, written once as an expression template
(``_BINARY_TEMPLATES``, ``_UNARY_TEMPLATES``).  Division or modulo by
zero, a negative shift count, a left shift by more than 2^20 and an
assignment whose wrapped value would need more than 2^20 bits are runtime
faults; a right shift by more than 2^20 shifts by 2^20.  Only those
operators and the wrap have a checked form (``_div``, ``_mod``, ``_shl``,
``_shr``, ``_wrap``); an operator uses its template instead when its right
operand is a literal that passes the check.  Operands are evaluated left
to right, and a run stops at its first fault or read before assignment:
nothing to the right of it is evaluated.  Both operands of ``&&``/``||``
are otherwise always evaluated, so a fault on the right stops a run
whatever the value on the left.  ``parse`` rejects syntax trees deeper
than ``MAX_DEPTH`` levels and constructs nested deeper than
``_MAX_NESTING`` allows.

Running a program on an initial store yields an ``Observable``: the
observed variables' final values on normal termination, a single
non-termination class when the step budget runs out, or a single
runtime-error class on a fault.  Each ``skip``, assignment and ``if``
takes one step before it evaluates anything; a ``while`` takes one on
entry and one after each run of its body.

Each program runs as one Python function (``_function``), written by
``_Writer`` and compiled once per program, input names, configuration,
counted loop and low count, then kept on the ``Program``, the one cache.
It takes each atom of a chunk through the whole program in locals, one
local per variable, with ``if`` and ``while`` as Python's own, inside
one ``try``: a fault or a spent budget stops that atom alone.  It writes
each atom's key, whose kernel is the program's partition, and the count
of a chosen loop.  A program that some run could take past the budget,
one with a ``while`` or with more ``skip``, assignment and ``if`` nodes
than the budget, counts steps in a local that is compared with the
budget before anything that can stop a run, on entering a loop, after
each pass of its body and at the end unless a loop ends the program; any
other program counts none.  A read that a definite-assignment pass
cannot prove assigned is checked for None.  An operator nested deeper
than ``_EXPRESSION_DEPTH`` and an ``if`` or ``while`` nested deeper than
``_STATEMENT_DEPTH`` are local functions that close over the enclosing
function's locals, so every tree ``parse`` accepts fits CPython's
nesting limits.  The source holds no literal: each is a parameter.
``eval_program`` and ``run_counting_loop`` are runs of one atom.  A read
of a variable not yet assigned is a ``ConfigError`` that names the
variable the lowest such atom read first.  Every run is bounded by the
configuration's ``step_budget``, the one place a budget is set.

``runs`` is the one place that runs a program on every input: it
enumerates the attacker-facing input atoms (values of the high variables
when the attacker fixes the lows; (low, high) pairs for an
eavesdropper), runs them ``CHUNK_SIZE`` at a time and yields two columns
per chunk: a key per atom, equal for two atoms exactly when the attacker
sees their runs alike, and the iteration count of a chosen loop, both as
the program's function writes them.  A key is the tuple of observed
values or the kind of a stopped run, paired with the low part of the
atom when the attacker sees enumerated lows go in.  ``loi`` interprets a
program as a partition of the secret space, the kernel of those keys —
atoms are indistinguishable exactly when the program output looks the
same.  It relabels the keys a chunk at a time, so only the distinct keys
outlive their chunk.  An ``Observable`` is built only for the one run of
``eval_program`` or ``run_counting_loop``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Mapping

from .partition import Domain, Partition, QifError, _Product, relabel


class ParseError(QifError):
    """Syntax error with position and the tokens that would have been accepted."""

    def __init__(self, message: str, line: int, col: int,
                 expected: tuple[str, ...] = ()):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.expected = expected


class ConfigError(QifError):
    """Attacker configuration or program/configuration mismatch."""


class EnumerationCapError(QifError):
    """The input space to enumerate exceeds the configured cap."""


# ---------------------------------------------------------------------------
# Abstract syntax

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = IntLit | BoolLit | Var | Unary | Binary


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expr


@dataclass(frozen=True)
class Seq:
    stmts: tuple["Stmt", ...]


@dataclass(frozen=True)
class If:
    cond: Expr
    then_branch: "Stmt"
    else_branch: "Stmt"


@dataclass(frozen=True)
class While:
    cond: Expr
    body: "Stmt"


Stmt = Skip | Assign | Seq | If | While


@dataclass(frozen=True)
class Program:
    body: Stmt
    # The program's compiled functions, made on first use (``_function``).
    functions: dict = field(default_factory=dict, init=False, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = frozenset({"skip", "if", "else", "while", "true", "false"})
_TWO_CHAR = frozenset({"==", "!=", "<=", ">=", "<<", ">>", "&&", "||"})
_ONE_CHAR = frozenset("+-*/%&|^~!<>=(){};")


@dataclass(frozen=True)
class _Token:
    kind: str   # "ident", "int", "eof", or the symbol/keyword text itself
    text: str
    line: int
    col: int
    value: int = 0


def _tokenize(source: str) -> list[_Token]:
    """The tokens of ``source``, each at the line and column where its text
    starts, then the end of input at the line and column just past it."""
    toks: list[_Token] = []
    line, line_start, i, n = 1, 0, 0, len(source)
    while i < n:
        c, j, kind, value = source[i], i + 1, None, 0
        col = i - line_start + 1
        if c == "\n":
            line, line_start = line + 1, j
        elif source.startswith("//", i):
            while j < n and source[j] != "\n":
                j += 1
        elif c.isalpha() or c == "_":
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            kind = source[i:j] if source[i:j] in _KEYWORDS else "ident"
        elif c.isdigit():
            while j < n and source[j].isalnum():
                j += 1
            kind, text = "int", source[i:j]
            base = (16 if text.lower().startswith("0x")
                    else 8 if text.startswith("0") and len(text) > 1 else 10)
            try:
                value = int(text, base)
            except ValueError:
                raise ParseError(f"bad integer literal '{text}'", line, col) from None
        elif source[i:i + 2] in _TWO_CHAR:
            kind, j = source[i:i + 2], i + 2
        elif c in _ONE_CHAR:
            kind = c
        elif c not in " \t\r":
            raise ParseError(f"unknown character {c!r}", line, col)
        if kind is not None:
            toks.append(_Token(kind, source[i:j], line, col, value))
        i = j
    toks.append(_Token("eof", "<end of input>", line, n - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser (recursive descent for statements, precedence climbing for
# binary operators)

_BINARY_LEVELS: tuple[tuple[str, ...], ...] = (
    ("||",), ("&&",), ("|",), ("^",), ("&",),
    ("==", "!="), ("<", "<=", ">", ">="), ("<<", ">>"),
    ("+", "-"), ("*", "/", "%"),
)
# Binding strength of each binary operator, 1 (loosest) to 10; unary
# operators bind tighter than all of them.
_PREC = {op: lvl + 1 for lvl, ops in enumerate(_BINARY_LEVELS) for op in ops}
_UNARY_PREC = len(_BINARY_LEVELS) + 1


# Deepest AST ``parse`` accepts.  Printing and self-composition recurse once
# per level, compiling and parsing the printed form at most twice, which
# stays well inside the interpreter's default recursion limit of 1000 frames.
MAX_DEPTH = 300
# The parser recurses once per open parenthesis (three frames), brace, if,
# while or else body, unary operator and pending right operand of a binary
# operator (one frame each).  ``_Parser.nesting`` counts those frames as it
# goes and stops at this bound, before ``MAX_DEPTH`` is checked on the
# finished tree: it leaves room for a caller 300 frames deep, so whether a
# program parses does not depend on the caller's stack.
_MAX_NESTING = 600


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0
        self.nesting = 0   # parser frames the open constructs hold

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def hold(self, frames: int, tok: _Token) -> None:
        """Count ``frames`` more parser frames held by the construct opened
        at ``tok``; its caller gives them back when the construct closes.
        Counted inline, not by a wrapper, which would hold frames itself."""
        self.nesting += frames
        if self.nesting > _MAX_NESTING:
            raise ParseError(
                f"constructs nest too deep: at most {_MAX_NESTING // 3} parentheses or "
                f"{_MAX_NESTING} braces, if, while or else bodies, unary operators or "
                "right operands may be open at once, a parenthesis counting as three "
                "of the others", tok.line, tok.col)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected '{kind}' but found '{tok.text}'",
                             tok.line, tok.col, expected=(kind,))
        return self.advance()

    def program(self) -> Program:
        stmts: list[Stmt] = []
        while self.peek().kind != "eof":
            self._append(stmts, self.statement())
        return Program(Seq(tuple(stmts)))

    @staticmethod
    def _append(stmts: list[Stmt], s: Stmt) -> None:
        # Brace blocks carry no scope; splicing them into the enclosing
        # list keeps statement sequences flat and printing stable.
        if isinstance(s, Seq):
            stmts.extend(s.stmts)
        else:
            stmts.append(s)

    def statement(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "skip":
            self.advance()
            self.expect(";")
            return Skip()
        if tok.kind == "ident":
            self.advance()
            self.expect("=")
            e = self.expression()
            self.expect(";")
            return Assign(tok.text, e)
        if tok.kind == "if":
            self.advance()
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            self.hold(1, tok)
            then_branch = self.statement()
            self.nesting -= 1
            else_branch: Stmt = Skip()
            if self.peek().kind == "else":
                self.hold(1, self.advance())
                else_branch = self.statement()
                self.nesting -= 1
            return If(cond, then_branch, else_branch)
        if tok.kind == "while":
            self.advance()
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            self.hold(1, tok)
            body = self.statement()
            self.nesting -= 1
            return While(cond, body)
        if tok.kind == "{":
            self.hold(1, self.advance())
            stmts: list[Stmt] = []
            while self.peek().kind != "}":
                if self.peek().kind == "eof":
                    raise ParseError("unterminated block: expected '}'",
                                     tok.line, tok.col, expected=("}",))
                self._append(stmts, self.statement())
            self.advance()
            self.nesting -= 1
            if not stmts:
                return Skip()
            return stmts[0] if len(stmts) == 1 else Seq(tuple(stmts))
        raise ParseError(
            f"expected a statement but found '{tok.text}'", tok.line, tok.col,
            expected=("skip", "if", "while", "{", "identifier"))

    def expression(self, min_prec: int = 1) -> Expr:
        """The longest expression whose binary operators all bind at least
        as tightly as ``min_prec``; operators of one tier associate left."""
        left = self.unary()
        while (prec := _PREC.get(self.peek().kind, 0)) >= min_prec:
            op = self.advance()
            self.hold(1, op)
            left = Binary(op.kind, left, self.expression(prec + 1))
            self.nesting -= 1
        return left

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("!", "-", "~"):
            self.hold(1, self.advance())
            operand = self.unary()
            self.nesting -= 1
            return Unary(tok.kind, operand)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(tok.value)
        if tok.kind == "true":
            self.advance()
            return BoolLit(True)
        if tok.kind == "false":
            self.advance()
            return BoolLit(False)
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        if tok.kind == "(":
            self.hold(3, self.advance())
            e = self.expression()
            self.expect(")")
            self.nesting -= 3
            return e
        raise ParseError(
            f"expected an expression but found '{tok.text}'", tok.line, tok.col,
            expected=("integer", "true", "false", "identifier", "("))


def parse(source: str) -> Program:
    parser = _Parser(_tokenize(source))
    try:
        program = parser.program()
    except RecursionError:
        tok = parser.peek()
        raise ParseError("nesting too deep for the parser", tok.line, tok.col) from None
    depth = max(d for _, d in _walk(program))
    if depth > MAX_DEPTH:
        raise ParseError(f"program nests {depth} levels deep; the limit is {MAX_DEPTH}",
                         1, 1)
    return program


# ---------------------------------------------------------------------------
# Source formatting (re-parseable; used when emitting composed programs)


def expr_to_source(e: Expr, parent: int = 0, right_operand: bool = False) -> str:
    if isinstance(e, IntLit):
        try:
            return str(e.value)
        except ValueError:   # past the int-string digit limit; hex has none
            return hex(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        inner = expr_to_source(e.operand, _UNARY_PREC)
        return f"{e.op}{inner}"
    level = _PREC[e.op]
    text = (f"{expr_to_source(e.left, level)} {e.op} "
            f"{expr_to_source(e.right, level, right_operand=True)}")
    if level < parent or (level == parent and right_operand):
        return f"({text})"
    return text


def _stmt_to_lines(s: Stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(s, Skip):
        return [pad + "skip;"]
    if isinstance(s, Assign):
        return [pad + f"{s.name} = {expr_to_source(s.expr)};"]
    if isinstance(s, Seq):
        out: list[str] = []
        for sub in s.stmts:
            out.extend(_stmt_to_lines(sub, indent))
        return out
    if isinstance(s, If):
        lines = [pad + f"if ({expr_to_source(s.cond)}) {{"]
        lines.extend(_stmt_to_lines(s.then_branch, indent + 1))
        if isinstance(s.else_branch, Skip):
            lines.append(pad + "}")
        else:
            lines.append(pad + "} else {")
            lines.extend(_stmt_to_lines(s.else_branch, indent + 1))
            lines.append(pad + "}")
        return lines
    if isinstance(s, While):
        lines = [pad + f"while ({expr_to_source(s.cond)}) {{"]
        lines.extend(_stmt_to_lines(s.body, indent + 1))
        lines.append(pad + "}")
        return lines
    raise TypeError(f"not a statement: {s!r}")


def program_to_source(p: Program) -> str:
    return "\n".join(_stmt_to_lines(p.body, 0)) + "\n"


# ---------------------------------------------------------------------------
# AST shape and variable census

# The AST's shape, stated once: the fields of each node class that hold
# sub-nodes, in source order.  ``Seq.stmts`` holds a tuple of them; every
# other field holds one.  ``_children`` (so ``_walk``, the census and
# ``parse``'s depth check) and ``map_nodes`` read it.
_SUB_NODE_FIELDS: dict[type, tuple[str, ...]] = {
    IntLit: (), BoolLit: (), Var: (), Skip: (), Unary: ("operand",),
    Binary: ("left", "right"), Assign: ("expr",), Seq: ("stmts",),
    If: ("cond", "then_branch", "else_branch"), While: ("cond", "body"),
    Program: ("body",),
}


def _sub_node_fields(node) -> tuple[str, ...]:
    try:
        return _SUB_NODE_FIELDS[type(node)]
    except KeyError:
        raise TypeError(f"not an AST node: {node!r}") from None


def _children(node) -> tuple:
    """The direct sub-nodes of a program, statement or expression."""
    if isinstance(node, Seq):
        return node.stmts
    return tuple(getattr(node, name) for name in _sub_node_fields(node))


def map_nodes(node, f):
    """``node`` rebuilt bottom-up: every sub-node is mapped first, then
    ``f`` is applied to the node rebuilt around the mapped sub-nodes."""
    changes = {}
    for name in _sub_node_fields(node):
        sub = getattr(node, name)
        changes[name] = (tuple(map_nodes(s, f) for s in sub) if isinstance(node, Seq)
                         else map_nodes(sub, f))
    return f(replace(node, **changes))


def _walk(node):
    """(node, depth) for every node under ``node``, itself at depth 1,
    with an explicit stack so that no nesting can exhaust the interpreter's."""
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((child, depth + 1) for child in _children(node))


def read_vars(node) -> set[str]:
    """Names read anywhere in an expression or statement."""
    return {n.name for n, _ in _walk(node) if isinstance(n, Var)}


def assigned_vars(node) -> set[str]:
    """Names assigned anywhere in a statement."""
    return {n.name for n, _ in _walk(node) if isinstance(n, Assign)}


# ---------------------------------------------------------------------------
# Attacker configuration

ACTIVE = "active"
PASSIVE = "passive"

DEFAULT_BUDGET = 1_000_000
DEFAULT_CAP = 1 << 20


@dataclass(frozen=True)
class AttackerConfig:
    """Who the attacker is: which variables are secret, which they
    control or see, and how runs are bounded.

    In active mode the attacker picks the low inputs, so every low
    variable carries a fixed value and the enumerated atoms are the high
    values.  In passive mode low values are enumerated too and atoms are
    (low, high) pairs; a low variable with a fixed value is pinned to it.
    """

    high_vars: tuple[tuple[str, int], ...]
    low_vars: tuple[tuple[str, int, int | None], ...] = ()
    observed_vars: tuple[str, ...] = ()
    mode: str = ACTIVE
    step_budget: int = DEFAULT_BUDGET
    enumeration_cap: int = DEFAULT_CAP

    def __post_init__(self):
        _check_int(self.step_budget, "budget")
        _check_int(self.enumeration_cap, "cap")
        if self.mode not in (ACTIVE, PASSIVE):
            raise ConfigError(f"mode must be '{ACTIVE}' or '{PASSIVE}', got {self.mode!r}")
        if self.step_budget < 1:
            raise ConfigError("step budget must be positive")
        names: set[str] = set()
        highs, lows = [], []
        for decl in _sequence(self.high_vars, "high variables must be a sequence of declarations"):
            name, bits = _sequence(decl, "a high variable must be (name, bits)", 2)
            _check_declaration(names, "high", name, bits, None)
            highs.append((name, bits))
        for decl in _sequence(self.low_vars, "low variables must be a sequence of declarations"):
            name, bits, value = _sequence(decl, "a low variable must be (name, bits, value)", 3)
            _check_declaration(names, "low", name, bits, value)
            if self.mode == ACTIVE and value is None:
                raise ConfigError(
                    f"active mode: low variable {name!r} needs a fixed value")
            lows.append((name, bits, value))
        object.__setattr__(self, "high_vars", tuple(highs))
        object.__setattr__(self, "low_vars", tuple(lows))
        observed = _sequence(self.observed_vars, "observed variables must be a sequence of names")
        observed = tuple(observed) if observed else tuple(n for n, _, _ in lows)
        for name in observed:
            if not isinstance(name, str):
                raise ConfigError(f"observed variable name must be a string, got {name!r}")
        object.__setattr__(self, "observed_vars", observed)
        if not observed:
            raise ConfigError("nothing to observe: no observed variables and no low variables")

    def widths(self) -> dict[str, int]:
        out = {n: b for n, b in self.high_vars}
        out.update({n: b for n, b, _ in self.low_vars})
        return out

    def with_low_values(self, values: Mapping[str, int]) -> AttackerConfig:
        """Same attacker with some low variables pinned to new values."""
        known = {n for n, _, _ in self.low_vars}
        for name in values:
            if name not in known:
                raise ConfigError(f"{name!r} is not a declared low variable")
        return replace(self, low_vars=tuple((n, b, values.get(n, v))
                                            for n, b, v in self.low_vars))


def _sequence(value, must: str, length: int | None = None) -> tuple | list:
    """``value`` if it is a tuple or a list (of ``length`` items), else a ConfigError."""
    if isinstance(value, (tuple, list)) and (length is None or len(value) == length):
        return value
    raise ConfigError(f"{must}, got {value!r}")


def _check_declaration(names: set[str], kind: str, name, bits, value) -> None:
    """Reject a bad ``kind`` ("high" or "low") declaration, or one whose
    name is already in ``names``; add its name to ``names``."""
    if not isinstance(name, str):
        raise ConfigError(f"variable name must be a string, got {name!r}")
    _check_int(bits, f"bits of {name!r}")
    if value is not None:
        _check_int(value, f"value of {name!r}")
    if bits < 1:
        raise ConfigError(f"{kind} variable {name!r} needs a width >= 1")
    if name in names:
        raise ConfigError(f"variable {name!r} declared twice")
    names.add(name)
    if value is not None and (value < 0 or value.bit_length() > bits):
        raise ConfigError(f"value {value} of low variable {name!r} exceeds {bits} bit(s)")


def _check_int(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


def config_from_json(obj) -> AttackerConfig:
    if not isinstance(obj, dict):
        raise ConfigError("configuration must be a JSON object")
    try:
        high = tuple((d["name"], d["bits"]) for d in obj.get("high", []))
        low = tuple((d["name"], d["bits"], d.get("value")) for d in obj.get("low", []))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad variable declaration: {exc}") from None
    observe = obj.get("observe", [])
    if not isinstance(observe, list) or not all(isinstance(n, str) for n in observe):
        raise ConfigError(f"observe must be a JSON array of variable names, got {observe!r}")
    return AttackerConfig(
        high_vars=high,
        low_vars=low,
        observed_vars=tuple(observe),
        mode=obj.get("mode", ACTIVE),
        step_budget=obj.get("budget", DEFAULT_BUDGET),
        enumeration_cap=obj.get("cap", DEFAULT_CAP),
    )


# ---------------------------------------------------------------------------
# Evaluation

TERMINATED = "terminated"
NON_TERMINATION = "non-termination"
RUNTIME_ERROR = "runtime-error"


@dataclass(frozen=True)
class Observable:
    """What one run looks like from outside: the observed variables'
    final values, or one shared non-termination / runtime-error class."""

    kind: str
    values: tuple = ()


class _Fault(Exception):
    """A run stopped at a runtime fault."""


class _Spent(Exception):
    """A run took more steps than its budget."""


_SHIFT_LIMIT = 1 << 20


def _div(left: int, right: int) -> int:
    if right == 0:
        raise _Fault
    return left // right


def _mod(left: int, right: int) -> int:
    if right == 0:
        raise _Fault
    return left % right


def _shl(left: int, right: int) -> int:
    if right < 0 or right > _SHIFT_LIMIT:
        raise _Fault
    return left << right


def _shr(left: int, right: int) -> int:
    if right < 0:
        raise _Fault
    return left >> (right if right <= _SHIFT_LIMIT else _SHIFT_LIMIT)


def _unset(name: str):
    raise ConfigError(f"variable {name!r} read before assignment")


def _wrap(width: int, value: int) -> int:
    """``value`` modulo 2^width, a fault when that needs more than
    ``_SHIFT_LIMIT`` bits.  A value that fits is returned as it is, and
    2^width is built only when it is no wider than the value."""
    if value >= 0 and value.bit_length() <= width:
        return value
    if width > _SHIFT_LIMIT and value.bit_length() < width:
        raise _Fault    # a negative value this narrow wraps to all ``width`` bits
    value &= (1 << width) - 1
    if value.bit_length() > _SHIFT_LIMIT:
        raise _Fault
    return value


# Each operator's integer semantics, stated once: a Python expression over
# its operands {0} and {1}, the truth values of comparisons and logical
# operators as ints.  ``&&`` and ``||`` evaluate both operands, so that a
# fault on the right stops a run whatever the left operand's value.
_BINARY_TEMPLATES = {
    "||": "(1 if ({0} != 0) | ({1} != 0) else 0)",
    "&&": "(1 if ({0} != 0) & ({1} != 0) else 0)",
    "|": "({0} | {1})", "^": "({0} ^ {1})", "&": "({0} & {1})",
    "==": "(1 if {0} == {1} else 0)", "!=": "(1 if {0} != {1} else 0)",
    "<": "(1 if {0} < {1} else 0)", "<=": "(1 if {0} <= {1} else 0)",
    ">": "(1 if {0} > {1} else 0)", ">=": "(1 if {0} >= {1} else 0)",
    "<<": "({0} << {1})", ">>": "({0} >> {1})",
    "+": "({0} + {1})", "-": "({0} - {1})", "*": "({0} * {1})",
    "/": "({0} // {1})", "%": "({0} % {1})",
}
_UNARY_TEMPLATES = {"!": "(0 if {0} else 1)", "-": "(-{0})", "~": "(~{0})"}
# The operators that can fault, as calls of their checked forms.
_CHECKED = {"/": "_div({0}, {1})", "%": "_mod({0}, {1})",
            "<<": "_shl({0}, {1})", ">>": "_shr({0}, {1})"}

# Deepest operator nesting one generated function holds.  Each operator
# opens at most two parentheses of the source, which stays far below
# CPython's limit of 200 nested ones; a deeper subtree is a local function.
_EXPRESSION_DEPTH = 32
# Deepest ``if``/``while`` nesting one generated function holds.  CPython
# allows 20 statically nested blocks, of which the atom loop and its ``try``
# take two, and about 100 indentation levels; a deeper statement is a local
# function.
_STATEMENT_DEPTH = 16


def _plain(e: Expr) -> bool:
    """Whether ``e`` is no operator that may fault: ``/ % << >>`` are plain
    only with a literal right operand, a divisor other than 0 or a shift
    count from 0 to the limit, for which their template gives their value."""
    if not (isinstance(e, Binary) and e.op in _CHECKED):
        return True
    if not isinstance(e.right, (IntLit, BoolLit)):
        return False
    n = int(e.right.value)
    return n != 0 if e.op in ("/", "%") else 0 <= n <= _SHIFT_LIMIT


def _source(e: Expr, var: Callable[[str], str], consts: list[int], helpers: list[str],
            depth: int = 1) -> str:
    """``e`` as Python source over the operator templates, an operator that
    may fault calling its checked form.  Each variable reads as
    ``var(name)`` and each literal is a parameter ``c<k>``, its value
    appended to ``consts``: ``repr`` of a literal fails past the int-string
    digit limit.  An operator nested deeper than ``_EXPRESSION_DEPTH`` reads
    as a call ``f<k>()`` of a local function that closes over the
    enclosing function's locals, whose definition is appended to
    ``helpers``; the call evaluates it where the operator stands."""
    if isinstance(e, Var):
        return var(e.name)
    if isinstance(e, (IntLit, BoolLit)):
        consts.append(int(e.value))
        return f"c{len(consts) - 1}"
    if depth > _EXPRESSION_DEPTH:
        body = _source(e, var, consts, helpers)
        helpers.append(f"def f{len(helpers)}():\n    return {body}")
        return f"f{len(helpers) - 1}()"
    if isinstance(e, Unary):
        template, operands = _UNARY_TEMPLATES[e.op], (e.operand,)
    else:
        template = _BINARY_TEMPLATES[e.op] if _plain(e) else _CHECKED[e.op]
        operands = (e.left, e.right)
    return template.format(*(_source(operand, var, consts, helpers, depth + 1)
                             for operand in operands))


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


class _Writer:
    """The statements of one program as Python source that runs one atom in
    locals, ``if`` and ``while`` as Python's own.

    Each variable is a local of ``names``.  When ``counting``, steps are
    counted by the language's rule: ``pending`` steps are known as the
    source is written, and ``check`` adds them to the local ``s`` and stops
    the run past the budget.  It runs before anything that can stop a run
    (an operator that may fault, a read that may be unset, an assignment
    whose wrap may fault), on entering a loop, after each pass of its body
    and at the end.  Where two branches of an ``if`` pend different counts,
    the longer one adds its excess to ``s``.  A program that no run can take
    past its budget is written with no count at all.  ``assigned`` holds the
    variables that every path to the current point assigns; a read of any
    other variable is checked for None and its local is reset to None for
    each atom (``reset``)."""

    def __init__(self, names: dict[str, str], inputs: tuple[str, ...],
                 cfg: AttackerConfig, loop: While | None, counting: bool, counted: bool):
        self.names = names
        self.widths = cfg.widths()
        self.loop = loop
        self.counting = counting
        self.consts: list[int] = []
        self.helpers: list[str] = []
        # The enclosing function's locals a statement local function writes.
        self.shared = ", ".join([*names.values(), *(["s"] if counting else []),
                                 *(["n"] if counted else [])])
        self.reset: dict[str, None] = {}
        self.assigned = frozenset(inputs)
        self.pending = 0
        self.depth = 0          # ``if``/``while`` statements open in the current function

    def read(self, name: str) -> str:
        x = self.names[name]
        if name in self.assigned:
            return x
        self.reset[name] = None
        return f"({x} if {x} is not None else _unset({name!r}))"

    def expr(self, e: Expr) -> str:
        return _source(e, self.read, self.consts, self.helpers)

    def may_stop(self, e: Expr) -> bool:
        return any(not _plain(n) or isinstance(n, Var) and n.name not in self.assigned
                   for n, _ in _walk(e))

    def check(self) -> list[str]:
        if not self.counting:
            return []
        lines = [f"s += {self.pending}"] if self.pending else []
        self.pending = 0
        return [*lines, "if s > budget: raise _Spent"]

    def block(self, s: Stmt) -> list[str]:
        if isinstance(s, Seq):
            return [line for sub in s.stmts for line in self.block(sub)]
        if isinstance(s, Skip):
            self.pending += 1
            return []
        if isinstance(s, Assign):
            return self.assign(s)
        if not isinstance(s, (If, While)):
            raise TypeError(f"not a statement: {s!r}")
        if self.depth == _STATEMENT_DEPTH:
            return self.local_function(s)
        self.depth += 1
        lines = self.branch(s) if isinstance(s, If) else self.repeat(s)
        self.depth -= 1
        return lines

    def assign(self, s: Assign) -> list[str]:
        self.pending += 1
        width = self.widths.get(s.name)
        # ``_wrap`` can fault only past the shift limit.
        wrap_may_stop = width is not None and width > _SHIFT_LIMIT
        lines = self.check() if wrap_may_stop or self.may_stop(s.expr) else []
        value = self.expr(s.expr)
        if width is not None:
            self.consts.append(width)
            value = f"_wrap(c{len(self.consts) - 1}, {value})"
        self.assigned |= {s.name}
        return [*lines, f"{self.names[s.name]} = {value}"]

    def branch(self, s: If) -> list[str]:
        self.pending += 1
        lines = self.check() if self.may_stop(s.cond) else []
        lines.append(f"if {self.expr(s.cond)}:")
        start = self.pending, self.assigned
        then = self.block(s.then_branch)
        pending, assigned = self.pending, self.assigned
        self.pending, self.assigned = start
        other = self.block(s.else_branch)
        if self.counting and pending != self.pending:
            least = min(pending, self.pending)
            longer = then if pending > least else other
            longer.append(f"s += {max(pending, self.pending) - least}")
            self.pending = least
        self.assigned &= assigned
        return [*lines, *_indent(then or ["pass"]), *(["else:", *_indent(other)] if other else [])]

    def repeat(self, s: While) -> list[str]:
        self.pending += 1
        lines = self.check()
        before = self.assigned
        lines.append(f"while {self.expr(s.cond)}:")
        body = self.block(s.body)
        if s is self.loop:
            body.append("n += 1")
        self.pending += 1
        body += self.check()
        self.assigned = before
        return [*lines, *_indent(body)]

    def local_function(self, s: If | While) -> list[str]:
        """``s`` as a call of a local function that closes over the
        enclosing function's locals and writes them in place, so a fault
        that leaves it keeps the loop count ``n``."""
        k = len(self.helpers)
        self.helpers.append("")
        depth, self.depth = self.depth, 0
        body = self.block(s)
        self.depth = depth
        self.helpers[k] = "\n".join([f"def f{k}():", f"    nonlocal {self.shared}",
                                     *_indent(body)])
        return [f"f{k}()"]


def _function(p: Program, inputs: tuple[str, ...], cfg: AttackerConfig,
              loop: While | None, lows: int) -> Callable:
    """``p`` compiled into ``run(<input columns>, size)``, which takes each of
    ``size`` atoms through the whole program, the initial value of each
    variable of ``inputs`` read from its column.  It returns each atom's key
    (its observed values' tuple, else the kind of its stop, paired with the
    values of the first ``lows`` inputs, bare for one, when ``lows``) and
    ``loop`` count, None where it ran out of steps; a read of an unset
    variable raises ``ConfigError`` at once.  Steps are counted only when
    some run could take more than the budget: when the program has a
    ``while``, or more ``skip``, assignment and ``if`` nodes than the
    budget.  The function is made once per (inputs, configuration, loop,
    lows) and kept in ``p.functions``."""
    key = inputs, cfg, loop and id(loop), lows
    function = p.functions.get(key)
    if function is not None:
        return function
    nodes = [n for n, _ in _walk(p)]
    names = {name: f"x{k}" for k, name in enumerate(dict.fromkeys(
        [*inputs, *(n.name for n in nodes if isinstance(n, (Var, Assign))), *cfg.observed_vars]))}
    used = {n.name for n in nodes if isinstance(n, Var)}.union(cfg.observed_vars)
    counting = (any(isinstance(n, While) for n in nodes)
                or sum(isinstance(n, (Skip, Assign, If)) for n in nodes) > cfg.step_budget)
    counted = any(n is loop for n in nodes)
    writer = _Writer(names, inputs, cfg, loop, counting, counted)
    # A program that ends in a loop checked its count after the loop's last
    # pass, and nothing since has moved it.
    last = p.body.stmts[-1] if isinstance(p.body, Seq) and p.body.stmts else p.body
    body = writer.block(p.body) + ([] if isinstance(last, While) else writer.check())
    reset = [names[name] for name in dict.fromkeys(
        [*writer.reset, *(name for name in cfg.observed_vars if name not in writer.assigned)])]
    low = "in0[i]" if lows == 1 else f"({''.join(f'in{j}[i], ' for j in range(lows))})"
    keyed = f"keys[i] = ({low}, {{}})" if lows else "keys[i] = {}"
    params = [*(f"c{k}" for k in range(len(writer.consts))), "budget",
              *(f"in{j}" for j in range(len(inputs))), "size"]
    loaded = [name for name in inputs if name in used]
    lines = [
        f"def run({', '.join(params)}):",
        *_indent([line for helper in writer.helpers for line in helper.splitlines()]),
        *(f"    {x} = None" for name, x in names.items() if name not in loaded),
        "    keys = [None] * size",
        "    counts = [0] * size",
        "    for i in range(size):",
        *(f"        {names[name]} = in{inputs.index(name)}[i]" for name in loaded),
        *(f"        {x} = None" for x in reset),
        *(["        s = 0"] if counting else []),
        *(["        n = 0"] if counted else []),
        "        try:",
        *_indent(_indent(_indent(body or ["pass"]))),
        "        except _Spent:",
        "            " + keyed.format("NON_TERMINATION"),
        "            counts[i] = None",
        "        except _Fault:",
        "            " + keyed.format("RUNTIME_ERROR"),
        *(["            counts[i] = n"] if counted else []),
        "        else:",
        "            " + keyed.format(f"({''.join(names[x] + ', ' for x in cfg.observed_vars)})"),
        *(["            counts[i] = n"] if counted else []),
        "    return keys, counts"]
    function = p.functions[key] = partial(_compile("\n".join(lines)), *writer.consts,
                                          cfg.step_budget)
    return function


def _compile(source: str) -> Callable:
    functions: dict = {}
    exec(source, globals(), functions)
    return functions["run"]


# Atoms one call of a program's function runs.  A call costs the same
# whatever its size, and a chunk's columns live until it returns: larger
# chunks spread the first cost over more atoms, smaller ones bound the
# second.
CHUNK_SIZE = 1024


def eval_program(p: Program, initial: Mapping[str, int], cfg: AttackerConfig) -> Observable:
    """Big-step evaluation of a program on one initial store, within
    ``cfg.step_budget`` steps."""
    obs, _ = run_counting_loop(p, initial, cfg, None)
    return obs


def run_counting_loop(p: Program, initial: Mapping[str, int], cfg: AttackerConfig,
                      loop: While | None) -> tuple[Observable, int | None]:
    """Like ``eval_program`` but also reports how many complete body
    executions of ``loop`` (compared by identity) the run performed;
    None when the run exhausts its budget.  It is one call of the
    program's function on one atom, whose key carries no low part."""
    (key,), (count,) = _function(p, tuple(initial), cfg, loop, 0)(
        *([value] for value in initial.values()), 1)
    obs = Observable(TERMINATED, key) if isinstance(key, tuple) else Observable(key)
    return obs, count


# ---------------------------------------------------------------------------
# Enumeration of the secret space and the program's partition

def _collapse(values: tuple[int, ...]):
    return values[0] if len(values) == 1 else values


def _plan(cfg: AttackerConfig):
    """(names, value ranges, low count, pinned lows): a passive attacker's
    lows (a pinned one has one value), then the highs, are enumerated; an
    active attacker's lows are pinned.  The cap is checked on the bit
    count, so no range of an over-wide variable is ever built."""
    lows = cfg.low_vars if cfg.mode == PASSIVE else ()
    names = [n for n, _, _ in lows] + [n for n, _ in cfg.high_vars]
    bits = sum(b for _, b, v in lows if v is None) + sum(b for _, b in cfg.high_vars)
    cap = cfg.enumeration_cap
    if cap < 1 or bits >= cap.bit_length():
        raise EnumerationCapError(f"2^{bits} atoms to enumerate exceeds the cap of {cap}")
    ranges = [range(v, v + 1) if v is not None else range(1 << b) for _, b, v in lows]
    ranges += [range(1 << b) for _, b in cfg.high_vars]
    pinned = {} if lows else {n: v for n, _, v in cfg.low_vars}
    return names, ranges, len(lows), pinned


def enumerate_domain(cfg: AttackerConfig) -> Domain:
    """All attacker-facing input atoms, in lexicographic value order.

    Active mode: atoms are high values (a bare value for one high
    variable, tuples otherwise).  Passive mode with low variables: atoms
    are (low part, high part) pairs.  The domain holds the value ranges
    alone, not the atoms.
    """
    _, ranges, n_lows, _ = _plan(cfg)
    if not n_lows:
        return Domain.product(_collapse(tuple(ranges)))
    return Domain.product((_collapse(tuple(ranges[:n_lows])), _collapse(tuple(ranges[n_lows:]))))


def validate_program(p: Program, cfg: AttackerConfig) -> None:
    """Every variable read or observed must be declared or assigned somewhere."""
    declared = {n for n, _ in cfg.high_vars} | {n for n, _, _ in cfg.low_vars}
    known = declared | assigned_vars(p)
    for name in sorted(read_vars(p) - known):
        raise ConfigError(f"variable {name!r} is never declared or assigned")
    for name in cfg.observed_vars:
        if name not in known:
            raise ConfigError(f"observed variable {name!r} is never declared or assigned")


def runs(p: Program, cfg: AttackerConfig, loop: While | None = None
         ) -> tuple[Domain, Iterator[tuple[list, list]]]:
    """The domain and an iterator over (keys, counts) column pairs, one pair
    per ``CHUNK_SIZE`` atoms in domain order: each atom's key and ``loop``
    count as the program's function (``_function``) gives them.  Each chunk
    runs as one call of that function, made once per call of ``runs``,
    whose input columns are the next values of the columns of the product
    of the value ranges, one per enumerated variable, and the pinned
    values repeated.  A passive attacker also watches the public lows go
    in, so with enumerated lows each key carries the atom's low part:
    atoms with different lows never share a key."""
    validate_program(p, cfg)
    domain = enumerate_domain(cfg)
    names, ranges, n_lows, pinned = _plan(cfg)
    function = _function(p, (*names, *pinned), cfg, loop, n_lows)

    def chunks():
        columns = _Product(ranges).columns()
        for start in range(0, domain.size, CHUNK_SIZE):
            size = min(CHUNK_SIZE, domain.size - start)
            yield function(*(list(itertools.islice(column, size)) for column in columns),
                           *([value] * size for value in pinned.values()), size)

    return domain, chunks()


def loi(p: Program, cfg: AttackerConfig) -> tuple[Domain, Partition]:
    """The program's partition of the secret space: the kernel of the keys
    ``runs`` gives, relabeled a chunk at a time."""
    domain, chunks = runs(p, cfg)
    return domain, relabel(domain, itertools.chain.from_iterable(
        map(operator.itemgetter(0), chunks)))


def low_projection(domain: Domain, cfg: AttackerConfig) -> Partition:
    """Partition of the atoms by their low part (one block per low value);
    the one-block partition when lows are not enumerated.  It is what the
    attacker sees of runs that all look alike: the atom index over the
    number of high values, as in ``runs``."""
    _, ranges, n_lows, _ = _plan(cfg)
    highs = math.prod(map(len, ranges[n_lows:]))
    return relabel(domain, (i // highs for i in range(domain.size)))
