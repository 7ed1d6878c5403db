"""Closed-form expression DSL for rate and source functions.

A tiny language for functions of ``alpha`` and ``lambda`` built from
+, -, *, /, ^ and the unary functions exp, ln, sqrt, abs, sin.
Expressions are parsed into immutable trees, printed back to parseable
text, and evaluated in a saturating vectorized mode (``eval_array``) or
in the vectorized log channel (``log_eval``) that never underflows.
Neither raises on a domain violation: an out-of-domain point is nan.
Which variable a rate or source function may use is a rule of its
certification (``rates``), not of the grammar.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?          # '^' is right-associative
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' base

Unary minus binds tighter than '^', i.e. ``-2^2`` is ``(-2)^2 = 4``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

VARIABLES = ("alpha", "lambda")
FUNCTIONS = ("exp", "ln", "sqrt", "abs", "sin")


class ExprError(ValueError):
    """Base class for expression-DSL failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}' at position {position}")
        self.name = name
        self.position = position


class DomainError(ExprError):
    """A rate or source function used outside its domain: one of a variable
    other than its own, an uncertified function where a certified one is
    needed, or a comparison grid on which a ratio is undefined."""


class UnboundVariableError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"variable '{name}' is not bound")
        self.name = name


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Unary(NamedTuple):
    op: str  # neg, exp, ln, sqrt, abs, sin
    child: "FuncExpr"


class Binary(NamedTuple):
    op: str  # + - * / ^
    left: "FuncExpr"
    right: "FuncExpr"


FuncExpr = Const | Var | Unary | Binary

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]+)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            at = len(text) - len(text[pos:].lstrip())
            if at == len(text):  # only whitespace remained
                break
            raise ExprSyntaxError(f"unexpected character '{text[at]}'", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            raise ExprSyntaxError(f"expected '{op}'", self.err_pos())
        self.next()

    def err_pos(self) -> int:
        tok = self.peek()
        return tok[2] if tok is not None else len(self.text)

    def parse(self) -> FuncExpr:
        node = self.expr()
        if self.peek() is not None:
            raise ExprSyntaxError("trailing input", self.err_pos())
        return node

    def expr(self) -> FuncExpr:
        node = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.next()
            node = Binary(tok[1], node, self.term())
        return node

    def term(self) -> FuncExpr:
        node = self.factor()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.next()
            node = Binary(tok[1], node, self.factor())
        return node

    def factor(self) -> FuncExpr:
        node = self.base()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            node = Binary("^", node, self.factor())  # right-associative
        return node

    def base(self) -> FuncExpr:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("expected a value", self.err_pos())
        kind, value, pos = tok
        if kind == "number":
            self.next()
            return Const(float(value))
        if kind == "ident":
            self.next()
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(value, pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Unary(value, arg)
            if value not in VARIABLES:
                raise UnknownIdentifierError(value, pos)
            return Var(value)
        if kind == "op" and value == "(":
            self.next()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and value == "-":
            self.next()
            return Unary("neg", self.base())
        raise ExprSyntaxError(f"expected a value, found '{value}'", pos)


def variables_of(expr: FuncExpr) -> set[str]:
    match expr:
        case Const():
            return set()
        case Var(name):
            return {name}
        case Unary(_, child):
            return variables_of(child)
        case Binary(_, left, right):
            return variables_of(left) | variables_of(right)
    raise TypeError(f"not a FuncExpr node: {expr!r}")


def parse_expr(text: str) -> FuncExpr:
    """Parse ``text`` into an expression tree.

    Raises ExprSyntaxError / UnknownIdentifierError on malformed input.
    """
    return _Parser(text).parse()


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _prec(expr: FuncExpr) -> int:
    match expr:
        case Binary(op, _, _):
            return _PRECEDENCE[op]
        case Unary("neg", _):
            return 2  # prints like a product with -1
        case _:
            return 9


def to_string(expr: FuncExpr) -> str:
    """Render a tree back to text that re-parses to an equivalent tree."""
    match expr:
        case Const(v):
            if v == int(v) and abs(v) < 1e16:
                return str(int(v))
            return repr(v)
        case Var(name):
            return name
        case Unary("neg", child):
            inner = to_string(child)
            # '-a^b' would re-parse as '(-a)^b', so every binary operand is wrapped
            if isinstance(child, Binary):
                inner = f"({inner})"
            return f"-{inner}"
        case Unary(op, child):
            return f"{op}({to_string(child)})"
        case Binary(op, left, right):
            lp, rp = _PRECEDENCE[op], _PRECEDENCE[op]
            ls = to_string(left)
            rs = to_string(right)
            # left child: parenthesize on lower precedence ('^' is right-assoc,
            # so equal precedence on the left needs parens too)
            if _prec(left) < lp or (op == "^" and _prec(left) == lp):
                ls = f"({ls})"
            # right child: lower precedence, or equal for left-assoc ops
            if _prec(right) < rp or (op in "+-*/" and _prec(right) == rp):
                rs = f"({rs})"
            # a leading unary minus on the right of '-' or '^' must be wrapped
            if isinstance(right, Unary) and right.op == "neg" and op in "-^":
                rs = f"({to_string(right)})"
            return f"{ls}{op}{rs}"
    raise TypeError(f"not a FuncExpr node: {expr!r}")


def log_eval(expr: FuncExpr, binding: dict[str, np.ndarray | float]):
    """``(ln|v|, sign)`` of the value v of ``eval_array``, without its
    underflow: ln of 2*exp(-1/alpha) stays finite after v is 0.0.

    Leaves, sin, exp's argument and the exponent of ^ are evaluated
    linearly; logs of products and quotients add; ``a^b`` is ``b*ln a``
    for a finite positive base and ``np.power`` otherwise; sums go through
    a signed logaddexp, save a difference of two leaves within a factor 2,
    which is exact in floats; ln takes its child's log.  The sign is +-1,
    NaN or a signed zero, so division by an exact zero keeps the IEEE sign.
    """
    with np.errstate(all="ignore"):
        return _log_eval(expr, binding)


def _signed_log(v):
    v = np.asarray(v, dtype=float)
    return np.log(np.abs(v)), np.copysign(np.sign(v), v)  # np.sign drops -0.0's sign


def _log_eval(expr: FuncExpr, binding):
    match expr:
        case Const() | Var():
            return _signed_log(_eval_array(expr, binding))
        case Unary("exp", child):
            return _eval_array(child, binding), np.float64(1.0)
        case Unary("sin", child):
            return _signed_log(np.sin(_eval_array(child, binding)))
        case Unary(op, child):
            lc, sc = _log_eval(child, binding)
            if op == "neg":
                return lc, -sc
            if op == "abs":
                return lc, np.abs(sc)
            if op == "sqrt":
                return np.where(sc < 0, np.nan, 0.5 * lc), sc
            if op == "ln":
                return _signed_log(np.where(sc < 0, np.nan, lc))
        case Binary("^", left, right):
            la, sa = _log_eval(left, binding)
            b = _eval_array(right, binding)
            closed = (sa > 0) & np.isfinite(la)
            if np.all(closed):
                return b * la, np.float64(1.0)
            lv, sv = _signed_log(np.power(sa * np.exp(la), b))
            return np.where(closed, b * la, lv), np.where(closed, 1.0, sv)
        case Binary(op, left, right):
            la, sa = _log_eval(left, binding)
            lb, sb = _log_eval(right, binding)
            if op == "*":
                return la + lb, sa * sb
            if op == "/":
                lv, sv = la - lb, sa * np.copysign(1.0, sb)  # b's sign bit: 1/-0.0 is -inf
                return lv, np.where(lv == -np.inf, 0.0 * sv, sv)  # x/inf is a signed zero
            sb = -sb if op == "-" else sb
            lv, sv = _log_sum(la, sa, lb, sb)
            if isinstance(left, Const | Var) and isinstance(right, Const | Var):
                # leaves within a factor 2 of each other subtract exactly
                # (Sterbenz); the rounding of their logs would grow by the
                # cancellation (3.5 - 3.703: 18x)
                cancel = (sa * sb < 0) & (np.abs(la - lb) < _LN2)
                if np.any(cancel):
                    lin, s_lin = _signed_log(_eval_array(expr, binding))
                    lv, sv = np.where(cancel, lin, lv), np.where(cancel, s_lin, sv)
            return lv, sv
    raise TypeError(f"not a FuncExpr node: {expr!r}")


_LN2 = np.log(2.0)


def _log_sum(la, sa, lb, sb):
    """Signed logaddexp: ``(ln|a + b|, sign)`` for a = sa*e^la, b = sb*e^lb."""
    # d = ln of (larger term) / (smaller term); equal logs (two zeros or two
    # infinities included) are d = 0, a ratio r of +-1
    d = np.abs(np.where(la == lb, 0.0, la - lb))
    r = sa * sb * np.exp(-d)
    l1r, s_sum = np.log1p(r), np.sign(1.0 + r)
    near = (r < 0) & (d < _LN2)
    if np.any(near):
        # ln(1 - e^-d) is ln(-expm1(-d)): 1 + r would round a small d away
        l1r = np.where(near, np.log(-np.expm1(-d)), l1r)
        s_sum = np.where(near & (d > 0), 1.0, s_sum)
    s_hi = np.where(la >= lb, sa, sb)
    return np.maximum(la, lb) + l1r, s_hi * s_sum + 0.0  # a - a is +0


def eval_array(expr: FuncExpr, binding: dict[str, np.ndarray | float]):
    """Saturating vectorized evaluation used by grid estimators.

    Out-of-domain points become nan (or +/-inf where IEEE defines them);
    no exceptions are raised for numeric issues.
    """
    with np.errstate(all="ignore"):
        return _eval_array(expr, binding)


def _eval_array(expr: FuncExpr, binding):
    match expr:
        case Const(v):
            return np.float64(v)  # IEEE arithmetic, so that 1/0 is inf, not an exception
        case Var(name):
            if name not in binding:
                raise UnboundVariableError(name)
            return np.asarray(binding[name], dtype=float)
        case Unary(op, child):
            x = _eval_array(child, binding)
            if op == "neg":
                return -x
            if op == "exp":
                return np.exp(x)
            if op == "ln":
                return np.log(x)
            if op == "sqrt":
                return np.sqrt(x)
            if op == "abs":
                return np.abs(x)
            if op == "sin":
                return np.sin(x)
        case Binary(op, left, right):
            a = _eval_array(left, binding)
            b = _eval_array(right, binding)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                return a / b
            if op == "^":
                return np.power(a, b)
    raise TypeError(f"not a FuncExpr node: {expr!r}")
