"""Small recursive-descent expression engine shared by the text grammars.

Every user-facing syntax in the package (field elements, difference
operators, sigma-polynomials, tensor literals) is an arithmetic
expression over a different value domain.  The domain object supplies
the atoms and the operations; the grammar is fixed:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | tensor
    tensor := power ('#' power)*
    power  := atom ('^' ['-'] INT)?
    atom   := INT | NAME | NAME ['^' INT] '(' expr ')' | '(' expr ')'

The function form of an atom (e.g. ``s(y1)`` or ``s^2(y1)``) is only
admitted for names the domain declares as functions.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


class ExprError(ValueError):
    pass


def indexed_name(name: str, stem: str, n: int):
    """The 0-based index i - 1 of a name <stem><i> with 1 <= i <= n, or 0
    for the bare <stem> when n == 1; None for any other name."""
    if not name.startswith(stem):
        return None
    if name == stem:
        return 0 if n == 1 else None
    try:
        i = int(name[len(stem):])
    except ValueError:
        return None
    return i - 1 if 1 <= i <= n else None


def tokenize(text: str) -> list:
    tokens = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ExprError(f"cannot tokenize {text[pos:]!r}")
        pos = m.end()
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            ch = m.group(3)
            if ch.strip() == "":
                continue
            if ch not in "+-*/^#(),":
                raise ExprError(f"unexpected character {ch!r}")
            tokens.append((ch, ch))
    return tokens


class _Parser:
    def __init__(self, tokens, domain):
        self.tokens = tokens
        self.pos = 0
        self.domain = domain

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            raise ExprError("unexpected end of expression")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, got {tok[1]!r}")
        return tok

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ExprError(f"trailing input at {self.tokens[self.pos][1]!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = self.domain.add(value, rhs) if op == "+" else self.domain.sub(value, rhs)
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.next()[0]
            rhs = self.unary()
            value = self.domain.mul(value, rhs) if op == "*" else self.domain.div(value, rhs)
        return value

    def unary(self):
        if self.peek() == "-":
            self.next()
            return self.domain.neg(self.unary())
        return self.tensor()

    def tensor(self):
        value = self.power()
        while self.peek() == "#":
            self.next()
            rhs = self.power()
            value = self.domain.tensor(value, rhs)
        return value

    def exponent(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        return sign * self.expect("int")[1]

    def power(self):
        value = self.atom()
        if self.peek() == "^":
            self.next()
            value = self.domain.pow(value, self.exponent())
        return value

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return self.domain.from_int(val)
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if kind == "name":
            if self.domain.is_function(val):
                power = 1
                if self.peek() == "^":
                    self.next()
                    power = self.expect("int")[1]
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return self.domain.call(val, power, arg)
            return self.domain.name(val)
        raise ExprError(f"unexpected token {val!r}")


class Domain:
    """Default domain: arithmetic via Python operators, no names."""

    def from_int(self, n):
        raise NotImplementedError

    def is_function(self, name) -> bool:
        return False

    def call(self, name, power, arg):
        raise ExprError(f"unknown function {name!r}")

    def name(self, name):
        raise ExprError(f"unknown name {name!r}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def neg(self, a):
        return -a

    def pow(self, a, n):
        return a ** n

    def tensor(self, a, b):
        raise ExprError("tensor separator '#' not allowed here")


def parse(text: str, domain: Domain):
    return _Parser(tokenize(text), domain).parse()
