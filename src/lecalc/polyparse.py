"""Exact sparse multivariate polynomials over the rationals, plus a parser.

Coefficients are arbitrary-precision rationals (fractions.Fraction), never
floats. Exponent vectors are dense fixed-length tuples tied to a
VariableFrame. All values are immutable after construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]
Scalar = Fraction

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class InputError(ValueError):
    """Invalid user input: bad syntax, unknown variable, frame mismatch."""


class MathematicalRefusal(ArithmeticError):
    """A request the mathematics does not support (non-isolated input,
    genericization budget exhausted, no stabilization)."""


class ParseError(InputError):
    """Syntax error in a polynomial expression, with character position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class VariableFrame:
    """Ordered tuple of distinct variable names; fixes the exponent layout."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise InputError("frame needs at least one variable")
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names in frame")
        for nm in names:
            if not _NAME_RE.match(nm):
                raise InputError("invalid variable name %r" % (nm,))
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}

    @property
    def ambient_dimension(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableFrame) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return "VariableFrame(%s)" % (", ".join(self.names))


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise InputError("coefficients must be integers or Fractions, got %r" % (c,))


# Key giving the canonical degree-then-reverse-lex printing order.
def _print_key(exp: Exponent):
    return (sum(exp), tuple(-e for e in reversed(exp)))


class Polynomial:
    """Sparse polynomial: a map from exponent tuples to nonzero rationals."""

    __slots__ = ("frame", "terms", "_hash")

    def __init__(self, frame: VariableFrame, terms: Mapping[Exponent, object]):
        n = frame.ambient_dimension
        clean: Dict[Exponent, Fraction] = {}
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != n:
                raise InputError("exponent vector %r does not fit frame of size %d" % (exp, n))
            if any((not isinstance(e, int)) or e < 0 for e in exp):
                raise InputError("exponents must be nonnegative integers: %r" % (exp,))
            c = _as_fraction(c)
            if c:
                clean[exp] = c
        self.frame = frame
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, frame: VariableFrame) -> "Polynomial":
        return cls(frame, {})

    @classmethod
    def constant(cls, frame: VariableFrame, c) -> "Polynomial":
        return cls(frame, {(0,) * frame.ambient_dimension: _as_fraction(c)})

    @classmethod
    def one(cls, frame: VariableFrame) -> "Polynomial":
        return cls.constant(frame, 1)

    @classmethod
    def variable(cls, frame: VariableFrame, name: str) -> "Polynomial":
        if name not in frame.index:
            raise InputError("unknown variable %r" % (name,))
        exp = [0] * frame.ambient_dimension
        exp[frame.index[name]] = 1
        return cls(frame, {tuple(exp): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.frame.ambient_dimension, Fraction(0))

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_total_degree(self) -> int:
        """Order of vanishing at the origin; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def variables_used(self) -> Tuple[str, ...]:
        used = [False] * self.frame.ambient_dimension
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(nm for nm, u in zip(self.frame.names, used) if u)

    # -- arithmetic --------------------------------------------------------

    def _check_frame(self, other: "Polynomial") -> None:
        if self.frame != other.frame:
            raise InputError("frame mismatch: %r vs %r" % (self.frame, other.frame))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_frame(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            v = out.get(exp, Fraction(0)) + c
            if v:
                out[exp] = v
            else:
                out.pop(exp, None)
        return Polynomial(self.frame, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.frame, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_frame(other)
        out: Dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, Fraction(0)) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Polynomial(self.frame, out)

    def __rmul__(self, other) -> "Polynomial":
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        if not c:
            return Polynomial.zero(self.frame)
        return Polynomial(self.frame, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise InputError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.frame)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to variable `index` (0-based)."""
        n = self.frame.ambient_dimension
        if not 0 <= index < n:
            raise InputError("variable index out of range")
        out: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[index]
            if e:
                nexp = exp[:index] + (e - 1,) + exp[index + 1:]
                v = out.get(nexp, Fraction(0)) + c * e
                if v:
                    out[nexp] = v
                else:
                    out.pop(nexp, None)
        return Polynomial(self.frame, out)

    # -- comparisons and printing ------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.frame == other.frame
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.frame, frozenset(self.terms.items())))
        return self._hash

    def _monomial_str(self, exp: Exponent) -> str:
        parts = []
        for name, e in zip(self.frame.names, exp):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts)

    def to_string(self) -> str:
        """Canonical string form; parsing it back yields an equal polynomial."""
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: _print_key(t[0]), reverse=True)
        chunks: List[str] = []
        for i, (exp, c) in enumerate(items):
            mono = self._monomial_str(exp)
            mag = -c if c < 0 else c
            if mono and mag == 1:
                body = mono
            elif mono:
                body = "%s*%s" % (mag, mono)
            else:
                body = str(mag)
            if i == 0:
                chunks.append(("-" + body) if c < 0 else body)
            else:
                chunks.append((" - " if c < 0 else " + ") + body)
        return "".join(chunks)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return "Polynomial(%s)" % self.to_string()


class LinearChange:
    """Invertible linear substitution: variable i maps to row i of `matrix`."""

    __slots__ = ("frame", "matrix", "_det")

    def __init__(self, frame: VariableFrame, matrix: Sequence[Sequence[object]]):
        n = frame.ambient_dimension
        rows = []
        for row in matrix:
            row = tuple(_as_fraction(c) for c in row)
            if len(row) != n:
                raise InputError("matrix row of length %d does not fit frame of size %d" % (len(row), n))
            rows.append(row)
        if len(rows) != n:
            raise InputError("matrix must be %d x %d" % (n, n))
        self.frame = frame
        self.matrix = tuple(rows)
        self._det = _det(self.matrix)
        if not self._det:
            raise InputError("singular matrix: linear change must be invertible")

    @classmethod
    def identity(cls, frame: VariableFrame) -> "LinearChange":
        n = frame.ambient_dimension
        return cls(frame, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def determinant(self) -> Fraction:
        return self._det

    def is_identity(self) -> bool:
        n = self.frame.ambient_dimension
        return all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )

    def inverse(self) -> "LinearChange":
        return LinearChange(self.frame, _invert(self.matrix))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearChange)
            and self.frame == other.frame
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.frame, self.matrix))

    def __repr__(self) -> str:
        return "LinearChange(%r)" % (self.matrix,)


def _det(matrix: Tuple[Tuple[Fraction, ...], ...]) -> Fraction:
    n = len(matrix)
    rows = [list(r) for r in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _invert(matrix: Tuple[Tuple[Fraction, ...], ...]) -> List[List[Fraction]]:
    n = len(matrix)
    aug = [list(matrix[i]) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise InputError("singular matrix: linear change must be invertible")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# -- substitution ------------------------------------------------------------

def _substitute(p: Polynomial, forms: Sequence[Polynomial]) -> Polynomial:
    """Evaluate p at forms, one polynomial per frame variable."""
    frame = p.frame
    powers: List[Dict[int, Polynomial]] = [
        {0: Polynomial.one(frame)} for _ in range(frame.ambient_dimension)
    ]

    def power(i: int, e: int) -> Polynomial:
        memo = powers[i]
        if e not in memo:
            half = power(i, e // 2)
            res = half * half
            if e % 2:
                res = res * forms[i]
            memo[e] = res
        return memo[e]

    out = Polynomial.zero(frame)
    for exp, c in sorted(p.terms.items(), key=lambda t: _print_key(t[0])):
        term = Polynomial.constant(frame, c)
        for i, e in enumerate(exp):
            if e:
                term = term * power(i, e)
        out = out + term
    return out


def apply_linear_change(p: Polynomial, change: LinearChange) -> Polynomial:
    """Substitute each variable by its row of the change matrix."""
    if p.frame != change.frame:
        raise InputError("frame mismatch between polynomial and linear change")
    if change.is_identity():
        return p
    frame = p.frame
    forms = []
    for row in change.matrix:
        terms: Dict[Exponent, Fraction] = {}
        for j, c in enumerate(row):
            if c:
                exp = [0] * frame.ambient_dimension
                exp[j] = 1
                terms[tuple(exp)] = c
        forms.append(Polynomial(frame, terms))
    return _substitute(p, forms)


def translate(p: Polynomial, offsets: Sequence[object]) -> Polynomial:
    """Substitute each variable z_i by z_i + offsets[i]."""
    frame = p.frame
    n = frame.ambient_dimension
    offs = [_as_fraction(c) for c in offsets]
    if len(offs) != n:
        raise InputError("offset vector of length %d does not fit frame of size %d" % (len(offs), n))
    if not any(offs):
        return p
    forms = [
        Polynomial.variable(frame, frame.names[i]) + Polynomial.constant(frame, offs[i])
        for i in range(n)
    ]
    return _substitute(p, forms)


# -- parser ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<op>[-+*^()/])"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser: ^ binds tighter than *, which binds tighter
    than + and -. No implicit multiplication. Rational literals are a or a/b."""

    def __init__(self, text: str, frame: VariableFrame):
        self.tokens = _tokenize(text)
        self.frame = frame
        self.i = 0
        self.length = len(text)

    def _peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> Tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            pos = tok[2] if tok else self.length
            raise ParseError("expected %r" % op, pos)
        self.i += 1

    def parse(self) -> Polynomial:
        p = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError("unexpected token %r" % tok[1], tok[2])
        return p

    def _expr(self) -> Polynomial:
        p = self._term()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.i += 1
                q = self._term()
                p = p + q if tok[1] == "+" else p - q
            else:
                return p

    def _term(self) -> Polynomial:
        p = self._factor()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.i += 1
                p = p * self._factor()
            else:
                return p

    def _factor(self) -> Polynomial:
        negate = False
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] == "-":
                self.i += 1
                negate = not negate
            else:
                break
        p = self._power()
        return -p if negate else p

    def _power(self) -> Polynomial:
        p = self._primary()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.i += 1
            etok = self._peek()
            if etok is None or etok[0] != "int":
                pos = etok[2] if etok else self.length
                raise ParseError("exponent must be a nonnegative integer literal", pos)
            self.i += 1
            p = p ** int(etok[1])
        return p

    def _primary(self) -> Polynomial:
        tok = self._next()
        kind, value, pos = tok
        if kind == "int":
            num = int(value)
            nxt = self._peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.i += 1
                dtok = self._peek()
                if dtok is None or dtok[0] != "int":
                    dpos = dtok[2] if dtok else self.length
                    raise ParseError("denominator must be an integer literal", dpos)
                self.i += 1
                den = int(dtok[1])
                if den <= 0:
                    raise ParseError("denominator must be positive", dtok[2])
                return Polynomial.constant(self.frame, Fraction(num, den))
            return Polynomial.constant(self.frame, num)
        if kind == "name":
            if value not in self.frame.index:
                raise ParseError(
                    "unknown variable %r (frame has %s)" % (value, ", ".join(self.frame.names)),
                    pos,
                )
            return Polynomial.variable(self.frame, value)
        if kind == "op" and value == "(":
            p = self._expr()
            self._expect_op(")")
            return p
        raise ParseError("unexpected token %r" % value, pos)


def parse_polynomial(text: str, frame: VariableFrame) -> Polynomial:
    """Parse an expression into canonical sparse form."""
    if not isinstance(text, str):
        raise InputError("expected an expression string")
    return _Parser(text, frame).parse()
