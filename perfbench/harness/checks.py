"""Answer checkers that share no code with the program.

Everything here is plain ``Fraction`` arithmetic written for the benchmark:
its own Gaussian elimination, LP and NLP file readers, a sparse-polynomial
representation with its own derivative, and its own reader for the
canonical gross-number text.  A checker returns None when the answer is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Matrix = Sequence[Sequence[Fraction]]
Poly = Dict[Tuple[int, ...], Fraction]
Series = Dict[int, Fraction]


# -- exact linear algebra ---------------------------------------------------------


def solve_exact(matrix: Matrix, rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """Gauss-Jordan solve of a square system; None when it is singular."""
    n = len(matrix)
    rows = [[Fraction(v) for v in matrix[i]] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = [v / scale for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [rows[i][n] for i in range(n)]


# -- linear programs ----------------------------------------------------------------


def check_lp_optimal(a: Matrix, b, c, x, value, basis) -> Optional[str]:
    """Optimality certificate of a returned basis for min c.x, Ax = b, x >= 0.

    Recomputes x_B from the basis, checks Ax = b and x >= 0 at the returned
    point, nonnegative reduced costs from the basis duals, and c.x = value.
    """
    m, n = len(a), len(c)
    if x is None or value is None or basis is None:
        return "no point, value or basis returned"
    basis = tuple(basis)
    if len(basis) != m or len(set(basis)) != m or not all(0 <= j < n for j in basis):
        return f"basis {basis} is not {m} distinct columns"
    if len(x) != n:
        return f"point has length {len(x)}, expected {n}"
    basis_matrix = [[a[i][j] for j in basis] for i in range(m)]
    xb = solve_exact(basis_matrix, b)
    if xb is None:
        return "basis matrix is singular"
    expected = [Fraction(0)] * n
    for position, j in enumerate(basis):
        expected[j] = xb[position]
    if list(x) != expected:
        return "returned point is not the basic solution of the returned basis"
    for i in range(m):
        if sum(a[i][j] * x[j] for j in range(n)) != b[i]:
            return f"row {i + 1} of Ax = b fails"
    if any(v < 0 for v in x):
        return "returned point has a negative entry"
    duals = solve_exact([[a[i][j] for i in range(m)] for j in basis], [c[j] for j in basis])
    for j in range(n):
        reduced = c[j] - sum(a[i][j] * duals[i] for i in range(m))
        if reduced < 0:
            return f"reduced cost of column {j + 1} is negative ({reduced})"
    if sum(cj * xj for cj, xj in zip(c, x)) != value:
        return f"c.x differs from the returned value {value}"
    return None


def lp_optimum_by_vertices(a: Matrix, b, c) -> Optional[Fraction]:
    """Least c.x over all basic feasible solutions (small LPs only)."""
    m, n = len(a), len(c)
    best = None
    for columns in itertools.combinations(range(n), m):
        xb = solve_exact([[a[i][j] for j in columns] for i in range(m)], b)
        if xb is None or any(v < 0 for v in xb):
            continue
        value = sum(c[j] * v for j, v in zip(columns, xb))
        if best is None or value < best:
            best = value
    return best


def read_lp_text(text: str):
    """(A, b, c) from the line-oriented LP file format."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    m, n = (int(v) for v in lines[0].split())
    c = [Fraction(v) for v in lines[1].removeprefix("c:").split()]
    a = [[Fraction(v) for v in lines[2 + i].removeprefix("A:").split()] for i in range(m)]
    b = [Fraction(v) for v in lines[2 + m].removeprefix("b:").split()]
    if len(c) != n or any(len(row) != n for row in a) or len(b) != m:
        raise ValueError("LP text does not match its header")
    return a, b, c


# -- polynomial programs --------------------------------------------------------------


def _poly_add(p: Poly, q: Poly, sign: int = 1) -> Poly:
    out = dict(p)
    for e, v in q.items():
        out[e] = out.get(e, Fraction(0)) + sign * v
    return {e: v for e, v in out.items() if v != 0}


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, v1 in p.items():
        for e2, v2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + v1 * v2
    return {e: v for e, v in out.items() if v != 0}


def poly_derivative(p: Poly, k: int) -> Poly:
    return {
        e[:k] + (e[k] - 1,) + e[k + 1:]: v * e[k]
        for e, v in p.items() if e[k] > 0
    }


def poly_value(p: Poly, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for e, v in p.items():
        term = v
        for xi, power in zip(point, e):
            term *= xi ** power
        total += term
    return total


def _constant(n: int, value) -> Poly:
    return {(0,) * n: Fraction(value)} if value else {}


class _PolyReader:
    """expr := term (('+'|'-') term)*;  term := factor ('*' factor)*;
    factor := ['-'] atom ['^' uint];  atom := rational | 'x' uint | '(' expr ')'."""

    _TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|x\d+|[-+*^()])")

    def __init__(self, text: str, n: int):
        self.n = n
        self.tokens = []
        pos = 0
        while pos < len(text.rstrip()):
            match = self._TOKEN.match(text, pos)
            if not match:
                raise ValueError(f"cannot read polynomial at {text[pos:]!r}")
            self.tokens.append(match.group(1))
            pos = match.end()
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def take(self) -> str:
        token = self.peek()
        self.pos += 1
        return token

    def expr(self) -> Poly:
        value = self.term()
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            value = _poly_add(value, self.term(), sign)
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = _poly_mul(value, self.factor())
        return value

    def factor(self) -> Poly:
        negate = self.peek() == "-"
        if negate:
            self.take()
        value = self.atom()
        if self.peek() == "^":
            self.take()
            base, value = value, _constant(self.n, 1)
            for _ in range(int(self.take())):
                value = _poly_mul(value, base)
        return _poly_add({}, value, -1) if negate else value

    def atom(self) -> Poly:
        token = self.take()
        if token == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return value
        if token.startswith("x"):
            index = int(token[1:]) - 1
            return {tuple(1 if i == index else 0 for i in range(self.n)): Fraction(1)}
        return _constant(self.n, Fraction(token))


def read_poly(text: str, n: int) -> Poly:
    reader = _PolyReader(text, n)
    value = reader.expr()
    if reader.pos != len(reader.tokens):
        raise ValueError(f"trailing input in {text!r}")
    return value


@dataclass
class NlpData:
    """min f  s.t.  each g <= 0, each h = 0, as sparse polynomials."""

    n: int
    f: Poly
    gs: List[Poly]
    hs: List[Poly]


def read_nlp_text(text: str) -> NlpData:
    n = None
    f, gs, hs = None, [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            n = int(line.split()[1])
            continue
        tag, body = (part.strip() for part in line.split(":", 1))
        poly = read_poly(body, n)
        if tag == "f":
            f = poly
        else:
            (gs if tag == "g" else hs).append(poly)
    return NlpData(n, f, gs, hs)


def ladder_nlp(weights: Sequence[int], bounds: Dict[int, Fraction]) -> NlpData:
    """f = sum w_k/2 x_k^2,  g_k = c_k - x_k for the bounded k (ascending),
    h = sum x_k - 1."""
    n = len(weights)

    def unit(k: int, power: int = 1) -> Tuple[int, ...]:
        return tuple(power if i == k else 0 for i in range(n))

    f = {unit(k, 2): Fraction(w, 2) for k, w in enumerate(weights)}
    gs = [_poly_add(_constant(n, bounds[k]), {unit(k): Fraction(-1)}) for k in sorted(bounds)]
    h = _poly_add({unit(k): Fraction(1) for k in range(n)}, _constant(n, -1))
    return NlpData(n, f, gs, [h])


def check_kkt(problem: NlpData, x0, mu, pi) -> Optional[str]:
    """All KKT residuals at (x0, mu, pi) must be exactly zero."""
    if len(x0) != problem.n or len(mu) != len(problem.gs) or len(pi) != len(problem.hs):
        return (
            f"certificate lengths x0={len(x0)} mu={len(mu)} pi={len(pi)} do not match "
            f"n={problem.n}, {len(problem.gs)} inequalities, {len(problem.hs)} equalities"
        )
    for k in range(problem.n):
        total = poly_value(poly_derivative(problem.f, k), x0)
        total += sum(m * poly_value(poly_derivative(g, k), x0) for m, g in zip(mu, problem.gs))
        total += sum(p * poly_value(poly_derivative(h, k), x0) for p, h in zip(pi, problem.hs))
        if total != 0:
            return f"stationarity residual {total} in x{k + 1}"
    for j, h in enumerate(problem.hs):
        if poly_value(h, x0) != 0:
            return f"equality {j + 1} is violated"
    for i, (m, g) in enumerate(zip(mu, problem.gs)):
        value = poly_value(g, x0)
        if value > 0:
            return f"inequality {i + 1} is violated"
        if m < 0:
            return f"multiplier {i + 1} is negative"
        if m * value != 0:
            return f"complementarity fails for inequality {i + 1}"
    return None


# -- gross-number text -------------------------------------------------------------------

_SERIES_TERM = re.compile(r"(\d+(?:/\d+)?)?(G(?:\^(-?\d+))?)?")


def read_series(text: str) -> Series:
    """Canonical gross-number text ("3/2G - 1/4 + 1/8G^-1") as {power: digit}."""
    text = text.strip()
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    signs = [1] + [1 if s == "+" else -1 for s in parts[1::2]]
    series: Series = {}
    last_power = None
    for sign, term in zip(signs, parts[0::2]):
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        match = _SERIES_TERM.fullmatch(term)
        if not term or not match:
            raise ValueError(f"not a gross-number term: {term!r}")
        digit = Fraction(match.group(1)) if match.group(1) else Fraction(1)
        power = 0 if not match.group(2) else int(match.group(3) or 1)
        if digit == 0 or (last_power is not None and power >= last_power):
            raise ValueError(f"terms of {text!r} are not canonical")
        series[power] = sign * digit
        last_power = power
    return series


def _series_mul(a: Series, b: Series) -> Series:
    out: Series = {}
    for pa, da in a.items():
        for pb, db in b.items():
            out[pa + pb] = out.get(pa + pb, Fraction(0)) + da * db
    return {p: d for p, d in out.items() if d != 0}


def check_quotient(a: Series, b: Series, q: Series, order: int) -> Optional[str]:
    """Residual bound of truncated division: leading(a - q*b) <= leading(a) - K."""
    product = _series_mul(q, b)
    residual = {p: a.get(p, Fraction(0)) - product.get(p, Fraction(0)) for p in set(a) | set(product)}
    residual = {p: d for p, d in residual.items() if d != 0}
    if not residual:
        return None
    if not a:
        return "quotient of zero is nonzero"
    if max(residual) > max(a) - order:
        return f"residual has grosspower {max(residual)} > {max(a)} - {order}"
    return None


def read_vector(line: str, label: str) -> List[Fraction]:
    """Read "label = (v1, v2)" into Fractions."""
    prefix = f"{label} = ("
    if not line.startswith(prefix) or not line.endswith(")"):
        raise ValueError(f"expected {prefix}...) , got {line!r}")
    body = line[len(prefix):-1]
    return [Fraction(v) for v in body.split(", ")] if body else []
