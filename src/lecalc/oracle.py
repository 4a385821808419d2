"""Independent cross-checks computed without the Groebner engine.

Each oracle attacks a special class of inputs with a method of its own:
truncated-jet linear algebra for Milnor numbers, the join formula for sums
of polynomials in disjoint variables, the factor count for homogeneous
plane curves, and a staircase count for monomial ideals. Pipelines and
tests compare against these to certify the main computation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .polyparse import (
    InputError,
    MathematicalRefusal,
    Polynomial,
    VariableFrame,
)

Exponent = Tuple[int, ...]


class OracleResult:
    """Value plus the method that produced it and a small certificate."""

    __slots__ = ("value", "method", "certificate")

    def __init__(self, value: int, method: str, certificate: dict):
        self.value = value
        self.method = method
        self.certificate = certificate

    def __repr__(self) -> str:
        return "OracleResult(%r, %r)" % (self.value, self.method)

    def __eq__(self, other) -> bool:
        if isinstance(other, OracleResult):
            return (self.value, self.method) == (other.value, other.method)
        return NotImplemented


# -- Milnor number by truncated jets -------------------------------------------

def _jet_colengths(partials: Sequence[Polynomial], n: int, degree_bound: int) -> Iterator[int]:
    """Yield c(K), the codimension of the span of the monomial multiples of
    the partials inside the jets of order below K, for K = 2, ..., degree_bound.

    One echelon grows with K. A row x^a * g is built and reduced once, at the
    step where its lowest-degree term first has degree K - 1, that is
    |a| + ord(g) = K - 1; the multiples not yet built at step K vanish
    modulo m^K. The pivot of a row is its lowest-degree monomial, ties
    broken by ascending exponent tuple. A row added at step K starts at
    degree K - 1, and reducing it only subtracts rows whose pivot, and so
    every term, is of degree K - 1 or more, so no pivot below degree K
    moves after step K. Under a fixed total order the pivots of an echelon
    are the leading monomials of its span, whichever way it was reduced,
    and the elements of the span that vanish modulo m^K are exactly those
    led by a pivot of degree K or more. The rank modulo m^K is therefore
    the number of pivots of degree below K, and c(K) = C(K - 1 + n, n)
    minus that number.

    Rows are primitive integer dicts: each partial is cleared of
    denominators once, rows are reduced fraction-free (scaled by lc/gcd)
    and divided by their content when they join the echelon. Terms of
    degree degree_bound and above never count towards any c(K) and are
    dropped.
    """
    gens: List[Tuple[int, Dict[Tuple[int, ...], int]]] = []
    for g in partials:
        if g.is_zero():
            continue
        den = math.lcm(*(c.denominator for c in g.terms.values()))
        ints = {e: c.numerator * (den // c.denominator) for e, c in g.terms.items()}
        content = math.gcd(*ints.values())
        # monomials as (degree, *exponents), so the plain tuple minimum is
        # the pivot under the local order
        gens.append(
            (g.min_total_degree(), {(sum(e),) + e: c // content for e, c in ints.items()})
        )
    # pivot monomial -> row, each with a positive pivot coefficient
    echelon: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {}
    pivots_of_degree = [0] * degree_bound
    rank_below = 0
    for low in range(degree_bound):
        for order, g in gens:
            if order > low:
                continue
            for combo in itertools.combinations_with_replacement(range(n), low - order):
                shift = [len(combo)] + [0] * n
                for i in combo:
                    shift[i + 1] += 1
                row = {}
                for t, c in g.items():
                    if t[0] + shift[0] < degree_bound:
                        row[tuple(map(add, t, shift))] = c
                while row:
                    pivot = min(row)
                    other = echelon.get(pivot)
                    if other is None:
                        content = math.gcd(*row.values())
                        if row[pivot] < 0:
                            content = -content
                        if content != 1:
                            row = {t: c // content for t, c in row.items()}
                        echelon[pivot] = row
                        pivots_of_degree[pivot[0]] += 1
                        break
                    # row * (lc(other)/h) - other * (lc(row)/h) cancels the pivot
                    h = math.gcd(row[pivot], other[pivot])
                    mult, factor = other[pivot] // h, row[pivot] // h
                    if mult != 1:
                        row = {t: c * mult for t, c in row.items()}
                    for t, c in other.items():
                        v = row.get(t, 0) - factor * c
                        if v:
                            row[t] = v
                        else:
                            del row[t]
        # pivots of degree low are final once the rows starting there are in
        rank_below += pivots_of_degree[low]
        if low:
            yield math.comb(low + n, n) - rank_below


def milnor_via_macaulay(f: Polynomial, degree_bound: int = 24) -> OracleResult:
    """Milnor number at the origin by rank computations on truncated jets.

    c(K) = dim O/(J + m^K), for the Jacobian ideal J, is read off one
    integer echelon of the monomial multiples of the partials that grows
    with K under a local pivot order (see `_jet_colengths`). c(K) is
    monotone in K, and two consecutive equal values give m^K inside J by
    Nakayama, so they certify stabilization. Failure to stabilize by
    K = degree_bound means the critical locus is not isolated.
    """
    if f.is_constant():
        raise InputError("constant polynomial has no Milnor number")
    n = f.frame.ambient_dimension
    partials = [f.partial(i) for i in range(n)]
    prev: Optional[int] = None
    for K, c in enumerate(_jet_colengths(partials, n, degree_bound), start=2):
        if c == prev:
            return OracleResult(
                c,
                "macaulay",
                {"stabilized_at": K, "jet_dimension": math.comb(K - 1 + n, n)},
            )
        prev = c
    raise MathematicalRefusal(
        "jet codimensions did not stabilize by degree %d; the critical locus is not isolated"
        % degree_bound
    )


# -- univariate helpers ----------------------------------------------------------

def _u_trim(a: List[Fraction]) -> List[Fraction]:
    while a and not a[-1]:
        a.pop()
    return a


def _u_deriv(a: List[Fraction]) -> List[Fraction]:
    return _u_trim([a[i] * i for i in range(1, len(a))])


def _u_mod(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(a) - 1 >= db and a:
        factor = a[-1] / lead
        shift = len(a) - 1 - db
        for i in range(len(b)):
            a[shift + i] -= factor * b[i]
        a = _u_trim(a)
    return a


def _u_gcd_degree(a: List[Fraction], b: List[Fraction]) -> int:
    a = _u_trim(list(a))
    b = _u_trim(list(b))
    while b:
        a, b = b, _u_mod(a, b)
    return len(a) - 1 if a else -1


# -- homogeneous plane curves -----------------------------------------------------

def chi_homogeneous_plane(f: Polynomial) -> OracleResult:
    """Euler characteristic of the Milnor fibre of a nonzero homogeneous
    polynomial in two variables: n * (2 - r) for degree n with r distinct
    linear factors."""
    frame = f.frame
    if frame.ambient_dimension != 2:
        raise InputError("homogeneous plane oracle needs exactly two variables")
    if f.is_zero():
        raise InputError("zero polynomial has no Milnor fibre")
    if not f.is_homogeneous():
        raise InputError("polynomial is not homogeneous")
    n = f.total_degree()
    if n == 0:
        raise InputError("polynomial does not vanish at the origin")
    # u(t) = f(t, 1); the second variable contributes one more factor when
    # it divides f, which shows as a degree drop
    u = [Fraction(0)] * (n + 1)
    for (a, b), c in f.terms.items():
        u[a] = c
    u = _u_trim(u)
    du = len(u) - 1
    if du <= 0:
        r0 = 0
    else:
        g = _u_gcd_degree(u, _u_deriv(u))
        r0 = du - max(g, 0)
    r = r0 + (1 if du < n else 0)
    chi = n * (2 - r)
    return OracleResult(chi, "homogeneous_fibre", {"degree": n, "distinct_factors": r})


# -- sums in disjoint variables ----------------------------------------------------

def _restrict(p: Polynomial, names: Tuple[str, ...]) -> Polynomial:
    """Terms of p supported inside the named block, as a polynomial on it."""
    sub = VariableFrame(names)
    idx = [p.frame.index[nm] for nm in names]
    inside = set(idx)
    out: Dict[Exponent, Fraction] = {}
    for e, c in p.terms.items():
        if all(v == 0 or i in inside for i, v in enumerate(e)):
            out[tuple(e[i] for i in idx)] = c
    return Polynomial(sub, out)


def chi_thom_sebastiani(f: Polynomial) -> OracleResult:
    """Euler characteristic of the Milnor fibre of a sum of polynomials in
    disjoint variable blocks, by the join formula on reduced Euler
    characteristics. Each block must be univariate or a homogeneous
    polynomial in two variables."""
    if f.is_zero() or f.is_constant():
        raise InputError("need a nonconstant polynomial vanishing at the origin")
    if f.constant_term:
        raise InputError("polynomial does not vanish at the origin")
    frame = f.frame
    used = f.variables_used()
    # connected components of the variable graph, two variables adjacent
    # when they share a term
    parent = {nm: nm for nm in used}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in f.terms:
        support = [frame.names[i] for i, v in enumerate(e) if v]
        for other in support[1:]:
            ra, rb = find(support[0]), find(other)
            if ra != rb:
                parent[rb] = ra
    blocks: Dict[str, List[str]] = {}
    for nm in used:
        blocks.setdefault(find(nm), []).append(nm)
    block_vars = sorted(
        (tuple(sorted(vs, key=frame.index.get)) for vs in blocks.values()),
        key=lambda vs: frame.index[vs[0]],
    )

    reduced = Fraction(1)
    cert_blocks = []
    for names in block_vars:
        part = _restrict(f, names)
        if len(names) == 1:
            ct = part.min_total_degree() - 1
            kind = "univariate"
        elif len(names) == 2 and part.is_homogeneous():
            ct = chi_homogeneous_plane(part).value - 1
            kind = "plane_homogeneous"
        else:
            raise MathematicalRefusal(
                "block (%s) is neither univariate nor homogeneous in two "
                "variables; no disjoint-block decomposition applies" % ", ".join(names)
            )
        cert_blocks.append({"variables": list(names), "kind": kind, "reduced_chi": ct})
        reduced *= ct
    r = len(block_vars)
    reduced_total = (-1) ** (r - 1) * reduced
    chi = 1 + reduced_total
    assert chi.denominator == 1
    return OracleResult(
        int(chi),
        "thom_sebastiani",
        {"blocks": cert_blocks, "reduced_chi": int(reduced_total)},
    )


# -- monomial ideals ------------------------------------------------------------------

def _staircase_count(exps: Sequence[Exponent]) -> int:
    """Number of monomials outside the ideal generated by x^e, e in exps,
    all of one length n, which holds a pure power of every variable.

    A monomial x'^b * x_n^t lies outside exactly when x'^b lies outside the
    ideal of the x'-parts of the generators with e_n <= t. That ideal only
    changes where t reaches a new exponent of x_n, so the count sums, over
    consecutive distinct exponents v < w of x_n, the width w - v times the
    count in n - 1 variables at v. From the pure power of x_n on, the
    x'-parts hold the unit monomial and count nothing."""
    if not exps or not exps[0]:
        # no variables left (given the pure powers, the only place an empty
        # set reaches): the monomial 1 lies outside unless a generator is 1
        return 0 if exps else 1
    by_last: Dict[int, List[Exponent]] = {}
    for e in exps:
        by_last.setdefault(e[-1], []).append(e[:-1])
    total, start, inside = 0, 0, []
    for v in sorted(by_last):
        if v > start:
            total += (v - start) * _staircase_count(inside)
        inside += by_last[v]
        start = v
    return total


def monomial_colength(monomials: Sequence[Polynomial]) -> OracleResult:
    """Colength of a monomial ideal by an exact staircase count that
    recurses on the last variable (`_staircase_count`), a different route
    than the staircase walk in the engine."""
    monomials = list(monomials)
    if not monomials:
        raise InputError("need at least one monomial generator")
    frame = monomials[0].frame
    exps = set()
    for p in monomials:
        if p.frame != frame:
            raise InputError("monomial frames differ")
        if len(p.terms) != 1:
            raise InputError("generator %s is not a monomial" % p)
        exps.add(next(iter(p.terms)))
    E = sorted(exps)
    n = frame.ambient_dimension
    if any(sum(e) == 0 for e in E):
        return OracleResult(0, "monomial_count", {"generators": len(E), "box": [0] * n})
    bounds: List[Optional[int]] = [None] * n
    for e in E:
        support = [i for i, v in enumerate(e) if v]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or e[i] < bounds[i]:
                bounds[i] = e[i]
    if any(b is None for b in bounds):
        raise MathematicalRefusal(
            "monomial ideal has infinite colength (missing a pure power)"
        )
    return OracleResult(
        _staircase_count(E), "monomial_count", {"generators": len(E), "box": list(bounds)}
    )
