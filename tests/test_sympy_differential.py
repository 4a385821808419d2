"""Differential tests of the ideal operations against SymPy.

groebner_basis and eliminate are compared with SymPy's Groebner engine,
intersect and ideal_quotient with the ideals of SymPy's old polynomial
rings. Every comparison is by reduced bases, so it does not depend on the
generators either side returns. SymPy is a test-only dependency; the
module is skipped without it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lecalc import (
    Ideal,
    MonomialOrder,
    Polynomial,
    VariableFrame,
    eliminate,
    groebner_basis,
    ideal_quotient,
    intersect,
)

sympy = pytest.importorskip("sympy")

F2 = VariableFrame(("x", "y"))
F3 = VariableFrame(("x", "y", "z"))

# integers and rationals, so that clearing denominators is exercised
COEFFICIENTS = tuple(Fraction(c) for c in (-3, -2, -1, 1, 2, 3)) + (
    Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-7, 5),
)

ORDERS = {
    "grevlex": MonomialOrder.degrevlex,
    "lex": MonomialOrder.lex,
}


def _generators(draw, frame, count, max_exp):
    n = frame.ambient_dimension
    gens = []
    for _ in range(count):
        terms = {}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            exp = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(n))
            terms[exp] = draw(st.sampled_from(COEFFICIENTS))
        gens.append(Polynomial(frame, terms))
    return gens


@st.composite
def _small_ideal(draw):
    frame = draw(st.sampled_from((F2, F3)))
    count = draw(st.integers(min_value=2, max_value=frame.ambient_dimension))
    return Ideal(frame, _generators(draw, frame, count, 3))


@st.composite
def _ideal_pair(draw):
    # kept smaller than _small_ideal: SymPy's module-based intersection
    # and quotient grow fast with the degree
    frame = draw(st.sampled_from((F2, F3)))
    first = _generators(draw, frame, draw(st.integers(min_value=1, max_value=2)), 2)
    second = _generators(draw, frame, draw(st.integers(min_value=1, max_value=2)), 2)
    return Ideal(frame, first), Ideal(frame, second)


def _to_sympy(p, symbols):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s ** e for s, e in zip(symbols, exp)])
        for exp, c in p.terms.items()
    ])


def _sympy_reduced_basis(ideal, order_name, order):
    """SymPy's reduced basis as monic term dicts, sorted like lecalc's."""
    symbols = sympy.symbols(ideal.frame.names)
    exprs = [_to_sympy(g, symbols) for g in ideal.generators]
    return _reduced_basis_of(exprs, symbols, order_name, order)


def _reduced_basis_of(exprs, symbols, order_name, order):
    exprs = [e for e in exprs if e != 0]
    if not exprs:
        return []
    key = order.key()
    out = []
    for g in sympy.groebner(exprs, *symbols, order=order_name, domain=sympy.QQ).exprs:
        terms = {
            exp: Fraction(int(c.p), int(c.q))
            for exp, c in sympy.Poly(g, *symbols, domain=sympy.QQ).terms()
        }
        lc = terms[max(terms, key=key)]
        out.append({exp: c / lc for exp, c in terms.items()})
    out.sort(key=lambda t: key(max(t, key=key)), reverse=True)
    return out


def _our_reduced_basis(ideal):
    return [g.terms for g in groebner_basis(ideal, MonomialOrder.degrevlex(ideal.frame))]


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@given(_small_ideal())
def test_reduced_basis_matches_sympy(order_name, ideal):
    order = ORDERS[order_name](ideal.frame)
    ours = [g.terms for g in groebner_basis(ideal, order)]
    assert ours == _sympy_reduced_basis(ideal, order_name, order)


@given(_small_ideal())
def test_eliminate_matches_sympy_lex_basis(ideal):
    # the elements of a lex basis free of the first variable generate the
    # elimination ideal
    symbols = sympy.symbols(ideal.frame.names)
    first, rest = symbols[0], symbols[1:]
    exprs = [_to_sympy(g, symbols) for g in ideal.generators]
    lex = sympy.groebner(exprs, *symbols, order="lex", domain=sympy.QQ).exprs
    kept = [g for g in lex if first not in g.free_symbols]
    ours = eliminate(ideal, ideal.frame.names[:1])
    order = MonomialOrder.degrevlex(ours.frame)
    assert _our_reduced_basis(ours) == _reduced_basis_of(kept, rest, "grevlex", order)


def _sympy_ring_ideals(I, J):
    symbols = sympy.symbols(I.frame.names)
    ring = sympy.QQ.old_poly_ring(*symbols)
    return symbols, ring, [
        ring.ideal(*[_to_sympy(g, symbols) for g in ideal.generators]) for ideal in (I, J)
    ]


@given(_ideal_pair())
def test_intersect_matches_sympy(pair):
    I, J = pair
    symbols, ring, (si, sj) = _sympy_ring_ideals(I, J)
    theirs = [ring.to_sympy(g) for g in si.intersect(sj).gens]
    order = MonomialOrder.degrevlex(I.frame)
    assert _our_reduced_basis(intersect(I, J)) == _reduced_basis_of(
        theirs, symbols, "grevlex", order
    )


@given(_ideal_pair())
def test_ideal_quotient_matches_sympy(pair):
    I, J = pair
    symbols, ring, (si, sj) = _sympy_ring_ideals(I, J)
    theirs = [ring.to_sympy(g) for g in si.quotient(sj).gens]
    order = MonomialOrder.degrevlex(I.frame)
    assert _our_reduced_basis(ideal_quotient(I, J)) == _reduced_basis_of(
        theirs, symbols, "grevlex", order
    )
