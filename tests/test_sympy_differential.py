"""Differential test of groebner_basis against SymPy's Groebner engine.

SymPy is a test-only dependency; the module is skipped without it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lecalc import Ideal, MonomialOrder, Polynomial, VariableFrame, groebner_basis

sympy = pytest.importorskip("sympy")

F2 = VariableFrame(("x", "y"))
F3 = VariableFrame(("x", "y", "z"))

ORDERS = {
    "grevlex": MonomialOrder.degrevlex,
    "lex": MonomialOrder.lex,
}


@st.composite
def _small_ideal(draw):
    frame = draw(st.sampled_from((F2, F3)))
    n = frame.ambient_dimension
    gens = []
    for _ in range(draw(st.integers(min_value=2, max_value=n))):
        terms = {}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            exp = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
            terms[exp] = Fraction(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))
        gens.append(Polynomial(frame, terms))
    return Ideal(frame, gens)


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


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@given(_small_ideal())
def test_reduced_basis_matches_sympy(order_name, ideal):
    order = ORDERS[order_name](ideal.frame)
    ours = [g.terms for g in groebner_basis(ideal, order)]
    assert ours == _sympy_reduced_basis(ideal, order_name, order)
