from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lecalc import (
    Ideal,
    MathematicalRefusal,
    MonomialOrder,
    Polynomial,
    VariableFrame,
    colength,
    colength_at_origin,
    contains,
    dim_at_origin,
    eliminate,
    equal_ideals,
    groebner_basis,
    ideal_quotient,
    ideal_sum,
    intersect,
    krull_dimension,
    maximal_ideal,
    multiplicity_at_origin,
    normal_form,
    parse_polynomial,
    saturate,
    unit_ideal,
    zero_ideal,
)
from lecalc.groebner import is_unit_ideal, is_zero_ideal

F2 = VariableFrame(("x", "y"))
F3 = VariableFrame(("x", "y", "z"))


def I(frame, *texts):
    return Ideal(frame, [parse_polynomial(t, frame) for t in texts])


def P(text, frame=F2):
    return parse_polynomial(text, frame)


class TestBasis:
    def test_lex_basis_is_canonical(self):
        ideal = I(F2, "x^2 + y", "x*y + x")
        gb = groebner_basis(ideal, MonomialOrder.lex(F2))
        strings = [g.to_string() for g in gb]
        # monic, autoreduced, sorted with descending leading monomials;
        # V = {(0,0), (1,-1), (-1,-1)}, hence the factor y*(y+1)
        assert strings == ["x^2 + y", "x*y + x", "y^2 + y"]

    def test_generator_order_irrelevant(self):
        a = I(F2, "x^2 - y^3", "x*y - x")
        b = I(F2, "x*y - x", "x^2 - y^3")
        assert [g.to_string() for g in groebner_basis(a)] == [
            g.to_string() for g in groebner_basis(b)
        ]

    def test_zero_ideal_empty_basis(self):
        assert groebner_basis(zero_ideal(F2)) == []

    def test_unit_collapse(self):
        gb = groebner_basis(I(F2, "x", "x + 1"))
        assert [g.to_string() for g in gb] == ["1"]

    def test_normal_form_idempotent(self):
        ideal = I(F2, "x^2", "y^2")
        r = normal_form(P("x^2*y + y + x^3"), ideal)
        assert r == P("y")
        assert normal_form(r, ideal) == r

    def test_normal_form_membership(self):
        ideal = I(F2, "x^2 - y", "y^2 - x*y")
        member = P("x^2 - y") * P("x + y^2") + P("y^2 - x*y") * P("x^5 - 1")
        assert normal_form(member, ideal).is_zero()
        assert contains(ideal, member)

    def test_containment_and_equality(self):
        a = I(F2, "x + y")
        b = I(F2, "2*x + 2*y")
        assert equal_ideals(a, b)
        assert not equal_ideals(a, I(F2, "x - y"))


class TestElimination:
    def test_projection_of_graph(self):
        frame = VariableFrame(("w", "x", "y"))
        ideal = I(frame, "w - x^2", "w - y")
        out = eliminate(ideal, ["w"])
        assert [g.to_string() for g in groebner_basis(out)] == ["x^2 - y"]
        assert out.frame.names == ("x", "y")

    def test_eliminate_everything_rejected(self):
        from lecalc import InputError

        with pytest.raises(InputError):
            eliminate(I(F2, "x - y"), ["x", "y"])

    def test_block_order_separates(self):
        order = MonomialOrder.block_elimination(F3, ["z"])
        gb = groebner_basis(I(F3, "z - x^2", "z - y"), order)
        assert any(g.variables_used() == ("x", "y") for g in gb)


class TestQuotientSaturation:
    def test_quotient_strips_one_factor(self):
        assert equal_ideals(ideal_quotient(I(F2, "x^2*y"), I(F2, "x")), I(F2, "x*y"))

    @pytest.mark.parametrize(
        "gens, divisors, expected",
        [
            (("-2",), ("0", "-2"), ("1",)),
            (("2*x^2*y", "4*x*y^2"), ("3*x",), ("x*y", "y^2")),
            (("x^2*y", "x*y^2"), ("x", "y"), ("x*y",)),
        ],
    )
    def test_quotient_is_its_reduced_basis(self, gens, divisors, expected):
        # with one nonzero generator g in J the quotient comes from the
        # divisions h / g, which are neither monic nor reduced by themselves
        quotient = ideal_quotient(I(F2, *gens), I(F2, *divisors))
        assert list(quotient.generators) == groebner_basis(quotient)
        assert list(quotient.generators) == [P(t) for t in expected]

    def test_saturate_removes_component(self):
        assert equal_ideals(saturate(I(F2, "x*y"), I(F2, "x")), I(F2, "y"))

    def test_saturate_embedded_point(self):
        # (x^2, x*y) is the x-axis with an embedded point at the origin
        sat = saturate(I(F2, "x^2", "x*y"), maximal_ideal(F2))
        assert equal_ideals(sat, I(F2, "x"))

    def test_saturate_to_unit(self):
        assert is_unit_ideal(saturate(I(F2, "x^2"), I(F2, "x")))

    def test_saturate_idempotent(self):
        ideal = I(F2, "x^2*y - y^3")
        once = saturate(ideal, I(F2, "y"))
        twice = saturate(once, I(F2, "y"))
        assert equal_ideals(once, twice)

    def test_saturate_by_unit_is_identity(self):
        ideal = I(F2, "x^2 - y^3")
        assert equal_ideals(saturate(ideal, unit_ideal(F2)), ideal)

    def test_multi_generator_saturation_matches_intersection(self):
        ideal = I(F2, "x^2*y^2 - x^2*y^3")
        m = maximal_ideal(F2)
        direct = saturate(ideal, m)
        split = intersect(saturate(ideal, I(F2, "x")), saturate(ideal, I(F2, "y")))
        assert equal_ideals(direct, split)

    def test_intersect(self):
        assert equal_ideals(intersect(I(F2, "x"), I(F2, "y")), I(F2, "x*y"))

    def test_sum(self):
        assert equal_ideals(ideal_sum(I(F2, "x"), I(F2, "y")), maximal_ideal(F2))


class TestDimension:
    def test_krull_values(self):
        assert krull_dimension(zero_ideal(F3)) == 3
        assert krull_dimension(I(F3, "x*y", "x*z")) == 2
        assert krull_dimension(I(F3, "x", "y", "z")) == 0
        assert krull_dimension(unit_ideal(F3)) == -1

    def test_dim_at_origin_unit(self):
        assert dim_at_origin(I(F2, "x + 1")) == -1

    def test_dim_at_origin_isolated(self):
        assert dim_at_origin(I(F2, "x^2", "y^3")) == 0

    def test_dim_at_origin_curve(self):
        assert dim_at_origin(I(F2, "x^2 - y^3")) == 1

    def test_dim_at_origin_sees_only_local_part(self):
        # the line y = 0 through the origin plus the far point (1, 1)
        far = I(F2, "y*(x - 1)", "y*(y - 1)")
        assert dim_at_origin(far) == 1
        assert krull_dimension(far) == 1

    def test_dim_at_origin_local_point_plus_far_curve(self):
        # origin is isolated although the ideal has a 1-dimensional part
        ideal = I(F2, "x*(x - 1)", "y*(x - 1)")
        assert dim_at_origin(ideal) == 0
        assert krull_dimension(ideal) == 1


class TestColength:
    def test_global_colength(self):
        assert colength(I(F2, "x^2", "y^3")) == 6
        assert colength(I(F2, "x^2", "x*y", "y^3")) == 4

    def test_colength_refuses_positive_dimension(self):
        with pytest.raises(MathematicalRefusal):
            colength(I(F2, "x"))

    def test_colength_at_origin_splits_far_points(self):
        # x^2 = x at x in {0, 1}; only the reduced origin point counts
        assert colength_at_origin(I(F2, "x^2 - x", "y")) == 1
        assert colength(I(F2, "x^2 - x", "y")) == 2

    def test_multiplicity_far_component_ignored(self):
        # reduced point at the origin plus the line x = 1
        assert multiplicity_at_origin(I(F2, "x*(x - 1)", "y*(x - 1)")) == 1

    def test_multiplicity_empty(self):
        assert multiplicity_at_origin(I(F2, "x - 1", "y - 1")) == 0

    def test_multiplicity_refuses_positive_local_dimension(self):
        with pytest.raises(MathematicalRefusal):
            multiplicity_at_origin(I(F2, "x*y"))

    def test_plane_curve_intersection_number(self):
        # classical intersection multiplicity of a cusp with a line
        assert multiplicity_at_origin(I(F2, "x^2 - y^3", "y")) == 2
        assert multiplicity_at_origin(I(F2, "x^2 - y^3", "x")) == 3


@st.composite
def _staircase(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    frame = F2 if n == 2 else F3
    monos = []
    for i in range(n):
        e = [0] * n
        e[i] = draw(st.integers(min_value=1, max_value=4))
        monos.append(Polynomial(frame, {tuple(e): Fraction(1)}))
    extra = draw(st.integers(min_value=0, max_value=2))
    for _ in range(extra):
        exp = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
        monos.append(Polynomial(frame, {exp: Fraction(1)}))
    return frame, monos


class TestProperties:
    @given(_staircase())
    def test_monomial_colength_matches_counting(self, case):
        from lecalc import monomial_colength

        frame, monos = case
        assert colength(Ideal(frame, monos)) == monomial_colength(monos).value

    @given(_staircase())
    def test_normal_form_of_members_vanishes(self, case):
        frame, monos = case
        ideal = Ideal(frame, monos)
        combo = Polynomial.zero(frame)
        for i, m in enumerate(monos):
            combo = combo + m * Polynomial.constant(frame, i + 1)
        assert normal_form(combo, ideal).is_zero()

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    def test_powers_of_maximal_ideal(self, a, b):
        ideal = I(F2, "x^%d" % a, "y^%d" % b)
        assert colength(ideal) == a * b
        assert dim_at_origin(ideal) == 0


def _saturate_by_colon_fixpoint(I, J):
    """Reference saturation: iterate (I : J) until the ideal stops moving."""
    prev = I
    while True:
        nxt = ideal_quotient(prev, J)
        if equal_ideals(nxt, prev):
            return nxt
        prev = nxt


@st.composite
def _small_polynomial(draw, frame):
    n = frame.ambient_dimension
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        exp = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(n))
        terms[exp] = Fraction(draw(st.sampled_from((-2, -1, 1, 2))))
    return Polynomial(frame, terms)


@st.composite
def _saturation_case(draw):
    frame = draw(st.sampled_from((F2, F3)))
    gens = draw(st.lists(_small_polynomial(frame), min_size=1, max_size=2))
    # a variable factor gives a component or embedded point to saturate away
    gens[0] = gens[0] * Polynomial.variable(frame, draw(st.sampled_from(frame.names)))
    ideal = Ideal(frame, gens)
    if draw(st.booleans()):
        return ideal, maximal_ideal(frame)
    gens = draw(st.lists(_small_polynomial(frame), min_size=1, max_size=3))
    if len(gens) < 2 or (len(gens) < 3 and draw(st.booleans())):
        gens.insert(draw(st.integers(min_value=0, max_value=len(gens))), Polynomial.zero(frame))
    return ideal, Ideal(frame, gens)


class TestSaturationIdentity:
    # (I : J^infinity) is the intersection of the (I : g^infinity) over the
    # generators g of J; the colon fixpoint computes the same ideal without
    # using that identity
    @given(_saturation_case())
    @example((I(F2, "x^2", "x*y"), maximal_ideal(F2)))
    @example((I(F3, "x*y*z"), I(F3, "0", "x", "y + z")))
    @example((I(F2, "x^2*y - y^2"), I(F2, "0", "0")))
    @example((I(F3, "x*z - y^2", "x^2*y"), maximal_ideal(F3)))
    def test_saturate_matches_colon_fixpoint(self, case):
        ideal, J = case
        sat = saturate(ideal, J)
        ref = _saturate_by_colon_fixpoint(ideal, J)
        assert equal_ideals(sat, ref)
        # saturate hands back the reduced basis itself as generators, so
        # everything built from them downstream is canonical
        reduced = groebner_basis(ref) or [Polynomial.zero(ideal.frame)]
        assert list(sat.generators) == reduced


def test_is_zero_ideal():
    assert is_zero_ideal(zero_ideal(F2))
    assert is_zero_ideal(I(F2, "0"))
    assert not is_zero_ideal(I(F2, "x"))
