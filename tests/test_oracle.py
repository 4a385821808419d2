import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lecalc import _kernel
from lecalc import (
    InputError,
    MathematicalRefusal,
    Polynomial,
    VariableFrame,
    chi_homogeneous_plane,
    chi_thom_sebastiani,
    milnor_via_macaulay,
    monomial_colength,
    parse_polynomial,
)
from lecalc.oracle import _jet_colengths

F1 = VariableFrame(("x",))
F2 = VariableFrame(("x", "y"))
F3 = VariableFrame(("x", "y", "z"))


def P(text, frame=F2):
    return parse_polynomial(text, frame)


class TestMacaulay:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 5), (3, 4), (5, 5)])
    def test_brieskorn(self, p, q):
        r = milnor_via_macaulay(P("x^%d + y^%d" % (p, q)))
        assert r.value == (p - 1) * (q - 1)
        assert r.method == "macaulay"
        assert r.certificate["stabilized_at"] >= 2

    def test_three_variables(self):
        r = milnor_via_macaulay(P("x^2 + y^3 + z^5", F3))
        assert r.value == 8

    def test_ordinary_triple_point(self):
        assert milnor_via_macaulay(P("x^3 - x*y^2")).value == 4

    def test_smooth(self):
        assert milnor_via_macaulay(P("x + y^5")).value == 0

    def test_nonisolated_refused(self):
        with pytest.raises(MathematicalRefusal):
            milnor_via_macaulay(P("x*y^2"))

    def test_univariate(self):
        r = milnor_via_macaulay(parse_polynomial("x^4", F1))
        assert r.value == 3


# -- the jet echelon against the per-K rebuild -----------------------------------

def _jet_colength_reference(partials, n, K):
    """The echelon rebuilt from scratch for one K, over the rationals, with
    the highest monomial in degrevlex as pivot."""
    key = _kernel.make_key((_kernel.KIND_DEGREVLEX, tuple(range(n)), 0))
    echelon = {}

    def reduce_insert(row):
        while row:
            pivot = max(row, key=key)
            got = echelon.get(pivot)
            if got is None:
                inv = Fraction(1) / row[pivot]
                echelon[pivot] = {e: c * inv for e, c in row.items()}
                return
            factor = row[pivot]
            for e, c in got.items():
                v = row.get(e, Fraction(0)) - factor * c
                if v:
                    row[e] = v
                else:
                    row.pop(e, None)

    for g in partials:
        if g.is_zero():
            continue
        room = K - 1 - g.min_total_degree()
        if room < 0:
            continue
        for deg in range(room + 1):
            for combo in itertools.combinations_with_replacement(range(n), deg):
                shift = [0] * n
                for i in combo:
                    shift[i] += 1
                row = {}
                for e, c in g.terms.items():
                    t = tuple(a + b for a, b in zip(e, shift))
                    if sum(t) < K:
                        row[t] = row.get(t, Fraction(0)) + c
                row = {e: c for e, c in row.items() if c}
                if row:
                    reduce_insert(row)
    return math.comb(K - 1 + n, n) - len(echelon)


# integers and rationals, so that clearing denominators is exercised
COEFFICIENTS = tuple(Fraction(c) for c in (-3, -2, -1, 1, 2, 3)) + (
    Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-7, 5),
)
JET_BOUND = 7


def _polynomial(frame, max_degree, min_terms=0):
    n = frame.ambient_dimension
    exponent = st.tuples(*[st.integers(0, max_degree)] * n).filter(
        lambda e: 0 < sum(e) <= max_degree
    )
    terms = st.dictionaries(
        exponent, st.sampled_from(COEFFICIENTS), min_size=min_terms, max_size=4
    )
    return terms.map(lambda terms: Polynomial(frame, terms))


@st.composite
def _partials(draw):
    # any polynomials stand in for the partials: of different orders, some
    # with a constant term, one a rational multiple of a monomial times
    # another, so that ranks hinge on exact coefficients, and one zero
    frame = draw(st.sampled_from((F2, F3)))
    gens = [draw(_polynomial(frame, 3, min_terms=2))]
    gens += draw(st.lists(_polynomial(frame, 3), max_size=2))
    const = draw(st.sampled_from((Fraction(0), Fraction(0), Fraction(-2, 3))))
    gens[0] = gens[0] + Polynomial.constant(frame, const)
    shift = draw(st.tuples(*[st.integers(0, 1)] * frame.ambient_dimension))
    gens.append(gens[0] * Polynomial(frame, {shift: draw(st.sampled_from(COEFFICIENTS))}))
    gens.insert(draw(st.integers(0, len(gens))), Polynomial.zero(frame))
    return frame, gens


@st.composite
def _function(draw):
    frame = draw(st.sampled_from((F2, F3)))
    return draw(_polynomial(frame, 4).filter(lambda f: not f.is_constant()))


class TestJetEchelon:
    @given(_partials())
    def test_colength_sequence_matches_per_k_rebuild(self, drawn):
        frame, partials = drawn
        n = frame.ambient_dimension
        want = [_jet_colength_reference(partials, n, K) for K in range(2, JET_BOUND + 1)]
        assert list(_jet_colengths(partials, n, JET_BOUND)) == want

    @given(_function())
    def test_jacobian_sequence_matches_per_k_rebuild(self, f):
        n = f.frame.ambient_dimension
        partials = [f.partial(i) for i in range(n)]
        want = [_jet_colength_reference(partials, n, K) for K in range(2, JET_BOUND + 1)]
        assert list(_jet_colengths(partials, n, JET_BOUND)) == want

    def test_rank_follows_rational_coefficients(self):
        # 3x + 2y is 6 (x/2 + y/3), so only one linear form is in the span
        partials = [P("1/2*x + 1/3*y"), P("3*x + 2*y"), P("y^3")]
        assert list(_jet_colengths(partials, 2, 4)) == [2, 3, 3]

    @pytest.mark.parametrize(
        "text,frame",
        [("a*b*c*d", VariableFrame(("a", "b", "c", "d"))), ("x^2*y^2 + z^3", F3)],
    )
    def test_nonisolated_refusal_message(self, text, frame):
        with pytest.raises(MathematicalRefusal) as info:
            milnor_via_macaulay(parse_polynomial(text, frame))
        assert str(info.value) == (
            "jet codimensions did not stabilize by degree 24; "
            "the critical locus is not isolated"
        )


class TestHomogeneousPlane:
    def test_values(self):
        # chi of the local fibre of a degree-n form with r distinct roots
        assert chi_homogeneous_plane(P("x*y")).value == 0
        assert chi_homogeneous_plane(P("x*y^2")).value == 0
        assert chi_homogeneous_plane(P("x^2")).value == 2
        assert chi_homogeneous_plane(P("x^3 - x*y^2")).value == -3
        assert chi_homogeneous_plane(P("x^2 + y^2")).value == 0

    def test_method_label(self):
        assert chi_homogeneous_plane(P("x*y")).method == "homogeneous_fibre"

    def test_inhomogeneous_refused(self):
        with pytest.raises((InputError, MathematicalRefusal)):
            chi_homogeneous_plane(P("x^2 + y^3"))

    def test_wrong_arity_refused(self):
        with pytest.raises((InputError, MathematicalRefusal)):
            chi_homogeneous_plane(P("x*y*z", F3))


class TestThomSebastiani:
    def test_brieskorn_three_vars(self):
        r = chi_thom_sebastiani(P("x^3 + y^3 + z^3", F3))
        assert r.value == 9
        assert r.method == "thom_sebastiani"

    def test_mixed_blocks(self):
        # univariate block x^2 joined with plane block y^2*z
        assert chi_thom_sebastiani(P("x^2 + y^2*z", F3)).value == 2

    def test_single_plane_block(self):
        assert chi_thom_sebastiani(P("x*y^2")).value == 0

    def test_isolated_consistency_with_milnor(self):
        # for an isolated singularity chi = 1 + (-1)^(n-1) * mu
        for text, frame in (("x^3 + y^4", F2), ("x^2 + y^2 + z^2", F3)):
            f = parse_polynomial(text, frame)
            chi = chi_thom_sebastiani(f).value
            mu = milnor_via_macaulay(f).value
            n = frame.ambient_dimension
            assert chi == 1 + (-1) ** (n - 1) * mu

    def test_entangled_variables_refused(self):
        with pytest.raises((InputError, MathematicalRefusal)):
            chi_thom_sebastiani(P("x^2 + x*y^3 + y^5"))

    def test_certificate_lists_blocks(self):
        cert = chi_thom_sebastiani(P("x^2 + y^2*z", F3)).certificate
        assert [b["variables"] for b in cert["blocks"]] == [["x"], ["y", "z"]]


def _inclusion_exclusion(exps, bounds):
    """Colength inside the box of the pure powers, summed over every subset
    of the generators."""
    total = 0
    for size in range(len(exps) + 1):
        for S in itertools.combinations(exps, size):
            lcm = [max(col, default=0) for col in zip(*S)] if S else [0] * len(bounds)
            total += (-1) ** size * math.prod(max(0, b - l) for b, l in zip(bounds, lcm))
    return total


@st.composite
def _monomial_ideal(draw):
    n = draw(st.integers(1, 3))
    bounds = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    pure = [tuple(b if j == i else 0 for j in range(n)) for i, b in enumerate(bounds)]
    exponent = st.tuples(*[st.integers(0, 5)] * n).filter(any)
    extra = draw(st.lists(exponent, max_size=8 - n))
    return bounds, pure + extra


class TestMonomialColength:
    def test_simple(self):
        assert monomial_colength([P("x"), P("y")]).value == 1
        assert monomial_colength([P("x^3"), P("y^2")]).value == 6
        assert monomial_colength([P("x^2"), P("x*y"), P("y^3")]).value == 4

    def test_method_label(self):
        assert monomial_colength([P("x"), P("y")]).method == "monomial_count"

    def test_infinite_refused(self):
        with pytest.raises(MathematicalRefusal):
            monomial_colength([P("x")])

    def test_redundant_generators(self):
        assert monomial_colength([P("x^2"), P("y^2"), P("x^2*y^2")]).value == 4

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    )
    def test_pure_powers(self, a, b, c):
        monos = [
            Polynomial(F3, {(a, 0, 0): Fraction(1)}),
            Polynomial(F3, {(0, b, 0): Fraction(1)}),
            Polynomial(F3, {(0, 0, c): Fraction(1)}),
        ]
        assert monomial_colength(monos).value == a * b * c

    @given(_monomial_ideal())
    def test_matches_inclusion_exclusion(self, drawn):
        bounds, exps = drawn
        frame = VariableFrame(("x", "y", "z")[: len(bounds)])
        monos = [Polynomial(frame, {e: Fraction(1)}) for e in exps]
        assert monomial_colength(monos).value == _inclusion_exclusion(sorted(set(exps)), bounds)

    def test_forty_generator_staircase(self):
        # (x, y)^39 has 40 generators, 2^40 subsets, and colength C(40, 2)
        monos = [Polynomial(F2, {(i, 39 - i): Fraction(1)}) for i in range(40)]
        got = monomial_colength(monos)
        assert (got.value, got.certificate["generators"]) == (780, 40)

    def test_power_of_maximal_ideal_in_three_variables(self):
        exps = [e for e in itertools.product(range(9), repeat=3) if sum(e) == 8]
        monos = [Polynomial(F3, {e: Fraction(1)}) for e in exps]
        assert monomial_colength(monos).value == math.comb(10, 3)


class TestResultEquality:
    def test_same_value_same_method(self):
        a = milnor_via_macaulay(P("x^2 + y^2"))
        b = milnor_via_macaulay(P("x^2 + y^2"))
        assert a == b

    def test_different_method_not_equal(self):
        a = chi_homogeneous_plane(P("x*y"))
        b = chi_thom_sebastiani(P("x*y"))
        assert a.value == b.value
        assert a != b
