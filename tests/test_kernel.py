"""Differential tests of the normal-form kernel.

The reference below is the max-scan division loop the kernel used before
it kept its work terms in a heap. The kernel must return the identical
term list, coefficient for coefficient and in the same order.
"""

import random
from fractions import Fraction

import pytest

from lecalc import _kernel
from lecalc._kernel import KIND_BLOCK, KIND_DEGREVLEX, KIND_LEX, make_key

_ZERO = Fraction(0)


def _reference_normal_form_terms(terms, basis, descriptor):
    key = make_key(descriptor)
    work = {exp: c for exp, c in terms}
    remainder = []
    lead = [(b[0][0], b[0][1], b) for b in basis]

    while work:
        exp = max(work, key=key)
        coeff = work.pop(exp)
        if not coeff:
            continue
        hit = None
        for lm, lc, b in lead:
            if all(x <= y for x, y in zip(lm, exp)):
                hit = (lm, lc, b)
                break
        if hit is None:
            remainder.append((exp, coeff))
            continue
        lm, lc, b = hit
        factor = coeff / lc
        shift = tuple(e - m for e, m in zip(exp, lm))
        for bexp, bc in b:
            if bexp == lm:
                continue
            t = tuple(e + s for e, s in zip(bexp, shift))
            v = work.get(t, _ZERO) - factor * bc
            if v:
                work[t] = v
            else:
                work.pop(t, None)

    remainder.sort(key=lambda t: key(t[0]), reverse=True)
    return remainder


# the one kernel, labelled by its backend name as in lecalc.kernel_backend
_KERNEL = pytest.mark.parametrize("kernel", [_kernel], ids=[_kernel.BACKEND])


def _descriptors(n):
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    perm = tuple(perm)
    out = [
        (KIND_LEX, tuple(range(n)), 0),
        (KIND_LEX, perm, 0),
        (KIND_DEGREVLEX, tuple(range(n)), 0),
        (KIND_DEGREVLEX, perm, 0),
    ]
    for block in range(1, n + 1):
        out.append((KIND_BLOCK, perm, block))
    return out


def _sorted_terms(terms, key):
    return sorted(terms.items(), key=lambda t: key(t[0]), reverse=True)


def _random_termlist(rng, n, count, maxdeg, key):
    # coefficients in {-2, -1, 1, 2} and a small exponent box make
    # cancellations, and terms recreated after cancelling, frequent
    terms = {}
    for _ in range(count):
        exp = tuple(rng.randint(0, maxdeg) for _ in range(n))
        terms[exp] = Fraction(rng.choice((-2, -1, 1, 2)))
    return _sorted_terms(terms, key)


def _random_case(rng, n, descriptor):
    key = make_key(descriptor)
    basis = [
        _random_termlist(rng, n, rng.randint(1, 4), 2, key)
        for _ in range(rng.randint(1, 4))
    ]
    terms = _random_termlist(rng, n, rng.randint(1, 8), 4, key)
    return terms, basis


@_KERNEL
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_matches_max_scan_reference(kernel, n):
    rng = random.Random(0x5EED + n)
    nonzero = 0
    for descriptor in _descriptors(n):
        for _ in range(60):
            terms, basis = _random_case(rng, n, descriptor)
            expected = _reference_normal_form_terms(terms, basis, descriptor)
            assert kernel.normal_form_terms(terms, basis, descriptor) == expected
            nonzero += bool(expected)
    assert nonzero > 0


@_KERNEL
def test_term_cancelled_then_recreated(kernel):
    # lex, x > y, basis (x^2 - x*y, y^2 - y), input x^2 + x*y^2 - x*y:
    # reducing x^2 cancels x*y, reducing x*y^2 creates x*y again
    descriptor = (KIND_LEX, (0, 1), 0)
    one = Fraction(1)
    basis = [[((2, 0), one), ((1, 1), -one)], [((0, 2), one), ((0, 1), -one)]]
    terms = [((2, 0), one), ((1, 2), one), ((1, 1), -one)]
    assert kernel.normal_form_terms(terms, basis, descriptor) == [((1, 1), one)]


@_KERNEL
def test_first_dividing_basis_element_is_used(kernel):
    # Cox-Little-O'Shea's example: x^2*y + x*y^2 + y^2 divided by
    # (x*y - 1, y^2 - 1) in lex leaves x + y + 1, in the other order 2*x + 1
    descriptor = (KIND_LEX, (0, 1), 0)
    one = Fraction(1)
    f1 = [((1, 1), one), ((0, 0), -one)]
    f2 = [((0, 2), one), ((0, 0), -one)]
    terms = [((2, 1), one), ((1, 2), one), ((0, 2), one)]
    assert kernel.normal_form_terms(terms, [f1, f2], descriptor) == [
        ((1, 0), one), ((0, 1), one), ((0, 0), one)
    ]
    assert kernel.normal_form_terms(terms, [f2, f1], descriptor) == [
        ((1, 0), 2 * one), ((0, 0), one)
    ]


def _as_int_terms(terms):
    return [(exp, int(c)) for exp, c in terms]


@_KERNEL
@pytest.mark.parametrize("n", [2, 3])
def test_integer_coefficients_reduce_fraction_free_to_the_exact_remainder(kernel, n):
    # the same cases with int coefficients, in input order reversed: the
    # fraction-free loop must return the remainder the Fraction loop gives
    rng = random.Random(0x1D7 + n)
    scaled = 0
    for descriptor in _descriptors(n):
        for _ in range(60):
            terms, basis = _random_case(rng, n, descriptor)
            expected = _reference_normal_form_terms(terms, basis, descriptor)
            got = kernel.normal_form_terms(
                _as_int_terms(reversed(terms)), [_as_int_terms(b) for b in basis], descriptor
            )
            assert got == expected
            scaled += any(type(c) is Fraction for _, c in got)
    assert scaled > 0
