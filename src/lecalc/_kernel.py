"""The normal-form kernel: the inner division loop of every Groebner basis.

The interface is a flat term representation: a term list is a list of
(exponent_tuple, coefficient) pairs, the coefficients `int` or `Fraction`.
The order is passed as a descriptor (kind, perm) where kind is 0 for lex,
1 for degrevlex, 2 for block elimination; perm is the variable permutation
(for kind 2 the block prefix length rides along).

normal_form_terms reduces a term list, given in any order, modulo a list
of term lists (each nonzero, leading term first) and returns the fully
reduced remainder, sorted strictly descending. The terms still to be
reduced sit in a dict from exponent to coefficient, with a binary heap
over their monomials giving the largest one next. Each monomial's heap
key, a flat tuple whose ascending order is the descending monomial order,
is computed once, when the monomial enters the dict; a term that cancels
keeps its entry, with coefficient zero, until the heap reaches it.

Integer coefficients are reduced fraction-free: before a step whose
leading coefficient does not divide the term's, the work terms and the
remainder are multiplied by lc/gcd and the scale is recorded, so the
loop never builds a Fraction. The returned remainder is exact: it is
divided by the accumulated scale when that scale is not 1.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from operator import itemgetter, neg
from typing import Callable, List, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Coefficient = Union[int, Fraction]
Term = Tuple[Exponent, Coefficient]

KIND_LEX = 0
KIND_DEGREVLEX = 1
KIND_BLOCK = 2

# exported as lecalc.kernel_backend; there is one kernel, in pure Python
BACKEND = "pure"


def make_key(descriptor) -> Callable[[Exponent], tuple]:
    """Flat tuple key whose ascending order is the descriptor's order."""
    kind, perm, block = descriptor
    if kind == KIND_LEX:
        return _picker(perm)
    if kind == KIND_DEGREVLEX:
        pick = _picker(tuple(reversed(perm)))

        def key(exp):
            return (sum(exp),) + tuple(map(neg, pick(exp)))
        return key
    if kind == KIND_BLOCK:
        pick_head = _picker(tuple(reversed(perm[:block])))
        pick_tail = _picker(tuple(reversed(perm[block:])))

        def key(exp):
            h = pick_head(exp)
            t = pick_tail(exp)
            return (sum(h),) + tuple(map(neg, h)) + (sum(t),) + tuple(map(neg, t))
        return key
    raise ValueError("unknown order kind %r" % (kind,))


def _picker(positions: Sequence[int]) -> Callable[[Exponent], tuple]:
    # itemgetter returns a bare value for one position and refuses none
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        p = positions[0]
        return lambda exp: (exp[p],)
    return lambda exp: ()


def _descending_key(descriptor) -> Callable[[Exponent], tuple]:
    """Flat tuple key whose ascending order is the descending order of
    make_key(descriptor); distinct exponents get distinct keys."""
    kind, perm, block = descriptor
    if kind == KIND_LEX:
        pick = _picker(perm)

        def dkey(exp):
            return tuple([-e for e in pick(exp)])
        return dkey
    if kind == KIND_DEGREVLEX:
        pick = _picker(tuple(reversed(perm)))

        def dkey(exp):
            return (-sum(exp),) + pick(exp)
        return dkey
    if kind == KIND_BLOCK:
        pick_head = _picker(tuple(reversed(perm[:block])))
        pick_tail = _picker(tuple(reversed(perm[block:])))

        def dkey(exp):
            h = pick_head(exp)
            t = pick_tail(exp)
            return (-sum(h),) + h + (-sum(t),) + t
        return dkey
    raise ValueError("unknown order kind %r" % (kind,))


def _divides(a: Exponent, b: Exponent) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def normal_form_terms(
    terms: Sequence[Term],
    basis: Sequence[Sequence[Term]],
    descriptor,
) -> List[Term]:
    """Remainder of `terms` on division by `basis`, every term fully reduced.

    Reduction always uses the first basis element whose leading monomial
    divides the term under consideration, so the result is deterministic
    for a fixed basis order.
    """
    dkey = _descending_key(descriptor)
    work = {exp: c for exp, c in terms}
    heap = [(dkey(exp), exp) for exp in work]
    heapq.heapify(heap)
    remainder: List[Term] = []
    lead = [(b[0][0], b[0][1], b) for b in basis]
    scale = 1

    # Every term a reduction step creates lies below the term it removes,
    # so a popped monomial never re-enters `work`. A term that cancels
    # stays in `work` with coefficient zero until it is popped, so each
    # monomial has exactly one heap entry, pushed when it first appears.
    while heap:
        exp = heapq.heappop(heap)[1]
        coeff = work.pop(exp)
        if not coeff:
            continue
        hit = None
        for lm, lc, b in lead:
            if _divides(lm, exp):
                hit = (lm, lc, b)
                break
        if hit is None:
            remainder.append((exp, coeff))
            continue
        lm, lc, b = hit
        if type(coeff) is int and type(lc) is int:
            # coeff * mult == factor * lc, with mult > 0 as small as possible
            g = gcd(coeff, lc)
            if lc < 0:
                g = -g
            factor = coeff // g
            mult = lc // g
            if mult != 1:
                scale *= mult
                for t in work:
                    work[t] *= mult
                remainder = [(e, c * mult) for e, c in remainder]
        else:
            factor = coeff / lc
        shift = tuple(e - m for e, m in zip(exp, lm))
        for bexp, bc in b:
            if bexp == lm:
                continue
            t = tuple(e + s for e, s in zip(bexp, shift))
            old = work.get(t)
            if old is None:
                work[t] = -factor * bc
                heapq.heappush(heap, (dkey(t), t))
            else:
                work[t] = old - factor * bc

    if scale != 1:
        remainder = [(e, Fraction(c, scale)) for e, c in remainder]
    return remainder
