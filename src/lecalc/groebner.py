"""Groebner bases over the rationals and the ideal operations built on them.

The engine is Buchberger's algorithm with the normal selection strategy,
always finishing with the unique reduced basis so that ideal equality is
plain list equality. On top of it sit elimination, intersection, quotient,
saturation, Krull dimension, colength of zero-dimensional ideals, and local
counts at the origin.

Pairs are pruned by Buchberger's criteria (Buchberger 1979, "A criterion
for detecting unnecessary reductions"). A pair whose leading monomials are
coprime, or whose two elements are both monomials, is settled when it is
created and never queued. The chain criterion is tested when a pair is
selected, counting such settled pairs as treated.

All arithmetic is exact. Rationals live only at the two ends: each input
generator is cleared of denominators once, Buchberger's loop, its
S-polynomials and the interreduction run on primitive integer term lists
with fraction-free reduction, and the interreduction makes the final basis
monic over the rationals. The inner division loop lives in lecalc._kernel,
a pure-Python module.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import _kernel
from ._rng import DeterministicRng
from .polyparse import (
    InputError,
    MathematicalRefusal,
    Polynomial,
    VariableFrame,
)

Exponent = Tuple[int, ...]
Term = _kernel.Term
TermList = List[Term]

_F0 = Fraction(0)


class MonomialOrder:
    """A monomial order on a frame: lex, degrevlex, or block elimination.

    The order is carried as a descriptor (kind, permutation, block size)
    that lecalc._kernel interprets; its make_key gives the sort key.
    """

    __slots__ = ("frame", "kind", "perm", "block")

    def __init__(self, frame: VariableFrame, kind: int, perm: Tuple[int, ...], block: int = 0):
        n = frame.ambient_dimension
        if sorted(perm) != list(range(n)):
            raise InputError("order permutation must rearrange all %d variables" % n)
        if not 0 <= block <= n:
            raise InputError("block size out of range")
        self.frame = frame
        self.kind = kind
        self.perm = tuple(perm)
        self.block = block

    @classmethod
    def lex(cls, frame: VariableFrame, variables: Optional[Sequence[str]] = None) -> "MonomialOrder":
        return cls(frame, _kernel.KIND_LEX, _perm_for(frame, variables))

    @classmethod
    def degrevlex(cls, frame: VariableFrame, variables: Optional[Sequence[str]] = None) -> "MonomialOrder":
        return cls(frame, _kernel.KIND_DEGREVLEX, _perm_for(frame, variables))

    @classmethod
    def block_elimination(cls, frame: VariableFrame, eliminated: Sequence[str]) -> "MonomialOrder":
        """Order that ranks any monomial involving an eliminated variable
        above every monomial free of them."""
        elim = set(eliminated)
        unknown = elim - set(frame.names)
        if unknown:
            raise InputError("unknown variables in elimination block: %s" % sorted(unknown))
        if not elim:
            raise InputError("elimination block must be nonempty")
        head = [i for i, nm in enumerate(frame.names) if nm in elim]
        tail = [i for i, nm in enumerate(frame.names) if nm not in elim]
        return cls(frame, _kernel.KIND_BLOCK, tuple(head + tail), len(head))

    @property
    def descriptor(self) -> Tuple[int, Tuple[int, ...], int]:
        return (self.kind, self.perm, self.block)

    def key(self) -> Callable[[Exponent], tuple]:
        return _kernel.make_key(self.descriptor)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.frame == other.frame
            and self.descriptor == other.descriptor
        )

    def __hash__(self) -> int:
        return hash((self.frame, self.descriptor))


def _perm_for(frame: VariableFrame, variables: Optional[Sequence[str]]) -> Tuple[int, ...]:
    if variables is None:
        return tuple(range(frame.ambient_dimension))
    variables = list(variables)
    if sorted(variables) != sorted(frame.names):
        raise InputError("order must list every frame variable exactly once")
    return tuple(frame.index[nm] for nm in variables)


class Ideal:
    """An ideal given by a nonempty generator list over one frame.

    Reduced bases are cached per order descriptor, so repeated operations on
    the same ideal pay for Buchberger once.
    """

    __slots__ = ("frame", "generators", "_gb_cache")

    def __init__(self, frame: VariableFrame, generators: Sequence[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise InputError("ideal needs at least one generator (use 0 for the zero ideal)")
        for g in gens:
            if not isinstance(g, Polynomial):
                raise InputError("generators must be polynomials")
            if g.frame != frame:
                raise InputError("generator frame mismatch")
        self.frame = frame
        self.generators = gens
        self._gb_cache: Dict[tuple, List[TermList]] = {}

    def __repr__(self) -> str:
        return "Ideal(%s)" % ", ".join(g.to_string() for g in self.generators)


def zero_ideal(frame: VariableFrame) -> Ideal:
    return Ideal(frame, (Polynomial.zero(frame),))


def unit_ideal(frame: VariableFrame) -> Ideal:
    return Ideal(frame, (Polynomial.one(frame),))


def maximal_ideal(frame: VariableFrame) -> Ideal:
    """The ideal of the origin."""
    return Ideal(frame, tuple(Polynomial.variable(frame, nm) for nm in frame.names))


# -- observer hook ------------------------------------------------------------

_basis_observers: List[Callable] = []


def register_basis_observer(fn: Callable) -> Callable:
    """Register fn(frame, descriptor, basis_termlists), called once per
    freshly computed reduced basis. Used by self-checks that re-verify the
    Buchberger criterion on everything the engine produced."""
    _basis_observers.append(fn)
    return fn


# -- core algorithm -----------------------------------------------------------

def _to_terms(p: Polynomial, key) -> TermList:
    return sorted(p.terms.items(), key=lambda t: key(t[0]), reverse=True)


def _divides(a: Exponent, b: Exponent) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _primitive(terms: TermList) -> TermList:
    """The integer multiple of a nonzero term list whose coefficients have
    no common factor and whose leading coefficient is positive."""
    den = lcm(*[c.denominator for _, c in terms])
    nums = [c.numerator * (den // c.denominator) for _, c in terms]
    content = gcd(*nums)
    if nums[0] < 0:
        content = -content
    return [(e, n // content) for (e, _), n in zip(terms, nums)]


def spoly_terms(f: TermList, g: TermList, key=None) -> TermList:
    """S-polynomial of two nonzero term lists, with the smallest integer
    multipliers that cancel the leading terms. The terms come in no
    particular order unless a sort key is given."""
    (lmf, lcf), (lmg, lcg) = f[0], g[0]
    l = tuple(map(max, lmf, lmg))
    sf = tuple(a - b for a, b in zip(l, lmf))
    sg = tuple(a - b for a, b in zip(l, lmg))
    ratio = Fraction(lcg, lcf)
    mf, mg = ratio.numerator, ratio.denominator
    acc: Dict[Exponent, _kernel.Coefficient] = {}
    for e, c in f[1:]:
        acc[tuple(map(add, e, sf))] = mf * c
    for e, c in g[1:]:
        t = tuple(map(add, e, sg))
        v = acc.get(t, 0) - mg * c
        if v:
            acc[t] = v
        else:
            acc.pop(t, None)
    out = list(acc.items())
    if key is not None:
        out.sort(key=lambda t: key(t[0]), reverse=True)
    return out


def _buchberger(gens: List[TermList], descriptor) -> List[TermList]:
    """A Groebner basis of primitive integer term lists, leading term first."""
    key = _kernel.make_key(descriptor)
    G = [g for g in gens if g]
    heap: List[tuple] = []
    pending = set()

    def add_pairs(j: int) -> None:
        # the product criterion, and pairs of monomials, whose S-polynomial
        # is zero: both have a standard representation from the pair alone
        lmj = G[j][0][0]
        monomial = len(G[j]) == 1
        for i in range(j):
            lmi = G[i][0][0]
            if not any(map(min, lmi, lmj)) or (monomial and len(G[i]) == 1):
                continue
            l = tuple(map(max, lmi, lmj))
            heapq.heappush(heap, (key(l), i, j, l))
            pending.add((i, j))

    for j in range(len(G)):
        add_pairs(j)

    while heap:
        _, i, j, l = heapq.heappop(heap)
        pending.discard((i, j))
        if _chain_skips(i, j, l, G, pending):
            continue
        s = spoly_terms(G[i], G[j])
        if not s:
            continue
        r = _kernel.normal_form_terms(s, G, descriptor)
        if r:
            G.append(_primitive(r))
            add_pairs(len(G) - 1)
    return G


def _chain_skips(i: int, j: int, l: Exponent, G: List[TermList], pending) -> bool:
    # skip (i, j) when some third element divides the lcm and both side
    # pairs were already treated
    for k in range(len(G)):
        if k == i or k == j:
            continue
        if _divides(G[k][0][0], l):
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a not in pending and b not in pending:
                return True
    return False


def _minimalize(G: List[TermList], key) -> List[TermList]:
    # a divisor is never larger than its multiple, so an ascending scan
    # sees every potential divisor before the element it kills
    kept: List[TermList] = []
    for f in sorted(G, key=lambda f: key(f[0][0])):
        if not any(_divides(g[0][0], f[0][0]) for g in kept):
            kept.append(f)
    return kept


def _interreduce(G: List[TermList], descriptor) -> List[TermList]:
    # the one place where a basis becomes monic over the rationals
    key = _kernel.make_key(descriptor)
    G = list(G)
    for idx in range(len(G)):
        others = G[:idx] + G[idx + 1:]
        if others:
            G[idx] = _primitive(_kernel.normal_form_terms(G[idx], others, descriptor))
    out = [[(e, Fraction(c, f[0][1])) for e, c in f] for f in G]
    out.sort(key=lambda f: key(f[0][0]), reverse=True)
    return out


def _gb_terms(ideal: Ideal, order: Optional[MonomialOrder] = None) -> Tuple[List[TermList], MonomialOrder]:
    if order is None:
        order = MonomialOrder.degrevlex(ideal.frame)
    elif order.frame != ideal.frame:
        raise InputError("order frame does not match ideal frame")
    desc = order.descriptor
    cached = ideal._gb_cache.get(desc)
    if cached is None:
        key = order.key()
        gens = [_primitive(_to_terms(g, key)) for g in ideal.generators if not g.is_zero()]
        raw = _buchberger(gens, desc)
        cached = _interreduce(_minimalize(raw, key), desc)
        ideal._gb_cache[desc] = cached
        for obs in _basis_observers:
            obs(ideal.frame, desc, cached)
    return cached, order


def groebner_basis(ideal: Ideal, order: Optional[MonomialOrder] = None) -> List[Polynomial]:
    """The reduced basis: monic, autoreduced, sorted descending by leading
    monomial. Unique per (ideal, order), empty for the zero ideal."""
    basis, _ = _gb_terms(ideal, order)
    return [Polynomial(ideal.frame, dict(t)) for t in basis]


def normal_form(p: Polynomial, ideal: Ideal, order: Optional[MonomialOrder] = None) -> Polynomial:
    """Unique remainder of p modulo the ideal; idempotent."""
    if p.frame != ideal.frame:
        raise InputError("polynomial frame does not match ideal frame")
    basis, order = _gb_terms(ideal, order)
    if not basis or p.is_zero():
        return p
    terms = _to_terms(p, order.key())
    return Polynomial(p.frame, dict(_kernel.normal_form_terms(terms, basis, order.descriptor)))


def contains(ideal: Ideal, p: Polynomial) -> bool:
    return normal_form(p, ideal).is_zero()


def equal_ideals(I: Ideal, J: Ideal) -> bool:
    """Ideal equality via equality of reduced degrevlex bases."""
    if I.frame != J.frame:
        return False
    bi, _ = _gb_terms(I)
    bj, _ = _gb_terms(J)
    return bi == bj


def is_zero_ideal(I: Ideal) -> bool:
    basis, _ = _gb_terms(I)
    return not basis


def is_unit_ideal(I: Ideal) -> bool:
    basis, _ = _gb_terms(I)
    return bool(basis) and sum(basis[0][0][0]) == 0


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.frame != J.frame:
        raise InputError("ideal frames differ")
    return Ideal(I.frame, I.generators + J.generators)


# -- elimination and friends ---------------------------------------------------

def eliminate(ideal: Ideal, variables: Sequence[str]) -> Ideal:
    """Project away the named variables; the result lives on the frame of
    the remaining ones, kept in their original order."""
    elim = set(variables)
    unknown = elim - set(ideal.frame.names)
    if unknown:
        raise InputError("cannot eliminate unknown variables: %s" % sorted(unknown))
    remaining = [nm for nm in ideal.frame.names if nm not in elim]
    if not remaining:
        raise InputError("cannot eliminate every variable")
    if not elim:
        return Ideal(ideal.frame, ideal.generators)
    order = MonomialOrder.block_elimination(ideal.frame, sorted(elim))
    basis, _ = _gb_terms(ideal, order)
    head = [ideal.frame.index[nm] for nm in ideal.frame.names if nm in elim]
    tail = [ideal.frame.index[nm] for nm in remaining]
    new_frame = VariableFrame(remaining)
    kept: List[Polynomial] = []
    for termlist in basis:
        if all(all(exp[i] == 0 for i in head) for exp, _ in termlist):
            kept.append(
                Polynomial(new_frame, {tuple(exp[i] for i in tail): c for exp, c in termlist})
            )
    if not kept:
        return zero_ideal(new_frame)
    return Ideal(new_frame, kept)


def _fresh_name(frame: VariableFrame, stem: str = "t") -> str:
    if stem not in frame.index:
        return stem
    k = 0
    while "%s%d" % (stem, k) in frame.index:
        k += 1
    return "%s%d" % (stem, k)


def embed(p: Polynomial, target: VariableFrame) -> Polynomial:
    """Reinterpret p on a frame containing all its variables, matched by name."""
    positions = []
    for nm in p.frame.names:
        if nm not in target.index:
            raise InputError("variable %r missing from target frame" % nm)
        positions.append(target.index[nm])
    n = target.ambient_dimension
    out: Dict[Exponent, Fraction] = {}
    for exp, c in p.terms.items():
        nexp = [0] * n
        for pos, e in zip(positions, exp):
            nexp[pos] = e
        out[tuple(nexp)] = c
    return Polynomial(target, out)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I meet J by the single-auxiliary-variable trick."""
    if I.frame != J.frame:
        raise InputError("ideal frames differ")
    frame = I.frame
    tname = _fresh_name(frame)
    ext = VariableFrame((tname,) + frame.names)
    t = Polynomial.variable(ext, tname)
    one = Polynomial.one(ext)
    gens: List[Polynomial] = []
    for g in I.generators:
        if not g.is_zero():
            gens.append(t * embed(g, ext))
    for g in J.generators:
        if not g.is_zero():
            gens.append((one - t) * embed(g, ext))
    if not gens:
        return zero_ideal(frame)
    out = eliminate(Ideal(ext, gens), (tname,))
    if out.frame != frame:
        raise AssertionError("elimination changed the frame unexpectedly")
    return out


def _exact_divide(p: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient p / g when g divides p exactly."""
    frame = p.frame
    order = MonomialOrder.degrevlex(frame)
    key = order.key()
    gterms = _to_terms(g, key)
    lm, lc = gterms[0]
    work = dict(p.terms)
    quot: Dict[Exponent, Fraction] = {}
    while work:
        exp = max(work, key=key)
        c = work.pop(exp)
        if not _divides(lm, exp):
            raise AssertionError("exact division left a remainder")
        shift = tuple(a - b for a, b in zip(exp, lm))
        factor = c / lc
        quot[shift] = quot.get(shift, _F0) + factor
        for bexp, bc in gterms:
            if bexp == lm:
                continue
            t = tuple(a + b for a, b in zip(bexp, shift))
            v = work.get(t, _F0) - factor * bc
            if v:
                work[t] = v
            else:
                work.pop(t, None)
    return Polynomial(frame, quot)


def _quotient_single(I: Ideal, g: Polynomial) -> Ideal:
    inter = intersect(I, Ideal(I.frame, (g,)))
    gens = [_exact_divide(h, g) for h in inter.generators if not h.is_zero()]
    if not gens:
        return zero_ideal(I.frame)
    return Ideal(I.frame, groebner_basis(Ideal(I.frame, gens)))


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """The colon ideal (I : J), given by its reduced degrevlex basis.

    (I : g) is (I meet (g)) / g for each nonzero generator g of J, and
    (I : J) is the intersection of these.
    """
    if I.frame != J.frame:
        raise InputError("ideal frames differ")
    nonzero = [g for g in J.generators if not g.is_zero()]
    if not nonzero:
        return unit_ideal(I.frame)
    result: Optional[Ideal] = None
    for g in nonzero:
        q = _quotient_single(I, g)
        result = q if result is None else intersect(result, q)
    return result


def _saturate_principal(I: Ideal, g: Polynomial) -> Ideal:
    frame = I.frame
    tname = _fresh_name(frame)
    ext = VariableFrame((tname,) + frame.names)
    t = Polynomial.variable(ext, tname)
    gens = [embed(h, ext) for h in I.generators if not h.is_zero()]
    gens.append(t * embed(g, ext) - Polynomial.one(ext))
    out = eliminate(Ideal(ext, gens), (tname,))
    return out


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """The saturation (I : J^infinity).

    Each nonzero generator g of J is inverted by the auxiliary-variable
    trick, one elimination giving (I : g^infinity), and the results are
    intersected: (I : J^infinity) is the intersection over the generators
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, 4.4). The
    result is given by its reduced degrevlex basis.
    """
    if I.frame != J.frame:
        raise InputError("ideal frames differ")
    nonzero = [g for g in J.generators if not g.is_zero()]
    if not nonzero:
        return unit_ideal(I.frame)
    result = _saturate_principal(I, nonzero[0])
    for g in nonzero[1:]:
        result = intersect(result, _saturate_principal(I, g))
    return result


# -- dimension and counting -----------------------------------------------------

def krull_dimension(I: Ideal) -> int:
    """Dimension of the zero set; -1 for the unit ideal.

    Computed from the leading monomials of the reduced degrevlex basis by
    maximizing over independent variable subsets.
    """
    basis, _ = _gb_terms(I)
    n = I.frame.ambient_dimension
    if not basis:
        return n
    lms = [t[0][0] for t in basis]
    if any(sum(l) == 0 for l in lms):
        return -1
    supports = [frozenset(i for i, e in enumerate(l) if e) for l in lms]
    best = 0
    for mask in range(1 << n):
        S = frozenset(i for i in range(n) if mask >> i & 1)
        if len(S) <= best:
            continue
        if all(not s <= S for s in supports):
            best = len(S)
    return best


def colength(I: Ideal) -> int:
    """Vector-space dimension of the quotient ring; requires a
    zero-dimensional ideal, and the unit ideal counts as 0."""
    basis, _ = _gb_terms(I)
    n = I.frame.ambient_dimension
    if not basis:
        raise MathematicalRefusal("zero ideal has infinite colength")
    lms = [t[0][0] for t in basis]
    if any(sum(l) == 0 for l in lms):
        return 0
    bounds: List[Optional[int]] = [None] * n
    for l in lms:
        support = [i for i, e in enumerate(l) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or l[i] < bounds[i]:
                bounds[i] = l[i]
    if any(b is None for b in bounds):
        missing = [I.frame.names[i] for i, b in enumerate(bounds) if b is None]
        raise MathematicalRefusal(
            "ideal is not zero-dimensional (no pure power of %s); colength is infinite"
            % ", ".join(missing)
        )
    lms_sorted = sorted(lms, key=sum)
    count = 0
    for exp in itertools.product(*[range(b) for b in bounds]):
        if not any(_divides(l, exp) for l in lms_sorted):
            count += 1
    return count


def colength_at_origin(I: Ideal) -> int:
    """Length of the local ring at the origin of a zero-dimensional ideal:
    total colength minus the colength away from the origin."""
    away = saturate(I, maximal_ideal(I.frame))
    total = colength(I)
    if is_unit_ideal(away):
        return total
    return total - colength(away)


# -- local dimension and multiplicity at the origin ------------------------------

_DIM0_CACHE: Dict[tuple, int] = {}
_DIM0_SEED = 0xD1A0F00D


def _origin_in_zero_set(basis: List[TermList], n: int) -> bool:
    zero = (0,) * n
    for termlist in basis:
        for exp, _ in termlist:
            if exp == zero:
                return False
    return True


def random_linear_form(frame: VariableFrame, rng: DeterministicRng) -> Polynomial:
    coeffs = rng.small_coefficients(frame.ambient_dimension)
    terms: Dict[Exponent, Fraction] = {}
    for i, c in enumerate(coeffs):
        if c:
            exp = [0] * frame.ambient_dimension
            exp[i] = 1
            terms[tuple(exp)] = Fraction(c)
    return Polynomial(frame, terms)


def dim_at_origin(I: Ideal) -> int:
    """Dimension of the zero set at the origin: -1 when the origin is not
    on it, otherwise the maximum dimension of a component through it.

    The isolated case (0) and the conical case are decided exactly; the
    remaining case cuts by deterministic pseudo-random hyperplanes through
    the origin and recurses, taking the minimum over a few samples.
    """
    return _dim_at_origin(I, 0)


def _dim_at_origin(I: Ideal, depth: int) -> int:
    basis, _ = _gb_terms(I)
    n = I.frame.ambient_dimension
    if not basis:
        return n
    if not _origin_in_zero_set(basis, n):
        return -1
    cache_key = (I.frame.names, tuple(str(Polynomial(I.frame, dict(t))) for t in basis))
    if cache_key in _DIM0_CACHE:
        return _DIM0_CACHE[cache_key]

    if all(len({sum(e) for e, _ in t}) <= 1 for t in basis):
        # homogeneous ideal: the zero set is a cone, so the dimension at
        # its vertex is the global one
        val = krull_dimension(I)
    else:
        away = saturate(I, maximal_ideal(I.frame))
        away_basis, _ = _gb_terms(away)
        if not away_basis or _origin_in_zero_set(away_basis, n):
            # a positive-dimensional component passes through the origin
            if depth >= n:
                raise MathematicalRefusal("local dimension did not resolve")
            best: Optional[int] = None
            found = 0
            sample = 0
            while found < 3 and sample < 24:
                rng = DeterministicRng(_DIM0_SEED ^ (depth * 1000003) ^ (sample * 7919))
                l = random_linear_form(I.frame, rng)
                sample += 1
                if contains(I, l):
                    continue
                found += 1
                d = _dim_at_origin(Ideal(I.frame, I.generators + (l,)), depth + 1)
                best = d if best is None else min(best, d)
            if best is None:
                raise MathematicalRefusal("could not find a hyperplane cutting the zero set")
            val = 1 + best
        else:
            # everything through the origin is origin-primary
            val = 0

    _DIM0_CACHE[cache_key] = val
    return val


def _monomials_of_degree(frame: VariableFrame, deg: int) -> List[Polynomial]:
    n = frame.ambient_dimension
    out = []
    for combo in itertools.combinations_with_replacement(range(n), deg):
        exp = [0] * n
        for i in combo:
            exp[i] += 1
        out.append(Polynomial(frame, {tuple(exp): Fraction(1)}))
    return out


def multiplicity_at_origin(I: Ideal) -> int:
    """Length of the local ring at the origin when the origin is an
    isolated point of the zero set; 0 when the origin is not on it.

    Far components of positive dimension are harmless: truncating by
    growing powers of the maximal ideal localizes the count, and equality
    of two consecutive truncations certifies stabilization.
    """
    d0 = dim_at_origin(I)
    if d0 == -1:
        return 0
    if d0 > 0:
        raise MathematicalRefusal(
            "zero set is %d-dimensional at the origin; no finite multiplicity" % d0
        )
    if krull_dimension(I) <= 0:
        return colength_at_origin(I)
    frame = I.frame
    prev: Optional[int] = None
    for K in range(1, 80):
        cut = Ideal(frame, I.generators + tuple(_monomials_of_degree(frame, K)))
        c = colength(cut)
        if prev is not None and c == prev:
            return c
        prev = c
    raise MathematicalRefusal("local multiplicity failed to stabilize")
