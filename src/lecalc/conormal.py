"""Conormal geometry: invariants of a function on a singular variety germ.

The ambient chain from lecycles generalizes by running inside the cotangent
space. The variety germ X contributes its conormal space C(X); the function
contributes the image of its differential; the induction cuts the conormal by
the graph equations of df one covector coordinate at a time, saturating away
the locus where df is degenerate on X. Projecting each level back down and
intersecting with coordinate planes yields the numbers; on a smooth ambient
germ the whole construction collapses to the ordinary one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from ._rng import DeterministicRng
from .groebner import (
    Ideal,
    dim_at_origin,
    eliminate,
    embed,
    krull_dimension,
    random_linear_form,
    saturate,
    zero_ideal,
)
from .lecycles import (
    CoordinateFrame,
    GammaChain,
    LeNumbers,
    _coerce_frame,
    _genericize,
    _improper_message,
    _numbers_from_chain,
    _run_chain,
)
from .polyparse import (
    InputError,
    MathematicalRefusal,
    Polynomial,
    VariableFrame,
    translate,
)


class VarietyGerm:
    """A variety germ at the origin: defining equations plus the dimension
    the caller expects, cross-checked against the equations."""

    __slots__ = ("frame", "defining_ideal", "expected_dim")

    def __init__(self, frame: VariableFrame, defining_ideal: Optional[Ideal], expected_dim: int):
        n = frame.ambient_dimension
        if defining_ideal is None:
            defining_ideal = zero_ideal(frame)
        if defining_ideal.frame != frame:
            raise InputError("defining ideal does not live on the given frame")
        if not 0 <= expected_dim <= n:
            raise InputError("expected dimension %d out of range 0..%d" % (expected_dim, n))
        for g in defining_ideal.generators:
            if not g.is_zero() and g.constant_term:
                raise InputError("defining equation %s does not vanish at the origin" % (g,))
        d = dim_at_origin(defining_ideal)
        if d == -1:
            raise InputError("empty germ: the equations have no solution at the origin")
        if d != expected_dim:
            raise InputError(
                "germ has dimension %d at the origin, expected %d" % (d, expected_dim)
            )
        self.frame = frame
        self.defining_ideal = defining_ideal
        self.expected_dim = expected_dim

    @classmethod
    def ambient(cls, frame: VariableFrame) -> "VarietyGerm":
        return cls(frame, zero_ideal(frame), frame.ambient_dimension)

    @property
    def codimension(self) -> int:
        return self.frame.ambient_dimension - self.expected_dim

    def equations(self) -> Tuple[Polynomial, ...]:
        return tuple(g for g in self.defining_ideal.generators if not g.is_zero())

    def __repr__(self) -> str:
        return "VarietyGerm(dim=%d, %s)" % (
            self.expected_dim,
            ", ".join(str(g) for g in self.equations()) or "0",
        )


def cotangent_frame(base: VariableFrame) -> VariableFrame:
    """Base variables followed by one covector coordinate per variable.

    Covector names are w1..wN, switching to prefixed base names (and longer
    prefixes if needed) when the caller already uses such names.
    """
    n = base.ambient_dimension
    used = set(base.names)
    candidate = ["w%d" % (i + 1) for i in range(n)]
    prefix = "w_"
    while any(nm in used for nm in candidate):
        candidate = [prefix + nm for nm in base.names]
        prefix = "w" + prefix
    return VariableFrame(tuple(base.names) + tuple(candidate))


def _covector_names(total: VariableFrame, base: VariableFrame) -> Tuple[str, ...]:
    return total.names[base.ambient_dimension:]


class ConormalData:
    """The conormal space of a germ inside its cotangent space."""

    __slots__ = ("cotangent_frame", "conormal_ideal", "source")

    def __init__(self, cotangent_frame: VariableFrame, conormal_ideal: Ideal, source: VarietyGerm):
        self.cotangent_frame = cotangent_frame
        self.conormal_ideal = conormal_ideal
        self.source = source


def _poly_det(rows: List[List[Polynomial]]) -> Polynomial:
    if len(rows) == 1:
        return rows[0][0]
    frame = rows[0][0].frame
    total = Polynomial.zero(frame)
    for j in range(len(rows)):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[row[jj] for jj in range(len(rows)) if jj != j] for row in rows[1:]]
        piece = entry * _poly_det(minor)
        total = total + (piece if j % 2 == 0 else piece.scale(-1))
    return total


def _minors(matrix: List[List[Polynomial]], size: int) -> List[Polynomial]:
    out: List[Polynomial] = []
    rows = range(len(matrix))
    cols = range(len(matrix[0]) if matrix else 0)
    for ri in combinations(rows, size):
        for ci in combinations(cols, size):
            sub = [[matrix[r][c] for c in ci] for r in ri]
            det = _poly_det(sub)
            if not det.is_zero():
                out.append(det)
    return out


def conormal_variety(X: VarietyGerm) -> ConormalData:
    """Closure of the covectors annihilating the tangent spaces at smooth
    points of X. Refuses when the result is not half-dimensional, which
    happens when the equations are non-reduced or the germ is not
    equidimensional; no coordinate change can repair that.
    """
    base = X.frame
    n = base.ambient_dimension
    total = cotangent_frame(base)
    wn = _covector_names(total, base)
    gens = X.equations()
    c = X.codimension
    if c == 0:
        ideal = Ideal(total, tuple(Polynomial.variable(total, nm) for nm in wn))
        return ConormalData(total, ideal, X)
    lifted = tuple(embed(g, total) for g in gens)
    jac = [
        [embed(g.partial(j), total) for j in range(n)]
        for g in gens
    ]
    wrow = [Polynomial.variable(total, nm) for nm in wn]
    stacked = jac + [wrow]
    rank_conditions = _minors(stacked, c + 1)
    presat = Ideal(total, lifted + tuple(rank_conditions))
    degenerate = Ideal(total, lifted + tuple(_minors(jac, c)))
    conormal = saturate(presat, degenerate)
    kd = krull_dimension(conormal)
    if kd != n:
        raise MathematicalRefusal(
            "conormal space has dimension %d, expected %d; "
            "the defining equations are not reduced or the germ is not equidimensional"
            % (kd, n)
        )
    return ConormalData(total, conormal, X)


class DifferentialImage:
    """Graph of the differential of a function, as a subvariety of the
    cotangent space, together with the gradient at the origin."""

    __slots__ = ("cotangent_frame", "ideal", "gradient_at_origin")

    def __init__(self, cotangent_frame: VariableFrame, ideal: Ideal, gradient_at_origin: Tuple[Fraction, ...]):
        self.cotangent_frame = cotangent_frame
        self.ideal = ideal
        self.gradient_at_origin = gradient_at_origin


def image_of_differential(f: Polynomial, total: Optional[VariableFrame] = None) -> DifferentialImage:
    """The section z -> (z, df(z)) of the cotangent space, cut out by the
    equations w_i = df/dz_i. The zero function gives the zero section."""
    base = f.frame
    n = base.ambient_dimension
    if total is None:
        total = cotangent_frame(base)
    wn = _covector_names(total, base)
    grads = [f.partial(i) for i in range(n)]
    grad0 = tuple(g.constant_term for g in grads)
    gens = tuple(
        Polynomial.variable(total, wn[i]) - embed(grads[i], total)
        for i in range(n)
    )
    return DifferentialImage(total, Ideal(total, gens), grad0)


_LINEAR_SEED_MIX = 0x9E3779B1


def generic_linear_form_on_germ(X: VarietyGerm, seed: int = 0, budget: int = 25) -> Polynomial:
    """A linear form transverse to the germ: its differential at the origin
    avoids every limit of conormal covectors, so the hyperplane it cuts is
    generic for X. Deterministic in the seed."""
    cone = conormal_variety(X)
    n = X.frame.ambient_dimension
    for attempt in range(1, budget + 1):
        rng = DeterministicRng(((seed & 0xFFFFFFFF) << 20) ^ (attempt * _LINEAR_SEED_MIX) ^ 0x1F0)
        form = random_linear_form(X.frame, rng)
        grad = [form.partial(i).constant_term for i in range(n)]
        point = [Fraction(0)] * n + grad
        # the covector (0, grad) misses the fibre of the conormal iff some
        # defining equation is nonzero there
        if any(translate(g, point).constant_term for g in cone.conormal_ideal.generators):
            return form
    raise MathematicalRefusal(
        "no transverse linear form found within budget %d; every sampled covector "
        "lies in the conormal fibre over the origin" % budget
    )


def _levogel_chain(X: VarietyGerm, f: Polynomial, coord: CoordinateFrame) -> GammaChain:
    work = coord.work_frame
    n = work.ambient_dimension
    moved = tuple(coord.transform(g) for g in X.equations())
    Xw = VarietyGerm(
        work,
        Ideal(work, moved) if moved else zero_ideal(work),
        X.expected_dim,
    )
    cone = conormal_variety(Xw)
    total = cone.cotangent_frame
    g = coord.transform(f)
    image = image_of_differential(g, total)
    offsets = [Fraction(0)] * n + list(image.gradient_at_origin)
    cone_t = Ideal(total, tuple(translate(p, offsets) for p in cone.conormal_ideal.generators))
    image_t = tuple(translate(p, offsets) for p in image.ideal.generators)
    sigma = Ideal(total, cone_t.generators + image_t)
    wn = _covector_names(total, work)
    s_raw = dim_at_origin(eliminate(sigma, wn))
    chain = _run_chain(
        coord,
        total,
        cone_t,
        list(image_t),
        sigma,
        wn,
        s_raw,
        extras={
            "s": s_raw,
            "s_reported": max(s_raw, 0),
            "d": X.expected_dim,
            "sigma": sigma,
            "conormal": cone,
        },
    )
    return chain


def _check_levogel_input(X: VarietyGerm, f: Polynomial) -> None:
    if f.frame != X.frame:
        raise InputError("function and germ live on different frames")
    if f.is_constant() and not f.is_zero():
        raise InputError("nonzero constant has no zero set through the origin")
    if f.constant_term:
        raise InputError("polynomial does not vanish at the origin")


def le_vogel_numbers(
    X: VarietyGerm,
    f: Polynomial,
    frame=None,
    seed: int = 0,
    budget: int = 25,
) -> Tuple[LeNumbers, GammaChain]:
    """The numbers of f on the germ X at the origin, with the chain.

    The zero polynomial is allowed: the result then measures the germ X
    itself. An explicit frame is used as given and refused when some
    properness check fails; otherwise frames are tried automatically.
    """
    _check_levogel_input(X, f)
    coord = _coerce_frame(X.frame, frame)
    if coord is not None:
        chain = _levogel_chain(X, f, coord)
        if not chain.proper:
            raise MathematicalRefusal(_improper_message(chain))
    else:
        _, chain = _genericize(lambda c: _levogel_chain(X, f, c), X.frame, seed, budget)
    return _numbers_from_chain(chain, "levogel"), chain


def isolated_intersection_number(X: VarietyGerm, f: Polynomial, seed: int = 0, budget: int = 25) -> int:
    """The level-0 number when it is the only one, i.e. when the
    degeneracy locus of f on X is at most the origin."""
    numbers, _ = le_vogel_numbers(X, f, seed=seed, budget=budget)
    if numbers.s > 0:
        raise MathematicalRefusal(
            "degeneracy locus has dimension %d at the origin; use le_vogel_numbers"
            % numbers.s
        )
    return numbers.lambda_numbers[0]
