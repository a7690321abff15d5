"""Exact decision of whether a rational polyhedral cone is {0}.

The cone is the solution set of finitely many homogeneous inequalities
``n . x >= 0``.  It is trivial exactly when the dual cone spanned by the
normals is the whole space, i.e. when every signed coordinate direction is a
nonnegative combination of normals.  :func:`make_cone_system` stores each
normal as an integer vector, the normal times the lcm of its denominators; a
positive multiple leaves the cone as it was.  Each direction is settled by a
Phase-I simplex on a fraction-free tableau over those integer normals: every
pivot is a Bareiss step over one common denominator, so no rational
arithmetic happens inside a solve.  Entering and leaving choices follow the
least-index rule, which makes every solve terminate.  A decision transposes
the normals and sums them once; each direction's tableau and cost row start
from copies of those rows and sums.  A feasible solve checks its
combination on the basic normals with a nonzero coefficient, at most r of
them, and every zero coefficient is one shared ``Fraction(0)``.

Whichever way the decision goes, the proof object is checked in exact
integers inside the solve and again before it leaves this module; a Farkas
certificate is replayed by :func:`verify_certificate` in integers over each
combination's common denominator, independently of the tableau.  Every check
raises ``InternalInconsistency``, so none of them disappears under
``python -O``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InternalInconsistency


@dataclass(frozen=True, eq=False)
class ConeSystem:
    """Integer normals of the inequalities; the cone is
    {x : n . x >= 0 for all n}.  Build it with :func:`make_cone_system`;
    a system built by hand must already have integer normals of one
    positive length, or ``ValueError`` is raised."""

    normals: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.normals:
            raise ValueError("a cone system needs at least one normal")
        dim = len(self.normals[0])
        if dim == 0 or any(len(n) != dim for n in self.normals):
            raise ValueError("normals must share a positive dimension")
        if not all(type(x) is int for n in self.normals for x in n):
            raise ValueError(
                "normals must have int entries; make_cone_system scales rational ones"
            )

    @property
    def dimension(self) -> int:
        return len(self.normals[0])

    def contains(self, point: Sequence[Fraction | int]) -> bool:
        if len(point) != self.dimension:
            raise ValueError(
                f"the cone has {self.dimension} coordinates, the point {len(point)}"
            )
        return all(sum(a * x for a, x in zip(n, point)) >= 0 for n in self.normals)


@dataclass(frozen=True, eq=False)
class FarkasCertificate:
    """Nonnegative combinations of the normals, one per signed direction,
    stored in the order produced by :func:`signed_directions`."""

    dimension: int
    combinations: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True, eq=False)
class ConeDecision:
    trivial: bool
    witness: tuple[int, ...] | None
    certificate: FarkasCertificate | None


def make_cone_system(normals: Sequence[Sequence[Fraction | int]]) -> ConeSystem:
    """The cone of the given normals, each stored as an integer vector: the
    normal times the lcm of its denominators.  That is a positive multiple,
    so the cone is the same set, and an integer normal keeps its values.
    ``ConeSystem`` rejects no normals and normals of unequal or zero length."""
    rows = []
    for normal in normals:
        entries = [x if isinstance(x, int) else Fraction(x) for x in normal]
        scale = lcm(*(x.denominator for x in entries))
        rows.append(tuple(x.numerator * (scale // x.denominator) for x in entries))
    return ConeSystem(tuple(rows))


def signed_directions(dimension: int) -> tuple[tuple[int, ...], ...]:
    """The fixed solve order +e1, -e1, +e2, -e2, ..."""
    out = []
    for i in range(dimension):
        unit = tuple(1 if j == i else 0 for j in range(dimension))
        out.append(unit)
        out.append(tuple(-x for x in unit))
    return tuple(out)


def _coprime_integers(vec: Sequence[int]) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries.  The sign is
    kept, since a cone is not symmetric; the zero vector comes back as it
    is, for the caller to reject."""
    g = gcd(*vec) or 1
    return tuple(x // g for x in vec)


# every zero coefficient of a certificate combination; a Fraction is immutable
_ZERO = Fraction(0)


def _phase_one(
    normals: Sequence[Sequence[int]],
    transposed: Sequence[Sequence[int]],
    column_sums: Sequence[int],
    k: int,
    sign: int,
) -> tuple[bool, tuple[Fraction, ...] | tuple[int, ...]]:
    """Is ``sign * e_k`` a nonnegative combination of the integer ``normals``?

    ``transposed`` holds the normals' coordinate rows and ``column_sums``
    each normal's entry sum, both built once per decision by
    :func:`decide_cone`.  Returns (True, coefficients) or (False, y) where
    the integer vector y separates: y . normal <= 0 for every normal while
    y . target > 0.  Entering and leaving choices both use the least-index
    rule, so the solve cannot cycle.

    The tableau holds integers over one common denominator ``d``: row i
    stands for ``rows[i] / d``, and the last row is the phase-I reduced-cost
    row, updated by the same pivots.  A pivot on ``p`` is the Bareiss step
    ``(p * a - f * b) // d`` followed by ``d = p``; every entry is then a
    minor of the initial tableau, so each division is exact.
    """
    m = len(normals)
    r = len(transposed)
    # row i: coordinate i of every normal (row k negated for -e_k, so the
    # right side stays nonnegative), the artificials m..m+r-1, and the right
    # side, which for |target| = e_k starts equal to artificial column k
    rows = [list(row) + [0] * (r + 1) for row in transposed]
    for i, row in enumerate(rows):
        row[m + i] = 1
    rows[k][-1] = 1
    # reduced costs against the artificial basis (artificial cost 1): minus
    # the column sums of the rows, so for -e_k the negated row k adds twice
    # its entries back; the last entry is minus d times the objective value
    if sign < 0:
        rows[k][:m] = [-x for x in transposed[k]]
        cost = [2 * a - s for a, s in zip(transposed[k], column_sums)]
    else:
        cost = [-s for s in column_sums]
    cost += [0] * r
    cost.append(-1)
    basis = [m + i for i in range(r)]
    d = 1
    while True:
        entering = next((j for j in range(m + r) if cost[j] < 0), None)
        if entering is None:
            break
        leave = None
        for i in range(r):
            a = rows[i][entering]
            if a <= 0:
                continue
            if leave is not None:
                # ratio rows[i][-1] / a against the best so far, cross-multiplied
                lhs = rows[i][-1] * rows[leave][entering]
                rhs = rows[leave][-1] * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave is None:
            raise InternalInconsistency("phase-I objective is unbounded below")
        pivot_row = rows[leave]
        p = pivot_row[entering]
        for row in (*rows, cost):
            if row is pivot_row:
                continue
            f = row[entering]
            if f:
                row[:] = [(p * a - f * b) // d for a, b in zip(row, pivot_row)]
            elif p != d:
                row[:] = [p * a // d for a in row]
        d = p
        basis[leave] = entering
    if cost[-1] == 0:
        # the basic normals with a nonzero numerator, at most r of them
        support = [
            (b, rows[i][-1]) for i, b in enumerate(basis) if b < m and rows[i][-1]
        ]
        if any(x < 0 for _, x in support) or any(
            sum(x * normals[b][i] for b, x in support) != (d * sign if i == k else 0)
            for i in range(r)
        ):
            raise InternalInconsistency("phase-I combination fails its target")
        coefficients = [_ZERO] * m
        for b, x in support:
            coefficients[b] = Fraction(x, d)
        return True, tuple(coefficients)
    y = [d - cost[m + i] for i in range(r)]
    y[k] *= sign
    if any(sum(a * b for a, b in zip(y, n)) > 0 for n in normals) or sign * y[k] <= 0:
        raise InternalInconsistency("phase-I dual fails to separate the target")
    return False, tuple(y)


def decide_cone(sys: ConeSystem) -> ConeDecision:
    """TRIVIAL with a full Farkas certificate, or NONTRIVIAL with a nonzero
    integer point of the cone; the first infeasible direction in the fixed
    solve order determines the witness, so the answer is deterministic.

    The normals' coordinate rows and entry sums are built once here; each
    of the 2r directions of :func:`signed_directions` then starts its
    :func:`_phase_one` tableau from copies of them."""
    normals = sys.normals
    transposed = tuple(zip(*normals))
    column_sums = [sum(n) for n in normals]
    combinations = []
    for k in range(sys.dimension):
        for sign in (1, -1):
            feasible, payload = _phase_one(normals, transposed, column_sums, k, sign)
            if not feasible:
                witness = _coprime_integers([-y for y in payload])
                if not (any(witness) and sys.contains(witness)):
                    raise InternalInconsistency(
                        f"cone witness {witness} is zero or violates an inequality"
                    )
                return ConeDecision(trivial=False, witness=witness, certificate=None)
            combinations.append(payload)
    certificate = FarkasCertificate(
        dimension=sys.dimension, combinations=tuple(combinations)
    )
    if not verify_certificate(sys, certificate):
        raise InternalInconsistency("Farkas certificate fails its exact replay")
    return ConeDecision(trivial=True, witness=None, certificate=certificate)


def verify_certificate(sys: ConeSystem, cert: FarkasCertificate) -> bool:
    """Replay the rational arithmetic: every combination must be nonnegative
    and sum exactly to its direction, and all 2r directions must be covered.

    Each combination is replayed in integers over its common denominator:
    the coefficients (``int`` or ``Fraction``) times the lcm of their
    denominators, applied to the integer normals, must sum to that lcm times
    the direction.  The sums run over the nonzero coefficients only; a basic
    solution has at most r of them out of m.  The replay reads nothing of
    the tableau that produced the certificate."""
    directions = signed_directions(sys.dimension)
    if cert.dimension != sys.dimension or len(cert.combinations) != len(directions):
        return False
    m = len(sys.normals)
    for direction, coeffs in zip(directions, cert.combinations):
        if len(coeffs) != m:
            return False
        # a Fraction keeps its sign in the numerator; a coefficient without
        # one (a float, say) is no exact certificate
        try:
            support = [
                (c.numerator, c.denominator, n)
                for c, n in zip(coeffs, sys.normals)
                if c
            ]
        except AttributeError:
            return False
        if any(p < 0 for p, _, _ in support):
            return False
        scale = lcm(*(q for _, q, _ in support))
        total = [0] * sys.dimension
        for p, q, n in support:
            k = p * (scale // q)
            total = [s + k * x for s, x in zip(total, n)]
        if total != [scale * t for t in direction]:
            return False
    return True
