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
least-index rule, which makes every solve terminate.

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
    {x : n . x >= 0 for all n}.  Build it with :func:`make_cone_system`."""

    normals: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.normals[0])

    def contains(self, point: Sequence[Fraction | int]) -> bool:
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
    so the cone is the same set, and an integer normal keeps its values."""
    if not normals:
        raise ValueError("a cone system needs at least one normal")
    dim = len(normals[0])
    if dim == 0 or any(len(n) != dim for n in normals):
        raise ValueError("normals must share a positive dimension")
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


def _coprime_integers(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Clear denominators and divide by the gcd.  The sign is preserved,
    since a cone is not symmetric; callers that want a canonical sign (the
    compact center basis) flip it themselves."""
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _phase_one(
    columns: Sequence[Sequence[int]], target: Sequence[int]
) -> tuple[bool, tuple[Fraction, ...] | tuple[int, ...]]:
    """Is ``target`` a nonnegative combination of the integer ``columns``?

    Returns (True, coefficients) or (False, y) where the integer vector y
    separates: y . column <= 0 for every column while y . target > 0.
    Entering and leaving choices both use the least-index rule, so the solve
    cannot cycle.

    The tableau holds integers over one common denominator ``d``: row i
    stands for ``rows[i] / d``, and the last row is the phase-I reduced-cost
    row, updated by the same pivots.  A pivot on ``p`` is the Bareiss step
    ``(p * a - f * b) // d`` followed by ``d = p``; every entry is then a
    minor of the initial tableau, so each division is exact.
    """
    m = len(columns)
    r = len(target)
    sigma = [1 if t >= 0 else -1 for t in target]
    # columns m..m+r-1 are the artificials; the last entry is the right side
    rows = [
        [sigma[i] * col[i] for col in columns]
        + [1 if k == i else 0 for k in range(r)]
        + [abs(target[i])]
        for i in range(r)
    ]
    # reduced costs against the artificial basis (artificial cost 1); the
    # last entry is minus d times the objective value
    cost = [-sum(row[j] for row in rows) for j in range(m)] + [0] * r
    cost.append(-sum(row[-1] for row in rows))
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
        numerators = [0] * m
        for i, b in enumerate(basis):
            if b < m:
                numerators[b] = rows[i][-1]
        if any(x < 0 for x in numerators) or any(
            sum(x * col[i] for x, col in zip(numerators, columns) if x) != d * t
            for i, t in enumerate(target)
        ):
            raise InternalInconsistency("phase-I combination fails its target")
        return True, tuple(Fraction(x, d) for x in numerators)
    y = tuple(sigma[i] * (d - cost[m + i]) for i in range(r))
    if any(sum(a * b for a, b in zip(y, col)) > 0 for col in columns) or sum(
        a * b for a, b in zip(y, target)
    ) <= 0:
        raise InternalInconsistency("phase-I dual fails to separate the target")
    return False, y


def decide_cone(sys: ConeSystem) -> ConeDecision:
    """TRIVIAL with a full Farkas certificate, or NONTRIVIAL with a nonzero
    integer point of the cone; the first infeasible direction in the fixed
    solve order determines the witness, so the answer is deterministic."""
    combinations = []
    for direction in signed_directions(sys.dimension):
        feasible, payload = _phase_one(sys.normals, direction)
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
