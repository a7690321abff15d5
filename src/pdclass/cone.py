"""Exact decision of whether a rational polyhedral cone is {0}.

The cone is the solution set of finitely many homogeneous inequalities
``n . x >= 0``.  It is trivial exactly when the dual cone spanned by the
normals is the whole space, i.e. when every signed coordinate direction is a
nonnegative combination of normals.  Each direction is settled by a Phase-I
simplex on a fraction-free integer tableau: the normals are scaled to integer
columns once per system, and every pivot is a Bareiss step over one common
denominator, so no rational arithmetic happens inside a solve.  Entering and
leaving choices follow the least-index rule, which makes every solve
terminate; positive column scales change neither the signs nor the ratio
order it reads, so the pivots, and with them every witness and certificate,
are those of the plain rational tableau.

Whichever way the decision goes, the proof object is checked in exact
integers inside the solve and again before it leaves this module; a Farkas
certificate is replayed by :func:`verify_certificate` in plain Fractions,
independently of the tableau.  Every check raises ``InternalInconsistency``,
so none of them disappears under ``python -O``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InternalInconsistency

Vector = tuple[Fraction, ...]


@dataclass(frozen=True, eq=False)
class ConeSystem:
    """Normals of the inequalities; the cone is {x : n . x >= 0 for all n}."""

    normals: tuple[Vector, ...]

    @property
    def dimension(self) -> int:
        return len(self.normals[0])

    def contains(self, point: Sequence[Fraction | int]) -> bool:
        return all(_dot(n, point) >= 0 for n in self.normals)


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
    if not normals:
        raise ValueError("a cone system needs at least one normal")
    dim = len(normals[0])
    if dim == 0 or any(len(n) != dim for n in normals):
        raise ValueError("normals must share a positive dimension")
    return ConeSystem(tuple(tuple(Fraction(x) for x in n) for n in normals))


def signed_directions(dimension: int) -> tuple[tuple[int, ...], ...]:
    """The fixed solve order +e1, -e1, +e2, -e2, ..."""
    out = []
    for i in range(dimension):
        unit = tuple(1 if j == i else 0 for j in range(dimension))
        out.append(unit)
        out.append(tuple(-x for x in unit))
    return tuple(out)


def _dot(a: Sequence[Fraction | int], b: Sequence[Fraction | int]) -> Fraction:
    return Fraction(sum(x * y for x, y in zip(a, b)))


def _coprime_integers(vec: Sequence[Fraction]) -> tuple[int, ...]:
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


def _integer_columns(
    normals: Sequence[Vector],
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Each normal times the lcm of its denominators, with those scales.

    A positive column scale changes neither the sign of a reduced cost nor
    the order of the ratios in a column, so the pivot choices are unchanged.
    """
    scales = tuple(lcm(*(x.denominator for x in n)) for n in normals)
    columns = tuple(
        tuple(x.numerator * (s // x.denominator) for x in n)
        for n, s in zip(normals, scales)
    )
    return columns, scales


def _phase_one(
    columns: Sequence[Sequence[int]], scales: Sequence[int], target: Sequence[int]
) -> tuple[bool, tuple[Fraction, ...]]:
    """Is ``target`` a nonnegative combination of ``columns[j] / scales[j]``?

    Returns (True, coefficients) or (False, y) where y separates: y . column
    <= 0 for every column while y . target > 0.  Entering and leaving choices
    both use the least-index rule, so the solve cannot cycle.

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
        return True, tuple(
            Fraction(s * x, d) for s, x in zip(scales, numerators)
        )
    y = [sigma[i] * (d - cost[m + i]) for i in range(r)]
    if any(sum(a * b for a, b in zip(y, col)) > 0 for col in columns) or sum(
        a * b for a, b in zip(y, target)
    ) <= 0:
        raise InternalInconsistency("phase-I dual fails to separate the target")
    return False, tuple(Fraction(x, d) for x in y)


def decide_cone(sys: ConeSystem) -> ConeDecision:
    """TRIVIAL with a full Farkas certificate, or NONTRIVIAL with a nonzero
    integer point of the cone; the first infeasible direction in the fixed
    solve order determines the witness, so the answer is deterministic."""
    columns, scales = _integer_columns(sys.normals)
    combinations = []
    for direction in signed_directions(sys.dimension):
        feasible, payload = _phase_one(columns, scales, direction)
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

    The sums run over the nonzero coefficients only; a basic solution has at
    most r of them out of m."""
    directions = signed_directions(sys.dimension)
    if cert.dimension != sys.dimension or len(cert.combinations) != len(directions):
        return False
    m = len(sys.normals)
    for direction, coeffs in zip(directions, cert.combinations):
        if len(coeffs) != m or any(c < 0 for c in coeffs):
            return False
        support = [(c, n) for c, n in zip(coeffs, sys.normals) if c]
        for i in range(sys.dimension):
            if sum(c * n[i] for c, n in support) != direction[i]:
                return False
    return True
