"""Period-domain data: a {0,1,2} label per simple root and what follows from it.

The label vector induces an integer grade on every root (the value of the
grading element), and the grade's parity splits the system into compact and
noncompact roots.  Everything downstream (the classification criteria, the
curvature signatures, the invariant complex structures) is a function of the
sets materialized here.

Convention: positive roots of nonzero grade index the *descending* side of
the flag (the tangent directions of the domain), so ``noncompact_positive``
is the index set of the fiber of the anti-holomorphic half of the horizontal
distribution.  All criteria are invariant under flipping this convention
globally; the test suite asserts that.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import mul
from typing import Sequence

from .errors import CompactForm, InternalInconsistency, LabelOutOfRange
from .rootsys import Root, RootSystem, root_add, root_neg

CenterBasis = tuple[tuple[int, ...], ...]


def rational_nullspace(rows: Sequence[Sequence[int]], dim: int) -> CenterBasis:
    """Basis of {x : row . x = 0 for all integer rows}, exact, deterministically
    ordered.

    Forward elimination stays in integers: each row is reduced against the
    pivot rows found so far by cross-multiplication, and a row that survives
    becomes a pivot row, divided by its gcd.  Full rank returns ``()`` at
    once.  Otherwise each free column gives one basis vector, 1 there and 0
    on the other free columns, with the pivot columns solved in integers,
    last pivot first, scaling the vector where a division would not be
    exact.  Divided by its gcd and signed so its first nonzero coordinate is
    positive, it is the Gauss-Jordan basis vector in coprime integers.
    """
    pivot_rows: dict[int, list[int]] = {}
    for row in rows:
        row = list(row)
        lead = next((c for c in range(dim) if row[c]), None)
        while lead is not None and lead in pivot_rows:
            pivot = pivot_rows[lead]
            p, q = pivot[lead], row[lead]
            row = [p * x - q * y for x, y in zip(row, pivot)]
            lead = next((c for c in range(lead + 1, dim) if row[c]), None)
        if lead is None:
            continue
        g = gcd(*row)
        pivot_rows[lead] = [x // g for x in row] if g > 1 else row
        if len(pivot_rows) == dim:
            return ()
    last_first = sorted(pivot_rows.items(), reverse=True)
    basis = []
    for free in range(dim):
        if free in pivot_rows:
            continue
        vec = [0] * dim
        vec[free] = 1
        for col, row in last_first:
            lead = row[col]
            if lead == 0:
                raise InternalInconsistency(
                    f"pivot row for column {col} has a zero leading entry"
                )
            # vec[col] is still 0, and row is 0 left of col
            rest = sum(map(mul, row, vec))
            if rest:
                g = gcd(rest, lead)
                vec = [x * (lead // g) for x in vec]
                vec[col] = -(rest // g)
        first = next(x for x in vec if x)
        g = gcd(*vec) if first > 0 else -gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return tuple(basis)


@dataclass(frozen=True, eq=False)
class HodgeGrading:
    """One grading of a root system, with every derived root set materialized.

    Sets come in canonical order (sorted by :func:`rootsys.root_key`) wherever
    order matters for deterministic witnesses and traces.
    """

    root_system: RootSystem
    labels: tuple[int, ...]
    # grade-0 roots, both signs (the roots of the isotropy subalgebra)
    isotropy_roots: frozenset[Root]
    compact_roots: frozenset[Root]
    noncompact_roots: frozenset[Root]
    compact_positive: tuple[Root, ...]
    noncompact_positive: tuple[Root, ...]
    # compact positive roots of nonzero grade (the fiber K/V directions)
    fiber_roots: tuple[Root, ...]
    # all positive roots of nonzero grade (the tangent directions of D)
    tangent_roots: tuple[Root, ...]
    # integer basis of {z : alpha(z) = 0 for every compact root alpha}, in
    # dual-basis coordinates; one vector signals Hermitian type
    compact_center_basis: CenterBasis

    @property
    def dim_D(self) -> int:
        """Complex dimension of the domain: positive roots of nonzero grade."""
        return len(self.tangent_roots)

    @property
    def dim_KV(self) -> int:
        """Complex dimension of the compact fiber K/V."""
        return len(self.fiber_roots)

    @property
    def m0(self) -> int:
        """Codimension of the fiber in the domain: dim_D - dim_KV; equals the
        number of positive noncompact roots."""
        return len(self.noncompact_positive)

    @property
    def two_rho_nc(self) -> tuple[int, ...]:
        """Coefficient vector of the sum of all positive noncompact roots."""
        return reduce(root_add, self.noncompact_positive, (0,) * self.root_system.rank)


def domain_text(type_label: str, rank: int, labels: Sequence[int]) -> str:
    """The spec ``<letter><rank>/<c_1>,...,<c_r>``; ``cli.parse_domain`` reads it."""
    return f"{type_label}{rank}/" + ",".join(map(str, labels))


def check_label_count(type_label: str, rank: int, labels: Sequence[int]) -> None:
    """One label per simple root; checkable before the root system exists."""
    if len(labels) != rank:
        raise LabelOutOfRange(
            f"expected {rank} labels for {type_label}{rank}, got {len(labels)}"
        )


def make_grading(rs: RootSystem, labels: Sequence[int]) -> HodgeGrading:
    """Validate a label vector and materialize the grading it induces.

    Labels live in {0,1,2}: 1 on the noncompact simple roots, 0 on simple
    roots of the isotropy subalgebra, 2 on the remaining compact simples.
    At least one label must be 1, otherwise every root is compact and the
    datum describes a compact form rather than a period domain.
    """
    labels = tuple(labels)
    check_label_count(rs.type_label, rs.rank, labels)
    bad = [c for c in labels if c not in (0, 1, 2)]
    if bad:
        raise LabelOutOfRange(f"labels must lie in {{0,1,2}}, got {bad[0]}")
    if 1 not in labels:
        raise CompactForm("no label equals 1: every root is compact")

    # the grading element's value on every root, both signs
    grade = {a: sum(map(mul, labels, a)) for a in rs.roots}
    isotropy = frozenset(a for a, d in grade.items() if d == 0)
    compact = frozenset(a for a, d in grade.items() if d % 2 == 0)
    noncompact = rs.roots - compact
    compact_positive = tuple(a for a in rs.positive_roots if grade[a] % 2 == 0)
    noncompact_positive = tuple(a for a in rs.positive_roots if grade[a] % 2)
    fiber = tuple(a for a in compact_positive if grade[a])
    tangent = tuple(a for a in rs.positive_roots if grade[a])
    # some simple root has label 1, so its parity is odd
    if not noncompact_positive:
        raise InternalInconsistency(f"label 1 present but no noncompact root: {labels}")
    if isotropy != frozenset(map(root_neg, isotropy)):
        raise InternalInconsistency(f"isotropy roots not closed under negation: {labels}")
    center = rational_nullspace(compact_positive, rs.rank)
    return HodgeGrading(
        root_system=rs,
        labels=labels,
        isotropy_roots=isotropy,
        compact_roots=compact,
        noncompact_roots=noncompact,
        compact_positive=compact_positive,
        noncompact_positive=noncompact_positive,
        fiber_roots=fiber,
        tangent_roots=tangent,
        compact_center_basis=center,
    )
