"""Finite root systems of the simple types A-G in exact integer arithmetic.

Roots are coefficient vectors over the simple roots, stored as plain integer
tuples; no Euclidean embedding is ever used.  The invariant bilinear form is
the symmetrized Cartan matrix ``B[i][j] = cartan[j][i] * d[i]`` with ``d`` the
minimal positive-integer symmetrizer, so every pairing is an exact rational.

The Cartan matrix convention is ``cartan[i][j] = <alpha_i, alpha_j^vee>``;
consequently ``<beta, alpha_i^vee> = sum_j beta[j] * cartan[j][i]``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf
from operator import add, neg
from typing import Iterable, Sequence

from .errors import InternalInconsistency, InvalidTypeRank

Root = tuple[int, ...]
Weight = tuple[Fraction, ...]

# lowest and highest rank of each family, from the lowest rank at which the
# family is defined and not a duplicate of another (A1 = B1 = C1, D3 = A3)
FAMILY_RANKS = {
    "A": (1, inf),
    "B": (2, inf),
    "C": (2, inf),
    "D": (4, inf),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def root_add(a: Sequence[int], b: Sequence[int]) -> Root:
    """Componentwise sum of two coefficient vectors (a root or not)."""
    return tuple(map(add, a, b))


def root_neg(a: Sequence[int]) -> Root:
    """Componentwise negation of a coefficient vector."""
    return tuple(map(neg, a))


def root_key(alpha: Sequence[int]) -> tuple[int, ...]:
    """Canonical sort key for roots: lexicographic on the reversed vector."""
    return tuple(reversed(alpha))


def expected_root_count(type_label: str, rank: int) -> int:
    """Closed-form number of roots for a valid simple (type, rank) pair."""
    if type_label == "A":
        return rank * (rank + 1)
    if type_label in ("B", "C"):
        return 2 * rank * rank
    if type_label == "D":
        return 2 * rank * (rank - 1)
    if type_label == "E":
        return {6: 72, 7: 126, 8: 240}[rank]
    if type_label == "F":
        return 48
    return 12  # G2


def validate_type_rank(type_label: str, rank: int) -> None:
    low, high = FAMILY_RANKS.get(type_label, (1, 0))  # unknown family: no rank fits
    if not low <= rank <= high:
        raise InvalidTypeRank(f"no simple root system of type {type_label}{rank}")


def cartan_matrix(type_label: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with ``A[i][j] = <alpha_i, alpha_j^vee>`` (0-indexed)."""
    validate_type_rank(type_label, rank)
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def join(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if type_label in ("A", "B", "C"):
        for i in range(rank - 1):
            join(i, i + 1)
        if type_label == "B" and rank >= 2:
            # last simple root short: the double bond points at it
            join(rank - 2, rank - 1, -2, -1)
        if type_label == "C" and rank >= 2:
            # last simple root long
            join(rank - 2, rank - 1, -1, -2)
    elif type_label == "D":
        for i in range(rank - 2):
            join(i, i + 1)
        join(rank - 3, rank - 1)
    elif type_label == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for u, v in zip(chain, chain[1:]):
            join(u, v)
        join(1, 3)
    elif type_label == "F":
        join(0, 1)
        join(1, 2, -2, -1)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        join(2, 3)
    else:  # G2, first simple root short
        join(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Minimal positive integers d with d[i]*cartan[j][i] symmetric."""
    rank = len(cartan)
    d: list[Fraction | None] = [None] * rank
    d[0] = Fraction(1)
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(rank):
            if cartan[i][j] != 0 and i != j and d[j] is None:
                # requirement: d[j] * cartan[i][j] == d[i] * cartan[j][i]
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                pending.append(j)
    if None in d:
        raise InternalInconsistency("Cartan matrix not connected")
    scale = 1
    for v in d:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    ints = [int(v * scale) for v in d]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def _coroot_pairing(cartan: Sequence[Sequence[int]], beta: Sequence[int], i: int) -> int:
    return sum(beta[j] * cartan[j][i] for j in range(len(beta)))


def _generate_positive_roots(cartan: Sequence[Sequence[int]]) -> list[Root]:
    """Height-by-height generation via root strings through simple roots."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    found: set[Root] = set(simple)
    level: list[Root] = list(simple)
    while level:
        nxt: list[Root] = []
        for beta in level:
            for i in range(rank):
                down = 0
                walk = list(beta)
                while True:
                    walk[i] -= 1
                    if tuple(walk) in found:
                        down += 1
                    else:
                        break
                up = down - _coroot_pairing(cartan, beta, i)
                if up >= 1:
                    cand = list(beta)
                    cand[i] += 1
                    root = tuple(cand)
                    if root not in found:
                        found.add(root)
                        nxt.append(root)
        level = nxt
    return sorted(found, key=root_key)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable root data for one simple type; safe to share between threads."""

    type_label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    bilinear: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    roots: frozenset[Root]
    bilinear_by_root: dict[Root, tuple[int, ...]]

    @property
    def simple_roots(self) -> tuple[Root, ...]:
        return tuple(
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        )

    def root_sum(self, a: Root, b: Root) -> Root | None:
        """Componentwise sum if it is again a root, else None."""
        s = root_add(a, b)
        return s if s in self.roots else None

    def coroot_pairing(self, beta: Root, i: int) -> int:
        """Exact integer ``<beta, alpha_i^vee>`` (0-indexed simple root)."""
        return _coroot_pairing(self.cartan, beta, i)

    def bilinear_row(self, alpha: Root) -> tuple[int, ...]:
        """The integer vector B @ alpha, cached for every root."""
        row = self.bilinear_by_root.get(alpha)
        if row is None:
            row = tuple(
                sum(self.bilinear[i][j] * alpha[j] for j in range(self.rank))
                for i in range(self.rank)
            )
        return row

    def pairing(self, weight: Sequence[Fraction | int], alpha: Root) -> Fraction:
        """Bilinear pairing (weight, alpha), exact."""
        if len(weight) != self.rank or len(alpha) != self.rank:
            raise ValueError("dimension mismatch")
        row = self.bilinear_row(alpha)
        return Fraction(sum(w * b for w, b in zip(weight, row)))

    def root_set_sum(self, first: Iterable[Root], second: Iterable[Root]) -> frozenset[Root]:
        """All pairwise sums that land back in the root system."""
        second = list(second)
        sums = (root_add(a, b) for a in first for b in second)
        return frozenset(s for s in sums if s in self.roots)


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Construct (and cache) the full root system for a simple (type, rank)."""
    type_label = type_label.upper()
    validate_type_rank(type_label, rank)
    cartan = cartan_matrix(type_label, rank)
    d = _symmetrizer(cartan)
    bilinear = tuple(
        tuple(cartan[j][i] * d[i] for j in range(rank)) for i in range(rank)
    )
    if any(bilinear[i][j] != bilinear[j][i] for i in range(rank) for j in range(rank)):
        raise InternalInconsistency(f"{type_label}{rank}: bilinear form not symmetric")
    positives = _generate_positive_roots(cartan)
    count = expected_root_count(type_label, rank)
    if 2 * len(positives) != count:
        raise InternalInconsistency(
            f"{type_label}{rank}: generated {2 * len(positives)} roots, expected {count}"
        )
    all_roots = frozenset(positives) | frozenset(map(root_neg, positives))
    by_root = {}
    for alpha in all_roots:
        by_root[alpha] = tuple(
            sum(bilinear[i][j] * alpha[j] for j in range(rank)) for i in range(rank)
        )
    return RootSystem(
        type_label=type_label,
        rank=rank,
        cartan=cartan,
        symmetrizer=d,
        bilinear=bilinear,
        positive_roots=tuple(positives),
        roots=all_roots,
        bilinear_by_root=by_root,
    )


def verify_triple_sum_reduction(
    rs: RootSystem, include_degenerate: bool = False
) -> tuple[bool, tuple[tuple[Root, Root, Root], ...]]:
    """Check that whenever beta+gamma and alpha+beta+gamma are roots, one of
    alpha+beta or alpha+gamma is already a root.

    Triples with beta == -alpha or gamma == -alpha are excluded; the exclusion
    is load-bearing, and ``include_degenerate=True`` drops it to exhibit the
    failures (rank A2 already produces some).  Returns (holds, violations).
    """
    roots = sorted(rs.roots, key=root_key)
    summand_pairs: list[tuple[Root, Root, Root]] = []
    for beta in roots:
        for gamma in roots:
            s = root_add(beta, gamma)
            if s in rs.roots:
                summand_pairs.append((beta, gamma, s))
    adders: dict[Root, list[Root]] = {}
    for delta in rs.roots:
        adders[delta] = [alpha for alpha in roots if root_add(alpha, delta) in rs.roots]
    violations: list[tuple[Root, Root, Root]] = []
    for beta, gamma, delta in summand_pairs:
        degenerate = (root_neg(beta), root_neg(gamma))
        for alpha in adders[delta]:
            if not include_degenerate and alpha in degenerate:
                continue
            if root_add(alpha, beta) in rs.roots or root_add(alpha, gamma) in rs.roots:
                continue
            violations.append((alpha, beta, gamma))
    return (not violations, tuple(violations))
