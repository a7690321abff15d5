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
from functools import cached_property, lru_cache
from math import gcd, inf, lcm
from operator import add, neg
from typing import Iterable, NamedTuple, Sequence

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
        if type_label == "B":
            # last simple root short: the double bond points at it
            join(rank - 2, rank - 1, -2, -1)
        if type_label == "C":
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
    scale = lcm(*(v.denominator for v in d))
    ints = [int(v * scale) for v in d]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _bilinear_times(bilinear: Sequence[Sequence[int]], alpha: Sequence[int]) -> Root:
    """The integer vector B @ alpha."""
    return tuple(sum(b * a for b, a in zip(row, alpha)) for row in bilinear)


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


class RootTable(NamedTuple):
    """The root-addition table of one system.  Roots are numbered in
    canonical (``root_key``) order, and every entry is a root index:
    ``roots[i]`` is root ``i`` and ``index`` inverts that, ``negative[i]``
    is the index of its negative, and ``partners[i]`` lists the pairs
    ``(j, k)`` with ``roots[i] + roots[j] == roots[k]``, ``j`` ascending.

    ``shifts[i]`` groups the same pairs by their offset ``d = k - j``, as
    ``(d, bitmask of their k)``, so that the sums of root i with a whole
    bitmask of roots come out of one shift per offset.  The negative roots
    come first, so ``d`` is positive exactly when root i is.

    ``tuple_rank[i]`` is the rank of root i among all roots compared as
    plain tuples, so tuples of ranks sort like tuples of roots.
    """

    roots: tuple[Root, ...]
    index: dict[Root, int]
    negative: tuple[int, ...]
    partners: tuple[tuple[tuple[int, int], ...], ...]
    shifts: tuple[tuple[tuple[int, int], ...], ...]
    tuple_rank: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable root data for one simple type; safe to share between threads.

    ``root_table`` (the root-addition table) is built on first use and then
    kept on the instance; ``build_root_system`` does not build it.  Only the
    structures layer and the triple-sum lemma read it: the classify path
    sums its own tuples, so a fault in the table cannot make its routes
    agree wrongly.
    """

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

    @cached_property
    def root_table(self) -> RootTable:
        """The :class:`RootTable` of this system.

        Built on integer codes: a root codes as ``sum(c_i * B**i)`` with
        ``B = 4 * max|c| + 1``.  A sum of two roots keeps every digit within
        ``2 * max|c| < B / 2``, so codes add like roots, negate like roots
        and sort like ``root_key``.
        """
        base = 4 * max(map(max, self.positive_roots)) + 1
        by_code = {}
        for root in self.roots:
            code = 0
            for c in reversed(root):
                code = code * base + c
            by_code[code] = root
        codes = sorted(by_code)
        at = {code: i for i, code in enumerate(codes)}
        roots = tuple(map(by_code.__getitem__, codes))
        partners = tuple(
            tuple((j, at[a + b]) for j, b in enumerate(codes) if a + b in at)
            for a in codes
        )
        shifts = []
        for pairs in partners:
            sums: dict[int, int] = {}
            for j, k in pairs:
                sums[k - j] = sums.get(k - j, 0) | 1 << k
            shifts.append(tuple(sums.items()))
        ranked = {root: r for r, root in enumerate(sorted(roots))}
        return RootTable(
            roots=roots,
            index={root: i for i, root in enumerate(roots)},
            negative=tuple(at[-code] for code in codes),
            partners=partners,
            shifts=tuple(shifts),
            tuple_rank=tuple(map(ranked.__getitem__, roots)),
        )

    def bilinear_row(self, alpha: Root) -> tuple[int, ...]:
        """The integer vector B @ alpha, cached for every root."""
        row = self.bilinear_by_root.get(alpha)
        return _bilinear_times(self.bilinear, alpha) if row is None else row

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
    by_root = {alpha: _bilinear_times(bilinear, alpha) for alpha in all_roots}
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

    Walks ``rs.root_table``: each beta in canonical order, each partner
    gamma with delta = beta + gamma, then each alpha with alpha + delta a
    root, so the violations come in canonical (beta, gamma, alpha) order.
    Whether alpha + beta (or alpha + gamma) is a root is partner membership.
    """
    table = rs.root_table
    roots, negative, partners = table.roots, table.negative, table.partners
    adds_to = [frozenset(j for j, _ in pairs) for pairs in partners]
    violations: list[tuple[Root, Root, Root]] = []
    for beta, beta_partners in enumerate(partners):
        for gamma, delta in beta_partners:
            degenerate = (negative[beta], negative[gamma])
            for alpha, _ in partners[delta]:
                if not include_degenerate and alpha in degenerate:
                    continue
                if alpha in adds_to[beta] or alpha in adds_to[gamma]:
                    continue
                violations.append((roots[alpha], roots[beta], roots[gamma]))
    return (not violations, tuple(violations))
