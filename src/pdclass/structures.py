"""Invariant complex structures on a graded domain.

A structure is encoded by the root set S of its anti-holomorphic tangent
half: one root from each pair {a, -a} outside the isotropy, invariant under
adding isotropy roots, and closed under root addition.  Conjugation acts as
negation throughout (the Cartan subalgebra sits inside the compact part, so
conjugation flips root spaces across zero).

The module builds the distinguished splitting of the noncompact roots that
exists exactly when the symmetric quotient G/K is Hermitian, assembles the
associated new structure (fiber directions plus the minus half of the
splitting), and can enumerate every structure of a small system outright.

Structures keep their roots as frozensets of tuples, and derive their
parabolic on first read, but the checks and the enumeration work on
Python-int bitmasks over the root system's ``root_table``: bit i stands for
the root of index i in canonical order.  Only ``validate_structure``, on a
candidate holding a non-root, sums tuples pair by pair.  A mask goes back
to roots through one decoding (:func:`_row`): ``bin`` and one translate
table turn it into a row of 0/1 bytes, and ``itertools.compress`` over the
row picks the roots, negatives or ranks of its members.  The enumeration
decodes each mask it finds once; the row gives the structure's sort key and
its roots, and the rows together, transposed, the columns of one
bit-sliced check of every structure over the partner triples
(:func:`_rejected`), rather than one ``make_structure`` call per structure.
The Hermitian splitting reads no table: it checks its center direction on
every root instead of summing roots.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from operator import mul
from typing import Iterable

from .errors import HermitianAnomaly, NotHermitian, TooLarge, ValidationFailed
from .grading import HodgeGrading
from .rootsys import Root, RootTable, root_add, root_key, root_neg


@dataclass(frozen=True, eq=False)
class HermitianSplitting:
    """Center direction z of the compact part, normalized so every noncompact
    root evaluates to +1 or -1, and the two halves it cuts."""

    center_direction: tuple[Fraction, ...]
    plus_roots: frozenset[Root]
    minus_roots: frozenset[Root]


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """A structure's root set and the isotropy roots of its grading; the
    parabolic (the negated root set together with the isotropy roots) is
    built on first read."""

    roots: frozenset[Root]
    isotropy_roots: frozenset[Root]

    @cached_property
    def parabolic_roots(self) -> frozenset[Root]:
        return frozenset(map(root_neg, self.roots)) | self.isotropy_roots


@dataclass(frozen=True, eq=False)
class NewStructure:
    structure: ComplexStructure
    splitting: HermitianSplitting
    differs_from_original: bool
    projection_holomorphic: bool


# one 256-byte table, its own inverse: the digits "0" and "1" to the bytes 0
# and 1, and those bytes back to the digits
_BITS = bytes.maketrans(b"01\0\1", b"\0\1" + b"01")


def _mask(index: dict[Root, int], roots: Iterable[Root]) -> int:
    """The bitmask of a set of roots: bit i stands for the root of index i."""
    return sum(map((1).__lshift__, map(index.__getitem__, roots)))


def _row(mask: int, size: int = 0) -> bytes:
    """Bit i of a mask as byte i, 0 or 1, padded with zeros to ``size``
    bytes: ``itertools.compress`` over it picks the entries of the set bits."""
    # bin() reversed reads from the lowest bit, without its "0b"
    return bin(mask)[:1:-1].encode().translate(_BITS).ljust(size, b"\0")


def _members(mask: int) -> Iterable[int]:
    """The indices of the set bits of a mask, ascending."""
    return compress(count(), _row(mask))


def _negated(table: RootTable, mask: int) -> int:
    """The mask of the negatives of the roots of ``mask``."""
    return sum(map((1).__lshift__, compress(table.negative, _row(mask))))


def _sums(table: RootTable, i: int, mask: int) -> int:
    """The bitmask of the sums of root i with the roots of ``mask`` that
    are roots: one shift per offset in ``table.shifts[i]``."""
    found = 0
    for d, targets in table.shifts[i]:
        found |= (mask << d if d > 0 else mask >> -d) & targets
    return found


def _all_sums(table: RootTable, first: int, second: int) -> int:
    """The bitmask of the sums of a root of ``first`` with a root of
    ``second`` that are roots: :func:`_sums` over the roots of ``first``."""
    shifts = table.shifts
    found = 0
    for i in _members(first):
        for d, targets in shifts[i]:
            found |= (second << d if d > 0 else second >> -d) & targets
    return found


def _escapes(
    table: RootTable, first: int, second: int, closed: int
) -> list[tuple[Root, Root, Root]]:
    """Each ``(a, b, a + b)`` with a in ``first``, b in ``second`` and
    ``a + b`` outside ``closed`` (all three bitmasks over the indices of
    ``table``), in canonical order of a, then of b.  The partner pairs are
    listed only when the sums, taken together, leave ``closed``."""
    outside = ~closed
    if not _all_sums(table, first, second) & outside:
        return []
    roots, partners = table.roots, table.partners
    return [
        (roots[i], roots[j], roots[k])
        for i in _members(first)
        for j, k in partners[i]
        if second >> j & 1 and outside >> k & 1
    ]


def hermitian_splitting(g: HodgeGrading) -> HermitianSplitting | None:
    """The splitting, or None when the compact part has no center.

    Any failure past the center-dimension gate is mathematically unexpected
    and raises ``HermitianAnomaly`` instead of being smoothed over.

    The center direction z is its own certificate.  It is checked to take
    one value +-1 on every noncompact root and to vanish on every compact
    root, and every root is one or the other.  Linearity then gives the two
    properties of the minus half without summing any roots.  For a compact
    root a and a minus root b, z(a + b) = -1: a root a + b is not compact,
    so it is noncompact with value -1 and lies in the minus half, which is
    therefore invariant under the compact part.  For two minus roots b and
    b', z(b + b') = -2, a value no root takes: the minus half is abelian.
    The values are compared as integers against the common magnitude m,
    and only z itself is divided by m.
    """
    basis = g.compact_center_basis
    dim = len(basis)
    if dim == 0:
        return None
    if dim >= 2 and g.compact_positive:
        raise HermitianAnomaly(
            f"compact center has dimension {dim} with compact roots present"
        )
    direction = basis[0]
    values = {b: sum(map(mul, direction, b)) for b in g.noncompact_roots}
    magnitudes = {abs(v) for v in values.values()}
    if 0 in magnitudes or len(magnitudes) != 1:
        raise HermitianAnomaly(
            f"no scaling of the center direction gives values +-1: {sorted(magnitudes)}"
        )
    # the nullspace makes z positive at the lowest label-1 root, its first nonzero entry
    m = magnitudes.pop()
    z = tuple(Fraction(x, m) for x in direction)
    plus = frozenset(b for b, v in values.items() if v == m)
    minus = frozenset(g.noncompact_roots - plus)
    if minus != frozenset(map(root_neg, plus)):
        raise HermitianAnomaly("halves are not negatives of each other")
    off = [a for a in g.compact_roots if sum(map(mul, direction, a))]
    if off:
        raise HermitianAnomaly(
            f"center direction does not vanish on the compact root {min(off, key=root_key)}"
        )
    return HermitianSplitting(center_direction=z, plus_roots=plus, minus_roots=minus)


def validate_structure(
    g: HodgeGrading, candidate
) -> tuple[bool, tuple[tuple[str, tuple], ...]]:
    """Check the three structure conditions; violations come back as
    (condition, data) pairs rather than exceptions.

    The strong closure condition is the one tested.  Given the other two
    conditions, the weak form (sums may also fall into the isotropy) is
    provably equivalent; the checker recomputes both and raises
    ``ValidationFailed`` if they ever split, since that would contradict the
    equivalence rather than merely reject the candidate.

    A candidate of roots only is checked on bitmasks over the root
    system's ``root_table`` (:func:`_escapes`).  A non-root may still sum
    with something to a root, so a candidate holding one has every pair of
    its tuples summed, with the same violations in the same order.
    """
    rs = g.root_system
    chosen = frozenset(map(tuple, candidate))
    if chosen <= rs.roots:
        table = rs.root_table
        roots = table.roots
        s = _mask(table.index, chosen)
        negated = _negated(table, s)
        isotropy = _mask(table.index, g.isotropy_roots)
        outside = list(compress(roots, _row(s & isotropy)))
        everything = (1 << len(roots)) - 1
        halves = (s | negated) == everything ^ isotropy and not (s & negated)
        invariance = _escapes(table, isotropy, s, s)
        escapes = _escapes(table, s, s, s)
    else:
        outside = sorted(
            (a for a in chosen if a not in rs.roots or a in g.isotropy_roots), key=root_key
        )
        halves = False  # a non-root lies in neither half
        ordered = sorted(chosen, key=root_key)
        invariance, escapes = (
            [
                (a, b, t)
                for a in first
                for b in ordered
                if (t := root_add(a, b)) in rs.roots and t not in chosen
            ]
            for first in (sorted(g.isotropy_roots, key=root_key), ordered)
        )
    violations: list[tuple[str, tuple]] = []
    if outside:
        violations.append(("universe", tuple(outside)))
    if not halves:
        violations.append(("half_selection", ()))
    violations += [("isotropy_invariance", escape) for escape in invariance]
    violations += [("sum_closure", escape) for escape in escapes]
    strong_ok = not escapes
    weak_ok = all(t in g.isotropy_roots for _, _, t in escapes)
    others_ok = halves and not invariance
    if others_ok and not outside and weak_ok and not strong_ok:
        raise ValidationFailed(
            "weak and strong closure disagree on an otherwise valid candidate"
        )
    return not violations, tuple(violations)


def make_structure(g: HodgeGrading, candidate) -> ComplexStructure:
    """Validate and wrap a root set together with the grading's isotropy
    roots, from which its parabolic is derived."""
    ok, violations = validate_structure(g, candidate)
    if not ok:
        raise ValidationFailed(f"invalid structure: {violations[0]}")
    # a valid frozenset holds root tuples only: no need to hash it again
    chosen = candidate if type(candidate) is frozenset else frozenset(map(tuple, candidate))
    return ComplexStructure(roots=chosen, isotropy_roots=g.isotropy_roots)


def new_complex_structure(g: HodgeGrading) -> NewStructure:
    """Fiber directions plus the minus half of the Hermitian splitting.

    Requires the splitting; validates everything it claims, including that
    the parabolic takes the predicted shape (negated fiber, plus half,
    isotropy)."""
    hs = hermitian_splitting(g)
    if hs is None:
        raise NotHermitian("the compact part has no center: no splitting exists")
    s = frozenset(g.fiber_roots) | hs.minus_roots
    cs = make_structure(g, s)
    predicted = frozenset(map(root_neg, g.fiber_roots)) | hs.plus_roots | g.isotropy_roots
    if parabolic_of(g, cs) != predicted:
        raise ValidationFailed("parabolic of the new structure has the wrong shape")
    return NewStructure(
        structure=cs,
        splitting=hs,
        differs_from_original=s != frozenset(g.tangent_roots),
        projection_holomorphic=is_projection_holomorphic(g, cs, hs),
    )


def parabolic_of(g: HodgeGrading, cs: ComplexStructure) -> frozenset[Root]:
    """The parabolic root set of a structure, re-checked for closure and for
    covering the whole system together with its opposite, on its bitmask
    over the root system's ``root_table``."""
    rs = g.root_system
    roots = cs.parabolic_roots
    table = rs.root_table
    # a set holding a non-root gets the empty mask, whose union with its
    # opposite misses every root
    p = _mask(table.index, roots) if roots <= rs.roots else 0
    for p1, p2, t in _escapes(table, p, p, p):
        raise ValidationFailed(f"parabolic not closed: {p1} + {p2} = {t}")
    if p | _negated(table, p) != (1 << len(table.roots)) - 1:
        raise ValidationFailed("parabolic union its opposite misses roots")
    return roots


def positive_system_of(
    g: HodgeGrading, cs: ComplexStructure
) -> tuple[frozenset[Root], tuple[Root, ...]]:
    """The structure's root set together with the positive isotropy roots is
    a positive system; returns it with its indecomposable (simple) elements.

    The checks run on the set's bitmask over the root system's
    ``root_table``.  The set and its negatives must split the system.  The
    sums of two of its roots, collected as one mask, check closure (a sum
    outside the set raises, naming the first such pair in canonical order)
    and leave the indecomposable elements."""
    rs = g.root_system
    positive = cs.roots | g.isotropy_roots.intersection(rs.positive_roots)
    table = rs.root_table
    # as in parabolic_of, a set holding a non-root gets the empty mask
    p = _mask(table.index, positive) if positive <= rs.roots else 0
    negated = _negated(table, p)
    if p | negated != (1 << len(table.roots)) - 1 or p & negated:
        raise ValidationFailed("structure does not induce a half-system")
    sums = _all_sums(table, p, p)
    if sums & ~p:
        p1, p2, _ = _escapes(table, p, p, p)[0]
        raise ValidationFailed(f"positive system not closed: {p1} + {p2}")
    return positive, tuple(compress(table.roots, _row(p & ~sums)))


def is_projection_holomorphic(
    g: HodgeGrading, cs: ComplexStructure, hs: HermitianSplitting
) -> bool:
    """Whether the structure's noncompact half matches the splitting's minus
    half, i.e. the fibration over G/K respects both complex structures."""
    return cs.roots & g.noncompact_roots == hs.minus_roots


def _propagate(
    table: RootTable, isotropy: int, isotropy_sums: list[int], assigned: int, pending: int
) -> int | None:
    """The mask ``assigned`` with the roots of ``pending`` and every root
    they force added, or None when a forced root meets its own negative or
    two assigned roots sum to an isotropy root.

    Sets are bitmasks over the indices of ``table``; ``isotropy_sums[i]``
    is ``_sums(table, i, isotropy)``, the same at every node of a search.
    Each sum of the root just assigned with an isotropy root or an assigned
    root is forced, unless a sum with an assigned root is an isotropy root.
    Every pair of assigned roots is met once, when the later one is
    assigned, so the outcome does not depend on the order in which pending
    roots are taken.
    """
    negative = table.negative
    pending &= ~assigned
    while pending:
        low = pending & -pending
        root = low.bit_length() - 1
        if assigned >> negative[root] & 1:
            return None
        assigned |= low
        forced = _sums(table, root, assigned)
        if forced & isotropy:
            return None
        pending = (pending | forced | isotropy_sums[root]) & ~assigned
    return assigned


def _rejected(table: RootTable, isotropy: int, rows: list[bytes]) -> int:
    """The mask of the candidates that fail a structure condition: bit t is
    set when the roots marked in ``rows[t]`` (byte i is 1 when the candidate
    holds root i of ``table``, padded to the root count) lie in the
    isotropy, miss or repeat a pair outside it, leave a sum with an isotropy
    root, or leave a sum of two of their own.

    The check is bit-sliced: the rows transposed give ``cols[i]``, with bit
    t set when candidate t holds root i, so one walk over the negatives and
    the partner triples tests every candidate at once.  It reads
    ``partners``, not the offset groups that :func:`_propagate` reads, so a
    fault in one is not mirrored in the other.
    """
    if not rows:
        return 0
    # the rows joined, last first, as digits: every size-th digit from i is
    # column i as a binary numeral, candidate t at bit t
    size = len(table.roots)
    digits = b"".join(reversed(rows)).translate(_BITS)
    cols = [int(digits[i::size], 2) for i in range(size)]
    everyone = (1 << len(rows)) - 1
    bad = 0
    for i, (col, pairs) in enumerate(zip(cols, table.partners)):
        if isotropy >> i & 1:
            bad |= col
            for j, k in pairs:
                bad |= cols[j] & ~cols[k]
        elif i < table.negative[i]:
            opposite = cols[table.negative[i]]
            bad |= col & opposite | everyone & ~(col | opposite)
        if col:
            for j, k in pairs:
                if j >= i:
                    bad |= col & cols[j] & ~cols[k]
    return bad


def enumerate_structures(
    g: HodgeGrading, limit: int | None = None, max_pairs: int = 24
) -> tuple[tuple[ComplexStructure, ...], bool]:
    """All invariant structures, by backtracking over one sign choice per
    root pair with eager constraint propagation (:func:`_propagate`) on
    bitmasks over the root system's ``root_table``.

    Pairs are visited in canonical order, positive representative first,
    depth first, so ``limit`` keeps the first structures found.  Returns
    the structures in canonical sorted order plus a truncation flag when
    ``limit`` cut the search short.  Each structure found is validated
    once, by the bit-sliced pass of :func:`_rejected` over all of them
    together.  On any assignment the propagation should not have admitted,
    the first rejected structure in output order goes through
    :func:`validate_structure`, and ``ValidationFailed`` names its first
    violation, or says the two checkers disagree.
    """
    rs = g.root_system
    reps = [a for a in rs.positive_roots if a not in g.isotropy_roots]
    if len(reps) > max_pairs:
        raise TooLarge(f"{len(reps)} root pairs exceeds the bound {max_pairs}")
    table = rs.root_table
    roots_of = table.roots
    isotropy = _mask(table.index, g.isotropy_roots)
    isotropy_sums = [_sums(table, i, isotropy) for i in range(len(roots_of))]
    pairs = []
    for i in map(table.index.__getitem__, reps):
        rep, neg = 1 << i, 1 << table.negative[i]
        pairs.append((rep, neg, rep | neg))
    count = len(pairs)
    found: list[int] = []
    truncated = False
    # a node is an assignment, the root to propagate into it, and the first
    # pair it may leave unassigned; the representative's node goes on top,
    # so it is searched first
    stack = [(0, 0, 0)]
    while stack:
        assigned, candidate, p = stack.pop()
        assigned = _propagate(table, isotropy, isotropy_sums, assigned, candidate)
        if assigned is None:
            continue
        while p < count and assigned & pairs[p][2]:
            p += 1
        if p == count:
            if limit is not None and len(found) >= limit:
                truncated = True
                break
            found.append(assigned)
            continue
        rep, neg, _ = pairs[p]
        stack.append((assigned, neg, p + 1))
        stack.append((assigned, rep, p + 1))

    # each mask decoded once; tuples of ranks sort like the tuples of roots
    # they stand for
    size = len(roots_of)
    rank = table.tuple_rank
    rows = sorted(
        (_row(mask, size) for mask in found), key=lambda row: tuple(compress(rank, row))
    )
    rejected = _rejected(table, isotropy, rows)
    if rejected:
        roots = tuple(compress(roots_of, rows[(rejected & -rejected).bit_length() - 1]))
        ok, violations = validate_structure(g, roots)
        if ok:
            raise ValidationFailed(
                f"the batch check and validate_structure disagree on {roots}"
            )
        raise ValidationFailed(f"invalid structure: {violations[0]}")
    structures = tuple(
        ComplexStructure(frozenset(compress(roots_of, row)), g.isotropy_roots)
        for row in rows
    )
    return structures, truncated
