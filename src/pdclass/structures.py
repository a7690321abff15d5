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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import HermitianAnomaly, NotHermitian, TooLarge, ValidationFailed
from .grading import HodgeGrading
from .rootsys import Root, RootSystem, root_add, root_key, root_neg


@dataclass(frozen=True, eq=False)
class HermitianSplitting:
    """Center direction z of the compact part, normalized so every noncompact
    root evaluates to +1 or -1, and the two halves it cuts."""

    center_direction: tuple[Fraction, ...]
    plus_roots: frozenset[Root]
    minus_roots: frozenset[Root]


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    roots: frozenset[Root]
    parabolic_roots: frozenset[Root]

    def sorted_roots(self) -> tuple[Root, ...]:
        return tuple(sorted(self.roots, key=root_key))


@dataclass(frozen=True, eq=False)
class NewStructure:
    structure: ComplexStructure
    splitting: HermitianSplitting
    differs_from_original: bool
    projection_holomorphic: bool


def _sums_outside(
    rs: RootSystem, first: Iterable[Root], second: Iterable[Root], closed: frozenset[Root]
) -> Iterator[tuple[Root, Root, Root]]:
    """Each ``(a, b, a + b)`` with ``a + b`` a root outside ``closed``, for a
    from ``first`` and b from ``second``, both taken in canonical order."""
    second = sorted(second, key=root_key)
    for a in sorted(first, key=root_key):
        for b in second:
            t = root_add(a, b)
            if t in rs.roots and t not in closed:
                yield a, b, t


def hermitian_splitting(g: HodgeGrading) -> HermitianSplitting | None:
    """The splitting, or None when the compact part has no center.

    Any failure past the center-dimension gate is mathematically unexpected
    and raises ``HermitianAnomaly`` instead of being smoothed over.
    """
    dim, basis = g.compact_center()
    if dim == 0:
        return None
    if dim >= 2 and g.compact_positive:
        raise HermitianAnomaly(
            f"compact center has dimension {dim} with compact roots present"
        )
    direction = basis[0]
    values = {b: sum(c * x for c, x in zip(direction, b)) for b in g.noncompact_roots}
    magnitudes = {abs(v) for v in values.values()}
    if 0 in magnitudes or len(magnitudes) != 1:
        raise HermitianAnomaly(
            f"no scaling of the center direction gives values +-1: {sorted(magnitudes)}"
        )
    scale = Fraction(1, magnitudes.pop())
    lowest = next(i for i, c in enumerate(g.labels) if c == 1)
    if direction[lowest] < 0:
        scale = -scale
    z = tuple(Fraction(x) * scale for x in direction)
    plus = frozenset(b for b, v in values.items() if v * scale == 1)
    minus = frozenset(g.noncompact_roots - plus)
    if minus != frozenset(map(root_neg, plus)):
        raise HermitianAnomaly("halves are not negatives of each other")
    rs = g.root_system
    if rs.root_set_sum(g.compact_roots, minus) - minus:
        raise HermitianAnomaly("minus half is not invariant under the compact part")
    if rs.root_set_sum(minus, minus):
        raise HermitianAnomaly("minus half is not abelian")
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
    """
    rs = g.root_system
    chosen = frozenset(tuple(a) for a in candidate)
    negated = frozenset(map(root_neg, chosen))
    violations: list[tuple[str, tuple]] = []
    outside = [a for a in chosen if a not in rs.roots or a in g.isotropy_roots]
    if outside:
        violations.append(("universe", tuple(sorted(outside, key=root_key))))
    if chosen | negated != rs.roots - g.isotropy_roots or chosen & negated:
        violations.append(("half_selection", ()))
    violations.extend(
        ("isotropy_invariance", escape)
        for escape in _sums_outside(rs, g.isotropy_roots, chosen, chosen)
    )
    escapes = list(_sums_outside(rs, chosen, chosen, chosen))
    violations.extend(("sum_closure", escape) for escape in escapes)
    strong_ok = not escapes
    weak_ok = all(t in g.isotropy_roots for _, _, t in escapes)
    others_ok = not any(v[0] in ("half_selection", "isotropy_invariance") for v in violations)
    if others_ok and not outside and weak_ok and not strong_ok:
        raise ValidationFailed(
            "weak and strong closure disagree on an otherwise valid candidate"
        )
    return not violations, tuple(violations)


def make_structure(g: HodgeGrading, candidate) -> ComplexStructure:
    """Validate and wrap a root set, attaching its parabolic (the negated set
    together with the isotropy roots)."""
    ok, violations = validate_structure(g, candidate)
    if not ok:
        raise ValidationFailed(f"invalid structure: {violations[0]}")
    chosen = frozenset(tuple(a) for a in candidate)
    parabolic = frozenset(map(root_neg, chosen)) | g.isotropy_roots
    return ComplexStructure(roots=chosen, parabolic_roots=parabolic)


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
    covering the whole system together with its opposite."""
    rs = g.root_system
    roots = cs.parabolic_roots
    for p1, p2, t in _sums_outside(rs, roots, roots, roots):
        raise ValidationFailed(f"parabolic not closed: {p1} + {p2} = {t}")
    if roots | frozenset(map(root_neg, roots)) != rs.roots:
        raise ValidationFailed("parabolic union its opposite misses roots")
    return roots


def positive_system_of(
    g: HodgeGrading, cs: ComplexStructure
) -> tuple[frozenset[Root], tuple[Root, ...]]:
    """The structure's root set together with the positive isotropy roots is
    a positive system; returns it with its indecomposable (simple) elements."""
    rs = g.root_system
    isotropy_positive = frozenset(
        a for a in rs.positive_roots if a in g.isotropy_roots
    )
    positive = cs.roots | isotropy_positive
    negated = frozenset(map(root_neg, positive))
    if positive | negated != rs.roots or positive & negated:
        raise ValidationFailed("structure does not induce a half-system")
    for p1, p2, _ in _sums_outside(rs, positive, positive, positive):
        raise ValidationFailed(f"positive system not closed: {p1} + {p2}")
    sums = rs.root_set_sum(positive, positive)
    simples = tuple(p for p in sorted(positive, key=root_key) if p not in sums)
    return positive, simples


def is_projection_holomorphic(
    g: HodgeGrading, cs: ComplexStructure, hs: HermitianSplitting
) -> bool:
    """Whether the structure's noncompact half matches the splitting's minus
    half, i.e. the fibration over G/K respects both complex structures."""
    return frozenset(a for a in cs.roots if a in g.noncompact_roots) == hs.minus_roots


def enumerate_structures(
    g: HodgeGrading, limit: int | None = None, max_pairs: int = 24
) -> tuple[tuple[ComplexStructure, ...], bool]:
    """All invariant structures, by backtracking over one sign choice per
    root pair with eager constraint propagation.

    Pairs are visited in canonical order, positive representative first.
    Returns the structures in canonical sorted order plus a truncation flag
    when ``limit`` cut the search short.  Each structure found is validated
    once, by :func:`make_structure`, which raises ``ValidationFailed`` on
    any assignment the propagation should not have admitted.
    """
    rs = g.root_system
    reps = [a for a in rs.positive_roots if a not in g.isotropy_roots]
    if len(reps) > max_pairs:
        raise TooLarge(f"{len(reps)} root pairs exceeds the bound {max_pairs}")
    index_of: dict[Root, int] = {}
    for i, rep in enumerate(reps):
        index_of[rep] = i
        index_of[root_neg(rep)] = i
    isotropy = sorted(g.isotropy_roots, key=root_key)
    found: list[frozenset[Root]] = []
    truncated = False

    def propagate(assignment: dict[int, Root], queue: list[Root]) -> bool:
        while queue:
            root = queue.pop()
            i = index_of[root]
            if i in assignment:
                if assignment[i] != root:
                    return False
                continue
            assignment[i] = root
            for v in isotropy:
                t = root_add(v, root)
                if t in rs.roots:
                    queue.append(t)
            for other in list(assignment.values()):
                if other == root:
                    continue
                t = root_add(other, root)
                if t in rs.roots:
                    if t in g.isotropy_roots:
                        return False
                    queue.append(t)
        return True

    def search(assignment: dict[int, Root]) -> bool:
        nonlocal truncated
        if truncated:
            return False
        next_index = next((i for i in range(len(reps)) if i not in assignment), None)
        if next_index is None:
            if limit is not None and len(found) >= limit:
                truncated = True
                return False
            found.append(frozenset(assignment.values()))
            return True
        for candidate in (reps[next_index], root_neg(reps[next_index])):
            branch = dict(assignment)
            if propagate(branch, [candidate]) and not search(branch):
                return False
        return True

    search({})
    structures = tuple(
        make_structure(g, chosen)
        for chosen in sorted(found, key=lambda s: tuple(sorted(s, key=root_key)))
    )
    return structures, truncated
