"""Classical-versus-nonclassical decision by three independent routes, plus
the curvature-sign predicates for homogeneous line bundles.

The three routes, sum-freeness of the positive noncompact roots, triviality
of a rational inequality cone, and bracket-generation of the tangent space,
are computed by unrelated algorithms and must agree; :func:`classify` raises
``InternalInconsistency`` rather than pick a winner if they ever do not.
:func:`bracket_verdicts` decides the bracket route for many gradings of one
root system at once, by an algorithm unrelated to :func:`bracket_generation`.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cone import ConeDecision, ConeSystem, FarkasCertificate, decide_cone, make_cone_system
from .errors import InternalInconsistency, PreconditionClassical
from .grading import HodgeGrading, domain_text, rational_nullspace
from .rootsys import Root, RootSystem, root_add, root_key, root_neg


@dataclass(frozen=True, eq=False)
class DomainReport:
    """Full verdict for one grading, with proof objects for both outcomes;
    ``cone_system`` is the system the cone route decided on."""

    type_label: str
    rank: int
    labels: tuple[int, ...]
    dim_D: int
    dim_KV: int
    m0: int
    two_rho_nc: tuple[int, ...]
    hermitian_type: bool
    classical: bool
    witness_nonclassical: tuple[Root, Root] | None
    witness_classical: tuple[int, ...] | None
    farkas: FarkasCertificate | None
    bracket_generates: bool
    closure_trace: tuple[Root, ...]
    cone_system: ConeSystem

    @property
    def domain_text(self) -> str:
        return domain_text(self.type_label, self.rank, self.labels)


def grading_cone_system(g: HodgeGrading) -> ConeSystem:
    """Inequalities ``(lam, alpha) >= 0`` over the compact positives and
    ``(lam, beta) <= 0`` over the noncompact positives, as one cone."""
    rs = g.root_system
    normals = [rs.bilinear_row(a) for a in g.compact_positive]
    normals += [tuple(-x for x in rs.bilinear_row(b)) for b in g.noncompact_positive]
    return make_cone_system(normals)


def is_classical_definitional(
    g: HodgeGrading,
) -> tuple[bool, tuple[Root, Root] | None]:
    """Classical iff no two positive noncompact roots sum to a root.

    Any such sum is automatically a positive compact root, and its existence
    obstructs the invariance of the anti-holomorphic tangent half along the
    fibration to G/K.  Returns the first witness pair in canonical order.
    """
    roots = g.root_system.roots
    for b1 in g.noncompact_positive:
        for b2 in g.noncompact_positive:
            if root_add(b1, b2) in roots:
                return False, (b1, b2)
    return True, None


def cone_criterion(g: HodgeGrading) -> ConeDecision:
    """Cone trivial (Farkas certificate) means non-classical; a nonzero cone
    point is the classical witness weight."""
    return decide_cone(grading_cone_system(g))


def bracket_generation(g: HodgeGrading) -> tuple[bool, tuple[Root, ...]]:
    """Close fiber directions plus negated noncompact positives under root
    addition; the domain is non-classical iff the closure swallows every
    positive noncompact root.

    Rounds scan the pairs ``(i, j >= i)`` of a canonical-order snapshot, so
    the discovery trace is deterministic.  The closure is semi-naive: a pair
    of two members that were already in the previous round's snapshot was
    tried there, so a round visits, in the same order, only the pairs with
    a member added in the previous round, and the closure stops after the
    first round that adds nothing.  Root addition is the faithful shadow of
    bracketing here because root spaces are one-dimensional and brackets of
    opposite root vectors only add Cartan directions.
    """
    roots = g.root_system.roots
    current = set(g.fiber_roots)
    current.update(map(root_neg, g.noncompact_positive))
    trace: list[Root] = []
    fresh = current.copy()
    while fresh:
        members = sorted(current, key=root_key)
        fresh_at = [i for i, a in enumerate(members) if a in fresh]
        fresh_members = [members[i] for i in fresh_at]
        added: list[Root] = []
        for i, a in enumerate(members):
            if a in fresh:
                partners = members[i:]
            else:
                partners = fresh_members[bisect_left(fresh_at, i):]
            for b in partners:
                s = root_add(a, b)
                if s in roots and s not in current:
                    current.add(s)
                    added.append(s)
        trace += added
        fresh = set(added)
    generates = all(b in current for b in g.noncompact_positive)
    return generates, tuple(trace)


@lru_cache(maxsize=None)
def _sum_table(
    rs: RootSystem,
) -> tuple[dict[Root, int], dict[Root, int], tuple[tuple[int, int, int], ...]]:
    """The roots of ``rs`` numbered by integer code, with every sum.

    A root codes as ``sum(c_i * B**i)`` with ``B = 4 * max|c| + 1``; a sum
    of two roots keeps every digit within ``2 * max|c| < B / 2``, so codes
    add and negate like roots.  Returns the index of each root, the index of
    each root's negative, and every ``(i, j, k)`` with ``i <= j`` and root i
    + root j = root k.  Built on first use, once per root system.
    """
    base = 4 * max(map(max, rs.positive_roots)) + 1
    code_of = {}
    for root in rs.roots:
        code = 0
        for c in reversed(root):
            code = code * base + c
        code_of[root] = code
    codes = sorted(code_of.values())
    at = {code: i for i, code in enumerate(codes)}
    sums = tuple(
        (i, j, at[a + b])
        for i, a in enumerate(codes)
        for j, b in enumerate(codes[i:], i)
        if a + b in at
    )
    index = {root: at[code] for root, code in code_of.items()}
    opposite = {root: at[-code] for root, code in code_of.items()}
    return index, opposite, sums


def bracket_verdicts(gradings: Sequence[HodgeGrading]) -> tuple[bool, ...]:
    """The verdict of :func:`bracket_generation` for each of several
    gradings of one root system, from one closure over the system's sums.

    Bit m of ``held[k]`` says that root k lies in the closure of grading m.
    Each grading seeds its bit on its fiber roots and negated noncompact
    positives, and ``held[k] |= held[i] & held[j]`` then runs over every
    sum root i + root j = root k of :func:`_sum_table` until a pass adds
    nothing: the least fixpoint of every bit at once, that is, each
    grading's own closure (bit-slicing, as in Biham 1997).  Grading m
    generates iff bit m is set on every one of its noncompact positives.
    Raises ``ValueError`` when the gradings do not share one root system.
    """
    if not gradings:
        return ()
    rs = gradings[0].root_system
    if any(g.root_system is not rs for g in gradings):
        raise ValueError("the gradings do not share one root system")
    index, opposite, sums = _sum_table(rs)
    held = [0] * len(index)
    for m, g in enumerate(gradings):
        bit = 1 << m
        for a in g.fiber_roots:
            held[index[a]] |= bit
        for b in g.noncompact_positive:
            held[opposite[b]] |= bit
    changed = True
    while changed:
        changed = False
        for i, j, k in sums:
            both = held[i] & held[j]
            if both | held[k] != held[k]:
                held[k] |= both
                changed = True
    return tuple(
        all(held[index[b]] >> m & 1 for b in g.noncompact_positive)
        for m, g in enumerate(gradings)
    )


def sign_violations(g: HodgeGrading, weight: Sequence[Fraction | int]) -> int:
    """Number of compact positives pairing negative plus noncompact positives
    pairing positive; zero for the zero weight by construction."""
    rs = g.root_system
    count = sum(1 for a in g.compact_positive if rs.pairing(weight, a) < 0)
    count += sum(1 for b in g.noncompact_positive if rs.pairing(weight, b) > 0)
    return count


def curvature_signature(
    g: HodgeGrading, weight: Sequence[Fraction | int]
) -> tuple[tuple[int, int, int], tuple[Fraction, ...]]:
    """Eigenvalue multiset of the curvature form of the weight's line bundle,
    with its (positive, zero, negative) counts.

    Eigenvalues are the pairings over the compact positives followed by the
    negated pairings over the noncompact positives; the negative count always
    equals :func:`sign_violations`.
    """
    rs = g.root_system
    eigenvalues = tuple(
        [rs.pairing(weight, a) for a in g.compact_positive]
        + [-rs.pairing(weight, b) for b in g.noncompact_positive]
    )
    n_pos = sum(1 for e in eigenvalues if e > 0)
    n_zero = sum(1 for e in eigenvalues if e == 0)
    n_neg = len(eigenvalues) - n_pos - n_zero
    q = sign_violations(g, weight)
    if n_neg != q:
        raise InternalInconsistency(f"{n_neg} negative eigenvalues, {q} sign violations")
    return (n_pos, n_zero, n_neg), eigenvalues


def predicts_vanishing(g: HodgeGrading, weight: Sequence[Fraction | int]) -> bool:
    """One negative curvature eigenvalue already rules out global sections."""
    return sign_violations(g, weight) >= 1


def partition_noncompact(
    g: HodgeGrading, weight: Sequence[Fraction | int]
) -> tuple[tuple[Root, ...], tuple[Root, ...], tuple[Root, ...]]:
    """Split the noncompact positives by a weight: strictly negative pairing;
    reachable from those by adding a compact positive; the rest."""
    rs = g.root_system
    nc1 = tuple(b for b in g.noncompact_positive if rs.pairing(weight, b) < 0)
    first = set(nc1)
    compact = set(g.compact_positive)
    nc2 = tuple(
        b
        for b in g.noncompact_positive
        if b not in first and any(root_add(b, root_neg(bp)) in compact for bp in nc1)
    )
    second = set(nc2)
    nc3 = tuple(
        b for b in g.noncompact_positive if b not in first and b not in second
    )
    return nc1, nc2, nc3


def verify_compact_from_noncompact(g: HodgeGrading) -> bool:
    """Every compact root must be a sum of two noncompact roots, and the
    noncompact roots must span the full rank: the root-level content of the
    compact part being generated by the noncompact part."""
    rs = g.root_system
    sums = rs.root_set_sum(g.noncompact_roots, g.noncompact_roots)
    if not g.compact_roots <= sums:
        return False
    return len(rational_nullspace(g.noncompact_positive, rs.rank)) == 0


def verify_simple_noncompact_decomposition(g: HodgeGrading) -> bool:
    """On a non-classical domain, each noncompact simple root must be a
    difference (compact positive) - (noncompact positive)."""
    classical, _ = is_classical_definitional(g)
    if classical:
        raise PreconditionClassical(
            "decomposition statement applies to non-classical gradings only"
        )
    compact = set(g.compact_positive)
    for i, label in enumerate(g.labels):
        if label != 1:
            continue
        simple = g.root_system.simple_roots[i]
        if not any(root_add(simple, beta) in compact for beta in g.noncompact_positive):
            return False
    return True


def classify(g: HodgeGrading, generates: bool | None = None) -> DomainReport:
    """Run all three criteria, demand agreement, and assemble the report.

    A caller that already holds the bracket verdict, as the survey does from
    :func:`bracket_verdicts`, passes it as ``generates``: the other two
    routes must agree with it, and the report's ``closure_trace`` is empty.
    """
    from .structures import hermitian_splitting

    classical, pair = is_classical_definitional(g)
    # the cone route as in cone_criterion, keeping the system for the report
    system = grading_cone_system(g)
    decision = decide_cone(system)
    if generates is None:
        generates, trace = bracket_generation(g)
    else:
        trace = ()
    verdicts = {
        "definitional": classical,
        "cone": not decision.trivial,
        "bracket": not generates,
    }
    if len(set(verdicts.values())) != 1:
        raise InternalInconsistency(
            f"{g.root_system.type_label}{g.root_system.rank}/{g.labels}: "
            f"criteria disagree: {verdicts}"
        )
    hermitian = hermitian_splitting(g) is not None
    if classical and not hermitian:
        raise InternalInconsistency(
            "classical grading must be of Hermitian type: "
            f"{g.root_system.type_label}{g.root_system.rank}/{g.labels}"
        )
    rs = g.root_system
    return DomainReport(
        type_label=rs.type_label,
        rank=rs.rank,
        labels=g.labels,
        dim_D=g.dim_D,
        dim_KV=g.dim_KV,
        m0=g.m0,
        two_rho_nc=g.two_rho_nc,
        hermitian_type=hermitian,
        classical=classical,
        witness_nonclassical=None if classical else pair,
        witness_classical=decision.witness,
        farkas=decision.certificate,
        bracket_generates=generates,
        closure_trace=trace,
        cone_system=system,
    )
