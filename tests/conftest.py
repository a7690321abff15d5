"""Shared fixtures and independent oracles used to cross-check the library.

The oracles here deliberately use different algorithms from the package:
root sets come from reflection closure instead of height recursion, cone
nontriviality from variable elimination instead of simplex feasibility, and
structure enumeration from filtering the full sign hypercube.  The
deliberate exceptions are the references kept from earlier versions of the
package, which must reproduce its output bit for bit: the Fraction simplex,
which takes the same pivots as the integer tableau; the Fraction
Gauss-Jordan nullspace, which gives the same compact-center basis as the
integer elimination; the round-by-round bracket closure, which gives the
same trace as the semi-naive one; and the structure checks, the enumeration
and the triple-sum lemma that summed every pair of roots, which give the
same violations, structures and order as the ones that read the
root-addition table; and the Hermitian splitting that summed the compact
and minus halves, which gives the same splitting (or the same raise) as the
one that checks the center direction on every root.

This file also collects the acceptance-criterion outcomes and prints one
PASS/FAIL line per criterion at the end of the run.
"""
from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

import pytest

from pdclass.errors import HermitianAnomaly, TooLarge, ValidationFailed
from pdclass.rootsys import build_root_system, root_add, root_key, root_neg
from pdclass.structures import HermitianSplitting

ACCEPTANCE_TITLES = {
    1: "route agreement across the full sweep",
    2: "triple-sum reduction, exclusion load-bearing",
    3: "compact part generated by the noncompact part",
    4: "rank-two worked fixtures with oracle confirmation",
    5: "vanishing predicate on seeded random weights",
    6: "new-structure suite on non-classical Hermitian cases",
    7: "cone decisions under fuzzing",
    8: "enumeration counts against the hypercube oracle",
    9: "survey byte-determinism across runs and task counts",
}

# criterion number -> (passed, detail); details set by the tests themselves
_acceptance_outcomes: dict[int, bool] = {}
_acceptance_details: dict[int, str] = {}


def acceptance_detail(criterion: int, text: str) -> None:
    _acceptance_details[criterion] = text


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if match:
        _acceptance_outcomes[int(match.group(1))] = report.passed


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for criterion in sorted(ACCEPTANCE_TITLES):
        if criterion not in _acceptance_outcomes:
            continue
        status = "PASS" if _acceptance_outcomes[criterion] else "FAIL"
        line = f"ACCEPTANCE {criterion}: {status} - {ACCEPTANCE_TITLES[criterion]}"
        detail = _acceptance_details.get(criterion)
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)


def reflection_closure_roots(cartan):
    """Close the simple roots under all simple reflections; returns a set."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]

    def reflect(v, i):
        c = sum(v[j] * cartan[j][i] for j in range(rank))
        out = list(v)
        out[i] -= c
        return tuple(out)

    closed = set(simple) | {tuple(-x for x in s) for s in simple}
    frontier = list(closed)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                w = reflect(v, i)
                if w not in closed:
                    closed.add(w)
                    nxt.append(w)
        frontier = nxt
    return closed


def eliminate_first_variable(rows):
    """One step of exact variable elimination for a system {row . x >= 0}."""
    pos = [r for r in rows if r[0] > 0]
    neg = [r for r in rows if r[0] < 0]
    zero = [r[1:] for r in rows if r[0] == 0]
    derived = set()
    for p in pos:
        for n in neg:
            combo = tuple(p[0] * n[k] - n[0] * p[k] for k in range(1, len(p)))
            derived.add(_coprime(combo))
    for z in zero:
        derived.add(_coprime(z))
    return sorted(derived)


def _coprime(vec):
    vec = tuple(Fraction(x) for x in vec)
    mult = 1
    for x in vec:
        mult = lcm(mult, x.denominator)
    ints = tuple(int(x * mult) for x in vec)
    g = 0
    for x in ints:
        g = gcd(g, x)
    return ints if g in (0, 1) else tuple(x // g for x in ints)


def cone_has_nonzero_point(rows, dim):
    """Exact decision: does {x != 0 : row . x >= 0 for all rows} exist?

    Recursive elimination; sound and complete for any rational system.
    """
    rows = [tuple(r) for r in rows]
    if dim == 1:
        firsts = [r[0] for r in rows]
        return all(c >= 0 for c in firsts) or all(c <= 0 for c in firsts)
    projected = eliminate_first_variable(rows)
    if cone_has_nonzero_point(projected, dim - 1):
        return True
    firsts = [r[0] for r in rows]
    return all(c >= 0 for c in firsts) or all(c <= 0 for c in firsts)


def _dot(a, b):
    return Fraction(sum(x * y for x, y in zip(a, b)))


def reference_phase_one(columns, target):
    """The Fraction Phase-I simplex the package used before its integer
    tableau, kept verbatim as a test-only reference: same least-index rule,
    every pivot and every reduced cost in Fractions."""
    m = len(columns)
    r = len(target)
    sigma = [1 if t >= 0 else -1 for t in target]
    rows = [
        [Fraction(sigma[i] * columns[j][i]) for j in range(m)]
        + [Fraction(1 if k == i else 0) for k in range(r)]
        for i in range(r)
    ]
    rhs = [Fraction(abs(t)) for t in target]
    basis = [m + i for i in range(r)]
    cost = [Fraction(0)] * m + [Fraction(1)] * r
    while True:
        reduced = [
            cost[j] - sum(cost[basis[i]] * rows[i][j] for i in range(r))
            for j in range(m + r)
        ]
        entering = next((j for j in range(m + r) if reduced[j] < 0), None)
        if entering is None:
            break
        best = None
        for i in range(r):
            if rows[i][entering] > 0:
                ratio = rhs[i] / rows[i][entering]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        assert best is not None, "phase-I objective is bounded below"
        leave = best[1]
        pivot = rows[leave][entering]
        rows[leave] = [x / pivot for x in rows[leave]]
        rhs[leave] /= pivot
        for i in range(r):
            if i != leave and rows[i][entering] != 0:
                factor = rows[i][entering]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[leave])]
                rhs[i] -= factor * rhs[leave]
        basis[leave] = entering
    objective = sum(cost[basis[i]] * rhs[i] for i in range(r))
    if objective == 0:
        coeffs = [Fraction(0)] * m
        for i, b in enumerate(basis):
            if b < m:
                coeffs[b] = rhs[i]
        assert all(c >= 0 for c in coeffs)
        assert all(
            sum(coeffs[j] * columns[j][i] for j in range(m)) == target[i]
            for i in range(r)
        )
        return True, tuple(coeffs)
    reduced = [
        cost[j] - sum(cost[basis[i]] * rows[i][j] for i in range(r))
        for j in range(m + r)
    ]
    y = tuple(sigma[i] * (1 - reduced[m + i]) for i in range(r))
    assert all(_dot(y, col) <= 0 for col in columns)
    assert _dot(y, target) > 0
    return False, y


def reference_decide_cone(normals):
    """(trivial, witness, certificate combinations) from the reference
    simplex, solving the signed directions +e1, -e1, +e2, ... in order."""
    columns = [tuple(Fraction(x) for x in n) for n in normals]
    dim = len(columns[0])
    combinations = []
    for i in range(dim):
        for sign in (1, -1):
            direction = tuple(sign if j == i else 0 for j in range(dim))
            feasible, payload = reference_phase_one(columns, direction)
            if not feasible:
                return False, _coprime([-y for y in payload]), None
            combinations.append(payload)
    return True, None, tuple(combinations)


def reference_grade(g, alpha):
    """Value of the grading element of ``g`` on a coefficient vector."""
    return sum(c * n for c, n in zip(g.labels, alpha))


def reference_nullspace(rows, dim):
    """The Fraction Gauss-Jordan nullspace the package used before its
    integer elimination, kept verbatim as a test-only reference (with this
    file's ``_coprime`` for the package's ``_coprime_integers``): every row
    reduced in Fractions, basis read off the reduced row echelon form."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(dim):
        pivot_row = next((i for i in range(r, len(matrix)) if matrix[i][col] != 0), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        inv = matrix[r][col]
        matrix[r] = [x / inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = [Fraction(0)] * dim
        vec[free] = Fraction(1)
        for row_index, col in enumerate(pivots):
            vec[col] = -matrix[row_index][free]
        ints = _coprime(vec)
        if next(x for x in ints if x) < 0:
            ints = tuple(-x for x in ints)
        basis.append(ints)
    return tuple(basis)


def reference_bracket_generation(g):
    """The round-by-round bracket closure the package used before its
    semi-naive one, kept verbatim as a test-only reference: every round
    rescans all pairs of its snapshot, the last round included."""
    rs = g.root_system
    current = set(g.fiber_roots)
    current.update(map(root_neg, g.noncompact_positive))
    trace = []
    changed = True
    while changed:
        changed = False
        members = sorted(current, key=root_key)
        for i, a in enumerate(members):
            for b in members[i:]:
                s = root_add(a, b)
                if s in rs.roots and s not in current:
                    current.add(s)
                    trace.append(s)
                    changed = True
    generates = all(b in current for b in g.noncompact_positive)
    return generates, tuple(trace)


def reference_sums_outside(rs, first, second, closed):
    """Each ``(a, b, a + b)`` with ``a + b`` a root outside ``closed``, for a
    from ``first`` and b from ``second``, both taken in canonical order.

    The package's pair scan before its root-addition table, kept verbatim as
    a test-only reference: both inputs sorted on every call, every pair
    summed into a new tuple."""
    second = sorted(second, key=root_key)
    for a in sorted(first, key=root_key):
        for b in second:
            t = root_add(a, b)
            if t in rs.roots and t not in closed:
                yield a, b, t


def reference_validate_structure(g, candidate):
    """The package's ``validate_structure`` before the root-addition table,
    kept verbatim on top of ``reference_sums_outside``."""
    rs = g.root_system
    chosen = frozenset(tuple(a) for a in candidate)
    negated = frozenset(map(root_neg, chosen))
    violations = []
    outside = [a for a in chosen if a not in rs.roots or a in g.isotropy_roots]
    if outside:
        violations.append(("universe", tuple(sorted(outside, key=root_key))))
    if chosen | negated != rs.roots - g.isotropy_roots or chosen & negated:
        violations.append(("half_selection", ()))
    violations.extend(
        ("isotropy_invariance", escape)
        for escape in reference_sums_outside(rs, g.isotropy_roots, chosen, chosen)
    )
    escapes = list(reference_sums_outside(rs, chosen, chosen, chosen))
    violations.extend(("sum_closure", escape) for escape in escapes)
    strong_ok = not escapes
    weak_ok = all(t in g.isotropy_roots for _, _, t in escapes)
    others_ok = not any(v[0] in ("half_selection", "isotropy_invariance") for v in violations)
    if others_ok and not outside and weak_ok and not strong_ok:
        raise ValidationFailed(
            "weak and strong closure disagree on an otherwise valid candidate"
        )
    return not violations, tuple(violations)


def reference_hermitian_splitting(g):
    """The package's ``hermitian_splitting`` before it checked the center
    direction on every root, kept verbatim: it sums the compact roots with
    the minus half, and the minus half with itself, into new tuples."""
    basis = g.compact_center_basis
    dim = len(basis)
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


class ReferenceStructure(NamedTuple):
    """A structure's roots and its parabolic, both computed in this file."""

    roots: frozenset
    parabolic_roots: frozenset


def reference_make_structure(g, candidate):
    """The package's ``make_structure`` on ``reference_validate_structure``,
    with the parabolic (the negated roots and the isotropy) computed here."""
    ok, violations = reference_validate_structure(g, candidate)
    if not ok:
        raise ValidationFailed(f"invalid structure: {violations[0]}")
    chosen = frozenset(tuple(a) for a in candidate)
    parabolic = frozenset(map(root_neg, chosen)) | g.isotropy_roots
    return ReferenceStructure(roots=chosen, parabolic_roots=parabolic)


def reference_positive_system_of(g, cs):
    """The package's ``positive_system_of`` on ``reference_sums_outside``."""
    rs = g.root_system
    isotropy_positive = frozenset(
        a for a in rs.positive_roots if a in g.isotropy_roots
    )
    positive = cs.roots | isotropy_positive
    negated = frozenset(map(root_neg, positive))
    if positive | negated != rs.roots or positive & negated:
        raise ValidationFailed("structure does not induce a half-system")
    for p1, p2, _ in reference_sums_outside(rs, positive, positive, positive):
        raise ValidationFailed(f"positive system not closed: {p1} + {p2}")
    sums = rs.root_set_sum(positive, positive)
    simples = tuple(p for p in sorted(positive, key=root_key) if p not in sums)
    return positive, simples


def reference_search(g, limit=None, max_pairs=24):
    """The search of :func:`reference_enumerate_structures`: the root sets of
    the structures in the order the search finds them, and the truncation
    flag."""
    rs = g.root_system
    reps = [a for a in rs.positive_roots if a not in g.isotropy_roots]
    if len(reps) > max_pairs:
        raise TooLarge(f"{len(reps)} root pairs exceeds the bound {max_pairs}")
    index_of = {}
    for i, rep in enumerate(reps):
        index_of[rep] = i
        index_of[root_neg(rep)] = i
    isotropy = sorted(g.isotropy_roots, key=root_key)
    found = []
    truncated = False

    def propagate(assignment, queue):
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

    def search(assignment):
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
    return found, truncated


def reference_enumerate_structures(g, limit=None, max_pairs=24):
    """The package's ``enumerate_structures`` before the root-addition table,
    kept verbatim (with this file's reference validation in place of the
    package's ``make_structure``): propagation sums each new root with every
    isotropy root and every root assigned so far."""
    found, truncated = reference_search(g, limit, max_pairs)
    structures = tuple(
        reference_make_structure(g, chosen)
        for chosen in sorted(found, key=lambda s: tuple(sorted(s, key=root_key)))
    )
    return structures, truncated


def reference_triple_sum_reduction(rs, include_degenerate=False):
    """The package's ``verify_triple_sum_reduction`` before it read the
    root-addition table, kept verbatim: it builds its own lists of summand
    pairs and adders from tuple sums."""
    roots = sorted(rs.roots, key=root_key)
    summand_pairs = []
    for beta in roots:
        for gamma in roots:
            s = root_add(beta, gamma)
            if s in rs.roots:
                summand_pairs.append((beta, gamma, s))
    adders = {}
    for delta in rs.roots:
        adders[delta] = [alpha for alpha in roots if root_add(alpha, delta) in rs.roots]
    violations = []
    for beta, gamma, delta in summand_pairs:
        degenerate = (root_neg(beta), root_neg(gamma))
        for alpha in adders[delta]:
            if not include_degenerate and alpha in degenerate:
                continue
            if root_add(alpha, beta) in rs.roots or root_add(alpha, gamma) in rs.roots:
                continue
            violations.append((alpha, beta, gamma))
    return (not violations, tuple(violations))


def brute_force_structures(grading):
    """All valid half-selections of the nonzero-grade roots, by filtering the
    full sign hypercube against the three defining conditions."""
    rs = grading.root_system
    isotropy = set(grading.isotropy_roots)
    reps = [g for g in rs.positive_roots if g not in isotropy]
    assert len(reps) <= 14, "hypercube oracle limited to small systems"
    valid = []
    for signs in itertools.product((1, -1), repeat=len(reps)):
        chosen = {tuple(s * x for x in rep) for s, rep in zip(signs, reps)}
        if _is_valid_structure(rs, isotropy, chosen):
            valid.append(frozenset(chosen))
    return set(valid)


def _is_valid_structure(rs, isotropy, chosen):
    for v in isotropy:
        for s in chosen:
            t = tuple(a + b for a, b in zip(v, s))
            if t in rs.roots and t not in chosen:
                return False
    for s1 in chosen:
        for s2 in chosen:
            t = tuple(a + b for a, b in zip(s1, s2))
            if t in rs.roots and t not in chosen:
                return False
    return True


def lattice_points_in_cone(normals, radius, dim):
    """All nonzero integer points in the box satisfying every inequality, in
    lexicographic order (slow full scan; each normal is scaled to coprime
    integers first, which keeps its sign)."""
    rows = [_coprime(row) for row in normals]
    hits = []
    for point in itertools.product(range(-radius, radius + 1), repeat=dim):
        if all(x == 0 for x in point):
            continue
        if all(sum(a * x for a, x in zip(row, point)) >= 0 for row in rows):
            hits.append(point)
    return hits


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="session")
def c2():
    return build_root_system("C", 2)


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G", 2)


SWEEP_SYSTEMS = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("A", 4),
    ("B", 2),
    ("B", 3),
    ("B", 4),
    ("C", 2),
    ("C", 3),
    ("C", 4),
    ("D", 4),
    ("G", 2),
    ("F", 4),
]


# exceptional gradings for the slow references: classical (with and without
# a fiber) and non-classical, Hermitian and not
EXCEPTIONAL_SAMPLE = [
    ("E", 6, (1, 0, 0, 0, 0, 0)),
    ("E", 6, (0, 0, 2, 0, 0, 1)),
    ("E", 6, (0, 1, 0, 0, 0, 0)),
    ("E", 6, (0, 0, 0, 1, 1, 2)),
    ("E", 7, (0, 0, 0, 0, 0, 0, 1)),
    ("E", 7, (0, 0, 0, 0, 1, 1, 2)),
    ("E", 7, (0, 2, 1, 0, 0, 1, 2)),
    ("E", 8, (1, 0, 0, 0, 0, 0, 0, 0)),
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1)),
    ("E", 8, (2, 1, 0, 1, 0, 0, 1, 2)),
]


def sweep_label_vectors(rank):
    """Every grading label vector: entries in {0,1,2} with at least one 1."""
    for labels in itertools.product((0, 1, 2), repeat=rank):
        if 1 in labels:
            yield labels
