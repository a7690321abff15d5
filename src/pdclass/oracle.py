"""Brute-force cross-checks for the main algorithms, and the survey.

The lattice search is a deliberately simple one-sided decider: scanning a box
can find a cone point the simplex route must then agree on, but an empty box
proves nothing.  It is a brute-force scan with exact interval pruning: each
coordinate runs only over the integer interval that every inequality can
still reach, so the scan skips only points outside the cone and returns the
same first point as the full lexicographic scan, in integers and with no code
of the simplex route.

The survey reports disagreements as data instead of crashing, and it works
by parity class.  A root is compact exactly when its grade is even, so the
compact and noncompact positives depend only on which labels equal 1 (the
Hodge-parity split of Griffiths and Schmid), and so does everything built
from them alone: the cone system, its decision and certificate, the lattice
point, ``m0`` and the Hermitian type.  One grading per class runs
:func:`check_instance` in full.  Every grading builds its own root sets and
runs its own definitional and bracket routes, and the structures checks when
non-classical and Hermitian, since the isotropy depends on the 0/2 choice.
So all three routes run once per distinct cone system.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby, product
from typing import Iterable, Sequence

# the survey calls the per-grading routes on the classifier module, where the
# span tracer in perfbench/tracing.py wraps them
from . import classifier
# grading_cone_system stays bound here for the span tracer
from .classifier import classify, grading_cone_system
from .cone import ConeSystem
from .errors import InternalInconsistency, InvalidTypeRank
from .grading import domain_text, make_grading
from .rootsys import FAMILY_RANKS, Root, build_root_system
# validate_structure stays bound here for the span tracer in perfbench/tracing.py
from .structures import new_complex_structure, positive_system_of, validate_structure

DEFAULT_RADIUS = 3


@dataclass(frozen=True, eq=False)
class SurveyRow:
    type_label: str
    rank: int
    labels: tuple[int, ...]
    classical: bool
    hermitian: bool
    m0: int
    dim_D: int

    @classmethod
    def from_report(cls, report) -> SurveyRow:
        """The row of one ``DomainReport``."""
        return cls(
            type_label=report.type_label,
            rank=report.rank,
            labels=report.labels,
            classical=report.classical,
            hermitian=bool(report.hermitian_type),
            m0=report.m0,
            dim_D=report.dim_D,
        )


@dataclass(frozen=True, eq=False)
class SurveyAggregate:
    type_label: str
    rank: int
    total: int
    n_classical: int
    n_nonclassical: int
    n_hermitian: int


@dataclass(frozen=True, eq=False)
class SurveyResult:
    rows: tuple[SurveyRow, ...]
    aggregates: tuple[SurveyAggregate, ...]
    failures: tuple[tuple[str, str], ...]


def lattice_cone_search(system: ConeSystem, radius: int) -> tuple[int, ...] | None:
    """First nonzero integer point of the box [-radius, radius]^dimension
    satisfying every inequality, in lexicographic scan order; None when the
    box holds no cone point.  The dimension is the system's; a radius below 1
    raises ``ValueError``.

    One-sided: None never proves the cone trivial.  The scan is depth first:
    coordinates are fixed in order, each from -radius up to radius, which is
    the order of ``itertools.product``.  At each depth the values the next
    coordinate may take form one integer interval.  Row j, with partial sum
    s over the fixed coordinates, coefficient a and reach t (the most the
    later coordinates can add, radius times their absolute coefficients),
    stays satisfiable exactly when ``b + a * x >= 0`` for ``b = s + t``: that
    is ``x >= -(b // a)`` for a > 0 and ``x <= b // -a`` for a < 0, and a
    zero coefficient with b < 0 drops the whole prefix.  Every value outside
    the intersection of these intervals leaves some row negative whatever
    follows, so every point skipped lies outside the cone, the values inside
    are scanned in increasing order, and the first point found is the
    brute-force one.  The scan reads the integer normals of the system as
    they are.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    last = system.dimension - 1
    columns = list(zip(*system.normals))
    zero = (0,) * len(system.normals)
    # reach[k][j]: the largest amount coordinates k, k+1, ... can add to row j
    reach = [zero]
    for column in reversed(columns):
        reach.append(tuple(t + radius * abs(a) for t, a in zip(reach[-1], column)))
    reach.reverse()
    point = [0] * (last + 1)

    def scan(k: int, sums: tuple[int, ...]) -> tuple[int, ...] | None:
        column = columns[k]
        lo, hi = -radius, radius
        for s, t, a in zip(sums, reach[k + 1], column):
            if a > 0:
                x = -((s + t) // a)
                if x > lo:
                    lo = x
            elif a < 0:
                x = (s + t) // -a
                if x < hi:
                    hi = x
            elif s + t < 0:
                return None
        if k == last:
            # every value in [lo, hi] completes a cone point; the first one
            # that is not the origin is the answer
            if lo == 0 and not any(point[:k]):
                lo = 1
            if lo > hi:
                return None
            point[k] = lo
            return tuple(point)
        for x in range(lo, hi + 1):
            point[k] = x
            found = scan(k + 1, tuple(s + a * x for s, a in zip(sums, column)))
            if found is not None:
                return found
        return None

    return scan(0, zero)


def sweep_instances(
    types: Iterable[str], max_rank: int
) -> list[tuple[str, int, tuple[int, ...]]]:
    """All (type, rank, labels) triples of the sweep, lexicographically.

    Family letters may come in either case and with surrounding blanks; empty
    entries are dropped and an unknown letter raises ``InvalidTypeRank``.
    """
    instances = []
    for type_label in sorted({t.strip().upper() for t in types} - {""}):
        if type_label not in FAMILY_RANKS:
            raise InvalidTypeRank(f"unknown family {type_label!r}")
        low, high = FAMILY_RANKS[type_label]
        for rank in range(low, min(high, max_rank) + 1):
            for labels in product((0, 1, 2), repeat=rank):
                if 1 in labels:
                    instances.append((type_label, rank, labels))
    return instances


def _structures_checks(g) -> None:
    """What ``new_complex_structure`` does not check itself; it has already
    validated the structure and the sum-free minus half."""
    ns = new_complex_structure(g)
    if not ns.differs_from_original:
        raise InternalInconsistency("new structure equals the original one")
    if not ns.projection_holomorphic:
        raise InternalInconsistency("projection lost holomorphy")
    positive_system_of(g, ns.structure)


def check_instance(
    type_label: str, rank: int, labels: tuple[int, ...], radius: int = DEFAULT_RADIUS
) -> SurveyRow:
    """Classify one grading and cross-check every route against the others:
    ``classify``, the lattice scan on the cone system the cone route decided
    on, and the structures checks when non-classical and Hermitian.  The
    survey runs it on the first grading of each parity class, and on every
    grading of a class whose first grading failed."""
    rs = build_root_system(type_label, rank)
    g = make_grading(rs, labels)
    report = classify(g)
    point = lattice_cone_search(report.cone_system, radius)
    if point is not None and not report.classical:
        raise InternalInconsistency(
            f"lattice point {point} found in a cone declared trivial"
        )
    if report.classical:
        witness = report.witness_classical
        if max(abs(x) for x in witness) <= radius and point is None:
            raise InternalInconsistency(
                f"witness {witness} inside the box but the scan found nothing"
            )

    if not report.classical and report.hermitian_type:
        _structures_checks(g)
    return SurveyRow.from_report(report)


def _check_member(
    type_label: str,
    rank: int,
    labels: tuple[int, ...],
    split: tuple[tuple[Root, ...], tuple[Root, ...]],
    verdict: SurveyRow,
) -> SurveyRow:
    """Another grading of a class whose first grading passed
    ``check_instance``: its compact and noncompact positives must equal the
    class's ``split`` as exact tuples, and its own definitional and bracket
    routes must reach the class verdict."""
    g = make_grading(build_root_system(type_label, rank), labels)
    if (g.compact_positive, g.noncompact_positive) != split:
        raise InternalInconsistency("root split differs from its parity class")
    classical, _ = classifier.is_classical_definitional(g)
    generates, _ = classifier.bracket_generation(g)
    if classical != verdict.classical or generates == verdict.classical:
        raise InternalInconsistency(
            f"routes disagree with the parity class: definitional "
            f"{classical}, bracket {not generates}, class {verdict.classical}"
        )
    if not classical and verdict.hermitian:
        _structures_checks(g)
    return replace(verdict, labels=g.labels, m0=g.m0, dim_D=g.dim_D)


def _survey_class(
    members: list[tuple[str, int, tuple[int, ...]]], radius: int
) -> list[tuple[SurveyRow | None, tuple[str, str] | None]]:
    """(row, failure) per member of one parity class, in the members' order.

    The first member runs ``check_instance``.  If it fails, every other
    member runs ``check_instance`` on its own, so one fault neither spreads
    a verdict nor hides a failure.
    """

    def attempt(check, instance, *args):
        try:
            return check(*instance, *args), None
        except Exception as exc:  # noqa: BLE001 - failures are data here
            return None, (domain_text(*instance), f"{type(exc).__name__}: {exc}")

    first, others = members[0], members[1:]
    verdict, failure = attempt(check_instance, first, radius)
    if verdict is None:
        return [(None, failure)] + [attempt(check_instance, m, radius) for m in others]
    if not others:
        return [(verdict, None)]
    g = make_grading(build_root_system(first[0], first[1]), first[2])
    split = (g.compact_positive, g.noncompact_positive)
    return [(verdict, None)] + [attempt(_check_member, m, split, verdict) for m in others]


def survey_crosscheck(
    types: Sequence[str],
    max_rank: int,
    radius: int = DEFAULT_RADIUS,
    jobs: int = 1,
) -> SurveyResult:
    """Run every sweep grading through all routes, one parity class at a
    time; tabulate and collect failures rather than raising.

    Per class, the first grading in sweep order runs ``check_instance``.
    Every other one must show the same compact and noncompact positives, its
    own definitional and bracket routes must reach the class verdict, and
    its row takes the verdict and Hermitian type from the class (see
    ``_check_member``).  The class table lives for one call.  ``jobs`` only
    spreads the class tasks over threads; rows merge back into sweep order,
    so the result is the same for any job count.  An empty family list, or
    a max rank, radius or job count below 1, raises ``ValueError`` before
    any grading is built: an empty sweep checks nothing.
    """
    if not any(t.strip() for t in types):
        raise ValueError("the family list is empty")
    for name, value in (("max rank", max_rank), ("radius", radius), ("jobs", jobs)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    instances = sweep_instances(types, max_rank)
    # parity class -> indices of its gradings; a root is compact exactly when
    # its grade is even, and only labels equal to 1 add odd amounts to a grade
    classes: dict[tuple, list[int]] = {}
    for index, (type_label, rank, labels) in enumerate(instances):
        key = type_label, rank, tuple(c == 1 for c in labels)
        classes.setdefault(key, []).append(index)

    def run(indices):
        return _survey_class([instances[i] for i in indices], radius)

    if jobs > 1:
        # imported here: only a pooled survey pays for concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_class = list(pool.map(run, classes.values()))
    else:
        per_class = [run(indices) for indices in classes.values()]

    outcomes = [None] * len(instances)
    for indices, class_outcomes in zip(classes.values(), per_class):
        for index, item in zip(indices, class_outcomes):
            outcomes[index] = item
    rows = tuple(row for row, _ in outcomes if row is not None)
    failures = tuple(failure for _, failure in outcomes if failure is not None)
    # rows come in sweep order, so each (type, rank) group is contiguous
    aggregates = []
    by_system = groupby(rows, key=lambda r: (r.type_label, r.rank))
    for (type_label, rank), group in by_system:
        group = list(group)
        n_classical = sum(r.classical for r in group)
        aggregates.append(
            SurveyAggregate(
                type_label=type_label,
                rank=rank,
                total=len(group),
                n_classical=n_classical,
                n_nonclassical=len(group) - n_classical,
                n_hermitian=sum(r.hermitian for r in group),
            )
        )
    return SurveyResult(rows=rows, aggregates=tuple(aggregates), failures=failures)
