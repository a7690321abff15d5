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
from them alone: the definitional route, the cone system, its decision and
certificate, the lattice point, ``m0`` and the Hermitian type.  Every grading
builds its own root sets.  The bracket route also reads the fiber roots,
which vary within a class, so one call of :func:`classifier.bracket_verdicts`
per class decides it for every member, by a bit-sliced closure unrelated to
:func:`classifier.bracket_generation`.  One grading per class then runs
:func:`check_instance` with its batch verdict, and every other member must
reach the class verdict on its own.  Each member runs the structures checks
when non-classical and Hermitian, since the isotropy depends on the 0/2
choice.  So all three routes run once per distinct cone system.
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
from .errors import InternalInconsistency, InvalidTypeRank, TooLarge
from .grading import HodgeGrading, domain_text, make_grading
from .rootsys import FAMILY_RANKS, build_root_system
# validate_structure stays bound here for the span tracer in perfbench/tracing.py
from .structures import new_complex_structure, positive_system_of, validate_structure

DEFAULT_RADIUS = 3
# at radius 10 the scan of one E8 grading took at most 0.044 s, about what
# classifying it takes; at 20 it took up to 0.52 s, at 30 up to 2.6 s
MAX_RADIUS = 10
# admits every family up to rank 8: 46,392 gradings
MAX_SWEEP_GRADINGS = 50_000
# a pooled survey starts up to one thread per parity class, 2,458 on the
# largest sweep the grading cap admits; this caps the pool
MAX_JOBS = 64


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
    is ``x >= -(b // a)`` for a > 0 and ``x <= b // -a`` for a < 0; a zero
    coefficient needs nothing, as the interval of the depth above leaves
    every row with b >= 0 (at depth 0, s is 0).  Every value outside
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


def sweep_families(types: Iterable[str], max_rank: int) -> list[str]:
    """The sorted family letters of a sweep with a rank up to ``max_rank``,
    read from ``FAMILY_RANKS``.  Letters may come in either case and with
    surrounding blanks; empty entries are dropped and an unknown letter
    raises ``InvalidTypeRank``."""
    families = sorted({t.strip().upper() for t in types} - {""})
    for type_label in families:
        if type_label not in FAMILY_RANKS:
            raise InvalidTypeRank(f"unknown family {type_label!r}")
    return [t for t in families if FAMILY_RANKS[t][0] <= max_rank]


def sweep_instances(
    types: Iterable[str], max_rank: int
) -> list[tuple[str, int, tuple[int, ...]]]:
    """All (type, rank, labels) triples of the sweep over
    ``sweep_families(types, max_rank)``, lexicographically."""
    instances = []
    for type_label in sweep_families(types, max_rank):
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
    g: HodgeGrading, radius: int = DEFAULT_RADIUS, generates: bool | None = None
) -> SurveyRow:
    """Classify one grading and cross-check every route against the others:
    ``classify``, the lattice scan on the cone system the cone route decided
    on, and the structures checks when non-classical and Hermitian.  A
    bracket verdict ``generates`` the caller already holds, as the survey
    does from its class batch, goes to ``classify`` in place of the tuple
    closure."""
    report = classify(g, generates)
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


def _check_member(g: HodgeGrading, generates: bool, verdict: SurveyRow) -> SurveyRow:
    """A grading of a class whose first passing grading gave the row
    ``verdict``, with its bracket verdict ``generates`` from the class
    batch: the bracket route also reads the fiber roots, which vary within
    a class, so it must reach the class verdict on its own."""
    if generates == verdict.classical:
        raise InternalInconsistency(
            f"routes disagree with the parity class: bracket {not generates},"
            f" class {verdict.classical}"
        )
    if not verdict.classical and verdict.hermitian:
        _structures_checks(g)
    return replace(verdict, labels=g.labels, dim_D=g.dim_D)


def _survey_class(
    members: list[tuple[str, int, tuple[int, ...]]], radius: int
) -> list[tuple[SurveyRow | None, tuple[str, str] | None]]:
    """(row, failure) per member of one parity class, in the members' order.

    Each member's grading is built once, inside its own failure capture, and
    must show the compact and noncompact positives of the first grading
    built as exact tuples, which fixes all that the definitional route and
    ``m0`` read.  Those that do go through one ``classifier.bracket_verdicts``
    call.  Then, in order, they run ``check_instance`` with their verdict
    until one passes, and every later one runs ``_check_member`` against
    the passing row.  A member that fails before the batch is left out of
    it, and an exception from the batch fails every member in it, so one
    fault neither spreads an unchecked verdict nor hides a failure.
    """
    outcomes: list = [None] * len(members)

    def fail(position: int, exc: Exception) -> None:
        failure = domain_text(*members[position]), f"{type(exc).__name__}: {exc}"
        outcomes[position] = None, failure

    split = None
    batch = []
    for position, (type_label, rank, labels) in enumerate(members):
        try:
            g = make_grading(build_root_system(type_label, rank), labels)
            if split is None:
                split = g.compact_positive, g.noncompact_positive
            elif (g.compact_positive, g.noncompact_positive) != split:
                raise InternalInconsistency("root split differs from its parity class")
            batch.append((position, g))
        except Exception as exc:  # noqa: BLE001 - failures are data here
            fail(position, exc)
    if not batch:
        return outcomes
    try:
        verdicts = classifier.bracket_verdicts([g for _, g in batch])
        if len(verdicts) != len(batch):
            raise InternalInconsistency(
                f"{len(verdicts)} bracket verdicts for {len(batch)} gradings"
            )
    except Exception as exc:  # noqa: BLE001 - failures are data here
        for position, _ in batch:
            fail(position, exc)
        return outcomes
    reference = None
    for (position, g), generates in zip(batch, verdicts):
        try:
            if reference is None:
                # looked up at call time: the span tracer wraps check_instance
                row = reference = check_instance(g, radius, generates)
            else:
                row = _check_member(g, generates, reference)
            outcomes[position] = row, None
        except Exception as exc:  # noqa: BLE001 - failures are data here
            fail(position, exc)
    return outcomes


def check_sweep(
    types: Sequence[str], max_rank: int, radius: int = DEFAULT_RADIUS, jobs: int = 1
) -> None:
    """Raise ``ValueError`` on an empty family list, a max rank, radius or
    job count below 1, a radius above ``MAX_RADIUS``, a job count above
    ``MAX_JOBS``, or a max rank below every listed family's lowest rank,
    since an empty sweep checks nothing.  Raise ``TooLarge`` on a sweep of
    more than ``MAX_SWEEP_GRADINGS`` gradings, counted from the 3**r - 2**r
    label vectors of each rank r.  Builds nothing."""
    if not any(t.strip() for t in types):
        raise ValueError("the family list is empty")
    for name, value in (("max rank", max_rank), ("radius", radius), ("jobs", jobs)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if radius > MAX_RADIUS:
        raise ValueError(f"radius must be <= {MAX_RADIUS}, got {radius}")
    if jobs > MAX_JOBS:
        raise ValueError(f"jobs must be <= {MAX_JOBS}, got {jobs}")
    families = sweep_families(types, max_rank)
    if not families:
        raise ValueError(f"no listed family has a rank <= {max_rank}")
    count = 0
    for type_label in families:
        low, high = FAMILY_RANKS[type_label]
        # the count stops at the cap, so a huge max rank costs nothing
        for rank in range(low, min(high, max_rank) + 1):
            count += 3**rank - 2**rank
            if count > MAX_SWEEP_GRADINGS:
                raise TooLarge(
                    f"the sweep of {','.join(families)} up to rank {max_rank} has more"
                    f" than {MAX_SWEEP_GRADINGS} gradings"
                )


def survey_crosscheck(
    types: Sequence[str],
    max_rank: int,
    radius: int = DEFAULT_RADIUS,
    jobs: int = 1,
) -> SurveyResult:
    """Run every sweep grading through all routes, one parity class at a
    time; tabulate and collect failures rather than raising.

    Per class, every grading must show the same compact and noncompact
    positives, and one ``classifier.bracket_verdicts`` call decides the
    bracket route for all of them.  In sweep order they run
    ``check_instance`` with that verdict until one passes; every later one
    must reach the class verdict, and its row takes the verdict, ``m0`` and
    Hermitian type from the class (see ``_survey_class``).  The class table
    lives for one call.  ``jobs`` only spreads the class tasks over threads;
    rows merge back into sweep order, so the result is the same for any job
    count.  ``check_sweep`` runs before any grading is built.
    """
    check_sweep(types, max_rank, radius, jobs)
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
