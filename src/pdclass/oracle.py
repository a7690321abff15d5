"""Brute-force cross-checks for the main algorithms.

The lattice search is a deliberately simple one-sided decider: scanning a box
can find a cone point the simplex route must then agree on, but an empty box
proves nothing.  It is a brute-force scan with exact prefix pruning: it skips
only prefixes that no completion can bring into the cone, so it returns the
same first point as the full lexicographic scan, in integers and with no code
of the simplex route.  The survey runs every grading of the requested types
through all routes at once and reports disagreements as data instead of
crashing.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product
from typing import Iterable, Sequence

from .classifier import classify, grading_cone_system
from .cone import ConeSystem
from .errors import InternalInconsistency, InvalidTypeRank
from .grading import domain_text, make_grading
from .rootsys import FAMILY_RANKS, build_root_system
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
    the order of ``itertools.product``.  A prefix is dropped as soon as some
    inequality stays negative even if every remaining coordinate adds the
    most it can (radius times the absolute coefficient), so every point
    skipped lies outside the cone and the first point found is the
    brute-force one.  The scan reads the integer normals of the system as
    they are.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    dim = system.dimension
    columns = list(zip(*system.normals))
    zero = (0,) * len(system.normals)
    # reach[k][j]: the largest amount coordinates k, k+1, ... can add to row j
    reach = [zero]
    for column in reversed(columns):
        reach.append(tuple(t + radius * abs(a) for t, a in zip(reach[-1], column)))
    reach.reverse()
    values = range(-radius, radius + 1)
    point = [0] * dim

    def scan(k: int, sums: tuple[int, ...]) -> tuple[int, ...] | None:
        column, after = columns[k], reach[k + 1]
        for x in values:
            point[k] = x
            partial = tuple(s + a * x for s, a in zip(sums, column))
            if any(s + t < 0 for s, t in zip(partial, after)):
                continue
            if k + 1 < dim:
                found = scan(k + 1, partial)
                if found is not None:
                    return found
            elif any(point):
                return tuple(point)
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
    """Classify one grading and cross-check every route against the others."""
    rs = build_root_system(type_label, rank)
    g = make_grading(rs, labels)
    report = classify(g)
    system = grading_cone_system(g)
    point = lattice_cone_search(system, radius)
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


def survey_crosscheck(
    types: Sequence[str],
    max_rank: int,
    radius: int = DEFAULT_RADIUS,
    jobs: int = 1,
) -> SurveyResult:
    """Run every sweep grading through all routes; tabulate and collect
    failures rather than raising.

    Instance order is lexicographic and the merge preserves it, so the result
    is identical for any job count.  A radius or job count below 1 raises
    ``ValueError`` before any grading is built.
    """
    for name, value in (("radius", radius), ("jobs", jobs)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    instances = sweep_instances(types, max_rank)

    def run(instance):
        type_label, rank, labels = instance
        try:
            return check_instance(type_label, rank, labels, radius), None
        except Exception as exc:  # noqa: BLE001 - failures are data here
            domain = domain_text(type_label, rank, labels)
            return None, (domain, f"{type(exc).__name__}: {exc}")

    if jobs > 1:
        # imported here: only a pooled survey pays for concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, instances))
    else:
        outcomes = [run(instance) for instance in instances]

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
