"""Timed classification survey over whole families.

Classifies every admissible label vector for the requested families, lets the
lattice oracle cross-check each parity class's verdict, and tabulates the
classical fraction by family and rank.  A nonzero exit code means at least
one instance failed its cross-checks; the failing domains are listed.

    python3 scripts/run_survey.py
    python3 scripts/run_survey.py --types B,C --max-rank 4 --jobs 4 --csv out.csv
"""

import argparse
import sys
import time

from pdclass.cli import DEFAULT_TYPES, render_survey_csv
from pdclass.errors import UsageError
from pdclass.oracle import DEFAULT_RADIUS, survey_crosscheck


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--types", default=DEFAULT_TYPES)
    parser.add_argument("--max-rank", type=int, default=4)
    parser.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--csv", dest="csv_path", default=None)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        result = survey_crosscheck(
            args.types.split(","), args.max_rank, radius=args.radius, jobs=args.jobs
        )
    except (ValueError, UsageError) as exc:
        parser.error(str(exc))
    elapsed = time.perf_counter() - t0

    print(f"{len(result.rows)} gradings in {elapsed:.1f}s "
          f"(radius {args.radius}, jobs {args.jobs})")
    print(f"{'family':>6} {'total':>6} {'classical':>10} {'fraction':>9} "
          f"{'hermitian':>10}")
    for agg in result.aggregates:
        fraction = agg.n_classical / agg.total if agg.total else 0.0
        print(f"{agg.type_label}{agg.rank:>5} {agg.total:>6} "
              f"{agg.n_classical:>10} {fraction:>9.3f} {agg.n_hermitian:>10}")
    total = sum(a.total for a in result.aggregates)
    classical = sum(a.n_classical for a in result.aggregates)
    print(f"overall {classical}/{total} classical "
          f"({classical / total:.3f})" if total else "overall empty sweep")

    if args.csv_path:
        with open(args.csv_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(render_survey_csv(result))
        print(f"wrote {args.csv_path}")

    if result.failures:
        print(f"{len(result.failures)} failures:", file=sys.stderr)
        for domain, message in result.failures:
            print(f"  {domain}: {message}", file=sys.stderr)
        return 1
    print("failures 0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
