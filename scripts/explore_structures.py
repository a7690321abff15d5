"""Landscape of invariant complex structures across small domains.

Walks every grading with a one-dimensional compact center up to the given
rank, counts all invariant structures by backtracking, and reports how the
count sits against the number of root pairs.  One domain in full is
``pdclass structures <domain>``.

    python3 scripts/explore_structures.py --max-rank 3
"""

import argparse
from collections import Counter

from pdclass.cli import DEFAULT_TYPES
from pdclass.classifier import classify
from pdclass.errors import TooLarge, UsageError
from pdclass.grading import domain_text, make_grading
from pdclass.oracle import check_sweep, sweep_instances
from pdclass.rootsys import build_root_system
from pdclass.structures import enumerate_structures, hermitian_splitting


def sweep(max_rank: int, max_pairs: int) -> int:
    rows = []
    counts = Counter()
    for family, rank, labels in sweep_instances(DEFAULT_TYPES.split(","), max_rank):
        g = make_grading(build_root_system(family, rank), labels)
        if hermitian_splitting(g) is None:
            continue
        report = classify(g)
        pairs = len(g.tangent_roots)
        domain = domain_text(family, rank, labels)
        try:
            structures, _ = enumerate_structures(g, max_pairs=max_pairs)
        except TooLarge:
            rows.append((domain, report.classical, pairs, None))
            continue
        counts[len(structures)] += 1
        rows.append((domain, report.classical, pairs, len(structures)))

    print(f"{'domain':<14} {'classical':>9} {'pairs':>6} {'structures':>11}")
    for domain, classical, pairs, n in rows:
        shown = "skipped" if n is None else str(n)
        flag = "yes" if classical else "no"
        print(f"{domain:<14} {flag:>9} {pairs:>6} {shown:>11}")
    print("count histogram:", dict(sorted(counts.items())))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rank", type=int, default=3)
    parser.add_argument("--max-pairs", type=int, default=16)
    args = parser.parse_args(argv)
    try:
        check_sweep(DEFAULT_TYPES.split(","), args.max_rank)
    except (ValueError, UsageError) as exc:
        parser.error(str(exc))
    return sweep(args.max_rank, args.max_pairs)


if __name__ == "__main__":
    raise SystemExit(main())
