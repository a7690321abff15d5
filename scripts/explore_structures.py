"""Landscape of invariant complex structures across small domains.

Walks every grading with a one-dimensional compact center up to the given
rank, counts all invariant structures by backtracking, and reports how the
count sits against the number of root pairs.  With ``--domain`` it instead
prints one case in full: the splitting, the flipped structure, its parabolic,
and the simple roots of the new positive system.

    python3 scripts/explore_structures.py --max-rank 3
    python3 scripts/explore_structures.py --domain C2/1,1
"""

import argparse
from collections import Counter

from pdclass.cli import DEFAULT_TYPES, parse_domain
from pdclass.classifier import classify
from pdclass.errors import TooLarge
from pdclass.grading import domain_text, make_grading
from pdclass.oracle import sweep_instances
from pdclass.rootsys import build_root_system, root_key
from pdclass.structures import (
    enumerate_structures,
    hermitian_splitting,
    new_complex_structure,
    positive_system_of,
)


def roots_text(roots) -> str:
    ordered = sorted(roots, key=root_key)
    return " ".join("(" + ",".join(str(x) for x in a) + ")" for a in ordered)


def show_single(domain: str) -> int:
    g = parse_domain(domain)
    report = classify(g)
    print(f"domain {report.domain_text}")
    print(f"classical {'yes' if report.classical else 'no'}")
    splitting = hermitian_splitting(g)
    if splitting is None:
        print("no Hermitian splitting; nothing to flip")
        return 1
    print(f"center direction {tuple(str(x) for x in splitting.center_direction)}")
    print(f"plus half  {roots_text(splitting.plus_roots)}")
    print(f"minus half {roots_text(splitting.minus_roots)}")
    ns = new_complex_structure(g)
    print(f"flipped structure {roots_text(ns.structure.roots)}")
    print(f"parabolic {roots_text(ns.structure.parabolic_roots)}")
    positive, simples = positive_system_of(g, ns.structure)
    print(f"new simples {roots_text(simples)}")
    print(f"differs_from_original {'yes' if ns.differs_from_original else 'no'}")
    print(f"projection_holomorphic {'yes' if ns.projection_holomorphic else 'no'}")
    structures, _ = enumerate_structures(g)
    print(f"total structures {len(structures)}")
    return 0


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
    parser.add_argument("--domain", default=None)
    parser.add_argument("--max-rank", type=int, default=3)
    parser.add_argument("--max-pairs", type=int, default=16)
    args = parser.parse_args(argv)
    if args.domain:
        return show_single(args.domain)
    return sweep(args.max_rank, args.max_pairs)


if __name__ == "__main__":
    raise SystemExit(main())
