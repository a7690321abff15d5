"""Command-line entry point.

Five subcommands: classify one domain, survey many, evaluate the curvature
predicate of a weight, build and enumerate complex structures, and run the
verification suites.  Output is byte-deterministic for fixed inputs: text,
JSON (schema_version "1"), or CSV where tabular.

Exit codes: 0 success, 1 usage or parse error, 2 theorem-violation class
(internal disagreement, failed validation, failed verify suite).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .classifier import (
    DomainReport,
    classify,
    curvature_signature,
    is_classical_definitional,
    predicts_vanishing,
    sign_violations,
    verify_compact_from_noncompact,
    verify_simple_noncompact_decomposition,
)
from .errors import PdclassError, TheoremViolation, UsageError
from .grading import HodgeGrading, check_label_count, domain_text, make_grading
from .oracle import (
    DEFAULT_RADIUS,
    SurveyRow,
    survey_crosscheck,
    sweep_instances,
)
from .rootsys import (
    build_root_system,
    root_key,
    validate_type_rank,
    verify_triple_sum_reduction,
)
from .structures import enumerate_structures, new_complex_structure, positive_system_of

SCHEMA_VERSION = "1"
# past this many root pairs the CLI reports enumeration as skipped
ENUMERATION_DISPLAY_BOUND = 12
DEFAULT_TYPES = "A,B,C,D,E,F,G"
DEFAULT_MAX_RANK = 3
CONFIG_KEYS = ("types", "max_rank", "oracle_radius", "format", "jobs")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 1
    def error(self, message):
        raise UsageError(message)


def parse_domain(text: str) -> HodgeGrading:
    """Parse ``<letter><rank>/<c_1>,...,<c_r>`` into a grading; the inverse
    of ``grading.domain_text``."""
    head, sep, tail = text.partition("/")
    if not sep:
        raise UsageError(f"domain spec {text!r}: missing '/' before the labels")
    if len(head) < 2 or not head[0].isalpha():
        raise UsageError(f"domain spec {text!r}: expected a type letter then a rank")
    type_label = head[0].upper()
    try:
        rank = int(head[1:])
    except ValueError:
        raise UsageError(f"domain spec {text!r}: rank {head[1:]!r} is not an integer")
    labels = []
    for i, part in enumerate(tail.split(",")):
        try:
            labels.append(int(part))
        except ValueError:
            raise UsageError(
                f"domain spec {text!r}: label {i + 1} ({part!r}) is not an integer"
            )
    # usage errors first: building a large root system takes seconds
    validate_type_rank(type_label, rank)
    check_label_count(type_label, rank, labels)
    rs = build_root_system(type_label, rank)
    return make_grading(rs, tuple(labels))


def parse_weight(text: str, rank: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    weight = []
    for i, part in enumerate(parts):
        try:
            weight.append(Fraction(part.strip()))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"weight entry {i + 1} ({part!r}) is not a rational")
    if len(weight) != rank:
        raise UsageError(f"weight has {len(weight)} entries for a rank-{rank} domain")
    return tuple(weight)


def _roots_json(roots) -> list[list[int]]:
    return [list(a) for a in sorted(roots, key=root_key)]


def _root_text(alpha) -> str:
    return "(" + ",".join(str(x) for x in alpha) + ")"


def _flag_text(value: bool) -> str:
    return "yes" if value else "no"


def _domain_json(type_label: str, rank: int, labels) -> dict:
    return {"type": type_label, "rank": rank, "labels": list(labels)}


def classify_payload(report: DomainReport) -> dict:
    witnesses: dict = {}
    if report.witness_nonclassical is not None:
        witnesses["nonclassical_pair"] = [list(a) for a in report.witness_nonclassical]
    if report.witness_classical is not None:
        witnesses["classical_weight"] = list(report.witness_classical)
    if report.farkas is not None:
        witnesses["farkas_summary"] = {
            "directions": len(report.farkas.combinations),
            "combinations": [
                [str(c) for c in combo] for combo in report.farkas.combinations
            ],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "domain": _domain_json(report.type_label, report.rank, report.labels),
        "dims": {
            "dim_D": report.dim_D,
            "dim_KV": report.dim_KV,
            "m0": report.m0,
            "two_rho_nc": list(report.two_rho_nc),
        },
        "flags": {
            "classical": report.classical,
            "hermitian_type": bool(report.hermitian_type),
            "bracket_generates": report.bracket_generates,
            # a schema "1" key whose value is the bracket verdict
            "cycle_chain_connected": report.bracket_generates,
        },
        "witnesses": witnesses,
    }


def render_classify_text(report: DomainReport) -> str:
    lines = [
        f"domain {report.domain_text}",
        f"classical {_flag_text(report.classical)}",
        f"hermitian_type {_flag_text(bool(report.hermitian_type))}",
        f"dim_D {report.dim_D}",
        f"dim_KV {report.dim_KV}",
        f"m0 {report.m0}",
        "two_rho_nc " + ",".join(str(x) for x in report.two_rho_nc),
        f"bracket_generates {_flag_text(report.bracket_generates)}",
        f"cycle_chain_connected {_flag_text(report.bracket_generates)}",
    ]
    if report.witness_nonclassical is not None:
        b1, b2 = report.witness_nonclassical
        lines.append(f"nonclassical_pair {_root_text(b1)}+{_root_text(b2)}")
    if report.witness_classical is not None:
        lines.append(
            "classical_weight " + ",".join(str(x) for x in report.witness_classical)
        )
    if report.farkas is not None:
        lines.append(f"farkas_directions {len(report.farkas.combinations)}")
    return "\n".join(lines) + "\n"


def _rows_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["type", "rank", "labels", "classical", "hermitian", "m0", "dim_D"])
    for row in rows:
        writer.writerow(
            [
                row.type_label,
                str(row.rank),
                ",".join(str(c) for c in row.labels),
                "true" if row.classical else "false",
                "true" if row.hermitian else "false",
                str(row.m0),
                str(row.dim_D),
            ]
        )
    return out.getvalue()


def render_classify_csv(report: DomainReport) -> str:
    return _rows_csv([SurveyRow.from_report(report)])


def render_survey_text(result) -> str:
    lines = []
    for row in result.rows:
        domain = domain_text(row.type_label, row.rank, row.labels)
        lines.append(
            f"{domain} classical={_flag_text(row.classical)}"
            f" hermitian={_flag_text(row.hermitian)} m0={row.m0} dim_D={row.dim_D}"
        )
    for agg in result.aggregates:
        lines.append(
            f"-- {agg.type_label}{agg.rank}: total {agg.total}"
            f" classical {agg.n_classical} non-classical {agg.n_nonclassical}"
            f" hermitian {agg.n_hermitian}"
        )
    lines.append(f"failures {len(result.failures)}")
    for domain, message in result.failures:
        lines.append(f"FAIL {domain}: {message}")
    return "\n".join(lines) + "\n"


def render_survey_csv(result) -> str:
    return _rows_csv(result.rows)


def survey_payload(result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "rows": [
            {
                "type": row.type_label,
                "rank": row.rank,
                "labels": list(row.labels),
                "classical": row.classical,
                "hermitian": row.hermitian,
                "m0": row.m0,
                "dim_D": row.dim_D,
            }
            for row in result.rows
        ],
        "aggregates": [
            {
                "type": agg.type_label,
                "rank": agg.rank,
                "total": agg.total,
                "classical": agg.n_classical,
                "nonclassical": agg.n_nonclassical,
                "hermitian": agg.n_hermitian,
            }
            for agg in result.aggregates
        ],
        "failures": [list(f) for f in result.failures],
    }


def curvature_payload(g: HodgeGrading, weight) -> dict:
    signature, eigenvalues = curvature_signature(g, weight)
    rs = g.root_system
    return {
        "schema_version": SCHEMA_VERSION,
        "domain": _domain_json(rs.type_label, rs.rank, g.labels),
        "weight": [str(x) for x in weight],
        "eigenvalues": [str(x) for x in eigenvalues],
        "signature": list(signature),
        "q": sign_violations(g, weight),
        "predicts_vanishing": predicts_vanishing(g, weight),
    }


def render_curvature_text(g: HodgeGrading, weight) -> str:
    payload = curvature_payload(g, weight)
    rs = g.root_system
    lines = [
        "domain " + domain_text(rs.type_label, rs.rank, g.labels),
        "weight " + ",".join(payload["weight"]),
        "eigenvalues " + ",".join(payload["eigenvalues"]),
        "signature ({},{},{})".format(*payload["signature"]),
        f"q {payload['q']}",
        f"predicts_vanishing {_flag_text(payload['predicts_vanishing'])}",
    ]
    return "\n".join(lines) + "\n"


def structures_payload(g: HodgeGrading) -> dict:
    ns = new_complex_structure(g)
    positive, simples = positive_system_of(g, ns.structure)
    rs = g.root_system
    payload = {
        "schema_version": SCHEMA_VERSION,
        "domain": _domain_json(rs.type_label, rs.rank, g.labels),
        "splitting": {
            "center_direction": [str(x) for x in ns.splitting.center_direction],
            "plus": _roots_json(ns.splitting.plus_roots),
            "minus": _roots_json(ns.splitting.minus_roots),
        },
        "structure": {
            "S": _roots_json(ns.structure.roots),
            "parabolic": _roots_json(ns.structure.parabolic_roots),
            "positive_system_simples": [list(a) for a in simples],
            "differs_from_original": ns.differs_from_original,
            "projection_holomorphic": ns.projection_holomorphic,
        },
    }
    pairs = len(g.tangent_roots)
    if pairs <= ENUMERATION_DISPLAY_BOUND:
        structures, truncated = enumerate_structures(g)
        payload["enumeration"] = {
            "pairs": pairs,
            "count": len(structures),
            "truncated": truncated,
            "structures": [_roots_json(cs.roots) for cs in structures],
        }
    else:
        payload["enumeration"] = {"pairs": pairs, "skipped": True}
    return payload


def render_structures_text(g: HodgeGrading) -> str:
    payload = structures_payload(g)
    rs = g.root_system

    def root_line(roots):
        return " ".join(map(_root_text, roots))

    lines = [
        "domain " + domain_text(rs.type_label, rs.rank, g.labels),
        "center_direction " + ",".join(payload["splitting"]["center_direction"]),
        "plus " + root_line(payload["splitting"]["plus"]),
        "minus " + root_line(payload["splitting"]["minus"]),
        "S " + root_line(payload["structure"]["S"]),
        "parabolic " + root_line(payload["structure"]["parabolic"]),
        "positive_system_simples "
        + root_line(payload["structure"]["positive_system_simples"]),
        "differs_from_original "
        + _flag_text(payload["structure"]["differs_from_original"]),
        "projection_holomorphic "
        + _flag_text(payload["structure"]["projection_holomorphic"]),
    ]
    enumeration = payload["enumeration"]
    if enumeration.get("skipped"):
        lines.append(
            f"enumeration skipped ({enumeration['pairs']} root pairs exceeds"
            f" the display bound {ENUMERATION_DISPLAY_BOUND})"
        )
    else:
        lines.append(
            f"enumeration count {enumeration['count']}"
            + (" (truncated)" if enumeration["truncated"] else "")
        )
        for roots in enumeration["structures"]:
            lines.append("  " + root_line(roots))
    return "\n".join(lines) + "\n"


def run_verify(types, max_rank, radius, suite) -> tuple[str, int]:
    """Run the named property suites over the bounded sweep; any failed check
    flips the exit code to the theorem-violation class."""
    instances = sweep_instances(types, max_rank)
    lines = []
    failures = 0

    def record(name, failed, shown, total, unit):
        # ``shown`` lists failing items in order; the first 10 are printed
        nonlocal failures
        if failed:
            failures += failed
            lines.append(f"CHECK {name}: FAIL ({failed} of {total} {unit})")
            lines.extend(f"  {item}" for item in shown[:10])
        else:
            lines.append(f"CHECK {name}: ok ({total} {unit})")

    if suite in ("lemmas", "all"):
        systems = sorted({(t, r) for t, r, _ in instances})
        bad = []
        for type_label, rank in systems:
            holds, violations = verify_triple_sum_reduction(
                build_root_system(type_label, rank)
            )
            if not holds:
                bad.append(f"{type_label}{rank}: {violations[0]}")
        record("triple_sum_reduction", len(bad), bad, len(systems), "systems")

        # one grading at a time: only the counts and the first 10 failing
        # domains of each check are kept
        compact, decomposition = [0, []], [0, []]
        applicable = 0
        for t, r, labels in instances:
            g = make_grading(build_root_system(t, r), labels)
            checks = [(compact, verify_compact_from_noncompact)]
            # the decomposition statement applies to non-classical gradings only
            if not is_classical_definitional(g)[0]:
                applicable += 1
                checks.append((decomposition, verify_simple_noncompact_decomposition))
            for tally, check in checks:
                if not check(g):
                    tally[0] += 1
                    if len(tally[1]) < 10:
                        tally[1].append(domain_text(t, r, labels))
        record("compact_from_noncompact", *compact, len(instances), "gradings")
        record("simple_noncompact_decomposition", *decomposition, applicable, "gradings")

    if suite in ("equivalence", "all"):
        result = survey_crosscheck(types, max_rank, radius)
        bad = [": ".join(failure) for failure in result.failures]
        record("route_agreement", len(bad), bad, len(instances), "gradings")

    lines.append(f"failures {failures}")
    return "\n".join(lines) + "\n", (2 if failures else 0)


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key = key.strip()
                if key not in CONFIG_KEYS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="pdclass", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, with_domain, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if with_domain:
            p.add_argument("domain", help="domain spec, e.g. C2/1,1")
        p.add_argument("--format", choices=("text", "json", "csv"), default=None)
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--config", default=None, help="key=value defaults file")
        return p

    add("classify", True, help="classify one domain")

    p = add("survey", False, help="classify every grading of the chosen types")
    p.add_argument("--types", default=None, help="comma-separated family letters")
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--radius", type=int, default=None, help="lattice oracle radius")
    p.add_argument("--jobs", type=int, default=None, help="parallel tasks")

    p = add("curvature", True, help="curvature signature of a weight")
    p.add_argument("--weight", required=True, help="rationals p/q separated by commas")

    add("structures", True, help="hermitian splitting and complex structures")

    p = add("verify", False, help="run the property suites")
    p.add_argument("--suite", choices=("lemmas", "equivalence", "all"), default="all")
    p.add_argument("--types", default=None)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--radius", type=int, default=None)
    return parser


def _resolve(args, key, config, default, convert=str):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    config_key = {"radius": "oracle_radius"}.get(key, key)
    if config_key in config:
        try:
            return convert(config[config_key])
        except ValueError:
            raise UsageError(f"config value {config_key}={config[config_key]!r}")
    return default


def _sweep_options(args, config) -> tuple[list[str], int, int, int]:
    """Types, max rank, oracle radius and job count of a survey or verify
    sweep; an empty family list, or a max rank, radius or job count below 1,
    is rejected before any sweep is built, since an empty sweep checks
    nothing.  ``verify`` runs serially and takes no job count."""
    types = _resolve(args, "types", config, DEFAULT_TYPES).split(",")
    max_rank = _resolve(args, "max_rank", config, DEFAULT_MAX_RANK, int)
    radius = _resolve(args, "radius", config, DEFAULT_RADIUS, int)
    jobs = _resolve(args, "jobs", config, 1, int) if args.subcommand == "survey" else 1
    if not any(t.strip() for t in types):
        raise UsageError("the family list is empty")
    for name, value in (("max rank", max_rank), ("radius", radius), ("jobs", jobs)):
        if value < 1:
            raise UsageError(f"{name} must be >= 1, got {value}")
    return types, max_rank, radius, jobs


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# the formats of each subcommand's report; a json renderer returns the payload
FORMATS = {
    "classify": {
        "text": render_classify_text,
        "json": classify_payload,
        "csv": render_classify_csv,
    },
    "survey": {
        "text": render_survey_text,
        "json": survey_payload,
        "csv": render_survey_csv,
    },
    "curvature": {"text": render_curvature_text, "json": curvature_payload},
    "structures": {"text": render_structures_text, "json": structures_payload},
    "verify": {"text": str},
}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _read_config(args.config) if args.config else {}
    fmt = _resolve(args, "format", config, "text")
    renderers = FORMATS[args.subcommand]
    if fmt not in renderers:
        raise UsageError(f"{args.subcommand} reports have no {fmt} form")

    code = 0
    if args.subcommand in ("survey", "verify"):
        types, max_rank, radius, jobs = _sweep_options(args, config)
    if args.subcommand == "classify":
        subject = (classify(parse_domain(args.domain)),)
    elif args.subcommand == "survey":
        subject = (survey_crosscheck(types, max_rank, radius=radius, jobs=jobs),)
    elif args.subcommand == "curvature":
        g = parse_domain(args.domain)
        subject = (g, parse_weight(args.weight, g.root_system.rank))
    elif args.subcommand == "structures":
        subject = (parse_domain(args.domain),)
    else:  # argparse admits one more subcommand: verify
        text, code = run_verify(types, max_rank, radius, args.suite)
        subject = (text,)
    rendered = renderers[fmt](*subject)
    _emit(_json_text(rendered) if fmt == "json" else rendered, args.out)
    return code


def main(argv=None) -> int:
    try:
        return run(argv)
    except PdclassError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, TheoremViolation) else 1


if __name__ == "__main__":
    sys.exit(main())
