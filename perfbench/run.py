"""Run one benchmark workload against the ``pdclass`` sources of this checkout.

    python3 perfbench/run.py --workload exceptional --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it measures the workload untraced and prints every
end-to-end metric with its unit.  With ``--trace 1`` it also runs each
operation once more untraced and then traced, prints each layer's self time
per grading and its share of the traced operation time, and writes the spans
to ``.bench_build/perfbench/``.  Either way the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program runs in this one process and thread.  Each output is checked as
soon as its timing stops; a check that fails counts the grading as failed.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS, Outcome, import_pdclass, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_GROUP = 4

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_gps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> span whose self time per grading it reports
LAYER_TIMES = {
    "cone.decide_ms": "cone.decide",
    "cone.verify_certificate_ms": "cone.verify_certificate",
    "oracle.check_instance_ms": "oracle.check_instance",
    "oracle.lattice_ms": "oracle.lattice",
    "classifier.definitional_ms": "classifier.definitional",
    "classifier.bracket_ms": "classifier.bracket",
    "classifier.cone_system_ms": "classifier.cone_system",
    "classifier.classify_self_ms": "classifier.classify",
    "structures.enumerate_ms": "structures.enumerate",
    "structures.validate_ms": "structures.validate",
    "structures.hermitian_splitting_ms": "structures.hermitian_splitting",
    "structures.new_structure_ms": "structures.new_structure",
    "structures.positive_system_ms": "structures.positive_system",
    "grading.make_grading_ms": "grading.make_grading",
    "cli.parse_domain_ms": "cli.parse_domain",
    "cli.payload_ms": "cli.payload",
}

PER_LAYER = (
    ("cone.decide_ms", "ms"),
    ("cone.decide_trivial_ms", "ms"),
    ("cone.decide_nontrivial_ms", "ms"),
    ("cone.trivial_frac", "ratio"),
    ("cone.verify_certificate_ms", "ms"),
    ("oracle.check_instance_ms", "ms"),
    ("oracle.lattice_ms", "ms"),
    ("oracle.lattice_empty_frac", "ratio"),
    ("classifier.definitional_ms", "ms"),
    ("classifier.bracket_ms", "ms"),
    ("classifier.bracket_trace_len", "count"),
    ("classifier.cone_system_ms", "ms"),
    ("classifier.classify_self_ms", "ms"),
    ("structures.enumerate_ms", "ms"),
    ("structures.enumerated_count", "count"),
    ("structures.validate_ms", "ms"),
    ("structures.hermitian_splitting_ms", "ms"),
    ("structures.new_structure_ms", "ms"),
    ("structures.positive_system_ms", "ms"),
    ("grading.make_grading_ms", "ms"),
    ("rootsys.build_ms", "ms"),
    ("cli.parse_domain_ms", "ms"),
    ("cli.payload_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


def set_up(workload, seed: int, reference):
    """Import the package afresh, build the root systems from a cleared cache
    and generate the inputs.  Returns the package, the inputs and the time."""
    start = perf_counter()
    pd = import_pdclass()
    pd.rootsys.build_root_system.cache_clear()
    inputs = workload.prepare(pd, seed, reference)
    return pd, inputs, perf_counter() - start


def setup_times(workload, seed: int, reference, repeats: int) -> list[float]:
    """Time further set-ups, then restore the modules the run is using, since
    ``classify`` imports from its own package at call time."""
    in_use = {k: v for k, v in sys.modules.items() if k == "pdclass" or k.startswith("pdclass.")}
    times = [set_up(workload, seed, reference)[2] for _ in range(repeats)]
    sys.modules.update(in_use)
    return times


def timed(call, pd, item) -> tuple[object, str | None, float]:
    """(output, error, seconds) of one operation; a failure is data."""
    start = perf_counter()
    try:
        output, error = call(pd, item), None
    except Exception as exc:  # noqa: BLE001 - a failed operation is data
        output, error = None, f"{type(exc).__name__}: {exc}"
    return output, error, perf_counter() - start


@dataclass(frozen=True)
class Checked:
    """One operation after its output check: the output itself is dropped,
    so that memory does not grow with the number of operations run."""

    item: object
    digest: object
    gradings: int
    problems: tuple[str, ...]


def checked(workload, pd, inputs, item, output, error) -> Checked:
    """Check one operation's output, outside its timed region."""
    outcome = Outcome(item, output, error, workload.gradings(inputs, item))
    digest = error if error is not None else workload.comparable(output)
    return Checked(item, digest, outcome.gradings, tuple(workload.check(pd, inputs, outcome)))


def measure(workload, pd, inputs, seconds: float, rounds: int | None = None):
    """Closed loop, one client: run whole rounds until ``seconds`` have passed
    and the workload's minimum is met, or exactly ``rounds`` when given.
    Returns the checked operations and their latencies in s."""
    records, latencies = [], []
    start = perf_counter()
    done = 0
    while (done < rounds) if rounds is not None else (
        done < workload.min_rounds or perf_counter() - start < seconds
    ):
        for item in workload.round_items(inputs, done):
            output, error, latency = timed(workload.run, pd, item)
            latencies.append(latency)
            records.append(checked(workload, pd, inputs, item, output, error))
        done += 1
    return records, latencies


def measure_paired(workload, pd, inputs, rounds: int, tracer):
    """Run each operation of ``rounds`` rounds untraced and at once again
    traced, so that both timings meet the same state of the host.  Returns
    the untraced and traced checked operations and their total times in s."""
    plain, marked = [], []
    plain_s = marked_s = 0.0
    traced_run = partial(tracer.op, workload.run)
    for index in range(rounds):
        for item in workload.round_items(inputs, index):
            output, error, seconds = timed(workload.run, pd, item)
            plain.append(checked(workload, pd, inputs, item, output, error))
            plain_s += seconds
            tracer.install(pd)
            try:
                output, error, seconds = timed(traced_run, pd, item)
            finally:
                tracer.uninstall()
            marked.append(checked(workload, pd, inputs, item, output, error))
            marked_s += seconds
    return plain, marked, plain_s, marked_s


def tally(records) -> tuple[int, int, list[str]]:
    """(gradings attempted, gradings failed, problem messages)."""
    attempted = failed = 0
    problems: list[str] = []
    for record in records:
        attempted += record.gradings
        failed += min(len(record.problems), record.gradings)
        problems.extend(record.problems)
    return attempted, failed, problems


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest order statistic with at least ten
    samples above it, or the maximum when there are fewer than eleven."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    k = n - 11
    return 100.0 * k / (n - 1), ordered[k]


def end_to_end_metrics(setup_s, records, best: list[float]) -> tuple[dict, dict]:
    """Metrics from each operation's fastest timing; ``records`` is one pass."""
    gradings = sum(r.gradings for r in records)
    percentile, tail_s = tail(best)
    values = {
        "setup_s": setup_s,
        "throughput_gps": gradings / sum(best),
        "latency_p50_ms": statistics.median(best) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "operations": len(best),
        "gradings": gradings,
        "busy_s": sum(best),
        "tail_percentile": percentile,
    }
    return values, notes


def cold_build_ms(pd, repeats: int = 5) -> float:
    """Median time to build E8 from a cleared ``build_root_system`` cache."""
    times = []
    for _ in range(repeats):
        pd.rootsys.build_root_system.cache_clear()
        start = perf_counter()
        pd.rootsys.build_root_system("E", 8)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


def layer_metrics(tracer, gradings: int, build_ms: float, overhead: float) -> dict:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    layers = tracer.layers()

    def ms(total_ns: int) -> float:
        return total_ns / gradings / 1e6

    def mean_attr(span: str, key: str) -> float:
        values = [a[key] for a in layers.get(span, {}).get("attrs", [])]
        return sum(values) / len(values) if values else 0.0

    values = {name: ms(layers.get(span, {}).get("self_ns", 0)) for name, span in LAYER_TIMES.items()}
    split = {True: 0, False: 0}
    for span, self_ns in zip(tracer.spans, tracer.self_times()):
        if span[0] == "cone.decide" and span[5] is not None:
            split[span[5]["trivial"]] += self_ns
    values["cone.decide_trivial_ms"] = ms(split[True])
    values["cone.decide_nontrivial_ms"] = ms(split[False])
    values["cone.trivial_frac"] = mean_attr("cone.decide", "trivial")
    values["oracle.lattice_empty_frac"] = mean_attr("oracle.lattice", "empty")
    values["classifier.bracket_trace_len"] = mean_attr("classifier.bracket", "trace_len")
    values["structures.enumerated_count"] = mean_attr("structures.enumerate", "count")
    values["rootsys.build_ms"] = build_ms
    values["trace.overhead_frac"] = overhead
    return {name: values[name] for name, _ in PER_LAYER}


def run_workload(workload, seed: int, seconds: float, trace: bool, reference,
                 spans_path=None) -> dict:
    """Set up, time the same rounds in ``workload.passes`` passes and keep
    each operation's fastest timing, check; with ``trace`` also run each
    operation of the same rounds once more untraced and then traced, back to
    back.  Returns the result line plus what the report prints.

    Timing noise on a shared host only ever adds time, and it comes in bursts
    of several seconds, so the fastest of timings taken a pass apart is the
    steadier estimate of what the operation costs."""
    # set-ups are timed in groups before, between and after the passes, so
    # that their median does not rest on one moment of the host
    times = setup_times(workload, seed, reference, SETUP_GROUP - 1)
    pd, inputs, last = set_up(workload, seed, reference)
    times.append(last)
    records, latencies = measure(workload, pd, inputs, seconds)
    rounds = len(records) // len(workload.round_items(inputs, 0))
    runs, timings = [records], [latencies]
    for _ in range(workload.passes - 1):
        times += setup_times(workload, seed, reference, SETUP_GROUP)
        repeat, repeat_latencies = measure(workload, pd, inputs, seconds, rounds)
        runs.append(repeat)
        timings.append(repeat_latencies)
    times += setup_times(workload, seed, reference, SETUP_GROUP)
    best = [min(each) for each in zip(*timings)]
    values, notes = end_to_end_metrics(statistics.median(times), records, best)
    if hasattr(workload, "mix"):
        notes["mix"] = workload.mix(inputs, [r.item for r in records])
    layers = None
    if trace:
        tracer = Tracer()
        untraced, traced, untraced_s, traced_s = measure_paired(
            workload, pd, inputs, rounds, tracer
        )
        runs += [untraced, traced]
        values = layer_metrics(tracer, notes["gradings"], cold_build_ms(pd),
                               traced_s / untraced_s - 1)
        layers = {"tracer": tracer, "gradings": notes["gradings"],
                  "untraced_s": untraced_s, "traced_s": traced_s}
        if spans_path is not None:
            tracer.write(spans_path)
    attempted = failed = 0
    problems: list[str] = []
    for run in runs:
        a, f, p = tally(run)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    same = all([r.digest for r in run] == [r.digest for r in runs[0]] for run in runs[1:])
    if not same:
        problems.append("outputs differ between passes or between traced and untraced runs")
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "result": {
            "correct": failed == 0 and same,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
        "notes": notes,
        "problems": problems,
        "layers": layers,
    }


def print_report(workload, report: dict) -> None:
    result, notes = report["result"], report["notes"]
    print(f"workload {workload.name}: {notes['operations']} operations over "
          f"{notes['gradings']} gradings, timed {workload.passes} times; {notes['busy_s']:.3f} s "
          f"summing each operation's fastest timing")
    if "mix" in notes:
        print(f"verdict mix: {notes['mix']}")
    if report["layers"] is None:
        for name, metric in result["metrics"].items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
        print(f"latency_tail_ms is percentile {notes['tail_percentile']:.1f} "
              f"of {notes['operations']} samples")
    else:
        print_layers(report["layers"])
        for name, metric in result["metrics"].items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} gradings)")
    for problem in report["problems"][:20]:
        print(f"FAIL {problem}")


def print_layers(layers: dict) -> None:
    """Self time per grading and share of the traced operation time, by span."""
    tracer, gradings = layers["tracer"], layers["gradings"]
    summary = tracer.layers()
    total_ns = sum(entry["self_ns"] for entry in summary.values())
    print(f"{'span':34} {'calls':>9} {'self ms/grading':>16} {'share':>7}")
    for name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"{name:34} {entry['calls']:9d} {entry['self_ns'] / gradings / 1e6:16.4f} "
              f"{100 * entry['self_ns'] / total_ns:6.2f}%")
    traced_ms = total_ns / gradings / 1e6
    untraced_ms = layers["untraced_s"] * 1000 / gradings
    print(f"self times sum to {traced_ms:.4f} ms/grading traced; the same operations "
          f"took {untraced_ms:.4f} ms/grading untraced, each just before its traced "
          f"run; tracing overhead {100 * (layers['traced_s'] / layers['untraced_s'] - 1):.2f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pdclass" / "__init__.py").is_file():
        print(f"no pdclass sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]()
    spans_path = None
    if args.trace:
        out_dir = ROOT / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    report = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                          load_reference(HERE / "reference.json"), spans_path)
    print_report(workload, report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
