"""Span tracing for the traced run, installed from outside the package.

Each public function is wrapped at the name its caller looks up: for example
``pdclass.classifier.decide_cone`` is what ``cone_criterion`` calls, and
``pdclass.cli.classify`` is what the CLI path calls.  A span records its name,
start, end, parent span and the operation it belongs to; spans stay in memory
until the run ends.  A span's self time is its duration minus the durations
of its direct children, which never overlap because the run is one thread.
"""
from __future__ import annotations

import json
from time import perf_counter_ns


def _trivial(decision) -> dict:
    return {"trivial": decision.trivial}


def _trace_len(result) -> dict:
    return {"trace_len": len(result[1])}


def _empty(point) -> dict:
    return {"empty": point is None}


def _count(result) -> dict:
    return {"count": len(result[0])}


# (module, attribute looked up by the caller, span name, annotation of the result)
WRAP_POINTS = (
    # called by the benchmark itself
    ("oracle", "survey_crosscheck", "oracle.survey", None),
    ("cli", "parse_domain", "cli.parse_domain", None),
    ("cli", "classify", "classifier.classify", None),
    ("cli", "classify_payload", "cli.payload", None),
    ("structures", "new_complex_structure", "structures.new_structure", None),
    ("structures", "positive_system_of", "structures.positive_system", None),
    ("structures", "enumerate_structures", "structures.enumerate", _count),
    # called by cli.parse_domain
    ("cli", "build_root_system", "rootsys.build", None),
    ("cli", "make_grading", "grading.make_grading", None),
    # called by survey_crosscheck and check_instance
    ("oracle", "check_instance", "oracle.check_instance", None),
    ("oracle", "build_root_system", "rootsys.build", None),
    ("oracle", "make_grading", "grading.make_grading", None),
    ("oracle", "classify", "classifier.classify", None),
    ("oracle", "grading_cone_system", "classifier.cone_system", None),
    ("oracle", "lattice_cone_search", "oracle.lattice", _empty),
    ("oracle", "new_complex_structure", "structures.new_structure", None),
    ("oracle", "validate_structure", "structures.validate", None),
    ("oracle", "positive_system_of", "structures.positive_system", None),
    # called by classify and cone_criterion; classify imports
    # hermitian_splitting from the structures module at call time
    ("classifier", "is_classical_definitional", "classifier.definitional", None),
    ("classifier", "cone_criterion", "classifier.cone_criterion", None),
    ("classifier", "grading_cone_system", "classifier.cone_system", None),
    ("classifier", "decide_cone", "cone.decide", _trivial),
    ("classifier", "bracket_generation", "classifier.bracket", _trace_len),
    ("structures", "hermitian_splitting", "structures.hermitian_splitting", None),
    # called by decide_cone
    ("cone", "verify_certificate", "cone.verify_certificate", None),
    # called inside the structures module
    ("structures", "validate_structure", "structures.validate", None),
    ("structures", "parabolic_of", "structures.parabolic", None),
)

OP_SPAN = "bench.op"
# spans that start a grading of their own inside a many-grading operation
GRADING_SPANS = {"oracle.check_instance"}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index, grading id, attributes]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._grading: int | None = None
        self._next_grading = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self, pd) -> None:
        for module_name, attr, span_name, annotate in WRAP_POINTS:
            module = getattr(pd, module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, annotate))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def op(self, fn, *args):
        """Run one benchmark operation as a root span with a new grading id."""
        return self._call(OP_SPAN, None, fn, args, {})

    def _wrap(self, fn, span_name, annotate):
        def traced(*args, **kwargs):
            return self._call(span_name, annotate, fn, args, kwargs)

        return traced

    def _call(self, name, annotate, fn, args, kwargs):
        outer = self._grading
        if not self._stack or name in GRADING_SPANS:
            self._grading = self._next_grading
            self._next_grading += 1
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else None, self._grading, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
            self._grading = outer
        if annotate is not None:
            span[5] = annotate(result)
        return result

    def self_times(self) -> list[int]:
        covered = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, *_) in enumerate(self.spans)]

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total self time and the attribute values."""
        out: dict[str, dict] = {}
        for span, self_ns in zip(self.spans, self.self_times()):
            entry = out.setdefault(span[0], {"calls": 0, "self_ns": 0, "attrs": []})
            entry["calls"] += 1
            entry["self_ns"] += self_ns
            if span[5] is not None:
                entry["attrs"].append(span[5])
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for index, (name, start, end, parent, grading, attrs) in enumerate(self.spans):
                record = {"id": index, "grading": grading, "name": name, "start_ns": start,
                          "end_ns": end, "parent": parent}
                if attrs:
                    record["attrs"] = attrs
                f.write(json.dumps(record) + "\n")
