"""Every name the benchmark's span tracer wraps is bound in the package.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` of its
``WRAP_POINTS`` on ``pdclass`` for a traced run, so a refactor that drops
one of those names would crash that run instead of failing here.  The file
is read, not changed.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


WRAP_POINTS = _wrap_points()


def test_wrap_points_listed():
    assert len(WRAP_POINTS) > 0


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for module, attr, *_ in WRAP_POINTS]
)
def test_wrap_point_resolves(module_name, attr):
    module = importlib.import_module(f"pdclass.{module_name}")
    assert callable(getattr(module, attr))
