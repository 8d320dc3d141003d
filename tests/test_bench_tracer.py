"""The benchmark's tracer names the functions it wraps by module and
attribute; each must still resolve, or ``bench/run.py --trace`` fails
while every other test passes."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_tracer().TARGETS,
                         ids=lambda t: f"{t.module}.{t.attr}")
def test_every_traced_target_resolves_to_a_callable(target):
    owner = importlib.import_module(target.module)
    for name in target.attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


NAMED_HITS = [t for t in load_tracer().TARGETS
              if t.hit is not None and t.hit.__qualname__.startswith("_named")]


@pytest.mark.parametrize("target", NAMED_HITS,
                         ids=lambda t: f"{t.module}.{t.attr}")
def test_every_hit_name_is_a_class_of_the_target_module(target):
    # a hit is a result whose class has this name; a class renamed or moved
    # would read every result as a miss and zero the hit ratio
    (cell,) = target.hit.__closure__
    owner = importlib.import_module(target.module)
    assert isinstance(getattr(owner, cell.cell_contents, None), type)
