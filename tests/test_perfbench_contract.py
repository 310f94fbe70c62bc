"""The names the benchmark's tracer wraps must exist where it looks for them.

``perfbench/spans.py`` finds functions by module and name at run time and
drops every metric built on a name it cannot find, so a rename inside the
package would not fail the benchmark, only thin out its report.  This test
reads the span table (without installing anything) and checks it against
the package.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    # compiled from the text, so no bytecode cache is written next to it
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), vars(spans))
    return spans


spans = _load_spans()


@pytest.mark.parametrize("span, module, fname, modules", spans.SPANS,
                         ids=[f"{s[0]}:{s[2]}" for s in spans.SPANS])
def test_span_target_exists_in_every_binding(span, module, fname, modules):
    func = getattr(importlib.import_module(module), fname, None)
    assert callable(func), f"{module}.{fname} is missing"
    for binding in modules or ():
        assert getattr(importlib.import_module(binding), fname, None) is func, binding


def test_node_counted_recursion_exists():
    module, fname = spans.NODE_COUNTED
    assert callable(getattr(importlib.import_module(module), fname, None))


def test_scan_block_result_shape():
    from unidom.search import _scan_block

    found, visited, timed_out = _scan_block(6, 3, 9, 2, stop_on_first=False, deadline=None)
    assert isinstance(found, list)
    assert type(visited) is int
    assert type(timed_out) is bool
