"""The traced benchmark run wraps package functions by name.

`perfbench/spans.py` names each function it wraps and each module whose
`ProcessPoolExecutor` it replaces; a renamed or removed target would make
every traced run fail at start-up, so the names are checked here."""

import importlib
import importlib.util
import pathlib
from concurrent.futures import ProcessPoolExecutor

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    for module_name, attr in [*spans.SPANS, *spans.MARKS]:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"
    for module_name in spans.POOL_MODULES:
        module = importlib.import_module(module_name)
        assert module.ProcessPoolExecutor is ProcessPoolExecutor, module_name
