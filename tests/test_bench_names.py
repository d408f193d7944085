"""The package names that the benchmark's span tracer wraps still exist.

``bench/spans.py`` patches functions and methods by name, and its own tests
are outside the default test paths, so a rename in the package would break
the benchmark alone.  It imports only the standard library and is loaded
here by path."""

import importlib
import importlib.util
from pathlib import Path

from calabi_lab import checks, cli, frames, report

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_layers_name_existing_package_attributes():
    spans = _spans()
    for targets in spans.LAYERS.values():
        for modname, attr in targets:
            module = importlib.import_module(f"calabi_lab.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert meth in vars(getattr(module, cls_name)), f"{modname}.{attr}"
            else:
                assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
    assert isinstance(vars(frames.FormPQ)["from_dense"], classmethod)


def test_span_check_layers_name_identity_checks():
    names = {fn.__name__ for fn in checks.CHECKS}
    assert set(_spans().CHECK_LAYERS) <= names


def test_spans_patch_points_exist():
    assert callable(cli.build_parser)
    assert callable(report.parallel_map)
