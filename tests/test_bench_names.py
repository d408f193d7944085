"""The package names that the benchmark's span tracer wraps still exist.

``bench/spans.py`` patches functions and methods by name, and its own tests
are outside the default test paths, so a rename in the package would break
the benchmark alone.  It imports only the standard library and is loaded
here by path."""

import importlib
import importlib.util
import os
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


def test_tracer_and_the_shared_parser(capsys):
    """cli.main parses with one shared parser, while the tracer gives every
    parser build_parser returns a traced parse_args; build_parser must keep
    returning a parser of its own, or the wrappers would stack on the shared
    one.  Two traced calls record the same span layers and print what an
    untraced call prints, and the tracer leaves the shared parser as it was."""
    argv = ["certify", "--space", "chsc:n=2", "--format", "json"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    layers, outputs = [], []
    with _spans().Tracer() as tracer:
        for _ in range(2):
            start = len(tracer.spans)
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
            layers.append([span[0] for span in tracer.spans[start:]])
        cli.build_parser()
    assert layers[0] and layers[0] == layers[1]
    assert outputs == [plain, plain]
    assert "parse_args" not in vars(cli._parser())


def test_clear_caches_empties_the_family_tables():
    """The benchmark's cold operations rebuild the derivation tables: calls
    fill ``frames.family_table`` (the real-frame bases) and
    ``frames.grid_table`` (the Z-frame bases on the (p,q) grid),
    ``spans.clear_caches`` empties both, and the cached arrays are
    read-only, as every caller shares them."""
    from calabi_lab import weitzenboeck as wz

    conv = frames.FrameConvention(2)
    wz.phi_g(frames.FormPQ.generator(conv, (1,), (2,)), "su")
    wz.phi_g(frames.FormPQ.generator(conv, (1,), (2,)), "sym2_10")
    wz.phi_g(frames.RealForm.symmetrize(frames.FormPQ.generator(conv, (1,), ())), "so")
    for cache in (frames.family_table, frames.grid_table):
        assert cache.cache_info().currsize > 0
    for table in (frames.family_table(2, "so", 1), frames.grid_table(2, "su", 0, 1),
                  frames.grid_table(2, "sym2_10", 0, 1), frames.grid_table(2, "sym2_10", 1, 2)):
        assert not any(arr.flags.writeable for arr in table)
    _spans().clear_caches()
    for cache in (frames.family_table, frames.grid_table):
        assert cache.cache_info().currsize == 0


def test_clear_caches_empties_the_certificate_plans():
    """certify and spectrum requests and a threshold table fill the plans
    (``certify.plan``) and the threshold values they read
    (``certify._threshold_values``); ``spans.clear_caches`` empties both, so
    a cold operation builds them again."""
    from calabi_lab import certify as ct

    ct.plan.cache_clear()
    ct._threshold_values.cache_clear()
    for argv in (["certify", "--space", "chsc:n=3"], ["spectrum", "--space", "quadric:n=3"],
                 ["certify", "--space", "randomke:n=3,seed=2", "--mode", "ke"]):
        assert cli.main(argv + ["--out", os.devnull]) == 0
    ct.thresholds(5)
    assert ct.plan.cache_info().currsize == 2
    assert ct._threshold_values.cache_info().currsize == 2
    _spans().clear_caches()
    assert ct.plan.cache_info().currsize == 0
    assert ct._threshold_values.cache_info().currsize == 0
