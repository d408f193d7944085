"""Span tracing from outside the program.

A :class:`Tracer` replaces public functions of ``calabi_lab`` modules with
wrappers that record one span per call: layer, function, start, end and the
index of the enclosing span.  Spans stay in memory; :meth:`Tracer.layer_totals`
turns a slice of them into per-layer self times and counts.

Each wrapped function is replaced in every ``calabi_lab`` module namespace
that bound it (``checks.dense_z_to_e`` and ``frames.dense_z_to_e`` are the
same object), so calls through any import path are seen.  The identity
checks are timed at ``report.parallel_map``'s per-item call rather than by
wrapping ``checks.CHECKS``: ``run_verify_suite`` reads ``fn.__code__`` of each
check to decide whether to pass ``max_degree``, which a wrapper would hide.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> (module, attribute) pairs; "Class.method" names a method
LAYERS = {
    "frames.dense": [
        ("frames", "FormPQ.to_dense"), ("frames", "FormPQ.from_dense"),
        ("frames", "RealForm.to_dense"), ("frames", "dense_z_to_e"),
        ("frames", "dense_e_to_z"), ("frames", "dense_conj"),
        ("frames", "generator_dense_basis"),
    ],
    "frames.primitive": [("frames", "project_primitive"), ("frames", "lefschetz_adjoint")],
    "weitzenboeck.oracle": [
        ("weitzenboeck", "ricl_bruteforce"), ("weitzenboeck", "ricl_pairing"),
        ("weitzenboeck", "ricl_pairing_batch"),
    ],
    "weitzenboeck.eigen_route": [
        ("weitzenboeck", "ricl_via_calabi"), ("weitzenboeck", "ricl_via_calabi_batch"),
        ("weitzenboeck", "ricl_via_kaehler_su"),
    ],
    "weitzenboeck.families": [
        ("weitzenboeck", "phi_g"), ("weitzenboeck", "norm_phi_g"),
        ("weitzenboeck", "norm_phi_g_batch"), ("weitzenboeck", "family_mats"),
    ],
    "weitzenboeck.estimate": [
        ("weitzenboeck", "estimate_sampling"), ("weitzenboeck", "estimate_bound"),
    ],
    "weitzenboeck.sampler": [
        ("weitzenboeck", "random_primitive_real"), ("weitzenboeck", "random_real_pform"),
    ],
    "spectral.eigensystem": [("spectral", "eigensystem")],
    "spectral.ktest": [("spectral", "k_test")],
    "curvature.assemble": [
        ("curvature", "calabi_from_tensor"), ("curvature", "tensor_from_calabi"),
        ("curvature", "kaehler_operator"), ("curvature", "restrict_su"),
        ("curvature", "ricci"), ("curvature", "r1_r2_operators"),
    ],
    "curvature.validate": [("curvature", "validate_tensor")],
    "model_spaces.build": [
        ("model_spaces", "build"), ("model_spaces", "chsc"), ("model_spaces", "quadric"),
        ("model_spaces", "flat_torus"), ("model_spaces", "product"),
        ("model_spaces", "random_kaehler"), ("model_spaces", "random_kaehler_einstein"),
        ("model_spaces", "quadric_spectrum"),
    ],
    "certify.certify": [
        ("certify", "certify_calabi"), ("certify", "certify_ke"), ("certify", "thresholds"),
    ],
    "report.serialize": [("report", "to_json"), ("report", "to_csv"), ("report", "to_table")],
    "cli.parse": [("cli", "build_parser"), ("cli", "parse_space")],
}

# identity checks with a metric of their own; the rest go to checks.other
CHECK_LAYERS = {
    "check_curvature_term": "checks.curvature_term",
    "check_norm_identities": "checks.norm_identities",
    "check_main_estimate": "checks.main_estimate",
    "check_einstein_identities": "checks.einstein_identities",
}
CHECK_OTHER = "checks.other"


def _returned_nbytes(args, out):
    """Bytes of the dense array a dense-layer call produced (from_dense: consumed)."""
    arr = out if hasattr(out, "nbytes") else args[-1]
    return int(getattr(arr, "nbytes", 0))


# layer -> (counter, function of (args, result) giving its value), applied
# on entry into the layer from outside it; counters are summed except *_max
METERS = {
    "frames.dense": ("frames.dense_bytes", _returned_nbytes),
    "weitzenboeck.estimate": (
        "weitzenboeck.estimate_samples",
        lambda args, out: int(out["samples"]) if isinstance(out, dict) else 0),
    "spectral.eigensystem": ("spectral.eigensystem_dim_max", lambda args, out: int(out.size)),
    "report.serialize": ("report.bytes", lambda args, out: len(out.encode("utf-8"))),
}


# every figure layer_totals reports, so that a layer a workload never enters
# reads 0 rather than missing
ALL_KEYS = (
    [f"{layer}_s" for layer in [*LAYERS, *CHECK_LAYERS.values(), CHECK_OTHER]]
    + [f"{layer}_calls" for layer in LAYERS]
    + [f"{module}.calls" for module in {layer.split(".")[0] for layer in LAYERS}]
    + [counter for counter, _ in METERS.values()]
)


def _modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "calabi_lab" or name.startswith("calabi_lab.")}


class Tracer:
    """Record spans around the public functions listed in LAYERS.

    Use as a context manager: the functions are patched on entry and
    restored on exit.  Spans are ``[layer, name, start, end, parent]`` lists;
    ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _entered(self, idx: int, depth: int = 2) -> bool:
        """True when span idx enters its layer (depth 2) or its module
        (depth 1) from outside it."""
        parent = self.spans[idx][4]
        if parent < 0:
            return True
        layer = self.spans[idx][0].split(".")[:depth]
        return self.spans[parent][0].split(".")[:depth] != layer

    def _wrap(self, layer: str, name: str, fn):
        meter = METERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if meter is not None and self._entered(idx):
                self.spans[idx].append(meter[1](args, out))
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        mods = _modules()
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                mod = mods[f"calabi_lab.{modname}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        self._set(cls, meth, classmethod(self._wrap(layer, attr, raw.__func__)))
                    else:
                        self._set(cls, meth, self._wrap(layer, attr, raw))
                    continue
                original = getattr(mod, attr)
                wrapped = self._wrap(layer, attr, original)
                for other in mods.values():
                    for key, val in list(vars(other).items()):
                        if val is original:
                            self._set(other, key, wrapped)
        self._patch_parser(mods["calabi_lab.cli"])
        self._patch_parallel_map(mods["calabi_lab.report"])
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _patch_parser(self, cli) -> None:
        """Count argument parsing in cli.parse: the parser build_parser
        returns gets a traced parse_args."""
        build = cli.build_parser

        @functools.wraps(build)
        def build_parser(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = self._wrap("cli.parse", "parse_args", parser.parse_args)
            return parser

        self._set(cli, "build_parser", build_parser)

    def _patch_parallel_map(self, report) -> None:
        original = report.parallel_map

        def parallel_map(fn, items):
            def per_item(item):
                name = getattr(item, "__name__", repr(item))
                idx = self.begin(CHECK_LAYERS.get(name, CHECK_OTHER), name)
                try:
                    return fn(item)
                finally:
                    self.end(idx)

            return original(per_item, items)

        self._set(report, "parallel_map", parallel_map)

    # -- aggregation -------------------------------------------------------

    def layer_totals(self, start: int = 0, stop: int | None = None) -> dict[str, float]:
        """Per-layer figures over spans[start:stop]: ``<layer>_s`` self time,
        ``<layer>_calls`` entries into the layer, ``<module>.calls`` entries
        into the module, and the METERS counters.

        Identity checks are reported inclusive of their children, so that
        the checks.* times add up to the suite's wall time.
        """
        spans = self.spans[start:stop]
        child = defaultdict(float)
        for s in spans:
            if s[4] >= start:
                child[s[4]] += s[3] - s[2]
        out: dict[str, float] = defaultdict(float, {key: 0 for key in ALL_KEYS})
        for i, s in enumerate(spans, start):
            layer, dur = s[0], s[3] - s[2]
            if layer.startswith("checks."):
                out[f"{layer}_s"] += dur
                continue
            out[f"{layer}_s"] += dur - child[i]
            if self._entered(i, depth=1):
                out[f"{layer.split('.')[0]}.calls"] += 1
            if self._entered(i):
                out[f"{layer}_calls"] += 1
                if len(s) > 5:
                    key = METERS[layer][0]
                    out[key] = max(out[key], s[5]) if key.endswith("_max") else out[key] + s[5]
        return dict(out)


def clear_caches() -> None:
    """Empty every functools cache in calabi_lab, as a fresh process has them."""
    for mod in _modules().values():
        for val in list(vars(mod).values()):
            # a traced wrapper hides the cache behind __wrapped__
            while val is not None and not hasattr(val, "cache_clear"):
                val = getattr(val, "__wrapped__", None)
            if val is not None and callable(val.cache_clear):
                val.cache_clear()
