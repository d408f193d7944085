"""Model-space requests solve the Calabi matrix of each space directly
(model_spaces.calabi_matrix): no real tensor for chsc, flat, random and
randomke, one Calabi read of the raw quadric, and the same answers as the
route through the (2n)^4 tensor, to rounding."""

import json
import sys

import numpy as np
import pytest

from calabi_lab import cli, curvature, frames
from calabi_lab import model_spaces as ms
from calabi_lab.cli import main
from calabi_lab.model_spaces import SpaceDescriptor
from request_reference import space_to_spectrum_via_tensor

COMMANDS = (["certify"], ["spectrum"])


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` in every calabi_lab module that bound it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "calabi_lab":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _run(argv, capsys):
    """(exit code, report records or None) of one request in json."""
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)["records"] if out else None


@pytest.mark.parametrize("space", ["chsc:n=3,c=2", "flat:k=4", "random:n=5,seed=3",
                                   "randomke:n=4,seed=8", "chsc:n=1", "randomke:n=1,seed=2"])
def test_model_space_requests_build_no_tensor(space, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("real tensor built on the direct path")

    _patch_everywhere(monkeypatch, curvature.tensor_from_calabi, never)
    _patch_everywhere(monkeypatch, frames.change_pairs, never)
    for command in COMMANDS:
        code, records = _run(command + ["--space", space], capsys)
        assert code in (0, 1) and records, command


@pytest.mark.parametrize("command", COMMANDS)
def test_quadric_request_reads_the_raw_tensor_once(command, monkeypatch, capsys):
    calls = []
    original = curvature.calabi_from_tensor

    def counted(t):
        calls.append(t.n)
        return original(t)

    _patch_everywhere(monkeypatch, original, counted)
    for space, n in (("quadric:n=4", 4), ("quadric:n=7,c=-2", 7)):
        calls.clear()
        assert _run(command + ["--space", space], capsys)[0] in (0, 1)
        assert calls == [n]


@pytest.mark.parametrize("n", [1, 2, 5, 16])
@pytest.mark.parametrize("c", [1.0, -1.0, 1e-3, 1e3])
def test_chsc_spectrum_is_exactly_c(n, c, capsys):
    code, records = _run(["spectrum", "--space", f"chsc:n={n},c={c!r}"], capsys)
    eigenvalues = records[0]["values"]["eigenvalues"]
    assert code in (0, 1) and len(eigenvalues) == n * (n + 1) // 2
    assert all(v == c for v in eigenvalues)


def _sweep(kind):
    """Space descriptors of one kind over n in 1..8, 12, 16, c in
    {1, -1, 1e-3, 1e3} and seeds {1, 7, 9001}."""
    ns = [n for n in (*range(1, 9), 12, 16) if kind != "quadric" or n >= 2]
    if kind in ("chsc", "quadric"):
        return [f"{kind}:n={n},c={c}" for n in ns for c in ("1", "-1", "1e-3", "1e3")]
    if kind in ("random", "randomke"):
        return [f"{kind}:n={n},seed={s}" for n in ns for s in (1, 7, 9001)]
    return [f"flat:k={n}" for n in ns]


def _assert_same_answer(got, want, scale):
    """Records that agree on every name, status, verdict, k, flag and count,
    and on every other float (eigenvalues, partial sums) to 1e-12 of the
    spectral radius.  A flag whose partial sum lies within that distance of
    0 is rounding's to decide."""
    tol = 1e-12 * scale

    def same(x, y, where):
        if isinstance(x, dict):
            assert x.keys() == y.keys(), where
            for key in x:
                if key in ("nonneg", "positive") and abs(x["partial_sum"]) <= tol:
                    continue
                same(x[key], y[key], (*where, key))
        elif isinstance(x, list) and x and type(x[0]) is float:
            assert len(x) == len(y) and np.max(np.abs(np.subtract(x, y))) <= tol, where
        elif type(x) is float and where[-1] != "k":
            assert abs(x - y) <= tol, where
        else:
            assert x == y, where

    assert [r["name"] for r in got] == [r["name"] for r in want]
    for a, b in zip(got, want):
        same(a, b, (a["name"],))


@pytest.mark.parametrize("kind", ["chsc", "flat", "random", "randomke", "quadric"])
def test_direct_route_agrees_with_the_tensor_route(kind, monkeypatch, capsys):
    direct = {}
    for space in _sweep(kind):
        for command in COMMANDS:
            direct[space, command[0]] = _run(command + ["--space", space], capsys)
    monkeypatch.setattr(cli, "_space_to_spectrum", space_to_spectrum_via_tensor)
    for (space, command), (code, records) in direct.items():
        ref_code, ref_records = _run([command, "--space", space], capsys)
        assert code == ref_code, (space, command)
        eigenvalues = ref_records[0]["values"]["eigenvalues"]
        scale = float(np.max(np.abs(eigenvalues)))
        _assert_same_answer(records, ref_records, scale)


@pytest.mark.parametrize("variant", ms.VARIANTS)
def test_calabi_matrix_covers_every_variant(variant):
    """calabi_matrix answers for every variant SpaceDescriptor.validate
    accepts, with the matrix read back from build's tensor."""
    factors = (SpaceDescriptor("quadric", n=2, c=-0.5), SpaceDescriptor("random", n=2, seed=4))
    desc = SpaceDescriptor(variant, n=3, c=1.5, seed=6,
                           factors=factors if variant == "product" else ())
    desc.validate()
    got = ms.calabi_matrix(desc)
    want = curvature.calabi_from_tensor(ms.build(desc)).matrix
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))
    with pytest.raises(ValueError, match="unknown space variant"):
        ms.calabi_matrix(SpaceDescriptor("sphere", n=3))


@pytest.mark.parametrize("argv", [["certify"], ["certify", "--mode", "ke"], ["spectrum"]])
def test_unprojected_randomke_matrix_exits_2(argv, monkeypatch, capsys):
    """With the Einstein projection taken away, the randomke matrix fails its
    Einstein check on every path, direct or through the tensor."""
    monkeypatch.setattr(ms, "_einstein_projection", lambda calabi, n: calabi)
    assert main(argv + ["--space", "randomke:n=3,seed=9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Einstein check failed" in captured.err
