"""Model-space requests solve the Calabi matrix of each space directly
(model_spaces.calabi_matrix): calabi-mode certify and spectrum build no real
tensor for any descriptor, KE mode builds one only for its Einstein test,
and both give the same answers as the routes through the (2n)^4 tensor, to
rounding."""

import json
import sys

import numpy as np
import pytest

from calabi_lab import cli, curvature, frames
from calabi_lab import model_spaces as ms
from calabi_lab.cli import main
from calabi_lab.model_spaces import SpaceDescriptor
from request_reference import space_to_kaehler_su_via_tensor, space_to_spectrum_via_tensor

COMMANDS = (["certify"], ["spectrum"])
KE = ["certify", "--mode", "ke"]


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


@pytest.mark.parametrize("space", ["quadric:n=4", "quadric:n=7,c=-2",
                                   "product:[quadric:n=2;quadric:n=2]",
                                   "product:[product:[quadric:n=2;quadric:n=2];quadric:n=2]",
                                   "product:[flat:k=2;product:[flat:k=1;flat:k=3]]"])
def test_quadric_and_product_requests_build_no_tensor(space, monkeypatch, capsys):
    """No raw quadric, product tensor or frame change in either mode; in KE
    mode one tensor is built from the Calabi matrix, for the Einstein test."""
    def never(*args, **kwargs):
        raise AssertionError("tensor built on the direct path")

    built = []
    original, contract = curvature.tensor_from_calabi, curvature.ricci

    def einstein_tensor(h, conv):
        built.append(original(h, conv))
        return built[-1]

    def einstein_test(t):
        assert any(t is b for b in built), "Ricci contraction of another tensor"
        return contract(t)

    for name in ("_quadric_raw", "product", "build"):
        _patch_everywhere(monkeypatch, getattr(ms, name), never)
    _patch_everywhere(monkeypatch, frames.change_pairs, never)
    _patch_everywhere(monkeypatch, original, einstein_tensor)
    _patch_everywhere(monkeypatch, contract, einstein_test)
    for command in COMMANDS:
        code, records = _run(command + ["--space", space], capsys)
        assert code in (0, 1) and records and built == [], command
    code, records = _run(KE + ["--space", space], capsys)
    assert code in (0, 1) and records and len(built) == 1


@pytest.mark.parametrize("n", [1, 2, 5, 16])
@pytest.mark.parametrize("c", [1.0, -1.0, 1e-3, 1e3, 49.0, 0.1, 7.0, 1.7e308, -1e308, 1e-320])
def test_chsc_spectrum_is_exactly_c(n, c, capsys):
    """The power-of-two prescale of the eigensolve is exact at every scale,
    subnormal c included."""
    text = f"chsc:n={n},c={c!r}"
    spec = cli._space_to_spectrum(cli.parse_space(text))[1]
    assert spec.size == n * (n + 1) // 2 and all(v == c for v in spec.eigenvalues)
    code, records = _run(["spectrum", "--space", text], capsys)
    if abs(c) >= 1e308 and n > 1:
        # a rung k > 1 sums past the float64 range, which is refused
        assert code == 2 and records is None
    else:
        assert code in (0, 1) and records[0]["values"]["eigenvalues"] == spec.eigenvalues.tolist()


PRODUCTS = ["product:[quadric:n=2;quadric:n=2]", "product:[chsc:n=1;chsc:n=1,c=2]",
            "product:[chsc:n=2,c=1.3;random:n=4,seed=5]",
            "product:[quadric:n=3;flat:k=1;randomke:n=3,seed=7]",
            "product:[product:[quadric:n=2;quadric:n=2];quadric:n=2]",
            "product:[product:[quadric:n=2,c=-2;chsc:n=1];flat:k=2]",
            "product:[randomke:n=2,seed=3;product:[quadric:n=3,c=1e3;flat:k=2]]",
            "product:[flat:k=2;product:[flat:k=1;flat:k=3]]"]


def _sweep(kind):
    """Space descriptors of one kind over n in 1..8, 12, 16, c in
    {1, -1, 1e-3, 1e3} and seeds {1, 7, 9001}, or PRODUCTS."""
    if kind == "product":
        return PRODUCTS
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


def _answer(argv, capsys):
    """(exit code, report records, or the error message on exit 2)."""
    code = main(argv + ["--format", "json"])
    out, err = capsys.readouterr()
    return code, json.loads(out)["records"] if out else err


@pytest.mark.parametrize("kind", ["chsc", "flat", "random", "randomke", "quadric", "product"])
def test_direct_route_agrees_with_the_tensor_route(kind, monkeypatch, capsys):
    """Both modes of certify, and spectrum, against the routes that build the
    real tensor: the same exit code and error message, or the same answer."""
    requests = (*COMMANDS, KE)
    direct = {}
    for space in _sweep(kind):
        for command in requests:
            direct[space, tuple(command)] = _answer(command + ["--space", space], capsys)
    monkeypatch.setattr(cli, "_space_to_spectrum", space_to_spectrum_via_tensor)
    monkeypatch.setattr(cli, "_space_to_kaehler_su", space_to_kaehler_su_via_tensor)
    for (space, command), (code, got) in direct.items():
        ref_code, want = _answer([*command, "--space", space], capsys)
        assert code == ref_code, (space, command)
        if code == 2:
            assert got == want, (space, command)
            continue
        eigenvalues = want[0]["values"]["eigenvalues"]
        scale = float(np.max(np.abs(eigenvalues)))
        _assert_same_answer(got, want, scale)


@pytest.mark.parametrize("variant", ["random", "random_ke", "chsc", "quadric"])
@pytest.mark.parametrize("n", range(2, 9))
def test_kaehler_assembly_from_the_calabi_block_matches_the_tensor(variant, n):
    """The one Kaehler assembly gives the same matrix on the Calabi block of
    h as on the change_pairs block of the tensor built from h."""
    h = ms.calabi_matrix(SpaceDescriptor(variant, n=n, c=-1.5, seed=n + 11))
    got = curvature.kaehler_from_block(curvature.calabi_block(h, n)).matrix
    t = curvature.tensor_from_calabi(h, frames.FrameConvention(n))
    want = curvature.kaehler_operator(t).matrix
    assert got.shape == want.shape == (n * n, n * n)
    assert np.max(np.abs(got - want)) <= 1e-14 * float(np.max(np.abs(want)))


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
