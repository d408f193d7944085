"""CLI: space grammar, commands, formats, exit codes, determinism."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import calabi_lab
from calabi_lab.cli import SpaceParseError, main, parse_space
from calabi_lab.curvature import RicciData
from calabi_lab.frames import FrameConvention
from calabi_lab.model_spaces import SpaceDescriptor
from calabi_lab.report import validate_report
from calabi_lab.weitzenboeck import stress_search


def test_parse_space_grammar():
    d = parse_space("chsc:n=3,c=1")
    assert d == SpaceDescriptor("chsc", n=3, c=1.0)
    assert parse_space("quadric:n=4").variant == "quadric"
    assert parse_space("flat:k=2").n == 2
    assert parse_space("random:n=3,seed=9").seed == 9
    assert parse_space("randomke:n=2,seed=1").variant == "random_ke"
    prod = parse_space("product:[chsc:n=1,c=2;flat:k=1]")
    assert prod.variant == "product"
    assert prod.complex_dim == 2
    nested = parse_space("product:[product:[chsc:n=1;chsc:n=1];flat:k=1]")
    assert nested.complex_dim == 3


@pytest.mark.parametrize("bad", [
    "bogus:n=1",
    "chsc:n=zero",
    "chsc:n",
    "product:chsc:n=1",
    "quadric:n=1",
    "",
])
def test_parse_space_errors(bad):
    with pytest.raises((SpaceParseError, ValueError)):
        parse_space(bad)


@pytest.mark.parametrize("bad,name", [
    ("chsc:n=2.5", "n"),
    ("flat:k=1.5", "k"),
    ("random:n=3,seed=1.5", "seed"),
    ("random:n=2,seed=-3", "seed"),
    ("randomke:n=2,seed=inf", "seed"),
    ("product:[chsc:n=1;flat:k=0.5]", "k"),
])
def test_parse_space_refuses_non_integral_parameters(bad, name, capsys):
    """n, k and seed are whole numbers, seed >= 0: never truncated to a
    different space, and refused with the parameter named (exit 2)."""
    with pytest.raises(SpaceParseError, match=f"{name} must be a whole number >= 0"):
        parse_space(bad)
    _assert_usage_error(["certify", "--space", bad], capsys, f"{name} must be a whole number")


def test_parse_space_error_reports_position():
    with pytest.raises(SpaceParseError) as err:
        parse_space("bogus:n=1")
    assert "position" in str(err.value)


@pytest.mark.parametrize("bad,pos", [
    ("product:[chsc:n=1;flat:k=1.5]", 23),
    ("product:[chsc:n=1;product:[flat:k=1;chsc:n=2,c=x]]", 45),
    ("  chsc:n=1,c=x", 11),
    ("product:[chsc:n=1; bogus:n=1]", 19),
])
def test_parse_space_positions_count_from_the_whole_descriptor(bad, pos):
    """Positions inside product factors and after leading blanks index the
    descriptor as typed, and the message quotes all of it."""
    with pytest.raises(SpaceParseError) as err:
        parse_space(bad)
    assert err.value.pos == pos
    assert f"position {pos}:" in str(err.value)
    assert str(err.value).endswith(f"(in {bad!r})")


@pytest.mark.parametrize("space", ["quadric:n=3,c=nan", "quadric:n=3,c=-inf", "chsc:n=2,c=inf"])
def test_parse_space_refuses_non_finite_scale(space, capsys):
    """A NaN or infinite c is refused by name (exit 2), before any tensor is
    built: no numpy warning, and no Einstein complaint about a NaN tensor."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["certify", "--space", space, "--mode", "ke"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and "c must be a finite number" in err
    assert "Einstein" not in err and not caught


@pytest.mark.parametrize("bad,pos,message", [
    ("chsc:n=1,c=2,c=3", 13, "c sets c a second time"),
    ("chsc:n=2,k=3", 9, "k sets n a second time"),
    ("flat:k=2,n=2", 9, "n sets n a second time"),
    ("random:n=2,seed=1,seed=1", 18, "seed sets seed a second time"),
    ("chsc:n=2,=3", 9, "chsc takes no parameter ''"),
    ("random:n=2,c=7", 11, "random takes no parameter 'c'"),
    ("randomke:n=2,c=1", 13, "randomke takes no parameter 'c'"),
    ("flat:k=1,c=2", 9, "flat takes no parameter 'c'"),
    ("chsc:n=2,seed=4", 9, "chsc takes no parameter 'seed'"),
    ("quadric:n=3,seed=4", 12, "quadric takes no parameter 'seed'"),
    ("flat:k=1,seed=0", 9, "flat takes no parameter 'seed'"),
    ("chsc:n=2,x=1", 9, "chsc takes no parameter 'x'"),
    ("product:[chsc:n=1;random:n=1,c=2]", 29, "random takes no parameter 'c'"),
])
def test_parse_space_refuses_misread_parameters(bad, pos, message, capsys):
    """A repeated parameter, n given with k, or a parameter the kind does not
    read would be silently misread: each is refused by key and position."""
    with pytest.raises(SpaceParseError) as err:
        parse_space(bad)
    assert err.value.pos == pos and message in str(err.value)
    _assert_usage_error(["certify", "--space", bad], capsys, message)


def _documented_descriptors(tmp_path):
    """Every space descriptor the README shows and the certify-sweep benchmark
    requests (its module is loaded by path, as it lies outside the tests)."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    found = re.findall(r"\b(?:chsc|quadric|flat|randomke|random|product):[^\s`'\"]+", readme)
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for tiny in (True, False):
        reqs = workloads.CertifySweep(tiny=tiny).setup(7, tmp_path)
        found += [argv[argv.index("--space") + 1] for argv, _ in reqs]
    return found


def test_documented_descriptors_still_parse(tmp_path):
    descriptors = _documented_descriptors(tmp_path)
    assert len(descriptors) > 80
    for text in descriptors:
        parse_space(text)


def run_cli(args, tmp_path=None):
    return main(args)


def test_spectrum_command_chsc(tmp_path, capsys):
    out = tmp_path / "spec.json"
    code = main(["spectrum", "--space", "chsc:n=3,c=1", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    env = json.loads(out.read_text())
    assert validate_report(env) == []
    vals = env["records"][0]["values"]["eigenvalues"]
    np.testing.assert_allclose(vals, 1.0, atol=1e-12)


def test_spectrum_command_quadric_flags(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--space", "quadric:n=4", "--format", "json",
                 "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    ladder = {r["values"]["k"]: r["values"] for r in env["records"][1:]}
    # n/2-nonnegative but not n/2-positive (exact zero partial sum)
    assert abs(ladder[2.0]["partial_sum"]) < 1e-10


def test_spectrum_flat_zero(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--space", "flat:k=2", "--format", "json",
                 "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert all(v == 0.0 for v in env["records"][0]["values"]["eigenvalues"])


def test_thresholds_command(tmp_path):
    out = tmp_path / "thr.json"
    assert main(["thresholds", "--n", "6", "--format", "json", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    rows = {(r["values"]["p"], r["values"]["q"]): r["values"]
            for r in env["records"] if r["name"].startswith("threshold")}
    assert rows[(1, 1)]["upsilon"] == 3.0
    assert rows[(1, 1)]["upsilon_exact"] == {"num": 3, "den": 1}
    assert rows[(6, 0)]["gamma"] == {"num": 35, "den": 6}


def test_certify_command_chsc_and_quadric(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--space", "chsc:n=3,c=1", "--mode", "calabi",
                 "--format", "json", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert env["records"][0]["values"]["summary_certified"] is True

    assert main(["certify", "--space", "quadric:n=4", "--mode", "calabi",
                 "--format", "json", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    summary = env["records"][0]["values"]
    assert summary["summary_certified"] is False
    verdicts = {(r["values"]["p"], r["values"]["q"]): r["values"]["status"]
                for r in env["records"][1:]}
    assert verdicts[(1, 1)] == "parallel-only"


def test_certify_ke_command(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--space", "randomke:n=3,seed=4", "--mode", "ke",
                 "--format", "json", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert env["records"][0]["values"]["mode"] == "ke"


def test_certify_ke_refuses_non_einstein(tmp_path, capsys):
    code = main(["certify", "--space", "product:[chsc:n=1,c=1;chsc:n=1,c=2]",
                 "--mode", "ke"])
    assert code == 2
    assert "Einstein" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["spectrum", "--space", "bogus:n=1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "-3"),
                                        ("--max-degree", "0"), ("--max-degree", "-1")])
def test_verify_rejects_counts_below_one(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be an integer >= 1, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,domain", [
    ("--n", "1", "an integer >= 2 (su(1) is zero-dimensional)"),
    ("--n", "-2", "an integer >= 2 (su(1) is zero-dimensional)"),
    ("--seed", "-1", "an integer >= 0"),
])
def test_verify_rejects_n_below_two_and_negative_seed(flag, value, domain, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, value, "--trials", "1"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be {domain}, got '{value}'" in capsys.readouterr().err


def test_package_errors_share_one_base():
    from calabi_lab import cli, curvature, frames, model_spaces, spectral, weitzenboeck
    from calabi_lab.errors import CalabiLabError

    assert curvature.NotHermitian is spectral.NotHermitian
    for exc in (curvature.SymmetryViolation, curvature.NotKaehler, curvature.NotEinstein,
                spectral.NotHermitian, spectral.ConvergenceFailure, frames.FrameError,
                cli.SpaceParseError, cli.SizeLimitError, model_spaces.EinsteinProjectionError,
                weitzenboeck.NotSymmetric, weitzenboeck.SamplingFailure):
        assert issubclass(exc, CalabiLabError)


def _assert_usage_error(argv, capsys, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_certify_reports_eigensolver_convergence_failure(tmp_path, monkeypatch, capsys):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    tri = [[2.0, 0.0], [0.5, 0.25], [0.0, 0.0], [1.0, 0.0], [0.0, 0.1], [1.5, 0.0]]
    path = tmp_path / "cal.json"
    path.write_text(json.dumps({"kind": "calabi", "n": 2, "hermitian": tri}))
    _assert_usage_error(["certify", "--space", f"file:{path}"], capsys, "eigensolve did not converge")


def test_certify_reports_einstein_projection_error(monkeypatch, capsys):
    from calabi_lab import model_spaces as ms

    # the tensor built from the projected Calabi matrix fails KE mode's
    # Einstein test, the one Ricci contraction that mode runs
    calls = []

    def not_einstein(t):
        calls.append(t.n)
        return RicciData(np.eye(2 * t.n), 2.0 * t.n, None)

    monkeypatch.setattr(ms, "ricci", not_einstein)
    _assert_usage_error(["certify", "--space", "randomke:n=3,seed=9", "--mode", "ke"],
                        capsys, "Einstein check failed")
    assert calls == [3]


@pytest.mark.parametrize("space", ["chsc:n=1", "flat:k=1"])
def test_certify_ke_refuses_n_below_two(space, capsys):
    _assert_usage_error(["certify", "--space", space, "--mode", "ke"], capsys,
                        "su(1) is zero-dimensional")


def _refuse_work(monkeypatch):
    """Make every path that builds or solves something fail the test."""
    from calabi_lab import cli
    from calabi_lab import model_spaces as ms

    def never(*args, **kwargs):
        raise AssertionError("work started before the size check")

    for owner, name in ((cli, "run_verify_suite"), (cli, "eigensystem"), (ms, "build"),
                        (cli, "_calabi_matrix_from_input"), (cli, "_tensor_from_input")):
        monkeypatch.setattr(owner, name, never)


def test_verify_refuses_n_above_limit(monkeypatch, capsys):
    from calabi_lab.cli import MAX_VERIFY_N

    _refuse_work(monkeypatch)
    _assert_usage_error(["verify", "--n", str(MAX_VERIFY_N + 1), "--max-degree", "1"],
                        capsys, f"n={MAX_VERIFY_N + 1} is above the limit {MAX_VERIFY_N}")


@pytest.mark.parametrize("command", ["certify", "spectrum"])
def test_space_refuses_n_above_limit(command, monkeypatch, capsys):
    from calabi_lab.cli import MAX_N

    _refuse_work(monkeypatch)
    _assert_usage_error([command, "--space", f"random:n={MAX_N + 1},seed=1"],
                        capsys, f"n={MAX_N + 1} is above the limit {MAX_N}")
    # a product is limited by its total dimension
    half = MAX_N // 2 + 1
    _assert_usage_error([command, "--space", f"product:[chsc:n={half};quadric:n={half}]"],
                        capsys, f"n={2 * half} is above the limit {MAX_N}")


@pytest.mark.parametrize("kind", ["calabi", "components"])
def test_file_input_refuses_n_above_limit(kind, tmp_path, monkeypatch, capsys):
    from calabi_lab.cli import MAX_N

    _refuse_work(monkeypatch)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": kind, "n": MAX_N + 1, "hermitian": [], "entries": []}))
    for argv in (["certify", "--space", f"file:{path}"],
                 ["certify", "--space", f"file:{path}", "--mode", "ke"],
                 ["spectrum", "--space", f"file:{path}"]):
        _assert_usage_error(argv, capsys, f"n={MAX_N + 1} is above the limit {MAX_N}")


def test_file_input_calabi(tmp_path):
    m = 3
    h = np.array([[2.0, 0.5 + 0.25j, 0.0],
                  [0.5 - 0.25j, 1.0, 0.1j],
                  [0.0, -0.1j, 1.5]])
    tri = [[h[i, j].real, h[i, j].imag] for i in range(m) for j in range(i, m)]
    path = tmp_path / "cal.json"
    path.write_text(json.dumps({"kind": "calabi", "n": 2, "hermitian": tri}))
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--space", f"file:{path}", "--format", "json",
                 "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    np.testing.assert_allclose(env["records"][0]["values"]["eigenvalues"],
                               np.linalg.eigvalsh(h), atol=1e-10)


def test_file_input_components(tmp_path):
    # constant holomorphic sectional curvature written out sparsely
    from calabi_lab.model_spaces import chsc

    t = chsc(2, 1.0)
    d = 4
    entries = []
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                for l in range(k + 1, d):
                    v = t.components[i, j, k, l]
                    if abs(v) > 1e-14:
                        entries.append([i + 1, j + 1, k + 1, l + 1, float(v)])
    path = tmp_path / "comp.json"
    path.write_text(json.dumps({"kind": "components", "n": 2, "entries": entries}))
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--space", f"file:{path}", "--format", "json",
                 "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    np.testing.assert_allclose(env["records"][0]["values"]["eigenvalues"], 1.0,
                               atol=1e-10)


@pytest.mark.parametrize("entries", [
    [[1, 2, 2, 1, 1.0], [1, 2, 1, 2, 1.0]],
    [[1, 2, 1, 2, 1.0], [1, 2, 2, 1, 1.0]],
    [[1, 2, 1, 2, 1.0], [1, 2, 1, 2, 2.0]],
])
def test_file_components_that_set_one_component_twice_exit_2(entries, tmp_path, capsys):
    """Two entries that give one component different values, directly or
    through the pair symmetries, are refused with both entries named: the
    last one would otherwise win, and its order would decide the sign of the
    spectrum."""
    path = tmp_path / "comp.json"
    path.write_text(json.dumps({"kind": "components", "n": 1, "entries": entries}))
    for argv in (["spectrum", "--space", f"file:{path}"],
                 ["certify", "--space", f"file:{path}"]):
        _assert_usage_error(argv, capsys, "component entries 0 and 1 set R(")


@pytest.mark.parametrize("entry,message", [
    ([1, 1, 2, 2, 1.0], "component entry 0 sets R(1, 1, 2, 2) to 1.0, but R is antisymmetric "
                        "in its first pair (i = j)"),
    ([1, 2, 2, 2, -0.5], "component entry 0 sets R(1, 2, 2, 2) to -0.5, but R is antisymmetric "
                         "in its second pair (k = l)"),
])
def test_file_components_with_a_repeated_pair_index_exit_2(entry, message, tmp_path, capsys):
    """An entry whose antisymmetric pair repeats an index (i = j or k = l)
    with a nonzero value would set that component to both v and -v; it is
    refused by entry, with 1-based indices."""
    path = tmp_path / "comp.json"
    path.write_text(json.dumps({"kind": "components", "n": 1, "entries": [entry]}))
    for argv in (["spectrum", "--space", f"file:{path}"],
                 ["certify", "--space", f"file:{path}"]):
        _assert_usage_error(argv, capsys, message)
    path.write_text(json.dumps({"kind": "components", "n": 1,
                                "entries": [[1, 2, 1, 2, 1.0], entry[:4] + [0.0]]}))
    assert main(["spectrum", "--space", f"file:{path}", "--format", "json"]) == 0
    capsys.readouterr()


def test_file_components_accept_equal_repeats(tmp_path, capsys):
    # the same value, given again directly or through the pair symmetries
    path = tmp_path / "comp.json"
    for entries in ([[1, 2, 1, 2, 1.0], [1, 2, 1, 2, 1.0]],
                    [[1, 2, 1, 2, 1.0], [2, 1, 2, 1, 1.0], [2, 1, 1, 2, -1.0]]):
        path.write_text(json.dumps({"kind": "components", "n": 1, "entries": entries}))
        assert main(["spectrum", "--space", f"file:{path}", "--format", "json"]) == 0
        env = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(env["records"][0]["values"]["eigenvalues"], [1.0],
                                   atol=1e-14)


def test_file_input_bad_schema(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "calabi", "n": 2, "hermitian": [[1.0, 0.0]]}))
    assert main(["spectrum", "--space", f"file:{path}"]) == 2
    path.write_text(json.dumps({"kind": "wrong", "n": 2}))
    assert main(["spectrum", "--space", f"file:{path}"]) == 2


def test_certify_file_with_huge_entries_grants_no_false_verdict(tmp_path):
    # eigenvalues -6.2e159, 1, 1.6e160; the (1,1) partial sum is the negative one
    s = 1e160
    tri = [[s, 0.0], [s, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "calabi", "n": 2, "hermitian": tri}))
    out = tmp_path / "cert.json"
    assert main(["certify", "--space", f"file:{path}", "--format", "json",
                 "--out", str(out)]) == 0
    records = {r["name"]: r for r in json.loads(out.read_text())["records"]}
    h = np.array([[s, s, 0.0], [s, 1.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(records["summary"]["values"]["eigenvalues"],
                               np.linalg.eigvalsh(h), rtol=1e-12)
    assert records["verdict[1,1]"]["values"]["status"] == "not-certified"


@pytest.mark.parametrize("argv", [
    ["certify", "--space", "quadric:n=3,c=1e308"],
    ["certify", "--space", "quadric:n=3,c=-1e308"],
    ["certify", "--space", "chsc:n=3,c=1e308"],
    ["certify", "--space", "file:{diagonal}", "--format", "json"],
    ["spectrum", "--space", "file:{diagonal}", "--format", "json"],
    ["certify", "--space", "file:{diagonal}"],
    ["spectrum", "--space", "file:{diagonal}"],
    ["spectrum", "--space", "file:{full}", "--format", "json"],
])
def test_huge_finite_input_is_a_named_overflow(argv, tmp_path, capsys):
    """Finite input whose Calabi matrix, eigenvalues or partial sums leave
    the float64 range exits 2 with the overflow and the input's scale named:
    no numpy warning, no traceback, and no report holding an infinity.
    {diagonal} has eigenvalues 1e308, whose sums overflow; {full} has every
    entry 1e308 and the eigenvalue 3e308."""
    entries = {"diagonal": lambda i, j: 1e308 if i == j else 0.0, "full": lambda i, j: 1e308}
    for name, entry in entries.items():
        tri = [[entry(i, j), 0.0] for i in range(3) for j in range(i, 3)]
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"kind": "calabi", "n": 2, "hermitian": tri}))
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in entries}) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error: ")
    assert re.search(r"overflows? float64 \(.+ up to [0-9.]+e\+30[78] in magnitude\)", err), err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not caught


@pytest.mark.parametrize("space", ["chsc", "quadric"])
def test_ke_mode_at_a_huge_finite_scale(space, capsys):
    """KE mode on a space whose Ricci tensor leaves the float64 range
    (c = 1e308) exits 2 with the overflow and the input's scale named.  At
    c = 1e307 nothing overflows once the Einstein residual is taken relative
    to the largest entry, so the space certifies as at c = 1, with its
    eigenvalues scaled by c.  Neither prints a numpy warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["certify", "--space", f"{space}:n=3,c=1e308", "--mode", "ke"])
        out, err = capsys.readouterr()
        records = []
        for scale in ("1", "1e307"):
            argv = ["certify", "--space", f"{space}:n=3,c={scale}", "--mode", "ke", "--format", "json"]
            assert main(argv) == 0
            records.append(json.loads(capsys.readouterr().out)["records"])
    assert code == 2 and out == "" and err.startswith("error: ")
    assert re.search(r"overflows float64 \(.+ up to [0-9.]+e\+30[78] in magnitude\)", err), err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not caught
    small, huge = (np.array(recs[0]["values"]["eigenvalues"]) for recs in records)
    assert np.max(np.abs(huge / 1e307 - small)) <= 1e-12 * np.max(np.abs(small))
    assert [r["status"] for r in records[0]] == [r["status"] for r in records[1]]


@pytest.mark.parametrize("entry", ["NaN", "1e999"])
def test_file_input_non_finite_is_rejected(tmp_path, capsys, entry):
    # 1e999 is a valid JSON number that parses to infinity
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "calabi", "n": 1, "hermitian": [[%s, 0]]}' % entry)
    for cmd in ("certify", "spectrum"):
        assert main([cmd, "--space", f"file:{path}", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert "non-finite" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("payload, message", [
    ({"kind": "calabi", "n": 1, "hermitian": [5]}, "hermitian entry 0"),
    ({"kind": "calabi", "n": 2}, "needs a list 'hermitian'"),
    ({"kind": "components", "n": 1, "entries": [[1, 2, 1, None, 1.0]]}, "component entry 0"),
    ({"kind": "calabi", "n": 1, "hermitian": [["x", 0]]}, "hermitian entry 0"),
])
def test_malformed_file_payload_is_a_usage_error(payload, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for argv in (["spectrum", "--space", f"file:{path}"],
                 ["certify", "--space", f"file:{path}"],
                 ["certify", "--space", f"file:{path}", "--mode", "ke"]):
        _assert_usage_error(argv, capsys, message)


@pytest.mark.parametrize("n", [17, 100000])
def test_thresholds_refuses_n_above_limit(n, monkeypatch, capsys):
    from calabi_lab import certify as ct

    def never(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(ct, "thresholds", never)
    monkeypatch.setattr(ct, "upsilon_min_holds", never)
    _assert_usage_error(["thresholds", "--n", str(n)], capsys, f"n={n} is above the limit 16")


def test_thresholds_at_the_limit_passes(tmp_path):
    out = tmp_path / "thr.json"
    assert main(["thresholds", "--n", "16", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"]


def test_csv_format_columns(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["thresholds", "--n", "2", "--format", "csv", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "name,anchor,status,residual,value"


def test_verify_small_and_exit_codes(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "--n", "2", "--trials", "5", "--seed", "3",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    env = json.loads(out.read_text())
    assert env["passed"] is True
    assert validate_report(env) == []
    # the injected sign bug must make the suite fail loudly
    code = main(["verify", "--n", "2", "--trials", "5", "--seed", "3",
                 "--inject-sign-bug", "--format", "json", "--out", str(out)])
    assert code == 1
    env = json.loads(out.read_text())
    failing = {r["name"] for r in env["records"] if r["status"] == "fail"}
    assert "curvature_term_via_calabi" in failing


def test_verify_json_byte_determinism_across_processes(tmp_path):
    """Identical config gives byte-identical json even across interpreter
    processes with different hash seeds, and with the checks run on the
    thread pool (CALABI_LAB_THREADS=2) instead of in sequence."""
    outputs = []
    for seed, threads in (("0", {}), ("7", {}), ("7", {"CALABI_LAB_THREADS": "2"})):
        proc = subprocess.run(
            [sys.executable, "-m", "calabi_lab.cli", "verify", "--n", "2",
             "--trials", "8", "--seed", "11", "--format", "json"],
            capture_output=True, text=True,
            # stripped environment, but the child imports the same package
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin:/usr/local/bin",
                 "PYTHONPATH": os.path.dirname(os.path.dirname(calabi_lab.__file__)),
                 **threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_shipped_schema_files_parse():
    import importlib.resources as res

    for name in ("report.schema.json", "input.schema.json"):
        payload = json.loads(
            res.files("calabi_lab").joinpath("schemas", name).read_text())
        assert "$schema" in payload


@pytest.mark.parametrize("argv,message", [
    (["thresholds", "--n", "3", "--p", "9"], "--p must be in 0..3"),
    (["thresholds", "--n", "3", "--q", "-1"], "--q must be in 0..3"),
    (["certify", "--space", "chsc:n=2", "--p", "9"], "--p must be in 0..2"),
])
def test_bidegree_filters_outside_zero_to_n_are_usage_errors(argv, message, capsys):
    """A --p or --q that no bidegree has exits 2 rather than printing an
    empty selection."""
    _assert_usage_error(argv + ["--format", "json"], capsys, message)


def test_threshold_and_certify_filters(tmp_path):
    out = tmp_path / "f.json"
    assert main(["thresholds", "--n", "4", "--p", "1", "--q", "1",
                 "--format", "json", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    rows = [r for r in env["records"] if r["name"].startswith("threshold")]
    assert len(rows) == 1 and rows[0]["values"]["upsilon"] == 2.0

    assert main(["certify", "--space", "quadric:n=4", "--p", "2", "--q", "2",
                 "--format", "json", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    verdicts = [r for r in env["records"] if r["name"].startswith("verdict")]
    assert len(verdicts) == 1
    assert verdicts[0]["values"]["status"] == "parallel-only"


def test_verify_tol_scale(tmp_path):
    out = tmp_path / "v.json"
    # an absurdly small tolerance scale must fail the suite
    code = main(["verify", "--n", "2", "--trials", "5", "--seed", "3",
                 "--tol-scale", "1e-20", "--format", "json", "--out", str(out)])
    assert code == 1
    env = json.loads(out.read_text())
    assert env["passed"] is False


def test_verify_stress_within_cap_allows_rounding(tmp_path):
    """At n = 3 the best ratio for (1,0) and (2,0) attains the cap 0.5 and can
    land a few ulps above it; within_cap reads that as within the bound,
    and best_found stays exactly as stress_search computed it."""
    out = tmp_path / "v.json"
    assert main(["verify", "--n", "3", "--trials", "5", "--stress", "--format", "json",
                 "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert validate_report(env) == []
    table = next(r for r in env["records"] if r["name"] == "stress_search")["values"]
    assert set(table) == {"1,0", "1,1", "2,0", "2,1", "3,0"}
    for key, row in table.items():
        p, q = map(int, key.split(","))
        assert row["within_cap"] is True
        assert row["best_found"] == stress_search(FrameConvention(3), p, q, seed=0)
        assert row["best_found"] <= row["proven_cap"] * (1.0 + 64 * np.finfo(float).eps)
    for key in ("1,0", "2,0", "3,0"):
        assert table[key]["proven_cap"] == 0.5
        assert abs(table[key]["best_found"] - 0.5) < 1e-12


def test_verify_max_degree_defaults_to_n(tmp_path):
    out = tmp_path / "v.json"
    for argv, expect in ((["--n", "3"], 3), (["--n", "3", "--max-degree", "1"], 1)):
        assert main(["verify", *argv, "--trials", "1", "--format", "json",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["max_degree"] == expect


@pytest.mark.parametrize("argv", [
    ["certify", "--space", "quadric:n=4", "--eps", "-1"],
    ["certify", "--space", "quadric:n=4", "--eps", "nan"],
    ["certify", "--space", "quadric:n=4", "--eps", "inf"],
    ["certify", "--space", "quadric:n=4", "--mode", "ke", "--eps", "-0.5"],
    ["verify", "--n", "2", "--trials", "1", "--tol-scale", "nan"],
    ["verify", "--n", "2", "--trials", "1", "--tol-scale", "-1"],
    ["verify", "--n", "2", "--trials", "1", "--tol-scale", "0"],
    ["verify", "--n", "2", "--trials", "1", "--tol-scale", "inf"],
])
def test_margins_outside_their_domain_are_usage_errors(argv, capsys):
    """--eps must be finite and >= 0, --tol-scale finite and > 0: refused by
    the parser before any work, never a false certificate or a failed suite."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[-2]}: must be a finite number" in err


def test_margins_at_their_domain_edge_are_accepted(tmp_path):
    out = tmp_path / "c.json"
    assert main(["certify", "--space", "quadric:n=4", "--eps", "0",
                 "--format", "json", "--out", str(out)]) == 0
    verdicts = {(r["values"]["p"], r["values"]["q"]): r["values"]["status"]
                for r in json.loads(out.read_text())["records"][1:]}
    assert verdicts[(2, 2)] != "vanishes"
    assert main(["verify", "--n", "2", "--trials", "1", "--tol-scale", "2.5",
                 "--format", "json", "--out", str(out)]) == 0


def _plain(obj):
    """Reference: the recursive conversion the serializers used before the
    json.dumps hook."""
    from fractions import Fraction

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _envelopes(tmp_path):
    from calabi_lab.cli import build_parser

    path = tmp_path / "cal.json"
    path.write_text(json.dumps({"kind": "calabi", "n": 2,
                                "hermitian": [[2.0, 0.0], [0.5, 0.25], [0.0, 0.0],
                                              [1.0, 0.0], [0.0, 0.1], [1.5, 0.0]]}))
    for argv in (["verify", "--n", "2", "--trials", "2", "--seed", "4", "--stress"],
                 ["verify", "--n", "3", "--trials", "1", "--tol-scale", "1e-20"],
                 ["spectrum", "--space", "quadric:n=4"],
                 ["spectrum", "--space", f"file:{path}"],
                 ["thresholds", "--n", "5"],
                 ["certify", "--space", "random:n=3,seed=2"],
                 ["certify", "--space", "randomke:n=3,seed=2", "--mode", "ke"],
                 ["certify", "--space", "product:[chsc:n=1;quadric:n=2]", "--p", "1"]):
        args = build_parser().parse_args(argv)
        yield args.fn(args)


def test_serializers_match_the_plain_reference(tmp_path, monkeypatch):
    """to_json, to_csv and to_table through the json.dumps hook give the same
    bytes as the old recursive conversion, for every subcommand."""
    from calabi_lab import report

    envs = list(_envelopes(tmp_path))
    got = [(report.to_json(e), report.to_csv(e), report.to_table(e)) for e in envs]
    monkeypatch.setattr(report, "_dumps",
                        lambda obj, **kw: json.dumps(_plain(obj), sort_keys=True, **kw))
    assert got == [(report.to_json(e), report.to_csv(e), report.to_table(e)) for e in envs]


def test_serializers_encode_numpy_values():
    from fractions import Fraction

    from calabi_lab.report import make_envelope, to_csv, to_json, to_table

    values = {"flag": np.bool_(True), "f32": np.float32(0.5), "i8": np.int8(-3),
              "arr": np.array([[1.0, 2.5]]), "carr": np.array([1 + 2j]),
              "frac": Fraction(3, 4), "z": 1.5 - 0.5j, "pair": (np.float64(0.1), 2)}
    env = make_envelope("spectrum", {"space": "x"}, [
        {"name": "r", "anchor": "a", "status": "info", "residual": None, "values": values}])
    decoded = json.loads(to_json(env))["records"][0]["values"]
    assert decoded == {"flag": True, "f32": 0.5, "i8": -3, "arr": [[1.0, 2.5]],
                       "carr": [{"re": 1.0, "im": 2.0}], "frac": {"num": 3, "den": 4},
                       "z": {"re": 1.5, "im": -0.5}, "pair": [0.1, 2]}
    assert '""flag"":true' in to_csv(env)
    assert "flag: True" in to_table(env)
    with pytest.raises(TypeError, match="object"):
        to_json(make_envelope("x", {}, [{"name": "r", "anchor": "a", "status": "info",
                                         "values": object()}]))


def test_certify_and_spectrum_build_no_full_z_frame_tensor(tmp_path, monkeypatch):
    """certify (both modes) and spectrum read only the operator blocks of the
    Z-frame tensor: with the full complexification disabled every request
    still succeeds."""
    from calabi_lab.curvature import AlgebraicCurvatureTensor
    from calabi_lab.model_spaces import chsc

    def full(*args, **kwargs):
        raise AssertionError("full Z-frame tensor built on the certify path")

    monkeypatch.setattr(AlgebraicCurvatureTensor, "complexified", full)
    calabi = tmp_path / "cal.json"
    calabi.write_text(json.dumps({"kind": "calabi", "n": 2,
                                  "hermitian": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                                [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}))
    r = chsc(2, 1.0).components
    entries = [[int(i) + 1, int(j) + 1, int(k) + 1, int(l) + 1, float(r[i, j, k, l])]
               for i, j, k, l in zip(*np.nonzero(np.abs(r) > 1e-14)) if i < j and k < l]
    comps = tmp_path / "comp.json"
    comps.write_text(json.dumps({"kind": "components", "n": 2, "entries": entries}))
    einstein = ["chsc:n=3,c=2", "quadric:n=4", "randomke:n=3,seed=5",
                "product:[chsc:n=1;chsc:n=1]", f"file:{calabi}", f"file:{comps}"]
    for space in einstein + ["random:n=3,seed=5", "product:[chsc:n=1;quadric:n=2]"]:
        for argv in (["certify", "--space", space], ["spectrum", "--space", space]):
            assert main(argv + ["--format", "json", "--out", str(tmp_path / "o")]) == 0, argv
    for space in einstein:
        argv = ["certify", "--space", space, "--mode", "ke"]
        assert main(argv + ["--format", "json", "--out", str(tmp_path / "o")]) == 0, argv


def _in_fresh_interpreter(argv) -> subprocess.Popen:
    """The command started in a new interpreter, its output piped."""
    return subprocess.Popen(
        [sys.executable, "-m", "calabi_lab.cli", *argv], text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(calabi_lab.__file__))))


def test_repeated_calls_share_a_parser_without_state(capsys):
    """main reuses one parser for every call in a process, and no call
    leaves anything behind for the next: an omitted option takes its default
    again, and a usage error does not spoil the call after it.  Each output
    matches, byte for byte, the same command in a fresh interpreter."""
    calls = [
        ["certify", "--space", "chsc:n=2", "--p", "1", "--format", "csv"],
        ["certify", "--space", "chsc:n=2"],
        ["verify", "--n", "1"],
        ["certify", "--space", "quadric:n=3", "--mode", "ke", "--format", "json"],
        ["spectrum", "--space", "quadric:n=3"],
        ["thresholds", "--n", "3", "--format", "csv"],
    ]
    children = [_in_fresh_interpreter(argv) for argv in calls]
    outputs = []
    try:
        for argv, child in zip(calls, children):
            if argv[0] == "verify":
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                code = exc.value.code
                assert code == 2
            else:
                code = main(argv)
            out, err = capsys.readouterr()
            assert (out, err) == child.communicate(timeout=60), argv
            assert code == child.returncode, argv
            outputs.append(out)
    finally:
        for child in children:
            child.kill()
            child.communicate()
    assert calabi_lab.cli._parser.cache_info().currsize == 1
    table = outputs[1]
    assert table.startswith("calabi-lab ") and "verdict[" in table
    assert all(f"verdict[{p},{q}]" in table
               for p in range(3) for q in range(3) if 1 <= p + q <= 3)


def test_import_builds_no_parser():
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counting_init(self, *args, **kwargs):\n"
             "    built.append(self)\n"
             "    init(self, *args, **kwargs)\n"
             "argparse.ArgumentParser.__init__ = counting_init\n"
             "import calabi_lab.cli\n"
             "print(len(built), calabi_lab.cli._parser.cache_info().currsize)\n")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(calabi_lab.__file__))))
    assert proc.stdout.split() == ["0", "0"]


def _hermitian_payload(n, rng, integral=False):
    """A calabi payload for a random Hermitian matrix: its upper triangle as
    [re, im] pairs, with whole numbers when ``integral``, and the matrix."""
    m = n * (n + 1) // 2
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    h = np.round(4 * (a + a.conj().T)) if integral else a + a.conj().T
    number = int if integral else float
    tri = [[number(h[i, j].real), number(h[i, j].imag)] for i in range(m) for j in range(i, m)]
    return {"kind": "calabi", "n": n, "hermitian": tri}


def test_calabi_reader_matches_per_entry_reference(tmp_path, monkeypatch, capsys):
    """The array reader gives the per-entry reader's matrix, bit for bit
    (signed zeros included), on float, integer and mixed entries; on each
    malformed payload both exit 2 with the same error text."""
    from calabi_lab import cli
    from request_reference import calabi_matrix_per_entry

    rng = np.random.default_rng(77)
    payloads = [_hermitian_payload(n, rng, integral=n % 2 == 0) for n in range(1, 7)]
    mixed = _hermitian_payload(2, rng)
    mixed["hermitian"][:5] = [[-0.0, -0.0], [-0.0, 0], [2 ** 53 + 1, -0.0], [7, 0], [3, 10 ** 300]]
    payloads.append(mixed)
    for data in payloads:
        got, want = cli._calabi_matrix_from_input(data), calabi_matrix_per_entry(data)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    good = [[1.0, 0.0], [0.5, 0.25], [0.0, 0.0], [1.0, 0.0], [0.0, 0.1], [1.5, 0.0]]
    bad_entries = {"bool": [True, 0.0], "string": ["x", 0.0], "three": [1.0, 0.0, 2.0],
                   "nested": [[1.0], 0.0], "huge": [10 ** 400, 0]}
    cases = [good[:2] + [entry] + good[3:] for entry in bad_entries.values()]
    cases += [good[:5], good + [[1.0, 0.0]], [5] + good[1:]]
    for pos, tri in enumerate(cases):
        path = tmp_path / f"bad{pos}.json"
        path.write_text(json.dumps({"kind": "calabi", "n": 2, "hermitian": tri}))
        errors = []
        for reader in (cli._calabi_matrix_from_input, calabi_matrix_per_entry):
            monkeypatch.setattr(cli, "_calabi_matrix_from_input", reader)
            for argv in (["certify", "--space", f"file:{path}"],
                         ["certify", "--space", f"file:{path}", "--mode", "ke"],
                         ["spectrum", "--space", f"file:{path}"]):
                assert main(argv) == 2
                errors.append(capsys.readouterr().err)
        assert errors[:3] == errors[3:], tri
        assert errors[0].startswith("error: hermitian ")


@pytest.mark.parametrize("tri, entry", [
    ([[1.0, 0.5]], "hermitian entry 0 ([re, im] of (1, 1))"),
    ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, -1e-6]],
     "hermitian entry 5 ([re, im] of (3, 3))"),
    ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 5.1e-11], [0.0, 0.0], [1.0, 0.0]],
     "hermitian entry 3 ([re, im] of (2, 2))"),
])
def test_file_input_names_a_non_real_diagonal_entry(tri, entry, tmp_path, capsys):
    """A diagonal entry with an imaginary part beyond the eigensolver's
    Hermitian tolerance is refused by the reader, which names it, in both
    modes and in spectrum."""
    n = 1 if len(tri) == 1 else 2
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"kind": "calabi", "n": n, "hermitian": tri}))
    for argv in (["certify", "--space", f"file:{path}"],
                 ["certify", "--space", f"file:{path}", "--mode", "ke"],
                 ["spectrum", "--space", f"file:{path}"]):
        _assert_usage_error(argv, capsys, f"{entry} is on the diagonal, so it must be real")


@pytest.mark.parametrize("im", [1e-13, -4.9e-11])
def test_file_input_keeps_a_diagonal_within_the_tolerance(im, tmp_path, capsys):
    """An imaginary part on the diagonal within the one Hermitian tolerance
    (2|im| <= 1e-10 here; 5.1e-11 is refused above) is accepted by certify
    in both modes and by spectrum: the identity at n = 2 with it on (1, 1).
    Certify in KE mode prints the bytes of the same file without it."""
    tri = [[1.0, im], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"kind": "calabi", "n": 2, "hermitian": tri}))
    for cmd in ("certify", "spectrum"):
        assert main([cmd, "--space", f"file:{path}", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert records[0]["values"]["eigenvalues"] == [1.0, 1.0, 1.0]
    assert records[1:] and all(r["values"]["positive"] for r in records[1:])
    ke = ["certify", "--space", f"file:{path}", "--mode", "ke", "--format", "json"]
    assert main(ke) == 0
    with_im = capsys.readouterr().out
    path.write_text(json.dumps({"kind": "calabi", "n": 2, "hermitian": [[1.0, 0.0]] + tri[1:]}))
    assert main(ke) == 0
    assert capsys.readouterr().out == with_im


def _einstein_calabi_matrices():
    from calabi_lab.curvature import calabi_from_tensor
    from calabi_lab.model_spaces import quadric

    return {"identity-n2": (2, np.eye(3)), "chsc-n3-c1.5": (3, 1.5 * np.eye(6)),
            "quadric-n3": (3, calabi_from_tensor(quadric(3)).matrix)}


@pytest.mark.parametrize("im", [0.0, 1e-13, -4.9e-11, 5.1e-11])
@pytest.mark.parametrize("name", ["identity-n2", "chsc-n3-c1.5", "quadric-n3"])
def test_calabi_and_ke_modes_accept_the_same_file_inputs(name, im, tmp_path, capsys):
    """An Einstein Calabi matrix written as a file payload, with an imaginary
    part on one diagonal entry, gets one verdict from the one Hermitian test:
    certify in both modes and spectrum all exit 0, or all exit 2.  Where
    they accept, each prints the bytes of the same file without it."""
    n, h = _einstein_calabi_matrices()[name]
    m = len(h)
    tri = [[float(h[i, j].real), float(h[i, j].imag) if i != j else 0.0]
           for i in range(m) for j in range(i, m)]
    path = tmp_path / "einstein.json"
    argvs = [["certify", "--space", f"file:{path}", "--format", "json"],
             ["certify", "--space", f"file:{path}", "--mode", "ke", "--format", "json"],
             ["spectrum", "--space", f"file:{path}", "--format", "json"]]
    outputs = []
    for diag in (0.0, im):
        tri[m] = [tri[m][0], diag]  # the diagonal entry (2, 2)
        path.write_text(json.dumps({"kind": "calabi", "n": n, "hermitian": tri}))
        outputs.append([(main(argv), capsys.readouterr().out) for argv in argvs])
    clean, perturbed = outputs
    codes = {code for code, _ in perturbed}
    assert len(codes) == 1, perturbed
    assert all(code == 0 for code, _ in clean)
    if codes == {0}:
        assert perturbed == clean


def _request_outputs(argvs, capsys):
    outputs = []
    for argv in argvs:
        code = main(argv)
        outputs.append((code, *capsys.readouterr()))
    return outputs


def test_spectrum_ladder_matches_per_k_k_test_reference(tmp_path, monkeypatch, capsys):
    """Each rung of the spectrum ladder, a bare partial sum after one order
    check, reports what a full k-test per rung reported."""
    from calabi_lab import cli
    from request_reference import ladder_k_tests

    path = tmp_path / "cal.json"
    path.write_text(json.dumps(_hermitian_payload(3, np.random.default_rng(5))))
    argvs = [["spectrum", "--space", space, "--format", "json"]
             for space in ("chsc:n=4,c=0.5", "quadric:n=5", "flat:k=2", "random:n=6,seed=3",
                           "quadric:n=3,c=-1", f"file:{path}")]
    got = _request_outputs(argvs, capsys)
    monkeypatch.setattr(cli, "partial_sums", ladder_k_tests)
    assert got == _request_outputs(argvs, capsys)
    assert all(code == 0 for code, _, _ in got)


@pytest.mark.parametrize("space", [f"chsc:n={n}" for n in range(1, 9)]
                         + ["flat:k=1", "product:[chsc:n=1;flat:k=1]"])
def test_spectrum_rungs_are_distinct(space, capsys):
    """A rung clamped onto another one (n/2 + 1 = 1.5 onto k = 1 at n = 1)
    is reported once."""
    assert main(["spectrum", "--space", space, "--format", "json"]) == 0
    names = [r["name"] for r in json.loads(capsys.readouterr().out)["records"]]
    assert len(names) == len(set(names))
    assert names[:2] == ["eigenvalues", "k_test[1]"]


def test_request_outputs_match_reference_loops(tmp_path, monkeypatch, capsys):
    """certify (both modes) and spectrum requests over every kind of space
    give the same bytes as with every replaced per-item loop put back: the
    per-column phase fix, the Fraction Upsilon, the per-cell certificate,
    the per-k ladder and the per-entry file reader.  The plans that the
    first pass built are emptied once the references are in, so the second
    pass builds its thresholds and ladders from the Fraction Upsilon."""
    import request_reference
    from calabi_lab import certify as ct
    from request_reference import REFERENCE_LOOPS, clear_plans

    rng = np.random.default_rng(2024)
    files = []
    for n in (2, 4):
        files.append(tmp_path / f"cal{n}.json")
        files[-1].write_text(json.dumps(_hermitian_payload(n, rng, integral=n == 4)))
    spaces = ["chsc:n=2,c=0.75", "quadric:n=3", "random:n=4,seed=11", "randomke:n=5,seed=12",
              "quadric:n=6", f"file:{files[0]}", f"file:{files[1]}",
              "product:[chsc:n=1;quadric:n=2]"]
    einstein = {"chsc:n=2,c=0.75", "quadric:n=3", "randomke:n=5,seed=12", "quadric:n=6"}
    argvs = []
    for pos, space in enumerate(spaces):
        fmt = ("json", "table")[pos % 2]
        argvs += [["certify", "--space", space, "--format", fmt],
                  ["spectrum", "--space", space, "--format", ("json", "table")[pos % 2 - 1]]]
        if space in einstein:
            argvs.append(["certify", "--space", space, "--mode", "ke", "--format", fmt])
    argvs.append(["thresholds", "--n", "6", "--format", "json"])
    got = _request_outputs(argvs, capsys)
    fraction_calls = []

    def upsilon_fraction(*args):
        fraction_calls.append(args)
        return request_reference.upsilon_fraction(*args)

    for owner, name, reference in REFERENCE_LOOPS:
        monkeypatch.setattr(owner, name, reference)
    monkeypatch.setattr(ct, "upsilon", upsilon_fraction)
    clear_plans()
    try:
        assert got == _request_outputs(argvs, capsys)
        assert fraction_calls
    finally:
        clear_plans()  # the next user builds the plans from the package's own Upsilon
    assert len(argvs) >= 20 and all(code == 0 and out and not err for code, out, err in got)


def _components_payload(t):
    """A components payload listing every nonzero R_ijkl with i < j, k < l."""
    d = t.convention.dim
    entries = [[i + 1, j + 1, k + 1, l + 1, float(t.components[i, j, k, l])]
               for i in range(d) for j in range(i + 1, d) for k in range(d)
               for l in range(k + 1, d) if t.components[i, j, k, l] != 0.0]
    return {"kind": "components", "n": t.n, "entries": entries}


def test_tensors_are_validated_only_where_input_enters(tmp_path, monkeypatch, capsys):
    """curvature.validate_tensor runs once for a file of tensor components
    and never on a tensor the program builds itself: model spaces, products,
    a file Calabi matrix and KE mode."""
    from calabi_lab import curvature
    from calabi_lab.model_spaces import chsc

    calls = []
    original = curvature.validate_tensor

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "calabi_lab":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(_hermitian_payload(3, np.random.default_rng(7))))
    comp = tmp_path / "comp.json"
    comp.write_text(json.dumps(_components_payload(chsc(2, 1.0))))
    for argv, expected in [
            (["certify", "--space", "chsc:n=3"], 0),
            (["certify", "--space", "quadric:n=4"], 0),
            (["certify", "--space", "product:[chsc:n=1;random:n=2,seed=1]"], 0),
            (["certify", "--space", f"file:{cal}"], 0),
            (["certify", "--space", "randomke:n=3", "--mode", "ke"], 0),
            (["certify", "--space", f"file:{comp}"], 1)]:
        calls.clear()
        assert main(argv + ["--format", "json"]) == 0
        capsys.readouterr()
        assert len(calls) == expected, argv


def test_record_key_sets(capsys):
    """spectrum, thresholds and certify records carry exactly name, anchor,
    status, residual and values; verify's check records add a numeric
    tolerance, and its --stress record a null one."""
    plain = {"name", "anchor", "status", "residual", "values"}
    for argv in (["spectrum", "--space", "quadric:n=3"], ["thresholds", "--n", "3"],
                 ["certify", "--space", "chsc:n=2"],
                 ["certify", "--space", "randomke:n=3,seed=4", "--mode", "ke"]):
        assert main(argv + ["--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert records and all(set(r) == plain for r in records), argv
    assert main(["verify", "--n", "2", "--trials", "2", "--stress", "--format", "json"]) == 0
    *checks, stress = json.loads(capsys.readouterr().out)["records"]
    for r in checks:
        assert set(r) == plain | {"tolerance"}
        assert type(r["tolerance"]) is float and type(r["residual"]) is float
    assert stress["name"] == "stress_search"
    assert set(stress) == plain | {"tolerance"} and stress["tolerance"] is None


def _components_of(comp, n):
    """A components payload of the array ``comp``: every nonzero R_ijkl with
    i < j, k < l and (i, j) <= (k, l), so that no two entries meet through
    the pair exchange."""
    d = 2 * n
    entries = [[i + 1, j + 1, k + 1, l + 1, float(comp[i, j, k, l])]
               for i in range(d) for j in range(i + 1, d) for k in range(i, d)
               for l in range(k + 1, d) if (i, j) <= (k, l) and comp[i, j, k, l] != 0.0]
    return {"kind": "components", "n": n, "entries": entries}


def _verdicts(argv, capsys):
    """certify's per-bidegree statuses, or None when it exits 2."""
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    if code == 2:
        return None
    return {r["name"]: r["values"]["status"] for r in json.loads(out)["records"][1:]}


SCALES = (1.0, 1e-12, 1e-200)


@pytest.mark.parametrize("scale", SCALES)
def test_hypotheses_are_tested_at_the_input_scale(scale, tmp_path, capsys):
    """A tensor that fails its hypothesis at scale 1 fails it at every scale:
    a non-Kaehler tensor in both modes, a non-Einstein one in KE mode, and a
    Calabi matrix with a complex diagonal entry in spectrum and certify."""
    from calabi_lab.curvature import random_riemannian
    from calabi_lab.model_spaces import chsc, random_kaehler

    bent = chsc(3).components + 0.3 * random_riemannian(FrameConvention(3), 4).components
    comp = tmp_path / "bent.json"
    comp.write_text(json.dumps(_components_of(scale * bent, 3)))
    for mode in ("calabi", "ke"):
        _assert_usage_error(["certify", "--space", f"file:{comp}", "--mode", mode], capsys,
                            "requires a validated Kaehler tensor")
    comp.write_text(json.dumps(_components_of(scale * random_kaehler(3, 5).components, 3)))
    _assert_usage_error(["certify", "--space", f"file:{comp}", "--mode", "ke"], capsys,
                        "requires an Einstein tensor")
    tri = [[1.0, 0.1], [0.5, 0.25], [0.0, 0.0], [1.0, 0.0], [0.0, 0.1], [1.5, 0.0]]
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps({"kind": "calabi", "n": 2,
                               "hermitian": [[scale * x for x in e] for e in tri]}))
    for command in ("spectrum", "certify"):
        _assert_usage_error([command, "--space", f"file:{cal}"], capsys,
                            "is on the diagonal, so it must be real")


@pytest.mark.parametrize("scale", SCALES[1:])
def test_valid_tensors_keep_their_verdicts_at_small_scale(scale, tmp_path, capsys):
    """Q4 and a Kaehler--Einstein tensor, given as file components, get the
    verdicts of scale 1 in both modes."""
    from calabi_lab.model_spaces import quadric, random_kaehler_einstein

    for t in (quadric(4), random_kaehler_einstein(3, 9)):
        for mode in ("calabi", "ke"):
            got = []
            for s in (1.0, scale):
                path = tmp_path / f"t{s}.json"
                path.write_text(json.dumps(_components_of(s * t.components, t.n)))
                got.append(_verdicts(["certify", "--space", f"file:{path}", "--mode", mode],
                                     capsys))
            assert got[0] is not None and got[1] == got[0], (t.n, mode)


def test_subnormal_spaces_are_solved(capsys):
    """Subnormal curvature is solved, not reported as an overflow, and its
    verdicts stay at parallel-only: no partial sum of rounding noise vanishes."""
    assert main(["spectrum", "--space", "chsc:n=2,c=1e-320", "--format", "json"]) == 0
    capsys.readouterr()
    for argv in (["certify", "--space", "quadric:n=3,c=1e-320", "--mode", "ke"],
                 ["certify", "--space", "quadric:n=4,c=1e-320"]):
        got = _verdicts(argv, capsys)
        assert got and set(got.values()) == {"parallel-only"}, argv


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "calabi_lab":
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_repeated_requests_print_what_a_first_request_prints(tmp_path, capsys):
    """Requests at one n, over different spaces, margins and --p/--q, print
    in one process, one after another and in either order, the bytes each
    prints when it is made first on empty caches: the plans keep nothing of
    a request.  A mutated certificate note or violation list changes none."""
    from calabi_lab import certify as ct
    from calabi_lab.spectral import Spectrum

    path = tmp_path / "cal.json"
    path.write_text(json.dumps(_hermitian_payload(4, np.random.default_rng(44))))
    argvs = [["certify", "--space", "chsc:n=4,c=0.5"],
             ["certify", "--space", "quadric:n=4", "--eps", "0"],
             ["certify", "--space", "random:n=4,seed=3", "--p", "1"],
             ["certify", "--space", "randomke:n=4,seed=5", "--mode", "ke", "--q", "2"],
             ["certify", "--space", "quadric:n=4", "--mode", "ke", "--eps", "1e-3",
              "--p", "0", "--q", "3"],
             ["certify", "--space", "quadric:n=4,c=1e-320", "--mode", "ke"],
             ["certify", "--space", f"file:{path}", "--eps", "0.5"],
             ["certify", "--space", "product:[chsc:n=2;quadric:n=2]", "--eps", "0.25"],
             ["spectrum", "--space", "random:n=4,seed=2"],
             ["spectrum", "--space", f"file:{path}"],
             ["thresholds", "--n", "4", "--q", "1"]]
    argvs = [argv + ["--format", fmt] for argv in argvs for fmt in ("json", "table")]
    cold = []
    for argv in argvs:
        _clear_package_caches()
        cold.append(_request_outputs([argv], capsys)[0])
    assert all(code == 0 and out and not err for code, out, err in cold)
    assert _request_outputs(argvs, capsys) == cold
    assert _request_outputs(argvs[::-1], capsys) == cold[::-1]
    ct.gamma_reduction_violations(4).append((9, 9))
    cert = ct.certify_ke(Spectrum(np.zeros(15), np.eye(15)), 4)
    cert.notes["reduction_violations"].append((8, 8))
    cert.notes.clear()
    assert _request_outputs(argvs, capsys) == cold


class _Text(str):
    pass


class _Record(dict):
    pass


def test_report_validation_matches_the_key_by_key_reference(capsys):
    """validate_report gives the per-key reference's problems, in its order,
    for real reports and for malformed ones: missing, mistyped and extra
    top-level keys, records that are no objects, lack keys, hold None, ints
    or str subclasses, or carry an invalid status, and dict subclasses."""
    from request_reference import validate_report_per_key

    assert main(["certify", "--space", "quadric:n=3", "--format", "json"]) == 0
    env = json.loads(capsys.readouterr().out)
    good = {"name": "a", "anchor": "b", "status": "pass"}
    records = [good, dict(good, status="fail"), dict(good, status="info", extra=1),
               "text", None, 3, [good], {}, {"name": "a"}, dict(good, name=None),
               dict(good, anchor=5), dict(good, status="ok"), dict(good, status=None),
               dict(good, status=_Text("pass")), dict(good, name=_Text("a")),
               dict(good, status=_Text("bad")), _Record(good), _Record(name=1),
               {"status": "pass"}, dict(good, status=b"pass")]
    cases = [env, {**env, "records": records}, {}, {"records": records[:5]},
             {**env, "passed": 1, "tool": None, "schema_version": True},
             {**env, "records": {"name": good}}, {**env, "records": ()}]
    for obj in cases:
        assert validate_report(obj) == validate_report_per_key(obj)
    assert validate_report(env) == [] and len(validate_report(cases[1])) > 15
