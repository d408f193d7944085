"""Identity-suite checks against their loop references, and their
sensitivity to a wrong spectrum."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from calabi_lab import checks
from calabi_lab import curvature as cv
from calabi_lab import model_spaces as ms
from calabi_lab import weitzenboeck as wz
from calabi_lab.frames import FormPQ, FrameConvention
from norm_identities_reference import check_norm_identities_per_form, insertion_norm_by_pairs
from per_tensor_reference import (check_curvature_term_per_tensor, check_r2_gl_per_tensor,
                                  check_ricl_split_per_tensor)


def _eigen_expansion_loop(spec, n):
    """Reference: the eigen-expansion of R(Z_a, conj Z_b), one (a, b, nu)
    at a time."""
    conv = FrameConvention(n)
    mats = np.tensordot(spec.eigenvectors, wz.family_mats(n, "sym2_10"), axes=(0, 0))
    bar = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    out = np.zeros((n, n, 2 * n, 2 * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            for nu in range(spec.size):
                sig = mats[nu]
                sig_c = sig.conj()[np.ix_(bar, bar)]
                va = sig_c @ conv.z(a + 1)
                vb = sig @ conv.zbar(b + 1)
                out[a, b] -= spec.eigenvalues[nu] * (np.outer(vb, va[bar])
                                                     - np.outer(va, vb[bar]))
    return out


def _kaehler_structure_loop(n, trials, seed):
    """Reference: check_kaehler_structure's residual with the endomorphisms
    R(Z_a, conj Z_b) read one (a, b) at a time and the loop expansion."""
    rng = checks._rng(seed, 3)
    bar = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    worst = 0.0
    for _ in range(max(trials // 10, 3)):
        t = ms.random_kaehler(n, int(rng.integers(2 ** 31)))
        rz = t.complexified()
        scale = max(1.0, float(np.max(np.abs(rz))))
        worst = max(worst, float(np.max(np.abs(rz[:n, :n]))) / scale,
                    float(np.max(np.abs(rz[:, :, :n, :n]))) / scale)
        q = rz[:n, n:, :n, n:]
        worst = max(worst, float(np.max(np.abs(q - q.transpose(2, 1, 0, 3)))) / scale,
                    float(np.max(np.abs(q - q.transpose(0, 3, 2, 1)))) / scale)
        rhs = _eigen_expansion_loop(cv.calabi_from_tensor(t).spectrum(), n)
        for a in range(n):
            for b in range(n):
                # (R(Z_a, conj Z_b) W_C)^D = R(Z_a, conj Z_b, W_C, W_{bar D})
                lhs = rz[a, n + b][:, bar].T
                worst = max(worst, float(np.max(np.abs(lhs - rhs[a, b]))) / scale)
    return worst


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eigen_expansion_matches_loop(n):
    for seed in (1, 2):
        spec = cv.calabi_from_tensor(ms.random_kaehler(n, seed)).spectrum()
        ref = _eigen_expansion_loop(spec, n)
        got = checks._eigen_expansion(spec, n)
        assert got.shape == ref.shape
        scale = max(1.0, float(np.max(np.abs(spec.eigenvalues))))
        assert np.max(np.abs(got - ref)) <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kaehler_structure_residual_matches_loop(n):
    rec = checks.check_kaehler_structure(n, 10, 7)
    ref = _kaehler_structure_loop(n, 10, 7)
    assert rec["status"] == "pass" and ref <= checks.TOL_EIGEN
    # the two differ only in rounding; both sit at a few ulps
    assert abs(rec["residual"] - ref) <= 1e-14


def _negate_one_eigenvalue(monkeypatch):
    spectrum = cv.CurvatureOperatorMatrix.spectrum

    def negated(self):
        spec = spectrum(self)
        vals = spec.eigenvalues.copy()
        vals[-1] = -vals[-1]
        return dataclasses.replace(spec, eigenvalues=vals)

    monkeypatch.setattr(cv.CurvatureOperatorMatrix, "spectrum", negated)


@pytest.mark.parametrize("n", [2, 3])
def test_kaehler_structure_fails_on_a_wrong_spectrum(n, monkeypatch):
    with cv.inject_sign_bug():
        assert checks.check_kaehler_structure(n, 10, 7)["status"] == "fail"
    _negate_one_eigenvalue(monkeypatch)
    assert checks.check_kaehler_structure(n, 10, 7)["status"] == "fail"


def test_verify_pairs_without_building_the_oracle_field(monkeypatch):
    """The checks pair through the oracle's matrices, directly or through
    the Gram matrices of forms that several tensors pair with, and never
    build Ric_L phi: the suite passes with ``ricl_bruteforce`` made to
    fail."""
    def never(*args, **kwargs):
        raise AssertionError("a check built Ric_L phi")

    monkeypatch.setattr(wz, "ricl_bruteforce", never)
    records = checks.run_verify_suite(4, 2, 1)
    assert len(records) == len(checks.CHECKS)
    assert all(r["status"] == "pass" for r in records)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_norm_identities_match_the_per_form_loop(n):
    """The batched check against the per-form loop it replaced, on the same
    draws: the same status, and residuals that differ only in rounding."""
    for seed in (9001, 1, 42):
        rec = checks.check_norm_identities(n, 2, seed, max_degree=n)
        ref = check_norm_identities_per_form(n, 2, seed, max_degree=n)
        assert rec["status"] == ref["status"] == "pass"
        assert abs(rec["residual"] - ref["residual"]) <= 1e-14


def test_norm_identities_match_the_per_form_loop_one_form_per_slice(monkeypatch):
    """With slices of one form each, as the largest bidegrees get at n = 9,
    every batched step (the insertion norms, the u actions, the hat and su
    norms) is consumed over several slices and still matches the loop."""
    ref = check_norm_identities_per_form(4, 2, 9001, max_degree=4)
    monkeypatch.setattr(wz, "_SLICE_ENTRIES", 1)
    rec = checks.check_norm_identities(4, 2, 9001, max_degree=4)
    assert rec["status"] == ref["status"] == "pass"
    assert abs(rec["residual"] - ref["residual"]) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grid_insertion_norm_matches_the_pair_annihilation(n):
    """``_insertion_norms`` on the coefficient grid against the oracle's pair
    annihilation of the Z-frame coordinates, read at the mixed pairs, for
    every (p,q) with p + q <= n, to 1e-14 relative."""
    conv = FrameConvention(n)
    for p in range(n + 1):
        for q in range(n + 1 - p):
            rng = np.random.default_rng([700, n, p, q])
            size = len(FormPQ(conv, p, q).coefficient_vector())
            coeffs = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
            got = checks._insertion_norms(n, p, q, coeffs)
            want = np.array([insertion_norm_by_pairs(FormPQ.from_coefficient_vector(conv, p, q, c))
                             for c in coeffs])
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, want))


def test_norm_identities_act_once_per_family_and_bidegree(monkeypatch):
    """Regression guard for the batching: one ``check_norm_identities`` run
    at n = 4 (one slice per bidegree) acts with each family on each
    bidegree once, not once per sample."""
    calls = Counter()
    act = wz.act_on_grid

    def counted(n, tag, p, q, y):
        calls[tag, p, q] += 1
        return act(n, tag, p, q, y)

    monkeypatch.setattr(wz, "act_on_grid", counted)
    assert checks.check_norm_identities(4, 2, 9001)["status"] == "pass"
    assert {tag for tag, _, _ in calls} == {"sym2_10", "su", "u"}
    assert max(calls.values()) == 1


def test_pairs_keep_the_comprehension_order():
    """``_pairs`` filters ``certify.bidegrees`` to p >= q and p + q <= the
    degree, in the order of the comprehension it replaces, so that every
    check draws its random forms in the same order."""
    for n in range(1, 11):
        for d in range(1, n + 1):
            old = [(p, q) for p in range(n + 1) for q in range(p + 1) if 1 <= p + q <= min(d, n)]
            assert checks._pairs(n, d) == old


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_checks_match_the_per_tensor_loops(n):
    """The curvature-term, R2-gl and Ric_L-split checks, which stack each
    check's samples, against the per-tensor loops they replaced, on the
    same draws: the same status, and residuals that differ only in
    rounding."""
    pairs = [(checks.check_curvature_term, check_curvature_term_per_tensor),
             (checks.check_r2_gl, check_r2_gl_per_tensor),
             (checks.check_ricl_split, check_ricl_split_per_tensor)]
    for seed in (9001, 1, 42):
        for check, reference in pairs:
            rec = check(n, 2, seed, max_degree=n)
            ref = reference(n, 2, seed, max_degree=n)
            assert rec["status"] == ref["status"] == "pass"
            assert abs(rec["residual"] - ref["residual"]) <= 1e-14


@pytest.mark.parametrize("trials", [2, 5])
def test_curvature_term_acts_once_per_degree(trials, monkeypatch):
    """Regression guard for the stacking: ``check_curvature_term`` acts with
    the sym2_10 basis once per degree for all of its tensors, not once per
    tensor."""
    calls = Counter()
    actions = wz._actions

    def counted(n, tag, forms, width):
        calls[tag, forms[0].degree] += 1
        return actions(n, tag, forms, width)

    monkeypatch.setattr(wz, "_actions", counted)
    assert checks.check_curvature_term(4, trials, 9001)["status"] == "pass"
    assert calls == {("sym2_10", k): 1 for k in range(1, 5)}
