"""Acceptance suite: one test per criterion, stated tolerances, one printed
pass/fail line each (run with -s to see the lines for passing criteria)."""

import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

import calabi_lab
from calabi_lab import certify as ct
from calabi_lab import curvature as cv
from calabi_lab import model_spaces as ms
from calabi_lab import weitzenboeck as wz
from calabi_lab.frames import (
    EndoC,
    FormPQ,
    FrameConvention,
    dense_conj,
    dense_z_to_e,
    generator_dense_basis,
    kaehler_bivector,
    sym2_basis_labels,
)
from calabi_lab.frames import _coords, _primitive_part
from dense_reference import derivation_coords
from test_frames import _lefschetz_matrix


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")


def _hermitian(rng, m):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return (a + a.conj().T) / 2


def _degree_pairs(n, max_degree=4):
    return [(p, q) for p in range(n + 1) for q in range(p + 1)
            if 1 <= p + q <= min(max_degree, n)]


def _coeff_stack(rng, n, p, q, count):
    d = math.comb(n, p) * math.comb(n, q)
    return rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))


def _dense_stack(conv, p, q, coeffs):
    basis = generator_dense_basis(conv.n, p, q)
    return np.tensordot(coeffs, basis, axes=(1, 0))


def _sym2_eigen_endos(conv, spec):
    """Reference: the Calabi eigen-elements as dense matrices, each built
    entry by entry from its coordinates over the unit sym^2 V^{1,0} basis."""
    mats = []
    for v in spec.eigenvectors.T:
        hat = np.zeros((conv.n, conv.n), dtype=complex)
        for (a, b), c in zip(sym2_basis_labels(conv.n), v):
            if a == b:
                hat[a - 1, a - 1] += c
            else:
                hat[a - 1, b - 1] += c / np.sqrt(2.0)
                hat[b - 1, a - 1] += c / np.sqrt(2.0)
        mats.append(EndoC.from_sym_hat(conv, hat).matrix)
    return np.array(mats)


def _real_stack(conv, p, q, coeffs):
    dense = _dense_stack(conv, p, q, coeffs)
    return dense + dense_conj(dense, conv, k=p + q)


def test_criterion_1_calabi_vesentini():
    """Round trip and automatic Bianchi, 200 random matrices per n in 2..4."""
    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(101)
    for n in (2, 3, 4):
        conv = FrameConvention(n)
        m = n * (n + 1) // 2
        for _ in range(200):
            h = _hermitian(rng, m)
            scale = max(1.0, float(np.max(np.abs(h))))
            t = cv.tensor_from_calabi(h, conv)
            residuals = cv.validate_tensor(t.components, conv).residuals
            worst = max(worst, residuals["bianchi"] / scale)
            back = cv.calabi_from_tensor(t).matrix
            worst = max(worst, float(np.max(np.abs(back - h))) / scale)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 30.0
    _report("1-calabi-vesentini", ok, f"worst={worst:.2e} time={elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 30.0


def test_criterion_2_curvature_term():
    """Brute-force pairing vs eigenvalue route: 100 tensors per n in 2..4,
    20 primitive real forms per (p,q) with p+q <= 4, residual < 1e-9."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (2, 3, 4):
        conv = FrameConvention(n)
        by_degree = defaultdict(list)
        for (p, q) in _degree_pairs(n):
            for _ in range(20):
                by_degree[p + q].append(wz.random_primitive_real(conv, p, q, rng))
        stacks = {}
        for k, forms in by_degree.items():
            stack_z = np.array([f.to_dense() for f in forms])
            stacks[k] = (stack_z, dense_z_to_e(stack_z, conv, k))
        for _ in range(100):
            t = ms.random_kaehler(n, int(rng.integers(2 ** 31)))
            spec = cv.calabi_from_tensor(t).spectrum()
            for k, (stack_z, stack_e) in stacks.items():
                bf = wz.ricl_pairing_batch(t, stack_e)
                ec = wz.ricl_via_calabi_batch(spec, conv, stack_z)
                worst = max(worst, float(np.max(np.abs(bf - ec) / np.maximum(1.0, np.abs(bf)))))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 300.0
    _report("2-curvature-term", ok, f"worst={worst:.2e} time={elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 300.0


def test_criterion_3_norm_formulas():
    """Insertion, hat-norm (primitive and Lefschetz-corrected), su-norm, and
    the u-decomposition on 1000 random forms per case, residual < 1e-10."""
    rng = np.random.default_rng(303)
    n = 3
    conv = FrameConvention(n)
    count = 1000
    worst = 0.0
    om = kaehler_bivector(conv).matrix
    for (p, q) in _degree_pairs(n):
        k = p + q
        coeffs = _coeff_stack(rng, n, p, q, count)
        # general (non-primitive) real forms for the corrected hat identity
        psi = _real_stack(conv, p, q, coeffs)
        psi_sq = np.sum(np.abs(psi.reshape(count, -1)) ** 2, axis=1)
        if k >= 2:
            block = psi[(slice(None),) + np.ix_(range(n, 2 * n), range(n))]
            ins = k * (k - 1) * np.sum(np.abs(block.reshape(count, -1)) ** 2, axis=1)
            worst = max(worst, float(np.max(np.abs(ins - p * q * psi_sq)
                                            / np.maximum(1.0, p * q * psi_sq))))
        hat = wz.norm_phi_g_batch("sym2_10", conv, psi)
        lam_mat = _lefschetz_matrix(n, p, q) if (p >= 1 and q >= 1) else None
        if lam_mat is not None:
            lam_phi = np.sum(np.abs(coeffs @ lam_mat.T) ** 2, axis=1)
            lam_sq = lam_phi * (2.0 if p != q else 1.0)
            if p == q:
                sym = coeffs + np.array([FormPQ.from_coefficient_vector(conv, p, q, c)
                                         .conjugate().coefficient_vector() for c in coeffs])
                lam_sq = np.sum(np.abs(sym @ lam_mat.T) ** 2, axis=1)
        else:
            lam_sq = np.zeros(count)
        expect = 0.25 * (k * (n + 1) - 2 * p * q) * psi_sq
        if k >= 2:
            expect = expect - lam_sq / (2 * k * (k - 1))
        worst = max(worst, float(np.max(np.abs(hat - expect) / np.maximum(1.0, np.abs(expect)))))

        # primitive forms for the su-norm identity and the u-decomposition
        prim = _dense_stack(conv, p, q, _primitive_part(n, p, q, coeffs))
        prim_sq = np.sum(np.abs(prim.reshape(count, -1)) ** 2, axis=1)
        su = wz.norm_phi_g_batch("su", conv, prim)
        expect_su = (2 * p * q + k * (n + 1 - k) - (p - q) ** 2 / n) * prim_sq
        worst = max(worst, float(np.max(np.abs(su - expect_su)
                                        / np.maximum(1.0, np.abs(expect_su)))))
        u2 = wz.norm_phi_g_batch("u", conv, prim)
        om_sq = (p - q) ** 2 * prim_sq  # omega acts by i(p-q) on pure types
        worst = max(worst, float(np.max(np.abs(u2 - (om_sq / n + su))
                                        / np.maximum(1.0, u2))))
    ok = worst < 1e-10
    _report("3-norm-formulas", ok, f"worst={worst:.2e}")
    assert worst < 1e-10


def test_criterion_4_general_riemannian():
    """R2-gl contraction, the Ric_L splitting and the curvature-operator
    translation on 100 random non-Kaehler tensors, n=2, p in 1..3."""
    rng = np.random.default_rng(404)
    conv = FrameConvention(2)
    worst = 0.0
    tensors = [cv.random_riemannian(conv, seed) for seed in range(100)]
    assert not any(t.kaehler_validated for t in tensors)
    forms = [[wz.random_real_pform(conv, p, rng) for p in (1, 2, 3)] for _ in tensors]
    # each degree's forms as one stack, form b against tensor b
    stacks = [(np.array(stack), p) for p, stack in zip((1, 2, 3), zip(*forms))]
    for out in wz.check_r2_gl_identity(tensors, stacks):
        worst = max(worst, out["residual"])
    for out in wz.check_ricl_r2_split(tensors, stacks):
        worst = max(worst, out["residual_split"], out["residual_translation"])
    ok = worst < 1e-9
    _report("4-general-riemannian", ok, f"worst={worst:.2e}")
    assert worst < 1e-9


def test_criterion_5_main_estimate():
    """1e4 random (S, psi) per (n,p,q) with zero violations, and the equality
    family attains (1/2 + pq/(p+q)) |S|^2 |psi|^2 within 1e-10."""
    rng = np.random.default_rng(505)
    violations = 0
    samples = 0
    worst_attain = 0.0
    for n in (2, 3, 4):
        conv = FrameConvention(n)
        for (p, q) in _degree_pairs(n):
            out = wz.estimate_sampling(conv, p, q, n_psi=50, n_s=200, rng=rng)
            violations += out["violations"]
            samples += out["samples"]
            psi = wz.achievability_form(conv, p, q)
            s = wz.achievability_endo(conv, p + q)
            r = wz.estimate_bound(s, psi)
            expect = wz.achievability_ratio(p, q) * s.norm_sq() * psi.norm_sq()
            worst_attain = max(worst_attain, abs(r.lhs - expect) / max(1.0, expect))
    ok = violations == 0 and worst_attain < 1e-10
    _report("5-main-estimate", ok,
            f"violations={violations}/{samples} attain={worst_attain:.2e}")
    assert violations == 0
    assert worst_attain < 1e-10


def test_criterion_6_thresholds():
    """Threshold closed forms exactly; Upsilon >= n/2 for n <= 64; the Gamma
    reduction inequality for 3 <= n <= 64 with the exact violation list below."""
    t0 = time.monotonic()
    ok = True
    for n in range(1, 65):
        ok &= ct.upsilon_exact(n, 1, 1) == Fraction(n, 2)
        for p in range(1, n + 1):
            ok &= ct.upsilon_exact(n, p, p) == Fraction(p * (n + 1 - p), 1 + p)
            ok &= ct.upsilon_exact(n, p, 0) == Fraction(p * (n + 1), 2)
            ok &= ct.gamma(n, p, p) == n + 1 - p
        ok &= ct.upsilon_exact(n, n, 0) == Fraction(n * (n + 1), 2)
        ok &= ct.gamma(n, n, 0) == Fraction(n * n - 1, n)
    ok &= all(ct.upsilon_min_holds(n) for n in range(1, 65))
    # the assembled table agrees with the scalar functions on sampled n
    for n in (2, 6, 17):
        tb = ct.thresholds(n)
        ok &= all(tb.upsilons_exact[c] == ct.upsilon_exact(n, *c) for c in tb.upsilons)
        ok &= all(tb.gammas[c] == ct.gamma(n, *c) for c in tb.gammas)
    ok &= all(not ct.gamma_reduction_violations(n) for n in range(3, 65))
    # the complete list of failures of Gamma >= n/2 + 1 over n <= 64
    found = {n: v for n in range(1, 65) if (v := ct.gamma_reduction_violations(n))}
    ok &= found == {1: [(0, 1), (1, 0)], 2: [(0, 2), (2, 0)]}
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report("6-thresholds", ok, f"gamma_violations={found} time={elapsed:.2f}s")
    assert ok


@pytest.mark.xfail(reason="Gamma_{2,0} = 3/2 < 2 at n=2 and su(1) is trivial at "
                          "n=1, so the reduction inequality fails there; see the "
                          "exact violation list asserted in criterion 6",
                   strict=True)
def test_criterion_6_gamma_literal_range():
    assert all(not ct.gamma_reduction_violations(n) for n in range(1, 65))


def test_criterion_7_model_spaces():
    """CHSC identity operator; quadric Einstein with the stated spectral
    structure; Quadric(2) matches the product of lines up to scale."""
    ok = True
    details = []
    for n in (2, 3, 4):
        h = cv.calabi_from_tensor(ms.chsc(n, 1.0)).matrix
        ok &= float(np.max(np.abs(h - np.eye(len(h))))) < 1e-12
    for n in (2, 3, 4, 5, 6):
        spec, rep = ms.quadric_spectrum(n)
        ric = cv.ricci(ms.quadric(n))
        ok &= ric.is_einstein and ric.einstein_lambda > 0
        if n == 2:
            ok &= abs(spec.eigenvalues[0]) < 1e-12
        else:
            ok &= spec.eigenvalues[0] < -1e-8
        if n in (2, 4, 6):
            scale = float(np.max(np.abs(spec.eigenvalues)))
            nonneg = rep.partial_sum >= -1e-10 * scale
            positive = rep.partial_sum > 1e-10 * scale
            ok &= nonneg and not positive
            details.append(f"Q{n}: sum(n/2)={rep.partial_sum:+.1e}")
        # scaling invariance of the flags
        spec_c, rep_c = ms.quadric_spectrum(n, scale=3.0)
        ok &= (rep_c.partial_sum >= -1e-10) == (rep.partial_sum >= -1e-10)
    sq = ms.quadric_spectrum(2)[0].eigenvalues
    sp = cv.calabi_from_tensor(ms.product([ms.chsc(1, 1.0), ms.chsc(1, 1.0)])
                               ).spectrum().eigenvalues
    ratio = sp[-1] / sq[-1]
    ok &= ratio > 0 and float(np.max(np.abs(sp - ratio * sq))) < 1e-9
    _report("7-model-spaces", ok, "; ".join(details))
    assert ok


def _soundness_sweep(t, cert, conv, rng, forms_per_pair=1000, spot_checks=20):
    """Check every granted verdict against the curvature term: via the
    eigenvalue route in bulk and against the brute-force oracle on a
    subsample.  Returns (worst_violation, worst_spot_residual)."""
    spec = cv.calabi_from_tensor(t).spectrum()
    mats = _sym2_eigen_endos(conv, spec)
    abs_vals = np.abs(spec.eigenvalues)
    worst_violation = 0.0
    worst_spot = 0.0
    for (p, q), verdict in cert.verdicts.items():
        if verdict.provenance != "direct" or not verdict.certified:
            continue
        if p + q > conv.n or q > p:
            continue
        coeffs = _primitive_part(conv.n, p, q, _coeff_stack(rng, conv.n, p, q, forms_per_pair))
        dense = _dense_stack(conv, p, q, coeffs)
        psi = dense + dense_conj(dense, conv, k=p + q)
        norms = np.sum(np.abs(derivation_coords(mats, _coords(psi, "z")[0], p + q)) ** 2,
                       axis=2)
        vals = 2.0 * (spec.eigenvalues @ norms)
        scales = np.maximum(1.0, 2.0 * (abs_vals @ norms))
        worst_violation = max(worst_violation, float(np.max(-vals / scales)))
        if verdict.status == "vanishes":
            nonzero = np.sum(np.abs(psi.reshape(len(psi), -1)) ** 2, axis=1) > 1e-12
            worst_violation = max(worst_violation,
                                  float(np.max(np.where(nonzero, -vals, -1.0) / scales)))
        # brute-force spot checks keep the sweep honest
        spot = psi[:spot_checks]
        bf = wz.ricl_pairing_batch(t, dense_z_to_e(spot, conv, p + q))
        worst_spot = max(worst_spot, float(np.max(
            np.abs(bf - vals[:spot_checks]) / np.maximum(1.0, np.abs(bf)))))
    return worst_violation, worst_spot


def test_criterion_8_weight_principle_soundness():
    """Granted verdicts imply a nonnegative curvature term on 1000 random
    primitive real forms per bidegree (strict verdicts: positive)."""
    rng = np.random.default_rng(808)
    n = 3
    conv = FrameConvention(n)
    tensors = [ms.chsc(3, 1.0), ms.quadric(3), ms.random_kaehler_einstein(3, 17)]
    # a nonnegative but non-strict random spectrum
    h = _hermitian(rng, 6)
    vals = np.linalg.eigvalsh(h)
    tensors.append(cv.tensor_from_calabi(h + (-vals[0]) * np.eye(6), conv))
    worst_violation = 0.0
    worst_spot = 0.0
    granted = 0
    for t in tensors:
        cert = ct.certify_calabi(cv.calabi_from_tensor(t).spectrum(), n)
        granted += sum(1 for v in cert.verdicts.values()
                       if v.provenance == "direct" and v.certified)
        v, s = _soundness_sweep(t, cert, conv, rng)
        worst_violation = max(worst_violation, v)
        worst_spot = max(worst_spot, s)
    ok = worst_violation < 1e-9 and worst_spot < 1e-9 and granted > 0
    _report("8-weight-principle-soundness", ok,
            f"granted={granted} violation={worst_violation:.2e} spot={worst_spot:.2e}")
    assert granted > 0
    assert worst_violation < 1e-9
    assert worst_spot < 1e-9


def test_criterion_9_determinism():
    """The verify command is byte-deterministic across processes."""
    outputs = []
    for hash_seed in ("0", "13"):
        proc = subprocess.run(
            [sys.executable, "-m", "calabi_lab.cli", "verify", "--n", "3",
             "--trials", "50", "--seed", "42", "--format", "json"],
            capture_output=True, text=True,
            # stripped environment, but the child imports the same package
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin:/usr/local/bin",
                 "PYTHONPATH": os.path.dirname(os.path.dirname(calabi_lab.__file__))},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] and json.loads(outputs[0])["passed"]
    _report("9-determinism", ok, f"bytes={len(outputs[0])}")
    assert ok


def test_criterion_10_mutation_sensitivity():
    """The injected sign bug must break both the curvature-term identity
    (criterion 2) and the certificate soundness sweep (criterion 8)."""
    rng = np.random.default_rng(1010)
    n = 2
    conv = FrameConvention(n)
    # criterion-2 style failure
    t = ms.random_kaehler(n, 3)
    psi = wz.random_primitive_real(conv, 1, 1, rng)
    with cv.inject_sign_bug():
        spec_bug = cv.calabi_from_tensor(t).spectrum()
    mismatch = abs(wz.ricl_pairing(t, psi).real - wz.ricl_via_calabi(spec_bug, psi))
    c2_fails = mismatch > 1e-6

    # criterion-8 style failure: the corrupted operator grants certificates
    # that the true curvature term violates
    adversarial = cv.tensor_from_calabi(np.diag([-3.0, 1.0, 1.0]).astype(complex), conv)
    with cv.inject_sign_bug():
        cert_bug = ct.certify_calabi(cv.calabi_from_tensor(adversarial).spectrum(), n)
        v_bug, spot_bug = _soundness_sweep(adversarial, cert_bug, conv, rng,
                                           forms_per_pair=200, spot_checks=20)
    c8_fails = (v_bug > 1e-6) or (spot_bug > 1e-6)
    ok = c2_fails and c8_fails
    _report("10-mutation-sensitivity", ok,
            f"lemma_mismatch={mismatch:.2e} soundness_violation={v_bug:.2e} "
            f"spot={spot_bug:.2e}")
    assert c2_fails
    assert c8_fails
