"""The identity suite behind `calabi-lab verify`.

Each check runs a seeded randomized verification of one identity or estimate
and returns a record with a stable anchor name, a pass/fail status, and the
worst residual observed.  Residual tolerances follow the package defaults:
1e-10 relative for direct multilinear identities, 1e-9 where an
eigendecomposition is involved.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from . import certify as ct
from . import curvature as cv
from . import model_spaces as ms
from . import weitzenboeck as wz
from .frames import (
    EndoC,
    FormPQ,
    FrameConvention,
    RealForm,
    _lefschetz_coeffs,
    _slots,
)
from .model_spaces import _random_hermitian, _rng
from .report import record, verdict
from .spectral import k_test, weight_principle

TOL_DIRECT = 1e-10
TOL_EIGEN = 1e-9

__all__ = ["run_verify_suite", "CHECKS"]


def _record(name: str, anchor: str, residual: float, tol: float, **values) -> dict:
    return record(name, anchor, values, verdict(residual, tol),
                  residual=float(residual), tolerance=tol)


def _pairs(n: int, max_degree: int) -> list[tuple[int, int]]:
    return [(p, q) for (p, q) in ct.bidegrees(n) if p >= q and p + q <= max_degree]


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_validator(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    rng = _rng(seed, 1)
    # a Kaehler and a Riemannian seed per round, each stack validated at once
    seeds = [int(rng.integers(2 ** 31)) for _ in range(2 * max(trials // 10, 3))]
    kaehler = np.array([ms.random_kaehler(n, s).components for s in seeds[::2]])
    worst = 0.0
    for t in cv._validate_stack(kaehler, FrameConvention(n)):
        worst = max(worst, *t.residuals.values())
    for r in cv.random_riemannians(FrameConvention(n), seeds[1::2]):
        worst = max(worst, *(r.residuals[k] for k in
                             ("bianchi", "antisymmetry_first_pair", "pair_exchange")))
    return _record("tensor_validator", "curvature-symmetry-validation", worst, 1e-12)


def check_roundtrip(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    rng = _rng(seed, 2)
    conv = FrameConvention(n)
    m = n * (n + 1) // 2
    worst = 0.0
    for _ in range(trials):
        h = _random_hermitian(rng, m)
        t = cv.tensor_from_calabi(h, conv)
        back = cv.calabi_from_tensor(t).matrix
        scale = max(1.0, float(np.max(np.abs(h))))
        bianchi = cv.validate_tensor(t.components, t.convention).residuals["bianchi"]
        worst = max(worst, float(np.max(np.abs(back - h))) / scale, bianchi / scale)
    return _record("calabi_vesentini_roundtrip", "calabi-correspondence-roundtrip",
                   worst, 1e-12, trials=trials)


def _eigen_expansion(spec, n: int) -> np.ndarray:
    """-sum_nu lambda_nu (v_b (x) v_a[bar] - v_a (x) v_b[bar]) for every (a, b),
    shape (n, n, 2n, 2n): the eigen-expansion of R(Z_a, conj Z_b) over the
    Calabi eigenvalues lambda_nu and eigen-elements S_nu (Z-frame
    endomorphisms), where v_a = conj(S_nu) Z_a and v_b = S_nu conj Z_b.

    With bar the Z <-> conj Z swap, v_b[i] = S_nu[i, n+b] and
    v_a[i] = conj(S_nu[bar i, n+a]), so v_a[bar] = conj of the v_b of a and
    v_b[bar] = conj of the v_a of b: each term is one contraction over nu.
    """
    # eigen-elements: the unit sym^2 basis mixed by the eigenvector coordinates
    mats = np.tensordot(spec.eigenvectors, wz.family_mats(n, "sym2_10"), axes=(0, 0))
    bar = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    vb = mats[:, :, n:].transpose(0, 2, 1)            # vb[nu, b, i]
    va = mats[:, bar, n:].conj().transpose(0, 2, 1)   # va[nu, a, i]
    lam = spec.eigenvalues[:, None, None]
    return (np.einsum("vai,vbj->abij", lam * va, va.conj())
            - np.einsum("vbi,vaj->abij", lam * vb, vb.conj()))


def check_kaehler_structure(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    """Vanishing on Lambda^{2,0}, the exchange symmetry, and the mixed-pair
    eigen-expansion of the curvature endomorphisms."""
    rng = _rng(seed, 3)
    bar = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    worst = 0.0
    for _ in range(max(trials // 10, 3)):
        t = ms.random_kaehler(n, int(rng.integers(2 ** 31)))
        rz = t.complexified()
        scale = max(1.0, float(np.max(np.abs(rz))))
        # R(Z_a, Z_b, ., .) = 0 and R(., ., Z_c, Z_d) = 0
        worst = max(worst, float(np.max(np.abs(rz[:n, :n]))) / scale,
                    float(np.max(np.abs(rz[:, :, :n, :n]))) / scale)
        # exchange symmetry R(X, cY, Z, cW) = R(Z, cY, X, cW) = R(X, cW, Z, cY)
        q = rz[:n, n:, :n, n:]
        worst = max(worst, float(np.max(np.abs(q - q.transpose(2, 1, 0, 3)))) / scale,
                    float(np.max(np.abs(q - q.transpose(0, 3, 2, 1)))) / scale)
        # eigen-expansion of R(Z_a, conj Z_b), for all (a, b) at once; the
        # endomorphism's (i, j) entry is R(Z_a, conj Z_b, W_j, W_{bar i})
        lhs = rz[:n, n:][..., bar].swapaxes(2, 3)
        rhs = _eigen_expansion(cv.calabi_from_tensor(t).spectrum(), n)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return _record("kaehler_structure", "kaehler-symmetries-and-eigen-expansion",
                   worst, TOL_EIGEN)


def _real_pform_stacks(n: int, count: int, rng: np.random.Generator):
    """``count`` random general-Riemannian tensors, the seed of each followed
    by one random real unit p-form per degree p = 1, 2, 3 up to 2n, drawn in
    that order; returns the tensors, built as one stack, and, per degree,
    the pair of the ``(count, C(2n, p))`` stack of the forms' real-frame
    coordinates and p."""
    conv = FrameConvention(n)
    degrees = [p for p in (1, 2, 3) if p <= conv.dim]
    seeds, forms = [], []
    for _ in range(count):
        seeds.append(int(rng.integers(2 ** 31)))
        forms.append([wz.random_real_pform(conv, p, rng) for p in degrees])
    return (cv.random_riemannians(conv, seeds),
            [(np.array(stack), p) for stack, p in zip(zip(*forms), degrees)])


def check_r2_gl(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    tensors, stacks = _real_pform_stacks(n, max(trials // 5, 5), _rng(seed, 4))
    worst = 0.0
    for out in wz.check_r2_gl_identity(tensors, stacks):
        worst = max(worst, out["residual"])
    return _record("r2_gl_contraction", "tensor-square-operator-gl-contraction",
                   worst, TOL_DIRECT)


def check_ricl_split(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    tensors, stacks = _real_pform_stacks(n, max(trials // 5, 5), _rng(seed, 5))
    worst = 0.0
    for out in wz.check_ricl_r2_split(tensors, stacks):
        worst = max(worst, out["residual_split"], out["residual_translation"])
    return _record("ricl_r2_split", "lichnerowicz-term-splitting-and-translation",
                   worst, TOL_EIGEN)


def check_curvature_term(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    """The curvature term of a Kaehler tensor equals twice the eigenvalue-
    weighted action norms, against the brute-force frame summation.

    The forms are drawn first, then the tensors.  Each degree is then
    worked alone: the oracle's Gram matrices of its forms once, and the
    sym2_10 actions on them once, mixed for every tensor's spectrum."""
    rng = _rng(seed, 6)
    conv = FrameConvention(n)
    forms = defaultdict(list)
    for (p, q) in _pairs(n, max_degree):
        forms[p + q] += wz.random_primitive_reals(conv, p, q, rng, 3)
    # each tensor is kept as its spectrum and the oracle's matrices only
    specs, mats = [], []
    for seed_t in [int(rng.integers(2 ** 31)) for _ in range(trials)]:
        t = ms.random_kaehler(n, seed_t)
        specs.append(cv.calabi_from_tensor(t).spectrum())
        mats.append(wz.oracle_matrices(t))
    worst = 0.0
    for same_degree in forms.values():
        x, k = wz.oracle_coords(same_degree)
        grams = wz.oracle_grams(x, conv.dim, k)
        del x
        for m, ec in zip(mats, wz.ricl_via_calabi_spectra(specs, conv, same_degree)):
            bf = wz.ricl_pairing_grams(m, grams)
            worst = max(worst, float(np.max(np.abs(bf - ec) / np.maximum(1.0, np.abs(bf)))))
    return _record("curvature_term_via_calabi", "curvature-term-via-calabi-eigenvalues",
                   worst, TOL_EIGEN, trials=trials)


def _insertion_norms(n: int, p: int, q: int, coeffs: np.ndarray) -> np.ndarray:
    """``sum_{a,b} |iota(conj Z_b) iota(Z_a) phi|^2`` for a ``(B, C(n, p) C(n, q))``
    stack of (p,q) generator coefficients, as ``sum_{a,b} |C[I' + a, J' + b]|^2``
    on each coefficient grid C over the (p-1)-subsets I' without a and the
    (q-1)-subsets J' without b: the rows ``I' + a`` are gathered for one a at
    a time from the slot table (``frames._slots``), the columns ``J' + b`` for
    every b at once, in slices of at most ``_SLICE_ENTRIES`` entries.

    Taking a out of I and b out of J sends Z^(I, J) to +-Z^(I - a, J - b)
    and no two generators to the same one, so the signs drop out of the
    norm.  The double interior product carries the factor sqrt(k(k-1)) of
    the orthonormal exterior coordinates, as the oracle's pair annihilation
    does.  It is 0 for p = 0 or q = 0."""
    out = np.zeros(len(coeffs))
    if p < 1 or q < 1:
        return out
    rows, cols = _slots(n, p)[1], _slots(n, q)[1]  # the rank of R plus a, by R and a
    grid = coeffs.reshape(len(coeffs), math.comb(n, p), math.comb(n, q))
    cols = cols[cols >= 0]
    step = max(1, wz._SLICE_ENTRIES // (math.comb(n - 1, p - 1) * len(cols)))
    for lo in range(0, len(grid), step):
        for a in range(n):
            part = grid[lo:lo + step].take(rows[rows[:, a] >= 0, a], axis=1).take(cols, axis=2)
            out[lo:lo + step] += wz._sq_sum(part, axis=(1, 2))
    return out


def _u_norms(n: int, prims, cmats: np.ndarray) -> tuple[np.ndarray, ...]:
    """From one ``_actions`` pass of the u(n) basis over the forms, consumed
    slice by slice: |u phi|^2, |omega phi|^2 and |L phi|^2 of each form, with L
    the element of u(n) over its coefficients ``cmats``.  No slice outlives
    the call, so none is alive in the caller's next step."""
    u2, om2, lhs = (np.zeros(len(prims)) for _ in range(3))
    for owner, u_fam in wz._actions(n, "u", prims, n * n):
        # in runs of basis elements: no modulus or square stack the size of
        # u_fam, which is 100 MB at n = 10
        run = max(1, wz._SLICE_ENTRIES // (4 * len(owner) * u_fam.shape[2]))
        u2[owner] = sum(np.sum(np.abs(u_fam[:, i:i + run]) ** 2, axis=(1, 2))
                        for i in range(0, n * n, run))
        # omega = i sum_a u_{(a, a)}, the diagonal elements of the u basis
        om2[owner] = np.sum(np.abs(np.sum(u_fam[:, ::n + 1], axis=1)) ** 2, axis=1)
        # |L phi|^2 <= (p+q) |L|_u^2 |phi|^2 for L in u(n); L is
        # sum_ab cmat[a, b] Z_a ^ conj(Z_b), so L phi mixes the u actions
        mixed = np.einsum("bm,bmj->bj", cmats[owner].reshape(len(owner), -1), u_fam)
        lhs[owner] = np.sum(np.abs(mixed) ** 2, axis=1)
    return u2, om2, lhs


def check_norm_identities(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    """Insertion-norm identity, the hat-norm identity with and without the
    Lefschetz correction, the su-norm identity, and the u-decomposition.

    Each bidegree (p,q) draws its samples as one stack per quantity, in this
    order: the coefficients of every (p,q)-form phi, every random primitive
    real form (``wz.random_primitive_reals``) and the coefficients of every
    element L of u(n).  They are then checked as one batch: the insertion
    norm of each phi on its coefficient grid (``_insertion_norms``), the hat
    norms of the real forms psi = phi + conj(phi) through
    ``norm_phi_g_batch``, Lambda psi on the stacked coefficients, the su
    norms of the primitive pieces through ``norm_phi_g_batch`` and their u
    actions through one ``_actions`` pass, consumed slice by slice
    (``_u_norms``).
    """
    rng = _rng(seed, 7)
    conv = FrameConvention(n)
    worst = 0.0
    count = max(trials // 5, 5)
    for (p, q) in _pairs(n, max_degree):
        k = p + q
        raw = rng.standard_normal((count, math.comb(n, p) * math.comb(n, q), 2))  # (re, im)
        phis = raw[:, :, 0] + 1j * raw[:, :, 1]
        prims = [prim.phi for prim in wz.random_primitive_reals(conv, p, q, rng, count)]
        raw = rng.standard_normal((count, 2, n, n))  # real parts, then imaginary parts
        cmats = raw[:, 0] + 1j * raw[:, 1]

        # the insertion norm is 0 = pq |phi|^2 when p or q is 0
        target = p * q * np.sum(np.abs(phis) ** 2, axis=1)
        ins = _insertion_norms(n, p, q, phis)
        worst = max(worst, float(np.max(np.abs(ins - target) / np.maximum(1.0, target))))

        psis = [RealForm.symmetrize(FormPQ.from_coefficient_vector(conv, p, q, v)) for v in phis]
        hat2 = wz.norm_phi_g_batch("sym2_10", conv, psis)
        expect = 0.25 * (k * (n + 1) - 2 * p * q) * np.array([psi.norm_sq() for psi in psis])
        if p >= 1 and q >= 1:
            coeffs = np.array([psi.phi.coefficient_vector() for psi in psis])
            lam = _lefschetz_coeffs(n, p, q, coeffs)
            lam_sq = np.sum(np.abs(lam) ** 2, axis=1) * (2.0 if p != q else 1.0)
            expect -= lam_sq / (2 * k * (k - 1))
        worst = max(worst, float(np.max(np.abs(hat2 - expect) / np.maximum(1.0, np.abs(expect)))))

        prim_sq = np.array([prim.norm_sq() for prim in prims])
        su2 = wz.norm_phi_g_batch("su", conv, prims)
        expect_su = (2 * p * q + k * (n + 1 - k) - (p - q) ** 2 / n) * prim_sq
        worst = max(worst, float(np.max(np.abs(su2 - expect_su)
                                        / np.maximum(1.0, np.abs(expect_su)))))
        u2, om2, lhs = _u_norms(n, prims, cmats)
        worst = max(worst, float(np.max(np.abs(u2 - (om2 / n + su2)) / np.maximum(1.0, u2))))
        l_sq = np.array([EndoC.from_lambda11(conv, c).norm_u_sq() for c in cmats])
        bound = k * l_sq * prim_sq
        worst = max(worst, float(np.max(np.maximum(lhs - bound, 0.0) / np.maximum(1.0, bound))))
    return _record("norm_identities", "insertion-hat-su-norm-identities", worst, TOL_DIRECT)


def check_main_estimate(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    rng = _rng(seed, 8)
    conv = FrameConvention(n)
    violations = 0
    samples = 0
    worst_attain = 0.0
    for (p, q) in _pairs(n, max_degree):
        out = wz.estimate_sampling(conv, p, q, n_psi=max(trials // 10, 3), n_s=50, rng=rng)
        violations += out["violations"]
        samples += out["samples"]
        psi = wz.achievability_form(conv, p, q)
        s = wz.achievability_endo(conv, p + q)
        r = wz.estimate_bound(s, psi)
        expect = wz.achievability_ratio(p, q) * s.norm_sq() * psi.norm_sq()
        worst_attain = max(worst_attain, abs(r.lhs - expect) / max(1.0, expect))
    residual = worst_attain + float(violations)
    return _record("main_estimate", "symmetric-action-estimate-and-attainment",
                   residual, TOL_DIRECT, violations=violations, samples=samples)


def check_weight_principle(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    rng = _rng(seed, 9)
    m = n * (n + 1) // 2
    bad = 0
    total = 0
    for _ in range(trials * 10):
        vals = np.sort(rng.normal(size=m))
        wmax = float(abs(rng.normal()) + 0.1)
        w = rng.uniform(0.0, wmax, size=m)
        tot = float(np.sum(w))
        if tot / wmax > m:
            continue
        kappa = -float(abs(rng.normal()))
        out = weight_principle(vals, w, tot, wmax, kappa)
        total += 1
        if out.certified and float(w @ vals) < out.lower_bound - 1e-9 * max(1.0, abs(out.lower_bound)):
            bad += 1
    return _record("weight_principle", "weighted-eigenvalue-sum-bound",
                   float(bad), 0.5, certified_trials=total)


def check_einstein_identities(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    """omega_K eigenvector, su-trace identity, and the Einstein curvature term
    via the restricted Kaehler spectrum."""
    rng = _rng(seed, 10)
    conv = FrameConvention(n)
    worst = 0.0
    for _ in range(max(trials // 10, 2)):
        t = ms.random_kaehler_einstein(n, int(rng.integers(2 ** 31)))
        ric = cv.ricci(t)
        lam = ric.einstein_lambda
        k_op = cv.kaehler_operator(t)
        w = cv.omega_coords(n)
        scale = max(1.0, abs(lam))
        worst = max(worst, float(np.linalg.norm(k_op.matrix @ w - lam * w)) / scale)
        worst = max(worst, abs(lam - ric.scal / (2 * n)) / scale)
        ksu = cv.restrict_su(k_op, ric)
        worst = max(worst, abs(float(np.trace(ksu.matrix).real) - (n - 1) * lam) / scale)
        spec = ksu.spectrum()
        mats = wz.oracle_matrices(t)
        forms = defaultdict(list)
        for (p, q) in _pairs(n, max_degree):
            forms[p + q].append(wz.random_primitive_real(conv, p, q, rng).phi)
        for same_degree in forms.values():
            bf = wz.ricl_pairing_coords(mats, *wz.oracle_coords(same_degree))
            ke = wz.ricl_via_kaehler_su(lam, spec, same_degree)
            worst = max(worst, float(np.max(np.abs(bf - ke) / np.maximum(1.0, np.abs(bf)))))
        # (n,0)-forms: curvature term = (scal/2) |phi|^2
        top = FormPQ.generator(conv, tuple(range(1, n + 1)), ())
        bf = float(wz.ricl_pairing_coords(mats, *wz.oracle_coords(top))[0])
        worst = max(worst, abs(bf - 0.5 * ric.scal * top.norm_sq()) / max(1.0, abs(bf)))
    return _record("einstein_identities", "einstein-restricted-spectrum-identities",
                   worst, TOL_EIGEN)


def check_thresholds(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    from fractions import Fraction

    worst = 0.0
    tb = ct.thresholds(n)
    checks = [tb.upsilons_exact[(1, 1)] == Fraction(n, 2) if n >= 1 else True]
    for p in range(1, n + 1):
        checks.append(tb.upsilons_exact[(p, p)] == Fraction(p * (n + 1 - p), 1 + p))
        checks.append(tb.upsilons_exact[(p, 0)] == Fraction(p * (n + 1), 2))
        checks.append(tb.gammas[(p, p)] == n + 1 - p)
    checks.append(tb.gammas[(n, 0)] == Fraction(n * n - 1, n))
    checks.append(ct.upsilon_min_holds(n))
    worst = 0.0 if all(checks) else 1.0
    return _record("threshold_closed_forms", "threshold-table-closed-forms", worst, 0.5,
                   gamma_reduction_violations=ct.gamma_reduction_violations(n))


def check_model_spaces(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    worst = 0.0
    nq = max(n, 2)
    tq = ms.quadric(nq)
    spec = cv.calabi_from_tensor(tq).spectrum()
    rep = k_test(spec, nq / 2.0)
    ric = cv.ricci(tq)
    ok = (ric.is_einstein and ric.einstein_lambda > 0
          and rep.partial_sum >= -1e-10 and rep.partial_sum <= 1e-10)
    if nq >= 3:
        ok = ok and spec.eigenvalues[0] < -1e-10
    worst = 0.0 if ok else 1.0
    t = ms.chsc(n, 1.0)
    h = cv.calabi_from_tensor(t).matrix
    worst = max(worst, float(np.max(np.abs(h - np.eye(len(h))))))
    return _record("model_spaces", "model-space-spectra", worst, 1e-12,
                   quadric_n=nq, quadric_eigenvalues=[float(v) for v in spec.eigenvalues])


def stress_probe(n: int, seed: int, max_degree: int = 4) -> dict:
    """Info record: best |S psi|^2 / (|S|^2 |psi|^2) per bidegree, the exact
    maximum over S (the top eigenvalue of the Gram matrix of the sym^2 basis
    actions) for each of 16 random primitive psi, next to the attained
    constant of the equality family and the proven cap.  ``within_cap``
    compares with the cap up to 64 ulps of rounding; ``best_found`` is
    reported as computed.  The maximum over psi is not sought, so nothing is
    asserted about optimality."""
    conv = FrameConvention(n)
    table = {}
    for (p, q) in _pairs(n, max_degree):
        best = wz.stress_search(conv, p, q, seed=seed)
        cap = 0.5 + min(p, q, (p * q) ** 0.5 / 2.0)
        table[f"{p},{q}"] = {
            "best_found": best,
            "equality_family": wz.achievability_ratio(p, q),
            "proven_cap": cap,
            # an eigenvalue that attains the cap can exceed it by a few ulps
            "within_cap": bool(best <= cap * (1.0 + 64 * np.finfo(float).eps)),
        }
    return record("stress_search", "estimate-tightness-probe", table, tolerance=None)


# every check is called alike, fn(n, trials, seed, max_degree=...); those that
# draw no forms ignore max_degree
CHECKS = [
    check_validator,
    check_roundtrip,
    check_kaehler_structure,
    check_r2_gl,
    check_ricl_split,
    check_curvature_term,
    check_norm_identities,
    check_main_estimate,
    check_weight_principle,
    check_einstein_identities,
    check_thresholds,
    check_model_spaces,
]


def run_verify_suite(n: int, trials: int, seed: int, max_degree: int = 4) -> list[dict]:
    """Run every check; failures are collected, not fatal.

    Checks are independent and may run on CALABI_LAB_THREADS threads; the
    record order is always the CHECKS order.
    """
    from .report import parallel_map

    return parallel_map(lambda fn: fn(n, trials, seed, max_degree=max_degree), CHECKS)
