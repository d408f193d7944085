"""The per-form loop that ``checks.check_norm_identities`` ran before it acted
on each bidegree's samples as one batch, kept as a reference that only the
tests use.  It draws the same samples in the same order, one at a time (the
primitive forms by the per-form sampler), acts on one form at a time, and
takes the insertion norm through the oracle's pair annihilation on all
``C(2n, k)`` Z-frame coordinates."""

from __future__ import annotations

import math

import numpy as np

from calabi_lab import weitzenboeck as wz
from calabi_lab.checks import TOL_DIRECT, _pairs, _record, _rng
from calabi_lab.frames import EndoC, FormPQ, FrameConvention, RealForm, lefschetz_adjoint
from per_tensor_reference import random_primitive_real_per_form


def insertion_norm_by_pairs(phi: FormPQ) -> float:
    """``sum_{a,b} |iota(conj Z_b) iota(Z_a) phi|^2`` from the pair
    annihilation of phi's Z-frame coordinates, read at the mixed pairs
    a < n <= b (frame indices below n are the Z_a)."""
    n, k = phi.convention.n, phi.degree
    if k < 2:
        return 0.0
    first, second = np.triu_indices(2 * n, 1)  # the pairs, in pair-stack order
    mixed = (first < n) & (second >= n)
    twice = wz._interior(phi.coords("z")[None], 2 * n, k, 2)[0]
    return float(np.sum(np.abs(twice[mixed]) ** 2))


def norm_identity_draws(n: int, trials: int, seed: int, max_degree: int = 4):
    """Yields, per bidegree, ``(p, q, phis, prims, cmats)``: the samples of
    ``checks.check_norm_identities`` drawn one at a time, in its order of
    quantities: every phi's coefficients (re, im by generator), every
    primitive form (the per-form sampler), every u(n) element's matrix (its
    real parts, then its imaginary parts)."""
    rng = _rng(seed, 7)
    conv = FrameConvention(n)
    count = max(trials // 5, 5)
    for (p, q) in _pairs(n, max_degree):
        phis = []
        for _ in range(count):
            raw = rng.standard_normal((math.comb(n, p) * math.comb(n, q), 2))
            phis.append(raw[:, 0] + 1j * raw[:, 1])
        prims = [random_primitive_real_per_form(conv, p, q, rng).phi for _ in range(count)]
        cmats = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(count)]
        yield p, q, phis, prims, cmats


def check_norm_identities_per_form(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    conv = FrameConvention(n)
    worst = 0.0
    for p, q, phis, prims, cmats in norm_identity_draws(n, trials, seed, max_degree):
        k = p + q
        for coeffs, prim, cmat in zip(phis, prims, cmats):
            phi = FormPQ.from_coefficient_vector(conv, p, q, coeffs)
            if k >= 2:
                ins = insertion_norm_by_pairs(phi)
                target = p * q * phi.norm_sq()
                worst = max(worst, abs(ins - target) / max(1.0, target))
            psi = RealForm.symmetrize(phi)
            hat2 = wz.norm_phi_g(psi, "sym2_10")
            lam = lefschetz_adjoint(psi.phi)
            lam_sq = lam.norm_sq() * (2.0 if p != q else 1.0)
            expect = 0.25 * (k * (n + 1) - 2 * p * q) * psi.norm_sq()
            if k >= 2:
                expect -= lam_sq / (2 * k * (k - 1))
            worst = max(worst, abs(hat2 - expect) / max(1.0, abs(expect)))

            su2 = wz.norm_phi_g(prim, "su")
            expect_su = (2 * p * q + k * (n + 1 - k) - (p - q) ** 2 / n) * prim.norm_sq()
            worst = max(worst, abs(su2 - expect_su) / max(1.0, abs(expect_su)))
            u_fam = wz.phi_g(prim, "u")
            u2 = float(np.sum(np.abs(u_fam) ** 2))
            # omega = i sum_a u_{(a, a)}, the diagonal elements of the u basis
            om2 = float(np.sum(np.abs(np.sum(u_fam[::n + 1], axis=0)) ** 2))
            worst = max(worst, abs(u2 - (om2 / n + su2)) / max(1.0, u2))
            # |L phi|^2 <= (p+q) |L|_u^2 |phi|^2 for L in u(n); L is
            # sum_ab cmat[a, b] Z_a ^ conj(Z_b), so L phi mixes the u actions
            L = EndoC.from_lambda11(conv, cmat)
            lhs = float(np.sum(np.abs(cmat.reshape(-1) @ u_fam) ** 2))
            bound = k * L.norm_u_sq() * prim.norm_sq()
            worst = max(worst, max(lhs - bound, 0.0) / max(1.0, bound))
    return _record("norm_identities", "insertion-hat-su-norm-identities", worst, TOL_DIRECT)
