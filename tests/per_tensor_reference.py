"""The per-tensor and per-form loops that ``checks.check_curvature_term``,
``checks.check_r2_gl`` and ``checks.check_ricl_split`` ran before they
stacked each check's samples, and the per-form sampler that
``weitzenboeck.random_primitive_reals`` stacks, kept as references that only
the tests use.  They draw the same samples in the same order, and act on one
form or one tensor at a time."""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from calabi_lab import curvature as cv
from calabi_lab import model_spaces as ms
from calabi_lab import weitzenboeck as wz
from calabi_lab.checks import TOL_DIRECT, TOL_EIGEN, _pairs, _record, _rng
from calabi_lab.curvature import R2_SLOTS, _tensor_square, r1_r2_operators, ricci
from calabi_lab.frames import (FormPQ, FrameConvention, RealForm, apply_derivation, family_mats,
                               family_table, project_primitive)


def random_primitive_real_per_form(conv: FrameConvention, p: int, q: int,
                                   rng: np.random.Generator) -> RealForm:
    """One form: draw, project on its own, symmetrize, and draw again (up to
    16 times) while the result is ~0."""
    size = math.comb(conv.n, p) * math.comb(conv.n, q)
    for _ in range(16):
        raw = rng.standard_normal((size, 2))
        phi = project_primitive(FormPQ.from_coefficient_vector(
            conv, p, q, raw[:, 0] + 1j * raw[:, 1]))
        real = RealForm.symmetrize(phi)
        if real.norm_sq() > 1e-8:
            return real
    raise wz.SamplingFailure(f"no nonzero primitive ({p},{q})-form found at n={conv.n}")


def _pairing_value(op: np.ndarray, n: int, tag: str, x: np.ndarray, p: int) -> float:
    parts = apply_derivation(family_table(n, tag, p), x[None])[0]
    gram = (parts @ parts.conj().T).real
    return float(np.sum(op * gram.T))


def r2_gl_identity_per_form(t, forms) -> list[dict]:
    n, d = t.convention.n, t.convention.dim
    r2_gl = _tensor_square(t.components, family_mats(n, "gl"), R2_SLOTS)
    pairs = wz._pair_matrix(t.components).T
    out = []
    for x, p in forms:
        lhs = _pairing_value(r2_gl, n, "gl", x, p)
        rhs = -0.5 * float(wz._contract(pairs, x[None], d, p, 2)[0])
        scale = max(1.0, abs(lhs), abs(rhs))
        out.append({"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs) / scale})
    return out


def ricl_r2_split_per_form(t, forms) -> list[dict]:
    n, d = t.convention.n, t.convention.dim
    r1, r2 = r1_r2_operators(t)
    ric = ricci(t).ricci
    mats = wz.oracle_matrices(t)
    out = []
    for x, p in forms:
        ricl = float(wz.ricl_pairing_coords(mats, x[None], p)[0])
        lhs = 1.5 * ricl
        rhs = (_pairing_value(r2.matrix, n, "sym2_real", x, p)
               + float(wz._contract(ric, x[None], d, p, 1)[0]))
        scale = max(1.0, abs(lhs), abs(rhs))
        r1_so = _pairing_value(r1.matrix, n, "so", x, p)
        scale_so = max(1.0, abs(ricl), abs(r1_so))
        out.append({"ricl": ricl, "residual_split": abs(lhs - rhs) / scale,
                    "residual_translation": abs(r1_so - ricl) / scale_so})
    return out


def _real_pforms(conv: FrameConvention, rng: np.random.Generator) -> list[tuple[np.ndarray, int]]:
    return [(wz.random_real_pform(conv, p, rng), p) for p in (1, 2, 3) if p <= conv.dim]


def check_r2_gl_per_tensor(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    rng = _rng(seed, 4)
    conv = FrameConvention(n)
    worst = 0.0
    for _ in range(max(trials // 5, 5)):
        t = cv.random_riemannian(conv, int(rng.integers(2 ** 31)))
        for out in r2_gl_identity_per_form(t, _real_pforms(conv, rng)):
            worst = max(worst, out["residual"])
    return _record("r2_gl_contraction", "tensor-square-operator-gl-contraction",
                   worst, TOL_DIRECT)


def check_ricl_split_per_tensor(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    rng = _rng(seed, 5)
    conv = FrameConvention(n)
    worst = 0.0
    for _ in range(max(trials // 5, 5)):
        t = cv.random_riemannian(conv, int(rng.integers(2 ** 31)))
        for out in ricl_r2_split_per_form(t, _real_pforms(conv, rng)):
            worst = max(worst, out["residual_split"], out["residual_translation"])
    return _record("ricl_r2_split", "lichnerowicz-term-splitting-and-translation",
                   worst, TOL_EIGEN)


def check_curvature_term_per_tensor(n: int, trials: int, seed: int, max_degree: int = 4) -> dict:
    rng = _rng(seed, 6)
    conv = FrameConvention(n)
    forms = defaultdict(list)
    for (p, q) in _pairs(n, max_degree):
        for _ in range(3):
            forms[p + q].append(random_primitive_real_per_form(conv, p, q, rng))
    grams = [wz.oracle_grams(x, conv.dim, k)
             for x, k in map(wz.oracle_coords, forms.values())]
    worst = 0.0
    for _ in range(trials):
        t = ms.random_kaehler(n, int(rng.integers(2 ** 31)))
        spec = cv.calabi_from_tensor(t).spectrum()
        mats = wz.oracle_matrices(t)
        for same_degree, g in zip(forms.values(), grams):
            bf = wz.ricl_pairing_grams(mats, g)
            ec = wz.ricl_via_calabi_batch(spec, conv, same_degree)
            worst = max(worst, float(np.max(np.abs(bf - ec) / np.maximum(1.0, np.abs(bf)))))
    return _record("curvature_term_via_calabi", "curvature-term-via-calabi-eigenvalues",
                   worst, TOL_EIGEN, trials=trials)
