"""Dense ``(2n)^k`` references that only the tests use: the derivation action
on full component arrays, the alternation and wedge of dense tensors,
multilinear evaluation, the tensor-square operators read entry by entry
off the curvature tensor, and the Lefschetz contraction as dense 0/1
matrix products.  The package computes on exterior coordinates; these
are the independent definitions its results are checked against."""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from calabi_lab.frames import (EndoC, FormPQ, FrameError, RealForm, _subset_rank, _subsets,
                               apply_derivation, derivation_table)


def derivation_action(mat: np.ndarray, arr: np.ndarray, k: int | None = None) -> np.ndarray:
    """Derivation action of the endomorphism ``mat`` (same frame as ``arr``)."""
    k = arr.ndim if k is None else k
    out = np.zeros_like(arr, dtype=np.result_type(arr, mat))
    for slot in range(arr.ndim - k, arr.ndim):
        out -= np.moveaxis(np.tensordot(arr, mat, axes=(slot, 0)), -1, slot)
    return out


def derivation_coords(mats: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Derivation action of a stack of endomorphisms on a stack of k-forms, in
    orthonormal exterior coordinates, through a gather table built for the
    call (the package acts only with the cached tables of its bases).

    ``mats`` has shape ``(m, d, d)`` and ``x`` holds the ``(B, C(d, k))``
    coordinates ``x_J = sqrt(k!) T[J]`` of the forms over the sorted
    k-subsets J; both are written in one frame, either one.  Returns the
    ``(m, B, N)`` coordinates ``(L x)_J = -sum_{A in J, C} L[C, A] sign x[..]``
    (see ``frames.derivation_table``).  Their squared sum is the tensor norm
    of the action, and their dot products are its Hermitian pairings.
    """
    return apply_derivation(derivation_table(mats, k), x).transpose(1, 0, 2)


def act_dense(endo: EndoC, dense: np.ndarray) -> np.ndarray:
    """Derivation action of ``endo`` on dense Z-frame components."""
    return derivation_action(endo.matrix, dense)


def conjugate(endo: EndoC) -> EndoC:
    """The conjugate endomorphism, in the Z-frame (bar-toggled indices)."""
    n = endo.convention.n
    perm = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    m = endo.matrix.conj()[np.ix_(perm, perm)]
    return EndoC(endo.convention, m)


def alternate(arr: np.ndarray) -> np.ndarray:
    """Full antisymmetrization sum (no 1/k! factor)."""
    k = arr.ndim
    out = np.zeros_like(arr)
    for perm in itertools.permutations(range(k)):
        out += _perm_sign(perm) * arr.transpose(perm)
    return out


def wedge_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge of two alternating tensors, normalized so v ^ w = v@w - w@v."""
    k, l = a.ndim, b.ndim
    return alternate(np.multiply.outer(a, b)) / (math.factorial(k) * math.factorial(l))


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def r1_r2_hand_indexed(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R1 on Lambda^2 V and R2 on sym^2 V of the real tensor ``r``, indexed
    by hand over the unit bases e_i ^ e_j / sqrt2 (i < j) and
    e_i (.) e_j / sqrt2, e_i (x) e_i (i <= j) in ``np.triu_indices`` order:
    ``m1[mu, nu] = 2 R(e_i, e_j, e_k, e_l)`` and
    ``m2[mu, nu] = 2 (R(e_i, e_k, e_l, e_j) + R(e_i, e_l, e_k, e_j)) / (cn_ij cn_kl)``
    with nu = (i, j), mu = (k, l) and cn = 2 on the diagonal, sqrt2 off it."""
    d = r.shape[0]
    i, j = np.triu_indices(d, 1)
    m1 = 2.0 * r[i[None, :], j[None, :], i[:, None], j[:, None]]
    i, j = np.triu_indices(d)
    cn = np.where(i == j, 2.0, math.sqrt(2.0))
    i, j, k, l = i[None, :], j[None, :], i[:, None], j[:, None]
    m2 = 2.0 * (r[i, k, l, j] + r[i, l, k, j]) / (cn[None, :] * cn[:, None])
    return m1, m2


def evaluate_form(phi: FormPQ | RealForm, args: Sequence[np.ndarray]) -> complex:
    """Alternating multilinear evaluation at frame vectors (Z-frame coordinates)."""
    dense = phi.to_dense()
    if len(args) != dense.ndim:
        raise FrameError(f"expected {dense.ndim} arguments, got {len(args)}")
    out = dense
    for vec in args:
        out = np.tensordot(np.asarray(vec, dtype=complex), out, axes=(0, 0))
    return complex(out)


def removal(n: int, p: int) -> np.ndarray:
    """The 0/1 maps R_a, a = 0..n-1, stacked ``(n, C(n, p-1), C(n, p))`` for
    p >= 1: R_a sends each sorted p-subset of ``0..n-1`` that holds a to that
    subset minus a, each remainder ranked on its own."""
    subsets, _ = _subsets(n, p)
    others = np.nonzero(~np.eye(p, dtype=bool))[1].reshape(p, p - 1)
    table = np.zeros((n, math.comb(n, p - 1), len(subsets)))
    table[subsets, _subset_rank(n, subsets[:, others]), np.arange(len(subsets))[:, None]] = 1.0
    return table


def sandwich(left: np.ndarray, right: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``sum_a left[a] C right[a]^T`` for coefficients on the last axis, read
    as the grid C whose rows and columns are those of ``left[a]`` and
    ``right[a]``, with the result flattened back the same way: with the
    ``removal`` maps, the sign-free Lefschetz contraction of (p,q) generator
    coefficients, and with their transposes its adjoint."""
    lead = coeffs.shape[:-1]
    grid = coeffs.reshape(lead + (1, left.shape[2], right.shape[2]))
    return np.sum(left @ grid @ right.transpose(0, 2, 1), axis=-3).reshape(lead + (-1,))
