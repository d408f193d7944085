"""Dense ``(2n)^k`` references that only the tests use: the derivation action
on full component arrays, the alternation and wedge of dense tensors, and
multilinear evaluation.  The package computes on exterior coordinates; these
are the independent definitions its results are checked against."""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from calabi_lab.frames import EndoC, FormPQ, FrameError, RealForm


def derivation_action(mat: np.ndarray, arr: np.ndarray, k: int | None = None) -> np.ndarray:
    """Derivation action of the endomorphism ``mat`` (same frame as ``arr``)."""
    k = arr.ndim if k is None else k
    out = np.zeros_like(arr, dtype=np.result_type(arr, mat))
    for slot in range(arr.ndim - k, arr.ndim):
        out -= np.moveaxis(np.tensordot(arr, mat, axes=(slot, 0)), -1, slot)
    return out


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


def evaluate_form(phi: FormPQ | RealForm, args: Sequence[np.ndarray]) -> complex:
    """Alternating multilinear evaluation at frame vectors (Z-frame coordinates)."""
    dense = phi.to_dense()
    if len(args) != dense.ndim:
        raise FrameError(f"expected {dense.ndim} arguments, got {len(args)}")
    out = dense
    for vec in args:
        out = np.tensordot(np.asarray(vec, dtype=complex), out, axes=(0, 0))
    return complex(out)
