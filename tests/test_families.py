"""The one table of unitary algebra bases, ``frames.family_mats``, against
the per-element builders it replaced, kept here as the reference."""

import math

import numpy as np
import pytest

from calabi_lab import frames
from calabi_lab import weitzenboeck as wz
from calabi_lab.frames import EndoC, FrameConvention, family_mats, lambda11_basis_labels

TAGS = ("gl", "so", "sym2_real", "sym2_10", "u", "su")


def _real_gl_mats(d):
    mats = np.zeros((d * d, d, d))
    for i in range(d):
        for j in range(d):
            mats[i * d + j, j, i] = 1.0
    return mats


def _real_so_mats(d):
    out = []
    s = 1.0 / math.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d))
            m[j, i] = s
            m[i, j] = -s
            out.append(m)
    return np.array(out)


def _real_sym2_mats(d):
    out = []
    s = 1.0 / math.sqrt(2.0)
    for i in range(d):
        for j in range(i, d):
            m = np.zeros((d, d))
            if i == j:
                m[i, i] = 1.0
            else:
                m[j, i] = s
                m[i, j] = s
            out.append(m)
    return np.array(out)


def _sym2_mats(conv):
    """Z_a (.) Z_b / sqrt2 (a < b) and Z_a (x) Z_a, from their hat matrices."""
    out = []
    for a in range(1, conv.n + 1):
        for b in range(a, conv.n + 1):
            hat = np.zeros((conv.n, conv.n), dtype=complex)
            if a == b:
                hat[a - 1, a - 1] = 1.0
            else:
                hat[a - 1, b - 1] = hat[b - 1, a - 1] = 1.0 / math.sqrt(2.0)
            out.append(EndoC.from_sym_hat(conv, hat).matrix)
    return out


def _u_mats(conv):
    """Z_a ^ conj(Z_b) in the half-trace convention."""
    out = []
    for a, b in lambda11_basis_labels(conv.n):
        c = np.zeros((conv.n, conv.n), dtype=complex)
        c[a - 1, b - 1] = 1.0
        out.append(EndoC.from_lambda11(conv, c).matrix)
    return out


def _su_mats(conv):
    """The off-diagonal Z_a ^ conj(Z_b), then n-1 traceless diagonals."""
    n = conv.n
    out = []
    for a, b in lambda11_basis_labels(n):
        if a != b:
            c = np.zeros((n, n), dtype=complex)
            c[a - 1, b - 1] = 1.0
            out.append(EndoC.from_lambda11(conv, c).matrix)
    for k in range(1, n):
        c = np.zeros((n, n), dtype=complex)
        w = 1.0 / math.sqrt(k * (k + 1))
        for a in range(k):
            c[a, a] = w
        c[k, k] = -k * w
        out.append(EndoC.from_lambda11(conv, c).matrix)
    return out


def reference_family(n, tag):
    conv = FrameConvention(n)
    real = {"gl": _real_gl_mats, "so": _real_so_mats, "sym2_real": _real_sym2_mats}
    if tag in real:
        return real[tag](conv.dim)
    mats = {"sym2_10": _sym2_mats, "u": _u_mats, "su": _su_mats}[tag](conv)
    if not mats:
        return np.zeros((0, conv.dim, conv.dim), dtype=complex)
    return np.array(mats)


@pytest.mark.parametrize("n", range(1, 8))
def test_family_mats_match_the_per_element_builders(n):
    """Every stack equals the reference in value, dtype, shape and element
    order, and is C-contiguous and read-only."""
    for tag in TAGS:
        got, ref = family_mats(n, tag), reference_family(n, tag)
        assert got.dtype == ref.dtype
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert got.flags.c_contiguous
        assert not got.flags.writeable
        assert got.dtype == (np.float64 if tag in frames.REAL_FRAME_TAGS else np.complex128)


def test_family_mats_refuses_an_unknown_tag():
    with pytest.raises(ValueError, match="unknown algebra tag"):
        family_mats(2, "sp")


def test_weitzenboeck_names_the_same_table():
    assert wz.family_mats is frames.family_mats
