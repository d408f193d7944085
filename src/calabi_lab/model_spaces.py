"""Curvature tensors of the reference geometries.  Each builder sets the
symmetry flags by construction: validate_tensor checks input where it enters.

Each kind's Calabi matrix (calabi_matrix) is its one recipe: constant
holomorphic sectional curvature is c * Id, and the random kinds are seeded
Hermitian matrices, so certify and spectrum solve them directly, and build
turns the same matrix into the tensor (the Calabi--Vesentini
correspondence).  The complex quadric is built as the
rank-2 symmetric space SO(n+2)/(SO(2) x SO(n)): curvature of the isotropy
representation, R(X, Y, Z, W) = <[X, Y], [Z, W]> on the tangent block, with
the invariant complex structure rotating the SO(2) factor, normalized so the
largest Calabi eigenvalue is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import (
    AlgebraicCurvatureTensor,
    CurvatureOperatorMatrix,
    calabi_block,
    calabi_from_tensor,
    ricci,
    tensor_from_calabi,
)
from .errors import CalabiLabError
from .frames import FrameConvention, family_mats
from .spectral import PositivityReport, Spectrum, eigensystem, k_test

__all__ = [
    "SpaceDescriptor",
    "build",
    "calabi_matrix",
    "chsc",
    "flat_torus",
    "product",
    "quadric",
    "quadric_spectrum",
    "random_kaehler",
    "random_kaehler_einstein",
    "EinsteinProjectionError",
]


class EinsteinProjectionError(CalabiLabError, RuntimeError):
    pass


# largest traceless Ricci entry of a random Calabi matrix left uncorrected
EINSTEIN_TOL = 1e-10

VARIANTS = ("chsc", "quadric", "flat", "random", "random_ke", "product")


@dataclass(frozen=True)
class SpaceDescriptor:
    """Recipe for a model curvature tensor.

    variant: one of chsc, quadric, product, flat, random, random_ke.
    ``c`` scales chsc and quadric; ``seed`` feeds the random variants;
    ``factors`` holds the product descriptors.
    """

    variant: str
    n: int = 0
    c: float = 1.0
    seed: int = 0
    factors: tuple["SpaceDescriptor", ...] = ()

    @property
    def complex_dim(self) -> int:
        if self.variant == "product":
            return sum(f.complex_dim for f in self.factors)
        return self.n

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown space variant {self.variant!r}")
        if self.variant == "product":
            if len(self.factors) < 1:
                raise ValueError("product needs at least one factor")
            for f in self.factors:
                f.validate()
        elif self.n < 1:
            raise ValueError(f"{self.variant} needs n >= 1")
        if self.variant == "quadric" and self.n < 2:
            raise ValueError("quadric needs n >= 2")


def build(desc: SpaceDescriptor) -> AlgebraicCurvatureTensor:
    desc.validate()
    if desc.variant == "chsc":
        return chsc(desc.n, desc.c)
    if desc.variant == "quadric":
        return quadric(desc.n, desc.c)
    if desc.variant == "flat":
        return flat_torus(desc.n)
    if desc.variant == "random":
        return random_kaehler(desc.n, desc.seed)
    if desc.variant == "random_ke":
        return random_kaehler_einstein(desc.n, desc.seed)
    return product([build(f) for f in desc.factors])


def calabi_matrix(desc: SpaceDescriptor) -> np.ndarray:
    """The Calabi matrix (unit sym^2 basis) of the space ``desc``, made
    without its real tensor; a product's is read off the product tensor."""
    desc.validate()
    n, m = desc.n, desc.n * (desc.n + 1) // 2
    if desc.variant == "chsc":
        return desc.c * np.eye(m)
    if desc.variant == "flat":
        return np.zeros((m, m))
    if desc.variant == "random":
        return _random_calabi(n, desc.seed)
    if desc.variant == "random_ke":
        return _random_ke_calabi(n, desc.seed)
    if desc.variant == "quadric":
        _, raw, top = _quadric_normalization(n)
        return raw.matrix * (desc.c / top)
    return calabi_from_tensor(build(desc)).matrix


def _from_calabi(desc: SpaceDescriptor) -> AlgebraicCurvatureTensor:
    return tensor_from_calabi(calabi_matrix(desc), FrameConvention(desc.n))


def chsc(n: int, c: float = 1.0) -> AlgebraicCurvatureTensor:
    """Constant holomorphic sectional curvature c (Calabi operator = c Id)."""
    return _from_calabi(SpaceDescriptor("chsc", n=n, c=c))


def flat_torus(n: int) -> AlgebraicCurvatureTensor:
    conv = FrameConvention(n)
    return AlgebraicCurvatureTensor(conv, np.zeros((conv.dim,) * 4), True, True)


def product(factors: list[AlgebraicCurvatureTensor]) -> AlgebraicCurvatureTensor:
    """Direct-sum curvature tensor on the product, mixed components zero."""
    dims = [t.convention.n for t in factors]
    n = sum(dims)
    conv = FrameConvention(n)
    r = np.zeros((conv.dim,) * 4)
    offset = 0
    for t, nf in zip(factors, dims):
        gmap = np.concatenate([
            offset + np.arange(nf),
            n + offset + np.arange(nf),
        ])
        r[np.ix_(gmap, gmap, gmap, gmap)] += t.components
        offset += nf
    return AlgebraicCurvatureTensor(conv, r, all(t.bianchi_validated for t in factors),
                                    all(t.kaehler_validated for t in factors))


# ---------------------------------------------------------------------------
# the complex quadric
# ---------------------------------------------------------------------------

def _quadric_raw(n: int) -> AlgebraicCurvatureTensor:
    conv = FrameConvention(n)
    d = conv.dim
    # e_a = X_{0, a+2}, J e_a = e_{a+n} = X_{1, a+2}, X_{i, alpha} = E_{i, alpha} - E_{alpha, i}
    a = np.arange(d)
    rows, cols = a // n, a % n + 2
    gens = np.zeros((d, n + 2, n + 2))
    gens[a, rows, cols] = 1.0
    gens[a, cols, rows] = -1.0
    prod = np.einsum("iab,jbc->ijac", gens, gens)
    brackets = prod - prod.transpose(1, 0, 2, 3)
    # <X, Y> = -tr(XY) / 2; every entry is an exact half-integer
    r = -0.5 * np.tensordot(brackets, brackets, axes=([2, 3], [3, 2]))
    return AlgebraicCurvatureTensor(conv, r, True, True)


def _quadric_normalization(n: int) -> tuple[AlgebraicCurvatureTensor, CurvatureOperatorMatrix, float]:
    """The raw quadric tensor, its Calabi matrix and that matrix's largest
    eigenvalue, the one solve that normalizes the quadric."""
    raw = _quadric_raw(n)
    op = calabi_from_tensor(raw)
    return raw, op, float(np.max(op.spectrum().eigenvalues))


def quadric(n: int, scale: float = 1.0) -> AlgebraicCurvatureTensor:
    """Symmetric-space quadric, normalized by its largest Calabi eigenvalue
    and multiplied by scale (scale=-1 gives the sign-flipped dual tensor)."""
    raw, _, top = _quadric_normalization(n)
    return raw.scaled(scale / top)


def quadric_spectrum(n: int, scale: float = 1.0) -> tuple[Spectrum, PositivityReport]:
    """Calabi spectrum of the quadric and its fractional test at k = n/2."""
    spec = eigensystem(calabi_matrix(SpaceDescriptor("quadric", n=n, c=scale)), source="calabi")
    return spec, k_test(spec, n / 2.0)


# ---------------------------------------------------------------------------
# seeded random tensors
# ---------------------------------------------------------------------------

def _rng(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def _random_calabi(n: int, seed: int) -> np.ndarray:
    """GUE-style random Hermitian Calabi matrix of random_kaehler(n, seed)."""
    m = n * (n + 1) // 2
    rng = _rng(seed, n, 0)
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return (a + a.conj().T) / 2.0


def random_kaehler(n: int, seed: int) -> AlgebraicCurvatureTensor:
    """Kaehler tensor from a GUE-style random Hermitian Calabi matrix."""
    return _from_calabi(SpaceDescriptor("random", n=n, seed=seed))


def _ricci_traceless_from_calabi(h: np.ndarray, n: int) -> np.ndarray:
    """Traceless Hermitian Ric(Z_a, conj Z_b) - (scal/2n) delta_ab of the
    Kaehler tensor with Calabi matrix h, where
    Ric(Z_a, conj Z_b) = -sum_c R(Z_a, conj Z_b, Z_c, conj Z_c)."""
    ric = -np.einsum("abcc->ab", calabi_block(h, n))
    return ric - (np.trace(ric) / n) * np.eye(n)


def _calabi_matrix_from_hermitian(h: np.ndarray) -> np.ndarray:
    """Matrix (unit sym^2 basis) of the operator S -> h Shat + Shat h^T."""
    n = h.shape[0]
    hats = family_mats(n, "sym2_10")[:, :n, n:]
    return np.einsum("mab,nab->mn", hats.conj(), h @ hats + hats @ h.T)


def _einstein_projection(calabi: np.ndarray, n: int) -> np.ndarray:
    """calabi with its traceless Ricci part h projected out in one step,
    through the equivariant correction h -> (h Shat + Shat h^T), whose own
    traceless Ricci part is alpha h by Schur (the traceless Hermitian
    matrices are irreducible; alpha = (n + 2) / 2, taken as the Rayleigh
    quotient).  The Ricci block is linear in the Calabi matrix, so the
    projection runs on the m x m matrix."""
    h = _ricci_traceless_from_calabi(calabi, n)
    if float(np.max(np.abs(h))) <= EINSTEIN_TOL:
        return calabi
    # the Ricci block is a Hermitian form; the derivation action needs the
    # endomorphism convention, which is its conjugate
    corr = _calabi_matrix_from_hermitian(h.conj())
    hc = _ricci_traceless_from_calabi(corr, n)
    alpha = float(np.real(np.sum(hc * h.conj()))) / float(np.sum(np.abs(h) ** 2))
    return calabi - corr / alpha


def _random_ke_calabi(n: int, seed: int) -> np.ndarray:
    """Calabi matrix of random_kaehler_einstein(n, seed): the projected
    matrix of random_kaehler(n, seed), whose Ricci block must then be
    Einstein."""
    calabi = _einstein_projection(_random_calabi(n, seed), n)
    if float(np.max(np.abs(_ricci_traceless_from_calabi(calabi, n)))) > EINSTEIN_TOL:
        raise EinsteinProjectionError("projection finished but Einstein check failed "
                                      "on the Calabi matrix")
    return calabi


def random_kaehler_einstein(n: int, seed: int) -> AlgebraicCurvatureTensor:
    """Random Kaehler--Einstein curvature tensor, built once from the
    projected Calabi matrix and checked again by the real Ricci contraction."""
    t = _from_calabi(SpaceDescriptor("random_ke", n=n, seed=seed))
    if not ricci(t).is_einstein:
        raise EinsteinProjectionError("projection finished but Einstein check failed")
    return t
