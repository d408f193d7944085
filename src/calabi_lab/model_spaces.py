"""Curvature tensors of the reference geometries.  Each builder sets the
symmetry flags by construction: validate_tensor checks input where it enters.

KINDS has a row per kind.  A kind's Calabi matrix (calabi_matrix) is its one
recipe, and certify (both modes) and spectrum solve it directly: constant
holomorphic sectional curvature is c * Id, the random kinds are seeded
Hermitian matrices, the normalized quadric is c (Id - d d^T / 2) with d the
indicator of the diagonal labels (a, a), and a product's is the direct sum of
its factors' matrices, zero on the mixed labels.  build turns the chsc and
random matrices into their tensors (the Calabi--Vesentini correspondence).
The complex quadric keeps its own construction, as the rank-2 symmetric space
SO(n+2)/(SO(2) x SO(n)): curvature of the isotropy representation,
R(X, Y, Z, W) = <[X, Y], [Z, W]> on the tangent block, with the invariant
complex structure rotating the SO(2) factor.  That raw tensor's Calabi
matrix is 2 (Id - d d^T / 2), so halving it normalizes the largest Calabi
eigenvalue to 1; the normalized spectrum is 1 (m - 1 times) and 1 - n/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .curvature import (
    AlgebraicCurvatureTensor,
    RicciData,
    calabi_block,
    ricci,
    tensor_from_calabi,
)
from .errors import CalabiLabError
from .frames import FrameConvention, family_mats, sym2_basis_labels
from .spectral import PositivityReport, Spectrum, eigensystem, k_test

__all__ = [
    "SpaceDescriptor",
    "build",
    "calabi_matrix",
    "chsc",
    "einstein_ricci",
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


@dataclass(frozen=True)
class SpaceDescriptor:
    """Recipe for a model curvature tensor.

    variant: a key of KINDS.  ``c`` scales chsc and quadric; ``seed`` feeds
    the random variants; ``factors`` holds the product descriptors.
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
        if self.variant not in KINDS:
            raise ValueError(f"unknown space variant {self.variant!r}")
        if self.variant == "product":
            if len(self.factors) < 1:
                raise ValueError("product needs at least one factor")
            for f in self.factors:
                f.validate()
        elif not _integer(self.n):
            raise ValueError(f"{self.variant} needs an integer n, got {self.n!r}")
        elif self.n < 1:
            raise ValueError(f"{self.variant} needs n >= 1")
        if self.variant == "quadric" and self.n < 2:
            raise ValueError("quadric needs n >= 2")
        if not (_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not _finite_real(self.c):
            raise ValueError(f"c must be a finite real number, got {self.c!r}")


def _integer(x) -> bool:
    """An integer of any integral type but bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _finite_real(x) -> bool:
    """A real number of any type but bool whose float is finite."""
    try:
        return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def build(desc: SpaceDescriptor) -> AlgebraicCurvatureTensor:
    desc.validate()
    return KINDS[desc.variant][3](desc)


def calabi_matrix(desc: SpaceDescriptor) -> np.ndarray:
    """The Calabi matrix (unit sym^2 basis) of the space ``desc``, made
    without its real tensor."""
    desc.validate()
    return KINDS[desc.variant][2](desc)


def _quadric_calabi(desc: SpaceDescriptor) -> np.ndarray:
    d = np.array([a == b for a, b in sym2_basis_labels(desc.n)], dtype=float)
    return desc.c * (np.eye(len(d)) - 0.5 * np.outer(d, d))


def _product_calabi(desc: SpaceDescriptor) -> np.ndarray:
    """Direct sum of the factors' Calabi matrices on the product's sym^2
    labels: factor labels (a, b) sit at (a + offset, b + offset), and the
    mixed labels, one index in each of two factors, are 0."""
    labels = sym2_basis_labels(desc.complex_dim)
    where = {label: nu for nu, label in enumerate(labels)}
    h = np.zeros((len(labels),) * 2, dtype=complex)
    offset = 0
    for f in desc.factors:
        idx = [where[a + offset, b + offset] for a, b in sym2_basis_labels(f.complex_dim)]
        h[np.ix_(idx, idx)] = calabi_matrix(f)
        offset += f.complex_dim
    return h


# variant -> (--space name, the parameters it reads, Calabi matrix, real tensor);
# k is another name for n.  Builders are looked up at call time, for tracers.
KINDS = {
    "chsc": ("chsc", ("n", "c"), lambda d: d.c * np.eye(d.n * (d.n + 1) // 2),
             lambda d: chsc(d.n, d.c)),
    "quadric": ("quadric", ("n", "c"), _quadric_calabi, lambda d: quadric(d.n, d.c)),
    "flat": ("flat", ("n",), lambda d: np.zeros((d.n * (d.n + 1) // 2,) * 2),
             lambda d: flat_torus(d.n)),
    "random": ("random", ("n", "seed"), lambda d: _random_calabi(d.n, d.seed),
               lambda d: random_kaehler(d.n, d.seed)),
    "random_ke": ("randomke", ("n", "seed"), lambda d: _random_ke_calabi(d.n, d.seed),
                  lambda d: random_kaehler_einstein(d.n, d.seed)),
    "product": ("product", (), _product_calabi, lambda d: product([build(f) for f in d.factors])),
}
VARIANTS = tuple(KINDS)


def einstein_ricci(desc: SpaceDescriptor, h: np.ndarray) -> RicciData:
    """Ricci contraction of the real tensor whose Calabi matrix is h, the
    calabi_matrix of ``desc``: the Einstein test of the Kaehler--Einstein
    mode, at curvature.ricci's tolerance.  A random_ke space must pass it."""
    ric = ricci(tensor_from_calabi(h, FrameConvention(desc.complex_dim)))
    if desc.variant == "random_ke" and not ric.is_einstein:
        raise EinsteinProjectionError("projection finished but Einstein check failed")
    return ric


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


def quadric(n: int, scale: float = 1.0) -> AlgebraicCurvatureTensor:
    """Symmetric-space quadric, normalized by its largest Calabi eigenvalue
    (exactly 2 on the raw tensor) and multiplied by scale (scale=-1 gives
    the sign-flipped dual tensor)."""
    return _quadric_raw(n).scaled(scale / 2.0)


def quadric_spectrum(n: int, scale: float = 1.0) -> tuple[Spectrum, PositivityReport]:
    """Calabi spectrum of the quadric and its fractional test at k = n/2."""
    spec = eigensystem(calabi_matrix(SpaceDescriptor("quadric", n=n, c=scale)), source="calabi")
    return spec, k_test(spec, n / 2.0)


# ---------------------------------------------------------------------------
# seeded random tensors
# ---------------------------------------------------------------------------

def _rng(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def _random_hermitian(rng: np.random.Generator, m: int) -> np.ndarray:
    """GUE-style random Hermitian m x m matrix."""
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return (a + a.conj().T) / 2.0


def _random_calabi(n: int, seed: int) -> np.ndarray:
    """Calabi matrix of random_kaehler(n, seed)."""
    return _random_hermitian(_rng(seed, n, 0), n * (n + 1) // 2)


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
