"""Algebraic curvature tensors and their induced operators.

Sign conventions are pinned by two anchors:

* the curvature operator on 2-vectors, ``g(F(X ^ Y), Z ^ W) = 2 R(X,Y,Z,W)``,
  is the identity for the round sphere, which forces
  ``sec(X, Y) = R(X, Y, X, Y)`` on orthonormal pairs;
* the Ricci contraction ``Ric_ij = sum_k R_kikj`` then makes constant
  positive holomorphic sectional curvature Einstein with positive constant.

Operator pairings:

* Calabi operator on sym^2 V^{1,0}: ``g(C(X(.)Y), conj Z (.) conj W) = 4 R(X, conj Z, conj W, Y)``;
* Kaehler operator on Lambda^{1,1}: ``g(K(X ^ conj Y), Z ^ conj W) = 2 R(X, conj Y, Z, conj W)``;
* tensor-square operators ``g(R1(X@Y), Z@W) = R(X,Y,Z,W)`` and
  ``g(R2(X@Y), Z@W) = R(X,Z,W,Y)``.

All operator matrices are taken in unit-norm bases, so the stored Hermitian
matrix is the matrix of the operator and its eigenvalues are the operator's.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CalabiLabError
from .frames import (E_BLOCK, Z_BLOCK, FrameConvention, _frozen, change_pairs, family_mats,
                     lambda11_basis_labels, sym2_basis_labels)
from .spectral import (NotHermitian, Spectrum, eigensystem, require_finite, require_hermitian,
                       unit_scaled)

__all__ = [
    "AlgebraicCurvatureTensor",
    "CurvatureOperatorMatrix",
    "RicciData",
    "SymmetryViolation",
    "NotKaehler",
    "NotHermitian",
    "NotEinstein",
    "validate_tensor",
    "calabi_from_tensor",
    "tensor_from_calabi",
    "calabi_block",
    "kaehler_operator",
    "kaehler_from_block",
    "restrict_su",
    "r1_r2_operators",
    "ricci",
    "random_riemannian",
    "random_riemannians",
    "inject_sign_bug",
]

DEFAULT_TOL = 1e-10  # relative to max|R|, in validate_tensor and ricci

# internal mutation hook for the non-vacuousness test: when enabled,
# calabi_from_tensor flips the sign of the (0, 0) entry of the assembled matrix
_SIGN_BUG = False


@contextlib.contextmanager
def inject_sign_bug():
    """Enable the internal sign-flip bug in calabi_from_tensor (tests only)."""
    global _SIGN_BUG
    _SIGN_BUG = True
    try:
        yield
    finally:
        _SIGN_BUG = False


class SymmetryViolation(CalabiLabError, ValueError):
    def __init__(self, identity: str, index: tuple[int, ...], residual: float):
        self.identity = identity
        self.index = index
        self.residual = residual
        super().__init__(f"{identity} violated at {index}: residual {residual:.3e}")


class NotKaehler(CalabiLabError, ValueError):
    pass


class NotEinstein(CalabiLabError, ValueError):
    pass


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

@dataclass
class AlgebraicCurvatureTensor:
    """Real curvature tensor R_ijkl on R^{2n} (0-based indices); its flags and
    residuals are measured by validate_tensor, or flags set by construction."""

    convention: FrameConvention
    components: np.ndarray
    bianchi_validated: bool
    kaehler_validated: bool
    residuals: dict[str, float] = field(default_factory=dict)
    _complexified: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.convention.n

    def complexified(self) -> np.ndarray:
        """Components over the Z-frame, R(W_A, W_B, W_C, W_D)."""
        if self._complexified is None:
            self._complexified = change_pairs(self.components, [Z_BLOCK] * 4)
        return self._complexified

    def scaled(self, c: float) -> "AlgebraicCurvatureTensor":
        """c R, keeping the flags (not the residuals); c must be finite."""
        if not math.isfinite(c):
            raise ValueError(f"scale factor must be a finite number, got {c!r}")
        return AlgebraicCurvatureTensor(
            self.convention, self.components * c,
            self.bianchi_validated, self.kaehler_validated)


def validate_tensor(components: np.ndarray, convention: FrameConvention) -> AlgebraicCurvatureTensor:
    """Validate pair symmetries (mandatory), Bianchi and Kaehler (flagged).

    Raises SymmetryViolation naming the identity and the worst index tuple
    when a pair symmetry fails; Bianchi and Kaehler failures only clear the
    corresponding flags.  Run where a tensor enters: file input,
    random_riemannian and verify's validator checks.
    """
    # C order, so that the (2, n) splits of the J check below are views
    r = np.ascontiguousarray(components, dtype=float)
    d = convention.dim
    if r.shape != (d,) * 4:
        raise SymmetryViolation("shape", r.shape, float("nan"))
    return _validate_stack(r[None], convention)[0]


def _validate_stack(r: np.ndarray, convention: FrameConvention) -> list[AlgebraicCurvatureTensor]:
    """``validate_tensor`` of each tensor of a C-ordered float ``(B, d, d, d,
    d)`` stack, with one pass of each identity over the whole stack; each
    tensor's residuals are maxima over its own entries, so they are those
    of ``validate_tensor`` on it alone.  The tensors hold their slices of the
    stack.  A pair-symmetry failure names the first failing tensor's worst
    index."""
    d, n = convention.dim, convention.n
    require_finite(r, "curvature tensor")
    # one work buffer holds each residual tensor in turn, then its absolute value
    buf = np.abs(r)
    count = len(r)
    scale = buf.reshape(count, -1).max(axis=1)
    residuals: dict[str, np.ndarray] = {}

    def worst() -> np.ndarray:
        return np.abs(buf, out=buf).reshape(count, -1).max(axis=1)

    for name, op, axes in (("antisymmetry_first_pair", np.add, (0, 2, 1, 3, 4)),
                           ("antisymmetry_second_pair", np.add, (0, 1, 2, 4, 3)),
                           ("pair_exchange", np.subtract, (0, 3, 4, 1, 2))):
        op(r, r.transpose(axes), out=buf)
        residuals[name] = worst()
        failed = np.nonzero(residuals[name] > DEFAULT_TOL * scale)[0]
        if len(failed):
            b = failed[0]
            idx = np.unravel_index(int(np.argmax(buf[b])), buf[b].shape)
            raise SymmetryViolation(name, tuple(int(i) for i in idx), float(residuals[name][b]))

    np.add(r, r.transpose(0, 2, 3, 1, 4), out=buf)
    np.add(buf, r.transpose(0, 3, 1, 2, 4), out=buf)
    residuals["bianchi"] = worst()
    bianchi_ok = residuals["bianchi"] <= DEFAULT_TOL * scale

    # J e_a = e_{a+n}, J e_{a+n} = -e_a on both slots of a pair: split each
    # slot as (2, n), swap its halves and negate where the two slots of the
    # pair land in different halves
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, :, None]
    pairs = {
        "kaehler_first_pair": (r.reshape(count, 2, n, 2, n, d * d), np.s_[:, ::-1, :, ::-1],
                               sign[..., None]),
        "kaehler_second_pair": (r.reshape(count, d * d, 2, n, 2, n), np.s_[:, :, ::-1, :, ::-1],
                                sign),
    }
    for name, (view, swap, signs) in pairs.items():
        out = buf.reshape(view.shape)
        np.multiply(view[swap], signs, out=out)
        np.subtract(out, view, out=out)
        residuals[name] = worst()
    kaehler_ok = bianchi_ok & (np.maximum(residuals["kaehler_first_pair"],
                                          residuals["kaehler_second_pair"]) <= DEFAULT_TOL * scale)
    return [AlgebraicCurvatureTensor(convention, r[b], bool(bianchi_ok[b]), bool(kaehler_ok[b]),
                                     {name: float(res[b]) for name, res in residuals.items()})
            for b in range(count)]


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureOperatorMatrix:
    """Hermitian matrix of an induced operator in a recorded unit-norm basis."""

    kind: str
    matrix: np.ndarray
    basis_labels: tuple

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> Spectrum:
        return eigensystem(self.matrix, source=self.kind)


@dataclass(frozen=True)
class RicciData:
    """Ricci matrix, scalar curvature, and the Einstein constant if present."""

    ricci: np.ndarray
    scal: float
    einstein_lambda: float | None

    @property
    def is_einstein(self) -> bool:
        return self.einstein_lambda is not None


@lru_cache(maxsize=None)
def _sym2_norms(n: int) -> np.ndarray:
    """c_ab with Z_a (.) Z_b = c_ab * (unit element); sqrt2 off-diagonal, 2 diagonal."""
    c = np.full((n, n), math.sqrt(2.0))
    np.fill_diagonal(c, 2.0)
    return _frozen(c)[0]


@lru_cache(maxsize=None)
def _sym2_pair_index(n: int) -> np.ndarray:
    pid = np.zeros((n, n), dtype=int)
    for nu, (a, b) in enumerate(sym2_basis_labels(n)):
        pid[a - 1, b - 1] = pid[b - 1, a - 1] = nu
    return _frozen(pid)[0]


def calabi_from_tensor(t: AlgebraicCurvatureTensor) -> CurvatureOperatorMatrix:
    """Calabi operator matrix in the unit basis {Z_a(.)Z_b/sqrt2 (a<b), Z_a(x)Z_a}."""
    if not t.kaehler_validated:
        raise NotKaehler("calabi_from_tensor requires a validated Kaehler tensor")
    n = t.n
    # rz[a, c, d, b] = R(Z_a, conj Z_c, conj Z_d, Z_b)
    z, zbar = Z_BLOCK[:1], Z_BLOCK[1:]
    rz = change_pairs(t.components, (z, zbar, zbar, z))
    labels = sym2_basis_labels(n)
    # h[mu, nu] = 4 R(Z_a, conj Z_c, conj Z_d, Z_b) / (c_ab c_cd), nu = (a, b), mu = (c, d)
    a, b = (np.array(labels) - 1).T
    cab = _sym2_norms(n)[a, b]
    with np.errstate(over="ignore", invalid="ignore"):
        h = 4.0 * rz[a[None, :], a[:, None], b[:, None], b[None, :]] / (
            cab[None, :] * cab[:, None])
    if not np.all(np.isfinite(h)):
        raise ValueError(f"the Calabi matrix overflows float64 (curvature tensor entries up "
                         f"to {float(np.max(np.abs(t.components))):.3g} in magnitude)")
    if _SIGN_BUG:
        h[0, 0] = -h[0, 0]
    return CurvatureOperatorMatrix("calabi", h, labels)


# R = Re sum_sigma sign(sigma) coef_sigma (x) qm_sigma over the pair swaps
# sigma in {id, swap slots 1,2} x {id, swap slots 3,4}: qm_sigma is the
# (Z, conj Z, Z, conj Z) block with its slots permuted by sigma, and coef_sigma
# the matching product of columns of E_BLOCK, in the layout (h1, h2, h3, h4)
_SWAP_AXES = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2))
_SWAP_COEF = np.stack([
    sign * np.einsum("i,j,k,l->ijkl", *(E_BLOCK[:, slot] for slot in slots)).reshape(16)
    for sign, slots in ((1.0, (0, 1, 0, 1)), (-1.0, (1, 0, 0, 1)),
                        (-1.0, (0, 1, 1, 0)), (1.0, (1, 0, 1, 0)))], axis=1)


def calabi_block(h: np.ndarray, n: int) -> np.ndarray:
    """qm[a, b, c, d] = R(Z_a, conj Z_b, Z_c, conj Z_d) of the Kaehler tensor
    whose Calabi matrix (unit sym^2 basis) is h; linear in h."""
    pid = _sym2_pair_index(n)
    c = _sym2_norms(n)
    # R(Z_a, conj Z_c, conj Z_d, Z_b) = c_ab c_cd h[(c, d), (a, b)] / 4, and
    # qm[a, b, c, d] = -R(Z_a, conj Z_b, conj Z_d, Z_c)
    return -(c[:, None, :, None] * c[None, :, None, :] / 4.0) * h[
        pid[None, :, None, :], pid[:, None, :, None]]


def tensor_from_calabi(matrix: np.ndarray | CurvatureOperatorMatrix,
                       convention: FrameConvention) -> AlgebraicCurvatureTensor:
    """The unique Kaehler curvature tensor whose Calabi operator is the given
    Hermitian matrix (the Calabi--Vesentini correspondence).

    The (m, m) matrix must pass require_hermitian; the (Z, conj Z, Z, conj Z)
    block is read off its Hermitian part.  Its four pair swaps, mapped to the
    real frame by columns of E_BLOCK, give the whole real tensor, Kaehler with
    Bianchi by construction, as one (16, 4) x (4, n^4) product and one
    transpose from (h1, h2, h3, h4, a, b, c, d) to (h1, a, h2, b, h3, c, h4, d).
    """
    h = matrix.matrix if isinstance(matrix, CurvatureOperatorMatrix) else np.asarray(matrix, dtype=complex)
    n = convention.n
    m = n * (n + 1) // 2
    if h.shape != (m, m):
        raise NotHermitian(f"expected a {m}x{m} matrix for n={n}, got {h.shape}")
    require_hermitian(h, "Calabi matrix")
    # halves first: 0.5 * (h + h^H) would overflow near the float64 limit
    qm = calabi_block(0.5 * h + 0.5 * h.conj().T, n)
    swaps = np.stack([qm.transpose(axes) for axes in _SWAP_AXES]).reshape(4, n ** 4)
    re = (_SWAP_COEF @ swaps).real.reshape((2, 2, 2, 2) + (n,) * 4)
    r = np.ascontiguousarray(re.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape((2 * n,) * 4))
    return AlgebraicCurvatureTensor(convention, r, True, True)


def kaehler_operator(t: AlgebraicCurvatureTensor) -> CurvatureOperatorMatrix:
    """Kaehler operator matrix in the unit basis {Z_a ^ conj(Z_b)/sqrt2}."""
    if not t.kaehler_validated:
        raise NotKaehler("kaehler_operator requires a validated Kaehler tensor")
    z, zbar = Z_BLOCK[:1], Z_BLOCK[1:]
    return kaehler_from_block(change_pairs(t.components, (z, zbar, z, zbar)))


def kaehler_from_block(qm: np.ndarray) -> CurvatureOperatorMatrix:
    """Kaehler operator matrix in the unit basis {Z_a ^ conj(Z_b)/sqrt2} from
    the block qm[a, b, c, d] = R(Z_a, conj Z_b, Z_c, conj Z_d), read off a
    tensor (kaehler_operator) or a Calabi matrix (calabi_block)."""
    n = qm.shape[0]
    return CurvatureOperatorMatrix("kaehler", -qm.transpose(3, 2, 0, 1).reshape(n * n, n * n),
                                   lambda11_basis_labels(n))


def omega_coords(n: int) -> np.ndarray:
    """Unit-norm coordinates of the Kaehler direction in the Lambda^{1,1} basis
    (row-major in (a, b), so the pairs (a, a) are the diagonal of an n x n grid)."""
    return np.eye(n, dtype=complex).ravel() * (1.0j / math.sqrt(n))


@lru_cache(maxsize=None)
def su_complement(n: int) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of the Kaehler
    direction: the last n^2 - 1 columns of one QR of [w | I] (read-only)."""
    w = omega_coords(n)
    m = n * n
    q, _ = np.linalg.qr(np.column_stack([w, np.eye(m)]))
    b = q[:, 1:m]
    return _frozen(b)[0]


def restrict_su(k_op: CurvatureOperatorMatrix, ric: RicciData) -> CurvatureOperatorMatrix:
    """Restriction of the Kaehler operator to the complement of the Kaehler form.

    Requires an Einstein tensor; the Kaehler direction is then an eigenvector
    with eigenvalue lambda and the restriction is well defined.
    """
    if k_op.kind != "kaehler":
        raise NotKaehler("restrict_su expects a Kaehler operator matrix")
    if not ric.is_einstein:
        raise NotEinstein("restriction to su(n) requires an Einstein tensor")
    m = k_op.dim
    n = int(round(math.sqrt(m)))
    w = omega_coords(n)
    lam = ric.einstein_lambda
    # taken relative to the largest entry, so that the norm's squares stay in range
    peak = float(np.max(np.abs(k_op.matrix)))
    scale = max(peak, abs(lam)) or 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        resid = scale * float(np.linalg.norm(unit_scaled(k_op.matrix, scale) @ w
                                             - lam / scale * w))
    if not math.isfinite(resid):
        raise ValueError(f"the Einstein residual overflows float64 (Kaehler operator entries "
                         f"up to {peak:.3g} in magnitude)")
    if resid > 1e-8 * scale:
        raise NotEinstein(f"Kaehler form is not an eigenvector (residual {resid:.3e})")
    b = su_complement(n)
    return CurvatureOperatorMatrix(
        "kaehler_su", b.conj().T @ k_op.matrix @ b, tuple(range(m - 1)))


R1_SLOTS, R2_SLOTS = (0, 1), (0, 3)  # the slots of R that Xi_b fills, in _tensor_square


def _tensor_square(r: np.ndarray, mats: np.ndarray, slots: tuple[int, int]) -> np.ndarray:
    """Matrix g(Op Xi_b, Xi_a) of R1 (R1_SLOTS) or R2 (R2_SLOTS) for the real
    elements Xi of ``mats``, read as tensors T^{ac} = M[c, a]: for R2,
    sum_{ij} T_b^{ij} r[i,k,l,j] -> [b,k,l], then against T_a^{kl}."""
    coords = mats.transpose(0, 2, 1)
    mid = np.tensordot(coords, r, axes=((1, 2), slots))
    return np.tensordot(coords, mid, axes=((1, 2), (1, 2)))


def r1_r2_operators(t: AlgebraicCurvatureTensor) -> tuple[CurvatureOperatorMatrix, CurvatureOperatorMatrix]:
    """R1 restricted to Lambda^2 V and R2 restricted to sym^2 V over the unit
    bases of the ``so`` and ``sym2_real`` families, e_i ^ e_j / sqrt2 (i < j)
    and e_i (.) e_j / sqrt2, e_i (x) e_i (i <= j), in np.triu_indices order."""
    ops = []
    for kind, tag, slots, offset in (("r1_lambda2", "so", R1_SLOTS, 1),
                                     ("r2_sym2", "sym2_real", R2_SLOTS, 0)):
        i, j = np.triu_indices(t.convention.dim, offset)
        labels = tuple(zip((i + 1).tolist(), (j + 1).tolist()))
        ops.append(CurvatureOperatorMatrix(
            kind, _tensor_square(t.components, family_mats(t.n, tag), slots), labels))
    return tuple(ops)


def ricci(t: AlgebraicCurvatureTensor) -> RicciData:
    """Ricci contraction Ric_ij = sum_k R_kikj and Einstein detection, at
    DEFAULT_TOL relative to max|R|, so that a Ricci-flat tensor is Einstein."""
    with np.errstate(over="ignore", invalid="ignore"):
        ric = np.einsum("kikj->ij", t.components)
        scal = float(np.trace(ric))
        lam = scal / t.convention.dim
        resid = float(np.max(np.abs(ric - lam * np.eye(t.convention.dim))))
    if not math.isfinite(resid):
        raise ValueError(f"the Ricci tensor overflows float64 (curvature tensor entries up "
                         f"to {float(np.max(np.abs(t.components))):.3g} in magnitude)")
    einstein = lam if resid <= DEFAULT_TOL * float(np.max(np.abs(t.components))) else None
    return RicciData(ric, scal, einstein)


# ---------------------------------------------------------------------------
# random Riemannian tensors (general, non-Kaehler)
# ---------------------------------------------------------------------------

def random_riemannian(convention: FrameConvention, seed) -> AlgebraicCurvatureTensor:
    """Random validated algebraic curvature tensor (Bianchi, not Kaehler).

    A symmetric operator on Lambda^2 gives a tensor with the pair symmetries;
    removing its full antisymmetrization (the Lambda^4 part) enforces Bianchi.
    """
    return random_riemannians(convention, [seed])[0]


def random_riemannians(convention: FrameConvention, seeds) -> list[AlgebraicCurvatureTensor]:
    """``random_riemannian`` of each seed, built and validated as one stack."""
    d = convention.dim
    i, j = np.triu_indices(d, 1)
    m = np.array([np.random.default_rng(seed).normal(size=(len(i), len(i))) for seed in seeds])
    m = 0.5 * (m + m.transpose(0, 2, 1))
    # r[i, j, k, l] = m[mu, nu] for the pairs nu = (i, j), mu = (k, l), i < j,
    # k < l, and antisymmetric in each pair, on the (i d + j, k d + l) grid
    ij, ji = (i * d + j)[:, None], (j * d + i)[:, None]
    mt = m.transpose(0, 2, 1)
    r = np.zeros((len(m), d * d, d * d))
    r[:, ij, ij.T] = mt
    r[:, ji, ij.T] = -mt
    r[:, ij, ji.T] = -mt
    r[:, ji, ji.T] = mt
    r = r.reshape((len(m),) + (d,) * 4)
    # r minus (r + r^(1,2,0,3) + r^(2,0,1,3)) / 3, in one work stack
    out = r + r.transpose(0, 2, 3, 1, 4)
    out += r.transpose(0, 3, 1, 2, 4)
    out /= 3.0
    np.subtract(r, out, out=out)
    del r, m, mt
    return _validate_stack(out, convention)
