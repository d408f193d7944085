"""Hermitian eigendecomposition, fractional k-positivity tests, and the
weight principle for weighted eigenvalue sums.

The eigensolver is LAPACK's Hermitian driver (numpy.linalg.eigh) on the
matrix prescaled by the power of two 2^e >= max|H|, so that scaling in and
out is exact.  Eigenvalues come out ascending, and each
eigenvector column is phase-fixed so its largest-magnitude entry (the first
one, on a tie) is real positive: one argmax over |V| picks every column's
pivot and one broadcast multiply applies the phases.  With BLAS pinned to
one thread the output is byte-deterministic.  Its input test,
require_hermitian, is also curvature.tensor_from_calabi's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CalabiLabError

__all__ = [
    "Spectrum",
    "PositivityReport",
    "WeightBound",
    "NotHermitian",
    "ConvergenceFailure",
    "eigensystem",
    "sorted_eigenvalues",
    "partial_sum",
    "partial_sums",
    "k_test",
    "weight_principle",
]

HERMITIAN_TOL = 1e-10  # relative to max|H|, in require_hermitian
WEIGHT_TOL = 1e-9  # weight_principle's test of its weights, relative


class NotHermitian(CalabiLabError, ValueError):
    pass


class ConvergenceFailure(CalabiLabError, RuntimeError):
    pass


@dataclass(frozen=True)
class Spectrum:
    """Sorted real eigenvalues (ascending) with a unitary eigenvector matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: str = ""

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class PositivityReport:
    """Fractional-k partial sum test of a sorted spectrum."""

    k: float
    partial_sum: float
    nonneg: bool
    positive: bool


@dataclass(frozen=True)
class WeightBound:
    """Outcome of the weight principle."""

    certified: bool
    lower_bound: float | None
    upsilon: float
    partial_sum: float


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition
# ---------------------------------------------------------------------------

def require_finite(arr: np.ndarray, what: str) -> None:
    """Raise ValueError when arr holds a NaN or an infinite entry."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries (NaN or infinity)")


def require_hermitian(H: np.ndarray, what: str) -> float:
    """max|H| of a nonempty, finite, square H within HERMITIAN_TOL of its
    conjugate transpose; NotHermitian (ValueError if non-finite) otherwise."""
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {H.shape}")
    if H.size == 0:
        raise NotHermitian("expected a nonempty matrix, got the empty 0 x 0 matrix")
    require_finite(H, what)
    peak = float(np.max(np.abs(H)))
    if np.max(np.abs(H - H.conj().T)) > HERMITIAN_TOL * peak:
        raise NotHermitian(f"{what} must be Hermitian within tolerance")
    return peak


def eigensystem(H: np.ndarray, source: str = "") -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix by LAPACK (numpy eigh).

    The solve runs on H / 2^e with 2^e >= max|H| (e at most 1023), so that no
    norm overflows or underflows at any finite scale; dividing by a power of
    two and multiplying back is exact, so c * Id has the eigenvalue c.
    """
    H = np.asarray(H, dtype=complex)
    peak = require_hermitian(H, "matrix")
    unit = math.ldexp(1.0, min(math.frexp(peak)[1], 1023))
    A = unit_scaled(H, unit)
    A = 0.5 * (A + A.conj().T)
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"Hermitian eigensolve did not converge (LAPACK: {exc})") from None
    with np.errstate(over="ignore"):
        vals = unit * vals
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"the eigenvalues overflow float64 (matrix entries up to "
                         f"{peak:.3g} in magnitude)")
    return Spectrum(vals, _phase_fix(vecs), source)


def unit_scaled(H: np.ndarray, unit: float) -> np.ndarray:
    """H / unit for a real unit > 0.  numpy divides a complex H through 1/unit,
    which overflows below 2^-1024; only then are both first multiplied by the
    exact power of two 2^600, so every other quotient keeps numpy's bits."""
    if math.isinf(1.0 / unit):
        H, unit = H * 2.0 ** 600, unit * 2.0 ** 600
    return H / unit


def _phase_fix(V: np.ndarray) -> np.ndarray:
    """V with each column multiplied by the phase that makes its pivot, the
    first entry of largest magnitude, real positive; a zero column stays."""
    cols = np.arange(V.shape[1])
    mag = np.abs(V)
    rows = np.argmax(mag, axis=0)
    size = mag[rows, cols]
    phase = np.ones(V.shape[1], dtype=V.dtype)
    np.divide(np.conj(V[rows, cols]), size, out=phase, where=size > 0)
    return V * phase


# ---------------------------------------------------------------------------
# fractional k tests and the weight principle
# ---------------------------------------------------------------------------

def sorted_eigenvalues(s: Spectrum | Sequence[float] | np.ndarray) -> np.ndarray:
    """The eigenvalues of s as an array; ValueError unless they ascend."""
    vals = s.eigenvalues if isinstance(s, Spectrum) else np.asarray(s, dtype=float)
    if np.any(np.diff(vals) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    return vals


def partial_sum(vals: np.ndarray, k: float) -> float:
    """lambda_1 + .. + lambda_floor(k) + (k - floor(k)) lambda_{floor(k)+1}.

    vals must already be sorted ascending (see sorted_eigenvalues) and
    0 < k <= len(vals); neither is checked here.  A sum beyond the float64
    range raises ValueError.
    """
    return partial_sums(vals, (k,))[0]


def partial_sums(vals: np.ndarray, ks: Sequence[float]) -> list[float]:
    """``partial_sum`` at each k of ks, under one errstate; a sum beyond the
    float64 range raises ValueError at the first such k.  Each head goes to
    np.add.reduce, the reduction np.sum makes, without np.sum's dispatch."""
    totals = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in ks:
            whole = int(math.floor(k))
            frac = k - whole
            total = float(np.add.reduce(vals[:whole]))
            if whole < len(vals) and frac > 0:
                total += frac * float(vals[whole])
            if not math.isfinite(total):
                raise ValueError(f"the partial sum at k = {k:g} overflows float64 (eigenvalues "
                                 f"up to {float(np.max(np.abs(vals))):.3g} in magnitude)")
            totals.append(total)
    return totals


def k_test(s: Spectrum | Sequence[float], k: float) -> PositivityReport:
    """Partial sum lambda_1 + .. + lambda_floor(k) + (k - floor(k)) lambda_{floor(k)+1}.

    k may be fractional; at the boundary floor(k) == m the fractional term is 0.
    """
    vals = sorted_eigenvalues(s)
    m = len(vals)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > m + 1e-12:
        raise ValueError(f"k = {k} exceeds the number of eigenvalues {m}")
    k = min(float(k), float(m))
    total = partial_sum(vals, k)
    return PositivityReport(
        k=k,
        partial_sum=total,
        nonneg=total >= 0.0,
        positive=total > 0.0,
    )


def weight_principle(s: Spectrum | Sequence[float], weights: Sequence[float],
                     total_weight: float, max_weight: float,
                     kappa: float = 0.0) -> WeightBound:
    """Certified lower bound on sum_nu w_nu lambda_nu.

    Requires 0 <= w_nu <= max_weight, sum w_nu = total_weight, kappa <= 0 and
    Upsilon := total_weight / max_weight <= m.  If the spectrum's fractional
    partial sum at Upsilon is >= kappa * Upsilon, the weighted sum is
    certified to be >= kappa * total_weight.
    """
    vals = sorted_eigenvalues(s)
    w = np.asarray(weights, dtype=float)
    if len(w) != len(vals):
        raise ValueError("one weight per eigenvalue required")
    if kappa > 0:
        raise ValueError("kappa must be <= 0")
    if max_weight <= 0:
        raise ValueError("max_weight must be positive")
    # tested at the weights' own scale, so that scaling them changes no outcome
    slack = WEIGHT_TOL * max_weight
    if np.any(w < -slack) or np.any(w > max_weight + slack):
        raise ValueError("weights must lie in [0, max_weight]")
    if abs(float(np.sum(w)) - total_weight) > WEIGHT_TOL * abs(total_weight):
        raise ValueError("weights must sum to total_weight")
    upsilon = total_weight / max_weight
    if upsilon > len(vals) + 1e-9:
        raise ValueError("total_weight / max_weight exceeds the spectrum size")
    report = k_test(vals, min(upsilon, float(len(vals))))
    if report.partial_sum >= kappa * upsilon:
        return WeightBound(True, kappa * total_weight, upsilon, report.partial_sum)
    return WeightBound(False, None, upsilon, report.partial_sum)

