"""Eigenvalue-count thresholds and Hodge-number-vanishing certificates.

Thresholds:

* ``Upsilon_{p,q} = ((p+q)(n+1) - 2pq) / (2 + 4 min(p, q, sqrt(pq)/2))``
  certifies the curvature term on real primitive (p,q)+(q,p) forms from the
  Calabi spectrum;
* ``Gamma_{p,q} = (n(n^2-1)(p+q) - 2n(n-1)pq) / (n(n-1)(p+q) + (p-q)^2)``
  does the same from the restricted Kaehler spectrum of an Einstein tensor.

Gamma is exact (a Fraction).  Whenever the min-branch is rational (sqrt(pq)
integral, or the branch picks min(p,q)), Upsilon is the ratio of integers
``num b / (2b + 4a)``, for its numerator num and the branch a/b; Python's
int / int division rounds it correctly, so the float is the exact value
rounded once.  Only genuinely irrational square roots are evaluated in
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .spectral import Spectrum, k_test, partial_sum, sorted_eigenvalues

__all__ = [
    "ThresholdTable",
    "Certificate",
    "Verdict",
    "thresholds",
    "bidegrees",
    "upsilon",
    "upsilon_exact",
    "gamma",
    "upsilon_ge_half_n",
    "upsilon_min_holds",
    "gamma_reduction_violations",
    "certify_calabi",
    "certify_ke",
]

STRICTNESS_EPS = 1e-10


def _isqrt_exact(x: int) -> int | None:
    r = math.isqrt(x)
    return r if r * r == x else None


def _min_branch(p: int, q: int) -> tuple[tuple[int, int] | None, float]:
    """min(p, q, sqrt(pq)/2) as (exact value a/b as (a, b) with b > 0, or
    None, float value)."""
    if p == 0 or q == 0:
        return (0, 1), 0.0
    lo, hi = min(p, q), max(p, q)
    if hi >= 4 * lo:
        return (lo, 1), float(lo)
    root = _isqrt_exact(p * q)
    if root is not None:
        return (root, 2), root / 2.0
    return None, math.sqrt(p * q) / 2.0


def bidegrees(n: int) -> list[tuple[int, int]]:
    """The bidegrees (p, q) with 1 <= p + q <= n, p-major with q ascending."""
    return [(p, q) for p in range(n + 1) for q in range(n + 1 - p) if p + q >= 1]


def upsilon(n: int, p: int, q: int) -> float:
    exact, approx = _min_branch(p, q)
    num = (p + q) * (n + 1) - 2 * p * q
    if exact is not None:
        # num / (2 + 4 a/b), rounded once by the int / int division
        a, b = exact
        return num * b / (2 * b + 4 * a)
    return num / (2.0 + 4.0 * approx)


def upsilon_exact(n: int, p: int, q: int) -> Fraction | None:
    exact, _ = _min_branch(p, q)
    if exact is None:
        return None
    a, b = exact
    return Fraction(((p + q) * (n + 1) - 2 * p * q) * b, 2 * b + 4 * a)


def _gamma_terms(n: int, p: int, q: int) -> tuple[int, int]:
    """Gamma_{p,q} as an unreduced (numerator, denominator) with den > 0; the
    (p,p) closed form n+1-p covers the 0/0 cell at n=1."""
    if p == q:
        return n + 1 - p, 1
    num = n * (n * n - 1) * (p + q) - 2 * n * (n - 1) * p * q
    return num, n * (n - 1) * (p + q) + (p - q) ** 2


def gamma(n: int, p: int, q: int) -> Fraction:
    """Gamma_{p,q}, exactly."""
    return Fraction(*_gamma_terms(n, p, q))


def upsilon_ge_half_n(n: int, p: int, q: int) -> bool:
    """Exact test of Upsilon_{p,q} >= n/2 (integer arithmetic throughout)."""
    exact, _ = _min_branch(p, q)
    num = (p + q) * (n + 1) - 2 * p * q
    if exact is not None:
        # num / (2 + 4 a/b) >= n/2  <=>  2 num b >= n (2 b + 4 a), with b > 0
        a, b = exact
        return 2 * num * b >= n * (2 * b + 4 * a)
    # 2 num >= n (2 + 4 sqrt(pq)/2)  <=>  2 num - 2 n >= 2 n sqrt(pq)
    lhs = 2 * num - 2 * n
    if lhs < 0:
        return False
    return lhs * lhs >= 4 * n * n * p * q


def upsilon_min_holds(n: int) -> bool:
    """Upsilon_{p,q} >= n/2 for every 1 <= p + q <= n, exactly."""
    return all(upsilon_ge_half_n(n, p, q) for (p, q) in bidegrees(n))


def gamma_reduction_violations(n: int) -> list[tuple[int, int]]:
    """Pairs with 1 <= p+q <= n where Gamma_{p,q} < n/2 + 1 (exact)."""
    terms = {c: _gamma_terms(n, *c) for c in bidegrees(n)}
    # num/den < (n+2)/2  <=>  2 num < (n+2) den, with den > 0
    return [c for c, (num, den) in terms.items() if 2 * num < (n + 2) * den]


@dataclass(frozen=True)
class ThresholdTable:
    """Upsilon and Gamma for all bidegrees 0 <= p, q <= n, (p,q) != (0,0)."""

    n: int
    upsilons: dict[tuple[int, int], float]
    upsilons_exact: dict[tuple[int, int], Fraction | None]
    gammas: dict[tuple[int, int], Fraction]


def thresholds(n: int) -> ThresholdTable:
    if n < 1:
        raise ValueError("n must be >= 1")
    cells = [(p, q) for p in range(n + 1) for q in range(n + 1) if (p, q) != (0, 0)]
    return ThresholdTable(
        n=n,
        upsilons={c: upsilon(n, *c) for c in cells},
        upsilons_exact={c: upsilon_exact(n, *c) for c in cells},
        gammas={c: gamma(n, *c) for c in cells},
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    status: str                  # vanishes | parallel-only | not-certified
    k: float                     # threshold actually tested (clamped to m)
    partial_sum: float
    provenance: str              # direct | serre-dual

    @property
    def certified(self) -> bool:
        return self.status in ("vanishes", "parallel-only")


@dataclass(frozen=True)
class Certificate:
    """Per-bidegree vanishing verdicts from one operator spectrum."""

    mode: str                    # calabi | ke
    n: int
    eigenvalues: tuple[float, ...]
    verdicts: dict[tuple[int, int], Verdict]
    summary_certified: bool
    notes: dict = field(default_factory=dict)


def _status(total: float, eps_scale: float) -> str:
    if total > eps_scale:
        return "vanishes"
    if total >= -eps_scale:
        return "parallel-only"
    return "not-certified"


def _certify(mode: str, spec: Spectrum, n: int, threshold_of, eps: float) -> Certificate:
    # a negative margin would grant "vanishes" to a negative partial sum
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"strictness margin eps must be finite and >= 0, got {eps!r}")
    # the order is checked once here, so each bidegree's k-test is a bare
    # partial sum (thresholds are positive, and k is clamped to m), taken
    # once per distinct k: (q,p) and the cells clamped to m share it
    vals = sorted_eigenvalues(spec)
    m = len(vals)
    scale = float(np.max(np.abs(vals))) if m else 0.0
    eps_scale = eps * max(scale, 1e-300)

    at_k: dict[float, Verdict] = {}
    verdicts: dict[tuple[int, int], Verdict] = {}
    direct = bidegrees(n)
    for (p, q) in direct:
        k = min(float(threshold_of(p, q)), float(m))
        if k not in at_k:
            total = partial_sum(vals, k)
            at_k[k] = Verdict(_status(total, eps_scale), k, total, "direct")
        verdicts[(p, q)] = at_k[k]
    # Serre duality fills p+q > n from (n-p, n-q); (n,n) pairs with the
    # constants and is never subject to vanishing, so it gets no verdict
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q <= n or p + q > 2 * n - 1:
                continue
            src = verdicts[(n - p, n - q)]
            verdicts[(p, q)] = Verdict(src.status, src.k, src.partial_sum, "serre-dual")

    summary = all(verdicts[c].status == "vanishes" for c in direct)
    return Certificate(mode, n, tuple(vals.tolist()), verdicts, summary)


def certify_calabi(spec: Spectrum, n: int, eps: float = STRICTNESS_EPS) -> Certificate:
    """Verdicts from a Calabi spectrum via k-tests at Upsilon_{p,q}.

    The summary flag means every bidegree with 1 <= p+q <= n is strict, which
    is the rational-cohomology-of-projective-space certificate.
    """
    m = n * (n + 1) // 2
    if spec.size != m:
        raise ValueError(f"Calabi spectrum for n={n} must have size {m}, got {spec.size}")
    cert = _certify("calabi", spec, n, lambda p, q: upsilon(n, p, q), eps)
    half = k_test(spec, min(n / 2.0, float(m)))
    cert.notes.update({
        "half_n_partial_sum": half.partial_sum,
        "upsilon_min_exact": upsilon_min_holds(n),
    })
    return cert


def certify_ke(spec: Spectrum, n: int, eps: float = STRICTNESS_EPS) -> Certificate:
    """Verdicts from a restricted Kaehler (su(n)) spectrum via Gamma_{p,q}.

    The Einstein hypothesis is the caller's responsibility (restrict_su
    refuses non-Einstein input).  The (n/2+1)-nonnegativity shortcut is only
    recorded as implying the summary when the reduction inequality
    Gamma_{p,q} >= n/2 + 1 actually holds for every 1 <= p+q <= n; it fails
    for n <= 2 (for example Gamma_{2,0} = 3/2 at n = 2).
    """
    m = n * n - 1
    if spec.size != m:
        raise ValueError(f"su(n) spectrum for n={n} must have size {m}, got {spec.size}")
    cert = _certify("ke", spec, n, lambda p, q: gamma(n, p, q), eps)
    violations = gamma_reduction_violations(n)
    k_half = min(n / 2.0 + 1.0, float(m))
    shortcut = k_test(spec, k_half)
    cert.notes.update({
        "reduction_valid": not violations,
        "reduction_violations": violations,
        "half_plus_one_partial_sum": shortcut.partial_sum,
    })
    return cert
