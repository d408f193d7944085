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
from functools import lru_cache

import numpy as np

from .spectral import Spectrum, partial_sums, sorted_eigenvalues

__all__ = [
    "ThresholdTable",
    "Certificate",
    "Verdict",
    "Plan",
    "plan",
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


def _min_branch(p: int, q: int) -> tuple[int, int] | None:
    """min(p, q, sqrt(pq)/2) exactly, as a/b in the pair (a, b) with b > 0,
    or None when it is the irrational sqrt(pq)/2."""
    if p == 0 or q == 0:
        return 0, 1
    lo, hi = min(p, q), max(p, q)
    if hi >= 4 * lo:
        return lo, 1
    root = _isqrt_exact(p * q)
    return None if root is None else (root, 2)


def bidegrees(n: int) -> list[tuple[int, int]]:
    """The bidegrees (p, q) with 1 <= p + q <= n, p-major with q ascending."""
    return [(p, q) for p in range(n + 1) for q in range(n + 1 - p) if p + q >= 1]


def upsilon(n: int, p: int, q: int) -> float:
    exact = upsilon_exact(n, p, q)
    if exact is not None:
        return float(exact)  # the int / int division, rounded once
    return ((p + q) * (n + 1) - 2 * p * q) / (2.0 + 4.0 * (math.sqrt(p * q) / 2.0))


def upsilon_exact(n: int, p: int, q: int) -> Fraction | None:
    exact = _min_branch(p, q)
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
    exact = _min_branch(p, q)
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


@lru_cache(maxsize=None)
def _threshold_values(n: int) -> tuple[tuple, ...]:
    """The cells of ``thresholds(n)`` and their Upsilon, exact Upsilon and
    Gamma, as tuples in that order: the one source of both the threshold
    table and the certificate plans, built once per n."""
    cells = tuple((p, q) for p in range(n + 1) for q in range(n + 1) if (p, q) != (0, 0))
    return (cells, tuple(upsilon(n, *c) for c in cells),
            tuple(upsilon_exact(n, *c) for c in cells), tuple(gamma(n, *c) for c in cells))


def thresholds(n: int) -> ThresholdTable:
    if n < 1:
        raise ValueError("n must be >= 1")
    cells, ups, exact, gammas = _threshold_values(n)
    return ThresholdTable(n=n, upsilons=dict(zip(cells, ups)),
                          upsilons_exact=dict(zip(cells, exact)), gammas=dict(zip(cells, gammas)))


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


@dataclass(frozen=True)
class Plan:
    """What the certificates and spectrum ladders of one (mode, n) share: all
    that does not depend on the spectrum, the margin or the space.  Built
    once per (mode, n) by ``plan`` and shared, so it holds tuples only.

    ``ks`` are the distinct k = min(threshold, m) of the direct bidegrees,
    in the order they first occur; ``direct`` pairs each bidegree with
    1 <= p+q <= n, in bidegree order, with the index of its k; ``duals``
    lists each (p, q) with n < p+q <= 2n-1 with its Serre-dual source
    (n-p, n-q) and that source's k index.  ``note_k`` is the k of the
    mode's note (n/2, or n/2 + 1 for ke, clamped to m), and ``records`` the
    verdict cells in report order with their record names.  The calabi plan
    also holds the rungs of the spectrum ladder and their record names.
    """

    mode: str
    n: int
    m: int
    ks: tuple[float, ...]
    direct: tuple[tuple[tuple[int, int], int], ...]
    duals: tuple[tuple[tuple[int, int], tuple[int, int], int], ...]
    note_k: float
    records: tuple[tuple[tuple[int, int], str], ...]
    upsilon_min: bool | None
    violations: tuple[tuple[int, int], ...] | None
    ladder: tuple[float, ...] = ()
    ladder_names: tuple[str, ...] = ()


@lru_cache(maxsize=None)
def plan(mode: str, n: int) -> Plan:
    """The read-only ``Plan`` of the certificates of mode calabi (spectrum
    size n(n+1)/2, thresholds Upsilon) or ke (size n^2 - 1, thresholds
    Gamma) at complex dimension n, built on first use."""
    m = n * (n + 1) // 2 if mode == "calabi" else n * n - 1
    if n < 1 or m < 1:
        raise ValueError(f"no {mode} certificate at n={n}: its spectrum would be empty")
    cells, ups, _, gammas = _threshold_values(n)
    value = dict(zip(cells, ups if mode == "calabi" else gammas))
    ks: dict[float, int] = {}
    direct = []
    for c in bidegrees(n):
        k = min(float(value[c]), float(m))
        direct.append((c, ks.setdefault(k, len(ks))))
    slot = dict(direct)
    # Serre duality fills p+q > n from (n-p, n-q); (n,n) pairs with the
    # constants and is never subject to vanishing, so it gets no verdict
    duals = tuple(((p, q), (n - p, n - q), slot[(n - p, n - q)])
                  for p in range(n + 1) for q in range(n + 1) if n < p + q <= 2 * n - 1)
    records = tuple((c, f"verdict[{c[0]},{c[1]}]") for c in sorted([*slot, *(d[0] for d in duals)]))
    if mode == "calabi":
        rungs = {1.0, n / 2.0, n / 2.0 + 1.0, *(value[c] for c in slot)}
        # clamped before duplicates go: at n = 1, n/2 + 1 clamps onto k = 1
        ladder = tuple(sorted({min(k, float(m)) for k in rungs if k >= 1.0}))
        return Plan(mode, n, m, tuple(ks), tuple(direct), duals, min(n / 2.0, float(m)),
                    records, upsilon_min_holds(n), None,
                    ladder, tuple(f"k_test[{k:g}]" for k in ladder))
    return Plan(mode, n, m, tuple(ks), tuple(direct), duals, min(n / 2.0 + 1.0, float(m)),
                records, None, tuple(gamma_reduction_violations(n)))


def _status(total: float, eps_scale: float) -> str:
    if total > eps_scale:
        return "vanishes"
    if total >= -eps_scale:
        return "parallel-only"
    return "not-certified"


def _certify(pl: Plan, spec: Spectrum, eps: float) -> Certificate:
    """The certificate of spec under the plan pl, with the mode's notes."""
    # a negative margin would grant "vanishes" to a negative partial sum
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"strictness margin eps must be finite and >= 0, got {eps!r}")
    # the order is checked once here, so each k-test is a bare partial sum
    # (thresholds are positive, and k is clamped to m), taken once per
    # distinct k, the note's last
    vals = sorted_eigenvalues(spec)
    scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
    eps_scale = eps * max(scale, 1e-300)
    *totals, note = partial_sums(vals, (*pl.ks, pl.note_k))

    at_k = [Verdict(_status(t, eps_scale), k, t, "direct") for k, t in zip(pl.ks, totals)]
    verdicts = {c: at_k[i] for c, i in pl.direct}
    dual: dict[int, Verdict] = {}
    for c, _, i in pl.duals:
        if i not in dual:
            v = at_k[i]
            dual[i] = Verdict(v.status, v.k, v.partial_sum, "serre-dual")
        verdicts[c] = dual[i]
    summary = all(v.status == "vanishes" for v in at_k)
    if pl.mode == "calabi":
        notes = {"half_n_partial_sum": note, "upsilon_min_exact": pl.upsilon_min}
    else:
        notes = {"reduction_valid": not pl.violations,
                 "reduction_violations": list(pl.violations),
                 "half_plus_one_partial_sum": note}
    return Certificate(pl.mode, pl.n, tuple(vals.tolist()), verdicts, summary, notes)


def certify_calabi(spec: Spectrum, n: int, eps: float = STRICTNESS_EPS) -> Certificate:
    """Verdicts from a Calabi spectrum via k-tests at Upsilon_{p,q}.

    The summary flag means every bidegree with 1 <= p+q <= n is strict, which
    is the rational-cohomology-of-projective-space certificate.
    """
    m = n * (n + 1) // 2
    if spec.size != m:
        raise ValueError(f"Calabi spectrum for n={n} must have size {m}, got {spec.size}")
    return _certify(plan("calabi", n), spec, eps)


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
    return _certify(plan("ke", n), spec, eps)
