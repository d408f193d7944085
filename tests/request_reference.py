"""The per-item loops that the certify and spectrum requests ran before they
became array operations, kept as references that only the tests use: the
per-column eigenvector phase fix, the Fraction-valued Upsilon, the per-cell
certificate, the per-k k-test ladder, the per-entry Calabi file reader and
the key-by-key report validation.  ``REFERENCE_LOOPS`` lists where each of
the first five plugs in.  The thresholds reach a
request through the cached per-(mode, n) plans of ``calabi_lab.certify``,
so the Fraction Upsilon takes effect only once ``clear_plans`` has emptied
them; the per-cell certificate reads nothing of its plan but the mode and n.
``space_to_spectrum_via_tensor`` and ``space_to_kaehler_su_via_tensor`` are
the routes that model-space requests took before they solved the Calabi
matrix directly; they agree with those routes to rounding, not to the
byte."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from calabi_lab import certify as ct
from calabi_lab import cli, spectral
from calabi_lab import curvature as cv
from calabi_lab import model_spaces as ms
from calabi_lab.certify import Certificate, Verdict, _status
from calabi_lab.spectral import k_test, partial_sum, sorted_eigenvalues


def phase_fix_per_column(V: np.ndarray) -> np.ndarray:
    out = V.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        if abs(col[i]) > 0:
            out[:, j] = col * (np.conj(col[i]) / abs(col[i]))
    return out


def upsilon_fraction(n: int, p: int, q: int) -> float:
    """Upsilon_{p,q} through Fraction arithmetic on the min-branch."""
    num = (p + q) * (n + 1) - 2 * p * q
    lo, hi = min(p, q), max(p, q)
    root = math.isqrt(p * q)
    if lo == 0:
        exact = Fraction(0)
    elif hi >= 4 * lo:
        exact = Fraction(lo)
    elif root * root == p * q:
        exact = Fraction(root, 2)
    else:
        return num / (2.0 + 4.0 * (math.sqrt(p * q) / 2.0))
    return float(Fraction(num) / (2 + 4 * exact))


def certify_per_cell(pl, spec, eps) -> Certificate:
    """``_certify`` with one threshold and one partial sum per bidegree, each
    threshold from ``ct.upsilon`` or ``ct.gamma`` and the notes from k-tests;
    of the plan ``pl`` it reads only the mode and n."""
    mode, n = pl.mode, pl.n
    threshold_of = ct.upsilon if mode == "calabi" else ct.gamma
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"strictness margin eps must be finite and >= 0, got {eps!r}")
    vals = sorted_eigenvalues(spec)
    m = len(vals)
    scale = float(np.max(np.abs(vals))) if m else 0.0
    eps_scale = eps * max(scale, 1e-300)

    verdicts = {}
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q < 1 or p + q > n:
                continue
            k = min(float(threshold_of(n, p, q)), float(m))
            total = partial_sum(vals, k)
            verdicts[(p, q)] = Verdict(_status(total, eps_scale), k, total, "direct")
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q <= n or p + q > 2 * n - 1:
                continue
            src = verdicts[(n - p, n - q)]
            verdicts[(p, q)] = Verdict(src.status, src.k, src.partial_sum, "serre-dual")

    summary = all(
        verdicts[(p, q)].status == "vanishes"
        for p in range(n + 1)
        for q in range(n + 1)
        if 1 <= p + q <= n
    )
    if mode == "calabi":
        notes = {"half_n_partial_sum": k_test(spec, min(n / 2.0, float(m))).partial_sum,
                 "upsilon_min_exact": ct.upsilon_min_holds(n)}
    else:
        violations = ct.gamma_reduction_violations(n)
        notes = {"reduction_valid": not violations, "reduction_violations": violations,
                 "half_plus_one_partial_sum": k_test(spec, min(n / 2.0 + 1.0, float(m))).partial_sum}
    return Certificate(mode, n, tuple(float(v) for v in vals), verdicts, summary, notes)


def ladder_k_tests(vals, ks) -> list[float]:
    """The rungs of the spectrum ladder as one full k-test each, which
    checks the order and k on every call."""
    return [k_test(vals, k).partial_sum for k in ks]


def clear_plans() -> None:
    """Empty the cached threshold values and certificate plans, so that the
    next request builds them again, from whatever ``ct.upsilon`` is then."""
    ct._threshold_values.cache_clear()
    ct.plan.cache_clear()


def calabi_matrix_per_entry(data: dict) -> np.ndarray:
    n = data["n"]
    m = n * (n + 1) // 2
    tri = data["hermitian"]
    if len(tri) != m * (m + 1) // 2:
        raise ValueError(
            f"hermitian upper triangle for n={n} needs {m * (m + 1) // 2} entries, got {len(tri)}")
    h = np.zeros((m, m), dtype=complex)
    it = enumerate(tri)
    for i in range(m):
        for j in range(i, m):
            pos, entry = next(it)
            re, im = cli._numbers(entry, 2, f"hermitian entry {pos} ([re, im] of ({i + 1}, {j + 1}))")
            h[i, j] = complex(re, im)
            h[j, i] = complex(re, -im)
    return h


def space_to_spectrum_via_tensor(space: ms.SpaceDescriptor):
    """``cli._space_to_spectrum`` for a space descriptor through the real
    (2n)^4 tensor: build it, then read the Calabi matrix back from it."""
    t = ms.build(space)
    return space.complex_dim, cv.calabi_from_tensor(t).spectrum(), space.variant


def space_to_kaehler_su_via_tensor(space: ms.SpaceDescriptor):
    """``cli._space_to_kaehler_su`` for a space descriptor through the real
    (2n)^4 tensor: build it, contract its Ricci tensor, read the Kaehler
    operator back from it and restrict that to su(n)."""
    t = ms.build(space)
    cli._require_su(t.n)
    ksu = cv.restrict_su(cv.kaehler_operator(t), cv.ricci(t))
    return t.n, ksu.spectrum(), space.variant


# (module, name, reference) for monkeypatch.setattr
REFERENCE_LOOPS = (
    (spectral, "_phase_fix", phase_fix_per_column),
    (ct, "upsilon", upsilon_fraction),
    (ct, "_certify", certify_per_cell),
    (cli, "partial_sums", ladder_k_tests),
    (cli, "_calabi_matrix_from_input", calabi_matrix_per_entry),
)


def validate_report_per_key(obj: dict) -> list[str]:
    """``report.validate_report`` as it tested every record key by key."""
    from calabi_lab.report import _REQUIRED_RECORD, _REQUIRED_TOP

    problems = []
    for key, typ in _REQUIRED_TOP.items():
        if key not in obj:
            problems.append(f"missing top-level key {key!r}")
        elif not isinstance(obj[key], typ):
            problems.append(f"key {key!r} has type {type(obj[key]).__name__}, wanted {typ.__name__}")
    for i, rec in enumerate(obj.get("records", [])):
        if not isinstance(rec, dict):
            problems.append(f"record {i} is not an object")
            continue
        for key, typ in _REQUIRED_RECORD.items():
            if key not in rec:
                problems.append(f"record {i} missing {key!r}")
            elif not isinstance(rec[key], typ):
                problems.append(f"record {i} key {key!r} has wrong type")
        if rec.get("status") not in ("pass", "fail", "info"):
            problems.append(f"record {i} has invalid status {rec.get('status')!r}")
    return problems
