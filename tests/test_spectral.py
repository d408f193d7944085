"""Hermitian eigensolver, fractional k tests, weight principle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calabi_lab.spectral import (
    ConvergenceFailure,
    NotHermitian,
    _phase_fix,
    eigensystem,
    k_test,
    weight_principle,
)
from request_reference import phase_fix_per_column


def random_hermitian(rng, m):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return a + a.conj().T


def test_eigensystem_identity_and_diag():
    np.testing.assert_allclose(eigensystem(np.eye(4)).eigenvalues, np.ones(4))
    np.testing.assert_allclose(eigensystem(np.diag([-1.0, 0.0, 2.0])).eigenvalues,
                               [-1.0, 0.0, 2.0])


def test_eigensystem_reconstruction_and_orthonormality():
    rng = np.random.default_rng(10)
    for m in (2, 5, 10, 13):
        h = random_hermitian(rng, m)
        s = eigensystem(h)
        u = s.eigenvectors
        assert np.max(np.abs(u.conj().T @ u - np.eye(m))) < 1e-10
        assert np.max(np.abs(u @ np.diag(s.eigenvalues) @ u.conj().T - h)) < 1e-10 * max(
            1.0, float(np.max(np.abs(h))))
        assert np.all(np.diff(s.eigenvalues) >= 0)


def test_eigensystem_degenerate_spectra():
    rng = np.random.default_rng(4)
    base = random_hermitian(rng, 4)
    h = np.kron(np.eye(3), base)
    s = eigensystem(h)
    np.testing.assert_allclose(s.eigenvalues, np.linalg.eigvalsh(h), atol=1e-10)


def test_eigensystem_deterministic():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 8)
    s1, s2 = eigensystem(h), eigensystem(h)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


@pytest.mark.parametrize("m", [3, 10, 36, 63])
def test_phase_fix_matches_per_column_reference(m):
    """The broadcast phase fix picks the per-column loop's pivot (the first
    entry of largest magnitude) in every column, makes it real and
    nonnegative, and agrees with the loop to 2 ulps of the unit columns;
    a zero column stays zero."""
    rng = np.random.default_rng(20 + m)
    _, vecs = np.linalg.eigh(random_hermitian(rng, m))
    tie = np.zeros((m, 3), dtype=complex)
    tie[:2, 0] = [0.6j, -0.6]        # two pivots of equal magnitude: the first wins
    tie[m - 1, 1] = -1.0 + 0.0j      # one nonzero entry, at the end
    for V in (vecs, np.concatenate([vecs[:, 1:], tie], axis=1)):
        got, want = _phase_fix(V), phase_fix_per_column(V)
        pivots = np.argmax(np.abs(V), axis=0)
        cols = np.arange(V.shape[1])
        assert np.array_equal(np.argmax(np.abs(got), axis=0), pivots)
        assert np.array_equal(np.argmax(np.abs(want), axis=0), pivots)
        assert np.all(got[pivots, cols].real >= 0.0)
        assert np.all(np.abs(got[pivots, cols].imag) <= 1e-16)
        assert np.max(np.abs(got - want)) <= 2 * np.finfo(float).eps
    assert np.array_equal(got[:, -1], np.zeros(m))
    assert got[:2, -3].tolist() == [0.6, 0.6j]


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        eigensystem(np.zeros((2, 3)))
    with pytest.raises(NotHermitian, match="empty 0 x 0"):
        eigensystem(np.zeros((0, 0)))


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 6), exponent=st.integers(-300, 300), seed=st.integers(0, 2 ** 32 - 1),
       with_unit_diagonal=st.booleans())
def test_eigensystem_matches_eigvalsh_at_every_scale(m, exponent, seed, with_unit_diagonal):
    """The prescaled solve against plain eigvalsh over scales 1e-300..1e300,
    also with a unit diagonal under entries of that scale (mixed magnitudes)."""
    h = 10.0 ** exponent * random_hermitian(np.random.default_rng(seed), m)
    if with_unit_diagonal:
        h = h + np.eye(m)
    got = eigensystem(h).eigenvalues
    want = np.linalg.eigvalsh(h)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-10 * float(np.max(np.abs(h)))


def test_eigensystem_overflow_regression():
    # the Frobenius norm of this matrix overflows at s = 1e160
    s = 1e160
    h = np.array([[s, s, 0.0], [s, 1.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(eigensystem(h).eigenvalues, np.linalg.eigvalsh(h), rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigensystem_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        eigensystem(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_eigensystem_convergence_cap(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 6)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        eigensystem(h)


@pytest.mark.parametrize("k,expected_sum,nonneg,positive", [
    (1, -1.0, False, False),
    (2, 0.0, True, False),
    (1.5, -0.5, False, False),
    (3, 1.0, True, True),
])
def test_k_test_examples(k, expected_sum, nonneg, positive):
    rep = k_test(np.array([-1.0, 1.0, 1.0]), k)
    assert abs(rep.partial_sum - expected_sum) < 1e-15
    assert rep.nonneg is nonneg
    assert rep.positive is positive


def test_k_test_boundary_and_errors():
    rep = k_test(np.array([1.0, 2.0]), 2)
    assert rep.partial_sum == 3.0
    with pytest.raises(ValueError):
        k_test(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        k_test(np.array([1.0]), 2.5)
    with pytest.raises(ValueError):
        k_test(np.array([1.0, 0.0]), 1)  # not ascending


def test_k_test_monotone_and_scale_covariant():
    rng = np.random.default_rng(3)
    for _ in range(300):
        vals = np.sort(rng.normal(size=6))
        ks = sorted(rng.uniform(1, 6, size=2))
        r1, r2 = k_test(vals, ks[0]), k_test(vals, ks[1])
        if r1.nonneg:
            assert r2.nonneg
        c = float(rng.uniform(0.1, 5.0))
        rs = k_test(c * vals, ks[0])
        assert abs(rs.partial_sum - c * r1.partial_sum) < 1e-10 * max(1, abs(r1.partial_sum))
        assert rs.nonneg == r1.nonneg and rs.positive == r1.positive


def test_weight_principle_certified_bound_holds():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(5000):
        m = int(rng.integers(2, 9))
        vals = np.sort(rng.normal(size=m))
        wmax = float(abs(rng.normal()) + 0.05)
        w = rng.uniform(0, wmax, size=m)
        tot = float(np.sum(w))
        if tot / wmax > m:
            continue
        kappa = -float(abs(rng.normal()))
        out = weight_principle(vals, w, tot, wmax, kappa)
        if out.certified:
            checked += 1
            assert float(w @ vals) >= out.lower_bound - 1e-9 * max(1.0, abs(out.lower_bound))
    assert checked > 100


def test_weight_principle_refuses_bad_weights():
    vals = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        weight_principle(vals, [2.0, 0.0, 0.0], 2.0, 1.0)  # w > max_weight
    with pytest.raises(ValueError):
        weight_principle(vals, [0.5, 0.5, 0.5], 2.0, 1.0)  # wrong total
    with pytest.raises(ValueError):
        weight_principle(vals, [0.5, 0.5, 0.5], 1.5, 1.0, kappa=0.5)  # kappa > 0


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
def test_weight_principle_tests_weights_at_their_own_scale(scale):
    """Weights that fail the range test at scale 1 fail it at every scale:
    a weight 500 times max_weight below 0 is refused however small it is."""
    vals = [-1.0, 0.5, 2.0]
    with pytest.raises(ValueError, match=r"weights must lie in \[0, max_weight\]"):
        weight_principle(vals, [-5e2 * scale, scale, scale], 2.0 * scale, scale)
    with pytest.raises(ValueError, match="weights must sum to total_weight"):
        weight_principle(vals, [0.5 * scale, scale, scale], 3.0 * scale, scale)
    out = weight_principle(vals, [scale, 0.5 * scale, 0.5 * scale], 2.0 * scale, scale)
    assert out.upsilon == 2.0 and out.partial_sum == -0.5


def test_weight_principle_refuses_failing_spectrum():
    # weights concentrate max weight on the lowest eigenvector and the
    # spectrum fails Upsilon-nonnegativity
    vals = np.array([-5.0, 0.1, 0.1])
    w = np.array([1.0, 0.5, 0.5])
    out = weight_principle(vals, w, 2.0, 1.0, kappa=0.0)
    assert not out.certified
    assert out.lower_bound is None



@pytest.mark.parametrize("s", [1e-310, 1e-320, 5e-324])
def test_eigensystem_at_subnormal_scale(s):
    """A matrix of subnormal size, whose reciprocal peak overflows, has s
    times the eigenvalues of its integer pattern, to within the rounding of
    its entries: (m + 1) / 2 subnormal spacings for an m x m matrix."""
    h0 = np.array([[2, 1 - 1j, 0], [1 + 1j, 3, 1], [0, 1, -1]])
    spacing = np.nextafter(0.0, 1.0)
    got = eigensystem(s * h0).eigenvalues
    want = s * np.linalg.eigvalsh(h0)
    assert np.all(np.abs(got - want) <= 2 * spacing)
