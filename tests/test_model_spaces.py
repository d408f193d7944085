"""Model geometries: CHSC, the quadric, products, seeded random tensors."""

import math

import numpy as np
import pytest

from calabi_lab.curvature import (RicciData, calabi_block, calabi_from_tensor, ricci,
                                  tensor_from_calabi, validate_tensor)
from calabi_lab.frames import Z_BLOCK, FrameConvention, change_pairs, sym2_basis_labels
from calabi_lab.model_spaces import (
    EinsteinProjectionError,
    _calabi_matrix_from_hermitian,
    _quadric_raw,
    _random_calabi,
    _ricci_traceless_from_calabi,
    SpaceDescriptor,
    build,
    calabi_matrix,
    chsc,
    flat_torus,
    product,
    quadric,
    quadric_spectrum,
    random_kaehler,
    random_kaehler_einstein,
)


def test_chsc_scaling():
    t = chsc(3, 2.5)
    h = calabi_from_tensor(t).matrix
    np.testing.assert_allclose(h, 2.5 * np.eye(6), atol=1e-12)


def test_flat_torus_zero():
    t = flat_torus(2)
    assert np.max(np.abs(t.components)) == 0.0
    assert t.kaehler_validated


def _assert_validates(t):
    """Builder output, which carries its flags unchecked, passes an explicit
    validate_tensor with both flags and residuals within 1e-12 of the scale."""
    checked = validate_tensor(t.components, t.convention)
    assert checked.bianchi_validated and checked.kaehler_validated
    assert t.bianchi_validated and t.kaehler_validated
    scale = max(1.0, float(np.max(np.abs(t.components))))
    assert max(checked.residuals.values()) <= 1e-12 * scale


def test_all_model_outputs_validate():
    descs = [SpaceDescriptor("chsc", n=n, c=c) for c in (1.0, 0.5, -2.0) for n in range(1, 6)]
    descs += [SpaceDescriptor("quadric", n=n, c=c) for n in range(2, 9) for c in (1.0, -1.0)]
    descs += [
        SpaceDescriptor("flat", n=2),
        SpaceDescriptor("random", n=2, seed=4),
        SpaceDescriptor("random_ke", n=2, seed=4),
        SpaceDescriptor("product", factors=(
            SpaceDescriptor("chsc", n=1, c=1.0), SpaceDescriptor("flat", n=1))),
        SpaceDescriptor("product", factors=(
            SpaceDescriptor("quadric", n=2), SpaceDescriptor("random_ke", n=3, seed=1))),
    ]
    for desc in descs:
        t = build(desc)
        _assert_validates(t)
        assert t.convention.n == desc.complex_dim
    rng = np.random.default_rng(17)
    for n in range(1, 9):
        m = n * (n + 1) // 2
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        _assert_validates(tensor_from_calabi((a + a.conj().T) / 2.0, FrameConvention(n)))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SpaceDescriptor("nope", n=2).validate()
    with pytest.raises(ValueError):
        SpaceDescriptor("chsc", n=0).validate()
    with pytest.raises(ValueError):
        SpaceDescriptor("quadric", n=1).validate()
    with pytest.raises(ValueError):
        SpaceDescriptor("product").validate()


def test_quadric_spectrum_structure():
    # smallest eigenvalue: 0 at n=2 (product splitting), negative for n >= 3;
    # the n/2 partial sum is exactly zero after top-eigenvalue normalization
    for n in (2, 3, 4, 5, 6):
        spec, rep = quadric_spectrum(n)
        assert abs(spec.eigenvalues[-1] - 1.0) < 1e-12
        if n == 2:
            assert abs(spec.eigenvalues[0]) < 1e-12
        else:
            assert spec.eigenvalues[0] < -1e-6
        assert abs(rep.partial_sum) < 1e-10
        ric = ricci(quadric(n))
        assert ric.is_einstein and ric.einstein_lambda > 0


@pytest.mark.parametrize("n", range(2, 13))
def test_raw_quadric_calabi_matrix_is_closed_form(n):
    """The raw bracket tensor's Calabi matrix is 2 (I - d d^T / 2), d the
    indicator of the diagonal labels (a, a): its top eigenvalue is exactly 2,
    the normalization that quadric divides by, and calabi_matrix's quadric
    is the closed form over 2."""
    d = np.array([a == b for a, b in sym2_basis_labels(n)], dtype=float)
    want = 2.0 * (np.eye(len(d)) - 0.5 * np.outer(d, d))
    assert np.max(np.abs(calabi_from_tensor(_quadric_raw(n)).matrix - want)) <= 1e-14
    assert np.array_equal(calabi_matrix(SpaceDescriptor("quadric", n=n, c=3.0)), 1.5 * want)


def test_quadric_two_is_product_of_lines():
    sq = quadric_spectrum(2)[0].eigenvalues
    sp = calabi_from_tensor(product([chsc(1, 1.0), chsc(1, 1.0)])).spectrum().eigenvalues
    ratio = sp[-1] / sq[-1]
    assert ratio > 0
    np.testing.assert_allclose(sp, ratio * sq, atol=1e-9)


def test_quadric_scale_flip():
    spec, _ = quadric_spectrum(4, scale=-1.0)
    flipped = spec.eigenvalues
    base = quadric_spectrum(4)[0].eigenvalues
    np.testing.assert_allclose(flipped, np.sort(-base), atol=1e-12)


def test_quadric_refuses_a_non_finite_scale():
    """No NaN tensor comes back flagged as validated."""
    with pytest.raises(ValueError, match="finite"):
        quadric(3, float("nan"))


def test_product_kernel_dimension():
    # kernel >= n0 + sum_{i<j} n_i n_j for products with an n0-dim flat factor
    t = product([chsc(1, 1.0), chsc(1, 1.0), flat_torus(1)])
    vals = calabi_from_tensor(t).spectrum().eigenvalues
    n0, cross = 1, 1 * 1 + 1 * 1 + 1 * 1
    assert np.sum(np.abs(vals) < 1e-12) >= n0 + cross


def test_random_kaehler_seed_determinism():
    a = random_kaehler(3, 123)
    b = random_kaehler(3, 123)
    c = random_kaehler(3, 124)
    assert np.array_equal(a.components, b.components)
    assert not np.array_equal(a.components, c.components)


def test_random_ke_is_einstein():
    for n in (2, 3, 4):
        t = random_kaehler_einstein(n, 5)
        ric = ricci(t)
        assert ric.is_einstein
        resid = np.max(np.abs(ric.ricci - ric.einstein_lambda * np.eye(2 * n)))
        assert resid < 1e-10
        assert t.kaehler_validated


def test_random_ke_determinism():
    a = random_kaehler_einstein(2, 9)
    b = random_kaehler_einstein(2, 9)
    assert np.array_equal(a.components, b.components)


def test_random_ke_guards_raise_projection_errors(monkeypatch):
    from calabi_lab import model_spaces as ms

    # the projected tensor is still checked with the real Ricci contraction
    monkeypatch.setattr(ms, "ricci", lambda t: RicciData(np.eye(6), 6.0, None))
    with pytest.raises(EinsteinProjectionError, match="Einstein check failed"):
        random_kaehler_einstein(3, 9)


@pytest.mark.parametrize("n", range(2, 9))
def test_einstein_correction_scales_the_ricci_part_by_the_schur_constant(n):
    # the correction is U(n)-equivariant and the traceless Hermitian matrices
    # are irreducible, so its traceless Ricci part is (n + 2) / 2 times h
    rng = np.random.default_rng(40 + n)
    for _ in range(3):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (a + a.conj().T) / 2.0
        h -= (np.trace(h) / n) * np.eye(n)
        got = _ricci_traceless_from_calabi(_calabi_matrix_from_hermitian(h.conj()), n)
        want = (n + 2) / 2.0 * h
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _quadric_raw_loop(n):
    """Reference: <[X, Y], [Z, W]> = -tr([X, Y] [Z, W]) / 2 one index
    quadruple at a time, the loop that _quadric_raw contracts."""
    size, d = n + 2, 2 * n

    def gen(i, alpha):
        x = np.zeros((size, size))
        x[i, alpha] = 1.0
        x[alpha, i] = -1.0
        return x

    basis = [gen(0, a + 2) for a in range(n)] + [gen(1, a + 2) for a in range(n)]
    brackets = [[bi @ bj - bj @ bi for bj in basis] for bi in basis]
    r = np.zeros((d,) * 4)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                for l in range(k + 1, d):
                    val = -0.5 * float(np.trace(brackets[i][j] @ brackets[k][l]))
                    r[i, j, k, l] = val
                    r[j, i, k, l] = -val
                    r[i, j, l, k] = -val
                    r[j, i, l, k] = val
    return r


@pytest.mark.parametrize("n", range(2, 9))
def test_quadric_raw_matches_loop(n):
    t = _quadric_raw(n)
    assert np.array_equal(t.components, _quadric_raw_loop(n))
    checked = validate_tensor(t.components, t.convention)
    assert checked.kaehler_validated and max(checked.residuals.values()) == 0.0


def _ricci_traceless_block(t):
    """Reference: traceless Ric(Z_a, conj Z_b) - (scal/2n) delta_ab of a
    tensor, by the real Ricci contraction and a frame change."""
    h = change_pairs(ricci(t).ricci, (Z_BLOCK[:1], Z_BLOCK[1:]))
    return h - (np.trace(h) / t.n) * np.eye(t.n)


def _random_kaehler_einstein_on_tensors(n, seed, tol=1e-10, max_iter=200):
    """Reference: the Einstein projection run on the real tensor, rebuilding
    and revalidating it at every step."""
    t = random_kaehler(n, seed)
    conv = t.convention
    for _ in range(max_iter):
        h = _ricci_traceless_block(t)
        if float(np.max(np.abs(h))) <= tol:
            return t
        corr = tensor_from_calabi(_calabi_matrix_from_hermitian(h.conj()), conv)
        hc = _ricci_traceless_block(corr)
        alpha = float(np.real(np.sum(hc * h.conj()))) / float(np.sum(np.abs(h) ** 2))
        t = validate_tensor(t.components - corr.components / alpha, conv)
        assert t.kaehler_validated
    raise AssertionError("reference projection did not converge")


@pytest.mark.parametrize("n", range(2, 7))
def test_einstein_projection_on_the_matrix_matches_the_tensor_route(n):
    for seed in (0, 1, 2):
        got = random_kaehler_einstein(n, seed)
        ref = _random_kaehler_einstein_on_tensors(n, seed)
        assert got.kaehler_validated and ricci(got).is_einstein
        scale = max(1.0, float(np.max(np.abs(ref.components))))
        assert np.max(np.abs(got.components - ref.components)) <= 1e-13 * scale


@pytest.mark.parametrize("n", range(1, 7))
def test_ricci_block_from_the_calabi_matrix(n):
    # Ric(Z_a, conj Z_b) = -sum_c R(Z_a, conj Z_b, Z_c, conj Z_c), read off H,
    # against the real Ricci contraction of the tensor H builds
    for seed in (3, 4):
        h = _random_calabi(n, seed)
        t = tensor_from_calabi(h, FrameConvention(n))
        atol = 1e-13 * max(1.0, np.max(np.abs(h)))
        np.testing.assert_allclose(-np.einsum("abcc->ab", calabi_block(h, n)),
                                   change_pairs(ricci(t).ricci, (Z_BLOCK[:1], Z_BLOCK[1:])),
                                   rtol=0, atol=atol)
        np.testing.assert_allclose(_ricci_traceless_from_calabi(h, n), _ricci_traceless_block(t),
                                   rtol=0, atol=atol)
    # and on an Einstein tensor it vanishes
    ke = calabi_from_tensor(random_kaehler_einstein(max(n, 2), 7)).matrix
    assert np.max(np.abs(_ricci_traceless_from_calabi(ke, max(n, 2)))) <= 1e-10


def _calabi_matrix_from_hermitian_loop(h):
    """Reference: the matrix of S -> h Shat + Shat h^T, one unit hat at a time."""
    n = h.shape[0]
    hats = []
    for a, b in sym2_basis_labels(n):
        hat = np.zeros((n, n), dtype=complex)
        if a == b:
            hat[a - 1, a - 1] = 1.0
        else:
            hat[a - 1, b - 1] = hat[b - 1, a - 1] = 1.0 / math.sqrt(2.0)
        hats.append(hat)
    m = len(hats)
    out = np.zeros((m, m), dtype=complex)
    for nu in range(m):
        img = h @ hats[nu] + hats[nu] @ h.T
        for mu in range(m):
            out[mu, nu] = np.sum(img * hats[mu].conj())
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_calabi_matrix_from_hermitian_matches_loop(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # a random Hermitian matrix and the one the Einstein projection first sees
    for h in (a + a.conj().T, _ricci_traceless_block(random_kaehler(n, 5)).conj()):
        assert np.array_equal(_calabi_matrix_from_hermitian(h),
                              _calabi_matrix_from_hermitian_loop(h))
