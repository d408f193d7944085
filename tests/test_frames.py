"""Frame conventions, (p,q)-forms, Lefschetz machinery."""

import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from calabi_lab.frames import (
    E_BLOCK,
    Z_BLOCK,
    EndoC,
    FormPQ,
    FrameConvention,
    FrameError,
    RealForm,
    dense_conj,
    dense_e_to_z,
    dense_z_to_e,
    _CROSS,
    _STAY,
    _conjugation,
    _coords,
    _frozen,
    _generators,
    _pair_mixing,
    _contract_pairs,
    _lefschetz_table,
    _primitive_part,
    _subset_rank,
    _subsets,
    _z_layout,
    apply_derivation,
    change_pairs,
    family_mats,
    family_table,
    kaehler_bivector,
    lefschetz_adjoint,
    project_primitive,
)
from calabi_lab.weitzenboeck import estimate_bound, norm_phi_g, norm_phi_g_batch, phi_g
from dense_reference import (_perm_sign, act_dense, derivation_coords, evaluate_form, removal,
                             sandwich, wedge_dense)

RNG = np.random.default_rng(2024)


def _keys(n, p, q):
    """Reference: the multi-indices (I, J), 1-based, of the (p,q) generators,
    I-major in combinations order."""
    return [(I, J) for I in itertools.combinations(range(1, n + 1), p)
            for J in itertools.combinations(range(1, n + 1), q)]


def _size(n, p, q):
    return math.comb(n, p) * math.comb(n, q)


def _interleave_sign(I, J):
    """Reference: (-1)^#{(i, j) in I x J : j < i}."""
    return -1 if sum(1 for i in I for j in J if j < i) % 2 else 1


def _base(n, I, J):
    """Reference: the complexified frame indices (0-based) of Z^(I, J)."""
    return tuple(i - 1 for i in I) + tuple(n + j - 1 for j in J)


def random_form(conv, p, q, rng=RNG):
    """Complex Gaussian coefficients, drawn as (re, im) pairs in generator order."""
    raw = rng.standard_normal((_size(conv.n, p, q), 2))
    return FormPQ.from_coefficient_vector(conv, p, q, raw[:, 0] + 1j * raw[:, 1])


def _kaehler_form(conv):
    """omega = i sqrt2 sum_a Z^(a, a): the diagonal of the (I, J) grid."""
    return FormPQ.from_coefficient_vector(conv, 1, 1, 1j * math.sqrt(2) * np.eye(conv.n).ravel())


def _act(endo, phi):
    """Z-frame exterior coordinates of the derivation action of endo on phi."""
    return derivation_coords(endo.matrix[None], phi.coords("z")[None], phi.degree)[0, 0]


def _bidegree_mask(n, p, q):
    """The Z-frame exterior coordinates of degree p + q that (p,q)-forms use."""
    mask = np.zeros(math.comb(2 * n, p + q), dtype=bool)
    mask[_z_layout(n, p, q)[0]] = True
    return mask


def test_frame_duality():
    conv = FrameConvention(3)
    p = conv.frame_change
    gram = p.T @ p  # bilinear Gram matrix of the complex frame
    expect = np.zeros((6, 6))
    expect[:3, 3:] = np.eye(3)
    expect[3:, :3] = np.eye(3)
    np.testing.assert_allclose(gram, expect, atol=1e-15)
    # J^2 = -Id and compatibility are baked into the frame: e and Je columns
    for a in range(1, 4):
        np.testing.assert_allclose(conv.e(a), (conv.z(a) + conv.zbar(a)) / math.sqrt(2), atol=1e-15)


def test_norm_conventions():
    conv = FrameConvention(2)
    e1 = np.zeros(4)
    e1[0] = 1.0
    e2 = np.zeros(4)
    e2[1] = 1.0
    wedge = wedge_dense(e1, e2)
    assert abs(np.sum(wedge ** 2) - 2.0) < 1e-14
    # |e1 ^ e2 ^ e3|^2 = 3!
    e3 = np.zeros(4)
    e3[2] = 1.0
    triple = wedge_dense(wedge, e3)
    assert abs(np.sum(triple ** 2) - 6.0) < 1e-13


def test_generator_is_unit_and_monomial_norm_is_factorial():
    conv = FrameConvention(3)
    g = FormPQ.generator(conv, (1, 2), (1,))
    assert abs(g.norm_sq() - 1.0) < 1e-14
    dense = g.to_dense()
    assert abs(np.sum(np.abs(dense) ** 2) - 1.0) < 1e-13
    # the raw wedge monomial carries (p+q)!
    assert abs(np.sum(np.abs(dense * math.sqrt(math.factorial(3))) ** 2) - 6.0) < 1e-12


def test_multi_index_validation_and_interleave_sign():
    """FormPQ.generator takes strictly increasing indices in 1..n; the
    generator table carries each interleave sign."""
    conv = FrameConvention(3)
    for I, J in [((2, 1), ()), ((1, 1), ()), ((0, 1), ()), ((1, 4), ()),
                 ((), (3, 2)), ((), (2, 2)), ((1,), (0,)), ((1,), (4,))]:
        with pytest.raises(FrameError):
            FormPQ.generator(conv, I, J)

    def table_sign(I, J):
        base, sign = _generators(3, len(I), len(J))
        row = _keys(3, len(I), len(J)).index((I, J))
        assert tuple(base[row]) == _base(3, I, J)
        return sign[row]

    assert table_sign((2, 3), (1, 2)) == -1
    assert table_sign((1,), (2,)) == 1
    assert table_sign((1,), (1,)) == 1


def test_generators_match_itertools_reference():
    """The generator table lists every (I, J) in I-major combinations order,
    with base (I, n + J) and the interleave sign, for 0 <= p, q <= n <= 8."""
    for n in range(9):
        for p in range(n + 1):
            for q in range(n + 1):
                keys = _keys(n, p, q)
                base, sign = _generators(n, p, q)
                assert base.shape == (len(keys), p + q) and sign.shape == (len(keys),)
                assert not base.flags.writeable and not sign.flags.writeable
                assert base.tolist() == [list(_base(n, I, J)) for I, J in keys]
                assert sign.tolist() == [_interleave_sign(I, J) for I, J in keys]


def test_evaluate_form_examples():
    conv1 = FrameConvention(1)
    g = FormPQ.generator(conv1, (1,), (1,))
    val = evaluate_form(g, [conv1.z(1), conv1.zbar(1)])
    assert abs(val - 1 / math.sqrt(2)) < 1e-14
    # repeated argument kills an alternating form
    assert abs(evaluate_form(g, [conv1.z(1), conv1.z(1)])) < 1e-15

    conv2 = FrameConvention(2)
    g20 = FormPQ.generator(conv2, (1, 2), ())
    # dual-basis pairing: Z^a(Z_b) = delta_ab, so the (2,0)-generator sees
    # the unbarred arguments and annihilates the barred ones
    assert abs(evaluate_form(g20, [conv2.z(2), conv2.z(1)]) + 1 / math.sqrt(2)) < 1e-14
    assert abs(evaluate_form(g20, [conv2.zbar(2), conv2.zbar(1)])) < 1e-15
    with pytest.raises(FrameError):
        evaluate_form(g20, [conv2.z(1)])


def test_dense_roundtrip_and_conjugate():
    conv = FrameConvention(3)
    for (p, q) in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        phi = random_form(conv, p, q)
        back = FormPQ.from_dense(conv, p, q, phi.to_dense())
        assert math.sqrt((phi - back).norm_sq()) < 1e-12
        np.testing.assert_allclose(phi.conjugate().to_dense(),
                                   dense_conj(phi.to_dense(), conv), atol=1e-12)
        # frame change round trip
        np.testing.assert_allclose(
            dense_e_to_z(dense_z_to_e(phi.to_dense(), conv), conv),
            phi.to_dense(), atol=1e-12)


def test_hermitian_norm_matches_coefficients():
    conv = FrameConvention(2)
    phi = random_form(conv, 1, 1)
    assert abs(phi.norm_sq() - np.sum(np.abs(phi.to_dense()) ** 2)) < 1e-11


def test_endo_act_generator_replacement():
    # (Z_a (x) Z_b) replaces Z^b by -conj(Z^a) inside the wedge
    conv = FrameConvention(2)
    hat = np.zeros((2, 2), dtype=complex)
    hat[0, 1] = hat[1, 0] = 1.0  # Z_1 (.) Z_2 up to the hat scaling
    s = EndoC.from_sym_hat(conv, hat)
    g = FormPQ.generator(conv, (2,), ())
    out = _act(s, g)
    into = _bidegree_mask(2, 0, 1)
    assert np.any(out[into]) and not np.any(out[~into])
    target = FormPQ.generator(conv, (), (1,)).scaled(-1.0)
    assert math.sqrt(np.sum(np.abs(out - target.coords("z")) ** 2)) < 1e-13
    # S = Z_1 (x) Z_1 annihilates conj(Z^1)
    s11 = EndoC.from_sym_hat(conv, np.diag([1.0, 0.0]).astype(complex))
    g01 = FormPQ.generator(conv, (), (1,))
    assert not np.any(_act(s11, g01))


def test_endo_act_is_derivation_on_wedges():
    conv = FrameConvention(2)
    rng = np.random.default_rng(5)
    hat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = EndoC.from_sym_hat(conv, (hat + hat.T) / 2)
    a = random_form(conv, 1, 0, rng).to_dense()
    b = random_form(conv, 0, 1, rng).to_dense()
    lhs = act_dense(s, wedge_dense(a, b))
    rhs = wedge_dense(act_dense(s, a), b) + wedge_dense(a, act_dense(s, b))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_type_shift_structure():
    conv = FrameConvention(3)
    rng = np.random.default_rng(6)
    hat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = EndoC.from_sym_hat(conv, (hat + hat.T) / 2)
    phi = random_form(conv, 2, 1, rng)
    out = _act(s, phi)
    assert not np.any(out[~_bidegree_mask(3, 1, 2)])


def test_kaehler_bivector():
    for n in (1, 2, 3):
        conv = FrameConvention(n)
        om = kaehler_bivector(conv)
        assert abs(om.norm_u_sq() - n) < 1e-14
        for (p, q) in [(1, 0), (1, 1), (2, 0)]:
            if p > n or q > n:
                continue
            phi = random_form(conv, p, q)
            acted = act_dense(om, phi.to_dense())
            np.testing.assert_allclose(acted, 1j * (p - q) * phi.to_dense(), atol=1e-12)


def test_lefschetz_adjoint_on_kaehler_form():
    conv = FrameConvention(2)
    lam = lefschetz_adjoint(_kaehler_form(conv))
    assert abs(lam.coefficient_vector()[0] - 2 * conv.n) < 1e-12
    # a generator with I and J disjoint has nothing to contract
    g = FormPQ.generator(conv, (1,), (2,))
    assert not np.any(lefschetz_adjoint(g).coefficient_vector())


def test_project_primitive():
    conv = FrameConvention(2)
    assert project_primitive(_kaehler_form(conv)).norm_sq() < 1e-24
    phi = random_form(conv, 1, 1)
    prim = project_primitive(phi)
    assert lefschetz_adjoint(prim).norm_sq() < 1e-24 * max(1.0, phi.norm_sq())
    again = project_primitive(prim)
    assert (again - prim).norm_sq() < 1e-24 * max(1.0, phi.norm_sq())
    with pytest.raises(FrameError):
        project_primitive(random_form(conv, 2, 1))


@functools.lru_cache(maxsize=None)
def _lefschetz_matrix(n, p, q):
    """Reference: the adjoint Lefschetz map as a dense matrix on generator
    coefficients, p, q >= 1, with the sort sign of every pair (K, a).

    Z^K with K = (I, J) has the coordinate ``s(K) = _interleave_sign(K)`` at
    ``_base(n, K)``, so the contraction with (Z_a, conj Z_a) leaves, for each
    a in I and J, ``-i sqrt(k(k-1)) s(K) s(K') sign(perm) Z^K'`` with
    ``K' = (I - a, J - a)`` and perm the sort of ``(a, n+a) + base(K')``
    into ``base(K)``.
    """
    src = _keys(n, p, q)
    dst_pos = {key: i for i, key in enumerate(_keys(n, p - 1, q - 1))}
    k = p + q
    scale = -1.0j * math.sqrt(k * (k - 1))
    mat = np.zeros((len(dst_pos), len(src)), dtype=complex)
    for col, (I, J) in enumerate(src):
        for a in set(I) & set(J):
            rest = (tuple(i for i in I if i != a), tuple(j for j in J if j != a))
            # a - 1 and n + a - 1 pass every index of base(K') below them
            crossed = sum(1 for b in _base(n, *rest) if b < a - 1) + sum(
                1 for b in _base(n, *rest) if b < n + a - 1)
            sign = _interleave_sign(I, J) * _interleave_sign(*rest) * (-1) ** crossed
            mat[dst_pos[rest], col] = scale * sign
    return mat


def _primitive_part_reference(n, p, q, coeffs):
    """The closed-form product of ``I - Lambda* Lambda / k(k-1) r(n-k+r+1)``
    with the reference matrix."""
    if p < 1 or q < 1:
        return coeffs
    lam = _lefschetz_matrix(n, p, q)
    k = p + q
    for r in range(1, min(p, q) + 1):
        gram_c = ((coeffs @ lam.T).conj() @ lam).conj()
        coeffs = coeffs - gram_c / (k * (k - 1) * r * (n - k + r + 1))
    return coeffs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lambda_and_primitive_part_match_sign_loop(n):
    """The sign-free contraction gives the reference matrix's Lambda on every
    bidegree, also p + q > n, and its primitive part wherever the closed-form
    eigenvalues are nonzero (p + q <= n + 1)."""
    conv = FrameConvention(n)
    rng = np.random.default_rng(700 + n)
    for p, q in itertools.product(range(n + 1), repeat=2):
        size = _size(n, p, q)
        coeffs = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
        got = np.array([lefschetz_adjoint(FormPQ.from_coefficient_vector(conv, p, q, c))
                        .coefficient_vector() for c in coeffs])
        if p >= 1 and q >= 1:
            ref = coeffs @ _lefschetz_matrix(n, p, q).T
        else:
            ref = np.zeros((3, _size(n, max(p - 1, 0), max(q - 1, 0))))
        assert got.shape == ref.shape
        scale = max(1.0, np.max(np.abs(ref), initial=0.0))
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale
        if p + q <= n + 1:
            ref = _primitive_part_reference(n, p, q, coeffs)
            tol = 1e-12 * np.max(np.abs(coeffs))
            assert np.max(np.abs(_primitive_part(n, p, q, coeffs) - ref)) <= tol


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_conjugation_matches_multi_index_reference(n):
    for p, q in itertools.product(range(n + 1), repeat=2):
        where = {key: i for i, key in enumerate(_keys(n, p, q))}
        keys = _keys(n, q, p)
        source = [where[(J, I)] for I, J in keys]
        sign = [(-1.0) ** len(set(I) & set(J)) for I, J in keys]
        got = _conjugation(n, p, q)
        assert got[0].tolist() == source
        assert got[1].tolist() == sign


def test_primitive_forms_build_no_dense_lambda():
    """Three primitive forms per bidegree at n = 7, from cold caches, trace
    under 10 MB: Lambda is a gather from the Lefschetz tables, not a
    cached (C(n,p-1) C(n,q-1)) x (C(n,p) C(n,q)) matrix per bidegree."""
    from calabi_lab import frames
    from calabi_lab.weitzenboeck import random_primitive_real

    n = 7
    for obj in vars(frames).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    conv = FrameConvention(n)
    rng = np.random.default_rng(3)
    pairs = [(p, q) for p in range(n + 1) for q in range(p + 1) if 1 <= p + q <= n]
    tracemalloc.start()
    try:
        forms = [random_primitive_real(conv, p, q, rng) for (p, q) in pairs for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forms) == 3 * len(pairs)
    assert peak < 10 * 2 ** 20


def _pinv_projector(n, p, q):
    """Reference projector onto ker(Lambda): I - pinv(Lambda) Lambda."""
    lam = _lefschetz_matrix(n, p, q)
    return np.eye(lam.shape[1]) - np.linalg.pinv(lam, rcond=1e-12) @ lam


def _mixed_bidegrees(n):
    return [(p, q) for p in range(1, n + 1) for q in range(1, n + 1) if p + q <= n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lefschetz_eigenvalues_closed_form(n):
    """Lambda* Lambda on (p,q) coefficients has the eigenvalue
    k(k-1) r(n-k+r+1) on the Lefschetz piece L^r P^{p-r,q-r}, whose dimension
    is dim Lambda^{p-r,q-r} - dim Lambda^{p-r-1,q-r-1}, r = 0..min(p,q)."""
    for (p, q) in _mixed_bidegrees(n):
        k = p + q
        lam = _lefschetz_matrix(n, p, q)
        gram = lam.conj().T @ lam
        assert not np.any(gram.imag)  # Lambda is i times a real matrix
        got = np.linalg.eigvalsh(gram.real)
        dim = [_size(n, p - r, q - r) for r in range(min(p, q) + 1)] + [0]
        want = np.concatenate([np.full(dim[r] - dim[r + 1], float(k * (k - 1) * r * (n - k + r + 1)))
                               for r in range(min(p, q) + 1)])
        assert np.max(np.abs(got - np.sort(want))) <= 1e-12 * np.max(want)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_primitive_part_matches_pinv_projector(n):
    rng = np.random.default_rng(500 + n)
    for (p, q) in _mixed_bidegrees(n):
        size = _size(n, p, q)
        coeffs = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
        ref = coeffs @ _pinv_projector(n, p, q).T
        tol = 1e-12 * np.max(np.abs(coeffs))
        assert np.max(np.abs(_primitive_part(n, p, q, coeffs) - ref)) <= tol
        phi = FormPQ.from_coefficient_vector(FrameConvention(n), p, q, coeffs[0])
        assert np.max(np.abs(project_primitive(phi).coefficient_vector() - ref[0])) <= tol


def test_real_form_norms():
    conv = FrameConvention(2)
    phi = random_form(conv, 2, 0)
    psi = RealForm.symmetrize(phi)
    assert abs(psi.norm_sq() - 2 * phi.norm_sq()) < 1e-11
    dense = psi.to_dense()
    np.testing.assert_allclose(dense, dense_conj(dense, conv), atol=1e-12)
    with pytest.raises(FrameError):
        RealForm(random_form(conv, 1, 1))  # not self-conjugate


def test_trace_splitting():
    conv = FrameConvention(3)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6))
    total = sum(conv.e(i) @ dense_e_to_z(a, conv, 2) @ conv.e(i) for i in range(1, 7))
    zsum = sum(conv.z(i) @ dense_e_to_z(a, conv, 2) @ conv.zbar(i)
               + conv.zbar(i) @ dense_e_to_z(a, conv, 2) @ conv.z(i) for i in range(1, 4))
    assert abs(total - zsum) < 1e-12


def test_insertion_norm_identity():
    conv = FrameConvention(3)
    n = conv.n
    for (p, q) in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        phi = random_form(conv, p, q)
        dz = phi.to_dense()
        k = p + q
        total = float(np.sum(np.abs(dz[np.ix_(range(n, 2 * n), range(n))]) ** 2))
        lhs = k * (k - 1) * total
        assert abs(lhs - p * q * phi.norm_sq()) < 1e-10 * max(1.0, p * q * phi.norm_sq())


def test_family_norm_is_basis_independent():
    conv = FrameConvention(2)
    rng = np.random.default_rng(3)
    phi = random_form(conv, 1, 1, rng)
    dense = phi.to_dense()
    mats = np.array([EndoC(conv, m).matrix for m in family_mats(conv.n, "sym2_10")])
    base = sum(float(np.sum(np.abs(act_dense(EndoC(conv, m), dense)) ** 2)) for m in mats)
    # unitary remix of the basis
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    mixed = np.tensordot(q.T, mats, axes=(1, 0))
    remixed = sum(float(np.sum(np.abs(act_dense(EndoC(conv, m), dense)) ** 2)) for m in mixed)
    assert abs(base - remixed) < 1e-10 * max(1.0, base)


def test_u_basis_normalization():
    conv = FrameConvention(3)
    for e in (EndoC(conv, m) for m in family_mats(conv.n, "u")):
        assert abs(e.norm_u_sq() - 1.0) < 1e-14


def test_endo_act_single_dimension_mismatch():
    conv2, conv3 = FrameConvention(2), FrameConvention(3)
    s = EndoC.from_sym_hat(conv3, np.eye(3, dtype=complex))
    with pytest.raises(FrameError):
        estimate_bound(s, RealForm.symmetrize(FormPQ.generator(conv2, (1,), ())))


def test_sym_square_norm_convention():
    # |e_1 (.) e_2|^2 = 2 with the tensor norm
    e1 = np.zeros(4)
    e1[0] = 1.0
    e2 = np.zeros(4)
    e2[1] = 1.0
    sym = np.multiply.outer(e1, e2) + np.multiply.outer(e2, e1)
    assert abs(np.sum(sym ** 2) - 2.0) < 1e-14


def _gather(stack):
    """Orthonormal exterior coordinates sqrt(k!) T[J] of a stack of dense
    alternating tensors, over the sorted k-subsets J."""
    k = stack.ndim - 1
    if k == 0:
        return stack.reshape(-1, 1)
    subsets = np.array(list(itertools.combinations(range(stack.shape[1]), k))).T
    return math.sqrt(math.factorial(k)) * stack[(slice(None),) + tuple(subsets)]


def _dense_form(phi):
    """Dense Z-frame components of a (p,q)-form from the definition of its
    generators: Z^K is _interleave_sign(K) / sqrt(k!) times the alternating
    sum over the orderings of its frame indices.  Unlike to_dense it touches
    only the generators phi uses."""
    n, k = phi.convention.n, phi.degree
    out = np.zeros((2 * n,) * k, dtype=complex)
    for (I, J), c in zip(_keys(n, phi.p, phi.q), phi.coefficient_vector()):
        if c == 0:
            continue
        base = _base(n, I, J)
        amp = c * _interleave_sign(I, J) / math.sqrt(math.factorial(k))
        for perm in itertools.permutations(range(k)):
            out[tuple(base[t] for t in perm)] += amp * _perm_sign(perm)
    return out


def _bidegrees(n, top=6):
    return [(p, q) for p in range(n + 1) for q in range(n + 1) if p + q <= min(2 * n, top)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coords_match_dense_route(n):
    """Generator (up to 8 per bidegree), random-form and real-form
    coordinates in both frames against the dense route to_dense ->
    dense_z_to_e -> gather: form by form, and for each degree as one mixed
    sequence of every bidegree and both kinds.  At n <= 3 the real-frame
    families of the random form and the real form (``phi_g`` and
    ``norm_phi_g``) match the action on the gathered real-frame coordinates
    to 1e-13 of the scale.  A frame other than "z" and "e" is refused for a
    form, a sequence and a dense stack."""
    rng = np.random.default_rng(300 + n)
    conv = FrameConvention(n)
    by_degree = {}
    for (p, q) in _bidegrees(n):
        size = _size(n, p, q)
        picked = rng.choice(size, size=min(8, size), replace=False)
        phi = random_form(conv, p, q, rng)
        real = RealForm.symmetrize(phi)
        units = [FormPQ.from_coefficient_vector(conv, p, q, np.eye(size)[i]) for i in picked]
        forms = units + [phi, real]
        dense = [_dense_form(form) for form in forms[:-1]]
        real_dense = _dense_form(real.phi)
        dense.append(real_dense + dense_conj(real_dense, conv) if p != q else real_dense)
        dense = np.array(dense)
        refs = {"z": _gather(dense), "e": _gather(dense_z_to_e(dense, conv, p + q))}
        for frame, ref in refs.items():
            got = np.array([form.coords(frame) for form in forms])
            assert got.shape == (len(forms), math.comb(2 * n, p + q))
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        seq, stacks = by_degree.setdefault(p + q, ([], []))
        seq += forms
        stacks.append(dense)
        if n <= 3:
            for tag in ("gl", "so", "sym2_real"):
                want = derivation_coords(family_mats(n, tag), refs["e"][-2:], p + q)
                for form, ref in zip(forms[-2:], want.transpose(1, 0, 2)):
                    scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
                    assert np.max(np.abs(phi_g(form, tag) - ref), initial=0.0) <= 1e-13 * scale
                    norm = float(np.sum(np.abs(ref) ** 2))
                    assert abs(norm_phi_g(form, tag) - norm) <= 1e-13 * max(1.0, norm)
    for k, (seq, stacks) in by_degree.items():
        dense = np.concatenate(stacks)
        refs = {"z": _gather(dense), "e": _gather(dense_z_to_e(dense, conv, k))}
        for frame, ref in refs.items():
            got, degree = _coords(seq, frame)
            assert degree == k
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    phi = random_form(conv, 1, 0, rng)
    with pytest.raises(FrameError):
        phi.coords("w")
    for forms in ([phi, RealForm.symmetrize(phi)], phi.to_dense()[None]):
        with pytest.raises(FrameError):
            _coords(forms, "w")


def _dense_lefschetz_matrix(n, p, q):
    """Adjoint Lefschetz map column by column from its definition,
    (Lambda phi) = -i k(k-1) sum_a phi(Z_a, conj Z_a, ...), on dense components."""
    conv = FrameConvention(n)
    k = p + q
    idx = np.arange(n)
    cols = []
    for unit in np.eye(_size(n, p, q)):
        dense = FormPQ.from_coefficient_vector(conv, p, q, unit).to_dense()
        out = -1.0j * k * (k - 1) * dense[idx, idx + n].sum(axis=0)
        cols.append(FormPQ.from_dense(conv, p - 1, q - 1, out).coefficient_vector())
    return np.array(cols).T


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lefschetz_matrix_matches_dense_definition(n):
    for (p, q) in _bidegrees(n):
        if p >= 1 and q >= 1:
            got = _lefschetz_matrix(n, p, q)
            assert np.max(np.abs(got - _dense_lefschetz_matrix(n, p, q))) <= 1e-12


def test_verify_builds_no_dense_form(monkeypatch):
    """verify runs on exterior coordinates alone: with the dense form
    constructors and the gather of dense stacks into coordinates disabled,
    every record of the suite still passes."""
    from calabi_lab import frames
    from calabi_lab.checks import run_verify_suite

    def dense(*args, **kwargs):
        raise AssertionError("dense form built on the verify path")

    monkeypatch.setattr(frames.FormPQ, "to_dense", dense)
    monkeypatch.setattr(frames.RealForm, "to_dense", dense)
    monkeypatch.setattr(frames, "dense_z_to_e", dense)
    monkeypatch.setattr(frames, "generator_dense_basis", dense)
    monkeypatch.setattr(frames, "_dense_positions", dense)
    start = time.perf_counter()
    records = run_verify_suite(4, 2, 5, max_degree=4)
    elapsed = time.perf_counter() - start
    assert [r["status"] for r in records] == ["pass"] * len(records)
    assert elapsed < 1.0


def test_verify_feeds_the_kernel_sparse_stacks(monkeypatch):
    """Dense elements (eigen-elements, sampled S, random L in u(n)) are mixed
    from the actions of a sparse basis and never reach the derivation-action
    kernel: during verify every matrix whose gather table is built (the
    bases, from cold caches) has at most 2n nonzero entries."""
    from calabi_lab import frames
    from calabi_lab.checks import run_verify_suite

    n = 3
    most = []
    builder = frames.derivation_table

    def counted(mats, k):
        most.append(int(np.max(np.count_nonzero(mats.reshape(len(mats), -1), axis=1), initial=0)))
        return builder(mats, k)

    frames.family_table.cache_clear()
    monkeypatch.setattr(frames, "derivation_table", counted)
    records = run_verify_suite(n, 2, 1, max_degree=3)
    assert [r["status"] for r in records] == ["pass"] * len(records)
    assert most and max(most) <= 2 * n


def test_verify_acts_only_through_the_cached_family_tables(monkeypatch):
    """No program path builds a gather table per call: from empty caches,
    every derivation table verify builds is a miss of the family_table or
    grid_table cache (grid_table gathers the hat tables from ``_slots``
    itself), and a second run on the filled caches builds no table."""
    import sys

    from calabi_lab import frames
    from calabi_lab.checks import run_verify_suite

    callers = []
    build = frames.derivation_table

    def counted(mats, k):
        callers.append(sys._getframe(1).f_code.co_name)
        return build(mats, k)

    frames.family_table.cache_clear()
    frames.grid_table.cache_clear()
    monkeypatch.setattr(frames, "derivation_table", counted)
    run_verify_suite(3, 2, 0, max_degree=3)
    assert set(callers) == {"family_table", "grid_table"}
    assert callers.count("family_table") == frames.family_table.cache_info().misses
    grid_misses = frames.grid_table.cache_info().misses
    assert 0 < callers.count("grid_table") < grid_misses
    built = len(callers)
    run_verify_suite(3, 2, 0, max_degree=3)
    assert len(callers) == built
    assert frames.grid_table.cache_info().misses == grid_misses


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grid_actions_match_the_full_coordinate_tables(n):
    """The Z-frame bases act on the (p,q) grid as their ``family_table`` over
    all C(2n, k) Z-frame coordinates acts: for every family and every (p,q),
    the reference is 0 off the image block, ``act_on_grid`` gives its
    coordinates on the block, and ``phi_g`` of a FormPQ and of a RealForm
    (both pieces when p != q) has its Gram matrix, all to 1e-15 of the
    scale; ``norm_phi_g_batch`` over the forms of one degree, mixed
    bidegrees and both kinds in one batch, gives the reference norms."""
    from calabi_lab.frames import act_on_grid

    rng = np.random.default_rng(700 + n)
    conv = FrameConvention(n)
    for tag in ("sym2_10", "u", "su"):
        by_degree = {}
        for p in range(n + 1):
            for q in range(n + 1):
                size = math.comb(n, p) * math.comb(n, q)
                coeffs = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
                forms = [FormPQ.from_coefficient_vector(conv, p, q, c) for c in coeffs]
                x = np.array([f.coords("z") for f in forms])
                ref = apply_derivation(family_table(n, tag, p + q), x)
                image = (p - 1, q + 1) if tag == "sym2_10" else (p, q)
                pos = (_z_layout(n, *image)[0] if image[0] >= 0 and image[1] <= n
                       else np.zeros(0, dtype=np.intp))
                off = np.ones(ref.shape[2], dtype=bool)
                off[pos] = False
                assert not np.any(ref[:, :, off]), (tag, p, q)
                grid = x[:, _z_layout(n, p, q)[0]].reshape(3, math.comb(n, p), math.comb(n, q))
                got = act_on_grid(n, tag, p, q, grid)
                assert got.shape == ref[:, :, pos].shape
                scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
                assert np.max(np.abs(got - ref[:, :, pos]), initial=0.0) <= 1e-15 * scale
                for form in (forms[0], RealForm.symmetrize(forms[1])):
                    want = apply_derivation(family_table(n, tag, p + q), form.coords("z")[None])[0]
                    parts = phi_g(form, tag)
                    gram, want_gram = parts.conj() @ parts.T, want.conj() @ want.T
                    scale = max(1.0, float(np.max(np.abs(want_gram), initial=0.0)))
                    assert np.max(np.abs(gram - want_gram), initial=0.0) <= 1e-15 * scale, (tag, p, q)
                    forms_k, norms_k = by_degree.setdefault(p + q, ([], []))
                    forms_k.append(form)
                    norms_k.append(float(np.sum(np.abs(want) ** 2)))
        for forms_k, norms_k in by_degree.values():
            got = norm_phi_g_batch(tag, conv, forms_k)
            assert np.max(np.abs(got - norms_k)) <= 1e-14 * max(1.0, max(norms_k))


def contract_each_slot(arr, mat, k=None):
    """Reference: ``out[.. i ..] = sum_A mat[i, A] arr[.. A ..]`` on the last
    k axes, one full ``(2n, 2n)`` tensordot per axis."""
    k = arr.ndim if k is None else k
    for slot in range(arr.ndim - k, arr.ndim):
        arr = np.moveaxis(np.tensordot(arr, mat, axes=(slot, 1)), -1, slot)
    return arr


def _assert_same_change(got, ref):
    """The pair blocks and the full contraction add the same two products per
    entry and slot, in an order BLAS chooses: agreement to rounding."""
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, float(np.max(np.abs(ref))))


def test_pair_blocks_are_the_frame_change():
    """Column A of P is W_A in e-coordinates, Z_a = (e_a - i e_{a+n}) / sqrt2;
    P^T and conj(P) are Z_BLOCK and E_BLOCK on every pair {a, a+n}."""
    s = 1.0 / math.sqrt(2.0)
    for n in (1, 2, 5):
        p = np.zeros((2 * n, 2 * n), dtype=complex)
        for a in range(n):
            p[a, a], p[a + n, a] = s, -1.0j * s
            p[a, a + n], p[a + n, a + n] = s, 1.0j * s
        np.testing.assert_array_equal(FrameConvention(n).frame_change, p)
        for block, full in ((Z_BLOCK, p.T), (E_BLOCK, p.conj())):
            for h in range(2):
                for g in range(2):
                    np.testing.assert_array_equal(
                        full[h * n:(h + 1) * n, g * n:(g + 1) * n], block[h, g] * np.eye(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_change_pairs_matches_contract_each_slot(n):
    from calabi_lab.model_spaces import random_kaehler

    conv = FrameConvention(n)
    p = conv.frame_change
    t = random_kaehler(n, 7)
    # full tensors, both directions
    rz = contract_each_slot(t.components.astype(complex), p.T)
    _assert_same_change(change_pairs(t.components, [Z_BLOCK] * 4), rz)
    _assert_same_change(t.complexified(), rz)
    _assert_same_change(change_pairs(rz, [E_BLOCK] * 4), contract_each_slot(rz, p.conj()))
    # the Calabi block (Z, conj Z, conj Z, Z) and the Kaehler block (Z, conj Z, Z, conj Z)
    z, zbar = Z_BLOCK[:1], Z_BLOCK[1:]
    _assert_same_change(change_pairs(t.components, (z, zbar, zbar, z)), rz[:n, n:, n:, :n])
    _assert_same_change(change_pairs(t.components, (z, zbar, z, zbar)), rz[:n, n:, :n, n:])
    # single columns fill one half: the (Z, conj Z, Z, conj Z) block alone
    embedded = np.zeros_like(rz)
    embedded[:n, n:, :n, n:] = rz[:n, n:, :n, n:]
    e, ebar = E_BLOCK[:, :1], E_BLOCK[:, 1:]
    _assert_same_change(change_pairs(rz[:n, n:, :n, n:], (e, ebar, e, ebar)),
                        contract_each_slot(embedded, p.conj()))
    # batched stacks keep their leading axes
    rng = np.random.default_rng(n)
    for k in (1, 2, 3):
        stack = rng.normal(size=(3, 2) + (2 * n,) * k) + 1j * rng.normal(size=(3, 2) + (2 * n,) * k)
        _assert_same_change(dense_z_to_e(stack, conv, k), contract_each_slot(stack, p.conj(), k))
        _assert_same_change(dense_e_to_z(stack, conv, k), contract_each_slot(stack, p.T, k))
    assert dense_z_to_e(np.zeros((0, 2 * n, 2 * n)), conv, 2).shape == (0, 2 * n, 2 * n)


# ---------------------------------------------------------------------------
# the move tables against per-index references
# ---------------------------------------------------------------------------

def _exterior_table_reference(d, k):
    """Reference: one sort and rank per replacement index C, with the sign
    from the entries of J that C crosses."""
    subsets, occupied = _subsets(d, k)
    below = np.concatenate([np.zeros((len(subsets), 1), dtype=np.intp),
                            np.cumsum(occupied, axis=1)], axis=1)  # #{j in J: j < c}
    index, holders = np.nonzero(occupied.T)
    held = subsets[holders]
    pos = np.zeros((len(holders), d), dtype=np.intp)
    sign = np.zeros((len(holders), d))
    for c in range(d):
        lo, hi = np.minimum(index, c), np.maximum(index, c)
        crossed = below[holders, hi] - below[holders, lo + 1]
        repeats = occupied[holders, c] & (index != c)
        new = np.sort(np.where(held == index[:, None], c, held), axis=1)
        pos[:, c] = np.where(repeats, 0, _subset_rank(d, new))
        sign[:, c] = np.where(repeats, 0.0, np.where(np.maximum(crossed, 0) % 2, -1.0, 1.0))
    m = math.comb(d - 1, k - 1)
    table = (holders.reshape(d, m), pos.reshape(d, m, d), sign.reshape(d, m, d))
    for arr in table:
        arr.flags.writeable = False
    return table


def _pair_mixing_reference(n, k):
    """Reference: one sort and rank per pair {a, a+n}, with the sign from the
    entries of J strictly between a and a+n."""
    d = 2 * n
    subsets, occupied = _subsets(d, k)
    s = 1.0 / math.sqrt(2.0)
    partner = np.tile(np.arange(len(subsets)), (n, 1))
    stay = np.ones((n, len(subsets)), dtype=complex)
    cross = np.zeros((n, len(subsets)), dtype=complex)
    for a in range(n):
        low, high = occupied[:, a], occupied[:, a + n]
        crossed = np.sum(occupied[:, a + 1:a + n], axis=1)
        sort_sign = np.where(crossed % 2, -1.0, 1.0)
        stay[a, low & high] = -1.0j
        stay[a, low & ~high] = s
        stay[a, high & ~low] = -1.0j * s
        cross[a, low & ~high] = s * sort_sign[low & ~high]
        cross[a, high & ~low] = 1.0j * s * sort_sign[high & ~low]
        single = low ^ high
        swapped = np.sort(np.where(subsets[single] % n == a,
                                   subsets[single] + np.where(low[single], n, -n)[:, None],
                                   subsets[single]), axis=1)
        partner[a, single] = _subset_rank(d, swapped)
    table = (partner, stay, cross)
    for arr in table:
        arr.flags.writeable = False
    return table


def _lefschetz_table_reference(n, p, q, adjoint):
    """Reference: each output entry's sources listed index by index, a in
    increasing order, padded with the source size."""
    def ranks(k):
        return {subset: i for i, subset in enumerate(itertools.combinations(range(n), k))}

    out_p, out_q = (ranks(k - 1 if not adjoint else k) for k in (p, q))
    src_p, src_q = (ranks(k if not adjoint else k - 1) for k in (p, q))
    size = len(src_p) * len(src_q)
    lists = []
    for I in out_p:
        for J in out_q:
            terms = []
            for a in range(n):
                if adjoint and a in I and a in J:
                    rows, cols = tuple(i for i in I if i != a), tuple(j for j in J if j != a)
                elif not adjoint and a not in I and a not in J:
                    rows, cols = tuple(sorted(I + (a,))), tuple(sorted(J + (a,)))
                else:
                    continue
                terms.append(src_p[rows] * len(src_q) + src_q[cols])
            lists.append(terms)
    slots = max(len(terms) for terms in lists)
    table = np.array([terms + [size] * (slots - len(terms)) for terms in lists], dtype=np.intp).T
    return _frozen(np.ascontiguousarray(table))[0]


def _assert_same_tables(got, ref):
    for g, r in zip(got, ref, strict=True):
        assert (g.dtype, g.shape, g.flags.writeable) == (r.dtype, r.shape, r.flags.writeable)
        assert g.tobytes() == r.tobytes()


def test_move_tables_match_per_index_references():
    """The gathers from the slot table give the per-index builders' tables
    byte for byte, signed zeros included; the frame change's are decoded
    from their value tables."""
    for n in range(1, 7):
        for k in range(2 * n + 1):
            partner, stay, cross = _pair_mixing(n, k)
            assert not any(arr.flags.writeable for arr in (partner, stay, cross))
            decoded = _frozen(partner.astype(np.intp), _STAY[stay], _CROSS[cross])
            _assert_same_tables(decoded, _pair_mixing_reference(n, k))
    for n in range(1, 7):
        for p, q, adjoint in itertools.product(range(1, n + 1), range(1, n + 1), (False, True)):
            _assert_same_tables([_lefschetz_table(n, p, q, adjoint)],
                                [_lefschetz_table_reference(n, p, q, adjoint)])


@pytest.mark.parametrize("n", range(1, 10))
def test_gathered_lefschetz_matches_the_dense_sandwich(n):
    """Lambda and its adjoint as gathers equal the dense 0/1 products of the
    removal maps byte for byte, for one form and for a stack, on every
    (p,q) with p, q >= 1 and p + q <= n: each entry adds its terms in the
    same order, pairwise for the one-entry trace of a (1,1)-form."""
    for p in range(1, n):
        for q in range(1, n + 1 - p):
            rp, rq = removal(n, p), removal(n, q)
            rng = np.random.default_rng([n, p, q])
            for lead in [(), (3,)]:
                for adjoint in (False, True):
                    size = _size(n, p - adjoint, q - adjoint)
                    coeffs = rng.normal(size=lead + (size,)) + 1j * rng.normal(size=lead + (size,))
                    left, right = ((rp, rq) if not adjoint
                                   else (rp.transpose(0, 2, 1), rq.transpose(0, 2, 1)))
                    got = _contract_pairs(_lefschetz_table(n, p, q, adjoint), coeffs)
                    want = sandwich(left, right, coeffs)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the gather kernel against the scatter reference
# ---------------------------------------------------------------------------

FAMILY_TAGS = ("gl", "so", "sym2_real", "sym2_10", "u", "su")


def scatter_derivation_coords(mats, x, k):
    """Reference: the derivation action as one ``np.bincount`` scatter of
    every nonzero entry L[C, A] against each subset J that holds A, over the
    per-index exterior table, ``(m, B, N)``."""
    m, d = mats.shape[:2]
    b = x.shape[0]
    count = math.comb(d, k)
    dtype = np.result_type(mats, x, 1.0)
    if k == 0:
        return np.zeros((m, b, count), dtype=dtype)
    holders, pos, sign = _exterior_reference(d, k)
    mu, c, a = np.nonzero(mats)
    src = np.asarray(x)[:, pos[a, :, c]] * (-mats[mu, c, a][:, None] * sign[a, :, c])
    dst = ((mu[:, None] * b + np.arange(b)[:, None, None]) * count + holders[a]).ravel()
    out = np.bincount(dst, src.real.ravel(), m * b * count)
    if np.iscomplexobj(src):
        out = out + 1j * np.bincount(dst, src.imag.ravel(), m * b * count)
    return out.reshape(m, b, count).astype(dtype, copy=False)


_exterior_reference = functools.lru_cache(maxsize=None)(_exterior_table_reference)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gather_kernel_matches_scatter_reference(n):
    """Every family at every degree, on one form and on a batch, real and
    complex: the gather tables give the scatter's actions bit for bit on
    sym2_10, whose elements have no diagonal and add their two entries in
    the scatter's order, and to 1e-15 of the scale elsewhere (diagonal
    weights are summed before they scale x; at the top degree su's traceless
    weights leave rounding alone, hence the floor 1 of the scale).  Random
    dense complex stacks agree to the same bound, and the cached family
    tables act as the tables built per call."""
    rng = np.random.default_rng(900 + n)
    d = 2 * n
    for k in range(d + 1):
        count = math.comb(d, k)
        real = [rng.normal(size=(b, count)) for b in (1, 3)]
        stacks = real + [x + 1j * rng.normal(size=x.shape) for x in real]
        dense = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        for tag, mats in [(tag, family_mats(n, tag)) for tag in FAMILY_TAGS] + [(None, dense)]:
            for x in stacks:
                ref = scatter_derivation_coords(mats, x, k)
                got = derivation_coords(mats, x, k)
                assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
                if tag == "sym2_10":
                    assert np.array_equal(got, ref)
                else:
                    scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
                    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-15 * scale, (tag, k)
                if tag is not None:
                    cached = apply_derivation(family_table(n, tag, k), x)
                    assert np.array_equal(cached.transpose(1, 0, 2), got)


def _two_call_grid_action(n, tag, p, q, y):
    """``act_on_grid`` for u and su as side 0 plus side 1 made whole, the
    composition that the runs replace."""
    from calabi_lab.frames import grid_table

    out = apply_derivation(grid_table(n, tag, 0, p), y)
    if q:
        out += apply_derivation(grid_table(n, tag, 1, q), y, axis=2).transpose(0, 2, 1, 3)
    return out.reshape(out.shape[:2] + (math.prod(out.shape[2:]),))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_action_runs_are_bitwise_the_two_call_composition(n, monkeypatch):
    """Side 1 added in runs of basis elements gives the bits of side 1 made
    whole and added once: at the default bound (one run) and at bounds of
    one form's grid (one element per run) and of three of its grids."""
    from calabi_lab import frames

    rng = np.random.default_rng(90 + n)
    for p in range(n + 1):
        for q in range(n + 1):
            shape = (3, math.comb(n, p), math.comb(n, q))
            y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for tag in ("u", "su"):
                want = _two_call_grid_action(n, tag, p, q, y)
                for bound in (frames._SLICE_ENTRIES, y.size, 3 * y.size):
                    monkeypatch.setattr(frames, "_SLICE_ENTRIES", bound)
                    got = frames.act_on_grid(n, tag, p, q, y)
                    assert np.array_equal(got, want) and got.dtype == want.dtype, (tag, p, q, bound)


@pytest.mark.parametrize("tag", ["u", "su"])
def test_grid_action_holds_its_output_and_one_run(tag, monkeypatch):
    """One (4,4)-form at n = 8, with runs of a quarter of the output: the
    call peaks at most 1.6 times the output's bytes (side 1 made whole, as
    before the runs, peaks at twice them)."""
    from calabi_lab import frames

    n, p, q = 8, 4, 4
    rng = np.random.default_rng(8)
    y = rng.normal(size=(1, 70, 70)) + 1j * rng.normal(size=(1, 70, 70))
    frames.grid_table(n, tag, 0, p), frames.grid_table(n, tag, 1, q)  # cached tables are not counted
    elements = len(family_mats(n, tag))
    monkeypatch.setattr(frames, "_SLICE_ENTRIES", elements * y.size // 4)
    tracemalloc.start()
    try:
        out = frames.act_on_grid(n, tag, p, q, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1, elements, y.size)
    assert peak <= 1.6 * out.nbytes


@pytest.mark.parametrize("n, p", [(2, 1), (4, 2), (5, 2)])
def test_sampled_pp_forms_are_exactly_self_conjugate(n, p):
    """The sampler's (p,p) rows equal their conjugate bit for bit, the
    invariant that lets ``random_primitive_reals`` skip RealForm's test; a
    (p,p) form that is not self-conjugate is still refused by RealForm."""
    from calabi_lab.weitzenboeck import _primitive_stack, random_primitive_reals

    conv = FrameConvention(n)
    source, sign = _conjugation(n, p, p)
    rows = _primitive_stack(conv, p, p, np.random.default_rng(n), 8)
    assert np.array_equal(rows, sign * rows[:, source].conj())
    for form, row in zip(random_primitive_reals(conv, p, p, np.random.default_rng(n), 8), rows):
        assert np.array_equal(form.phi.coefficient_vector(), row)
        RealForm(form.phi)  # the full test passes too
    bent = rows[0].copy()
    bent[0] += (1 + 1j) * 1e-3 * float(np.max(np.abs(bent)))  # breaks c = +-conj(c) at least
    with pytest.raises(FrameError, match="self-conjugate"):
        RealForm(FormPQ.from_coefficient_vector(conv, p, p, bent))
