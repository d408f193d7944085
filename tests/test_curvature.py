"""Curvature tensors, induced operators, and the operator correspondence."""

import itertools

import numpy as np
import pytest

from calabi_lab.curvature import (
    DEFAULT_TOL,
    NotEinstein,
    NotHermitian,
    NotKaehler,
    SymmetryViolation,
    calabi_from_tensor,
    inject_sign_bug,
    kaehler_operator,
    omega_coords,
    r1_r2_operators,
    random_riemannian,
    restrict_su,
    ricci,
    su_complement,
    tensor_from_calabi,
    validate_tensor,
)
from calabi_lab.frames import (E_BLOCK, EndoC, FrameConvention, change_pairs, family_mats,
                               sym2_basis_labels)
from calabi_lab.model_spaces import chsc, flat_torus, quadric, random_kaehler
from dense_reference import conjugate, r1_r2_hand_indexed


def sym2_element(conv, coords):
    """Reference: the sym^2 V^{1,0} element with the given coordinates over
    the unit basis, built entry by entry."""
    hat = np.zeros((conv.n, conv.n), dtype=complex)
    for (a, b), c in zip(sym2_basis_labels(conv.n), coords):
        if a == b:
            hat[a - 1, a - 1] += c
        else:
            hat[a - 1, b - 1] += c / np.sqrt(2.0)
            hat[b - 1, a - 1] += c / np.sqrt(2.0)
    return EndoC.from_sym_hat(conv, hat)


def round_sphere(conv):
    d = conv.dim
    g = np.eye(d)
    return np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)


def random_hermitian(rng, m):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return (a + a.conj().T) / 2


def test_validate_round_sphere():
    conv = FrameConvention(2)
    t = validate_tensor(round_sphere(conv), conv)
    assert t.bianchi_validated
    assert t.residuals["bianchi"] == 0.0
    r1, _ = r1_r2_operators(t)
    # curvature operator of the round sphere is the identity (r1 = 2 F)
    np.testing.assert_allclose(r1.matrix, 2 * np.eye(r1.dim), atol=1e-14)


def test_validate_zero_and_perturbed():
    conv = FrameConvention(2)
    t = validate_tensor(np.zeros((4,) * 4), conv)
    assert t.bianchi_validated and t.kaehler_validated
    bad = round_sphere(conv)
    bad[0, 1, 2, 3] += 0.5
    with pytest.raises(SymmetryViolation) as err:
        validate_tensor(bad, conv)
    assert "pair" in err.value.identity or "antisymmetry" in err.value.identity


def test_chsc_calabi_is_identity():
    for n in (1, 2, 3):
        t = chsc(n, 1.0)
        h = calabi_from_tensor(t).matrix
        np.testing.assert_allclose(h, np.eye(len(h)), atol=1e-12)


def test_calabi_requires_kaehler():
    conv = FrameConvention(2)
    t = validate_tensor(round_sphere(conv), conv)
    assert not t.kaehler_validated
    with pytest.raises(NotKaehler):
        calabi_from_tensor(t)


def test_roundtrip_both_directions():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        conv = FrameConvention(n)
        m = n * (n + 1) // 2
        h = random_hermitian(rng, m)
        t = tensor_from_calabi(h, conv)
        assert t.kaehler_validated
        assert validate_tensor(t.components, conv).residuals["bianchi"] < 1e-12
        np.testing.assert_allclose(calabi_from_tensor(t).matrix, h, atol=1e-12)
        t2 = tensor_from_calabi(calabi_from_tensor(t), conv)
        np.testing.assert_allclose(t2.components, t.components, atol=1e-12)


def test_tensor_from_calabi_rejects_bad_input():
    conv = FrameConvention(2)
    with pytest.raises(NotHermitian):
        tensor_from_calabi(np.array([[0.0, 1.0], [0.0, 0.0]]), FrameConvention(1))
    with pytest.raises(NotHermitian):
        tensor_from_calabi(np.eye(4), conv)  # wrong dimension


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_rejected(bad):
    conv = FrameConvention(2)
    h = np.eye(3, dtype=complex)
    h[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        tensor_from_calabi(h, conv)
    r = chsc(2, 1.0).components.copy()
    r[0, 1, 0, 1] = r[1, 0, 1, 0] = bad
    r[1, 0, 0, 1] = r[0, 1, 1, 0] = -bad
    with pytest.raises(ValueError, match="non-finite"):
        validate_tensor(r, conv)


def test_product_calabi_kernel_on_mixed_block():
    # two P^1 factors: the mixed generator Z_1 (.) Z_2 is in the kernel
    from calabi_lab.model_spaces import product

    t = product([chsc(1, 1.0), chsc(1, 1.0)])
    h = calabi_from_tensor(t).matrix
    labels = [(1, 1), (1, 2), (2, 2)]
    mixed = labels.index((1, 2))
    np.testing.assert_allclose(h[:, mixed], 0.0, atol=1e-13)
    vals = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(vals, [0.0, 1.0, 1.0], atol=1e-12)


def test_kaehler_operator_einstein_structure():
    for n in (2, 3):
        t = chsc(n, 1.0)
        ric = ricci(t)
        assert ric.is_einstein
        assert abs(ric.einstein_lambda - (n + 1) / 2) < 1e-12
        assert abs(ric.scal - n * (n + 1)) < 1e-11
        k = kaehler_operator(t)
        assert np.max(np.abs(k.matrix - k.matrix.conj().T)) < 1e-12
        w = omega_coords(n)
        assert np.linalg.norm(k.matrix @ w - ric.einstein_lambda * w) < 1e-12
        assert abs(np.trace(k.matrix).real - n * (n + 1) / 2) < 1e-11
        ksu = restrict_su(k, ric)
        assert ksu.dim == n * n - 1
        assert abs(np.trace(ksu.matrix).real - (n - 1) * ric.einstein_lambda) < 1e-11


def test_restrict_su_requires_einstein():
    from calabi_lab.model_spaces import product

    t = product([chsc(1, 1.0), chsc(1, 2.0)])  # different factor scales
    ric = ricci(t)
    assert not ric.is_einstein
    with pytest.raises(NotEinstein):
        restrict_su(kaehler_operator(t), ric)


def test_r1_r2_relations():
    rng = np.random.default_rng(9)
    conv = FrameConvention(2)
    t = random_riemannian(conv, 77)
    r = t.components
    d = conv.dim
    # g(R1(X^Y), Z^W) = 4 R(X,Y,Z,W) and the minus-half relation for R2
    for _ in range(40):
        i, j, k, l = rng.integers(0, d, size=4)
        xi = np.eye(d)
        r1_pair = 0.0
        r2_pair = 0.0
        # expand wedge pairings by bilinearity of the tensor-square operators
        for (a, b, sa) in ((i, j, 1), (j, i, -1)):
            for (c, e, sc) in ((k, l, 1), (l, k, -1)):
                r1_pair += sa * sc * r[a, b, c, e]
                r2_pair += sa * sc * r[a, c, e, b]
        assert abs(r1_pair - 4 * r[i, j, k, l]) < 1e-12
        assert abs(r2_pair + 0.5 * r1_pair) < 1e-12


def test_r2_on_holomorphic_sym_square_is_calabi():
    rng = np.random.default_rng(10)
    conv = FrameConvention(2)
    h = random_hermitian(rng, 3)
    t = tensor_from_calabi(h, conv)
    _, r2 = r1_r2_operators(t)
    # embed the unit sym^2 V^{1,0} basis into complexified tensor coordinates
    p = conv.frame_change
    units = []
    for e in (EndoC(conv, m) for m in family_mats(conv.n, "sym2_10")):
        hat = e.hat
        coords_z = np.zeros((conv.dim, conv.dim), dtype=complex)
        coords_z[: conv.n, : conv.n] = hat
        units.append(p @ coords_z @ p.T)  # contravariant 2-tensor in e-frame
    # r2 matrix is expressed on the real unit basis; rebuild the pairing
    labels = r2.basis_labels
    cn = np.where(np.eye(conv.dim, dtype=bool), 2.0, np.sqrt(2.0))
    def embed(t2):
        vec = np.zeros(len(labels), dtype=complex)
        for idx, (i, j) in enumerate(labels):
            if i == j:
                vec[idx] = t2[i - 1, j - 1]
            else:
                vec[idx] = (t2[i - 1, j - 1] + t2[j - 1, i - 1]) / np.sqrt(2.0)
        return vec
    got = np.zeros((3, 3), dtype=complex)
    for nu in range(3):
        for mu in range(3):
            got[mu, nu] = np.vdot(embed(units[mu]), r2.matrix @ embed(units[nu]))
    np.testing.assert_allclose(got, h, atol=1e-11)


def test_ricci_zero_and_flat_blocks():
    conv = FrameConvention(2)
    zero = validate_tensor(np.zeros((4,) * 4), conv)
    ric = ricci(zero)
    assert ric.scal == 0.0 and ric.is_einstein
    from calabi_lab.model_spaces import product

    t = product([chsc(1, 1.0), flat_torus(1)])
    ric = ricci(t)
    # flat factor occupies global indices 2 and 4 (1-based: e_2, e_4)
    np.testing.assert_allclose(ric.ricci[1, :], 0.0, atol=1e-13)
    np.testing.assert_allclose(ric.ricci[3, :], 0.0, atol=1e-13)
    assert not ric.is_einstein


def test_eigen_expansion_of_mixed_curvature():
    rng = np.random.default_rng(13)
    conv = FrameConvention(2)
    n = 2
    t = tensor_from_calabi(random_hermitian(rng, 3), conv)
    spec = calabi_from_tensor(t).spectrum()
    bar = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    for a in range(n):
        for b in range(n):
            # (R(Z_a, conj Z_b) W_C)^D = R(Z_a, conj Z_b, W_C, W_{bar D})
            lhs = t.complexified()[a, n + b][:, bar].T
            rhs = np.zeros_like(lhs)
            for nu in range(spec.size):
                sig = sym2_element(conv, spec.eigenvectors[:, nu])
                sig_c = conjugate(sig)
                va = sig_c.matrix @ conv.z(a + 1)
                vb = sig.matrix @ conv.zbar(b + 1)
                rhs -= spec.eigenvalues[nu] * (np.outer(vb, va[bar]) - np.outer(va, vb[bar]))
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_random_riemannian_is_not_kaehler():
    conv = FrameConvention(2)
    t = random_riemannian(conv, 3)
    assert t.bianchi_validated
    assert not t.kaehler_validated


def _random_riemannian_loop(conv, seed):
    """Reference: the pair-by-pair loop that random_riemannian vectorizes."""
    rng = np.random.default_rng(seed)
    d = conv.dim
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    m = rng.normal(size=(len(pairs), len(pairs)))
    m = 0.5 * (m + m.T)
    r = np.zeros((d,) * 4)
    for nu, (i, j) in enumerate(pairs):
        for mu, (k, l) in enumerate(pairs):
            val = m[mu, nu]
            for (a, b, sa) in ((i, j, 1.0), (j, i, -1.0)):
                for (c, e, sc) in ((k, l, 1.0), (l, k, -1.0)):
                    r[a, b, c, e] = sa * sc * val
    return r - (r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)) / 3.0


@pytest.mark.parametrize("n", range(1, 8))
def test_random_riemannian_matches_loop(n):
    conv = FrameConvention(n)
    for seed in range(3):
        assert np.array_equal(random_riemannian(conv, seed).components,
                              _random_riemannian_loop(conv, seed))


def test_sign_bug_hook_changes_matrix_only_under_flag():
    t = chsc(2, 1.0)
    clean = calabi_from_tensor(t).matrix
    with inject_sign_bug():
        bugged = calabi_from_tensor(t).matrix
    assert abs(bugged[0, 0] + clean[0, 0]) < 1e-14
    np.testing.assert_allclose(calabi_from_tensor(t).matrix, clean, atol=0)


def _calabi_loop(t):
    """Reference: the Calabi matrix entry by entry over the sym^2 labels."""
    n = t.n
    rz = t.complexified()
    c = np.full((n, n), np.sqrt(2.0))
    np.fill_diagonal(c, 2.0)
    labels = sym2_basis_labels(n)
    h = np.zeros((len(labels), len(labels)), dtype=complex)
    for nu, (a, b) in enumerate(labels):
        for mu, (cc, dd) in enumerate(labels):
            h[mu, nu] = 4.0 * rz[a - 1, n + cc - 1, n + dd - 1, b - 1] / (
                c[a - 1, b - 1] * c[cc - 1, dd - 1])
    return h


@pytest.mark.parametrize("n", range(2, 9))
def test_calabi_from_tensor_matches_loop(n):
    for t in (random_kaehler(n, 11), quadric(n), chsc(n, 1.5)):
        assert np.array_equal(calabi_from_tensor(t).matrix, _calabi_loop(t))


def _validate_loop(r, conv, tol=DEFAULT_TOL):
    """Reference: validate_tensor's residuals and flags with J applied as a
    matrix by tensordot, slot by slot."""
    n, d = conv.n, conv.dim
    jm = np.zeros((d, d))
    for a in range(n):
        jm[a + n, a] = 1.0
        jm[a, a + n] = -1.0
    scale = max(1.0, float(np.max(np.abs(r))))
    res = {
        "antisymmetry_first_pair": float(np.max(np.abs(r + r.transpose(1, 0, 2, 3)))),
        "antisymmetry_second_pair": float(np.max(np.abs(r + r.transpose(0, 1, 3, 2)))),
        "pair_exchange": float(np.max(np.abs(r - r.transpose(2, 3, 0, 1)))),
        "bianchi": float(np.max(np.abs(
            r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)))),
    }
    t1 = np.tensordot(jm, r, axes=(1, 0))
    k1 = np.tensordot(jm, t1, axes=(1, 1)).transpose(1, 0, 2, 3) - r
    t2 = np.tensordot(r, jm, axes=(2, 1))
    k2 = np.tensordot(t2, jm, axes=(2, 1)) - r
    res["kaehler_first_pair"] = float(np.max(np.abs(k1)))
    res["kaehler_second_pair"] = float(np.max(np.abs(k2)))
    bianchi_ok = res["bianchi"] <= tol * scale
    kaehler_ok = bianchi_ok and max(
        res["kaehler_first_pair"], res["kaehler_second_pair"]) <= tol * scale
    return res, bianchi_ok, kaehler_ok


@pytest.mark.parametrize("n", range(2, 9))
def test_validate_residuals_match_tensordot(n):
    conv = FrameConvention(n)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(conv.dim,) * 4)
    x = x - x.transpose(1, 0, 2, 3)
    x = x - x.transpose(0, 1, 3, 2)
    pair_symmetric = x + x.transpose(2, 3, 0, 1)  # Bianchi fails
    flags = []
    for r in (random_kaehler(n, 3).components, quadric(n).components,
              random_riemannian(conv, 4).components, pair_symmetric):
        t = validate_tensor(r, conv)
        res, bianchi_ok, kaehler_ok = _validate_loop(r, conv)
        assert t.residuals == res
        assert (t.bianchi_validated, t.kaehler_validated) == (bianchi_ok, kaehler_ok)
        flags.append((bianchi_ok, kaehler_ok, res["kaehler_first_pair"] > 0.1,
                      res["kaehler_second_pair"] > 0.1))
    assert flags == [(True, True, False, False), (True, True, False, False),
                     (True, False, True, True), (False, False, True, True)]


def _first_violation(r, tol=DEFAULT_TOL):
    """Reference: the pair-symmetry check with one temporary per identity and
    the worst index from argmax over it."""
    scale = max(1.0, float(np.max(np.abs(r))))
    for name, delta in (("antisymmetry_first_pair", r + r.transpose(1, 0, 2, 3)),
                        ("antisymmetry_second_pair", r + r.transpose(0, 1, 3, 2)),
                        ("pair_exchange", r - r.transpose(2, 3, 0, 1))):
        worst = float(np.max(np.abs(delta)))
        if worst > tol * scale:
            idx = np.unravel_index(int(np.argmax(np.abs(delta))), delta.shape)
            return name, tuple(int(i) for i in idx), worst
    return None


@pytest.mark.parametrize("n", [2, 3, 5])
def test_symmetry_violation_names_the_reference_worst_index(n):
    """Each pair symmetry broken in turn, by perturbations that keep the
    earlier ones: the identity, worst index and residual match the reference."""
    conv = FrameConvention(n)
    d = conv.dim
    rng = np.random.default_rng(40 + n)
    base = random_kaehler(n, 5).components
    seen = set()
    for trial in range(30):
        r = base.copy()
        kind = trial % 3
        for _ in range(1 + trial % 4):
            i, j, k, l = (int(x) for x in rng.integers(d, size=4))
            delta = float(rng.normal()) * 10.0 ** float(rng.integers(-6, 1))
            e = np.zeros((d,) * 4)
            e[i, j, k, l] = delta
            if kind >= 1:  # keep the first pair antisymmetric
                e = e - e.transpose(1, 0, 2, 3)
            if kind == 2:  # and the second
                e = e - e.transpose(0, 1, 3, 2)
            r += e
        expected = _first_violation(r)
        if expected is None:
            validate_tensor(r, conv)
            continue
        with pytest.raises(SymmetryViolation) as err:
            validate_tensor(r, conv)
        assert (err.value.identity, err.value.index, err.value.residual) == expected
        seen.add(expected[0])
    assert seen == {"antisymmetry_first_pair", "antisymmetry_second_pair", "pair_exchange"}


def _r1_r2_loop(t):
    """Reference: the R1 and R2 matrices entry by entry over the real labels."""
    r = t.components
    d = t.convention.dim
    lam = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    m1 = np.zeros((len(lam), len(lam)))
    for nu, (i, j) in enumerate(lam):
        for mu, (k, l) in enumerate(lam):
            m1[mu, nu] = 2.0 * r[i - 1, j - 1, k - 1, l - 1]
    sym = [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
    cn = np.where(np.eye(d, dtype=bool), 2.0, np.sqrt(2.0))
    m2 = np.zeros((len(sym), len(sym)))
    for nu, (i, j) in enumerate(sym):
        for mu, (k, l) in enumerate(sym):
            val = 2.0 * (r[i - 1, k - 1, l - 1, j - 1] + r[i - 1, l - 1, k - 1, j - 1])
            m2[mu, nu] = val / (cn[i - 1, j - 1] * cn[k - 1, l - 1])
    return (m1, tuple(lam)), (m2, tuple(sym))


@pytest.mark.parametrize("n", range(1, 5))
def test_r1_r2_operators_match_loop(n):
    # the operators contract the family bases; the loop and the hand-indexed
    # reference read the same entries, so they agree exactly
    conv = FrameConvention(n)
    for t in (random_riemannian(conv, 5), random_kaehler(n, 6)):
        scale = max(1.0, float(np.max(np.abs(t.components))))
        hand = r1_r2_hand_indexed(t.components)
        for op, (want, labels), ref in zip(r1_r2_operators(t), _r1_r2_loop(t), hand):
            assert np.array_equal(ref, want)
            assert np.max(np.abs(op.matrix - want)) <= 1e-15 * scale
            assert op.basis_labels == labels


@pytest.mark.parametrize("n", range(1, 5))
def test_r1_r2_operators_match_the_hand_indexed_reference(n):
    conv = FrameConvention(n)
    tensors = [random_riemannian(conv, seed) for seed in (11, 12, 13)]
    tensors.append(validate_tensor(round_sphere(conv), conv))
    for t in tensors:
        scale = max(1.0, float(np.max(np.abs(t.components))))
        for op, ref in zip(r1_r2_operators(t), r1_r2_hand_indexed(t.components)):
            assert op.matrix.shape == ref.shape
            assert np.max(np.abs(op.matrix - ref)) <= 1e-15 * scale


def _tensor_from_calabi_by_frame_change(h, n):
    """Reference: the (Z, conj Z, Z, conj Z) block filled entry by entry,
    mapped to the real frame by change_pairs and antisymmetrized in both
    pairs (the complex array, before the realness check)."""
    pid = {}
    for nu, (a, b) in enumerate(sym2_basis_labels(n)):
        pid[a - 1, b - 1] = pid[b - 1, a - 1] = nu

    def norm(a, b):
        return 2.0 if a == b else np.sqrt(2.0)

    qm = np.zeros((n,) * 4, dtype=complex)
    for a, b, c, d in itertools.product(range(n), repeat=4):
        # R(Z_a, conj Z_c, conj Z_d, Z_b) = c_ab c_cd h[(c, d), (a, b)] / 4
        qm[a, c, b, d] = -norm(a, b) * norm(c, d) * h[pid[c, d], pid[a, b]] / 4.0
    z, zbar = E_BLOCK[:, :1], E_BLOCK[:, 1:]
    re = change_pairs(qm, (z, zbar, z, zbar))
    re = re - re.transpose(1, 0, 2, 3)
    return re - re.transpose(0, 1, 3, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_tensor_from_calabi_matches_the_frame_change_build(n):
    m = n * (n + 1) // 2
    rng = np.random.default_rng(100 + n)
    mats = [random_hermitian(rng, m), 2.5 * np.eye(m), np.zeros((m, m))]
    if n >= 2:
        mats.append(calabi_from_tensor(quadric(n)).matrix)
    for h in mats:
        t = tensor_from_calabi(h, FrameConvention(n))
        ref = _tensor_from_calabi_by_frame_change(h, n)
        scale = max(1.0, float(np.max(np.abs(h))))
        assert np.max(np.abs(ref.imag)) <= 1e-15 * scale
        assert np.max(np.abs(t.components - ref.real)) <= 1e-15 * scale
        assert t.kaehler_validated


@pytest.mark.parametrize("n", range(1, 5))
def test_tensor_from_calabi_still_refuses_bad_matrices(n):
    conv = FrameConvention(n)
    m = n * (n + 1) // 2
    h = random_hermitian(np.random.default_rng(n), m)
    skew = h.copy()
    skew[0, -1] += 1e-6 if m > 1 else 1e-6j
    with pytest.raises(NotHermitian, match="must be Hermitian"):
        tensor_from_calabi(skew, conv)
    with pytest.raises(NotHermitian, match="expected a"):
        tensor_from_calabi(np.eye(m + 1), conv)
    for bad in (np.nan, np.inf):
        broken = h.copy()
        broken[-1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            tensor_from_calabi(broken, conv)


@pytest.mark.parametrize("n", range(1, 7))
def test_su_complement_is_one_cached_read_only_qr(n):
    m = n * n
    cols = [omega_coords(n)] + [np.eye(m, dtype=complex)[:, j] for j in range(m)]
    q, _ = np.linalg.qr(np.column_stack(cols))
    b = su_complement(n)
    assert b.shape == (m, m - 1)
    np.testing.assert_allclose(b, q[:, 1:m], rtol=0, atol=1e-15)
    assert su_complement(n) is b
    with pytest.raises(ValueError, match="read-only"):
        b[...] = 0
