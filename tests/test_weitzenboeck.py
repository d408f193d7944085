"""The Lichnerowicz curvature term and the action estimates."""

import itertools
import math
import string
import tracemalloc

import numpy as np
import pytest

from calabi_lab import frames
from calabi_lab import weitzenboeck as wz
from calabi_lab.curvature import (
    calabi_from_tensor,
    kaehler_operator,
    random_riemannian,
    restrict_su,
    ricci,
    su_complement,
    validate_tensor,
)
from calabi_lab.frames import (
    EndoC,
    FormPQ,
    FrameConvention,
    RealForm,
    _coords,
    dense_conj,
    dense_z_to_e,
    lambda11_basis_labels,
    sym2_basis_labels,
)
from calabi_lab.model_spaces import chsc, random_kaehler, random_kaehler_einstein
from calabi_lab.spectral import eigensystem
from calabi_lab.weitzenboeck import (
    NotSymmetric,
    SamplingFailure,
    _contract,
    _create,
    _gram_scores,
    _interior,
    _pair_create,
    _pair_matrix,
    _sym2_coords,
    _sym2_grams,
    achievability_endo,
    achievability_form,
    achievability_ratio,
    check_r2_gl_identity,
    check_ricl_r2_split,
    estimate_bound,
    estimate_sampling,
    family_mats,
    norm_phi_g,
    oracle_coords,
    oracle_grams,
    oracle_matrices,
    phi_g,
    random_primitive_real,
    random_primitive_reals,
    random_real_pform,
    ricl_bruteforce,
    ricl_pairing,
    ricl_pairing_batch,
    ricl_pairing_coords,
    ricl_pairing_grams,
    ricl_via_calabi,
    ricl_via_calabi_batch,
    ricl_via_kaehler_su,
    stress_search,
)
from dense_reference import act_dense, alternate, derivation_action, derivation_coords
from per_tensor_reference import random_primitive_real_per_form

RNG = np.random.default_rng(99)

_LETTERS = string.ascii_lowercase


def dense_ricl(t, dense_e):
    """Reference Ric_L(phi) on dense components over the real frame:
    ``Ric_L(phi)(x_1..x_k) = sum_s sum_j (R(x_s, e_j) phi)(x_1, .., e_j, .., x_k)``
    summed with einsum over every pair of slots, for a stack of forms."""
    r = t.components
    arr = np.asarray(dense_e, dtype=complex)
    k = arr.ndim - 1
    out = np.zeros_like(arr)
    slot = [_LETTERS[12 + i] for i in range(k)]  # m, n, o, ... clear of a/c/d/j/z
    base = "z" + "".join(slot)
    for s in range(k):
        for tt in range(k):
            if tt == s:
                # argument substituted at slot s is acted on itself
                rc = np.einsum("ajjd->ad", r)
                src = base.replace(slot[s], "d")
                term = np.einsum(f"ad,{src}->{base.replace(slot[s], 'a')}", rc, arr)
            else:
                src = base.replace(slot[s], "j").replace(slot[tt], "d")
                dst = base.replace(slot[s], "a").replace(slot[tt], "c")
                term = np.einsum(f"ajcd,{src}->{dst}", r, arr, optimize=True)
            out -= term
    return out


def ricl_double_annihilation(t, x, k):
    """Reference Ric_L over ordered index pairs: the second-order term
    ``-sum R_ajcd e^a e^c iota_d iota_j`` through two rounds of the single
    annihilation and creation operators, on the full ``d^2``-pair stack."""
    r = t.components
    d = r.shape[0]
    x = np.asarray(x, dtype=complex)
    b = x.shape[0]
    if k == 0:
        return np.zeros_like(x)
    once = _interior(x, d, k, 1)
    coef = np.trace(r, axis1=1, axis2=2) @ once
    if k >= 2:
        twice = _interior(once.reshape(b * d, -1), d, k - 1, 1)  # [b*j, d, ...]
        pair = r.transpose(0, 2, 1, 3).reshape(d * d, d * d) @ twice.reshape(b, d * d, -1)
        coef = coef + _create(pair.reshape(b * d, d, -1), d, k - 1).reshape(b, d, -1)
    return -_create(coef, d, k)


def sym2_eigen_endos(conv, spec):
    """Reference: the Calabi eigen-elements as dense matrices, each built
    entry by entry from its coordinates over the unit sym^2 V^{1,0} basis."""
    mats = []
    for v in spec.eigenvectors.T:
        hat = np.zeros((conv.n, conv.n), dtype=complex)
        for (a, b), c in zip(sym2_basis_labels(conv.n), v):
            if a == b:
                hat[a - 1, a - 1] += c
            else:
                hat[a - 1, b - 1] += c / math.sqrt(2.0)
                hat[b - 1, a - 1] += c / math.sqrt(2.0)
        mats.append(EndoC.from_sym_hat(conv, hat).matrix)
    return np.array(mats)


def su_eigen_endos(conv, spec):
    """Reference: the restricted Kaehler eigen-elements as dense matrices, in
    the half-trace convention: sqrt2 times the unit elements
    Z_a ^ conj(Z_b) / sqrt2 that ``su_complement`` is written over, so each
    coordinate is the coefficient of Z_a ^ conj(Z_b)."""
    mats = []
    for v in spec.eigenvectors.T:
        c = np.zeros((conv.n, conv.n), dtype=complex)
        for (a, b), x in zip(lambda11_basis_labels(conv.n), su_complement(conv.n) @ v):
            c[a - 1, b - 1] += x
        mats.append(EndoC.from_lambda11(conv, c).matrix)
    return np.array(mats)


def random_form(conv, p, q, rng=RNG):
    """Complex Gaussian coefficients, drawn as (re, im) pairs in generator order."""
    raw = rng.standard_normal((math.comb(conv.n, p) * math.comb(conv.n, q), 2))
    return FormPQ.from_coefficient_vector(conv, p, q, raw[:, 0] + 1j * raw[:, 1])


def test_ricl_zero_curvature():
    conv = FrameConvention(2)
    zero = validate_tensor(np.zeros((4,) * 4), conv)
    psi = random_primitive_real(conv, 1, 1, RNG)
    assert abs(ricl_pairing(zero, psi)) < 1e-15


def test_ricl_one_forms_pair_to_ricci():
    rng = np.random.default_rng(1)
    conv = FrameConvention(2)
    t = random_kaehler(2, 5)
    ric = ricci(t)
    phi = random_form(conv, 1, 0, rng)
    # phi = sum c_a Z^a has musical dual sum c_a conj(Z_a)
    cvec = phi.coefficient_vector()
    p = conv.frame_change
    ric_z = p.T @ ric.ricci @ p
    vec = np.concatenate([np.zeros(2), cvec])
    dual = np.concatenate([cvec.conj(), np.zeros(2)])
    expected = vec @ ric_z @ dual
    assert abs(ricl_pairing(t, phi) - expected) < 1e-11 * max(1.0, abs(expected))


def test_ricl_top_forms_pair_to_half_scal():
    # (n,0)-forms: the curvature term is (scal/2)|phi|^2
    for n in (1, 2, 3):
        t = random_kaehler(n, 21)
        ric = ricci(t)
        conv = t.convention
        top = FormPQ.generator(conv, tuple(range(1, n + 1)), ())
        val = ricl_pairing(t, top).real
        assert abs(val - 0.5 * ric.scal * top.norm_sq()) < 1e-10 * max(1.0, abs(val))


def test_curvature_term_matches_bruteforce():
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in (2, 3):
        conv = FrameConvention(n)
        for seed in (1, 2, 3):
            t = random_kaehler(n, seed)
            spec = calabi_from_tensor(t).spectrum()
            for (p, q) in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]:
                if p + q > n:
                    continue
                psi = random_primitive_real(conv, p, q, rng)
                bf = ricl_pairing(t, psi).real
                ec = ricl_via_calabi(spec, psi)
                worst = max(worst, abs(bf - ec) / max(1.0, abs(bf)))
    assert worst < 1e-9


def _kernel_test_forms(conv, k, rng):
    """A pure (p,q)-form of random bidegree, its real part (p,q)+(q,p) and a
    mixed-bidegree k-form, in the Z frame."""
    pure = [random_form(conv, p, k - p, rng) for p in range(k + 1)
            if p <= conv.n and k - p <= conv.n]
    phi = pure[rng.integers(len(pure))]
    mixed = sum(f.to_dense() for f in pure)
    return np.array([phi.to_dense(), RealForm.symmetrize(phi).to_dense(), mixed])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derivation_coords_match_dense_action(n):
    """Per-form norms and Gram matrices of the derivation action in exterior
    coordinates against the dense reference, for every family and random
    endomorphisms, in the Z frame and in the real frame, in degrees
    0..min(2n, 5); and in the degrees 0 and 2n, where Lambda^k has one
    coordinate and L acts by 0 and by -tr(L)."""
    rng = np.random.default_rng(1000 + n)
    conv = FrameConvention(n)
    d = conv.dim
    for k in range(min(d, 5) + 1):
        stack_z = _kernel_test_forms(conv, k, rng)
        stack_e = dense_z_to_e(stack_z, conv, k)
        random_z = np.array([EndoC(conv, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                             .matrix for _ in range(2)])
        cases = [(family_mats(n, tag), stack_z, "z") for tag in ("sym2_10", "u", "su")]
        cases += [(family_mats(n, tag), stack_e, "e") for tag in ("gl", "so", "sym2_real")]
        cases += [(random_z, stack_z, "z"), (random_z, stack_e, "e"),
                  (rng.normal(size=(2, d, d)), stack_e, "e")]
        for mats, stack, frame in cases:
            got = derivation_coords(mats, _coords(stack, frame)[0], k).transpose(1, 0, 2)
            ref = np.array([derivation_action(m, stack, k) for m in mats]).reshape(
                len(mats), len(stack), d ** k).transpose(1, 0, 2)
            gram = got.conj() @ got.transpose(0, 2, 1)
            gram_ref = ref.conj() @ ref.transpose(0, 2, 1)
            scale = max(1.0, float(np.max(np.abs(gram_ref), initial=0.0)))
            assert np.max(np.abs(gram - gram_ref), initial=0.0) <= 1e-12 * scale
            norms = np.sum(np.abs(got) ** 2, axis=2)
            norms_ref = np.sum(np.abs(ref) ** 2, axis=2)
            assert np.max(np.abs(norms - norms_ref), initial=0.0) <= 1e-12 * scale
    x = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
    for mats, _, _ in cases:
        zero = derivation_coords(mats, x, 0)
        assert zero.shape == (len(mats), 3, 1) and not np.any(zero)
        got = derivation_coords(mats, x, d)
        ref = -np.trace(mats, axis1=1, axis2=2)[:, None, None] * x
        assert got.shape == ref.shape
        scale = max(1.0, np.max(np.abs(ref), initial=0.0))
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale


def test_curvature_term_on_mixed_degree_real_forms():
    rng = np.random.default_rng(3)
    conv = FrameConvention(2)
    t = random_kaehler(2, 9)
    spec = calabi_from_tensor(t).spectrum()

    dense = random_form(conv, 2, 0, rng).to_dense() + random_form(conv, 1, 1, rng).to_dense()
    dense = dense + dense_conj(dense, conv)
    x = _coords(dense_z_to_e(dense, conv)[None], "e")[0]
    bf = float(np.real(np.sum(ricl_bruteforce(t, x, 2) * x.conj())))
    acted = derivation_coords(sym2_eigen_endos(conv, spec), _coords(dense[None], "z")[0], 2)
    norms = np.sum(np.abs(acted[:, 0]) ** 2, axis=1)
    ec = 2.0 * float(np.dot(spec.eigenvalues, norms))
    assert abs(bf - ec) < 1e-9 * max(1.0, abs(bf))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ricl_bruteforce_matches_dense_frame_sum(n):
    """The full Ric_L(psi) of the exterior-coordinate oracle against the dense
    einsum frame sum, on Kaehler and general Riemannian tensors and on
    complex, real and mixed-bidegree forms of every degree k <= min(2n, 5)."""
    rng = np.random.default_rng(2000 + n)
    conv = FrameConvention(n)
    tensors = [random_kaehler(n, 40 + n), random_riemannian(conv, 60 + n)]
    for k in range(min(conv.dim, 5) + 1):
        stack_e = dense_z_to_e(_kernel_test_forms(conv, k, rng), conv, k)
        for t in tensors:
            x = _coords(stack_e, "e")[0]
            got = ricl_bruteforce(t, x, k)
            assert got.shape == (len(stack_e), math.comb(conv.dim, k))
            ref = _coords(dense_ricl(t, stack_e), "e")[0]
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale
            single = np.array([ricl_bruteforce(t, row[None], k)[0] for row in x])
            assert np.max(np.abs(single - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_oracle_matches_double_annihilation(n):
    """The pair-form oracle against the ordered-pair double annihilation, on
    a Kaehler and a general Riemannian tensor, for every degree k <= 2n, on
    a batch of complex forms and on each form alone, to 1e-12 of the scale."""
    rng = np.random.default_rng(3000 + n)
    conv = FrameConvention(n)
    for t in (random_kaehler(n, 30 + n), random_riemannian(conv, 50 + n)):
        for k in range(conv.dim + 1):
            size = math.comb(conv.dim, k)
            x = rng.normal(size=(4, size)) + 1j * rng.normal(size=(4, size))
            ref = ricl_double_annihilation(t, x, k)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(ricl_bruteforce(t, x, k) - ref)) <= 1e-12 * scale
            single = np.array([ricl_bruteforce(t, row[None], k)[0] for row in x])
            assert np.max(np.abs(single - ref)) <= 1e-12 * scale


def _annihilation_table_reference(d, k):
    """``wz._annihilation_table`` through a dict over the (k-1)-subsets and a
    per-subset lookup of each J minus J_s."""
    subsets = list(itertools.combinations(range(d), k))
    where = {key: i for i, key in enumerate(itertools.combinations(range(d), k - 1))}
    removed = np.array(subsets, dtype=np.intp)
    rest = np.array([[where[key[:s] + key[s + 1:]] for s in range(k)] for key in subsets],
                    dtype=np.intp)
    sign = np.tile((-1.0) ** np.arange(k), (len(subsets), 1))
    return removed, rest, sign


def test_annihilation_table_matches_dict_reference():
    """The ranked table equals the dict-built one, array for array (shape,
    dtype and entries), for every d <= 10 and k = 1..d."""
    for d in range(1, 11):
        for k in range(1, d + 1):
            for got, want in zip(wz._annihilation_table(d, k), _annihilation_table_reference(d, k),
                                 strict=True):
                assert got.dtype == want.dtype and got.shape == want.shape, (d, k)
                assert np.array_equal(got, want), (d, k)


@pytest.mark.parametrize("d", [2, 4, 7])
def test_pair_table_composes_two_annihilations(d):
    """The pair annihilation equals iota(e_j) iota(e_i) through the single
    ``_interior`` twice, at the pairs i < j, exactly; the twice-annihilated stack is
    antisymmetric in (i, j), so it holds nothing more.  The pair creation is
    its transpose."""
    rng = np.random.default_rng(d)
    i, j = np.triu_indices(d, 1)
    for k in range(2, d + 1):
        x = rng.normal(size=(3, math.comb(d, k))) + 1j * rng.normal(size=(3, math.comb(d, k)))
        once = _interior(x, d, k, 1)
        twice = _interior(once.reshape(3 * d, -1), d, k - 1, 1).reshape(3, d, d, -1)
        pairs = _interior(x, d, k, 2)
        assert np.array_equal(pairs, twice[:, i, j])
        assert np.array_equal(twice, -twice.transpose(0, 2, 1, 3))
        y = rng.normal(size=pairs.shape) + 1j * rng.normal(size=pairs.shape)
        lhs = np.sum(_pair_create(y, d, k) * x.conj())
        rhs = np.sum(y * pairs.conj())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_works_real_stacks_in_float64(n):
    """A real stack (float, or complex with every imaginary part exactly 0)
    takes the float64 path and comes back real; next to one complex form it
    takes the complex path.  The two agree to 1e-15 of the size of the frame
    sum's terms, d max|R| max|x| (Ric_L cancels to rounding at the top
    degree), on a Kaehler and a general Riemannian tensor at every degree.
    The real-frame coordinates of random primitive real forms have imaginary
    parts exactly 0, so the oracle works them in float64."""
    rng = np.random.default_rng(4000 + n)
    conv = FrameConvention(n)
    d = conv.dim
    for t in (random_kaehler(n, 70 + n), random_riemannian(conv, 80 + n)):
        for k in range(d + 1):
            size = math.comb(d, k)
            x = rng.normal(size=(4, size))
            real = ricl_bruteforce(t, x, k)
            assert real.dtype == np.float64
            assert np.array_equal(ricl_bruteforce(t, x + 0j, k), real)
            mixed = np.concatenate([x, rng.normal(size=(1, size)) + 1j * rng.normal(size=(1, size))])
            complex_path = ricl_bruteforce(t, mixed, k)[:4]
            assert complex_path.dtype == np.complex128 and not np.any(complex_path.imag)
            scale = d * float(np.max(np.abs(t.components))) * float(np.max(np.abs(x)))
            assert np.max(np.abs(complex_path.real - real)) <= 1e-15 * scale, k
    for p in range(n + 1):
        for q in range(p + 1):
            if 1 <= p + q <= n:
                psi = random_primitive_real(conv, p, q, rng)
                assert not np.any(psi.coords("e").imag)
                assert ricl_bruteforce(t, psi.coords("e")[None], p + q).dtype == np.float64


def test_oracle_slices_give_the_one_slice_output(monkeypatch):
    """A batch cut into slices gives exactly the output of one slice."""
    n, k = 3, 3
    t = random_kaehler(n, 8)
    rng = np.random.default_rng(8)
    size = math.comb(2 * n, k)
    x = rng.normal(size=(7, size)) + 1j * rng.normal(size=(7, size))
    whole = ricl_bruteforce(t, x, k)
    per_form = math.comb(2 * n, 2) * math.comb(2 * n, k - 2)
    assert len(x) * per_form <= wz._SLICE_ENTRIES
    monkeypatch.setattr(wz, "_SLICE_ENTRIES", 3 * per_form)  # slices of 3, 3, 1
    assert np.array_equal(ricl_bruteforce(t, x, k), whole)


def test_oracle_peak_memory_is_bounded_by_the_slice(monkeypatch):
    """A top-degree batch at n = 6 that takes several slices allocates at most
    two slice stacks (the pair stack and its product with the pair matrix)
    besides the input, output and per-slice result; the whole batch as one
    slice would allocate more than twice that bound."""
    n, k = 6, 6
    t = random_kaehler(n, 6)
    size = math.comb(2 * n, k)
    x = np.random.default_rng(6).normal(size=(24, size)) + 0j
    per_form = math.comb(2 * n, 2) * math.comb(2 * n, k - 2)
    monkeypatch.setattr(wz, "_SLICE_ENTRIES", 8 * per_form)  # three slices of 8
    ricl_bruteforce(t, x[:1], k)  # fill the table caches
    tracemalloc.start()
    try:
        ricl_bruteforce(t, x, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * 16 * wz._SLICE_ENTRIES + 3 * x.nbytes
    assert peak <= bound
    assert 2 * 16 * len(x) * per_form > 2 * bound


def _pairing_stacks(d, k, rng):
    """Four real stacks, four complex ones, and the real ones next to one
    complex form (which the oracle works on its complex path)."""
    size = math.comb(d, k)
    real = rng.normal(size=(4, size))
    cplx = rng.normal(size=(4, size)) + 1j * rng.normal(size=(4, size))
    return [real, cplx, np.concatenate([real + 0j, cplx[:1]])]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pairings_match_the_bruteforce_field(n):
    """The direct and the Gram pairing equal g(Ric_L x, conj x) from the full
    ``ricl_bruteforce`` field, on a Kaehler and a general Riemannian tensor,
    at every degree, on real, complex and mixed stacks, to 1e-12 of
    max(1, |value|)."""
    rng = np.random.default_rng(5000 + n)
    conv = FrameConvention(n)
    d = conv.dim
    for t in (random_kaehler(n, 110 + n), random_riemannian(conv, 120 + n)):
        mats = oracle_matrices(t)
        for k in range(d + 1):
            for stack in _pairing_stacks(d, k, rng):
                x = wz._oracle_stack(stack)
                want = np.real(np.sum(ricl_bruteforce(t, x, k) * x.conj(), axis=1))
                scale = np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(ricl_pairing_coords(mats, x, k) - want) <= 1e-12 * scale), k
                got = ricl_pairing_grams(mats, oracle_grams(x, d, k))
                assert np.all(np.abs(got - want) <= 1e-12 * scale), k


def test_pairings_chunked_over_subsets_equal_the_whole(monkeypatch):
    """With ``_SLICE_ENTRIES`` below one form's pair stack, each form is
    paired over runs of the (k-2)-subsets, and the direct and Gram pairings
    equal the one-piece ones up to the order of the sums over the runs
    (1e-13 of max(1, |value|)); the Gram matrices are symmetric."""
    n, k = 4, 6
    d = 2 * n
    rng = np.random.default_rng(12)
    mats = oracle_matrices(random_kaehler(n, 12))
    per_form = math.comb(d, 2) * math.comb(d, k - 2)
    for stack in _pairing_stacks(d, k, rng):
        x = wz._oracle_stack(stack)
        assert len(x) * per_form <= wz._SLICE_ENTRIES
        whole = ricl_pairing_coords(mats, x, k), oracle_grams(x, d, k)
        with monkeypatch.context() as patch:
            patch.setattr(wz, "_SLICE_ENTRIES", per_form // 3)  # runs of 23 of 70 subsets
            direct, grams = ricl_pairing_coords(mats, x, k), oracle_grams(x, d, k)
        scale = np.maximum(1.0, np.abs(whole[0]))
        assert np.all(np.abs(direct - whole[0]) <= 1e-13 * scale)
        assert np.all(np.abs(ricl_pairing_grams(mats, grams) - whole[0]) <= 1e-13 * scale)
        for g, w in zip(grams, whole[1]):
            assert np.array_equal(g, g.transpose(0, 2, 1))
            assert np.max(np.abs(g - w)) <= 1e-13 * max(1.0, float(np.max(np.abs(w))))


def test_pairing_peak_memory_is_bounded_within_one_form(monkeypatch):
    """One top-degree form at n = 6 whose pair stack is five times the slice
    is paired over runs of subsets: directly and through its Gram matrices,
    it allocates at most two slice stacks (the run's stack and its product)
    and the run's gathered entries, besides the input; its whole pair stack
    with one product would allocate more than twice that bound."""
    n, k = 6, 6
    d = 2 * n
    t = random_kaehler(n, 6)
    mats = oracle_matrices(t)
    x = np.random.default_rng(6).normal(size=(1, math.comb(d, k)))
    rows, cols = math.comb(d, 2), math.comb(d, k - 2)
    monkeypatch.setattr(wz, "_SLICE_ENTRIES", rows * cols // 5)
    width = wz._SLICE_ENTRIES // rows
    gathered = width * math.comb(d - k + 2, 2)  # the run's entries, and their indices
    bound = 2 * 8 * wz._SLICE_ENTRIES + 3 * 8 * gathered + 3 * x.nbytes
    ricl_pairing_coords(mats, x, k)  # fill the table caches
    for pair in (lambda: ricl_pairing_coords(mats, x, k),
                 lambda: ricl_pairing_grams(mats, oracle_grams(x, d, k))):
        tracemalloc.start()
        try:
            pair()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
    assert 2 * 8 * rows * cols > 2 * bound


def test_sequence_coords_match_the_forms_own():
    """The coordinates of a sequence of forms, scattered from their blocks
    (with one conjugation gather per group of real forms), equal each form's
    own coordinates exactly, in both frames, for FormPQ and RealForm of
    every bidegree of one degree.  Both come from ``frames._coords``; the
    dense route is their independent reference, for such mixed sequences
    too, in ``test_frames.test_coords_match_dense_route``."""
    rng = np.random.default_rng(13)
    conv = FrameConvention(3)
    for k in range(1, 5):
        forms = []
        for p in range(max(0, k - 3), min(k, 3) + 1):
            phi = random_form(conv, p, k - p, rng)
            forms += [phi, RealForm.symmetrize(phi), random_form(conv, p, k - p, rng)]
        for frame in ("z", "e"):
            x, degree = _coords(forms, frame)
            assert degree == k
            assert np.array_equal(x, np.array([f.coords(frame) for f in forms]))


def _random_forms(conv, p, q, count, rng):
    size = math.comb(conv.n, p) * math.comb(conv.n, q)
    return [FormPQ.from_coefficient_vector(conv, p, q, rng.normal(size=size) + 1j * rng.normal(size=size))
            for _ in range(count)]


def test_eigen_route_slices_give_the_one_slice_output(monkeypatch):
    """Both eigenvalue routes cut a batch into slices and give exactly the
    output of one slice."""
    n, p, q = 4, 2, 2
    conv = FrameConvention(n)
    rng = np.random.default_rng(9)
    forms = _random_forms(conv, p, q, 7, rng)
    spec = calabi_from_tensor(random_kaehler(n, 9)).spectrum()
    te = random_kaehler_einstein(n, 9)
    lam = ricci(te).einstein_lambda
    su_spec = restrict_su(kaehler_operator(te), ricci(te)).spectrum()
    whole = (ricl_via_calabi_batch(spec, conv, forms), ricl_via_kaehler_su(lam, su_spec, forms))
    size = math.comb(n, p) * math.comb(n, q)  # the (p,q) grid, larger than the (p-1,q+1) one
    per_form = max(len(family_mats(n, "sym2_10")), len(family_mats(n, "u"))) * size
    assert len(forms) * per_form <= wz._SLICE_ENTRIES
    # slices of 3, 3, 1 for the 16 u elements, of 4, 3 for the 10 sym2_10 ones
    monkeypatch.setattr(wz, "_SLICE_ENTRIES", 3 * per_form)
    assert np.array_equal(ricl_via_calabi_batch(spec, conv, forms), whole[0])
    assert np.array_equal(ricl_via_kaehler_su(lam, su_spec, forms), whole[1])


def test_eigen_route_peak_memory_is_bounded_by_the_slice(monkeypatch):
    """A (3,3) batch at n = 6 that takes three slices allocates at most four
    complex stacks of the basis actions on one slice's (p,q) grid (2.7 here:
    the kernel's gathers and accumulators on the grid and its (2,4) image,
    the action and its mix); the whole batch as one slice allocates more
    (5.7 here)."""
    n, p, q = 6, 3, 3
    conv = FrameConvention(n)
    forms = _random_forms(conv, p, q, 24, np.random.default_rng(6))
    spec = calabi_from_tensor(random_kaehler(n, 6)).spectrum()
    per_form = len(family_mats(n, "sym2_10")) * math.comb(n, p) * math.comb(n, q)

    def peak(entries):
        monkeypatch.setattr(wz, "_SLICE_ENTRIES", entries)
        ricl_via_calabi_batch(spec, conv, forms[:1])  # fill the table caches
        tracemalloc.start()
        try:
            ricl_via_calabi_batch(spec, conv, forms)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bound = 4 * 16 * 8 * per_form
    assert peak(8 * per_form) <= bound  # three slices of 8
    assert peak(len(forms) * per_form) > bound


def test_oracle_is_independent_of_the_eigen_route_kernels(monkeypatch):
    """The oracle, direct and through the Gram matrices, runs with the
    Z-frame derivation kernel, its index and grid tables and the algebra
    bases of the eigenvalue routes made to fail (on real forms, so through
    its float64 path)."""
    n = 3
    conv = FrameConvention(n)
    t = random_kaehler(n, 4)
    rng = np.random.default_rng(4)
    forms = [random_primitive_real(conv, p, q, rng) for p, q in [(2, 1), (3, 0), (2, 1)]]
    want = [ricl_pairing(t, f).real for f in forms]

    def never(*args, **kwargs):
        raise AssertionError("the oracle used an eigenvalue-route kernel")

    for name in ("derivation_table", "family_table", "grid_table", "act_on_grid",
                 "apply_derivation", "_slots", "family_mats"):
        monkeypatch.setattr(frames, name, never)
        if hasattr(wz, name):
            monkeypatch.setattr(wz, name, never)
    got = ricl_pairing_batch(t, forms)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
    assert [ricl_pairing(t, f).real for f in forms] == want
    same = [f for f in forms if (f.p, f.q) == (2, 1)]
    x, k = oracle_coords(same)
    got = ricl_pairing_grams(oracle_matrices(t), oracle_grams(x, conv.dim, k))
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - [want[0], want[2]])) <= 1e-12 * scale


def _primitive_pairs(n):
    return [(p, q) for p in range(n + 1) for q in range(p + 1) if 1 <= p + q <= n]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eigen_routes_match_dense_eigen_elements(n):
    """The eigen-routes mix the actions of the unit basis by the eigenvector
    coordinates; the direct action of the dense eigen-element stacks gives
    the same curvature terms to 1e-12 relative."""
    rng = np.random.default_rng(700 + n)
    conv = FrameConvention(n)
    spec = calabi_from_tensor(random_kaehler(n, 70 + n)).spectrum()
    sym2_mats = sym2_eigen_endos(conv, spec)
    te = random_kaehler_einstein(n, 80 + n)
    lam = ricci(te).einstein_lambda
    su_spec = restrict_su(kaehler_operator(te), ricci(te)).spectrum()
    su_mats = su_eigen_endos(conv, su_spec)
    for (p, q) in _primitive_pairs(n):
        k = p + q
        forms = [random_primitive_real(conv, p, q, rng) for _ in range(3)]
        norms = np.sum(np.abs(derivation_coords(
            sym2_mats, np.array([f.coords("z") for f in forms]), k)) ** 2, axis=2)
        want = 2.0 * (spec.eigenvalues @ norms)
        scale = max(1.0, 2.0 * float(np.max(np.abs(spec.eigenvalues) @ norms)))
        assert np.max(np.abs(ricl_via_calabi_batch(spec, conv, forms) - want)) <= 1e-12 * scale
        single = np.array([ricl_via_calabi(spec, f) for f in forms])
        assert np.max(np.abs(single - want)) <= 1e-12 * scale

        phis = [f.phi for f in forms]
        su_norms = np.sum(np.abs(derivation_coords(
            su_mats, np.array([phi.coords("z") for phi in phis]), k)) ** 2, axis=2)
        first = lam * (p - q) ** 2 / n * np.array([phi.norm_sq() for phi in phis])
        want_ke = first + su_spec.eigenvalues @ su_norms
        scale_ke = max(1.0, float(np.max(np.abs(first) + np.abs(su_spec.eigenvalues) @ su_norms)))
        assert np.max(np.abs(ricl_via_kaehler_su(lam, su_spec, phis) - want_ke)) <= 1e-12 * scale_ke
        got_ke = ricl_via_kaehler_su(lam, su_spec, phis[0])
        assert isinstance(got_ke, float)
        assert abs(got_ke - want_ke[0]) <= 1e-12 * scale_ke


def _replayed_estimate(conv, p, q, rng, n_psi, n_s, fail=None):
    """Reference: estimate_sampling's psi drawn one by one (the per-form
    sampler; psi ``fail`` first spends one draw, as a projection that comes
    out 0 does), then each sample's hats by the two ``rng.normal`` calls,
    every S scored by its direct action on psi.  Returns the violation
    count, the largest ratio, and per sample psi, its hats and their direct
    scores."""
    n, k = conv.n, p + q
    cmin = min(p, q, math.sqrt(p * q) / 2.0)
    violations, ratio, samples = 0, 0.0, []
    for psi in _per_form_samples(conv, p, q, rng, n_psi, fail):
        hats = rng.normal(size=(n_s, n, n)) + 1j * rng.normal(size=(n_s, n, n))
        hats = (hats + hats.transpose(0, 2, 1)) / 2.0
        mats = np.array([EndoC.from_sym_hat(conv, h).matrix for h in hats])
        direct = np.sum(np.abs(derivation_coords(mats, psi.coords("z")[None], k)) ** 2,
                        axis=(1, 2))
        hat_norm = float(np.sum(np.abs(derivation_coords(
            family_mats(n, "sym2_10"), psi.coords("z")[None], k)) ** 2))
        s_norms = np.sum(np.abs(hats.reshape(n_s, -1)) ** 2, axis=1)
        bound = (0.5 + cmin) * s_norms * psi.norm_sq()
        tight = np.minimum(bound, (2.0 + 4.0 * cmin) / ((p + q) * (n + 1) - 2 * p * q)
                           * s_norms * hat_norm)
        violations += int(np.sum(direct > tight + 1e-10 * np.maximum(1.0, tight)))
        ratio = max(ratio, float(np.max(direct / bound)))
        samples.append((psi, hats, direct))
    return violations, ratio, samples


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sym2_gram_scores_match_direct_action(n):
    """|S psi|^2 as c* G c against the Gram matrix of the unit-basis actions,
    per sampled S, against the direct action of S, to 1e-12 relative; and
    estimate_sampling's figures against a replay of its samples scored
    directly."""
    conv = FrameConvention(n)
    for (p, q) in _primitive_pairs(n):
        rng = np.random.default_rng([800, n, p, q])
        out = estimate_sampling(conv, p, q, n_psi=2, n_s=20, rng=rng)
        replay = np.random.default_rng([800, n, p, q])
        violations, ratio, samples = _replayed_estimate(conv, p, q, replay, 2, 20)
        for psi, hats, direct in samples:
            got = _gram_scores(_sym2_grams(n, [psi])[0], _sym2_coords(hats))
            assert np.max(np.abs(got - direct) / direct) <= 1e-12
        assert out["violations"] == violations == 0
        assert abs(out["max_ratio"] - ratio) <= 1e-12 * ratio
        assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("fail", [0, 1, 2])
@pytest.mark.parametrize("n, p, q", [(4, 2, 1), (3, 1, 1)])
def test_estimate_sampling_keeps_its_stream_through_a_retry(n, p, q, fail, monkeypatch):
    """With one psi's projection forced to 0 once, estimate_sampling draws
    that psi and every later one anew, and then the hats: its figures and
    the generator's final state are those of a replay that draws the psi
    one by one with the per-form retry rule, then the hats."""
    conv = FrameConvention(n)
    calls = _fail_once(monkeypatch, fail)
    rng, replay = np.random.default_rng([802, n, fail]), np.random.default_rng([802, n, fail])
    out = estimate_sampling(conv, p, q, n_psi=3, n_s=20, rng=rng)
    violations, ratio, _ = _replayed_estimate(conv, p, q, replay, 3, 20, fail=fail)
    assert calls == [3, 3 - fail]
    assert out["violations"] == violations == 0
    assert out["samples"] == 60
    assert abs(out["max_ratio"] - ratio) <= 1e-12 * ratio
    assert rng.bit_generator.state == replay.bit_generator.state


def test_estimate_sampling_is_the_same_over_one_form_slices(monkeypatch):
    """estimate_sampling's Gram matrices are summed over the slices of its
    ``_actions`` pass: with one form per slice, and the two pieces of each
    p != q form in different slices, its figures stay those of one slice.
    The grid actions are counted, so the slicing is seen to happen: one
    call per piece, then one per form and piece."""
    conv = FrameConvention(4)
    act = wz.act_on_grid
    for (p, q) in [(2, 1), (2, 2), (3, 1)]:
        pieces = 1 if p == q else 2
        counts = []
        with monkeypatch.context() as patch:
            patch.setattr(wz, "act_on_grid", lambda *args: counts.append(1) or act(*args))
            want = estimate_sampling(conv, p, q, 3, 20, np.random.default_rng([801, p, q]))
            assert len(counts) == pieces
            patch.setattr(wz, "_SLICE_ENTRIES", 1)
            got = estimate_sampling(conv, p, q, 3, 20, np.random.default_rng([801, p, q]))
            assert len(counts) == pieces + 3 * pieces
        assert got["violations"] == want["violations"] == 0
        assert got["samples"] == want["samples"] == 60
        assert abs(got["max_ratio"] - want["max_ratio"]) <= 1e-14 * want["max_ratio"]


def test_chsc_curvature_term_closed_form():
    # Calabi = Id: the curvature term is half of ((p+q)(n+1) - 2pq) |psi|^2
    rng = np.random.default_rng(5)
    n = 3
    conv = FrameConvention(n)
    t = chsc(n, 1.0)
    spec = calabi_from_tensor(t).spectrum()
    for (p, q) in [(1, 0), (1, 1), (2, 1)]:
        psi = random_primitive_real(conv, p, q, rng)
        expected = 0.5 * ((p + q) * (n + 1) - 2 * p * q) * psi.norm_sq()
        assert abs(ricl_via_calabi(spec, psi) - expected) < 1e-10 * expected
        assert abs(ricl_pairing(t, psi).real - expected) < 1e-10 * expected


def test_hat_norm_identity_with_and_without_primitivity():
    rng = np.random.default_rng(6)
    n = 3
    conv = FrameConvention(n)
    from calabi_lab.frames import lefschetz_adjoint

    for (p, q) in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        phi = random_form(conv, p, q, rng)
        psi = RealForm.symmetrize(phi)
        k = p + q
        hat2 = norm_phi_g(psi, "sym2_10")
        lam_sq = lefschetz_adjoint(psi.phi).norm_sq() * (2.0 if p != q else 1.0)
        expect = 0.25 * (k * (n + 1) - 2 * p * q) * psi.norm_sq()
        if k >= 2:
            expect -= lam_sq / (2 * k * (k - 1))
        assert abs(hat2 - expect) < 1e-10 * max(1.0, abs(expect))


def test_su_norm_and_u_decomposition():
    rng = np.random.default_rng(7)
    n = 3
    conv = FrameConvention(n)
    from calabi_lab.frames import kaehler_bivector

    om = kaehler_bivector(conv)
    for (p, q) in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]:
        prim = random_primitive_real(conv, p, q, rng).phi
        k = p + q
        su2 = norm_phi_g(prim, "su")
        expect = (2 * p * q + k * (n + 1 - k) - (p - q) ** 2 / n) * prim.norm_sq()
        assert abs(su2 - expect) < 1e-10 * max(1.0, abs(expect))
        u2 = norm_phi_g(prim, "u")
        om2 = float(np.sum(np.abs(act_dense(om, prim.to_dense())) ** 2))
        assert abs(u2 - (om2 / n + su2)) < 1e-10 * max(1.0, u2)


def test_u_estimate_sampled():
    rng = np.random.default_rng(8)
    conv = FrameConvention(3)
    for _ in range(200):
        cmat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        L = EndoC.from_lambda11(conv, cmat)
        p, q = sorted(rng.integers(0, 4, size=2))[::-1]
        if p + q < 1 or p + q > 3 or p > 3:
            continue
        phi = random_primitive_real(conv, p, q, rng).phi
        lhs = float(np.sum(np.abs(act_dense(L, phi.to_dense())) ** 2))
        assert lhs <= (p + q) * L.norm_u_sq() * phi.norm_sq() * (1 + 1e-10)


def test_r2_gl_identity_general_riemannian():
    rng = np.random.default_rng(9)
    conv = FrameConvention(2)
    tensors = [random_riemannian(conv, seed) for seed in range(5)]
    forms = [[random_real_pform(conv, p, rng) for p in (1, 2, 3)] for _ in tensors]
    stacks = [(np.array(stack), p) for p, stack in zip((1, 2, 3), zip(*forms))]
    outs = check_r2_gl_identity(tensors, stacks)
    assert len(outs) == 3 * len(tensors)
    for out in outs:
        assert out["residual"] < 1e-10
    # p = 1: both sides vanish
    x = random_real_pform(conv, 1, rng)
    [out] = check_r2_gl_identity([random_riemannian(conv, 100)], [(x[None], 1)])
    assert abs(out["rhs"]) == 0.0


def test_ricl_r2_split_and_translation():
    rng = np.random.default_rng(10)
    conv = FrameConvention(2)
    tensors = [random_riemannian(conv, 50 + seed) for seed in range(5)]
    forms = [[random_real_pform(conv, p, rng) for p in (1, 2, 3)] for _ in tensors]
    stacks = [(np.array(stack), p) for p, stack in zip((1, 2, 3), zip(*forms))]
    outs = check_ricl_r2_split(tensors, stacks)
    assert len(outs) == 3 * len(tensors)
    for out in outs:
        assert out["residual_split"] < 1e-9
        assert out["residual_translation"] < 1e-9


def test_einstein_curvature_term_via_restricted_spectrum():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        conv = FrameConvention(n)
        t = random_kaehler_einstein(n, 77)
        ric = ricci(t)
        ksu = restrict_su(kaehler_operator(t), ric)
        spec = ksu.spectrum()
        for (p, q) in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]:
            if p + q > n:
                continue
            phi = random_primitive_real(conv, p, q, rng).phi
            bf = ricl_pairing(t, phi).real
            ke = ricl_via_kaehler_su(ric.einstein_lambda, spec, phi)
            assert abs(bf - ke) < 1e-9 * max(1.0, abs(bf))


def test_eigen_routes_reject_a_spectrum_of_the_wrong_operator():
    """At n = 2 the Calabi and restricted Kaehler spectra both have size 3,
    so only the spectrum's source tells them apart.  Passing the Calabi
    spectrum to the Kaehler route used to give 11.73 against the oracle's
    3.487 on this tensor, with no error."""
    conv = FrameConvention(2)
    t = random_kaehler_einstein(2, 5)
    ric = ricci(t)
    cal = calabi_from_tensor(t).spectrum()
    su = restrict_su(kaehler_operator(t), ric).spectrum()
    assert cal.size == su.size == 3
    phi = random_primitive_real(conv, 1, 1, np.random.default_rng(0)).phi
    bf = ricl_pairing(t, phi).real
    with pytest.raises(ValueError, match="kaehler_su"):
        ricl_via_kaehler_su(ric.einstein_lambda, cal, phi)
    with pytest.raises(ValueError, match="calabi"):
        ricl_via_calabi(su, phi)
    with pytest.raises(ValueError, match="calabi"):
        ricl_via_calabi_batch(su, conv, [phi])
    unnamed = eigensystem(calabi_from_tensor(t).matrix)
    with pytest.raises(ValueError, match="calabi"):
        ricl_via_calabi(unnamed, phi)
    named = eigensystem(calabi_from_tensor(t).matrix, source="calabi")
    for ec in (ricl_via_kaehler_su(ric.einstein_lambda, su, phi),
               ricl_via_calabi(cal, phi), ricl_via_calabi(named, phi)):
        assert abs(ec - bf) < 1e-9 * max(1.0, abs(bf))


def test_calabi_routes_refuse_a_spectrum_of_another_dimension():
    """A Calabi spectrum of n = 3 on n = 2 forms is named as a mismatch by
    the batch route, and so by the single-form route that wraps it."""
    conv = FrameConvention(2)
    spec = calabi_from_tensor(random_kaehler(3, 1)).spectrum()
    phi = random_primitive_real(conv, 1, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="does not match sym"):
        ricl_via_calabi_batch(spec, conv, [phi])
    with pytest.raises(ValueError, match="does not match sym"):
        ricl_via_calabi(spec, phi)


def test_kaehler_route_refuses_a_spectrum_of_another_dimension():
    """A restricted Kaehler spectrum of n = 3 on n = 2 forms is named as a
    mismatch, for one form and for a sequence, instead of failing inside the
    product with the n = 2 actions."""
    conv = FrameConvention(2)
    te = random_kaehler_einstein(3, 1)
    ric = ricci(te)
    spec = restrict_su(kaehler_operator(te), ric).spectrum()
    phi = random_primitive_real(conv, 1, 1, np.random.default_rng(0)).phi
    with pytest.raises(ValueError, match="does not match su"):
        ricl_via_kaehler_su(ric.einstein_lambda, spec, phi)
    with pytest.raises(ValueError, match="does not match su"):
        ricl_via_kaehler_su(ric.einstein_lambda, spec, [phi, phi])


def test_estimate_bound_trivial_and_sampled():
    conv = FrameConvention(3)
    rng = np.random.default_rng(12)
    # S = Z_1 (x) Z_1 cannot act on a (0,q) form avoiding index 1
    s = EndoC.from_sym_hat(conv, np.diag([1.0, 0, 0]).astype(complex))
    psi = RealForm.symmetrize(FormPQ.generator(conv, (), (2, 3)))
    out = estimate_bound(s, psi)
    assert out.lhs < 1e-14 and out.satisfied
    res = estimate_sampling(conv, 1, 1, n_psi=10, n_s=40, rng=rng)
    assert res["violations"] == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_estimate_bound_scores_s_through_the_basis_actions(n):
    """|S psi|^2 from the unit-basis actions on psi equals the direct action
    of S; an S outside sym^2 V^{1,0} is refused."""
    conv = FrameConvention(n)
    rng = np.random.default_rng(60 + n)
    for p, q in [(1, 0), (1, 1), (2, 1)]:
        if p + q > n:
            continue
        psi = random_primitive_real(conv, p, q, rng)
        hat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = EndoC.from_sym_hat(conv, hat + hat.T)
        direct = float(np.sum(np.abs(derivation_coords(
            s.matrix[None], psi.coords("z")[None], p + q)) ** 2))
        assert abs(estimate_bound(s, psi).lhs - direct) <= 1e-12 * max(1.0, direct)
        skew = np.zeros((2 * n, 2 * n))
        skew[0, n + 1] = 1.0  # hat[0, 1] alone: an asymmetric hat
        for bad in (s.matrix + np.eye(2 * n), s.matrix + skew):
            with pytest.raises(NotSymmetric, match="estimate_bound expects"):
                estimate_bound(EndoC(conv, bad), psi)


def test_achievability_family_attains_constant():
    for n in (2, 3, 4):
        conv = FrameConvention(n)
        for (p, q) in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0)]:
            if p + q > n or q > p:
                continue
            psi = achievability_form(conv, p, q)
            s = achievability_endo(conv, p + q)
            out = estimate_bound(s, psi)
            expect = achievability_ratio(p, q) * s.norm_sq() * psi.norm_sq()
            assert abs(out.lhs - expect) < 1e-10 * max(1.0, expect)
            assert out.satisfied


def test_phi_g_unknown_tag():
    conv = FrameConvention(2)
    with pytest.raises(ValueError):
        phi_g(random_form(conv, 1, 0), "nope")


def test_stress_search_stays_below_bound():
    conv = FrameConvention(2)
    best = stress_search(conv, 1, 1, seed=3, restarts=2)
    cap = 0.5 + min(1, 1, 0.5)
    assert best <= cap + 1e-8
    assert best > 0.0


def test_stress_search_replays_restart_eigenvalues():
    """stress_search returns the largest top eigenvalue, over its restarts, of
    the Gram matrix of the unit sym^2 basis actions on the unit psi, replayed
    here from the same stream; and the S of each top eigenvector attains that
    ratio |S psi|^2 / (|S|^2 |psi|^2) under the dense derivation action."""
    for n, p, q in [(2, 1, 1), (3, 2, 1), (3, 3, 0)]:
        conv = FrameConvention(n)
        best = stress_search(conv, p, q, seed=5, restarts=3)
        replay = np.random.default_rng(5)
        basis = family_mats(n, "sym2_10")
        tops = []
        for _ in range(3):
            psi = random_primitive_real(conv, p, q, replay)
            acted = derivation_coords(basis, psi.coords("z")[None], p + q)[:, 0]
            gram = (acted.conj() @ acted.T) / psi.norm_sq()
            tops.append(float(np.linalg.eigvalsh(gram)[-1]))
            vals, vecs = np.linalg.eigh(gram)
            s = EndoC(conv, np.tensordot(vecs[:, -1], basis, axes=(0, 0)))
            ratio = float(np.sum(np.abs(act_dense(s, psi.to_dense())) ** 2)) / (
                s.norm_sq() * psi.norm_sq())
            assert abs(ratio - vals[-1]) <= 1e-12 * vals[-1]
        assert best == max(tops)
        assert best <= 0.5 + min(p, q, math.sqrt(p * q) / 2.0) + 1e-12


def _per_form_samples(conv, p, q, rng, count, fail=None):
    """Reference: ``count`` forms drawn one by one by the per-form sampler;
    form ``fail`` first spends one draw, as a projection that comes out 0
    does."""
    forms = []
    for i in range(count):
        if i == fail:
            rng.standard_normal((math.comb(conv.n, p) * math.comb(conv.n, q), 2))
        forms.append(random_primitive_real_per_form(conv, p, q, rng))
    return forms


def _fail_once(monkeypatch, fail):
    """Force the projection of row ``fail`` of the first stack to 0; returns
    the list of the stack sizes projected."""
    project = wz._primitive_part
    calls = []

    def fail_once(n_, p_, q_, coeffs):
        out = project(n_, p_, q_, coeffs)
        if not calls:
            out[fail] = 0.0
        calls.append(len(coeffs))
        return out

    monkeypatch.setattr(wz, "_primitive_part", fail_once)
    return calls


def _assert_same_forms(forms, want):
    assert len(forms) == len(want)
    for form, ref in zip(forms, want):
        assert (form.p, form.q) == (ref.p, ref.q)
        assert form.phi.coefficient_vector().tobytes() == ref.phi.coefficient_vector().tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_sampler_matches_the_per_form_draws(n, monkeypatch):
    """The stacked sampler returns bitwise the forms of the per-form draws,
    as a stack and one at a time, and leaves the generator where they do;
    also with the projection of one form of the stack forced to 0 once."""
    conv = FrameConvention(n)
    for p in range(n + 1):
        for q in range(n + 1 - p):
            for fail in (None, (n + p + q) % 4):
                rng, ref_rng = np.random.default_rng([n, p, q]), np.random.default_rng([n, p, q])
                with monkeypatch.context() as patch:
                    calls = [] if fail is None else _fail_once(patch, fail)
                    forms = random_primitive_reals(conv, p, q, rng, 4)
                forms.append(random_primitive_real(conv, p, q, rng))
                _assert_same_forms(forms, _per_form_samples(conv, p, q, ref_rng, 5, fail))
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert calls == ([] if fail is None else [4, 4 - fail])


@pytest.mark.parametrize("fail", [0, 2, 3])
def test_stacked_sampler_draws_again_as_the_per_form_rule(fail, monkeypatch):
    """With the projection of one form forced to 0 once, the sampler spends
    exactly the draws of the per-form retry rule: that form and every later
    one are drawn again, as one stack."""
    n, p, q = 4, 2, 1
    conv = FrameConvention(n)
    calls = _fail_once(monkeypatch, fail)
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    forms = random_primitive_reals(conv, p, q, rng, 4)
    _assert_same_forms(forms, _per_form_samples(conv, p, q, ref_rng, 4, fail=fail))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert calls == [4, 4 - fail]  # one stack, then the failed form and those after it


def test_stacked_sampler_gives_up_after_sixteen_draws(monkeypatch):
    monkeypatch.setattr(wz, "_primitive_part", lambda n, p, q, coeffs: 0.0 * coeffs)
    conv = FrameConvention(3)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(SamplingFailure):
        random_primitive_reals(conv, 1, 1, rng, 3)
    for _ in range(16):
        ref_rng.standard_normal((9, 2))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_pform_contractions_match_dense_components(n):
    """random_real_pform gives the exterior coordinates of the alternated
    Gaussian draw and leaves the generator where the dense draw did; the
    interior-product contractions behind check_r2_gl_identity and
    check_ricl_r2_split equal their dense-component formulas
    p(p-1) sum R_ijkl phi_ijI phi_klI and p sum Ric_ij phi_iI phi_jI to 1e-12
    relative, for p = 1..3."""
    conv = FrameConvention(n)
    t = random_riemannian(conv, 90 + n)
    r, ric = t.components, ricci(t).ricci
    for p in range(1, min(3, conv.dim) + 1):
        rng = np.random.default_rng([900, n, p])
        replay = np.random.default_rng([900, n, p])
        x = random_real_pform(conv, p, rng)
        dense = alternate(replay.standard_normal(size=(conv.dim,) * p)) / math.factorial(p)
        dense /= math.sqrt(float(np.sum(dense ** 2)))
        assert rng.bit_generator.state == replay.bit_generator.state
        assert x.shape == (math.comb(conv.dim, p),)
        assert np.max(np.abs(x - _coords(dense[None], "e")[0][0])) <= 1e-12
        want_r = 0.0 if p < 2 else p * (p - 1) * float(np.sum(
            np.tensordot(r, dense, axes=((0, 1), (0, 1))) * dense))
        got_r = _contract(_pair_matrix(r).T, x[None], conv.dim, p, 2)[0]
        assert abs(got_r - want_r) <= 1e-12 * max(1.0, abs(want_r))
        want_ric = p * float(np.sum(np.tensordot(ric, dense, axes=(0, 0)) * dense))
        got_ric = _contract(ric, x[None], conv.dim, p, 1)[0]
        assert abs(got_ric - want_ric) <= 1e-12 * max(1.0, abs(want_ric))
