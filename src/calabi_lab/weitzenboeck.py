"""The Lichnerowicz curvature term on forms, computed several independent
ways, together with the derivation-family norms and the eigenvalue estimates.

The trusted oracle is the Weitzenboeck term
``Ric_L = -sum Ric_ad e^a iota_d - sum R_ajcd e^a e^c iota_d iota_j``
(``Ric_ad = sum_j R_ajjd``) summed literally over the real frame on
orthonormal exterior coordinates, through the module's own creation and
annihilation operators, the second sum over unordered index pairs through
one pair table composed from the single ones; ``ricl_bruteforce`` returns
it as a field.  The checks pair it with the form instead, without building
Ric_L phi: creation is the adjoint of annihilation, so
``g(Ric_L phi, conj phi) = -Re sum (Ric A1) conj(A1) - Re sum (P A2) conj(A2)``
over the stacks A1 and A2 of the single and double interior products of
phi, with P the pair matrix (``ricl_pairing_coords``).  Forms that several
tensors pair with give their Gram matrices ``A A*`` once
(``oracle_grams``), after which each tensor costs O(d^4) a form.  The
stacks are gathered column by column, the columns being the index sets
that the interior products leave, and worked in runs of columns, so that no
piece exceeds ``_SLICE_ENTRIES`` entries even for one form.  R is real, so
real forms (whose real-frame coordinates have imaginary parts exactly 0)
go through in float64, and complex ones through the float view.  The
oracle makes no reference to any operator eigenstructure and shares no
kernel with the Z-frame derivation action of the eigenvalue routes (via the
Calabi operator, via the restricted Kaehler operator for Einstein tensors),
which are checked against it.

Those routes and the derivation families act with the unitary bases of
``frames.family_mats``.  A Z-frame basis acts on the (p,q) coefficient grid
of each pure-type piece of a form (``frames.act_on_grid``, tables over
Lambda(C^n)): a RealForm with p != q as its pieces on (p,q) and (q,p),
whose images lie in different bidegrees, so their norms and Gram entries
add.  The real-frame bases act on all C(2n, k) real-frame coordinates
(``frames.family_table``), as real p-forms have no bidegree.

Forms enter the public functions as ``FormPQ`` / ``RealForm`` objects.  A
sequence of them is worked from one coefficient stack per bidegree and kind
(``frames._blocks``): the grids of the eigenvalue routes, and the exterior
coordinates of the oracle and the real-frame bases, which come from the one
builder ``frames._coords`` and are not kept on the forms.  The main
estimate's sampler keeps its forms as that stack (``frames.RealStack``),
which goes through the same passes with no form object per row.  The
general-Riemannian checks take the real-frame coordinates of
``random_real_pform`` directly.  Dense alternating components are accepted
only as stacks with a leading batch axis, by the batched routes, and are
gathered into all C(2n, k) coordinates once at entry, by the same builder.
Every action of a basis on forms, and every Gram matrix of those actions,
goes through ``_actions``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curvature import (R2_SLOTS, AlgebraicCurvatureTensor, _tensor_square, r1_r2_operators,
                        ricci, su_complement)
from .errors import CalabiLabError
from .frames import (
    REAL_FRAME_TAGS,
    EndoC,
    FormPQ,
    FrameConvention,
    FrameError,
    RealForm,
    RealStack,
    _SLICE_ENTRIES,
    _blocks,
    _conjugation,
    _coords,
    _dense_positions,
    _frozen,
    _generators,
    _permutations,
    _primitive_part,
    _subset_rank,
    _subsets,
    act_on_grid,
    apply_derivation,
    family_mats,
    family_table,
    lefschetz_adjoint,
    sym2_basis_labels,
)
from .spectral import Spectrum

__all__ = [
    "EstimateResult",
    "NotSymmetric",
    "SamplingFailure",
    "ricl_bruteforce",
    "ricl_pairing",
    "ricl_via_calabi",
    "ricl_via_kaehler_su",
    "phi_g",
    "norm_phi_g",
    "check_r2_gl_identity",
    "check_ricl_r2_split",
    "estimate_bound",
    "achievability_form",
    "achievability_endo",
    "random_primitive_real",
    "random_primitive_reals",
    "random_real_pform",
    "stress_search",
]


class NotSymmetric(CalabiLabError, ValueError):
    pass


class SamplingFailure(CalabiLabError, RuntimeError):
    pass


# ---------------------------------------------------------------------------
# brute-force Ric_L over the real frame
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _annihilation_table(d: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior products on the orthonormal monomials of Lambda^k, k >= 1,
    over d real frame vectors.

    Returns ``(removed, rest, sign)``: for each sorted k-subset J and slot s
    the removed index ``removed[J, s] = J_s``, the position ``rest[J, s]`` of
    ``J minus J_s`` among the sorted (k-1)-subsets, and ``sign[J, s] = (-1)^s``,
    so that ``iota(e_{J_s}) e^J = (-1)^s e^{J minus J_s}``.
    """
    count = math.comb(d, k)
    removed = _subsets(d, k)[0]
    others = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)  # slots but s
    rest = _subset_rank(d, removed[:, others])
    sign = np.broadcast_to((-1.0) ** np.arange(k), (count, k))  # one row in memory
    return _frozen(removed, rest, sign)


def _create(y: np.ndarray, d: int, k: int) -> np.ndarray:
    """``sum_a e^a ^ y_a`` from a ``(B, d, N_{k-1})`` stack: the transposed
    scatter of ``_interior`` of order 1, returning ``(B, N_k)`` coordinates."""
    removed, rest, sign = _annihilation_table(d, k)
    return np.sum(y[:, removed, rest] * sign, axis=2)


def _pair_table(d: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Double interior products on the orthonormal monomials of Lambda^k,
    k >= 2, over d real frame vectors, composed from the single ones.

    Returns ``(pair, rest, sign)``: for each sorted k-subset J and slot pair
    s < t (in the order of ``np.triu_indices(k, 1)``), the position
    ``pair[J, st]`` of ``(J_s, J_t)`` among the sorted 2-subsets, the position
    ``rest[J, st]`` of ``J minus {J_s, J_t}`` among the sorted (k-2)-subsets,
    and ``sign[st] = (-1)^(s+t-1)``, so that
    ``iota(e_{J_t}) iota(e_{J_s}) e^J = sign[st] e^{J minus {J_s, J_t}}``:
    removing J_s leaves J_t in slot t - 1.  Not cached: ``_column_table``
    keeps it regrouped, in fewer bytes.
    """
    removed, once, _ = _annihilation_table(d, k)
    _, twice, _ = _annihilation_table(d, k - 1)
    s, t = np.triu_indices(k, 1)
    where = np.zeros((d, d), dtype=np.int32)
    where[np.triu_indices(d, 1)] = np.arange(math.comb(d, 2))
    return where[removed[:, s], removed[:, t]], twice[once[:, s], t - 1], (-1.0) ** (s + t - 1)


@lru_cache(maxsize=None)
def _column_table(d: int, k: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The single (order 1, ``_annihilation_table``) or double (order 2,
    ``_pair_table``) interior products on Lambda^k, k >= order, over d real
    frame vectors, regrouped by the sorted (k - order)-subset R they leave.

    Returns ``(row, source, sign)``, each ``(C(d, k - order), m)``: the
    interior-product stack of coordinates x holds ``sign[R, u] *
    x[source[R, u]]`` at row ``row[R, u]`` of column R, where the rows are
    the frame vectors (order 1) or the index pairs i < j in
    ``np.triu_indices`` order (order 2), and every other row of column R is
    0.  Each R has the same number m = C(d - k + order, order) of rows
    disjoint from it.  Read-only, the rows in the smallest unsigned type
    that holds them, the sources in int32 and the signs in int8 (6 bytes an
    entry up to d = 22).
    """
    if order == 1:
        row, rest, sign = _annihilation_table(d, k)
        sign = sign[0]
    else:
        row, rest, sign = _pair_table(d, k)
    slots = row.shape[1]
    group = np.argsort(rest, axis=None, kind="stable").astype(np.int32)
    group = group.reshape(math.comb(d, k - order), -1)
    row = row.ravel()[group].astype(np.min_scalar_type(math.comb(d, order)))
    return _frozen(row, group // slots, sign.astype(np.int8)[group % slots])


def _interior(x: np.ndarray, d: int, k: int, order: int, cols: slice = slice(None)) -> np.ndarray:
    """The ``(B, C(d, order), r)`` stack of the interior products of
    ``(B, N_k)`` coordinates, ``iota(e_c) x`` for order 1 and
    ``iota(e_j) iota(e_i) x`` over the index pairs i < j for order 2, at the
    run ``cols`` of the sorted (k - order)-subsets (all of them by default):
    each column gathered from ``_column_table``."""
    row, source, sign = (table[cols] for table in _column_table(d, k, order))
    out = np.zeros((x.shape[0], math.comb(d, order), len(row)), dtype=x.dtype)
    values = x[:, source]
    values *= sign
    out[:, row, np.arange(len(row))[:, None]] = values
    return out


def _pair_create(y: np.ndarray, d: int, k: int) -> np.ndarray:
    """``sum_{i<j} e^i ^ e^j ^ y_ij`` from a ``(B, C(d, 2), N_{k-2})`` stack:
    the transposed scatter of ``_interior`` of order 2, returning ``(B, N_k)``
    coordinates."""
    pair, rest, sign = _pair_table(d, k)
    return y[:, pair, rest] @ sign


def _pair_matrix(s: np.ndarray) -> np.ndarray:
    """``s[i,j,k,l] - s[j,i,k,l] - s[i,j,l,k] + s[j,i,l,k]`` over the index
    pairs i < j and k < l, as a ``(C(d, 2), C(d, 2))`` matrix over the sorted
    2-subsets: a sum over all ordered pairs of a tensor against two
    antisymmetric ones equals the sum of this matrix over the sorted pairs."""
    d = s.shape[0]
    flat = _dense_positions(d, 2)  # i d + j over the pairs i < j
    s = s - s.transpose(1, 0, 2, 3)
    s = (s - s.transpose(0, 1, 3, 2)).reshape(d * d, d * d)
    return s[flat[:, None], flat]


def _oracle_stack(x: np.ndarray) -> np.ndarray:
    """A coordinate stack as the oracle works it: float64 when it is real
    (float, or complex with every imaginary part exactly 0, as real forms
    have), complex otherwise."""
    x = np.asarray(x)
    if np.iscomplexobj(x) and np.any(x.imag):
        return np.asarray(x, dtype=complex)
    return np.ascontiguousarray(x.real, dtype=float)


def _float_view(a: np.ndarray) -> np.ndarray:
    """A C-contiguous stack as float64: a complex one through its float view,
    real and imaginary parts side by side on the last axis."""
    return a.view(float) if np.iscomplexobj(a) else a


def _real_matmul(op: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``op @ a`` for a real matrix op; a complex stack goes through its float
    view, so that each product acts on its real and imaginary parts at once."""
    return (op @ _float_view(a)).view(a.dtype)


def ricl_bruteforce(t: AlgebraicCurvatureTensor, x: np.ndarray, k: int) -> np.ndarray:
    """Ric_L(phi) as a literal sum over the real frame, in orthonormal
    exterior coordinates:
    ``Ric_L = -sum_{a,d} Ric_ad e^a iota_d - sum_{a,j,c,d} R_ajcd e^a e^c iota_d iota_j``
    with ``Ric_ad = sum_j R_ajjd``.

    ``x`` holds the ``(B, C(2n, k))`` real-frame coordinates
    ``x_J = sqrt(k!) T[J]`` of a stack of k-forms over the sorted index sets
    J.  Returns the coordinates of ``Ric_L`` of each form, same shape.  R is
    real, so a real stack (float, or complex with every imaginary part
    exactly 0, as real forms have) is worked on in float64 and comes back
    real; any other stack stays complex.

    ``e^a e^c`` and ``iota_d iota_j`` are antisymmetric, so the second sum
    runs over the index pairs a < c and j < d with the pair-antisymmetrized
    ``R_ajcd - R_adcj - R_cjad + R_cdaj`` (``_pair_matrix``), which holds for
    any 4-tensor.  The forms go through in slices, so that no stack holds
    more than ``_SLICE_ENTRIES`` entries.  The checks pair instead
    (``ricl_pairing_coords``), which never builds Ric_L(phi).
    """
    ric, pairs = oracle_matrices(t)
    d = len(ric)
    x = _oracle_stack(x)
    out = np.zeros_like(x)
    if k == 0:
        return out
    size = d * math.comb(d, k - 1)
    if k >= 2:
        size = max(size, math.comb(d, 2) * math.comb(d, k - 2))
    step = max(1, _SLICE_ENTRIES // size)
    # no stack is bound to a name, so none outlives its slice
    for lo in range(0, x.shape[0], step):
        part = x[lo:lo + step]
        y = _create(_real_matmul(ric, _interior(part, d, k, 1)), d, k)
        if k >= 2:
            y += _pair_create(_real_matmul(pairs, _interior(part, d, k, 2)), d, k)
        out[lo:lo + step] = -y
    return out


def oracle_matrices(t: AlgebraicCurvatureTensor) -> tuple[np.ndarray, np.ndarray]:
    """The two real matrices of the oracle's frame sum: ``Ric_ad = sum_j R_ajjd``
    and the pair matrix of ``R_ajcd`` over a < c and j < d
    (``_pair_matrix``).  A check builds them once per tensor."""
    r = t.components
    return np.trace(r, axis1=1, axis2=2), _pair_matrix(r.transpose(0, 2, 1, 3))


def _interior_sum(x: np.ndarray, d: int, k: int, order: int, fn, out: np.ndarray) -> np.ndarray:
    """Adds ``fn(A, forms)`` into ``out[forms]`` over the ``_interior`` stacks A
    of x (as float64, ``_float_view``) in pieces of at most ``_SLICE_ENTRIES``
    entries, each a slice ``forms`` of the forms and a run of the
    (k - order)-subsets, and returns out; nothing when k < order.  The runs
    of one slice cover every subset once, so a sum over the stack's columns
    is the sum over its pieces; a form whose stack exceeds the bound alone
    is split into runs.  No piece is bound to a name, so none outlives its
    step."""
    if k < order:
        return out
    rows, cols = math.comb(d, order), math.comb(d, k - order)
    step = max(1, _SLICE_ENTRIES // (rows * cols))
    width = min(cols, max(1, _SLICE_ENTRIES // rows))
    for lo in range(0, x.shape[0], step):
        forms = slice(lo, lo + step)
        for c in range(0, cols, width):
            out[forms] += fn(_float_view(_interior(x[forms], d, k, order, slice(c, c + width))),
                             forms)
    return out


def _quadratic(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``sum (m @ a) * a`` of each stack in a, with one product stack; m is
    one matrix or one per stack."""
    ma = m @ a
    ma *= a
    return np.sum(ma, axis=(1, 2))


def _contract(m: np.ndarray, x: np.ndarray, d: int, k: int, order: int) -> np.ndarray:
    """``Re sum (m @ A) * conj(A)`` over the ``_interior`` stack A of order
    ``order`` of each form, shape (B,), with one matrix m for every form or
    a ``(B, ., .)`` stack of them, one per form; 0 when k < order."""
    return _interior_sum(x, d, k, order,
                         lambda a, forms: _quadratic(m if m.ndim == 2 else m[forms], a),
                         np.zeros(x.shape[0]))


def ricl_pairing_coords(mats: tuple[np.ndarray, np.ndarray], x: np.ndarray, k: int) -> np.ndarray:
    """g(Ric_L phi, conj phi) of each form from its ``oracle_coords`` x and the
    tensor's ``oracle_matrices``, without building Ric_L phi: with
    A1 = ``_interior(x, d, k, 1)`` and A2 = ``_interior(x, d, k, 2)`` it is
    ``-Re sum (Ric A1) conj(A1) - Re sum (P A2) conj(A2)``, the frame sum of
    ``ricl_bruteforce`` paired with x in another order (``_create`` and
    ``_pair_create`` are the adjoints of the interior products)."""
    ric, pairs = mats
    d = len(ric)
    return -(_contract(ric, x, d, k, 1) + _contract(pairs, x, d, k, 2))


def oracle_grams(x: np.ndarray, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The real parts of ``G1 = A1 A1*`` (B, d, d) and ``G2 = A2 A2*``
    (B, C(d, 2), C(d, 2)) over the interior-product stacks of
    ``ricl_pairing_coords``, for the ``oracle_coords`` x of forms that several
    tensors pair with (``ricl_pairing_grams``): they do not depend on the
    tensor, and each is summed over the stack's pieces."""
    g1, g2 = (_interior_sum(x, d, k, order, lambda a, _: a @ a.transpose(0, 2, 1),
                            np.zeros((x.shape[0],) + (math.comb(d, order),) * 2))
              for order in (1, 2))
    return g1, g2


def ricl_pairing_grams(mats: tuple[np.ndarray, np.ndarray],
                       grams: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``ricl_pairing_coords`` from the forms' ``oracle_grams``:
    ``-sum Ric o G1 - sum P o G2`` (G1 and G2 are symmetric), O(d^4) per form."""
    return -sum(np.sum(m * g, axis=(1, 2)) for m, g in zip(mats, grams))


def ricl_pairing(t: AlgebraicCurvatureTensor, psi: FormPQ | RealForm) -> float:
    """g(Ric_L(psi), conj psi) by the brute-force oracle."""
    return float(ricl_pairing_coords(oracle_matrices(t), *oracle_coords(psi))[0])


def ricl_pairing_batch(t: AlgebraicCurvatureTensor, forms) -> np.ndarray:
    """Vectorized brute-force g(Ric_L psi, conj psi) over a sequence of forms or
    a stack of dense real-frame forms."""
    return ricl_pairing_coords(oracle_matrices(t), *oracle_coords(forms))


def oracle_coords(forms) -> tuple[np.ndarray, int]:
    """The ``(B, C(2n, k))`` real-frame coordinates of a form, of a sequence of
    forms of one degree, or of a stack of dense real-frame forms, as the
    oracle works them (``_oracle_stack``), and the degree k."""
    x, k = _coords(forms, "e")
    return _oracle_stack(x), k


# ---------------------------------------------------------------------------
# eigenvalue routes
# ---------------------------------------------------------------------------

def _require_source(spec: Spectrum, source: str) -> None:
    """At n = 2 the Calabi and restricted Kaehler spectra have the same size,
    so only the recorded source tells them apart."""
    if spec.source != source:
        raise ValueError(f"expected a {source!r} spectrum, got source {spec.source!r}")


def ricl_via_calabi(spec: Spectrum, psi: FormPQ | RealForm) -> float:
    """Curvature term 2 sum_nu sigma_nu |Sigma_nu psi|^2 from a Calabi spectrum.

    ``spec`` must be the eigensystem of the Calabi matrix in the unit
    sym^2 V^{1,0} basis (source ``"calabi"``; any other source raises
    ValueError); the eigen-elements Sigma_nu are then unitary.
    """
    return float(ricl_via_calabi_batch(spec, psi.convention, [psi])[0])


def ricl_via_kaehler_su(lam: float, su_spec: Spectrum,
                        phi: FormPQ | Sequence[FormPQ]) -> float | np.ndarray:
    """Curvature term of an Einstein tensor on a primitive (p,q)-form via the
    restricted Kaehler operator:
    g(Ric_L phi, conj phi) = lam (p-q)^2 / n |phi|^2 + sum_a lam_a |Xi_a phi|^2.

    ``phi`` is one form, or a sequence of forms of one degree, for which the
    terms come back as an array in its order.  ``su_spec`` must be the
    eigensystem of ``curvature.restrict_su`` (source ``"kaehler_su"``; any
    other source, or a size other than n^2 - 1, raises ValueError), whose
    basis ``su_complement(n)`` is written over the Lambda^{1,1} basis
    ``Z_a ^ conj(Z_b) / sqrt2``.  The eigen-elements Xi_a are normalized in
    the half-trace convention (sqrt2 times those unit elements), so the
    coordinates ``su_complement(n) @ eigenvectors`` are their coordinates
    over the unitary basis ``Z_a ^ conj(Z_b)`` of u(n), and mix its actions.
    """
    _require_source(su_spec, "kaehler_su")
    single = isinstance(phi, FormPQ)
    forms = [phi] if single else list(phi)
    conv = forms[0].convention
    n = conv.n
    if su_spec.size != n * n - 1:
        raise ValueError("spectrum dimension does not match su(n)")
    mix = su_complement(n) @ su_spec.eigenvectors
    first = np.array([lam * (f.p - f.q) ** 2 / n * f.norm_sq() for f in forms])
    terms = first + su_spec.eigenvalues @ _mixed_norms(conv, "u", [mix], forms)[0]
    return float(terms[0]) if single else terms


def _sq_sum(z: np.ndarray, axis) -> np.ndarray:
    """``sum |z|^2`` over ``axis``, which holds the last axis: on the float
    view of z, which takes no modulus."""
    z = _float_view(np.ascontiguousarray(z))
    return np.sum(z * z, axis=axis)


def _mixed_norms(conv: FrameConvention, tag: str, mixes: Sequence[np.ndarray],
                 forms) -> list[np.ndarray]:
    """|Xi_nu psi_b|^2, shape (m', B), for the elements
    ``Xi_nu = sum_mu mix[mu, nu] u_mu`` over the unitary basis u_mu of a
    Z-frame algebra, for each mix in ``mixes`` (all over that basis), and a
    sequence of forms or a dense stack, as ``_actions`` takes them.  The
    sparse basis acts once, for every mix, and its actions are mixed, which
    costs far less than acting with the dense elements."""
    outs = [np.zeros((mix.shape[1], len(forms))) for mix in mixes]
    for owner, acted in _actions(conv.n, tag, forms, len(mixes[0])):
        for mix, out in zip(mixes, outs):
            out[:, owner] += _sq_sum(mix.T @ acted, axis=2).T
    return outs


def ricl_via_calabi_spectra(specs: Sequence[Spectrum], conv: FrameConvention,
                            forms) -> list[np.ndarray]:
    """``ricl_via_calabi_batch`` for each of several Calabi spectra on the
    same forms, whose actions are computed once for all of them."""
    for spec in specs:
        _require_source(spec, "calabi")
        if spec.size != conv.n * (conv.n + 1) // 2:
            raise ValueError("spectrum dimension does not match sym^2 V^{1,0}")
    norms = _mixed_norms(conv, "sym2_10", [spec.eigenvectors for spec in specs], forms)
    return [2.0 * (spec.eigenvalues @ mixed) for spec, mixed in zip(specs, norms)]


def ricl_via_calabi_batch(spec: Spectrum, conv: FrameConvention, forms) -> np.ndarray:
    """Vectorized 2 sum sigma_nu |Sigma_nu psi|^2 over a sequence of forms or a
    stack of dense Z-frame forms."""
    return ricl_via_calabi_spectra([spec], conv, forms)[0]


# ---------------------------------------------------------------------------
# derivation families phi^g
# ---------------------------------------------------------------------------

def _actions(n: int, tag: str, forms, width: int):
    """The unitary basis of the tagged algebra acting on a sequence of forms
    of one degree, a ``RealStack`` or a dense stack: yields, slice by slice,
    the indices of the forms and the ``(B, m, N)`` coordinates of their
    actions.  A slice keeps ``width`` stacks of them within
    ``_SLICE_ENTRIES`` entries.

    A Z-frame algebra acts on the (p,q) grid (``act_on_grid``), on the forms
    of one bidegree and kind at a time, whose grids come from one stack of
    their coefficients (``frames._blocks``): a RealForm with p != q as its
    pieces on (p,q) and (q,p), whose images lie in different bidegrees, so
    their norms and Gram entries add over the slices.  The real-frame algebras act on all
    C(2n, k) real-frame coordinates, as real p-forms have no bidegree.  Dense
    stacks also go through all C(2n, k) coordinates, in the algebra's frame:
    only the benchmark's acceptance loops and the criterion-2 test pass
    them, and this path goes with them when ROADMAP's retirement of the
    test-only API updates the benchmark.
    """
    if tag in REAL_FRAME_TAGS or isinstance(forms, np.ndarray):
        x, k = _coords(forms, "e" if tag in REAL_FRAME_TAGS else "z")
        table = family_table(n, tag, k)
        owner = np.arange(len(x))
        step = max(1, _SLICE_ENTRIES // max(1, width * x.shape[1]))
        for lo in range(0, len(x), step):
            yield owner[lo:lo + step], apply_derivation(table, x[lo:lo + step])
        return
    for owner, p, q, y in _blocks(forms):
        grid = y.reshape(len(y), math.comb(n, p), math.comb(n, q))
        image = (p - 1, q + 1) if tag == "sym2_10" else (p, q)
        size = max(y[0].size, math.comb(n, max(image[0], 0)) * math.comb(n, image[1]))
        step = max(1, _SLICE_ENTRIES // max(1, width * size))
        for lo in range(0, len(y), step):
            yield owner[lo:lo + step], act_on_grid(n, tag, p, q, grid[lo:lo + step])


def phi_g(phi: FormPQ | RealForm, tag: str) -> np.ndarray:
    """Derivation family {Xi_a phi} over the unitary basis Xi_a of the tagged
    algebra, as the (m, N) orthonormal exterior coordinates of the Xi_a phi.

    The real-frame algebras (gl, so, sym2_real) act on all real-frame
    coordinates.  The complex algebras act on the Z-frame grid of each
    pure-type piece (``frames.act_on_grid``), so N counts the coordinates of
    the image blocks, side by side for the two pieces of a RealForm with
    p != q; norms and Gram matrices are those of the full coordinates.  These
    are the slices of ``_actions``, concatenated.
    """
    n = phi.convention.n
    slices = _actions(n, tag, [phi], len(family_mats(n, tag)))
    return np.concatenate([acted[0] for _, acted in slices], axis=1)


def norm_phi_g_batch(tag: str, conv: FrameConvention, forms) -> np.ndarray:
    """|psi_b^g|^2 for a sequence of forms or a stack of dense forms (in the
    algebra's frame)."""
    out = np.zeros(len(forms))
    for owner, acted in _actions(conv.n, tag, forms, len(family_mats(conv.n, tag))):
        out[owner] += _sq_sum(acted, axis=(1, 2))
    return out


def norm_phi_g(phi: FormPQ | RealForm, tag: str) -> float:
    return float(norm_phi_g_batch(tag, phi.convention, [phi])[0])


# ---------------------------------------------------------------------------
# general-Riemannian identities
# ---------------------------------------------------------------------------

# forms per slice of the real-frame Gram pairings: as many as keep the action
# and Gram stacks within this many entries each (256 KB), which is one
# form's at n = 6, so that pairing a stack of forms holds no more than
# pairing one form there
_GRAM_SLICE_ENTRIES = 1 << 15


def _pairing_values(ops: np.ndarray, n: int, tag: str, x: np.ndarray, p: int) -> np.ndarray:
    """sum_{ab} g(Op_b Xi_b, Xi_a) <Xi_b phi_b, Xi_a phi_b> over the unitary
    basis Xi of the real-frame algebra ``tag``, for the ``(B, C(2n, p))``
    real-frame coordinates x of p-forms phi_b and one operator per form,
    ``ops[b, a, c] = g(Op_b Xi_c, Xi_a)``: the Gram matrices of the basis
    actions, in slices of at most ``_GRAM_SLICE_ENTRIES`` action or Gram
    entries, each paired with its forms' operators as it is made."""
    table = family_table(n, tag, p)
    out = np.empty(len(x))
    m = table[0].shape[1]
    step = max(1, _GRAM_SLICE_ENTRIES // (m * max(m, x.shape[1])))
    for lo in range(0, len(x), step):
        parts = apply_derivation(table, x[lo:lo + step])
        gram = (parts @ parts.conj().transpose(0, 2, 1)).real
        out[lo:lo + step] = np.sum(ops[lo:lo + step] * gram.transpose(0, 2, 1), axis=(1, 2))
    return out


def check_r2_gl_identity(tensors: Sequence[AlgebraicCurvatureTensor],
                         stacks: Sequence[tuple[np.ndarray, int]]) -> list[dict]:
    """g(R2(phi^gl), phi^gl) = -(p(p-1)/2) sum R_ijkl phi_{ijI} phi_{klI}, for
    each pair ``(x, p)`` of a ``(B, C(2n, p))`` stack x of the real-frame
    coordinates of p-forms (as ``random_real_pform`` returns them) and its
    degree, form b against tensor b.  R2 over gl and the pair matrix of each
    tensor are built once for every stack; the left sides of a stack come
    from ``_pairing_values``, and its right sides from one stacked
    contraction.  One record per form, stack by stack."""
    n, d = tensors[0].convention.n, tensors[0].convention.dim
    r2_gl = np.array([_tensor_square(t.components, family_mats(n, "gl"), R2_SLOTS)
                      for t in tensors])
    # sum R_ijkl <i_j i_i x, i_l i_k x> over i < j, k < l: each interior
    # product carries sqrt of the degree it acts on, so this is
    # p(p-1) sum R_ijkl phi_{ijI} phi_{klI} in dense components; the
    # transposes as views, since copies in C order would round the products
    # differently
    pairs = np.array([_pair_matrix(t.components) for t in tensors]).transpose(0, 2, 1)
    out = []
    for x, p in stacks:
        lhs = _pairing_values(r2_gl, n, "gl", x, p)
        rhs = -0.5 * _contract(pairs, x, d, p, 2)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        out += [{"lhs": float(a), "rhs": float(b), "residual": float(r)}
                for a, b, r in zip(lhs, rhs, np.abs(lhs - rhs) / scale)]
    return out


def check_ricl_r2_split(tensors: Sequence[AlgebraicCurvatureTensor],
                        stacks: Sequence[tuple[np.ndarray, int]]) -> list[dict]:
    """(3/2) g(Ric_L phi, phi) = g(R2(phi^S2), phi^S2) + p sum R_ij phi_iI phi_jI,
    plus the translation g(R1(phi^so), phi^so) = g(Ric_L phi, phi), for each
    pair ``(x, p)`` of a ``(B, C(2n, p))`` stack x of the real-frame
    coordinates of p-forms and its degree, form b against tensor b, as
    ``check_r2_gl_identity`` stacks them; R1, R2, the Ricci tensor and the
    oracle's matrices of each tensor are built once for every stack.  One
    record per form, stack by stack."""
    n, d = tensors[0].convention.n, tensors[0].convention.dim
    r1, r2 = (np.array([op.matrix for op in ops])
              for ops in zip(*(r1_r2_operators(t) for t in tensors)))
    ric = np.array([ricci(t).ricci for t in tensors])
    ric_o, pairs_o = (np.array(mats) for mats in zip(*(oracle_matrices(t) for t in tensors)))
    out = []
    for x, p in stacks:
        ricl = -(_contract(ric_o, x, d, p, 1) + _contract(pairs_o, x, d, p, 2))
        lhs = 1.5 * ricl
        # p sum Ric_ij phi_iI phi_jI, as in check_r2_gl_identity
        rhs = (_pairing_values(r2, n, "sym2_real", x, p)
               + _contract(ric, x, d, p, 1))
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        r1_so = _pairing_values(r1, n, "so", x, p)
        scale_so = np.maximum(1.0, np.maximum(np.abs(ricl), np.abs(r1_so)))
        out += [{"ricl": float(v), "residual_split": float(a), "residual_translation": float(b)}
                for v, a, b in zip(ricl, np.abs(lhs - rhs) / scale,
                                   np.abs(r1_so - ricl) / scale_so)]
    return out


# ---------------------------------------------------------------------------
# the main estimate
# ---------------------------------------------------------------------------

ESTIMATE_TOL = 1e-10  # the main estimate's slack, relative to max(1, bound)


def _min_constant(p: int, q: int) -> float:
    return min(p, q, math.sqrt(p * q) / 2.0)


@dataclass(frozen=True)
class EstimateResult:
    lhs: float
    bound: float
    bound_primitive: float | None
    satisfied: bool


def estimate_bound(s: EndoC, psi: RealForm) -> EstimateResult:
    """|S psi|^2 against (1/2 + min(p,q,sqrt(pq)/2)) |S|^2 |psi|^2, and the
    |psi^{sym2 V^{1,0}}|^2-phrased variant when psi is primitive.

    S must lie in sym^2 V^{1,0} (NotSymmetric otherwise); the unit sym^2
    coordinates of its hat's symmetric part (``_sym2_coords``) are scored
    against the Gram matrix of the unit basis actions on psi, whose trace is
    the hat norm."""
    if s.convention.n != psi.convention.n:
        raise FrameError("endomorphism and form live on different dimensions")
    _require_sym2_10(s, "estimate_bound")
    p, q = psi.p, psi.q
    gram = _sym2_grams(psi.convention.n, [psi])[0]
    lhs = float(_gram_scores(gram, _sym2_coords(s.hat[None]))[0])
    s_norm = s.norm_sq()
    bound = (0.5 + _min_constant(p, q)) * s_norm * psi.norm_sq()

    bound_prim = None
    lam = lefschetz_adjoint(psi.phi)
    if lam.norm_sq() <= 1e-20 * psi.norm_sq():
        denom = (p + q) * (psi.convention.n + 1) - 2 * p * q
        hat_norm = float(np.trace(gram).real)
        bound_prim = (2.0 + 4.0 * _min_constant(p, q)) / denom * s_norm * hat_norm
    scale = max(1.0, bound)
    return EstimateResult(lhs, bound, bound_prim, lhs <= bound + ESTIMATE_TOL * scale)


def _require_sym2_10(s: EndoC, caller: str) -> None:
    """NotSymmetric unless S is an element of sym^2 V^{1,0}: zero outside its
    hat block and a symmetric hat, both to 1e-12 of max|S|."""
    n = s.convention.n
    off = s.matrix.copy()  # S outside the hat block, and hat - hat^T within it
    off[:n, n:] = s.hat - s.hat.T
    if np.max(np.abs(off)) > 1e-12 * float(np.max(np.abs(s.matrix))):
        raise NotSymmetric(f"{caller} expects an element of sym^2 V^{{1,0}}")


def _sym2_grams(n: int, psis) -> np.ndarray:
    """The Gram matrices ``G[b, i, j] = <u_j psi_b, u_i psi_b>`` (B, m, m) of
    the unit sym^2 V^{1,0} basis actions on a sequence of forms or a
    ``RealStack``, summed over the slices of ``_actions``; the trace of each
    is the hat norm."""
    m = len(family_mats(n, "sym2_10"))
    gram = np.zeros((len(psis), m, m), dtype=complex)
    for owner, acted in _actions(n, "sym2_10", psis, m):
        gram[owner] += acted.conj() @ acted.transpose(0, 2, 1)
    return gram


@lru_cache(maxsize=None)
def _sym2_unit_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit sym^2 V^{1,0} coordinates as a gather from a flattened n x n
    matrix h: ``c_i = (h[ab_i] + h[ba_i]) * weight_i`` over the pairs
    a <= b of ``sym2_basis_labels``, with ab = a n + b, ba = b n + a and
    the weight 1/2 on the diagonal and sqrt2/2 off it.  These are the
    coordinates of the symmetric part (h + h^T)/2: its diagonal entries and
    sqrt2 times the entries above it.  Read-only."""
    a, b = np.array(sym2_basis_labels(n)).T - 1
    return _frozen(a * n + b, b * n + a, np.where(a == b, 0.5, math.sqrt(2.0) / 2.0))


def _sym2_coords(h: np.ndarray) -> np.ndarray:
    """The ``(..., m)`` unit sym^2 V^{1,0} coordinates of the symmetric parts
    of a stack h of n x n matrices (..., n, n), complex or real
    (``_sym2_unit_index``); of a symmetric hat matrix, its coordinates."""
    ab, ba, weight = _sym2_unit_index(h.shape[-1])
    flat = h.reshape(h.shape[:-2] + (-1,))
    c = flat[..., ab]
    c += flat[..., ba]
    c *= weight
    return c


def _gram_scores(gram: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``c* G c`` over the unit-basis coordinates c (..., n_s, m) of sym^2
    V^{1,0} elements S (``_sym2_coords``), against the Gram matrix
    ``G[i, j] = <u_j psi, u_i psi>`` (..., m, m) of the unit basis actions
    on psi: |S psi|^2, shape (..., n_s)."""
    return np.real(np.sum(c.conj() * (c @ np.swapaxes(gram, -1, -2)), axis=-1))


def estimate_sampling(conv: FrameConvention, p: int, q: int, n_psi: int, n_s: int,
                      rng: np.random.Generator) -> dict:
    """Random-pair stress test of the main estimate: n_psi primitive real forms
    against n_s symmetric elements each.  Returns violation counts and the
    largest ratio lhs/bound observed.

    The psi are drawn first, as one stack (``_primitive_stack``), and then
    every sample's n_s matrices h, as one stack: per sample, the real parts
    of its h, then their imaginary parts.  Each S = (h + h^T)/2 is scored
    in its unit sym^2 coordinates c, read off the draws (``_sym2_coords``),
    so that |S|^2 = sum |c|^2.  The psi stay the sampler's coefficient stack
    (as a ``RealStack``), whose Gram matrices of the sym2_10 basis actions
    come from one ``_sym2_grams`` (their trace is the hat norm), and every
    sample is scored and bounded as one array."""
    n = conv.n
    denom = (p + q) * (n + 1) - 2 * p * q
    cmin = _min_constant(p, q)
    psis = RealStack(conv, p, q, _primitive_stack(conv, p, q, rng, n_psi))
    raw = rng.standard_normal((n_psi, 2, n_s, n, n))  # real parts, then imaginary parts
    gram = _sym2_grams(n, psis)
    parts = _sym2_coords(raw)  # (n_psi, 2, n_s, m): the real parts of c, then the imaginary
    c = np.empty((n_psi, n_s, parts.shape[-1]), dtype=complex)
    c.real, c.imag = parts[:, 0], parts[:, 1]
    norms = _gram_scores(gram, c)
    hat_norms = np.trace(gram, axis1=1, axis2=2).real[:, None]
    psi_norms = psis.norm_sq()[:, None]
    s_norms = np.sum(parts * parts, axis=(1, 3))  # sum |c|^2
    bound = (0.5 + cmin) * s_norms * psi_norms
    bound_prim = (2.0 + 4.0 * cmin) / denom * s_norms * hat_norms
    tight = np.minimum(bound, bound_prim)
    violations = int(np.sum(norms > tight + ESTIMATE_TOL * np.maximum(1.0, tight)))
    max_ratio = float(np.max(norms / np.maximum(bound, 1e-300), initial=0.0))
    return {"violations": violations, "samples": n_psi * n_s, "max_ratio": max_ratio}


def achievability_form(conv: FrameConvention, p: int, q: int) -> RealForm:
    """Re(sum_K Z^K) over the (p,q)-multi-indices with I cup J = {1..p+q}."""
    k = p + q
    if k > conv.n:
        raise ValueError("achievability family needs n >= p + q")
    base, _ = _generators(conv.n, p, q)
    # I cup J = {1..k} when the indices, bars dropped, are 0..k-1 once each
    spans = np.all(np.sort(base % conv.n, axis=1) == np.arange(k), axis=1)
    phi = FormPQ.from_coefficient_vector(conv, p, q, np.where(spans, 0.5, 0.0))
    return RealForm.symmetrize(phi)


def achievability_endo(conv: FrameConvention, k: int) -> EndoC:
    """S = sum_{a<=k} Z_a (x) Z_a."""
    hat = np.zeros((conv.n, conv.n), dtype=complex)
    for a in range(k):
        hat[a, a] = 1.0
    return EndoC.from_sym_hat(conv, hat)


def achievability_ratio(p: int, q: int) -> float:
    """The attained constant (1/2 + pq/(p+q)) of the equality family."""
    return 0.5 + p * q / (p + q)


def stress_search(conv: FrameConvention, p: int, q: int, seed: int = 0,
                  restarts: int = 16) -> float:
    """Largest |S psi|^2 / (|S|^2 |psi|^2) over sym^2 V^{1,0} elements S, for a
    fresh random primitive real psi per restart (restarts >= 1); returns the
    best ratio over the restarts.  Only probes tightness; the maximum over psi is not sought.

    In the unit sym^2 coordinates c of S the ratio is the Rayleigh quotient
    c* G c / c* c, with G the Gram matrix of the basis actions on the unit
    psi, so its maximum over S is the top eigenvalue of G.  Every restart's
    psi is drawn first, into one ``RealStack``; their Gram matrices come
    from one ``_sym2_grams``.
    """
    rng = np.random.default_rng(seed)
    psis = RealStack(conv, p, q, _primitive_stack(conv, p, q, rng, restarts))
    gram = _sym2_grams(conv.n, psis) / psis.norm_sq()[:, None, None]
    return float(np.max(np.linalg.eigvalsh(gram)[:, -1]))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _primitive_stack(conv: FrameConvention, p: int, q: int, rng: np.random.Generator,
                     count: int) -> np.ndarray:
    """``count`` random real primitive forms in Lambda^{p,q} + Lambda^{q,p},
    as the ``(count, C(n, p) C(n, q))`` stack of the (p,q) coefficients that
    a RealForm stores: the sampler, which ``random_primitive_reals`` wraps.

    Each form draws complex Gaussian coefficients on the (p,q) generators,
    which are projected onto the primitive subspace and symmetrized; a form
    whose projection is ~0 draws again, up to 16 times.  The forms are
    drawn as one stack, in one call, and projected as one stack.  When row
    ``keep`` comes out ~0, the generator goes back to the stack's start and
    draws the rows up to and including it again, so that row and every
    later one are drawn anew from there: the draws are those of ``count``
    forms drawn and projected one by one.
    """
    n = conv.n
    size = math.comb(n, p) * math.comb(n, q)
    raw = np.empty((count, size, 2))  # (re, im) pairs in generator order
    coeffs = np.empty((count, size), dtype=complex)
    done = failed = 0  # forms accepted; failed draws of form ``done``
    while done < count:
        start = rng.bit_generator.state
        rng.standard_normal(out=raw[done:])
        phi = _primitive_part(n, p, q, raw[done:, :, 0] + 1j * raw[done:, :, 1])
        if p == q:  # RealForm.symmetrize: phi + conj(phi)
            source, sign = _conjugation(n, p, q)
            phi = phi + sign * phi[:, source].conj()
        nonzero = np.sum(np.abs(phi) ** 2, axis=1) * (1.0 if p == q else 2.0) > 1e-8
        keep = len(nonzero) if nonzero.all() else int(np.argmin(nonzero))
        coeffs[done:done + keep] = phi[:keep]
        if keep < len(nonzero):
            rng.bit_generator.state = start  # spend the draws up to row ``keep``'s again
            rng.standard_normal(out=raw[done:done + keep + 1])
            failed = failed + 1 if keep == 0 else 1
            if failed == 16:
                raise SamplingFailure(f"no nonzero primitive ({p},{q})-form found at n={n}")
        done += keep
    return coeffs


def random_primitive_reals(conv: FrameConvention, p: int, q: int, rng: np.random.Generator,
                           count: int) -> list[RealForm]:
    """``count`` random real primitive forms in Lambda^{p,q} + Lambda^{q,p}:
    the rows of ``_primitive_stack`` (one stack of draws, and its retry
    rule) as RealForms, which are not tested for self-conjugacy again: the
    sampler symmetrized each (p,p) row exactly."""
    return [RealForm._symmetrized(FormPQ.from_coefficient_vector(conv, p, q, c))
            for c in _primitive_stack(conv, p, q, rng, count)]


def random_primitive_real(conv: FrameConvention, p: int, q: int,
                          rng: np.random.Generator) -> RealForm:
    """One random real primitive form in Lambda^{p,q} + Lambda^{q,p}: the
    count-1 case of ``random_primitive_reals``."""
    return random_primitive_reals(conv, p, q, rng, 1)[0]


def random_real_pform(conv: FrameConvention, p: int, rng: np.random.Generator) -> np.ndarray:
    """Random real unit p-form as its ``(C(2n, p),)`` orthonormal exterior
    coordinates over the real frame: the alternation of one Gaussian
    ``(2n,)*p`` draw, read at the sorted index sets J only, as the sum over
    the permutations of J of the signed draws, then normalized."""
    raw = rng.standard_normal(size=(conv.dim,) * p)
    subsets = _subsets(conv.dim, p)[0]
    x = np.zeros(len(subsets))
    for perm, parity in zip(*_permutations(p)):
        x += parity * raw[tuple(subsets[:, perm].T)]
    nrm = float(np.linalg.norm(x))
    return x / nrm if nrm > 0 else x
