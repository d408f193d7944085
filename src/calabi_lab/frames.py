"""Frames, complexification, and the algebra of (p,q)-forms.

This module pins every linear-algebra convention the rest of the package
relies on:

* real orthonormal frame ``e_1 .. e_{2n}`` with ``J e_a = e_{a+n}``;
* unitary frame ``Z_a = (e_a - i J e_a) / sqrt(2)``; complexified frame
  indices run ``0 .. 2n-1`` where ``A < n`` means ``Z_{A+1}`` and
  ``A >= n`` means ``conj(Z_{A-n+1})``;
* the metric ``g`` is extended C-bilinearly, so ``g(Z_a, Z_b) = 0`` and
  ``g(Z_a, conj Z_b) = delta_ab``;
* tensors carry the tensor norm (sum of squared components over an
  orthonormal real frame).  Because the Z-frame is unitary for the
  Hermitian pairing ``<S, T> = g(S, conj T)``, that pairing is the plain
  component dot product in either frame;
* wedge products are alternating sums over all permutations without a
  normalizing factor, so ``|e_1 ^ ... ^ e_k|^2 = k!``;
* a (p,q)-form is stored as one coefficient vector over the unit-norm
  generators ``Z^K``; the generator for ``K = (I, J)`` equals the wedge
  monomial in the canonical interleaved order divided by ``sqrt((p+q)!)``.
  One cached table, ``_generators``, lists them I-major by the index arrays
  ``(I, n + J)`` with their interleave signs; coordinates, dense components
  and single generators are all read from it.  Forms hold their
  coefficients and nothing derived from them;
* computations read a k-form through its orthonormal exterior coordinates
  ``x_J = sqrt(k!) T[J]`` over the sorted k-subsets J of frame indices, in
  the Z-frame or the real frame.  One builder, ``_coords``, makes them for
  a form, a sequence of forms of one degree or a dense stack: a sequence
  goes as one coefficient stack per bidegree and kind (``_blocks``, which
  also feeds the grid actions), scattered to the Z-frame and changed to
  the real frame as one stack (``coords_z_to_e``); a dense stack is
  gathered at its sorted components (``_dense_positions``).  Dense
  ``(2n)^k`` components (``to_dense`` / ``from_dense``) are the boundary to
  the dense references of the tests;
* one slot table, ``_slots``, says where a sorted index set lands, with its
  sort sign, when an index leaves it or is replaced; the derivation,
  frame-change and Lefschetz tables are gathers from it;
* the adjoint Lefschetz map contracts the grid ``C[I, J]`` of generator
  coefficients without signs,
  ``-i sqrt(k(k-1)) sum_{a not in I', J'} C[I' + a, J' + a]``, one gather
  per term from a table cached per (n, p, q) (``_lefschetz_table``).

Endomorphisms act on covariant tensors as derivations,
``(L T)(x_1, .., x_k) = - sum_i T(x_1, .., L x_i, .., x_k)``.  The unitary
bases of the six algebras that act (gl, so, sym^2 over the real frame;
sym^2 V^{1,0}, u(n), su(n) over the Z-frame) are one table,
``family_mats``, built from index arrays.  A stack acts through one gather
table per degree (``derivation_table``): for every element and output set
J, the source of each off-diagonal entry with its signed coefficient, and
the weight of a diagonal element.  A (p,q)-form fills only the
``C(n, p) C(n, q)`` block of its Z-frame coordinates, so the Z-frame bases
act on that ``(I, J)`` grid (``act_on_grid``), through tables over
Lambda(C^n) (``grid_table``); the real-frame bases act on all C(2n, k)
coordinates (``family_table``).  The bases' tables are built once, on first
use; every action is applied by ``apply_derivation``.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import CalabiLabError

__all__ = [
    "FrameConvention",
    "FormPQ",
    "RealForm",
    "EndoC",
    "lefschetz_adjoint",
    "project_primitive",
    "kaehler_bivector",
    "sym2_basis_labels",
    "lambda11_basis_labels",
    "family_mats",
]


class FrameError(CalabiLabError, ValueError):
    """Raised for dimension or arity mismatches in frame operations."""


# ---------------------------------------------------------------------------
# frame convention
# ---------------------------------------------------------------------------

# P^T (real frame to Z-frame) and conj(P) (back) mix only the indices a and
# a+n: new index h n + a is sum_g block[h, g] (old index g n + a), s = 1/sqrt2.
# Rows of Z_BLOCK give the Z and conj Z slots, columns of E_BLOCK take them.
_S = 1.0 / math.sqrt(2.0)
Z_BLOCK = np.array([[_S, -1j * _S], [_S, 1j * _S]])
E_BLOCK = np.array([[_S, _S], [1j * _S, -1j * _S]])


@dataclass(frozen=True)
class FrameConvention:
    """Complex dimension plus the frame bookkeeping derived from it."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise FrameError(f"complex dimension must be >= 1, got {self.n}")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def frame_change(self) -> np.ndarray:
        """Unitary P with column A = complex frame vector W_A in e-coordinates."""
        return np.kron(Z_BLOCK, np.eye(self.n)).T

    # coordinate vectors in the Z-frame, 1-based labels
    def z(self, a: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[a - 1] = 1.0
        return v

    def zbar(self, a: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.n + a - 1] = 1.0
        return v

    def e(self, i: int) -> np.ndarray:
        """Real frame vector e_i (1-based) in Z-frame coordinates: row i of
        P^H, since P is unitary."""
        return self.frame_change[i - 1].conj()


# ---------------------------------------------------------------------------
# dense tensor helpers (shared by every module)
# ---------------------------------------------------------------------------

def change_pairs(arr: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Apply rows r and columns c of a pair block to each of the last
    ``len(blocks)`` axes, which hold the c halves (n indices each) that the
    columns name and come out with the r halves that the rows name.  Each
    axis is split as ``(c, n)``, mixed by one matmul and rotated to the end:
    O(size) per axis, against O(2n size) for a full ``(2n, 2n)`` contraction.
    """
    lead = arr.shape[:arr.ndim - len(blocks)]
    count = math.prod(lead)
    arr = np.asarray(arr, dtype=complex)  # matmul is slower casting on the fly
    for block in blocks:
        rows, cols = block.shape
        half = arr.shape[len(lead)] // cols
        rest = arr.shape[len(lead) + 1:]
        tail = math.prod(rest)
        mixed = np.matmul(block, arr.reshape(count, cols, half * tail))
        rotated = mixed.reshape(count, rows * half, tail).transpose(0, 2, 1)
        arr = np.ascontiguousarray(rotated).reshape(lead + rest + (rows * half,))
    return arr


def dense_z_to_e(arr: np.ndarray, conv: FrameConvention, k: int | None = None) -> np.ndarray:
    """Covariant components over the real frame from Z-frame components."""
    return change_pairs(arr, [E_BLOCK] * (arr.ndim if k is None else k))


def dense_e_to_z(arr: np.ndarray, conv: FrameConvention, k: int | None = None) -> np.ndarray:
    return change_pairs(arr, [Z_BLOCK] * (arr.ndim if k is None else k))


def dense_conj(arr: np.ndarray, conv: FrameConvention, k: int | None = None) -> np.ndarray:
    """Complex conjugate of a tensor in Z-frame components (bar-toggled indices)."""
    k = arr.ndim if k is None else k
    return np.roll(arr.conj(), conv.n, axis=tuple(range(arr.ndim - k, arr.ndim)))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cached table is shared by every caller."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _subset_rank(d: int, subsets: np.ndarray) -> np.ndarray:
    """Position of each sorted k-subset of ``0..d-1`` (last axis) in the order
    of ``itertools.combinations(range(d), k)``.

    The subsets before J agree with it up to some slot i and hold a smaller
    index there; summing their count over i gives
    ``sum_i C(d - 1 - J_{i-1}, k - i) - C(d - J_i, k - i)`` with ``J_{-1} = -1``.
    """
    k = subsets.shape[-1]
    binom = np.array([[math.comb(a, b) for b in range(k + 1)] for a in range(d + 1)],
                     dtype=np.intp)
    rank = np.zeros(subsets.shape[:-1], dtype=np.intp)
    prev = -1
    for i in range(k):  # slot by slot, so that no temporary holds every slot
        rank += binom[d - 1 - prev, k - i] - binom[d - subsets[..., i], k - i]
        prev = subsets[..., i]
    return rank


@lru_cache(maxsize=None)
def _subsets(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted k-subsets of ``0..d-1`` in combinations order, ``(C(d, k), k)``,
    and their ``(C(d, k), d)`` membership mask; read-only."""
    count = math.comb(d, k)
    subsets = np.array(list(itertools.combinations(range(d), k)), dtype=np.intp).reshape(count, k)
    occupied = np.zeros((count, d), dtype=bool)
    np.put_along_axis(occupied, subsets, True, axis=1)
    return _frozen(subsets, occupied)


@lru_cache(maxsize=None)
def _slots(d: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moves in the sorted k-subsets J of ``0..d-1``, k >= 1, read-only:
    ``rest[J, s]`` ranks ``J minus J_s`` among the (k-1)-subsets, ``put[R, C]``
    ranks ``R plus C`` among the k-subsets and C takes ``slot[R, C]`` there
    (-1 and 0 when C is in R).  So J_s moves to C at ``put[rest[J, s], C]``
    with sort sign ``(-1)^(s + slot[rest[J, s], C])``: past s indices out and
    slot indices in."""
    subsets, _ = _subsets(d, k)
    others = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)  # slots but s
    rest = _subset_rank(d, subsets[:, others])
    # each R plus C, C not in R, is the one J with C = J_s and R = J minus J_s
    put = np.full((math.comb(d, k - 1), d), -1, dtype=np.intp)
    slot = np.zeros_like(put)
    put[rest, subsets] = np.arange(len(subsets))[:, None]
    slot[rest, subsets] = np.arange(k)
    return _frozen(rest, put, slot)


def derivation_table(mats: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table of the derivation action of a stack of endomorphisms on
    Lambda^k, for ``apply_derivation``.

    ``(L x)_J = -sum_{A in J, C} L[C, A] sign x[J with A -> C]``.  An entry
    ``L[C, A]`` off the diagonal sends ``x_{R + C}`` to ``J = R + A`` for each
    (k-1)-subset R that holds neither, with the sort sign
    ``(-1)^(slot[R, A] + slot[R, C])`` (see ``_slots``); the diagonal
    multiplies x_J by ``-sum_{A in J} L[A, A]``.  Returns ``(src, factor)``,
    each ``(slots, m, N)``: the t-th off-diagonal entry of element mu (in
    ``np.nonzero`` order) reads ``x[src[t, mu, J]]`` times
    ``factor[t, mu, J]``, which is -L[C, A] with the sort sign, or 0 where J
    has no source; the diagonal of an element takes the slot after its
    entries and reads x_J itself.
    """
    m, d = mats.shape[:2]
    count = math.comb(d, k)
    diag = mats[:, np.arange(d), np.arange(d)]
    mu, c, a = np.nonzero(mats)
    mu, c, a = mu[c != a], c[c != a], a[c != a]
    rank = np.arange(len(mu)) - np.searchsorted(mu, mu)  # t of each entry
    used = np.bincount(mu, minlength=m)  # the slots of each element's entries
    has_diag = np.any(diag, axis=1)
    rows = np.nonzero(has_diag)[0]
    slots = max(int(np.max(used + has_diag, initial=0)), 1)
    # by slot, element and J, plus a spare column for the R that hold A
    src = np.zeros((slots, m, count + 1), dtype=np.intp)
    factor = np.zeros((slots, m, count + 1), dtype=mats.dtype)
    if k and len(mu):
        _, put, slot = _slots(d, k)
        put, slot = put.T.copy(), slot.T.copy()  # by index, then R
        moved, at = put[c], (rank[:, None], mu[:, None], put[a])
        src[at] = np.maximum(moved, 0)
        odd = (slot[a] + slot[c]) % 2
        factor[at] = np.where(moved < 0, 0.0, np.where(odd, 1.0, -1.0) * mats[mu, c, a][:, None])
    src[used[rows], rows, :count] = np.arange(count)
    factor[used[rows], rows, :count] = -(diag[rows] @ _subsets(d, k)[1].T)
    return np.ascontiguousarray(src[:, :, :count]), np.ascontiguousarray(factor[:, :, :count])


@lru_cache(maxsize=None)
def family_table(n: int, tag: str, k: int) -> tuple[np.ndarray, ...]:
    """``derivation_table`` of ``family_mats(n, tag)`` on Lambda^k, built on
    first use and read-only."""
    return _frozen(*derivation_table(family_mats(n, tag), k))


def apply_derivation(table: tuple[np.ndarray, np.ndarray], x: np.ndarray,
                     axis: int = 1) -> np.ndarray:
    """The action that a gather table (``derivation_table``, ``grid_table``)
    describes on the coordinates along ``axis`` of the stack x, with the
    element axis put before them: ``(B, N)`` coordinates give the
    ``(B, m, N')`` coordinates of each form's actions, and trailing axes ride
    along.  One gather and product per slot."""
    src, factor = table
    x = np.asarray(x, dtype=np.result_type(factor, x))
    shape = factor.shape[1:] + (1,) * (x.ndim - axis - 1)  # factors over the trailing axes
    out = x.take(src[0], axis=axis)
    out *= factor[0].reshape(shape)
    part = np.empty_like(out) if len(src) > 1 else None
    for t in range(1, len(src)):
        # the sources are in range: mode "clip" only spares take a buffer
        x.take(src[t], axis=axis, out=part, mode="clip")
        part *= factor[t].reshape(shape)
        out += part
    return out


@lru_cache(maxsize=None)
def grid_table(n: int, tag: str, side: int, k: int) -> tuple[np.ndarray, ...]:
    """Gather table over Lambda^k(C^n) of one side of the Z-frame basis
    ``tag`` acting on the (p,q) grid (see ``act_on_grid``), for
    ``apply_derivation``; built on first use and read-only.

    For u and su, ``block_diag(-c, c^T)`` acts as ``D_p(-c) (x) 1 + 1 (x)
    D_q(c^T)``: side 0 is the ``derivation_table`` of the Z block at k = p,
    side 1 that of the conj-Z block at k = q, whose sort signs are those of
    Lambda^q(C^n), as the J indices all sit p slots further on.  A hat
    element M of sym2_10, whose entries lie in the conj-Z columns only
    (M = mats[:, :n, n:]), sends (p,q)-forms to (p-1,q+1)-forms and acts as
    ``(-1)^p sum_{c,a} M[c, a] Rm_p[c] Y Rm_{q+1}[a]``, with
    ``Rm_k[c]`` the signed removal of c from the k-subsets that hold it:
    side 1 at k = q + 1 (one element per a) sends the (q+1)-subsets J' that
    hold a, at slot s, to the source ``J' minus a`` with sign (-1)^s; side 0
    at k = p reads, for each entry ``M[c, a]`` and (p-1)-subset I' without
    c, row ``I' plus c`` (sign (-1)^slot, see ``_slots``) of the a-th stack
    that side 1 made, laid out as ``I n + a``.
    """
    mats = family_mats(n, tag)
    if tag != "sym2_10":
        block = slice(None, n) if side == 0 else slice(n, None)
        return _frozen(*derivation_table(mats[:, block, block], k))
    count, source = math.comb(n, k), math.comb(n, k - 1)
    rest, put, slot = _slots(n, k)
    if side == 1:
        src = np.zeros((1, n, count), dtype=np.intp)
        factor = np.zeros((1, n, count))
        subsets, at = _subsets(n, k)[0], np.arange(count)[:, None]
        src[0, subsets, at] = rest
        factor[0, subsets, at] = 1 - 2 * (np.arange(k) % 2)
        return _frozen(src, factor)
    mu, c, a = np.nonzero(mats[:, :n, n:])
    rank = np.arange(len(mu)) - np.searchsorted(mu, mu)  # t of each entry
    src = np.zeros((np.max(rank, initial=0) + 1, len(mats), source), dtype=np.intp)
    factor = np.zeros(src.shape, dtype=mats.dtype)
    moved = put.T[c]  # the row I' plus c, for each entry and (k-1)-subset I'
    e, r = np.nonzero(moved >= 0)  # I' lacks c
    src[rank[e], mu[e], r] = moved[e, r] * n + a[e]  # the rows I n + a of side 1
    factor[rank[e], mu[e], r] = ((-1) ** k * mats[mu[e], c[e], n + a[e]]
                                 * (1 - 2 * (slot.T[c][e, r] % 2)))
    return _frozen(src, factor)


# entries of a working stack: the grid actions add side 1 in runs of at most
# this many, and the oracle and eigenvalue routes (weitzenboeck) take as many
# forms per slice as keep every stack within it (64 MB complex; a benchmark
# batch is one slice)
_SLICE_ENTRIES = 1 << 22


def act_on_grid(n: int, tag: str, p: int, q: int, y: np.ndarray) -> np.ndarray:
    """The unitary basis of a Z-frame algebra acting on (p,q)-forms, given by
    their Z-frame exterior coordinates on the (p,q) block: the grid
    ``y[B, I, J]`` of the coordinate at ``I + (n + J)``, over the sorted p-
    and q-subsets of ``0..n-1``.  Returns the ``(B, m, N)`` coordinates of
    the actions on the image block, I-major in the same way: (p,q) for u and
    su, (p-1,q+1) for sym2_10 (N = 0 when p = 0 or q = n).  The
    tables (``grid_table``) are over Lambda(C^n), not Lambda^{p+q}(C^{2n}).
    For u and su, side 1 is made for runs of basis elements of at most
    ``_SLICE_ENTRIES`` entries and added into side 0's output, so that the
    call holds one output and one run."""
    b = len(y)
    if tag == "sym2_10":
        if p == 0 or q == n:
            return np.zeros((b, len(family_mats(n, tag)), 0), dtype=complex)
        cols = apply_derivation(grid_table(n, tag, 1, q + 1), y, axis=2)  # [B, I, a, J']
        out = apply_derivation(grid_table(n, tag, 0, p), cols.reshape(b, -1, cols.shape[-1]))
    else:
        out = apply_derivation(grid_table(n, tag, 0, p), y)
        if q:  # a derivation is 0 on Lambda^0
            src, factor = grid_table(n, tag, 1, q)
            step = max(1, _SLICE_ENTRIES // max(1, y.size))
            for a in range(0, src.shape[1], step):  # each run is freed before the next
                out[:, a:a + step] += apply_derivation(
                    (src[:, a:a + step], factor[:, a:a + step]), y, axis=2).transpose(0, 2, 1, 3)
    return out.reshape(out.shape[:2] + (math.prod(out.shape[2:]),))


# the entries of the pair blocks that ``_pair_mixing`` codes: stay, by whether
# J holds a (1) and a + n (2); cross, 1 + (sign < 0) from a, 3 + (sign < 0)
# from a + n, 0 when J holds both or neither
_STAY = np.array([1.0, _S, -1.0j * _S, -1.0j])
_CROSS = np.concatenate([[0.0], _S * np.array([1.0, -1.0]), 1.0j * _S * np.array([1.0, -1.0])])


@lru_cache(maxsize=None)
def _pair_mixing(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame change of Lambda^k, factored over the pairs {a, a+n}.

    ``conj(P)`` mixes the complexified frame indices a and a+n only among
    each other, through the block ``[[s, s], [i s, -i s]]`` (s = 1/sqrt2), so
    its k-th exterior power is the product over a of the maps that change
    pair a alone.  For pair a and a sorted k-subset J that holds exactly one
    of a, a+n, the image keeps J or moves that index to the other one, which
    lands and signs as ``_slots`` says.  Returns ``(partner, stay, cross)``,
    each ``(n, C(2n, k))``: pair a maps coordinates by
    ``y_J = _STAY[stay[a, J]] x_J + _CROSS[cross[a, J]] x_{partner[a, J]}``.
    The entries are codes into those two value tables (int8, partner
    int32), and the slot table is not kept, so that little stays cached at
    large n.
    """
    d = 2 * n
    subsets, occupied = _subsets(d, k)
    stay = np.ascontiguousarray((occupied[:, :n] + 2 * occupied[:, n:]).T, dtype=np.int8)
    partner = np.tile(np.arange(len(subsets), dtype=np.int32), (n, 1))
    cross = np.zeros((n, len(subsets)), dtype=np.int8)
    if k:
        rest, put, slot = _slots.__wrapped__(d, k)
        other = (subsets + n) % d  # the pair partner of each index
        moved = put[rest, other]
        single = moved >= 0  # J holds one index of the pair, not both
        negative = ((np.arange(k) + slot[rest, other]) % 2)[single]
        pair, where = subsets[single] % n, np.nonzero(single)[0]
        partner[pair, where] = moved[single]
        cross[pair, where] = np.where(subsets[single] < n, 1, 3) + negative
    return _frozen(partner, stay, cross)


def coords_z_to_e(x: np.ndarray, conv: FrameConvention, k: int) -> np.ndarray:
    """Real-frame exterior coordinates from Z-frame ones, for a ``(B, C(2n, k))``
    stack: the coordinate form of ``dense_z_to_e``, applied one pair of frame
    indices at a time (see ``_pair_mixing``)."""
    partner, stay, cross = _pair_mixing(conv.n, k)
    y = np.array(x, dtype=complex)
    for a in range(conv.n):  # in place: y and one gathered stack
        moved = y[:, partner[a]]
        moved *= _CROSS[cross[a]]
        y *= _STAY[stay[a]]
        y += moved
        del moved
    return y


# ---------------------------------------------------------------------------
# the generators and sparse (p,q)-forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _permutations(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k! orderings of k slots in ``itertools.permutations`` order,
    ``(k!, k)``, and the parity of each, (-1) to its number of inversions;
    read-only."""
    count = math.factorial(k)
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp).reshape(count, k)
    inversions = np.sum(np.triu(perms[:, :, None] > perms[:, None, :], 1), axis=(1, 2))
    return _frozen(perms, np.where(inversions % 2, -1.0, 1.0))


@lru_cache(maxsize=None)
def _generators(n: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit generators Z^K, K = (I, J), of bidegree (p, q), I-major in
    combinations order, read-only: row K of the ``(C(n, p) C(n, q), p + q)``
    ``base`` holds the complexified frame indices ``(I, n + J)`` (0-based,
    increasing) of Z^K, and ``sign[K]`` is the interleave sign
    ``(-1)^#{(i, j) in I x J : j < i}`` that relates
    ``Z^{i_1} ^ .. ^ Z^{i_p} ^ conj Z^{j_1} ^ .. ^ conj Z^{j_q}`` to the
    canonical interleaved order (lexicographic, unbarred before barred at
    equal value)."""
    rows, cols = _subsets(n, p)[0], _subsets(n, q)[0]
    i = np.repeat(rows, len(cols), axis=0)
    j = np.tile(cols, (len(rows), 1))
    crossed = np.sum(j[:, None, :] < i[:, :, None], axis=(1, 2))
    return _frozen(np.concatenate([i, n + j], axis=1), np.where(crossed % 2, -1.0, 1.0))


@lru_cache(maxsize=None)
def generator_dense_basis(n: int, p: int, q: int) -> np.ndarray:
    """Dense Z-frame components of all unit generators Z^K, stacked: one
    signed scatter of every generator in every ordering of its k = p + q
    frame indices."""
    base, sign = _generators(n, p, q)
    perms, parity = _permutations(p + q)
    out = np.zeros((len(base),) + (2 * n,) * (p + q), dtype=complex)
    amp = sign * (1.0 / math.sqrt(math.factorial(p + q)))
    where = (np.arange(len(base))[:, None],) + tuple(np.moveaxis(base[:, perms], -1, 0))
    out[where] = amp[:, None] * parity
    return out


@lru_cache(maxsize=None)
def _z_layout(n: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Z-frame exterior coordinates of the generators: Z^K has the single
    coordinate ``sign[K]`` at the position of ``base[K]`` among the sorted
    (p+q)-subsets of ``0..2n-1`` (see ``_generators``).  Returns
    ``(position, sign)``."""
    base, sign = _generators(n, p, q)
    return _frozen(_subset_rank(2 * n, base))[0], sign


@lru_cache(maxsize=None)
def _conjugation(n: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Conjugation (p,q) -> (q,p) on coefficient vectors: the (q,p)
    coefficient of (J, I) is ``(-1)^|I cap J|`` times the conjugate of the
    (p,q) coefficient of (I, J).  Returns ``(source, sign)`` over the (q,p)
    multi-indices, which run over the transpose of the (I, J) grid."""
    occ_p, occ_q = _subsets(n, p)[1].astype(np.intp), _subsets(n, q)[1].astype(np.intp)
    return _frozen(np.arange(len(occ_p) * len(occ_q)).reshape(len(occ_p), len(occ_q)).T.ravel(),
                   np.where((occ_q @ occ_p.T) % 2, -1.0, 1.0).ravel())


class FormPQ:
    """A (p,q)-form as coefficients over the unit-norm generators Z^K.

    The coefficients are held as one vector over the generators, in the
    order of ``_generators(n, p, q)``.  Generators are orthonormal for the
    Hermitian pairing, so ``|phi|^2 = sum_K |phi_K|^2``.  Instances are
    immutable.
    """

    __slots__ = ("convention", "p", "q", "_vec")

    def __init__(self, convention: FrameConvention, p: int, q: int):
        """The zero (p,q)-form."""
        n = convention.n
        if not (0 <= p <= n and 0 <= q <= n):
            raise FrameError(f"bidegree ({p},{q}) out of range for n={n}")
        self.convention = convention
        self.p = p
        self.q = q
        vec = np.zeros(math.comb(n, p) * math.comb(n, q), dtype=complex)
        vec.flags.writeable = False
        self._vec = vec

    @property
    def degree(self) -> int:
        return self.p + self.q

    @classmethod
    def generator(cls, convention: FrameConvention, I: Iterable[int], J: Iterable[int]) -> "FormPQ":
        """The unit generator Z^(I, J), for strictly increasing I (unbarred)
        and J (barred) with 1-based entries in ``1..n``."""
        n = convention.n
        I, J = tuple(I), tuple(J)
        for name, idx in (("I", I), ("J", J)):
            if list(idx) != sorted(set(idx)) or not all(1 <= a <= n for a in idx):
                raise FrameError(f"{name} must be strictly increasing in 1..{n}, got {idx}")
        base, _ = _generators(n, len(I), len(J))
        unit = np.all(base == np.array(I + tuple(n + j for j in J), dtype=np.intp) - 1, axis=1)
        return cls.from_coefficient_vector(convention, len(I), len(J), unit)

    def coefficient_vector(self) -> np.ndarray:
        """Coefficients over the generators of ``_generators(n, p, q)``; read-only."""
        return self._vec

    @classmethod
    def from_coefficient_vector(cls, convention: FrameConvention, p: int, q: int,
                                vec: np.ndarray) -> "FormPQ":
        form = cls(convention, p, q)
        vec = np.array(vec, dtype=complex)
        if vec.shape != form._vec.shape:
            raise FrameError("coefficient vector has wrong length")
        vec.flags.writeable = False
        form._vec = vec
        return form

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "FormPQ") -> "FormPQ":
        if (self.p, self.q) != (other.p, other.q):
            raise FrameError("cannot add forms of different bidegree")
        return FormPQ.from_coefficient_vector(self.convention, self.p, self.q,
                                              self._vec + other._vec)

    def __sub__(self, other: "FormPQ") -> "FormPQ":
        return self + other.scaled(-1.0)

    def scaled(self, c: complex) -> "FormPQ":
        return FormPQ.from_coefficient_vector(self.convention, self.p, self.q, c * self._vec)

    def conjugate(self) -> "FormPQ":
        """conj(phi) as a (q,p)-form: coeff (J,I) = (-1)^|I cap J| conj(coeff (I,J))."""
        source, sign = _conjugation(self.convention.n, self.p, self.q)
        return FormPQ.from_coefficient_vector(self.convention, self.q, self.p,
                                              sign * self._vec[source].conj())

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self._vec) ** 2))

    # -- coordinates ------------------------------------------------------------

    def coords(self, frame: str = "z") -> np.ndarray:
        """Orthonormal exterior coordinates ``x_J = sqrt(k!) T[J]`` over the
        sorted k-subsets J of the Z-frame (``"z"``) or the real frame
        (``"e"``), shape ``(C(2n, k),)`` (see ``_coords``)."""
        return _coords(self, frame)[0][0]

    # -- dense conversion -----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Covariant components over the Z-frame, shape (2n,)*(p+q)."""
        basis = generator_dense_basis(self.convention.n, self.p, self.q)
        return np.tensordot(self._vec, basis, axes=(0, 0))

    @classmethod
    def from_dense(cls, convention: FrameConvention, p: int, q: int,
                   dense: np.ndarray) -> "FormPQ":
        """Extract the (p,q)-part of a dense alternating tensor (Z-frame)."""
        k = p + q
        if dense.ndim != k:
            raise FrameError("dense array rank does not match bidegree")
        base, sign = _generators(convention.n, p, q)
        vec = math.sqrt(math.factorial(k)) * sign * dense[tuple(base.T)]
        return cls.from_coefficient_vector(convention, p, q, vec)

    def __repr__(self) -> str:
        terms = np.count_nonzero(self._vec)
        return f"FormPQ(n={self.convention.n}, p={self.p}, q={self.q}, terms={terms})"


# ---------------------------------------------------------------------------
# real forms
# ---------------------------------------------------------------------------

SELF_CONJUGATE_TOL = 1e-12


class RealForm:
    """A conjugation-invariant element of Lambda^{p,q} + Lambda^{q,p}.

    For p != q the stored (p,q)-piece is phi and the represented object is
    psi = phi + conj(phi), with |psi|^2 = 2 |phi|^2.  For p = q the stored
    form must itself be self-conjugate, to SELF_CONJUGATE_TOL relative to |phi|.
    """

    __slots__ = ("phi",)

    def __init__(self, phi: FormPQ):
        if phi.p == phi.q:
            # phi - conj(phi) on the coefficients, without the forms between
            vec = phi.coefficient_vector()
            source, sign = _conjugation(phi.convention.n, phi.p, phi.q)
            delta = float(np.sum(np.abs(vec - sign * vec[source].conj()) ** 2))
            scale = math.sqrt(phi.norm_sq()) or 1.0
            if math.sqrt(delta) > SELF_CONJUGATE_TOL * scale:
                raise FrameError("a (p,p) real form must be self-conjugate")
        self.phi = phi

    @classmethod
    def _symmetrized(cls, phi: FormPQ) -> "RealForm":
        """The RealForm of a phi that its caller made self-conjugate exactly,
        as ``c + sign * conj(c[source])`` over ``_conjugation`` when p = q,
        without testing it again."""
        form = cls.__new__(cls)
        form.phi = phi
        return form

    @classmethod
    def symmetrize(cls, phi: FormPQ) -> "RealForm":
        """Build the real form phi + conj(phi) from any (p,q)-form."""
        if phi.p == phi.q:
            return cls(phi + phi.conjugate())
        return cls(phi)

    @property
    def p(self) -> int:
        return self.phi.p

    @property
    def q(self) -> int:
        return self.phi.q

    @property
    def degree(self) -> int:
        return self.phi.degree

    @property
    def convention(self) -> FrameConvention:
        return self.phi.convention

    def norm_sq(self) -> float:
        if self.p == self.q:
            return self.phi.norm_sq()
        return 2.0 * self.phi.norm_sq()

    def coords(self, frame: str = "z") -> np.ndarray:
        """Orthonormal exterior coordinates of phi + conj(phi) (of phi when
        p = q), as ``FormPQ.coords``."""
        return _coords(self, frame)[0][0]

    def to_dense(self) -> np.ndarray:
        d = self.phi.to_dense()
        return d + dense_conj(d, self.convention) if self.p != self.q else d

    def __repr__(self) -> str:
        return f"RealForm(n={self.convention.n}, p={self.p}, q={self.q})"


@dataclass(frozen=True)
class RealStack:
    """Real forms of one bidegree as one stack: row b of ``coeffs`` is the
    (p,q) piece phi_b that a RealForm stores (self-conjugate when p = q).
    The main-estimate sampler's forms, which ``_blocks`` takes as one of
    its stacks, so that the grid actions need no form object per row."""

    convention: FrameConvention
    p: int
    q: int
    coeffs: np.ndarray

    def __len__(self) -> int:
        return len(self.coeffs)

    def norm_sq(self) -> np.ndarray:
        """``RealForm.norm_sq`` of every row, with the same roundings."""
        norms = np.sum(np.abs(self.coeffs) ** 2, axis=1)
        return norms if self.p == self.q else 2.0 * norms


# ---------------------------------------------------------------------------
# exterior coordinates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _dense_positions(d: int, k: int) -> np.ndarray:
    """The flat position of each sorted k-subset of ``0..d-1``, k >= 1, in a
    dense ``(d,)*k`` tensor, in combinations order; read-only."""
    return _frozen(np.ravel_multi_index(_subsets(d, k)[0].T, (d,) * k))[0]


def _blocks(forms):
    """The Z-frame exterior coordinates of a sequence of forms on their
    pure-type blocks: yields ``(owner, p, q, y)`` for the forms of one
    bidegree and kind, their indices and the ``(B, C(n, p) C(n, q))``
    coordinates of their (p,q) pieces at the (p,q) generators (the
    coefficients times their interleave signs, see ``_z_layout``), from one
    stack of their coefficients.  A RealForm with p != q also yields its
    conjugate (q,p) pieces (``_pieces``).  A ``RealStack`` is one such
    stack, its rows in order."""
    if isinstance(forms, RealStack):
        yield from _pieces(forms.convention.n, forms.p, forms.q, np.arange(len(forms)),
                           forms.coeffs, forms.p != forms.q)
        return
    n = forms[0].convention.n
    groups = defaultdict(list)  # (p, q, both pieces) -> [(form index, coefficients)]
    for b, form in enumerate(forms):
        real = isinstance(form, RealForm)
        phi = form.phi if real else form  # a RealForm stores its (p,q) piece
        groups[form.p, form.q, real and form.p != form.q].append((b, phi.coefficient_vector()))
    for (p, q, both), items in groups.items():
        yield from _pieces(n, p, q, np.array([b for b, _ in items]),
                           np.array([vec for _, vec in items]), both)


def _pieces(n: int, p: int, q: int, owner: np.ndarray, coeffs: np.ndarray, both: bool):
    """The ``_blocks`` of one stack of (p,q) coefficients: its (p,q) pieces,
    and with ``both`` (real forms with p != q) the conjugate (q,p) pieces
    from one ``_conjugation`` gather of the stack."""
    yield owner, p, q, _generators(n, p, q)[1] * coeffs
    if both:
        source, sign = _conjugation(n, p, q)
        yield owner, q, p, _generators(n, q, p)[1] * sign * coeffs[:, source].conj()


def _coords(forms, frame: str) -> tuple[np.ndarray, int]:
    """``(B, N)`` orthonormal exterior coordinates ``x_J = sqrt(k!) T[J]``
    over the sorted k-subsets J, in ``frame`` (``"z"`` or ``"e"``; any other
    raises FrameError), and the degree k of:

    * a ``FormPQ`` or ``RealForm`` (B = 1), or a sequence of them of one
      degree: the Z-frame coordinates are scattered from their ``_blocks``
      (see ``_z_layout``) and change frame as one stack, by
      ``coords_z_to_e``, whose every product and sum keeps the conjugation
      symmetry of a real form exactly, so that its real-frame coordinates
      have imaginary parts exactly 0 (for p = q, when phi is exactly
      self-conjugate, as ``RealForm.symmetrize`` makes it);
    * a stack of dense alternating components in that frame, with a leading
      batch axis: gathered at the sorted components, which is all it reads.
    """
    if frame not in ("z", "e"):
        raise FrameError(f"frame must be 'z' or 'e', got {frame!r}")
    if isinstance(forms, np.ndarray):
        b, k = forms.shape[0], forms.ndim - 1
        dense = np.asarray(forms, dtype=complex).reshape(b, -1)
        if k == 0:
            return dense, 0
        return math.sqrt(math.factorial(k)) * dense[:, _dense_positions(forms.shape[1], k)], k
    if isinstance(forms, (FormPQ, RealForm)):
        forms = [forms]
    conv, k = forms[0].convention, forms[0].degree
    x = np.zeros((len(forms), math.comb(conv.dim, k)), dtype=complex)
    for owner, p, q, y in _blocks(forms):
        x[owner[:, None], _z_layout(conv.n, p, q)[0]] = y
    return (coords_z_to_e(x, conv, k) if frame == "e" else x), k


# ---------------------------------------------------------------------------
# endomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndoC:
    """Complex-linear endomorphism of V^C, as a matrix in the Z-frame.

    ``matrix[C, A]`` is the W_C-coefficient of L(W_A).  ``norm_sq`` is the
    tensor norm tr(L L*); ``norm_u_sq`` is the u(n)-convention norm
    tr(L L*)/2 used for type-preserving algebras in the eigenvalue estimates.
    """

    convention: FrameConvention
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.convention.dim, self.convention.dim):
            raise FrameError("endomorphism matrix has wrong shape")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_sym_hat(cls, conv: FrameConvention, hat: np.ndarray) -> "EndoC":
        """Element of sym^2 V^{1,0} from its complex symmetric hat matrix."""
        hat = np.asarray(hat, dtype=complex)
        if hat.shape != (conv.n, conv.n):
            raise FrameError("hat matrix must be n x n")
        if np.max(np.abs(hat - hat.T)) > 1e-12 * np.max(np.abs(hat)):
            raise FrameError("hat matrix must be complex symmetric")
        m = np.zeros((conv.dim, conv.dim), dtype=complex)
        m[: conv.n, conv.n:] = hat
        return cls(conv, m)

    @property
    def hat(self) -> np.ndarray:
        """Hat matrix of a sym^2 V^{1,0} element (upper right block)."""
        return self.matrix[: self.convention.n, self.convention.n:]

    @classmethod
    def from_lambda11(cls, conv: FrameConvention, c: np.ndarray) -> "EndoC":
        """Endomorphism of the Lambda^{1,1} bivector sum c_ab Z_a ^ conj(Z_b)."""
        c = np.asarray(c, dtype=complex)
        m = np.zeros((conv.dim, conv.dim), dtype=complex)
        m[: conv.n, : conv.n] = -c
        m[conv.n:, conv.n:] = c.T
        return cls(conv, m)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))

    def norm_u_sq(self) -> float:
        return 0.5 * self.norm_sq()


def kaehler_bivector(conv: FrameConvention) -> EndoC:
    """The Kaehler bivector as an endomorphism.

    Acts on (p,q)-forms by multiplication with i(p-q) and has
    ``norm_u_sq == n``; it spans the trace part of u(n).
    """
    diag = np.concatenate([-1.0j * np.ones(conv.n), 1.0j * np.ones(conv.n)])
    return EndoC(conv, np.diag(diag))


# ---------- standard bases -------------------------------------------------

@lru_cache(maxsize=None)
def sym2_basis_labels(n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (a, b), a <= b, 1-based, ordering the sym^2 V^{1,0} basis."""
    return tuple((a, b) for a in range(1, n + 1) for b in range(a, n + 1))


@lru_cache(maxsize=None)
def lambda11_basis_labels(n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (a, b), 1-based, ordering the Lambda^{1,1} basis Z_a ^ conj(Z_b)/sqrt2."""
    return tuple((a, b) for a in range(1, n + 1) for b in range(1, n + 1))


# the algebras whose bases act on real-frame coordinates; the rest act on
# Z-frame ones
REAL_FRAME_TAGS = ("gl", "so", "sym2_real")


def _pair_stack(size: int, sign: float, d: int, shift: int, dtype) -> np.ndarray:
    """One ``(d, d)`` element per index pair i <= j < size in row-major
    order, i < j for the antisymmetric ``sign`` -1: s = 1/sqrt2 at
    ``[j, i + shift]`` and ``sign * s`` at ``[i, j + shift]``, or 1 at
    ``[i, i + shift]`` when i = j."""
    i, j = np.triu_indices(size, 0 if sign > 0 else 1)
    mats = np.zeros((len(i), d, d), dtype=dtype)
    rows = np.arange(len(i))
    mats[rows, j, i + shift] = np.where(i == j, 1.0, _S)
    off = i != j
    mats[rows[off], i[off], j[off] + shift] = sign * _S
    return mats


@lru_cache(maxsize=None)
def family_mats(n: int, tag: str) -> np.ndarray:
    """Stacked ``(m, 2n, 2n)`` matrices of the unitary basis of the tagged
    algebra, read-only; float for ``REAL_FRAME_TAGS``, complex otherwise.

    ``gl`` has the unit ``[j, i]`` for each (i, j) in row-major order;
    ``so`` and ``sym2_real`` are the antisymmetric and symmetric pair stacks
    over the real frame, and ``sym2_10`` (in ``sym2_basis_labels`` order)
    the symmetric one into the conj-Z columns.  ``u`` is
    ``block_diag(-c, c^T)`` over the units c = E_ab of the bivectors
    Z_a ^ conj(Z_b) (half-trace convention, ``lambda11_basis_labels``
    order); ``su`` takes its off-diagonal elements, then the n-1 traceless
    diagonals ``c = (sum_{a<k} E_aa - k E_kk) / sqrt(k(k+1))``.
    """
    d = 2 * n
    if tag == "gl":
        mats = np.eye(d * d).reshape(d * d, d, d).transpose(0, 2, 1)
    elif tag in ("so", "sym2_real"):
        mats = _pair_stack(d, -1.0 if tag == "so" else 1.0, d, 0, float)
    elif tag == "sym2_10":
        mats = _pair_stack(n, 1.0, d, n, complex)
    elif tag in ("u", "su"):
        c = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
        if tag == "su":
            k, a = np.arange(1, n)[:, None], np.arange(n)
            w = 1.0 / np.sqrt(k * (k + 1))
            diag = np.zeros((n - 1, n, n), dtype=complex)
            diag[:, a, a] = np.where(a < k, w, np.where(a == k, -k * w, 0.0))
            c = np.concatenate([c[~np.eye(n, dtype=bool).ravel()], diag])
        mats = np.zeros((len(c), d, d), dtype=complex)
        mats[:, :n, :n] = -c
        mats[:, n:, n:] = c.transpose(0, 2, 1)
    else:
        raise ValueError(f"unknown algebra tag {tag!r}")
    return _frozen(np.ascontiguousarray(mats))[0]


# ---------------------------------------------------------------------------
# form operations
# ---------------------------------------------------------------------------

def lefschetz_adjoint(phi: FormPQ) -> FormPQ:
    """Formal adjoint of the Lefschetz map,
    (Lambda phi)(v_1..v_{k-2}) = -i k(k-1) sum_a phi(Z_a, conj Z_a, v_1, ..);
    the sort signs of taking a out of I and J cancel the interleave signs of
    Z^(I, J) and Z^(I - a, J - a), which leaves the sign-free grid contraction."""
    conv, p, q = phi.convention, phi.p, phi.q
    if p < 1 or q < 1:
        return FormPQ(conv, max(p - 1, 0), max(q - 1, 0))
    return FormPQ.from_coefficient_vector(
        conv, p - 1, q - 1, _lefschetz_coeffs(conv.n, p, q, phi.coefficient_vector()))


def _lefschetz_coeffs(n: int, p: int, q: int, coeffs: np.ndarray) -> np.ndarray:
    """``lefschetz_adjoint`` on (p,q) generator coefficients (last axis, any
    leading axes), p, q >= 1: the (p-1,q-1) coefficients of Lambda."""
    k = p + q
    return -1.0j * math.sqrt(k * (k - 1)) * _contract_pairs(_lefschetz_table(n, p, q, False), coeffs)


@lru_cache(maxsize=None)
def _lefschetz_table(n: int, p: int, q: int, adjoint: bool) -> np.ndarray:
    """Gather table of the sign-free Lefschetz contraction of (p,q) generator
    coefficients, p, q >= 1, on their ``(I, J)`` grid C: to (p-1,q-1),
    ``out[I', J'] = sum_{a not in I', J'} C[I' + a, J' + a]``, or with
    ``adjoint`` its transpose from (p-1,q-1) back to (p,q),
    ``out[I, J] = sum_{a in I and J} C'[I - a, J - a]``.

    Row t of the ``(slots, N_out)`` table holds, for each output entry, the
    flat source of its t-th term in increasing a, or ``N_in``, the position of
    a zero appended to the source, where the entry has fewer terms.  The
    moves come from ``_slots``: ``put`` adds a to a (p-1)-subset, ``rest``
    takes the index at slot s out of a p-subset.  Read-only."""
    maps = []
    for side in (p, q):
        rest, put, _ = _slots(n, side)
        if adjoint:  # the rank of I minus a, by I and a; -1 when a is not in I
            subsets = _subsets(n, side)[0]
            put = np.full((len(subsets), n), -1, dtype=np.intp)
            put[np.arange(len(subsets))[:, None], subsets] = rest
        maps.append(put)
    rows, cols = maps
    width = math.comb(n, q - 1 if adjoint else q)  # of the source grid
    size = math.comb(n, p - 1 if adjoint else p) * width
    valid = ((rows[:, None, :] >= 0) & (cols[None, :, :] >= 0)).reshape(-1, n)
    src = np.where(valid, (rows[:, None, :] * width + cols[None, :, :]).reshape(-1, n), size)
    # each entry's terms first, in increasing a, then its padding
    order = np.argsort(~valid, axis=1, kind="stable")[:, :int(np.max(np.sum(valid, axis=1)))]
    return _frozen(np.ascontiguousarray(np.take_along_axis(src, order, axis=1).T))[0]


def _contract_pairs(table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The contraction a ``_lefschetz_table`` describes, on coefficients on the
    last axis (leading axes ride along): one gather and sum per slot, so
    each entry adds its terms in increasing a, in the order of the dense 0/1
    products ``sum_a R_a C R_a^T`` (R_a the removal of a), and the results
    are theirs bit for bit.  A one-entry output (the trace of a (1,1)-form)
    sums its terms with ``np.sum``, pairwise, as those products do."""
    x = np.concatenate([coeffs, np.zeros(coeffs.shape[:-1] + (1,), dtype=coeffs.dtype)], axis=-1)
    if table.shape[1] == 1:
        return np.sum(x.take(table[:, 0], axis=-1), axis=-1, keepdims=True)
    out = x.take(table[0], axis=-1)
    part = np.empty_like(out) if len(table) > 1 else None
    for row in table[1:]:
        x.take(row, axis=-1, out=part, mode="clip")  # in range: "clip" spares a buffer
        out += part
    return out


def _primitive_part(n: int, p: int, q: int, coeffs: np.ndarray) -> np.ndarray:
    """Orthogonal projection of (p,q) generator coefficients (last axis) onto
    ker(Lambda), for p + q = k <= n.

    On these coefficients Lambda* Lambda has the eigenvalue
    ``k(k-1) r (n-k+r+1)`` on the piece L^r P^{p-r,q-r} of the Lefschetz
    decomposition, r = 0..min(p,q); the product of the factors
    ``I - Lambda* Lambda / eigenvalue`` over r >= 1 keeps the r = 0 piece,
    ker(Lambda), alone.  Lambda* Lambda is k(k-1) times the sign-free
    contraction followed by its transpose (``_lefschetz_table``), so the
    k(k-1) cancels.
    """
    if p < 1 or q < 1:
        return coeffs
    down, up = _lefschetz_table(n, p, q, False), _lefschetz_table(n, p, q, True)
    k = p + q
    for r in range(1, min(p, q) + 1):
        gram = _contract_pairs(up, _contract_pairs(down, coeffs))
        coeffs = coeffs - gram / (r * (n - k + r + 1))
    return coeffs


def project_primitive(phi: FormPQ) -> FormPQ:
    """Orthogonal projection onto the primitive (ker Lambda) subspace."""
    n = phi.convention.n
    if phi.degree > n:
        raise FrameError("primitive projection requires p + q <= n")
    return FormPQ.from_coefficient_vector(
        phi.convention, phi.p, phi.q, _primitive_part(n, phi.p, phi.q, phi.coefficient_vector()))
