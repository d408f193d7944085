"""Threshold tables and vanishing certificates."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from calabi_lab import certify as ct
from calabi_lab.certify import (
    Certificate,
    certify_calabi,
    certify_ke,
    gamma,
    gamma_reduction_violations,
    thresholds,
    upsilon,
    upsilon_exact,
    upsilon_min_holds,
)
from calabi_lab.curvature import calabi_from_tensor, kaehler_operator, restrict_su, ricci
from calabi_lab.model_spaces import (chsc, quadric, quadric_spectrum, random_kaehler,
                                     random_kaehler_einstein)
from calabi_lab.spectral import Spectrum, eigensystem, k_test
from request_reference import certify_per_cell, upsilon_fraction


def test_threshold_closed_forms():
    for n in list(range(1, 9)) + [17, 33, 64]:
        tb = thresholds(n)
        if n >= 1:
            assert tb.upsilons_exact[(1, 1)] == Fraction(n, 2)
        for p in range(1, n + 1):
            assert tb.upsilons_exact[(p, p)] == Fraction(p * (n + 1 - p), 1 + p)
            assert tb.upsilons_exact[(p, 0)] == Fraction(p * (n + 1), 2)
            assert tb.gammas[(p, p)] == n + 1 - p
        assert tb.upsilons_exact[(n, 0)] == Fraction(n * (n + 1), 2)
        assert tb.gammas[(n, 0)] == Fraction(n * n - 1, n)


def test_upsilon_float_agrees_with_exact():
    for n in (2, 5):
        for p in range(n + 1):
            for q in range(n + 1):
                if (p, q) == (0, 0):
                    continue
                exact = upsilon_exact(n, p, q)
                if exact is not None:
                    assert abs(upsilon(n, p, q) - float(exact)) < 1e-12


def test_upsilon_irrational_branch():
    # pq = 2 is not a square and max < 4 min, so the branch is irrational
    assert upsilon_exact(3, 2, 1) is None
    val = upsilon(3, 2, 1)
    assert abs(val - ((3 * 4 - 4) / (2 + 4 * (2 ** 0.5) / 2))) < 1e-12


def test_upsilon_minimum_exhaustive():
    assert all(upsilon_min_holds(n) for n in range(1, 65))


def test_gamma_reduction_edge_cases():
    assert gamma_reduction_violations(1) == [(0, 1), (1, 0)]
    assert gamma_reduction_violations(2) == [(0, 2), (2, 0)]
    for n in range(3, 65):
        assert gamma_reduction_violations(n) == []
    assert gamma(2, 2, 0) == Fraction(3, 2)


def test_certify_calabi_identity_spectrum():
    for n in (2, 3):
        spec = calabi_from_tensor(chsc(n, 1.0)).spectrum()
        cert = certify_calabi(spec, n)
        assert cert.summary_certified
        assert all(v.status == "vanishes" for v in cert.verdicts.values())
        assert (n, n) not in cert.verdicts


def test_certify_calabi_quadric():
    spec = quadric_spectrum(4)[0]
    cert = certify_calabi(spec, 4)
    assert not cert.summary_certified
    assert cert.verdicts[(1, 1)].status == "parallel-only"
    assert cert.verdicts[(2, 2)].status == "parallel-only"
    assert cert.verdicts[(2, 0)].status == "vanishes"
    # duality provenance
    assert cert.verdicts[(4, 3)].provenance == "serre-dual"
    assert cert.verdicts[(4, 3)].status == cert.verdicts[(0, 1)].status


def test_certify_nonneg_spectrum_never_below_parallel():
    rng = np.random.default_rng(1)
    vals = np.sort(np.abs(rng.normal(size=6)))
    spec = eigensystem(np.diag(vals))
    cert = certify_calabi(spec, 3)
    assert all(v.certified for v in cert.verdicts.values())


def test_certificate_monotonicity():
    # improving eigenvalues pointwise never downgrades a verdict
    rng = np.random.default_rng(2)
    rank = {"not-certified": 0, "parallel-only": 1, "vanishes": 2}
    for _ in range(50):
        vals = np.sort(rng.normal(size=6))
        better = np.sort(vals + np.abs(rng.normal(size=6)))
        c1 = certify_calabi(eigensystem(np.diag(vals)), 3)
        c2 = certify_calabi(eigensystem(np.diag(better)), 3)
        for key in c1.verdicts:
            assert rank[c2.verdicts[key].status] >= rank[c1.verdicts[key].status]


def test_certify_dimension_mismatch():
    spec = eigensystem(np.eye(4))
    with pytest.raises(ValueError):
        certify_calabi(spec, 3)
    with pytest.raises(ValueError):
        certify_ke(spec, 3)


def test_certify_ke_identity_and_notes():
    n = 3
    cert = certify_ke(eigensystem(np.eye(n * n - 1)), n)
    assert cert.summary_certified
    assert cert.notes["reduction_valid"]
    cert2 = certify_ke(eigensystem(np.eye(3)), 2)
    assert not cert2.notes["reduction_valid"]
    assert cert2.notes["reduction_violations"] == [(0, 2), (2, 0)]


def test_certify_ke_verdict_independent_of_summary():
    # a spectrum failing (n/2+1)-nonnegativity can still certify (n,0)
    n = 3
    m = n * n - 1
    vals = np.diag(sorted([-2.0] + [1.0] * (m - 1)))
    cert = certify_ke(eigensystem(vals), n)
    assert not cert.summary_certified
    # Gamma_{3,0} = 8/3: partial sum -2 + 1 + 2/3 < 0 -> not certified there
    assert cert.verdicts[(3, 0)].status == "not-certified"
    rich = np.diag(sorted([-0.5] + [1.0] * (m - 1)))
    cert2 = certify_ke(eigensystem(rich), n)
    assert cert2.verdicts[(3, 0)].status == "vanishes"


@pytest.mark.parametrize("eps", [-1.0, -1e-12, float("nan"), float("inf")])
def test_certify_refuses_a_bad_margin(eps):
    """A negative margin would grant "vanishes" to negative partial sums (Q4
    at (1,1), (2,2), (3,3) with eps = -1, against b_4 = 2)."""
    spec = quadric_spectrum(4)[0]
    with pytest.raises(ValueError, match="eps"):
        certify_calabi(spec, 4, eps=eps)
    with pytest.raises(ValueError, match="eps"):
        certify_ke(eigensystem(np.eye(8)), 3, eps=eps)
    assert certify_calabi(spec, 4, eps=0.0).verdicts[(2, 2)].status != "vanishes"


@pytest.mark.parametrize("n", range(2, 9))
def test_verdict_partial_sums_are_k_tests(n):
    """Each verdict's partial sum equals, bit for bit, the k-test of its
    spectrum at the verdict's k: Calabi spectra of a random Kaehler tensor
    and of the quadric, restricted Kaehler spectra of a random
    Kaehler-Einstein tensor and of the quadric."""
    calabi = [calabi_from_tensor(t).spectrum() for t in (random_kaehler(n, 5), quadric(n))]
    ke = [restrict_su(kaehler_operator(t), ricci(t)).spectrum()
          for t in (random_kaehler_einstein(n, 5), quadric(n))]
    for certify, specs in ((certify_calabi, calabi), (certify_ke, ke)):
        for spec in specs:
            verdicts = certify(spec, n).verdicts.values()
            assert verdicts
            for v in verdicts:
                assert v.partial_sum == k_test(spec, v.k).partial_sum


def test_certificate_refuses_an_unsorted_spectrum():
    spec, _ = quadric_spectrum(3)
    vals = spec.eigenvalues.copy()
    vals[-1] = -vals[-1]
    with pytest.raises(ValueError, match="eigenvalues must be sorted ascending"):
        certify_calabi(dataclasses.replace(spec, eigenvalues=vals), 3)
    vals = np.arange(8.0)
    vals[-1] = -vals[-1]
    with pytest.raises(ValueError, match="eigenvalues must be sorted ascending"):
        certify_ke(dataclasses.replace(eigensystem(np.eye(8)), eigenvalues=vals), 3)


def test_upsilon_matches_fraction_reference():
    """The integer ratio gives the float of the Fraction-valued Upsilon, for
    every cell at every n <= 64."""
    for n in range(1, 65):
        for p in range(n + 1):
            for q in range(n + 1):
                if (p, q) != (0, 0):
                    assert upsilon(n, p, q) == upsilon_fraction(n, p, q), (n, p, q)


@pytest.mark.parametrize("n", range(2, 9))
def test_certificates_match_per_cell_reference(n, monkeypatch):
    """One partial sum per distinct k gives the certificate of one partial
    sum per bidegree, in both modes: the Calabi and restricted Kaehler
    spectra of chsc, the quadric and a random Kaehler-Einstein tensor, the
    Calabi spectrum of a random Kaehler tensor (which is not Einstein, so a
    random Hermitian spectrum of the su(n) size stands in for it in KE
    mode), at the default margin and at 0."""
    rng = np.random.default_rng(40 + n)
    h = rng.normal(size=(n * n - 1,) * 2)
    calabi = [calabi_from_tensor(t).spectrum()
              for t in (chsc(n, 1.5), quadric(n), random_kaehler(n, 6),
                        random_kaehler_einstein(n, 6))]
    ke = [restrict_su(kaehler_operator(t), ricci(t)).spectrum()
          for t in (chsc(n, 1.5), quadric(n), random_kaehler_einstein(n, 6))]
    ke.append(eigensystem(h + h.T))
    runs = [(certify, spec, eps) for certify, specs in ((certify_calabi, calabi),
                                                        (certify_ke, ke))
            for spec in specs for eps in (ct.STRICTNESS_EPS, 0.0)]
    got = [certify(spec, n, eps=eps) for certify, spec, eps in runs]
    monkeypatch.setattr(ct, "_certify", certify_per_cell)
    assert got == [certify(spec, n, eps=eps) for certify, spec, eps in runs]
    assert {v.status for cert in got for v in cert.verdicts.values()} == {
        "vanishes", "parallel-only", "not-certified"}


def test_bidegrees_match_the_double_loop():
    for n in range(0, 13):
        old = [(p, q) for p in range(n + 1) for q in range(n + 1) if 1 <= p + q <= n]
        assert ct.bidegrees(n) == old


def _old_ladder(n, m):
    """The spectrum ladder as requests computed it before the plans."""
    ks = {1.0, n / 2.0, n / 2.0 + 1.0, *(upsilon(n, p, q) for (p, q) in ct.bidegrees(n))}
    return sorted({min(k, float(m)) for k in ks if k >= 1.0})


@pytest.mark.parametrize("mode", ["calabi", "ke"])
def test_plan_matches_per_cell_thresholds_and_serre_duality(mode):
    """For every n <= 16, the plan's k of each direct bidegree is
    min(float(threshold), m), its distinct k's are those k's, each Serre-dual
    cell reads the k of (n-p, n-q), and the per-cell reference sends the
    same cells to the same sources; its record names are the sorted verdict
    cells, and the calabi plan's ladder is the per-request one."""
    for n in range(1 if mode == "calabi" else 2, 17):
        pl = ct.plan(mode, n)
        m = n * (n + 1) // 2 if mode == "calabi" else n * n - 1
        threshold = upsilon if mode == "calabi" else gamma
        assert (pl.mode, pl.n, pl.m) == (mode, n, m)
        assert [c for c, _ in pl.direct] == ct.bidegrees(n)
        for (p, q), i in pl.direct:
            assert pl.ks[i] == min(float(threshold(n, p, q)), float(m)), (n, p, q)
        assert sorted(pl.ks) == sorted({pl.ks[i] for _, i in pl.direct})
        slot = dict(pl.direct)
        assert [c for c, _, _ in pl.duals] == [
            (p, q) for p in range(n + 1) for q in range(n + 1) if n < p + q <= 2 * n - 1]
        for (p, q), source, i in pl.duals:
            assert source == (n - p, n - q) and i == slot[source]
        # a spectrum whose partial sums differ at every k shows the reference's sources
        vals = np.cumsum(np.arange(1.0, m + 1.0)) - m
        ref = certify_per_cell(pl, Spectrum(vals, np.eye(m)), 0.0).verdicts
        duals = {c: s for c, s, _ in pl.duals}
        assert {c for c, v in ref.items() if v.provenance == "serre-dual"} == set(duals)
        for c, s in duals.items():
            assert (ref[c].k, ref[c].partial_sum) == (ref[s].k, ref[s].partial_sum)
        assert pl.records == tuple((c, f"verdict[{c[0]},{c[1]}]") for c in sorted(ref))
        if mode == "calabi":
            assert list(pl.ladder) == _old_ladder(n, m)
            assert pl.ladder_names == tuple(f"k_test[{k:g}]" for k in pl.ladder)
            assert pl.upsilon_min == upsilon_min_holds(n) and pl.violations is None
        else:
            assert pl.violations == tuple(gamma_reduction_violations(n))
            assert pl.upsilon_min is None and pl.ladder == ()


def test_plans_are_read_only_and_shared():
    pl = ct.plan("calabi", 5)
    assert ct.plan("calabi", 5) is pl
    with pytest.raises(dataclasses.FrozenInstanceError):
        pl.ks = ()
    assert all(isinstance(getattr(pl, f.name), (str, int, float, bool, tuple, type(None)))
               for f in dataclasses.fields(pl))
    for mode, n in (("calabi", 0), ("ke", 1)):
        with pytest.raises(ValueError, match="empty"):
            ct.plan(mode, n)


def _random_spectra(m, rng):
    """Sorted spectra of size m: Gaussian, Gaussian with exact zeros, all
    zeros, and nonnegative."""
    out = [np.sort(rng.normal(size=m))]
    with_zeros = rng.normal(size=m)
    with_zeros[rng.integers(m, size=max(1, m // 2))] = 0.0
    out += [np.sort(with_zeros), np.zeros(m), np.sort(np.abs(rng.normal(size=m)))]
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_certificates_of_random_spectra_match_per_cell_reference(n):
    """Certificates from the plan equal the per-cell reference field by
    field, notes included, on random spectra (with exact zeros among
    them) at the default margin and at 0."""
    rng = np.random.default_rng(300 + n)
    for mode, certify in (("calabi", certify_calabi), ("ke", certify_ke)):
        if mode == "ke" and n < 2:
            continue
        m = n * (n + 1) // 2 if mode == "calabi" else n * n - 1
        for vals in _random_spectra(m, rng):
            spec = Spectrum(vals, np.eye(m))
            for eps in (ct.STRICTNESS_EPS, 0.0):
                got = certify(spec, n, eps=eps)
                want = certify_per_cell(ct.plan(mode, n), spec, eps)
                for f in dataclasses.fields(Certificate):
                    assert getattr(got, f.name) == getattr(want, f.name), (mode, n, f.name)
                assert list(got.verdicts) == list(want.verdicts)


def test_a_partial_sum_of_exactly_zero_is_parallel_only():
    """At n = 2, Upsilon_{1,0} = 3/2, and the spectrum (-1, 2, 5) has the
    partial sum -1 + 2/2 = 0 there exactly: parallel-only at every margin,
    as in the per-cell reference."""
    spec = Spectrum(np.array([-1.0, 2.0, 5.0]), np.eye(3))
    for eps in (ct.STRICTNESS_EPS, 0.0):
        got = certify_calabi(spec, 2, eps=eps)
        assert got == certify_per_cell(ct.plan("calabi", 2), spec, eps)
        assert got.verdicts[(1, 0)] == ct.Verdict("parallel-only", 1.5, 0.0, "direct")
        assert got.verdicts[(2, 1)] == ct.Verdict("parallel-only", 1.5, 0.0, "serre-dual")


def test_mutating_returned_lists_and_notes_changes_no_later_result():
    """gamma_reduction_violations hands out a fresh list and every
    certificate fresh notes: mutating them leaves the next ones as they were."""
    spec = Spectrum(np.ones(3), np.eye(3))
    first = certify_ke(spec, 2)
    violations = gamma_reduction_violations(2)
    violations.append((9, 9))
    first.notes["reduction_violations"].append((7, 7))
    first.notes["reduction_valid"] = True
    first.verdicts.clear()
    assert gamma_reduction_violations(2) == [(0, 2), (2, 0)]
    again = certify_ke(spec, 2)
    assert again.notes == {"reduction_valid": False, "reduction_violations": [(0, 2), (2, 0)],
                           "half_plus_one_partial_sum": 2.0}
    assert again.notes["reduction_violations"] is not first.notes["reduction_violations"]
    assert len(again.verdicts) == 5 + 2
    calabi = certify_calabi(Spectrum(np.ones(3), np.eye(3)), 2)
    calabi.notes.clear()
    assert certify_calabi(Spectrum(np.ones(3), np.eye(3)), 2).notes == {
        "half_n_partial_sum": 1.0, "upsilon_min_exact": True}
