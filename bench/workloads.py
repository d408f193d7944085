"""The three benchmark workloads.

Each workload turns a seed into a list of operations (``setup``), may derive
their expected outputs once (``reference``), and runs one operation with
``run_op``, which returns the operation's checks as ``(ok, residual,
tolerance)`` triples; ``residual`` is None when a check has no residual.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from calabi_lab import cli
from calabi_lab import curvature as cv
from calabi_lab import model_spaces as ms
from calabi_lab import weitzenboeck as wz
from calabi_lab.frames import FrameConvention, dense_z_to_e
from calabi_lab.report import validate_report

TOL_AGREE = 1e-9  # oracle vs eigen route, and Jacobi vs eigvalsh (relative)


def _pairs(n: int, max_degree: int = 4) -> list[tuple[int, int]]:
    """Bidegrees p >= q with 1 <= p+q <= min(max_degree, n), as Tier-1 loops them."""
    return [(p, q) for p in range(n + 1) for q in range(p + 1)
            if 1 <= p + q <= min(max_degree, n)]


def _call_cli(argv: list[str]) -> tuple[int, dict | None]:
    """cli.main in-process with json output captured; (exit code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--format", "json"])
    text = buf.getvalue()
    return rc, (json.loads(text) if text else None)


class Workload:
    name = ""
    cold_caches = False  # empty the package's caches before every operation
    host_scaled = True  # scale the end-to-end times by the host-speed factor

    def reference(self, ops: list) -> None:
        """Derive expected outputs once per run (untimed)."""


class VerifyScaling(Workload):
    """`calabi-lab verify` at growing (n, --max-degree), dense (2n)^k path."""

    name = "verify-scaling"
    cold_caches = True  # each operation stands for a fresh CLI invocation
    # Four operations of seconds each, mostly large-array work: the kernel,
    # sampled only between them, tracks their speed worse than their own
    # length averages it (ten seeds: 10.5 % spread scaled, 9.3 % raw).
    host_scaled = False
    CONFIGS = ((3, 3), (4, 4), (5, 5), (6, 4))
    TINY_CONFIGS = ((2, 2), (3, 3))
    TRIALS = 2

    def __init__(self, tiny: bool = False):
        self.configs = self.TINY_CONFIGS if tiny else self.CONFIGS
        self.trials = 1 if tiny else self.TRIALS

    def setup(self, seed: int, workdir: Path) -> list:
        return [["verify", "--n", str(n), "--max-degree", str(d),
                 "--trials", str(self.trials), "--seed", str(seed)]
                for n, d in self.configs]

    def run_op(self, argv: list) -> list[tuple[bool, float | None, float | None]]:
        rc, env = _call_cli(argv)
        if rc != 0 or env is None or validate_report(env):
            return [(False, None, None)]
        return [(r["status"] == "pass", r.get("residual"), r.get("tolerance"))
                for r in env["records"]]


class AcceptanceLoops(Workload):
    """Tier-1 criterion 2 (curvature term both ways) and criterion 5 (main
    estimate sampling) at n = 2..4, degree <= 4, forms built once."""

    name = "acceptance-loops"

    def __init__(self, tiny: bool = False):
        self.ns = (2, 3) if tiny else (2, 3, 4)
        self.forms_per_pair = 3 if tiny else 20
        self.tensors_per_n = 2 if tiny else 14
        self.estimates_per_pair = 1 if tiny else 2
        self.n_psi, self.n_s = (2, 20) if tiny else (2, 200)

    def setup(self, seed: int, workdir: Path) -> list:
        ops = []
        for n in self.ns:
            conv = FrameConvention(n)
            rng = np.random.default_rng([seed, 2, n])
            by_degree = defaultdict(list)
            for (p, q) in _pairs(n):
                for _ in range(self.forms_per_pair):
                    by_degree[p + q].append(wz.random_primitive_real(conv, p, q, rng))
            stacks = []
            for k, forms in sorted(by_degree.items()):
                stack_z = np.array([f.to_dense() for f in forms])
                stacks.append((stack_z, dense_z_to_e(stack_z, conv, k)))
            for _ in range(self.tensors_per_n):
                t = ms.random_kaehler(n, int(rng.integers(2 ** 31)))
                ops.append(("curvature_term", conv, t, stacks))
            for (p, q) in _pairs(n):
                for r in range(self.estimates_per_pair):
                    ops.append(("main_estimate", conv, p, q, (seed, 5, n, p, q, r)))
        return ops

    def run_op(self, op: tuple) -> list[tuple[bool, float | None, float | None]]:
        if op[0] == "curvature_term":
            _, conv, t, stacks = op
            spec = cv.calabi_from_tensor(t).spectrum()
            worst = 0.0
            for stack_z, stack_e in stacks:
                bf = wz.ricl_pairing_batch(t, stack_e)
                ec = wz.ricl_via_calabi_batch(spec, conv, stack_z)
                worst = max(worst, float(np.max(np.abs(bf - ec) / np.maximum(1.0, np.abs(bf)))))
            return [(worst <= TOL_AGREE, worst, TOL_AGREE)]
        _, conv, p, q, stream = op
        # a fresh stream per call, so every pass samples the same pairs
        out = wz.estimate_sampling(conv, p, q, n_psi=self.n_psi, n_s=self.n_s,
                                   rng=np.random.default_rng(list(stream)))
        # a violation count is not a residual: it gates, but has no headroom
        return [(out["violations"] == 0, None, None)]


def _write_calabi_file(path: Path, h: np.ndarray, n: int) -> None:
    tri = [[float(h[i, j].real), float(h[i, j].imag)]
           for i in range(len(h)) for j in range(i, len(h))]
    path.write_text(json.dumps({"kind": "calabi", "n": n, "hermitian": tri}))


class CertifySweep(Workload):
    """In-process `certify` (calabi and ke modes) and `spectrum` requests over
    model spaces, products and seed-generated file: Calabi matrices."""

    name = "certify-sweep"

    def __init__(self, tiny: bool = False):
        self.ns = (2, 3) if tiny else tuple(range(2, 9))
        self.tiny = tiny

    def setup(self, seed: int, workdir: Path) -> list:
        """Requests as (argv, recipe); the recipe names the Hermitian matrix
        whose spectrum the request must report."""
        rng = np.random.default_rng([seed, 3])
        indir = workdir / f"inputs-seed{seed}"
        indir.mkdir(parents=True, exist_ok=True)
        reqs = []
        for n in self.ns:
            c = float(rng.uniform(0.5, 2.0))
            s_rand, s_ke, s_spec = (int(x) for x in rng.integers(1, 10 ** 6, size=3))
            m = n * (n + 1) // 2
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            h = (a + a.conj().T) / 2.0
            path = indir / f"calabi-n{n}.json"
            _write_calabi_file(path, h, n)
            chsc = ms.SpaceDescriptor("chsc", n=n, c=c)
            quad = ms.SpaceDescriptor("quadric", n=n)
            rand = ms.SpaceDescriptor("random", n=n, seed=s_rand)
            rke = ms.SpaceDescriptor("random_ke", n=n, seed=s_ke)
            rspec = ms.SpaceDescriptor("random", n=n, seed=s_spec)
            reqs += [
                (["certify", "--space", f"chsc:n={n},c={c!r}"], ("calabi", chsc)),
                (["certify", "--space", f"quadric:n={n}"], ("calabi", quad)),
                (["certify", "--space", f"random:n={n},seed={s_rand}"], ("calabi", rand)),
                (["certify", "--space", f"randomke:n={n},seed={s_ke}"], ("calabi", rke)),
                (["certify", "--space", f"quadric:n={n}", "--mode", "ke"], ("ke", quad)),
                (["certify", "--space", f"randomke:n={n},seed={s_ke}", "--mode", "ke"],
                 ("ke", rke)),
                (["spectrum", "--space", f"random:n={n},seed={s_spec}"], ("calabi", rspec)),
                (["spectrum", "--space", f"quadric:n={n}"], ("calabi", quad)),
                (["certify", "--space", f"file:{path}"], ("matrix", h)),
                (["spectrum", "--space", f"file:{path}"], ("matrix", h)),
            ]
        reqs += self._products(rng)
        return reqs

    def _products(self, rng: np.random.Generator) -> list:
        """chsc:n=2 x random:n=4, and quadric:n=3 x flat x randomke:n=3
        (only chsc:n=1 x random:n=2 at tiny size).  The dimensions are
        fixed, so that the seed changes the spaces but not the work."""
        a, b = (1, 2) if self.tiny else (2, 4)
        c = float(rng.uniform(0.5, 2.0))
        s1, s2 = (int(x) for x in rng.integers(1, 10 ** 6, size=2))
        spaces = [(f"product:[chsc:n={a},c={c!r};random:n={b},seed={s1}]",
                   ms.SpaceDescriptor("product", factors=(
                       ms.SpaceDescriptor("chsc", n=a, c=c),
                       ms.SpaceDescriptor("random", n=b, seed=s1))))]
        if not self.tiny:
            a, b = 3, 3
            spaces.append((f"product:[quadric:n={a};flat:k=1;randomke:n={b},seed={s2}]",
                           ms.SpaceDescriptor("product", factors=(
                               ms.SpaceDescriptor("quadric", n=a),
                               ms.SpaceDescriptor("flat", n=1),
                               ms.SpaceDescriptor("random_ke", n=b, seed=s2)))))
        return [([cmd, "--space", text], ("calabi", desc))
                for text, desc in spaces for cmd in ("certify", "spectrum")]

    def reference(self, reqs: list) -> None:
        """Expected spectra from np.linalg.eigvalsh, computed once per run."""
        self._expected = {}
        for _, recipe in reqs:
            kind, obj = recipe
            key = (kind, id(obj))
            if key in self._expected:
                continue
            if kind == "matrix":
                mat = obj
            else:
                t = ms.build(obj)
                if kind == "calabi":
                    mat = cv.calabi_from_tensor(t).matrix
                else:
                    mat = cv.restrict_su(cv.kaehler_operator(t), cv.ricci(t)).matrix
            self._expected[key] = np.linalg.eigvalsh(mat)

    def run_op(self, req: tuple) -> list[tuple[bool, float | None, float | None]]:
        argv, recipe = req
        rc, env = _call_cli(argv)
        if rc != 0 or env is None or validate_report(env):
            return [(False, None, None)]
        got = np.sort(np.asarray(env["records"][0]["values"]["eigenvalues"], dtype=float))
        want = self._expected[(recipe[0], id(recipe[1]))]
        if got.shape != want.shape:
            return [(False, None, None)]
        resid = float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)
        return [(resid <= TOL_AGREE, resid, TOL_AGREE)]


WORKLOADS = {w.name: w for w in (VerifyScaling, AcceptanceLoops, CertifySweep)}


def headroom(residual: float | None, tolerance: float | None) -> float | None:
    """log10(tolerance / residual) in decades, capped at 16 for a zero residual."""
    if residual is None or tolerance is None:
        return None
    if residual <= 0.0:
        return 16.0
    return min(16.0, math.log10(tolerance / residual))
