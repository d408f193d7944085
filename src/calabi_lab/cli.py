"""Command-line front end.

Subcommands:

* ``verify``      -- run the full identity suite (exit 0 iff every check passes)
* ``spectrum``    -- eigenvalues and the k-positivity ladder of a model space
* ``thresholds``  -- the Upsilon / Gamma threshold table for a given n
* ``certify``     -- per-bidegree vanishing certificates for a model space

Spaces are described by a small grammar::

    chsc:n=3,c=1        constant holomorphic sectional curvature c
    quadric:n=4         the rank-2 symmetric quadric (c=-1 gives the dual)
    flat:k=2            flat factor of complex dimension k
    random:n=3,seed=9   seeded random Kaehler tensor
    randomke:n=3,seed=9 seeded random Kaehler--Einstein tensor
    product:[A;B;...]   product of the bracketed factor descriptors
    file:PATH           json input (see schemas/input.schema.json)

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or config error,
or a numerical failure (any ``CalabiLabError``).  A complex dimension above
``MAX_N`` (``MAX_VERIFY_N`` for ``verify``) is a config error, refused before
any work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from . import certify as ct
from . import curvature as cv
from . import model_spaces as ms
from .checks import run_verify_suite, stress_probe
from .errors import CalabiLabError
from .frames import FrameConvention
from .report import make_envelope, record, to_csv, to_json, to_table, validate_report, verdict
from .spectral import HERMITIAN_TOL, Spectrum, eigensystem, partial_sums, sorted_eigenvalues

USAGE_ERROR = 2

# Largest complex dimension accepted.  At n = 16 the dense real curvature
# tensor (2n)^4 is 8.4 MB and one eigh solve of the 136 x 136 Calabi matrix
# takes 7 ms.  certify --mode calabi, which builds no tensor for a model
# space, takes 14 ms at 34 MB peak RSS for the quadric, 31 ms at 40 MB for
# random and 35 ms at 42 MB for randomke; --mode ke, which builds the tensor
# once for its Einstein test, takes 73 ms at 62 MB for the quadric and 117 ms
# at 70 MB for randomke (one process per request, 2-vCPU VM).
# At n = 24 the tensor is 42 MB and the solve 33 ms, but building a random
# tensor peaked at 613 MB.
MAX_N = 16
# Largest n for verify, whose (n,0) Einstein check works on Lambda^n of R^2n
# whatever --max-degree is: C(20, 10) = 184756 coordinates at n = 10, where
# verify at full degree takes 45-50 s and 858 MiB peak RSS at --trials 2
# (n = 9: about 9 s and 371 MiB; 2-vCPU VM).  The norm-identity check sets
# that peak, on top of the cached tables; n = 11 has 3.8 times the
# coordinates.
MAX_VERIFY_N = 10


class SizeLimitError(CalabiLabError, ValueError):
    pass


def _require_size(n: int, limit: int = MAX_N) -> None:
    if n > limit:
        raise SizeLimitError(f"complex dimension n={n} is above the limit {limit}")


class SpaceParseError(CalabiLabError, ValueError):
    def __init__(self, text: str, pos: int, message: str):
        self.pos = pos
        super().__init__(f"cannot parse space descriptor at position {pos}: {message} "
                         f"(in {text!r})")


# space kind -> (descriptor variant, the parameters it reads); k is another name for n
_KINDS = {"chsc": ("chsc", ("n", "c")), "quadric": ("quadric", ("n", "c")),
          "flat": ("flat", ("n",)), "random": ("random", ("n", "seed")),
          "randomke": ("random_ke", ("n", "seed"))}


def parse_space(text: str) -> ms.SpaceDescriptor | dict:
    """Parse the --space grammar; file: inputs return the loaded json payload.
    Errors quote the whole descriptor and give positions in it."""
    return _parse_space(text, text, 0)


def _parse_space(whole: str, text: str, offset: int) -> ms.SpaceDescriptor | dict:
    """Parse ``text``, the part of the descriptor ``whole`` that starts at ``offset``."""
    offset += len(text) - len(text.lstrip())
    text = text.strip()
    if not text:
        raise SpaceParseError(whole, offset, "empty descriptor")
    head, sep, rest = text.partition(":")
    at = offset + len(head) + 1  # where rest begins
    head = head.strip().lower()
    if head == "file":
        if not rest:
            raise SpaceParseError(whole, at - 1, "file: needs a path")
        return _load_input_file(rest.strip())
    if head == "product":
        body = rest.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise SpaceParseError(whole, at,
                                  "product factors must be bracketed, e.g. product:[chsc:n=1;flat:k=1]")
        inner = body[1:-1]
        at += len(rest) - len(rest.lstrip()) + 1  # where inner begins
        factors = []
        depth = 0
        start = 0
        for i, ch in enumerate(inner):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ";" and depth == 0:
                factors.append(_parse_space(whole, inner[start:i], at + start))
                start = i + 1
        factors.append(_parse_space(whole, inner[start:], at + start))
        if any(isinstance(f, dict) for f in factors):
            raise SpaceParseError(whole, offset, "file: descriptors cannot be product factors")
        desc = ms.SpaceDescriptor("product", factors=tuple(factors))
        _require_size(desc.complex_dim)
        return desc

    if head not in _KINDS:
        raise SpaceParseError(whole, offset, f"unknown space kind {head!r}")
    variant, reads = _KINDS[head]
    params: dict[str, float] = {}
    for chunk in rest.split(","):
        where, at = at, at + len(chunk) + 1
        if not chunk.strip():
            continue
        key, eq, val = chunk.partition("=")
        if not eq:
            raise SpaceParseError(whole, where, f"expected key=value, got {chunk!r}")
        key = key.strip()
        name = "n" if key == "k" else key
        if name not in reads:
            raise SpaceParseError(whole, where, f"{head} takes no parameter {key!r}")
        if name in params:
            raise SpaceParseError(whole, where, f"{key} sets {name} a second time")
        try:
            params[name] = float(val)
        except ValueError:
            raise SpaceParseError(whole, where, f"non-numeric value in {chunk!r}") from None
        if name in ("n", "seed") and not (params[name].is_integer() and params[name] >= 0):
            raise SpaceParseError(whole, where,
                                  f"{key} must be a whole number >= 0, got {val.strip()!r}")
        if name == "c" and not math.isfinite(params[name]):
            raise SpaceParseError(whole, where, f"c must be a finite number, got {val.strip()!r}")
    desc = ms.SpaceDescriptor(variant, n=int(params.get("n", 0)), c=params.get("c", 1.0),
                              seed=int(params.get("seed", 0)))
    desc.validate()
    _require_size(desc.n)
    return desc


def _load_input_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"input file must hold a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("calabi", "components"):
        raise ValueError(f"input file kind must be 'calabi' or 'components', got {kind!r}")
    if type(data.get("n")) is not int or data["n"] < 1:
        raise ValueError("input file needs an integer n >= 1")
    _require_size(data["n"])
    key = "hermitian" if kind == "calabi" else "entries"
    if not isinstance(data.get(key), list):
        raise ValueError(f"input file of kind {kind!r} needs a list {key!r}, "
                         f"got {data.get(key)!r}")
    return data


def _numbers(row, size: int, what: str) -> list[float]:
    """The entry ``row`` as ``size`` floats, or ValueError naming it."""
    if isinstance(row, list) and len(row) == size and all(type(x) in (int, float) for x in row):
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            return [float(x) for x in row]
    raise ValueError(f"{what} must be a list of {size} numbers, got {row!r}")


def _tensor_from_input(data: dict) -> cv.AlgebraicCurvatureTensor:
    n = data["n"]
    conv = FrameConvention(n)
    if data["kind"] == "calabi":
        return cv.tensor_from_calabi(_calabi_matrix_from_input(data), conv)
    d = 2 * n
    r = np.zeros((d,) * 4)
    setter: dict[tuple[int, ...], int] = {}  # component -> the entry that last set it
    for pos, row in enumerate(data["entries"]):
        *idx, val = _numbers(row, 5, f"component entry {pos}")
        if not all(x.is_integer() and 1 <= x <= d for x in idx):
            raise ValueError(f"component indices of entry {pos} must be whole numbers "
                             f"in 1..{d}, got {row!r}")
        i, j, k, l = (int(x) - 1 for x in idx)
        if val != 0 and (i == j or k == l):
            pair = "first pair (i = j)" if i == j else "second pair (k = l)"
            raise ValueError(f"component entry {pos} sets R{tuple(int(x) for x in idx)} to "
                             f"{val!r}, but R is antisymmetric in its {pair}, so that "
                             f"component must be 0")
        for (a, b, sa) in ((i, j, 1.0), (j, i, -1.0)):
            for (cc, e, sc) in ((k, l, 1.0), (l, k, -1.0)):
                value = sa * sc * val
                for comp in ((a, b, cc, e), (cc, e, a, b)):
                    prev = setter.setdefault(comp, pos)
                    if prev != pos and r[comp] != value:
                        at = tuple(x + 1 for x in comp)
                        raise ValueError(f"component entries {prev} and {pos} set R{at} to "
                                         f"{float(r[comp])!r} and {value!r}, through the pair symmetries")
                    setter[comp], r[comp] = pos, value
    return cv.validate_tensor(r, conv)


def _calabi_matrix_from_input(data: dict) -> np.ndarray:
    """The Hermitian matrix of a calabi payload, whose entries list the upper
    triangle row by row as [re, im]; ValueError names the first bad entry."""
    n = data["n"]
    m = n * (n + 1) // 2
    tri = data["hermitian"]
    if len(tri) != m * (m + 1) // 2:
        raise ValueError(
            f"hermitian upper triangle for n={n} needs {m * (m + 1) // 2} entries, got {len(tri)}")
    rows, cols = np.triu_indices(m)

    def name(pos) -> str:
        return f"hermitian entry {pos} ([re, im] of ({rows[pos] + 1}, {cols[pos] + 1}))"

    parts = None
    if all(isinstance(e, list) and len(e) == 2 and type(e[0]) in (int, float)
           and type(e[1]) in (int, float) for e in tri):
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            parts = np.array(tri, dtype=float)
    if parts is None:
        for pos, entry in enumerate(tri):
            _numbers(entry, 2, name(pos))
    z = parts.view(complex)[:, 0]
    # the one Hermitian test (see spectral.require_hermitian): off the diagonal
    # the lower triangle is the conjugate, so only diagonal imaginary parts
    # can fail it (non-finite entries pass here and are refused there)
    on_diag = np.flatnonzero(rows == cols)
    peak = np.max(np.abs(z))
    bad = on_diag[2.0 * np.abs(z[on_diag].imag) > HERMITIAN_TOL * peak]
    if len(bad):
        raise ValueError(f"{name(bad[0])} is on the diagonal, so it must be real, "
                         f"got {tri[bad[0]]!r}")
    h = np.zeros((m, m), dtype=complex)
    h[rows, cols] = z
    h[cols, rows] = z.conj()
    return h


def _space_to_spectrum(space) -> tuple[int, Spectrum, str]:
    """Calabi spectrum of a space descriptor or file payload, solved from the
    Calabi matrix; only tensor components build a tensor."""
    if isinstance(space, dict):
        n = space["n"]
        if space["kind"] == "calabi":
            spec = eigensystem(_calabi_matrix_from_input(space), source="calabi")
            return n, spec, "file:calabi"
        t = _tensor_from_input(space)
        return n, cv.calabi_from_tensor(t).spectrum(), "file:components"
    spec = eigensystem(ms.calabi_matrix(space), source="calabi")
    return space.complex_dim, spec, space.variant


def _require_su(n: int) -> None:
    if n < 2:
        raise SizeLimitError(f"--mode ke needs complex dimension n >= 2, got n={n}: "
                             f"su({n}) is zero-dimensional, so there is no spectrum to test")


def _space_to_kaehler_su(space) -> tuple[int, Spectrum, str]:
    """Spectrum of the Kaehler operator on su(n) of a space descriptor or file
    payload.  A descriptor's operator is assembled from the Calabi block of
    its Calabi matrix, and only its Einstein test builds the real tensor."""
    if isinstance(space, dict):
        t = _tensor_from_input(space)
        n, label = t.n, f"file:{space['kind']}"
        _require_su(n)
        k_op, ric = cv.kaehler_operator(t), cv.ricci(t)
    else:
        n, label = space.complex_dim, space.variant
        _require_su(n)
        h = ms.calabi_matrix(space)
        k_op, ric = cv.kaehler_from_block(cv.calabi_block(h, n)), ms.einstein_ricci(space, h)
    return n, cv.restrict_su(k_op, ric).spectrum(), label


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> dict:
    _require_size(args.n, MAX_VERIFY_N)
    max_degree = args.n if args.max_degree is None else args.max_degree
    bug = cv.inject_sign_bug() if args.inject_sign_bug else contextlib.nullcontext()
    with bug:
        records = run_verify_suite(args.n, args.trials, args.seed, max_degree=max_degree)
        if args.stress:
            records.append(stress_probe(args.n, args.seed, max_degree=max_degree))
    for r in records:
        if r["tolerance"] is not None:
            r["tolerance"] *= args.tol_scale
            r["status"] = verdict(r["residual"], r["tolerance"])
    config = {"n": args.n, "trials": args.trials, "seed": args.seed,
              "max_degree": max_degree, "tol_scale": args.tol_scale,
              "stress": bool(args.stress),
              "inject_sign_bug": bool(args.inject_sign_bug)}
    return make_envelope("verify", config, records)


def cmd_spectrum(args) -> dict:
    space = parse_space(args.space)
    n, spec, label = _space_to_spectrum(space)
    records = [record("eigenvalues", "calabi-spectrum",
                      {"space": label, "n": n, "eigenvalues": spec.eigenvalues.tolist()})]
    # the order is checked once; each rung is a bare partial sum (the
    # ladder's k lie in [1, m])
    plan = ct.plan("calabi", n)
    totals = partial_sums(sorted_eigenvalues(spec), plan.ladder)
    for k, name, total in zip(plan.ladder, plan.ladder_names, totals):
        records.append(record(name, "fractional-partial-sum-test",
                              {"k": k, "partial_sum": total,
                               "nonneg": total >= 0.0, "positive": total > 0.0}))
    return make_envelope("spectrum", {"space": args.space}, records)


def _require_bidegree_filter(args, n: int) -> None:
    """Refuse a --p or --q that no bidegree at complex dimension n has."""
    for flag, value in (("--p", args.p), ("--q", args.q)):
        if value is not None and not 0 <= value <= n:
            raise ValueError(f"{flag} must be in 0..{n}, got {value}")


def _keep(args, p: int, q: int) -> bool:
    return (args.p is None or p == args.p) and (args.q is None or q == args.q)


def cmd_thresholds(args) -> dict:
    _require_size(args.n)
    _require_bidegree_filter(args, args.n)
    tb = ct.thresholds(args.n)
    records = []
    for (p, q) in sorted(tb.upsilons):
        if not _keep(args, p, q):
            continue
        records.append(record(f"threshold[{p},{q}]", "vanishing-thresholds",
                              {"p": p, "q": q, "upsilon": tb.upsilons[(p, q)],
                               "upsilon_exact": tb.upsilons_exact[(p, q)],
                               "gamma": tb.gammas[(p, q)]}))
    records.append(record("upsilon_min", "threshold-lower-bound",
                          {"claim": "upsilon >= n/2 for 1 <= p+q <= n"},
                          "pass" if ct.upsilon_min_holds(args.n) else "fail"))
    return make_envelope("thresholds", {"n": args.n, "p": args.p, "q": args.q}, records)


def cmd_certify(args) -> dict:
    space = parse_space(args.space)
    eps = ct.STRICTNESS_EPS if args.eps is None else float(args.eps)
    if args.mode == "calabi":
        n, spec, label = _space_to_spectrum(space)
        cert = ct.certify_calabi(spec, n, eps=eps)
    else:
        n, spec, label = _space_to_kaehler_su(space)
        cert = ct.certify_ke(spec, n, eps=eps)
    _require_bidegree_filter(args, n)
    records = [record("summary", "vanishing-certificate-summary",
                      {"space": label, "mode": cert.mode, "n": cert.n,
                       "summary_certified": cert.summary_certified,
                       "eigenvalues": list(cert.eigenvalues), "notes": cert.notes})]
    for (p, q), name in ct.plan(cert.mode, n).records:
        if not _keep(args, p, q):
            continue
        v = cert.verdicts[(p, q)]
        records.append(record(name, "per-bidegree-verdict",
                              {"p": p, "q": q, "status": v.status, "k": v.k,
                               "partial_sum": v.partial_sum, "provenance": v.provenance}))
    return make_envelope("certify", {"space": args.space, "mode": args.mode,
                                     "p": args.p, "q": args.q, "eps": eps}, records)


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _bounded(kind, domain: str, admits):
    """argparse type ``kind(text)``, refused unless ``admits`` accepts it;
    ``domain`` names the accepted values in the message."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not admits(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
        return value
    return parse


_COUNT = _bounded(int, "an integer >= 1", lambda v: v >= 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="calabi-lab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"calabi-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    pv = sub.add_parser("verify", help="run the identity suite")
    pv.add_argument("--n", type=_bounded(int, "an integer >= 2 (su(1) is zero-dimensional)",
                                         lambda v: v >= 2), default=3)
    pv.add_argument("--trials", type=_COUNT, default=50)
    pv.add_argument("--seed", type=_bounded(int, "an integer >= 0", lambda v: v >= 0), default=0)
    pv.add_argument("--max-degree", type=_COUNT, default=None, dest="max_degree",
                    help="highest form degree p+q checked (default n)")
    pv.add_argument("--tol-scale", dest="tol_scale", default=1.0,
                    type=_bounded(float, "a finite number > 0", lambda v: 0 < v < np.inf),
                    help="multiply every check tolerance by this factor")
    pv.add_argument("--stress", action="store_true",
                    help="append the estimate-tightness probe (exact maximum over S "
                         "for 16 random primitive forms per bidegree)")
    pv.add_argument("--inject-sign-bug", action="store_true", help=argparse.SUPPRESS)
    common(pv)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("spectrum", help="Calabi spectrum and k-positivity ladder")
    ps.add_argument("--space", required=True)
    common(ps)
    ps.set_defaults(fn=cmd_spectrum)

    pt = sub.add_parser("thresholds", help="Upsilon/Gamma threshold table")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--p", type=int, default=None, help="restrict to one p")
    pt.add_argument("--q", type=int, default=None, help="restrict to one q")
    common(pt)
    pt.set_defaults(fn=cmd_thresholds)

    pc = sub.add_parser("certify", help="vanishing certificates")
    pc.add_argument("--space", required=True)
    pc.add_argument("--mode", choices=("calabi", "ke"), default="calabi")
    pc.add_argument("--p", type=int, default=None, help="restrict verdicts to one p")
    pc.add_argument("--q", type=int, default=None, help="restrict verdicts to one q")
    pc.add_argument("--eps", default=None,
                    type=_bounded(float, "a finite number >= 0", lambda v: 0 <= v < np.inf),
                    help="strictness margin relative to the spectral radius")
    common(pc)
    pc.set_defaults(fn=cmd_certify)
    return parser


# main's parser, built on first use and shared by every later call in the
# process (argparse keeps no state between parse_args calls).  build_parser
# stays uncached: each call returns a parser of its own.
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        env = args.fn(args)
    except (CalabiLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    problems = validate_report(env)
    if problems:
        print(f"internal error: report failed schema validation: {problems}", file=sys.stderr)
        return USAGE_ERROR

    if args.format == "json":
        text = to_json(env)
    elif args.format == "csv":
        text = to_csv(env)
    else:
        text = to_table(env)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if env["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
