"""Command-line orchestration: padic-dispersion <command> [flags].

Commands
    newton      facets, beta_f, T0, quasi-homogeneity, mod-p verdict
    expsum      |E(p^-m, f)| table, histogram, decay fit, stationary certificate
    surface     FT decay table, restriction ratios, zeta-kernel check
    solve       u samples and a windowed-spectrum grid
    strichartz  truncated L^sigma norm / ratio series

expsum and surface evaluate each level's sum once; the table, the decay fit
and the certificate all read that one table of values, and both evaluate
their levels together, expanding each node of the stationary-phase recursion once.

Each command takes only the flags its runner reads (`_COMMANDS`); argparse
refuses any other.  Exact rationals are serialised as "num/den" strings,
complex values as [re, im] doubles.  Output bytes are identical across runs.
--threads is accepted for compatibility and has no effect: every command runs
on one thread.

Exit codes: 0 ok, 2 validation, 3 resource cap, 4 certificate unavailable.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    CertificateIndeterminate,
    CertificateUnavailableError,
    DomainError,
    PolynomialSyntaxError,
    ResourceCapError,
)
from .expsums import (
    DEFAULT_ENUMERATION_CAP,
    decay_fit,
    evaluate,
    exp_sum,
    residue_histogram,
    stationary_certificate,
)
from .newton import (
    DEFAULT_FACE_SCAN_CAP,
    beta_and_t0,
    newton_facets,
    nondegeneracy_mod_p,
    quasi_homogeneous_detect,
)
from .padic import Ball, check_prime
from .polynomials import parse_polynomial
from .schwartz import SchwartzBruhatFn, l2_norm
from .surface import (
    GraphHypersurface,
    decay_table,
    ray_values,
    restriction_ratio,
    zeta_kernel,
    zeta_kernel_numeric,
)
from .wave import SolutionSpec, solve_u, strichartz_report, windowed_spectrum

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_CERTIFICATE = 4

# the most residues `expsum` prints in the histogram at the first level of --m
HISTOGRAM_LIMIT = 10**6


@dataclass(frozen=True)
class JobConfig:
    """Validated command parameters; round-trips through emitted JSON."""

    command: str
    prime: int
    poly: str | None = None
    phi: str | None = None
    f0: str | None = None
    ball: str | None = None
    m_range: tuple[int, int] | None = None
    k_range: tuple[int, int] | None = None
    rmax: int | None = None
    sigma: float | None = None
    rho: float | None = None
    seed: int | None = None
    cap: int = DEFAULT_ENUMERATION_CAP
    format: str = "json"
    out: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)  # json writes the range tuples as lists


def frac_str(x: Fraction | int, always_den: bool = False) -> str:
    x = Fraction(x)
    if always_den or x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(x.numerator)


def _cx(z: complex) -> list[float]:
    return [z.real, z.imag]


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise DomainError(f"bad rational {text!r}: {ex}") from ex


def parse_ball_list(text: str, prime: int) -> list[tuple[Ball, complex]]:
    """';'-separated terms `[coeff *] ball <center rationals> <radius-exp>`."""
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff = 1 + 0j
        if "*" in chunk.split("ball")[0]:
            coeff_text, chunk = chunk.split("*", 1)
            coeff_text = coeff_text.strip()
            try:
                coeff = complex(coeff_text)
            except ValueError as ex:
                raise DomainError(f"bad coefficient {coeff_text!r}") from ex
            if not cmath.isfinite(coeff):
                raise DomainError(f"coefficient {coeff_text!r} is not finite")
            chunk = chunk.strip()
        parts = chunk.split()
        if not parts or parts[0] != "ball" or len(parts) < 3:
            raise DomainError(
                f"expected 'ball <center components> <radius-exp>', got {chunk!r}"
            )
        try:
            radius_exp = int(parts[-1])
        except ValueError as ex:
            raise DomainError(f"bad radius exponent {parts[-1]!r}") from ex
        center = [parse_rational(tok) for tok in parts[1:-1]]
        terms.append((Ball.of(prime, center, radius_exp), coeff))
    if not terms:
        raise DomainError("empty ball list")
    return terms


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as ex:
        raise DomainError(f"bad range {text!r}; expected A..B") from ex
    if hi < lo:
        raise DomainError(f"empty range {text!r}")
    return lo, hi


# -- command runners -----------------------------------------------------------


def _run_newton(cfg: JobConfig) -> dict:
    f = parse_polynomial(cfg.poly)
    P = newton_facets(f)
    beta, t0 = beta_and_t0(P)
    witness = quasi_homogeneous_detect(P)
    verdict = nondegeneracy_mod_p(f, P, cfg.prime, cap=min(cfg.cap, DEFAULT_FACE_SCAN_CAP))
    return {
        "polynomial": str(f),
        "facets": [
            {
                "normal": list(fc.normal),
                "support_value": fc.support_value,
                "weight": fc.weight,
                "vertices": [list(v) for v in fc.vertices],
            }
            for fc in P.facets
        ],
        "beta": frac_str(beta, always_den=True),
        "t0": [frac_str(c) for c in t0],
        "quasi_homogeneous": (
            {"alpha": list(witness.alpha), "degree": witness.degree}
            if witness
            else None
        ),
        "mod_p_verdict": verdict,
    }


def _default_ball(cfg: JobConfig, dim: int) -> Ball:
    if cfg.ball:
        terms = parse_ball_list(cfg.ball, cfg.prime)
        if len(terms) != 1:
            raise DomainError("the integration domain must be a single ball")
        ball, coeff = terms[0]
        if coeff != 1:
            raise DomainError(f"the integration domain takes no coefficient, got {coeff}")
        if ball.dim != dim:
            raise DomainError(
                f"ball dimension {ball.dim} does not match the polynomial ({dim})"
            )
        return ball
    return Ball.of(cfg.prime, (0,) * dim, 0)


def _run_expsum(cfg: JobConfig) -> dict:
    f = parse_polynomial(cfg.poly)
    lo, hi = cfg.m_range
    ball = _default_ball(cfg, f.nvars)
    p = cfg.prime
    sums = {m: exp_sum(f, Fraction(1, p**m), ball, cap=cfg.cap) for m in range(lo, hi + 1)}
    evaluate(sums.values())  # one recursion memo serves every level
    values = {m: res.value for m, res in sums.items()}
    table = [{"m": m, "value": _cx(v), "abs": abs(v)} for m, v in values.items()]
    fit = decay_fit(f, ball, {m: v for m, v in values.items() if m >= 2})
    hist_level = lo
    histogram = None
    if ball.is_integral():
        counts = residue_histogram(f, hist_level, ball, cap=cfg.cap)
        if len(counts) > HISTOGRAM_LIMIT:
            what = f"histogram residues at level {hist_level} (a lower start of --m prints fewer)"
            raise ResourceCapError(len(counts), HISTOGRAM_LIMIT, what)
        histogram = {str(c): n for c, n in sorted(counts.items())}
    certificate: dict
    try:
        cert = stationary_certificate(f, ball, values)
        certificate = {
            "status": "ok",
            "I": cert.bound_exponent,
            "threshold": cert.threshold,
            "verified_levels": list(cert.verified_levels),
            "max_abs": cert.max_abs,
        }
    except CertificateUnavailableError as ex:
        certificate = {"status": "unavailable", "reason": str(ex)}
    except CertificateIndeterminate as ex:
        certificate = {"status": "indeterminate", "reason": str(ex)}
    except DomainError as ex:
        certificate = {"status": "not-applicable", "reason": str(ex)}
    return {
        "polynomial": str(f),
        "table": table,
        "histogram_level": hist_level,
        "histogram": histogram,
        "decay_fit": _fit_dict(fit),
        "certificate": certificate,
    }


def _fit_dict(fit) -> dict:
    return {
        "samples": [[m, a] for m, a in fit.samples],
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "status": fit.status,
        "beta": frac_str(fit.beta) if fit.beta is not None else None,
        "quasi_homogeneous": fit.quasi_homogeneous,
        "consistent": fit.consistent,
    }


def _run_surface(cfg: JobConfig) -> dict:
    if (cfg.rho is None) != (cfg.seed is None):
        raise DomainError("--rho and --seed go together (seeded random test functions)")
    phi = parse_polynomial(cfg.phi)
    n = phi.nvars + 1
    window = Ball.of(cfg.prime, (0,) * n, 0)
    Y = GraphHypersurface(phi, window)
    lo, hi = cfg.k_range if cfg.k_range else (1, 6)
    direction = (0,) * (n - 1) + (1,)
    values = ray_values(Y, direction, range(lo, hi + 1), cap=cfg.cap)
    dt = decay_table(Y, values)
    out = {
        "phi": str(phi),
        "direction": [str(c) for c in direction],
        "critical_status": Y.critical_status,
        "ft_samples": [{"k": k, "value": _cx(v)} for k, v in values.items()],
        "decay": {
            "rows": [[k, a] for k, a in dt.rows],
            "slope": dt.slope,
            "expected": frac_str(dt.expected) if dt.expected is not None else None,
            "degree_bound": dt.degree_bound,
            "reciprocal_bound": frac_str(dt.reciprocal_bound),
            "consistent": dt.consistent,
        },
        "zeta_check": _zeta_check(cfg.prime),
    }
    if cfg.rho is not None:
        rng = random.Random(cfg.seed)
        ratios = []
        for _ in range(10):
            g = _random_sb(rng, cfg.prime, n)
            ratios.append(restriction_ratio(g, Y, cfg.rho, cap=cfg.cap))
        out["restriction"] = {
            "rho": cfg.rho,
            "seed": cfg.seed,
            "ratios": ratios,
            "sup": max(ratios),
        }
    return out


def _zeta_check(p: int) -> dict:
    e0 = 1
    z = np.array([complex(0.1 * i, 0.3 * math.sin(i)) for i in range(1, 21)])
    xs = [Fraction(1, p), Fraction(1), Fraction(p), Fraction(p * p)]
    closed = np.array([zeta_kernel(z, xn, e0, p) for xn in xs])
    worst = float(np.abs(closed - zeta_kernel_numeric(z, xs, e0, p)).max())
    return {"e0": e0, "grid_points": len(z), "max_diff": worst}


def _random_sb(rng: random.Random, p: int, n: int) -> SchwartzBruhatFn:
    """Seeded Schwartz-Bruhat test function: up to 4 disjoint balls."""
    terms: list[tuple[Ball, complex]] = []
    for _ in range(rng.randint(1, 4)):
        e = rng.randint(-2, 2)
        center = tuple(
            Fraction(rng.randint(-p * p, p * p), p ** rng.randint(0, 1))
            for _ in range(n)
        )
        ball = Ball.of(p, center, e)
        if any(not ball.is_disjoint(b) for b, _ in terms):
            continue
        coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        terms.append((ball, coeff))
    if not terms:
        terms.append((Ball.of(p, (0,) * n, 0), 1 + 0j))
    return SchwartzBruhatFn.of(p, terms)


def _solution_spec(cfg: JobConfig) -> SolutionSpec:
    """The spec of --phi and --f0, parsed in that order."""
    phi = parse_polynomial(cfg.phi)
    f0 = SchwartzBruhatFn.of(cfg.prime, parse_ball_list(cfg.f0, cfg.prime))
    return SolutionSpec.build(f0, phi)


def _run_solve(cfg: JobConfig) -> dict:
    spec = _solution_spec(cfg)
    p = cfg.prime
    lo, hi = cfg.m_range if cfg.m_range else (1, 3)
    xs = [Fraction(j) for j in range(p)] + [Fraction(1, p)]
    ts = [Fraction(0)] + [Fraction(1, p**m) for m in range(lo, hi + 1)]
    samples = []
    for t in ts:
        for x in xs:
            u = solve_u(spec, (x,) + (Fraction(0),) * (spec.n - 1), t, cap=cfg.cap)
            samples.append(
                {"x": str(x), "t": str(t), "value": _cx(u), "abs": abs(u)}
            )
    R = cfg.rmax if cfg.rmax is not None else 1
    grid = []
    xi_vals = [Fraction(j) for j in range(3)] + [Fraction(1, p), Fraction(2, p)]
    # |tau| = p with p coprime numerator: off the graph of any integral symbol
    units = [j for j in range(1, 6 * p) if j % p][:5]
    tau_vals = [Fraction(j, p) for j in units]
    for xi in xi_vals:
        for tau in tau_vals:
            W = windowed_spectrum(
                spec, (xi,) + (Fraction(0),) * (spec.n - 1), tau, R, cap=cfg.cap
            )
            grid.append({"xi": str(xi), "tau": str(tau), "abs": abs(W)})
    return {
        "phi": str(spec.phi),
        "freq_bound": spec.freq_bound,
        "phase_bound": spec.phase_bound,
        "u_samples": samples,
        "window_R": R,
        "windowed_spectrum": grid,
    }


def _run_strichartz(cfg: JobConfig) -> dict:
    spec = _solution_spec(cfg)
    R_max = cfg.rmax if cfg.rmax is not None else 4
    report = strichartz_report(spec, cfg.sigma, R_max, cap=cfg.cap)
    return {
        "phi": str(spec.phi),
        "sigma": cfg.sigma,
        "l2_f0": l2_norm(spec.f0),
        "rows": [
            {"R": R, "norm": norm, "ratio": ratio}
            for R, norm, ratio in report.rows
        ],
        "increments": list(report.increments),
        "converged": report.converged,
        "diverged": report.diverged,
        "constant": report.constant,
    }


# Each command's runner, the flags it requires and the flags it may also take.
# Every command takes --prime (required), --cap, --threads, --format and --out
# besides; a flag a command does not read is refused by argparse (exit 2).
_COMMANDS = {
    "newton": (_run_newton, ("poly",), ()),
    "expsum": (_run_expsum, ("poly", "m"), ("ball",)),
    "surface": (_run_surface, ("phi",), ("k", "rho", "seed")),
    "solve": (_run_solve, ("phi", "f0"), ("m", "rmax")),
    "strichartz": (_run_strichartz, ("phi", "f0", "sigma"), ("rmax",)),
}
_FLAG_ARGS = {
    "m": {"metavar": "A..B"},
    "k": {"metavar": "A..B"},
    "rmax": {"type": int},
    "sigma": {"type": float},
    "rho": {"type": float},
    "seed": {"type": int},
}
# each level l stands for p^-l; the decay fit needs l >= 1
_LOWEST = {"expsum": ("m", 1), "surface": ("k", 0), "solve": ("m", 0)}


# -- emission -------------------------------------------------------------------


def emit(cfg: JobConfig, results: dict) -> bytes:
    if cfg.format == "json":
        doc = {"config": cfg.to_dict(), "results": results}
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    _write_csv(writer, cfg.command, results)
    return buf.getvalue().encode()


def _write_csv(writer, command: str, results: dict) -> None:
    if command == "newton":
        writer.writerow(["field", "value"])
        writer.writerow(["beta", results["beta"]])
        writer.writerow(["t0", " ".join(results["t0"])])
        qh = results["quasi_homogeneous"]
        writer.writerow(
            ["quasi_homogeneous", "" if qh is None else f"{qh['alpha']}:{qh['degree']}"]
        )
        writer.writerow(["mod_p_verdict", results["mod_p_verdict"]])
        for fc in results["facets"]:
            writer.writerow(
                [
                    "facet",
                    f"a={' '.join(map(str, fc['normal']))},m={fc['support_value']},sigma={fc['weight']}",
                ]
            )
    elif command == "expsum":
        writer.writerow(["m", "abs_value", "fitted_slope"])
        slope = results["decay_fit"]["slope"]
        for row in results["table"]:
            writer.writerow([row["m"], repr(row["abs"]), "" if slope is None else repr(slope)])
    elif command == "surface":
        writer.writerow(["k", "abs_value", "fitted_slope"])
        slope = results["decay"]["slope"]
        for k, a in results["decay"]["rows"]:
            writer.writerow([k, repr(a), "" if slope is None else repr(slope)])
    elif command == "solve":
        writer.writerow(["x", "t", "re", "im"])
        for s in results["u_samples"]:
            writer.writerow([s["x"], s["t"], repr(s["value"][0]), repr(s["value"][1])])
    elif command == "strichartz":
        writer.writerow(["R", "norm", "ratio"])
        for row in results["rows"]:
            writer.writerow([row["R"], repr(row["norm"]), repr(row["ratio"])])


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-dispersion",
        description="Exact p-adic oscillatory-integral pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, required, optional) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--prime", type=int, required=True)
        for flag in required + optional:
            cmd.add_argument(f"--{flag}", **_FLAG_ARGS.get(flag, {}))
        cmd.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
        cmd.add_argument("--threads", type=int, default=1)
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--out", type=str, default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> tuple[JobConfig, int]:
    """The validated config and the requested thread count, which `run`
    accepts and ignores; a count below 1 is still a validation error."""
    if args.threads < 1:
        raise DomainError("threads must be >= 1")
    check_prime(args.prime)
    if args.cap < 1:
        raise DomainError("--cap must be positive")
    _, required, optional = _COMMANDS[args.command]
    given = {flag: getattr(args, flag) for flag in required + optional}
    for flag in ("m", "k"):
        if given.get(flag) is not None:
            given[flag] = _parse_range(given[flag])
    _validate(args.command, given)
    ranges = {"m_range": given.pop("m", None), "k_range": given.pop("k", None)}
    cfg = JobConfig(command=args.command, prime=args.prime, cap=args.cap,
                    format=args.format, out=args.out, **ranges, **given)
    return cfg, args.threads


def _validate(command: str, given: dict) -> None:
    for flag in _COMMANDS[command][1]:
        if given[flag] is None:
            raise DomainError(f"{command} requires --{flag}")
    if command in _LOWEST:
        flag, least = _LOWEST[command]
        if given[flag] is not None and given[flag][0] < least:
            raise DomainError(f"--{flag} range must start at {least} or above")


def run(cfg: JobConfig, threads: int = 1) -> tuple[bytes, int]:
    """Execute the command; the status is 4 when a requested stationary
    certificate turned out to be unavailable (the artifact is still full).

    `threads` is accepted and ignored: every command runs on one thread, so
    the emitted bytes never depend on it, and it is not part of the config."""
    results = _COMMANDS[cfg.command][0](cfg)
    status = EXIT_OK
    cert = results.get("certificate")
    if cert is not None and cert.get("status") == "unavailable":
        status = EXIT_CERTIFICATE
    return emit(cfg, results), status


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, _ = config_from_args(args)
        payload, status = run(cfg)
    except (DomainError, PolynomialSyntaxError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapError as ex:
        print(f"resource cap: {ex}", file=sys.stderr)
        return EXIT_RESOURCE
    if cfg.out:
        try:
            with open(cfg.out, "wb") as fh:
                fh.write(payload)
        except OSError as ex:
            print(f"error: cannot write {cfg.out}: {ex}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
