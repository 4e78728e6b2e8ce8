"""Command-line interface.

Subcommands: ``simulate`` (seeded ensembles), ``cov`` (closed form next to the
oracle and Monte Carlo columns), ``spectra`` (density matrices by several
methods), ``embed`` (embedding covariance matrices), ``verify`` (invariant
suites).  Options come from flags, or a JSON config file via ``--config``;
flags win over the file.  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 I/O error, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

import numpy as np

from .core import CovarianceSeed, make_chain, make_params
from .covariance import cov_table, simple_bm_cov, simple_bm_seed
from .errors import ConvergenceError, DomainError, GridError, PoleError
from .multidim import q_cov
from .simulate import Ensemble, empirical_cov, simulate_simple_bm
from .spectral import FrequencyGrid, _assemble, _closed_weights, _sum_weights, simple_bm_spectral, spectral_diag
from .table import _Parts, _spans, write_table
from .verify import perturb_seed, run_checks

_METHODS = ("closed", "sum", "example", "diag")
_COMMANDS = ("simulate", "cov", "spectra", "embed", "verify")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DomainError("config file must contain a JSON object")
    return cfg


def _opt(flag: Any, cfg: dict, path: tuple[str, ...], default: Any, kind: type | None = None) -> Any:
    """``flag`` if given, else the config value at ``path``, else ``default``; converted by ``kind``.

    ``kind`` is ``int`` or ``float``.  A config value it cannot convert
    exactly (``"abc"``, ``2.5`` for an integer, a boolean) is a DomainError.
    """
    value = flag
    if value is None:
        node: Any = cfg
        for key in path:
            if not isinstance(node, dict) or key not in node:
                node = None
                break
            node = node[key]
        value = default if node is None else node
    if kind is None or value is None:
        return value
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise DomainError(f"config value {'.'.join(path)} must be {what}, got {value!r}") from None


def _resolve_params(args, cfg: dict, H: float = 0.75):
    H = _opt(args.H, cfg, ("H",), H, float)
    alpha = _opt(args.alpha, cfg, ("alpha",), 2.0, float)
    T = _opt(args.T, cfg, ("T",), 2, int)
    return make_params(H, alpha, T)


def _resolve_seed(args, cfg: dict, params):
    seed_file = _opt(getattr(args, "seed_file", None), cfg, ("seed_file",), None)
    builtin = bool(getattr(args, "builtin", False)) or bool(cfg.get("builtin", False))
    if not isinstance(seed_file, (str, type(None))):  # open() would take an integer as a file descriptor
        raise DomainError(f"config value seed_file must be a path, got {seed_file!r}")
    if seed_file and builtin:
        raise DomainError("choose exactly one of --builtin and --seed-file")
    if seed_file:
        return CovarianceSeed.from_csv(seed_file), False
    return simple_bm_seed(params), True


def _out_and_format(args, cfg: dict) -> tuple[str | None, str]:
    out = _opt(args.out, cfg, ("output", "path"), None)
    fmt = _opt(args.format, cfg, ("output", "format"), "csv")
    if fmt not in ("csv", "json"):
        raise DomainError(f"output format must be csv or json, got {fmt!r}")
    return out, fmt


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    brownian = args.process == "brownian"  # Brownian motion is simple BM at H = 1/2
    params = _resolve_params(args, cfg, 0.5 if brownian else 0.75)
    if brownian and params.H != 0.5:
        raise DomainError(f"--process brownian has H = 0.5, got H = {params.H}")
    n_paths = _opt(args.paths, cfg, ("mc", "n_paths"), 1000, int)
    k_max = _opt(args.kmax, cfg, ("mc", "k_max"), 8, int)
    rng_seed = _opt(args.seed, cfg, ("mc", "rng_seed"), 0, int)
    out, fmt = _out_and_format(args, cfg)
    write_table(simulate_simple_bm(params, n_paths, k_max, rng_seed).columns(), fmt, out)
    return 0


def _ranges(args, n_max: int, tau_min: int, tau_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices ``n`` and lags ``tau`` from the flags, with the given defaults."""
    n_min = args.n_min
    n_max = args.n_max if args.n_max is not None else n_max
    tau_min = args.tau_min if args.tau_min is not None else tau_min
    tau_max = args.tau_max if args.tau_max is not None else tau_max
    if n_min < 0 or n_max < n_min or tau_max < tau_min:
        raise DomainError(
            f"bad ranges: n in [{n_min}, {n_max}], tau in [{tau_min}, {tau_max}]"
        )
    return np.arange(n_min, n_max + 1), np.arange(tau_min, tau_max + 1)


def cmd_cov(args) -> int:
    cfg = _load_config(args.config)
    params = _resolve_params(args, cfg)
    seed, is_builtin = _resolve_seed(args, cfg, params)
    chain = make_chain(params, seed)
    out, fmt = _out_and_format(args, cfg)
    ns, taus = _ranges(args, 2 * params.T - 1, -params.T, 2 * params.T)
    mc_paths = _opt(args.mc_paths, cfg, ("mc", "n_paths"), 0, int)
    if mc_paths < 0:
        raise DomainError(f"Monte Carlo path count must be >= 0 (0 disables), got {mc_paths}")
    ens = None
    if mc_paths > 0:
        k_need = int(max(ns[-1], ns[-1] + taus[-1]))
        rng_seed = _opt(args.mc_seed, cfg, ("mc", "rng_seed"), 0, int)
        # the builtin seed keeps its named constructor: perfbench's tracer counts samples through it
        ens = (simulate_simple_bm(params, mc_paths, k_need, rng_seed) if is_builtin
               else Ensemble(chain, k_need, mc_paths, rng_seed))
    n, tau = np.meshgrid(ns, taus, indexing="ij")
    keep = n + tau >= 0
    n, tau = n[keep], tau[keep]
    oracle = mc_est = mc_se = None
    if is_builtin:
        a = params.alpha
        oracle = simple_bm_cov(np.float_power(a, n + tau), np.float_power(a, n), params.H, params.l)
    if ens is not None:
        est = empirical_cov(ens, n, tau)
        mc_est, mc_se = est.value, est.std_error
    table = {
        "n": n,
        "tau": tau,
        "closed_form": cov_table(chain, n, tau),
        "oracle": oracle,
        "mc_estimate": mc_est,
        "mc_stderr": mc_se,
    }
    write_table([table], fmt, out)
    return 0


def cmd_spectra(args) -> int:
    cfg = _load_config(args.config)
    params = _resolve_params(args, cfg)
    seed, is_builtin = _resolve_seed(args, cfg, params)
    chain = make_chain(params, seed)
    out, fmt = _out_and_format(args, cfg)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise DomainError(f"--methods names no method; choose from {', '.join(_METHODS)}")
    for i, m in enumerate(methods):
        if m not in _METHODS:
            raise DomainError(f"unknown method {m!r}; choose from {', '.join(_METHODS)}")
        if m in methods[:i]:
            raise DomainError(f"method {m!r} is named twice in --methods")
    if "example" in methods and not is_builtin:
        raise DomainError("method 'example' is the builtin-seed closed form; "
                          "it cannot be used with --seed-file")
    n_omega = _opt(args.n_omega, cfg, ("spectra", "n_omega"), 256, int)
    trunc = _opt(args.truncation, cfg, ("spectra", "truncation"), None, int)
    omegas = FrequencyGrid(n_omega).omegas
    # closed and sum are each a pair of weights on A and A^T per frequency, and one assembler builds either
    # from its weights.  The weights are pointwise in omega: they are computed once for the whole grid, which
    # is also each method's error check, in order, before the output file opens; a part assembles its slice
    weights, A = {}, None
    for method in methods:
        if method == "closed":
            weights[method] = _closed_weights(chain, omegas)
        elif method == "sum":
            weights[method] = _sum_weights(chain, omegas, trunc)
        elif method == "diag":
            spectral_diag(chain, 0, omegas)
        if method in weights and A is None:
            A = q_cov(chain, 0, 0)  # a vanishing h-chain fails here, and every part takes A from here
    T = params.T
    idx = np.arange(T)
    js, rs = np.divmod(np.arange(T**2), T)
    starts = _spans(n_omega, T**2)  # a part per method and run of frequencies of about one block

    def part(i: int) -> tuple[np.ndarray, ...]:
        method, lo = methods[i // len(starts)], starts[i % len(starts)]
        w = omegas[lo : lo + starts.step]
        if method in weights:
            vals = _assemble(A, weights[method][lo : lo + starts.step])
        elif method == "example":
            vals = simple_bm_spectral(params, idx[:, np.newaxis], idx, w[:, np.newaxis, np.newaxis])
        else:  # diag: real values, one row per component
            vals = spectral_diag(chain, idx, w[:, np.newaxis])
        vals = vals.reshape(len(w), -1)
        return (w[:, np.newaxis], *((idx, idx) if method == "diag" else (js, rs)), vals.real, vals.imag,
                np.array(method))

    rows = n_omega * sum(T if method == "diag" else T**2 for method in methods)
    write_table(_Parts(["omega", "j", "r", "re", "im", "method"], len(methods) * len(starts), part, rows), fmt, out)
    return 0


def cmd_embed(args) -> int:
    cfg = _load_config(args.config)
    params = _resolve_params(args, cfg)
    seed, _ = _resolve_seed(args, cfg, params)
    chain = make_chain(params, seed)
    out, fmt = _out_and_format(args, cfg)
    ns, taus = _ranges(args, 2, 0, 3)
    T = params.T
    idx = np.arange(T)
    q_cov(chain, 0, 0)  # a chain it cannot serve fails here, before the output file opens
    pairs = len(ns) * len(taus)
    starts = _spans(pairs, T**2)  # a part per run of (n, tau) pairs of about one block

    def part(i: int) -> tuple[np.ndarray, ...]:
        n, tau = np.divmod(np.arange(starts[i], min(starts[i] + starts.step, pairs)), len(taus))
        n, tau = ns[n], taus[tau]
        value = q_cov(chain, n, tau)  # one T x T matrix per pair
        return n[:, np.newaxis, np.newaxis], tau[:, np.newaxis, np.newaxis], idx[:, np.newaxis], idx, value

    write_table(_Parts(["n", "tau", "j", "k", "value"], len(starts), part, pairs * T**2), fmt, out)
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    params = _resolve_params(args, cfg)
    seed, is_builtin = _resolve_seed(args, cfg, params)
    reference = None if is_builtin else seed  # a seed file is checked against itself, unperturbed
    out, fmt = _out_and_format(args, cfg)
    if args.perturb:
        seed = perturb_seed(seed, args.perturb, int(args.seed or 0))
    results = run_checks(params, seed, reference)
    ok = all(r.passed for r in results)
    if args.json or fmt == "json":
        payload = {
            "checks": [
                {
                    "name": r.name,
                    "observed": float(r.observed),
                    "tolerance": float(r.tolerance),
                    "passed": bool(r.passed),
                    **({"note": r.note} if r.note else {}),
                }
                for r in results
            ],
            "passed": bool(ok),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        width = max(len(r.name) for r in results)
        lines = [f"{'check':<{width}}  {'observed':>12}  {'tolerance':>10}  status"]
        for r in results:
            status = "pass" if r.passed else "FAIL"
            note = f"  {r.note}" if r.note else ""
            lines.append(f"{r.name:<{width}}  {r.observed:>12.3e}  {r.tolerance:>10.1e}  {status}{note}")
        lines.append(f"overall: {'pass' if ok else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def _add_common(p: argparse.ArgumentParser, seeded: bool) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--alpha", type=float, help="grid ratio alpha > 1 (default 2.0)")
    p.add_argument("--T", type=int, help="scale-invariance period (default 2)")
    p.add_argument("--H", type=float, help="scale exponent H > 0 (default 0.75)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    if seeded:
        p.add_argument("--builtin", action="store_true",
                       help="use the simple-BM seed (default when --seed-file absent)")
        p.add_argument("--seed-file", help="CSV file with header j,r0,r1")


def _add_ranges(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int)
    p.add_argument("--tau-min", type=int)
    p.add_argument("--tau-max", type=int)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A new parser of every subcommand, or of ``command`` alone.

    A parser of one subcommand reads that subcommand's command lines as the
    full parser does, with the same help and error messages: its usage names
    every subcommand, as the full parser's does.
    """
    parser = argparse.ArgumentParser(
        prog="dtsim",
        description="Scale-invariant Markov processes on geometric grids",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "simulate"):
        p = sub.add_parser("simulate", help="write a seeded Monte Carlo ensemble")
        _add_common(p, seeded=False)
        p.add_argument("--paths", type=int, help="number of paths (default 1000)")
        p.add_argument("--kmax", type=int, help="largest grid index (default 8)")
        p.add_argument("--seed", type=int, help="master RNG seed (default 0)")
        p.add_argument("--process", choices=("simple-bm", "brownian"), default="simple-bm",
                       help="brownian is simple-bm at H = 0.5, and any other H is an error (default simple-bm)")

    if command in (None, "cov"):
        p = sub.add_parser("cov", help="closed-form covariance table with oracle and MC columns")
        _add_common(p, seeded=True)
        _add_ranges(p)
        p.add_argument("--mc-paths", type=int, help="Monte Carlo paths (0 disables; default 0)")
        p.add_argument("--mc-seed", type=int, help="Monte Carlo RNG seed (default 0)")

    if command in (None, "spectra"):
        p = sub.add_parser("spectra", help="density matrix entries over a frequency grid")
        _add_common(p, seeded=True)
        p.add_argument("--methods", default="closed,sum",
                       help="comma list from closed,sum,example,diag (default closed,sum)")
        p.add_argument("--n-omega", type=int, help="frequency count on [0, 2pi) (default 256)")
        p.add_argument("--truncation", type=int, help="series truncation override for method=sum")

    if command in (None, "embed"):
        p = sub.add_parser("embed", help="embedding covariance matrices (at tau = 0, entry (j, k) with j < k "
                                         "is the one-sided kernel, not a covariance)")
        _add_common(p, seeded=True)
        _add_ranges(p)

    if command in (None, "verify"):
        p = sub.add_parser("verify", help="run the invariant suites")
        _add_common(p, seeded=True)
        p.add_argument("--perturb", type=float, default=0.0,
                       help="relative fault injected into the seed's r1 (seeded)")
        p.add_argument("--seed", type=int, help="RNG seed for fault injection (default 0)")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    return parser


#: ``main``'s parsers, each built once per process and shared by its calls
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command line that names no subcommand, such as --help or a usage error, gets the full parser
    parser = _parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # looked up by name when called, not bound in the cached parser, so a wrapper set on cmd_* is run
        return globals()[f"cmd_{args.command}"](args)
    except (ConvergenceError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, GridError, IndexError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
