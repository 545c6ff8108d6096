"""Command-line front end.

Subcommands: eval (single objects), verify (certification suites),
transform (apply the generalized Bargmann transform to a function file),
table (CSV tables of moments / factorials / eigenvalues).

Exit codes: 0 success (all checks pass), 1 verification failure, 2 usage or
parse error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import coherent, measures, oracles, poly2d, quadrature, transforms, verify
from .errors import NumericError
from .formats import format_complex, format_real, parse_complex, read_data
from .specfun import SeriesControl

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

ENV_CONFIG = "CSTK_CONFIG"


@dataclass(frozen=True)
class CliConfig:
    rel_tol: float = 1e-13
    max_terms: int = 500
    seed: int = verify.DEFAULT_SEED
    output_format: str = "json"

    def series(self) -> SeriesControl:
        return SeriesControl(rel_tol=self.rel_tol, max_terms=self.max_terms)


def _load_config_file(path: Path) -> dict:
    values: dict = {}
    casts = {
        "rel_tol": float,
        "max_terms": int,
        "seed": int,
        "output_format": str,
    }
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line must be `key = value`: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in casts:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = casts[key](value.strip())
    return values


def build_config(args) -> CliConfig:
    cfg = CliConfig()
    path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if path:
        cfg = replace(cfg, **_load_config_file(Path(path)))
        if cfg.output_format not in ("json", "csv"):  # the choices of --format
            raise ValueError(f"output_format must be json or csv, not {cfg.output_format!r}")
    for key in ("rel_tol", "max_terms", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            cfg = replace(cfg, **{key: val})
    if getattr(args, "format", None):
        cfg = replace(cfg, output_format=args.format)
    return cfg


def _emit(args, cfg: CliConfig, payload: dict) -> None:
    """Write the result as JSON or CSV with full round-trip precision."""
    if cfg.output_format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow(row)
        text = buf.getvalue()
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _value_payload(kind: str, params: dict, values) -> dict:
    rows = []
    for key, val in values:
        if isinstance(val, complex):
            rows.append([key, format_complex(val)])
        else:
            rows.append([key, format_real(val)])
    return {"object": kind, "params": params, "columns": ["name", "value"], "rows": rows}


def cmd_eval(args, cfg: CliConfig) -> int:
    ctl = cfg.series()
    obj = args.object
    if obj == "poly":
        idx = poly2d.ModeIndex(args.n, args.m, args.beta)
        val = poly2d.h_poly(idx, args.z)
        norm = poly2d.p_norm(idx, args.z)
        payload = _value_payload(
            "poly",
            {"n": args.n, "m": args.m, "beta": args.beta, "z": format_complex(args.z)},
            [("H_{n,m}^(beta)", complex(val)), ("P~_{n,m}^beta", complex(norm))],
        )
    elif obj == "kernel":
        if args.analytic:
            val = transforms.kernel_B_analytic(args.beta, args.z, args.x, ctl)
            name = "B_beta(z,x)"
        elif args.true_poly:
            val = complex(oracles.kernel_B_true_poly(args.m, args.z, args.x))
            name = "B_{0,m}(z,x)"
        else:
            val = complex(transforms.kernel_B(args.m, args.beta, args.z, args.x, ctl))
            name = "B_{beta,m}(z,x)"
        payload = _value_payload(
            "kernel",
            {"m": args.m, "beta": args.beta, "z": format_complex(args.z), "x": args.x},
            [(name, complex(val))],
        )
    elif obj == "overlap":
        val = coherent.overlap_closed(args.z, args.w, args.m, args.beta, ctl)
        payload = _value_payload(
            "overlap",
            {"m": args.m, "beta": args.beta, "z": format_complex(args.z), "w": format_complex(args.w)},
            [("overlap", complex(val))],
        )
    elif obj == "norm":
        spec = coherent.CoherentSpec(z=args.z, idx_m=args.m, beta=args.beta, truncation=ctl)
        t = abs(args.z) ** 2
        values = [("norm_series", coherent.norm_series(spec))]
        if args.m == 0:
            values.append(("norm_closed_m0", coherent.norm_closed_m0(args.beta, t, ctl)))
        payload = _value_payload(
            "norm", {"m": args.m, "beta": args.beta, "z": format_complex(args.z)}, values
        )
    elif obj == "weight":
        val = float(transforms.omega_weight(args.x, args.beta))
        payload = _value_payload("weight", {"beta": args.beta, "x": args.x}, [("omega_beta(x)", val)])
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(obj)
    _emit(args, cfg, payload)
    return EXIT_OK


def cmd_verify(args, cfg: CliConfig) -> int:
    if args.suite != "all" and args.suite not in verify.SUITES and args.suite not in verify.EXTRA_SUITES:
        print(f"unknown suite: {args.suite}", file=sys.stderr)
        return EXIT_USAGE
    overrides = {} if args.mmax is None else {"mmax": args.mmax}
    names = "all" if args.suite == "all" else [args.suite]
    reports = verify.run_suite(names, seed=cfg.seed, jobs=args.jobs, **overrides)
    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    for rep in reports:
        print(rep.summary_line())
        if outdir:
            (outdir / f"{rep.check_name}.json").write_text(rep.to_json() + "\n")
    if args.suite == "all" and outdir:
        comparison = verify.ladder_eigenvalue_comparison()
        (outdir / "ladder_eigenvalue_comparison.json").write_text(
            json.dumps(comparison, sort_keys=True, indent=2) + "\n"
        )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_transform(args, cfg: CliConfig) -> int:
    f = transforms.load_sampled(args.input)
    targets = [parse_complex(z) for (z,) in read_data(args.targets, 1)[1]]
    rule = None  # a coefficient input maps exactly, with no rule
    if f.kind == "grid":
        rule = quadrature.adaptive_line(
            lambda x: transforms.omega_weight(x, args.beta), max(cfg.rel_tol, 1e-11), args.m + 8
        )
    values = transforms.apply_transform(f, args.m, args.beta, targets, rule, cfg.series())
    payload = {
        "object": "transform",
        "params": {"m": args.m, "beta": args.beta, "input": str(args.input)},
        "columns": ["z", "value"],
        "rows": [[format_complex(z), format_complex(v)] for z, v in zip(targets, values)],
    }
    _emit(args, cfg, payload)
    return EXIT_OK


def cmd_table(args, cfg: CliConfig) -> int:
    meas = measures.GammaMeasure(beta=args.beta)
    ns = range(args.nmax + 1)
    if args.object == "moments":
        columns, keys, value = ["n", "mu_{n+beta}"], [(n,) for n in ns], lambda n: meas.moment(n + args.beta)
    elif args.object == "factorials":
        columns, keys = ["n", "m", "x_{n,m}^beta!"], itertools.product(ns, range(args.mmax + 1))
        value = lambda n, m: measures.gen_factorial(meas, n, m)
    elif args.object == "eigenvalues":
        columns, keys, value = ["n", "x_n^beta"], [(n,) for n in ns], lambda n: measures.hamiltonian_eigen(meas, n)
    else:  # pragma: no cover
        raise ValueError(args.object)
    rows = []
    for key in keys:
        try:
            rows.append([*key, format_real(value(*key))])
        except OverflowError:  # the value itself leaves float64
            at = ", ".join(f"{name}={k}" for name, k in zip(columns, key))
            raise NumericError(f"{columns[-1]} leaves the float64 range at {at}, beta={args.beta}") from None
    payload = {"object": args.object, "params": {"beta": args.beta}, "columns": columns, "rows": rows}
    _emit(args, cfg, payload)
    return EXIT_OK


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # mirrored onto every subparser (SUPPRESS defaults) so the shared flags
    # work both before and after the subcommand
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default, help=f"config file (key = value); ${ENV_CONFIG} names a default")
    parser.add_argument("--rel-tol", dest="rel_tol", type=float, default=default)
    parser.add_argument("--max-terms", dest="max_terms", type=int, default=default)
    parser.add_argument("--seed", type=int, default=default)
    parser.add_argument("--format", choices=["json", "csv"], default=default)
    parser.add_argument("--out", default=default, help="write output to this path (verify: directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cstk", description=__doc__, allow_abbrev=False)
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one object", allow_abbrev=False)
    _add_common(p_eval, suppress=True)
    p_eval.add_argument("object", choices=["poly", "kernel", "overlap", "norm", "weight"])
    p_eval.add_argument("--n", type=int, default=0)
    p_eval.add_argument("--m", type=int, default=0)
    p_eval.add_argument("--beta", type=float, default=0.0)
    p_eval.add_argument("--z", type=_complex_arg, default=0j)
    p_eval.add_argument("--w", type=_complex_arg, default=0j)
    p_eval.add_argument("--x", type=float, default=0.0)
    p_eval.add_argument("--analytic", action="store_true", help="kernel: the m=0 entire kernel")
    p_eval.add_argument("--true-poly", action="store_true", help="kernel: the beta=0 closed form")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run certification suites", allow_abbrev=False)
    _add_common(p_verify, suppress=True)
    p_verify.add_argument("suite", help="suite name or 'all'")
    p_verify.add_argument("--mmax", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_tr = sub.add_parser("transform", help="apply the generalized Bargmann transform", allow_abbrev=False)
    _add_common(p_tr, suppress=True)
    p_tr.add_argument("--input", required=True, help="function file (grid or coefficients)")
    p_tr.add_argument("--m", type=int, default=0)
    p_tr.add_argument("--beta", type=float, default=0.0)
    p_tr.add_argument("--targets", required=True, help="file with one complex target per line")
    p_tr.set_defaults(func=cmd_transform)

    p_tab = sub.add_parser("table", help="emit CSV tables", allow_abbrev=False)
    _add_common(p_tab, suppress=True)
    p_tab.add_argument("object", choices=["moments", "factorials", "eigenvalues"])
    p_tab.add_argument("--beta", type=float, default=0.0)
    p_tab.add_argument("--nmax", type=int, default=8)
    p_tab.add_argument("--mmax", type=int, default=8)
    p_tab.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
