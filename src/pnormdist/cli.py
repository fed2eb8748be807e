"""Command-line workbench: every capability as a reproducible file-in/file-out run.

Subcommands: distmat, check-and, embed, find-pn, singular-config, interp,
scan-psi. All floats are printed with 17 significant digits so outputs
round-trip exactly; every command is deterministic for fixed flags and
input files.

Exit codes: 0 on success, 2 for input errors (malformed files, bad flags,
out-of-range parameters), 3 for certification failures (singular systems,
failed certificates, verdict mismatches).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import interpolation, profiles, serialize, singular
from .andmatrix import check_and, schoenberg_embed
from .errors import CertificationError, InputError, quote
from .geometry import (
    build_distance_matrix,
    read_matrix_csv,
    read_points_csv,
    write_matrix_csv,
    write_points_csv,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CERT = 3


def parse_profile(text: str) -> profiles.RadialProfile:
    """Parse a profile flag: JSON, or the NAME[:PARAM][@CONVENTION] shorthand for it."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return profiles.from_json_dict(json.loads(text))
        except RecursionError:  # json.loads gives out near 990 levels, before the parser's bound
            raise InputError("profile expression nested too deeply to parse") from None
    body, at, convention = text.partition("@")
    name, colon, param = body.partition(":")
    expr = {"kind": name}
    if colon:
        expr["tau"] = param
    if at:
        expr["input_convention"] = convention
    return profiles.from_json_dict(expr)


def _parse_grid(spec: str) -> np.ndarray:
    """lo:hi:step, endpoints inclusive up to float fuzz; lo > hi gives an empty grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must be lo:hi:step, got {quote(spec)}")
    try:
        lo, hi, step = (float(v) for v in parts)
    except ValueError:
        raise InputError(f"grid values must be numbers: {quote(spec)}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise InputError(f"grid values must be finite: {quote(spec)}")
    if step <= 0:
        raise InputError(f"grid step must be positive, got {step}")
    if lo > hi:
        return np.array([])
    count = np.floor((hi - lo) / step + 1e-9) + 1
    if not math.isfinite(count):
        raise InputError(f"grid {quote(spec)} has more points than a float can count")
    count = int(count)
    too_large = f"grid {quote(spec)} has {count} points, more than memory holds"
    if count > np.iinfo(np.intp).max:  # np.arange(2**63) returns an empty array
        raise InputError(too_large)
    try:
        return lo + step * np.arange(count)
    except (MemoryError, ValueError):  # ValueError: more bytes than an index can address
        raise InputError(too_large) from None


def cmd_distmat(args) -> int:
    pts = read_points_csv(args.points)
    profile = parse_profile(args.profile)
    dm = build_distance_matrix(pts, args.p, profile)
    write_matrix_csv(args.out, dm.entries)
    return EXIT_OK


def cmd_check_and(args) -> int:
    if args.kind == "matrix":
        flags = (("--p", args.p), ("--profile", args.profile))
        given = [flag for flag, value in flags if value is not None]
        if given:
            raise InputError(
                f"{' and '.join(given)}: points input only; --kind matrix reads the matrix as given"
            )
        A = read_matrix_csv(args.input)
    else:
        pts = read_points_csv(args.input)
        p = 2.0 if args.p is None else args.p
        profile = parse_profile("identity" if args.profile is None else args.profile)
        A = build_distance_matrix(pts, p, profile).entries
    report = check_and(A)
    record = report.to_json_dict()
    print(serialize.dumps(record))
    if args.out:
        serialize.write_json(args.out, record)
    return EXIT_OK


def cmd_embed(args) -> int:
    A = read_matrix_csv(args.matrix)
    emb = schoenberg_embed(A)
    write_points_csv(args.out, emb.vectors)
    n, dimension = emb.vectors.shape
    print(serialize.dumps({"n": n, "dimension": dimension, "residual": emb.residual}))
    return EXIT_OK


def _write_table(args, header: list[str], rows) -> None:
    """The rows as CSV under a header line in --out, and with --json-out as a
    JSON list of {column: value} records, in which an int cell stays an int.
    """
    serialize.write_csv(args.out, rows, header)
    if args.json_out:
        serialize.write_json(args.json_out, [dict(zip(header, row)) for row in rows])


def cmd_find_pn(args) -> int:
    if args.n_min < 2:
        raise InputError(f"--n-min must be >= 2, got {args.n_min}")
    if args.n_max < args.n_min:
        raise InputError(f"--n-max ({args.n_max}) must be >= --n-min ({args.n_min})")
    ns = range(args.n_min, args.n_max + 1)
    _write_table(args, ["n", "p_n", "rate"], singular.rate_table(ns))
    return EXIT_OK


def cmd_singular_config(args) -> int:
    if args.cert_cap < 1:
        raise InputError(f"--cert-cap must be >= 1, got {args.cert_cap}")
    if args.p is not None:
        n = args.n if args.n is not None else args.m
        if n is None:
            raise InputError("--n is required")
        if args.m is not None and args.n is not None and args.m != args.n:
            raise InputError("theta scaling applies to equal cubes: --p requires m = n")
        root = singular.find_theta(n, args.p)
        config = singular.cube_config(n, n, theta=root.value, p=args.p)
    else:
        if args.m is None or args.n is None:
            raise InputError("need --m and --n (or --n with --p)")
        if args.m < 2 or args.n < 2:
            raise InputError(f"m and n must be >= 2, got m={args.m}, n={args.n}")
        root = singular.find_pmn(args.m, args.n)
        config = singular.cube_config(args.m, args.n, theta=1.0, p=root.value)
    if max(config.m, config.n) > args.cert_cap:
        capped = f"certification capped at side {args.cert_cap} by --cert-cap"
        raise InputError(f"{capped} (got m={config.m}, n={config.n})")
    record = singular.certify_singular(config)
    write_points_csv(args.out_points, config.points)
    serialize.write_json(args.out_cert, record.to_json_dict())
    print(serialize.dumps(record.to_json_dict()))
    return EXIT_OK


def cmd_interp(args) -> int:
    data = read_points_csv(args.data).points
    if data.shape[1] < 2:
        raise InputError(f"{args.data}: need d+1 columns (coordinates then value)")
    centers, values = data[:, :-1], data[:, -1]
    profile = parse_profile(args.profile)
    interp = interpolation.fit(centers, values, args.p, profile)
    queries = read_points_csv(args.query_file).points
    if queries.shape[1] != centers.shape[1]:
        raise InputError(
            f"{args.query_file}: query dimension {queries.shape[1]} does not match "
            f"data dimension {centers.shape[1]}"
        )
    serialize.write_csv(args.out, interp.evaluate_many(queries)[:, None])
    print(
        serialize.dumps(
            {
                "n": int(centers.shape[0]),
                "fit_residual": interp.residual,
                "condition_estimate": interp.condition_estimate,
                "guaranteed": interp.guaranteed,
            }
        )
    )
    return EXIT_OK


def cmd_scan_psi(args) -> int:
    try:
        ns = [int(v) for v in args.n.split(",") if v.strip()]
    except ValueError:
        raise InputError(
            f"--n must be a comma-separated list of integers: {quote(args.n)}"
        ) from None
    if not ns or any(n < 1 for n in ns):
        raise InputError("--n needs at least one integer >= 1")
    if len(set(ns)) < len(ns):  # the CSV would repeat a column that the JSON keys merge
        raise InputError(f"--n lists {max(ns, key=ns.count)} more than once")
    grid = _parse_grid(args.p_grid)
    rows = []
    if len(grid):  # an empty grid evaluates nothing, so it checks no degree either
        rows = np.column_stack([grid] + [singular.psi(n, grid) for n in ns]).tolist()
    _write_table(args, ["p"] + [f"psi_{n}" for n in ns], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnormdist",
        description="p-norm distance matrix workbench: build, certify, embed, "
        "search singular configurations, interpolate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("distmat", help="points CSV -> distance matrix CSV")
    sp.add_argument("points")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--profile", default="identity")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_distmat)

    sp = sub.add_parser("check-and", help="AND verdict as JSON")
    sp.add_argument("input")
    sp.add_argument("--kind", choices=["points", "matrix"], default="points")
    # None marks a flag not given: --kind matrix takes neither
    sp.add_argument("--p", type=float, help="points input only (default 2)")
    sp.add_argument("--profile", help="points input only (default identity)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_check_and)

    sp = sub.add_parser("embed", help="squared-distance embedding of an AND matrix")
    sp.add_argument("matrix")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("find-pn", help="critical exponents p_n as CSV")
    sp.add_argument("--n-min", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--json-out", help="also emit the table as JSON")
    sp.set_defaults(func=cmd_find_pn)

    sp = sub.add_parser("singular-config", help="certified singular configuration")
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float, help="target exponent; theta is then solved (m = n)")
    sp.add_argument("--out-points", required=True)
    sp.add_argument("--out-cert", required=True)
    sp.add_argument(
        "--cert-cap",
        type=int,
        default=singular.MAX_CUBE_SIDE,
        help="largest cube side certified (default %(default)d, every side cube_config builds)",
    )
    sp.set_defaults(func=cmd_singular_config)

    sp = sub.add_parser("interp", help="fit and evaluate an interpolant")
    sp.add_argument("data")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--profile", default="identity")
    sp.add_argument("--query-file", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_interp)

    sp = sub.add_parser("scan-psi", help="psi_n values on a p grid as CSV")
    sp.add_argument("--n", required=True, help="comma-separated list of n values")
    sp.add_argument("--p-grid", required=True, help="lo:hi:step")
    sp.add_argument("--out", required=True)
    sp.add_argument("--json-out", help="also emit the scan as JSON")
    sp.set_defaults(func=cmd_scan_psi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERT


def console_main() -> None:
    sys.exit(main())

