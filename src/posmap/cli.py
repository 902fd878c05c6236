"""Command-line surface: every analysis as a subcommand.

Exit codes: 0 when the checked property holds (or the command is purely
diagnostic), 1 when a checked property fails (witness found, certificate
rejected, map not CP), 2 on usage, IO or parse errors. `--json` prints the
full report as canonical JSON (sorted keys); given the same flags and
seeds the output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .algebra import FiniteCStar
from .certificates import (
    dumps,
    encode,
    load_certificate,
    load_map,
    orderzero_certificate,
    save_certificate,
    save_map,
    verify_certificate,
)
from .errors import PosmapError
from .family import verify_corner_family
from .linalg import DEFAULT_SAMPLES, check_seed, check_tol
from .orderzero import cp_repair, order_zero_defect, oz_decompose
from .positivity import (
    DEFAULT_RESTARTS,
    DEFAULT_TOL,
    VIOLATED,
    check_restarts,
    is_cp,
    k_positivity_falsify,
    tomiyama_map,
    tomiyama_threshold,
)


def _renamed(fields: dict, old: str, new: str) -> dict:
    """fields with the key old renamed to new, at the same place."""
    return {new if name == old else name: value for name, value in fields.items()}


def _print_report(payload: dict, as_json: bool) -> None:
    if as_json:
        print(dumps(payload))
        return

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key, val in obj.items():
                if isinstance(val, (dict, list)) and val:
                    print(f"{pad}{key}:")
                    walk(val, indent + 1)
                else:
                    print(f"{pad}{key}: {val}")
        elif isinstance(obj, list):
            for i, val in enumerate(obj):
                if isinstance(val, (dict, list)) and val:
                    print(f"{pad}[{i}]")
                    walk(val, indent + 1)
                else:
                    print(f"{pad}[{i}] {val}")

    walk(payload)


def _parse_list(text: str, flag: str, convert, what: str) -> list:
    try:
        return [convert(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise PosmapError(f"{flag}: expected comma-separated {what}, got {text!r}")


# -- subcommand handlers (return (exit_code, payload); main adds "command") -----


def _cmd_check_cp(args) -> tuple[int, dict]:
    phi = load_map(args.mapfile)
    verdict = is_cp(phi, args.tol)
    payload = {
        "mapfile": args.mapfile,
        "tol": args.tol,
        "completely_positive": verdict,
    }
    return (0 if verdict else 1), payload


def _cmd_check_kpos(args) -> tuple[int, dict]:
    phi = load_map(args.mapfile)
    v = k_positivity_falsify(
        phi, args.k, restarts=args.restarts, seed=args.seed, tol=args.tol
    )
    payload = {
        "mapfile": args.mapfile,
        "k": args.k,
        "restarts": args.restarts,
        "seed": args.seed,
        "tol": args.tol,
        "verdict": encode(v),
    }
    return (1 if v.status == VIOLATED else 0), payload


def _cmd_tomiyama(args) -> tuple[int, dict]:
    if args.out and args.lam is None:
        raise PosmapError("-o/--out needs --lambda")
    threshold = tomiyama_threshold(args.n, args.k)
    payload = {
        "n": args.n,
        "k": args.k,
        "threshold": threshold,
    }
    code = 0
    if args.lam is not None:
        phi = tomiyama_map(args.n, args.lam)
        k_positive = args.lam <= threshold
        v = k_positivity_falsify(
            phi, args.k, restarts=args.restarts, seed=args.seed, tol=args.tol
        )
        payload.update(
            {
                "lambda": args.lam,
                "k_positive_closed_form": k_positive,
                "falsifier": encode(v),
            }
        )
        code = 0 if k_positive else 1
        if args.out:
            save_map(phi, args.out)
            payload["written"] = args.out
    return code, payload


def _cmd_defect(args) -> tuple[int, dict]:
    phi = load_map(args.mapfile)
    rep = order_zero_defect(phi, samples=args.samples, seed=args.seed)
    return 0, {"mapfile": args.mapfile, **encode(rep)}


def _cmd_decompose(args) -> tuple[int, dict]:
    phi = load_map(args.mapfile)
    dec = oz_decompose(phi)
    payload = {
        "mapfile": args.mapfile,
        "h_norm": dec.h.norm(),
        "mult_defect": dec.mult_defect,
        "commute_defect": dec.commute_defect,
        "reconstruct_defect": dec.reconstruct_defect,
        "within_tol": max(dec.mult_defect, dec.commute_defect, dec.reconstruct_defect)
        <= args.tol,
        "tol": args.tol,
    }
    return 0, payload


def _cmd_repair(args) -> tuple[int, dict]:
    phi = load_map(args.mapfile)
    repaired, eps = cp_repair(phi)
    cp_after = is_cp(repaired, args.tol)
    payload = {
        "mapfile": args.mapfile,
        "eps_meas": eps,
        "repaired_is_cp": cp_after,
    }
    if args.out:
        save_map(repaired, args.out)
        payload["written"] = args.out
    return (0 if cp_after else 1), payload


def _cmd_example4(args) -> tuple[int, dict]:
    rep = verify_corner_family(
        args.n,
        args.m,
        args.k,
        args.lam,
        args.eps,
        seed=args.seed,
        samples=args.samples,
        restarts=args.restarts,
    )
    fields = _renamed(encode(rep), "lam", "lambda")
    return (0 if rep.all_ok else 1), {**fields, "all_ok": rep.all_ok}


def _cmd_verify_cert(args) -> tuple[int, dict]:
    cert = load_certificate(args.certfile)
    rep = verify_certificate(
        cert, tol=args.tol, seed=args.seed, restarts=args.restarts, samples=args.samples
    )
    payload = {
        "certfile": args.certfile,
        "tol": args.tol,
        "seed": args.seed,
        "restarts": args.restarts,
        "samples": args.samples,
        **encode(rep),
    }
    return (0 if rep.overall else 1), payload


def _cmd_gen_cert(args) -> tuple[int, dict]:
    blocks = _parse_list(args.algebra, "--algebra", int, "integers")
    weights = _parse_list(args.weights, "--weights", float, "numbers")
    cert = orderzero_certificate(
        FiniteCStar(tuple(blocks)), weights, seed=args.seed, epsilon=args.epsilon
    )
    save_certificate(cert, args.out)
    payload = {
        "algebra": blocks,
        "weights": weights,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "written": args.out,
    }
    return 0, payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posmap",
        description="Positivity, order-zero and certificate analyses for maps "
        "between finite-dimensional C*-algebras.",
    )
    parser.add_argument("--version", action="version", version=f"posmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "tol": dict(type=float, default=DEFAULT_TOL),
        "seed": dict(type=int, default=0),
        "restarts": dict(type=int, default=DEFAULT_RESTARTS),
        "samples": dict(type=int, default=DEFAULT_SAMPLES),
    }

    def common(p, *names):
        """--json plus the named flags, each of which the handler reads."""
        p.add_argument("--json", action="store_true", help="print the report as JSON")
        for name in names:
            p.add_argument(f"--{name}", **flags[name])

    p = sub.add_parser("check-cp", help="complete positivity via the Choi criterion")
    p.add_argument("mapfile")
    common(p, "tol")
    p.set_defaults(handler=_cmd_check_cp)

    p = sub.add_parser("check-kpos", help="falsify k-positivity of a map file")
    p.add_argument("mapfile")
    p.add_argument("--k", type=int, required=True)
    common(p, "tol", "seed", "restarts")
    p.set_defaults(handler=_cmd_check_kpos)

    p = sub.add_parser(
        "tomiyama", help="k-positivity threshold of the trace-mixing family"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("-o", "--out", default=None, help="write the map file (needs --lambda)")
    common(p, "tol", "seed", "restarts")
    p.set_defaults(handler=_cmd_tomiyama)

    p = sub.add_parser("defect", help="sampled order-zero defects of a map file")
    p.add_argument("mapfile")
    common(p, "seed", "samples")
    p.set_defaults(handler=_cmd_defect)

    p = sub.add_parser("decompose", help="h*pi structure decomposition of a map file")
    p.add_argument("mapfile")
    common(p, "tol")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("repair", help="measure the column defect and repair to CP")
    p.add_argument("mapfile")
    p.add_argument("-o", "--out", default=None, help="write the repaired map file")
    common(p, "tol")
    p.set_defaults(handler=_cmd_repair)

    p = sub.add_parser(
        "example4", help="verify one member of the corner-mixture family"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    common(p, "seed", "restarts", "samples")
    p.set_defaults(handler=_cmd_example4)

    p = sub.add_parser("verify-cert", help="verify a certificate file")
    p.add_argument("certfile")
    common(p, "tol", "seed", "restarts", "samples")
    p.set_defaults(handler=_cmd_verify_cert)

    p = sub.add_parser("gen-cert", help="generate a partition-of-unity certificate")
    p.add_argument("--algebra", required=True, help="block sizes, e.g. 2,3")
    p.add_argument("--weights", required=True, help="positive weights summing to 1")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--epsilon", type=float, default=1e-6)
    common(p, "seed")
    p.set_defaults(handler=_cmd_gen_cert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:  # the library's own range checks, before any handler runs
        for name, check in (("tol", check_tol), ("seed", check_seed), ("restarts", check_restarts)):
            if hasattr(args, name):
                check(getattr(args, name))
    except PosmapError as exc:
        print(f"error: --{name}: {exc}", file=sys.stderr)
        return 2
    try:
        # an overflow raises NumericalFailureError; numpy's warning would only precede it
        with np.errstate(over="ignore", invalid="ignore"):
            code, payload = args.handler(args)
    except (PosmapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report({"command": args.command, **payload}, args.json)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
