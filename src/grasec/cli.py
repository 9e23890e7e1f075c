"""Command-line front end.

Subcommands: ``secant``, ``grassmann``, ``identifiability``, ``reproduce``.
Output is JSON (default), CSV or a plain text table; identical
configurations (including the seed) produce byte-identical JSON.  Exit
codes: 0 success, 1 usage or parse error, 2 internal inconsistency, a
sampling or budget failure, or a failed reproduction check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, criteria, field, grassec, reproduce, secant, varieties
from .errors import BudgetExceededError, InconsistencyError, SamplingError


class UsageError(Exception):
    pass


_FAILURE_LABELS = {
    InconsistencyError: "inconsistency",
    SamplingError: "sampling failed",
    BudgetExceededError: "budget exceeded",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's default 2
        raise UsageError(message)


def _parse_s_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_str, hi_str = text.split("..", 1)
        lo, hi = int(lo_str), int(hi_str)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise UsageError(f"invalid s range {text!r}")
    return lo, hi


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prime", type=int, action="append", default=None,
        help="field modulus; may be repeated (default: both built-in primes)",
    )
    parser.add_argument("--trials", type=int, default=secant.DEFAULT_TRIALS)
    parser.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    parser.add_argument("--output", choices=("json", "csv", "text"), default="json")


def build_parser() -> _Parser:
    parser = _Parser(prog="grasec", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sec = sub.add_parser("secant", help="secant variety dimensions and defects")
    p_sec.add_argument("--spec", required=True, help="variety spec, e.g. 1,1,1,1 or 2:2")
    p_sec.add_argument("--s", required=True, help="order s, or a range lo..hi")
    _add_common(p_sec)

    p_gs = sub.add_parser("grassmann", help="Grassmann secant dimensions, two ways")
    p_gs.add_argument("--spec", required=True)
    p_gs.add_argument("--k", type=int, required=True)
    p_gs.add_argument("--s", type=int, required=True)
    _add_common(p_gs)

    p_id = sub.add_parser("identifiability", help="identifiability verdict chains")
    p_id.add_argument("--format", dest="format_dims",
                      help="tensor side lengths, e.g. 4,4 or 2,2,2,2")
    p_id.add_argument("--spec", help="variety spec (alternative to --format)")
    p_id.add_argument("--k", type=int, required=True)
    p_id.add_argument("--s", type=int, required=True)
    _add_common(p_id)

    p_rep = sub.add_parser("reproduce", help="run the full reproduction catalog")
    _add_common(p_rep)

    return parser


def _cmd_secant(args) -> tuple[dict, int]:
    spec = varieties.SegreVeroneseSpec.parse(args.spec)
    lo, hi = _parse_s_range(args.s)
    reports = secant.classify_secant_range(
        spec, range(lo, hi + 1), trials=args.trials, seed=args.seed, primes=args.primes
    )
    payload = {
        "results": [rep.to_dict() for rep in reports],
        "checks": [],
        "formulas": {"expected_dim": "min(s*(n+1) - 1, r)"},
    }
    return payload, 0


def _cmd_grassmann(args) -> tuple[dict, int]:
    spec = varieties.SegreVeroneseSpec.parse(args.spec)
    report = grassec.gs_report(spec, args.k, args.s, trials=args.trials,
                               seed=args.seed, primes=args.primes)
    payload = {
        "results": [report.to_dict()],
        "checks": [],
        "formulas": {
            "expected_dim": "min(s*n + (w+1)*(s-1-w), (w+1)*(r-w)) with w = min(k, s-1)",
            "slice_map_identity": "seg_dim = gs_dim + (w+1)*(k+1) - 1",
        },
    }
    return payload, 0 if report.cross_check else 2


def _cmd_identifiability(args) -> tuple[dict, int]:
    if (args.format_dims is None) == (args.spec is None):
        raise UsageError("pass exactly one of --format or --spec")
    if args.format_dims is not None:
        dims = tuple(int(d) for d in args.format_dims.split(","))
        report = criteria.linear_system_report(
            dims, args.k, s=args.s, trials=args.trials,
            seed=args.seed, primes=args.primes,
        )
        results = [report]
    else:
        spec = varieties.SegreVeroneseSpec.parse(args.spec)
        verdict = criteria.identifiability_report(
            spec, args.k, args.s, trials=args.trials,
            seed=args.seed, primes=args.primes,
        )
        results = [verdict.to_dict()]
    return {"results": results, "checks": []}, 0


def _cmd_reproduce(args) -> tuple[dict, int]:
    checks = reproduce.run_catalog(seed=args.seed, primes=args.primes, trials=args.trials)
    code = 0 if all(c["status"] == "PASS" for c in checks) else 2
    return {"results": [], "checks": checks}, code


def _emit_text(payload: dict) -> str:
    lines = []
    for rep in payload.get("results", []):
        lines.append("  ".join(f"{key}={rep[key]}" for key in rep))
    for check in payload.get("checks", []):
        lines.append(
            f"{check['status']:4s} {check['name']}: "
            f"computed={check['computed']} expected={check['expected']}"
        )
    return "\n".join(lines) + "\n"


def _emit_csv(payload: dict) -> str:
    buf = io.StringIO()
    rows = payload.get("checks") or payload.get("results") or []
    if rows:
        fields = list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: json.dumps(val, sort_keys=True)
                             if isinstance(val, (dict, list)) else val
                             for key, val in row.items()})
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.primes = tuple(args.prime) if args.prime else field.DEFAULT_PRIMES

        handlers = {
            "secant": _cmd_secant,
            "grassmann": _cmd_grassmann,
            "identifiability": _cmd_identifiability,
            "reproduce": _cmd_reproduce,
        }
        body, code = handlers[args.command](args)
        payload = {
            "schema": 1,
            "command": args.command,
            "version": __version__,
            # every parsed value but the command and the raw --prime list
            "config": {key: value for key, value in vars(args).items()
                       if value is not None and key not in ("command", "prime")},
            **body,
        }
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except tuple(_FAILURE_LABELS) as exc:
        print(f"{_FAILURE_LABELS[type(exc)]}: {exc}", file=sys.stderr)
        return 2

    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.output == "csv":
        sys.stdout.write(_emit_csv(payload))
    else:
        sys.stdout.write(_emit_text(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
