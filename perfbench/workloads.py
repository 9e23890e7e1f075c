"""The benchmark's workloads: query lists with their certified answers.

A query is a call into grasec's public API (timed) and a check of its
answer against a certified value (not timed).  Every call goes through a
module attribute at call time, so functions wrapped by the tracer are the
ones that run.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

# secant_dim rows of ROADMAP aim 1 (r = 124, 242, 511, 624); one trial on one
# prime, so a pass is a fixed amount of frame building and large-matrix rank.
SECANT_SCALE = (
    ("4,4,4", 10, 124),
    ("2,2,2,2,2", 22, 241),
    ("1,1,1,1,1,1,1,1,1", 52, 511),
    ("4,4,4,4", 36, 611),
)

# gs_report rows of ROADMAP aim 1 (r = 14, 19, 26), k = 3, s = 5; both routes
# must reach the expected dimension.
GRASSMANN = (("2:4", 3, 5, 14), ("3:3", 3, 5, 19), ("2,2,2", 3, 5, 34))

# consecutive catalog seeds per pass: about 7 s of thousands of tiny ranks
CATALOG_SEEDS = 4
CATALOG_ROWS = 15


@dataclass(frozen=True)
class Query:
    label: str
    call: Callable[[], object]
    # raw result -> (JSON-able answer for the digest, error message or None)
    check: Callable[[object], tuple[object, str | None]]


def secant_scale(grasec: dict[str, ModuleType], seed: int) -> list[Query]:
    secant, varieties, field = grasec["secant"], grasec["varieties"], grasec["field"]

    def query(text: str, s: int, expected: int) -> Query:
        def call():
            spec = varieties.SegreVeroneseSpec.parse(text)
            return secant.secant_dim(spec, s, trials=1, seed=seed, primes=(field.DEFAULT_PRIME,))

        def check(report):
            error = None if report.dim == expected else f"dim {report.dim} != {expected}"
            return report.to_dict(), error

        return Query(f"secant_dim {text} s={s}", call, check)

    return [query(*row) for row in SECANT_SCALE]


def grassmann(grasec: dict[str, ModuleType], seed: int) -> list[Query]:
    grassec, varieties = grasec["grassec"], grasec["varieties"]

    def query(text: str, k: int, s: int, expected: int) -> Query:
        def call():
            return grassec.gs_report(varieties.SegreVeroneseSpec.parse(text), k, s, seed=seed)

        def check(report):
            error = None
            if not (report.cross_check and report.dim_phi == report.dim_direct == expected):
                error = (f"dim_phi {report.dim_phi}, dim_direct {report.dim_direct}, "
                         f"cross_check {report.cross_check}; expected {expected}")
            return report.to_dict(), error

        return Query(f"gs_report {text} k={k} s={s}", call, check)

    return [query(*row) for row in GRASSMANN]


def catalog(grasec: dict[str, ModuleType], seed: int) -> list[Query]:
    cli = grasec["cli"]

    def query(catalog_seed: int) -> Query:
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["reproduce", "--seed", str(catalog_seed)])
            return code, out.getvalue()

        def check(raw):
            code, text = raw
            try:
                rows = json.loads(text)["checks"]
            except (ValueError, KeyError, TypeError):
                return text, f"exit {code}, unreadable output"
            passed = sum(1 for row in rows if row.get("status") == "PASS")
            error = None
            if code != 0 or passed != CATALOG_ROWS or len(rows) != CATALOG_ROWS:
                error = f"exit {code}, {passed}/{len(rows)} PASS"
            return text, error

        return Query(f"reproduce --seed {catalog_seed}", call, check)

    return [query(seed + i) for i in range(CATALOG_SEEDS)]


WORKLOADS = {"secant_scale": secant_scale, "grassmann": grassmann, "catalog": catalog}
