"""grasec benchmark: end-to-end and per-layer cost of the exact F_p rank engine.

Run from the root of a grasec checkout:

    python3 perfbench/run.py --workload secant_scale --seed 0 --seconds 30 --trace 0

One process drives the public library as a closed loop with one client:
each query starts when the previous one returns, with no threads.  Every
answer is checked against its certified value.

``--trace 0`` prints the ``end_to_end`` metrics of BENCHMARK.json:
``setup_s`` is the median time for a fresh interpreter to import grasec,
the others are medians over warm passes of the workload's query list.
``--trace 1`` runs untraced passes, then traced passes with every public
function of each layer module wrapped (see tracing.py), and prints the
``per_layer`` metrics; ``tracing.overhead_s`` is the traced minus the
untraced median pass time.  Count metrics must repeat exactly across the
traced passes, or the run is reported incorrect.

The last line of standard output is the result object.  A full record of
the run (per-pass times, result digests, machine facts, absent functions)
and, when tracing, the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_LAUNCHES = 11
OVERHEAD = "tracing.overhead_s"


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    query_s: list[float] = field(default_factory=list)
    answers: list[object] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        text = json.dumps(self.answers, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def run_pass(queries: list[workloads.Query]) -> PassResult:
    """Run each query once; time the calls, then check the answers."""
    result = PassResult()
    for query in queries:
        error = None
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            raw = query.call()
        except Exception:  # a failed query is counted, the pass goes on
            traceback.print_exc()
            error = "raised"
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        result.wall_s += wall
        result.cpu_s += cpu
        result.query_s.append(wall)
        if error is None:
            answer, error = query.check(raw)
            result.answers.append(answer)
        if error is not None:
            result.failures.append(f"{query.label}: {error}")
    return result


def run_passes(queries, budget_s: float, min_passes: int, before_pass=None) -> list[PassResult]:
    """Passes until the next one would end past ``budget_s``, at least ``min_passes``."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        if before_pass is not None:
            before_pass(len(passes))
        passes.append(run_pass(queries))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + passes[-1].wall_s > budget_s:
            return passes


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing grasec (and its CLI) from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import grasec, grasec.cli"]
    subprocess.run(command, env=env, check=True)  # writes bytecode caches; not timed
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def import_layers() -> tuple[dict, list[str]]:
    """Import every layer module that exists; name the missing ones."""
    sys.path.insert(0, str(SRC))
    grasec = importlib.import_module("grasec")
    if not Path(grasec.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"grasec imported from {grasec.__file__}, not from {SRC}")
    modules, missing = {}, []
    for layer in tracing.LAYERS:
        try:
            modules[layer] = importlib.import_module(f"grasec.{layer}")
        except ModuleNotFoundError as exc:
            if exc.name != f"grasec.{layer}":
                raise
            missing.append(layer)
    return modules, missing


def machine_facts() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def end_to_end(setup: list[float], passes: list[PassResult]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "query_max_s": statistics.median(max(p.query_s) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: tracing.Tracer, untraced, traced, units: dict[str, str]):
    """Layer metrics over the traced passes, and the count metrics that did not repeat."""
    by_pass = [tracer.pass_metrics(i) for i in range(len(traced))]
    metrics, unstable = {}, []
    for name in units:
        if name == OVERHEAD or (name not in by_pass[0] and not tracer.absent(name)):
            continue  # not a metric the tracer knows: reported as not computed
        values = [m.get(name, 0) for m in by_pass]
        if units[name] == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
    metrics[OVERHEAD] = (
        statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
    )
    return metrics, unstable, by_pass


def write_spans(path: Path, tracer: tracing.Tracer) -> None:
    names = sorted({span[tracing.NAME] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    origin = tracer.spans[0][tracing.START] if tracer.spans else 0.0
    rows = [
        [index[s[tracing.NAME]], round((s[tracing.START] - origin) * 1e9),
         round((s[tracing.END] - origin) * 1e9), s[tracing.PARENT], s[tracing.PASS],
         int(s[tracing.RAISED])]
        for s in tracer.spans
    ]
    payload = {"names": names, "fields": ["name", "start_ns", "end_ns", "parent", "pass", "raised"],
               "spans": rows}
    with gzip.open(path, "wt", encoding="utf-8") as out:
        json.dump(payload, out, separators=(",", ":"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grasec" / "__init__.py").is_file():
        print(f"error: no grasec sources under {SRC}; run from a grasec checkout", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[group]}

    setup = [] if args.trace else measure_setup()
    modules, missing_layers = import_layers()
    queries = workloads.WORKLOADS[args.workload](modules, args.seed)

    warmup = run_pass(queries[:1])  # lazy imports, caches and bytecode; not timed
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(), "missing_layers": missing_layers}
    if args.trace:
        untraced = run_passes(queries, args.seconds / 2, 1)
        tracer = tracing.Tracer()
        with tracer.installed(modules):
            traced = run_passes(queries, args.seconds / 2, 2,
                                before_pass=lambda i: setattr(tracer, "pass_id", i))
        metrics, unstable, by_pass = per_layer(tracer, untraced, traced, units)
        passes = untraced + traced
        record.update(
            absent=sorted(name for name in units if name != OVERHEAD
                          and name not in by_pass[0] and tracer.absent(name)),
            counts_not_repeated=unstable,
            traced_passes=by_pass,
            untraced_wall_s=[p.wall_s for p in untraced],
            traced_wall_s=[p.wall_s for p in traced],
        )
    else:
        passes = run_passes(queries, args.seconds, 1)
        metrics = end_to_end(setup, passes)
        unstable = []
        record["setup_launches_s"] = setup

    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    failures = warmup.failures + [f for p in passes for f in p.failures]
    attempted = len(warmup.query_s) + sum(len(p.query_s) for p in passes)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name in unstable:
        print(f"FAILED count {name} differs between traced passes", file=sys.stderr)
    result = {
        "correct": not failures and not unstable,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(
        passes=[{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "query_s": p.query_s, "digest": p.digest}
                for p in passes],
        digest=passes[0].digest,
        digest_stable=len({p.digest for p in passes}) == 1,
        failed_frac=len(failures) / attempted,
        failures=failures,
        result=result,
    )

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        write_spans(OUT / f"{stem}-spans.json.gz", tracer)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, digest {record['digest'][:16]}, "
          f"record {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
