"""hetsed benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload walkthrough --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` and exits with code 2, printing no result, when that is missing.
Set-up (imports, fixture generation and a warm-up pass that makes the
reference outputs) is timed apart from the measured passes, here and in two
fresh processes.  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and the metrics that BENCHMARK.json
lists: its ``end_to_end`` set with ``--trace 0``, its ``per_layer`` set with
``--trace 1``.  Everything runs on one thread and nothing waits in a queue,
so no waiting time is reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # the same on every commit measured
SETUP_REPEATS = 3  # set-ups measured: this process's own and fresh ones
SETUP_TIMEOUT_S = 120
MIN_TRACED_PASSES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up once and print the outcome: how a run times fresh set-ups
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "blas_threads": BLAS_THREADS}


def _tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode())
        digest.update(hashlib.sha256(file.read_bytes()).digest())
    return digest.hexdigest()


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    # before numpy loads: its BLAS reads the thread count once, at start-up
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "hetsed" / "__init__.py").is_file():
        print(f"error: no hetsed sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    start = perf_counter()
    sys.path.insert(0, str(src))
    import hetsed
    from hetsed import augment, cli, config, core, domain_gen, evaluation, fdy, features
    from hetsed import formats, postprocess, synth, training

    if Path(hetsed.__file__).resolve().parent != (src / "hetsed").resolve():
        print(f"error: imported hetsed from {hetsed.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    import_s = perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload]()
    try:
        if args.setup_only:
            setup_s, digest, runner = _set_up(workloads, workload, work, args.seed, checked=False)
            print(json.dumps({"setup_s": import_s + setup_s, "digest": digest,
                              "outputs": runner.outputs, "problems": runner.problems}))
            return 0
        print("environment " + json.dumps(_environment(args)), flush=True)
        modules = [hetsed, augment, cli, config, core, domain_gen, evaluation, fdy, features,
                   formats, postprocess, synth, training]
        result = _measure(args, spec, workloads, workload, tracing.Tracer(modules), work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _set_up(workloads, workload, work: Path, seed: int, checked: bool = True):
    """Generate the fixture in an empty directory and warm every code path
    with one pass, whose outputs become the reference: (time, fixture digest,
    runner).  Only the generation and the pass's operations are timed;
    ``checked`` adds the independent output checks."""
    shutil.rmtree(work, ignore_errors=True)
    begin = perf_counter()
    workload.generate(work, seed)
    generate_s = perf_counter() - begin
    digest = _tree_digest(work)
    runner = workloads.Runner()
    workload.run_pass(runner, work, reference_pass=checked)
    runner.finish(None)
    return generate_s + runner.wall, digest, runner


def _fresh_set_up(args) -> dict:
    """One set-up in a new process, so that one-off costs show every time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0"]
    try:
        child = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        return json.loads(child.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError):
        return {}


def _measure(args, spec, workloads, workload, tracer, work: Path, import_s: float) -> dict:
    problems: list[str] = []
    setup_s, digest, reference = _set_up(workloads, workload, work, args.seed)
    setup_s = [import_s + setup_s]
    checks = SETUP_REPEATS - 1
    for _ in range(checks):
        fresh = _fresh_set_up(args)
        if "setup_s" not in fresh:
            problems.append("a fresh set-up process failed")
        elif fresh["digest"] != digest:
            problems.append("fixture generation gave different files for one seed")
        elif fresh["outputs"] != reference.outputs or fresh["problems"]:
            problems.append("a fresh set-up's pass differs from the reference pass")
        if "setup_s" in fresh:
            setup_s.append(fresh["setup_s"])

    traced, untraced, summaries = [], [], []
    begin = perf_counter()
    while (perf_counter() - begin < args.seconds or not untraced
           or (args.trace and len(traced) < MIN_TRACED_PASSES)):
        use_tracer = bool(args.trace) and len(traced) <= len(untraced)
        runner = workloads.Runner(tracer if use_tracer else None)
        if use_tracer:
            tracer.reset()
            tracer.install()
        try:
            workload.run_pass(runner, work, reference_pass=False)
        finally:
            tracer.uninstall()
        runner.finish(reference.outputs)
        if use_tracer:
            traced.append(runner)
            summaries.append(tracer.summary())
        else:
            untraced.append(runner)

    for later in summaries[1:]:
        checks += 1
        changed = sorted(k for k in set(summaries[0]) | set(later)
                         if not k.endswith("_s") and summaries[0].get(k, 0) != later.get(k, 0))
        if changed:
            problems.append(f"counts changed between traced passes: {changed[:5]}")

    runners = [reference, *traced, *untraced]
    attempted = checks + sum(r.attempted for r in runners)
    failed = len(problems) + sum(r.failed for r in runners)
    for runner in runners:
        problems.extend(f"{op}: {why}" for op, why in runner.problems.items())
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    if args.trace:
        values = _layers(summaries, traced, untraced)
        values["error_rate"] = failed / attempted
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": _median(r.wall for r in untraced),
            "setup_s": _median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layers(summaries: list[dict], traced, untraced) -> dict:
    """Per-pass layer metrics: counts from any traced pass, times as medians."""
    values = {k: v for k, v in summaries[0].items() if not k.endswith("_s")}
    for key in {k for s in summaries for k in s if k.endswith("_s")}:
        values[key] = _median(s.get(key, 0.0) for s in summaries)
    for stage in {stage for r in untraced for stage in r.stages}:
        values[f"stage.{stage}_s"] = _median(r.stages.get(stage, 0.0) / r.ops_in(stage) for r in untraced)
    values["trace.wall_traced_s"] = _median(r.wall for r in traced)
    values["trace.wall_untraced_s"] = _median(r.wall for r in untraced)
    values["trace.overhead_s"] = values["trace.wall_traced_s"] - values["trace.wall_untraced_s"]
    return values


if __name__ == "__main__":
    sys.exit(main())
