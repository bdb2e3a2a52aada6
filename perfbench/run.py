"""End-to-end benchmark of the die-level router.

Run from the root of a repository checkout (the program is imported from
``src/``)::

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 5 --trace 0

Workloads: ``suite_cold``, ``serve_warm``, ``cli_oneshot`` (see
``perfbench/README.md``).  A run sets up, then routes whole passes of the
workload until at least ``--seconds`` of timed wall time have gone by,
checks everything it routed with the benchmark's own checker, and prints
as its last line one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with times in reference
seconds (``hostspeed``: wall time with the host's speed taken out);
``--trace 1`` runs one
untimed pass, then passes in which every job runs twice, untraced and
traced; it reports the per-layer metrics (per traced pass) and writes
the spans to ``perfbench_out/spans_<workload>_seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

import hostspeed

#: Extra set-ups per run, each in a fresh interpreter; ``setup_s`` is the
#: median of these and the run's own set-up.
SETUP_REPEATS = 2

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "conns_per_s": "1/s",
    "latency_p50_s": "s",
    "delay_geomean": "delay",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.s": "s",
    "benchgen.generate_s": "s",
    "io.case_roundtrip_s": "s",
    "io.case_parse_s": "s",
    "io.solution_write_s": "s",
    "io.solution_mb": "MB",
    "api.resolve_s": "s",
    "artifacts.build_s": "s",
    "artifacts.lookups": "count",
    "artifacts.hit_rate": "ratio",
    "artifacts.evictions": "count",
    "artifacts.cache_mb": "MB",
    "phase1.route_s": "s",
    "phase1.negotiation_rounds": "count",
    "phase1.reroutes": "count",
    "kernel.tree_lookups": "count",
    "kernel.tree_hit_rate": "ratio",
    "phase2.incidence_s": "s",
    "phase2.ta_s": "s",
    "phase2.lgwa_s": "s",
    "phase2.lr_iterations": "count",
    "timing.analyze_s": "s",
    "timing_reroute.moves": "count",
    "resilience.checkpoint_s": "s",
    "resilience.spooled_requests": "count",
    "resilience.checkpoints_per_req": "count",
    "resilience.checkpoint_mb_per_req": "MB",
    "serve.queue_p50_s": "s",
    "serve.run_p50_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set the workload up and print the wall seconds it took")
    return parser.parse_args(argv)


def geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_passes(workload, seconds: float, meter):
    """Whole passes until at least ``seconds`` of timed wall time and at
    least the workload's ``min_passes``.

    The meter's reference work runs after every job, outside the timed wall
    time, for a share of the job's time (at least ``MIN_SAMPLE_S``); each
    outcome's ``speed`` is the host's speed factor from the samples just
    before and just after it.
    Solutions are shelved (``Outcome.shelve``) as soon as the job is timed."""
    wall, outcomes, index, seen = 0.0, [], 0, set()
    before = meter.sample(hostspeed.SHARE)
    while index < workload.min_passes or wall < seconds:
        for job in workload.jobs(index):
            start = time.perf_counter()
            outcome = job(None)
            job_seconds = time.perf_counter() - start
            after = meter.sample(max(hostspeed.SHARE * job_seconds, hostspeed.MIN_SAMPLE_S))
            outcome.wall = job_seconds
            outcome.shelve(outcome.key not in seen)
            seen.add(outcome.key)
            outcome.speed = hostspeed.factor(before[0] + after[0], before[1] + after[1])
            outcomes.append(outcome)
            wall += job_seconds
            before = after
        index += 1
    return wall, outcomes


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def end_to_end(workload, setup_first: float, seconds: float, meter):
    """Set-up samples, then timed passes; returns the outcomes and a
    function that computes the metrics once the outcomes are verified.

    Times are in reference seconds: each job's wall time divided by the
    host's speed factor around it (``hostspeed``)."""
    start = time.perf_counter()
    setup = workload.setup_samples(setup_first, SETUP_REPEATS, meter)
    log(f"set-up samples {[round(s, 3) for s in setup]} reference s "
        f"(set-ups took {time.perf_counter() - start:.1f}s)")
    wall, outcomes = timed_passes(workload, seconds, meter)
    rss = workload.peak_rss_mb()
    reference_wall = sum(o.wall / o.speed for o in outcomes)
    log(f"timed {wall:.1f}s ({reference_wall:.1f} reference s), {len(outcomes)} jobs, "
        f"raw req_per_s {len(outcomes) / wall:.4f}, raw latency_p50_s "
        f"{median([o.seconds for o in outcomes]):.4f}, host speed factor "
        f"{hostspeed.factor(meter.units, meter.seconds):.3f}")

    def metrics() -> Dict[str, float]:
        delays = {o.key: o.critical_delay for o in outcomes if o.ok}
        return {
            "setup_s": median(setup),
            "req_per_s": len(outcomes) / reference_wall,
            "conns_per_s": sum(workload.connections(o.key) for o in outcomes) / reference_wall,
            "latency_p50_s": workload.latency_p50(outcomes, [o.seconds / o.speed for o in outcomes]),
            "delay_geomean": geomean(list(delays.values())),
            "peak_rss_mb": rss,
        }

    return outcomes, metrics


def per_layer(workload, seconds: float, spans_path: Path):
    import layers
    from repro.obs import Tracer
    from workloads import Trace

    import_s = median([_import_seconds(workload.root) for _ in range(3)])
    recorder = layers.SpanRecorder()
    trace = Trace(recorder=recorder, tracer=Tracer(), counters={}, cache={})
    counters, cache = workload.counter_source(trace), workload.artifact_cache()

    def traced(job):
        counters_before = {c: counters.counter(c) for c in layers.COUNTERS} if counters else {}
        cache_before = cache.stats.to_dict() if cache is not None else {}
        if workload.in_process:
            layers.install(recorder)
        try:
            outcome = job(trace)
        finally:
            recorder.uninstall()
        for name, value in counters_before.items():
            trace.counters[name] = trace.counters.get(name, 0) + counters.counter(name) - value
        if cache is not None:
            stats = cache.stats.to_dict()
            for name in ("hits", "misses", "evictions"):
                trace.cache[name] = trace.cache.get(name, 0) + stats[name] - cache_before[name]
        return outcome

    def untraced(job):
        return job(None)

    def timed(run, job):
        start = time.perf_counter()
        outcome = run(job)
        return time.perf_counter() - start, outcome

    # A discarded first pass: the first pass after set-up runs slower than
    # later ones, which would otherwise land in the overhead.
    _, outcomes = workload.run_pass(0, None)
    for outcome in outcomes:
        outcome.shelve(True)
    # Each job runs untraced and traced back to back, in alternating order,
    # so that the host's drift between passes stays out of the overhead.
    ratios, plain_walls, traced_outcomes = [], [], []
    elapsed, index = 0.0, 1
    while index == 1 or elapsed < seconds:
        plain_wall = 0.0
        for position, job in enumerate(workload.jobs(index)):
            if position % 2:
                traced_s, traced_outcome = timed(traced, job)
                plain_s, plain = timed(untraced, job)
            else:
                plain_s, plain = timed(untraced, job)
                traced_s, traced_outcome = timed(traced, job)
            ratios.append(traced_s / plain_s)
            plain_wall += plain_s
            plain.shelve(False)
            traced_outcome.shelve(False)
            outcomes += [plain, traced_outcome]
            traced_outcomes.append(traced_outcome)
            elapsed += plain_s + traced_s
        if cache is not None:
            trace.cache["bytes"] = trace.cache.get("bytes", 0) + layers.cache_bytes(cache)
        plain_walls.append(plain_wall)
        index += 1
    passes = index - 1
    recorder.write(str(spans_path))
    # Traced minus untraced wall of a pass: the median job's relative cost
    # of tracing, applied to the untraced pass.
    overhead = (median(ratios) - 1.0) * median(plain_walls)

    def metrics() -> Dict[str, float]:
        return _layer_metrics(workload, recorder, trace, passes, import_s, overhead,
                              traced_outcomes)

    return outcomes, metrics


def _layer_metrics(workload, recorder, trace, passes, import_s, overhead, traced_outcomes):
    counters, cache_stats = trace.counters, trace.cache
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    tree_lookups = counters.get("kernel.tree_hits", 0) + counters.get("kernel.tree_misses", 0)

    def seconds_of(name: str, **match: Any) -> float:
        return recorder.seconds(name, **match) / passes

    metrics = {
        "import.s": import_s,
        "benchgen.generate_s": seconds_of("benchgen.generate"),
        "io.case_roundtrip_s": seconds_of("io.case_to_dict")
        + seconds_of("io.case_request", inline=True)
        + seconds_of("api.resolve", source="case"),
        "io.case_parse_s": seconds_of("io.case_parse"),
        "io.solution_write_s": seconds_of("io.solution_write"),
        "io.solution_mb": recorder.total("io.solution_write", "bytes") / 1e6 / passes,
        "api.resolve_s": seconds_of("api.resolve"),
        "artifacts.build_s": seconds_of("artifacts.build"),
        "artifacts.lookups": lookups / passes,
        "artifacts.hit_rate": cache_stats.get("hits", 0) / lookups if lookups else 0.0,
        "artifacts.evictions": cache_stats.get("evictions", 0) / passes,
        "artifacts.cache_mb": cache_stats.get("bytes", 0) / 1e6 / passes,
        "phase1.route_s": seconds_of("phase1.route"),
        "phase1.negotiation_rounds": recorder.total("phase1.route", "rounds") / passes,
        "phase1.reroutes": recorder.total("phase1.route", "reroutes") / passes,
        "kernel.tree_lookups": tree_lookups / passes,
        "kernel.tree_hit_rate": (
            counters.get("kernel.tree_hits", 0) / tree_lookups if tree_lookups else 0.0
        ),
        "phase2.incidence_s": seconds_of("phase2.incidence"),
        "phase2.ta_s": seconds_of("phase2.ta"),
        "phase2.lgwa_s": seconds_of("phase2.legalize") + seconds_of("phase2.wires"),
        "phase2.lr_iterations": counters.get("lr.iterations", 0) / passes,
        "timing.analyze_s": seconds_of("timing.analyze"),
        "timing_reroute.moves": recorder.total("router.route", "moves") / passes,
        "resilience.checkpoint_s": seconds_of("resilience.save"),
        "resilience.spooled_requests": 0,
        "resilience.checkpoints_per_req": 0.0,
        "resilience.checkpoint_mb_per_req": 0.0,
        "serve.queue_p50_s": 0.0,
        "serve.run_p50_s": 0.0,
        "trace.overhead_s": overhead,
    }
    metrics.update(workload.layer_extras(traced_outcomes))
    return metrics


def _import_seconds(root: Path) -> float:
    """``import repro.api`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import repro.api; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout.split()[-1])


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout: src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    # Everything the program writes to temporary files stays in the checkout.
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, root)
    # The timed run samples the host's speed; a set-up probe reports raw
    # seconds to the run that started it, and a traced run reports raw times.
    meter = None if args.trace or args.setup_probe else hostspeed.SpeedMeter()
    try:
        started = time.perf_counter()
        workload.setup()
        setup_first = time.perf_counter() - started
        if args.setup_probe:
            print(repr(setup_first))
            return 0
        if args.trace:
            spans_path = root / "perfbench_out" / f"spans_{args.workload}_seed{args.seed}.jsonl"
            outcomes, metrics = per_layer(workload, args.seconds, spans_path)
        else:
            outcomes, metrics = end_to_end(workload, setup_first, args.seconds, meter)
        import checker

        correct = True
        start = time.perf_counter()
        try:
            workload.verify(outcomes)
            for line in checker.selftest(*workload.selftest_input(outcomes)):
                print(f"checker self-test: {line}", file=sys.stderr)
        except checker.CheckError:
            traceback.print_exc()
            correct = False
        log(f"checks took {time.perf_counter() - start:.1f}s")
        values = metrics()
    finally:
        workload.close()
        if meter is not None:
            meter.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    failed = [o for o in outcomes if not o.ok]
    for outcome in failed:
        print(f"failed: {outcome.key}: {outcome.error or 'not legal'}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
