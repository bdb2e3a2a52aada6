"""The three benchmark workloads, driven through the public ``repro`` surface.

Each workload runs in whole *passes*: one pass is the same multiset of
route jobs every time (on ``serve_warm`` and ``cli_oneshot`` in an order
drawn from the run's seed).  A workload

* ``setup()`` -- the program-side work before timing: imports, case
  generation and an untimed warm-up or cache fill (timed as ``setup_s``);
* ``setup_samples(first, repeats, meter)`` -- ``setup_s`` samples in
  reference seconds;
* ``jobs(index)`` -- the route jobs of one pass, each a callable that
  takes the pass's :class:`Trace` (or ``None``) and returns an
  :class:`Outcome`; calling a job twice does the same work twice;
* ``run_pass(index, trace)`` -- one pass, returning its wall time and one
  :class:`Outcome` per route job;
* ``verify(outcomes)`` -- the checks on everything routed, run after the
  timed loop (raises :class:`checker.CheckError`);
* ``connections(key)`` -- the netlist connections one job routes;
* ``latency_p50(outcomes, seconds)`` -- ``latency_p50_s`` from the jobs'
  latencies.

``repro`` is imported inside ``setup`` so that its import time is part of
the set-up that is measured.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers


@dataclass
class Outcome:
    """One route job as the benchmark saw it."""

    key: str
    seconds: float
    ok: bool
    fingerprint: Optional[str] = None
    critical_delay: Optional[float] = None
    solution: Optional[Dict[str, Any]] = None
    queue_seconds: float = 0.0
    run_seconds: float = 0.0
    error: str = ""
    #: Wall seconds of the job as the timed loop saw it, and the host's
    #: speed factor around it (``hostspeed``).
    wall: float = 0.0
    speed: float = 1.0
    #: The solution as JSON text, once :meth:`shelve` has run.
    solution_json: Optional[str] = None

    def shelve(self, first: bool) -> None:
        """Drop the solution object; keep it as JSON text on a job's first
        outcome only (the one the checks read).  Held as objects, the kept
        solutions slowed every later route in the process: on ``suite_cold``
        the second pass's case05 took 0.45-0.58 s against 0.25-0.34 s on the
        first, and with no solution held both passes took the same."""
        if first and self.solution is not None:
            self.solution_json = json.dumps(self.solution)
        self.solution = None


@dataclass
class Trace:
    """What a traced pass records into: benchmark spans and program counters."""

    recorder: layers.SpanRecorder
    tracer: Any
    counters: Dict[str, float]
    cache: Dict[str, float]


def legal(response) -> bool:
    """A response counts as a routed solution only when it is legal."""
    return response.status == "ok" and bool(response.is_legal) and response.conflict_count == 0


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Workload:
    """Shared plumbing; subclasses define the jobs."""

    name = ""
    #: Whether the jobs run in this process (so traced passes install the
    #: layer spans here) or in child processes that install their own.
    in_process = True
    #: Fewest passes a timed run makes, whatever ``--seconds`` is.
    min_passes = 1

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self._models: Dict[str, Any] = {}

    def order(self, items: List[str], index: int) -> List[str]:
        """The pass's jobs in a seeded order (the same seed, the same order)."""
        shuffled = list(items)
        random.Random(f"{self.name}:{self.seed}:{index}").shuffle(shuffled)
        return shuffled

    def setup(self) -> None:
        raise NotImplementedError

    def setup_samples(self, first: float, repeats: int, meter) -> List[float]:
        """``first`` plus ``repeats`` more set-ups, each in a fresh
        interpreter, one after another; each in reference seconds, from a
        sample of the host's speed taken right after it."""
        argv = [sys.executable, str(Path(__file__).with_name("run.py")),
                "--workload", self.name, "--seed", str(self.seed), "--setup-probe"]
        samples = [meter.reference_seconds(first)]
        for _ in range(repeats):
            out = subprocess.run(argv, cwd=self.root, env=child_env(self.root),
                                 stdout=subprocess.PIPE, text=True, timeout=120, check=True)
            samples.append(meter.reference_seconds(float(out.stdout.split()[-1])))
        return samples

    def jobs(self, index: int) -> List[Callable[[Optional[Trace]], Outcome]]:
        raise NotImplementedError

    def run_pass(self, index: int, trace: Optional[Trace]) -> Tuple[float, List[Outcome]]:
        start = time.perf_counter()
        outcomes = [job(trace) for job in self.jobs(index)]
        return time.perf_counter() - start, outcomes

    def model(self, key: str):
        """The checker's view of the case behind ``key`` (built once)."""
        if key not in self._models:
            import checker

            self._models[key] = checker.CaseModel(self.case_dict(key))
        return self._models[key]

    def case_dict(self, key: str) -> Dict[str, Any]:
        raise NotImplementedError

    def connections(self, key: str) -> int:
        return self.model(key).num_connections

    def verify(self, outcomes: List[Outcome]) -> None:
        """Same fingerprint for a job on every pass; every distinct legal
        solution passes the checker."""
        import checker

        seen: Dict[str, Outcome] = {}
        for outcome in outcomes:
            first = seen.setdefault(outcome.key, outcome)
            if outcome.fingerprint != first.fingerprint:
                raise checker.CheckError(f"{outcome.key}: fingerprint changed between passes")
        for key, first in sorted(seen.items()):
            if first.ok:
                checker.check_solution(self.model(key), json.loads(first.solution_json),
                                       first.critical_delay)

    def selftest_input(self, outcomes: List[Outcome]):
        """(case dict, solution, delay) of the smallest legal job, for the
        checker self-test."""
        candidates = [o for o in outcomes if o.ok and o.solution_json is not None]
        best = min(candidates, key=lambda o: self.connections(o.key))
        return self.case_dict(best.key), json.loads(best.solution_json), best.critical_delay

    def latency_p50(self, outcomes: List[Outcome], seconds: List[float]) -> float:
        """``latency_p50_s`` from the outcomes and their latencies."""
        return statistics.median(seconds)

    def layer_extras(self, traced: List[Outcome]) -> Dict[str, float]:
        """Per-layer figures only this workload can give, from its traced jobs."""
        return {}

    def counter_source(self, trace: Trace):
        """The tracer whose program counters a traced pass reads."""
        return trace.tracer

    def artifact_cache(self):
        """The in-process artifact cache the workload routes through, if any."""
        return None

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass

    # -- helpers for in-process workloads ------------------------------
    def route(self, key: str, request, trace: Optional[Trace]) -> Outcome:
        api = self.api
        start = time.perf_counter()
        response = api.route_request(request, tracer=trace.tracer if trace else None)
        seconds = time.perf_counter() - start
        return Outcome(
            key=key, seconds=seconds, ok=legal(response),
            fingerprint=response.fingerprint, critical_delay=response.critical_delay,
            solution=response.solution, run_seconds=response.wall_seconds,
            error=response.error or "",
        )


def contest_case_dict(name: str) -> Dict[str, Any]:
    """A contest case at its default scale, in the JSON case layout."""
    from repro.benchgen import load_case
    from repro.io import case_to_dict
    from repro.timing import DelayModel

    case = load_case(name)
    return case_to_dict(case.system, case.netlist, DelayModel())


class SuiteCold(Workload):
    """Table III flow: every contest case 02-10 at its default scale, cold.

    The jobs run in contest order on every pass and seed: a fixed order
    keeps each job's heap history, and so its time and the peak RSS,
    the same from run to run.
    """

    name = "suite_cold"
    CASES = [f"case{i:02d}" for i in range(2, 11)]
    #: Two passes give every case two samples for its median latency (a
    #: third pass did not narrow the spreads across seeds: the host's
    #: noise, not the number of jobs, sets them).
    min_passes = 2
    WARMUP = ["case02", "case03", "case04", "case05"]

    def setup(self) -> None:
        import repro.api as api

        self.api = api
        for name in self.WARMUP:
            response = api.route_request(api.RouteRequest(contest_case=name, warm_cache=False))
            if not legal(response):
                raise RuntimeError(f"warm-up route of {name} failed: {response.error}")

    def jobs(self, index):
        return [
            functools.partial(self.route, name, self.api.RouteRequest(
                contest_case=name, warm_cache=False, return_solution=True))
            for name in self.CASES
        ]

    def case_dict(self, key):
        return contest_case_dict(key)

    def latency_p50(self, outcomes, seconds):
        """The geometric mean over the nine cases of each case's median
        latency: the jobs are of nine sizes, so the median over all of them
        would be one case's time, two samples of it."""
        by_case: Dict[str, List[float]] = {}
        for outcome, value in zip(outcomes, seconds):
            by_case.setdefault(outcome.key, []).append(value)
        medians = [statistics.median(values) for values in by_case.values()]
        return math.exp(sum(math.log(m) for m in medians) / len(medians))


class ServeWarm(Workload):
    """A RoutingService (shared cache, preemptible) under a closed loop
    with one request in flight."""

    name = "serve_warm"
    #: One pass: small and medium topologies, repeated; most requests are
    #: case05, so the median latency falls among them.  case07 is left
    #: out: one case07 request took half of a pass's wall time (5-7 s of
    #: 10-13 s through the spool), so its jitter alone set the run's
    #: throughput.
    MIX = ["case02", "case04"] + ["case05"] * 6
    #: A pass takes 4-6 s: with one pass as the floor a run made one pass
    #: or two depending on the host's speed, and three give the median
    #: latency 18 case05 requests.
    min_passes = 3
    #: Per pass, one request of each of these bumps its topology's epoch.
    BUMPED = ("case04", "case05")

    def setup(self) -> None:
        import repro.api as api
        from repro.serve import RoutingService

        self.api = api
        # One worker, not the default two: routing is CPU-bound Python, so
        # a second worker adds no throughput under the interpreter lock
        # (measured 0.66 req/s with two workers, 0.69 with one), while each
        # latency then depends on which request it happened to overlap
        # (median-latency spread across seeds 20-35 % with two workers,
        # 19 % with one).
        self.service = RoutingService(workers=1)
        self.epochs = {name: 0 for name in self.MIX}
        self.served = 0
        warm = self.service.route(
            [api.RouteRequest(contest_case=name, tag=name) for name in sorted(set(self.MIX))]
        )
        self.served += len(warm)
        for response in warm:
            if not legal(response):
                raise RuntimeError(f"warm-up request {response.tag} failed: {response.error}")

    def jobs(self, index):
        order = self.order(self.MIX, index)
        rng = random.Random(f"{self.name}:{self.seed}:{index}:bumps")
        bumps = {rng.choice([i for i, name in enumerate(order) if name == b]) for b in self.BUMPED}
        return [functools.partial(self.serve, name, position in bumps)
                for position, name in enumerate(order)]

    def serve(self, name: str, bump: bool, trace: Optional[Trace]) -> Outcome:
        """Submit one request (after bumping its topology's epoch, if asked)
        and wait for its response."""
        if bump:
            self.epochs[name] += 1
        request = self.api.RouteRequest(contest_case=name, epoch=self.epochs[name], tag=name)
        start = time.perf_counter()
        response = self.service.result(self.service.submit(request))
        seconds = time.perf_counter() - start
        self.served += 1
        return Outcome(
            key=name, seconds=seconds, ok=legal(response),
            fingerprint=response.fingerprint, critical_delay=response.critical_delay,
            queue_seconds=response.queue_seconds, run_seconds=response.wall_seconds,
            error=response.error or "",
        )

    def verify(self, outcomes):
        """Every response matches a sequential cold route of its topology,
        and that cold route passes the checker."""
        import checker

        api = self.api
        self.oracles: Dict[str, Any] = {}
        for name in sorted({o.key for o in outcomes}):
            response = api.route_request(
                api.RouteRequest(contest_case=name, warm_cache=False, return_solution=True))
            if not legal(response):
                raise checker.CheckError(f"cold oracle route of {name} failed")
            checker.check_solution(self.model(name), response.solution, response.critical_delay)
            self.oracles[name] = response
        for outcome in outcomes:
            if outcome.ok and outcome.fingerprint != self.oracles[outcome.key].fingerprint:
                raise checker.CheckError(f"{outcome.key}: served fingerprint differs from cold route")

    def selftest_input(self, outcomes):
        name = min(self.oracles, key=self.connections)
        oracle = self.oracles[name]
        return self.case_dict(name), oracle.solution, oracle.critical_delay

    def case_dict(self, key):
        return contest_case_dict(key)

    def counter_source(self, trace):
        return self.service.tracer

    def artifact_cache(self):
        return self.service.cache

    def spool(self) -> Tuple[int, int]:
        """(files, bytes) in the service's checkpoint spool."""
        files = size = 0
        for spool in self.workdir.glob("repro-serve-*"):
            for dirpath, _, names in os.walk(spool):
                files += len(names)
                size += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
        return files, size

    def layer_extras(self, traced):
        files, size = self.spool()
        return {
            "resilience.spooled_requests": self.served,
            "resilience.checkpoints_per_req": files / self.served,
            "resilience.checkpoint_mb_per_req": size / 1e6 / self.served,
            "serve.queue_p50_s": statistics.median(o.queue_seconds for o in traced),
            "serve.run_p50_s": statistics.median(o.run_seconds for o in traced),
        }

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()


class CliOneshot(Workload):
    """``repro route ... --output F``, one child process at a time: case05
    from a case file in the contest text format, case07 generated from
    ``--contest-case``."""

    name = "cli_oneshot"
    #: One pass; the median falls among the case07 calls.
    CASES = ["case05"] + ["case07"] * 6
    #: Cases the CLI reads from a case file written in set-up, so that the
    #: text-format parser is measured too.
    FROM_FILE = ("case05",)
    #: Two passes give the median latency 12 case07 calls over 20-25 s
    #: (quartile spread across ten seeds 7-25 % with one pass).
    min_passes = 2
    in_process = False
    IMPORT = "import repro.cli.unified, repro.cli.main"

    def setup(self) -> None:
        """Writes the case files and makes an untimed warm-up call;
        ``setup_samples`` times the set-up."""
        from repro.benchgen import load_case
        from repro.io import write_case_file
        from repro.timing import DelayModel

        self.out_dir = self.workdir / "cli"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.files: Dict[str, Path] = {}
        for name in self.FROM_FILE:
            case = load_case(name)
            self.files[name] = self.out_dir / f"{name}.txt"
            write_case_file(self.files[name], case.system, case.netlist, DelayModel())
        self.texts: Dict[str, List[bytes]] = {}
        self.call("case05", self.out_dir / "warmup.txt", None)

    def import_child(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.IMPORT], cwd=self.workdir,
                       env=child_env(self.root), check=True, timeout=120)
        return time.perf_counter() - start

    def setup_samples(self, first, repeats, meter):
        """Set-up here is a child interpreter that only imports the CLI."""
        return [meter.reference_seconds(self.import_child()) for _ in range(repeats + 1)]

    def call(self, name: str, output: Path, trace: Optional[Trace]) -> Outcome:
        """One CLI process, timed from spawn to exit; keeps what it wrote."""
        source = (["--case-file", str(self.files[name])] if name in self.files
                  else ["--contest-case", name])
        route_args = ["route"] + source + ["--output", str(output), "--quiet"]
        if trace is None:
            argv = [sys.executable, "-m", "repro.cli.unified"] + route_args
        else:
            argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                    str(output) + ".trace.json"] + route_args
        start = time.perf_counter()
        code = subprocess.run(argv, cwd=self.workdir, env=child_env(self.root),
                              stdout=subprocess.DEVNULL, timeout=170).returncode
        seconds = time.perf_counter() - start
        ok = code == 0 and output.is_file()
        if ok:
            self.texts.setdefault(name, []).append(output.read_bytes())
            output.unlink()
        if trace is not None:
            self.absorb(Path(str(output) + ".trace.json"), trace)
        return Outcome(key=name, seconds=seconds, ok=ok, error="" if ok else f"exit code {code}")

    def jobs(self, index):
        return [functools.partial(self.call, name, self.out_dir / f"p{index}_{position}_{name}.txt")
                for position, name in enumerate(self.order(self.CASES, index))]

    @staticmethod
    def absorb(path: Path, trace: Trace) -> None:
        import json

        data = json.loads(path.read_text())
        path.unlink()
        trace.recorder.extend(data["spans"])
        for name, value in data["counters"].items():
            trace.counters[name] = trace.counters.get(name, 0) + value
        for name, value in data["cache"].items():
            trace.cache[name] = trace.cache.get(name, 0) + value

    def verify(self, outcomes):
        """Each written file, read back, passes the checker and equals the
        in-process route of its case; every call wrote the same file."""
        import checker
        import repro.api as api

        self.oracles: Dict[str, Any] = {}
        for name, texts in sorted(self.texts.items()):
            response = api.route_request(
                api.RouteRequest(contest_case=name, warm_cache=False, return_solution=True))
            self.oracles[name] = response
            written = checker.parse_solution_text(texts[0].decode())
            if checker.canonical(written) != checker.canonical(response.solution):
                raise checker.CheckError(f"{name}: CLI solution differs from the in-process route")
            checker.check_solution(self.model(name), written, response.critical_delay)
            if any(text != texts[0] for text in texts[1:]):
                raise checker.CheckError(f"{name}: CLI wrote different solutions across calls")
        for outcome in outcomes:
            if outcome.ok:
                outcome.critical_delay = self.oracles[outcome.key].critical_delay

    def selftest_input(self, outcomes):
        name = min(self.oracles, key=self.connections)
        oracle = self.oracles[name]
        return self.case_dict(name), oracle.solution, oracle.critical_delay

    def case_dict(self, key):
        if key in self.files:
            import checker

            return checker.parse_case_text(self.files[key].read_text())
        return contest_case_dict(key)

    def counter_source(self, trace):
        return None

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {cls.name: cls for cls in (SuiteCold, ServeWarm, CliOneshot)}
