"""Benchmark-side spans around the calls into each layer of ``repro``.

The program is not edited: :func:`install` swaps the public functions and
methods each layer exposes for thin wrappers that record a span (name,
start, end, parent span, request id) and restores the originals on
``uninstall``.  Spans stay in memory; :meth:`SpanRecorder.write` dumps
them as JSON lines when the run ends.

Span names (inclusive times; a span contains the spans of the layers it
calls):

=====================  ====================================================
``request``            ``repro.api.route_request`` (in-process and service
                       workers) or ``execute_request`` (CLI)
``api.resolve``        ``repro.api.resolve_case``
``benchgen.generate``  ``repro.benchgen.load_case``
``io.case_to_dict``    ``repro.io.case_to_dict``
``io.case_request``    ``RouteRequest`` construction with an inline case
``io.case_parse``      ``repro.io.parse_case_file``
``io.solution_write``  ``write_solution_file`` as the CLI calls it
``artifacts.build``    ``repro.api.build_artifacts``
``router.route``       ``SynergisticRouter.route``
``phase1.route``       ``InitialRouter.route``
``phase2.incidence``   ``build_incidence`` as the router calls it
``phase2.ta``          ``LagrangianTdmAssigner.solve``
``phase2.legalize``    ``TdmLegalizer.legalize``
``phase2.wires``       ``WireAssigner.assign``
``timing.analyze``     ``TimingAnalyzer.analyze``
``resilience.save``    ``CheckpointManager.save`` (one checkpoint written)
=====================  ====================================================
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._trace_ids = itertools.count(1)
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        root: bool = False,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, kwargs, result)`` may add fields to the span after
        the call returns.
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if root or parent is None:
                trace = next(recorder._trace_ids)
            else:
                trace = parent["trace"]
            span = {"name": name, "trace": trace, "parent": parent["id"] if parent else None}
            with recorder._lock:
                span["id"] = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had_own))

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def seconds(self, name: str, **match: Any) -> float:
        """Total inclusive time of the spans called ``name`` (matching ``match``)."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and all(span.get(k) == v for k, v in match.items())
        )

    def total(self, name: str, field: str) -> float:
        """Sum of a numeric span field over the spans called ``name``."""
        return sum(span.get(field, 0) for span in self.spans if span["name"] == name)

    def extend(self, spans: List[Dict[str, Any]]) -> None:
        """Adopt spans recorded in a child process, renumbering ids and traces."""
        with self._lock:
            offset = len(self.spans)
            traces: Dict[int, int] = {}
            for span in spans:
                trace = traces.setdefault(span["trace"], next(self._trace_ids))
                span = dict(span, id=span["id"] + offset, trace=trace)
                if span["parent"] is not None:
                    span["parent"] += offset
                self.spans.append(span)

    def write(self, path: str) -> None:
        """Dump the spans as JSON lines."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def cache_bytes(cache) -> int:
    """The artifact cache's own estimate of the bytes its entries hold.

    ``ArtifactCache`` keeps this figure for its byte bound and has no
    public accessor for it.
    """
    return int(cache._total_bytes())


#: Program counters a traced run reads from the tracer the router is given.
COUNTERS = ("kernel.tree_hits", "kernel.tree_misses", "lr.iterations")


def _request_source(args, kwargs, result) -> Dict[str, Any]:
    request = args[0] if args else kwargs["request"]
    if request.case is not None:
        return {"source": "case"}
    if request.contest_case is not None:
        return {"source": "contest"}
    if request.case_file is not None:
        return {"source": "file"}
    return {"source": "resume"}


def _inline_case(args, kwargs, result) -> Dict[str, Any]:
    return {"inline": args[0].case is not None}


def _phase1_stats(args, kwargs, result) -> Dict[str, Any]:
    stats = args[0].stats
    return {"rounds": stats.negotiation_rounds, "reroutes": stats.reroutes}


def _timing_moves(args, kwargs, result) -> Dict[str, Any]:
    return {"moves": result.timing_reroute_moves}


def _written_bytes(args, kwargs, result) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(args[0])}


def install(recorder: SpanRecorder, *, cli: bool = False) -> None:
    """Wrap every layer boundary the benchmark measures.

    ``cli`` adds the CLI's own bindings (``repro.cli.main`` imports
    ``load_case``, ``write_solution_file`` and ``execute_request`` by name).
    """
    import repro.api
    import repro.benchgen
    import repro.core.router
    import repro.io
    import repro.serve.service
    from repro.core.initial_routing import InitialRouter
    from repro.core.lagrangian import LagrangianTdmAssigner
    from repro.core.legalization import TdmLegalizer
    from repro.core.wire_assignment import WireAssigner
    from repro.resilience import CheckpointManager
    from repro.timing.analysis import TimingAnalyzer

    wrap = recorder.wrap
    wrap(repro.api, "route_request", "request", root=True)
    wrap(repro.serve.service, "route_request", "request", root=True)
    wrap(repro.api, "resolve_case", "api.resolve", attrs=_request_source)
    wrap(repro.benchgen, "load_case", "benchgen.generate")
    wrap(repro.io, "case_to_dict", "io.case_to_dict")
    wrap(repro.api.RouteRequest, "__post_init__", "io.case_request", attrs=_inline_case)
    wrap(repro.io, "parse_case_file", "io.case_parse")
    wrap(repro.api, "build_artifacts", "artifacts.build")
    wrap(repro.core.router.SynergisticRouter, "route", "router.route", attrs=_timing_moves)
    wrap(InitialRouter, "route", "phase1.route", attrs=_phase1_stats)
    wrap(repro.core.router, "build_incidence", "phase2.incidence")
    wrap(LagrangianTdmAssigner, "solve", "phase2.ta")
    wrap(TdmLegalizer, "legalize", "phase2.legalize")
    wrap(WireAssigner, "assign", "phase2.wires")
    wrap(TimingAnalyzer, "analyze", "timing.analyze")
    wrap(CheckpointManager, "save", "resilience.save")
    if cli:
        import repro.cli.main

        wrap(repro.cli.main, "execute_request", "request", root=True)
        wrap(repro.cli.main, "load_case", "benchgen.generate")
        wrap(repro.cli.main, "write_solution_file", "io.solution_write", attrs=_written_bytes)
