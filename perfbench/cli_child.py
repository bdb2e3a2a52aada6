"""Run one ``repro`` CLI command with the benchmark's layer spans installed.

Usage::

    python3 perfbench/cli_child.py OUT.json route --contest-case case05 --output sol.txt --quiet

Behaves like ``python3 -m repro.cli.unified route ...`` (same exit code)
and, when the command returns, writes the spans it recorded, the
counters the program published on the tracer handed to the router, and
the process-wide artifact-cache statistics to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys

import layers


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = layers.SpanRecorder()
    layers.install(recorder, cli=True)
    import repro.api
    import repro.cli.main
    import repro.cli.unified
    from repro.obs import Tracer

    tracer = Tracer()
    traced_execute = repro.cli.main.execute_request

    def execute_with_tracer(request, **kwargs):
        kwargs["tracer"] = tracer
        return traced_execute(request, **kwargs)

    repro.cli.main.execute_request = execute_with_tracer
    try:
        return repro.cli.unified.main(argv)
    finally:
        cache = repro.api.default_artifact_cache()
        with open(out_path, "w") as handle:
            json.dump(
                {
                    "spans": recorder.spans,
                    "counters": {name: tracer.counter(name) for name in layers.COUNTERS},
                    "cache": dict(cache.stats.to_dict(), bytes=layers.cache_bytes(cache)),
                },
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())
