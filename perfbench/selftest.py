"""Show that the benchmark's checker accepts real routes and rejects broken ones.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py [case02 case05 ...]

Routes each contest case cold through ``repro.api.route_request``, checks
the solution, then feeds the checker each corruption of
:func:`checker.corruptions` and requires a rejection naming the broken
rule.  The same self-test runs at the end of every benchmark run, on the
smallest case that run routed.  Exits 1 when any corruption slips through.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import checker
    import repro.api as api
    from workloads import contest_case_dict

    for name in argv or ["case02", "case05"]:
        response = api.route_request(
            api.RouteRequest(contest_case=name, warm_cache=False, return_solution=True))
        try:
            lines = checker.selftest(contest_case_dict(name), response.solution,
                                     response.critical_delay)
        except checker.CheckError as exc:
            print(f"{name}: FAILED: {exc}")
            return 1
        print(f"{name}: legal route accepted (critical delay {response.critical_delay})")
        for line in lines:
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
