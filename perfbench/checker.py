"""A solution checker written apart from the router's own timing and DRC code.

It reads only the documented interchange layouts, never the router's
objects:

* a case in the JSON case layout (``params``, ``fpgas``, ``sll_edges``,
  ``tdm_edges``, ``nets``), as ``repro.io.case_to_dict`` emits it;
* a solution in the JSON solution layout (``paths``, ``wires``), as
  ``RouteResponse.solution`` carries it, or the line-oriented solution
  text (``PATH``/``WIRE`` lines) that ``repro route --output`` writes,
  read by :func:`parse_solution_text` below.

Direction 0 on a TDM edge runs from its lower die index to its higher
one, the convention of the case format.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Tuple

import networkx as nx

#: Absolute tolerance on delay sums (delays are sums of a few constants).
DELAY_TOLERANCE = 1e-6


class CheckError(AssertionError):
    """A solution broke a rule of the problem."""


class CaseModel:
    """The case facts the checker needs, derived once per case."""

    def __init__(self, case: Mapping[str, Any]) -> None:
        params = case["params"]
        self.d_sll = float(params["d_sll"])
        self.d0 = float(params["d0"])
        self.d1 = float(params["d1"])
        self.tdm_step = int(params["tdm_step"])
        self.num_dies = sum(int(f["num_dies"]) for f in case["fpgas"])
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(self.num_dies))
        for kind, edges in (("sll", case["sll_edges"]), ("tdm", case["tdm_edges"])):
            for die_a, die_b, capacity in edges:
                self.graph.add_edge(
                    int(die_a), int(die_b), kind=kind, capacity=int(capacity)
                )
        #: (net name, sink die) -> source die, one entry per connection: a
        #: sink on another die than its source (a sink on the source die
        #: needs no routing).
        self.connections: Dict[Tuple[str, int], int] = {}
        for net in case["nets"]:
            source = int(net["source"])
            for sink in net["sinks"]:
                if int(sink) != source:
                    self.connections[(str(net["name"]), int(sink))] = source
        self._lower_bound = None

    @property
    def num_connections(self) -> int:
        return len(self.connections)

    def lower_bound(self) -> float:
        """Largest source-to-sink delay on the empty system at ratio tdm_step."""
        if self._lower_bound is None:
            min_tdm = self.d0 + self.d1 * self.tdm_step
            weights = {
                (a, b): self.d_sll if data["kind"] == "sll" else min_tdm
                for a, b, data in self.graph.edges(data=True)
            }
            nx.set_edge_attributes(self.graph, weights, "empty_delay")
            dist = dict(
                nx.all_pairs_dijkstra_path_length(self.graph, weight="empty_delay")
            )
            self._lower_bound = max(
                (dist[source][sink] for (_, sink), source in self.connections.items()),
                default=0.0,
            )
        return self._lower_bound


def _fail(message: str) -> None:
    raise CheckError(message)


def check_solution(
    model: CaseModel, solution: Mapping[str, Any], critical_delay: float
) -> float:
    """Verify a solution against its case; returns the recomputed delay.

    Raises:
        CheckError: naming the first broken rule.
    """
    graph = model.graph
    paths: Dict[Tuple[str, int], Tuple[int, ...]] = {}
    for entry in solution["paths"]:
        key = (str(entry["net"]), int(entry["sink"]))
        if key not in model.connections:
            _fail(f"path for unknown connection {key}")
        if key in paths:
            _fail(f"connection {key} has two paths")
        paths[key] = tuple(int(d) for d in entry["dies"])
    if len(paths) != model.num_connections:
        _fail(f"{model.num_connections - len(paths)} connections are unrouted")

    # Hops of each distinct die path, walked once: (kind, lo die, hi die,
    # direction), direction 0 running from the lower die to the higher.
    hops_of: Dict[Tuple[int, ...], List[Tuple[str, int, int, int]]] = {}
    sll_nets: Dict[Tuple[int, int], set] = {}
    # (net, lo die, hi die, direction) uses that paths make of TDM edges.
    tdm_uses: set = set()
    for (net, sink), dies in paths.items():
        source = model.connections[(net, sink)]
        if dies[0] != source or dies[-1] != sink:
            _fail(f"path of {(net, sink)} runs {dies[0]}->{dies[-1]}, not {source}->{sink}")
        hops = hops_of.get(dies)
        if hops is None:
            if len(set(dies)) != len(dies):
                _fail(f"path of {(net, sink)} revisits a die: {list(dies)}")
            hops = []
            for u, v in zip(dies, dies[1:]):
                if not graph.has_edge(u, v):
                    _fail(f"path of {(net, sink)} hops {u}->{v} with no edge")
                lo, hi = min(u, v), max(u, v)
                hops.append((graph.edges[u, v]["kind"], lo, hi, 0 if u == lo else 1))
            hops_of[dies] = hops
        for kind, lo, hi, direction in hops:
            if kind == "sll":
                sll_nets.setdefault((lo, hi), set()).add(net)
            else:
                tdm_uses.add((net, lo, hi, direction))

    for (lo, hi), nets in sll_nets.items():
        capacity = graph.edges[lo, hi]["capacity"]
        if len(nets) > capacity:
            _fail(f"SLL edge {lo}-{hi} carries {len(nets)} nets over capacity {capacity}")

    ratio_of: Dict[Tuple[str, int, int, int], int] = {}
    wires_per_edge: Dict[Tuple[int, int], int] = {}
    for wire in solution["wires"]:
        lo, hi = int(wire["die_a"]), int(wire["die_b"])
        if lo >= hi or not graph.has_edge(lo, hi) or graph.edges[lo, hi]["kind"] != "tdm":
            _fail(f"wire on {lo}-{hi}, which is no TDM edge in canonical order")
        direction = int(wire["direction"])
        if direction not in (0, 1):
            _fail(f"wire on {lo}-{hi} has direction {direction}")
        ratio = wire["ratio"]
        if ratio != int(ratio) or int(ratio) <= 0 or int(ratio) % model.tdm_step:
            _fail(f"wire on {lo}-{hi} has ratio {ratio}, not a positive multiple of {model.tdm_step}")
        ratio = int(ratio)
        if len(wire["nets"]) > ratio:
            _fail(f"wire on {lo}-{hi} multiplexes {len(wire['nets'])} nets at ratio {ratio}")
        wires_per_edge[(lo, hi)] = wires_per_edge.get((lo, hi), 0) + 1
        for net in wire["nets"]:
            use = (str(net), lo, hi, direction)
            if use not in tdm_uses:
                _fail(f"wire on {lo}-{hi} carries net {net} that does not cross it that way")
            if use in ratio_of:
                _fail(f"net {net} sits on two wires of {lo}-{hi} direction {direction}")
            ratio_of[use] = ratio
    for (lo, hi), count in wires_per_edge.items():
        capacity = graph.edges[lo, hi]["capacity"]
        if count > capacity:
            _fail(f"TDM edge {lo}-{hi} uses {count} wires over capacity {capacity}")
    missing = tdm_uses.difference(ratio_of)
    if missing:
        _fail(f"{len(missing)} TDM crossings have no wire, e.g. {sorted(missing)[0]}")

    # Eq. 1: d_sll per SLL hop, d0 + d1 * r per TDM hop; the objective is
    # the maximum over connections.
    worst = 0.0
    for (net, _), dies in paths.items():
        delay = 0.0
        for kind, lo, hi, direction in hops_of[dies]:
            if kind == "sll":
                delay += model.d_sll
            else:
                delay += model.d0 + model.d1 * ratio_of[(net, lo, hi, direction)]
        worst = max(worst, delay)
    bound = model.lower_bound()
    if critical_delay < bound - DELAY_TOLERANCE:
        _fail(f"critical delay {critical_delay} beats the empty-system bound {bound}")
    if not math.isclose(worst, critical_delay, rel_tol=0.0, abs_tol=DELAY_TOLERANCE):
        _fail(f"reported critical delay {critical_delay} but Eq. 1 gives {worst}")
    return worst


def parse_case_text(text: str) -> Dict[str, Any]:
    """Read the ``PARAM``/``FPGA``/``SLL``/``TDM``/``NET`` case text into the JSON layout."""
    case: Dict[str, Any] = {
        "params": {"d_sll": 0.5, "d0": 2.0, "d1": 0.5, "tdm_step": 8},
        "fpgas": [], "sll_edges": [], "tdm_edges": [], "nets": [],
    }
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        keyword = fields[0]
        if keyword == "PARAM":
            case["params"][fields[1]] = float(fields[2])
        elif keyword == "FPGA":
            case["fpgas"].append({"name": fields[1], "num_dies": int(fields[2])})
        elif keyword in ("SLL", "TDM"):
            edges = case["sll_edges" if keyword == "SLL" else "tdm_edges"]
            edges.append([int(fields[1]), int(fields[2]), int(fields[3])])
        elif keyword == "NET":
            case["nets"].append(
                {"name": fields[1], "source": int(fields[2]), "sinks": [int(f) for f in fields[3:]]}
            )
        else:
            raise CheckError(f"unreadable case line {raw!r}")
    return case


def parse_solution_text(text: str) -> Dict[str, Any]:
    """Read the ``PATH``/``WIRE`` solution text into the JSON layout."""
    paths: List[Dict[str, Any]] = []
    wires: List[Dict[str, Any]] = []
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "PATH" and len(fields) >= 4:
            paths.append(
                {"net": fields[1], "sink": int(fields[2]), "dies": [int(f) for f in fields[3:]]}
            )
        elif fields[0] == "WIRE" and len(fields) >= 5:
            wires.append(
                {
                    "die_a": int(fields[1]),
                    "die_b": int(fields[2]),
                    "direction": int(fields[3]),
                    "ratio": int(fields[4]),
                    "nets": fields[5:],
                }
            )
        else:
            raise CheckError(f"unreadable solution line {raw!r}")
    return {"paths": paths, "wires": wires}


def canonical(solution: Mapping[str, Any]) -> Tuple:
    """An order-free form of a solution, for equality between two routes."""
    paths = sorted((str(p["net"]), int(p["sink"]), tuple(p["dies"])) for p in solution["paths"])
    wires = sorted(
        (int(w["die_a"]), int(w["die_b"]), int(w["direction"]), int(w["ratio"]),
         tuple(str(n) for n in w["nets"]))
        for w in solution["wires"]
    )
    return tuple(paths), tuple(wires)


def corruptions(case: Mapping[str, Any], solution: Mapping[str, Any], critical_delay: float):
    """Deliberately broken variants of a legal solution (or of its case).

    Yields ``(name, case, solution, critical_delay, expected)``; the checker
    must reject each with a message containing ``expected``.
    """
    model = CaseModel(case)
    paths = list(solution["paths"])
    wires = list(solution["wires"])

    def with_paths(new_paths):
        return dict(solution, paths=new_paths)

    yield ("reported delay off by one TDM step", case, solution,
           critical_delay + model.d1 * model.tdm_step, "Eq. 1")
    yield ("reported delay below the empty-system bound", case, solution,
           model.lower_bound() - model.d_sll, "empty-system bound")
    yield ("connection left unrouted", case, with_paths(paths[1:]), critical_delay, "unrouted")
    for index, entry in enumerate(paths):
        dies = entry["dies"]
        far = [d for d in range(model.num_dies)
               if d not in dies and not model.graph.has_edge(dies[0], d)]
        if far:
            broken = dict(entry, dies=[dies[0], far[0]] + list(dies[1:]))
            yield ("path hops between non-adjacent dies", case,
                   with_paths(paths[:index] + [broken] + paths[index + 1:]),
                   critical_delay, "with no edge")
            break
    used_sll: Dict[Tuple[int, int], set] = {}
    for entry in paths:
        for u, v in zip(entry["dies"], entry["dies"][1:]):
            if model.graph.edges[u, v]["kind"] == "sll":
                used_sll.setdefault((min(u, v), max(u, v)), set()).add(entry["net"])
    if used_sll:
        (lo, hi), nets = max(used_sll.items(), key=lambda item: len(item[1]))
        tight = dict(case, sll_edges=[
            [a, b, len(nets) - 1 if (a, b) == (lo, hi) else c]
            for a, b, c in case["sll_edges"]
        ])
        yield ("SLL edge capacity below its use", tight, solution, critical_delay,
               "over capacity")
    if wires:
        bad_ratio = dict(wires[0], ratio=int(wires[0]["ratio"]) + 1)
        yield ("TDM ratio not a multiple of tdm_step", case,
               dict(solution, wires=[bad_ratio] + wires[1:]), critical_delay,
               "positive multiple")
        loaded = next(w for w in wires if w["nets"])
        emptied = dict(loaded, nets=list(loaded["nets"])[1:])
        yield ("TDM crossing taken off its wire", case,
               dict(solution, wires=[emptied if w is loaded else w for w in wires]),
               critical_delay, "have no wire")


def selftest(case: Mapping[str, Any], solution: Mapping[str, Any], critical_delay: float) -> List[str]:
    """Check a legal solution, then show each corruption is rejected.

    Returns one line per corruption; raises :class:`CheckError` when the
    legal solution fails or a corruption slips through.
    """
    check_solution(CaseModel(case), solution, critical_delay)
    lines = []
    for name, bad_case, bad_solution, delay, expected in corruptions(case, solution, critical_delay):
        try:
            check_solution(CaseModel(bad_case), bad_solution, delay)
        except CheckError as exc:
            if expected not in str(exc):
                raise CheckError(f"{name}: rejected for the wrong reason: {exc}") from exc
            lines.append(f"rejected {name}: {exc}")
            continue
        raise CheckError(f"checker accepted a corrupted solution: {name}")
    return lines
