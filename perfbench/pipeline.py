"""The measured unit of work, untraced and traced.

:func:`compile_cell` is what the end-to-end runs time: parse the
``.real`` text, ``compile_circuit``, emit QASM.

:func:`traced_compile` rebuilds the same compile from the program's
public functions in ``compile_circuit``'s order, with a span around
each call and the stage contracts run where ``compile_circuit`` runs
them.  Its QASM must be byte-identical to :func:`compile_cell`'s, so
the per-layer numbers describe the program the end-to-end run timed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from common import recheck_count

#: Span name -> layer, for the per-layer shares of cell time.
LAYER_OF = {
    "io.parse": "io",
    "io.emit": "io",
    "backend.place": "backend",
    "backend.lower": "backend",
    "backend.expand": "backend",
    "backend.route": "backend",
    "analysis.contracts": "analysis",
    "optimize.run": "optimize",
    "core.metrics": "core",
    "verify.check": "verify",
}
LAYERS = ("io", "backend", "analysis", "optimize", "core", "verify")


def compile_cell(cell, verify):
    """One end-to-end compile of ``cell``; returns (result, qasm)."""
    from repro import compile_circuit
    from repro.io import parse_real

    circuit = parse_real(cell.source.real, name=cell.source.name)
    result = compile_circuit(circuit, cell.device, route=cell.route, verify=verify)
    return result, result.qasm


class Spans:
    """In-memory spans: (name, start, end, parent index, cell id)."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, cell: str):
        parent = self._open[-1] if self._open else None
        index = len(self.rows)
        self.rows.append([name, time.perf_counter(), None, parent, cell])
        self._open.append(index)
        try:
            yield
        finally:
            self.rows[index][2] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.rows if n == name)

    def to_json(self) -> List[Dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "cell": c}
            for n, s, e, p, c in self.rows
        ]


def traced_compile(cell, verify, spans: Spans) -> Dict:
    """Compile ``cell`` call by call under spans.  Returns the QASM, the
    verification report (or None), N/A status and per-cell counts."""
    from repro.analysis import StageContracts
    from repro.backend import (
        expand_to_library,
        identity_placement,
        legalize_cnots,
        lower_mcx_for_device,
        route_cost_in_swaps,
        route_sabre,
    )
    from repro.core import CircuitMetrics, NotSynthesizableError
    from repro.devices import get_device
    from repro.io import parse_real, to_qasm
    from repro.optimize import LocalOptimizer
    from repro.verify import verify_equivalent

    cid = cell.id
    out: Dict = {"na": False, "qasm": None, "report": None}
    with spans.span("cell", cid):
        with spans.span("io.parse", cid):
            circuit = parse_real(cell.source.real, name=cell.source.name)
        device = get_device(cell.device)
        contracts = StageContracts(device=device, strict=False)
        try:
            with spans.span("backend.place", cid):
                placement = identity_placement(circuit, device)
                placed = circuit.remapped(placement, num_qubits=device.num_qubits)
            with spans.span("analysis.contracts", cid):
                contracts.check("input", circuit)
            with spans.span("backend.lower", cid):
                lowered = lower_mcx_for_device(placed, device, mcx_mode="barenco")
        except NotSynthesizableError:
            out["na"] = True
            return out
        with spans.span("analysis.contracts", cid):
            contracts.check("lowered", lowered, active_qubits=placed.used_qubits)
        with spans.span("backend.expand", cid):
            expanded = expand_to_library(lowered)
        permutation: Dict[int, int] = {}
        with spans.span("backend.route", cid):
            if cell.route == "sabre":
                routing = route_sabre(expanded, device.coupling_map)
                legal = routing.circuit
                swaps = routing.swap_count
                permutation = routing.output_permutation
            else:
                legal = legalize_cnots(expanded, device)
                swaps = sum(
                    2 * route_cost_in_swaps(g.qubits[0], g.qubits[1], device.coupling_map)
                    for g in expanded
                    if g.name == "CNOT"
                )
        with spans.span("analysis.contracts", cid):
            contracts.check("mapped", legal, device=device)
        optimizer = LocalOptimizer(
            device.cost_function, device.coupling_map, gate_set=device.gate_set
        )
        with spans.span("optimize.run", cid):
            optimized = optimizer.run(legal)
        with spans.span("core.metrics", cid):
            before = CircuitMetrics.of(legal, device.cost_function)
            after = CircuitMetrics.of(optimized, device.cost_function)
        with spans.span("analysis.contracts", cid):
            contracts.check("optimized", optimized, device=device)
            contracts.check_cost("optimized", before.cost, after.cost)
        if verify:
            with spans.span("verify.check", cid):
                source = circuit.remapped(placement, num_qubits=device.num_qubits)
                out["report"] = verify_equivalent(
                    source,
                    optimized,
                    method="auto" if verify is True else verify,
                    up_to_global_phase=not device.supports_gate("CNOT"),
                    output_permutation=permutation,
                )
            _, start, end, _, _ = spans.rows[-1]
            out["verify_s"] = end - start
        with spans.span("io.emit", cid):
            out["qasm"] = to_qasm(optimized)
    report = optimizer.last_report
    out.update(
        swaps=swaps,
        mapped_gates=len(legal),
        rounds=report.rounds if report is not None else 0,
        removed_gates=len(legal) - len(optimized),
    )
    return out


def layer_shares(spans: Spans) -> Dict[str, float]:
    """Each layer's share of the summed cell time."""
    total = spans.seconds("cell")
    busy = {layer: 0.0 for layer in LAYERS}
    for name, layer in LAYER_OF.items():
        busy[layer] += spans.seconds(name)
    return {layer: (busy[layer] / total if total else 0.0) for layer in LAYERS}


def hit_share(counters: Dict[str, float], stem: str) -> float:
    hits = counters.get(f"{stem}_hits", 0)
    misses = counters.get(f"{stem}_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def qmdd_layer(delta: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """QMDD and recheck figures from a registry delta."""
    counters, gauges = delta["counters"], delta["gauges"]
    return {
        "qmdd.peak_nodes": max(
            gauges.get("verify.miter_peak_nodes", 0), gauges.get("qmdd.peak_unique_nodes", 0)
        ),
        "qmdd.apply_hit_share": hit_share(counters, "qmdd.apply"),
        "qmdd.add_hit_share": hit_share(counters, "qmdd.add"),
        "qmdd.gc_sweeps": counters.get("qmdd.gc_sweeps", 0),
        "verify.rechecks": recheck_count(counters),
    }


def traced_pass(cells, verify) -> Dict:
    """Run :func:`traced_compile` over ``cells``; return per-layer
    metrics, the spans and each cell's QASM."""
    from repro.obs import get_metrics

    spans = Spans()
    registry = get_metrics()
    snapshot = registry.snapshot()
    started = time.perf_counter()
    qasm: Dict[str, Optional[str]] = {}
    methods: Dict[str, int] = {}
    totals = {"swaps": 0, "mapped_gates": 0, "rounds": 0, "removed_gates": 0}
    yes = 0.0
    for cell in cells:
        out = traced_compile(cell, verify, spans)
        qasm[cell.id] = out["qasm"]
        if out["na"]:
            continue
        for key in totals:
            totals[key] += out[key]
        if out["report"] is not None:
            method = out["report"].method
            methods[method] = methods.get(method, 0) + 1
            if out["report"].equivalent:
                yes += out["verify_s"]
    wall = time.perf_counter() - started
    delta = registry.since(snapshot)
    metrics = {
        "io.parse_s": spans.seconds("io.parse"),
        "io.emit_s": spans.seconds("io.emit"),
        "backend.place_s": spans.seconds("backend.place"),
        "backend.lower_s": spans.seconds("backend.lower"),
        "backend.expand_s": spans.seconds("backend.expand"),
        "backend.route_s": spans.seconds("backend.route"),
        "backend.swaps": totals["swaps"],
        "backend.mapped_gates": totals["mapped_gates"],
        "analysis.contracts_s": spans.seconds("analysis.contracts"),
        "optimize.run_s": spans.seconds("optimize.run"),
        "optimize.rounds": totals["rounds"],
        "optimize.removed_gates": totals["removed_gates"],
        "core.metrics_s": spans.seconds("core.metrics"),
        "verify.yes_s": yes,
        "verify.method.qmdd": methods.get("qmdd", 0),
        "verify.method.prescreen": methods.get("prescreen", 0),
        "verify.method.sampled": methods.get("sampled", 0),
    }
    metrics.update(qmdd_layer(delta))
    for layer, share in layer_shares(spans).items():
        metrics[f"share.{layer}"] = share
    return {"metrics": metrics, "wall_s": wall, "qasm": qasm, "spans": spans.to_json()}
