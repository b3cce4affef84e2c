"""End-to-end compiler facade (the paper's Fig. 2 flow).

:func:`compile_circuit` runs the whole tool on an already-quantum input:
map to the device, optimize under its cost function, formally verify,
and report the paper's metric triples.  :func:`compile_classical_function`
adds the classical front-end: truth table -> minimized ESOP -> reversible
cascade -> the same back-end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Union

from .analysis.contracts import StageContracts
from .analysis.diagnostics import DiagnosticReport
from .core.circuit import QuantumCircuit
from .core.cost import CircuitMetrics, CostFunction
from .devices.device import Device, get_device
from .backend.mapper import identity_placement, map_circuit_outcome
from .obs import NULL_TRACER, Tracer, get_metrics
from .optimize.local import LocalOptimizer
from .verify.equivalence import VerificationReport, require_equivalent
from .frontend.truth_table import TruthTable
from .frontend.cascade import synthesize_truth_table
from .core.exceptions import SynthesisError


@dataclass
class CompilationResult:
    """Everything one compiler invocation produced."""

    original: QuantumCircuit
    device: Device
    unoptimized: QuantumCircuit
    optimized: QuantumCircuit
    unoptimized_metrics: CircuitMetrics
    optimized_metrics: CircuitMetrics
    verification: Optional[VerificationReport]
    synthesis_seconds: float
    placement: Dict[int, int] = field(default_factory=dict)
    #: Final wire permutation ``{input wire -> output wire}`` left by
    #: dynamic-layout routing (``route="sabre"``): the state that
    #: entered physical wire ``v`` leaves :attr:`optimized` on wire
    #: ``output_permutation[v]``.  Empty for the CTR route (which swaps
    #: everything back) and under ``restore_layout=True``.  Verification
    #: already accounts for it; consumers reading output wires must
    #: apply it.
    output_permutation: Dict[int, int] = field(default_factory=dict)
    #: Routing strategy that produced the mapping (``"ctr"``/``"sabre"``).
    route: str = "ctr"
    #: Stage-contract findings recorded during this compile (empty when
    #: everything conformed or analysis was disabled).
    diagnostics: DiagnosticReport = field(default_factory=DiagnosticReport)
    #: Per-stage trace summary (see :mod:`repro.obs.trace`), present when
    #: the compile ran with ``trace=True`` or an explicit tracer.  A
    #: JSON-safe nested-span document; render with
    #: :func:`repro.obs.stage_rows` or export with
    #: :func:`repro.obs.write_chrome_trace`.
    trace: Optional[Dict] = None
    #: Dataflow facts of this compile (JSON-safe), present only when the
    #: caller asserted ``known_zero`` wires: the physical fact set, what
    #: constant propagation deleted/demoted, and the exit basis facts of
    #: the final circuit.  ``None`` on the default path — no analysis
    #: runs without facts.
    dataflow: Optional[Dict] = None

    @property
    def percent_cost_decrease(self) -> float:
        """The paper's Tables 4/6/8 quantity."""
        return self.unoptimized_metrics.percent_decrease_to(self.optimized_metrics)

    @property
    def qasm(self) -> str:
        """The final technology-dependent circuit as OpenQASM 2.0 — the
        tool's output artifact (Fig. 2)."""
        from .io.qasm import to_qasm

        return to_qasm(self.optimized)

    def row(self) -> str:
        """A paper-style table cell: unopt and opt ``T/gates/cost``."""
        return f"{self.unoptimized_metrics}  {self.optimized_metrics}"

    def __str__(self) -> str:
        verified = (
            "unverified"
            if self.verification is None
            else f"verified[{self.verification.method}]"
        )
        extra = f", {self.diagnostics.summary()}" if self.diagnostics else ""
        return (
            f"<compiled {self.original.name or 'circuit'} -> {self.device.name}: "
            f"unopt {self.unoptimized_metrics}, opt {self.optimized_metrics}, "
            f"{verified}, {self.synthesis_seconds * 1e3:.1f} ms{extra}>"
        )


def compile_circuit(
    circuit: QuantumCircuit,
    device: Union[Device, str],
    optimize: bool = True,
    verify: Union[bool, str] = True,
    placement: Union[None, str, Dict[int, int]] = None,
    cost_function: Optional[CostFunction] = None,
    mcx_mode: str = "barenco",
    analyze: bool = True,
    strict: bool = False,
    trace: bool = False,
    tracer: Optional[Tracer] = None,
    known_zero: Iterable[int] = (),
    route: str = "ctr",
    restore_layout: bool = False,
) -> CompilationResult:
    """Compile a technology-independent circuit for ``device``.

    ``verify`` may be False, True (method chosen automatically: QMDD when
    narrow enough, sparse sampling beyond), or an explicit method name
    (``"qmdd"``, ``"dense"``, ``"sampled"``).  Verification failure raises
    :class:`~repro.core.exceptions.VerificationError` — a mapped output
    never leaves the compiler unless it provably matches its source.
    The QMDD check is the incremental miter against the identity; a NO
    is re-asked only by exact methods (two-sided build, then the dense
    unitary up to 10 wires), never overturned by sampling.

    ``placement`` is an explicit logical→physical dict, a strategy name
    (``"identity"``, ``"greedy"``, ``"refined"`` — see
    :mod:`repro.backend.placement`), or None for the paper's default
    identity placement.

    ``analyze`` runs the static stage contracts
    (:mod:`repro.analysis.contracts`) after each pipeline stage: coupling
    legality and native-gate-set conformance post-mapping and
    post-optimization, Barenco ancilla restoration post-lowering, and
    the cost-monotonicity guard across the optimizer.  In the default
    mode findings are recorded on ``CompilationResult.diagnostics``;
    with ``strict=True`` any error-severity finding raises
    :class:`~repro.core.exceptions.ContractViolation` at the offending
    stage, before verification runs.

    ``trace=True`` (or an explicit ``tracer``) records nested per-stage
    spans — placement, lowering, routing, each optimizer fixpoint
    iteration with its cost delta, verification — and attaches the
    summary to :attr:`CompilationResult.trace`.  Tracing is default-off
    and its disabled cost is a few no-op calls per compile.

    ``known_zero`` asserts that the listed *logical* wires start in |0⟩
    (e.g. a fresh target wire of a single-target-gate cascade, or clean
    hardware ancillas).  The facts are translated through the placement,
    handed to the optimizer's dataflow constant-propagation pass (which
    may delete routing/decomposition gates that are provably inert on
    that subspace) and to verification, which then checks equivalence
    restricted to the same subspace.  Without facts this costs nothing.

    ``route`` selects CNOT legalization: ``"ctr"`` (the paper's
    Connectivity-Tree Reroute — every distant CNOT swaps there and
    back, wires keep their identity) or ``"sabre"`` (dynamic-layout
    routing — about half the SWAPs, but the output wires end permuted;
    the permutation is recorded on
    :attr:`CompilationResult.output_permutation` and verification
    composes its inverse into the equivalence check).  With
    ``restore_layout=True`` the sabre path appends the device-legal
    uncompute SWAP tail instead, for consumers that need wire identity.
    """
    if isinstance(device, str):
        device = get_device(device)
    cost = cost_function or device.cost_function
    contracts = (
        StageContracts(device=device, strict=strict)
        if analyze or strict
        else None
    )
    if tracer is None and trace:
        tracer = Tracer()
    t = tracer if tracer is not None else NULL_TRACER

    start = time.perf_counter()
    with t.span(
        "compile",
        circuit=circuit.name or "circuit",
        device=device.name,
        gates_in=len(circuit),
    ) as root:
        with t.span("placement"):
            if placement is None:
                placement = identity_placement(circuit, device)
            elif isinstance(placement, str):
                from .backend.placement import choose_placement

                placement = choose_placement(
                    circuit, device, strategy=placement
                )
        # Input facts arrive on logical wires; everything downstream of
        # placement (optimizer, verifier) sees physical indices.
        physical_zero = frozenset(
            placement[q]
            for q in known_zero
            if 0 <= q < circuit.num_qubits and q in placement
        )
        if contracts is not None:
            with t.span("analyze.input"):
                contracts.check("input", circuit)
        with t.span("map") as map_span:
            mapping = map_circuit_outcome(
                circuit,
                device,
                placement,
                mcx_mode=mcx_mode,
                contracts=contracts,
                tracer=tracer,
                route=route,
                restore_layout=restore_layout,
            )
            unoptimized = mapping.unoptimized
            output_permutation = mapping.output_permutation
            map_span.set(gates_out=len(unoptimized))
        if contracts is not None:
            with t.span("analyze.mapped"):
                contracts.check("mapped", unoptimized, device=device)
        dataflow_stats = None
        if optimize:
            optimizer = LocalOptimizer(
                cost,
                device.coupling_map,
                gate_set=device.gate_set,
                tracer=tracer,
                known_zero=physical_zero,
            )
            with t.span("optimize") as opt_span:
                optimized = optimizer.run(unoptimized)
                # getattr: stand-in optimizers (fault-injection tests)
                # define only run().
                opt_report = getattr(optimizer, "last_report", None)
                dataflow_stats = getattr(optimizer, "last_dataflow", None)
                if opt_report is not None:
                    opt_span.set(
                        rounds=opt_report.rounds,
                        cost_before=opt_report.initial_cost,
                        cost_after=opt_report.final_cost,
                    )
        else:
            optimized = unoptimized
        elapsed = time.perf_counter() - start

        with t.span("metrics"):
            unoptimized_metrics = CircuitMetrics.of(unoptimized, cost)
            optimized_metrics = CircuitMetrics.of(optimized, cost)
        if contracts is not None:
            with t.span("analyze.optimized"):
                contracts.check("optimized", optimized, device=device)
                if optimize:
                    contracts.check_cost(
                        "optimized",
                        unoptimized_metrics.cost,
                        optimized_metrics.cost,
                    )

        report: Optional[VerificationReport] = None
        if verify:
            method = verify if isinstance(verify, str) else "auto"
            with t.span("verify") as verify_span:
                source = circuit.remapped(
                    placement, num_qubits=device.num_qubits
                )
                # Rebased technology targets (no native CNOT, e.g.
                # trapped-ion) equal their sources only up to a global
                # phase per entangler.
                phase_free = not device.supports_gate("CNOT")
                report = require_equivalent(
                    source, optimized, method=method,
                    up_to_global_phase=phase_free,
                    known_zero=physical_zero,
                    output_permutation=output_permutation,
                )
                verify_span.set(
                    method=report.method, equivalent=report.equivalent
                )
        root.set(gates_out=len(optimized))

    dataflow_payload: Optional[Dict] = None
    if physical_zero:
        if dataflow_stats is not None:
            # The optimizer's propagation sweep already walked the final
            # circuit; reuse its exit facts instead of re-analyzing.
            exit_facts = dict(dataflow_stats.exit_facts)
        else:  # optimize=False: one explicit analysis pass
            from .analysis.dataflow_analyzers import dataflow_summary

            exit_facts = {
                wire: value
                for wire, value in dataflow_summary(
                    optimized, assume_zero=physical_zero
                )["exit_facts"].items()
                if value in ("zero", "one")
            }
        dataflow_payload = {
            "known_zero": sorted(physical_zero),
            "constant_propagation": (
                dataflow_stats.to_payload()
                if dataflow_stats is not None else None
            ),
            "exit_facts": exit_facts,
        }

    metrics = get_metrics()
    metrics.inc("compile.calls")
    metrics.inc("compile.seconds", elapsed)
    return CompilationResult(
        original=circuit,
        device=device,
        unoptimized=unoptimized,
        optimized=optimized,
        unoptimized_metrics=unoptimized_metrics,
        optimized_metrics=optimized_metrics,
        verification=report,
        synthesis_seconds=elapsed,
        placement=placement,
        output_permutation=output_permutation,
        route=route,
        diagnostics=(
            contracts.report if contracts is not None else DiagnosticReport()
        ),
        trace=tracer.to_summary() if tracer is not None else None,
        dataflow=dataflow_payload,
    )


def compile_classical_function(
    function: Union[TruthTable, str],
    device: Union[Device, str],
    num_inputs: Optional[int] = None,
    effort: str = "fprm",
    **kwargs,
) -> CompilationResult:
    """Full Fig. 2 flow for a classical switching function.

    ``function`` is a :class:`TruthTable` or a hex truth-table string (in
    which case ``num_inputs`` is required).  The front-end produces the
    reversible cascade; the back-end maps it to ``device``.
    """
    if isinstance(function, str):
        if num_inputs is None:
            raise SynthesisError("num_inputs required with a hex function name")
        table = TruthTable.from_hex(function, num_inputs)
        name = f"#{function}"
    else:
        table = function
        name = kwargs.pop("name", "classical")
    cascade = synthesize_truth_table(table, effort=effort, name=name)
    return compile_circuit(cascade, device, **kwargs)
