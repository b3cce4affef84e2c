"""Benchmark inputs: the paper's grid cells and 96-qubit cascades as
RevLib ``.real`` text, with their known answers.

The program only ever sees the ``.real`` text (which, unlike QASM 2.0,
carries MCX gates).  The benchmark keeps each cascade's gate list as
plain ``("mcx", (controls..., target))`` tuples for the independent
output check in :mod:`oracle`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

#: Devices of the grid workloads: the two 5-qubit devices and the
#: 14-qubit ibmq_16, under both routes.  (The paper's full grid also
#: has the 16-qubit ibmqx3 and ibmqx5; see README.md for why they are
#: left out of the timed runs.)
GRID_DEVICES: Tuple[str, ...] = ("ibmqx2", "ibmqx4", "ibmq_16")

#: Table 5 cells the paper marks N/A: the 5-wire cascade's MCX needs a
#: spare wire that a 5-qubit device does not have.
TABLE5_NA = {("4gt12-v0_88", "ibmqx2"), ("4gt12-v0_88", "ibmqx4")}

SYNTH_DEVICE = "proposed96"
ROUTES: Tuple[str, ...] = ("ctr", "sabre")


@dataclass(frozen=True)
class Source:
    """One technology-independent input circuit."""

    name: str
    width: int
    ops: Tuple[Tuple[str, Tuple[int, ...]], ...]
    real: str
    #: "table3", "table5" or "table7".
    table: str


@dataclass(frozen=True)
class Cell:
    """One (source, device, route) compile and its known N/A status."""

    source: Source
    device: str
    route: str
    expect_na: bool

    @property
    def id(self) -> str:
        return f"{self.source.name}@{self.device}/{self.route}"


def to_real(name: str, width: int, ops) -> str:
    """The benchmark's own ``.real`` writer (MCX cascades only)."""
    names = [f"x{i}" for i in range(width)]
    lines = [
        ".version 2.0",
        f"# {name}",
        f".numvars {width}",
        ".variables " + " ".join(names),
        ".begin",
    ]
    for _, qubits in ops:
        lines.append(f"t{len(qubits)} " + " ".join(names[q] for q in qubits))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def _source(circuit, table: str) -> Source:
    ops = []
    for gate in circuit.gates:
        if gate.name not in ("X", "CNOT", "TOFFOLI", "MCX"):
            raise ValueError(f"{circuit.name}: {gate.name} is not an MCX-family gate")
        ops.append(("mcx", tuple(gate.qubits)))
    ops = tuple(ops)
    return Source(circuit.name, circuit.num_qubits, ops, to_real(circuit.name, circuit.num_qubits, ops), table)


def grid_sources() -> Tuple[List[Source], float]:
    """The 24 Table 3 functions (synthesized by the program's ESOP
    front-end) and the 5 Table 5 RevLib cascades.  Returns the sources
    and the seconds the front-end spent."""
    from repro.benchlib import revlib, single_target

    started = time.perf_counter()
    table3 = [
        single_target.build_benchmark(name, qubits)
        for name, qubits in single_target.PAPER_STG_BENCHMARKS
    ]
    frontend_s = time.perf_counter() - started
    sources = [_source(c, "table3") for c in table3]
    sources += [_source(c, "table5") for c in revlib.all_benchmarks()]
    return sources, frontend_s


def grid_cells(sources: List[Source], routes=ROUTES, devices=GRID_DEVICES) -> List[Cell]:
    """Every (source, device, route) cell in paper order, with the
    known N/A answer: ``single_target.expected_na`` for Table 3, the
    paper's Table 5 N/A cells for RevLib."""
    from repro.benchlib import single_target
    from repro.devices import get_device

    cells = []
    for route in routes:
        for source in sources:
            for device in devices:
                size = get_device(device).num_qubits
                if source.table == "table3":
                    na = single_target.expected_na(source.name.lstrip("#"), source.width, size)
                else:
                    na = (source.name, device) in TABLE5_NA
                cells.append(Cell(source, device, route, na))
    return cells


def synth_cells() -> List[Cell]:
    """The 5 Table 7 cascades on the 96-qubit machine, both routes."""
    from repro.benchlib import table7

    sources = [_source(c, "table7") for c in table7.all_benchmarks()]
    return [Cell(s, SYNTH_DEVICE, route, False) for route in ROUTES for s in sources]

