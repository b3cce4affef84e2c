#!/usr/bin/env python3
"""Known-bad refutation report: does the verifier say NO to a miscompile?

Run from the repository root::

    python3 perfbench/refute.py --seed 1

Draws :data:`PAIRS` known-bad pairs by seed from the paper's full Table
3/5 grid (all five paper devices) under both routes.  Each pair is a
source circuit and its optimized mapping with one mutation:

* ``drop`` — delete one seeded gate;
* ``rare`` — append an MCX controlled on every device wire but one,
  which differs from the source on 2 of 2^n basis inputs.

Every pair is checked with ``repro.verify.verify_equivalent(...,
output_permutation=...)`` exactly as ``compile_circuit`` calls it.  The
known answer is *not equivalent* for every pair; the independent
simulator of :mod:`oracle` confirms it where the width allows.  Each
wrong verdict is printed with its cell, route, mutation and deciding
method.  The draw is never filtered, re-drawn or cut short, by cost or
by outcome, so one pair can take minutes.

This is not one of the timed workloads of ``BENCHMARK.json``: at the
time it was written the program gives wrong verdicts here, and a timed
workload must be one on which no operation fails.  The last stdout line
is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import zlib

from common import OUT, recheck_count, require_program

#: Pairs drawn per seed.  Fixed: the draw is never shrunk.
PAIRS = 24
PAPER_DEVICES = ("ibmqx2", "ibmqx3", "ibmqx4", "ibmqx5", "ibmq_16")


def draw(seed: int):
    """Seeded (cell, route, mutation, gate index or target) draws."""
    import inputs
    from repro import compile_circuit
    from repro.core import NotSynthesizableError
    from repro.io import parse_real

    sources, _ = inputs.grid_sources()
    cells = [c for c in inputs.grid_cells(sources, devices=PAPER_DEVICES) if not c.expect_na]
    rng = random.Random(seed)
    compiled = {}
    plan = []
    for _ in range(PAIRS):
        cell = rng.choice(cells)
        kind = rng.choice(("drop", "rare"))
        if cell.id not in compiled:
            circuit = parse_real(cell.source.real, name=cell.source.name)
            try:
                compiled[cell.id] = compile_circuit(circuit, cell.device, route=cell.route, verify=False)
            except NotSynthesizableError:
                raise SystemExit(f"{cell.id}: unexpectedly N/A")
        result = compiled[cell.id]
        if kind == "drop":
            where = rng.randrange(len(result.optimized.gates))
        else:
            where = rng.randrange(result.device.num_qubits)
        plan.append((cell, kind, where, result))
    return plan


def mutate(result, kind: str, where: int):
    from repro import MCX, QuantumCircuit

    gates = list(result.optimized.gates)
    width = result.device.num_qubits
    if kind == "drop":
        del gates[where]
    else:
        controls = [q for q in range(width) if q != where]
        gates.append(MCX(*controls, where))
    return QuantumCircuit(width, gates, name=result.optimized.name)


def oracle_differs(cell, result, kind: str, where: int, seed: int):
    """Independent confirmation of the known answer: apply the same
    mutation to the emitted QASM and simulate (None past 16 wires)."""
    import oracle

    width = result.device.num_qubits
    if width > 16:
        return None
    _, ops = oracle.parse_qasm_ops(result.qasm)
    if kind == "drop":
        del ops[where]
    else:
        ops.append(("mcx", tuple(q for q in range(width) if q != where) + (where,)))
    source_ops = [
        (name, tuple(result.placement[q] for q in qubits)) for name, qubits in cell.source.ops
    ]
    return not oracle.statevector_matches(source_ops, ops, dict(result.output_permutation), seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not require_program("refute"):
        return 2
    from repro.obs import get_metrics
    from repro.verify import verify_equivalent

    plan = draw(args.seed)
    registry = get_metrics()
    before = registry.snapshot()
    rows = []
    for index, (cell, kind, where, result) in enumerate(plan):
        mutated = mutate(result, kind, where)
        source = result.original.remapped(result.placement, num_qubits=result.device.num_qubits)
        started = time.perf_counter()
        report = verify_equivalent(
            source, mutated, method="auto",
            up_to_global_phase=not result.device.supports_gate("CNOT"),
            output_permutation=dict(result.output_permutation),
        )
        seconds = time.perf_counter() - started
        confirmed = oracle_differs(cell, result, kind, where, zlib.crc32(f"{args.seed}:{index}".encode()))
        row = {
            "cell": cell.source.name, "device": cell.device, "route": cell.route,
            "mutation": kind, "where": where, "wires": result.device.num_qubits,
            "verdict": "equivalent" if report.equivalent else "not equivalent",
            "method": report.method, "detail": report.detail,
            "overturned": "(recheck:" in report.detail,
            "seconds": seconds, "oracle_confirms_bad": confirmed,
        }
        rows.append(row)
        status = "WRONG" if report.equivalent else "ok"
        print(
            f"{status:5} {cell.source.name}@{cell.device}/{cell.route} {kind}@{where} "
            f"wires={row['wires']} method={report.method} {seconds:.3f}s "
            f"oracle_confirms_bad={confirmed} {report.detail}",
            flush=True,
        )
    counters = registry.since(before)["counters"]
    wrong = [r for r in rows if r["verdict"] == "equivalent"]
    no_seconds = sorted(r["seconds"] for r in rows if r["verdict"] != "equivalent")
    summary = {
        "seed": args.seed,
        "pairs": len(rows),
        "wrong_verdicts": len(wrong),
        "refute_s.p50": no_seconds[len(no_seconds) // 2] if no_seconds else None,
        "refute_s.max": no_seconds[-1] if no_seconds else None,
        "verify.no_s": sum(no_seconds),
        "verify.rechecks": recheck_count(counters),
        "verify.overturned": sum(r["overturned"] for r in rows),
        "verify.method": {m: sum(r["method"] == m for r in rows) for m in sorted({r["method"] for r in rows})},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"refute-{args.seed}.json"), "w") as handle:
        json.dump({"summary": summary, "pairs": rows}, handle, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
