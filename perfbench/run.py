#!/usr/bin/env python3
"""The repository benchmark: verified technology-dependent compiles.

Run from the repository root::

    python3 perfbench/run.py --workload grid-ctr --seed 1 --seconds 36 --trace 0

Workloads (see README.md for why each was chosen):

* ``grid-ctr`` / ``grid-sabre`` — the Table 3 functions and Table 5
  RevLib cascades on the grid devices, ``compile_circuit(route=...,
  verify="auto")``, serially;
* ``synth-96q`` — the Table 7 cascades on the 96-qubit machine under
  both routes, unverified.

Each timed pass compiles every cell once in a fresh process; passes
repeat while another one fits in ``--seconds`` (default: ``run_seconds``
of ``BENCHMARK.json``).

The program sees only ``.real`` circuit text.  Every output is checked
against a known answer (N/A status, the verifier's verdict, an
independent simulation of the emitted QASM, and in traced runs the
QASM ``repro serve`` answers).  The last stdout line is one JSON
object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run that rebuilds the
pipeline from the program's public functions, and of the workload's
cells replayed through ``repro serve``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from typing import Dict, List

from common import OUT, ROOT, require_program, spec

SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "cell_s.p50": "s",
    "cell_s.p90": "s",
    "out_gates": "gates",
    "out_cost": "cost",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "frontend.synth_s": "s",
    "io.parse_s": "s",
    "io.emit_s": "s",
    "backend.place_s": "s",
    "backend.lower_s": "s",
    "backend.expand_s": "s",
    "backend.route_s": "s",
    "backend.swaps": "count",
    "backend.mapped_gates": "gates",
    "analysis.contracts_s": "s",
    "optimize.run_s": "s",
    "optimize.rounds": "count",
    "optimize.removed_gates": "gates",
    "core.metrics_s": "s",
    "verify.yes_s": "s",
    "verify.rechecks": "count",
    "verify.method.qmdd": "count",
    "verify.method.prescreen": "count",
    "verify.method.sampled": "count",
    "qmdd.peak_nodes": "nodes",
    "qmdd.apply_hit_share": "share",
    "qmdd.add_hit_share": "share",
    "qmdd.gc_sweeps": "count",
    "share.io": "share",
    "share.backend": "share",
    "share.analysis": "share",
    "share.optimize": "share",
    "share.core": "share",
    "share.verify": "share",
    "trace.overhead": "ratio",
    "cache.hit_share": "share",
    "cache.stores": "count",
    "serve.service_s.p50": "s",
    "serve.hit_s.p50": "s",
    "serve.wait_s.p50": "s",
    "serve.wait_s.p90": "s",
    "serve.rejected": "count",
    "serve.payload_bytes": "bytes",
    "check.wrong_verdicts": "count",
    "check.mismatches": "count",
    "check.error_share": "share",
}


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a share
    ``q`` of the samples at or below it.  (Interpolating would put the
    median of a two-cluster sample, such as the 96-qubit cells' SABRE
    and CTR times, in the empty gap between the clusters.)"""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def route_quantile(samples: Dict[str, List[float]], q: float) -> float:
    """Geometric mean over routes of each route's :func:`quantile`, so
    that a workload compiling under both routes (whose times form one
    cluster per route) reports percentiles that move with either."""
    logs = [math.log(quantile(values, q)) for values in samples.values()]
    return math.exp(sum(logs) / len(logs))


def cell_seed(seed: int, cell_id: str) -> int:
    return zlib.crc32(f"{seed}:{cell_id}".encode())


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- inputs and setup ------------------------------------------------------


def workload_cells(workload: str):
    """(cells, verify option, front-end seconds) of a compile workload."""
    import inputs

    if workload == "synth-96q":
        return inputs.synth_cells(), False, 0.0
    sources, frontend_s = inputs.grid_sources()
    route = workload.split("-", 1)[1]
    return inputs.grid_cells(sources, routes=(route,)), "auto", frontend_s


def setup_probe(workload: str) -> None:
    """What a user pays before the first compile: imports and the
    front-end synthesis of the workload's inputs."""
    import repro  # noqa: F401

    workload_cells(workload)


def setup_samples(workload: str) -> List[float]:
    """Wall seconds of :data:`SETUP_REPEATS` fresh setup probes.  (No
    wait timeout: with one, ``subprocess`` polls the child in steps of
    up to 50 ms, which would quantize the measurement.)"""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload],
            cwd=ROOT, check=True,
        )
        samples.append(time.perf_counter() - started)
    return samples


# -- checks ----------------------------------------------------------------


class Ledger:
    """Attempts, failures and the lines that explain each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong_verdicts = 0
        self.mismatches = 0
        self.rejected = 0

    def fail(self, kind: str, cell, detail: str = "", method: str = "-") -> None:
        self.failed += 1
        if kind == "wrong_verdict":
            self.wrong_verdicts += 1
        if kind == "output_mismatch":
            self.mismatches += 1
        print(
            f"FAIL {kind} cell={cell.source.name} device={cell.device} "
            f"route={cell.route} method={method} {detail}".rstrip(),
            flush=True,
        )


def oracle_check(cell, placement, permutation, qasm: str, seed: int) -> bool:
    """Independent simulation of the emitted QASM against the source."""
    import oracle

    width, output_ops = oracle.parse_qasm_ops(qasm)
    placement = {int(k): v for k, v in placement.items()}
    permutation = {int(k): v for k, v in permutation.items()}
    source_ops = [
        (name, tuple(placement[q] for q in qubits)) for name, qubits in cell.source.ops
    ]
    if width <= 16:
        return oracle.statevector_matches(source_ops, output_ops, permutation, seed)
    return all(
        oracle.basis_state_matches(source_ops, output_ops, permutation, width, bits)[0]
        for bits in oracle.basis_inputs(source_ops, width, seed)
    )


# -- compile workloads -----------------------------------------------------


def pass_child(args) -> None:
    """One timed pass in a fresh process: every cell compiled once, as
    a user's first compile of it would run (the program's QMDD pools
    warm across cells of a pass, and a second pass in the same process
    would mostly measure their caches).  Prints one JSON object."""
    from repro.core import NotSynthesizableError, VerificationError
    from pipeline import compile_cell

    cells, verify, _ = workload_cells(args.workload)
    rows = []
    started = time.perf_counter()
    for cell in cells:
        t0 = time.perf_counter()
        row = {"id": cell.id}
        try:
            result, qasm = compile_cell(cell, verify)
            row["seconds"] = time.perf_counter() - t0
            report = result.verification
            row.update(
                outcome="ok",
                qasm=qasm if args.pass_index == 0 else hashlib.sha256(qasm.encode()).hexdigest(),
                placement=result.placement,
                permutation=result.output_permutation,
                gates=result.optimized_metrics.gate_volume,
                cost=result.optimized_metrics.cost,
                method=report.method if report else None,
                equivalent=report.equivalent if report else None,
            )
        except NotSynthesizableError:
            row.update(seconds=time.perf_counter() - t0, outcome="na")
        except VerificationError as error:
            row.update(seconds=time.perf_counter() - t0, outcome="wrong_verdict",
                       detail=str(error).splitlines()[0])
        except Exception as error:  # counted as a failure by the parent
            row.update(seconds=time.perf_counter() - t0, outcome="error", detail=repr(error))
        rows.append(row)
    print(json.dumps({
        "wall_s": time.perf_counter() - started,
        "rss_mb": own_peak_rss_mb(),
        "rows": rows,
    }))


def run_child(args, flag: str, *extra: str) -> Dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), flag, "--workload", args.workload,
         "--seed", str(args.seed), *extra],
        cwd=ROOT, check=True, timeout=600, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_passes(args) -> List[Dict]:
    """Fresh-process passes while one more of the median pass length
    still fits in ``--seconds`` (at least one)."""
    passes: List[Dict] = []
    lengths: List[float] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started + statistics.median(lengths) <= args.seconds:
        pass_started = time.perf_counter()
        passes.append(run_child(args, "--pass-child", "--pass-index", str(len(passes))))
        lengths.append(time.perf_counter() - pass_started)
    return passes


def judge_row(cell, row: Dict, first: Dict, ledger: Ledger, verify, seed: int) -> bool:
    """Check one compile against the cell's known answer; True when it
    compiled, verified and passed the independent output check."""
    outcome = row["outcome"]
    method = row.get("method") or "-"
    if outcome == "na" or cell.expect_na:
        if outcome != "na" or not cell.expect_na:
            ledger.fail("na_mismatch", cell, f"expected {'N/A' if cell.expect_na else 'a compile'}, got {outcome}")
            return False
        return False
    if outcome != "ok":
        ledger.fail(outcome, cell, row.get("detail", ""), method=method)
        return False
    if verify and not row["equivalent"]:
        ledger.fail("wrong_verdict", cell, "result not verified equivalent", method=method)
        return False
    if row is not first:
        if first["outcome"] != "ok" or row["qasm"] != hashlib.sha256(first["qasm"].encode()).hexdigest():
            ledger.fail("error", cell, "QASM differs between passes", method=method)
            return False
        return True
    try:
        ok = oracle_check(cell, row["placement"], row["permutation"], row["qasm"], cell_seed(seed, cell.id))
    except Exception as error:  # the oracle could not model the output
        ledger.fail("output_mismatch", cell, f"oracle: {error!r}", method=method)
        return False
    if not ok:
        ledger.fail("output_mismatch", cell, method=method)
    return ok


def compile_workload(args) -> Dict:
    cells, verify, _ = workload_cells(args.workload)
    setup = setup_samples(args.workload)
    passes = timed_passes(args)

    ledger = Ledger()
    by_id = {c.id: c for c in cells}
    compiled = []
    samples: Dict[str, List[float]] = {c.id: [] for c in cells}
    first_rows = {row["id"]: row for row in passes[0]["rows"]}
    for result in passes:
        for row in result["rows"]:
            cell = by_id[row["id"]]
            ledger.attempted += 1
            samples[cell.id].append(row["seconds"])
            ok = judge_row(cell, row, first_rows[cell.id], ledger, verify, args.seed)
            if ok and result is passes[0]:
                compiled.append(cell)
    per_cell = {cid: statistics.median(v) for cid, v in samples.items()}
    by_route: Dict[str, List[float]] = {}
    for cell in compiled:
        by_route.setdefault(cell.route, []).extend(samples[cell.id])
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "cells_per_s": len(compiled) / sum(per_cell.values()),
        "cell_s.p50": route_quantile(by_route, 0.5),
        "cell_s.p90": route_quantile(by_route, 0.9),
        "out_gates": sum(first_rows[c.id]["gates"] for c in compiled),
        "out_cost": sum(first_rows[c.id]["cost"] for c in compiled),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    print(
        f"# {args.workload}: {len(cells)} cells, {len(compiled)} compiled and checked, "
        f"{len(passes)} pass(es) {', '.join(f'{w:.2f}s' for w in walls)}",
        flush=True,
    )
    if args.trace:
        reference = {
            cid: (row["qasm"] if row["outcome"] == "ok" else None) for cid, row in first_rows.items()
        }
        metrics = traced_metrics(args, reference, statistics.median(walls), ledger)
        metrics.update(serve_layer([by_id[cid] for cid, q in reference.items() if q is not None],
                                   verify, reference, ledger))
    return finish(args, ledger, metrics)


def traced_metrics(args, reference: Dict[str, str], untraced_wall: float, ledger: Ledger) -> Dict:
    """Run the traced pipeline in a fresh process (so QMDD pools are as
    cold as the untraced pass's) and check its QASM byte for byte."""
    child = run_child(args, "--traced-child")
    cells = {c.id: c for c in workload_cells(args.workload)[0]}
    for cid, digest in child["qasm_sha256"].items():
        expected = reference.get(cid)
        expected = hashlib.sha256(expected.encode()).hexdigest() if expected is not None else None
        if digest != expected:
            ledger.fail("trace_mismatch", cells[cid], "traced QASM differs from compile_circuit's")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(child["metrics"])
    metrics["trace.overhead"] = child["wall_s"] / untraced_wall
    print(
        f"# traced pass {child['wall_s']:.2f}s vs untraced {untraced_wall:.2f}s; "
        f"spans in {os.path.relpath(child['spans_path'], ROOT)}",
        flush=True,
    )
    return metrics


def traced_child(args) -> None:
    from pipeline import traced_pass

    cells, verify, frontend_s = workload_cells(args.workload)
    traced = traced_pass(cells, verify)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(traced["spans"], handle)
    metrics = dict(traced["metrics"], **{"frontend.synth_s": frontend_s})
    print(json.dumps({
        "metrics": metrics,
        "wall_s": traced["wall_s"],
        "spans_path": path,
        "qasm_sha256": {
            cid: (hashlib.sha256(q.encode()).hexdigest() if q is not None else None)
            for cid, q in traced["qasm"].items()
        },
    }))


# -- serve layer -----------------------------------------------------------


def serve_layer(cells, verify, reference: Dict[str, str], ledger: Ledger) -> Dict:
    """Replay the compiled cells through ``repro serve`` in two waves
    (see :mod:`serveload`) and check every answer: status 200, QASM
    byte-identical to ``compile_circuit``'s, ``from_cache`` false in
    the first wave and true in the second.  Service time is the
    daemon's own ``seconds`` for first-wave compiles; a hit's time is
    the whole round trip of a second-wave request; wait is round trip
    minus service time, over both waves."""
    import serveload
    from repro.batch.serialize import result_from_payload

    proc, port = serveload.start_daemon(ROOT)
    try:
        serveload.request(port, "GET", "/metrics")  # the scrape baseline
        waves = [serveload.wave(port, cells, verify) for _ in range(2)]
        status, scrape = serveload.request(port, "GET", "/metrics")
    finally:
        serveload.stop_daemon(proc)
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    cache = json.loads(scrape)["cache"]
    services, hits, waits, sizes = [], [], [], []
    rejected = 0
    for repeat, records in enumerate(waves):
        for record in records:
            cell = record["cell"]
            ledger.attempted += 1
            if record["status"] != 200:
                rejected += record["status"] == 429
                ledger.fail("error", cell, f"serve HTTP {record['status']}: {record['body'][:200]!r}")
                continue
            answer = json.loads(record["body"])
            latency = record["answered"] - record["sent"]
            if repeat:
                hits.append(latency)
            else:
                services.append(answer["seconds"])
            waits.append(latency - answer["seconds"])
            sizes.append(len(record["body"]))
            result = result_from_payload(answer["result"])
            if result is None or result.qasm != reference[cell.id]:
                ledger.fail("output_mismatch", cell, "served QASM differs from compile_circuit's")
            elif answer["from_cache"] != bool(repeat):
                ledger.fail("error", cell, f"from_cache={answer['from_cache']} in wave {repeat + 1}")
    print(f"# serve leg: 2 waves of {len(cells)} requests", flush=True)
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "cache.hit_share": cache.get("hits", 0) / lookups if lookups else 0.0,
        "cache.stores": cache.get("stores", 0),
        "serve.service_s.p50": quantile(services, 0.5),
        "serve.hit_s.p50": quantile(hits, 0.5),
        "serve.wait_s.p50": quantile(waits, 0.5),
        "serve.wait_s.p90": quantile(waits, 0.9),
        "serve.rejected": rejected,
        "serve.payload_bytes": statistics.mean(sizes),
    }


# -- output ----------------------------------------------------------------


def finish(args, ledger: Ledger, metrics: Dict) -> Dict:
    if args.trace:
        metrics["check.wrong_verdicts"] = ledger.wrong_verdicts
        metrics["check.mismatches"] = ledger.mismatches
        metrics["check.error_share"] = ledger.failed / max(ledger.attempted, 1)
        units = PER_LAYER
    else:
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}", flush=True)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-ctr", "grid-sabre", "synth-96q"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not require_program("perfbench"):
        return 2
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.traced_child:
        traced_child(args)
        return 0
    if args.pass_child:
        pass_child(args)
        return 0
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    print(json.dumps(compile_workload(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
