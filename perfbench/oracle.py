"""Independent output check for the benchmark.

A small simulator over the paper's Table 1 gate set that reads the
compiler's output as OpenQASM *text* and the source as the benchmark's
own MCX cascade.  It shares no code with ``repro.verify`` or
``repro.qmdd``: a defect in the program's verifier cannot hide a wrong
output from it.

Two simulators:

* :func:`statevector_matches` — dense statevector on up to 16 wires,
  driven by a seeded random input state (grid cells).
* :func:`basis_state_matches` — sparse basis-state simulation on any
  width (the 96-qubit cells), driven by a seeded classical input and
  compared with plain bit arithmetic over the source cascade.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: One gate of either circuit: (mnemonic, qubits).  Sources use only
#: ``mcx`` (controls..., target), which covers NOT, CNOT and Toffoli.
Op = Tuple[str, Tuple[int, ...]]

_S2 = 1.0 / math.sqrt(2.0)
_W = complex(_S2, _S2)  # e^{i pi/4}
#: Diagonal single-qubit gates as the phase they put on |1>.
_PHASE = {"z": -1.0, "s": 1j, "sdg": -1j, "t": _W, "tdg": _W.conjugate()}
_QASM_LINE = re.compile(r"^([a-z]+)\s+(q\[\d+\](?:\s*,\s*q\[\d+\])*)\s*;$")
_QASM_WIRE = re.compile(r"q\[(\d+)\]")
_NAMES = {"x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx", "cz", "swap", "ccx", "id"}


class OracleError(Exception):
    """The output text holds something the simulator does not model."""


def parse_qasm_ops(text: str) -> Tuple[int, List[Op]]:
    """Read the compiler's OpenQASM 2.0 output into (width, ops)."""
    width = -1
    ops: List[Op] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//") or line.startswith("OPENQASM") or line.startswith("include"):
            continue
        if line.startswith("qreg"):
            width = int(line[line.index("[") + 1:line.index("]")])
            continue
        match = _QASM_LINE.match(line)
        if match is None or match.group(1) not in _NAMES:
            raise OracleError(f"unsupported QASM line: {line!r}")
        qubits = tuple(int(q) for q in _QASM_WIRE.findall(match.group(2)))
        ops.append((match.group(1), qubits))
    if width < 0:
        raise OracleError("no qreg declaration")
    return width, ops


def used_width(ops: Sequence[Op]) -> int:
    """One more than the highest wire any op touches."""
    return max((max(qubits) for _, qubits in ops), default=-1) + 1


# -- dense statevector ------------------------------------------------------


class _Dense:
    """A statevector of ``width`` wires; wire q is bit q of the index."""

    def __init__(self, state: np.ndarray, width: int) -> None:
        self.state = state
        self.width = width
        self._views: Dict[Tuple[int, ...], Tuple[np.ndarray, Dict[int, int]]] = {}

    def _view(self, qubits: Tuple[int, ...]):
        cached = self._views.get(qubits)
        if cached is None:
            dims: List[int] = []
            axis: Dict[int, int] = {}
            upper = self.width
            for q in sorted(set(qubits), reverse=True):
                dims += [1 << (upper - q - 1), 2]
                axis[q] = len(dims) - 1
                upper = q
            dims.append(1 << upper)
            cached = (self.state.reshape(dims), axis)
            self._views[qubits] = cached
        return cached

    def _slices(self, qubits: Tuple[int, ...], fixed: Dict[int, int]):
        view, axis = self._view(qubits)
        index = [slice(None)] * view.ndim
        for q, bit in fixed.items():
            index[axis[q]] = bit
        return view, index, axis

    def controlled_x(self, controls: Sequence[int], target: int) -> None:
        qubits = tuple(controls) + (target,)
        view, index, axis = self._slices(qubits, {c: 1 for c in controls})
        index[axis[target]] = 0
        zero = tuple(index)
        index[axis[target]] = 1
        one = tuple(index)
        saved = view[zero].copy()
        view[zero] = view[one]
        view[one] = saved

    def phase(self, qubits: Sequence[int], factor: complex) -> None:
        view, index, _ = self._slices(tuple(qubits), {q: 1 for q in qubits})
        view[tuple(index)] *= factor

    def hadamard(self, q: int) -> None:
        view, index, axis = self._slices((q,), {})
        index[axis[q]] = 0
        zero = tuple(index)
        index[axis[q]] = 1
        one = tuple(index)
        a = view[zero].copy()
        b = view[one]
        view[zero] = (a + b) * _S2
        view[one] = (a - b) * _S2

    def swap(self, a: int, b: int) -> None:
        view, index, axis = self._slices((a, b), {a: 0, b: 1})
        first = tuple(index)
        index[axis[a]], index[axis[b]] = 1, 0
        second = tuple(index)
        saved = view[first].copy()
        view[first] = view[second]
        view[second] = saved

    def apply(self, name: str, qubits: Tuple[int, ...]) -> None:
        if name in ("x", "cx", "ccx", "mcx"):
            self.controlled_x(qubits[:-1], qubits[-1])
        elif name == "h":
            self.hadamard(qubits[0])
        elif name in _PHASE:
            self.phase(qubits, _PHASE[name])
        elif name == "cz":
            self.phase(qubits, -1.0)
        elif name == "y":  # Y = i X Z
            self.phase(qubits, -1.0)
            self.controlled_x((), qubits[0])
            self.state *= 1j
        elif name == "swap":
            self.swap(*qubits)
        elif name != "id":
            raise OracleError(f"no dense rule for {name}")


def run_dense(ops: Sequence[Op], state: np.ndarray, width: int) -> np.ndarray:
    """Apply ``ops`` to a copy of ``state`` and return the result."""
    sim = _Dense(state.copy(), width)
    for name, qubits in ops:
        sim.apply(name, qubits)
    return sim.state


def statevector_matches(
    source_ops: Sequence[Op],
    output_ops: Sequence[Op],
    output_permutation: Dict[int, int],
    seed: int,
    max_width: int = 16,
    atol: float = 1e-7,
) -> bool:
    """Does the output act like the source on one seeded random state?

    The output is compared exactly (no global-phase freedom): the state
    entering wire ``v`` must leave on ``output_permutation.get(v, v)``.
    """
    moved = [max(v, p) + 1 for v, p in output_permutation.items() if v != p]
    width = max(used_width(source_ops), used_width(output_ops), *moved)
    if width > max_width:
        raise OracleError(f"{width} wires exceed the dense limit {max_width}")
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    state /= np.linalg.norm(state)
    expected = run_dense(source_ops, state, width)
    got = run_dense(output_ops, state, width)
    perm = [output_permutation.get(v, v) for v in range(width)]
    if perm != list(range(width)):
        # Axis for wire q is width-1-q; move source wire v to wire perm[v].
        tensor = expected.reshape((2,) * width)
        dest = [width - 1 - perm[width - 1 - axis] for axis in range(width)]
        expected = np.moveaxis(tensor, list(range(width)), dest).reshape(-1)
    return bool(np.allclose(got, expected, atol=atol))


# -- sparse basis-state simulation -----------------------------------------


class _Sparse:
    """A superposition of basis states as parallel arrays, in a lazy
    Hadamard frame.

    Each stored basis state is ``words`` 64-bit words (wire q is bit
    q % 64 of word q // 64).  The true state is ``H`` on every wire in
    :attr:`frame` applied to the stored one: a Hadamard only toggles
    its wire's frame bit, and gates that stay basis permutations or
    phases under ``H`` conjugation (``HXH = Z``, ``HZH = X``, a CNOT
    with both ends framed is the reversed CNOT, one with only its
    target framed is a CZ) act on the stored state directly.  A wire's
    Hadamard is applied for real only before a gate that needs it —
    which keeps the reversal-heavy CTR outputs from branching into
    millions of terms.
    """

    def __init__(self, bits: int, width: int) -> None:
        self.words = (width + 63) // 64
        self.keys = np.zeros((1, self.words), dtype=np.uint64)
        for w in range(self.words):
            self.keys[0, w] = np.uint64((bits >> (64 * w)) & ((1 << 64) - 1))
        self.amps = np.ones(1, dtype=np.complex128)
        self.frame: set = set()

    def _bit(self, q: int) -> np.ndarray:
        return (self.keys[:, q // 64] >> np.uint64(q % 64)) & np.uint64(1)

    def _flip(self, controls: Sequence[int], target: int) -> None:
        flip = np.ones(len(self.amps), dtype=np.uint64)
        for c in controls:
            flip &= self._bit(c)
        self.keys[:, target // 64] ^= flip << np.uint64(target % 64)

    def _phase(self, qubits: Sequence[int], factor: complex) -> None:
        on = np.ones(len(self.amps), dtype=bool)
        for q in qubits:
            on &= self._bit(q).astype(bool)
        self.amps = np.where(on, self.amps * factor, self.amps)

    def _hadamard(self, q: int) -> None:
        """Apply H on ``q`` to the stored state: branch, then merge
        equal keys and drop vanished terms."""
        bit = self._bit(q)
        mask = np.uint64(1) << np.uint64(q % 64)
        zero = self.keys.copy()
        zero[:, q // 64] &= ~mask
        one = zero.copy()
        one[:, q // 64] |= mask
        sign = np.where(bit.astype(bool), -1.0, 1.0)
        keys = np.concatenate([zero, one])
        amps = np.concatenate([self.amps, self.amps * sign]) * _S2
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        amps = amps[order]
        starts = np.ones(len(keys), dtype=bool)
        starts[1:] = np.any(keys[1:] != keys[:-1], axis=1)
        first = np.flatnonzero(starts)
        amps = np.add.reduceat(amps, first)
        keep = np.abs(amps) > 1e-9
        self.keys = keys[first][keep]
        self.amps = amps[keep]

    def _unframe(self, qubits: Sequence[int]) -> None:
        for q in qubits:
            if q in self.frame:
                self.frame.discard(q)
                self._hadamard(q)

    def apply(self, name: str, qubits: Tuple[int, ...]) -> None:
        framed = [q in self.frame for q in qubits]
        if name == "h":
            self.frame ^= {qubits[0]}
        elif name == "x":
            if framed[0]:
                self._phase(qubits, -1.0)
            else:
                self._flip((), qubits[0])
        elif name == "z":
            if framed[0]:
                self._flip((), qubits[0])
            else:
                self._phase(qubits, -1.0)
        elif name == "cx":
            control, target = qubits
            if framed[0] and framed[1]:
                self._flip((target,), control)
            elif framed[1]:
                self._phase(qubits, -1.0)
            else:
                self._unframe((control,))
                self._flip((control,), target)
        elif name == "swap":
            a, b = qubits
            differ = self._bit(a) ^ self._bit(b)
            for q in (a, b):
                self.keys[:, q // 64] ^= differ << np.uint64(q % 64)
            if framed[0] != framed[1]:
                self.frame ^= {a, b}
        elif name == "id":
            pass
        else:
            self._unframe(qubits)
            if name in ("ccx", "mcx"):
                self._flip(qubits[:-1], qubits[-1])
            elif name in _PHASE:
                self._phase(qubits, _PHASE[name])
            elif name == "cz":
                self._phase(qubits, -1.0)
            elif name == "y":  # Y = i X Z
                self._phase(qubits, -1.0)
                self._flip((), qubits[0])
                self.amps = self.amps * 1j
            else:
                raise OracleError(f"no sparse rule for {name}")

    def finish(self) -> None:
        """Apply every pending frame Hadamard."""
        self._unframe(sorted(self.frame))

    def terms(self) -> int:
        return len(self.amps)


def basis_inputs(source_ops: Sequence[Op], width: int, seed: int) -> List[int]:
    """Two seeded classical inputs: a random one, and the same with
    every control wire set and every target wire cleared, so that each
    MCX of a chained cascade fires in turn (a random input rarely sets
    all controls of a wide MCX)."""
    rng = np.random.default_rng(seed)
    bits = int("".join(str(b) for b in rng.integers(0, 2, size=width)), 2)
    controls = targets = 0
    for _, qubits in source_ops:
        for q in qubits[:-1]:
            controls |= 1 << q
        targets |= 1 << qubits[-1]
    return [bits, (bits | controls) & ~targets]


def classical_output(source_ops: Sequence[Op], bits: int) -> int:
    """The source cascade's output on basis input ``bits``, by bit
    arithmetic (every source op is a multi-controlled NOT)."""
    for name, qubits in source_ops:
        if name != "mcx":
            raise OracleError(f"source op {name} is not an MCX")
        *controls, target = qubits
        if all(bits >> c & 1 for c in controls):
            bits ^= 1 << target
    return bits


def basis_state_matches(
    source_ops: Sequence[Op],
    output_ops: Sequence[Op],
    output_permutation: Dict[int, int],
    width: int,
    bits: int,
) -> Tuple[bool, int]:
    """Run the output on the classical input ``bits``; it must end in
    the source's output basis state (wires permuted as declared), with
    unit amplitude.  Returns (verdict, peak superposed terms)."""
    expected_logical = classical_output(source_ops, bits)
    expected = 0
    for v in range(width):
        if expected_logical >> v & 1:
            expected |= 1 << output_permutation.get(v, v)
    sim = _Sparse(bits, width)
    peak = 1
    for name, qubits in output_ops:
        sim.apply(name, qubits)
        peak = max(peak, sim.terms())
    sim.finish()
    if len(sim.amps) != 1 or abs(abs(sim.amps[0]) - 1.0) > 1e-7:
        return False, peak
    got = 0
    for w in range(sim.words):
        got |= int(sim.keys[0, w]) << (64 * w)
    return got == expected, peak
