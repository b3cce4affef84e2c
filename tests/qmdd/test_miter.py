"""Miter-strategy equivalence checking (repro.qmdd.equivalence).

The miter is a *fast path*, not a different oracle: on every pair the
repo can produce — hand-built cases, the regression corpus, and a
deliberately miscompiled cell — its verdict must match the paper's
two-sided pointer comparison.
"""

import pytest

from repro.backend import toffoli_network
from repro.core import (
    CNOT,
    Gate,
    H,
    QMDDError,
    QuantumCircuit,
    TOFFOLI,
    X,
    Z,
)
from repro.qmdd import QMDDManager, check_equivalence, check_equivalence_miter
from tests.conftest import random_circuit


def _two_sided_oracle(result):
    """The fuzz oracle's question, asked with the two-sided build."""
    from repro.verify import verify_equivalent

    source = result.original.remapped(
        result.placement, num_qubits=result.device.num_qubits
    )
    return verify_equivalent(
        source,
        result.optimized,
        up_to_global_phase=not result.device.supports_gate("CNOT"),
        strategy="two_sided",
        output_permutation=result.output_permutation,
    )


def _both(a, b, **kwargs):
    """(two_sided result, miter result) in independent managers."""
    return (
        check_equivalence(a, b, strategy="two_sided", **kwargs),
        check_equivalence(a, b, strategy="miter", **kwargs),
    )


class TestAgreement:
    def test_equivalent_pair(self):
        a = QuantumCircuit(3, [TOFFOLI(0, 1, 2)])
        b = QuantumCircuit(3, toffoli_network(0, 1, 2))
        two, miter = _both(a, b)
        assert two.exact and miter.exact
        assert two.strategy == "two_sided" and miter.strategy == "miter"

    def test_inequivalent_pair(self):
        c = random_circuit(3, 20, seed=3)
        broken = QuantumCircuit(3, list(c) + [X(1)])
        two, miter = _both(c, broken)
        assert not two.equivalent and not miter.equivalent

    def test_widened_registers(self):
        a = QuantumCircuit(2, [CNOT(0, 1)])
        b = QuantumCircuit(4, [CNOT(0, 1)])  # identity on extra wires
        two, miter = _both(a, b)
        assert two.equivalent and miter.equivalent

    @pytest.mark.parametrize("seed", range(6))
    def test_random_self_pairs(self, seed):
        c = random_circuit(4, 30, seed=seed)
        two, miter = _both(c, c.copy())
        assert two.exact and miter.exact

    @pytest.mark.parametrize("seed", range(6))
    def test_random_near_miss_pairs(self, seed):
        c = random_circuit(4, 30, seed=seed)
        tweaked = QuantumCircuit(4, list(c) + [Z(seed % 4)])
        two, miter = _both(c, tweaked)
        assert two.equivalent == miter.equivalent == False  # noqa: E712

    def test_global_phase_pair(self):
        """Z X = -i Y: phase-only equivalence must look the same through
        both strategies."""
        a = QuantumCircuit(1, [X(0), Z(0)])
        b = QuantumCircuit(1, [Gate("Y", (0,))])
        two, miter = _both(a, b)
        assert two.phase_only and miter.phase_only
        assert not two.equivalent and not miter.equivalent
        two, miter = _both(a, b, up_to_global_phase=True)
        assert two.equivalent and miter.equivalent
        assert not two.exact and not miter.exact


class TestMiterMechanics:
    def test_peak_nodes_reported(self):
        c = random_circuit(4, 40, seed=1)
        result = check_equivalence_miter(c, c.copy())
        assert result.peak_nodes > 0
        assert check_equivalence(c, c.copy()).peak_nodes == 0  # two-sided

    def test_telescoping_keeps_the_product_small(self):
        """For an equivalent pair the running product collapses as it is
        built — its peak stays far below the two-sided diagrams."""
        c = random_circuit(5, 80, seed=2)
        two_manager = QMDDManager(5)
        two = check_equivalence(c, c.copy(), manager=two_manager)
        miter = check_equivalence_miter(c, c.copy())
        assert miter.equivalent and two.equivalent
        assert miter.peak_nodes < two.nodes_first

    def test_unknown_strategy_rejected(self):
        c = QuantumCircuit(1, [H(0)])
        with pytest.raises(QMDDError):
            check_equivalence(c, c.copy(), strategy="sideways")

    def test_narrow_manager_rejected(self):
        manager = QMDDManager(2)
        c = QuantumCircuit(3, [X(2)])
        with pytest.raises(QMDDError):
            check_equivalence_miter(c, c.copy(), manager=manager)


class TestCorpusAgreement:
    """Replay the regression corpus through both strategies."""

    def _compiled_entries(self):
        from repro.batch import CompileJob
        from repro.fuzz.corpus import load_corpus
        from repro.fuzz.harness import build_fuzz_device, resolve_options

        for entry in load_corpus("tests/corpus"):
            device = build_fuzz_device(entry.device)
            options = resolve_options(entry.options)
            yield entry, CompileJob.make(entry.circuit, device, options).run()

    def test_strategies_agree_on_every_corpus_cell(self):
        from repro.fuzz.harness import oracle_check

        checked = 0
        for entry, result in self._compiled_entries():
            miter = oracle_check(result)
            two = _two_sided_oracle(result)
            assert miter.equivalent == two.equivalent, entry.entry_id
            # Historical bugs stay fixed: every cell verifies today.
            assert miter.equivalent, entry.entry_id
            checked += 1
        assert checked > 0, "regression corpus is empty"


class TestInjectedMiscompile:
    def test_miter_catches_a_seeded_miscompile(self, monkeypatch):
        """A deliberately corrupted mapper output (dropped CNOT) must be
        flagged by both strategies — the fast path cannot wave a real
        miscompile through."""
        from repro import compile_circuit
        from repro.benchlib import revlib
        from repro.devices import IBMQX4
        from repro.fuzz.harness import oracle_check

        monkeypatch.setenv("REPRO_FAULT_INJECT", "miscompile:*")
        circuit = revlib.build_benchmark("3_17_14")
        result = compile_circuit(circuit, IBMQX4, verify=False)
        miter = oracle_check(result)
        two = _two_sided_oracle(result)
        assert not miter.equivalent
        assert not two.equivalent
