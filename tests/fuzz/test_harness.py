"""The differential fuzz harness end to end.

The acceptance test for the whole robustness layer lives here: a seeded
miscompile injected into the mapper must be *caught* by the fuzz oracle
and *shrunk* to a minimal cascade of at most 8 gates.
"""

import pytest

from repro.batch import CompileJob, faults
from repro.core import CNOT, QuantumCircuit, TOFFOLI
from repro.fuzz import (
    COST_VARIANTS,
    FUZZ_DEVICES,
    FuzzConfig,
    build_fuzz_device,
    oracle_check,
    run_fuzz,
)
from repro.fuzz.harness import resolve_options


class TestDeviceGrid:
    def test_grid_builds(self):
        for name in FUZZ_DEVICES:
            device = build_fuzz_device(name)
            assert device.name == name
            assert device.num_qubits >= 5

    def test_tokyo_has_diagonals(self):
        tokyo = build_fuzz_device("tokyo20")
        assert tokyo.num_qubits == 20
        assert tokyo.coupling_map.coupled(1, 7)

    def test_registry_fallback(self):
        assert build_fuzz_device("ibmqx4").name == "ibmqx4"


class TestOptions:
    def test_resolve_defaults(self):
        options = resolve_options({})
        assert options["verify"] is False
        assert options["mcx_mode"] == "barenco"
        assert "cost_function" not in options

    def test_resolve_cost_variant(self):
        options = resolve_options({"cost": "volume"})
        assert options["cost_function"] is COST_VARIANTS["volume"]


class TestOracle:
    def test_clean_compile_passes_oracle(self):
        circuit = QuantumCircuit(3, [TOFFOLI(0, 1, 2), CNOT(0, 2)],
                                 name="clean")
        device = build_fuzz_device("linear5")
        result = CompileJob.make(circuit, device, resolve_options({})).run()
        verdict = oracle_check(result)
        assert verdict.equivalent

    def test_oracle_flags_rare_input_miscompile(self):
        """An MCX on every wire but one, appended to a 20-wire output,
        changes 2 of 2^20 basis inputs; the oracle must still say NO."""
        import dataclasses

        from repro.core import MCX

        circuit = QuantumCircuit(3, [TOFFOLI(0, 1, 2), CNOT(0, 2)],
                                 name="rare")
        device = build_fuzz_device("tokyo20")
        result = CompileJob.make(circuit, device, resolve_options({})).run()
        width = device.num_qubits
        mutated = QuantumCircuit(
            width,
            list(result.optimized.gates) + [MCX(*range(1, width), 0)],
        )
        verdict = oracle_check(
            dataclasses.replace(result, optimized=mutated)
        )
        assert not verdict.equivalent


class TestCampaign:
    def test_clean_campaign_finds_nothing(self):
        report = run_fuzz(seed=2019, iterations=10)
        assert report.ok, [f.describe() for f in report.findings]
        assert report.cases_run == 10
        assert report.compiles == 10
        assert report.oracle_checks > 0
        assert not report.interrupted
        assert "10 cases" in report.summary()

    def test_campaign_deterministic(self):
        first = run_fuzz(seed=5, iterations=6)
        second = run_fuzz(seed=5, iterations=6)
        assert first.oracle_checks == second.oracle_checks
        assert first.expected_rejections == second.expected_rejections
        assert len(first.findings) == len(second.findings)

    def test_budget_seconds_bounds_campaign(self):
        report = run_fuzz(seed=1, iterations=10_000, budget_seconds=0.0)
        assert report.cases_run < 10_000

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(TypeError):
            run_fuzz(FuzzConfig(), iterations=3)

    def test_on_event_receives_progress(self):
        events = []
        run_fuzz(seed=3, iterations=2, on_event=events.append)
        assert any("fuzz done" in line for line in events)


class TestAcceptance:
    """ISSUE acceptance: a seeded mapper miscompile is caught by the
    harness and shrunk to a minimal failing cascade of <= 8 gates."""

    @pytest.fixture
    def miscompiling_mapper(self, monkeypatch, tmp_path):
        monkeypatch.setenv(faults.FAULT_ENV, "miscompile:fuzz")
        monkeypatch.setenv(faults.FAULT_STATE_ENV, str(tmp_path / "fuse"))

    def test_seeded_miscompile_caught_and_shrunk(self, miscompiling_mapper):
        report = run_fuzz(seed=7, iterations=4)
        assert report.findings, "injected miscompile escaped the oracle"
        for finding in report.findings:
            assert finding.kind == "miscompile"
            assert finding.shrunk is not None
            assert len(finding.minimal_circuit) <= 8
            assert "oracle mismatch" in finding.detail
            diagnostic = finding.diagnostic()
            assert diagnostic.code == "REPRO710"
            assert diagnostic.is_error

    def test_shrink_disabled_keeps_original(self, miscompiling_mapper):
        report = run_fuzz(seed=7, iterations=4, shrink=False)
        assert report.findings
        assert all(f.shrunk is None for f in report.findings)
