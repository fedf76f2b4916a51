import json
from fractions import Fraction
from pathlib import Path

import pytest

from hexacent import cli
from hexacent.io_json import dump_ledger
from hexacent.proof_verifier.ledger import (
    claim_ids,
    run_claim,
    run_full_verification,
)

F = Fraction

# what `hexacent verify-proof` prints with its default options
GOLDEN = Path(__file__).parent / "golden" / "verify_proof.json"

EXPECTED_ERRATA = {
    "P3": "eq4-middle-term",
    "P4b": "part4-sextic-quartic",
    "P5a": "part5",
    "P5b": "part5",
    "P8c": "part8-triangle-centroid",
}


@pytest.fixture(scope="module")
def full_ledger():
    return run_full_verification()


class TestCatalog:
    def test_claim_order(self):
        assert claim_ids() == ("P1", "P2", "P3", "P4a", "P4b", "P5a", "P5b",
                               "P6", "P7a", "P7b", "P7c", "P8a", "P8b",
                               "P8c", "TIGHT")

    def test_unknown_claim(self):
        with pytest.raises(KeyError):
            run_claim("P99")


class TestFullRun:
    def test_every_claim_settles(self, full_ledger):
        assert len(full_ledger.entries) == 15
        counts = full_ledger.status_counts()
        assert counts.get("Inconclusive", 0) == 0
        assert full_ledger.ok

    def test_erratum_claims_pinned(self, full_ledger):
        with_err = {e.claim: e.data["erratum"]["group"]
                    for e in full_ledger.entries if "erratum" in e.data}
        assert with_err == EXPECTED_ERRATA

    def test_erratum_groups_pinned(self, full_ledger):
        assert full_ledger.erratum_groups() == [
            "eq4-middle-term", "part4-sextic-quartic", "part5",
            "part8-triangle-centroid"]

    def test_no_disproved_witnesses(self, full_ledger):
        assert full_ledger.disproved_witnesses() == []

    def test_all_data_values_are_strings(self, full_ledger):
        def walk(v):
            if isinstance(v, dict):
                for x in v.values():
                    walk(x)
            elif isinstance(v, (list, tuple)):
                for x in v:
                    walk(x)
            else:
                assert isinstance(v, str), v
        for e in full_ledger.entries:
            walk(e.data)

    def test_certificates_are_proved(self, full_ledger):
        for e in full_ledger.entries:
            for name, cert in e.data.get("certificates", {}).items():
                assert cert["status"] == "Proved", (e.claim, name)
                assert int(cert["depth"]) <= 30

    def test_tight_entry_exact_zero_margin(self, full_ledger):
        e = full_ledger.entry("TIGHT")
        assert e.data["margin"] == "0"
        assert e.data["gauge_of_centroid"] == "4/21"
        assert e.data["centroid"] == ["0", "4/21"]

    def test_json_is_the_golden_output(self, full_ledger):
        out = json.dumps(dump_ledger(full_ledger), indent=2) + "\n"
        assert out.encode() == GOLDEN.read_bytes()

    def test_cli_prints_the_golden_output(self, full_ledger, monkeypatch,
                                          capsys):
        # the CLI's own ledger run would repeat the fixture's, whose
        # defaults it must pass
        def run(budget, depth):
            assert (budget, depth) == (10 ** 6, 30)
            return full_ledger

        monkeypatch.setattr(cli, "run_full_verification", run)
        assert cli.dispatch(["verify-proof"]) == 0
        assert capsys.readouterr().out.encode() == GOLDEN.read_bytes()

    def test_grid_entry_counts(self, full_ledger):
        assert full_ledger.entry("P1").data["mismatches"] == "0"
        assert full_ledger.entry("P2").data["agreements"] == "10000"


class TestSingleClaims:
    def test_single_matches_full(self, full_ledger):
        for cid in ("P1", "P4b", "P5a", "TIGHT"):
            single = run_claim(cid)
            full = full_ledger.entry(cid)
            assert single == full  # deterministic, seed-pinned

    def test_erratum_evidence_values(self):
        e = run_claim("P3")
        ev = e.data["erratum"]["evidence"]
        assert ev["printed_value"] != ev["derived_value"]
        e = run_claim("P4b")
        ev = e.data["erratum"]["evidence"]
        assert ev == {"at": "w = 3", "printed_value": "312",
                      "derived_value": "260"}
        e = run_claim("P8c")
        ev = e.data["erratum"]["evidence"]
        assert ev["printed_value"] == "1/6"
        assert ev["derived_value"] == "5/12"

    def test_p5b_witness_rationals(self):
        e = run_claim("P5b")
        ev = e.data["erratum"]["evidence"]
        assert ev["witness_w"] == "19/10"
        assert ev["forcing_value"] == "68547/1000"
        assert ev["squared_gap"] == "-79622991/1000000"


class TestBudgetDegradation:
    def test_tiny_budget_goes_inconclusive_not_wrong(self):
        led = run_full_verification(budget=1)
        statuses = {e.claim: e.status for e in led.entries}
        assert statuses["P5a"] == "Inconclusive"
        assert "Disproved" not in {e.status for e in led.entries}
        assert led.disproved_witnesses() == []
        assert not led.ok

    def test_depth_zero_starves_subdivided_certificates(self):
        e = run_claim("P5a", depth=0)
        assert e.status == "Inconclusive"
        certs = e.data["certificates"]
        assert certs["cap_gap_negative"]["status"] == "Inconclusive"
