"""Tests for the energy ledger and cost model."""

from __future__ import annotations

import math

import pytest

from repro.energy.accounting import EnergyLedger
from repro.energy.costs import PAPER_COST_MODEL, EnergyCostModel


class TestCostModel:
    def test_paper_values(self):
        """§6.2: battery = 500 transmissions, cache update = tx / 10."""
        assert PAPER_COST_MODEL.transmit == 1.0
        assert PAPER_COST_MODEL.receive == 0.0
        assert PAPER_COST_MODEL.cpu_cache_update == pytest.approx(0.1)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            EnergyCostModel(transmit=-1.0)

    @pytest.mark.parametrize("field", ["transmit", "receive", "cpu_cache_update"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_cost_rejected(self, field, value):
        """A NaN price would draw NaN from every battery it charges."""
        with pytest.raises(ValueError, match="finite"):
            EnergyCostModel(**{field: value})


class TestLedger:
    def test_record_and_totals(self):
        ledger = EnergyLedger()
        ledger.record(0, "transmit", 2.0)
        ledger.record(0, "cpu", 0.5)
        ledger.record(1, "transmit", 1.0)
        assert dict(ledger._cells) == {
            (0, "transmit"): 2.0, (0, "cpu"): 0.5, (1, "transmit"): 1.0
        }
        assert ledger.total("transmit") == pytest.approx(3.0)
        assert ledger.total() == pytest.approx(3.5)

    def test_unknown_category_rejected(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError):
            ledger.record(0, "flux", 1.0)
        with pytest.raises(ValueError):
            ledger.total("flux")

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger().record(0, "cpu", -1.0)
        with pytest.raises(ValueError):
            EnergyLedger().record(-1, "cpu", 1.0)  # a negative id, not a cell

    def test_zero_record_makes_a_cell_at_any_id(self):
        """A free draw still books a ``0.0`` cell, and a stand-alone
        ledger's columns grow to whatever id it is handed."""
        ledger = EnergyLedger()
        ledger.record(50, "transmit", 0.0)
        ledger.record_each([7, 90], "cpu", 0.5)
        assert dict(ledger._cells) == {
            (50, "transmit"): 0.0, (7, "cpu"): 0.5, (90, "cpu"): 0.5
        }
        assert (8, "cpu") not in ledger._cells

    def test_clear(self):
        ledger = EnergyLedger()
        ledger.record(0, "transmit", 1.0)
        ledger.clear()
        assert ledger.total() == 0.0
        assert not ledger._cells

    def test_record_each_equals_repeated_record(self):
        one, bulk = EnergyLedger(), EnergyLedger()
        ids = [3, 1, 3, 2]
        for node_id in ids:
            one.record(node_id, "cpu", 0.1)
        bulk.record_each(ids, "cpu", 0.1)
        assert bulk.total("cpu") == one.total("cpu")  # same float, not approx
        assert dict(bulk._cells) == dict(one._cells)
        with pytest.raises(ValueError):
            bulk.record_each(ids, "flux", 0.1)

    @pytest.mark.parametrize("amount", [0.3, 0.0], ids=["priced", "free"])
    def test_cells_for_equals_repeated_record(self, amount):
        """Booking through ``cells_for`` is ``record``: same cells (a
        free draw still makes its ``0.0`` cell), same float total."""
        one, direct = EnergyLedger(), EnergyLedger()
        ids = [3, 1, 3, 2]
        for node_id in ids:
            one.record(node_id, "transmit", amount)
        cells, totals = direct.cells_for("transmit", amount, 4)
        for node_id in ids:
            cells[node_id] += amount
            totals["transmit"] += amount
        assert direct.total("transmit") == one.total("transmit")
        assert dict(direct._cells) == dict(one._cells)
        assert (0, "transmit") not in direct._cells

    @pytest.mark.parametrize(
        "category,amount", [("flux", 1.0), ("cpu", -1.0), ("cpu", math.nan)]
    )
    def test_cells_for_checks_once(self, category, amount):
        with pytest.raises(ValueError):
            EnergyLedger().cells_for(category, amount, 4)
