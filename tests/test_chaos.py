"""Tests for the chaos campaign (``repro.audit.chaos``).

The full 43-cell matrix runs in CI via ``scripts/chaos_sweep.py``; this
file keeps the structural guarantees under plain pytest -- the drill
registry covers every fault point, the cell matrix is deterministic and
seeded subsets reproducible -- and runs a small representative slice of
actual drill cells so a regression in the campaign machinery itself is
caught without the full sweep.
"""

import pytest

from repro.audit.chaos import (
    CHAOS_MODES,
    ChaosCampaign,
    ChaosCell,
    campaign_cells,
    chaos_relation,
    drill_registry,
)
from repro.testing import FAULT_POINTS


class TestRegistry:
    def test_covers_every_fault_point(self):
        assert set(drill_registry()) == FAULT_POINTS

    def test_every_drill_declares_valid_modes(self):
        for point, drill in drill_registry().items():
            assert drill.modes, point
            assert set(drill.modes) <= set(CHAOS_MODES), point

    def test_corrupt_drills_carry_a_corruptor(self):
        for point, drill in drill_registry().items():
            if "corrupt" in drill.modes:
                assert drill.corrupt is not None, point

    def test_registry_is_stable(self):
        assert drill_registry().keys() == drill_registry().keys()


class TestCampaignCells:
    def test_full_matrix_is_deterministic(self):
        assert campaign_cells() == campaign_cells()

    def test_every_point_appears(self):
        points = {point for point, _ in campaign_cells()}
        assert points == FAULT_POINTS

    def test_point_filter(self):
        cells = campaign_cells(points=["checkpoint.save"])
        assert {point for point, _ in cells} == {"checkpoint.save"}
        assert {mode for _, mode in cells} == {"raise", "corrupt", "once"}

    def test_mode_filter(self):
        cells = campaign_cells(modes=["corrupt"])
        assert cells
        assert all(mode == "corrupt" for _, mode in cells)

    def test_seeded_subset_is_reproducible_and_proper(self):
        full = campaign_cells()
        subset = campaign_cells(sample=5, seed=11)
        assert len(subset) == 5
        assert subset == campaign_cells(sample=5, seed=11)
        assert set(subset) <= set(full)
        assert campaign_cells(sample=5, seed=12) != subset

    def test_oversized_sample_returns_everything(self):
        assert len(campaign_cells(sample=10_000)) == len(campaign_cells())

    def test_unknown_point_yields_no_cells(self):
        assert campaign_cells(points=["no.such.point"]) == []


class TestChaosRelation:
    def test_deterministic_and_structured(self):
        rel = chaos_relation(36)
        assert len(rel) == 36
        assert rel.schema.names == ("emp", "dept", "loc", "mgr", "proj")
        assert list(rel.rows) == list(chaos_relation(36).rows)
        # dept -> loc holds by construction; proj -> dept does not.
        assert len(rel.domain("dept")) == 4


class TestCellRendering:
    def test_render_mentions_the_contract_bits(self):
        cell = ChaosCell(point="discovery.mining", mode="raise",
                         runner="pipeline", fired=1, flagged=True,
                         identical=False, audited=True)
        rendered = cell.render()
        assert "discovery.mining" in rendered
        assert "flagged-degraded" in rendered
        assert "diverged" in rendered
        assert "audit=ok" in rendered


@pytest.mark.parametrize("point,mode", [
    ("discovery.rank", "raise"),
    ("checkpoint.save", "corrupt"),
    ("io.read_csv.row", "corrupt"),
    ("fd.fdep.pairs", "once"),
])
def test_representative_cells_pass(tmp_path, point, mode):
    campaign = ChaosCampaign(base_dir=tmp_path, seed=0)
    cell = campaign.run_cell(point, mode)
    assert cell.status == "ok"
    assert cell.fired >= 1
    if cell.audited is not None:
        assert cell.audited


def test_campaign_reuses_baselines(tmp_path):
    campaign = ChaosCampaign(base_dir=tmp_path, seed=0)
    campaign.run_cell("discovery.mining", "raise")
    baselines_after_first = dict(campaign._baselines)
    campaign.run_cell("discovery.tuple_clustering", "raise")
    # Same discovery configuration: the second cell reuses the first
    # cell's clean baseline instead of re-mining it.
    assert campaign._baselines == baselines_after_first
