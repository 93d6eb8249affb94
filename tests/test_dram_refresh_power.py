"""Tests for the DRAM refresh scheduler."""

import pytest

from repro.common.params import DRAMOrganization
from repro.dram.refresh import RefreshParams, RefreshScheduler


class TestRefreshScheduler:
    def test_unavailability_is_a_few_percent(self):
        scheduler = RefreshScheduler()
        assert 0.01 < scheduler.unavailability < 0.05

    def test_refreshes_scale_with_elapsed_time(self):
        scheduler = RefreshScheduler()
        short = scheduler.refreshes_in(10_000)
        long = scheduler.refreshes_in(100_000)
        assert long == pytest.approx(10 * short)

    def test_total_refreshes_cover_every_rank(self):
        org = DRAMOrganization(channels=2, ranks_per_channel=4)
        scheduler = RefreshScheduler(org=org)
        per_rank = scheduler.refreshes_in(50_000)
        assert scheduler.total_refreshes_in(50_000) == pytest.approx(8 * per_rank)

    def test_refresh_energy_grows_linearly_with_time(self):
        scheduler = RefreshScheduler()
        assert scheduler.refresh_energy_nj(0.0) == 0.0
        one = scheduler.refresh_energy_nj(0.001)
        two = scheduler.refresh_energy_nj(0.002)
        assert two == pytest.approx(2 * one)

    def test_refresh_power_is_a_fraction_of_background_power(self):
        scheduler = RefreshScheduler()
        # Refresh should cost far less than the rank background power budget
        # (540-770 mW per rank in Table III), but must be non-zero.
        per_rank_w = scheduler.refresh_power_w() / 8
        assert 0.005 < per_rank_w < 0.2

    def test_open_row_does_not_survive_a_refresh_interval(self):
        scheduler = RefreshScheduler()
        interval = scheduler.params.tREFI_cycles
        assert scheduler.survives_refresh(interval * 0.5)
        assert not scheduler.survives_refresh(interval * 1.5)

    def test_schedule_cycles_are_evenly_spaced(self):
        scheduler = RefreshScheduler()
        cycles = scheduler.schedule_cycles(5 * scheduler.params.tREFI_cycles)
        assert len(cycles) == 5
        gaps = [b - a for a, b in zip(cycles, cycles[1:])]
        assert all(gap == pytest.approx(scheduler.params.tREFI_cycles) for gap in gaps)

    def test_refreshes_per_window_matches_ddr3_spec(self):
        # 64 ms / 7.8 us = 8192 refresh commands per retention window.
        assert RefreshParams().refreshes_per_window == 8205 or \
            abs(RefreshParams().refreshes_per_window - 8192) < 32
