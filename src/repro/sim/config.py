"""System configurations evaluated in the paper.

Every bar group of Figures 2, 9, 10 and 13 corresponds to one
:class:`SystemConfig`:

=============  =============================================================
Name           Description (Section V.A)
=============  =============================================================
``base_close`` Stride prefetcher, FR-FCFS close-row policy, block-level
               address interleaving (maximises bank/channel parallelism).
``base_open``  Stride prefetcher, FR-FCFS open-row policy, region-level
               address interleaving (same memory controller as BuMP).
``sms``        Spatial Memory Streaming next to the LLC, open-row,
               region-level interleaving; requests carry the PC.
``vwq``        Stride prefetcher plus Virtual Write Queue eager writeback,
               open-row, region-level interleaving.
``sms_vwq``    SMS and VWQ combined.
``full_region`` Indiscriminate full-region streaming on every miss and every
               dirty eviction (the paper's foil).
``bump``       BuMP: RDTT + BHT + DRT generating bulk reads and writebacks,
               open-row, region-level interleaving; requests carry the PC.
``ideal``      Baseline traffic with oracle row-buffer locality: every DRAM
               access a region generates during one LLC lifetime is served
               from a single activation.
=============  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.common.params import SystemParams
from repro.core.config import BuMPConfig
from repro.dram.flat import SCHEDULERS, PagePolicy


@dataclass
class SystemConfig:
    """Everything needed to build one evaluated system variant."""

    name: str
    description: str = ""
    page_policy: PagePolicy = PagePolicy.OPEN
    #: ``"block"`` (Base-close) or ``"region"`` (everything else).
    interleaving: str = "region"
    #: Transaction scheduler, one of :data:`repro.dram.flat.SCHEDULERS`;
    #: every system of the paper uses FR-FCFS, the alternatives exist for the
    #: Section VI fairness discussion and the ablation benchmarks.
    scheduler: str = "frfcfs"
    #: Core timing model: ``"analytic"`` (fixed-MLP, the default used by every
    #: headline figure) or ``"interval"`` (ROB/MSHR-derived overlap, used by
    #: the timing-sensitivity ablation).
    timing_model: str = "analytic"
    use_stride: bool = True
    use_sms: bool = False
    use_vwq: bool = False
    use_bump: bool = False
    use_full_region: bool = False
    #: Related-work mechanisms used only by the ablation studies (Section VII):
    #: stateless next-line prefetching, address-correlated Stealth-style region
    #: prefetching, and age-based eager writeback.
    use_nextline: bool = False
    use_stealth: bool = False
    use_eager_writeback: bool = False
    #: L1-to-LLC requests carry the triggering PC (needed by SMS and BuMP).
    carries_pc: bool = False
    #: Report oracle row-buffer locality instead of the simulated controller's.
    ideal_row_locality: bool = False
    #: Attach the region-density profiler (needed for the Ideal system and for
    #: the characterisation experiments of Section III).
    attach_profiler: bool = False
    bump: BuMPConfig = field(default_factory=BuMPConfig)
    system: SystemParams = field(default_factory=SystemParams)
    #: CPI used to space request arrivals at the memory controller (kept close
    #: to the effective CPI the timing model produces so queue occupancy and
    #: row-buffer coincidence in the FR-FCFS window are realistic).
    arrival_cpi: float = 2.0

    def __post_init__(self) -> None:
        # Fail at construction, not three layers deep in ServerSystem: these
        # fields select code paths, and a typo would otherwise surface as an
        # obscure error (or not at all) only once a simulation starts.
        if self.interleaving not in ("block", "region"):
            raise ValueError(
                f"unknown interleaving scheme {self.interleaving!r}; "
                "known schemes: block, region")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; known schedulers: "
                + ", ".join(SCHEDULERS))
        if self.timing_model not in ("analytic", "interval"):
            raise ValueError(
                f"unknown timing model {self.timing_model!r}; "
                "known models: analytic, interval")
        if self.arrival_cpi <= 0:
            raise ValueError(
                f"arrival_cpi must be positive, got {self.arrival_cpi!r}")

    def with_overrides(self, **overrides) -> "SystemConfig":
        """Return a copy of this configuration with selected fields replaced."""
        return replace(self, **overrides)

    @property
    def uses_bulk_streaming(self) -> bool:
        """True when the configuration generates region-granular bulk transfers."""
        return self.use_bump or self.use_full_region


def base_close(**overrides) -> SystemConfig:
    """Base-close: stride prefetcher, close-row policy, block interleaving."""
    config = SystemConfig(
        name="base_close",
        description="Stride prefetcher, FR-FCFS close-row, block-level interleaving",
        page_policy=PagePolicy.CLOSE,
        interleaving="block",
    )
    return config.with_overrides(**overrides) if overrides else config


def base_open(**overrides) -> SystemConfig:
    """Base-open: stride prefetcher, open-row policy, region interleaving."""
    config = SystemConfig(
        name="base_open",
        description="Stride prefetcher, FR-FCFS open-row, region-level interleaving",
        page_policy=PagePolicy.OPEN,
        interleaving="region",
    )
    return config.with_overrides(**overrides) if overrides else config


def sms_system(**overrides) -> SystemConfig:
    """SMS: spatial footprint prefetching next to the LLC."""
    config = SystemConfig(
        name="sms",
        description="Spatial Memory Streaming at the LLC, open-row, region interleaving",
        use_stride=False,
        use_sms=True,
        carries_pc=True,
    )
    return config.with_overrides(**overrides) if overrides else config


def vwq_system(**overrides) -> SystemConfig:
    """VWQ: stride prefetcher plus eager writeback of adjacent dirty blocks."""
    config = SystemConfig(
        name="vwq",
        description="Stride prefetcher plus Virtual Write Queue eager writeback",
        use_vwq=True,
    )
    return config.with_overrides(**overrides) if overrides else config


def sms_vwq_system(**overrides) -> SystemConfig:
    """SMS and VWQ combined (Figure 13)."""
    config = SystemConfig(
        name="sms_vwq",
        description="SMS prefetching combined with VWQ eager writeback",
        use_stride=False,
        use_sms=True,
        use_vwq=True,
        carries_pc=True,
    )
    return config.with_overrides(**overrides) if overrides else config


def full_region_system(**overrides) -> SystemConfig:
    """Full-region: bulk-transfer every region without density prediction."""
    config = SystemConfig(
        name="full_region",
        description="Indiscriminate full-region streaming (no density prediction)",
        use_stride=False,
        use_full_region=True,
    )
    return config.with_overrides(**overrides) if overrides else config


def bump_system(bump: Optional[BuMPConfig] = None, **overrides) -> SystemConfig:
    """BuMP: bulk memory access prediction and streaming."""
    config = SystemConfig(
        name="bump",
        description="BuMP: RDTT + BHT + DRT bulk read and writeback streaming",
        use_stride=False,
        use_bump=True,
        carries_pc=True,
        bump=bump if bump is not None else BuMPConfig(),
    )
    return config.with_overrides(**overrides) if overrides else config


def ideal_system(**overrides) -> SystemConfig:
    """Ideal: baseline traffic served with oracle row-buffer locality."""
    config = SystemConfig(
        name="ideal",
        description="Oracle row-buffer locality over the baseline's traffic",
        ideal_row_locality=True,
        attach_profiler=True,
    )
    return config.with_overrides(**overrides) if overrides else config


def bump_vwq_system(bump: Optional[BuMPConfig] = None, **overrides) -> SystemConfig:
    """BuMP combined with VWQ (footnote 1 of Section V.G).

    BuMP streams high-density regions; VWQ picks up writeback locality for the
    dirty evictions that fall outside them.
    """
    config = SystemConfig(
        name="bump_vwq",
        description="BuMP bulk streaming plus VWQ eager writeback for other regions",
        use_stride=False,
        use_bump=True,
        use_vwq=True,
        carries_pc=True,
        bump=bump if bump is not None else BuMPConfig(),
    )
    return config.with_overrides(**overrides) if overrides else config


def nextline_system(**overrides) -> SystemConfig:
    """Next-line prefetching in place of the stride prefetcher (ablation)."""
    config = SystemConfig(
        name="nextline",
        description="Stateless next-line prefetching, open-row, region interleaving",
        use_stride=False,
        use_nextline=True,
    )
    return config.with_overrides(**overrides) if overrides else config


def stealth_system(**overrides) -> SystemConfig:
    """Stealth-style address-correlated region prefetching (Section VII foil)."""
    config = SystemConfig(
        name="stealth",
        description="Address-correlated region prefetching with an access-count trigger",
        use_stride=False,
        use_stealth=True,
    )
    return config.with_overrides(**overrides) if overrides else config


def eager_writeback_system(**overrides) -> SystemConfig:
    """Age-based eager writeback (Lee et al.) next to the stride baseline."""
    config = SystemConfig(
        name="eager_writeback",
        description="Stride prefetcher plus age-based eager writeback",
        use_eager_writeback=True,
    )
    return config.with_overrides(**overrides) if overrides else config


_PAPER_FACTORIES = {
    "base_close": base_close,
    "base_open": base_open,
    "sms": sms_system,
    "vwq": vwq_system,
    "sms_vwq": sms_vwq_system,
    "full_region": full_region_system,
    "bump": bump_system,
    "ideal": ideal_system,
}

_EXTENDED_FACTORIES = {
    "bump_vwq": bump_vwq_system,
    "nextline": nextline_system,
    "stealth": stealth_system,
    "eager_writeback": eager_writeback_system,
}


def named_configs(names: Optional[List[str]] = None) -> Dict[str, SystemConfig]:
    """Build the paper's named configurations (all of them, or a subset).

    Names from the extended (ablation) set are also accepted when listed
    explicitly; the default set stays exactly the eight systems of the
    paper's evaluation.
    """
    factories = dict(_PAPER_FACTORIES)
    factories.update(_EXTENDED_FACTORIES)
    selected = names if names is not None else list(_PAPER_FACTORIES)
    unknown = [name for name in selected if name not in factories]
    if unknown:
        raise KeyError(f"unknown system configurations: {unknown}")
    return {name: factories[name]() for name in selected}


def extended_configs(names: Optional[List[str]] = None) -> Dict[str, SystemConfig]:
    """Build the extended (related-work / ablation) configurations."""
    selected = names if names is not None else list(_EXTENDED_FACTORIES)
    unknown = [name for name in selected if name not in _EXTENDED_FACTORIES]
    if unknown:
        raise KeyError(f"unknown extended configurations: {unknown}")
    return {name: _EXTENDED_FACTORIES[name]() for name in selected}
