"""Meta-Blocking pipeline: Block Purging → Block Filtering → Edge Pruning.

Paper §6.1(iii): the sequence is strict — block-refinement first (coarse,
cheap), comparison-refinement last (fine, expensive) — and BP precedes BF
because BP reasons over the whole collection while BF is per-block.
:class:`MetaBlockingConfig` toggles individual stages to reproduce the
configuration study of Table 8 (ALL, BP+BF, BP+EP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.er.block_filtering import DEFAULT_RATIO, block_filtering
from repro.er.block_purging import SMOOTHING_FACTOR, block_purging
from repro.er.blocking import BlockCollection
from repro.er.edge_pruning import WeightingScheme, edge_pruning, pairs_to_blocks


@dataclass(frozen=True)
class MetaBlockingConfig:
    """Which meta-blocking stages run, and with what parameters.

    The paper's default (and best-performing, Table 8) configuration is
    ``ALL`` — every stage enabled.
    """

    purging: bool = True
    filtering: bool = True
    pruning: bool = True
    smoothing_factor: float = SMOOTHING_FACTOR
    filter_ratio: float = DEFAULT_RATIO
    weighting: WeightingScheme = WeightingScheme.ARCS
    #: Use the array-based (packed) blocking-graph build.  Observationally
    #: identical to the unpacked build; off only for perf baselines and
    #: the fast-path equivalence tests.
    packed_graph: bool = True
    #: Use the columnar blocking pipeline (:mod:`repro.er.packed_blocking`)
    #: for the whole QBI → Block-Join → BP → BF → EP derivation: candidate
    #: pairs come straight from the table's CSR token postings, with no
    #: string-keyed block collection materialized on the DEDUP hot path.
    #: Same purge threshold, same retained per-entity keys, same pair set
    #: and matches as the dict pipeline, which remains the equivalence
    #: baseline (and the fallback when NumPy is unavailable or Edge
    #: Pruning runs unpacked).
    packed_blocking: bool = True

    @classmethod
    def all(cls) -> "MetaBlockingConfig":
        """ALL = BP + BF + EP (paper default)."""
        return cls()

    @classmethod
    def bp_bf(cls) -> "MetaBlockingConfig":
        """BP + BF (Table 8's best-recall configuration)."""
        return cls(pruning=False)

    @classmethod
    def bp_ep(cls) -> "MetaBlockingConfig":
        """BP + EP (Table 8's slowest configuration)."""
        return cls(filtering=False)

    @classmethod
    def none(cls) -> "MetaBlockingConfig":
        """No meta-blocking at all (raw block collection)."""
        return cls(purging=False, filtering=False, pruning=False)

    @property
    def label(self) -> str:
        """Human-readable configuration name as used in Table 8."""
        stages = []
        if self.purging:
            stages.append("BP")
        if self.filtering:
            stages.append("BF")
        if self.pruning:
            stages.append("EP")
        if stages == ["BP", "BF", "EP"]:
            return "ALL"
        return " + ".join(stages) if stages else "NONE"


def apply_meta_blocking(
    collection: BlockCollection,
    config: Optional[MetaBlockingConfig] = None,
    focus: Optional[set] = None,
) -> BlockCollection:
    """Run the configured meta-blocking stages over *collection*.

    Always returns a :class:`BlockCollection`; when Edge Pruning is
    enabled the surviving comparisons come back as 2-entity pair blocks.
    *focus* (the query frontier) restricts the Edge-Pruning graph to the
    edges Comparison-Execution can actually run.  Meta-blocking never
    *adds* comparisons — a property the test suite checks with
    hypothesis.
    """
    config = config or MetaBlockingConfig.all()
    current = collection.non_singleton()
    if config.purging:
        current = block_purging(current, smoothing=config.smoothing_factor)
    if config.filtering:
        current = block_filtering(current, ratio=config.filter_ratio)
    if config.pruning:
        retained = edge_pruning(
            current,
            scheme=config.weighting,
            focus=focus,
            packed=config.packed_graph,
        )
        current = pairs_to_blocks(retained)
    return current
