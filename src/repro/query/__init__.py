"""Off-line query subsystem: ProPolyne and friends (§3.3 of the paper)."""

from repro.query.aggregates import StatisticalAggregates
from repro.query.batch import BatchEstimate, BatchEvaluator, GroupByResult, group_by
from repro.query.dataapprox import DataApproxEngine
from repro.query.explain import (
    QueryPlan,
    QueryProvenance,
    attach_provenance,
    explain,
    format_plan,
    provenance_of,
)
from repro.query.hybrid import HybridCost, HybridEngine
from repro.query.ingest import BatchInserter
from repro.query.packet_engine import PacketBasisEngine, cover_transform
from repro.query.randproj import RandomProjectionEngine
from repro.query.propolyne import (
    ProgressiveEstimate,
    ProPolyneEngine,
    QueryOutcome,
    pad_to_pow2,
    translate_query,
)
from repro.query.rangesum import RangeSumQuery, evaluate_on_cube, relation_to_cube
from repro.query.service import (
    ProgressiveStream,
    QueryRejected,
    QueryService,
)

__all__ = [
    "ProgressiveStream",
    "QueryRejected",
    "QueryService",
    "RangeSumQuery",
    "evaluate_on_cube",
    "relation_to_cube",
    "ProPolyneEngine",
    "ProgressiveEstimate",
    "pad_to_pow2",
    "translate_query",
    "DataApproxEngine",
    "BatchEvaluator",
    "BatchInserter",
    "BatchEstimate",
    "GroupByResult",
    "group_by",
    "StatisticalAggregates",
    "HybridEngine",
    "QueryPlan",
    "QueryProvenance",
    "QueryOutcome",
    "explain",
    "format_plan",
    "provenance_of",
    "attach_provenance",
    "HybridCost",
    "PacketBasisEngine",
    "RandomProjectionEngine",
    "cover_transform",
]
