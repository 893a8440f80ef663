"""Tests for query provenance (the audit half of repro.query.explain).

:class:`QueryProvenance` is a *contract* — auditors consume its JSON,
and ``docs/REPLAY.md`` publishes the schema.  So beyond behaviour
(plan-derived counts, live breaker/cache snapshots, as-of epochs),
these tests pin the schema itself: the dataclass fields, the
``to_dict`` keys, and the documented table must agree field-for-field.
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.obs import MetricsRegistry, use_registry
from repro.query.explain import (
    PROVENANCE_SCHEMA,
    QueryProvenance,
    attach_provenance,
    provenance_of,
)
from repro.query.ingest import BatchInserter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.query.service import QueryService
from repro.storage.device import StorageSpec

RNG = np.random.default_rng(29)
QUERY = RangeSumQuery.count([(2, 11), (3, 14)])
REPLAY_DOC = Path(__file__).resolve().parents[1] / "docs" / "REPLAY.md"


def _engine(**kwargs):
    cube = RNG.poisson(2.0, (16, 16)).astype(float)
    kwargs.setdefault("storage", StorageSpec(shards=2, cache_blocks=8))
    return ProPolyneEngine(cube, max_degree=1, block_size=4, **kwargs)


def _versioned(batches=2):
    engine = _engine()
    engine.enable_versioning()
    inserter = BatchInserter(engine)
    rng = np.random.default_rng(7)
    for _ in range(batches):
        pts = [tuple(p) for p in rng.integers(0, 16, size=(20, 2))]
        inserter.insert_batch(pts, [1.0] * 20)
    return engine


class TestProvenanceContents:
    def test_plan_derived_fields(self):
        engine = _versioned()
        outcome = engine.evaluate_degradable(QUERY)
        prov = provenance_of(engine, QUERY, outcome)
        assert prov.schema == PROVENANCE_SCHEMA
        assert prov.blocks_planned == sum(prov.blocks_by_shard.values())
        assert prov.blocks_read == outcome.blocks_read
        assert prov.blocks_read <= prov.blocks_planned
        assert set(prov.blocks_by_shard) <= {0, 1}
        assert prov.filter_name == engine.filter.name
        assert prov.degraded is False
        assert prov.reason is None

    def test_live_answer_on_versioned_engine(self):
        engine = _versioned(batches=3)
        outcome = engine.evaluate_degradable(QUERY)
        prov = provenance_of(engine, QUERY, outcome)
        assert prov.epoch == 3
        assert prov.current_epoch == 3

    def test_as_of_answer_names_its_epoch(self):
        engine = _versioned(batches=3)
        outcome = engine.evaluate_degradable(QUERY, as_of=1)
        prov = provenance_of(engine, QUERY, outcome, as_of=1)
        assert prov.epoch == 1
        assert prov.current_epoch == 3

    def test_unversioned_engine_has_null_epoch(self):
        engine = _engine()
        outcome = engine.evaluate_degradable(QUERY)
        prov = provenance_of(engine, QUERY, outcome)
        assert prov.epoch is None
        assert prov.current_epoch == 0

    def test_cache_generations_snapshot(self):
        engine = _engine()
        outcome = engine.evaluate_degradable(QUERY)
        prov = provenance_of(engine, QUERY, outcome)
        # One cache per store, above the shards: one generation.
        (before,) = prov.cache_generations
        engine.insert((0, 0))  # invalidates the blocks it rewrites
        (after,) = provenance_of(engine, QUERY, outcome).cache_generations
        assert after > before

    def test_degraded_answer_names_the_open_breaker(self):
        engine = _engine(
            storage=StorageSpec(
                shards=2,
                fault_plan=FaultPlan(seed=3, read_error_rate=1.0),
                fault_shards=(1,),
                retry_policy=RetryPolicy(
                    max_attempts=2, base_delay_s=0.0, budget_s=0.0
                ),
                breaker=CircuitBreaker(
                    failure_threshold=1, recovery_timeout_s=60.0
                ),
            )
        )
        outcome = engine.evaluate_degradable(QUERY)
        assert outcome.degraded
        prov = provenance_of(engine, QUERY, outcome)
        assert prov.degraded is True
        assert prov.reason == "storage_unavailable"
        assert prov.error_bound == outcome.error_bound
        assert prov.breaker_states[1] == "open"
        assert prov.breaker_states[0] == "closed"
        assert prov.to_dict()["breaker_states"]["1"] == "open"

    def test_unsharded_store_degrades_gracefully(self):
        # No shard_of / breakers / caches on a plain in-memory store:
        # everything lands on shard 0 with empty state snapshots.
        engine = ProPolyneEngine(
            np.zeros((16, 16)), max_degree=1, block_size=4
        )
        outcome = engine.evaluate_degradable(QUERY)
        prov = provenance_of(engine, QUERY, outcome)
        assert set(prov.blocks_by_shard) == {0}
        assert prov.breaker_states == {}
        assert prov.cache_generations == []


class TestProvenanceSerialization:
    def test_json_round_trip(self):
        engine = _versioned()
        outcome = engine.evaluate_degradable(QUERY, as_of=1)
        prov = provenance_of(engine, QUERY, outcome, as_of=1)
        payload = json.loads(prov.to_json())
        assert payload == prov.to_dict()
        assert payload["schema"] == PROVENANCE_SCHEMA
        assert all(isinstance(k, str) for k in payload["blocks_by_shard"])
        assert all(isinstance(k, str) for k in payload["breaker_states"])

    def test_to_dict_keys_match_dataclass_fields(self):
        fields = [f.name for f in dataclasses.fields(QueryProvenance)]
        engine = _engine()
        outcome = engine.evaluate_degradable(QUERY)
        prov = provenance_of(engine, QUERY, outcome)
        assert list(prov.to_dict()) == fields

    def test_documented_schema_matches_field_for_field(self):
        # docs/REPLAY.md publishes the provenance schema as a table;
        # its field column must equal the dataclass, in order.
        text = REPLAY_DOC.read_text()
        section = text.split("## Provenance")[1].split("\n## ")[0]
        documented = re.findall(r"^\| `(\w+)`", section, flags=re.M)
        fields = [f.name for f in dataclasses.fields(QueryProvenance)]
        assert documented == fields


class TestProvenanceAttachment:
    def test_service_outcomes_carry_provenance(self):
        engine = _versioned()
        with QueryService(engine, workers=2) as service:
            outcome = service.submit_degradable(QUERY).result(timeout=10)
        assert isinstance(outcome.provenance, QueryProvenance)
        assert outcome.provenance.epoch == 2

    def test_attach_preserves_the_outcome(self):
        engine = _versioned()
        outcome = engine.evaluate_degradable(QUERY)
        attached = attach_provenance(engine, QUERY, outcome)
        assert attached.value == outcome.value
        assert attached.degraded == outcome.degraded
        assert outcome.provenance is None  # original untouched

    def test_provenance_counters(self):
        engine = _versioned()
        with use_registry(MetricsRegistry()) as reg:
            outcome = engine.evaluate_degradable(QUERY)
            attach_provenance(engine, QUERY, outcome)
            attach_provenance(engine, QUERY, outcome)
            assert reg.counter("provenance.records").value == 2
            assert reg.counter("provenance.degraded_records").value == 0
