"""Integration tests: the four subsystems of Fig. 1 working together."""

import numpy as np
import pytest

from repro.core.aims import AIMS, AIMSConfig
from repro.core.errors import AIMSError, QueryError, RecognitionError
from repro.core.record import ImmersidataRecord, records_to_relation
from repro.online.recognizer import RecognizerConfig
from repro.query.rangesum import RangeSumQuery, relation_to_cube
from repro.sensors.asl import ASL_VOCABULARY, synthesize_session, synthesize_sign
from repro.sensors.classroom import generate_cohort
from repro.sensors.glove import CyberGloveSimulator
from repro.sensors.noise import NoiseModel


class TestFacadeBasics:
    def test_config_validation(self):
        with pytest.raises(AIMSError):
            AIMSConfig(sampler="psychic")

    def test_unknown_cube_rejected(self):
        system = AIMS()
        with pytest.raises(QueryError):
            system.engine("nope")
        with pytest.raises(QueryError):
            system.aggregates("nope")

    def test_double_populate_rejected(self):
        system = AIMS()
        system.populate("c", np.ones((16, 16)))
        with pytest.raises(AIMSError):
            system.populate("c", np.ones((16, 16)))

    def test_cubes_listed_by_name(self):
        system = AIMS()
        system.populate("b", np.ones((16, 16)))
        system.populate("a", np.ones((16, 16)))
        assert system.cubes() == ["a", "b"]

    def test_vocabulary_required(self):
        with pytest.raises(RecognitionError):
            _ = AIMS().vocabulary


class TestAcquisitionToStorage:
    def test_acquire_and_archive(self):
        """Fig. 1 left half: capture -> sample -> archive -> restore."""
        system = AIMS(AIMSConfig(sampler="adaptive"))
        sim = CyberGloveSimulator(noise=NoiseModel(white_sigma=0.0))
        session = sim.capture(10.0, np.random.default_rng(0))

        report = system.acquire(session, sim.rate_hz)
        assert report.nrmse < 0.05
        assert report.bytes_recorded < session.size * 4
        assert len(report.bases) == 28

        ref = system.archive_session("glove-run-1", report.reconstructed)
        assert ref.n_bytes == report.reconstructed.size * 8
        restored = system.blobs.get_array(ref)
        np.testing.assert_allclose(restored, report.reconstructed.ravel())

    def test_archive_validates_shape(self):
        with pytest.raises(AIMSError):
            AIMS().archive_session("bad", np.zeros(10))


class TestOfflinePipeline:
    def test_adhd_record_pipeline(self):
        """§2.1 end to end: tracker records -> relation -> cube ->
        ProPolyne statistical queries."""
        rng = np.random.default_rng(1)
        cohort = generate_cohort(2, rng, duration=10.0)
        records = []
        for session in cohort:
            head = session.trackers["head"]
            for i in range(0, head.shape[0], 10):
                records.append(
                    ImmersidataRecord(
                        sensor_id=session.profile.subject_id,
                        timestamp=i / session.rate_hz,
                        x=float(head[i, 0]), y=float(head[i, 1]),
                        z=float(head[i, 2]), h=float(np.clip(head[i, 3], -360, 360)),
                        p=float(np.clip(head[i, 4], -360, 360)),
                        r=float(np.clip(head[i, 5], -360, 360)),
                    )
                )
        relation, shape, scales = records_to_relation(
            records, ("sensor_id", "timestamp", "x"),
            bins={"sensor_id": 4, "timestamp": 32, "x": 32},
        )
        cube = relation_to_cube(relation, shape)

        system = AIMS()
        system.populate("adhd", cube)
        stats = system.aggregates("adhd")

        full = [(0, 3), (0, 31), (0, 31)]
        assert stats.count(full) == pytest.approx(len(records))
        # Average head-x of subject 0, cross-checked against the records.
        sub0 = [(0, 0), (0, 31), (0, 31)]
        got = stats.average(sub0, dim=2)
        want = np.mean(
            [relation[i, 2] for i in range(len(records))
             if relation[i, 0] == 0]
        )
        assert got == pytest.approx(float(want))

    def test_progressive_queries_through_facade(self):
        system = AIMS(AIMSConfig(max_degree=1, block_size=7))
        rng = np.random.default_rng(2)
        cube = np.abs(rng.normal(size=(32, 32)))
        engine = system.populate("demo", cube)
        query = RangeSumQuery.count([(3, 28), (5, 30)])
        exact = engine.evaluate_exact(query)
        steps = list(engine.evaluate_progressive(query))
        assert steps[-1].estimate == pytest.approx(exact)
        assert all(
            abs(s.estimate - exact) <= s.error_bound + 1e-6 for s in steps
        )


class TestOnlinePipeline:
    def test_train_and_recognize(self):
        """Fig. 1 right half: vocabulary training -> live stream ->
        isolated, recognized commands."""
        system = AIMS()
        rng = np.random.default_rng(3)
        indices = [5, 7, 9]
        training = {
            ASL_VOCABULARY[i].name: [
                synthesize_sign(ASL_VOCABULARY[i], rng).frames
                for _ in range(4)
            ]
            for i in indices
        }
        vocab = system.train_vocabulary(training)
        assert set(vocab.names()) == {"GREEN", "RED", "HELLO"}

        sequence = [ASL_VOCABULARY[i] for i in (5, 9, 7)]
        frames, segments = synthesize_session(sequence, rng, gap_duration=0.8)
        recognizer = system.recognizer(
            rest_frames=frames[: segments[0].start],
            config=RecognizerConfig(
                window=50, compare_every=10,
                declare_threshold=0.4, decline_steps=3,
            ),
        )
        detections = recognizer.process(frames)
        assert len(detections) >= 2
        matches = sum(
            1 for d, s in zip(detections, segments) if d.name == s.name
        )
        assert matches >= len(segments) - 1
