"""The AIMS facade: the four subsystems of Fig. 1 wired together.

One object exposes the paper's four promised functionalities (§3):

1. *Acquisition* of multiple immersive sensor streams and their
   appropriate transformation — :meth:`AIMS.acquire` runs a sampling
   strategy and per-dimension basis selection over a captured session;
2. *Efficient storage* of transformed signals — populated cubes live on
   tiled wavelet block stores; raw session archives go to the BLOB
   catalog with location ids (§4's Teradata BYTE scheme);
3. *Progressive and approximate evaluation of polynomial analytical
   queries* — :meth:`AIMS.aggregates` / :meth:`AIMS.engine` hand out the
   ProPolyne machinery for a populated cube;
4. *Real-time recognition of abstract commands* from aggregated sensor
   streams — :meth:`AIMS.train_vocabulary` + :meth:`AIMS.recognizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import AIMSError, QueryError, RecognitionError
from repro.acquisition.basis_select import BasisChoice, select_bases
from repro.acquisition.sampling import (
    AdaptiveSampler,
    FixedSampler,
    GroupedSampler,
    ModifiedFixedSampler,
    SamplingResult,
)
from repro.obs import MetricsRegistry
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import get_registry, span
from repro.online.recognizer import RecognizerConfig, StreamRecognizer
from repro.online.vocabulary import MotionVocabulary
from repro.query.aggregates import StatisticalAggregates
from repro.query.propolyne import ProPolyneEngine
from repro.storage.blobstore import BlobRef, BlobStore

__all__ = ["AIMSConfig", "AcquisitionReport", "AIMS"]

_SAMPLERS = {
    "fixed": FixedSampler,
    "modified_fixed": ModifiedFixedSampler,
    "grouped": GroupedSampler,
    "adaptive": AdaptiveSampler,
}


@dataclass(frozen=True)
class AIMSConfig:
    """System-wide tunables.

    Attributes:
        sampler: Acquisition strategy name (§3.1's four alternatives).
        max_degree: Highest polynomial measure degree the off-line query
            subsystem must answer exactly.
        block_size: Per-axis virtual disk-block size for coefficient
            tiling.
        pool_capacity: Optional block-cache size in blocks (the
            device stack's caching layer).
        shards: Number of storage shards each populated cube stripes
            its blocks across (1 = unsharded).
        replicas: Replica members per shard on top of the primary
            (0 = unreplicated); replicated shards heal primary outages
            by failover instead of degraded answers.
    """

    sampler: str = "adaptive"
    max_degree: int = 2
    block_size: int = 7
    pool_capacity: int | None = None
    shards: int = 1
    replicas: int = 0

    def __post_init__(self) -> None:
        if self.sampler not in _SAMPLERS:
            raise AIMSError(
                f"unknown sampler {self.sampler!r}; pick one of "
                f"{sorted(_SAMPLERS)}"
            )
        if self.shards < 1:
            raise AIMSError(f"shards must be >= 1, got {self.shards}")
        if self.replicas < 0:
            raise AIMSError(
                f"replicas must be >= 0, got {self.replicas}"
            )


@dataclass(frozen=True)
class AcquisitionReport:
    """Everything :meth:`AIMS.acquire` learned about a session."""

    sampling: SamplingResult
    reconstructed: np.ndarray
    nrmse: float
    bases: list[BasisChoice]

    @property
    def bytes_recorded(self) -> int:
        """Bytes the sampling strategy recorded (incl. schedule metadata)."""
        return self.sampling.bytes_required


class AIMS:
    """An Immersidata Management System instance."""

    def __init__(self, config: AIMSConfig | None = None) -> None:
        self.config = config or AIMSConfig()
        self._engines: dict[str, ProPolyneEngine] = {}
        self._aggregates: dict[str, StatisticalAggregates] = {}
        self._vocabulary: MotionVocabulary | None = None
        self.blobs = BlobStore()

    # -- acquisition ---------------------------------------------------------

    def acquire(
        self, session: np.ndarray, rate_hz: float
    ) -> AcquisitionReport:
        """Run the configured sampling strategy over a captured session.

        Returns the sampled/reconstructed data and the per-dimension basis
        recommendation for downstream storage.
        """
        with span("acquisition.acquire"):
            matrix = np.asarray(session, dtype=float)
            sampler = _SAMPLERS[self.config.sampler]()
            result = sampler.sample(matrix, rate_hz)
            reconstructed = result.reconstruct(matrix)
            report = AcquisitionReport(
                sampling=result,
                reconstructed=reconstructed,
                nrmse=result.nrmse(matrix),
                bases=select_bases(matrix),
            )
        obs_counter("acquisition.sessions").inc()
        obs_gauge("acquisition.last_nrmse").set(report.nrmse)
        return report

    def live_sampler(
        self, width: int, rate_hz: float, sensor_ids: list[int] | None = None
    ):
        """A causal, online adaptive sampler for live device streams.

        Unlike :meth:`acquire`, which analyzes a completed session, the
        returned :class:`~repro.acquisition.streaming.
        StreamingAdaptiveSampler` decides record/skip per tick using only
        the past — the acquisition loop a deployed AIMS runs.
        """
        from repro.acquisition.streaming import StreamingAdaptiveSampler

        return StreamingAdaptiveSampler(
            width=width, rate_hz=rate_hz, sensor_ids=sensor_ids
        )

    # -- storage ---------------------------------------------------------------

    def archive_session(self, name: str, session: np.ndarray) -> BlobRef:
        """Persist a raw session to the BLOB catalog (location-id scheme)."""
        matrix = np.asarray(session, dtype=float)
        if matrix.ndim != 2:
            raise AIMSError(
                f"sessions are (frames, sensors) matrices, got "
                f"ndim={matrix.ndim}"
            )
        return self.blobs.put_array(name, matrix.ravel())

    # -- off-line query --------------------------------------------------------

    def populate(
        self,
        name: str,
        cube: np.ndarray,
        storage=None,
    ) -> ProPolyneEngine:
        """Transform a frequency cube and put it on tiled block storage.

        The resulting engine answers exact, approximate and progressive
        polynomial range-sums under ``name``.  Storage is built from a
        declarative :class:`~repro.storage.device.StorageSpec`: the one
        passed as ``storage`` (fault injection, retries and breakers
        are its fields — see :mod:`repro.faults`), or one composed from
        the config (``shards`` / ``pool_capacity`` / ``replicas``).
        """
        if name in self._engines:
            raise AIMSError(f"cube {name!r} already populated")
        if storage is None:
            storage = self._default_storage()
        with span("query.populate"):
            engine = ProPolyneEngine(
                cube,
                max_degree=self.config.max_degree,
                block_size=self.config.block_size,
                storage=storage,
            )
        obs_counter("query.cubes_populated").inc()
        self._engines[name] = engine
        self._aggregates[name] = StatisticalAggregates(engine)
        return engine

    def engine(self, name: str) -> ProPolyneEngine:
        """The ProPolyne engine for a populated cube."""
        try:
            return self._engines[name]
        except KeyError:
            raise QueryError(f"no populated cube named {name!r}") from None

    def aggregates(self, name: str) -> StatisticalAggregates:
        """COUNT/SUM/AVERAGE/VARIANCE/COVARIANCE over a populated cube."""
        try:
            return self._aggregates[name]
        except KeyError:
            raise QueryError(f"no populated cube named {name!r}") from None

    def cubes(self) -> list[str]:
        """Names of populated cubes."""
        return sorted(self._engines)

    def save_cube(self, name: str) -> BlobRef:
        """Persist a populated cube's coefficients to the BLOB catalog.

        This is §4's deployment layout: packed wavelet blocks live as
        BLOBs, the catalog keeps the location ids.  The engine's
        coefficients are serialized (wavelet domain, so the save is also
        the compressed form) together with the shape/degree metadata
        needed to rebuild it.
        """
        engine = self.engine(name)
        coeffs = engine.to_coefficients()
        header = np.array(
            [len(engine.original_shape), engine.max_degree]
            + list(engine.original_shape)
            + list(engine.shape),
            dtype=float,
        )
        payload = np.concatenate([header, coeffs.ravel()])
        return self.blobs.put_array(f"cube:{name}", payload)

    def load_cube(self, name: str, ref: BlobRef | int) -> ProPolyneEngine:
        """Rebuild a cube saved with :meth:`save_cube` under ``name``.

        The coefficients are inverse-transformed once and re-populated,
        so the restored engine is block-for-block equivalent to a fresh
        :meth:`populate` of the original data.
        """
        from repro.wavelets.tensor import tensor_waverec
        from repro.wavelets.dwt import max_levels
        from repro.wavelets.filters import get_filter

        payload = self.blobs.get_array(ref)
        ndim = int(payload[0])
        max_degree = int(payload[1])
        original_shape = tuple(int(v) for v in payload[2 : 2 + ndim])
        padded_shape = tuple(int(v) for v in payload[2 + ndim : 2 + 2 * ndim])
        coeffs = payload[2 + 2 * ndim :].reshape(padded_shape)
        filt = get_filter(f"db{max_degree + 1}")
        levels = tuple(max_levels(n, filt) for n in padded_shape)
        padded = tensor_waverec(coeffs, filt, levels=levels)
        cube = padded[tuple(slice(0, n) for n in original_shape)]
        saved_config = self.config
        if saved_config.max_degree != max_degree:
            raise AIMSError(
                f"cube was saved with max_degree={max_degree}, system is "
                f"configured with {saved_config.max_degree}"
            )
        return self.populate(name, cube)

    def _default_storage(self):
        """A fresh :class:`~repro.storage.device.StorageSpec` composed
        from the config's ``shards`` / ``pool_capacity`` / ``replicas``."""
        from repro.storage.device import StorageSpec

        return StorageSpec(
            shards=self.config.shards,
            cache_blocks=self.config.pool_capacity,
            replicas=self.config.replicas,
        )

    # -- cluster tier ----------------------------------------------------------

    def cluster(
        self,
        backends: int = 2,
        workers: int = 2,
        queue_depth: int = 64,
        vnodes: int = 64,
        default_quota=None,
        storage_factory=None,
        default_deadline_s: float | None = None,
    ):
        """Stand up a Murder-style cluster tier under this system.

        Builds ``backends`` data-owning
        :class:`~repro.cluster.backend.BackendNode`\\ s (ids
        ``backend-0..n-1``) configured from this system's
        ``max_degree`` / ``block_size``, and returns a stateless
        :class:`~repro.cluster.frontend.ClusterFrontend` routing
        ``(tenant, dataset)`` namespaces over them by consistent
        hashing.  Per-namespace storage defaults to the config's
        ``shards`` / ``pool_capacity`` / ``replicas`` via a fresh spec
        per namespace (stateful spec members are never shared);
        ``storage_factory`` overrides that.

        The caller owns the frontend's lifecycle: ``close()`` (or a
        ``with`` block) tears down every backend.
        """
        from repro.cluster.backend import BackendNode
        from repro.cluster.frontend import ClusterFrontend

        if backends < 1:
            raise AIMSError(f"backends must be >= 1, got {backends}")
        if storage_factory is None:
            storage_factory = self._default_storage
        nodes = [
            BackendNode(
                f"backend-{i}",
                workers=workers,
                queue_depth=queue_depth,
                max_degree=self.config.max_degree,
                block_size=self.config.block_size,
                storage_factory=storage_factory,
                default_deadline_s=default_deadline_s,
            )
            for i in range(backends)
        ]
        obs_counter("cluster.frontend.created").inc()
        return ClusterFrontend(
            nodes, vnodes=vnodes, default_quota=default_quota
        )

    # -- online query ----------------------------------------------------------

    def train_vocabulary(
        self, training: dict[str, list[np.ndarray]]
    ) -> MotionVocabulary:
        """Build (and retain) the motion vocabulary from labelled
        instances."""
        self._vocabulary = MotionVocabulary.from_instances(training)
        return self._vocabulary

    @property
    def vocabulary(self) -> MotionVocabulary:
        """The trained motion vocabulary (raises until trained)."""
        if self._vocabulary is None:
            raise RecognitionError(
                "no vocabulary trained; call train_vocabulary() first"
            )
        return self._vocabulary

    def recognizer(
        self,
        rest_frames: np.ndarray,
        config: RecognizerConfig | None = None,
    ) -> StreamRecognizer:
        """A calibrated real-time recognizer over the trained vocabulary."""
        rec = StreamRecognizer(self.vocabulary, config)
        rec.calibrate_rest(rest_frames)
        return rec

    # -- observability ---------------------------------------------------------

    def metrics(self) -> MetricsRegistry:
        """The process-wide metrics registry every subsystem reports into.

        Counters, gauges and histograms from acquisition, storage, query
        evaluation and recognition accumulate here (see DESIGN.md's
        metric-name catalogue); render with
        :func:`repro.obs.render_text` / :func:`repro.obs.to_json`, or
        swap in a :class:`repro.obs.NullRegistry` via
        :func:`repro.obs.set_registry` to disable collection.
        """
        return get_registry()
