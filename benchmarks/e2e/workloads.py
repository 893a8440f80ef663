"""Seeded, pure input generators for the AIMS end-to-end benchmark.

Everything a workload feeds the program under test — cubes, queries,
batches, sensor tick vectors — is built here from ``--seed`` alone:
numpy ``default_rng`` keyed on ``(seed, stream)``, no wall clock, no
global RNG.  The same seed gives the same inputs on every run; the
program under test receives only these inputs.
"""

from __future__ import annotations

import numpy as np

from repro.query.rangesum import RangeSumQuery

# One RNG stream id per generated input, so adding a generator never
# shifts the numbers another one draws.
_CUBE, _QUERIES, _SESSIONS, _TICKS, _PROBES = range(5)

SCALAR_SHAPE = (64, 64, 32)
DRILLDOWN_SHAPE = (128, 128)
TENANT_SHAPE = (64, 64)

BATCH_QUERIES = 24
SESSION_BATCHES = 10
SENSOR_WIDTH = 4
TICK_RATE_HZ = 100.0
# The shortest window the sampler allows (16 ticks): its cold start, in
# which every sensor records every tick, ends inside the warm-up.
SAMPLER_WINDOW_S = 0.16


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def poisson_cube(seed: int, shape: tuple[int, ...], index: int = 0) -> np.ndarray:
    """A dense frequency cube of Poisson(3) counts."""
    return _rng(seed, _CUBE, index).poisson(3.0, shape).astype(float)


def _balanced_ranges(rng, n: int, count: int) -> list[tuple[int, int]]:
    """``count`` ranges on an axis of ``n`` cells in which every cell is
    an endpoint equally often.

    What a range costs is set by where its two ends fall against the
    dyadic grid, so pools drawn this way cost the same from seed to seed
    (only the pairing of ends differs) and the metrics measure the
    program, not the draw.  ``count`` is a multiple of ``n``.
    """
    a = rng.permutation(np.arange(count) % n)
    b = rng.permutation(np.arange(count) % n)
    return [(int(min(u, v)), int(max(u, v))) for u, v in zip(a, b)]


def scalar_queries(seed: int, count: int, balance: int) -> list[RangeSumQuery]:
    """Random 3-D ranges, endpoints balanced over every ``balance``
    consecutive queries; three COUNTs, then one degree-1 SUM of the last
    attribute, repeating."""
    rng = _rng(seed, _QUERIES)
    out = []
    for _ in range(count // balance):
        per_axis = [_balanced_ranges(rng, n, balance) for n in SCALAR_SHAPE]
        for i, ranges in enumerate(zip(*per_axis)):
            if i % 4 == 3:
                out.append(RangeSumQuery.weighted(ranges, {len(ranges) - 1: 1}))
            else:
                out.append(RangeSumQuery.count(ranges))
    return out


# Session start corners relative to the tour's origin.  What a session
# reads depends on how far it starts from where the last one ended and
# on the parity of its corner against the (+2, +1) drill-down step, so
# the tour is fixed and the seed moves it as a whole, by even offsets;
# consecutive starts differ by an odd x offset, so half the sessions sit
# on each x parity.
DRILLDOWN_TOUR = ((0, 0), (27, 30), (10, 14), (33, 2), (4, 26), (21, 16))


def drilldown_batches(seed: int) -> list[list[RangeSumQuery]]:
    """One drill-down session of ``SESSION_BATCHES`` batches per corner
    of ``DRILLDOWN_TOUR``, the tour translated by a seeded even offset.

    A batch is ``BATCH_QUERIES`` overlapping COUNT windows of side n/3
    at offsets ``(i % 8, i % 16)`` from the session's current corner;
    every batch shifts the corner by (+2, +1), so consecutive batches of
    one session share most of their blocks and a new session shares few.
    """
    rng = _rng(seed, _SESSIONS)
    n = DRILLDOWN_SHAPE[0]
    side = n // 3
    # Largest offset that keeps the last window of the last batch inside.
    room_x = n - side - 7 - 2 * (SESSION_BATCHES - 1)
    room_y = n - side - 15 - (SESSION_BATCHES - 1)
    dx = 2 * int(rng.integers(0, (room_x - max(x for x, _ in DRILLDOWN_TOUR)) // 2))
    dy = 2 * int(rng.integers(0, (room_y - max(y for _, y in DRILLDOWN_TOUR)) // 2))
    batches = []
    for x0, y0 in DRILLDOWN_TOUR:
        for step in range(SESSION_BATCHES):
            x, y = x0 + dx + 2 * step, y0 + dy + step
            batches.append([
                RangeSumQuery.count([
                    (x + i % 8, x + i % 8 + side - 1),
                    (y + i % 16, y + i % 16 + side - 1),
                ])
                for i in range(BATCH_QUERIES)
            ])
    return batches


TENANT_SIDES = range(4, 25)


def tenant_queries(
    seed: int, tenants: int, count: int, balance: int
) -> list[tuple[int, RangeSumQuery]]:
    """``(tenant index, query)`` pairs, round-robin over tenants; 2-D
    COUNT ranges at random positions whose sides take every length of
    ``TENANT_SIDES`` equally often over every ``balance`` consecutive
    queries."""
    rng = _rng(seed, _QUERIES, 1)
    ranges = []
    for _ in range(count // balance):
        per_axis = []
        for n in TENANT_SHAPE:
            sides = rng.permutation(
                np.arange(balance) % len(TENANT_SIDES) + TENANT_SIDES[0]
            )
            los = rng.integers(0, n - sides + 1)
            per_axis.append(
                [(int(lo), int(lo + side - 1)) for lo, side in zip(los, sides)]
            )
        ranges += zip(*per_axis)
    return [(i % tenants, RangeSumQuery.count(r)) for i, r in enumerate(ranges)]


def tick_vectors(seed: int, sessions: int, ticks: int) -> np.ndarray:
    """Sensor readings, shape ``(ticks, sessions, SENSOR_WIDTH)``.

    Each sensor is a sine plus a little noise, sampled at
    ``TICK_RATE_HZ``.  Amplitudes (1..7) and frequencies (0.5..12 Hz)
    are fixed ladders dealt to the sensors in seeded order, so every
    seed has the same mix of slow sensors the adaptive sampler decimates
    and fast ones it keeps recording, and so the same number of points
    and of cube cells; phases and noise are free.
    """
    rng = _rng(seed, _TICKS)
    size = (sessions, SENSOR_WIDTH)
    sensors = sessions * SENSOR_WIDTH
    amplitude = rng.permutation(np.linspace(1.0, 7.0, sensors)).reshape(size)
    frequency = rng.permutation(np.geomspace(0.5, 12.0, sensors)).reshape(size)
    phase = rng.uniform(0.0, 2 * np.pi, size)
    t = np.arange(ticks)[:, None, None] / TICK_RATE_HZ
    signal = amplitude * np.sin(2 * np.pi * frequency * t + phase)
    return signal + rng.normal(0.0, 0.02, (ticks, *size))


def _cell(shape: tuple[int, ...], sensor_id: int, level: int) -> tuple:
    """The cube cell of a reading: axis 0 the sensor id, axis 1 the
    reading in whole units, and on 3-D cubes axis 2 the sensor's
    session."""
    cell = (sensor_id % shape[0], min(shape[1] - 1, level))
    if len(shape) == 3:
        cell += (sensor_id // SENSOR_WIDTH % shape[2],)
    return cell


def sample_to_point(shape: tuple[int, ...]):
    """The sample → cube-cell mapping handed to ``open_session``: a pure
    function of the sample, so the committed point set depends only on
    the inputs.  The cells are few on purpose: sensor traffic revisits
    its cells, and the inserter keeps a transform per distinct cell for
    the life of the engine."""
    def to_point(sample) -> tuple:
        return _cell(shape, int(sample.sensor_id), int(abs(sample.value)))

    return to_point


def sensor_cells(ticks: np.ndarray, shape: tuple[int, ...]) -> list[tuple]:
    """Every cube cell ``sample_to_point(shape)`` can map a reading of
    ``ticks`` to: per sensor, the levels from 0 up to its largest
    reading."""
    peaks = np.abs(ticks).max(axis=0).reshape(-1)
    return [
        _cell(shape, sensor, level)
        for sensor, peak in enumerate(peaks)
        for level in range(min(shape[1] - 1, int(peak)) + 1)
    ]


def probe_points(seed: int, cells: list[tuple], count: int) -> list[tuple]:
    """``count`` of the sensor cells, drawn with replacement, for the
    direct insert-batch probe."""
    rng = _rng(seed, _PROBES)
    return [cells[int(k)] for k in rng.integers(0, len(cells), count)]
