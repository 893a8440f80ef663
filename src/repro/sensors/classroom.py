"""Virtual Classroom ADHD study simulator — the off-line workload of §2.1.

The paper's study: children (normal and ADHD-diagnosed) perform the *AX
task* in an immersive classroom — press a button as quickly as possible on
an X following an A, withhold otherwise — while distractions are
systematically injected and 6-D trackers on the head, hands and legs
stream body motion.  The reported result: an SVM over tracker *motion
speed* separated the groups with ~86 % accuracy.

This simulator substitutes for the human-subject study.  Group differences
follow the clinical picture the study design assumes:

* ADHD subjects fidget more (higher baseline motion, more frequent and
  larger movement bursts);
* they orient to distractions (head-tracker excursions during distraction
  intervals, with higher susceptibility);
* their responses are slower on average, more variable, and they miss
  more A-X targets and false-alarm more on non-targets.

The generator controls separability explicitly (the ``separation`` knob),
so experiment E7 can dial in an operating point near the paper's 86 %.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import StreamError
from repro.sensors.model import BODY_TRACKER_SITES, TRACKER_CHANNEL_NAMES
from repro.sensors.noise import NoiseModel

__all__ = [
    "SubjectProfile",
    "StimulusEvent",
    "DistractionInterval",
    "ClassroomSession",
    "make_profile",
    "simulate_session",
    "generate_cohort",
]

TRACKER_RATE_HZ = 60.0


@dataclass(frozen=True)
class SubjectProfile:
    """Latent behavioural parameters of one child."""

    subject_id: int
    group: str  # "normal" | "adhd"
    movement_intensity: float  # baseline cm/s-scale motion energy
    fidget_rate: float  # bursts per minute
    distraction_susceptibility: float  # 0..1 head-orient probability
    reaction_mean: float  # seconds
    reaction_sd: float
    miss_rate: float  # P(no press | target)
    false_alarm_rate: float  # P(press | non-target)


@dataclass(frozen=True)
class StimulusEvent:
    """One letter shown on the virtual blackboard, and the response."""

    timestamp: float
    letter: str
    is_target: bool  # True when this is an X following an A
    responded: bool
    reaction_time: float | None  # seconds, None when no response


@dataclass(frozen=True)
class DistractionInterval:
    """One systematically injected classroom distraction."""

    kind: str  # "noise" | "paper_airplane" | "walk_in" | "window"
    start: float
    end: float


@dataclass
class ClassroomSession:
    """Everything recorded for one subject's AX-task run."""

    profile: SubjectProfile
    rate_hz: float
    trackers: dict[str, np.ndarray]  # site -> (frames, 6) matrix
    stimuli: list[StimulusEvent]
    distractions: list[DistractionInterval]

    @property
    def duration(self) -> float:
        """Session length in seconds."""
        frames = next(iter(self.trackers.values())).shape[0]
        return frames / self.rate_hz

    def hits(self) -> int:
        """Targets the subject responded to."""
        return sum(1 for e in self.stimuli if e.is_target and e.responded)

    def misses(self) -> int:
        """Targets the subject failed to respond to."""
        return sum(1 for e in self.stimuli if e.is_target and not e.responded)

    def mean_reaction_time(self) -> float:
        """Mean reaction time over responded targets (NaN if none)."""
        times = [
            e.reaction_time
            for e in self.stimuli
            if e.is_target and e.responded and e.reaction_time is not None
        ]
        return float(np.mean(times)) if times else float("nan")


def make_profile(
    subject_id: int,
    group: str,
    rng: np.random.Generator,
    separation: float = 1.0,
) -> SubjectProfile:
    """Draw a subject from the group-conditional parameter distributions.

    ``separation`` scales the between-group mean gaps relative to the
    within-group spread; 1.0 targets the paper's ~86 % SVM operating point
    (verified by experiment E7), larger values make classification easier.
    """
    if group not in ("normal", "adhd"):
        raise StreamError(f"unknown subject group {group!r}")
    adhd = group == "adhd"
    shift = separation if adhd else 0.0

    def draw(base: float, gap: float, sd: float, lo: float = 1e-3) -> float:
        return float(max(lo, rng.normal(base + shift * gap, sd)))

    return SubjectProfile(
        subject_id=subject_id,
        group=group,
        movement_intensity=draw(1.0, 0.9, 0.45),
        fidget_rate=draw(2.0, 3.0, 1.4),
        distraction_susceptibility=float(
            np.clip(rng.normal(0.25 + 0.4 * shift, 0.15), 0.0, 1.0)
        ),
        reaction_mean=draw(0.45, 0.15, 0.08),
        reaction_sd=draw(0.08, 0.07, 0.03),
        miss_rate=float(np.clip(rng.normal(0.08 + 0.17 * shift, 0.05), 0.0, 0.8)),
        false_alarm_rate=float(
            np.clip(rng.normal(0.04 + 0.10 * shift, 0.03), 0.0, 0.6)
        ),
    )


def _tracker_motion(
    profile: SubjectProfile,
    site: str,
    n: int,
    rate_hz: float,
    distractions: list[DistractionInterval],
    rng: np.random.Generator,
) -> np.ndarray:
    """6-D motion for one tracker site: baseline sway + fidget bursts +
    distraction-locked head orienting."""
    t = np.arange(n) / rate_hz
    out = np.zeros((n, len(TRACKER_CHANNEL_NAMES)))

    # Baseline postural sway: slow band-limited wander, scaled by
    # movement intensity (legs sway less than hands).
    site_scale = {"head": 0.6, "left_hand": 1.0, "right_hand": 1.0,
                  "left_leg": 0.5, "right_leg": 0.5}[site]
    for ch in range(6):
        freq = rng.uniform(0.1, 0.8)
        phase = rng.uniform(0, 2 * np.pi)
        amplitude = profile.movement_intensity * site_scale * rng.uniform(0.5, 1.5)
        out[:, ch] = amplitude * np.sin(2 * np.pi * freq * t + phase)

    # Fidget bursts: Poisson arrivals, each a ~1 s damped wobble.
    expected_bursts = profile.fidget_rate * (n / rate_hz) / 60.0
    n_bursts = rng.poisson(expected_bursts)
    for _ in range(n_bursts):
        start = rng.integers(0, max(1, n - 1))
        length = int(rng.uniform(0.5, 1.5) * rate_hz)
        end = min(n, start + length)
        seg_t = np.arange(end - start) / rate_hz
        wobble = (
            profile.movement_intensity
            * site_scale
            * 4.0
            * np.exp(-3.0 * seg_t)
            * np.sin(2 * np.pi * rng.uniform(2.0, 5.0) * seg_t)
        )
        ch = rng.integers(0, 6)
        out[start:end, ch] += wobble

    # Head orienting toward distractions.
    if site == "head":
        for d in distractions:
            if rng.random() > profile.distraction_susceptibility:
                continue
            i0 = int(d.start * rate_hz)
            i1 = min(n, int(d.end * rate_hz))
            if i1 <= i0:
                continue
            seg_t = np.linspace(0, 1, i1 - i0)
            # H-rotation sweep toward the distraction and back.
            out[i0:i1, 3] += 25.0 * np.sin(np.pi * seg_t)
            out[i0:i1, 4] += 8.0 * np.sin(np.pi * seg_t)
    return out


def simulate_session(
    profile: SubjectProfile,
    rng: np.random.Generator,
    duration: float = 120.0,
    rate_hz: float = TRACKER_RATE_HZ,
    stimulus_period: float = 2.0,
    noise: NoiseModel | None = None,
) -> ClassroomSession:
    """Run one subject through the AX task.

    Args:
        profile: The subject.
        rng: Random generator.
        duration: Session length in seconds.
        rate_hz: Tracker streaming rate.
        stimulus_period: Seconds between blackboard letters.
        noise: Sensor corruption (defaults to mild white noise).

    Returns:
        The full multi-tracker session with stimulus/response ground truth.
    """
    if duration <= 0:
        raise StreamError(f"duration must be positive, got {duration}")
    noise = noise if noise is not None else NoiseModel(white_sigma=0.15)
    n = int(round(duration * rate_hz))

    # Distractions: one roughly every 15 seconds.
    kinds = ("noise", "paper_airplane", "walk_in", "window")
    distractions = []
    t0 = rng.uniform(3.0, 10.0)
    while t0 < duration - 4.0:
        length = rng.uniform(2.0, 4.0)
        distractions.append(
            DistractionInterval(str(rng.choice(kinds)), t0, t0 + length)
        )
        t0 += rng.uniform(10.0, 20.0)

    trackers = {
        site: noise.apply(
            _tracker_motion(profile, site, n, rate_hz, distractions, rng), rng
        )
        for site in BODY_TRACKER_SITES
    }

    # AX letter stream: each letter is a target (X-after-A) w.p. ~0.25.
    stimuli: list[StimulusEvent] = []
    previous = "Q"
    t = stimulus_period
    letters = tuple("ABQRSX")
    while t < duration:
        want_target = rng.random() < 0.25
        if want_target and previous == "A":
            letter = "X"
        elif want_target:
            letter = "A"  # set up the pair; the A itself is not a target
        else:
            letter = str(rng.choice([c for c in letters if c != "X"]))
        is_target = letter == "X" and previous == "A"
        if is_target:
            responded = rng.random() >= profile.miss_rate
            rt = (
                float(max(0.15, rng.normal(profile.reaction_mean, profile.reaction_sd)))
                if responded
                else None
            )
        else:
            responded = rng.random() < profile.false_alarm_rate
            rt = float(rng.uniform(0.3, 1.2)) if responded else None
        stimuli.append(
            StimulusEvent(
                timestamp=t, letter=letter, is_target=is_target,
                responded=responded, reaction_time=rt,
            )
        )
        previous = letter
        t += stimulus_period

    return ClassroomSession(
        profile=profile,
        rate_hz=rate_hz,
        trackers=trackers,
        stimuli=stimuli,
        distractions=distractions,
    )


def generate_cohort(
    n_per_group: int,
    rng: np.random.Generator,
    duration: float = 120.0,
    separation: float = 1.0,
) -> list[ClassroomSession]:
    """Simulate a balanced cohort (the experiment E7 dataset)."""
    if n_per_group <= 0:
        raise StreamError(f"need a positive cohort size, got {n_per_group}")
    sessions = []
    sid = 0
    for group in ("normal", "adhd"):
        for _ in range(n_per_group):
            profile = make_profile(sid, group, rng, separation=separation)
            sessions.append(simulate_session(profile, rng, duration=duration))
            sid += 1
    return sessions
