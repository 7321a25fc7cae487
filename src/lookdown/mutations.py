"""Neutral mutations and the substitution point process.

Mutations fall on each level line at rate theta/2 (theta = 2 N mu).  A
mutation becomes a substitution exactly when it falls on level 1, so the
substitution process never needs the full graph: between consecutive MRCA
living times B' < B'' the level-1 line accumulates Poisson(theta/2 (B''-B'))
determining mutations, and they surface at the establishment time E''.
Substitution times are therefore a subset of the MRCA change times, and
they cluster (their counts over-disperse relative to Poisson).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import MrcaPointProcess
from .errors import ConfigurationError, SampleSizeError, ValidationError


@dataclass(frozen=True)
class MutationConfig:
    theta: float
    seed: int = 0

    def __post_init__(self):
        if not self.theta > 0:
            raise ConfigurationError("theta must be positive")


@dataclass(frozen=True)
class SubstitutionEvent:
    """count determining mutations surfacing at the MRCA change at time."""

    time: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("emitted substitutions carry count >= 1")


def simulate_substitutions(points: MrcaPointProcess, config: MutationConfig,
                           rng: np.random.Generator) -> list[SubstitutionEvent]:
    """Poisson marks on B-gaps, emitted at the later establishment time.

    The first point has no predecessor gap inside the window and is dropped
    (the same discard edge-correction the point process itself uses).
    """
    if points.establishment.size < 2:
        raise SampleSizeError("need at least two MRCA points")
    counts = rng.poisson(0.5 * config.theta * np.diff(points.living))
    return [SubstitutionEvent(float(time), int(s))
            for time, s in zip(points.establishment[1:], counts) if s > 0]


def substitution_mass_rate(events: Sequence[SubstitutionEvent],
                           points: MrcaPointProcess) -> tuple[float, float]:
    """(rate, se): total substitution mass per unit of covered B-span.

    The long-run rate is theta/2; conditionally on the B's the total mass
    is Poisson, so se = sqrt(total)/span.
    """
    b = points.living
    if b.size < 2:
        raise SampleSizeError("need at least two MRCA points")
    span = float(b[-1] - b[0])
    total = float(sum(ev.count for ev in events))
    return total / span, math.sqrt(max(total, 1.0)) / span

