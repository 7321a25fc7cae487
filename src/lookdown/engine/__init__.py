"""Finite-level look-down graph: event streams and genealogical observables."""

from .genealogy import (CoalescentCurve, FixationCurve, MrcaObservables,
                        MrcaPointProcess, backward_level, coalescent_curve,
                        extract_fixation_curves, mrca_point_process,
                        observables_at)
from .stream import EngineConfig, EventStream, generate_event_stream

__all__ = [
    "EngineConfig", "EventStream", "generate_event_stream",
    "CoalescentCurve", "FixationCurve", "MrcaObservables",
    "MrcaPointProcess", "backward_level", "coalescent_curve",
    "extract_fixation_curves", "mrca_point_process", "observables_at",
]
