"""Finite-level look-down graph: event streams and genealogical observables."""

from .genealogy import (CoalescentCurve, FixationCurve, MrcaObservables,
                        MrcaPointProcess, backward_level, coalescent_curve,
                        export_points_csv, extract_fixation_curves,
                        mrca_point_process, mrca_time, observables_at)
from .stream import (EngineConfig, EventStream, LookdownEvent,
                     export_events_jsonl, generate_event_stream)

__all__ = [
    "EngineConfig", "EventStream", "LookdownEvent", "generate_event_stream",
    "export_events_jsonl", "CoalescentCurve", "FixationCurve",
    "MrcaObservables", "MrcaPointProcess", "backward_level",
    "coalescent_curve", "mrca_time", "extract_fixation_curves",
    "mrca_point_process", "observables_at", "export_points_csv",
]
