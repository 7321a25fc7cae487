"""In-memory span tracer that wraps the package's public calls per layer.

A span is (name, start, end, parent): ``parent`` indexes the span that was
open when this one started, or is -1.  Spans stay in memory and are written
once, at the end of a run.  While installed, the tracer replaces a fixed list
of package attributes with timing wrappers and restores them on exit, so
untraced rounds in the same process run the unmodified code.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from lookdown import cli, engine, laws, particles, stats, zlaw
from lookdown.engine.stream import EventStream


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def wrap_chunks(self, fn):
        """Generator wrapper: each chunk the stream produces is one span, so
        the consumer's work between chunks stays in the parent's self time."""
        def traced(stream, *args, **kwargs):
            inner = fn(stream, *args, **kwargs)
            try:
                while True:
                    idx = self._open("stream.iter_chunks")
                    try:
                        chunk = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.counts["stream.events_delivered"] += len(chunk[0])
                    yield chunk
            finally:
                inner.close()
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        def count_points(pp):
            self.counts["genealogy.mrca_points"] += int(pp.establishment.size)

        def count_run(run):
            self.counts["particles.transitions"] += run.n_transitions
            self.counts["particles.exits"] += int(run.exits.size)

        patches = [(EventStream, "iter_chunks",
                    self.wrap_chunks(EventStream.iter_chunks))]
        for owner, attr, name, hook in [
            (engine, "observables_at", "genealogy.observables_at", None),
            (engine, "mrca_point_process", "genealogy.mrca_point_process",
             count_points),
            (cli, "main", "cli.main", None),
            (particles, "simulate", "particles.simulate", count_run),
            (particles, "sample_stationary_many", "particles.sample_stationary",
             None),
            (laws, "sample_S_batch", "laws.sample_S_batch", None),
            (laws, "pi_table", "laws.exact", None),
            (laws, "K_table", "laws.exact", None),
            (laws, "K_marginal", "laws.exact", None),
            (laws, "K_marginal_forward", "laws.exact", None),
            (zlaw, "pmf_Z_table", "zlaw.pmf_Z_table", None),
            (stats, "empirical_pmf", "stats.gof", None),
            (stats, "chi_square_gof", "stats.gof", None),
            (stats, "ks_test_exp1", "stats.gof", None),
            (stats, "moment_band", "stats.gof", None),
        ]:
            patches.append((owner, attr, self.wrap(name, getattr(owner, attr),
                                                    hook)))
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    # -- summaries ----------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total, self) seconds per span name.

        A span nested in a span of the same name counts once in the total,
        through the outer one.
        """
        total: Counter = Counter()
        own: Counter = Counter()
        for (name, start, end, parent), self_s in zip(self.spans,
                                                      self.self_seconds()):
            own[name] += self_s
            if parent < 0 or self.spans[parent][0] != name:
                total[name] += end - start
        return dict(total), dict(own)
