"""Span recording around hmirisk's public functions, installed from outside.

``Tracer.install()`` swaps every binding of each function in ``TARGETS``
across the loaded ``hmirisk.*`` modules (and the method on its class) for
a wrapper that records a span: name, start, end and parent span.  The
program's own orchestration, such as ``cli._cmd_report``, then runs
unchanged and its calls land in the wrappers.  ``uninstall()`` puts the
originals back.  A target that no longer exists is skipped, so a renamed
function shows up as a span with zero calls instead of a crash.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

# (span name, module, attribute path, outcome recorder or None)
TARGETS: tuple[tuple[str, str, str, Callable[[Any], float] | None], ...] = (
    ("graph.load_graph", "hmirisk.graph", "load_graph", None),
    ("graph.screen_elements", "hmirisk.graph", "InterfaceGraph.screen_elements", None),
    ("ingest.parse_session_log", "hmirisk.ingest", "parse_session_log", None),
    ("ingest.align_events", "hmirisk.ingest", "align_events", lambda trace: len(trace.unaligned)),
    ("ingest.hit_test", "hmirisk.ingest", "hit_test", lambda hit: hit is not None),
    ("ingest.path_samples", "hmirisk.ingest", "path_samples", None),
    ("risk.detect_error_paths", "hmirisk.risk", "detect_error_paths", None),
    ("risk.time_deviation_detail", "hmirisk.risk", "time_deviation_detail", None),
    ("risk.detect_time_deviated", "hmirisk.risk", "detect_time_deviated", None),
    ("risk.identify_hfes", "hmirisk.risk", "identify_hfes", None),
    ("metrics.metric_vector", "hmirisk.metrics", "metric_vector", None),
    ("embed.embed_text", "hmirisk.embed", "embed_text", None),
    ("pifnet.train", "hmirisk.pifnet", "train", None),
    ("pifnet.kfold_cv", "hmirisk.pifnet", "kfold_cv", None),
    ("pifnet.predict", "hmirisk.pifnet", "predict", None),
    ("simulate.generate_sessions", "hmirisk.simulate", "generate_sessions", None),
    ("report.assemble_report", "hmirisk.report", "assemble_report", None),
    ("report.write_report_files", "hmirisk.report", "write_report_files", None),
)

# A span: [name, start, end, parent index (-1 for none), outcome]
Span = list


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, outcome: Callable[[Any], float] | None = None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans = self.spans
        index = len(spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if outcome is not None:
            record[4] = outcome(result)
        return result

    def _wrap(self, name: str, fn: Callable, outcome) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, outcome=outcome, **kwargs)

        return wrapper

    def install(self) -> None:
        self.missing = []
        loaded = [m for key, m in list(sys.modules.items()) if key == "hmirisk" or key.startswith("hmirisk.")]
        for name, module_name, attr_path, outcome in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, outcome)
            if owners:  # a method: replace it on its class
                self._patch(owner, attr, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

