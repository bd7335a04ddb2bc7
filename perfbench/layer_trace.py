"""Spans at the program's layer boundaries, and the per-layer metrics.

In each client process, the tracer rebinds the public names through which
each layer is called (`videoqa.pipeline.caption_frames`,
`videoqa.orchestrator.run_react`, `KnowledgeStore.retrieve`, `Backend.call`,
...) with wrappers that record a span: name, parent, op, start and end. Spans
stay in memory and are dumped as JSONL when the client ends. The executors
the program creates are rebound too, so a span opened on a pool thread gets
the submitting span as its parent. The parent process loads every client's
spans and computes self time and the per-layer metrics.

A name that no longer exists (after a refactor) is skipped: the metrics
that need it are reported as 0 and counted in `trace.unmeasured`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, op, start, end=None, attrs=None):
        self.id, self.parent, self.name, self.op = span_id, parent, name, op
        self.start = start
        self.end = start if end is None else end
        self.attrs = {} if attrs is None else attrs

    @property
    def dur(self) -> float:
        return self.end - self.start


# -- what each hook records from its call ------------------------------------

def _count(span, args, kwargs, result):
    span.attrs["n"] = len(result)


def _captions(span, args, kwargs, result):
    from videoqa.captioning import SENTINEL_CAPTION

    span.attrs["frames"] = len(args[0] if args else kwargs["frames"])
    span.attrs["sentinel"] = sum(c.text == SENTINEL_CAPTION for c in result)


def _retrieval(span, args, kwargs, result):
    span.attrs["scope"] = args[1] if len(args) > 1 else kwargs["scope"]
    span.attrs["degraded"] = bool(result.degraded)


def _text_size(span, args, kwargs, result):
    span.attrs["bytes"] = len(result)


def _repaired(span, args, kwargs, result):
    span.attrs["repaired"] = bool(result.repaired)


def _react_steps(span, args, kwargs, result):
    span.attrs["steps"] = int(result[1])


def _truncated(span, args, kwargs, result):
    span.attrs["truncated"] = bool(result.truncated)


def _tree_nodes(span, args, kwargs, result):
    span.attrs["nodes"] = len(result.tree.nodes)


# (span name, module, attribute, annotation of the result or None)
HOOKS = (
    ("ingest.load_frames", "videoqa.pipeline", "load_frames", None),
    ("ingest.detect_shots", "videoqa.pipeline", "detect_shots", _count),
    ("tree.score_shots", "videoqa.pipeline", "score_shots", None),
    ("tree.expand_tree", "videoqa.pipeline", "expand_tree", None),
    ("tree.kmeans", "videoqa.tree", "kmeans", None),
    ("tree.vtsearch", "videoqa.pipeline", "vtsearch", _count),
    ("tree.tree_to_json", "videoqa.tree", "tree_to_json", None),
    ("tree.load_tree", "videoqa.tree", "load_tree", None),
    ("captioning.caption_frames", "videoqa.pipeline", "caption_frames", _captions),
    ("captioning.summarize_segments", "videoqa.pipeline", "summarize_segments", None),
    ("captioning.classify_question", "videoqa.pipeline", "classify_question", None),
    ("captioning.synthesize_prompt", "videoqa.pipeline", "synthesize_prompt", None),
    ("knowledge.retrieve", "videoqa.knowledge", "KnowledgeStore.retrieve", _retrieval),
    ("knowledge.as_text", "videoqa.knowledge", "RetrievalResult.as_text", _text_size),
    ("knowledge.to_sidecar", "videoqa.knowledge", "KnowledgeStore.to_sidecar", None),
    ("knowledge.from_sidecar", "videoqa.knowledge", "KnowledgeStore.from_sidecar", None),
    ("orchestrator.analyze_problem", "videoqa.pipeline", "analyze_problem", None),
    ("orchestrator.plan_tasks", "videoqa.pipeline", "plan_tasks", _repaired),
    ("orchestrator.run_react", "videoqa.orchestrator", "run_react", _react_steps),
    ("orchestrator.generate_answer", "videoqa.orchestrator", "generate_answer", None),
    ("backends.call", "videoqa.backends", "Backend.call", None),
    ("pipeline.build_video", "videoqa.pipeline", "build_video", _tree_nodes),
    ("pipeline.answer_question", "videoqa.pipeline", "answer_question", _truncated),
    ("pipeline.evaluate", "videoqa.pipeline", "evaluate", None),
)
EXECUTOR_MODULES = ("videoqa.pipeline", "videoqa.tree", "videoqa.captioning")

# Per-layer metric -> (unit, hooks it needs). "/op" values are totals over
# the traced ops divided by their number; "/call" values are means per call
# over the whole traced process, set-up and correctness checks included.
METRICS = {
    "ingest.load_frames_s": ("s/op", ["ingest.load_frames"]),
    "ingest.detect_shots_s": ("s/op", ["ingest.detect_shots"]),
    "ingest.shots": ("count/op", ["ingest.detect_shots"]),
    "tree.score_shots_s": ("s/op", ["tree.score_shots"]),
    "tree.expand_tree_s": ("s/op", ["tree.expand_tree"]),
    "tree.kmeans_calls": ("count/op", ["tree.kmeans"]),
    "tree.nodes": ("count/op", ["pipeline.build_video"]),
    "tree.vtsearch_frames": ("count/op", ["tree.vtsearch"]),
    "tree.serialize_s": ("s/op", ["tree.tree_to_json"]),
    "tree.load_s": ("s/call", ["tree.load_tree"]),
    "captioning.caption_frames_s": ("s/op", ["captioning.caption_frames"]),
    "captioning.caption_fanouts": ("count/op", ["captioning.caption_frames"]),
    "captioning.frames_captioned": ("count/op", ["captioning.caption_frames"]),
    "captioning.summarize_s": ("s/op", ["captioning.summarize_segments"]),
    "captioning.fusion_calls": ("count/op", ["captioning.summarize_segments",
                                             "backends.call"]),
    "captioning.classify_s": ("s/op", ["captioning.classify_question"]),
    "captioning.synthesize_s": ("s/op", ["captioning.synthesize_prompt"]),
    "captioning.sentinel_captions": ("count/op", ["captioning.caption_frames"]),
    "knowledge.retrieve_s.temporal_index": ("s/op", ["knowledge.retrieve"]),
    "knowledge.retrieve_s.moment_captions": ("s/op", ["knowledge.retrieve"]),
    "knowledge.retrieve_s.segment_summaries": ("s/op", ["knowledge.retrieve"]),
    "knowledge.retrieve_calls": ("count/op", ["knowledge.retrieve"]),
    "knowledge.degraded_ratio": ("ratio", ["knowledge.retrieve"]),
    "knowledge.observation_kb": ("kB/op", ["knowledge.as_text"]),
    "knowledge.to_sidecar_s": ("s/op", ["knowledge.to_sidecar"]),
    "knowledge.from_sidecar_s": ("s/call", ["knowledge.from_sidecar"]),
    "orchestrator.analyze_s": ("s/op", ["orchestrator.analyze_problem"]),
    "orchestrator.plan_s": ("s/op", ["orchestrator.plan_tasks"]),
    "orchestrator.react_s": ("s/op", ["orchestrator.run_react"]),
    "orchestrator.react_steps": ("count/op", ["orchestrator.run_react"]),
    "orchestrator.react_prompt_kb_max": ("kB", ["orchestrator.run_react",
                                                "backends.call"]),
    "orchestrator.answer_s": ("s/op", ["orchestrator.generate_answer"]),
    "orchestrator.repaired_ratio": ("ratio", ["orchestrator.plan_tasks"]),
    "orchestrator.truncated_ratio": ("ratio", ["pipeline.answer_question"]),
    "backends.calls.chat": ("count/op", ["backends.call"]),
    "backends.calls.caption": ("count/op", ["backends.call"]),
    "backends.calls.embed": ("count/op", ["backends.call"]),
    "backends.prompt_kb": ("kB/op", ["backends.call"]),
    "backends.response_kb": ("kB/op", ["backends.call"]),
    "backends.errors": ("count/op", ["backends.call"]),
    "backends.service_s": ("s/op", ["backends.call"]),
    "backends.wait_s": ("s/op", ["backends.call"]),
    "backends.inflight_peak": ("count", []),
    "pipeline.build_video_s": ("s/op", ["pipeline.build_video"]),
    "pipeline.build_video_L": ("L", ["pipeline.build_video"]),
    "pipeline.build_video_self_s": ("s/op", ["pipeline.build_video"]),
    "pipeline.answer_question_s": ("s/op", ["pipeline.answer_question"]),
    "pipeline.answer_question_self_s": ("s/op", ["pipeline.answer_question"]),
    "pipeline.evaluate_s": ("s/op", ["pipeline.evaluate"]),
    "trace.overhead_s": ("s/op", []),
    "trace.spans": ("count/op", []),
    "trace.unmeasured": ("count", []),
}


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Records spans in one process."""

    def __init__(self, fake) -> None:
        self.fake = fake            # the FakeModel, for per-call service time
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        tracer = self

        class PropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._carry(fn), *args, **kwargs)

        self._executor = PropagatingExecutor

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, annotate in HOOKS:
            owner, attr = importlib.import_module(module_name), path
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(owner, class_name, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.add(name)
                continue
            raw = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, annotate)))
            else:
                setattr(owner, attr, self._wrap(raw, name, annotate))
        for module_name in EXECUTOR_MODULES:
            module = importlib.import_module(module_name)
            if hasattr(module, "ThreadPoolExecutor"):
                self._saved.append((module, "ThreadPoolExecutor",
                                    module.ThreadPoolExecutor))
                module.ThreadPoolExecutor = self._executor

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name: str, annotate):
        tracer = self
        is_backend_call = name == "backends.call"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                tracer._local.stack.pop()
                tracer.spans.append(span)
            if is_backend_call:
                span.attrs["capability"] = args[1].capability
                service, prompt, response = tracer.fake.last_call()
                span.attrs.update(service=service, prompt=prompt, response=response)
            elif annotate is not None:
                try:
                    annotate(span, args, kwargs, result)
                except (AttributeError, ImportError, IndexError, KeyError, TypeError):
                    tracer.missing.add(name)
            return result

        return traced

    # -- span context -------------------------------------------------------

    def _open(self, name: str) -> Span:
        local = self._local
        if getattr(local, "stack", None) is None:
            local.stack, local.op = [], None
        stack = local.stack
        span = Span(next(self._ids), stack[-1] if stack else None, name,
                    local.op, perf_counter())
        stack.append(span.id)
        return span

    @contextmanager
    def op(self, op_id: str):
        """Spans opened inside belong to this op."""
        local = self._local
        saved = getattr(local, "op", None), getattr(local, "stack", None)
        local.op, local.stack = op_id, []
        try:
            yield
        finally:
            local.op, local.stack = saved

    def _carry(self, fn):
        """Run fn on a pool thread under the submitting thread's op and span."""
        local = self._local
        op = getattr(local, "op", None)
        stack = getattr(local, "stack", None)
        base = [stack[-1]] if stack else []

        def carried(*args, **kwargs):
            saved = getattr(local, "op", None), getattr(local, "stack", None)
            local.op, local.stack = op, list(base)
            try:
                return fn(*args, **kwargs)
            finally:
                local.op, local.stack = saved

        return carried

    def dump(self, path: Path) -> None:
        """Raw spans, one JSON line each, after a line naming missing hooks."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": sorted(self.missing)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps([span.id, span.parent, span.name, span.op,
                                     span.start, span.end, span.attrs]) + "\n")


# ---------------------------------------------------------------------------
# Merging and metrics (parent process)
# ---------------------------------------------------------------------------

def load(paths: list[Path]) -> tuple[list[Span], set[str]]:
    """Spans of every client, ids made unique across clients."""
    spans, missing = [], set()
    for client, path in enumerate(paths):
        base = client * 10**9
        with open(path, encoding="utf-8") as fh:
            missing.update(json.loads(fh.readline())["missing"])
            for line in fh:
                sid, parent, name, op, start, end, attrs = json.loads(line)
                spans.append(Span(base + sid, None if parent is None else base + parent,
                                  name, None if op is None else f"{client}:{op}",
                                  start, end, attrs))
    return spans, missing


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: span.dur - _covered(span.start, span.end, children[span.id])
            for span in spans}


def layer_metrics(spans: list[Span], missing: set[str], ops: int,
                  overhead_s: float, inflight_peak: int,
                  latency_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics over the spans of `ops` traced ops, and the names of
    the metrics that could not be measured."""
    self_time = self_times(spans)
    by_id = {span.id: span for span in spans}
    in_ops = defaultdict(list)
    everywhere = defaultdict(list)
    for span in spans:
        everywhere[span.name].append(span)
        if span.op is not None:
            in_ops[span.name].append(span)

    def per_op(name, value=lambda s: s.dur):
        return sum(value(s) for s in in_ops[name]) / ops

    def count(name, test=lambda s: True):
        return sum(1 for s in in_ops[name] if test(s)) / ops

    def ratio(name, key):
        spans = in_ops[name]
        return sum(bool(s.attrs.get(key)) for s in spans) / len(spans) if spans else 0.0

    def per_call(name):
        spans = everywhere[name]
        return sum(s.dur for s in spans) / len(spans) if spans else 0.0

    def parent_is(name):
        return lambda s: s.parent in by_id and by_id[s.parent].name == name

    def scope(name):
        return lambda s: s.dur if s.attrs.get("scope") == name else 0.0

    def attr(key):
        return lambda s: s.attrs.get(key, 0)

    def capability(name):
        return lambda s: s.attrs.get("capability") == name

    react_prompts = [s.attrs.get("prompt", 0) for s in in_ops["backends.call"]
                     if parent_is("orchestrator.run_react")(s)]
    builds = in_ops["pipeline.build_video"]
    values = {
        "ingest.load_frames_s": per_op("ingest.load_frames"),
        "ingest.detect_shots_s": per_op("ingest.detect_shots"),
        "ingest.shots": per_op("ingest.detect_shots", attr("n")),
        "tree.score_shots_s": per_op("tree.score_shots"),
        "tree.expand_tree_s": per_op("tree.expand_tree"),
        "tree.kmeans_calls": count("tree.kmeans"),
        "tree.nodes": per_op("pipeline.build_video", attr("nodes")),
        "tree.vtsearch_frames": per_op("tree.vtsearch", attr("n")),
        "tree.serialize_s": per_op("tree.tree_to_json"),
        "tree.load_s": per_call("tree.load_tree"),
        "captioning.caption_frames_s": per_op("captioning.caption_frames"),
        "captioning.caption_fanouts": count("captioning.caption_frames"),
        "captioning.frames_captioned": per_op("captioning.caption_frames",
                                              attr("frames")),
        "captioning.summarize_s": per_op("captioning.summarize_segments"),
        "captioning.fusion_calls": count(
            "backends.call", parent_is("captioning.summarize_segments")),
        "captioning.classify_s": per_op("captioning.classify_question"),
        "captioning.synthesize_s": per_op("captioning.synthesize_prompt"),
        "captioning.sentinel_captions": per_op("captioning.caption_frames",
                                               attr("sentinel")),
        "knowledge.retrieve_s.temporal_index": per_op(
            "knowledge.retrieve", scope("temporal_index")),
        "knowledge.retrieve_s.moment_captions": per_op(
            "knowledge.retrieve", scope("moment_captions")),
        "knowledge.retrieve_s.segment_summaries": per_op(
            "knowledge.retrieve", scope("segment_summaries")),
        "knowledge.retrieve_calls": count("knowledge.retrieve"),
        "knowledge.degraded_ratio": ratio("knowledge.retrieve", "degraded"),
        "knowledge.observation_kb": per_op("knowledge.as_text", attr("bytes")) / 1000,
        "knowledge.to_sidecar_s": per_op("knowledge.to_sidecar"),
        "knowledge.from_sidecar_s": per_call("knowledge.from_sidecar"),
        "orchestrator.analyze_s": per_op("orchestrator.analyze_problem"),
        "orchestrator.plan_s": per_op("orchestrator.plan_tasks"),
        "orchestrator.react_s": per_op("orchestrator.run_react"),
        "orchestrator.react_steps": per_op("orchestrator.run_react", attr("steps")),
        "orchestrator.react_prompt_kb_max": max(react_prompts, default=0) / 1000,
        "orchestrator.answer_s": per_op("orchestrator.generate_answer"),
        "orchestrator.repaired_ratio": ratio("orchestrator.plan_tasks", "repaired"),
        "orchestrator.truncated_ratio": ratio("pipeline.answer_question", "truncated"),
        "backends.calls.chat": count("backends.call", capability("chat")),
        "backends.calls.caption": count("backends.call", capability("caption")),
        "backends.calls.embed": count("backends.call", capability("embed")),
        "backends.prompt_kb": per_op("backends.call", attr("prompt")) / 1000,
        "backends.response_kb": per_op("backends.call", attr("response")) / 1000,
        "backends.errors": count("backends.call", lambda s: "error" in s.attrs),
        "backends.service_s": per_op("backends.call", attr("service")),
        "backends.wait_s": per_op(
            "backends.call", lambda s: s.dur - s.attrs.get("service", 0.0)),
        "backends.inflight_peak": inflight_peak,
        "pipeline.build_video_s": per_op("pipeline.build_video"),
        "pipeline.build_video_L": (sum(s.dur for s in builds) / len(builds)
                                   / latency_s if builds else 0.0),
        "pipeline.build_video_self_s": per_op(
            "pipeline.build_video", lambda s: self_time[s.id]),
        "pipeline.answer_question_s": per_op("pipeline.answer_question"),
        "pipeline.answer_question_self_s": per_op(
            "pipeline.answer_question", lambda s: self_time[s.id]),
        "pipeline.evaluate_s": per_op("pipeline.evaluate"),
        "trace.overhead_s": overhead_s,
        "trace.spans": sum(len(v) for v in in_ops.values()) / ops,
    }
    unmeasured = sorted(name for name, (_, needs) in METRICS.items()
                        if missing.intersection(needs))
    for name in unmeasured:
        values[name] = 0.0
    values["trace.unmeasured"] = len(unmeasured)
    return ({name: (values[name], unit) for name, (unit, _) in METRICS.items()},
            unmeasured)


def summary(spans: list[Span]) -> dict[str, dict]:
    """Calls, inclusive and self seconds per span name."""
    self_time = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.dur
        row["self_s"] += self_time[span.id]
    return out


def write_jsonl(path: Path, spans: list[Span], footer: dict) -> None:
    """One line per span in start order, then the footer line."""
    self_time = self_times(spans)
    t0 = min((span.start for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for span in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps({
                "id": span.id, "parent": span.parent, "name": span.name,
                "op": span.op, "start_s": span.start - t0, "dur_s": span.dur,
                "self_s": self_time[span.id], **span.attrs}) + "\n")
        fh.write(json.dumps(footer) + "\n")
