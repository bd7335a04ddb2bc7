"""Deterministic fixed-latency stand-in for the chat, caption and embed models.

One callable, used as `MockScript.default_response` with no rules. It reads
only the head and tail of each rendered payload (never scans a whole ReAct
transcript), answers from the planted facts of the benchmark's world, sleeps
a fixed latency, and counts calls, bytes and peak in-flight calls per
capability. It runs inside `Backend.call`, so the sleep happens while the
call holds the backend's in-flight limit.

World document (written by gen_inputs.py):
    {"videos": {video_id: {"num_frames": n, "high_shots": [[start, end], ...]}},
     "questions": {question_id: {"text", "qtype", "gold", "options",
                                  "text_tools", "visual_tools"}}}
"""

from __future__ import annotations

import json
import re
import threading
import time
import zlib

CAPABILITIES = ("chat", "caption", "embed")

# Rendered payloads are "<capability>:<canonical JSON>"; prompt text sits
# JSON-escaped inside it, so a newline in a prompt reads as backslash-n here.
NL = "\\n"
HEAD_CHARS = 600
TAIL_CHARS = 80

_FRAME_REF = re.compile(r"([A-Za-z0-9_]+):frame:(\d+)")
_AGENT_HEAD = re.compile(
    r"^\[(TextAgent|VisualAnalysisAgent)\] working on question ([A-Za-z0-9_]+)\.")
_QID = re.compile(r"question ([A-Za-z0-9_]+)\.")
_STEP = re.compile(r"Step (\d+):\"")
_CLASSIFICATION = re.compile(r"Current classification: (\w+)")
_SELECTED = re.compile(r"Selected agents: ([A-Za-z, ]+)")

SUBJECTS = ("a man", "a woman", "two children", "a chef", "a cyclist", "a dog")
VERBS = ("holds", "opens", "carries", "points at", "drops", "repairs")
OBJECTS = ("a red box", "a ladder", "a blue kettle", "a map", "a bicycle",
           "a green umbrella")
PLACES = ("a kitchen counter", "a park bench", "a market stall",
          "a stairwell", "a riverside path", "a garage door")


def _pick(words: tuple[str, ...], key: str, salt: int) -> str:
    return words[(zlib.crc32(key.encode()) + salt) % len(words)]


def describe(ref: str, tag: str) -> str:
    """Deterministic caption text for one frame reference."""
    key = f"{tag}|{ref}"
    return (f"{tag} view of {ref}: {_pick(SUBJECTS, key, 0)} "
            f"{_pick(VERBS, key, 1)} {_pick(OBJECTS, key, 2)} "
            f"near {_pick(PLACES, key, 3)}")


class FakeModel:
    """Callable model stand-in with per-capability counters."""

    def __init__(self, world: dict, latency_s: float) -> None:
        self.latency_s = latency_s
        self.questions = world["questions"]
        self.qtype_by_text = {q["text"]: q["qtype"] for q in self.questions.values()}
        self.high = {}
        for video_id, video in world["videos"].items():
            flags = bytearray(video["num_frames"])
            for start, end in video["high_shots"]:
                flags[start:end + 1] = b"\x01" * (end - start + 1)
            self.high[video_id] = flags
        self._lock = threading.Lock()
        self._last = threading.local()
        self.stats = {cap: {"calls": 0, "prompt_bytes": 0, "response_bytes": 0,
                            "inflight": 0, "inflight_peak": 0}
                      for cap in CAPABILITIES}
        self.inflight = 0
        self.inflight_peak = 0

    # -- counters -----------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {"calls": sum(s["calls"] for s in self.stats.values()),
                    "prompt_bytes": sum(s["prompt_bytes"] for s in self.stats.values())}

    def reset_peak(self) -> None:
        with self._lock:
            self.inflight_peak = self.inflight
            for stats in self.stats.values():
                stats["inflight_peak"] = stats["inflight"]

    def last_call(self) -> tuple[float, int, int]:
        """(service seconds, prompt bytes, response bytes) of the latest call
        made on the current thread."""
        return getattr(self._last, "value", (0.0, 0, 0))

    # -- the model ----------------------------------------------------------

    def __call__(self, rendered: str):
        start = time.perf_counter()
        capability = rendered[:rendered.find(":")]
        stats = self.stats[capability]
        with self._lock:
            self.inflight += 1
            self.inflight_peak = max(self.inflight_peak, self.inflight)
            stats["inflight"] += 1
            stats["inflight_peak"] = max(stats["inflight_peak"], stats["inflight"])
        try:
            response = self._respond(capability, rendered)
            time.sleep(self.latency_s)
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.inflight -= 1
                stats["inflight"] -= 1
        size = len(response) if isinstance(response, str) else 8 * len(response)
        with self._lock:
            stats["calls"] += 1
            stats["prompt_bytes"] += len(rendered)
            stats["response_bytes"] += size
        self._last.value = (elapsed, len(rendered), size)
        return response

    def _respond(self, capability: str, rendered: str):
        if capability == "caption":
            return self._caption(rendered)
        if capability == "embed":
            seed = zlib.crc32(rendered.encode())
            return [1.0 + ((seed >> i) & 1) for i in range(8)]
        prompt_head = rendered[rendered.find('"content":"') + 11:][:HEAD_CHARS]
        if prompt_head.startswith("["):
            return self._agent(prompt_head, rendered[-TAIL_CHARS:])
        if prompt_head.startswith("Rate how relevant"):
            return self._score(rendered)
        if prompt_head.startswith("Classify this"):
            return self.qtype_by_text.get(self._field(rendered, "Question: "),
                                          "Descriptive")
        if prompt_head.startswith("You write visual captioning prompts"):
            first = self._field(rendered, "Questions:" + NL + "- ")
            qtype = self.qtype_by_text.get(first, "Descriptive")
            return f"{qtype} focus: describe what this frame shows about: {first}"
        if prompt_head.startswith("Fuse these frame captions"):
            qtype = rendered.split(" summary. ")[0].rsplit(" ", 1)[-1]
            first = self._field(rendered, "distinct fact." + NL + "- ")
            return f"Fused {qtype} summary: {first}"
        return "unrecognised prompt"

    @staticmethod
    def _field(rendered: str, marker: str) -> str:
        """Text after `marker` up to the next escaped newline."""
        start = rendered.find(marker)
        if start < 0:
            return ""
        start += len(marker)
        end = rendered.find(NL, start)
        return rendered[start:end if end >= 0 else len(rendered)]

    def _caption(self, rendered: str) -> str:
        doc = json.loads(rendered[len("caption:"):])
        prompt = doc["prompt"]
        head = prompt.split(" focus:", 1)[0]
        tag = head.lower() if " focus:" in prompt else (
            "generic" if prompt.startswith("Describe this frame in") else "inspect")
        return describe(doc["image"], tag)

    def _score(self, rendered: str) -> str:
        match = _FRAME_REF.search(rendered)
        if match is None:
            return "3"
        video_id, frame = match.group(1), int(match.group(2))
        flags = self.high.get(video_id)
        high = flags is not None and frame < len(flags) and flags[frame]
        jitter = zlib.crc32(match.group(0).encode()) & 1
        return str(4 + jitter if high else 1 + jitter)

    def _agent(self, head: str, tail: str) -> str:
        react = _AGENT_HEAD.match(head)
        if react is not None:
            return self._react(react.group(1), react.group(2), tail)
        qid_match = _QID.search(head)
        question = self.questions.get(qid_match.group(1)) if qid_match else None
        if head.startswith("[ProblemAnalysisAgent]"):
            if question is not None:
                qtype = question["qtype"]
            else:
                found = _CLASSIFICATION.search(head)
                qtype = found.group(1) if found else "Descriptive"
            return (f"{qtype}. Agents needed: TextAgent, VisualAnalysisAgent, "
                    "EvidenceIntegrationAgent, AnswerGenerationAgent.")
        if head.startswith("[TaskPlanningAgent]"):
            found = _SELECTED.search(head)
            return json.dumps(_plan(found.group(1).split(", ") if found else []))
        if head.startswith("[AnswerGenerationAgent]"):
            gold = question["gold"] if question is not None else 0
            return (f"Option {gold} is best supported: the integrated evidence "
                    "from captions and summaries points to it.")
        return "unrecognised prompt"

    def _react(self, agent: str, qid: str, tail: str) -> str:
        question = self.questions.get(qid)
        step_match = _STEP.search(tail)
        step = int(step_match.group(1)) if step_match else 1
        if question is None:
            return 'THOUGHT: unknown question\nFINAL: {"option_support": []}'
        tools = question["text_tools" if agent == "TextAgent" else "visual_tools"]
        if step <= len(tools):
            tool, args = tools[step - 1]
            return (f"THOUGHT: check {tool} for {question['qtype'].lower()} "
                    f"evidence\nACTION: {tool} {json.dumps(args)}")
        support = [0.9 if i == question["gold"] else 0.1
                   for i in range(question["options"])]
        final = {"option_support": support, "confidence": 0.8,
                 "rationale": f"{agent} found option {question['gold']} supported"}
        if question["qtype"] == "Causal":
            final["direction_check"] = {"cause_supported": True,
                                        "effect_supported": True}
        return f"THOUGHT: enough evidence\nFINAL: {json.dumps(final)}"


def _plan(selected: list[str]) -> list[dict]:
    """A valid linear workflow over the selected agents."""
    seeds = ["question", "options", "tree"]
    stages, produced = [], []
    for agent, key in (("TextAgent", "text_evidence"),
                       ("VisualAnalysisAgent", "visual_evidence")):
        if agent in selected:
            stages.append({"agent": agent, "task": f"gather {key}",
                           "inputs": seeds, "output": key})
            produced.append(key)
    if "EvidenceIntegrationAgent" in selected:
        stages.append({"agent": "EvidenceIntegrationAgent",
                       "task": "fuse evidence", "inputs": produced,
                       "output": "option_scores"})
        produced = ["option_scores"]
    stages.append({"agent": "AnswerGenerationAgent", "task": "answer",
                   "inputs": produced, "output": "answer"})
    return stages
