"""Command-line surface: build, ask, eval, inspect.

Exit codes: 0 success, 2 input error, 3 backend error, 4 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .backends import Backend, CachingBackend, MockScript
from .captioning import QTYPES, QuestionBundle, check_question, classify_question
from .config import EngineConfig
from .errors import (
    Doc,
    ValidationError,
    VideoQAError,
    check_writable,
    write_text,
)
from .knowledge import build_json, load_build, load_profiles
from .pipeline import (
    answer_question,
    build_video,
    evaluate,
    load_question_file,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="engine config JSON file")
    parser.add_argument("--seed", type=int, help="override the engine seed")
    parser.add_argument("--mock-script",
                        help="serve all model calls from this scripted mock")
    parser.add_argument("--cache", action="store_true",
                        help="cache backend responses on disk, in "
                             "backend.cache_dir or .videoqa_cache")
    parser.add_argument("--verbose", action="store_true")


def _add_ablations(parser: argparse.ArgumentParser, *names: str) -> None:
    if "uniform" in names:
        parser.add_argument("--uniform-sampling", action="store_true",
                            help="replace the tree with evenly spaced leaf shots")
    if "generic" in names:
        parser.add_argument("--generic-captions", action="store_true",
                            help="skip prompt synthesis, caption generically")
    if "fixed" in names:
        parser.add_argument("--fixed-workflow", action="store_true",
                            help="skip planning, always run all four agents")


def _load_config(args: argparse.Namespace) -> EngineConfig:
    config = (EngineConfig.from_file(args.config) if args.config
              else EngineConfig())
    if args.seed is not None:  # through __post_init__, which checks it
        config = dataclasses.replace(config, seed=args.seed)
    if args.cache and not config.backend.cache_dir:
        config.backend.cache_dir = ".videoqa_cache"
    for flag in ("uniform_sampling", "generic_captions", "fixed_workflow",
                 "reclassify"):
        if getattr(args, flag, False):
            setattr(config, flag, True)
    return config


def _make_backend(args: argparse.Namespace, config: EngineConfig) -> Backend:
    if args.mock_script:
        backend = Backend.from_mock(MockScript.from_file(args.mock_script),
                                    config.backend.max_inflight)
    else:
        backend = Backend.from_config(config.backend)
    if config.backend.cache_dir:
        backend = CachingBackend(backend, config.backend.cache_dir)
    return backend


def cmd_build(args: argparse.Namespace) -> int:
    check_writable(("build file", args.out),
                   inputs=(("frame manifest", args.frame_manifest),
                           ("question file", args.questions),
                           ("config file", args.config),
                           ("mock script", args.mock_script)))
    config = _load_config(args)
    backend = _make_backend(args, config)
    questions = load_question_file(args.questions)
    result = build_video(args.frame_manifest, questions, config, backend)

    write_text(args.out, build_json(result.store) + "\n", "build file")

    expanded = sum(1 for sid in result.tree.shot_order
                   if result.tree.nodes[sid].children)
    print(f"built {result.tree.video_id}: {len(result.tree.shot_order)} shots, "
          f"{expanded} expanded, {len(result.retrieved_frames)} frames "
          f"captioned -> {args.out}")
    return 0


def cmd_ask(args: argparse.Namespace) -> int:
    options = tuple(args.option or [])
    check_question(args.question, options,
                   Doc(None, ValidationError, f"question {args.question_id}"))
    config = _load_config(args)
    backend = _make_backend(args, config)
    store = load_build(args.file)

    qtype = args.qtype or classify_question(args.question, list(options), backend)
    bundle = QuestionBundle(question_id=args.question_id, text=args.question,
                            options=options, qtype=qtype)

    profiles = load_profiles(config.profile_dir)
    record = answer_question(bundle, store, profiles, config, backend)
    print(record.to_json())
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    out_records, out_report = Path(args.out_records), Path(args.out_report)
    check_writable(("records file", out_records), ("report file", out_report),
                   inputs=(("dataset manifest", args.manifest),
                           ("config file", args.config),
                           ("mock script", args.mock_script)))
    config = _load_config(args)
    backend = _make_backend(args, config)
    records, report = evaluate(args.manifest, config, backend)

    write_text(out_records, "".join(r.to_json() + "\n" for r in records),
               "records file")
    write_text(out_report, report.to_json() + "\n", "report file")

    summary = f"{report.num_questions} questions, mean rounds {report.mean_rounds:.2f}"
    if report.accuracy_overall is not None:
        summary += f", accuracy {report.accuracy_overall:.3f}"
        for qtype, acc in sorted(report.accuracy_by_type.items()):
            summary += f", {qtype} {acc:.3f}"
    print(f"eval complete: {summary} -> {out_records}, {out_report}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    tree = load_build(args.file).tree
    print(f"video {tree.video_id}: {len(tree.shot_order)} shots, "
          f"tau={tree.params.tau} k={tree.params.k} "
          f"max_depth={tree.params.max_depth} gamma={tree.params.gamma}")
    for sid in tree.shot_order:
        shot = tree.nodes[sid]
        rel = (f"{shot.relevance.value:.1f}" if shot.relevance else "unscored")
        depth_counts: dict[int, int] = {}
        stack = list(shot.children)
        while stack:
            node = tree.nodes[stack.pop()]
            depth_counts[node.depth] = depth_counts.get(node.depth, 0) + 1
            stack.extend(node.children)
        subtree = (" ".join(f"d{d}:{c}" for d, c in sorted(depth_counts.items()))
                   or "leaf")
        print(f"  shot {sid} [{shot.start_frame}-{shot.end_frame}] "
              f"rep={shot.representative_frame} relevance={rel} {subtree}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="videoqa",
        description="Long-video multiple-choice QA over a shot-structured tree")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build", help="build a video's tree and knowledge store into one file")
    p_build.add_argument("frame_manifest")
    p_build.add_argument("questions", help="question file JSON")
    p_build.add_argument("out", help="build file to write")
    p_build.add_argument("--reclassify", action="store_true",
                         help="classify even when the file declares a type")
    _add_common(p_build)
    _add_ablations(p_build, "uniform", "generic")
    p_build.set_defaults(func=cmd_build)

    p_ask = sub.add_parser("ask", help="answer one question over a build file")
    p_ask.add_argument("file", help="build file")
    p_ask.add_argument("--question", required=True)
    p_ask.add_argument("--option", action="append",
                       help="answer option (repeat 2-5 times)")
    p_ask.add_argument("--question-id", default="q0")
    p_ask.add_argument("--qtype", choices=QTYPES,
                       help="skip classification and use this type")
    _add_common(p_ask)
    _add_ablations(p_ask, "fixed")
    p_ask.set_defaults(func=cmd_ask)

    p_eval = sub.add_parser("eval", help="run a dataset manifest")
    p_eval.add_argument("manifest")
    p_eval.add_argument("--out-records", default="records.jsonl")
    p_eval.add_argument("--out-report", default="report.json")
    p_eval.add_argument("--reclassify", action="store_true",
                        help="classify even when the manifest declares types")
    _add_common(p_eval)
    _add_ablations(p_eval, "uniform", "generic", "fixed")
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser("inspect", help="pretty-print a build's tree")
    p_inspect.add_argument("file", help="build file")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except VideoQAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
