#!/usr/bin/env python3
"""Benchmark of the videoqa engine against a fixed-latency fake model.

Run from the repository root:

    python3 perfbench/run.py --workload build_1h --seed 1 --seconds 27 --trace 0

The program is imported from ./src; nothing is installed. This process only
orchestrates. It generates the inputs from --seed in a child process under
.perfbench_out/, times set-up in fresh processes, and starts the workload's
client processes. Each client sets up, waits for a common start, and runs a
closed op loop. With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics. With --trace 1 it holds the per-layer metrics of a
traced run, and the spans are written to
.perfbench_out/trace-<workload>-seed<seed>.jsonl. Metric names and units are
those listed in BENCHMARK.json. The exit code is 0 only when every op passed
its correctness check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("build_1h", "ask_3h", "eval_batch")
SETUP_REPEATS = 9           # the clients' own set-ups plus fresh processes
CHILD_TIMEOUT_S = 120
CLIENT_TIMEOUT_S = 150


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the child processes this script starts.
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--client", nargs=2, metavar=("INDEX", "DIR"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _command(args: argparse.Namespace, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def _child(args: argparse.Namespace, flag: str, workdir: Path) -> str:
    done = subprocess.run(_command(args, flag, str(workdir)), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child {flag} exited with {done.returncode}")
    return done.stdout


# ---------------------------------------------------------------------------
# Client process
# ---------------------------------------------------------------------------

def client_main(args: argparse.Namespace) -> int:
    """Set up, report ready, wait for "go", run the op loop, report."""
    import workloads

    client, workdir = int(args.client[0]), Path(args.client[1])
    tracer = None
    if args.trace:
        import layer_trace

        tracer = layer_trace.Tracer(fake=None)
    env, setup_s = workloads.setup(args.workload, workdir, tracer)
    import videoqa

    if Path(videoqa.__file__).resolve().parent != SRC / "videoqa":
        print(f"perfbench: videoqa imported from {videoqa.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"ready": setup_s}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 2

    runner = workloads.RUNNERS[args.workload]
    if tracer is None:
        phases = [runner(env, args.seconds, None, "op", client)]
    else:
        # The same op sequence twice: untraced, then traced. The difference
        # in wall time per op is the tracing overhead.
        tracer.fake = env.fake
        tracer.uninstall()
        untraced = runner(env, args.seconds / 2, None, "untraced", client)
        tracer.install()
        env.fake.reset_peak()
        traced = runner(env, args.seconds / 2, tracer, "traced", client)
        tracer.uninstall()
        tracer.dump(workdir / f"spans-{client}.jsonl")
        phases = [untraced, traced]
    print(json.dumps({
        "phases": [dataclasses.asdict(phase) for phase in phases],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inflight_peak": env.fake.inflight_peak,
        "per_capability": env.fake.stats,
    }))
    return 0


def run_clients(args: argparse.Namespace, workdir: Path,
                count: int) -> tuple[list[float], list[dict]]:
    """Start the clients, release them together once all are set up, and
    return their set-up times and reports. Every client is ended and
    waited for."""
    procs = []
    try:
        for client in range(count):
            procs.append(subprocess.Popen(
                _command(args, "--client", str(client), str(workdir)),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        ready = [json.loads(proc.stdout.readline())["ready"] for proc in procs]
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        reports = []
        for proc in procs:
            out, _ = proc.communicate(timeout=CLIENT_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"client exited with {proc.returncode}")
            reports.append(json.loads(out.splitlines()[-1]))
        return ready, reports
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_latency(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; with 20 or fewer samples no such percentile lies
    above the median, so the median is reported."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(phases: list[dict], reports: list[dict],
               setup_samples: list[float]) -> dict:
    measured = [v for phase in phases for v in phase["latencies"]]
    # With no successful op there is no latency; the run is failed anyway.
    latencies = measured or [0.0]
    ops = sum(phase["attempted"] for phase in phases)
    failed = sum(phase["failed"] for phase in phases)
    tail, pct = tail_latency(latencies)
    print(f"ops attempted {ops}, failed {failed} "
          f"(ops_failed_ratio {failed / ops:.4f}), {len(measured)} latency "
          f"samples, tail at p{pct:.1f} ({sum(v > tail for v in latencies)} "
          f"beyond), timed wall {[round(p['wall_s'], 3) for p in phases]} s, "
          f"set-up samples {[round(s, 4) for s in setup_samples]}")
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_latency_p50_s": (statistics.median(latencies), "s"),
        "op_latency_tail_s": (tail, "s"),
        "ops_per_s": (sum(len(p["latencies"]) / p["wall_s"] for p in phases), "1/s"),
        "backend_calls_per_op": (sum(p["calls"] for p in phases) / ops, "count"),
        "prompt_kb_per_op": (sum(p["prompt_bytes"] for p in phases) / 1000 / ops,
                             "kB"),
        "peak_rss_mb": (max(r["maxrss_mb"] for r in reports), "MB"),
    }


def per_layer(args: argparse.Namespace, workdir: Path, reports: list[dict]) -> dict:
    import layer_trace
    import workloads

    untraced = [r["phases"][0] for r in reports]
    traced = [r["phases"][1] for r in reports]
    overhead = statistics.mean(
        b["wall_s"] / b["attempted"] - a["wall_s"] / a["attempted"]
        for a, b in zip(untraced, traced))
    spans, missing = layer_trace.load(
        [workdir / f"spans-{c}.jsonl" for c in range(len(reports))])
    metrics, unmeasured = layer_trace.layer_metrics(
        spans, missing, sum(b["attempted"] for b in traced), overhead,
        max(r["inflight_peak"] for r in reports), workloads.LATENCY_S)
    summary = layer_trace.summary(spans)
    print(f"{'span':34s} {'calls':>7s} {'total s':>10s} {'self s':>10s}")
    for name, row in sorted(summary.items(), key=lambda item: -item[1]["self_s"]):
        print(f"{name:34s} {row['calls']:7d} {row['total_s']:10.4f} "
              f"{row['self_s']:10.4f}")
    print(f"tracing overhead {overhead:+.4f} s/op over "
          f"{sum(b['attempted'] for b in traced)} traced and "
          f"{sum(a['attempted'] for a in untraced)} untraced ops; "
          f"unmeasured: {', '.join(unmeasured) or 'none'}")
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    layer_trace.write_jsonl(path, spans, {
        "summary": summary,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "unmeasured": unmeasured, "missing_hooks": sorted(missing)})
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def orchestrate(args: argparse.Namespace) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    started = perf_counter()
    try:
        _child(args, "--prepare", workdir)
        clients = workloads.CLIENTS[args.workload]
        probes = [] if args.trace else [
            json.loads(_child(args, "--probe-setup", workdir).splitlines()[-1])
            for _ in range(SETUP_REPEATS - clients)]
        ready, reports = run_clients(args, workdir, clients)
        phases = [phase for r in reports for phase in r["phases"]]
        for client, report in enumerate(reports):
            print(f"client {client} fake model, whole run: " + "; ".join(
                f"{cap} {s['calls']} calls, {s['prompt_bytes']} B in, "
                f"{s['response_bytes']} B out, peak {s['inflight_peak']} in flight"
                for cap, s in report["per_capability"].items()))
        if args.trace:
            metrics = per_layer(args, workdir, reports)
        else:
            metrics = end_to_end(phases, reports, ready + probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if {name: unit for name, (_, unit) in metrics.items()} != expected:
        print("perfbench: computed metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(f"run took {perf_counter() - started:.1f} s")
    failed = sum(phase["failed"] for phase in phases)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(phase["attempted"] for phase in phases),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "videoqa" / "__init__.py").is_file():
        print(f"perfbench: no videoqa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.prepare:
        import gen_inputs
        import workloads

        workdir = Path(args.prepare)
        world = gen_inputs.prepare(args.workload, args.seed, workdir)
        if args.workload == "ask_3h":
            workloads.prebuild_ask_3h(workdir, world)
        return 0
    if args.probe_setup:
        import workloads

        _, seconds = workloads.setup(args.workload, Path(args.probe_setup))
        print(json.dumps(seconds))
        return 0
    if args.client:
        return client_main(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
