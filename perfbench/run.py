"""
Benchmark of the heckeiso library: three closed-loop, single-threaded
workloads (decide, enumerate, oracle), see workloads.json for what each one
runs and why.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root; the program is imported from ./src.  With
--trace 0 the run measures for --seconds of op time and prints the
end-to-end metrics; with --trace 1 it runs a fixed, seeded set of rounds
twice, untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  Every metric is printed as "name value unit"; the last
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
--workload all runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import array
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import CONFIG, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Cold set-ups in child processes, spread over the run so that they sample
# different moments of a shared host; setup_s is their median together with
# the run's own set-up.
SETUP_PROBES = 6

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit, span, field of the span summary)
SPAN_METRICS = [
    ("ff.rref.calls", "count", "ff.rref", "calls"),
    ("ff.rref.self_s", "s", "ff.rref", "self_s"),
    ("ff.matmul.calls", "count", "ff.matmul", "calls"),
    ("ff.matmul.self_s", "s", "ff.matmul", "self_s"),
    ("ff.kron.calls", "count", "ff.kron", "calls"),
    ("ff.kron.self_s", "s", "ff.kron", "self_s"),
    ("ff.fieldctx.build_s", "s", "ff.fieldctx.build", "total_s"),
    ("weyl.faces.calls", "count", "weyl.faces", "calls"),
    ("weyl.faces.self_s", "s", "weyl.faces", "self_s"),
    ("weyl.affine_dynkin.calls", "count", "weyl.affine_dynkin", "calls"),
    ("weyl.coxeter_group.build_s", "s", "weyl.coxeter_group.build", "total_s"),
    ("zerohecke.hom_space.calls", "count", "zerohecke.hom_space", "calls"),
    ("zerohecke.hom_space.self_s", "s", "zerohecke.hom_space", "self_s"),
    ("zerohecke.is_projective.calls", "count", "zerohecke.is_projective", "calls"),
    ("zerohecke.is_projective.self_s", "s", "zerohecke.is_projective", "self_s"),
    ("zerohecke.stable_hom_dim.calls", "count", "zerohecke.stable_hom_dim", "calls"),
    ("zerohecke.stable_hom_dim.self_s", "s", "zerohecke.stable_hom_dim", "self_s"),
    ("haff.conj_char.calls", "count", "haff.conj_char", "calls"),
    ("haff.conj_char.self_s", "s", "haff.conj_char", "self_s"),
    ("haff.stabilizer.calls", "count", "haff.stabilizer", "calls"),
    ("haff.stabilizer.self_s", "s", "haff.stabilizer", "self_s"),
    ("haff.s_xi.calls", "count", "haff.s_xi", "calls"),
    ("haff.s_xi.self_s", "s", "haff.s_xi", "self_s"),
    ("haff.is_supersingular.calls", "count", "haff.is_supersingular", "calls"),
    ("haff.is_supersingular.self_s", "s", "haff.is_supersingular", "self_s"),
    ("gln.from_json.calls", "count", "gln.from_json", "calls"),
    ("gln.from_json.self_s", "s", "gln.from_json", "self_s"),
    ("gln.mod_iso_witness.calls", "count", "gln.mod_iso_witness", "calls"),
    ("gln.mod_iso_witness.self_s", "s", "gln.mod_iso_witness", "self_s"),
    ("gln.ho_iso_witness.calls", "count", "gln.ho_iso_witness", "calls"),
    ("gln.ho_iso_witness.self_s", "s", "gln.ho_iso_witness", "self_s"),
    ("gln.enumerate_simples.self_s", "s", "gln.enumerate_simples", "self_s"),
    ("oracle.build_face_algebra.calls", "count", "oracle.build_face_algebra", "calls"),
    ("oracle.face_alg.build_s", "s", "oracle.face_alg.build", "total_s"),
    ("oracle.brute_res_projective.calls", "count", "oracle.brute_res_projective", "calls"),
    ("oracle.brute_res_projective.self_s", "s", "oracle.brute_res_projective", "self_s"),
    ("oracle.brute_mod_isomorphic.calls", "count", "oracle.brute_mod_isomorphic", "calls"),
    ("oracle.brute_mod_isomorphic.self_s", "s", "oracle.brute_mod_isomorphic", "self_s"),
    ("oracle.brute_module_model.self_s", "s", "oracle.brute_module_model", "self_s"),
    ("oracle.brute_stable_hom.calls", "count", "oracle.brute_stable_hom", "calls"),
    ("oracle.brute_stable_hom.self_s", "s", "oracle.brute_stable_hom", "self_s"),
]

DERIVED_UNITS = {
    "ff.rref.cells": "count",
    "gln.candidates": "count",
    "gln.classes_per_candidate": "ratio",
    "gln.decisions": "count",
    "gln.mod_iso_ratio": "ratio",
    "gln.exceptional_ratio": "ratio",
    "gln.unsupported_ratio": "ratio",
    "oracle.face_alg.hit_ratio": "ratio",
    "oracle.face_alg.max_dim": "count",
    "trace.overhead_ops_s": "1/s",
    "trace.overhead_ratio": "ratio",
}

LAYER_UNITS = {m: unit for m, unit, _, _ in SPAN_METRICS} | DERIVED_UNITS


def import_program():
    """Import heckeiso from ./src afresh, so caches and tables start empty."""
    for name in [k for k in sys.modules if k == "heckeiso" or k.startswith("heckeiso.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    hk = importlib.import_module("heckeiso")
    if Path(hk.__file__).resolve().parent != SRC / "heckeiso":
        raise ImportError(f"heckeiso was imported from {hk.__file__}, not from {SRC}")
    return hk


def timed_setup(wl):
    """The program's set-up: import, specs, field tables and per-workload
    structures.  The benchmark's own input generation is not included."""
    t0 = time.perf_counter()
    hk = import_program()
    ctx = wl.setup(hk)
    return ctx, time.perf_counter() - t0


def setup_probe(name: str) -> float:
    """One cold set-up time, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.split()[-1])


class Runner:
    """Runs ops one after another and classifies each outcome."""

    def __init__(self, wl, ctx, gate_rng, run_op=None, keep_results=False):
        self.wl, self.ctx, self.gate_rng = wl, ctx, gate_rng
        self.run_op = run_op or wl.run_op
        self.keep_results = keep_results
        self.unsupported = ctx["hk"].gln.UnsupportedInstance
        # Per timed call, in arrays so that tens of thousands of calls add
        # little to peak_rss_mb.
        self.call_shapes, self.call_sizes = array.array("l"), array.array("l")
        self.call_seconds = array.array("d")
        self.busy = 0.0
        self.attempted = 0
        self.outcomes = {"ok": 0, "refused": 0, "wrong": 0, "error": 0}
        self.results: list[tuple[object, object]] = []  # (op, result) if keep_results

    def run(self, op):
        result, err = None, None
        t0 = time.perf_counter()
        try:
            result = self.run_op(self.ctx, op)
        except self.unsupported:
            err = "refused"
        except Exception:  # an exception is a failed op; keep measuring
            err = "error"
            if self.outcomes["error"] < 3:
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        self.busy += dt
        self.call_shapes.append(op.shape)
        self.call_sizes.append(op.size)
        self.call_seconds.append(dt)
        if err == "refused":
            outcome = "refused" if self.wl.refusal_expected(op) else "wrong"
        elif err:
            outcome = "error"
        else:
            outcome = "ok" if self.wl.check(op, result, self.gate_rng) else "wrong"
        self.outcomes[outcome] += op.size
        self.attempted += op.size
        if self.keep_results:
            self.results.append((op, result))
        if outcome == "wrong" and self.outcomes["wrong"] == op.size:
            print(f"first wrong answer: {op.kind} #{op.shape} {op.args!r:.300}", file=sys.stderr)

    @property
    def failed(self) -> int:
        """Wrong answers and exceptions.  A refusal the gate predicted (prime-
        power q on decide) is the program's documented answer, reported as
        unsupported_ratio, not a failed op; an unpredicted one is wrong."""
        return self.outcomes["wrong"] + self.outcomes["error"]


def percentile(samples: list[tuple[float, int]], pct: float) -> float:
    """Nearest-rank percentile of (value, weight) samples, a sample of weight
    w counting as w equal values."""
    samples = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * sum(w for _, w in samples)))
    seen = 0
    for value, weight in samples:
        seen += weight
        if seen >= rank:
            return value
    raise ValueError("no samples")


def run_untraced(wl, args) -> dict:
    cfg = CONFIG[wl.name]
    gen_rng = random.Random(args.seed)
    gate_rng = random.Random(f"{wl.name}-gate-{args.seed}")
    setups = [setup_probe(wl.name)]
    ctx, own_setup = timed_setup(wl)
    setups.append(own_setup)
    runner = Runner(wl, ctx, gate_rng)
    gen_s, kept = 0.0, []
    while runner.busy < args.seconds:
        if len(setups) <= SETUP_PROBES * runner.busy / args.seconds:
            setups.append(setup_probe(wl.name))
        t0 = time.perf_counter()
        ops = wl.make_round(gen_rng)
        gen_s += time.perf_counter() - t0
        kept = kept or ops
        for op in ops:
            runner.run(op)
    while len(setups) < SETUP_PROBES + 1:
        setups.append(setup_probe(wl.name))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = wl.final_gate(ctx, gate_rng, kept)
    for msg in problems:
        print(msg, file=sys.stderr)

    lat = wl.latency_samples(zip(runner.call_shapes, runner.call_sizes, runner.call_seconds))
    metrics = {
        "throughput_ops_s": runner.attempted / runner.busy,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_tail_ms": percentile(lat, cfg["tail_percentile"]) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {wl.name} seed {args.seed}: {len(runner.call_seconds)} timed calls, "
          f"{runner.attempted} ops, {runner.busy:.3f} s of op time")
    print(f"latency_tail_ms is p{cfg['tail_percentile']:g} of {runner.attempted} per-op samples "
          f"from {len(runner.call_seconds)} timed calls, "
          f"{runner.attempted - max(1, math.ceil(cfg['tail_percentile'] / 100 * runner.attempted))}"
          f" beyond it")
    print(f"setup_s is the median of {len(setups)} cold set-ups: "
          + " ".join(f"{s:.4f}" for s in setups))
    print(f"input_gen_s {gen_s:.6f} s (benchmark input generation, not in setup_s)")
    print(f"fail_ratio {runner.failed / runner.attempted:.6f} ratio "
          f"(failed {runner.failed} of {runner.attempted}: {runner.outcomes})")
    print(f"unsupported_ratio {runner.outcomes['refused'] / runner.attempted:.6f} ratio "
          f"(predicted UnsupportedInstance refusals, not counted as failed)")
    return {
        "correct": runner.outcomes["wrong"] == 0 and runner.outcomes["error"] == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def run_traced(wl, args) -> dict:
    cfg = CONFIG[wl.name]
    gen_rng = random.Random(args.seed)
    gate_rng = random.Random(f"{wl.name}-gate-{args.seed}")
    ops = [op for _ in range(cfg["trace_rounds"]) for op in wl.make_round(gen_rng)]

    # The untraced copy of the program and the traced one run the same ops
    # interleaved, alternating which goes first, so that both see the same
    # machine conditions and the throughput difference is the tracing cost.
    plain_ctx, _ = timed_setup(wl)
    plain = Runner(wl, plain_ctx, gate_rng)
    tracer = Tracer()
    hk = import_program()
    tracer.install(hk)
    try:
        ctx = tracer.span("bench.setup", wl.setup)(hk)
        traced = Runner(
            wl, ctx, gate_rng, run_op=tracer.span("bench.op", wl.run_op), keep_results=True
        )
        for k, op in enumerate(ops):
            for runner in (plain, traced) if k % 2 == 0 else (traced, plain):
                runner.run(op)
    finally:
        tracer.uninstall()
    problems = wl.final_gate(ctx, gate_rng, ops)
    for msg in problems:
        print(msg, file=sys.stderr)

    summ = tracer.summary()
    metrics = {metric: summ.get(span, {}).get(field, 0) for metric, _, span, field in SPAN_METRICS}
    metrics |= dict.fromkeys(DERIVED_UNITS, 0)
    metrics["ff.rref.cells"] = tracer.rref_cells
    fa_calls = summ.get("oracle.build_face_algebra", {}).get("calls", 0)
    fa_builds = summ.get("oracle.face_alg.build", {}).get("calls", 0)
    if fa_calls:
        metrics["oracle.face_alg.hit_ratio"] = (fa_calls - fa_builds) / fa_calls
    metrics |= wl.traced_counts(ctx, traced.results, traced.outcomes["refused"])

    plain_rate = plain.attempted / plain.busy
    traced_rate = traced.attempted / traced.busy
    metrics["trace.overhead_ops_s"] = plain_rate - traced_rate
    metrics["trace.overhead_ratio"] = 1 - traced_rate / plain_rate

    out_path = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.npz"
    tracer.write(out_path)
    print(f"workload {wl.name} seed {args.seed}: traced {len(ops)} calls "
          f"({cfg['trace_rounds']} rounds), {len(tracer.start)} spans written to "
          f"{out_path.relative_to(ROOT)}")
    print(f"throughput untraced {plain_rate:.3f} ops/s, traced {traced_rate:.3f} ops/s")
    return {
        "correct": not problems and all(
            r.outcomes["wrong"] == r.outcomes["error"] == 0 for r in (plain, traced)
        ),
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so memory, field tables and the
    face-algebra cache never carry over."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=900,
        )
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "heckeiso" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'heckeiso'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]()
    if args.setup_probe:
        print(timed_setup(wl)[1])
        return 0
    result = run_traced(wl, args) if args.trace else run_untraced(wl, args)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
