"""Benchmark of the tropmirror pipeline: one seeded workload per process.

    python3 bench/run.py --workload build-ladder --seed 1 --seconds 30 --trace 0

Each run imports the program from ``src/``, generates the workload's inputs
from the seed into a scratch directory (``.bench_work/``), and then runs the
workload's operations as a single-client closed loop: the next op starts
only after the previous one has returned, with no extra threads or
processes.  Passes over the whole op list repeat until ``--seconds`` have
elapsed.  Every op is timed from outside the program and its output is
checked (see ``workloads.py``); with the default seed its sha256 must also
match ``golden.json``, recorded at the commit that defined the benchmark.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, traced passes for the other half and one last
pass that records sizes, and reports the per-layer metrics (see
``tracing.py``); its spans are written to ``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it, starting
with ``report``, holds every metric of the run, including those that do
not apply to every workload.  The names and units of the result line's
metrics, and each workload's reason, are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from tracing import END, SPAN_NAMES, START, Tracer, calls_per_op, self_times  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, Program  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPS = 7
GOLDEN = os.path.join(BENCH, "golden.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
# metrics of the result line, with their units
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Per-command time summed over a pass, on the workloads that run the command.
# These, error_rate and the end-to-end metrics that BENCHMARK.json does not
# gate are on the report line only: a gated metric must exist on every
# workload and never be 0.
COMMAND_SUMS = {
    "build-ladder": ("web", "dual", "mirror"),
    "web-queries": ("dual", "mirror", "transport", "chamber"),
    "series-ladder": ("nov_inv", "wallcross", "eval"),
}

clock = time.perf_counter


@dataclass
class Pass:
    wall: float  # seconds, output checks excluded
    latencies: list[float]


@dataclass
class Runner:
    ops: list
    golden: Optional[dict]  # op id -> sha256, or None when not checked
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)  # op id -> (input, witness)
    seen: dict = field(default_factory=dict)  # op id -> (sha256, witness)

    def run_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        latencies, checking = [], 0.0
        start = clock()
        for seq, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op, tracer.active = seq, True
            t0 = clock()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            t1 = clock()
            if tracer is not None:
                tracer.active = False
            self.attempted += 1
            latencies.append(t1 - t0)
            witness = error or self.verify(op, out)
            if witness:
                self.failed += 1
                self.failures.setdefault(op.id, (op.input, witness))
            checking += clock() - t1
        return Pass(clock() - start - checking, latencies)

    def verify(self, op, out) -> Optional[str]:
        digest = hashlib.sha256(op.serialize(out)).hexdigest()
        if op.id in self.seen:
            first, witness = self.seen[op.id]
            if first != digest:
                return f"output changed between passes: sha256 {first[:16]} then {digest[:16]}"
            return witness
        try:
            witness = op.check(out)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            witness = f"output has the wrong shape: {type(exc).__name__}: {exc}"
        if witness is None and self.golden is not None:
            want = self.golden.get(op.id)
            if want is None:
                witness = "no golden digest recorded for this op"
            elif want != digest:
                witness = f"sha256 {digest[:16]} differs from golden {want[:16]}"
        self.seen[op.id] = (digest, witness)
        return witness


def set_up(workload: str, seed: int):
    """Import the program afresh and generate the inputs: (prog, ops, work dir, seconds)."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    t0 = clock()
    prog = Program()
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    ops = WORKLOADS[workload](prog, random.Random(seed), work)
    return prog, ops, work, clock() - t0


def time_set_up(workload: str, seed: int) -> float:
    """Time one more set-up and throw it away; the program being measured stays loaded."""
    loaded = _program_modules()
    try:
        _, _, work, seconds = set_up(workload, seed)
        shutil.rmtree(work)
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(loaded)
    return seconds


def _program_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "tropmirror" or n.startswith("tropmirror.")}


def until(seconds: float, step) -> list:
    """Call ``step`` at least once and until ``seconds`` have passed."""
    deadline = clock() + seconds
    out = [step()]
    while clock() < deadline:
        out.append(step())
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile)."""
    s = sorted(latencies)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def _fastest_runs(passes: list[Pass], nops: int) -> list[float]:
    """Each op's fastest run over ``passes``."""
    return [min(p.latencies[i] for p in passes) for i in range(nops)]


def end_to_end(workload: str, passes: list[Pass], setup_times: list[float], runner: Runner):
    # Each op is timed by its fastest run over all passes, and a pass by the
    # sum of those: host interference only ever adds time, and on a shared
    # host it comes in bursts of seconds that slow every op caught in them,
    # which a median of the passes that fit in a run does not filter out.
    # The percentiles are taken over the ops, so the sample count is fixed by
    # the workload.
    per_op = _fastest_runs(passes, len(runner.ops))
    tail_ms, tail_pct = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (sum(per_op), "s"),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "op_tail_ms": (1000 * tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (runner.failed / runner.attempted, "1"),
    }
    for kind in COMMAND_SUMS[workload]:
        metrics[f"{kind}_s"] = (sum(t for t, op in zip(per_op, runner.ops) if op.kind == kind), "s")
    details = {
        "passes": len(passes),
        "ops_per_pass": len(runner.ops),
        "setup_reps": len(setup_times),
        "op_latency_samples": f"{len(runner.ops)} ops, each the fastest of {len(passes)} passes",
        "pass_walls_s": [round(p.wall, 4) for p in passes],
        "setup_times_s": [round(t, 4) for t in setup_times],
        "op_tail_percentile": round(tail_pct, 1),
    }
    return metrics, details


def per_layer(prog, runner: Runner, seconds: float, spans_name: str) -> tuple[dict, dict]:
    base = until(seconds / 2, runner.run_pass)
    tracer = Tracer()
    tracer.install()
    try:
        marks = [0]

        def traced_pass():
            p = runner.run_pass(tracer)
            marks.append(len(tracer.spans))
            return p

        traced = until(seconds / 2, traced_pass)
        sizes = _sizes_pass(prog, runner, tracer)
    finally:
        tracer.uninstall()

    per_pass = [self_times(tracer.spans, a, b) for a, b in zip(marks, marks[1:])]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (per_pass[0][name][0], "count")
        metrics[f"{name}.self_s"] = (statistics.median(p[name][1] for p in per_pass), "s")
    faces = calls_per_op(tracer.spans, "diagram.faces", marks[0], marks[1])
    metrics["diagram.faces_per_web"] = (max(faces.values(), default=0), "count")
    metrics.update(sizes)
    nops = len(runner.ops)
    overhead = sum(_fastest_runs(traced, nops)) / sum(_fastest_runs(base, nops))
    metrics["trace_overhead"] = (overhead, "ratio")

    faces_by_kind: dict = {}
    for seq, n in faces.items():
        kind = runner.ops[seq].kind
        faces_by_kind[kind] = max(faces_by_kind.get(kind, 0), n)
    details = {
        "untraced_passes": len(base),
        "traced_passes": len(traced),
        "faces_calls_per_op_by_command": faces_by_kind,
        "spans": len(tracer.spans),
    }
    _write_spans(spans_name, runner, tracer, marks)
    return metrics, details


def _sizes_pass(prog, runner: Runner, tracer: Tracer) -> dict:
    """One more traced pass whose observers record sizes; its times are not used."""
    subdivisions: dict[int, list[float]] = {}
    novikov = {"terms": 0, "bits": 0}
    materialized = [0]

    def on_subdivision(args, result, span):
        subdivisions.setdefault(len(args[0]), []).append(span[END] - span[START])

    def on_novikov(args, result, span):
        novikov["terms"] = max(novikov["terms"], len(result.terms))
        for _, c in result.terms:
            novikov["bits"] = max(novikov["bits"], c.numerator.bit_length(), c.denominator.bit_length())

    family = prog.analytic.ConeFamily
    materialize = family.materialize

    def counted(self, *args, **kwargs):
        out = materialize(self, *args, **kwargs)
        materialized[0] += len(out)
        return out

    tracer.observers = {
        "charges.regular_subdivision": on_subdivision,
        "novikov.nov_add": on_novikov,
        "novikov.nov_mul": on_novikov,
        "novikov.nov_inv": on_novikov,
    }
    family.materialize = counted
    try:
        runner.run_pass(tracer)
    finally:
        family.materialize = materialize
        tracer.observers = {}

    exponent = 0.0
    if len(subdivisions) >= 2:
        (m1, t1), (m2, t2) = [(m, statistics.median(ts)) for m, ts in sorted(subdivisions.items())[-2:]]
        exponent = math.log(t2 / t1) / math.log(m2 / m1)
    return {
        "charges.points_max": (max(subdivisions, default=0), "count"),
        "charges.regular_subdivision.scaling_exp": (exponent, "1"),
        "novikov.max_terms": (novikov["terms"], "count"),
        "novikov.coeff_bits_max": (novikov["bits"], "bits"),
        "analytic.materialized_terms": (materialized[0], "count"),
    }


def _write_spans(name: str, runner: Runner, tracer: Tracer, marks: list[int]) -> None:
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"spans-{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "fields": ["name", "parent", "op", "start_s", "end_s"],
            "ops": [op.id for op in runner.ops],
            "pass_starts": marks[:-1],
            "spans": tracer.spans[: marks[-1]],
        }, fh)


def _print_report(workload, seed, trace, metrics, details, runner) -> None:
    print(f"workload {workload} (seed {seed}, trace {trace}): {WHY[workload]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for key, value in details.items():
        print(f"  {key}: {value}")
    print(f"  ops attempted {runner.attempted}, failed {runner.failed}")
    for op_id, (given, witness) in sorted(runner.failures.items()):
        print(f"  FAIL {op_id}: {witness}\n       input: {given}")
    print("report " + json.dumps({
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "failures": [{"op": k, "input": i, "witness": w} for k, (i, w) in sorted(runner.failures.items())],
    }, sort_keys=True))


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[workload] if seed == DEFAULT_SEED else None
    prog, ops, work, setup_first = set_up(workload, seed)
    if smoke:
        ops = [op for op in ops if op.smoke]
    runner = Runner(ops, golden)
    try:
        if trace:
            metrics, details = per_layer(prog, runner, seconds, f"{workload}-seed{seed}")
            declared = PER_LAYER
        else:
            # The other set-ups are spread over the run, so that their median
            # does not hang on the host's speed at one moment.
            setup_times, reps = [setup_first], 1 if smoke else SETUP_REPS
            start = clock()

            def step() -> Pass:
                p = runner.run_pass()
                if len(setup_times) < reps and clock() >= start + seconds * len(setup_times) / reps:
                    setup_times.append(time_set_up(workload, seed))
                return p

            passes = until(seconds, step)
            while len(setup_times) < reps:
                setup_times.append(time_set_up(workload, seed))
            metrics, details = end_to_end(workload, passes, setup_times, runner)
            declared = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_report(workload, seed, trace, metrics, details, runner)
    result = {}
    for name, unit in declared.items():
        value, measured_unit = metrics[name]
        if measured_unit != unit:
            raise ValueError(f"{name} is measured in {measured_unit}, BENCHMARK.json says {unit}")
        result[name] = {"value": value, "unit": unit}
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest input of each kind only")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "tropmirror")):
        print(f"error: no program to measure: {SRC}/tropmirror is missing", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
