"""One benchmark run: prime, set up, time, check, derive metrics.

Phases, in order, for one workload and seed:

1. **inputs** — every problem instance and the request stream are
   generated before any clock starts.
2. **prime** — one untimed set-up plus one request per structure
   fills the benchmark-owned cjit cache, so no later phase waits on
   gcc. New ``.so`` builds are counted from here on; any build in a
   later phase fails the run.
3. **set-up and timed window** — ``SETUP_REPEATS`` measured set-ups
   (service construction, the cold build-tier solve of every
   structure, opening sessions or batches), and ``setup_s`` is their
   median. The first builds the context the closed loop uses. The
   others sit between the loop's segments, which together last
   ``seconds`` (and at least one full cycle of the request stream, so
   the simulated-clock metrics always cover the same inputs for one
   seed). On traced runs the loop alternates untraced and traced
   cycles of the stream. Between requests, and right before and
   after each set-up, a fixed kernel is timed (:mod:`hostspeed`), and
   every host-clock time is scaled to the reference host by the
   samples nearest to it.
4. **checks** — every answer is checked (:mod:`checks`).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import checks
import hostspeed
import spans
from workloads import SETTINGS

SETUP_REPEATS = 5

#: ExecutionStats cycle classes grouped as in the paper's Fig. 8 split.
CYCLE_GROUPS = {"spmv": ("SpMV", "VecDup"),
                "vector": ("VectorOp", "ScalarOp", "Control"),
                "transfer": ("DataTransfer",)}

#: Spans whose self time is reported per request.
SELF_TIME_SPANS = ("request", "serving.fingerprint", "hw.accelerator.bind",
                   "hw.accelerator.run", "hw.compiled.executor",
                   "hw.compiled.run", "hw.cjit.compile_module",
                   "qp.scaling.ruiz", "verify.codegen", "batch.construct",
                   "batch.run", "serving.session.update",
                   "serving.session.resolve")

UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
    "throughput_rps": "1/s", "success_rate": "ratio",
    "peak_rss_mb": "MB", "sim_cycles_per_solve": "cycles",
    "sim_solve_us": "us", "eta_mean": "ratio",
}


def cjit_builds(cache_dir: Path) -> int:
    """Compiled modules in the cjit cache (one directory per build)."""
    if not cache_dir.is_dir():
        return 0
    return sum(1 for entry in cache_dir.iterdir()
               if entry.name.startswith("_repro_")
               and ".build." not in entry.name)


def host_block(seed: int, prime_builds: int) -> dict:
    import cffi
    import scipy

    from repro.hw import cjit
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cffi": cffi.__version__,
        "cjit_available": cjit.available(),
        "seed": seed,
        "git_commit": git_commit(),
        # The prime pass always runs; a warm cache needs no builds in it.
        "cache_primed": True,
        "cache_was_warm": prime_builds == 0,
        "prime_builds": prime_builds,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (a
    checkout that is not a repository reports ``unknown``)."""
    git = Path(__file__).resolve().parent.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set in MiB; Linux reports ``ru_maxrss`` in KiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ----------------------------------------------------------------------
def prime(workload, inputs) -> None:
    """Untimed: one set-up and one request per structure."""
    context = workload.setup(inputs)
    try:
        seen = set()
        for item in inputs.stream:
            if item[0] not in seen:
                seen.add(item[0])
                context.step(item)
    finally:
        context.close()


class ClosedLoop:
    """One client, one request at a time, over ``stream`` repeated.

    The timed window is run in segments (:meth:`run_for`) so set-up
    measurements can sit between them. Request indices continue
    across segments. With a ``tracer``, whole cycles of the stream
    alternate untraced and traced. Every complete traced cycle makes
    the same calls, so per-request counts over them repeat exactly.
    After a request, once ``hostspeed.INTERVAL_S`` of the window has
    passed since the last one, ``speed`` times one kernel sample;
    ``elapsed`` leaves those samples out. ``starts`` holds each
    request's ``perf_counter`` start, to scale it by.
    """

    def __init__(self, context, stream, speed, tracer=None):
        self.context = context
        self.stream = stream
        self.cycle = len(stream)
        self.speed = speed
        self.tracer = tracer
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.traced: list[bool] = []
        self.answers: list = []
        self.elapsed = 0.0

    @property
    def requests(self) -> int:
        return len(self.latencies)

    def run_for(self, seconds: float, min_requests: int = 0) -> None:
        context, stream, cycle = self.context, self.stream, self.cycle
        tracer, speed = self.tracer, self.speed
        sampled = 0.0
        # Set-up garbage is collected now, and everything alive is
        # frozen out of the collector's view, so no full collection of
        # it lands in the window.
        gc.collect()
        gc.freeze()
        start = end = time.perf_counter()
        deadline = start + seconds
        next_sample = start
        i = self.requests
        while i < min_requests or end < deadline:
            traced = tracer is not None and (i // cycle) % 2 == 1
            if tracer is not None:
                tracer.enabled = traced
                tracer.request_id = i
                with tracer.span("request"):
                    t0 = time.perf_counter()
                    out = context.step(stream[i % cycle])
                    end = time.perf_counter()
                tracer.enabled = False
            else:
                t0 = time.perf_counter()
                out = context.step(stream[i % cycle])
                end = time.perf_counter()
            self.latencies.append(end - t0)
            self.starts.append(t0)
            self.traced.append(traced)
            for answer in out:
                answer.request = i
                self.answers.append(answer)
            i += 1
            if end >= next_sample:
                sampled += speed.sample()
                next_sample = time.perf_counter() + hostspeed.INTERVAL_S
        self.elapsed += time.perf_counter() - start - sampled
        gc.unfreeze()


def timed_setup(workload, inputs, speed, tracer, setup_layers):
    """One measured set-up; returns ``(seconds, kernel_s, context)``,
    ``kernel_s`` being the median host-speed sample taken right before
    and right after it.

    On traced runs its spans are summarized into ``setup_layers`` and
    then dropped, so they never mix with the timed window's spans.
    """
    # As for a timed segment: answers kept from earlier segments are
    # frozen out of the collector's view, so every set-up pays for the
    # same garbage collection work.
    gc.collect()
    gc.freeze()
    first_span = 0
    if tracer is not None:
        first_span = len(tracer.spans)
        tracer.request_id = -1
        tracer.enabled = True
    kernel = speed.bracket()
    t0 = time.perf_counter()
    context = workload.setup(inputs)
    seconds = time.perf_counter() - t0
    kernel += speed.bracket()
    gc.unfreeze()
    if tracer is not None:
        tracer.enabled = False
        setup_layers.append(spans.summarize(tracer.spans[first_span:]))
        del tracer.spans[first_span:]
    return seconds, statistics.median(kernel), context


def run(workload, *, seed: int, seconds: float, traced: bool,
        out_dir: Path, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Prime, then alternate measured set-ups with timed segments.

    The first set-up builds the context the timed window uses. The
    other ``setup_repeats - 1`` set-ups are measured between timed
    segments and closed at once: the host's speed drifts over tens of
    seconds, and spreading the set-ups across the run lets their
    median see that drift instead of one moment of it.
    """
    cache_dir = Path(os.environ["REPRO_JIT_CACHE"])
    inputs = workload.make_inputs(seed)

    builds_start = cjit_builds(cache_dir)
    prime(workload, inputs)
    prime_builds = cjit_builds(cache_dir) - builds_start
    builds_primed = cjit_builds(cache_dir)

    speed = hostspeed.HostSpeed()
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    setup_times, setup_kernels, setup_layers = [], [], []
    took, kernel, context = timed_setup(workload, inputs, speed, tracer,
                                        setup_layers)
    setup_times.append(took)
    setup_kernels.append(kernel)

    cycle = len(inputs.stream)
    loop = ClosedLoop(context, inputs.stream, speed, tracer)
    counters_before = context.service.metrics.snapshot()["counters"]
    for segment in range(setup_repeats):
        last = segment == setup_repeats - 1
        # One full cycle at least (two when traced: one of each kind),
        # so the simulated-clock metrics always cover the same inputs.
        minimum = (2 if traced else 1) * cycle if last else 0
        loop.run_for(seconds / setup_repeats, min_requests=minimum)
        if not last:
            took, kernel, extra = timed_setup(workload, inputs, speed,
                                              tracer, setup_layers)
            extra.close()
            setup_times.append(took)
            setup_kernels.append(kernel)
    counters_after = context.service.metrics.snapshot()["counters"]
    builds_after_prime = cjit_builds(cache_dir) - builds_primed
    if tracer is not None:
        tracer.uninstall()

    answers = loop.answers
    first_answers = cycle * (len(answers) // loop.requests)
    check_rng = np.random.default_rng([seed, 1])
    checked = checks.run_checks(answers, first_answers, context, SETTINGS,
                                check_rng)
    shard_stats = context.stats()
    artifacts = [context.artifact_for(answer)
                 for answer in _first_per_structure(answers)]
    context.close()

    attempted = len(answers)
    failed = checked["failed"]
    robust = (shard_stats["restarts"] == 0
              and shard_stats["shm_checksum_failures"] == 0)
    correct = failed == 0 and builds_after_prime == 0 and robust

    first = answers[:first_answers]
    records = [a.result.record for a in first]
    raw = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": percentile(loop.latencies, 50) * 1e3,
        "latency_p95_ms": percentile(loop.latencies, 95) * 1e3,
        "throughput_rps": attempted / loop.elapsed,
    }
    latencies = np.asarray(loop.latencies)
    scaled = latencies * speed.scales_at(loop.starts, workload.elasticity)
    # The window's elapsed time, which also holds the client's own work
    # between requests, scales with the requests it is made of.
    scale = float(scaled.sum() / latencies.sum())
    e2e = {
        "setup_s": statistics.median(
            took * hostspeed.setup_scale(kernel)
            for took, kernel in zip(setup_times, setup_kernels)),
        "latency_p50_ms": percentile(scaled, 50) * 1e3,
        "latency_p95_ms": percentile(scaled, 95) * 1e3,
        "throughput_rps": raw["throughput_rps"] / scale,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(workload.name == "shard-ipc"),
        "sim_cycles_per_solve": float(np.mean(
            [r.simulated_cycles for r in records])),
        "sim_solve_us": float(np.mean(
            [r.simulated_seconds for r in records])) * 1e6,
        "eta_mean": float(np.mean(
            [a.customization.eta for a in artifacts])),
    }
    samples = loop.requests
    p95 = percentile(loop.latencies, 95)
    beyond_p95 = sum(1 for v in loop.latencies if v > p95)

    if tracer is not None:
        layers = layer_metrics(tracer, loop, setup_layers, checked,
                               records, counters_before, counters_after,
                               builds_after_prime, shard_stats,
                               workload.name)
        layers["host.kernel_us"] = (speed.kernel_s() * 1e6, "us")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        spans_path = out_dir / f"{workload.name}-seed{seed}-spans.jsonl"
        with spans_path.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in e2e.items()}
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": int(failed), "metrics": metrics}
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "traced": traced,
        "host": host_block(seed, prime_builds),
        "structures": inputs.labels(),
        "requests": loop.requests, "latency_samples": samples,
        "samples_beyond_p95": beyond_p95,
        "setup_times_s": setup_times,
        "setup_kernels_us": [k * 1e6 for k in setup_kernels],
        "cjit_builds": {"prime": prime_builds,
                        "after_prime": builds_after_prime},
        "checks": {k: v for k, v in checked.items()
                   if k != "solo_results"},
        "shard": shard_stats,
        "host_speed": {"kernel_us": speed.kernel_s() * 1e6,
                       "reference_us": hostspeed.REFERENCE_S * 1e6,
                       "scale": scale, "samples": len(speed.samples)},
        "end_to_end_raw": raw,
        "end_to_end": e2e,
        "result": result,
    }
    path = out_dir / f"{workload.name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    return report


def _first_per_structure(answers):
    seen = {}
    for answer in answers:
        seen.setdefault(answer.structure, answer)
    return [seen[j] for j in sorted(seen)]


# ----------------------------------------------------------------------
def layer_metrics(tracer, loop, setup_layers, checked, records,
                  counters_before, counters_after, builds, shard_stats,
                  workload_name) -> dict:
    """Per-layer metrics of a traced run: ``{name: (value, unit)}``."""
    # Complete traced cycles only: a cut-off last cycle would make the
    # per-request counts depend on where the clock stopped.
    complete = loop.requests - loop.requests % loop.cycle
    traced_requests = {i for i, flag in enumerate(loop.traced[:complete])
                       if flag}
    timed_spans = [s for s in tracer.spans if s[5] in traced_requests]
    summary = spans.summarize(timed_spans)
    answers = loop.answers
    traced_answers = [a for a in answers if a.request in traced_requests]
    n_answers = max(len(traced_answers), 1)
    n_requests = max(len(traced_requests), 1)
    batched = workload_name == "batch-lockstep"

    def total_ms(name):
        return summary.get(name, {}).get("total_ns", 0) / 1e6

    def self_ms(name):
        return summary.get(name, {}).get("self_ns", 0) / 1e6

    def calls(name):
        return summary.get(name, {}).get("count", 0)

    def per_call_ms(name):
        return total_ms(name) / calls(name) if calls(name) else 0.0

    def setup_s(name):
        return statistics.median(
            layer.get(name, {}).get("total_ns", 0) / 1e9
            for layer in setup_layers)

    def counter_delta(prefix):
        def total(counters):
            return sum(v for k, v in counters.items()
                       if k.startswith(prefix))
        return total(counters_after) - total(counters_before)

    tiers = [a.result.record.tier for a in answers]
    lookups = [t for t in tiers if t in ("hit", "disk", "build",
                                         "fallback")]
    hit_rate = (sum(1 for t in lookups if t == "hit") / len(lookups)
                if lookups else 1.0)

    admm = [r.admm_iterations for r in records if r.algorithm == "admm"]
    pdqp = [r.admm_iterations for r in records if r.algorithm == "pdqp"]

    cycle_totals = {group: 0 for group in CYCLE_GROUPS}
    for solo in checked["solo_results"]:
        for group, classes in CYCLE_GROUPS.items():
            cycle_totals[group] += sum(solo.stats.by_class.get(c, 0)
                                       for c in classes)
    all_cycles = max(sum(cycle_totals.values()), 1)

    batch_runs = [value for rid, value in tracer.returns.get("batch.run",
                                                              ())
                  if rid in traced_requests]

    latencies = loop.latencies
    untraced = [v for v, flag in zip(latencies, loop.traced) if not flag]
    traced = [v for v, flag in zip(latencies, loop.traced) if flag]
    p50_untraced = percentile(untraced, 50) * 1e3
    p50_traced = percentile(traced, 50) * 1e3
    p95 = percentile(latencies, 95)

    ipc = [latencies[a.request] - (a.result.record.setup_seconds
                                   + a.result.record.solve_seconds)
           for a in traced_answers]

    m = {
        "serving.fingerprint.ms_per_request":
            (total_ms("serving.fingerprint") / n_answers, "ms"),
        "serving.arch_cache.hit_rate": (hit_rate, "ratio"),
        "serving.arch_cache.lookups_per_request":
            (len(lookups) / max(len(answers), 1), "count"),
        "serving.arch_cache.build_s": (setup_s("serving.arch_cache.build"),
                                       "s"),
        "customization.customize_s": (setup_s("customization.customize"),
                                      "s"),
        "verify.artifact_s": (setup_s("verify.artifact"), "s"),
        "verify.codegen_calls_per_request":
            (calls("verify.codegen") / n_answers, "count"),
        "hw.accelerator.bind_ms_per_request":
            (total_ms("hw.accelerator.bind") / n_answers, "ms"),
        "hw.accelerator.run_ms_per_request":
            (total_ms("hw.accelerator.run") / n_answers, "ms"),
        "qp.scaling.ruiz_ms_per_request":
            (total_ms("qp.scaling.ruiz") / n_answers, "ms"),
        "hw.compiled.executors_per_request":
            (calls("hw.compiled.executor") / n_answers, "count"),
        "hw.compiled.run_ms_per_request":
            (total_ms("hw.compiled.run") / n_answers, "ms"),
        "hw.cjit.compile_module_calls_per_request":
            (calls("hw.cjit.compile_module") / n_answers, "count"),
        "hw.cjit.compile_module_ms_per_request":
            (total_ms("hw.cjit.compile_module") / n_answers, "ms"),
        "hw.cjit.builds": (builds, "count"),
        "faults.detect.kkt_checks_per_request":
            (calls("faults.detect.kkt_check") / n_answers, "count"),
        "solver.admm_iterations_mean":
            (float(np.mean(admm)) if admm else 0.0, "count"),
        "solver.pdqp_iterations_mean":
            (float(np.mean(pdqp)) if pdqp else 0.0, "count"),
        "solver.pdqp_share": (len(pdqp) / max(len(records), 1), "ratio"),
        "hw.sim.spmv_cycle_share":
            (cycle_totals["spmv"] / all_cycles, "ratio"),
        "hw.sim.vector_cycle_share":
            (cycle_totals["vector"] / all_cycles, "ratio"),
        "hw.sim.transfer_cycle_share":
            (cycle_totals["transfer"] / all_cycles, "ratio"),
        "batch.construct_ms_per_batch":
            (total_ms("batch.construct") / n_requests if batched else 0.0,
             "ms"),
        "batch.run_ms_per_batch":
            (total_ms("batch.run") / n_requests if batched else 0.0, "ms"),
        "batch.lanes_per_batch":
            (float(np.mean([a.result.record.batch_width
                            for a in traced_answers]))
             if batched and traced_answers else 0.0, "count"),
        "batch.lane_fallbacks":
            (counter_delta("serving_batch_lane_fallbacks_total"), "count"),
        "batch.lockstep_speedup":
            (float(np.mean([b.lockstep_speedup for b in batch_runs]))
             if batch_runs else 0.0, "x"),
        "serving.session.update_ms":
            (per_call_ms("serving.session.update"), "ms"),
        "serving.session.resolve_ms":
            (per_call_ms("serving.session.resolve"), "ms"),
        "serving.service.setup_ms_per_request":
            (float(np.mean([a.result.record.setup_seconds
                            for a in traced_answers])) * 1e3
             if traced_answers else 0.0, "ms"),
        "serving.service.solve_ms_per_request":
            (float(np.mean([a.result.record.solve_seconds
                            for a in traced_answers])) * 1e3
             if traced_answers else 0.0, "ms"),
        "serving.sharded.ipc_ms_per_request":
            (float(np.mean(ipc)) * 1e3
             if workload_name == "shard-ipc" and ipc else 0.0, "ms"),
        "serving.sharded.restarts": (shard_stats["restarts"], "count"),
        "serving.sharded.shm_checksum_failures":
            (shard_stats["shm_checksum_failures"], "count"),
        "trace.latency_p50_untraced_ms": (p50_untraced, "ms"),
        "trace.latency_p50_traced_ms": (p50_traced, "ms"),
        "trace.overhead_ms": (p50_traced - p50_untraced, "ms"),
        "trace.overhead_pct":
            ((p50_traced - p50_untraced) / p50_untraced * 100.0, "%"),
        "trace.spans_per_request": (len(timed_spans) / n_requests, "count"),
        "client.requests": (loop.requests, "count"),
        "client.samples_beyond_p95":
            (sum(1 for v in latencies if v > p95), "count"),
    }
    for name in SELF_TIME_SPANS:
        m[f"self.{name}.ms_per_request"] = (self_ms(name) / n_answers, "ms")
    return m


def print_report(report: dict) -> None:
    """Human-readable lines, then the host block, then the result."""
    result = report["result"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"requests {report['requests']}  latency samples "
          f"{report['latency_samples']} ({report['samples_beyond_p95']} "
          f"beyond p95)  structures {', '.join(report['structures'])}")
    checked = report["checks"]
    print(f"checks: {result['attempted']} answers, kkt failed "
          f"{checked['kkt_failed']}, reference failed "
          f"{checked['reference_failed']}/{checked['reference_checked']}, "
          f"bitwise failed {checked['bitwise_failed']}/"
          f"{checked['bitwise_checked']}; cjit builds {report['cjit_builds']}"
          f"; shard {report['shard']}")
    speed = report["host_speed"]
    print(f"host speed: kernel {speed['kernel_us']:.1f} us over "
          f"{speed['samples']} samples, reference "
          f"{speed['reference_us']:.1f} us, scale {speed['scale']:.4f}; "
          "raw " + ", ".join(f"{k} {v:.6g}" for k, v in
                             report["end_to_end_raw"].items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:<44s} {metric['value']:>14.6g} {metric['unit']}")
    print("host " + json.dumps(report["host"], sort_keys=True))
    print(json.dumps(result))
