"""Resident accelerators: a warm hit re-runs a bound accelerator.

The contracts under test:

* a warm cache hit constructs no accelerator and calls no codegen —
  it refreshes an idle resident of the artifact and re-runs it;
* fault hooks follow the current run: a session resolve and a warm hit
  fire exactly the faults a freshly constructed accelerator fires for
  the same ``(request, attempt)``;
* results own their stats: a later run on the same accelerator leaves
  an earlier result's accounting untouched;
* residents stay in their process and die with their artifact (LRU
  eviction, ``invalidate``, poison -> rebuild), an attempt that raises
  drops its accelerator, and no accelerator serves two requests at
  once.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.exceptions import FaultDetectedError
from repro.faults import Fault, FaultInjector, FaultPlan, ResiliencePolicy
from repro.hw import cjit
from repro.hw.accelerator import RSQPAccelerator
from repro.hw.compiled import CompiledExecutor
from repro.hw.isa import DataTransfer, Program, SpMV, VecDup
from repro.hw.machine import Machine, MatrixResource
from repro.problems import generate_lasso, generate_svm, perturb_numeric
from repro.serving import SolverService, fingerprint_problem
from repro.serving.arch_cache import RESIDENTS_PER_KEY, ArchArtifact
from repro.serving.shm_store import ShmArtifactStore, attach_artifact
from repro.solver import OSQPSettings
from repro.sparse import CSRMatrix

SETTINGS = OSQPSettings(eps_abs=1e-4, eps_rel=1e-4, max_iter=3000)
BASE = generate_lasso(8, seed=0)
STREAM = [perturb_numeric(BASE, seed=s) for s in range(12)]


def service(**kwargs):
    kwargs.setdefault("settings", SETTINGS)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("mode", "serial")
    return SolverService(**kwargs)


def key_of(svc, problem):
    c = svc.width_for(problem)
    algorithm = "admm" if svc.algorithm == "auto" else svc.algorithm
    return svc.cache_key(fingerprint_problem(problem, c=c), c, algorithm)


def outcome(result):
    """Everything a request's answer and fault accounting consist of."""
    record = result.record
    raw = result.raw
    events = () if record.degraded else raw.fault_events
    return (result.x.tobytes(), result.y.tobytes(), record.converged,
            record.admm_iterations, record.simulated_cycles,
            record.faults_injected, record.retries, record.rollbacks,
            record.degraded, events)


def chaos_service(algorithm):
    plan = FaultPlan.generate(seed=7, requests=64, mac_rate=0.8,
                              hbm_rate=0.5, poisons=0, stalls=0)
    return service(fault_plan=plan, algorithm=algorithm,
                   resilience=ResiliencePolicy(max_retries=3,
                                               backoff_base_seconds=0.0))


@pytest.mark.parametrize("algorithm", ["admm", "pdqp"])
class TestFaultHooksFollowTheRun:
    """Under one FaultPlan, every request answers and counts faults
    exactly as a freshly constructed accelerator per attempt would."""

    def fresh_outcomes(self, algorithm, monkeypatch):
        with monkeypatch.context() as patch:
            # No idle accelerator is ever found: every attempt of every
            # request constructs a new one.
            patch.setattr(ArchArtifact, "check_out",
                          lambda self, key: None, raising=False)
            with chaos_service(algorithm) as svc:
                return [outcome(svc.solve(p, request_id=rid))
                        for rid, p in enumerate(STREAM)]

    def test_warm_hits_fire_like_fresh_accelerators(self, algorithm,
                                                    monkeypatch):
        fresh = self.fresh_outcomes(algorithm, monkeypatch)
        with chaos_service(algorithm) as svc:
            hits = [svc.solve(p, request_id=rid)
                    for rid, p in enumerate(STREAM)]
        assert [r.record.tier for r in hits[1:]] == ["hit"] * 11
        assert [outcome(r) for r in hits] == fresh
        assert sum(r.record.faults_injected for r in hits) > 0

    def test_session_fires_like_fresh_accelerators(self, algorithm,
                                                   monkeypatch):
        fresh = self.fresh_outcomes(algorithm, monkeypatch)
        with chaos_service(algorithm) as svc:
            with svc.open_session(STREAM[0], carry_state=False) as sess:
                resolved = []
                for problem in STREAM:
                    sess.update(q=problem.q, l=problem.l, u=problem.u,
                                P_data=problem.P.data,
                                A_data=problem.A.data)
                    resolved.append(outcome(sess.resolve(warm_start=None)))
        assert resolved == fresh


class TestExecutorHooks:
    def test_rearmed_executor_fires_the_current_injector(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
        program = Program([DataTransfer("load", "v0"), VecDup("v0", "M"),
                           SpMV("M", "M", "v1")])
        faults = [Fault(kind="mac-flip", op_index=0, element=2, bit=33),
                  Fault(kind="hbm-read", op_index=0, element=1, bit=12)]

        def machine():
            m = Machine(4, {"M": MatrixResource(
                name="M", matrix=CSRMatrix.from_dense(dense),
                spmv_cycles=9, cvb_depth=3)})
            m.hbm["v0"] = np.arange(6, dtype=np.float64)
            return m

        armed = machine()
        armed.injector = FaultInjector(list(faults))
        CompiledExecutor(armed).run(program)
        # Same executor: a clean run first, then an armed one.
        rearmed = machine()
        executor = CompiledExecutor(rearmed)
        executor.run(program)
        rearmed.injector = FaultInjector(list(faults))
        executor.run(program)
        assert rearmed.injector.events == armed.injector.events
        assert len(armed.injector.events) == 2
        np.testing.assert_array_equal(rearmed.vb["v1"], armed.vb["v1"])


class TestWarmHitDoesNoCodegen:
    def test_hit_constructs_nothing(self, monkeypatch):
        calls = {"compile": 0, "executor": 0, "bind": 0}
        real_compile = cjit.compile_module
        real_executor = CompiledExecutor.__init__
        real_bind = RSQPAccelerator.__init__

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        with service() as svc:
            # The first run binds the loop body's segments; whole-loop
            # fusion is built on the run after that.
            svc.solve(STREAM[0])
            svc.solve(STREAM[1])
            monkeypatch.setattr(cjit, "compile_module",
                                counting("compile", real_compile))
            monkeypatch.setattr(CompiledExecutor, "__init__",
                                counting("executor", real_executor))
            monkeypatch.setattr(RSQPAccelerator, "__init__",
                                counting("bind", real_bind))
            hits = [svc.solve(p) for p in STREAM[2:6]]
        assert all(r.record.tier == "hit" and r.converged for r in hits)
        assert calls == {"compile": 0, "executor": 0, "bind": 0}

    def test_hits_equal_fresh_solves_bitwise(self):
        with service() as svc:
            hits = [outcome(svc.solve(p)) for p in STREAM[:4]]
        fresh = []
        for problem in STREAM[:4]:
            with service() as svc:
                fresh.append(outcome(svc.solve(problem)))
        assert hits == fresh


class TestResultsOwnTheirStats:
    @staticmethod
    def frozen(stats):
        return (stats.total_cycles, dict(stats.by_class),
                stats.instructions_executed, dict(stats.loop_iterations))

    def test_session_result_survives_next_resolve(self):
        with service() as svc, svc.open_session(STREAM[0]) as sess:
            first = sess.resolve(warm_start=None)
            before = self.frozen(first.raw.stats)
            sess.update(q=STREAM[1].q, l=STREAM[1].l, u=STREAM[1].u)
            second = sess.resolve(warm_start=None)
        assert first.raw.stats is not second.raw.stats
        assert self.frozen(first.raw.stats) == before

    def test_hit_result_survives_next_hit(self):
        with service() as svc:
            first = svc.solve(STREAM[0])
            before = self.frozen(first.raw.stats)
            svc.solve(STREAM[1])
        assert self.frozen(first.raw.stats) == before


class TestResidentLifecycle:
    def test_artifact_pickles_without_residents(self):
        with service() as svc:
            for problem in STREAM[:3]:
                svc.solve(problem)
            artifact = svc.cache.peek(key_of(svc, STREAM[0]))
        assert artifact.resident_count() == 1
        copy = pickle.loads(pickle.dumps(artifact))
        assert copy.resident_count() == 0
        assert copy.architecture_string == artifact.architecture_string
        store = ShmArtifactStore()
        try:
            attached = attach_artifact(store.publish("k", artifact))
        finally:
            store.close()
        assert attached.resident_count() == 0
        assert artifact.resident_count() == 1

    @pytest.mark.slow
    def test_process_mode_serves_hits(self):
        with service(mode="process") as proc, service() as serial:
            for problem in STREAM[:3]:
                a, b = proc.solve(problem), serial.solve(problem)
                assert a.x.tobytes() == b.x.tobytes()
            assert proc.records()[-1].tier == "hit"

    def test_eviction_and_invalidate_drop_residents(self):
        other = generate_svm(10, seed=0)
        with service(cache_capacity=1) as svc:
            svc.solve(STREAM[0])
            evicted = svc.cache.peek(key_of(svc, STREAM[0]))
            assert evicted.resident_count() == 1
            svc.solve(other)
            assert evicted.resident_count() == 0
            key = key_of(svc, other)
            kept = svc.cache.peek(key)
            assert kept.resident_count() == 1
            assert svc.cache.invalidate(key)
            assert kept.resident_count() == 0

    def test_poison_rebuild_drops_residents(self):
        plan = FaultPlan(faults=(Fault(kind="artifact-poison", request=1),))
        with service(fault_plan=plan) as svc:
            svc.solve(STREAM[0], request_id=0)
            key = key_of(svc, STREAM[0])
            poisoned = svc.cache.peek(key)
            assert poisoned.resident_count() == 1
            healed = svc.solve(STREAM[1], request_id=1)
            rebuilt = svc.cache.peek(key)
        assert healed.converged
        assert rebuilt is not poisoned
        assert poisoned.resident_count() == 0
        assert rebuilt.resident_count() == 1

    def test_attempt_that_raises_drops_its_accelerator(self, monkeypatch):
        real_run = RSQPAccelerator.run
        ran = []

        def flaky(self):
            ran.append(self)
            if len(ran) == 2:
                raise FaultDetectedError("transient upset")
            return real_run(self)

        monkeypatch.setattr(RSQPAccelerator, "run", flaky)
        with service(resilience=ResiliencePolicy(
                max_retries=1, backoff_base_seconds=0.0)) as svc:
            svc.solve(STREAM[0])                   # constructs A
            retried = svc.solve(STREAM[1])         # A raises; B built
            svc.solve(STREAM[2])                   # hit on B
            artifact = svc.cache.peek(key_of(svc, STREAM[0]))
            assert artifact.resident_count() == 1
        first, failed, rebuilt, hit = ran
        assert failed is first and rebuilt is not first
        assert hit is rebuilt
        assert retried.record.retries == 1 and retried.converged

    def test_closed_session_checks_its_accelerator_in(self):
        with service() as svc:
            svc.solve(STREAM[0])
            artifact = svc.cache.peek(key_of(svc, STREAM[0]))
            sess = svc.open_session(STREAM[1])
            pinned = sess._accelerator
            assert artifact.resident_count() == 0  # the session holds it
            sess.resolve()
            sess.close()
            assert artifact.resident_count() == 1
            ran = []
            real_run = RSQPAccelerator.run

            def spy(self):
                ran.append(self)
                return real_run(self)

            RSQPAccelerator.run = spy
            try:
                svc.solve(STREAM[2])
            finally:
                RSQPAccelerator.run = real_run
        assert ran == [pinned]


class TestConcurrentHits:
    def test_no_accelerator_serves_two_requests_at_once(self, monkeypatch):
        problems = STREAM[:10]
        with service() as serial:
            expected = [outcome(serial.solve(p)) for p in problems]
        real_run = RSQPAccelerator.run
        lock = threading.Lock()
        in_flight: set = set()
        overlaps = []

        def exclusive(self):
            with lock:
                if id(self) in in_flight:
                    overlaps.append(id(self))
                in_flight.add(id(self))
            try:
                return real_run(self)
            finally:
                with lock:
                    in_flight.discard(id(self))

        monkeypatch.setattr(RSQPAccelerator, "run", exclusive)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # More workers than cores, so check-outs and check-ins race.
            with service(workers=4, mode="thread") as svc:
                svc.solve(problems[0])
                ids = [svc.submit(p) for p in problems]
                answers = [outcome(svc.result(i, timeout=300))
                           for i in ids]
                artifact = svc.cache.peek(key_of(svc, problems[0]))
                idle = artifact.resident_count()
        finally:
            sys.setswitchinterval(interval)
        assert not overlaps
        assert answers == expected
        assert 1 <= idle <= RESIDENTS_PER_KEY


class TestCompileModuleMemo:
    def test_repeat_call_skips_the_disk(self, monkeypatch):
        if not cjit.available():
            pytest.skip("no C toolchain")
        cdef = "double resident_memo_probe(double x);"
        source = "double resident_memo_probe(double x) { return 2.0 * x; }"
        first = cjit.compile_module(cdef, source, tag="probe")
        assert first is not None

        def no_disk(*args, **kwargs):
            raise AssertionError("memoized module reloaded from disk")

        monkeypatch.setattr(cjit, "_load", no_disk)
        again = cjit.compile_module(cdef, source, tag="probe")
        assert again is first
        assert again.lib.resident_memo_probe(1.5) == 3.0
