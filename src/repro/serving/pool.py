"""Worker pool binding cached architectures to fresh numeric data.

A *solve job* is the warm path of the serving layer: take a frozen
:class:`~repro.serving.arch_cache.ArchArtifact` plus one concrete
problem instance, bind a simulated accelerator around the cached
customization and compiled program, optionally warm start, and run.
Bound accelerators stay *resident* on the artifact between requests:
a hit only refreshes the numeric data (host scaling, rho selection,
HBM download — no construction, no lowering, no codegen) on an idle
accelerator; only the first request of a structure, or one that finds
every resident busy, constructs a new one.

Execution modes:

``thread`` (default)
    A :class:`~concurrent.futures.ThreadPoolExecutor`; numpy kernels
    release the GIL, so concurrent simulated solves overlap well.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`; each job ships
    ``(problem, artifact)`` to a worker process — higher per-job cost,
    true parallelism for CPU-bound Python portions. Jobs must be
    module-level functions (ours are). Residents never cross the
    process boundary, so every process-mode job constructs its own.
``serial``
    Run the job in the caller immediately and return an
    already-resolved future: deterministic, used by the tests.
"""

from __future__ import annotations

import copy
from concurrent.futures import (Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)

from ..hw.accelerator import RSQPAccelerator, RSQPResult
from ..qp import QProblem
from ..solver import OSQPSettings
from .arch_cache import ArchArtifact

__all__ = ["WorkerPool", "Resident", "bind_resident", "solve_job",
           "reference_job"]

_MODES = ("thread", "process", "serial")


class Resident:
    """A bound accelerator checked out of an artifact.

    ``stale`` is set once a run has overwritten the downloaded HBM data
    and cleared by every numeric (re)download; ``failed`` marks an
    accelerator whose attempt raised, which is never checked back in.
    """

    __slots__ = ("key", "accelerator", "stale", "failed")

    def __init__(self, key, accelerator):
        self.key = key
        self.accelerator = accelerator
        self.stale = False
        self.failed = False


def bind_resident(problem: QProblem, artifact: ArchArtifact,
                  settings: OSQPSettings, pcg_eps: float = 1e-7,
                  backend: str = "compiled") -> Resident:
    """Check out an idle accelerator bound to ``problem``'s numbers.

    The idle list is keyed by everything the constructor takes besides
    the problem (the algorithm is the artifact's own). An idle
    accelerator is refreshed exactly as a fresh setup would bind it
    (cold rho / omega); with none idle, a new one is constructed.
    Either way the caller owns it until :meth:`ArchArtifact.check_in`.
    A refresh that raises (a problem of another structure) drops the
    accelerator with the exception.
    """
    key = (backend, pcg_eps, repr(settings))
    resident = artifact.check_out(key)
    pdqp = getattr(artifact, "algorithm", "admm") == "pdqp"
    if resident is not None:
        if pdqp:
            resident.accelerator.refresh_numeric(problem, carry_omega=False)
        else:
            resident.accelerator.refresh_numeric(problem, carry_rho=False)
        resident.stale = False
        return resident
    # The artifact-level verification subsumes the accelerator's per-
    # construction program walk (and is memoized), so skip the latter.
    # The accelerator keeps its own settings copy, so a caller mutating
    # theirs never reaches an idle accelerator filed under the old key.
    settings = copy.copy(settings)
    if pdqp:
        from ..hw.pdqp import PDQPAccelerator
        from ..solver.algorithms import get_algorithm
        accelerator = PDQPAccelerator(
            problem, customization=artifact.customization,
            settings=get_algorithm("pdqp").coerce_settings(settings),
            compiled=artifact.compiled, backend=backend, verify=False)
    else:
        accelerator = RSQPAccelerator(
            problem, customization=artifact.customization,
            settings=settings, pcg_eps=pcg_eps,
            max_pcg_iter=artifact.max_pcg_iter,
            compiled=artifact.compiled, backend=backend, verify=False)
    return Resident(key, accelerator)


def solve_job(problem: QProblem, artifact: ArchArtifact,
              settings: OSQPSettings,
              warm_start: tuple | None = None,
              pcg_eps: float = 1e-7,
              backend: str = "compiled",
              verify: bool = True,
              injector=None,
              recovery=None,
              deadline_seconds: float | None = None,
              resident: Resident | None = None) -> RSQPResult:
    """Bind a cached artifact to ``problem`` and run the accelerator.

    Module-level so process pools can pickle it. The accelerator is
    checked out of the artifact's idle list (:func:`bind_resident`) and
    checked back in after a successful run; an attempt that raises
    drops it. A ``resident`` the caller already holds (a session's
    pinned accelerator, bound to ``problem``) runs as is and stays
    with the caller. A structure mismatch (wrong artifact for this
    problem) raises rather than silently mis-costing. ``backend``
    selects the program execution backend (``"interpret"`` or
    ``"compiled"``), orthogonal to the artifact's precompiled
    *program*.

    With ``verify`` (default), the artifact passes the static
    verification suite (:mod:`repro.verify`) before any solve touches
    it; a malformed artifact raises
    :class:`~repro.exceptions.VerificationError` with the full
    diagnostic report. Acceptance is memoized on the artifact, so
    repeated solves against a cached artifact check once.

    ``injector`` / ``recovery`` / ``deadline_seconds`` arm fault
    injection, checkpoint/rollback recovery and a cooperative per-job
    deadline on the accelerator for this run only (see
    :mod:`repro.faults`); the deadline raises
    :class:`~repro.exceptions.DeadlineExceededError` between ADMM
    segments rather than killing the worker.
    """
    if verify:
        from ..verify import ensure_artifact_verified
        ensure_artifact_verified(
            artifact, context=f"solve_job({artifact.fingerprint.key})")
    pinned = resident is not None
    if not pinned:
        resident = bind_resident(problem, artifact, settings, pcg_eps,
                                 backend)
    # A stats reset plus, after an earlier run, a re-download restore
    # the exact fresh-accelerator preconditions, so a re-run is bitwise
    # the run a new accelerator would make — faults included.
    accelerator = resident.accelerator
    machine = accelerator.machine
    machine.stats.reset()
    if resident.stale:
        accelerator._download()
    resident.stale = True
    accelerator.fault_injector = machine.injector = injector
    accelerator.recovery = recovery
    accelerator.deadline_seconds = deadline_seconds
    try:
        if warm_start is not None:
            x0, y0 = warm_start
            accelerator.warm_start(x=x0, y=y0)
        raw = accelerator.run()
    except BaseException:
        resident.failed = True
        raise
    finally:
        accelerator.fault_injector = machine.injector = None
        accelerator.recovery = accelerator.deadline_seconds = None
    if not pinned:
        artifact.check_in(resident.key, resident)
    return raw


def reference_job(problem: QProblem, settings: OSQPSettings,
                  warm_start: tuple | None = None,
                  algorithm: str = "admm"):
    """Software fallback: solve with the named reference implementation."""
    from ..solver.algorithms import get_algorithm
    algo = get_algorithm(algorithm)
    coerced = algo.coerce_settings(settings)
    if algorithm == "pdqp":
        from ..solver.pdqp import PDQPSolver
        solver = PDQPSolver(problem, coerced)
    else:
        from ..solver.osqp import OSQPSolver
        solver = OSQPSolver(problem, coerced)
    if warm_start is not None:
        x0, y0 = warm_start
        solver.warm_start(x=x0, y=y0)
    return solver.solve()


class WorkerPool:
    """Uniform submit interface over serial/thread/process execution."""

    def __init__(self, workers: int = 2, mode: str = "thread"):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.mode = mode
        self.workers = int(workers)
        self._closed = False
        if mode == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="rsqp-serving")
        elif mode == "process":
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        else:
            self._executor = None

    def submit(self, fn, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)``; serial mode runs it now."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        if self._executor is not None:
            return self._executor.submit(fn, *args, **kwargs)
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # propagate via the future contract
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True,
                 cancel_pending: bool = False) -> None:
        """Stop accepting work and (optionally) wait; idempotent.

        ``cancel_pending`` cancels every queued-but-not-started job so
        its future resolves as *cancelled* instead of leaking forever
        unresolved — the hard-shutdown path. Jobs already running are
        never interrupted; with ``wait`` they are still joined.
        """
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait,
                                    cancel_futures=cancel_pending)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
