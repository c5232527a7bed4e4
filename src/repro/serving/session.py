"""Persistent solver sessions: the sub-millisecond re-solve path.

A :class:`SolverSession` binds *once* to one problem structure — the
fingerprint is computed once, the cached artifact is verified once,
one resident accelerator of the artifact (machine, matrix schedules,
compiled programs, fused loop bodies) is pinned for the session — and
then serves a stream of same-structure re-solves. Each
:meth:`SolverSession.update` installs new numeric data **in place**
(no re-fingerprint, no re-schedule, no re-verification; the sparsity
pattern is enforced) and each :meth:`SolverSession.resolve` re-runs
the resident accelerator, by default warm-started from the previous
solution with the adapted penalty (rho for ADMM, the primal weight
omega for PDQP) carried across solves.

This is the serving-layer face of the paper's amortization argument
taken one level further: :class:`~repro.serving.service.SolverService`
amortizes the *customization flow* and the accelerator binding across
requests; a session also skips the fingerprint and cache lookup a
warm request still pays, which is what MPC loops, SQP outer iterations
and homotopy sweeps actually pay per step.

Sessions keep the service's operational guarantees: every resolve runs
the service's own resilience loop on the pinned accelerator under its
:class:`~repro.faults.ResiliencePolicy` (retry on
detected faults, host-side KKT re-check against silent corruption,
cooperative deadlines, degradation to the reference solver), and every
resolve is accounted in the service's records and metrics
(``serving_session_{opened,updates,resolves}_total`` counters plus a
per-algorithm resolve-latency histogram).

:class:`BatchSolverSession` is the lockstep counterpart for fleets of
same-structure streams (e.g. many MPC plants): one artifact, one
lane-minor batched run per :meth:`BatchSolverSession.resolve_all`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import ShapeError
from ..faults import solution_ok  # noqa: F401 - wrapped by perfbench spans
from ..qp import QProblem
from ..sparse import CSRMatrix
from .pool import bind_resident
from .service import ServeRecord, ServeResult, answer_accounting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import SolverService

__all__ = ["SolverSession", "BatchSolverSession", "TIER_SESSION"]

#: Tier recorded for session re-solves — the artifact is *resident*,
#: not even looked up in the cache.
TIER_SESSION = "session"


def _vector(value, length: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (length,):
        raise ShapeError(
            f"{name} must have length {length}, got shape {arr.shape}")
    return arr


def updated_problem(current: QProblem, q=None, l=None, u=None,
                    P_data=None, A_data=None) -> QProblem:
    """A same-structure copy of ``current`` with new numeric data.

    Every check the full validating constructor would perform on the
    changed data runs here — a ``P_data`` that breaks symmetry or an
    inconsistent bound pair is rejected before it ever reaches a bound
    accelerator — but against the fixed pattern the checks reduce to
    vector comparisons, so this stays cheap enough for a per-step
    parametric update.
    """
    q_new = current.q if q is None else _vector(q, current.n, "q")
    l_new = current.l if l is None else _vector(l, current.m, "l")
    u_new = current.u if u is None else _vector(u, current.m, "u")
    if l is not None or u is not None:
        if np.any(np.isnan(l_new)) or np.any(np.isnan(u_new)):
            raise ShapeError("bounds must not contain NaN")
        if np.any(l_new > u_new):
            raise ShapeError("every lower bound must satisfy l <= u")
    if P_data is None and A_data is None:
        return QProblem._trusted(current.P, q_new, current.A, l_new,
                                 u_new, current.name)

    def matrix(mat: CSRMatrix, data, label: str) -> CSRMatrix:
        if data is None:
            return mat
        values = np.asarray(data, dtype=np.float64)
        if values.shape != mat.data.shape:
            raise ShapeError(
                f"{label}_data must have {mat.data.shape[0]} values "
                f"(the bound sparsity pattern), got shape {values.shape}")
        return CSRMatrix(mat.shape, values, mat.indices, mat.indptr,
                         check=False)

    p_new = matrix(current.P, P_data, "P")
    if P_data is not None:
        # The bound P's *pattern* is symmetric (validated when the
        # structure was first constructed), so new values are symmetric
        # iff they equal themselves under the transpose permutation —
        # the same comparison QProblem's validator performs, without
        # rebuilding the transpose structure.
        perm = np.argsort(current.P.indices, kind="stable")
        if not np.allclose(p_new.data, p_new.data[perm], atol=1e-9):
            raise ShapeError("P must be symmetric")
    return QProblem._trusted(p_new, q_new,
                             matrix(current.A, A_data, "A"),
                             l_new, u_new, current.name)


class SolverSession:
    """A solver handle bound to one problem structure.

    Created by :meth:`SolverService.open_session`; not meant to be
    constructed directly. Thread-compatible, not thread-safe: one
    session serves one control loop. The session pins one resident
    accelerator of its artifact (:func:`~repro.serving.pool.
    bind_resident`) until :meth:`close` checks it back in.

    Parameters
    ----------
    carry_state:
        Carry the adapted penalty parameter across re-solves (ADMM's
        rho, PDQP's primal weight omega). Default True — the whole
        point of a session is that consecutive problems are similar.
    deadline:
        Default per-resolve wall-clock budget in seconds (overridable
        per :meth:`resolve`); ``None`` falls back to the service
        resilience policy's deadline.
    """

    def __init__(self, service: "SolverService", problem: QProblem,
                 artifact, tier: str, fingerprint, c: int,
                 algorithm: str, *, carry_state: bool = True,
                 deadline: float | None = None):
        self._service = service
        self._problem = problem
        self.artifact = artifact
        self.open_tier = tier
        self.fingerprint = fingerprint
        self.c = c
        self.algorithm = algorithm
        self.carry_state = bool(carry_state)
        self.deadline = deadline
        self.updates = 0
        self.resolves = 0
        self._last: ServeResult | None = None
        self._resident = bind_resident(problem, artifact, service.settings,
                                       service.pcg_eps, service.backend)

    def _ensure_open(self) -> None:
        if self._resident is None:
            raise RuntimeError("session is closed")

    # ------------------------------------------------------------------
    @property
    def problem(self) -> QProblem:
        """The numeric data the session is currently bound to."""
        return self._problem

    @property
    def last(self) -> ServeResult | None:
        """The most recent :class:`ServeResult`, or None."""
        return self._last

    @property
    def _accelerator(self):
        """The pinned accelerator (None once closed)."""
        return self._resident.accelerator if self._resident else None

    # ------------------------------------------------------------------
    def update(self, *, q=None, l=None, u=None, P_data=None,
               A_data=None) -> None:
        """Install new numeric data in place (same sparsity pattern).

        Vector arguments replace ``q`` / ``l`` / ``u``; ``P_data`` /
        ``A_data`` replace the matrix *values* on the bound pattern
        (length must equal the pattern's nnz). The resident machine is
        re-downloaded — scaling and derived scalars are recomputed
        exactly as a fresh setup would — but nothing structural is
        touched: no re-fingerprint, no re-customization, no
        re-compilation, no re-verification.
        """
        self._ensure_open()
        if (q is None and l is None and u is None and P_data is None
                and A_data is None):
            raise ValueError("update() needs at least one of "
                             "q, l, u, P_data, A_data")
        problem = updated_problem(self._problem, q=q, l=l, u=u,
                                  P_data=P_data, A_data=A_data)
        accelerator = self._resident.accelerator
        if self.algorithm == "pdqp":
            accelerator.refresh_numeric(problem,
                                        carry_omega=self.carry_state)
        else:
            accelerator.refresh_numeric(problem,
                                        carry_rho=self.carry_state)
        self._problem = problem
        self._resident.stale = False
        self.updates += 1
        self._service.metrics.counter(
            "serving_session_updates_total").inc()

    # ------------------------------------------------------------------
    def resolve(self, *, warm_start="auto",
                deadline: float | None = None) -> ServeResult:
        """Re-solve the bound problem on the resident accelerator.

        ``warm_start`` defaults to ``"auto"``: the previous solution's
        ``(x, y)`` when one exists, cold otherwise. Pass an explicit
        ``(x0, y0)`` tuple or ``None`` to override. Runs the service's
        own resilience loop — retries, host-side KKT re-check,
        deadline enforcement and (when the policy allows) degradation
        to the reference solver all behave exactly like
        :meth:`SolverService.solve`.
        """
        self._ensure_open()
        service = self._service
        submitted = time.perf_counter()
        with service._lock:
            request_id = service._next_id
            service._next_id += 1
        if warm_start == "auto":
            warm = ((self._last.x, self._last.y)
                    if self._last is not None else None)
        else:
            warm = warm_start
        if deadline is None:
            deadline = self.deadline
        if deadline is None:
            deadline = service.resilience.deadline_seconds
        deadline_at = (submitted + deadline) if deadline is not None \
            else None

        resil = {"retries": 0, "rollbacks": 0, "faults_injected": 0,
                 "degraded": False, "deadline_missed": False}
        raw, resil = service._solve_resilient(
            request_id, self._problem, self.artifact, warm, deadline_at,
            resil, resident=self._resident)
        solve_seconds = time.perf_counter() - submitted
        backend, simulated_cycles, simulated_seconds = answer_accounting(
            raw, resil["degraded"])
        converged = raw.converged
        iterations = raw.iterations
        record = ServeRecord(
            request_id=request_id, problem_name=self._problem.name,
            fingerprint_key=self.fingerprint.key, c=self.c,
            architecture=self.artifact.architecture_string,
            tier=TIER_SESSION, backend=backend,
            algorithm=self.algorithm,
            solve_seconds=solve_seconds,
            total_seconds=solve_seconds,
            simulated_cycles=simulated_cycles,
            simulated_seconds=simulated_seconds,
            admm_iterations=iterations, converged=converged,
            retries=resil["retries"], rollbacks=resil["rollbacks"],
            faults_injected=resil["faults_injected"],
            degraded=resil["degraded"],
            deadline_missed=resil["deadline_missed"])
        with service._lock:
            service._records[request_id] = record
        metrics = service.metrics
        metrics.counter("serving_requests_total").inc()
        metrics.counter("serving_session_resolves_total").inc()
        metrics.histogram("serving_session_resolve_seconds",
                          labels={"algorithm": self.algorithm}).observe(
                              solve_seconds)
        metrics.histogram("serving_admm_iterations").observe(iterations)
        if simulated_cycles:
            metrics.histogram("serving_simulated_cycles").observe(
                simulated_cycles)
        if not converged:
            metrics.counter("serving_unconverged_total").inc()
        result = ServeResult(x=raw.x, y=raw.y, z=raw.z,
                             converged=converged, backend=backend,
                             record=record, raw=raw)
        self._last = result
        self.resolves += 1
        return result

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Check the pinned accelerator back in; idempotent. One whose
        attempt ever raised is dropped instead."""
        resident, self._resident = self._resident, None
        if resident is not None and not resident.failed:
            self.artifact.check_in(resident.key, resident)

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._resident is None else "open"
        return (f"SolverSession({self._problem.name!r}, "
                f"algorithm={self.algorithm!r}, c={self.c}, "
                f"updates={self.updates}, resolves={self.resolves}, "
                f"{state})")


class BatchSolverSession:
    """A lockstep session over a fleet of same-structure streams.

    Binds one artifact to ``len(problems)`` lanes; every
    :meth:`resolve_all` runs one lane-minor batched solve
    (:func:`repro.batch.solve_batch_job`) over the current per-lane
    numeric data, warm-started from each lane's previous solution by
    default. Lane results are bitwise identical to solo solves on the
    same data (the batched runner's contract).
    """

    def __init__(self, service: "SolverService", problems, artifact,
                 tier: str, fingerprint, c: int, algorithm: str):
        self._service = service
        self._problems = list(problems)
        if not self._problems:
            raise ValueError("a batch session needs at least one lane")
        self.artifact = artifact
        self.open_tier = tier
        self.fingerprint = fingerprint
        self.c = c
        self.algorithm = algorithm
        self.resolves = 0
        self.updates = 0
        self._last: list | None = None
        self._closed = False

    @property
    def width(self) -> int:
        """Number of lanes."""
        return len(self._problems)

    @property
    def problems(self) -> list[QProblem]:
        return list(self._problems)

    @property
    def last(self) -> list | None:
        """Per-lane raw results of the most recent resolve, or None."""
        return self._last

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def update(self, lane: int, *, q=None, l=None, u=None, P_data=None,
               A_data=None) -> None:
        """Install new numeric data for one lane (same pattern)."""
        self._ensure_open()
        self._problems[lane] = updated_problem(
            self._problems[lane], q=q, l=l, u=u, P_data=P_data,
            A_data=A_data)
        self.updates += 1
        self._service.metrics.counter(
            "serving_session_updates_total").inc()

    def resolve_all(self, *, warm_starts="auto") -> list:
        """One lockstep re-solve across every lane; returns raw lane
        results in lane order."""
        self._ensure_open()
        service = self._service
        from ..batch import solve_batch_job
        if warm_starts == "auto":
            warm_starts = ([(r.x, r.y) for r in self._last]
                           if self._last is not None
                           else [None] * len(self._problems))
        t_start = time.perf_counter()
        batch = solve_batch_job(self._problems, self.artifact,
                                service.settings,
                                warm_starts=warm_starts,
                                pcg_eps=service.pcg_eps, verify=False)
        elapsed = time.perf_counter() - t_start
        self._last = list(batch.results)
        self.resolves += 1
        metrics = service.metrics
        metrics.counter("serving_session_resolves_total").inc()
        metrics.histogram("serving_session_resolve_seconds",
                          labels={"algorithm": self.algorithm}).observe(
                              elapsed)
        metrics.histogram("serving_batch_width").observe(
            len(self._problems))
        return self._last

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True

    def __enter__(self) -> "BatchSolverSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
