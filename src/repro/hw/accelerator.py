"""Host-side wrapper: run OSQP end-to-end on the simulated RSQP card.

Mirrors the paper's deployment: the CPU host performs setup (Ruiz
scaling, rho selection, preconditioner computation, data download) and
the FPGA executes the full ADMM + PCG loop from its instruction ROM.
The wrapper returns the *unscaled* solution plus the cycle statistics
that drive the performance model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..customization import (ProblemCustomization, baseline_customization,
                             customize_problem)
from ..exceptions import DeadlineExceededError, FaultDetectedError
from ..qp import QProblem, RuizPlan, ruiz_equilibrate
from ..solver import OSQPSettings
from ..solver.osqp import OSQPSolver
from .compiled import CompiledExecutor, validate_backend
from .compiler import (ADMM_LOOP, PCG_LOOP, CompiledProgram, attach_costs,
                       compile_osqp_program)
from .frequency import fmax_mhz
from .machine import ExecutionStats, Machine, MatrixResource
from .power import fpga_power_watts

__all__ = ["RSQPResult", "RSQPAccelerator", "compile_for_customization",
           "adaptive_rho_estimate", "rho_vector_for",
           "jacobi_preconditioner"]


def adaptive_rho_estimate(rho: float, rp: float, rdual: float,
                          npz: float, nd_all: float) -> float:
    """OSQP's residual-balanced step-size estimate (exact float path).

    Shared by the solo accelerator's host update and the batched
    runner's per-lane updates, so both apply bit-identical arithmetic
    to the residual scalars read off the device.
    """
    pri_norm = max(npz, 1e-15)
    dua_norm = max(nd_all, 1e-15)
    estimate = rho * np.sqrt((rp / pri_norm)
                             / max(rdual / dua_norm, 1e-15))
    return float(np.clip(estimate, 1e-6, 1e6))


def rho_vector_for(work, estimate: float) -> np.ndarray:
    """Constraint-wise rho: stiffened equalities, loose rows relaxed."""
    rho_vec = np.full(work.m, estimate)
    eq = work.equality_mask()
    rho_vec[eq] = np.clip(estimate * 1e3, 1e-6, 1e6)
    loose = np.isneginf(work.l) & np.isposinf(work.u)
    rho_vec[loose] = 1e-6
    return rho_vec


def jacobi_preconditioner(work, sigma: float,
                          rho_vec: np.ndarray) -> np.ndarray:
    """``1 / diag(K)`` for ``K = P + sigma I + A' diag(rho) A``."""
    weighted = work.A.scale_rows(np.sqrt(rho_vec))
    diag_k = work.P.diagonal() + sigma + weighted.column_sq_sums()
    return 1.0 / diag_k


@dataclass
class RSQPResult:
    """Solution and performance data from one accelerator run.

    ``admm_iterations`` counts the *outer* loop trips whatever the
    algorithm (PDHG iterations for ``algorithm="pdqp"``); the uniform
    ``status`` / ``iterations`` / ``termination_reason`` properties
    match :class:`repro.solver.results.OSQPResult`, so callers can
    treat reference and accelerator results interchangeably.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    converged: bool
    admm_iterations: int
    pcg_iterations: int
    total_cycles: int
    fmax_mhz: float
    power_watts: float
    stats: ExecutionStats
    #: Segment rollbacks the run performed (checkpoint recovery).
    rollbacks: int = 0
    #: Fault-injection event records from the run's injector, if any.
    fault_events: tuple = field(default_factory=tuple)
    #: Which algorithm produced this result ("admm" or "pdqp").
    algorithm: str = "admm"
    #: Host-driven restarts (PDQP) — 0 for the ADMM path.
    restarts: int = 0

    @property
    def solve_seconds(self) -> float:
        """Wall time at the modeled clock."""
        return self.total_cycles / (self.fmax_mhz * 1e6)

    @property
    def energy_joules(self) -> float:
        return self.solve_seconds * self.power_watts

    # -- uniform result surface (matches OSQPResult) --------------------
    @property
    def status(self) -> "SolverStatus":
        """:class:`~repro.solver.results.SolverStatus` equivalent."""
        from ..solver.results import SolverStatus
        return (SolverStatus.SOLVED if self.converged
                else SolverStatus.MAX_ITER_REACHED)

    @property
    def iterations(self) -> int:
        """Outer-loop iterations, algorithm-agnostic."""
        return self.admm_iterations

    @property
    def termination_reason(self) -> str:
        """One of :data:`repro.solver.results.TERMINATION_REASONS`."""
        return self.status.reason


class RSQPAccelerator:
    """Simulated RSQP card solving one QP structure.

    Parameters
    ----------
    problem:
        The QP to solve (unscaled; the host scales it during setup).
    customization:
        A :class:`ProblemCustomization`; pass the output of
        :func:`repro.customization.customize_problem` for the customized
        design or :func:`repro.customization.baseline_customization` for
        the reference architecture. Defaults to the customized design at
        ``c = 16``.
    settings:
        Solver settings; the accelerator honors ``rho``, ``sigma``,
        ``alpha``, ``eps_abs``, ``eps_rel``, ``scaling`` and
        ``max_iter``. Adaptive rho runs host-side in OSQP; the
        instruction stream keeps ``rho`` fixed (the paper notes PCG
        makes rho updates cheap — a host re-download — but the ROM
        program itself is static).
    compiled:
        Optional pre-compiled program with costs already attached (a
        cached artifact from :mod:`repro.serving`). Must have been
        compiled for the same dimensions, width and ``max_pcg_iter``;
        a mismatch raises :class:`ValueError`. When given, the
        compile + cost-attachment stage of construction is skipped —
        the warm path that the serving layer's architecture cache
        amortizes across structurally identical problems.
    backend:
        ``"compiled"`` (default) lowers programs to fused numpy
        closures with bulk cycle accounting (see
        :mod:`repro.hw.compiled`); ``"interpret"`` executes through
        the per-instruction interpreter. Both produce bit-identical
        solutions and identical cycle statistics; the interpreter is
        kept as the differential-testing oracle.
    verify:
        When True (default), statically verify the program against
        the host download contract before any execution (see
        :mod:`repro.verify`) and raise
        :class:`~repro.exceptions.VerificationError` carrying the
        diagnostics instead of failing mid-solve. The check walks the
        instruction stream once; disable only in tight benchmark
        loops that construct accelerators per iteration.
    """

    def __init__(self, problem: QProblem,
                 customization: ProblemCustomization | None = None,
                 settings: OSQPSettings | None = None,
                 *, c: int = 16, pcg_eps: float = 1e-7,
                 max_pcg_iter: int = 500,
                 compiled: CompiledProgram | None = None,
                 backend: str = "compiled",
                 verify: bool = True,
                 fault_injector=None,
                 recovery=None,
                 deadline_seconds: float | None = None,
                 scaling=None):
        self.problem = problem
        self.settings = settings if settings is not None else OSQPSettings()
        self._precomputed_scaling = scaling
        self._ruiz_plan = None
        if customization is None:
            customization = customize_problem(problem, c)
        self.customization = customization
        self.c = customization.c
        self.pcg_eps = float(pcg_eps)
        self.max_pcg_iter = int(max_pcg_iter)
        self.backend = validate_backend(backend)
        #: Optional FaultInjector armed on the machine before any
        #: execution; arms detection + checkpoint/rollback too.
        self.fault_injector = fault_injector
        #: RecoveryPolicy; None with no injector disables the per-
        #: segment corruption guard entirely (the fault-free path does
        #: not pay for checkpoints it will never restore).
        self.recovery = recovery
        #: Cooperative per-solve deadline, checked between segments.
        self.deadline_seconds = (float(deadline_seconds)
                                 if deadline_seconds is not None else None)
        #: Static verification on/off — covers both the pre-execution
        #: program passes and the compiled backend's codegen guard.
        self._verify = bool(verify)

        self._host_setup()
        self._build_machine()
        if compiled is None:
            compiled = compile_for_customization(
                customization, self.work.n, self.work.m,
                max_admm_iter=self.settings.max_iter,
                max_pcg_iter=self.max_pcg_iter)
        else:
            self._check_compiled(compiled)
        self.compiled: CompiledProgram = compiled
        if verify:
            self._verify_compiled(compiled)
        self._build_programs()
        self._download()

    # ------------------------------------------------------------------
    def _host_setup(self) -> None:
        """Scale the problem and pick rho exactly like the software solver."""
        scaling = self._precomputed_scaling
        if scaling is None:
            # The equilibration plan depends only on the bound sparsity
            # pattern: compute it once, reuse it on every numeric
            # refresh of this structure.
            if self._ruiz_plan is None:
                self._ruiz_plan = RuizPlan.for_problem(self.problem)
            scaling = ruiz_equilibrate(self.problem, self.settings.scaling,
                                       plan=self._ruiz_plan)
        helper = OSQPSolver(self.problem, self.settings, scaling=scaling)
        self.scaling = helper.scaling
        self.work = helper.work
        self.rho = helper.rho
        self.rho_vec = helper.rho_vec
        self.rho_updates = 0
        self._work_at = helper.at

    def _build_machine(self) -> None:
        """Bind the (numeric) scaled matrices to the simulated card."""
        customization = self.customization
        streams = {"P": self.work.P, "A": self.work.A, "At": self._work_at}
        self.machine = Machine(self.c, {
            name: MatrixResource(
                name=name, matrix=streams[name],
                spmv_cycles=customization.matrices[name].spmv_cycles,
                cvb_depth=customization.matrices[name].duplication_cycles)
            for name in ("P", "A", "At")})
        # Armed before the executor exists, so lowering sees the hook.
        self.machine.injector = self.fault_injector
        self._executor = (CompiledExecutor(self.machine,
                                           verify=self._verify)
                          if self.backend == "compiled" else None)

    def _run_program(self, program) -> ExecutionStats:
        """Execute through the selected backend (shared machine state)."""
        if self._executor is not None:
            return self._executor.run(program)
        return self.machine.run(program)

    def _build_programs(self) -> None:
        """Construct every host-issued Program once, at bind time.

        Stability matters beyond allocation: the compiled executor
        caches lowered blocks and whole-loop fusions by instruction-
        list identity, so stable Program/Loop objects let every
        segment of every re-solve hit the same bound nodes (and keep
        the executor's cache bounded across a long-lived session).
        """
        from .isa import DataTransfer, Loop, Program

        sections = self.compiled._sections
        self._refresh_program = Program(
            [DataTransfer("load", name)
             for name in ("rho", "rho_inv", "minv")])
        self._reload_program = Program(
            [DataTransfer("load", name)
             for name in ("q", "l", "u", "rho", "rho_inv", "minv")])
        self._prologue_program = Program(list(sections["prologue"]))
        self._epilogue_program = Program(list(sections["epilogue"]))
        self._loop_body = sections["admm_body"]
        self._loop_name = ADMM_LOOP
        self._segment_programs: dict = {}

    def _segment_program(self, segment: int):
        """The Program wrapping the iteration body at this trip count."""
        from .isa import Loop, Program

        program = self._segment_programs.get(segment)
        if program is None:
            program = Program([Loop(body=self._loop_body,
                                    max_iter=segment,
                                    name=self._loop_name)])
            self._segment_programs[segment] = program
        return program

    # ------------------------------------------------------------------
    def _check_same_structure(self, problem: QProblem) -> None:
        """Reject numeric updates that change the bound structure."""
        old = self.problem
        if problem.n != old.n or problem.m != old.m:
            raise ValueError(
                f"session is bound to n={old.n}, m={old.m}; update has "
                f"n={problem.n}, m={problem.m}")
        for name in ("P", "A"):
            new_mat = getattr(problem, name)
            old_mat = getattr(old, name)
            if (new_mat.indptr.shape != old_mat.indptr.shape
                    or new_mat.indices.shape != old_mat.indices.shape
                    or not np.array_equal(new_mat.indptr, old_mat.indptr)
                    or not np.array_equal(new_mat.indices,
                                          old_mat.indices)):
                raise ValueError(
                    f"sparsity pattern of {name} changed; a bound "
                    "accelerator only accepts same-structure numeric "
                    "updates")

    def refresh_numeric(self, problem: QProblem, *,
                        carry_rho: bool = False) -> None:
        """Install new numeric data for the *same* structure, in place.

        Re-runs the host setup (Ruiz equilibration depends on ``q``, so
        the scaled matrix values change even for a pure-vector update),
        rewrites the machine's matrix value banks in place — pattern,
        schedules, compiled programs, verification and every bound
        C pointer table stay untouched — and re-downloads the HBM
        vectors and scalar registers. After this call the machine is
        bit-identical to a freshly constructed accelerator for
        ``problem``, except ``carry_rho=True`` keeps the adapted step
        size from previous solves instead of the cold-start estimate.
        """
        self._check_same_structure(problem)
        prev_rho = self.rho
        self.problem = problem
        self._precomputed_scaling = None
        self._host_setup()
        if carry_rho:
            self.rho = prev_rho
            self.rho_vec = rho_vector_for(self.work, prev_rho)
        machine = self.machine
        machine.matrices["P"].update_values(self.work.P.data)
        machine.matrices["A"].update_values(self.work.A.data)
        machine.matrices["At"].update_values(self._work_at.data)
        self._download()

    def _check_compiled(self, compiled: CompiledProgram) -> None:
        """Validate an injected program against this problem + width."""
        ctx = compiled.context
        if ctx.c != self.c:
            raise ValueError(
                f"compiled program was costed for C={ctx.c}, "
                f"customization has C={self.c}")
        if (ctx.vector_length("x") != self.work.n
                or ctx.vector_length("z") != self.work.m):
            raise ValueError(
                f"compiled program is for n={ctx.vector_length('x')}, "
                f"m={ctx.vector_length('z')}; problem has "
                f"n={self.work.n}, m={self.work.m}")
        for name in ("P", "A", "At"):
            if ctx.spmv_cycles(name) != \
                    self.customization.matrices[name].spmv_cycles:
                raise ValueError(
                    f"compiled program's {name} SpMV cost disagrees with "
                    "the customization — was it built for this structure?")
            if ctx.cvb_depth(name) != \
                    self.customization.matrices[name].duplication_cycles:
                raise ValueError(
                    f"compiled program's {name} CVB depth disagrees with "
                    "the customization — VecDup would be mis-charged")

    def _verify_compiled(self, compiled: CompiledProgram) -> None:
        """Pre-execution static verification (def-before-use, hazards,
        cost bookkeeping); raises ``VerificationError`` on rejection."""
        # Imported lazily: repro.verify imports this package.
        from ..verify import verify_compiled_program
        report = verify_compiled_program(compiled)
        report.raise_if_failed("accelerator program rejected")

    # ------------------------------------------------------------------
    def _download(self) -> None:
        """Host -> HBM data movement and scalar register setup."""
        work = self.work
        machine = self.machine
        n, m = work.n, work.m
        machine.write_hbm("q", work.q)
        machine.write_hbm("l", np.nan_to_num(work.l, neginf=-1e30))
        machine.write_hbm("u", np.nan_to_num(work.u, posinf=1e30))
        machine.write_hbm("rho", self.rho_vec)
        machine.write_hbm("rho_inv", 1.0 / self.rho_vec)
        # Jacobi preconditioner of K = P + sigma I + A' diag(rho) A.
        machine.write_hbm("minv", jacobi_preconditioner(
            work, self.settings.sigma, self.rho_vec))
        machine.write_hbm("x", np.zeros(n))
        machine.write_hbm("z", np.zeros(m))
        machine.write_hbm("y", np.zeros(m))

        s = self.settings
        machine.set_scalar("sigma", s.sigma)
        machine.set_scalar("alpha_relax", s.alpha)
        machine.set_scalar("one_m_alpha", 1.0 - s.alpha)
        machine.set_scalar("eps_rel", s.eps_rel)
        machine.set_scalar("eps_abs_m", s.eps_abs * np.sqrt(max(m, 1)))
        machine.set_scalar("eps_abs_n", s.eps_abs * np.sqrt(max(n, 1)))
        machine.set_scalar("nq", float(np.linalg.norm(work.q)))
        machine.set_scalar("one", 1.0)
        machine.set_scalar("tiny", 1e-30)
        machine.set_scalar("pcg_eps2", self.pcg_eps ** 2)

    # ------------------------------------------------------------------
    def warm_start(self, x=None, y=None) -> None:
        """Provide initial iterates (unscaled), as for repeated solves.

        The backtesting/MPC amortization workloads solve long sequences
        of same-structure problems; warm-starting from the previous
        solution is how the host exploits that on the card.
        """
        machine = self.machine
        if x is not None:
            x_s = self.scaling.scale_x(np.asarray(x, dtype=np.float64))
            machine.write_hbm("x", x_s)
            machine.write_hbm("z", self.work.A.matvec(x_s))
        if y is not None:
            machine.write_hbm("y", self.scaling.scale_y(
                np.asarray(y, dtype=np.float64)))

    def _update_rho_from_device(self) -> bool:
        """Host-side adaptive rho (OSQP's rule, residuals read off-chip).

        The paper motivates PCG precisely because rho updates avoid the
        LDL^T refactorization: here the host recomputes the rho vectors
        and the Jacobi preconditioner and re-downloads them — the reload
        is charged to the accelerator as data transfers.
        """
        scalars = self.machine.scalars
        estimate = adaptive_rho_estimate(
            self.rho, scalars.get("rp", 0.0), scalars.get("rdual", 0.0),
            scalars.get("npz", 0.0), scalars.get("nd_all", 0.0))
        tol = self.settings.adaptive_rho_tolerance
        if not (estimate > tol * self.rho or estimate < self.rho / tol):
            return False
        self.rho = estimate
        self.rho_vec = rho_vector_for(self.work, estimate)
        machine = self.machine
        machine.write_hbm("rho", self.rho_vec)
        machine.write_hbm("rho_inv", 1.0 / self.rho_vec)
        machine.write_hbm("minv", jacobi_preconditioner(
            self.work, self.settings.sigma, self.rho_vec))
        # The accelerator reloads the three vectors (charged cycles).
        self._run_program(self._refresh_program)
        return True

    # -- fault detection and recovery ----------------------------------
    #: VB buffers carrying persistent ADMM state across iterations —
    #: everything else the ADMM body re-derives from these + HBM.
    _ADMM_STATE = ("x", "z", "y", "xt")

    def _snapshot_state(self) -> tuple:
        """Checkpoint of the cross-segment ADMM state (iterates +
        scalar registers), taken at segment boundaries."""
        machine = self.machine
        vb = {name: machine.vb[name].copy()
              for name in self._ADMM_STATE if name in machine.vb}
        return vb, dict(machine.scalars)

    def _state_corrupted(self, prev_worst: float, recovery) -> bool:
        """Non-finite iterates / residuals, or residual divergence."""
        machine = self.machine
        for name in self._ADMM_STATE:
            buf = machine.vb.get(name)
            if buf is not None and not np.all(np.isfinite(buf)):
                return True
        worst = machine.scalars.get("worst")
        if worst is not None and not np.isfinite(worst):
            return True
        if (worst is not None and np.isfinite(prev_worst)
                and worst > recovery.divergence_factor
                * max(prev_worst, 1.0)):
            return True
        return False

    def _rollback(self, checkpoint: tuple) -> None:
        """Restore the last good segment boundary.

        Heals possible problem-data corruption too: the host re-
        downloads the pristine HBM vectors and the accelerator reloads
        its on-chip copies (charged as data transfers — the reload is
        the rollback's bounded cost, on top of re-running one segment).
        """
        machine = self.machine
        self._download()
        self._run_program(self._reload_program)
        vb_snap, scalar_snap = checkpoint
        for name, arr in vb_snap.items():
            buf = machine.vb.get(name)
            if isinstance(buf, np.ndarray) and buf.shape == arr.shape:
                np.copyto(buf, arr)  # keep compiled stable buffers
            else:
                machine.vb[name] = arr.copy()
        machine.scalars.clear()
        machine.scalars.update(scalar_snap)

    def run(self) -> RSQPResult:
        """Execute the solve: prologue, ADMM segments with host-driven
        rho adaptation, epilogue. Returns the unscaled result.

        With a fault injector (or an explicit recovery policy) armed,
        each segment boundary checks the persistent ADMM state for
        non-finite values and residual divergence; a corrupted segment
        is rolled back to the last good checkpoint and re-run, at most
        ``recovery.max_rollbacks`` times, after which the run raises
        :class:`~repro.exceptions.FaultDetectedError`. A configured
        deadline is checked cooperatively between segments and raises
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        interval = max(self.settings.adaptive_rho_interval, 1)
        machine = self.machine
        self.rho_updates = 0
        guard = (self.fault_injector is not None
                 or self.recovery is not None)
        recovery = self.recovery
        if guard and recovery is None:
            from ..faults.policy import RecoveryPolicy
            recovery = RecoveryPolicy()
        deadline_at = (time.perf_counter() + self.deadline_seconds
                       if self.deadline_seconds is not None else None)
        rollbacks = 0

        def _events():
            return (tuple(self.fault_injector.events)
                    if self.fault_injector is not None else ())

        self._run_program(self._prologue_program)
        checkpoint = self._snapshot_state() if guard else None
        prev_worst = np.inf
        remaining = self.settings.max_iter
        converged = False
        while remaining > 0:
            if (deadline_at is not None
                    and time.perf_counter() > deadline_at):
                raise DeadlineExceededError(
                    f"solve overran its {self.deadline_seconds:.3g}s "
                    f"deadline with {remaining} iterations to go")
            segment = min(interval, remaining)
            before = machine.stats.loop_iterations.get(ADMM_LOOP, 0)
            self._run_program(self._segment_program(segment))
            executed = machine.stats.loop_iterations.get(ADMM_LOOP,
                                                         0) - before
            if guard and self._state_corrupted(prev_worst, recovery):
                if rollbacks >= recovery.max_rollbacks:
                    raise FaultDetectedError(
                        f"ADMM state corrupted after "
                        f"{rollbacks} rollbacks", events=_events())
                rollbacks += 1
                self._rollback(checkpoint)
                continue  # re-run the segment; budget stays
            remaining -= executed
            if machine.scalars.get("worst", np.inf) < 1.0:
                converged = True
                break
            if executed < segment:  # defensive: loop exited unconverged
                break
            if self.settings.adaptive_rho and remaining > 0:
                if self._update_rho_from_device():
                    self.rho_updates += 1
            if guard:
                checkpoint = self._snapshot_state()
                worst = machine.scalars.get("worst")
                if worst is not None and np.isfinite(worst):
                    prev_worst = worst
        self._run_program(self._epilogue_program)

        stats = machine.stats.snapshot()
        x = self.scaling.unscale_x(machine.read_hbm("x"))
        y = self.scaling.unscale_y(machine.read_hbm("y"))
        z = self.scaling.unscale_z(machine.read_hbm("z"))
        admm_iters = stats.loop_iterations.get(ADMM_LOOP, 0)
        pcg_iters = stats.loop_iterations.get(PCG_LOOP, 0)
        arch = self.customization.architecture
        return RSQPResult(
            x=x, y=y, z=z, converged=converged,
            admm_iterations=admm_iters, pcg_iterations=pcg_iters,
            total_cycles=stats.total_cycles,
            fmax_mhz=fmax_mhz(arch),
            power_watts=fpga_power_watts(arch),
            stats=stats, rollbacks=rollbacks,
            fault_events=_events())

    def estimate_cycles(self, admm_iterations: int, pcg_iterations: int,
                        rho_updates: int = 0) -> int:
        """Analytic cycle count (exact; see :mod:`repro.hw.compiler`).

        ``rho_updates`` charges the three-vector reload each host-driven
        step-size change costs.
        """
        refresh = 0
        if rho_updates:
            from .isa import DataTransfer
            refresh = rho_updates * sum(
                DataTransfer("load", name).cycles(self.compiled.context)
                for name in ("rho", "rho_inv", "minv"))
        return (self.compiled.estimate_cycles(admm_iterations,
                                              pcg_iterations) + refresh)


def compile_for_customization(customization: ProblemCustomization,
                              n: int, m: int, *, max_admm_iter: int,
                              max_pcg_iter: int) -> CompiledProgram:
    """Compile the OSQP program and attach a customization's cycle costs.

    The result depends only on the problem *structure* (dimensions plus
    the customization's schedules), never on numeric data, so it can be
    cached and shared across every structurally identical problem — the
    contract :mod:`repro.serving` relies on. The program is read-only
    during execution (all run state lives in the :class:`Machine`), so
    one compiled artifact may serve concurrent accelerator instances.
    """
    compiled = compile_osqp_program(n, m, max_admm_iter=max_admm_iter,
                                    max_pcg_iter=max_pcg_iter)
    attach_costs(compiled, customization.c,
                 spmv={name: customization.matrices[name].spmv_cycles
                       for name in ("P", "A", "At")},
                 depths={name: customization.matrices[name].duplication_cycles
                         for name in ("P", "A", "At")},
                 n=n, m=m)
    return compiled
