"""Host-side wrapper: run PDQP end-to-end on the simulated RSQP card.

The second algorithm on the customized datapaths: restarted Halpern
PDHG (:mod:`repro.solver.pdqp`) lowered by
:func:`repro.hw.compiler.compile_pdqp_program`. The host performs the
setup the reference solver does (Ruiz scaling, power-iteration step
sizes, data download); the card runs the anchored PDHG loop in
fixed-length segments, and the host performs the restart between
segments — anchor refresh, Halpern-counter reset and optional primal
weight rebalancing — exactly as the ADMM wrapper drives its host-side
rho updates. Both the interpreter and the compiled backend execute
the same instruction stream bit-identically.
"""

from __future__ import annotations

import time

import numpy as np

from ..customization import ProblemCustomization, customize_problem
from ..exceptions import DeadlineExceededError, FaultDetectedError
from ..qp import QProblem, RuizPlan, ruiz_equilibrate
from ..solver.pdqp import PDQPSolver
from ..solver.settings import OMEGA_MAX, OMEGA_MIN, PDQPSettings
from .accelerator import RSQPResult
from .compiled import CompiledExecutor, validate_backend
from .compiler import PDHG_LOOP, CompiledProgram, attach_costs, \
    compile_pdqp_program
from .frequency import fmax_mhz
from .machine import ExecutionStats, Machine, MatrixResource
from .power import fpga_power_watts

__all__ = ["PDQPAccelerator", "compile_pdqp_for_customization",
           "rebalanced_omega", "pdqp_step_sizes"]


def rebalanced_omega(omega: float, rp: float, rdual: float,
                     npz: float, nd_all: float) -> float:
    """Residual-balanced primal-weight estimate (exact float path).

    Shared by the solo accelerator's host restart and the batched
    runner's per-lane restarts, mirroring
    :func:`repro.hw.accelerator.adaptive_rho_estimate`.
    """
    pri_norm = max(npz, 1e-15)
    dua_norm = max(nd_all, 1e-15)
    estimate = omega * np.sqrt((rp / pri_norm)
                               / max(rdual / dua_norm, 1e-15))
    return float(np.clip(estimate, OMEGA_MIN, OMEGA_MAX))


def pdqp_step_sizes(omega: float, norm_a: float, lam_p: float,
                    tau_scale: float) -> tuple[float, float]:
    """``(tau, sigma)`` for a primal weight, as the reference derives."""
    denom = omega * norm_a + lam_p
    tau = tau_scale / max(denom, 1e-15)
    sigma = omega / norm_a if norm_a > 1e-15 else omega
    return tau, sigma


class PDQPAccelerator:
    """Simulated RSQP card solving one QP structure with PDQP.

    Mirrors :class:`repro.hw.accelerator.RSQPAccelerator`'s interface
    (same ``backend`` / ``verify`` / fault / deadline machinery) so the
    serving layer can dispatch to either from one artifact. The
    customization is built against the raw ``P`` / ``A`` / ``A'``
    structures — identical to the ADMM card's matrix set, which is why
    one customized architecture serves both algorithms.

    Parameters
    ----------
    problem:
        The QP to solve (unscaled; the host scales it during setup).
    customization:
        A :class:`ProblemCustomization` (defaults to the customized
        design at ``c = 16``).
    settings:
        :class:`~repro.solver.settings.PDQPSettings`; the accelerator
        honors ``omega`` / ``tau_scale`` / ``power_iterations`` for
        step sizes, ``restart_interval`` as the on-card segment length,
        ``omega_adaptive`` / ``omega_tolerance`` for host rebalancing
        and the shared termination fields.
    compiled:
        Optional pre-compiled PDQP program with costs attached (a
        cached serving artifact); must match this structure and width.
    backend:
        ``"compiled"`` (default) or ``"interpret"`` — bit-identical.
    verify:
        Statically verify the program against the PDQP download
        contract before execution (see :mod:`repro.verify`).
    """

    def __init__(self, problem: QProblem,
                 customization: ProblemCustomization | None = None,
                 settings: PDQPSettings | None = None,
                 *, c: int = 16,
                 compiled: CompiledProgram | None = None,
                 backend: str = "compiled",
                 verify: bool = True,
                 fault_injector=None,
                 recovery=None,
                 deadline_seconds: float | None = None,
                 scaling=None):
        self.problem = problem
        self.settings = settings if settings is not None else PDQPSettings()
        self._precomputed_scaling = scaling
        self._ruiz_plan = None
        if customization is None:
            customization = customize_problem(problem, c)
        self.customization = customization
        self.c = customization.c
        self.backend = validate_backend(backend)
        self.fault_injector = fault_injector
        self.recovery = recovery
        self.deadline_seconds = (float(deadline_seconds)
                                 if deadline_seconds is not None else None)
        #: Static verification on/off — covers both the pre-execution
        #: program passes and the compiled backend's codegen guard.
        self._verify = bool(verify)

        self._host_setup()
        self._build_machine()
        if compiled is None:
            compiled = compile_pdqp_for_customization(
                customization, self.work.n, self.work.m,
                max_iter=self.settings.max_iter)
        else:
            self._check_compiled(compiled)
        self.compiled: CompiledProgram = compiled
        if verify:
            self._verify_compiled(compiled)
        self._build_programs()
        self._download()

    # ------------------------------------------------------------------
    def _host_setup(self) -> None:
        """Scale the problem and derive step sizes like the reference."""
        scaling = self._precomputed_scaling
        if scaling is None:
            # Pattern-only plan, cached across numeric refreshes of the
            # bound structure (see RSQPAccelerator._host_setup).
            if self._ruiz_plan is None:
                self._ruiz_plan = RuizPlan.for_problem(self.problem)
            scaling = ruiz_equilibrate(self.problem, self.settings.scaling,
                                       plan=self._ruiz_plan)
        helper = PDQPSolver(self.problem, self.settings, scaling=scaling)
        self.scaling = helper.scaling
        self.work = helper.work
        self._work_at = helper.at
        self.norm_a = helper.norm_a
        self.lam_p = helper.lam_p
        self.omega = helper.omega
        self.tau = helper.tau
        self.sigma = helper.sigma
        self.restarts = 0
        self.omega_updates = 0

    def _build_machine(self) -> None:
        customization = self.customization
        streams = {"P": self.work.P, "A": self.work.A, "At": self._work_at}
        self.machine = Machine(self.c, {
            name: MatrixResource(
                name=name, matrix=streams[name],
                spmv_cycles=customization.matrices[name].spmv_cycles,
                cvb_depth=customization.matrices[name].duplication_cycles)
            for name in ("P", "A", "At")})
        self.machine.injector = self.fault_injector
        self._executor = (CompiledExecutor(self.machine,
                                           verify=self._verify)
                          if self.backend == "compiled" else None)

    def _run_program(self, program) -> ExecutionStats:
        if self._executor is not None:
            return self._executor.run(program)
        return self.machine.run(program)

    def _build_programs(self) -> None:
        """Pre-build every Program object a solve dispatches.

        Constructed once per accelerator (not per ``run``) so the
        compiled backend's per-program caches — bound chunk functions
        and the whole-loop fused body — persist across repeated solves
        on the same bound structure, which is what makes session
        re-solves pay zero re-lowering cost.
        """
        from .isa import DataTransfer, Loop, Program

        sections = self.compiled._sections
        self._store_program = Program(
            [DataTransfer("store", name) for name in ("x", "y")])
        self._anchor_program = Program(
            [DataTransfer("load", name) for name in ("x0", "y0")])
        self._reload_program = Program(
            [DataTransfer("load", name) for name in ("q", "l", "u")])
        self._prologue_program = Program(list(sections["prologue"]))
        self._epilogue_program = Program(list(sections["epilogue"]))
        self._loop_body = sections["pdhg_body"]
        self._segment_programs: dict = {}

    def _segment_program(self, segment: int):
        from .isa import Loop, Program
        program = self._segment_programs.get(segment)
        if program is None:
            program = Program([Loop(body=self._loop_body,
                                    max_iter=segment, name=PDHG_LOOP)])
            self._segment_programs[segment] = program
        return program

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
                        carry_omega: bool = False) -> None:
        """Rebind the card to new numeric data on the same structure.

        Re-runs host setup (Ruiz scaling and step sizes depend on the
        values), rewrites the resident matrix values in place and
        re-downloads the vector data — no re-customization, no
        re-compilation, no re-verification, because none of those
        depend on numeric values. With ``carry_omega`` the adapted
        primal weight survives the refresh (step sizes are re-derived
        from it against the new operator norms), which is the
        warm-start-friendly default for streaming re-solves.
        """
        self._check_same_structure(problem)
        prev_omega = self.omega
        self.problem = problem
        self._precomputed_scaling = None
        self._host_setup()
        if carry_omega:
            self.omega = prev_omega
            self.tau, self.sigma = pdqp_step_sizes(
                self.omega, self.norm_a, self.lam_p,
                self.settings.tau_scale)
        machine = self.machine
        machine.matrices["P"].update_values(self.work.P.data)
        machine.matrices["A"].update_values(self.work.A.data)
        machine.matrices["At"].update_values(self._work_at.data)
        self._download()

    def _check_compiled(self, compiled: CompiledProgram) -> None:
        """Validate an injected program against this problem + width."""
        if compiled.algorithm != "pdqp":
            raise ValueError(
                f"compiled program implements {compiled.algorithm!r}, "
                "PDQPAccelerator needs a 'pdqp' program")
        ctx = compiled.context
        if ctx.c != self.c:
            raise ValueError(
                f"compiled program was costed for C={ctx.c}, "
                f"customization has C={self.c}")
        if (ctx.vector_length("x") != self.work.n
                or ctx.vector_length("y") != self.work.m):
            raise ValueError(
                f"compiled program is for n={ctx.vector_length('x')}, "
                f"m={ctx.vector_length('y')}; problem has "
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
        # Imported lazily: repro.verify imports this package.
        from ..verify import verify_compiled_program
        report = verify_compiled_program(compiled)
        report.raise_if_failed("accelerator program rejected")

    # ------------------------------------------------------------------
    def _step_scalars(self) -> None:
        """(Re)install the step-size scalar registers (free host ops)."""
        machine = self.machine
        machine.set_scalar("neg_tau", -self.tau)
        machine.set_scalar("sigma", self.sigma)
        machine.set_scalar("sigma_inv", 1.0 / self.sigma)
        machine.set_scalar("neg_sigma", -self.sigma)

    def _download(self) -> None:
        """Host -> HBM data movement and scalar register setup."""
        work = self.work
        machine = self.machine
        n, m = work.n, work.m
        machine.write_hbm("q", work.q)
        machine.write_hbm("l", np.nan_to_num(work.l, neginf=-1e30))
        machine.write_hbm("u", np.nan_to_num(work.u, posinf=1e30))
        machine.write_hbm("x", np.zeros(n))
        machine.write_hbm("y", np.zeros(m))
        machine.write_hbm("x0", np.zeros(n))
        machine.write_hbm("y0", np.zeros(m))

        s = self.settings
        self._step_scalars()
        machine.set_scalar("hk", 2.0)  # Halpern k + 2, k = 0
        machine.set_scalar("one", 1.0)
        machine.set_scalar("eps_rel", s.eps_rel)
        machine.set_scalar("eps_abs_m", s.eps_abs * np.sqrt(max(m, 1)))
        machine.set_scalar("eps_abs_n", s.eps_abs * np.sqrt(max(n, 1)))
        machine.set_scalar("nq", float(np.linalg.norm(work.q)))

    # ------------------------------------------------------------------
    def warm_start(self, x=None, y=None) -> None:
        """Provide initial iterates (unscaled); anchors follow them."""
        machine = self.machine
        if x is not None:
            x_s = self.scaling.scale_x(np.asarray(x, dtype=np.float64))
            machine.write_hbm("x", x_s)
            machine.write_hbm("x0", x_s.copy())
        if y is not None:
            y_s = self.scaling.scale_y(np.asarray(y, dtype=np.float64))
            machine.write_hbm("y", y_s)
            machine.write_hbm("y0", y_s.copy())

    def _host_restart(self) -> None:
        """Between-segment restart: re-anchor at the current iterate.

        The card stores ``x`` / ``y`` to HBM (charged), the host moves
        them into the anchor slots, the card reloads the anchors
        (charged) and the Halpern counter resets — then the next
        segment continues from the very same iterate with a fresh
        anchor, which is exactly the reference solver's restart.
        """
        machine = self.machine
        self._run_program(self._store_program)
        machine.write_hbm("x0", machine.read_hbm("x").copy())
        machine.write_hbm("y0", machine.read_hbm("y").copy())
        self._run_program(self._anchor_program)
        machine.set_scalar("hk", 2.0)
        self.restarts += 1
        if self.settings.omega_adaptive and self._rebalance_omega():
            self.omega_updates += 1

    def _rebalance_omega(self) -> bool:
        """Residual-balance the primal weight from device scalars."""
        scalars = self.machine.scalars
        estimate = rebalanced_omega(
            self.omega, scalars.get("rp", 0.0), scalars.get("rdual", 0.0),
            scalars.get("npz", 0.0), scalars.get("nd_all", 0.0))
        tol = self.settings.omega_tolerance
        if not (estimate > tol * self.omega or estimate < self.omega / tol):
            return False
        self.omega = estimate
        self.tau, self.sigma = pdqp_step_sizes(
            self.omega, self.norm_a, self.lam_p, self.settings.tau_scale)
        self._step_scalars()
        return True

    # -- fault detection and recovery ----------------------------------
    #: VB buffers carrying persistent PDHG state across iterations —
    #: the iterates, the Halpern anchors and the maintained products.
    _PDHG_STATE = ("x", "y", "x0", "y0", "px", "aty")

    def _snapshot_state(self) -> tuple:
        machine = self.machine
        vb = {name: machine.vb[name].copy()
              for name in self._PDHG_STATE if name in machine.vb}
        return vb, dict(machine.scalars)

    def _state_corrupted(self, prev_worst: float, recovery) -> bool:
        """Non-finite iterates / residuals, or residual divergence."""
        machine = self.machine
        for name in self._PDHG_STATE:
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
        """Restore the last good segment boundary (re-download data)."""
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

    # ------------------------------------------------------------------
    def run(self) -> RSQPResult:
        """Execute the solve: prologue, PDHG segments with host-driven
        restarts, epilogue. Returns the unscaled result.

        The segment length is ``settings.restart_interval`` — every
        segment boundary is a restart (the fixed-frequency flavor),
        with the optional adaptive primal-weight rebalance on top.
        Fault guard and deadline semantics match the ADMM wrapper.
        """
        interval = max(self.settings.restart_interval, 1)
        machine = self.machine
        self.restarts = 0
        self.omega_updates = 0
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
            before = machine.stats.loop_iterations.get(PDHG_LOOP, 0)
            self._run_program(self._segment_program(segment))
            executed = machine.stats.loop_iterations.get(PDHG_LOOP,
                                                         0) - before
            if guard and self._state_corrupted(prev_worst, recovery):
                if rollbacks >= recovery.max_rollbacks:
                    raise FaultDetectedError(
                        f"PDHG state corrupted after "
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
            if remaining > 0:
                self._host_restart()
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
        iters = stats.loop_iterations.get(PDHG_LOOP, 0)
        arch = self.customization.architecture
        return RSQPResult(
            x=x, y=y, z=z, converged=converged,
            admm_iterations=iters, pcg_iterations=0,
            total_cycles=stats.total_cycles,
            fmax_mhz=fmax_mhz(arch),
            power_watts=fpga_power_watts(arch),
            stats=stats, rollbacks=rollbacks,
            fault_events=_events(),
            algorithm="pdqp", restarts=self.restarts)

    def estimate_cycles(self, iterations: int, restarts: int = 0) -> int:
        """Analytic cycle count (exact; see :mod:`repro.hw.compiler`).

        ``restarts`` charges the store/load anchor round-trip each
        host-driven restart costs.
        """
        refresh = 0
        if restarts:
            from .isa import DataTransfer
            ctx = self.compiled.context
            refresh = restarts * (
                sum(DataTransfer("store", name).cycles(ctx)
                    for name in ("x", "y"))
                + sum(DataTransfer("load", name).cycles(ctx)
                      for name in ("x0", "y0")))
        return (self.compiled.estimate_cycles_for({PDHG_LOOP: iterations})
                + refresh)


def compile_pdqp_for_customization(customization: ProblemCustomization,
                                   n: int, m: int, *,
                                   max_iter: int) -> CompiledProgram:
    """Compile the PDQP program and attach a customization's cycle costs.

    Depends only on the problem structure (like the ADMM flavor), so
    serving can cache and share it across structurally identical
    problems.
    """
    compiled = compile_pdqp_program(n, m, max_iter=max_iter)
    attach_costs(compiled, customization.c,
                 spmv={name: customization.matrices[name].spmv_cycles
                       for name in ("P", "A", "At")},
                 depths={name: customization.matrices[name].duplication_cycles
                         for name in ("P", "A", "At")},
                 n=n, m=m)
    return compiled
