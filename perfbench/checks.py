"""Output checks, run after the clock stops.

Three independent referees, none of which reuses the service's own
acceptance test:

* **KKT** — every answer: finite iterates, the converged flag, and the
  unscaled residuals from :func:`repro.faults.detect.kkt_residuals`
  within ``KKT_FACTOR`` times the solver's own tolerances.
* **Reference objective** — a seeded sample is re-solved by the
  software OSQP solver at tight tolerances; the objectives must agree.
* **Bitwise** — a seeded sample is re-solved alone through
  :func:`repro.serving.pool.solve_job` on the same artifact and warm
  start; ``x``, ``y``, ``z``, iteration and cycle counts must be
  identical. That is the repo's contract across the solo, batched,
  session and sharded paths.
"""

from __future__ import annotations

import numpy as np

from repro.faults.detect import kkt_residuals
from repro.serving.pool import solve_job
from repro.solver import OSQPSettings
from repro.solver.osqp import OSQPSolver

#: Slack on the solver's tolerances. The accelerator stops on scaled
#: 2-norm residuals against ``eps_abs * sqrt(dim)``, while this check
#: uses unscaled inf-norms, so an honest answer can miss the inf-norm
#: tolerance by up to ``sqrt(dim)`` (the residual's length) times a
#: small scaling factor; a wrong one misses by orders of magnitude.
KKT_FACTOR = 3.0
#: Reference solve tolerances and the objective agreement demanded.
REFERENCE_SETTINGS = OSQPSettings(eps_abs=1e-6, eps_rel=1e-6,
                                  max_iter=50000, polish=True)
OBJECTIVE_RTOL = 1e-3
#: Sample sizes (answers) for the two re-solve checks.
REFERENCE_SAMPLE = 6
BITWISE_SAMPLE = 12


def kkt_ok(answer, settings) -> bool:
    result = answer.result
    if not result.converged:
        return False
    for v in (result.x, result.y, result.z):
        if v is None or not np.all(np.isfinite(v)):
            return False
    problem = answer.problem
    r = kkt_residuals(problem, result.x, result.y, result.z)
    pri_tol = KKT_FACTOR * np.sqrt(max(problem.m, 1)) * (
        settings.eps_abs + settings.eps_rel * r["pri_norm"])
    dua_tol = KKT_FACTOR * np.sqrt(max(problem.n, 1)) * (
        settings.eps_abs + settings.eps_rel * r["dua_norm"])
    return (r["pri_res"] <= pri_tol and r["dua_res"] <= dua_tol
            and r["bound_violation"] <= pri_tol)


def reference_ok(answer) -> bool:
    problem = answer.problem
    ref = OSQPSolver(problem, REFERENCE_SETTINGS).solve()
    if not ref.status.is_optimal:
        return False
    got = problem.objective(answer.result.x)
    want = problem.objective(ref.x)
    return abs(got - want) <= OBJECTIVE_RTOL * max(1.0, abs(want))


def bitwise_ok(answer, artifact, settings, service):
    """Re-solve alone; returns ``(identical, solo_raw)``."""
    solo = solve_job(answer.problem, artifact, settings,
                     warm_start=answer.warm, pcg_eps=service.pcg_eps,
                     backend=service.backend, verify=False)
    result = answer.result
    record = result.record
    same = (solo.x.tobytes() == np.asarray(result.x).tobytes()
            and solo.y.tobytes() == np.asarray(result.y).tobytes()
            and solo.z.tobytes() == np.asarray(result.z).tobytes()
            and solo.admm_iterations == record.admm_iterations
            and solo.total_cycles == record.simulated_cycles)
    return same, solo


def run_checks(answers, first: int, context, settings, rng) -> dict:
    """Check every answer; returns counts plus the solo re-solves.

    The two re-solve samples are drawn by the run's seeded ``rng`` from
    the first ``first`` answers (one cycle of the request stream, which
    every run completes), so one seed always checks the same inputs.
    """
    kkt_failed = {index for index, answer in enumerate(answers)
                  if not kkt_ok(answer, settings)}
    pool = np.arange(min(first, len(answers)))
    reference = rng.choice(pool, size=min(REFERENCE_SAMPLE, len(pool)),
                           replace=False)
    reference_failed = {int(i) for i in reference
                        if not reference_ok(answers[i])}
    bitwise = rng.choice(pool, size=min(BITWISE_SAMPLE, len(pool)),
                         replace=False)
    solo_results, bitwise_failed = [], set()
    for i in bitwise:
        answer = answers[i]
        same, solo = bitwise_ok(answer, context.artifact_for(answer),
                                settings, context.service)
        solo_results.append(solo)
        if not same:
            bitwise_failed.add(int(i))
    return {"failed": len(kkt_failed | reference_failed | bitwise_failed),
            "kkt_failed": len(kkt_failed),
            "reference_failed": len(reference_failed),
            "reference_checked": len(reference),
            "bitwise_failed": len(bitwise_failed),
            "bitwise_checked": len(bitwise),
            "solo_results": solo_results}
