"""Compiled execution backend: lower programs to fused numpy closures.

The interpreter in :mod:`repro.hw.machine` pays a per-instruction
Python ``isinstance`` dispatch, dict lookups for every operand, and a
:meth:`~repro.hw.machine.ExecutionStats.charge` call per instruction —
executed thousands of times per QP solve. This module mirrors the
paper's one-time-customization / cheap-per-solve split at the simulator
level: a :class:`CompiledExecutor` lowers each straight-line run of
instructions ("basic block", split at :class:`~repro.hw.isa.Control`
tests and nested :class:`~repro.hw.isa.Loop` nodes) into a list of
fused closures, once, on the block's first execution.

What lowering precomputes:

* **Operand binding** — every vector operand resolves its buffer once;
  closures capture the arrays directly. To make that sound, the
  compiled backend maintains *one stable numpy buffer per VB/CVB name*
  and performs all writes in place (``out=`` ufuncs / ``np.copyto``),
  so a host re-download of e.g. ``rho`` lands in the very array the
  ADMM-body closures already hold. Consequence: vector lengths are
  static per name (the ISA programs we compile always are).
* **Scalar ops** — operands that are literals are constant-folded;
  register operands become direct dict accesses with no
  ``isinstance`` test per execution.
* **Cycle accounting** — per-instruction costs in this ISA are
  state-independent (lengths are static), so a block's total cycles,
  per-class breakdown and instruction count are computed during the
  first (charging) execution and afterwards applied with a single
  :meth:`~repro.hw.machine.ExecutionStats.charge_block` call per block
  execution instead of N ``charge`` calls. Only Control exits are
  evaluated numerically each iteration.
* **C chunk fusion** — when a C toolchain is available (see
  :mod:`repro.hw.cjit`), straight-line runs of two or more vector
  instructions (VecDup, SpMV, AXPBY/EWMUL/SCALE_ADD/COPY/DOT) are
  compiled into one generated C function per run and become a single
  foreign call. The generated per-element expressions replicate the
  closure fold table below exactly, SpMV embeds the engine library's
  row-sum body, and DOT embeds its sequential ``k_dot`` body — so
  fused, unfused, and interpreted execution all produce the same bits.
  Scalar inputs stream through an ``S`` table filled from the register
  file before each call; DOT results return through an ``O`` table
  (read in-chunk by later fused consumers) and are written back to the
  register file after the call. Chunk sources depend only on the
  instruction pattern, so the hash-addressed disk cache compiles each
  program shape once, ever.
* **Whole-loop fusion** — one tier above chunks: an entire
  :class:`~repro.hw.isa.Loop` body (vector ops, SpMV, scalar
  arithmetic, Control exit tests, nested loops, cycle accounting)
  compiles into a single C function entered once per loop execution,
  so the hot ADMM/PDHG iteration pays zero Python dispatch. Built only
  after the body's segments have bound (one node-path run), bypassed
  whenever a fault injector is armed, and falls back to the node path
  on any unsupported body — same bits either way.

The interpreter remains the differential-testing oracle: on error-free
runs the compiled backend produces bit-identical machine state and
identical :class:`~repro.hw.machine.ExecutionStats`. On *failing* runs
the exception type matches, but partial stats may differ (block costs
are applied after the block's closures run).
"""

from __future__ import annotations

import os

import numpy as np

from ..exceptions import ShapeError, SimulationError, VerificationError
from . import cjit
from .effect_ir import BufferRef, EffectIR, EffectStatement
from .isa import (BINARY_SCALAR_OPS, Control, DataTransfer, Loop, Program,
                  ScalarOp, ScalarOpKind, SpMV, VecDup, VectorOp,
                  VectorOpKind)
from .machine import Machine, _LoopExit

__all__ = ["CompiledExecutor", "BACKENDS", "validate_backend",
           "literal_operand"]

#: The two execution backends every runner exposes.
BACKENDS = ("interpret", "compiled")


def validate_backend(backend: str) -> str:
    """Check a backend name, returning it for chaining."""
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def literal_operand(ref) -> float | None:
    """The float value of a literal operand, or None for a register.

    Shared with the batched lowering (:mod:`repro.hw.batched`), which
    must fold exactly the same ``+-1.0`` coefficient cases to stay
    bit-identical with this backend's closures.
    """
    if ref is None or isinstance(ref, str):
        return None
    return float(ref)


_literal = literal_operand


# ---------------------------------------------------------------------------
# scalar arithmetic kernels (float-in/float-out, shared fold + closure path)

def _s_add(a, b):
    return float(a + b)


def _s_sub(a, b):
    return float(a - b)


def _s_mul(a, b):
    return float(a * b)


def _s_div(a, b):
    if b == 0.0:
        raise SimulationError("scalar division by zero")
    return float(a / b)


def _s_max(a, b):
    return float(max(a, b))


def _s_sqrt(a, b):
    if a < 0.0:
        raise SimulationError("sqrt of a negative scalar")
    return float(np.sqrt(a))


def _s_mov(a, b):
    return float(a)


_SCALAR_KERNELS = {
    ScalarOpKind.ADD: _s_add,
    ScalarOpKind.SUB: _s_sub,
    ScalarOpKind.MUL: _s_mul,
    ScalarOpKind.DIV: _s_div,
    ScalarOpKind.MAX: _s_max,
    ScalarOpKind.SQRT: _s_sqrt,
    ScalarOpKind.MOV: _s_mov,
}


# ---------------------------------------------------------------------------
# lowered program nodes

class _Segment:
    """A straight-line basic block, lazily lowered on first execution.

    The first execution charges and runs instruction by instruction
    (identical observable behaviour to the interpreter, including where
    an error leaves the stats); every later execution runs the fused
    closures and *defers* the block's pre-aggregated cycle cost: a
    pending execution counter accrues and the executor applies the
    total with one ``charge_block`` per :meth:`CompiledExecutor.run`
    (stats are only observed between runs, never mid-program).

    A ``hooked`` segment belongs to the executor's hook-bearing tree:
    its closures fire the fault hooks of whichever injector is armed
    when they run, and it never fuses chunks (a fused C call has no
    per-op hook points). The plain tree carries no hooks at all.
    """

    __slots__ = ("_executor", "_instructions", "_stats", "_fns",
                 "_hooked", "_cycles", "_by_class", "_count", "pending")

    def __init__(self, executor: "CompiledExecutor", instructions: list,
                 hooked: bool):
        self._executor = executor
        self._instructions = instructions
        self._stats = executor.machine.stats
        self._fns = None
        self._hooked = hooked
        self.pending = 0

    def run(self) -> None:
        fns = self._fns
        if fns is None:
            self._bind()
            return
        for fn in fns:
            fn()
        if self.pending == 0:
            self._executor._dirty.append(self)
        self.pending += 1

    def flush(self) -> None:
        count = self.pending
        if count:
            self.pending = 0
            if count == 1:
                self._stats.charge_block(self._cycles, self._by_class,
                                         self._count)
            else:
                self._stats.charge_block(
                    count * self._cycles,
                    {k: count * v for k, v in self._by_class.items()},
                    count * self._count)

    def _bind(self) -> None:
        executor = self._executor
        machine = executor.machine
        stats = self._stats
        fns: list = []
        total = 0
        by_class: dict = {}
        for instr in self._instructions:
            kind = type(instr).__name__
            cycles = instr.cycles(machine)
            stats.charge(kind, cycles)
            fn = executor._lower_instruction(instr, self._hooked)
            fn()
            fns.append(fn)
            total += cycles
            by_class[kind] = by_class.get(kind, 0) + cycles
        self._count = len(fns)
        if executor.jit and not self._hooked:
            fns = _fuse_chunks(executor, self._instructions, fns)
        self._fns = fns
        self._cycles = total
        self._by_class = by_class


class _ControlNode:
    """A Control exit test: evaluated every execution, charge deferred."""

    __slots__ = ("_executor", "_stats", "_value", "_threshold", "pending")

    def __init__(self, executor: "CompiledExecutor", instr: Control):
        self._executor = executor
        self._stats = executor.machine.stats
        self._value = executor._scalar_getter(instr.reg)
        self._threshold = executor._scalar_getter(instr.threshold_reg)
        self.pending = 0

    def run(self) -> None:
        if self.pending == 0:
            self._executor._dirty.append(self)
        self.pending += 1
        if self._value() < self._threshold():
            raise _LoopExit()

    def flush(self) -> None:
        count = self.pending
        if count:
            self.pending = 0
            self._stats.charge_block(count, {"Control": count}, count)


class _LoopNode:
    """A Loop wrapper; the body's lowered nodes are shared via the
    executor cache, while ``max_iter``/``name`` are read from this
    node's own Loop object (the accelerator re-wraps the same body
    list in fresh Loop objects per adaptive-rho segment).

    Once the body's segments are all bound (i.e. after the first full
    execution), a plain-tree loop attempts *whole-loop fusion*: one
    generated C function covering the entire loop — vector ops, SpMV,
    scalar arithmetic, Control tests, nested loops and cycle
    accounting — entered once per :meth:`run`. A hooked-tree loop
    never fuses (its hooks fire on the node path), and fusion falls
    back permanently on any unsupported body."""

    __slots__ = ("_executor", "_loop", "_nodes", "_stats", "_fusable",
                 "_fused")

    def __init__(self, executor: "CompiledExecutor", loop: Loop,
                 hooked: bool):
        self._executor = executor
        self._loop = loop
        self._nodes = executor._lower_block(loop.body, hooked)
        self._stats = executor.machine.stats
        self._fusable = executor.jit and not hooked
        self._fused = None

    def run(self) -> None:
        if self._fusable:
            fused = self._fused
            if fused is None:
                fused = self._executor._fuse_loop(self._loop.body,
                                                  self._nodes)
                if fused is not None:
                    self._fused = fused
            if fused and fused.run(self._loop):
                return
        loop = self._loop
        nodes = self._nodes
        iterations = 0
        for _ in range(loop.max_iter):
            try:
                for node in nodes:
                    node.run()
                iterations += 1
            except _LoopExit:
                iterations += 1
                break
        counts = self._stats.loop_iterations
        counts[loop.name] = counts.get(loop.name, 0) + iterations


def _nodes_bound(nodes: list) -> bool:
    """True when every segment in ``nodes`` (recursively) has bound."""
    for node in nodes:
        if isinstance(node, _Segment):
            if node._fns is None:
                return False
        elif isinstance(node, _LoopNode):
            if not _nodes_bound(node._nodes):
                return False
    return True


# ---------------------------------------------------------------------------

class CompiledExecutor:
    """Run :class:`~repro.hw.isa.Program` objects against a
    :class:`~repro.hw.machine.Machine` through lowered basic blocks.

    The executor shares the machine's state dicts and stats object, so
    host-side interactions (``write_hbm``, scalar reads, warm starts)
    work unchanged. Lowered blocks are cached by the identity of the
    instruction *list* — the compiler's section lists are long-lived,
    which is exactly what makes per-solve reuse pay; a strong reference
    to the keyed list is kept so ``id()`` reuse after garbage
    collection can never alias two different programs.

    Each program lowers into one of two trees, chosen per :meth:`run`
    by whether the machine has a fault injector armed: the plain tree
    (no hooks; chunk and whole-loop fusion) or the hook-bearing tree
    (every hook site calls the injector armed for the current run).
    One executor can therefore serve clean and injected runs in any
    order, and the fault-free path carries no hook checks.
    """

    def __init__(self, machine: Machine, jit: bool | None = None,
                 verify: bool | None = None):
        self.machine = machine
        self._blocks: dict = {}
        self._hooked_blocks: dict = {}
        self._loop_fused: dict = {}
        self._dirty: list = []
        if jit is None:
            self.jit = cjit.available()
        else:
            self.jit = bool(jit) and cjit.available()
        # Static codegen verification of every fused unit before its
        # first execution (memoized per effect-IR digest; see
        # repro.verify.codegen). REPRO_VERIFY_CODEGEN=0 is a global
        # kill switch that overrides any caller.
        if verify is None:
            verify = True
        self.verify = (bool(verify) and
                       os.environ.get("REPRO_VERIFY_CODEGEN", "1") != "0")

    # -- execution -------------------------------------------------------
    def run(self, program: Program):
        """Execute ``program``; returns the machine's stats object."""
        hooked = self.machine.injector is not None
        try:
            for node in self._lower_block(program.instructions, hooked):
                node.run()
        finally:
            self._flush()
        return self.machine.stats

    def _flush(self) -> None:
        """Apply deferred block charges; stats are exact between runs."""
        dirty = self._dirty
        if dirty:
            for node in dirty:
                node.flush()
            dirty.clear()

    def _lower_block(self, items: list, hooked: bool) -> list:
        blocks = self._hooked_blocks if hooked else self._blocks
        key = id(items)
        cached = blocks.get(key)
        if cached is not None and cached[0] is items:
            return cached[1]
        nodes: list = []
        current: list = []
        for item in items:
            if isinstance(item, Loop):
                if current:
                    nodes.append(_Segment(self, current, hooked))
                    current = []
                nodes.append(_LoopNode(self, item, hooked))
            elif isinstance(item, Control):
                if current:
                    nodes.append(_Segment(self, current, hooked))
                    current = []
                nodes.append(_ControlNode(self, item))
            else:
                current.append(item)
        if current:
            nodes.append(_Segment(self, current, hooked))
        blocks[key] = (items, nodes)
        return nodes

    def _fuse_loop(self, body: list, nodes: list):
        """Whole-loop fusion for ``body`` (cached by list identity).

        Returns a :class:`_FusedLoop`, ``False`` when the body is
        permanently unfusable (unsupported instruction, nested
        zero-trip loop, compile failure — the node path stays), or
        ``None`` when the body's segments have not all bound yet (the
        caller retries on a later run; only genuine build verdicts are
        cached).
        """
        key = id(body)
        cached = self._loop_fused.get(key)
        if cached is not None and cached[0] is body:
            return cached[1]
        if not _nodes_bound(nodes):
            return None
        try:
            builder = _LoopBuilder(self)
            builder.emit_body_ir(body)
            if self.verify:
                from ..verify.codegen import ensure_codegen_verified
                ensure_codegen_verified(builder.effect_ir(), body,
                                        self.machine)
            fused = builder._finish_loop()
        except VerificationError:
            raise
        except Exception:
            fused = None
        if fused is None:
            fused = False
        self._loop_fused[key] = (body, fused)
        return fused

    # -- operand binding -------------------------------------------------
    def _resident(self, name: str) -> np.ndarray:
        machine = self.machine
        if name in machine.vb:
            return machine.vb[name]
        if name in machine.cvb:
            return machine.cvb[name]
        raise SimulationError(f"vector {name!r} not resident on chip")

    def _dst_buffer(self, space: dict, name: str, length: int) -> np.ndarray:
        """The stable in-place destination buffer for ``name``."""
        buf = space.get(name)
        if (isinstance(buf, np.ndarray) and buf.dtype == np.float64
                and buf.shape == (length,)):
            return buf
        buf = np.zeros(length)
        space[name] = buf
        return buf

    def _scalar_getter(self, ref):
        """A zero-dispatch reader for a scalar register or literal."""
        if isinstance(ref, str):
            scalars = self.machine.scalars

            def get():
                try:
                    return scalars[ref]
                except KeyError:
                    raise SimulationError(
                        f"unknown scalar register {ref!r}") from None
            return get
        value = float(ref)
        return lambda: value

    # -- per-instruction lowering ---------------------------------------
    def _lower_instruction(self, instr, hooked: bool = False):
        if isinstance(instr, ScalarOp):
            return self._lower_scalar(instr)
        if isinstance(instr, VectorOp):
            return self._lower_vector(instr)
        if isinstance(instr, DataTransfer):
            return self._lower_transfer(instr, hooked)
        if isinstance(instr, VecDup):
            return self._lower_vecdup(instr, hooked)
        if isinstance(instr, SpMV):
            return self._lower_spmv(instr, hooked)
        raise SimulationError(f"unknown instruction {instr!r}")

    def _hooked(self, fn, hooked: bool, hook_name: str, site: str,
                buf: np.ndarray):
        """Wrap a hook-tree closure with the fault-injection hook.

        The injector is read when the closure runs, not when it is
        lowered, so a resident accelerator re-armed for a later
        attempt fires that attempt's injector. Hook-tree closures only
        run while an injector is armed; plain-tree ones are unwrapped.
        """
        if not hooked:
            return fn
        machine = self.machine

        def run_hooked():
            fn()
            getattr(machine.injector, hook_name)(site, buf)
        return run_hooked

    def _lower_scalar(self, instr: ScalarOp):
        if instr.op in BINARY_SCALAR_OPS and instr.src2 is None:
            raise SimulationError(
                f"binary scalar op {instr.op.value!r} has no src2 "
                f"operand (dst={instr.dst!r})")
        scalars = self.machine.scalars
        dst = instr.dst
        kernel = _SCALAR_KERNELS[instr.op]
        a, b = instr.src1, instr.src2
        a_reg = isinstance(a, str)
        b_reg = isinstance(b, str)
        if not a_reg:
            a = float(a)
        if b is not None and not b_reg:
            b = float(b)

        if not a_reg and not b_reg:
            try:
                value = kernel(a, b)
            except SimulationError:
                value = None  # fold would trap: keep the trapping closure
            if value is not None:
                def fn():
                    scalars[dst] = value
                return fn

            def fn():
                scalars[dst] = kernel(a, b)
            return fn

        if a_reg and b_reg:
            def fn():
                try:
                    scalars[dst] = kernel(scalars[a], scalars[b])
                except KeyError as exc:
                    raise SimulationError(
                        f"unknown scalar register {exc.args[0]!r}") from None
        elif a_reg:
            def fn():
                try:
                    scalars[dst] = kernel(scalars[a], b)
                except KeyError:
                    raise SimulationError(
                        f"unknown scalar register {a!r}") from None
        else:
            def fn():
                try:
                    scalars[dst] = kernel(a, scalars[b])
                except KeyError:
                    raise SimulationError(
                        f"unknown scalar register {b!r}") from None
        return fn

    def _lower_vector(self, instr: VectorOp):
        machine = self.machine
        kind = instr.op
        srcs = instr.srcs
        if kind is VectorOpKind.DOT:
            a = self._resident(srcs[0])
            b = self._resident(srcs[1])
            scalars = machine.scalars
            dst = instr.dst
            engine = cjit.engine()
            if engine is not None and a.shape == b.shape:
                # Same sequential kernel the interpreter's dot() calls,
                # with both pointers prebound to the stable buffers.
                ffi = engine.ffi
                k_dot = engine.lib.k_dot
                pa = ffi.cast("double *", a.ctypes.data)
                pb = ffi.cast("double *", b.ctypes.data)
                n = a.size

                def fn(_hold=(a, b)):
                    scalars[dst] = k_dot(pa, pb, n)
                return fn

            def fn():
                scalars[dst] = float(np.dot(a, b))
            return fn
        if kind is VectorOpKind.AXPBY:
            a = self._resident(srcs[0])
            b = self._resident(srcs[1])
            dst = self._dst_buffer(machine.vb, instr.dst, a.size)
            # alpha/beta of exactly +-1.0 fold away their multiply:
            # x*1.0 == x, (-1.0)*x == -x and u + (-v) == u - v are all
            # exact IEEE identities, so these emit the same bits as the
            # interpreter's alpha*a + beta*b with fewer ufunc calls.
            al, be = _literal(instr.alpha), _literal(instr.beta)
            if al == 1.0 and be == 1.0:
                def fn():
                    np.add(a, b, out=dst)
                return fn
            if al == 1.0 and be == -1.0:
                def fn():
                    np.subtract(a, b, out=dst)
                return fn
            if al == 1.0:
                beta = self._scalar_getter(instr.beta)
                t2 = np.empty_like(b)

                def fn():
                    np.multiply(b, beta(), out=t2)
                    np.add(a, t2, out=dst)
                return fn
            if be == 1.0:
                alpha = self._scalar_getter(instr.alpha)
                t1 = np.empty_like(a)

                def fn():
                    np.multiply(a, alpha(), out=t1)
                    np.add(t1, b, out=dst)
                return fn
            if be == -1.0:
                alpha = self._scalar_getter(instr.alpha)
                t1 = np.empty_like(a)

                def fn():
                    np.multiply(a, alpha(), out=t1)
                    np.subtract(t1, b, out=dst)
                return fn
            if al == -1.0:
                beta = self._scalar_getter(instr.beta)
                t2 = np.empty_like(b)

                def fn():
                    np.multiply(b, beta(), out=t2)
                    np.subtract(t2, a, out=dst)
                return fn
            alpha = self._scalar_getter(instr.alpha)
            beta = self._scalar_getter(instr.beta)
            t1 = np.empty_like(a)
            t2 = np.empty_like(b)

            def fn():
                np.multiply(a, alpha(), out=t1)
                np.multiply(b, beta(), out=t2)
                np.add(t1, t2, out=dst)
            return fn
        if kind is VectorOpKind.SCALE_ADD:
            a = self._resident(srcs[0])
            b = self._resident(srcs[1])
            dst = self._dst_buffer(machine.vb, instr.dst, a.size)
            al = _literal(instr.alpha)
            if al == 1.0:
                def fn():
                    np.add(a, b, out=dst)
                return fn
            if al == -1.0:
                def fn():
                    np.subtract(a, b, out=dst)
                return fn
            alpha = self._scalar_getter(instr.alpha)
            t = np.empty_like(b)

            def fn():
                np.multiply(b, alpha(), out=t)
                np.add(a, t, out=dst)
            return fn
        if kind is VectorOpKind.EWMUL:
            a = self._resident(srcs[0])
            b = self._resident(srcs[1])
            dst = self._dst_buffer(machine.vb, instr.dst, a.size)

            def fn():
                np.multiply(a, b, out=dst)
            return fn
        if kind is VectorOpKind.CLIP:
            a = self._resident(srcs[0])
            lo = self._resident(srcs[1])
            hi = self._resident(srcs[2])
            dst = self._dst_buffer(machine.vb, instr.dst, a.size)

            def fn():
                np.clip(a, lo, hi, out=dst)
            return fn
        if kind is VectorOpKind.COPY:
            a = self._resident(srcs[0])
            dst = self._dst_buffer(machine.vb, instr.dst, a.size)

            def fn():
                np.copyto(dst, a)
            return fn
        raise SimulationError(f"unknown vector op {kind}")

    def _lower_transfer(self, instr: DataTransfer, hooked: bool):
        machine = self.machine
        name = instr.name
        if instr.direction == "load":
            hbm = machine.hbm
            if name not in hbm:
                raise SimulationError(f"HBM vector {name!r} missing")
            dst = self._dst_buffer(machine.vb, name, int(hbm[name].size))

            def fn():
                src = hbm.get(name)
                if src is None:
                    raise SimulationError(f"HBM vector {name!r} missing")
                if src.shape != dst.shape:
                    raise SimulationError(
                        "compiled backend requires static vector lengths: "
                        f"HBM vector {name!r} changed from {dst.size} "
                        f"to {src.size} elements")
                np.copyto(dst, src)
            return self._hooked(fn, hooked, "on_load", name, dst)
        if instr.direction == "store":
            vec = self._resident(name)
            hbm = machine.hbm

            def fn():
                hbm[name] = vec.copy()
            return fn
        raise SimulationError(f"bad transfer direction {instr.direction!r}")

    def _lower_vecdup(self, instr: VecDup, hooked: bool):
        machine = self.machine
        src = self._resident(instr.src)
        dst = self._dst_buffer(machine.cvb, instr.cvb, src.size)

        def fn():
            np.copyto(dst, src)
        return self._hooked(fn, hooked, "on_cvb", instr.cvb, dst)

    def _lower_spmv(self, instr: SpMV, hooked: bool):
        machine = self.machine
        resource = machine.matrices[instr.matrix]
        src = machine.cvb.get(instr.src)
        if src is None:
            raise SimulationError(f"SpMV source {instr.src!r} not in CVB")
        matrix = resource.matrix
        rows = int(matrix.shape[0])
        if src.shape != (matrix.shape[1],):
            raise ShapeError(
                f"matvec: expected vector of length {matrix.shape[1]}, "
                f"got shape {src.shape}")
        dst = self._dst_buffer(machine.vb, instr.dst, rows)
        ckernel = resource.ckernel
        if ckernel is not None:
            # Same C row-sum kernel the interpreter's resource.apply()
            # calls, with every pointer prebound to the stable buffers.
            ffi = resource._cffi
            pv, pc, pi = resource._cptrs
            px = ffi.cast("double *", src.ctypes.data)
            py = ffi.cast("double *", dst.ctypes.data)

            def fn(_hold=(src, dst)):
                ckernel(pv, pc, pi, px, py, rows)
            return self._hooked(fn, hooked, "on_spmv", instr.dst, dst)
        dense = resource.dense
        if dense is not None:
            # Same BLAS gemv the interpreter's resource.apply() calls,
            # writing into the preallocated destination buffer.
            def fn():
                np.dot(dense, src, out=dst)
            return self._hooked(fn, hooked, "on_spmv", instr.dst, dst)
        # Inline CSRMatrix.matvec with preallocated scratch: the same
        # gather -> multiply -> cumsum -> endpoint-difference sequence
        # (bit-identical to the interpreter's matvec call), minus the
        # per-call allocations and wrapper checks.
        data = matrix.data
        indices = matrix.indices
        ip0 = matrix.indptr[:-1]
        ip1 = matrix.indptr[1:]
        nnz = int(data.size)
        if nnz == 0:
            def fn():
                dst[:] = 0.0
            return self._hooked(fn, hooked, "on_spmv", instr.dst, dst)
        products = np.empty(nnz)
        running = np.zeros(nnz + 1)
        run_view = running[1:]

        def fn():
            np.multiply(data, src[indices], out=products)
            np.copyto(run_view, products.cumsum())
            np.subtract(running[ip1], running[ip0], out=dst)
        return self._hooked(fn, hooked, "on_spmv", instr.dst, dst)


# ---------------------------------------------------------------------------
# C chunk fusion (cjit): collapse straight-line runs of vector-engine
# instructions into one generated C function call.

_CHUNK_CDEF = """
void chunk_run(double **B, long **IA, const long *L, const double *S,
               double *O);
"""

_CHUNKABLE_VECTOR_OPS = frozenset({VectorOpKind.AXPBY, VectorOpKind.EWMUL,
                                   VectorOpKind.SCALE_ADD,
                                   VectorOpKind.COPY, VectorOpKind.DOT})


def _chunkable(executor: CompiledExecutor, instr) -> bool:
    if isinstance(instr, VecDup):
        return True
    if isinstance(instr, VectorOp):
        return instr.op in _CHUNKABLE_VECTOR_OPS
    if isinstance(instr, SpMV):
        resource = executor.machine.matrices.get(instr.matrix)
        return resource is not None and resource.ckernel is not None
    return False


def _fuse_chunks(executor: CompiledExecutor, instrs: list,
                 fns: list) -> list:
    """Replace runs of >= 2 chunkable closures with one C call each.

    Any failure (unsupported pattern, compile error) keeps the numpy
    closures for that run — the fallback is always correct, the fusion
    is only faster.
    """
    out: list = []
    i, n = 0, len(instrs)
    while i < n:
        j = i
        while j < n and _chunkable(executor, instrs[j]):
            j += 1
        if j - i >= 2:
            fn = _build_chunk(executor, instrs[i:j])
            if fn is not None:
                out.append(fn)
            else:
                out.extend(fns[i:j])
        else:
            out.extend(fns[i:j if j > i else i + 1])
        i = max(j, i + 1)
    return out


def _build_chunk(executor: CompiledExecutor, instrs: list):
    try:
        builder = _ChunkBuilder(executor)
        for instr in instrs:
            builder.emit(instr)
        if executor.verify:
            from ..verify.codegen import ensure_codegen_verified
            ensure_codegen_verified(builder.effect_ir(), instrs,
                                    executor.machine)
        return builder.finish()
    except VerificationError:
        # A rejected unit is a genuine codegen defect, never a "fall
        # back to closures" situation: fail loudly.
        raise
    except Exception:
        return None


class _ChunkBuilder:
    """Generate one C function for a run of vector instructions.

    The generated source depends only on the instruction *pattern*
    (opcodes, operand folds, and which operands share buffers) — never
    on vector lengths, scalar values, or pointer addresses, which are
    all passed through the bound ``B``/``IA``/``L``/``S``/``O``
    tables. Equal
    patterns therefore hash to the same cached module, so a process
    compiles each program shape at most once ever per cache directory.

    Bit-exactness: every emitted per-element expression is exactly the
    expression the numpy closure path evaluates (see the AXPBY fold
    table in ``_lower_vector``), and the embedded SpMV loop is the
    engine library's ``k_csr_matvec`` body, so fused chunks produce the
    same bits as both the unfused closures and the interpreter.
    """

    def __init__(self, executor: CompiledExecutor):
        self.executor = executor
        self.machine = executor.machine
        self.bufs: list = []
        self._buf_ids: dict = {}
        self.iarrs: list = []
        self._iarr_ids: dict = {}
        self.lens: list = []
        self.getters: list = []
        self.outs: list = []          # scalar register names, per O slot
        self._scalar_slots: dict = {}  # register -> freshest O slot
        self.blocks: list = []
        # effect-IR recording (consumed by repro.verify.codegen)
        self.effects: list = []
        self._pending_reads: list = []  # ("reg"|"lit", ref, token)
        self._pending_lens: list = []   # (L slot, value)
        self._instr_index = -1
        self._charge_slot: int | None = None

    # -- effect recording ------------------------------------------------
    def _src_ref(self, name: str, arr: np.ndarray) -> BufferRef:
        space = "vb" if name in self.machine.vb else "cvb"
        return BufferRef(space, name, int(arr.shape[0]))

    def _record(self, op: str, index: str, bound: int, *, dst=None,
                srcs=(), expr: str = "", text: str = "", site=None,
                matrix=None, spmv_shape=None, index_arrays=None,
                nnz: int = 0, sreg_writes=(), lane_bound: int = 0) -> None:
        reads = self._pending_reads
        self._pending_reads = []
        len_slots = tuple(self._pending_lens)
        self._pending_lens = []
        self.effects.append(EffectStatement(
            op=op, index=index, bound=int(bound), dst=dst,
            srcs=tuple(srcs), expr=expr, text=text,
            lane_bound=int(lane_bound),
            sreg_reads=tuple((ref, tok) for kind, ref, tok in reads
                             if kind == "reg"),
            lit_reads=tuple((ref, tok) for kind, ref, tok in reads
                            if kind == "lit"),
            sreg_writes=tuple(sreg_writes), len_slots=len_slots,
            instr_index=self._instr_index, site=site, matrix=matrix,
            spmv_shape=spmv_shape, index_arrays=index_arrays, nnz=nnz,
            charge_slot=self._charge_slot))

    def effect_ir(self) -> EffectIR:
        return EffectIR(tier="chunk", batch=1,
                        statements=list(self.effects),
                        lens=tuple(self.lens),
                        source="".join(self.blocks))

    # -- operand tables --------------------------------------------------
    def buf(self, arr: np.ndarray) -> str:
        if arr.dtype != np.float64 or not arr.flags["C_CONTIGUOUS"]:
            raise SimulationError("chunk operand must be contiguous f64")
        key = id(arr)
        idx = self._buf_ids.get(key)
        if idx is None:
            idx = len(self.bufs)
            self.bufs.append(arr)
            self._buf_ids[key] = idx
        return f"B[{idx}]"

    def iarr(self, arr: np.ndarray) -> str:
        if arr.dtype != np.int64 or not arr.flags["C_CONTIGUOUS"]:
            raise SimulationError("chunk index array must be contiguous i64")
        key = id(arr)
        idx = self._iarr_ids.get(key)
        if idx is None:
            idx = len(self.iarrs)
            self.iarrs.append(arr)
            self._iarr_ids[key] = idx
        return f"IA[{idx}]"

    def length(self, n: int) -> str:
        # one slot per use: keeps the source canonical per pattern even
        # when two operand lengths happen to coincide at runtime
        self.lens.append(int(n))
        slot = len(self.lens) - 1
        self._pending_lens.append((slot, int(n)))
        return f"L[{slot}]"

    def scalar(self, ref) -> str:
        # A register a DOT earlier in this chunk wrote must be read from
        # its O slot — the S table is filled before the call and would
        # be stale.
        if isinstance(ref, str) and ref in self._scalar_slots:
            token = f"O[{self._scalar_slots[ref]}]"
            self._pending_reads.append(("reg", ref, token))
            return token
        self.getters.append(self.executor._scalar_getter(ref))
        token = f"S[{len(self.getters) - 1}]"
        if isinstance(ref, str):
            self._pending_reads.append(("reg", ref, token))
        else:
            self._pending_reads.append(("lit", float(ref), token))
        return token

    # -- emission --------------------------------------------------------
    def _elementwise(self, n: int, decls: list, expr: str) -> None:
        body = "".join(f"        {line}\n" for line in decls)
        self.blocks.append(
            "    {\n"
            f"        const long n = {self.length(n)};\n"
            + body +
            "        for (long i = 0; i < n; ++i)\n"
            f"            {expr};\n"
            "    }\n")

    def emit(self, instr) -> None:
        self._instr_index += 1
        if isinstance(instr, VecDup):
            src = self.executor._resident(instr.src)
            dst = self.executor._dst_buffer(self.machine.cvb, instr.cvb,
                                            src.size)
            self._elementwise(src.size, [
                f"const double *a = {self.buf(src)};",
                f"double *d = {self.buf(dst)};",
            ], "d[i] = a[i]")
            self._record("vecdup", "elementwise", src.size,
                         dst=BufferRef("cvb", instr.cvb, dst.shape[0]),
                         srcs=(self._src_ref(instr.src, src),),
                         expr="d[i] = a[i]",
                         site=getattr(instr, "site", None))
            return
        if isinstance(instr, SpMV):
            self._emit_spmv(instr)
            return
        if isinstance(instr, VectorOp):
            self._emit_vector(instr)
            return
        raise SimulationError(f"instruction not chunkable: {instr!r}")

    def _emit_vector(self, instr: VectorOp) -> None:
        executor = self.executor
        kind = instr.op
        site = getattr(instr, "site", None)
        a = executor._resident(instr.srcs[0])
        a_ref = self._src_ref(instr.srcs[0], a)
        if kind is VectorOpKind.COPY:
            dst = executor._dst_buffer(self.machine.vb, instr.dst, a.size)
            self._elementwise(a.size, [
                f"const double *a = {self.buf(a)};",
                f"double *d = {self.buf(dst)};",
            ], "d[i] = a[i]")
            self._record("copy", "elementwise", a.size,
                         dst=BufferRef("vb", instr.dst, dst.shape[0]),
                         srcs=(a_ref,), expr="d[i] = a[i]", site=site)
            return
        b = executor._resident(instr.srcs[1])
        b_ref = self._src_ref(instr.srcs[1], b)
        if kind is VectorOpKind.DOT:
            if a.shape != b.shape:
                raise SimulationError("dot operand shapes differ")
            slot = len(self.outs)
            self.outs.append(instr.dst)
            body = "".join("    " + line + "\n" if line.strip() else line
                           for line in cjit.DOT_BODY.splitlines())
            block = (
                "    {\n"
                f"        const double *a = {self.buf(a)};\n"
                f"        const double *b = {self.buf(b)};\n"
                f"        const long n = {self.length(a.size)};\n"
                + body +
                f"        O[{slot}] = acc;\n"
                "    }\n")
            self.blocks.append(block)
            self._record("dot", "reduce", a.size, srcs=(a_ref, b_ref),
                         text=block,
                         sreg_writes=((instr.dst, f"O[{slot}]"),),
                         site=site)
            self._scalar_slots[instr.dst] = slot
            return
        dst = executor._dst_buffer(self.machine.vb, instr.dst, a.size)
        dst_ref = BufferRef("vb", instr.dst, dst.shape[0])
        decls = [f"const double *a = {self.buf(a)};",
                 f"const double *b = {self.buf(b)};",
                 f"double *d = {self.buf(dst)};"]
        if kind is VectorOpKind.EWMUL:
            self._elementwise(a.size, decls, "d[i] = a[i] * b[i]")
            self._record("ewmul", "elementwise", a.size, dst=dst_ref,
                         srcs=(a_ref, b_ref), expr="d[i] = a[i] * b[i]",
                         site=site)
            return
        if kind is VectorOpKind.SCALE_ADD:
            al = _literal(instr.alpha)
            if al == 1.0:
                expr = "d[i] = a[i] + b[i]"
            elif al == -1.0:
                expr = "d[i] = a[i] - b[i]"
            else:
                decls.append(f"const double s0 = {self.scalar(instr.alpha)};")
                expr = "d[i] = a[i] + b[i] * s0"
            self._elementwise(a.size, decls, expr)
            self._record("scale_add", "elementwise", a.size, dst=dst_ref,
                         srcs=(a_ref, b_ref), expr=expr, site=site)
            return
        if kind is VectorOpKind.AXPBY:
            al, be = _literal(instr.alpha), _literal(instr.beta)
            if al == 1.0 and be == 1.0:
                expr = "d[i] = a[i] + b[i]"
            elif al == 1.0 and be == -1.0:
                expr = "d[i] = a[i] - b[i]"
            elif al == 1.0:
                decls.append(f"const double s0 = {self.scalar(instr.beta)};")
                expr = "d[i] = a[i] + b[i] * s0"
            elif be == 1.0:
                decls.append(f"const double s0 = {self.scalar(instr.alpha)};")
                expr = "d[i] = a[i] * s0 + b[i]"
            elif be == -1.0:
                decls.append(f"const double s0 = {self.scalar(instr.alpha)};")
                expr = "d[i] = a[i] * s0 - b[i]"
            elif al == -1.0:
                decls.append(f"const double s0 = {self.scalar(instr.beta)};")
                expr = "d[i] = b[i] * s0 - a[i]"
            else:
                decls.append(f"const double s0 = {self.scalar(instr.alpha)};")
                decls.append(f"const double s1 = {self.scalar(instr.beta)};")
                expr = "d[i] = a[i] * s0 + b[i] * s1"
            self._elementwise(a.size, decls, expr)
            self._record("axpby", "elementwise", a.size, dst=dst_ref,
                         srcs=(a_ref, b_ref), expr=expr, site=site)
            return
        raise SimulationError(f"vector op not chunkable: {kind}")

    def _emit_spmv(self, instr: SpMV) -> None:
        machine = self.machine
        resource = machine.matrices[instr.matrix]
        if resource.ckernel is None:
            raise SimulationError("SpMV resource has no C kernel")
        src = machine.cvb.get(instr.src)
        if src is None:
            raise SimulationError(f"SpMV source {instr.src!r} not in CVB")
        rows = int(resource.matrix.shape[0])
        dst = self.executor._dst_buffer(machine.vb, instr.dst, rows)
        val, col, ip = resource._carrays
        body = "".join("    " + line + "\n" if line.strip() else line
                       for line in cjit.CSR_MATVEC_BODY.splitlines())
        block = (
            "    {\n"
            f"        const double *val = {self.buf(val)};\n"
            f"        const long *col = {self.iarr(col)};\n"
            f"        const long *ip = {self.iarr(ip)};\n"
            f"        const double *x = {self.buf(src)};\n"
            f"        double *y = {self.buf(dst)};\n"
            f"        const long nrows = {self.length(rows)};\n"
            + body +
            "    }\n")
        self.blocks.append(block)
        shape = (rows, int(resource.matrix.shape[1]))
        self._record(
            "spmv", "gather", rows,
            dst=BufferRef("vb", instr.dst, dst.shape[0]),
            srcs=(BufferRef("matrix", instr.matrix, int(val.shape[0])),
                  BufferRef("cvb", instr.src, int(src.shape[0]))),
            text=block, site=getattr(instr, "site", None),
            matrix=instr.matrix, spmv_shape=shape,
            index_arrays=(col, ip), nnz=int(val.shape[0]))

    # -- finish ----------------------------------------------------------
    def finish(self):
        source = ("void chunk_run(double **B, long **IA, const long *L,\n"
                  "               const double *S, double *O)\n{\n"
                  + "".join(self.blocks) + "}\n")
        module = cjit.compile_module(_CHUNK_CDEF, source, tag="chunk")
        if module is None:
            return None
        ffi = module.ffi
        run = module.lib.chunk_run
        pB = ffi.new("double *[]",
                     [ffi.cast("double *", a.ctypes.data)
                      for a in self.bufs] or [ffi.NULL])
        pI = ffi.new("long *[]",
                     [ffi.cast("long *", a.ctypes.data)
                      for a in self.iarrs] or [ffi.NULL])
        pL = ffi.new("long[]", self.lens or [0])
        s_np = np.zeros(max(1, len(self.getters)))
        pS = ffi.cast("double *", s_np.ctypes.data)
        o_np = np.zeros(max(1, len(self.outs)))
        pO = ffi.cast("double *", o_np.ctypes.data)
        getters = tuple(self.getters)
        outs = tuple(enumerate(self.outs))
        scalars = self.machine.scalars
        hold = (tuple(self.bufs), tuple(self.iarrs), s_np, o_np)
        if not getters and not outs:
            def fn(_hold=hold):
                run(pB, pI, pL, pS, pO)
            return fn

        def fn(_hold=hold):
            for k, get in enumerate(getters):
                s_np[k] = get()
            run(pB, pI, pL, pS, pO)
            for k, name in outs:
                scalars[name] = float(o_np[k])
        return fn


# ---------------------------------------------------------------------------
# Whole-loop C fusion: one generated C function per (loop body, schedule),
# covering loop control, vector ops, SpMV, scalar arithmetic, Control exit
# tests, nested loops and cycle accounting. The host enters C once per
# Loop node execution — per-iteration Python dispatch drops to zero.

_LOOP_CDEF = """
long loop_run(double **B, long **IA, const long *L, double *S,
              unsigned char *W, long *CT, long *IT, long max_iter);
"""

_MISSING = object()


class _FusedLoop:
    """A compiled whole-loop body plus its bound operand tables.

    Call protocol (``run``): prefill the ``S`` scalar table from the
    register file (a missing register means the machine is in a state
    the fused code cannot reproduce — return False so the node path,
    which raises the interpreter's exact error, runs instead), zero
    the write-flag/charge/trip counters, enter C once, then apply
    cycle accounting from the ``CT`` block counters, loop trip counts
    from ``IT``, and write back every scalar register the C code
    flagged in ``W``.

    Accounting matches the node path exactly on error-free runs: each
    ``CT`` slot corresponds to one basic block (or Control test) with
    a precomputed (cycles, by_class, instructions) aggregate, and
    ``IT[0]``/nested slots reproduce the interpreter's
    ``loop_iterations`` updates (nested-loop keys only appear when the
    nested loop was actually entered). A trapped run (division by
    zero, negative sqrt) raises the interpreter's exception type;
    partial stats on failing runs may differ, as documented for the
    compiled backend generally.
    """

    __slots__ = ("_run", "_scalars", "_stats", "_s", "_w", "_ct", "_it",
                 "_prefill", "_writeback", "_charges", "_loops",
                 "_pB", "_pI", "_pL", "_pS", "_pW", "_pCT", "_pIT",
                 "_hold")

    def __init__(self, run, machine: Machine, tables: dict):
        self._run = run
        self._scalars = machine.scalars
        self._stats = machine.stats
        self._s = tables["s"]
        self._w = tables["w"]
        self._ct = tables["ct"]
        self._it = tables["it"]
        self._prefill = tables["prefill"]
        self._writeback = tables["writeback"]
        self._charges = tables["charges"]
        self._loops = tables["loops"]
        self._pB = tables["pB"]
        self._pI = tables["pI"]
        self._pL = tables["pL"]
        self._pS = tables["pS"]
        self._pW = tables["pW"]
        self._pCT = tables["pCT"]
        self._pIT = tables["pIT"]
        self._hold = tables["hold"]

    def run(self, loop: Loop) -> bool:
        scalars = self._scalars
        s = self._s
        for name, slot in self._prefill:
            value = scalars.get(name, _MISSING)
            if value is _MISSING:
                return False
            s[slot] = value
        self._w[:] = 0
        ct = self._ct
        ct[:] = 0
        it = self._it
        it[:] = 0
        rc = self._run(self._pB, self._pI, self._pL, self._pS, self._pW,
                       self._pCT, self._pIT, loop.max_iter)
        total = 0
        instrs = 0
        by_class: dict = {}
        for slot, (cycles, bc, count) in enumerate(self._charges):
            n = int(ct[slot])
            if not n:
                continue
            total += n * cycles
            instrs += n * count
            for kind, kind_cycles in bc.items():
                by_class[kind] = by_class.get(kind, 0) + n * kind_cycles
        if instrs:
            self._stats.charge_block(total, by_class, instrs)
        counts = self._stats.loop_iterations
        counts[loop.name] = counts.get(loop.name, 0) + int(it[0])
        for slot, name in self._loops:
            n = int(it[slot])
            if n:
                counts[name] = counts.get(name, 0) + n
        w = self._w
        for name, slot in self._writeback:
            if w[slot]:
                scalars[name] = float(s[slot])
        if rc == 1:
            raise SimulationError("scalar division by zero")
        if rc == 2:
            raise SimulationError("sqrt of a negative scalar")
        return True


class _LoopBuilder(_ChunkBuilder):
    """Generate one C function for an entire Loop body.

    Extends the chunk builder's operand tables (``B``/``IA``/``L``)
    with a read-write scalar table: every distinct scalar *register*
    gets one ``S`` slot (written in C with its ``W`` flag set; read
    in C after an in-loop write sees the fresh value, exactly like
    the interpreter's register file), and every literal occurrence
    gets its own ``S`` slot so the source stays pattern-canonical.
    Per-block charge counters (``CT``) and per-loop trip counters
    (``IT``) make the cycle accounting exact without any host work
    inside the loop.

    Bit-exactness carries over from the chunk layer: vector
    expressions are the closure fold table verbatim, SpMV/DOT embed
    the engine kernel bodies, CLIP's ternary chain evaluates
    ``np.clip`` exactly (NaN and signed-zero included), and scalar
    C arithmetic on IEEE doubles (`+ - * /`, ``sqrt``, the ``MAX``
    ternary) reproduces the Python float kernels bit for bit, with
    ``-ffp-contract=off`` ruling out FMA contraction.
    """

    def __init__(self, executor: CompiledExecutor):
        super().__init__(executor)
        self.s_entries: list = []     # ("reg", name) | ("lit", value)
        self._reg_slots: dict = {}
        self.reg_reads: set = set()
        self.reg_writes: set = set()
        self.code: list = []
        self.charges: list = []       # per CT slot: (cycles, by_class, n)
        self.loops: list = []         # (IT slot, name) for nested loops
        self.loop_meta: list = []     # (IT slot, name, max_iter)

    # -- scalar table (replaces the chunk S/O split) ---------------------
    def _reg_slot(self, name: str) -> int:
        slot = self._reg_slots.get(name)
        if slot is None:
            slot = len(self.s_entries)
            self.s_entries.append(("reg", name))
            self._reg_slots[name] = slot
        return slot

    def scalar(self, ref) -> str:
        if isinstance(ref, str):
            self.reg_reads.add(ref)
            token = f"S[{self._reg_slot(ref)}]"
            self._pending_reads.append(("reg", ref, token))
            return token
        slot = len(self.s_entries)
        self.s_entries.append(("lit", float(ref)))
        token = f"S[{slot}]"
        self._pending_reads.append(("lit", float(ref), token))
        return token

    def effect_ir(self) -> EffectIR:
        return EffectIR(tier="loop", batch=1,
                        statements=list(self.effects),
                        lens=tuple(self.lens),
                        s_entries=tuple(self.s_entries),
                        charges=tuple(self.charges),
                        loops=tuple(self.loop_meta),
                        reg_reads=frozenset(self.reg_reads),
                        reg_writes=frozenset(self.reg_writes),
                        source="".join(self.code))

    # -- emission --------------------------------------------------------
    def build(self, body: list):
        self.emit_body_ir(body)
        return self._finish_loop()

    def emit_body_ir(self, body: list) -> None:
        """Emit the loop body's source and effect IR (no compilation)."""
        self.code.append(
            "    for (long it0 = 0; it0 < max_iter; ++it0) {\n"
            "    IT[0]++;\n")
        self._emit_body(body, "loop_exit_0")
        self.code.append("    }\n"
                         "    loop_exit_0: ;\n")

    def _emit_body(self, items: list, exit_label: str) -> None:
        run: list = []
        for item in items:
            if isinstance(item, (Loop, Control)):
                self._flush_run(run)
                run = []
                if isinstance(item, Control):
                    self._emit_control(item, exit_label)
                else:
                    self._emit_loop(item)
            else:
                run.append(item)
        self._flush_run(run)

    def _flush_run(self, run: list) -> None:
        if not run:
            return
        machine = self.machine
        slot = len(self.charges)
        cycles = 0
        by_class: dict = {}
        for instr in run:
            kind = type(instr).__name__
            c = instr.cycles(machine)
            cycles += c
            by_class[kind] = by_class.get(kind, 0) + c
        self.charges.append((cycles, by_class, len(run)))
        self.code.append(f"    CT[{slot}]++;\n")
        self._charge_slot = slot
        for instr in run:
            if isinstance(instr, ScalarOp):
                self._emit_scalar(instr)
            elif isinstance(instr, (VectorOp, VecDup, SpMV)):
                before = len(self.blocks)
                self.emit(instr)
                self.code.extend(self.blocks[before:])
                del self.blocks[before:]
            else:
                # DataTransfer (host/HBM traffic) and anything unknown
                # stay on the node path.
                raise SimulationError(
                    f"instruction not loop-fusable: {instr!r}")

    def _emit_control(self, instr: Control, exit_label: str) -> None:
        slot = len(self.charges)
        self.charges.append((1, {"Control": 1}, 1))
        self._charge_slot = slot
        self._instr_index += 1
        value = self.scalar(instr.reg)
        threshold = self.scalar(instr.threshold_reg)
        text = (f"    CT[{slot}]++;\n"
                f"    if ({value} < {threshold}) goto {exit_label};\n")
        self.code.append(text)
        self._record("control", "control", 0,
                     expr=f"{value} < {threshold}", text=text,
                     site=getattr(instr, "site", None))

    def _emit_loop(self, loop: Loop) -> None:
        if loop.max_iter < 1:
            # a zero-trip nested loop must still create its
            # loop_iterations key; the node path handles that.
            raise SimulationError("nested loop with zero trip count")
        it_slot = 1 + len(self.loops)
        self.loops.append((it_slot, loop.name))
        self.loop_meta.append((it_slot, loop.name, int(loop.max_iter)))
        label = f"loop_exit_{it_slot}"
        var = f"it{it_slot}"
        self._charge_slot = None
        self._instr_index += 1
        self.code.append(
            "    {\n"
            f"    const long n_{var} = {self.length(loop.max_iter)};\n"
            f"    for (long {var} = 0; {var} < n_{var}; ++{var}) {{\n"
            f"    IT[{it_slot}]++;\n")
        self._record("loop", "loop", loop.max_iter,
                     site=getattr(loop, "site", None))
        self._emit_body(loop.body, label)
        self.code.append("    }\n"
                         "    }\n"
                         f"    {label}: ;\n")

    def _emit_scalar(self, instr: ScalarOp) -> None:
        if instr.op in BINARY_SCALAR_OPS and instr.src2 is None:
            raise SimulationError(
                f"binary scalar op {instr.op.value!r} has no src2 "
                f"operand (dst={instr.dst!r})")
        self._instr_index += 1
        a = self.scalar(instr.src1)
        b = self.scalar(instr.src2) if instr.src2 is not None else None
        op = instr.op
        guard = ""
        if op is ScalarOpKind.ADD:
            expr = f"{a} + {b}"
        elif op is ScalarOpKind.SUB:
            expr = f"{a} - {b}"
        elif op is ScalarOpKind.MUL:
            expr = f"{a} * {b}"
        elif op is ScalarOpKind.DIV:
            guard = f"    if ({b} == 0.0) return 1;\n"
            expr = f"{a} / {b}"
        elif op is ScalarOpKind.MAX:
            # Python's max(a, b) returns b iff b > a — NaN and signed
            # zeros included — which is exactly this ternary.
            expr = f"({b} > {a}) ? {b} : {a}"
        elif op is ScalarOpKind.SQRT:
            guard = f"    if ({a} < 0.0) return 2;\n"
            expr = f"sqrt({a})"
        elif op is ScalarOpKind.MOV:
            expr = a
        else:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown scalar op {op}")
        dst = self._reg_slot(instr.dst)
        self.reg_writes.add(instr.dst)
        text = guard + f"    S[{dst}] = {expr}; W[{dst}] = 1;\n"
        self.code.append(text)
        self._record(f"scalar:{op.value}", "scalar", 0, expr=expr,
                     text=text,
                     sreg_writes=((instr.dst, f"S[{dst}]"),),
                     site=getattr(instr, "site", None))

    def _emit_vector(self, instr: VectorOp) -> None:
        executor = self.executor
        kind = instr.op
        if kind is VectorOpKind.DOT:
            a = executor._resident(instr.srcs[0])
            b = executor._resident(instr.srcs[1])
            if a.shape != b.shape:
                raise SimulationError("dot operand shapes differ")
            slot = self._reg_slot(instr.dst)
            self.reg_writes.add(instr.dst)
            body = "".join("    " + line + "\n" if line.strip() else line
                           for line in cjit.DOT_BODY.splitlines())
            block = (
                "    {\n"
                f"        const double *a = {self.buf(a)};\n"
                f"        const double *b = {self.buf(b)};\n"
                f"        const long n = {self.length(a.size)};\n"
                + body +
                f"        S[{slot}] = acc;\n"
                f"        W[{slot}] = 1;\n"
                "    }\n")
            self.blocks.append(block)
            self._record("dot", "reduce", a.size,
                         srcs=(self._src_ref(instr.srcs[0], a),
                               self._src_ref(instr.srcs[1], b)),
                         text=block,
                         sreg_writes=((instr.dst, f"S[{slot}]"),),
                         site=getattr(instr, "site", None))
            return
        if kind is VectorOpKind.CLIP:
            a = executor._resident(instr.srcs[0])
            lo = executor._resident(instr.srcs[1])
            hi = executor._resident(instr.srcs[2])
            if lo.shape != a.shape or hi.shape != a.shape:
                raise SimulationError("clip operand shapes differ")
            dst = executor._dst_buffer(self.machine.vb, instr.dst, a.size)
            # max-then-min with NaN passthrough: evaluates np.clip
            # exactly (verified over all special-value triples).
            block = (
                "    {\n"
                f"        const double *a = {self.buf(a)};\n"
                f"        const double *lo = {self.buf(lo)};\n"
                f"        const double *hi = {self.buf(hi)};\n"
                f"        double *d = {self.buf(dst)};\n"
                f"        const long n = {self.length(a.size)};\n"
                "        for (long i = 0; i < n; ++i) {\n"
                "            const double av = a[i];\n"
                "            const double t = isnan(av) ? av"
                " : (av > lo[i] ? av : lo[i]);\n"
                "            d[i] = isnan(t) ? t : (t < hi[i] ? t : hi[i]);\n"
                "        }\n"
                "    }\n")
            self.blocks.append(block)
            self._record("clip", "elementwise", a.size,
                         dst=BufferRef("vb", instr.dst, dst.shape[0]),
                         srcs=(self._src_ref(instr.srcs[0], a),
                               self._src_ref(instr.srcs[1], lo),
                               self._src_ref(instr.srcs[2], hi)),
                         text=block, site=getattr(instr, "site", None))
            return
        # The generated elementwise loops never broadcast; the closure
        # path would (via numpy), so refuse non-conforming shapes here
        # and let the node path raise or broadcast as it always did.
        if len(instr.srcs) >= 2:
            a = executor._resident(instr.srcs[0])
            b = executor._resident(instr.srcs[1])
            if a.shape != b.shape:
                raise SimulationError("vector operand shapes differ")
        super()._emit_vector(instr)

    # -- finish ----------------------------------------------------------
    def _finish_loop(self):
        source = (
            "#include <math.h>\n"
            "\n"
            "long loop_run(double **B, long **IA, const long *L, double *S,\n"
            "              unsigned char *W, long *CT, long *IT,\n"
            "              long max_iter)\n"
            "{\n"
            "    (void)B; (void)IA; (void)L; (void)W;\n"
            + "".join(self.code) +
            "    return 0;\n"
            "}\n")
        module = cjit.compile_module(_LOOP_CDEF, source, tag="loop",
                                     libraries=("m",))
        if module is None:
            return None
        ffi = module.ffi
        n_s = max(1, len(self.s_entries))
        s_np = np.zeros(n_s)
        for slot, (kind, value) in enumerate(self.s_entries):
            if kind == "lit":
                s_np[slot] = value
        w_np = np.zeros(n_s, dtype=np.uint8)
        ct_np = np.zeros(max(1, len(self.charges)), dtype=np.int64)
        it_np = np.zeros(1 + len(self.loops), dtype=np.int64)
        tables = {
            "s": s_np, "w": w_np, "ct": ct_np, "it": it_np,
            "prefill": tuple((name, self._reg_slots[name])
                             for name in sorted(self.reg_reads)),
            "writeback": tuple((name, self._reg_slots[name])
                               for name in sorted(self.reg_writes)),
            "charges": tuple(self.charges),
            "loops": tuple(self.loops),
            "pB": ffi.new("double *[]",
                          [ffi.cast("double *", arr.ctypes.data)
                           for arr in self.bufs] or [ffi.NULL]),
            "pI": ffi.new("long *[]",
                          [ffi.cast("long *", arr.ctypes.data)
                           for arr in self.iarrs] or [ffi.NULL]),
            "pL": ffi.new("long[]", self.lens or [0]),
            "pS": ffi.cast("double *", s_np.ctypes.data),
            "pW": ffi.cast("unsigned char *", w_np.ctypes.data),
            "pCT": ffi.cast("long *", ct_np.ctypes.data),
            "pIT": ffi.cast("long *", it_np.ctypes.data),
            "hold": (tuple(self.bufs), tuple(self.iarrs)),
        }
        return _FusedLoop(module.lib.loop_run, self.machine, tables)
