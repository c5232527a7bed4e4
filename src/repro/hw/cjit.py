"""Optional C kernel layer for the functional simulator (cffi + cc).

The compiled backend (:mod:`repro.hw.compiled`) lowers straight-line
runs of vector instructions into a single C function so the per-solve
hot loop pays one foreign call instead of one Python dispatch per
instruction. This module owns the build machinery:

* :func:`available` — probe once whether a working C toolchain exists.
* :func:`engine` — the process-wide generic kernel library (the shared
  CSR matvec both backends route SpMV through, keeping them
  bit-identical by construction).
* :func:`compile_module` — hash-addressed, disk-cached compilation of
  generated chunk sources (same source is compiled at most once per
  cache directory, ever).

Bit-exactness contract: kernels are compiled with ``-O2
-ffp-contract=off`` and no fast-math, so elementwise float64
expressions evaluate exactly like the equivalent numpy ufunc sequence
(IEEE-754 operations are order-free per element, and contraction into
FMA is disabled), and reduction loops stay strictly sequential (the
compiler may not reassociate floating-point addition). The CSR matvec
accumulates each row left to right — the same order as the SpMV
engine's per-chunk MAC accumulation, which makes the machine's SpMV
numerics engine-faithful when the JIT is active.

Everything degrades gracefully: no compiler, an unwritable cache
directory, or ``REPRO_JIT=0`` in the environment simply means
:func:`available` returns False and both backends fall back to their
pure-numpy paths (which are likewise bit-identical to each other).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import tempfile
from typing import Any, Sequence

from .effect_ir import EFFECT_IR_VERSION

__all__ = ["available", "engine", "compile_module", "CSR_MATVEC_BODY",
           "DOT_BODY", "CODEGEN_VERSION", "cache_dir"]

#: Canonical CSR row-sum loop. Chunk codegen embeds this exact shape so
#: an SpMV fused into a chunk produces the same bits as the engine
#: library's ``k_csr_matvec`` (sequential accumulation may not be
#: reassociated by the compiler, so the source shape pins the result).
CSR_MATVEC_BODY = """\
    for (long r = 0; r < nrows; ++r) {
        double acc = 0.0;
        for (long k = ip[r]; k < ip[r + 1]; ++k)
            acc += val[k] * x[col[k]];
        y[r] = acc;
    }
"""

#: Canonical dot-product loop (strictly sequential, left to right).
#: Both backends route DOT through ``k_dot`` when the JIT is active, and
#: chunk codegen embeds this exact shape, so a DOT fused into a chunk
#: produces the same bits as the engine library call.
DOT_BODY = """\
    double acc = 0.0;
    for (long i = 0; i < n; ++i)
        acc += a[i] * b[i];
"""

_ENGINE_CDEF = """
void k_csr_matvec(const double *val, const long *col, const long *ip,
                  const double *x, double *y, long nrows);
double k_dot(const double *a, const double *b, long n);
void k_csr_matvec_batch(const double *val, const long *col,
                        const long *ip, const double *x, double *y,
                        long nrows, long ncols, long nnz, long batch);
void k_dot_batch(const double *a, const double *b, long n, long batch,
                 double *out);
"""

# The batched kernels operate on lane-minor buffers — element i of lane
# b lives at [i * batch + b], so the innermost loops run across lanes
# over contiguous memory (auto-vectorizable at -O2) while each lane's
# accumulation order stays exactly the solo kernels': the k/i loops
# advance per lane precisely like CSR_MATVEC_BODY / DOT_BODY, and a
# memory-resident float64 accumulator adds identically to a register
# one (no reassociation, no contraction). Lane b of a batched call is
# therefore bit-identical to a solo call on lane b's data.
_ENGINE_SOURCE = """
void k_csr_matvec(const double *val, const long *col, const long *ip,
                  const double *x, double *y, long nrows)
{
%s}

double k_dot(const double *a, const double *b, long n)
{
%s    return acc;
}

void k_csr_matvec_batch(const double *val, const long *col,
                        const long *ip, const double *x, double *y,
                        long nrows, long ncols, long nnz, long batch)
{
    (void)ncols;
    const double * restrict v = val;
    const double * restrict xx = x;
    double * restrict yy = y;
    for (long r = 0; r < nrows; ++r) {
        double * restrict yr = yy + r * batch;
        for (long b = 0; b < batch; ++b)
            yr[b] = 0.0;
        for (long k = ip[r]; k < ip[r + 1]; ++k) {
            const double * restrict vk = v + k * batch;
            const double * restrict xk = xx + col[k] * batch;
            for (long b = 0; b < batch; ++b)
                yr[b] += vk[b] * xk[b];
        }
    }
}

void k_dot_batch(const double *a, const double *b, long n, long batch,
                 double *out)
{
    const double * restrict aa = a;
    const double * restrict bb = b;
    double * restrict oo = out;
    for (long j = 0; j < batch; ++j)
        oo[j] = 0.0;
    for (long i = 0; i < n; ++i) {
        const double * restrict ai = aa + i * batch;
        const double * restrict bi = bb + i * batch;
        for (long j = 0; j < batch; ++j)
            oo[j] += ai[j] * bi[j];
    }
}
""" % (CSR_MATVEC_BODY, DOT_BODY)

_COMPILE_ARGS = ["-O2", "-ffp-contract=off"]

#: Bump when generated-code *semantics* change without the generated
#: source text itself changing (codegen conventions, pointer-table
#: ABI, charge accounting contracts). Part of every module's cache key.
CODEGEN_VERSION = "1"

#: Fingerprint of the kernel layer a generated module may embed or
#: call into. Keying the disk cache on this (not just the generated
#: chunk source) means a cached ``.so`` can never be reused after
#: ``k_csr_matvec`` / ``k_dot``, the codegen contract, or the effect-IR
#: schema changes — a stale binary would silently break either the
#: bit-exactness guarantee or the static verifier's assumptions about
#: what the cached code does.
_KERNEL_VERSION = hashlib.sha256("\x00".join(
    [CODEGEN_VERSION, EFFECT_IR_VERSION, _ENGINE_CDEF,
     _ENGINE_SOURCE]).encode()).hexdigest()

#: The engine library compiles at -O3 (plus the host ISA when the
#: toolchain accepts -march=native) so the batched kernels' lane loops
#: (independent per iteration, `restrict`-qualified) vectorize across
#: lanes at full SIMD width. Bit-exactness is unaffected: no -O level
#: or ISA choice reassociates floating-point reductions without
#: fast-math (and contraction stays off), so the sequential solo loops
#: and each lane's accumulation order produce the same bits as at -O2.
_ENGINE_COMPILE_ARGS = ["-O3", "-ffp-contract=off", "-march=native"]
_ENGINE_FALLBACK_ARGS = ["-O3", "-ffp-contract=off"]

_state: dict[str, Any] = {"probed": False, "engine": None}

#: Modules already loaded by this process, keyed by their final cache
#: path (which folds in the source, flags, libraries, kernel/codegen
#: digest and cache directory): a repeat call skips the directory scan
#: and the re-exec of the shared object.
_loaded: dict[str, Any] = {}


def cache_dir() -> str:
    """Directory holding compiled kernel modules, keyed by source hash."""
    return os.environ.get(
        "REPRO_JIT_CACHE",
        os.path.join(tempfile.gettempdir(), "repro_cjit"))


def _jit_enabled() -> bool:
    return os.environ.get("REPRO_JIT", "1") != "0"


def compile_module(cdef: str, source: str, tag: str = "k",
                   args: Sequence[str] | None = None,
                   libraries: Sequence[str] = ()) -> Any:
    """Compile (or load from cache) a cffi module for ``source``.

    Returns the imported module (``.lib`` / ``.ffi`` attributes) or
    ``None`` when the toolchain is unavailable or the build fails.
    Modules are stateless by contract — chunk functions receive their
    pointer tables as arguments — so one compiled module is safely
    shared by every executor (and thread) whose generated source
    matches. ``args`` overrides the compiler flags; ``libraries`` adds
    link libraries (e.g. ``("m",)`` for libm). The cache key covers the
    source, the flags, the libraries, and the kernel/codegen version
    fingerprint, so a stale ``.so`` is never reused across kernel-body
    or codegen-contract changes. Each module loads once per process;
    later calls return the loaded module.
    """
    if not _jit_enabled():
        return None
    try:
        import cffi  # noqa: F401
    except ImportError:
        return None
    compile_args = list(_COMPILE_ARGS if args is None else args)
    libs = list(libraries)
    digest = hashlib.sha256(("\x00".join(
        [_KERNEL_VERSION, cdef, source] + compile_args + libs
    )).encode()).hexdigest()
    name = f"_repro_{tag}_{digest[:16]}"
    root = cache_dir()
    final = os.path.join(root, name)
    module = _loaded.get(final)
    if module is not None:
        return module
    try:
        module = _load(name, final)
        if module is not None:
            return module
        os.makedirs(root, exist_ok=True)
        build = tempfile.mkdtemp(prefix=name + ".build.", dir=root)
        try:
            ffi = cffi.FFI()
            ffi.cdef(cdef)
            ffi.set_source(name, source, extra_compile_args=compile_args,
                           libraries=libs)
            ffi.compile(tmpdir=build, verbose=False)
            try:
                os.rename(build, final)
            except OSError:
                pass  # lost a build race; the winner's copy is fine
        finally:
            if os.path.isdir(build) and build != final:
                shutil.rmtree(build, ignore_errors=True)
        return _load(name, final)
    except Exception:
        return None


def _load(name: str, moddir: str) -> Any:
    if not os.path.isdir(moddir):
        return None
    for entry in sorted(os.listdir(moddir)):
        if entry.startswith(name) and entry.endswith(".so"):
            spec = importlib.util.spec_from_file_location(
                name, os.path.join(moddir, entry))
            if spec is None or spec.loader is None:
                return None
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            _loaded[moddir] = module
            return module
    return None


def engine() -> Any:
    """The generic kernel library, or ``None`` when JIT is unavailable.

    Probed exactly once per process; a failed probe (missing compiler,
    read-only filesystem, ``REPRO_JIT=0``) pins the process to the
    numpy fallback so both backends stay mutually consistent.
    """
    if not _state["probed"]:
        _state["engine"] = (
            compile_module(_ENGINE_CDEF, _ENGINE_SOURCE, tag="engine",
                           args=_ENGINE_COMPILE_ARGS)
            or compile_module(_ENGINE_CDEF, _ENGINE_SOURCE, tag="engine",
                              args=_ENGINE_FALLBACK_ARGS))
        _state["probed"] = True
    return _state["engine"]


def available() -> bool:
    return engine() is not None
