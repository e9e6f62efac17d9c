"""On-demand builder for the compiled batch-engine kernel.

``batchkernel.c`` holds a per-lane C transliteration of the
``OoOCore.run`` cycle loop that advances the state arrays of a
:class:`~repro.uarch.batchcore.BatchEngine`. This module compiles it
with the system C compiler the first time a batch runs and binds the
entry point via :mod:`ctypes`. Everything is best-effort: no compiler,
a failed compile, or a read-only cache dir all degrade to returning
``None``, in which case ``BatchEngine.run`` raises ``BatchFallback`` and
the batch runs lane by lane on the scalar snapshot-fork path (same
results, slower).

The shared object is cached on disk keyed by a hash of the C source, so
recompiles happen only when the kernel changes. Set
``REPRO_KERNEL_CACHE`` to move the cache out of the default temp dir.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

_N_PTRS = 100
_N_PARAMS = 36

_loaded = False
_fn = None


def _source_path():
    return os.path.join(os.path.dirname(__file__), "batchkernel.c")


def _compiler():
    cc = os.environ.get("CC")
    if cc:
        return shutil.which(cc)
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _cache_dir():
    return os.environ.get("REPRO_KERNEL_CACHE") or tempfile.gettempdir()


def build_kernel():
    """Compile (or reuse) the shared object; returns its path or None."""
    src = _source_path()
    try:
        with open(src, "rb") as f:
            code = f.read()
    except OSError:
        return None
    digest = hashlib.sha256(code).hexdigest()[:16]
    so = os.path.join(_cache_dir(), f"repro-batchkernel-{digest}.so")
    if os.path.exists(so):
        return so
    cc = _compiler()
    if cc is None:
        return None
    tmp = f"{so}.{os.getpid()}.tmp"
    try:
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, src],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, so)
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    return so


def load_kernel():
    """ctypes-bound ``repro_batch_run`` or None; result is memoized."""
    global _loaded, _fn
    if _loaded:
        return _fn
    _loaded = True
    so = build_kernel()
    if so is None:
        return None
    try:
        lib = ctypes.CDLL(so)
        fn = lib.repro_batch_run
    except (OSError, AttributeError):
        return None
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_void_p),
        ctypes.POINTER(ctypes.c_int64),
    ]
    fn.restype = None
    _fn = fn
    return _fn


def reset_kernel_cache():
    """Forget the memoized load result (test hook)."""
    global _loaded, _fn
    _loaded = False
    _fn = None


def call_kernel(fn, arrays, params):
    """Invoke the kernel on ``arrays`` (numpy, order fixed by the C side)."""
    if len(arrays) != _N_PTRS or len(params) != _N_PARAMS:
        raise ValueError("kernel ABI mismatch")
    ptrs = (ctypes.c_void_p * _N_PTRS)(*[a.ctypes.data for a in arrays])
    prm = (ctypes.c_int64 * _N_PARAMS)(*[int(x) for x in params])
    fn(ptrs, prm)
