"""The compiled loops of _kernels.c, built on first use, and the BLAS
routines numpy's own products call.

_kernels.c holds run_chunk, the RK4 steps of a flight chunk
(quad.simulate); run_samples, the complete-graph steps and the
recorded samples of the distance-weighted protocol (consensus._record);
and format_rows, the CSV lines of a table (mission._csv_lines). Each
transcribes its Python reference, and each caller keeps that reference
as its fallback: where nothing can be compiled or loaded, the same
bytes come from Python and numpy, only more slowly.
"""

import ctypes
import importlib.machinery
import importlib.util
import os
import zlib
from pathlib import Path

# The shared object of _kernels.c: None until a run first asks for it,
# False where it cannot be built or loaded
_lib = None

# The compiler's flags: -ffp-contract=off keeps it from fusing a
# multiply and an add, and no -ffast-math keeps IEEE arithmetic
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

# The ILP64 CBLAS entry points of numpy's bundled OpenBLAS, which
# ndarray.dot calls; the int64 dimensions of run_samples' pointer types
# are theirs
_BLAS_SYMBOLS = ("scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_")

# (dgemm, dgemv) as addresses: None until first asked, False where
# numpy's build does not export them
_blas = None


def library():
    """The shared object of _kernels.c through ctypes, with run_chunk,
    run_samples and, where the compiler has unsigned __int128,
    format_rows typed; or None where it cannot be had.

    The first call in a process builds it unless it is cached, with $CC
    (else cc) and _CFLAGS, where Python would put the C file's bytecode
    (importlib.util.cache_from_source, so PYTHONPYCACHEPREFIX moves it
    too). Its name carries checksums of the source, the command and the
    interpreter's extension suffix. It is built to a temporary sibling,
    moved into place, and loaded only from a directory and a file that
    no other user can write. Every failure (no compiler, a compile
    error, a cache that cannot be written, a failed load) leaves None.
    """
    global _lib
    if _lib is None:
        try:
            _lib = _load()
        except (OSError, ValueError, AttributeError):
            _lib = False
    return _lib or None


def numpy_blas():
    """(dgemm, dgemv), the addresses of the CBLAS routines that
    ndarray.dot calls in this numpy build, resolved through the handle
    of numpy's own multiarray module, so they are the same library and
    the same kernel as numpy's; or None where that module does not
    export _BLAS_SYMBOLS."""
    global _blas
    if _blas is None:
        try:
            from numpy._core import _multiarray_umath
            handle = ctypes.CDLL(_multiarray_umath.__file__)
            _blas = tuple(ctypes.cast(getattr(handle, name),
                                      ctypes.c_void_p).value
                          for name in _BLAS_SYMBOLS)
        except (ImportError, OSError, AttributeError):
            _blas = False
    return _blas or None


def _load():
    """library's shared object, built first where it is not cached;
    False where the cache is not private or the build fails."""
    import shlex

    source = Path(__file__).with_name("_kernels.c")
    cmd = [*shlex.split(os.environ.get("CC") or "cc"), *_CFLAGS]
    key = b"\0".join([source.read_bytes(), *map(os.fsencode, cmd),
                      importlib.machinery.EXTENSION_SUFFIXES[0].encode()])
    # zlib is loaded with numpy; hashlib would cost the first run 8 ms
    lib = Path(importlib.util.cache_from_source(str(source))).with_name(
        f"_kernels.{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so")
    lib.parent.mkdir(parents=True, exist_ok=True)
    if not _private(lib.parent):
        return False
    if not lib.exists() and not _build(cmd, source, lib):
        return False
    if not _private(lib):
        return False
    so = ctypes.CDLL(str(lib))
    ptr, c_double, c_long = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
    so.run_chunk.argtypes = (ptr, c_long, c_double, ptr, ptr, ptr, c_long,
                             ptr, c_double, ptr)
    so.run_chunk.restype = c_long
    so.run_samples.argtypes = (ptr, c_long, c_long, ptr, ptr, ptr, ptr, ptr,
                               ptr, ptr, ptr, c_long, c_long, c_double, ptr,
                               c_double, ptr, ptr, c_long)
    so.run_samples.restype = c_long
    # built only where the compiler has unsigned __int128
    if hasattr(so, "format_rows"):
        so.format_rows.argtypes = (ptr, c_long, c_long, ptr)
        so.format_rows.restype = c_long
    return so


def _build(cmd, source, lib):
    """Compile source to lib with cmd, through a temporary sibling that
    is moved into place; returns whether lib was built. The compiler's
    output goes nowhere: a failed build changes no output."""
    import subprocess

    part = lib.with_name(f"{lib.name}.{os.getpid()}.part")
    try:
        subprocess.run([*cmd, "-o", str(part), str(source), "-lm"],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=300)
        os.replace(part, lib)
        return True
    except subprocess.SubprocessError:
        return False
    finally:
        part.unlink(missing_ok=True)


def _private(path):
    """Whether no user but this one and root can write path."""
    st = os.stat(path)
    return st.st_uid in (0, os.getuid()) and not st.st_mode & 0o022
