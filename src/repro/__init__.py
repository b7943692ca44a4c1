"""Reproduction of 'A Case Against Hardware Managed DRAM Caches for
NVRAM Based Systems' (ISPASS 2021), grown into a simulation platform.

``__version__`` participates in the service layer's code-version salt
(:func:`repro.service.versioning.code_version_salt`): bumping it
invalidates every content-addressed result in a store.

Importing the package sets the process's heap policy once, through
glibc's ``mallopt``, so every simulator process (the CLIs, service
workers, forked AutoTM look-ahead children, tests) runs under it.  A
host batch is at most :data:`~repro.config.BATCH_LINES` lines, so the
numpy temporaries of one window are int64 vectors of up to 2 MiB.
glibc's default policy maps blocks that size on their own and hands
them back to the kernel on free, or trims the freed heap top, so the
next window faults every page in again, zeroed: a steady-state seed-7
kv_replay pass took 151k-207k minor faults and 0.28-0.37 s of system
time on a 2-vCPU x86-64 host.  With blocks up to two window vectors
(:data:`MMAP_THRESHOLD`, 4 MiB) served from the heap, and up to 32
window vectors of free heap (:data:`TRIM_THRESHOLD`, 64 MiB) kept at
its top, the pages stay between windows and the same pass takes 7-10
faults.  The policy changes where memory comes from, never what is
computed; where ``mallopt`` is missing (a non-glibc C library) or
refuses a value, it does nothing.  It overrides
``MALLOC_MMAP_THRESHOLD_`` and ``MALLOC_TRIM_THRESHOLD_`` from the
environment.
"""

import ctypes

from repro.config import BATCH_LINES

__version__ = "1.0.0"

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Bytes above which a block is mapped on its own: two int64 window vectors.
MMAP_THRESHOLD = 2 * BATCH_LINES * 8
#: Free bytes at the heap top above which glibc trims it: 32 window vectors.
TRIM_THRESHOLD = 16 * MMAP_THRESHOLD


def _set_heap_policy(libc) -> None:
    """Apply the heap policy through ``libc.mallopt``, if it has one."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 for a value it refuses and changes nothing.
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_set_heap_policy(ctypes.CDLL(None))
