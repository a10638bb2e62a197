"""Row + column checksum panels over bit patterns.

The Huang–Abraham construction augments a distributed block with two
checksum panels: a **column panel** (one word per processor — the sum of
that processor's local slots) and a **row panel** (one word per local slot
— the sum of that slot across processors).  Corrupt a single element and
exactly one entry of each panel diverges, by the *same* delta; the
row × column intersection names the element and the delta restores it.

Floating-point sums are not associative, so checksums over *values* could
never be re-verified bit-exactly after a remap.  These panels therefore
sum the **byte image** of the block in ``Z/2**64``: every dtype (float64,
int64, bool, complex128, ...) reduces to the same uint8 lattice, a single
bit flip perturbs exactly one byte, and all arithmetic is exact.  One
64-bit checksum word per panel entry is also what the simulated machine
charges for (see :class:`~repro.abft.manager.ABFTManager`).
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np


def byte_view(data: np.ndarray) -> np.ndarray:
    """The ``(p, local_bytes)`` uint8 image of a ``(p, ...)`` block.

    A view when the block is C-contiguous (the norm — blocks are built by
    NumPy ops); otherwise a contiguous copy, which is fine for reading.
    """
    p = data.shape[0]
    flat = np.ascontiguousarray(data).reshape(p, -1)
    return flat.view(np.uint8).reshape(p, -1)


@functools.lru_cache(maxsize=64)
def _ones(n: int) -> np.ndarray:
    """A read-only float64 ones vector of length ``n`` (shared by callers)."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def checksum_panels(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(col_panel, row_panel)`` of a block, as uint64 words.

    ``col_panel[i]`` sums processor ``i``'s ``B`` local bytes;
    ``row_panel[j]`` sums byte slot ``j`` across the ``p`` processors.
    Both come from two float64 BLAS passes over the byte image (``f·1``
    and ``1·f``), cast back to uint64, and both are exact: a word sums
    at most ``max(p, B)`` bytes of value <= 255, so while that count is
    below ``2**45`` every partial sum, in any order, is an integer below
    ``2**53``, which float64 holds exactly, as does the cast back.  The
    words equal the integer byte sums, which could wrap mod ``2**64`` only
    past ``2**56`` bytes; :func:`locate` takes its deltas mod ``2**64``.
    """
    u8 = byte_view(data)
    f = u8.astype(np.float64)
    # ndarray.dot calls BLAS gemv directly; ``@`` adds the ufunc dispatch.
    col = f.dot(_ones(u8.shape[1])).astype(np.uint64)
    row = _ones(u8.shape[0]).dot(f).astype(np.uint64)
    return col, row


def locate(
    data: np.ndarray, col_ref: np.ndarray, row_ref: np.ndarray
) -> Tuple[str, Optional[tuple]]:
    """Diagnose a block against its reference panels.

    Returns one of::

        ("clean",  None)
        ("single", (pid, byte_slot, delta))   # uniquely correctable
        ("multi",  (bad_cols, bad_rows))      # >= 2 corrupt -> escalate

    The single-corruption case requires exactly one divergent entry in
    *each* panel with matching deltas — the row × column intersection.
    """
    col, row = checksum_panels(data)
    with np.errstate(over="ignore"):
        dc = col - col_ref
        dr = row - row_ref
    bad_c = np.flatnonzero(dc)
    bad_r = np.flatnonzero(dr)
    if bad_c.size == 0 and bad_r.size == 0:
        return "clean", None
    if bad_c.size == 1 and bad_r.size == 1 and dc[bad_c[0]] == dr[bad_r[0]]:
        return "single", (int(bad_c[0]), int(bad_r[0]), np.uint64(dc[bad_c[0]]))
    return "multi", (int(bad_c.size), int(bad_r.size))


def correct_single(
    data: np.ndarray, pid: int, byte_slot: int, delta: np.uint64
) -> np.ndarray:
    """A copy of ``data`` with byte ``(pid, byte_slot)`` restored exactly.

    ``delta = corrupted - original  (mod 2**64)`` comes from
    :func:`locate`; subtracting it mod 256 recovers the original byte
    bit-for-bit, so the repaired block equals the pre-corruption block
    exactly (``np.array_equal``), whatever the dtype.
    """
    fixed = np.array(data)
    u8 = fixed.reshape(fixed.shape[0], -1).view(np.uint8).reshape(
        fixed.shape[0], -1
    )
    with np.errstate(over="ignore"):
        u8[pid, byte_slot] = np.uint8(
            (np.uint64(u8[pid, byte_slot]) - np.uint64(delta))
            & np.uint64(0xFF)
        )
    return fixed


__all__ = ["byte_view", "checksum_panels", "locate", "correct_single"]
