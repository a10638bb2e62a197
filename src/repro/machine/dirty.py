"""Per-block dirty detection via exact byte-sum signatures.

Incremental checkpoints need to know which of a distributed array's ``p``
blocks changed since the last snapshot.  Rather than diffing values
(dtype-dependent, float-hostile), each block gets one ``uint64`` signature:
the sum of its byte image in ``Z/2**64`` — the same exact lattice the ABFT
checksum panels use (:mod:`repro.abft.panels`).  Any single-bit change
perturbs the signature; sums are exact integers, so signature equality is
a deterministic, dtype-agnostic "unchanged" witness (collisions require a
crafted multi-byte cancellation, which honest workload updates don't
produce).

Signatures are computed on the *canonical host image* split into ``p``
equal byte spans — a faithful stand-in for the machine's block partition
for accounting purposes (the fraction of spans touched tracks the
fraction of machine-resident blocks touched).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


def block_signatures(host: np.ndarray, blocks: int) -> np.ndarray:
    """``(blocks,)`` uint64 byte-sum signatures of ``host``'s byte image.

    The flat byte image is split into ``blocks`` near-equal spans
    (``np.array_split`` semantics: the first ``nbytes % blocks`` spans
    hold one byte more); each span sums to one exact uint64 word
    (wrapping mod ``2**64``).  Empty spans (more blocks than bytes) sign
    as zero.
    """
    if blocks < 1:
        raise ConfigError(f"block count must be >= 1, got {blocks}")
    flat = np.ascontiguousarray(host).reshape(-1).view(np.uint8)
    size, extra = divmod(flat.size, blocks)
    # Only the first min(blocks, nbytes) spans are non-empty; reduceat
    # would sign an empty span with the byte at its repeated offset.
    span = np.arange(min(blocks, flat.size))
    signatures = np.zeros(blocks, dtype=np.uint64)
    if span.size:
        signatures[: span.size] = np.add.reduceat(
            flat, span * size + np.minimum(span, extra), dtype=np.uint64
        )
    return signatures


__all__ = ["block_signatures"]
