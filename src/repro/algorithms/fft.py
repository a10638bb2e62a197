"""Radix-2 FFT on the distributed vector embedding.

The TMC report series this paper appeared in is full of Boolean-cube FFTs
(Johnsson, Ho, Jacquemin & Ruttenberg): the Cooley-Tukey butterfly pattern
*is* the cube's dimension structure, so an ``N = p·L`` point transform runs
``lg L`` purely local stages plus ``lg p`` stages of one exchange each —
the cube emulates the butterfly network without contention.

Layout: the input vector must be in *binary-coded block* vector order
(global index bits = [processor bits | local slot bits]), so butterfly
partners at distance ``>= L`` are exactly cube neighbours.  The initial
bit-reversal reordering is a stable dimension permutation routed through
the e-cube router.

Complex arithmetic charging: one butterfly pass over ``L`` local points is
charged 10 real flops per point (complex multiply = 6, two complex
adds = 4), matching the usual FFT operation count of ``5 N lg N`` total.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..machine.counters import CostSnapshot
from ..machine.hypercube import Hypercube
from ..machine.pvar import PVar
from ..machine.router import Router
from ..embeddings.gray import deposit_bits
from ..embeddings.vector import VectorOrderEmbedding
from ..errors import ConfigError, ShapeError


@dataclass
class FFTResult:
    """Transformed vector (host-side) plus simulated cost."""

    values: np.ndarray
    cost: CostSnapshot


def _bit_reverse_indices(t: int) -> np.ndarray:
    """The bit-reversal permutation of ``range(2**t)``."""
    return deposit_bits(np.arange(1 << t), tuple(range(t - 1, -1, -1)))


def _check_embedding(machine: Hypercube, N: int) -> "tuple[int, int, int]":
    if N < 1 or (N & (N - 1)) != 0:
        raise ShapeError(f"FFT length must be a power of two, got {N}")
    t = N.bit_length() - 1
    if machine.p > N:
        raise ConfigError(
            f"machine has more processors ({machine.p}) than points ({N})"
        )
    L = N // machine.p
    return t, L, machine.n


def fft(
    machine: Hypercube,
    values: np.ndarray,
    inverse: bool = False,
) -> FFTResult:
    """Distributed radix-2 decimation-in-time FFT of ``2**t`` points.

    Loads the host vector into binary-coded block vector order, performs
    the bit-reversal permutation through the router, then ``t`` butterfly
    stages: the first ``lg L`` purely local, the remaining ``lg p`` with
    one cube exchange each.  Twiddle factors are computed from wired-in
    global indices (charged as local arithmetic).
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 1:
        raise ShapeError(f"expected a 1-D array, got shape {values.shape}")
    N = len(values)
    t, L, n = _check_embedding(machine, N)

    emb = VectorOrderEmbedding(machine, N, layout="block", coding="binary")
    data = emb.scatter(values).data  # (p, L)

    start = machine.snapshot()
    with machine.phase("fft"):
        # --- bit-reversal permutation (stable dimension permutation) -----
        rev = _bit_reverse_indices(t)
        g = np.arange(N)
        src_pid = g // L
        dst_pid = rev // L
        moving = src_pid != dst_pid
        if np.any(moving):
            pair = src_pid[moving] * machine.p + dst_pid[moving]
            pairs, counts = np.unique(pair, return_counts=True)
            Router(machine).simulate(
                pairs // machine.p, pairs % machine.p,
                counts.astype(np.float64),
            )
        machine.charge_local(2 * L)  # pack/unpack
        flat = data.reshape(N)
        flat = flat[_bit_reverse_indices(t)].copy()
        data = flat.reshape(machine.p, L)

        sign = 1.0 if inverse else -1.0
        lgL = L.bit_length() - 1

        # --- local stages: butterfly span < L ------------------------------
        for s in range(1, lgL + 1):
            half = 1 << (s - 1)
            m = 1 << s
            blocks = data.reshape(machine.p, L // m, m)
            u = blocks[:, :, :half]
            v = blocks[:, :, half:]
            w = np.exp(sign * 2j * np.pi * np.arange(half) / m)
            wv = w[None, None, :] * v
            blocks = np.concatenate([u + wv, u - wv], axis=2)
            data = blocks.reshape(machine.p, L)
            machine.charge_flops(10 * L)

        # --- cube stages: butterfly span >= L, one exchange per stage ------
        for s in range(lgL + 1, t + 1):
            half = 1 << (s - 1)
            m = 1 << s
            d = (s - 1) - lgL  # cube dimension carrying this span
            recv = machine.exchange(PVar(machine, data), d).data
            g_idx = emb.global_indices()  # (p, L) wired-in addresses
            e = np.mod(g_idx, m) % half
            w = np.exp(sign * 2j * np.pi * e / m)
            is_u = (machine.pids() >> d) & 1 == 0
            is_u = is_u[:, None]
            # u' = u + w v ;  v' = u - w v  (u on the 0-side of dim d)
            data = np.where(is_u, data + w * recv, recv - w * data)
            machine.charge_flops(10 * L)

        if inverse:
            data = data / N
            machine.charge_flops(2 * L)

    out = np.empty(N, dtype=np.complex128)
    out = data.reshape(N).copy()
    return FFTResult(values=out, cost=machine.elapsed_since(start))


def ifft(machine: Hypercube, values: np.ndarray) -> FFTResult:
    """Inverse transform (normalised by ``1/N``)."""
    return fft(machine, values, inverse=True)


def convolve(
    machine: Hypercube,
    a: np.ndarray,
    b: np.ndarray,
) -> FFTResult:
    """Circular convolution by the convolution theorem (three transforms)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError("convolve needs two 1-D arrays of equal length")
    start = machine.snapshot()
    fa = fft(machine, a).values
    fb = fft(machine, b).values
    machine.charge_flops(6 * len(a) / machine.p)  # pointwise complex product
    out = ifft(machine, fa * fb)
    return FFTResult(values=out.values, cost=machine.elapsed_since(start))
