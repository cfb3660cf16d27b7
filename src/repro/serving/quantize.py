"""Weight quantization for the cold-path packed forward.

The serving forward is memory-bound at cold-path batch sizes: every conv
layer streams a ``(3·d_in, d_out)`` float32 weight matrix through the
cache per bucket.  Quantizing the snapshot to float16 halves that traffic
(and the registry-shipping footprint of a fleet promote) at the price of
bounded weight round-off — which is why the quantized path only ever
serves behind an rtol *gate*: at snapshot-build time the packed-quantized
forward is compared against the float32 reference on a deterministic
calibration batch, and a failing gate falls back bitwise to the reference
weights (see ``_WeightSnapshot`` in :mod:`repro.serving.service`).

The storage is plain float16 rounding (~5e-4 relative weight error, no
scales needed).  It keeps a float32 *compute copy* (numpy's half GEMMs
are slower than sgemm, so the win is storage/traffic plus the packing
layout, not the arithmetic dtype), dequantized once per
``weights_version``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizedMatrix",
    "quantize_matrix",
    "split_conv_weight",
]


@dataclass(frozen=True)
class QuantizedMatrix:
    """One weight matrix in quantized storage plus its float32 compute copy.

    ``stored`` is the low-precision float16 array; ``compute`` is the
    dequantized float32 (or serving-dtype) array the forward actually
    multiplies with.  ``compute`` is exactly ``dequantize(stored)``, so
    predictions reflect the quantization error the gate measured — there
    is no hidden full-precision path.
    """

    stored: np.ndarray
    compute: np.ndarray

    @property
    def stored_nbytes(self) -> int:
        return self.stored.nbytes

    def max_weight_rel_err(self, reference: np.ndarray) -> float:
        """Worst relative round-off the quantization introduced, measured
        against the matrix norm (per-element relative error is meaningless
        for near-zero weights)."""
        denom = float(np.max(np.abs(reference)))
        if denom == 0.0:
            return 0.0
        return float(np.max(np.abs(self.compute.astype(np.float64) - reference))) / denom


def quantize_matrix(weight: np.ndarray, *, compute_dtype=np.float32) -> QuantizedMatrix:
    """Quantize one ``(d_in, d_out)`` weight matrix to float16 storage.

    Non-finite weights are quantized as-is (float16 keeps inf/nan) — the
    downstream rtol gate is what rejects them.
    """
    weight = np.asarray(weight, dtype=np.float64)
    # Out-of-range weights overflow to inf here by design; the gate's
    # isfinite check is the rejection path, so the cast warning is noise.
    with np.errstate(over="ignore"):
        stored = weight.astype(np.float16)
    compute = np.ascontiguousarray(stored, dtype=compute_dtype)
    return QuantizedMatrix(stored=stored, compute=compute)


def split_conv_weight(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a tree-conv weight ``(3·d_in, d_out)`` into contiguous
    (self, left, right) blocks.

    The training layout concatenates ``(x, x[left], x[right])`` features
    before one GEMM; the packed forward instead computes
    ``x@W_self + x_left@W_left + x_right@W_right``, which drops the
    per-layer ``(batch, nodes, 3·d_in)`` concatenation allocation — the
    dominant cold-path forward cost at candidate-set batch sizes.
    """
    rows = weight.shape[0]
    if rows % 3 != 0:
        raise ValueError(f"tree-conv weight rows must be divisible by 3, got {rows}")
    d = rows // 3
    return (
        np.ascontiguousarray(weight[:d]),
        np.ascontiguousarray(weight[d : 2 * d]),
        np.ascontiguousarray(weight[2 * d :]),
    )
