"""Batched, cached online plan-cost inference (the serving fast path).

``AdaptiveCostPredictor.predict`` is correct but built for training-time
ergonomics: it re-encodes every node in Python, pads every plan in the
request to the largest plan's size, and runs the forward pass through the
autodiff ``Tensor`` machinery even though no gradient is ever needed.
Online steering calls it in the query optimizer's latency budget, often on
plans it scored moments earlier under a different environment block.

:class:`CostInferenceService` keeps outputs identical (within float32
round-off when ``dtype=float32``) while removing all of those costs:

1. **encode-once + env splice** — base encodings are cached in an LRU keyed
   by :func:`~repro.serving.fingerprint.plan_fingerprint`; the 4-wide
   environment block is spliced into the assembled batch via
   ``PlanEncoder.env_slice``, so re-scoring the same plan under a new
   environment never re-encodes the tree;
2. **vectorized + memoized encoding** — cache misses go through the
   preallocating ``PlanEncoder.encode_plan`` fast path, reusing the plan
   fingerprint's per-node keys to memoize structural feature rows (candidate
   sets of one query share most of their scan/aggregate nodes);
3. **parallel encoding** — a request whose encode-miss set reaches
   ``parallel_encode_threshold`` plans fans the encoding out across CPU
   cores through :mod:`repro.evaluation.parallel`'s fork pool, with a
   serial fallback below the threshold (or on one core / without fork);
4. **size-bucketed micro-batching** — plans are grouped by node count
   (``TreeBatch.bucket_indices``) so one 40-node plan does not pad every
   5-node plan in the batch to 41 rows; batch buffers are float32 and
   reused across requests to halve memory traffic;
5. **packed inference forward** — a raw-numpy mirror of
   ``TreeConvEncoder``/``_PredictiveModule`` with per-layer weights split
   into contiguous (self, left, right) blocks so the per-layer
   ``(batch, nodes, 3·dim)`` concatenation disappears, all intermediates
   drawn from a reusable buffer arena, and every GEMM collapsed to 2-D;
6. **gated weight quantization** — with ``quantize=`` set, the packed
   weights are stored float16/int8 (per-channel scales) and rebuilt once
   per ``weights_version`` inside ``_WeightSnapshot.refresh``; an rtol
   gate against the float32 reference on a deterministic calibration
   batch decides at build/swap time whether the quantized pack serves —
   a failing gate falls back *bitwise* to the reference weights.

A second-tier prediction cache short-circuits exact repeats (same plan
fingerprint, same environment override) without a forward pass;
:meth:`CostInferenceService.cached_predict` exposes it as an
all-or-nothing lookup a concurrent front end can answer warm requests
with before queueing them, and
:meth:`CostInferenceService.swap_predictor` accepts a post-swap warming
list (the lifecycle feeds it the feedback log's hottest plans) so a model
promote never serves a cold burst.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.core.encoding import _NEUTRAL_ENV, EncodedPlan
from repro.nn.tree_conv import TreeBatch
from repro.serving.cache import EncodingCache, PredictionCache
from repro.serving.fingerprint import plan_fingerprint, plan_nodes
from repro.obs.trace import traced_section
from repro.serving.quantize import quantize_matrix, split_conv_weight
from repro.warehouse.plan import PhysicalPlan

__all__ = ["CostInferenceService", "ServingStats"]

Env = "tuple[float, float, float, float]"

#: Base encodings are cached with a zeroed environment block; the real block
#: is spliced in at batch-assembly time.
_ZERO_ENV = (0.0, 0.0, 0.0, 0.0)

#: Seed for the deterministic calibration batch the quantization gate runs.
_CALIBRATION_SEED = 0xC01D


@dataclass(frozen=True)
class ServingStats:
    """A point-in-time snapshot of the service's counters."""

    requests: int
    plans_scored: int
    batches: int
    encode_hits: int
    encode_misses: int
    encode_evictions: int
    prediction_hits: int
    prediction_misses: int
    prediction_evictions: int
    total_seconds: float
    p50_latency_ms: float
    p99_latency_ms: float
    #: Cold-path attribution: seconds spent encoding (cache probes + node
    #: encoding, serial or parallel), in the bucketed batch assembly +
    #: forward, and building/gating packed (possibly quantized) weights.
    encode_seconds: float = 0.0
    forward_seconds: float = 0.0
    quantize_seconds: float = 0.0
    #: Requests whose encode-miss set went through the fork pool.
    parallel_encode_batches: int = 0
    #: Plans pushed through :meth:`CostInferenceService.warm_caches` (the
    #: post-swap warming pass).
    warmed_plans: int = 0
    #: Whether the quantized weight pack is serving (False: quantization
    #: disabled, or the rtol gate rejected it and the float32 reference
    #: weights serve instead).
    quantized_active: bool = False
    #: Worst relative error the quantization gate measured on its
    #: calibration batch (0.0 when quantization is disabled).
    quantize_gate_rel_err: float = 0.0

    @property
    def encode_hit_rate(self) -> float:
        total = self.encode_hits + self.encode_misses
        return self.encode_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "plans_scored": self.plans_scored,
            "batches": self.batches,
            "encode_hits": self.encode_hits,
            "encode_misses": self.encode_misses,
            "encode_evictions": self.encode_evictions,
            "encode_hit_rate": self.encode_hit_rate,
            "prediction_hits": self.prediction_hits,
            "prediction_misses": self.prediction_misses,
            "prediction_evictions": self.prediction_evictions,
            "total_seconds": self.total_seconds,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "encode_seconds": self.encode_seconds,
            "forward_seconds": self.forward_seconds,
            "quantize_seconds": self.quantize_seconds,
            "parallel_encode_batches": self.parallel_encode_batches,
            "warmed_plans": self.warmed_plans,
            "quantized_active": self.quantized_active,
            "quantize_gate_rel_err": self.quantize_gate_rel_err,
        }


class _PackedWeights:
    """The forward pass's view of one weight set: conv layers split into
    contiguous (self, left, right) blocks plus the head matrices, all in
    the serving dtype.  Built from either the float32 reference snapshot
    or its quantized storage (see ``_WeightSnapshot.refresh``)."""

    __slots__ = ("conv", "fc_w", "fc_b", "cost_w", "cost_b", "node_w", "node_b")

    def __init__(self, conv, fc_w, fc_b, cost_w, cost_b, node_w, node_b) -> None:
        self.conv = conv  # [(w3 (3, d_in, d_out), wflat (3*d_in, d_out) view, bias), ...]
        self.fc_w = fc_w
        self.fc_b = fc_b
        self.cost_w = cost_w
        self.cost_b = cost_b
        self.node_w = node_w
        self.node_b = node_b


class _WeightSnapshot:
    """Flat numpy copies of the trained module's parameters in serving dtype,
    plus the packed (optionally quantized, rtol-gated) forward weights."""

    def __init__(self, module, dtype: np.dtype, *, quantize: str | None = None,
                 quantize_rtol: float = 1e-3) -> None:
        self.version: int | None = None
        self.dtype = dtype
        self.quantize_mode = quantize
        self.quantize_rtol = quantize_rtol
        self.quantized_active = False
        self.gate_rel_err = 0.0
        self.pack_seconds = 0.0
        self.stored_weight_bytes = 0
        self.refresh(module)

    def refresh(self, module) -> None:
        dtype = self.dtype
        emb = module.plan_emb
        self.conv = [
            (layer.weight.data.astype(dtype), layer.bias.data.astype(dtype))
            for layer in emb.conv_layers
        ]
        self.fc_w = emb.fc.weight.data.astype(dtype)
        self.fc_b = emb.fc.bias.data.astype(dtype)
        self.pooling = emb.pooling
        self.cost_head = module.config.cost_head
        self.cost_w = module.cost_pred.weight.data.astype(dtype)
        self.cost_b = module.cost_pred.bias.data.astype(dtype)
        self.node_w = module.node_head.weight.data.astype(dtype)
        self.node_b = module.node_head.bias.data.astype(dtype)
        self.scale = float(np.exp(module.log_scale.data[0]))
        self.log_mean = module._log_mean
        self.log_std = module._log_std
        self._build_packed(module)

    # -- packing + quantization gate ------------------------------------------

    def _build_packed(self, module) -> None:
        """Pack the conv/head weights for the fast forward; when quantizing,
        gate the quantized pack against the float32 reference pack and fall
        back bitwise to the reference weights if it fails."""
        started = time.perf_counter()
        with traced_section("serving.quantize", mode=self.quantize_mode):
            reference = self._pack(None, module)
            self.packed = reference
            self.quantized_active = False
            self.gate_rel_err = 0.0
            self.stored_weight_bytes = sum(
                w3.nbytes + bias.nbytes for w3, _wflat, bias in reference.conv
            ) + sum(m.nbytes for m in (reference.fc_w, reference.cost_w, reference.node_w))
            if self.quantize_mode is not None:
                quantized, stored_bytes = self._pack(self.quantize_mode, module)
                ok, rel_err = self._gate(reference, quantized)
                self.gate_rel_err = rel_err
                if ok:
                    self.packed = quantized
                    self.quantized_active = True
                    self.stored_weight_bytes = stored_bytes
        self.pack_seconds = time.perf_counter() - started

    def _pack(self, mode: str | None, module):
        """One packed weight set.  ``mode=None`` packs the full-precision
        reference; otherwise weights are round-tripped through float16/int8
        storage first, and the second return value is the storage footprint."""
        dtype = self.dtype
        stored_bytes = 0

        def matrix(raw: np.ndarray) -> np.ndarray:
            nonlocal stored_bytes
            if mode is None:
                return np.ascontiguousarray(raw, dtype=dtype)
            q = quantize_matrix(raw, mode, compute_dtype=dtype)
            stored_bytes += q.stored_nbytes
            return q.compute

        conv = []
        for layer in module.plan_emb.conv_layers:
            # Stacked (3, d_in, d_out) plus its flat (3*d_in, d_out) view:
            # with the interleaved gather laying out [self_i, left_i,
            # right_i] per node row, one plain GEMM against the flat view
            # computes all three contributions *and* their sum.
            w3 = np.ascontiguousarray(np.stack(split_conv_weight(matrix(layer.weight.data))))
            wflat = w3.reshape(3 * w3.shape[1], w3.shape[2])
            conv.append((w3, wflat, layer.bias.data.astype(dtype)))
        packed = _PackedWeights(
            conv,
            matrix(module.plan_emb.fc.weight.data),
            self.fc_b,
            matrix(module.cost_pred.weight.data),
            self.cost_b,
            matrix(module.node_head.weight.data),
            self.node_b,
        )
        return packed if mode is None else (packed, stored_bytes)

    def _gate(self, reference: _PackedWeights, quantized: _PackedWeights):
        """rtol check of the quantized pack against the reference pack on a
        deterministic synthetic calibration batch (uniform features, random
        valid child pointers, varying tree sizes)."""
        d_in = reference.conv[0][0].shape[1]  # w3 is stacked (3, d_in, d_out)
        rng = np.random.default_rng(_CALIBRATION_SEED)
        batch, padded = 8, 12
        rows = padded + 1
        features = np.zeros((batch, rows, d_in), dtype=self.dtype)
        left = np.zeros((batch, rows), dtype=np.int64)
        right = np.zeros((batch, rows), dtype=np.int64)
        mask = np.zeros((batch, rows, 1), dtype=self.dtype)
        for b in range(batch):
            n = 3 + (b % (padded - 3))
            features[b, 1 : n + 1] = rng.random((n, d_in), dtype=np.float32)
            left[b, 1 : n + 1] = rng.integers(0, n + 1, size=n)
            right[b, 1 : n + 1] = rng.integers(0, n + 1, size=n)
            mask[b, 1 : n + 1, 0] = 1.0
        pool = _BufferPool()
        want = _packed_forward(features, left, right, mask, self, pool, packed=reference)
        # Corrupted/overflowed quantized weights propagate non-finite values
        # through this forward by design — the isfinite check below is the
        # rejection, so numpy's warnings are noise here.
        with np.errstate(all="ignore"):
            got = _packed_forward(features, left, right, mask, self, pool, packed=quantized)
        if not np.all(np.isfinite(got)):
            return False, float("inf")
        denom = np.maximum(np.abs(want), 1e-9 * (1.0 + float(np.max(np.abs(want)))))
        rel_err = float(np.max(np.abs(got - want) / denom))
        return rel_err <= self.quantize_rtol, rel_err


class _BufferPool:
    """Reusable batch buffers keyed by (shape, dtype, tag).

    Every bucket of a steady-state serving workload hits the same handful of
    (batch, padded-nodes, dim) shapes; reusing their buffers avoids an
    allocate-and-fault cycle per request.  Single-threaded use only (a buffer
    is recycled as soon as the next request asks for its shape).
    """

    def __init__(self, max_entries: int = 64) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self._max_entries = max_entries

    def _get(self, shape: tuple[int, ...], dtype, tag: str) -> np.ndarray:
        # ``tag`` separates same-shaped buffers that must coexist in one
        # request (left vs right child indices would otherwise alias).
        key = (shape, dtype, tag)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            if len(self._buffers) < self._max_entries:
                self._buffers[key] = buf
        return buf

    def zeros(self, shape: tuple[int, ...], dtype, tag: str = "") -> np.ndarray:
        buf = self._get(shape, dtype, tag)
        buf.fill(0)
        return buf

    def empty(self, shape: tuple[int, ...], dtype, tag: str = "") -> np.ndarray:
        """Like :meth:`zeros` but without the fill — for buffers that are
        fully overwritten (GEMM ``out=``, gathers) before being read."""
        return self._get(shape, dtype, tag)


class _BucketEntry:
    """One cached padded-batch assembly (see ``CostInferenceService.
    _bucket_cache``): the zero-env base features, mask, combined gather
    index, and real-child indicators of a bucket, plus the lazily built
    layer-1 pre-activation ``h1_base = base_cat @ W1`` for the env-linear
    first-layer fast path.  ``h1_packed`` records which packed weight set
    ``h1_base`` was computed against, so a weight refresh or quantization
    flip invalidates it by identity."""

    __slots__ = (
        "features", "mask", "gather_idx", "child_ind", "real_rows",
        "gather_real", "seg_starts", "h1_base", "h1_packed", "sweep",
    )

    def __init__(
        self, features, mask, gather_idx, child_ind, real_rows, gather_real, seg_starts
    ) -> None:
        self.features = features
        self.mask = mask
        self.gather_idx = gather_idx
        # (nodes, 3) columns [mask, has_left, has_right]: one matvec with
        # the environment's per-block weight contribution reconstitutes the
        # env part of layer 1 for every row.
        self.child_ind = child_ind
        # Real (non-sentinel, non-padding) flat row indices, the interleaved
        # gather restricted to them, and each tree's first position within
        # the real-row order — lets the widest GEMMs and the node head run
        # on real rows only, skipping padding work entirely.
        self.real_rows = real_rows
        self.gather_real = gather_real
        self.seg_starts = seg_starts
        self.h1_base: np.ndarray | None = None  # bias included, padding rows pre-masked to zero
        self.h1_packed: _PackedWeights | None = None
        # Weight-agnostic structural tiles for the environment-sweep
        # forward, keyed by sweep width (see ``_forward_sweep``).
        self.sweep: dict[int, tuple] = {}


def _encode_chunk_task(encoder, plans, *, seed: int = 0):
    """Fork-pool task: encode one chunk of plans with a zeroed environment
    block (the serving base encoding).  Runs in a worker process; returns
    plain arrays so the parent rebuilds ``EncodedPlan``s without sharing
    state with the child."""
    del seed  # deterministic; required by the EvalTask calling convention
    out = []
    for plan in plans:
        encoded = encoder.encode_plan(
            plan, env_override=_ZERO_ENV, node_keys=plan_fingerprint(plan)
        )
        out.append((encoded.features, encoded.left, encoded.right))
    return out


def _combined_gather_index(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Flat row indices for one interleaved self/left/right gather.

    Child row r of tree b lives at row ``b*rows + r`` of the 2-D node view
    (the sentinel row 0 of each tree holds zeros, so absent children
    contribute nothing).  Entries are interleaved per node — ``[self_i,
    left_i, right_i]`` — so the gathered ``(3n, d_in)`` block reshapes to
    ``(n, 3*d_in)`` rows of concatenated self/left/right features, and one
    plain GEMM against the flat ``(3*d_in, d_out)`` weight view computes
    the three contributions and their sum in a single call.  The index
    survives reuse across requests because it depends only on tree
    structure, not features."""
    batch, rows = left.shape
    n = batch * rows
    idx = np.empty((n, 3), dtype=np.int64)
    idx[:, 0] = np.arange(n, dtype=np.int64)
    offsets = np.arange(batch, dtype=np.int64)[:, None] * rows
    idx[:, 1] = (left + offsets).reshape(-1)
    idx[:, 2] = (right + offsets).reshape(-1)
    return idx.reshape(-1)


def _packed_forward(
    features: np.ndarray,
    left: np.ndarray | None,
    right: np.ndarray | None,
    mask: np.ndarray,
    snapshot: _WeightSnapshot,
    pool: _BufferPool,
    *,
    packed: _PackedWeights | None = None,
    gather_idx: np.ndarray | None = None,
    layer1: tuple | None = None,
) -> np.ndarray:
    """Raw-numpy inference forward over packed weights: no ``Tensor``
    wrappers, no autodiff bookkeeping, no per-layer concatenation — each
    conv layer is one interleaved self/left/right gather plus one plain
    ``(nodes, 3*d_in) @ (3*d_in, d_out)`` GEMM (the flat weight view makes
    the GEMM compute the three contributions and their sum at once), into
    arena buffers, with in-place bias/ReLU/mask.  At cold-path bucket sizes
    the arrays are tiny and Python-level numpy-call count is the real cost,
    so the layer body is exactly five calls.

    ``gather_idx`` may carry a precomputed :func:`_combined_gather_index`
    (the bucket-assembly cache reuses it across requests); otherwise it is
    derived from ``left``/``right`` here.

    ``layer1`` optionally carries ``(h1_base, ce, child_ind)``: the first
    conv layer is linear before its ReLU, so with a request-level
    environment its output splits into a structure-only pre-activation
    (``h1_base``, bias included and pre-masked, cached per bucket) plus the
    environment's per-block weight contribution ``ce`` applied through the
    child indicators (one ``(nodes, 3) @ (3, d_out)`` matvec, see
    ``_forward_bucket``).  That replaces the widest gather and GEMM of the
    forward — the full input encoding width — with three ops on the first
    hidden width."""
    if packed is None:
        packed = snapshot.packed
    batch, rows, dim = features.shape
    dtype = features.dtype
    n = batch * rows
    mask2 = mask.reshape(n, 1)
    if gather_idx is None:
        gather_idx = _combined_gather_index(left, right)

    conv = packed.conv
    first = 0
    if layer1 is not None:
        # ``h1_base`` is pre-masked and ``child_ind`` carries the mask in
        # its self column, so padding rows come out exactly zero without a
        # separate mask multiply.
        h1_base, ce, child_ind = layer1
        h = pool.empty((n, ce.shape[1]), dtype, "conv0:h")
        np.matmul(child_ind, ce, out=h)
        h += h1_base
        np.maximum(h, 0.0, out=h)
        x2 = h
        first = 1
    else:
        x2 = features.reshape(n, dim)
    for li in range(first, len(conv)):
        _w3, wflat, bias = conv[li]
        d_in, d_out = x2.shape[1], wflat.shape[1]
        gathered = pool.empty((3 * n, d_in), dtype, f"conv{li}:g")
        x2.take(gather_idx, axis=0, out=gathered)
        h = pool.empty((n, d_out), dtype, f"conv{li}:h")
        np.matmul(gathered.reshape(n, 3 * d_in), wflat, out=h)
        h += bias
        np.maximum(h, 0.0, out=h)
        h *= mask2  # hold sentinel and padding rows at zero
        x2 = h

    if snapshot.cost_head == "pooled":
        x = x2.reshape(batch, rows, -1)
        max_pool = x.max(axis=1)
        if snapshot.pooling == "max":
            pooled = max_pool
        else:
            counts = np.maximum(mask.sum(axis=1), 1.0)
            mean_pool = x.sum(axis=1) / counts
            size_feature = np.log1p(counts) / math.log(64.0)
            pooled = np.concatenate((max_pool, mean_pool, size_feature), axis=-1)
        embedding = pooled @ packed.fc_w + packed.fc_b
        np.maximum(embedding, 0.0, out=embedding)
        z = (embedding @ packed.cost_w + packed.cost_b).reshape(-1)
        predicted = np.expm1(z.astype(np.float64) * snapshot.log_std + snapshot.log_mean)
        return np.maximum(predicted, 0.0)

    # node_sum head: per-node softplus contributions, masked and summed.
    # The z round-trip below is analytically the identity
    # (``expm1(log1p(cost)) == cost``) but is kept on purpose: rounding z
    # through the serving dtype snaps predictions onto a grid coarse enough
    # to absorb the last-ulp differences different bucket compositions
    # introduce (padding changes pairwise-summation order), which is what
    # keeps e.g. warmed cache entries bitwise equal to fresh predictions.
    contributions = pool.empty((batch * rows, 1), dtype, "node:z")
    np.matmul(x2, packed.node_w, out=contributions)
    contributions += packed.node_b
    np.logaddexp(0.0, contributions, out=contributions)
    # Masked per-tree sum as one batched dot: padding rows carry
    # softplus(bias) but their mask entry is zero.
    total = np.matmul(
        mask.reshape(batch, 1, rows), contributions.reshape(batch, rows, 1)
    ).reshape(batch)
    cost = total * snapshot.scale
    z = (np.log1p(cost) - snapshot.log_mean) / snapshot.log_std
    predicted = np.expm1(z.astype(np.float64) * snapshot.log_std + snapshot.log_mean)
    return np.maximum(predicted, 0.0)


class CostInferenceService:
    """Online plan-cost scoring with caching, bucketing, and a no-autodiff
    packed forward pass.  Semantics match ``AdaptiveCostPredictor.predict``
    (exactly with ``quantize=None``; within the quantization gate's rtol
    otherwise).

    ``predictor`` is duck-typed: it must expose ``encoder``, ``module``,
    ``config`` and (optionally) a ``weights_version`` counter bumped on
    refit, which invalidates the weight snapshot and prediction cache.

    ``quantize`` selects the weight-storage mode for the packed forward:
    ``None``/``False`` disables it, ``True`` means ``"float16"``, or pass
    ``"float16"``/``"int8"`` explicitly.  The quantized pack only serves if
    it passes an rtol gate (``quantize_rtol``) against the float32
    reference at snapshot-build time; otherwise the reference weights
    serve, bitwise identical to an unquantized service.

    ``parallel_encode_threshold`` sets the request size at which encode
    cache misses fan out across ``encode_processes`` workers via the
    evaluation fork pool (serial below it, or when only one worker
    resolves).

    Caveat: base encodings are cached by *structural* fingerprint.  When
    ``env_features=None`` the per-node logged environments are read fresh
    from the plan on every request (so mutation of ``node.env`` is safe),
    but mutating any other encoder-visible attribute of a previously scored
    plan requires :meth:`clear_caches`.
    """

    def __init__(
        self,
        predictor,
        *,
        encoding_cache_size: int = 1024,
        prediction_cache_size: int = 4096,
        dtype=np.float32,
        max_batch: int = 256,
        small_request_threshold: int = 8,
        enable_prediction_cache: bool = True,
        latency_window: int = 2048,
        quantize: str | bool | None = None,
        quantize_rtol: float = 1e-3,
        parallel_encode_threshold: int = 64,
        encode_processes: int | None = None,
    ) -> None:
        self.predictor = predictor
        self.encoder = predictor.encoder
        self.dtype = np.dtype(dtype)
        self.max_batch = max_batch
        self.small_request_threshold = small_request_threshold
        if quantize is True:
            quantize = "float16"
        elif quantize is False:
            quantize = None
        self.quantize_mode: str | None = quantize
        self.quantize_rtol = quantize_rtol
        self.parallel_encode_threshold = parallel_encode_threshold
        self.encode_processes = encode_processes
        #: Representative environment restored by :meth:`from_checkpoint`
        #: (``None`` when constructed directly or the checkpoint had none).
        self.environment_features: tuple[float, float, float, float] | None = None
        self.encoding_cache = EncodingCache(encoding_cache_size)
        self.prediction_cache = PredictionCache(prediction_cache_size)
        self.enable_prediction_cache = enable_prediction_cache
        self._buffers = _BufferPool()
        # Assembled padded batches (features/mask/gather index) keyed by the
        # bucket's fingerprint tuple: the env-sweep pattern scores the same
        # candidate set under several environments back to back, and only the
        # environment block differs between those forwards.  Entries are
        # env-spliced in place per request; cleared with the encoding cache.
        self._bucket_cache: "OrderedDict[tuple, _BucketEntry]" = OrderedDict()
        self._bucket_cache_cap = 128
        # Per-environment layer-1 weight contributions (weight-scoped, not
        # plan-scoped: validated against the live pack by identity, so a
        # weight refresh or swap naturally invalidates entries).
        self._ce_cache: dict[tuple, tuple] = {}
        self._snapshot: _WeightSnapshot | None = None
        self._batch_count = 0
        self._request_count = 0
        self._plans_scored = 0
        self._prediction_misses = 0
        self._total_seconds = 0.0
        self._encode_seconds = 0.0
        self._forward_seconds = 0.0
        self._quantize_seconds = 0.0
        self._parallel_encode_batches = 0
        self._warmed_plans = 0
        self._latencies: deque[float] = deque(maxlen=latency_window)

    @classmethod
    def from_checkpoint(cls, path, **kwargs) -> "CostInferenceService":
        """Build a service straight from a registry checkpoint (the fleet
        workers' boot path).  ``kwargs`` are the constructor's; the
        checkpoint's stored representative environment, if any, is exposed
        as ``service.environment_features``."""
        from repro.core.serialization import load_predictor

        predictor, env = load_predictor(path)
        service = cls(predictor, **kwargs)
        service.environment_features = env
        return service

    # -- public API -----------------------------------------------------------

    def predict(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> np.ndarray:
        """Predicted CPU cost per plan; same contract as the predictor's
        ``predict`` (``env_features=None`` uses each node's logged stage
        environment)."""
        started = time.perf_counter()
        out = np.zeros(len(plans))
        if not plans:
            return out
        if not getattr(self.predictor.config, "use_environment", True):
            env_features = _ZERO_ENV
        env_key = tuple(float(v) for v in env_features) if env_features is not None else None

        snapshot = self._current_snapshot()
        fingerprints = [plan_fingerprint(p) for p in plans]
        use_pred_cache = self.enable_prediction_cache and env_key is not None

        pending: list[int] = []
        for i, fp in enumerate(fingerprints):
            if use_pred_cache:
                cached = self.prediction_cache.get((fp, env_key))
                if cached is not None:
                    out[i] = cached
                    continue
            pending.append(i)
        self._prediction_misses += len(pending)

        if pending:
            pending_fps = [fingerprints[i] for i in pending]
            pending_plans = [plans[i] for i in pending]
            # A fingerprint has one node key per plan node, so bucketing
            # needs no encodings at all — and when every bucket hits the
            # assembly cache the encode step is skipped entirely.
            n_nodes = [len(fp) for fp in pending_fps]
            # Bucketing pays off when a large batch mixes sizes; for a small
            # request (one query's candidate set) the fixed per-forward cost
            # of extra buckets outweighs the padding it saves.  The small
            # case is also the latency-critical one, so it skips the bucket
            # regrouping (and its per-member list rebuilds) entirely.
            if len(pending) <= self.small_request_threshold:
                key = (tuple(pending_fps), max(n_nodes))
                encoded: list[EncodedPlan] | None = None
                if key not in self._bucket_cache:
                    encode_started = time.perf_counter()
                    with traced_section("serving.encode", n_plans=len(pending)):
                        encoded = self._encode_pending(pending_plans, pending_fps)
                    self._encode_seconds += time.perf_counter() - encode_started
                with traced_section("serving.forward", n_plans=len(pending)):
                    batch_out = self._forward_bucket(
                        key, encoded, pending_plans, pending_fps, env_key, snapshot
                    )
                out[pending] = batch_out
                if use_pred_cache:
                    put = self.prediction_cache.put
                    for fp, value in zip(pending_fps, batch_out):
                        put((fp, env_key), float(value))
            else:
                buckets = TreeBatch.bucket_indices(n_nodes, max_batch=self.max_batch)
                keys = [
                    (tuple(pending_fps[m] for m in members), padded)
                    for padded, members in buckets
                ]
                encoded = None
                if any(k not in self._bucket_cache for k in keys):
                    encode_started = time.perf_counter()
                    with traced_section("serving.encode", n_plans=len(pending)):
                        encoded = self._encode_pending(pending_plans, pending_fps)
                    self._encode_seconds += time.perf_counter() - encode_started
                with traced_section(
                    "serving.forward", n_plans=len(pending), n_buckets=len(buckets)
                ):
                    for (padded, members), key in zip(buckets, keys):
                        batch_out = self._forward_bucket(
                            key,
                            None if encoded is None else [encoded[m] for m in members],
                            [pending_plans[m] for m in members],
                            [pending_fps[m] for m in members],
                            env_key,
                            snapshot,
                        )
                        for m, value in zip(members, batch_out):
                            i = pending[m]
                            out[i] = value
                            if use_pred_cache:
                                self.prediction_cache.put(
                                    (fingerprints[i], env_key), float(value)
                                )

        self._count_request(len(plans), started)
        return out

    def cached_predict(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None,
    ) -> np.ndarray | None:
        """:meth:`predict`'s answer when the prediction cache holds every
        plan under ``env_features``, else ``None`` — all or nothing, with
        no encode or forward work either way.

        The weights version is validated first, so a swapped or refitted
        model never answers from its predecessor's cache.  A full hit is
        accounted exactly as :meth:`predict` would account it; a partial
        hit touches no counter, leaving the follow-up :meth:`predict` to
        count its hits and misses once.  Lets a concurrent front end (the
        gateway) answer warm requests on the caller's thread."""
        if (
            not plans
            or env_features is None
            or not self.enable_prediction_cache
            or not len(self.prediction_cache)
        ):
            return None
        started = time.perf_counter()
        if not getattr(self.predictor.config, "use_environment", True):
            env_key = _ZERO_ENV
        else:
            env_key = tuple(float(v) for v in env_features)
        self._current_snapshot()  # a version bump clears the cache here
        values = self.prediction_cache.get_all(
            [(plan_fingerprint(p), env_key) for p in plans]
        )
        if values is None:
            return None
        self._count_request(len(plans), started)
        return np.array(values, dtype=np.float64)

    def predict_sweep(
        self,
        plans: list[PhysicalPlan],
        env_sweep,
    ) -> np.ndarray:
        """Score every plan under every environment of ``env_sweep`` in one
        request — the steering pattern, where one candidate set is
        evaluated under several environment strategies at once.

        Returns shape ``(len(env_sweep), len(plans))``, row ``e`` equal to
        ``predict(plans, env_features=env_sweep[e])``.  The whole sweep
        shares one fingerprint pass, one bucket assembly, and one batched
        forward: the env-linear first layer expands to every environment
        with a single ``(nodes, 3) @ (3, S*d)`` GEMM, and deeper layers run
        on an environment-tiled batch (see ``_forward_sweep``).  Request-
        level environment vectors only; per-node logged environments
        (``env_features=None``) have no sweep form.
        """
        started = time.perf_counter()
        envs = [tuple(float(v) for v in env) for env in env_sweep]
        n_plans = len(plans)
        out = np.zeros((len(envs), n_plans))
        if not plans or not envs:
            return out
        if not getattr(self.predictor.config, "use_environment", True):
            envs = [_ZERO_ENV for _ in envs]
        snapshot = self._current_snapshot()
        # Wide requests, pooled-head models, and single-conv-layer models
        # (whose env-linear layer 1 is already the final embedding) take the
        # per-request path; the sweep fast path targets one candidate set.
        if (
            n_plans > self.small_request_threshold
            or snapshot.cost_head == "pooled"
            or len(snapshot.packed.conv) < 2
        ):
            for e, env in enumerate(envs):
                out[e] = self.predict(plans, env_features=env)
            return out

        fingerprints = [plan_fingerprint(p) for p in plans]
        use_pred_cache = self.enable_prediction_cache
        misses = 0
        if use_pred_cache and not len(self.prediction_cache):
            misses = len(envs) * n_plans
        elif use_pred_cache:
            get = self.prediction_cache.get
            for e, env in enumerate(envs):
                row = out[e]
                for i, fp in enumerate(fingerprints):
                    cached = get((fp, env))
                    if cached is None:
                        misses += 1
                    else:
                        row[i] = cached
        else:
            misses = len(envs) * n_plans
        if misses:
            self._prediction_misses += misses
            key = (tuple(fingerprints), max(len(fp) for fp in fingerprints))
            encoded: list[EncodedPlan] | None = None
            if key not in self._bucket_cache:
                encode_started = time.perf_counter()
                with traced_section("serving.encode", n_plans=n_plans):
                    encoded = self._encode_pending(list(plans), fingerprints)
                self._encode_seconds += time.perf_counter() - encode_started
            # Recompute the full sweep even on partial hits: the serving-
            # dtype z snap keeps recomputed values within float32 round-off
            # of cached ones (and the put below re-caches the sweep's), and
            # one batched forward beats per-miss bookkeeping at sweep sizes.
            with traced_section("serving.forward", n_plans=n_plans, n_envs=len(envs)):
                values = self._forward_sweep(key, encoded, envs, snapshot)
            out[:] = values
            if use_pred_cache:
                put = self.prediction_cache.put
                for e, env in enumerate(envs):
                    row = values[e]
                    for i, fp in enumerate(fingerprints):
                        put((fp, env), float(row[i]))
        self._count_request(len(envs) * n_plans, started)
        return out

    def select_best(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> tuple[PhysicalPlan, np.ndarray]:
        """The steering decision: the candidate with least predicted cost."""
        index, predictions = self.select_best_index(plans, env_features=env_features)
        return plans[index], predictions

    def select_best_index(
        self,
        plans: list[PhysicalPlan],
        *,
        env_features: tuple[float, float, float, float] | None = None,
    ) -> tuple[int, np.ndarray]:
        """Like :meth:`select_best` but returns the winning index (what the
        figure benchmarks tabulate)."""
        if not plans:
            raise ValueError("select_best on an empty candidate list")
        predictions = self.predict(plans, env_features=env_features)
        return int(np.argmin(predictions)), predictions

    def stats(self) -> ServingStats:
        latencies = sorted(self._latencies)
        p50 = p99 = 0.0
        if latencies:
            p50 = 1e3 * latencies[int(0.50 * (len(latencies) - 1))]
            p99 = 1e3 * latencies[int(0.99 * (len(latencies) - 1))]
        snapshot = self._snapshot
        return ServingStats(
            requests=self._request_count,
            plans_scored=self._plans_scored,
            batches=self._batch_count,
            encode_hits=self.encoding_cache.hits,
            encode_misses=self.encoding_cache.misses,
            encode_evictions=self.encoding_cache.evictions,
            prediction_hits=self.prediction_cache.hits,
            prediction_misses=self._prediction_misses,
            prediction_evictions=self.prediction_cache.evictions,
            total_seconds=self._total_seconds,
            p50_latency_ms=p50,
            p99_latency_ms=p99,
            encode_seconds=self._encode_seconds,
            forward_seconds=self._forward_seconds,
            quantize_seconds=self._quantize_seconds,
            parallel_encode_batches=self._parallel_encode_batches,
            warmed_plans=self._warmed_plans,
            quantized_active=bool(snapshot.quantized_active) if snapshot else False,
            quantize_gate_rel_err=float(snapshot.gate_rel_err) if snapshot else 0.0,
        )

    def cache_counters(self) -> dict[str, float]:
        """Flat counters/gauges for both cache tiers plus the cold-path
        timing attribution, in the shape the gateway publishes as
        ``serving_*`` telemetry gauges (the caches and timings were
        otherwise observable only through :meth:`stats`)."""
        snapshot = self._snapshot
        return {
            "encoding_cache_hits": self.encoding_cache.hits,
            "encoding_cache_misses": self.encoding_cache.misses,
            "encoding_cache_evictions": self.encoding_cache.evictions,
            "encoding_cache_size": len(self.encoding_cache),
            "encoding_cache_capacity": self.encoding_cache.capacity,
            "prediction_cache_hits": self.prediction_cache.hits,
            "prediction_cache_misses": self.prediction_cache.misses,
            "prediction_cache_evictions": self.prediction_cache.evictions,
            "prediction_cache_size": len(self.prediction_cache),
            "prediction_cache_capacity": self.prediction_cache.capacity,
            "encode_seconds": self._encode_seconds,
            "forward_seconds": self._forward_seconds,
            "quantize_seconds": self._quantize_seconds,
            "parallel_encode_batches": self._parallel_encode_batches,
            "warmed_plans": self._warmed_plans,
            "quantized_active": 1.0 if (snapshot and snapshot.quantized_active) else 0.0,
            "quantize_gate_rel_err": float(snapshot.gate_rel_err) if snapshot else 0.0,
        }

    def reset_stats(self) -> None:
        self._batch_count = 0
        self._request_count = 0
        self._plans_scored = 0
        self._prediction_misses = 0
        self._total_seconds = 0.0
        self._encode_seconds = 0.0
        self._forward_seconds = 0.0
        self._quantize_seconds = 0.0
        self._parallel_encode_batches = 0
        self._warmed_plans = 0
        self._latencies.clear()
        self.encoding_cache.reset_counters()
        self.prediction_cache.reset_counters()

    def clear_caches(self) -> None:
        self.encoding_cache.clear()
        self.prediction_cache.clear()
        self._bucket_cache.clear()

    def refresh_weights(self) -> None:
        """Force a weight re-snapshot (normally automatic via
        ``predictor.weights_version``)."""
        self._snapshot = None
        self.prediction_cache.clear()

    def warm_caches(self, entries) -> int:
        """Pre-populate both cache tiers from ``(plan, env_features)`` pairs
        (``env_features`` may be ``None`` for per-node logged environments,
        which warms the encoding tier only).  Used by the lifecycle's
        post-swap warming pass; returns the number of plans warmed."""
        groups: "OrderedDict[tuple | None, list]" = OrderedDict()
        for plan, env in entries:
            key = tuple(float(v) for v in env) if env is not None else None
            groups.setdefault(key, []).append(plan)
        warmed = 0
        for env_key, group in groups.items():
            self.predict(group, env_features=env_key)
            warmed += len(group)
        self._warmed_plans += warmed
        return warmed

    def swap_predictor(self, predictor, *, warm=None) -> None:
        """Hot-swap the served model (the lifecycle canary's promote path).

        The new predictor must encode plans into the same feature space
        (same encoder dimensionality); its ``weights_version`` is bumped
        past the incumbent's so version-keyed invalidation stays monotonic
        even if the replacement was loaded from a checkpoint with an older
        counter.  Both cache tiers are dropped: the prediction cache holds
        the incumbent's outputs, and the encoding cache may have been built
        by an encoder with different hashing configuration.

        ``warm`` optionally carries ``(plan, env_features)`` pairs to score
        immediately after the swap (see :meth:`warm_caches`), so the first
        post-promote requests for hot plans are served from cache instead
        of hitting a fully cold path.  The quantization gate, when enabled,
        re-runs as part of the new model's weight snapshot.
        """
        new_encoder = getattr(predictor, "encoder", None)
        if new_encoder is None or new_encoder.dim != self.encoder.dim:
            raise ValueError(
                "swap_predictor requires an encoder-compatible predictor "
                f"(got dim {getattr(new_encoder, 'dim', None)}, "
                f"serving dim {self.encoder.dim})"
            )
        incumbent_version = getattr(self.predictor, "weights_version", 0)
        if getattr(predictor, "weights_version", 0) <= incumbent_version:
            predictor.weights_version = incumbent_version + 1
        self.predictor = predictor
        self.encoder = new_encoder
        self._snapshot = None
        self.clear_caches()
        if warm:
            self.warm_caches(warm)

    # -- internals -----------------------------------------------------------

    def _count_request(self, n_plans: int, started: float) -> None:
        elapsed = time.perf_counter() - started
        self._request_count += 1
        self._plans_scored += n_plans
        self._total_seconds += elapsed
        self._latencies.append(elapsed)

    def _current_snapshot(self) -> _WeightSnapshot:
        version = getattr(self.predictor, "weights_version", 0)
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = _WeightSnapshot(
                self.predictor.module,
                self.dtype,
                quantize=self.quantize_mode,
                quantize_rtol=self.quantize_rtol,
            )
            snapshot.version = version
            self._snapshot = snapshot
            self._quantize_seconds += snapshot.pack_seconds
        elif snapshot.version != version:
            snapshot.refresh(self.predictor.module)
            snapshot.version = version
            self._quantize_seconds += snapshot.pack_seconds
            self.prediction_cache.clear()
        return snapshot

    def _encoded_base(self, plan: PhysicalPlan, fingerprint: tuple) -> EncodedPlan:
        cached = self.encoding_cache.get(fingerprint)
        if cached is not None:
            return cached
        encoded = self.encoder.encode_plan(
            plan, env_override=_ZERO_ENV, node_keys=fingerprint
        )
        self.encoding_cache.put(fingerprint, encoded)
        return encoded

    def _encode_workers(self, n_plans: int) -> int:
        from repro.evaluation.parallel import resolve_processes

        try:
            return resolve_processes(n_plans, self.encode_processes)
        except ValueError:
            return 1

    def _encode_pending(
        self, plans: list[PhysicalPlan], fingerprints: list[tuple]
    ) -> list[EncodedPlan]:
        """Base encodings for the prediction-cache misses of one request:
        serial get-or-encode below the parallel threshold, fork-pool fan-out
        of the deduplicated cache misses above it."""
        n = len(plans)
        if n < self.parallel_encode_threshold:
            return [self._encoded_base(p, fp) for p, fp in zip(plans, fingerprints)]
        workers = self._encode_workers(n)
        if workers <= 1:
            return [self._encoded_base(p, fp) for p, fp in zip(plans, fingerprints)]

        from repro.evaluation.parallel import EvalTask, run_tasks

        encoded: list[EncodedPlan | None] = [None] * n
        miss_positions: "OrderedDict[tuple, list[int]]" = OrderedDict()
        for j, fp in enumerate(fingerprints):
            cached = self.encoding_cache.get(fp)
            if cached is not None:
                encoded[j] = cached
            else:
                miss_positions.setdefault(fp, []).append(j)
        if miss_positions:
            unique_fps = list(miss_positions)
            unique_plans = [plans[miss_positions[fp][0]] for fp in unique_fps]
            workers = min(workers, len(unique_plans))
            chunk_bounds = np.array_split(np.arange(len(unique_plans)), workers)
            tasks = [
                EvalTask(
                    key=f"encode:{ci}",
                    fn=_encode_chunk_task,
                    args=(self.encoder, [unique_plans[k] for k in chunk]),
                    seed=0,
                )
                for ci, chunk in enumerate(chunk_bounds)
                if len(chunk)
            ]
            results = run_tasks(tasks, processes=workers)
            for ci, chunk in enumerate(chunk_bounds):
                if not len(chunk):
                    continue
                for k, (features, left, right) in zip(chunk, results[f"encode:{ci}"]):
                    entry = EncodedPlan(features=features, left=left, right=right)
                    fp = unique_fps[k]
                    self.encoding_cache.put(fp, entry)
                    for j in miss_positions[fp]:
                        encoded[j] = entry
            self._parallel_encode_batches += 1
        return encoded  # type: ignore[return-value]

    def _bucket_entry(
        self, key: tuple, encoded: list[EncodedPlan] | None, batch: int
    ) -> _BucketEntry:
        """The cached padded-batch assembly for ``key = (fingerprint tuple,
        padded node count)``; assembled from ``encoded`` on a miss.  The
        assembly (base features, mask, gather index) depends only on the
        bucket's plan structures, so the env-sweep pattern — the same
        candidate set scored under several environments back to back —
        reuses one assembly and re-splices only the environment block."""
        entry = self._bucket_cache.get(key)
        if entry is None:
            padded_nodes = key[1]
            dim = self.encoder.dim
            dtype = self.dtype
            features = np.zeros((batch, padded_nodes + 1, dim), dtype)
            left = np.zeros((batch, padded_nodes + 1), np.int64)
            right = np.zeros((batch, padded_nodes + 1), np.int64)
            mask = np.zeros((batch, padded_nodes + 1, 1), dtype)
            for b, e in enumerate(encoded):
                n = e.n_nodes
                features[b, 1 : n + 1] = e.features
                left[b, 1 : n + 1] = e.left
                right[b, 1 : n + 1] = e.right
                mask[b, 1 : n + 1, 0] = 1.0
            # Self column carries the mask so the layer-1 fast path needs
            # no separate mask multiply (see ``_packed_forward``).
            child_ind = np.empty((batch * (padded_nodes + 1), 3), dtype)
            child_ind[:, 0] = mask.reshape(-1)
            child_ind[:, 1] = (left != 0).reshape(-1)
            child_ind[:, 2] = (right != 0).reshape(-1)
            gather_idx = _combined_gather_index(left, right)
            real_rows = np.flatnonzero(mask.reshape(-1))
            gather_real = np.ascontiguousarray(
                gather_idx.reshape(-1, 3)[real_rows]
            ).reshape(-1)
            counts = np.asarray([e.n_nodes for e in encoded], dtype=np.int64)
            seg_starts = np.zeros(batch, dtype=np.int64)
            np.cumsum(counts[:-1], out=seg_starts[1:])
            entry = _BucketEntry(
                features, mask, gather_idx, child_ind,
                real_rows, gather_real, seg_starts,
            )
            if len(self._bucket_cache) >= self._bucket_cache_cap:
                self._bucket_cache.popitem(last=False)
            self._bucket_cache[key] = entry
        return entry

    def _ensure_h1(self, entry: _BucketEntry, packed: _PackedWeights) -> None:
        """Build (or rebuild after a weight swap) the bucket's zero-env
        layer-1 pre-activation ``h1_base`` — bias included, padding rows
        pre-masked to zero."""
        if entry.h1_packed is packed:
            return
        features = entry.features
        shape = features.shape
        n_rows = shape[0] * shape[1]
        features[:, 1:, self.encoder.env_slice] = 0.0
        x2 = features.reshape(n_rows, shape[2])
        _w3, wflat, bias = packed.conv[0]
        # Full padded-row GEMM, padding rows zeroed after.  (A real-rows
        # GEMM + scatter is equivalent math but its shape varies with the
        # pending-batch composition, which perturbs BLAS accumulation
        # order enough to break the rollback bitwise-restore guarantee.)
        gathered = self._buffers.empty((3 * n_rows, shape[2]), features.dtype, "h1:g")
        x2.take(entry.gather_idx, axis=0, out=gathered)
        h1 = np.matmul(gathered.reshape(n_rows, 3 * shape[2]), wflat)
        h1 += bias
        h1 *= entry.mask.reshape(n_rows, 1)
        entry.h1_base = h1
        entry.h1_packed = packed

    def _env_contrib(
        self, env_features: tuple, packed: _PackedWeights
    ) -> np.ndarray:
        """The environment's layer-1 weight-slice contribution ``ce`` —
        one (3, d_out) matrix of per-self/left/right-block additions,
        cached per environment tuple and validated against the live pack
        by identity (a swap or quantization flip rebuilds it)."""
        cached = self._ce_cache.get(env_features)
        if cached is not None and cached[0] is packed:
            return cached[1]
        env_vec = np.asarray(env_features, dtype=self.dtype)
        ce = np.ascontiguousarray(
            np.matmul(env_vec, packed.conv[0][0][:, self.encoder.env_slice, :])
        )
        if len(self._ce_cache) >= 64:
            self._ce_cache.clear()
        self._ce_cache[env_features] = (packed, ce)
        return ce

    def _forward_bucket(
        self,
        key: tuple,
        encoded: list[EncodedPlan] | None,
        plans: list[PhysicalPlan],
        fingerprints: list[tuple],
        env_features: tuple[float, float, float, float] | None,
        snapshot: _WeightSnapshot,
    ) -> np.ndarray:
        forward_started = time.perf_counter()
        env_slice = self.encoder.env_slice
        entry = self._bucket_entry(key, encoded, len(plans))
        features = entry.features
        mask = entry.mask

        # Env splice: the assembled base carries whatever environment block
        # the previous request wrote, and every real node row is overwritten
        # here.  Padding rows may keep a stale block, which is harmless: they
        # are never gathered (child pointers only reference real rows or the
        # zeroed sentinel) and their conv outputs are masked to zero.
        layer1 = None
        if env_features is None:
            # Per-node logged environments, read fresh on every request so
            # mutation of ``node.env`` between requests is safe.
            for b, plan in enumerate(plans):
                features[b, 1 : len(fingerprints[b]) + 1, env_slice] = [
                    node.env if node.env is not None else _NEUTRAL_ENV
                    for node in plan_nodes(plan)
                ]
        else:
            # Request-level environment: the first conv layer is linear in
            # its input, so instead of splicing the block and re-running the
            # full-width layer-1 gather+GEMM, reuse the bucket's cached
            # zero-env pre-activation and add the environment's (tiny)
            # weight-slice contribution per self/left/right block.
            packed = snapshot.packed
            self._ensure_h1(entry, packed)
            ce = self._env_contrib(env_features, packed)
            layer1 = (entry.h1_base, ce, entry.child_ind)
        self._batch_count += 1
        out = _packed_forward(
            features, None, None, mask, snapshot, self._buffers,
            gather_idx=entry.gather_idx, layer1=layer1,
        )
        self._forward_seconds += time.perf_counter() - forward_started
        return out

    def _forward_sweep(
        self,
        key: tuple,
        encoded: list[EncodedPlan] | None,
        envs: list[tuple],
        snapshot: _WeightSnapshot,
    ) -> np.ndarray:
        """One batched node-sum forward scoring a bucket under every
        environment of ``envs``.  Layer 1 expands through the env-linear
        shortcut — ``child_ind @ [ce_0 | ce_1 | ...]`` computes every
        environment's contribution in a single GEMM on top of the shared
        zero-env pre-activation — and deeper layers plus the node head run
        once on an environment-tiled batch, so the sweep costs one forward
        of ``S×`` the rows instead of ``S`` forwards' worth of python/numpy
        dispatch."""
        forward_started = time.perf_counter()
        entry = self._bucket_entry(key, encoded, len(key[0]))
        packed = snapshot.packed
        self._ensure_h1(entry, packed)
        dtype = self.dtype
        pool = self._buffers
        conv = packed.conv
        trees, rows = entry.mask.shape[0], entry.mask.shape[1]
        n = trees * rows
        n_real = entry.real_rows.shape[0]
        n_envs = len(envs)

        sweep = entry.sweep.get(n_envs)
        if sweep is None:
            # The last conv layer and the node head run on real rows only:
            # tile the real-row gather (into the padded, env-major layer
            # activations) and each tree's segment start for the reduceat
            # per-tree sum.  Middle layers of deeper models still need the
            # padded tiles.
            env_ids = np.arange(n_envs, dtype=np.int64)
            gather_real_t = np.tile(entry.gather_real, n_envs) + np.repeat(
                env_ids * n, entry.gather_real.shape[0]
            )
            seg_t = np.tile(entry.seg_starts, n_envs) + np.repeat(
                env_ids * n_real, trees
            )
            if len(conv) > 2:
                pad_t = np.tile(entry.gather_idx, n_envs) + np.repeat(
                    env_ids * n, entry.gather_idx.shape[0]
                )
                mask_flat = np.ascontiguousarray(
                    np.tile(entry.mask.reshape(-1), n_envs)[:, None]
                )
            else:
                pad_t = mask_flat = None
            entry.sweep[n_envs] = sweep = (gather_real_t, seg_t, pad_t, mask_flat)
        gather_real_t, seg_t, pad_t, mask_flat = sweep

        ce_cat = np.concatenate(
            [self._env_contrib(env, packed) for env in envs], axis=1
        )
        d1 = ce_cat.shape[1] // n_envs
        t3 = np.matmul(entry.child_ind, ce_cat).reshape(n, n_envs, d1)
        t3 += entry.h1_base[:, None, :]
        np.maximum(t3, 0.0, out=t3)
        # Flatten env-major; the reshape of the transposed view copies into
        # contiguous (S*n, d1) rows.
        x2 = t3.transpose(1, 0, 2).reshape(n_envs * n, d1)
        for li in range(1, len(conv) - 1):
            _w3, wflat, bias = conv[li]
            d_in, d_out = x2.shape[1], wflat.shape[1]
            gathered = pool.empty((3 * n_envs * n, d_in), dtype, f"sweep{li}:g")
            x2.take(pad_t, axis=0, out=gathered)
            h = pool.empty((n_envs * n, d_out), dtype, f"sweep{li}:h")
            np.matmul(gathered.reshape(n_envs * n, 3 * d_in), wflat, out=h)
            h += bias
            np.maximum(h, 0.0, out=h)
            h *= mask_flat
            x2 = h
        # Last conv layer + node head, real rows only (no padding FLOPs,
        # no mask multiplies).
        _w3, wflat, bias = conv[-1]
        d_in = x2.shape[1]
        gathered = pool.empty((3 * n_envs * n_real, d_in), dtype, "sweepL:g")
        x2.take(gather_real_t, axis=0, out=gathered)
        h = pool.empty((n_envs * n_real, wflat.shape[1]), dtype, "sweepL:h")
        np.matmul(gathered.reshape(n_envs * n_real, 3 * d_in), wflat, out=h)
        h += bias
        np.maximum(h, 0.0, out=h)
        contributions = pool.empty((n_envs * n_real, 1), dtype, "sweep:z")
        np.matmul(h, packed.node_w, out=contributions)
        contributions += packed.node_b
        np.logaddexp(0.0, contributions, out=contributions)
        total = np.add.reduceat(contributions.reshape(-1), seg_t)
        # Same serving-dtype z snap as ``_packed_forward`` — collapses the
        # env-tiled batch's accumulation-order differences so sweep results
        # stay within float32 round-off of per-request ones.
        cost = total * snapshot.scale
        z = (np.log1p(cost) - snapshot.log_mean) / snapshot.log_std
        predicted = np.expm1(
            z.astype(np.float64) * snapshot.log_std + snapshot.log_mean
        )
        predicted = np.maximum(predicted, 0.0).reshape(n_envs, trees)
        self._batch_count += 1
        self._forward_seconds += time.perf_counter() - forward_started
        return predicted
