"""Tests for the online serving layer (batched, cached cost inference).

Covers the PR's equivalence guarantees:

(a) env-spliced cached encodings are bitwise-equal to full re-encoding;
(b) bucketed float32 batch predictions match the naive autodiff path within
    float32 tolerance (and a float64 service matches far tighter);
(c) cache eviction and invalidation behave under LRU pressure;

plus the ``TreeBatch`` child-index validation bugfix and the serving-layer
routing of ``AdaptiveCostPredictor.predict``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import PlanEncoder
from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.nn.tree_conv import TreeBatch
from repro.serving import (
    CostInferenceService,
    LRUCache,
    plan_fingerprint,
)

TINY = PredictorConfig(epochs=2, hidden_dims=(16, 16), embedding_dim=8, adversarial=False)


@pytest.fixture(scope="module")
def trained(project_with_history):
    records = project_with_history.repository.records[:80]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost for r in records]
    predictor = AdaptiveCostPredictor(config=TINY)
    predictor.fit(plans, costs)
    return predictor, plans


# -- (a) encode-once + env splice ------------------------------------------------


class TestEnvSpliceEquivalence:
    def test_spliced_cache_bitwise_equals_full_reencode(self, trained):
        predictor, plans = trained
        service = predictor.serving
        encoder = predictor.encoder
        env = (0.7, 0.02, 0.9, 0.4)
        for plan in plans[:10]:
            base = service._encoded_base(plan, plan_fingerprint(plan))
            spliced = base.features.copy()
            spliced[:, encoder.env_slice] = env
            reference = encoder.encode_plan_reference(plan, env_override=env)
            assert (spliced == reference.features).all()
            assert (base.left == reference.left).all()
            assert (base.right == reference.right).all()

    def test_vectorized_encoding_bitwise_equals_reference(self, trained):
        _, plans = trained
        encoder = PlanEncoder()
        for plan in plans[:10]:
            for env in (None, (0.25, 0.5, 0.75, 1.0)):
                fast = encoder.encode_plan(plan, env_override=env)
                ref = encoder.encode_plan_reference(plan, env_override=env)
                assert (fast.features == ref.features).all()
                assert (fast.left == ref.left).all()
                assert (fast.right == ref.right).all()

    def test_cache_hit_on_second_request(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:5], env_features=(0.5, 0.05, 0.5, 0.5))
        misses = service.encoding_cache.misses
        service.predict(plans[:5], env_features=(0.1, 0.2, 0.3, 0.4))
        assert service.encoding_cache.misses == misses  # no re-encoding
        # The assembled-bucket fast path serves the repeat structural batch
        # without even probing the per-plan encoding cache.
        assert service.encoding_cache.hits == 0

    def test_logged_env_read_fresh_after_mutation(self, trained):
        """env_features=None must reflect *current* node.env annotations even
        when the base encoding was cached before the mutation."""
        predictor, plans = trained
        plan = plans[0].clone()
        service = CostInferenceService(predictor, enable_prediction_cache=False)
        before = service.predict([plan])[0]
        for node in plan.iter_nodes():
            node.env = (1.0, 0.0, 0.0, 0.0)
        after = service.predict([plan])[0]
        baseline = predictor.predict_baseline([plan])[0]
        assert after != before
        np.testing.assert_allclose(after, baseline, rtol=1e-5)


# -- (b) bucketed batching matches the naive path -------------------------------


class TestPredictionEquivalence:
    def test_float32_service_matches_baseline(self, trained):
        predictor, plans = trained
        mixed = plans[:16]  # varied node counts -> multiple size buckets
        for env in (None, (0.5, 0.05, 0.5, 0.5), (1.0, 0.0, 0.0, 0.0)):
            fast = predictor.predict(mixed, env_features=env)
            naive = predictor.predict_baseline(mixed, env_features=env)
            np.testing.assert_allclose(fast, naive, rtol=1e-5)

    def test_float64_service_matches_tightly(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor, dtype=np.float64)
        fast = service.predict(plans[:16], env_features=(0.5, 0.05, 0.5, 0.5))
        naive = predictor.predict_baseline(plans[:16], env_features=(0.5, 0.05, 0.5, 0.5))
        np.testing.assert_allclose(fast, naive, rtol=1e-9)

    def test_bucketing_independent_of_batch_composition(self, trained):
        """A plan's prediction must not depend on which other plans share the
        request (padding rows are masked)."""
        predictor, plans = trained
        service = CostInferenceService(predictor, enable_prediction_cache=False)
        env = (0.5, 0.05, 0.5, 0.5)
        alone = service.predict([plans[0]], env_features=env)[0]
        together = service.predict(plans[:16], env_features=env)[0]
        np.testing.assert_allclose(alone, together, rtol=1e-6)

    def test_warm_prediction_cache_identical(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        env = (0.5, 0.05, 0.5, 0.5)
        cold = service.predict(plans[:8], env_features=env)
        hits_before = service.prediction_cache.hits
        warm = service.predict(plans[:8], env_features=env)
        assert service.prediction_cache.hits >= hits_before + 8
        np.testing.assert_array_equal(cold, warm)

    def test_select_best_consistent_with_predict(self, trained):
        predictor, plans = trained
        env = (0.5, 0.05, 0.5, 0.5)
        chosen, predictions = predictor.select_best(plans[:6], env_features=env)
        assert chosen is plans[:6][int(np.argmin(predictions))]
        index, predictions2 = predictor.serving.select_best_index(plans[:6], env_features=env)
        assert index == int(np.argmin(predictions2))

    def test_refit_invalidates_weight_snapshot(self, trained, project_with_history):
        records = project_with_history.repository.records[:40]
        plans = [r.plan for r in records]
        costs = [r.cpu_cost for r in records]
        predictor = AdaptiveCostPredictor(config=TINY)
        predictor.fit(plans, costs)
        before = predictor.predict(plans[:6], env_features=(0.5, 0.05, 0.5, 0.5))
        predictor.fit(plans, [c * 40.0 for c in costs])
        after = predictor.predict(plans[:6], env_features=(0.5, 0.05, 0.5, 0.5))
        naive = predictor.predict_baseline(plans[:6], env_features=(0.5, 0.05, 0.5, 0.5))
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, naive, rtol=1e-5)

    def test_empty_request(self, trained):
        predictor, _ = trained
        assert predictor.predict([]).shape == (0,)


# -- (c) LRU pressure -----------------------------------------------------------


class TestCacheBehaviour:
    def test_lru_evicts_oldest(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.evictions == 1
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_lru_access_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "a" now most-recent; "b" is eviction candidate
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_invalidate(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.get("a") is None

    def test_service_under_lru_pressure_stays_correct(self, trained):
        predictor, plans = trained
        service = CostInferenceService(
            predictor, encoding_cache_size=4, prediction_cache_size=4
        )
        env = (0.5, 0.05, 0.5, 0.5)
        many = plans[:20]
        out = service.predict(many, env_features=env)
        assert service.encoding_cache.evictions > 0
        naive = predictor.predict_baseline(many, env_features=env)
        np.testing.assert_allclose(out, naive, rtol=1e-5)
        # A second pass re-encodes what was evicted but stays correct.
        again = service.predict(many, env_features=env)
        np.testing.assert_allclose(again, naive, rtol=1e-5)

    def test_clear_caches(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:4], env_features=(0.5, 0.05, 0.5, 0.5))
        assert len(service.encoding_cache) > 0
        service.clear_caches()
        assert len(service.encoding_cache) == 0
        assert len(service.prediction_cache) == 0

    def test_stats_counters(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:6], env_features=(0.5, 0.05, 0.5, 0.5))
        service.predict(plans[:6], env_features=(0.5, 0.05, 0.5, 0.5))
        stats = service.stats()
        assert stats.requests == 2
        assert stats.plans_scored == 12
        assert stats.prediction_hits >= 6
        assert stats.p50_latency_ms >= 0.0
        assert stats.p99_latency_ms >= stats.p50_latency_ms
        assert 0.0 <= stats.encode_hit_rate <= 1.0
        assert stats.as_dict()["requests"] == 2


# -- fingerprinting --------------------------------------------------------------


class TestFingerprint:
    def test_identical_structure_same_key(self, trained):
        _, plans = trained
        assert plan_fingerprint(plans[0]) == plan_fingerprint(plans[0].clone())

    def test_different_plans_different_keys(self, trained):
        _, plans = trained
        keys = {plan_fingerprint(p) for p in plans[:20]}
        signatures = {p.structural_signature() for p in plans[:20]}
        assert len(keys) == len(signatures)

    def test_env_annotations_do_not_affect_key(self, trained):
        _, plans = trained
        plan = plans[0].clone()
        key = plan_fingerprint(plan)
        for node in plan.iter_nodes():
            node.env = (0.9, 0.9, 0.9, 0.9)
        assert plan_fingerprint(plan) == key


# -- TreeBatch validation (satellite bugfix) -------------------------------------


class TestTreeBatchValidation:
    def _tree(self, n: int, dim: int = 4):
        features = np.ones((n, dim))
        left = np.zeros(n, dtype=np.int64)
        right = np.zeros(n, dtype=np.int64)
        return features, left, right

    def test_valid_tree_accepted(self):
        f, l, r = self._tree(3)
        l[0], r[0] = 2, 3
        batch = TreeBatch.from_trees([(f, l, r)])
        assert batch.batch_size == 1

    def test_out_of_range_left_rejected(self):
        f, l, r = self._tree(3)
        l[0] = 4  # only rows 0..3 exist
        with pytest.raises(ValueError, match="left child indices"):
            TreeBatch.from_trees([(f, l, r)])

    def test_negative_right_rejected(self):
        f, l, r = self._tree(3)
        r[1] = -1
        with pytest.raises(ValueError, match="right child indices"):
            TreeBatch.from_trees([(f, l, r)])

    def test_pad_to_below_largest_rejected(self):
        f, l, r = self._tree(5)
        with pytest.raises(ValueError, match="pad_to"):
            TreeBatch.from_trees([(f, l, r)], pad_to=3)

    def test_pad_to_and_dtype(self):
        f, l, r = self._tree(3)
        batch = TreeBatch.from_trees([(f, l, r)], dtype=np.float32, pad_to=8)
        assert batch.features.shape == (1, 9, 4)
        assert batch.features.dtype == np.float32
        assert batch.mask[0, :, 0].sum() == 3.0

    def test_bucket_indices_grouping(self):
        buckets = TreeBatch.bucket_indices([3, 5, 9, 40, 8, 2])
        as_dict = {size: idx for size, idx in buckets}
        assert as_dict[8] == [0, 1, 4, 5]
        assert as_dict[16] == [2]
        assert as_dict[64] == [3]

    def test_bucket_indices_max_batch_split(self):
        buckets = TreeBatch.bucket_indices([4] * 5, max_batch=2)
        assert [len(idx) for _, idx in buckets] == [2, 2, 1]
        assert sorted(i for _, idx in buckets for i in idx) == [0, 1, 2, 3, 4]


# -- checkpoint <-> serving equivalence (lifecycle satellite) ---------------------


class TestCheckpointServingEquivalence:
    def test_loaded_service_bitwise_matches_presave_service(self, trained, tmp_path):
        """load_predictor into a CostInferenceService must reproduce the
        pre-save service's predictions bitwise — the invariant the registry
        hot swap and rollback paths depend on."""
        from repro.core.serialization import load_predictor, save_predictor

        predictor, plans = trained
        env = (0.5, 0.05, 0.5, 0.5)
        before = CostInferenceService(predictor).predict(plans[:12], env_features=env)
        path = save_predictor(predictor, tmp_path / "ckpt.npz", environment_features=env)
        loaded, stored_env = load_predictor(path)
        after = CostInferenceService(loaded).predict(plans[:12], env_features=stored_env)
        np.testing.assert_array_equal(before, after)

    def test_loaded_service_matches_under_env_override(self, trained, tmp_path):
        from repro.core.serialization import load_predictor, save_predictor

        predictor, plans = trained
        path = save_predictor(predictor, tmp_path / "ckpt.npz")
        loaded, _ = load_predictor(path)
        for env in (None, (0.9, 0.1, 0.2, 0.8)):
            before = CostInferenceService(predictor).predict(plans[:8], env_features=env)
            after = CostInferenceService(loaded).predict(plans[:8], env_features=env)
            np.testing.assert_array_equal(before, after)


class TestSwapPredictor:
    def _second_predictor(self, project_with_history, scale=40.0):
        records = project_with_history.repository.records[:80]
        plans = [r.plan for r in records]
        costs = [r.cpu_cost * scale for r in records]
        other = AdaptiveCostPredictor(config=TINY)
        other.fit(plans, costs)
        return other

    def test_swap_invalidates_both_cache_tiers(self, trained, project_with_history):
        predictor, plans = trained
        other = self._second_predictor(project_with_history)
        service = CostInferenceService(predictor)
        env = (0.5, 0.05, 0.5, 0.5)
        before = service.predict(plans[:8], env_features=env)
        assert len(service.encoding_cache) > 0
        assert len(service.prediction_cache) > 0

        service.swap_predictor(other)
        assert len(service.encoding_cache) == 0
        assert len(service.prediction_cache) == 0
        after = service.predict(plans[:8], env_features=env)
        assert not np.allclose(before, after)
        # Post-swap output equals a fresh service around the new model.
        fresh = CostInferenceService(other).predict(plans[:8], env_features=env)
        np.testing.assert_array_equal(after, fresh)

    def test_swap_bumps_weights_version_monotonically(self, trained, project_with_history, tmp_path):
        from repro.core.serialization import load_predictor, save_predictor

        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:4], env_features=(0.5, 0.05, 0.5, 0.5))
        incumbent_version = predictor.weights_version
        # A replacement loaded from an old checkpoint can carry a stale
        # (lower) counter; the swap must still move versions forward.
        stale, _ = load_predictor(save_predictor(predictor, tmp_path / "stale.npz"))
        stale.weights_version = 0
        service.swap_predictor(stale)
        assert service.predictor is stale
        assert stale.weights_version == incumbent_version + 1

    def test_swap_rejects_incompatible_encoder(self, trained):
        predictor, _ = trained
        other = AdaptiveCostPredictor(
            PlanEncoder(hash_segments=2, hash_segment_dim=4), TINY
        )
        service = CostInferenceService(predictor)
        with pytest.raises(ValueError, match="encoder-compatible"):
            service.swap_predictor(other)


# -- cold-path acceleration (quantized packed forward, warming) -----------------


COLD_ENV = (0.5, 0.05, 0.5, 0.5)


def _fit_second_predictor(project_with_history, scale=40.0):
    records = project_with_history.repository.records[:80]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost * scale for r in records]
    other = AdaptiveCostPredictor(config=TINY)
    other.fit(plans, costs)
    return other


class TestEncodeMemo:
    def test_node_keys_encoding_bitwise_equals_reference(self, trained):
        _, plans = trained
        encoder = PlanEncoder()
        for plan in plans[:10]:
            fingerprint = plan_fingerprint(plan)
            # First pass exercises the memo-miss path, second the all-hit
            # fast path (rows + child arrays reassembled from the memo).
            for _ in range(2):
                for env in (None, (0.25, 0.5, 0.75, 1.0)):
                    fast = encoder.encode_plan(
                        plan, env_override=env, node_keys=fingerprint
                    )
                    ref = encoder.encode_plan_reference(plan, env_override=env)
                    assert (fast.features == ref.features).all()
                    assert (fast.left == ref.left).all()
                    assert (fast.right == ref.right).all()

    def test_memoized_arrays_are_not_aliased(self, trained):
        _, plans = trained
        encoder = PlanEncoder()
        fingerprint = plan_fingerprint(plans[0])
        first = encoder.encode_plan(plans[0], env_override=COLD_ENV, node_keys=fingerprint)
        first.features.fill(-1.0)
        first.left.fill(99)
        second = encoder.encode_plan(plans[0], env_override=COLD_ENV, node_keys=fingerprint)
        ref = encoder.encode_plan_reference(plans[0], env_override=COLD_ENV)
        assert (second.features == ref.features).all()
        assert (second.left == ref.left).all()

    def test_wrong_node_keys_length_rejected(self, trained):
        _, plans = trained
        encoder = PlanEncoder()
        with pytest.raises(ValueError, match="node_keys length"):
            encoder.encode_plan(plans[0], node_keys=())


class TestQuantizedForward:
    def test_float16_gate_passes_and_matches_reference(self, trained):
        predictor, plans = trained
        reference = CostInferenceService(predictor)
        service = CostInferenceService(predictor, quantize=True)
        want = reference.predict(plans[:20], env_features=COLD_ENV)
        got = service.predict(plans[:20], env_features=COLD_ENV)
        stats = service.stats()
        assert stats.quantized_active
        assert 0.0 < stats.quantize_gate_rel_err <= 1e-3
        np.testing.assert_allclose(got, want, rtol=1e-3)

    def test_quantize_true_selects_float16(self, trained):
        predictor, _ = trained
        assert CostInferenceService(predictor, quantize=True).quantize is True
        assert CostInferenceService(predictor).quantize is False
        for mode in ("float16", "int8", None, 1):
            with pytest.raises(ValueError, match="quantize must be a bool"):
                CostInferenceService(predictor, quantize=mode)

    def test_strict_gate_falls_back_bitwise(self, trained):
        predictor, plans = trained
        # A gate no quantization can pass: the service must serve the
        # float32 reference weights, bitwise equal to an unquantized service.
        strict = CostInferenceService(predictor, quantize=True, quantize_rtol=1e-12)
        reference = CostInferenceService(predictor)
        got = strict.predict(plans[:20], env_features=COLD_ENV)
        want = reference.predict(plans[:20], env_features=COLD_ENV)
        stats = strict.stats()
        assert not stats.quantized_active
        assert stats.quantize_gate_rel_err > 1e-12
        np.testing.assert_array_equal(got, want)

    def test_corrupted_weights_fail_gate_and_fall_back(self, trained, project_with_history):
        _, plans = trained
        corrupted = _fit_second_predictor(project_with_history)
        # An outlier beyond float16 range becomes inf in quantized storage;
        # the calibration forward goes non-finite and the gate must reject.
        corrupted.module.plan_emb.conv_layers[0].weight.data[0, 0] = 1e9
        quantized = CostInferenceService(corrupted, quantize=True)
        plain = CostInferenceService(corrupted)
        got = quantized.predict(plans[:12], env_features=COLD_ENV)
        want = plain.predict(plans[:12], env_features=COLD_ENV)
        assert not quantized.stats().quantized_active
        np.testing.assert_array_equal(got, want)
        assert np.all(np.isfinite(got))

    def test_quantize_matrix_roundtrip_and_split(self):
        from repro.serving import quantize_matrix, split_conv_weight

        rng = np.random.default_rng(7)
        weight = rng.normal(scale=0.3, size=(24, 6))
        weight[:, 2] *= 50.0
        half = quantize_matrix(weight)
        assert half.stored.dtype == np.float16
        assert half.max_weight_rel_err(weight) < 1e-3
        assert half.stored_nbytes < weight.nbytes
        w_self, w_left, w_right = split_conv_weight(weight)
        np.testing.assert_array_equal(np.vstack((w_self, w_left, w_right)), weight)
        with pytest.raises(ValueError, match="divisible by 3"):
            split_conv_weight(weight[:23])


class TestWarming:
    def test_warm_caches_populates_both_tiers(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        warmed = service.warm_caches((p, COLD_ENV) for p in plans[:10])
        assert warmed == 10
        assert len(service.encoding_cache) > 0
        assert len(service.prediction_cache) > 0
        assert service.stats().warmed_plans == 10
        service.reset_stats()
        service.predict(plans[:10], env_features=COLD_ENV)
        stats = service.stats()
        assert stats.prediction_hits == 10
        assert stats.prediction_misses == 0

    def test_warm_without_env_fills_encoding_tier_only(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.warm_caches([(plans[0], None)])
        assert len(service.encoding_cache) > 0
        assert len(service.prediction_cache) == 0  # no env key to cache under

    def test_swap_with_warm_serves_first_batch_from_cache(self, trained, project_with_history):
        predictor, plans = trained
        replacement = _fit_second_predictor(project_with_history)
        service = CostInferenceService(predictor)
        service.predict(plans[:8], env_features=COLD_ENV)
        service.swap_predictor(
            replacement, warm=[(p, COLD_ENV) for p in plans[:8]]
        )
        service.reset_stats()
        got = service.predict(plans[:8], env_features=COLD_ENV)
        stats = service.stats()
        assert stats.prediction_hits == 8
        assert stats.prediction_misses == 0
        # Warmed values come from the *new* model.
        fresh = CostInferenceService(replacement).predict(plans[:8], env_features=COLD_ENV)
        np.testing.assert_array_equal(got, fresh)


class TestColdPathStats:
    def test_timing_attribution_accumulates(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor, quantize=True)
        service.predict(plans[:10], env_features=COLD_ENV)
        stats = service.stats()
        assert stats.encode_seconds > 0.0
        assert stats.forward_seconds > 0.0
        assert stats.quantize_seconds > 0.0
        as_dict = stats.as_dict()
        for key in (
            "encode_seconds",
            "forward_seconds",
            "quantize_seconds",
            "parallel_encode_batches",
            "warmed_plans",
            "quantized_active",
            "quantize_gate_rel_err",
        ):
            assert key in as_dict

    def test_cache_counters_export_cold_path_gauges(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:64], env_features=COLD_ENV)
        assert service.stats().parallel_encode_batches == 0
        counters = service.cache_counters()
        for key in (
            "encode_seconds",
            "forward_seconds",
            "quantize_seconds",
            "parallel_encode_batches",
            "warmed_plans",
            "quantized_active",
            "quantize_gate_rel_err",
        ):
            assert key in counters
        assert counters["quantized_active"] == 0.0
        assert counters["encode_seconds"] > 0.0
        assert counters["parallel_encode_batches"] == 0


# -- (h) strategy-sweep requests -------------------------------------------------

SWEEP_ENVS = (
    (0.5, 0.05, 0.5, 0.5),
    (0.62, 0.03, 0.41, 0.55),
    (0.31, 0.12, 0.77, 0.69),
    (0.0, 0.0, 0.0, 0.0),
)


class TestPredictSweep:
    def test_sweep_matches_per_request_predictions(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        reference = CostInferenceService(predictor)
        swept = service.predict_sweep(plans[:4], SWEEP_ENVS)
        assert swept.shape == (len(SWEEP_ENVS), 4)
        for e, env in enumerate(SWEEP_ENVS):
            want = reference.predict(plans[:4], env_features=env)
            # The sweep batches every environment into one forward, so its
            # float32 accumulation order differs from a per-request batch;
            # the serving-dtype z snap keeps the residual at ulp scale.
            np.testing.assert_allclose(swept[e], want, rtol=1e-5)

    def test_sweep_fills_prediction_cache(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        swept = service.predict_sweep(plans[:4], SWEEP_ENVS)
        hits_before = service.prediction_cache.hits
        for e, env in enumerate(SWEEP_ENVS):
            warm = service.predict(plans[:4], env_features=env)
            np.testing.assert_array_equal(warm, swept[e])
        assert service.prediction_cache.hits >= hits_before + 4 * len(SWEEP_ENVS)
        assert service.stats().batches == 1  # the sweep's single forward

    def test_sweep_serves_warm_rows_from_cache(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        misses_after_first = None
        service.predict_sweep(plans[:3], SWEEP_ENVS)
        misses_after_first = service.stats().prediction_misses
        service.predict_sweep(plans[:3], SWEEP_ENVS)
        assert service.stats().prediction_misses == misses_after_first

    def test_wide_request_falls_back_to_per_request_path(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor, small_request_threshold=2)
        reference = CostInferenceService(predictor)
        wide = plans[:6]  # > threshold -> per-environment fallback loop
        swept = service.predict_sweep(wide, SWEEP_ENVS)
        for e, env in enumerate(SWEEP_ENVS):
            np.testing.assert_allclose(
                swept[e], reference.predict(wide, env_features=env), rtol=1e-5
            )

    def test_quantized_sweep_within_gate_tolerance(self, trained):
        predictor, plans = trained
        quantized = CostInferenceService(predictor, quantize=True)
        reference = CostInferenceService(predictor)
        swept = quantized.predict_sweep(plans[:4], SWEEP_ENVS)
        assert quantized.stats().quantized_active
        for e, env in enumerate(SWEEP_ENVS):
            np.testing.assert_allclose(
                swept[e], reference.predict(plans[:4], env_features=env), rtol=1e-3
            )

    def test_sweep_after_swap_uses_new_weights(self, trained, project_with_history):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        before = service.predict_sweep(plans[:4], SWEEP_ENVS)
        replacement = _fit_second_predictor(project_with_history)
        service.swap_predictor(replacement)
        after = service.predict_sweep(plans[:4], SWEEP_ENVS)
        reference = CostInferenceService(replacement)
        assert not np.allclose(before, after)
        for e, env in enumerate(SWEEP_ENVS):
            np.testing.assert_allclose(
                after[e], reference.predict(plans[:4], env_features=env), rtol=1e-5
            )

    def test_empty_sweep_shapes(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        assert service.predict_sweep([], SWEEP_ENVS).shape == (len(SWEEP_ENVS), 0)
        assert service.predict_sweep(plans[:2], []).shape == (0, 2)


# -- all-or-nothing cache answers (the gateway's caller-thread fast path) --------


class TestCachedPredict:
    def test_full_hit_equals_predict_and_counts_once(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        assert service.cached_predict(plans[:6], env_features=COLD_ENV) is None
        want = service.predict(plans[:6], env_features=COLD_ENV)
        before = service.stats()
        got = service.cached_predict(plans[:6], env_features=COLD_ENV)
        np.testing.assert_array_equal(got, want)
        after = service.stats()
        assert after.prediction_hits == before.prediction_hits + 6
        assert after.prediction_misses == before.prediction_misses
        assert after.requests == before.requests + 1
        assert after.plans_scored == before.plans_scored + 6

    def test_partial_hit_returns_none_without_counting(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:4], env_features=COLD_ENV)
        before = service.stats()
        lru_misses = service.prediction_cache.misses
        assert service.cached_predict(plans[:8], env_features=COLD_ENV) is None
        untouched = service.stats()
        assert untouched.prediction_hits == before.prediction_hits
        assert untouched.prediction_misses == before.prediction_misses
        assert untouched.requests == before.requests
        assert service.prediction_cache.misses == lru_misses
        # The follow-up predict counts the 4 hits and 4 misses exactly once.
        service.predict(plans[:8], env_features=COLD_ENV)
        after = service.stats()
        assert after.prediction_hits == before.prediction_hits + 4
        assert after.prediction_misses == before.prediction_misses + 4

    def test_swap_is_never_served_stale(self, trained, project_with_history):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        before = service.predict(plans[:6], env_features=COLD_ENV)
        replacement = _fit_second_predictor(project_with_history)
        service.swap_predictor(replacement)
        assert service.cached_predict(plans[:6], env_features=COLD_ENV) is None
        after = service.predict(plans[:6], env_features=COLD_ENV)
        assert not np.allclose(before, after)
        np.testing.assert_array_equal(
            service.cached_predict(plans[:6], env_features=COLD_ENV), after
        )

    def test_weights_version_bump_invalidates(self, trained):
        import copy

        predictor, plans = trained
        served = copy.deepcopy(predictor)
        service = CostInferenceService(served)
        service.predict(plans[:6], env_features=COLD_ENV)
        served.weights_version += 1  # what a refit does
        assert service.cached_predict(plans[:6], env_features=COLD_ENV) is None
        assert len(service.prediction_cache) == 0

    def test_no_answer_without_a_request_environment(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        service.predict(plans[:4])
        assert service.cached_predict(plans[:4], env_features=None) is None
        assert service.cached_predict([], env_features=COLD_ENV) is None
        disabled = CostInferenceService(predictor, enable_prediction_cache=False)
        disabled.predict(plans[:4], env_features=COLD_ENV)
        assert disabled.cached_predict(plans[:4], env_features=COLD_ENV) is None

    def test_lru_get_all_is_all_or_nothing(self):
        cache = LRUCache(4)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.get_all(["a", "c"]) is None
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.get_all(["a", "b"]) == [1.0, 2.0]
        assert cache.hits == 2
        cache.put("c", 3.0)
        cache.get_all(["a"])  # refreshes "a": "b" is now the oldest
        cache.put("d", 4.0)
        cache.put("e", 5.0)
        assert "b" not in cache and "a" in cache
