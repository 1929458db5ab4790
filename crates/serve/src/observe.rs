//! Prometheus-text rendering of the whole service state (the `metrics`
//! command and the optional `--metrics-addr` HTTP listener).
//!
//! Every series carries the `bagpred_` prefix. Global counters and
//! histograms come first, then per-map cache counters labelled
//! `{map="apps|fairness|nbags"}`, per-stage histograms labelled
//! `{stage="..."}`, and per-model series labelled `{model="..."}`.
//! Histograms are exposed in classic cumulative `_bucket{le="..."}` form
//! with the log2 bucket bounds of [`bagpred_obs::LogHistogram`].

use crate::engine::Inner;
use bagpred_obs::Exposition;

/// Render the full exposition document for a running service.
pub(crate) fn render(inner: &Inner) -> String {
    let mut expo = Exposition::new();
    let metrics = &inner.metrics;
    let snap = metrics.snapshot();

    expo.header(
        "bagpred_requests_received_total",
        "counter",
        "Requests accepted into the queue.",
    );
    expo.sample("bagpred_requests_received_total", &[], snap.received as f64);
    expo.header(
        "bagpred_requests_succeeded_total",
        "counter",
        "Requests completed with an ok reply.",
    );
    expo.sample(
        "bagpred_requests_succeeded_total",
        &[],
        snap.succeeded as f64,
    );
    expo.header(
        "bagpred_requests_failed_total",
        "counter",
        "Requests completed with an err reply.",
    );
    expo.sample("bagpred_requests_failed_total", &[], snap.failed as f64);
    expo.header(
        "bagpred_requests_shed_total",
        "counter",
        "Requests rejected because the queue was full.",
    );
    expo.sample("bagpred_requests_shed_total", &[], snap.shed as f64);

    expo.header(
        "bagpred_queue_depth",
        "gauge",
        "Requests queued but not yet picked up.",
    );
    expo.sample("bagpred_queue_depth", &[], inner.queue_depth() as f64);
    expo.header("bagpred_workers", "gauge", "Worker threads per shard.");
    expo.sample("bagpred_workers", &[], inner.config.workers as f64);
    expo.header("bagpred_models", "gauge", "Registered models.");
    expo.sample("bagpred_models", &[], inner.registry.len() as f64);

    expo.header(
        "bagpred_request_latency_us",
        "histogram",
        "End-to-end request latency, microseconds.",
    );
    expo.histogram(
        "bagpred_request_latency_us",
        &[],
        &metrics.latency().snapshot(),
    );
    expo.header(
        "bagpred_queue_wait_us",
        "histogram",
        "Time between enqueue and worker pickup, microseconds.",
    );
    expo.histogram(
        "bagpred_queue_wait_us",
        &[],
        &metrics.queue_wait().snapshot(),
    );
    expo.header(
        "bagpred_service_time_us",
        "histogram",
        "Service time (latency minus parse and queue wait), microseconds.",
    );
    expo.histogram(
        "bagpred_service_time_us",
        &[],
        &metrics.service().snapshot(),
    );

    expo.header(
        "bagpred_cache_hits_total",
        "counter",
        "Feature-cache lookups answered without computing, per map.",
    );
    expo.header(
        "bagpred_cache_misses_total",
        "counter",
        "Feature-cache lookups that had to compute, per map.",
    );
    expo.header(
        "bagpred_cache_evictions_total",
        "counter",
        "Feature-cache entries evicted to respect the capacity bound, per map.",
    );
    expo.header(
        "bagpred_cache_entries",
        "gauge",
        "Feature-cache entries currently held, per map.",
    );
    for map in inner.cache.map_stats() {
        let labels = [("map", map.name)];
        expo.sample("bagpred_cache_hits_total", &labels, map.hits as f64);
        expo.sample("bagpred_cache_misses_total", &labels, map.misses as f64);
        expo.sample(
            "bagpred_cache_evictions_total",
            &labels,
            map.evictions as f64,
        );
        expo.sample("bagpred_cache_entries", &labels, map.entries as f64);
    }
    expo.header(
        "bagpred_cache_hit_rate",
        "gauge",
        "Fraction of feature-cache lookups answered from the cache, all maps.",
    );
    expo.sample("bagpred_cache_hit_rate", &[], inner.cache.hit_rate());

    expo.header(
        "bagpred_stage_duration_us",
        "histogram",
        "Per-stage request duration, microseconds.",
    );
    for (stage, snap) in inner.stages.snapshot() {
        expo.histogram(
            "bagpred_stage_duration_us",
            &[("stage", stage.name())],
            &snap,
        );
    }

    expo.header(
        "bagpred_slow_requests_total",
        "counter",
        "Requests that crossed the slow-request threshold (ring captures).",
    );
    expo.sample(
        "bagpred_slow_requests_total",
        &[],
        inner.events.recorded() as f64,
    );
    expo.header(
        "bagpred_trace_ring_dropped_total",
        "counter",
        "Slow-request captures overwritten (or refused) by the bounded trace ring.",
    );
    expo.sample(
        "bagpred_trace_ring_dropped_total",
        &[],
        inner.events.dropped() as f64,
    );

    expo.header(
        "bagpred_worker_panics_total",
        "counter",
        "Batches whose predict call panicked (every job in the batch got err internal).",
    );
    expo.sample(
        "bagpred_worker_panics_total",
        &[],
        inner.robust.worker_panics() as f64,
    );
    expo.header(
        "bagpred_worker_respawns_total",
        "counter",
        "Worker threads restarted by the supervisor after a panic escaped the batch guard.",
    );
    expo.sample(
        "bagpred_worker_respawns_total",
        &[],
        inner.robust.worker_respawns() as f64,
    );
    expo.header(
        "bagpred_deadline_expired_total",
        "counter",
        "Requests shed at dequeue because their deadline_ms budget had passed.",
    );
    expo.sample(
        "bagpred_deadline_expired_total",
        &[],
        inner.robust.deadline_expired() as f64,
    );
    expo.header(
        "bagpred_cancelled_total",
        "counter",
        "Requests dropped at dequeue because a cancel arrived while they were still queued.",
    );
    expo.sample(
        "bagpred_cancelled_total",
        &[],
        inner.robust.cancelled() as f64,
    );
    expo.header(
        "bagpred_cancel_late_total",
        "counter",
        "Cancels that arrived after their target had already been served (answered ok cancel=late).",
    );
    expo.sample(
        "bagpred_cancel_late_total",
        &[],
        inner.robust.cancel_late() as f64,
    );
    expo.header(
        "bagpred_hedge_deduped_total",
        "counter",
        "Hedge-pair losers whose accounting was suppressed so the served attempt counts once.",
    );
    expo.sample(
        "bagpred_hedge_deduped_total",
        &[],
        inner.robust.hedge_deduped() as f64,
    );
    expo.header(
        "bagpred_brownout_shed_total",
        "counter",
        "Requests shed at enqueue by the priority brownout watermarks, by class.",
    );
    for prio in crate::metrics::Priority::ALL {
        expo.sample(
            "bagpred_brownout_shed_total",
            &[("prio", prio.name())],
            inner.robust.brownout_shed(prio) as f64,
        );
    }
    expo.header(
        "bagpred_model_quarantines_total",
        "counter",
        "Times a model crossed the consecutive-panic threshold and was quarantined.",
    );
    expo.sample(
        "bagpred_model_quarantines_total",
        &[],
        inner.robust.quarantines() as f64,
    );
    expo.header(
        "bagpred_quarantined_models",
        "gauge",
        "Models currently quarantined (answering err unavailable).",
    );
    expo.sample(
        "bagpred_quarantined_models",
        &[],
        inner.health.quarantined_count() as f64,
    );
    expo.header(
        "bagpred_faults_injected_total",
        "counter",
        "Faults fired by the configured fault plan (0 unless BAGPRED_FAULTS is set).",
    );
    expo.sample(
        "bagpred_faults_injected_total",
        &[],
        inner.config.faults.injected() as f64,
    );

    expo.header(
        "bagpred_outcomes_matched_total",
        "counter",
        "Outcome reports joined to the prediction they were acting on.",
    );
    expo.sample(
        "bagpred_outcomes_matched_total",
        &[],
        inner.outcomes.matched() as f64,
    );
    expo.header(
        "bagpred_outcomes_orphaned_total",
        "counter",
        "Outcome reports whose request id had no pending prediction.",
    );
    expo.sample(
        "bagpred_outcomes_orphaned_total",
        &[],
        inner.outcomes.orphaned() as f64,
    );
    expo.header(
        "bagpred_outcomes_expired_total",
        "counter",
        "Recorded predictions evicted unmatched (TTL or ring capacity).",
    );
    expo.sample(
        "bagpred_outcomes_expired_total",
        &[],
        inner.outcomes.expired() as f64,
    );
    expo.header(
        "bagpred_outcomes_pending",
        "gauge",
        "Served predictions currently awaiting their outcome report.",
    );
    expo.sample(
        "bagpred_outcomes_pending",
        &[],
        inner.pending_outcomes() as f64,
    );
    expo.header(
        "bagpred_drift_alarms_total",
        "counter",
        "Drift alarm edges: times a model was newly flagged as drifting.",
    );
    expo.sample(
        "bagpred_drift_alarms_total",
        &[],
        inner.outcomes.drift_alarms() as f64,
    );
    expo.header(
        "bagpred_drifting_models",
        "gauge",
        "Models whose advisory drift alarm is currently latched.",
    );
    expo.sample(
        "bagpred_drifting_models",
        &[],
        inner.health.drifting_count() as f64,
    );

    let boot = crate::metrics::boot_stats();
    expo.header(
        "bagpred_boot_snapshot_dir_errors_total",
        "counter",
        "Boots that failed because the snapshot directory was unusable.",
    );
    expo.sample(
        "bagpred_boot_snapshot_dir_errors_total",
        &[],
        boot.snapshot_dir_errors() as f64,
    );
    expo.header(
        "bagpred_boot_snapshots_quarantined_total",
        "counter",
        "Corrupt snapshot files moved aside as .corrupt during boot scans.",
    );
    expo.sample(
        "bagpred_boot_snapshots_quarantined_total",
        &[],
        boot.snapshots_quarantined() as f64,
    );

    expo.header(
        "bagpred_model_quarantined",
        "gauge",
        "Whether the model is quarantined (1) or serving (0), per model.",
    );
    expo.header(
        "bagpred_model_drifting",
        "gauge",
        "Whether the model's advisory drift alarm is latched (1) or clear (0), per model.",
    );
    for report in inner
        .registry
        .list()
        .into_iter()
        .map(|(name, _)| inner.health.report_for(&name))
    {
        let labels = [("model", report.model.as_str())];
        expo.sample(
            "bagpred_model_quarantined",
            &labels,
            if report.quarantined { 1.0 } else { 0.0 },
        );
        expo.sample(
            "bagpred_model_drifting",
            &labels,
            if report.drifting { 1.0 } else { 0.0 },
        );
    }

    expo.header(
        "bagpred_model_outcomes_total",
        "counter",
        "Outcome reports joined to predictions served by the model.",
    );
    expo.header(
        "bagpred_model_online_mape_percent",
        "gauge",
        "Mean absolute percentage error over every joined outcome, per model.",
    );
    expo.header(
        "bagpred_model_ewma_mape_percent",
        "gauge",
        "Exponentially weighted recent absolute percentage error, per model.",
    );
    expo.header(
        "bagpred_model_bias_us",
        "gauge",
        "Mean signed residual (positive = over-prediction), microseconds, per model.",
    );
    expo.header(
        "bagpred_model_residual_us",
        "histogram",
        "Absolute prediction residual |predicted - actual|, microseconds, per model.",
    );
    expo.header(
        "bagpred_model_calibration_ratio",
        "histogram",
        "Predicted/actual ratio scaled by 1024 (1024 = perfectly calibrated), per model.",
    );
    for name in inner.trackers.names() {
        let Some(tracker) = inner.trackers.get(&name) else {
            continue;
        };
        let labels = [("model", name.as_str())];
        let window = tracker.window();
        expo.sample(
            "bagpred_model_outcomes_total",
            &labels,
            window.matched() as f64,
        );
        expo.sample(
            "bagpred_model_online_mape_percent",
            &labels,
            window.online_mape_percent(),
        );
        expo.sample(
            "bagpred_model_ewma_mape_percent",
            &labels,
            window.ewma_mape_percent(),
        );
        expo.sample("bagpred_model_bias_us", &labels, window.bias_us());
        let snap = window.snapshot();
        expo.histogram("bagpred_model_residual_us", &labels, &snap.residual);
        expo.histogram(
            "bagpred_model_calibration_ratio",
            &labels,
            &snap.calibration,
        );
    }

    expo.header(
        "bagpred_model_received_total",
        "counter",
        "Requests resolved to the model.",
    );
    expo.header(
        "bagpred_model_succeeded_total",
        "counter",
        "Requests the model answered with an ok reply.",
    );
    expo.header(
        "bagpred_model_failed_total",
        "counter",
        "Requests charged to the model that failed.",
    );
    expo.header(
        "bagpred_model_latency_us",
        "histogram",
        "End-to-end latency of requests served by the model, microseconds.",
    );
    expo.header(
        "bagpred_model_queue_wait_us",
        "histogram",
        "Queue wait of requests served by the model, microseconds.",
    );
    expo.header(
        "bagpred_model_service_time_us",
        "histogram",
        "Service time of requests served by the model, microseconds.",
    );
    for name in inner.model_metrics.names() {
        let Some(model) = inner.model_metrics.get(&name) else {
            continue;
        };
        let labels = [("model", name.as_str())];
        let snap = model.snapshot();
        expo.sample(
            "bagpred_model_received_total",
            &labels,
            snap.received as f64,
        );
        expo.sample(
            "bagpred_model_succeeded_total",
            &labels,
            snap.succeeded as f64,
        );
        expo.sample("bagpred_model_failed_total", &labels, snap.failed as f64);
        expo.histogram(
            "bagpred_model_latency_us",
            &labels,
            &model.latency().snapshot(),
        );
        expo.histogram(
            "bagpred_model_queue_wait_us",
            &labels,
            &model.queue_wait().snapshot(),
        );
        expo.histogram(
            "bagpred_model_service_time_us",
            &labels,
            &model.service().snapshot(),
        );
    }

    expo.header(
        "bagpred_shard_queue_depth",
        "gauge",
        "Jobs waiting in the shard's queue right now, per shard.",
    );
    expo.header(
        "bagpred_shard_enqueued_total",
        "counter",
        "Jobs accepted by the shard, queued or run inline, per shard.",
    );
    expo.header(
        "bagpred_shard_inline_total",
        "counter",
        "Accepted jobs run inline on the submitting thread instead of queued, per shard.",
    );
    expo.header(
        "bagpred_shard_served_total",
        "counter",
        "Jobs answered under the shard's slots (by a worker or inline), per shard.",
    );
    expo.header(
        "bagpred_shard_shed_total",
        "counter",
        "Jobs the shard refused (queue full) or expired at dequeue, per shard.",
    );
    expo.header(
        "bagpred_shard_queue_wait_us",
        "gauge",
        "Time jobs sat in the shard's queue before pickup, microseconds, per shard and quantile.",
    );
    for shard in inner.shard_snapshots() {
        let labels = [("shard", shard.name.as_str())];
        expo.sample(
            "bagpred_shard_queue_depth",
            &labels,
            shard.queue_depth as f64,
        );
        expo.sample(
            "bagpred_shard_enqueued_total",
            &labels,
            shard.enqueued as f64,
        );
        expo.sample("bagpred_shard_inline_total", &labels, shard.inline as f64);
        expo.sample("bagpred_shard_served_total", &labels, shard.served as f64);
        expo.sample("bagpred_shard_shed_total", &labels, shard.shed as f64);
        for (quantile, value) in [
            ("0.5", shard.queue_wait.p50_us),
            ("0.95", shard.queue_wait.p95_us),
            ("0.99", shard.queue_wait.p99_us),
            ("1", shard.queue_wait.max_us),
        ] {
            expo.sample(
                "bagpred_shard_queue_wait_us",
                &[("shard", shard.name.as_str()), ("quantile", quantile)],
                value as f64,
            );
        }
    }

    expo.render()
}
