//! The traced run's per-layer ledger: each layer's public functions timed
//! on the workload's inputs, with a span around every call.
//!
//! Every workload reports every layer, so a change to one layer can be
//! seen to move the workload that exercises it and to leave the others
//! alone. Nanosecond-scale calls are timed in batches (one span per
//! batch) so the clock read does not dominate them.

use crate::check::SeenReplies;
use crate::drive::{Booted, Tally};
use crate::plan::{self, Kind, OpStream, Verb};
use crate::report::Metrics;
use crate::spans::SpanLog;
use crate::stats::{median, Summary};
use bagpred_core::nbag::{measure_nbags, nbag_corpus, NBag, NBagPredictor};
use bagpred_core::{Bag, Corpus, FeatureSet, ModelKind, Platforms, Predictor};
use bagpred_cpusim::fairness;
use bagpred_ml::codec::fmt_f64;
use bagpred_obs::ResidualWindow;
use bagpred_serve::admission::{self, AdmissionPolicy};
use bagpred_serve::bootstrap::{NBAG_MODEL, PAIR_MODEL};
use bagpred_serve::frame::{self, Frame, Payload};
use bagpred_serve::protocol::parse_request_options;
use bagpred_serve::{FeatureCache, Reply, Request, ServableModel, ServiceConfig};
use bagpred_workloads::{Benchmark, Workload};
use std::collections::HashSet;
use std::hint::black_box;

/// Warm pairs timed per hot-path layer.
const HOT_N: usize = 2000;
/// Calls per span for nanosecond-scale layers.
const BATCH: usize = 64;
/// Fresh n-bags timed against the at-capacity cache.
const NBAG_MISSES: usize = 1000;
/// Admission packings timed.
const SCHEDULES: usize = 300;
/// Orphan observes timed against the full pending ring.
const OBSERVES: usize = 1000;
/// Residual-window updates timed.
const RESIDUALS: usize = 100_000;
/// Cold requests per half (engine / layers), at least.
const COLD_PER_HALF: usize = 12;
/// Requests per verb when the workload's own mix lacks that verb.
const VERB_PROBE: usize = 200;
/// Extra heterogeneous bags in the n-bag corpus `bootstrap` trains on.
const NBAG_EXTRA: usize = 20;

/// Client stream indices the ledger draws from, clear of the phases'.
const STREAM_BASE: usize = 16;

fn p50_us(samples: &[u64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50 as f64 / 1e3)
}

/// Times the set-up layers cold, before the service boots: both corpus
/// measurements and both trainings, in the configuration
/// `bootstrap::default_registry` trains.
pub fn setup_layers(log: &mut SpanLog, platforms: &Platforms, metrics: &mut Metrics) {
    let (records, corpus) = log.time("setup.corpus_measure", None, 0, || {
        Corpus::paper().measure_on(platforms)
    });
    let (nrecords, nbag) = log.time("setup.nbag_measure", None, 0, || {
        measure_nbags(&nbag_corpus(NBAG_EXTRA), platforms)
    });
    let (_, pair_train) = log.time("setup.train_pair", None, 0, || {
        let mut p = Predictor::new(FeatureSet::full()).with_model(ModelKind::DecisionTree);
        p.train(&records);
        p
    });
    let (_, nbag_train) = log.time("setup.train_nbag", None, 0, || {
        let mut p = NBagPredictor::new();
        p.train(&nrecords);
        p
    });
    metrics.push("setup.corpus_measure_s", corpus.as_secs_f64(), "s");
    metrics.push("setup.nbag_measure_s", nbag.as_secs_f64(), "s");
    metrics.push("setup.train_pair_ms", pair_train.as_secs_f64() * 1e3, "ms");
    metrics.push("setup.train_nbag_ms", nbag_train.as_secs_f64() * 1e3, "ms");
}

/// What the ledger reads from the workload and writes back.
pub struct Ledger<'a> {
    /// The workload whose inputs the ledger draws.
    pub kind: Kind,
    /// Its seed.
    pub seed: u64,
    /// The running service.
    pub booted: &'a Booted,
    /// Never-seen cold requests (the tail of the seed's cold plan).
    pub cold: &'a [Vec<Workload>],
    /// Spans of every timed call.
    pub log: &'a mut SpanLog,
    /// Per-layer metrics.
    pub metrics: &'a mut Metrics,
    /// Requests and checks the ledger makes.
    pub tally: &'a mut Tally,
    /// Predict replies for the oracle check.
    pub seen: &'a mut SeenReplies,
}

impl Ledger<'_> {
    fn stream(&self, offset: usize) -> OpStream {
        // The warm-pair generators are shared with pair-hot and
        // loop-mixed; features-cold draws from the same ones.
        let kind = match self.kind {
            Kind::LoopMixed => Kind::LoopMixed,
            Kind::PairHot | Kind::FeaturesCold => Kind::PairHot,
        };
        OpStream::new(kind, self.seed, STREAM_BASE + offset)
    }

    fn model(&self, name: &str) -> std::sync::Arc<ServableModel> {
        self.booted
            .service
            .registry()
            .get(name)
            .expect("default models registered")
    }

    /// Runs every layer and pushes its metrics.
    pub fn run(&mut self) {
        self.hot_path();
        self.nbag_cache();
        self.admission();
        self.observe_ring();
        self.residual_window();
        self.cold_path();
    }

    fn engine_predict(&mut self, apps: &[Workload]) -> bool {
        let outcome = self.booted.service.call(Request::Predict {
            model: None,
            apps: apps.to_vec(),
        });
        self.record_engine_reply(apps, outcome)
    }

    fn record_engine_reply(
        &mut self,
        apps: &[Workload],
        outcome: Result<Reply, bagpred_serve::ServeError>,
    ) -> bool {
        let ok = match outcome {
            Ok(Reply::Prediction { model, predicted_s }) => {
                let line = format!("ok model={model} predicted_s={}", fmt_f64(predicted_s));
                self.seen.record(apps, &line)
            }
            _ => false,
        };
        self.tally.pass(ok);
        ok
    }

    /// Warm pair predicts, layer by layer: client round trip, in-process
    /// engine call, codec, cache assembly, tree walk. What the round
    /// trip spends outside the other three is the transport.
    fn hot_path(&mut self) {
        let mut stream = self.stream(0);
        let pairs: Vec<[Workload; 2]> = (0..HOT_N)
            .map(|_| {
                let (a, b) = stream.next_pair();
                [a, b]
            })
            .collect();
        for apps in &pairs {
            self.engine_predict(apps);
        }

        let mut client = self.booted.client();
        let mut e2e = Vec::with_capacity(HOT_N);
        for (i, apps) in pairs.iter().enumerate() {
            let line = plan::predict_line(apps);
            let (reply, took) = self
                .log
                .time("client.predict", None, i as u64, || client.request(&line));
            e2e.push(took.as_nanos() as u64);
            self.tally
                .pass(reply.is_ok_and(|r| self.seen.record(apps, &r)));
        }
        drop(client);

        let mut engine = Vec::with_capacity(HOT_N);
        for (i, apps) in pairs.iter().enumerate() {
            let request = Request::Predict {
                model: None,
                apps: apps.to_vec(),
            };
            let (outcome, took) = self.log.time("serve.engine.call", None, i as u64, || {
                self.booted.service.call(request)
            });
            engine.push(took.as_nanos() as u64);
            self.record_engine_reply(apps, outcome);
        }

        let platforms = &self.booted.platforms;
        let cache = self.booted.service.cache();
        let pair_model = self.model(PAIR_MODEL);
        let ServableModel::Pair(predictor) = &*pair_model else {
            panic!("`{PAIR_MODEL}` is not a pair model");
        };
        let lines: Vec<String> = pairs.iter().map(|a| plan::predict_line(a)).collect();
        let mut codec = Vec::new();
        let mut assemble = Vec::new();
        let mut walk = Vec::new();
        for (batch, chunk) in pairs.chunks(BATCH).enumerate() {
            let lines = &lines[batch * BATCH..batch * BATCH + chunk.len()];
            let per = chunk.len() as f64;
            let (_, took) = self.log.time("serve.frame.codec", None, batch as u64, || {
                for (i, line) in lines.iter().enumerate() {
                    codec_round_trip(i as u64, line);
                }
            });
            codec.push(took.as_nanos() as f64 / per);
            let (records, took) =
                self.log
                    .time("serve.cache.pair_measurement", None, batch as u64, || {
                        chunk
                            .iter()
                            .map(|a| cache.pair_measurement(Bag::pair(a[0], a[1]), platforms))
                            .collect::<Vec<_>>()
                    });
            assemble.push(took.as_nanos() as f64 / per);
            let (_, took) = self
                .log
                .time("core.predictor.predict", None, batch as u64, || {
                    for record in &records {
                        black_box(predictor.predict(black_box(record)));
                    }
                });
            walk.push(took.as_nanos() as f64 / per);
        }
        let codec_ns = median(&codec);
        let (e2e_us, engine_us) = (p50_us(&e2e), p50_us(&engine));
        self.metrics.push("serve.frame.codec_ns", codec_ns, "ns");
        self.metrics.push("serve.engine.call_us", engine_us, "us");
        self.metrics
            .push("serve.cache.pair_measurement_ns", median(&assemble), "ns");
        self.metrics
            .push("core.predictor.predict_ns", median(&walk), "ns");
        self.metrics.push(
            "serve.transport_us",
            e2e_us - engine_us - codec_ns / 1e3,
            "us",
        );
    }

    /// n-bag misses on a cache filled to the service's default capacity,
    /// so every miss also evicts; then the n-bag tree walk on them.
    fn nbag_cache(&mut self) {
        let capacity = ServiceConfig::default().cache_capacity;
        let cache = FeatureCache::with_capacity(capacity);
        let platforms = &self.booted.platforms;
        let mut stream = self.stream(1);
        let mut used = HashSet::new();
        let mut fresh = |stream: &mut OpStream| loop {
            let bag = stream.next_nbag();
            if used.insert(bag.clone()) {
                return bag;
            }
        };
        for _ in 0..capacity {
            cache.nbag_measurement(&fresh(&mut stream), platforms);
        }
        let bags: Vec<NBag> = (0..NBAG_MISSES).map(|_| fresh(&mut stream)).collect();
        let evictions_before = cache.map_stats()[2].evictions;
        let mut misses = Vec::with_capacity(NBAG_MISSES);
        let mut records = Vec::with_capacity(NBAG_MISSES);
        for (i, bag) in bags.iter().enumerate() {
            let (record, took) =
                self.log
                    .time("serve.cache.nbag_measurement", None, i as u64, || {
                        cache.nbag_measurement(bag, platforms)
                    });
            misses.push(took.as_nanos() as u64);
            records.push(record);
        }
        let evicted = cache.map_stats()[2].evictions - evictions_before;
        self.tally.pass(evicted == NBAG_MISSES as u64);

        let nbag_model = self.model(NBAG_MODEL);
        let ServableModel::NBag(predictor) = &*nbag_model else {
            panic!("`{NBAG_MODEL}` is not an n-bag model");
        };
        let mut walk = Vec::new();
        for (batch, chunk) in records.chunks(BATCH).enumerate() {
            let (_, took) = self.log.time("core.nbag.predict", None, batch as u64, || {
                for record in chunk {
                    black_box(predictor.predict(black_box(record)));
                }
            });
            walk.push(took.as_nanos() as f64 / chunk.len() as f64);
        }
        self.metrics
            .push("serve.cache.nbag_miss_us", p50_us(&misses), "us");
        self.metrics
            .push("core.nbag.predict_ns", median(&walk), "ns");
    }

    /// First-fit-decreasing packing of the workload's `schedule` inputs,
    /// on the service's own cache and the model the engine would pick.
    fn admission(&mut self) {
        let mut stream = self.stream(2);
        let mut samples = Vec::with_capacity(SCHEDULES);
        for i in 0..SCHEDULES {
            let plan::Op::Schedule { gpus, apps } = stream.schedule() else {
                unreachable!("schedule() yields schedules");
            };
            // The engine's arity rule: an n-bag model once some GPU must
            // take more than two apps.
            let name = if apps.len() > 2 && gpus * 2 < apps.len() {
                NBAG_MODEL
            } else {
                PAIR_MODEL
            };
            let model = self.model(name);
            let cache = self.booted.service.cache();
            let platforms = &self.booted.platforms;
            let (placement, took) = self.log.time("serve.admission.place", None, i as u64, || {
                admission::place(
                    &model,
                    cache,
                    platforms,
                    gpus,
                    plan::SCHEDULE_BUDGET_S,
                    &apps,
                    AdmissionPolicy::Ffd,
                )
            });
            samples.push(took.as_nanos() as u64);
            self.tally
                .pass(placement.is_ok_and(|p| p.admitted() + p.rejected.len() == apps.len()));
        }
        self.metrics
            .push("serve.admission.place_us", p50_us(&samples), "us");
    }

    /// `observe` through the engine against a pending ring filled to
    /// capacity by tagged wire predicts: each report scans the ring.
    fn observe_ring(&mut self) {
        let capacity = ServiceConfig::default().outcome_capacity;
        let mut stream = self.stream(3);
        let mut client = self.booted.client();
        for _ in 0..capacity {
            let (a, b) = stream.next_pair();
            let reply = client.request(&plan::predict_line(&[a, b]));
            self.tally
                .pass(reply.is_ok_and(|r| self.seen.record(&[a, b], &r)));
        }
        drop(client);
        let mut samples = Vec::with_capacity(OBSERVES);
        for i in 0..OBSERVES {
            // Ids no client ever used: every report scans the full ring.
            let request = Request::Observe {
                id: u64::MAX - i as u64,
                actual_us: 1_000,
            };
            let (outcome, took) = self.log.time("serve.engine.observe", None, i as u64, || {
                self.booted.service.call(request)
            });
            samples.push(took.as_nanos() as u64);
            self.tally
                .pass(matches!(outcome, Ok(Reply::Observed { matched: false })));
        }
        self.metrics
            .push("serve.engine.observe_us", p50_us(&samples), "us");
    }

    /// The rolling residual window one matched outcome updates.
    fn residual_window(&mut self) {
        let mut stream = self.stream(4);
        let oracle = &self.booted.oracle;
        let pairs: Vec<(u64, u64)> = (0..256)
            .map(|_| {
                let (a, b) = stream.next_pair();
                let predicted = (oracle.predict(&[a, b]) * 1e6).round().max(1.0) as u64;
                (predicted, oracle.ground_truth_us(a, b))
            })
            .collect();
        let window = ResidualWindow::new();
        let per_batch = 1000;
        let mut costs = Vec::new();
        for batch in 0..RESIDUALS / per_batch {
            let (_, took) = self
                .log
                .time("obs.residual.observe", None, batch as u64, || {
                    for i in 0..per_batch {
                        let (p, a) = pairs[(batch * per_batch + i) % pairs.len()];
                        black_box(window.observe(black_box(p), black_box(a)));
                    }
                });
            costs.push(took.as_nanos() as f64 / per_batch as f64);
        }
        self.metrics
            .push("obs.residual.observe_ns", median(&costs), "ns");
    }

    /// Never-seen keys, alternating between a cold engine call and the
    /// same kind of request timed layer by layer (profile, CPU and GPU
    /// simulation, fairness). The halves draw from one stratified key
    /// stream, so per app they should agree; `ledger.reconcile_pct` is
    /// how far they do not.
    fn cold_path(&mut self) {
        let cpu = self.booted.platforms.cpu().clone();
        let gpu = self.booted.platforms.gpu().clone();
        let (mut engine_ns, mut engine_apps) = (0u64, 0usize);
        let (mut layer_ns, mut layer_apps) = (0u64, 0usize);
        let mut profile_by_bench: Vec<Vec<u64>> = vec![Vec::new(); Benchmark::ALL.len()];
        let (mut best, mut single, mut fair) = (Vec::new(), Vec::new(), Vec::new());
        let mut halves = [0usize; 2];
        for (i, apps) in self.cold.iter().enumerate() {
            let covered = profile_by_bench.iter().all(|v| !v.is_empty());
            if halves.iter().all(|&n| n >= COLD_PER_HALF) && covered {
                break;
            }
            let id = i as u64;
            if i % 2 == 0 {
                let request = Request::Predict {
                    model: None,
                    apps: apps.clone(),
                };
                let (outcome, took) = self.log.time("serve.engine.call_cold", None, id, || {
                    self.booted.service.call(request)
                });
                engine_ns += took.as_nanos() as u64;
                engine_apps += apps.len();
                self.record_engine_reply(apps, outcome);
                halves[0] += 1;
                continue;
            }
            let parent = self.log.open("ledger.cold_layers", None, id);
            let mut profiles = Vec::with_capacity(apps.len());
            for &w in apps {
                let (profile, took) = self
                    .log
                    .time("workloads.profile", Some(parent), id, || w.profile());
                profile_by_bench[Benchmark::ALL
                    .iter()
                    .position(|&b| b == w.benchmark())
                    .expect("a known benchmark")]
                .push(took.as_nanos() as u64);
                let (_, took) = self.log.time("cpusim.simulate_best", Some(parent), id, || {
                    black_box(cpu.simulate_best(&profile))
                });
                best.push(took.as_nanos() as u64);
                let (_, took) = self.log.time("gpusim.simulate", Some(parent), id, || {
                    black_box(gpu.simulate(&profile))
                });
                single.push(took.as_nanos() as u64);
                profiles.push(profile);
            }
            let (_, took) = self.log.time("cpusim.fairness", Some(parent), id, || {
                black_box(fairness(&cpu, &profiles))
            });
            fair.push(took.as_nanos() as u64);
            layer_ns += self.log.close(parent).as_nanos() as u64;
            layer_apps += apps.len();
            halves[1] += 1;
        }
        let covered = profile_by_bench.iter().all(|v| !v.is_empty());
        self.tally.pass(covered && halves.iter().all(|&n| n > 0));

        let mean_ms = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e6;
        let all_profiles: Vec<u64> = profile_by_bench.iter().flatten().copied().collect();
        self.metrics
            .push("workloads.profile_ms", mean_ms(&all_profiles), "ms");
        for (bench, samples) in Benchmark::ALL.iter().zip(&profile_by_bench) {
            self.metrics.push(
                format!("workloads.profile_ms.{}", bench.name()),
                mean_ms(samples),
                "ms",
            );
        }
        self.metrics
            .push("cpusim.simulate_best_us", p50_us(&best), "us");
        self.metrics
            .push("gpusim.simulate_us", p50_us(&single), "us");
        self.metrics.push("cpusim.fairness_us", p50_us(&fair), "us");
        let engine_per_app = engine_ns as f64 / engine_apps.max(1) as f64;
        let layer_per_app = layer_ns as f64 / layer_apps.max(1) as f64;
        self.metrics.push(
            "serve.engine.cold_call_ms",
            engine_ns as f64 / halves[0].max(1) as f64 / 1e6,
            "ms",
        );
        self.metrics.push(
            "ledger.reconcile_pct",
            (engine_per_app - layer_per_app).abs() / engine_per_app.max(1.0) * 100.0,
            "%",
        );
    }

    /// Client latencies of verbs the workload's own mix does not send:
    /// one client, [`VERB_PROBE`] requests each.
    pub fn verb_probe(&mut self, verbs: &[Verb]) -> (Vec<(Verb, Vec<u64>)>, u64, u64) {
        let mut stream = self.stream(5);
        let mut client = self.booted.client();
        let mut out = Vec::new();
        let (mut reported, mut matched) = (0, 0);
        for &verb in verbs {
            let mut samples = Vec::with_capacity(VERB_PROBE);
            for i in 0..VERB_PROBE {
                let id = i as u64;
                match verb {
                    Verb::Predict | Verb::NBag | Verb::Observe => {
                        let apps = if verb == Verb::NBag {
                            stream.nbag()
                        } else {
                            let (a, b) = stream.next_pair();
                            vec![a, b]
                        };
                        let line = plan::predict_line(&apps);
                        let (reply, took) = self
                            .log
                            .time("client.probe", None, id, || client.request(&line));
                        let ok = reply.is_ok_and(|r| self.seen.record(&apps, &r));
                        self.tally.pass(ok);
                        if verb != Verb::Observe {
                            samples.push(took.as_nanos() as u64);
                            continue;
                        }
                        let request_id = client.last_request_id().expect("a request was sent");
                        let actual = self.booted.oracle.ground_truth_us(apps[0], apps[1]);
                        let (reply, took) = self.log.time("client.probe", None, id, || {
                            client.report_outcome(request_id, actual)
                        });
                        samples.push(took.as_nanos() as u64);
                        let ok = matches!(&reply, Ok(r) if r == "ok outcome=matched");
                        reported += 1;
                        matched += u64::from(ok);
                        self.tally.pass(ok);
                    }
                    Verb::Schedule => {
                        let plan::Op::Schedule { gpus, apps } = stream.schedule() else {
                            unreachable!("schedule() yields schedules");
                        };
                        let line = plan::schedule_line(gpus, &apps);
                        let (reply, took) = self
                            .log
                            .time("client.probe", None, id, || client.request(&line));
                        samples.push(took.as_nanos() as u64);
                        self.tally.pass(
                            matches!(&reply, Ok(r) if crate::check::schedule_reply_ok(r, gpus, &apps)),
                        );
                    }
                }
            }
            out.push((verb, samples));
        }
        (out, reported, matched)
    }
}

/// One request's worth of wire codec work on the binary path: the
/// client frames the line, the server decodes and parses it, frames the
/// prediction, and the client decodes and renders it.
fn codec_round_trip(id: u64, line: &str) {
    let request = frame::encode(&Frame::new(id, Payload::Line(line.to_string())));
    let (decoded, _) = frame::decode(black_box(&request)).expect("request frame decodes");
    let Payload::Line(text) = decoded.payload else {
        panic!("line frame decoded as another opcode");
    };
    black_box(parse_request_options(&text).expect("generated line parses"));
    let reply = frame::encode(&Frame::new(
        id,
        Payload::Prediction {
            model: PAIR_MODEL.to_string(),
            predicted_s: black_box(0.043_008_207_744_044_66),
        },
    ));
    let (decoded, _) = frame::decode(black_box(&reply)).expect("reply frame decodes");
    if let Payload::Prediction { model, predicted_s } = decoded.payload {
        black_box(format!(
            "ok model={model} predicted_s={}",
            fmt_f64(predicted_s)
        ));
    }
}
