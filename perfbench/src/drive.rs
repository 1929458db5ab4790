//! Boots the real server in-process and drives it with closed-loop
//! clients: set-up, warm-up and the timed phases.

use crate::check::{schedule_reply_ok, Oracle, SeenReplies};
use crate::plan::{self, Kind, Op, OpStream, Verb};
use crate::spans::SpanLog;
use bagpred_core::Platforms;
use bagpred_serve::{bootstrap, CacheMapStats, Client, PredictionService, Server, ServiceConfig};
use bagpred_workloads::Workload;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A running service and its TCP front-end, booted the way `repro serve`
/// boots: `default_registry`, `PredictionService::start`, `Server::bind`,
/// all with default configs.
pub struct Booted {
    /// The engine.
    pub service: Arc<PredictionService>,
    /// The listener on an ephemeral loopback port.
    pub server: Server,
    /// The offline side of every reply check.
    pub oracle: Oracle,
    /// The simulated platforms the service predicts for.
    pub platforms: Platforms,
}

impl Booted {
    /// Trains both models and starts serving.
    pub fn boot() -> Booted {
        let platforms = Platforms::paper();
        let registry = bootstrap::default_registry(&platforms);
        let oracle = Oracle::new(&registry, platforms.clone());
        let service =
            PredictionService::start(registry, platforms.clone(), ServiceConfig::default());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("server binds");
        Booted {
            service,
            server,
            oracle,
            platforms,
        }
    }

    /// A fresh binary client of the server.
    pub fn client(&self) -> Client {
        Client::new(self.server.local_addr())
    }

    /// Per-map cache counters now: apps, fairness, nbags, profiles.
    pub fn cache_stats(&self) -> [CacheMapStats; 4] {
        self.service.cache().map_stats()
    }

    /// Stops the listener (joining every connection) and the engine.
    pub fn shutdown(mut self) {
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// Requests sent, answered correctly, and failed, for one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Wire requests sent.
    pub sent: u64,
    /// Requests whose reply passed its check.
    pub ok: u64,
    /// Requests that errored or whose reply failed its check.
    pub failed: u64,
}

impl Tally {
    /// Folds another tally in.
    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }

    /// Counts failures found outside a request (a broken check or probe).
    pub fn add_failures(&mut self, failed: u64) {
        self.failed += failed;
    }

    /// Counts one request or check and its outcome.
    pub fn pass(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// Everything a workload's set-up produced.
pub struct Setup {
    /// The running server.
    pub booted: Booted,
    /// One connected client per closed loop.
    pub clients: Vec<Client>,
    /// Ground-truth co-run µs of every warm pair (loop-mixed only).
    pub truth: HashMap<(Workload, Workload), u64>,
    /// The features-cold requests the timed phases send (empty elsewhere).
    pub cold: Vec<Vec<Workload>>,
    /// The warm-up requests.
    pub warm: Tally,
    /// Replies seen during warm-up.
    pub seen: SeenReplies,
    /// How long the warm-up took.
    pub warm_time: Duration,
}

/// Boots the service and warms what the workload keeps warm: every warm
/// pair on pair-hot and loop-mixed (plus the ground truth loop-mixed
/// reports back), and only the connections on features-cold.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    let booted = Booted::boot();
    let cold = match kind {
        Kind::FeaturesCold => {
            let mut cold = plan::cold_plan(seed);
            cold.truncate(cold.len().saturating_sub(plan::LEDGER_COLD));
            cold
        }
        Kind::PairHot | Kind::LoopMixed => Vec::new(),
    };
    let started = Instant::now();
    let pairs = plan::warm_pairs();
    let truth = match kind {
        Kind::LoopMixed => pairs
            .iter()
            .map(|&(a, b)| ((a, b), booted.oracle.ground_truth_us(a, b)))
            .collect(),
        Kind::PairHot | Kind::FeaturesCold => HashMap::new(),
    };
    let mut clients: Vec<Client> = (0..kind.clients()).map(|_| booted.client()).collect();
    let mut warm = Tally::default();
    let mut seen = SeenReplies::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                let pairs = &pairs;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut seen = SeenReplies::default();
                    if kind == Kind::FeaturesCold {
                        let reply = client.request("models");
                        tally.pass(reply.is_ok_and(|r| r.starts_with("ok models=")));
                        return (tally, seen);
                    }
                    for &(a, b) in pairs.iter().skip(index).step_by(kind.clients()) {
                        let apps = [a, b];
                        let reply = client.request(&plan::predict_line(&apps));
                        tally.pass(reply.is_ok_and(|r| seen.record(&apps, &r)));
                    }
                    (tally, seen)
                })
            })
            .collect();
        for handle in handles {
            let (tally, client_seen) = handle.join().expect("warm-up client panicked");
            warm.add(tally);
            seen.merge(client_seen);
        }
    });
    Setup {
        booted,
        clients,
        truth,
        cold,
        warm,
        seen,
        warm_time: started.elapsed(),
    }
}

/// What a client draws its operations from.
enum Source<'a> {
    Stream(OpStream),
    Cold(&'a [Vec<Workload>]),
}

/// One timed request: completion µs since the phase start and latency
/// ns, both saturating at `u32::MAX` (71 minutes, 4.3 seconds). Eight
/// bytes a request keep the benchmark's own memory small next to the
/// service's.
pub type Sample = (u32, u32);

/// One closed-loop client's share of a phase.
pub struct ClientRun {
    /// Exact per-request samples by [`Verb`] index.
    pub samples: [Vec<Sample>; 4],
    /// Requests sent, passed and failed.
    pub tally: Tally,
    /// Predict replies by bag, for the oracle check.
    pub seen: SeenReplies,
    /// Cold requests that recorded fewer `apps` misses than new members.
    pub cold_violations: u64,
    /// Cold requests consumed from the plan.
    pub cold_used: usize,
    /// Client-side spans (traced phases only).
    pub spans: Option<SpanLog>,
    /// When the phase started.
    pub phase_start: Instant,
}

/// All clients' results for one timed phase.
#[derive(Default)]
pub struct PhaseRun {
    /// Samples by [`Verb`] index, merged across clients.
    pub samples: [Vec<Sample>; 4],
    /// Requests sent, passed and failed.
    pub tally: Tally,
    /// Wall time from the first client's start to the last one's stop.
    pub wall: Duration,
    /// Cold-key self-check violations.
    pub cold_violations: u64,
    /// Cold requests consumed.
    pub cold_used: usize,
    /// Client retries during the phase.
    pub retries: u64,
    /// Predict replies by bag, for the oracle check.
    pub seen: SeenReplies,
    /// Client-side spans, when traced.
    pub spans: Option<SpanLog>,
}

impl PhaseRun {
    /// Latencies (ns) of one verb's requests.
    pub fn latencies(&self, verb: Verb) -> Vec<u64> {
        self.samples[verb as usize]
            .iter()
            .map(|&(_, ns)| u64::from(ns))
            .collect()
    }

    /// Latencies (ns) of every request.
    pub fn all_latencies(&self) -> Vec<u64> {
        self.samples
            .iter()
            .flatten()
            .map(|&(_, ns)| u64::from(ns))
            .collect()
    }

    /// Every request's sample, all verbs.
    pub fn timeline(&self) -> Vec<Sample> {
        self.samples.iter().flatten().copied().collect()
    }
}

/// Fixed inputs shared by every client of a phase.
pub struct PhaseCtx<'a> {
    /// The workload.
    pub kind: Kind,
    /// Its seed.
    pub seed: u64,
    /// The server (cache counters for the cold self-check).
    pub booted: &'a Booted,
    /// Ground truth for observes.
    pub truth: &'a HashMap<(Workload, Workload), u64>,
    /// The remaining features-cold plan.
    pub cold: &'a [Vec<Workload>],
    /// Stream offset, so consecutive phases draw fresh requests.
    pub stream_offset: usize,
    /// Record client spans against this origin.
    pub trace_origin: Option<Instant>,
}

/// Runs one timed phase of `duration` with every client in a closed loop.
pub fn run_phase(ctx: &PhaseCtx<'_>, clients: &mut [Client], duration: Duration) -> PhaseRun {
    let barrier = Barrier::new(clients.len());
    let retries_before: u64 = clients.iter().map(Client::retries).sum();
    let phase_start = Instant::now();
    let runs: Vec<(ClientRun, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let source = match ctx.kind {
                        Kind::FeaturesCold => Source::Cold(ctx.cold),
                        Kind::PairHot | Kind::LoopMixed => Source::Stream(OpStream::new(
                            ctx.kind,
                            ctx.seed,
                            ctx.stream_offset + index,
                        )),
                    };
                    barrier.wait();
                    let start = Instant::now();
                    let run = drive_client(ctx, client, index, source, phase_start, duration);
                    (run, start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let first = runs.iter().map(|r| r.1).min().expect("at least one client");
    let last = runs.iter().map(|r| r.2).max().expect("at least one client");
    let mut phase = PhaseRun {
        wall: last - first,
        retries: clients.iter().map(Client::retries).sum::<u64>() - retries_before,
        ..PhaseRun::default()
    };
    for (run, _, _) in runs {
        for (all, mine) in phase.samples.iter_mut().zip(run.samples) {
            all.extend(mine);
        }
        phase.tally.add(run.tally);
        phase.cold_violations += run.cold_violations;
        phase.cold_used += run.cold_used;
        phase.seen.merge(run.seen);
        if let Some(spans) = run.spans {
            phase
                .spans
                .get_or_insert_with(|| SpanLog::new(ctx.trace_origin.expect("traced")))
                .absorb(spans);
        }
    }
    phase
}

/// Sends one request, timing it (and recording a span when traced).
fn timed<T>(run: &mut ClientRun, verb: Verb, request: u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let saturate = |v: u128| u32::try_from(v).unwrap_or(u32::MAX);
    run.samples[verb as usize].push((
        saturate((end - run.phase_start).as_micros()),
        saturate((end - start).as_nanos()),
    ));
    if let Some(log) = &mut run.spans {
        let name = match verb {
            Verb::Predict => "client.predict",
            Verb::NBag => "client.nbag",
            Verb::Schedule => "client.schedule",
            Verb::Observe => "client.observe",
        };
        log.record(name, None, request, start, end);
    }
    out
}

fn drive_client(
    ctx: &PhaseCtx<'_>,
    client: &mut Client,
    index: usize,
    mut source: Source<'_>,
    phase_start: Instant,
    duration: Duration,
) -> ClientRun {
    let deadline = phase_start + duration;
    let mut run = ClientRun {
        samples: Default::default(),
        tally: Tally::default(),
        seen: SeenReplies::default(),
        cold_violations: 0,
        cold_used: 0,
        spans: ctx.trace_origin.map(SpanLog::new),
        phase_start,
    };
    let mut request = (index as u64) << 48;
    while Instant::now() < deadline {
        let op = match &mut source {
            Source::Stream(stream) => stream.next_op(),
            Source::Cold(plan) => match plan.get(run.cold_used) {
                Some(apps) => {
                    run.cold_used += 1;
                    Op::Predict(apps.clone())
                }
                None => break,
            },
        };
        request += 1;
        match op {
            Op::Predict(apps) => {
                let cold = matches!(source, Source::Cold(_));
                let before = cold.then(|| ctx.booted.cache_stats()[0].misses);
                predict(client, &apps, request, &mut run);
                if let Some(before) = before {
                    let misses = ctx.booted.cache_stats()[0].misses - before;
                    if misses < apps.len() as u64 {
                        run.cold_violations += 1;
                    }
                }
            }
            Op::PredictObserve(a, b) => {
                if !predict(client, &[a, b], request, &mut run) {
                    continue;
                }
                let id = client.last_request_id().expect("a request was sent");
                let actual = ctx.truth[&(a, b)];
                let reply = timed(&mut run, Verb::Observe, request, || {
                    client.report_outcome(id, actual)
                });
                run.tally
                    .pass(matches!(&reply, Ok(r) if r == "ok outcome=matched"));
            }
            Op::Schedule { gpus, apps } => {
                let line = plan::schedule_line(gpus, &apps);
                let reply = timed(&mut run, Verb::Schedule, request, || client.request(&line));
                run.tally
                    .pass(matches!(&reply, Ok(r) if schedule_reply_ok(r, gpus, &apps)));
            }
        }
    }
    run
}

/// One `predict`; returns whether it succeeded.
fn predict(client: &mut Client, apps: &[Workload], request: u64, run: &mut ClientRun) -> bool {
    let line = plan::predict_line(apps);
    let verb = Verb::of_predict(apps);
    let reply = timed(run, verb, request, || client.request(&line));
    let ok = reply.is_ok_and(|r| run.seen.record(apps, &r));
    run.tally.pass(ok);
    ok
}
