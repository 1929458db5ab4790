//! `bagpred-perfbench` — the serving benchmark.
//!
//! ```text
//! bagpred-perfbench --workload pair-hot|features-cold|loop-mixed
//!                   --seed N --seconds S --trace 0|1
//! ```
//!
//! Boots the prediction service in-process exactly as `repro serve` does
//! and drives it over loopback TCP with closed-loop binary clients whose
//! requests come from `--seed`. Every reply is checked against the
//! offline predictors. The last line of standard output is one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer ledger
//! with `--trace 1` (a separate run, so tracing never touches the
//! end-to-end figures). Lines before it are a human-readable report:
//! host fingerprint, per-phase request counts, sample counts and the
//! counters that show the workload exercised its layer.

mod check;
mod drive;
mod ledger;
mod plan;
mod procfs;
mod report;
mod spans;
mod stats;

use drive::{PhaseCtx, PhaseRun, Setup, Tally};
use plan::{Kind, Verb};
use report::Metrics;
use spans::SpanLog;
use stats::{median, Summary};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Extra fresh-process set-ups per end-to-end run; `setup_s` is the
/// median over these and the run's own set-up.
const SETUP_PROBES: usize = 2;

/// The tail quantile `tail_us` reports on every workload. p99 would have
/// enough samples on the hot workloads, but there it reads the host's
/// vCPU preemptions (stalls of milliseconds) more than the service, and
/// features-cold's ~200 requests per run leave too few beyond it.
const TAIL: f64 = 0.90;

/// Windows the timed phase of a windowed workload is cut into.
const WINDOWS: usize = 20;

/// Windowed figures are read at the better quartile of the windows: the
/// host's CPU contention (preempted vCPUs stall requests for
/// milliseconds) only ever makes a window worse, so this estimates what
/// the service does when the host lets it run, and a burst of contention
/// covering up to three quarters of the run leaves the figure alone.
/// Contention that covers every window still shows.
const BETTER_QUARTILE: f64 = 0.25;

/// Where the traced run writes its spans, relative to the working
/// directory (the checkout root).
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

const USAGE: &str = "usage: bagpred-perfbench --workload pair-hot|features-cold|loop-mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if setup_probe {
            1
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace: if setup_probe {
            false
        } else {
            trace.ok_or("--trace is required")?
        },
        setup_probe,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return setup_probe(&args, started);
    }
    let host = procfs::Host::read();
    let load_before = procfs::loadavg();
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (metrics, tally, exercised) = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args, started)
    };
    println!(
        "host nproc={} cpu=\"{}\" kernel={} loadavg_before={} loadavg_after={}",
        host.nproc,
        host.cpu_model,
        host.kernel,
        load_before,
        procfs::loadavg()
    );
    let declared = report::declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    let emitted: Vec<&str> = metrics.names().collect();
    let undeclared: Vec<&&str> = emitted
        .iter()
        .filter(|n| !declared.iter().any(|d| d == **n))
        .collect();
    let missing: Vec<&String> = declared
        .iter()
        .filter(|d| !emitted.contains(&d.as_str()))
        .collect();
    let bad_names: Vec<&&str> = emitted.iter().filter(|n| !report::valid_name(n)).collect();
    let non_finite = metrics.non_finite();
    let well_formed = undeclared.is_empty()
        && missing.is_empty()
        && bad_names.is_empty()
        && non_finite.is_empty();
    if !well_formed {
        println!(
            "invalid metrics: undeclared {undeclared:?}, missing {missing:?}, \
             bad names {bad_names:?}, non-finite {non_finite:?}"
        );
    }
    let correct = tally.failed == 0 && exercised && well_formed;
    println!("{}", metrics.json(correct, tally.sent.max(1), tally.failed));
    ExitCode::SUCCESS
}

/// Child mode: one fresh-process set-up, timed from `main` to ready.
fn setup_probe(args: &Args, started: Instant) -> ExitCode {
    let setup = drive::setup(args.kind, args.seed);
    let took = started.elapsed();
    let ok = setup.warm.failed == 0;
    drop(setup.clients);
    setup.booted.shutdown();
    if !ok {
        eprintln!("error: set-up probe warm-up failed");
        return ExitCode::FAILURE;
    }
    println!("setup_s={}", took.as_secs_f64());
    ExitCode::SUCCESS
}

/// Runs [`SETUP_PROBES`] fresh-process set-ups, one after another, and
/// returns their set-up times (s).
fn probe_setups(args: &Args) -> Vec<Option<f64>> {
    let exe = std::env::current_exe().expect("own executable path");
    (0..SETUP_PROBES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--setup-probe", "--workload", args.kind.name()])
                .args(["--seed", &args.seed.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .ok()?;
            out.status.success().then_some(())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .last()?
                .strip_prefix("setup_s=")?
                .parse()
                .ok()
        })
        .collect()
}

fn print_phase(name: &str, tally: &Tally) {
    println!(
        "phase {name} sent={} ok={} failed={}",
        tally.sent, tally.ok, tally.failed
    );
}

fn print_latency(label: &str, samples: &[u64]) {
    if let Some(s) = Summary::of(samples) {
        println!(
            "latency {label} n={} p50_us={:.3} p90_us={:.3} p99_us={:.3} mean_us={:.3}",
            s.n,
            s.p50 as f64 / 1e3,
            s.p90 as f64 / 1e3,
            s.p99 as f64 / 1e3,
            s.mean / 1e3
        );
    }
}

/// Service-side counters sampled around a timed phase.
#[derive(Clone, Copy)]
struct ServerCounters {
    maps: [bagpred_serve::CacheMapStats; 4],
    matched: u64,
    orphaned: u64,
    expired: u64,
    queue_wait: (u64, u64),
    service: (u64, u64),
}

impl ServerCounters {
    fn read(booted: &drive::Booted) -> Self {
        let outcomes = booted.service.outcomes();
        let metrics = booted.service.metrics();
        let hist = |h: &bagpred_obs::LogHistogram| {
            let s = h.snapshot();
            (s.sum, s.count)
        };
        ServerCounters {
            maps: booted.cache_stats(),
            matched: outcomes.matched(),
            orphaned: outcomes.orphaned(),
            expired: outcomes.expired(),
            queue_wait: hist(metrics.queue_wait()),
            service: hist(metrics.service()),
        }
    }
}

/// What moved between two counter reads.
struct Delta {
    misses: [u64; 4],
    hits: [u64; 4],
    evictions: [u64; 4],
    matched: u64,
    reported: u64,
    expired: u64,
    queue_wait_mean_us: f64,
    service_mean_us: f64,
}

impl Delta {
    fn between(a: &ServerCounters, b: &ServerCounters) -> Delta {
        let per = |f: fn(&bagpred_serve::CacheMapStats) -> u64| -> [u64; 4] {
            std::array::from_fn(|i| f(&b.maps[i]) - f(&a.maps[i]))
        };
        let mean = |x: (u64, u64), y: (u64, u64)| (y.0 - x.0) as f64 / (y.1 - x.1).max(1) as f64;
        Delta {
            misses: per(|m| m.misses),
            hits: per(|m| m.hits),
            evictions: per(|m| m.evictions),
            matched: b.matched - a.matched,
            reported: (b.matched + b.orphaned) - (a.matched + a.orphaned),
            expired: b.expired - a.expired,
            queue_wait_mean_us: mean(a.queue_wait, b.queue_wait),
            service_mean_us: mean(a.service, b.service),
        }
    }

    /// Whether the phase exercised what the workload exists to exercise,
    /// printing the counters that show it.
    fn exercised(&self, kind: Kind, phase: &PhaseRun) -> bool {
        let [apps, fairness, nbags, profiles] = [0, 1, 2, 3];
        let observes = phase.samples[Verb::Observe as usize].len() as u64;
        println!(
            "counters misses apps={} fairness={} nbags={} profiles={} evictions={} \
             nbag_hits={} observes={observes} matched={} expired={} cold_used={} cold_violations={}",
            self.misses[apps],
            self.misses[fairness],
            self.misses[nbags],
            self.misses[profiles],
            self.evictions.iter().sum::<u64>(),
            self.hits[nbags],
            self.matched,
            self.expired,
            phase.cold_used,
            phase.cold_violations
        );
        match kind {
            Kind::PairHot => {
                self.misses.iter().sum::<u64>() == 0 && self.evictions.iter().sum::<u64>() == 0
            }
            Kind::FeaturesCold => phase.cold_used > 0 && phase.cold_violations == 0,
            Kind::LoopMixed => {
                self.evictions[nbags] > 0 && observes > 0 && self.matched == observes
            }
        }
    }
}

fn phase_ctx<'a>(
    args: &Args,
    setup: &'a Setup,
    cold_from: usize,
    stream_offset: usize,
    trace_origin: Option<Instant>,
) -> PhaseCtx<'a> {
    PhaseCtx {
        kind: args.kind,
        seed: args.seed,
        booted: &setup.booted,
        truth: &setup.truth,
        cold: &setup.cold[cold_from.min(setup.cold.len())..],
        stream_offset,
        trace_origin,
    }
}

/// Checks every distinct predicted bag against the oracle and folds the
/// result into `tally`.
fn check_replies(setup: &Setup, seen: &check::SeenReplies, tally: &mut Tally) {
    let threads = std::thread::available_parallelism().map_or(2, usize::from);
    let mismatched = seen.mismatches(&setup.booted.oracle, threads);
    println!(
        "phase check bags={} mismatched={mismatched} conflicts={}",
        seen.len(),
        seen.conflicts
    );
    // One check per distinct bag; a malformed reply already failed its
    // own request.
    tally.sent += seen.len() as u64;
    tally.failed += mismatched + seen.conflicts;
    tally.ok += (seen.len() as u64).saturating_sub(mismatched + seen.conflicts);
}

/// The end-to-end run: set-up, one timed phase, checks, LOOCV, and the
/// fresh-process set-up probes.
fn end_to_end(args: &Args, started: Instant) -> (Metrics, Tally, bool) {
    let mut setup = drive::setup(args.kind, args.seed);
    print_phase("warm", &setup.warm);
    let before = ServerCounters::read(&setup.booted);
    let setup_s = started.elapsed().as_secs_f64();
    println!("set-up peak RSS {:.3} MiB", procfs::peak_rss_mb());
    let mut clients = std::mem::take(&mut setup.clients);
    let ctx = phase_ctx(args, &setup, 0, 0, None);
    let mut phase = drive::run_phase(&ctx, &mut clients, Duration::from_secs(args.seconds));
    let after = ServerCounters::read(&setup.booted);
    print_phase("timed", &phase.tally);
    println!(
        "phase timed wall_s={:.3} retries={}",
        phase.wall.as_secs_f64(),
        phase.retries
    );
    let exercised = Delta::between(&before, &after).exercised(args.kind, &phase);

    let mut tally = phase.tally;
    tally.add_failures(setup.warm.failed);
    let mut seen = std::mem::take(&mut setup.seen);
    seen.merge(std::mem::take(&mut phase.seen));
    check_replies(&setup, &seen, &mut tally);

    let all = phase.all_latencies();
    for verb in Verb::ALL {
        print_latency(verb.name(), &phase.latencies(verb));
    }
    print_latency("all", &all);
    let summary = Summary::of(&all);
    let loocv = setup.booted.oracle.loocv_mape_pct();
    drop(clients);
    setup.booted.shutdown();

    let mut setups = vec![Some(setup_s)];
    setups.extend(probe_setups(args));
    println!("set-ups (s) {setups:?}");
    let probe_failures = setups.iter().filter(|s| s.is_none()).count() as u64;
    tally.add_failures(probe_failures);
    let setups: Vec<f64> = setups.into_iter().flatten().collect();

    let (throughput, p50, tail) = if args.kind.windowed() {
        let windows = stats::windows(
            &phase.timeline(),
            phase.wall.as_micros() as u64,
            WINDOWS,
            TAIL,
        );
        let per_window =
            |f: fn(&stats::Window) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
        let (p50s, tails, rates) = (
            per_window(|w| w.p50 as f64 / 1e3),
            per_window(|w| w.tail as f64 / 1e3),
            per_window(|w| w.rate),
        );
        println!(
            "windows n={} p50_us={:.3}..{:.3} p90_us={:.3}..{:.3} rps={:.0}..{:.0}",
            windows.len(),
            p50s.iter().copied().fold(f64::INFINITY, f64::min),
            p50s.iter().copied().fold(0.0, f64::max),
            tails.iter().copied().fold(f64::INFINITY, f64::min),
            tails.iter().copied().fold(0.0, f64::max),
            rates.iter().copied().fold(f64::INFINITY, f64::min),
            rates.iter().copied().fold(0.0, f64::max),
        );
        (
            stats::quantile(&rates, 1.0 - BETTER_QUARTILE),
            stats::quantile(&p50s, BETTER_QUARTILE),
            stats::quantile(&tails, BETTER_QUARTILE),
        )
    } else {
        let (p50, tail) = summary.map_or((f64::NAN, f64::NAN), |s| {
            (s.p50 as f64 / 1e3, s.p90 as f64 / 1e3)
        });
        (phase.tally.ok as f64 / phase.wall.as_secs_f64(), p50, tail)
    };
    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("throughput_rps", throughput, "1/s");
    metrics.push("p50_us", p50, "us");
    metrics.push("tail_us", tail, "us");
    metrics.push("loocv_mape_pct", loocv, "%");
    (metrics, tally, exercised)
}

/// The traced run: set-up layers timed cold, an untraced and a traced
/// half of the timed phase (their difference is the tracing overhead),
/// then the per-layer ledger. Spans are written out at the end.
fn traced(args: &Args) -> (Metrics, Tally, bool) {
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let mut metrics = Metrics::default();
    let platforms = bagpred_core::Platforms::paper();
    ledger::setup_layers(&mut log, &platforms, &mut metrics);
    let mut setup = drive::setup(args.kind, args.seed);
    metrics.push("setup.warm_s", setup.warm_time.as_secs_f64(), "s");
    print_phase("warm", &setup.warm);
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let clients_n = args.kind.clients();
    let mut clients = std::mem::take(&mut setup.clients);

    let mut plain = drive::run_phase(&phase_ctx(args, &setup, 0, 0, None), &mut clients, half);
    print_phase("untraced", &plain.tally);
    let before = ServerCounters::read(&setup.booted);
    let proc_before = procfs::Counters::read();
    let ctx = phase_ctx(args, &setup, plain.cold_used, clients_n, Some(origin));
    let mut phase = drive::run_phase(&ctx, &mut clients, half);
    let proc_after = procfs::Counters::read();
    let after = ServerCounters::read(&setup.booted);
    print_phase("traced", &phase.tally);
    let delta = Delta::between(&before, &after);
    let exercised = delta.exercised(args.kind, &phase);
    if let Some(spans) = phase.spans.take() {
        log.absorb(spans);
    }

    let wire = phase.tally.sent.max(1) as f64;
    let mean_ns = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    metrics.push(
        "trace.overhead_us",
        (mean_ns(&phase.all_latencies()) - mean_ns(&plain.all_latencies())) / 1e3,
        "us",
    );
    metrics.push(
        "process.ctx_switches_per_req",
        (proc_after
            .ctx_switches
            .saturating_sub(proc_before.ctx_switches)) as f64
            / wire,
        "count",
    );
    metrics.push(
        "process.cpu_us_per_req",
        (proc_after.cpu_us - proc_before.cpu_us) / wire,
        "us",
    );
    metrics.push("process.threads", proc_after.threads as f64, "count");
    metrics.push("process.peak_rss_mb", procfs::peak_rss_mb(), "MiB");
    metrics.push("serve.queue_wait_mean_us", delta.queue_wait_mean_us, "us");
    metrics.push("serve.service_mean_us", delta.service_mean_us, "us");
    metrics.push(
        "serve.cache.apps.misses_per_req",
        delta.misses[0] as f64 / wire,
        "count",
    );
    metrics.push(
        "serve.cache.profiles.misses_per_req",
        delta.misses[3] as f64 / wire,
        "count",
    );
    let nbag_lookups = delta.hits[2] + delta.misses[2];
    metrics.push(
        "serve.cache.nbags.hit_pct",
        delta.hits[2] as f64 * 100.0 / nbag_lookups.max(1) as f64,
        "%",
    );
    metrics.push(
        "serve.cache.nbags.evictions_per_req",
        delta.evictions[2] as f64 / wire,
        "count",
    );
    metrics.push(
        "serve.outcomes.expired_per_req",
        delta.expired as f64 / wire,
        "count",
    );
    metrics.push(
        "serve.client.retries",
        (plain.retries + phase.retries) as f64,
        "count",
    );

    let mut tally = plain.tally;
    tally.add(phase.tally);
    tally.add_failures(setup.warm.failed);
    let mut seen = std::mem::take(&mut setup.seen);
    seen.merge(std::mem::take(&mut phase.seen));
    seen.merge(std::mem::take(&mut plain.seen));
    // The ledger's cold requests: the tail of the seed's cold plan, which
    // no timed phase sends.
    let cold_plan = plan::cold_plan(args.seed);
    let cold = &cold_plan[cold_plan.len().saturating_sub(plan::LEDGER_COLD)..];
    let mut ledger_tally = Tally::default();
    let mut ledger = ledger::Ledger {
        kind: args.kind,
        seed: args.seed,
        booted: &setup.booted,
        cold,
        log: &mut log,
        metrics: &mut metrics,
        tally: &mut ledger_tally,
        seen: &mut seen,
    };
    let missing: Vec<Verb> = Verb::ALL
        .into_iter()
        .filter(|&v| phase.samples[v as usize].is_empty())
        .collect();
    let (probed, reported, matched) = ledger.verb_probe(&missing);
    ledger.run();
    print_phase("ledger", &ledger_tally);
    tally.add(ledger_tally);
    let (reported, matched) = if delta.reported > 0 {
        (delta.reported, delta.matched)
    } else {
        (reported, matched)
    };
    metrics.push(
        "serve.outcomes.match_pct",
        matched as f64 * 100.0 / reported.max(1) as f64,
        "%",
    );
    for verb in Verb::ALL {
        let samples = probed
            .iter()
            .find(|(v, _)| *v == verb)
            .map_or_else(|| phase.latencies(verb), |(_, s)| s.clone());
        print_latency(&format!("traced.{}", verb.name()), &samples);
        metrics.push(
            format!("verb.{}_p50_us", verb.name()),
            Summary::of(&samples).map_or(f64::NAN, |s| s.p50 as f64 / 1e3),
            "us",
        );
    }
    check_replies(&setup, &seen, &mut tally);
    drop(clients);
    setup.booted.shutdown();
    let path = std::path::Path::new(SPAN_DIR).join(format!("spans-{}.tsv", args.kind.name()));
    match log.write_tsv(&path) {
        Ok(()) => println!("spans {} written to {}", log.len(), path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
    (metrics, tally, exercised)
}
