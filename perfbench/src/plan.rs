//! Seeded request generation for the three workloads.
//!
//! Everything a run sends is a pure function of `--seed`: each client
//! draws from its own stream split off the seed, and the cold plan is a
//! fixed sequence built once. The program under test only ever sees the
//! generated request lines.

use bagpred_core::nbag::NBag;
use bagpred_trace::SplitMix64;
use bagpred_workloads::{Benchmark, Workload, BATCH_SIZES};

/// The three workloads, each chosen to stress a different layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Warm binary pair predicts: transport, hand-offs, codec, shard queue.
    PairHot,
    /// Never-seen (benchmark, batch) keys: vision kernels and the profiler.
    FeaturesCold,
    /// Predict + observe, evicting n-bags and schedules side by side.
    LoopMixed,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::PairHot, Kind::FeaturesCold, Kind::LoopMixed];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PairHot => "pair-hot",
            Kind::FeaturesCold => "features-cold",
            Kind::LoopMixed => "loop-mixed",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop connections. Never more than the 2 cores the reference
    /// host has; features-cold keeps one so cold simulations never compete.
    pub fn clients(self) -> usize {
        match self {
            Kind::FeaturesCold => 1,
            Kind::PairHot | Kind::LoopMixed => 2,
        }
    }

    /// Whether the end-to-end figures are medians over short windows of
    /// the timed phase: only where each window holds thousands of
    /// requests.
    pub fn windowed(self) -> bool {
        self != Kind::FeaturesCold
    }
}

/// What one client step sends. `PredictObserve` is two wire requests: the
/// predict, then `observe` of its request id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `predict` of a 2..=4-app bag.
    Predict(Vec<Workload>),
    /// A pair `predict` followed by its outcome report.
    PredictObserve(Workload, Workload),
    /// `schedule k=GPUS budget=SCHEDULE_BUDGET_S APPS...`.
    Schedule { gpus: usize, apps: Vec<Workload> },
}

/// The request verbs whose client latencies are reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// A pair predict.
    Predict,
    /// A 3–4-app n-bag predict.
    NBag,
    /// An admission `schedule`.
    Schedule,
    /// An outcome report.
    Observe,
}

impl Verb {
    /// Every verb, in report order.
    pub const ALL: [Verb; 4] = [Verb::Predict, Verb::NBag, Verb::Schedule, Verb::Observe];

    /// Name used in metric keys (`verb.<name>_p50_us`).
    pub fn name(self) -> &'static str {
        match self {
            Verb::Predict => "predict",
            Verb::NBag => "nbag",
            Verb::Schedule => "schedule",
            Verb::Observe => "observe",
        }
    }

    /// The verb of a predict over `apps`.
    pub fn of_predict(apps: &[Workload]) -> Verb {
        if apps.len() == 2 {
            Verb::Predict
        } else {
            Verb::NBag
        }
    }
}

/// Per-GPU predicted-time budget of every generated `schedule`, seconds:
/// tight enough that packings both place and reject apps.
pub const SCHEDULE_BUDGET_S: f64 = 0.25;

/// The 45 corpus workloads: every benchmark at every paper batch size.
pub fn warm_workloads() -> Vec<Workload> {
    Benchmark::ALL
        .iter()
        .flat_map(|&b| BATCH_SIZES.iter().map(move |&n| Workload::new(b, n)))
        .collect()
}

/// The 1,035 unordered pairs (with repetition) of the warm workloads.
pub fn warm_pairs() -> Vec<(Workload, Workload)> {
    let apps = warm_workloads();
    let mut pairs = Vec::with_capacity(apps.len() * (apps.len() + 1) / 2);
    for (i, &a) in apps.iter().enumerate() {
        for &b in &apps[i..] {
            pairs.push((a, b));
        }
    }
    pairs
}

/// The wire spelling of one app, `NAME@BATCH`.
pub fn app_spec(w: Workload) -> String {
    format!("{}@{}", w.benchmark().name(), w.batch_size())
}

/// The `predict` line for `apps`.
pub fn predict_line(apps: &[Workload]) -> String {
    let bag: Vec<String> = apps.iter().map(|&w| app_spec(w)).collect();
    format!("predict {}", bag.join("+"))
}

/// The `schedule` line for `gpus` GPUs over `apps`.
pub fn schedule_line(gpus: usize, apps: &[Workload]) -> String {
    let specs: Vec<String> = apps.iter().map(|&w| app_spec(w)).collect();
    format!(
        "schedule k={gpus} budget={SCHEDULE_BUDGET_S} {}",
        specs.join(" ")
    )
}

/// The generator of client `index` for `seed`: independent streams per
/// client, identical across runs with the same seed.
pub fn client_rng(seed: u64, index: usize) -> SplitMix64 {
    let mut root = SplitMix64::new(seed ^ 0x005E_ED0F_BE4C_u64);
    let mut rng = root.split();
    for _ in 0..index {
        rng = root.split();
    }
    rng
}

/// An endless seeded stream of warm-workload operations (pair-hot and
/// loop-mixed; features-cold replays its finite [`cold_plan`] instead).
pub struct OpStream {
    kind: Kind,
    rng: SplitMix64,
    apps: Vec<Workload>,
    pairs: Vec<(Workload, Workload)>,
}

impl OpStream {
    /// The stream client `index` of a `kind` run draws from.
    pub fn new(kind: Kind, seed: u64, index: usize) -> Self {
        OpStream {
            kind,
            rng: client_rng(seed, index),
            apps: warm_workloads(),
            pairs: warm_pairs(),
        }
    }

    fn pair(&mut self) -> (Workload, Workload) {
        self.pairs[self.rng.next_below(self.pairs.len() as u64) as usize]
    }

    fn apps(&mut self, n: usize) -> Vec<Workload> {
        (0..n)
            .map(|_| self.apps[self.rng.next_below(self.apps.len() as u64) as usize])
            .collect()
    }

    /// A 3–4-app multiset of warm workloads: ~2×10⁵ possible bags, far
    /// more than the service's 4,096-entry n-bag map holds.
    pub fn nbag(&mut self) -> Vec<Workload> {
        let n = 3 + self.rng.next_below(2) as usize;
        self.apps(n)
    }

    /// A `schedule` of 6–8 warm apps onto 2–4 GPUs.
    pub fn schedule(&mut self) -> Op {
        let gpus = 2 + self.rng.next_below(3) as usize;
        let n = 6 + self.rng.next_below(3) as usize;
        Op::Schedule {
            gpus,
            apps: self.apps(n),
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        match self.kind {
            Kind::PairHot | Kind::FeaturesCold => {
                let (a, b) = self.pair();
                Op::Predict(vec![a, b])
            }
            // Half the steps close the loop on a pair; the rest split
            // between evicting n-bags and admission packing.
            Kind::LoopMixed => match self.rng.next_below(10) {
                0..=4 => {
                    let (a, b) = self.pair();
                    Op::PredictObserve(a, b)
                }
                5..=7 => Op::Predict(self.nbag()),
                _ => self.schedule(),
            },
        }
    }

    /// The next pair (for probes that need warm pairs on any workload).
    pub fn next_pair(&mut self) -> (Workload, Workload) {
        self.pair()
    }

    /// The next n-bag (for probes that need n-bags on any workload).
    pub fn next_nbag(&mut self) -> NBag {
        NBag::new(self.nbag())
    }
}

/// Total batch of each benchmark's cold requests, in [`Benchmark::ALL`]
/// order. Profiling cost grows about linearly with batch size, so each
/// total is sized inversely to its benchmark's profiling cost per image:
/// every cold request then costs about the same (~95 ms of profiling on
/// a 2-vCPU Xeon VM) whatever its benchmark, and the latency
/// distribution has one mode instead of nine, so its quantiles do not
/// jump between benchmarks from seed to seed.
pub const COLD_BATCH_TOTALS: [usize; 9] = [200, 160, 137, 181, 84, 50, 120, 192, 181];

/// The cold batch total of `benchmark`.
pub fn cold_total(benchmark: Benchmark) -> usize {
    let index = Benchmark::ALL
        .iter()
        .position(|&b| b == benchmark)
        .expect("a known benchmark");
    COLD_BATCH_TOTALS[index]
}

/// Batch sizes a cold key of a benchmark with cold total `total` may use:
/// `1..total`, without the corpora's [`BATCH_SIZES`] and without their
/// complements to `total`, so every value keeps a partner for a pair.
pub fn cold_batches(total: usize) -> Vec<usize> {
    (1..total)
        .filter(|b| !BATCH_SIZES.contains(b) && !BATCH_SIZES.contains(&(total - b)))
        .collect()
}

/// One benchmark's cold batch groups: each a pair or, for a seeded
/// quarter, 3–4 distinct batches, always summing to `total`; no batch
/// is used twice.
fn cold_groups(total: usize, rng: &mut SplitMix64) -> Vec<Vec<usize>> {
    let mut unused = cold_batches(total);
    let mut groups = Vec::new();
    while unused.len() >= 2 {
        let size = if rng.next_below(4) == 0 {
            3 + rng.next_below(2) as usize
        } else {
            2
        };
        // A 3–4 group that cannot be completed from what is left falls
        // back to a pair; the benchmark is done when no pair remains.
        let Some(group) =
            pick_group(&unused, size, total, rng).or_else(|| pick_group(&unused, 2, total, rng))
        else {
            break;
        };
        unused.retain(|b| !group.contains(b));
        groups.push(group);
    }
    groups
}

/// `size` distinct values of `unused` summing to `total`: random picks
/// completed by the one value that makes the sum. A pair scans from a
/// random start, so one is found whenever one exists.
fn pick_group(
    unused: &[usize],
    size: usize,
    total: usize,
    rng: &mut SplitMix64,
) -> Option<Vec<usize>> {
    if size == 2 {
        let start = rng.next_below(unused.len() as u64) as usize;
        return (0..unused.len()).find_map(|i| {
            let b = unused[(start + i) % unused.len()];
            let partner = total - b;
            (partner != b && unused.contains(&partner)).then(|| vec![b, partner])
        });
    }
    (0..64).find_map(|_| {
        let mut picks: Vec<usize> = Vec::with_capacity(size);
        for _ in 1..size {
            let b = unused[rng.next_below(unused.len() as u64) as usize];
            if picks.contains(&b) {
                return None;
            }
            picks.push(b);
        }
        let last = total.checked_sub(picks.iter().sum())?;
        (unused.contains(&last) && !picks.contains(&last)).then(|| {
            picks.push(last);
            picks
        })
    })
}

/// Cold requests held back at the end of every cold plan for the traced
/// run's ledger, so however far a timed phase gets, the ledger still has
/// never-seen keys of every benchmark.
pub const LEDGER_COLD: usize = 72;

/// The features-cold request sequence: every benchmark's cold groups,
/// one request each (a pair, or a 3–4-app n-bag), interleaved by stride
/// scheduling from seeded phases, so any prefix holds each benchmark in
/// proportion to its share of the plan. Every member is a (benchmark,
/// batch) key no corpus uses, and none repeats.
pub fn cold_plan(seed: u64) -> Vec<Vec<Workload>> {
    let mut rng = SplitMix64::new(seed ^ 0xC01D_C01D_C01D_C01D);
    let groups: Vec<Vec<Vec<usize>>> = Benchmark::ALL
        .iter()
        .map(|&b| cold_groups(cold_total(b), &mut rng))
        .collect();
    let stride: Vec<f64> = groups.iter().map(|g| 1.0 / g.len().max(1) as f64).collect();
    let mut pass: Vec<f64> = stride.iter().map(|s| rng.next_f64() * s).collect();
    let mut taken = vec![0; groups.len()];
    let mut plan = Vec::with_capacity(groups.iter().map(Vec::len).sum());
    while let Some(bench) = (0..groups.len())
        .filter(|&b| taken[b] < groups[b].len())
        .min_by(|&a, &b| pass[a].total_cmp(&pass[b]))
    {
        let apps = groups[bench][taken[bench]]
            .iter()
            .map(|&batch| Workload::new(Benchmark::ALL[bench], batch))
            .collect();
        plan.push(apps);
        taken[bench] += 1;
        pass[bench] += stride[bench];
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagpred_core::nbag::nbag_corpus;
    use bagpred_core::Corpus;
    use std::collections::HashSet;

    fn first_ops(kind: Kind, seed: u64, index: usize, n: usize) -> Vec<Op> {
        let mut stream = OpStream::new(kind, seed, index);
        (0..n).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn same_seed_same_requests_and_different_seed_different_requests() {
        for kind in [Kind::PairHot, Kind::LoopMixed] {
            assert_eq!(first_ops(kind, 7, 0, 200), first_ops(kind, 7, 0, 200));
            assert_ne!(first_ops(kind, 7, 0, 200), first_ops(kind, 8, 0, 200));
            assert_ne!(
                first_ops(kind, 7, 0, 200),
                first_ops(kind, 7, 1, 200),
                "clients draw independent streams"
            );
        }
        assert_eq!(cold_plan(7), cold_plan(7));
        assert_ne!(cold_plan(7), cold_plan(8));
    }

    #[test]
    fn loop_mixed_draws_every_operation() {
        let ops = first_ops(Kind::LoopMixed, 3, 0, 500);
        assert!(ops.iter().any(|op| matches!(op, Op::PredictObserve(..))));
        assert!(ops.iter().any(|op| matches!(op, Op::Schedule { .. })));
        assert!(ops
            .iter()
            .any(|op| matches!(op, Op::Predict(apps) if apps.len() >= 3)));
    }

    #[test]
    fn warm_pairs_cover_every_unordered_pair_once() {
        let pairs = warm_pairs();
        assert_eq!(pairs.len(), 1035);
        let unique: HashSet<_> = pairs.iter().collect();
        assert_eq!(unique.len(), pairs.len());
    }

    #[test]
    fn cold_keys_are_unique_and_disjoint_from_every_corpus_key() {
        let mut corpus_keys: HashSet<Workload> = warm_workloads().into_iter().collect();
        for bag in Corpus::paper().bags() {
            corpus_keys.extend(bag.members());
        }
        for bag in nbag_corpus(20) {
            corpus_keys.extend(bag.members().iter().copied());
        }
        for seed in [0, 1, 42, u64::MAX] {
            let plan = cold_plan(seed);
            assert!(plan.len() >= 420, "only {} cold requests", plan.len());
            let keys: Vec<Workload> = plan.iter().flatten().copied().collect();
            let unique: HashSet<Workload> = keys.iter().copied().collect();
            assert_eq!(unique.len(), keys.len(), "a cold key repeats");
            for key in &keys {
                assert!(!BATCH_SIZES.contains(&key.batch_size()), "{key:?}");
                assert!(!corpus_keys.contains(key), "{key:?} is a corpus key");
            }
        }
    }

    #[test]
    fn cold_requests_are_balanced_and_include_nbags() {
        let plan = cold_plan(5);
        for apps in &plan {
            assert!((2..=4).contains(&apps.len()));
            let bench = apps[0].benchmark();
            assert!(apps.iter().all(|w| w.benchmark() == bench));
            let total: usize = apps.iter().map(Workload::batch_size).sum();
            assert_eq!(total, cold_total(bench));
        }
        assert!(plan.iter().any(|apps| apps.len() > 2), "no n-bags");
        // Any prefix holds each benchmark in proportion to its share.
        for prefix in [60, 150, 300] {
            for bench in Benchmark::ALL {
                let share = |part: &[Vec<Workload>]| {
                    part.iter().filter(|a| a[0].benchmark() == bench).count() as f64
                        / part.len() as f64
                };
                let (head, all) = (share(&plan[..prefix]), share(&plan));
                assert!(
                    (head - all).abs() * prefix as f64 <= 2.0,
                    "{bench}: {head} of the first {prefix}, {all} overall"
                );
            }
        }
    }

    #[test]
    fn client_streams_are_distinct() {
        let mut a = client_rng(1, 0);
        let mut b = client_rng(1, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
