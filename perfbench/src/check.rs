//! Reply verification against the offline predictors.
//!
//! A served `predict` must carry the exact bits the offline model gives
//! on features assembled without the service's cache, so the expected
//! reply line is rendered with the same `fmt_f64` and compared as text.

use crate::plan::app_spec;
use bagpred_core::nbag::{NBag, NBagMeasurement, MAX_BAG};
use bagpred_core::{AppFeatures, Bag, Corpus, Measurement, Platforms, Predictor};
use bagpred_ml::codec::fmt_f64;
use bagpred_serve::bootstrap::{NBAG_MODEL, PAIR_MODEL};
use bagpred_serve::{ModelRegistry, ServableModel};
use bagpred_workloads::{Benchmark, Workload};
use std::collections::HashMap;
use std::sync::Arc;

/// The offline side of every comparison: the registry's trained models,
/// fed features collected directly rather than through the service.
pub struct Oracle {
    pair: Arc<ServableModel>,
    nbag: Arc<ServableModel>,
    platforms: Platforms,
}

impl Oracle {
    /// The oracle for the models `registry` serves.
    pub fn new(registry: &ModelRegistry, platforms: Platforms) -> Self {
        Oracle {
            pair: registry.get(PAIR_MODEL).expect("pair model registered"),
            nbag: registry.get(NBAG_MODEL).expect("n-bag model registered"),
            platforms,
        }
    }

    /// The offline prediction for `apps`, seconds.
    pub fn predict(&self, apps: &[Workload]) -> f64 {
        match (&*self.pair, &*self.nbag) {
            (ServableModel::Pair(pair), _) if apps.len() == 2 => {
                let bag = Bag::pair(apps[0], apps[1]);
                // Features follow the bag's canonical member order.
                let features = bag
                    .members()
                    .map(|w| AppFeatures::collect(&w, &self.platforms));
                let fairness = Measurement::collect_fairness(&bag, &self.platforms);
                pair.predict(&Measurement::from_parts(bag, features, fairness, f64::NAN))
            }
            (_, ServableModel::NBag(nbag)) => nbag.predict(&NBagMeasurement::collect_unlabeled(
                NBag::new(apps.to_vec()),
                &self.platforms,
            )),
            _ => panic!("registry models are not the pair and n-bag kinds"),
        }
    }

    /// Leave-one-benchmark-out MAPE of the served pair model's
    /// configuration on the paper corpus, percent.
    pub fn loocv_mape_pct(&self) -> f64 {
        let ServableModel::Pair(served) = &*self.pair else {
            panic!("`{PAIR_MODEL}` is not a pair model");
        };
        let mut fresh = Predictor::new(served.scheme().clone())
            .with_model(served.model_kind())
            .with_max_depth(served.max_depth());
        fresh
            .loocv_by_benchmark(&Corpus::paper().measure_on(&self.platforms))
            .mean_error_percent()
    }

    /// The simulator's ground-truth co-run time of a pair, whole µs.
    pub fn ground_truth_us(&self, a: Workload, b: Workload) -> u64 {
        let seconds = Measurement::collect(Bag::pair(a, b), &self.platforms).bag_gpu_time_s();
        (seconds * 1e6).round().max(1.0) as u64
    }
}

/// A bag packed into fixed words: `(benchmark index << 20) | batch` per
/// member in request order, 0 for an empty slot.
type BagKey = [u32; MAX_BAG];

fn pack(apps: &[Workload]) -> BagKey {
    let mut key = [0; MAX_BAG];
    for (slot, w) in key.iter_mut().zip(apps) {
        let bench = Benchmark::ALL
            .iter()
            .position(|&b| b == w.benchmark())
            .expect("a known benchmark");
        *slot = ((bench as u32) << 20) | w.batch_size() as u32;
    }
    key
}

fn unpack(key: &BagKey) -> Vec<Workload> {
    key.iter()
        .take_while(|&&slot| slot != 0)
        .map(|&slot| {
            Workload::new(
                Benchmark::ALL[(slot >> 20) as usize],
                (slot & 0xF_FFFF) as usize,
            )
        })
        .collect()
}

/// The predicted bits a `predict` reply carries, if it is well formed:
/// the model the bag's arity routes to, and a value printed in
/// `fmt_f64`'s shortest round-trip form (so the bits compare exactly).
fn reply_bits(apps: &[Workload], reply: &str) -> Option<u64> {
    let model = if apps.len() == 2 {
        PAIR_MODEL
    } else {
        NBAG_MODEL
    };
    let text = reply
        .strip_prefix("ok model=")?
        .strip_prefix(model)?
        .strip_prefix(" predicted_s=")?;
    let value: f64 = text.parse().ok()?;
    (fmt_f64(value) == text).then_some(value.to_bits())
}

/// The first reply seen for each distinct predicted bag, kept as packed
/// bag and predicted bits so a long run's replies stay a few MiB; each
/// bag is compared with the oracle once however often it was sent.
#[derive(Debug, Default)]
pub struct SeenReplies {
    first: HashMap<BagKey, u64>,
    /// Bags two clients saw answered differently (found when merging;
    /// a single client's disagreeing reply fails its own request).
    pub conflicts: u64,
}

impl SeenReplies {
    /// Records a `predict` reply line for `apps`; returns whether it is a
    /// well-formed prediction consistent with earlier replies.
    pub fn record(&mut self, apps: &[Workload], reply: &str) -> bool {
        reply_bits(apps, reply).is_some_and(|bits| self.record_bits(pack(apps), bits))
    }

    fn record_bits(&mut self, key: BagKey, bits: u64) -> bool {
        *self.first.entry(key).or_insert(bits) == bits
    }

    /// Folds another client's replies in.
    pub fn merge(&mut self, other: SeenReplies) {
        self.conflicts += other.conflicts;
        for (key, bits) in other.first {
            if !self.record_bits(key, bits) {
                self.conflicts += 1;
            }
        }
    }

    /// Distinct bags seen.
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// Bags whose predicted bits differ from the oracle's, checked on
    /// `threads` threads.
    pub fn mismatches(&self, oracle: &Oracle, threads: usize) -> u64 {
        let entries: Vec<(&BagKey, &u64)> = self.first.iter().collect();
        let chunk = entries.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = entries
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .filter(|(key, bits)| oracle.predict(&unpack(key)).to_bits() != **bits)
                            .count() as u64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reply check thread panicked"))
                .sum()
        })
    }
}

/// Whether a `schedule` reply accounts for every requested app exactly
/// once, each either placed on a GPU or listed as rejected.
pub fn schedule_reply_ok(reply: &str, gpus: usize, apps: &[Workload]) -> bool {
    let Some(body) = reply.strip_prefix("ok ") else {
        return false;
    };
    let mut listed: Vec<&str> = Vec::new();
    let mut gpu_slots = 0;
    for token in body.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            return false;
        };
        let is_gpu = key.starts_with("gpu");
        if is_gpu {
            gpu_slots += 1;
        }
        if (is_gpu || key == "rejected") && value != "-" {
            listed.extend(value.split('+'));
        }
    }
    let mut wanted: Vec<String> = apps.iter().map(|&w| app_spec(w)).collect();
    wanted.sort_unstable();
    listed.sort_unstable();
    gpu_slots == gpus && listed == wanted
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagpred_workloads::Benchmark;

    #[test]
    fn schedule_replies_must_account_for_every_app_once() {
        let apps = [
            Workload::new(Benchmark::Sift, 20),
            Workload::new(Benchmark::Knn, 40),
            Workload::new(Benchmark::Knn, 40),
        ];
        let good = "ok k=2 gpu0=SIFT@20+KNN@40 pred0=0.1 gpu1=- pred1=0 rejected=KNN@40";
        assert!(schedule_reply_ok(good, 2, &apps));
        let lost = "ok k=2 gpu0=SIFT@20 pred0=0.1 gpu1=- pred1=0 rejected=KNN@40";
        assert!(!schedule_reply_ok(lost, 2, &apps));
        let wrong_k = "ok k=1 gpu0=SIFT@20+KNN@40+KNN@40 pred0=0.1 rejected=-";
        assert!(!schedule_reply_ok(wrong_k, 2, &apps));
        assert!(!schedule_reply_ok("err overloaded", 2, &apps));
    }

    #[test]
    fn seen_replies_flag_malformed_and_inconsistent_replies() {
        let pair = vec![Workload::new(Benchmark::Fast, 20); 2];
        let mut seen = SeenReplies::default();
        assert!(seen.record(&pair, "ok model=pair-tree predicted_s=0.25"));
        assert!(seen.record(&pair, "ok model=pair-tree predicted_s=0.25"));
        assert!(
            !seen.record(&pair, "ok model=pair-tree predicted_s=0.250"),
            "not shortest form"
        );
        assert!(
            !seen.record(&pair, "ok model=nbag-tree predicted_s=0.25"),
            "wrong model"
        );
        assert!(!seen.record(&pair, "err overloaded"));
        let mut other = SeenReplies::default();
        other.record(&pair, "ok model=pair-tree predicted_s=0.5");
        seen.merge(other);
        assert_eq!((seen.len(), seen.conflicts), (1, 1));
    }

    #[test]
    fn bags_pack_and_unpack() {
        let apps = vec![
            Workload::new(Benchmark::FaceDet, 160),
            Workload::new(Benchmark::Fast, 1),
            Workload::new(Benchmark::Sift, 79),
        ];
        assert_eq!(unpack(&pack(&apps)), apps);
    }
}
