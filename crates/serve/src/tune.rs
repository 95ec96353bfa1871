//! Persistent autotune cache: machine profile × shape class → tuned
//! DGEFMM plan.
//!
//! The paper's Section 3.4 tuning procedure is expensive (a timed
//! crossover sweep per machine), so a serving process must not repeat it
//! per request — or even per process start. [`TuneCache`] maps a
//! [`BucketKey`] to the eq.-(15) parameters `(τ, τm, τk, τn)` plus a
//! parallel-depth choice, persists the table as JSON, and refuses to
//! reuse a file recorded on a different machine profile (cache-blocking
//! parameters and kernel class change the crossover, so a stale profile
//! would mis-tune every bucket).
//!
//! Determinism contract: [`TuneCache::lookup`] is a **pure function** of
//! the key and the cache contents frozen at server start. The serving
//! layer never times anything online — a request's plan depends only on
//! its shape, so identical request streams produce bitwise-identical
//! results at any worker count (see `tests/serve_determinism.rs`).
//!
//! The file format (schema 1, written by [`TuneCache::to_json`], parsed
//! back with the strict [`testkit::json`] reader):
//!
//! ```text
//! { "schema": 1, "kind": "strassen_serve_tuning",
//!   "machine": { "kernel_class", "l1d", "l2", "l3",
//!                "mc", "kc", "nc", "physical_cores" },
//!   "default": { "tau", "tau_m", "tau_k", "tau_n", "parallel_depth" },
//!   "entries": [ { "bucket": "square/64", "tau": …, "tau_m": …,
//!                  "tau_k": …, "tau_n": …, "parallel_depth": … } … ] }
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use blas::level3::{kernel_class, BlockingParams, CacheInfo};
use blas::GemmConfig;
use strassen::probe::json::JsonWriter;
use strassen::{CutoffCriterion, Scheme, StrassenConfig};
use testkit::json::Json;

use crate::bucket::BucketKey;

/// The runtime facts a tuning table is valid for. Two processes on the
/// same machine agree on every field; a restored cache whose profile
/// differs in any of them is discarded (the entries were tuned for a
/// different memory hierarchy or kernel).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineProfile {
    /// SIMD kernel class the runtime dispatcher selected (Debug form).
    pub kernel: String,
    /// L1 data cache size in bytes.
    pub l1d: usize,
    /// L2 cache size in bytes.
    pub l2: usize,
    /// L3 cache size in bytes.
    pub l3: usize,
    /// Derived 5-loop blocking: rows of the packed A block.
    pub mc: usize,
    /// Derived 5-loop blocking: depth of the packed panels.
    pub kc: usize,
    /// Derived 5-loop blocking: columns of the packed B block.
    pub nc: usize,
    /// Physical cores probed from sysfs (not the current pool size —
    /// worker count is a per-process choice, not a machine fact).
    pub physical_cores: usize,
}

impl MachineProfile {
    /// Probe this machine (sysfs cache topology + runtime kernel
    /// dispatch), the same facts `GemmConfig::auto` derives from.
    pub fn detect() -> MachineProfile {
        let cache = CacheInfo::detect();
        let bp = BlockingParams::auto_f64();
        MachineProfile {
            kernel: format!("{:?}", kernel_class()),
            l1d: cache.l1d,
            l2: cache.l2,
            l3: cache.l3,
            mc: bp.mc,
            kc: bp.kc,
            nc: bp.nc,
            physical_cores: pool::machine_threads(),
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("kernel_class");
        w.value_str(&self.kernel);
        for (key, v) in [
            ("l1d", self.l1d),
            ("l2", self.l2),
            ("l3", self.l3),
            ("mc", self.mc),
            ("kc", self.kc),
            ("nc", self.nc),
            ("physical_cores", self.physical_cores),
        ] {
            w.key(key);
            w.value_u64(v as u64);
        }
        w.end_object();
    }

    fn from_json(doc: &Json) -> Option<MachineProfile> {
        let get = |key: &str| doc.get(key).and_then(Json::as_u64).map(|v| v as usize);
        Some(MachineProfile {
            kernel: doc.get("kernel_class")?.as_str()?.to_string(),
            l1d: get("l1d")?,
            l2: get("l2")?,
            l3: get("l3")?,
            mc: get("mc")?,
            kc: get("kc")?,
            nc: get("nc")?,
            physical_cores: get("physical_cores")?,
        })
    }
}

/// The tuned plan for one bucket: the eq.-(15) cutoff parameters plus
/// how many recursion levels fan out as parallel tasks *within* one
/// request (0 = no task-parallel recursion — the serving default, where
/// parallelism comes from running many requests concurrently instead).
/// Every entry runs the default's pool-parallel GEMM, which forks only
/// at or above the measured `blas::level3::MIN_PARALLEL_FLOPS` (160³):
/// small requests (the benchmark's served shapes are all ≤ 80³) stay
/// serial within their request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketTuning {
    /// Square cutoff `τ`.
    pub tau: usize,
    /// Rectangular parameter `τm`.
    pub tau_m: usize,
    /// Rectangular parameter `τk`.
    pub tau_k: usize,
    /// Rectangular parameter `τn`.
    pub tau_n: usize,
    /// Intra-request parallel recursion levels (0 = none; the GEMMs still
    /// fork above the measured threshold).
    pub parallel_depth: usize,
}

impl BucketTuning {
    /// The shipped cutoff of [`StrassenConfig::dgefmm`], with no
    /// task-parallel recursion: a request forks only inside GEMMs above
    /// the measured fork threshold.
    pub fn paper_default() -> BucketTuning {
        let CutoffCriterion::Hybrid { tau, tau_m, tau_k, tau_n } = StrassenConfig::dgefmm().cutoff else {
            unreachable!("StrassenConfig::dgefmm ships the eq.-(15) hybrid criterion")
        };
        BucketTuning { tau, tau_m, tau_k, tau_n, parallel_depth: 0 }
    }

    /// The full DGEFMM configuration this tuning entry selects. A pure
    /// function of the entry — the determinism pin relies on that.
    ///
    /// ```
    /// use serve::BucketTuning;
    /// use strassen::StrassenConfig;
    ///
    /// let cfg = BucketTuning::paper_default().config();
    /// assert_eq!(cfg.cutoff, StrassenConfig::dgefmm().cutoff);
    /// assert_eq!(cfg.parallel_depth, 0);
    /// ```
    pub fn config(&self) -> StrassenConfig {
        let base = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Hybrid {
            tau: self.tau,
            tau_m: self.tau_m,
            tau_k: self.tau_k,
            tau_n: self.tau_n,
        });
        if self.parallel_depth == 0 {
            base
        } else {
            // Large-bucket plan: task-DAG Strassen levels over the
            // pool-parallel leaf GEMM — bitwise identical to the serial
            // plan by the PR-7 pin, so mixing depths never breaks the
            // determinism contract.
            StrassenConfig {
                parallel_depth: self.parallel_depth,
                ..base.scheme(Scheme::SevenTemp).gemm(GemmConfig::auto_parallel())
            }
        }
    }

    fn write_json(&self, w: &mut JsonWriter, bucket: Option<&BucketKey>) {
        w.begin_object();
        if let Some(key) = bucket {
            w.key("bucket");
            w.value_str(&key.label());
        }
        for (key, v) in [
            ("tau", self.tau),
            ("tau_m", self.tau_m),
            ("tau_k", self.tau_k),
            ("tau_n", self.tau_n),
            ("parallel_depth", self.parallel_depth),
        ] {
            w.key(key);
            w.value_u64(v as u64);
        }
        w.end_object();
    }

    fn from_json(doc: &Json) -> Option<BucketTuning> {
        let get = |key: &str| doc.get(key).and_then(Json::as_u64).map(|v| v as usize);
        Some(BucketTuning {
            tau: get("tau")?,
            tau_m: get("tau_m")?,
            tau_k: get("tau_k")?,
            tau_n: get("tau_n")?,
            parallel_depth: get("parallel_depth")?,
        })
    }
}

/// The persistent tuning table: per-bucket entries plus a default for
/// buckets with no entry yet.
#[derive(Clone, Debug)]
pub struct TuneCache {
    /// The machine profile the entries are valid for.
    pub profile: MachineProfile,
    /// Plan used for buckets without a dedicated entry.
    pub default: BucketTuning,
    entries: BTreeMap<BucketKey, BucketTuning>,
}

impl TuneCache {
    /// An empty cache for `profile` with the paper-default plan.
    pub fn new(profile: MachineProfile) -> TuneCache {
        TuneCache { profile, default: BucketTuning::paper_default(), entries: BTreeMap::new() }
    }

    /// Warm-start the default plan from previously swept parameters
    /// (e.g. this machine's PR-6 crossover sweep).
    pub fn warm_start(&mut self, default: BucketTuning) {
        self.default = default;
    }

    /// Warm-start from a committed `BENCH_*.json` artifact's embedded
    /// tuning report (`"tuning" → "params"` — the PR-6 crossover sweep's
    /// chosen eq.-(15) parameters). Returns `true` when the file existed
    /// and carried a usable report; on any miss the cache is unchanged,
    /// so a fresh checkout still serves with the paper defaults.
    pub fn warm_start_from_bench(&mut self, path: impl AsRef<Path>) -> bool {
        let Ok(text) = std::fs::read_to_string(path) else { return false };
        let Ok(doc) = Json::parse(&text) else { return false };
        let Some(params) = doc.get("tuning").and_then(|t| t.get("params")) else { return false };
        let get = |key: &str| params.get(key).and_then(Json::as_u64).map(|v| v as usize);
        let (Some(tau), Some(tau_m), Some(tau_k), Some(tau_n)) =
            (get("tau"), get("tau_m"), get("tau_k"), get("tau_n"))
        else {
            return false;
        };
        self.default = BucketTuning { tau, tau_m, tau_k, tau_n, ..self.default };
        true
    }

    /// The plan for `key`: its dedicated entry, or the default. Pure —
    /// never inserts, never times anything.
    pub fn lookup(&self, key: BucketKey) -> BucketTuning {
        self.entries.get(&key).copied().unwrap_or(self.default)
    }

    /// Record a dedicated plan for one bucket (repeated shapes skip
    /// retuning once the table is persisted).
    pub fn insert(&mut self, key: BucketKey, tuning: BucketTuning) {
        self.entries.insert(key, tuning);
    }

    /// Buckets with dedicated entries, in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&BucketKey, &BucketTuning)> {
        self.entries.iter()
    }

    /// Load the cache from `path` for `profile`. A missing or malformed
    /// file, or one recorded under a *different* machine profile, yields
    /// a fresh empty cache — stale tables mis-tune, so they are dropped
    /// rather than trusted. The second element reports whether the file
    /// was adopted.
    pub fn load(path: impl AsRef<Path>, profile: MachineProfile) -> (TuneCache, bool) {
        let fresh = |profile| (TuneCache::new(profile), false);
        let Ok(text) = std::fs::read_to_string(path) else { return fresh(profile) };
        match TuneCache::from_json(&text) {
            Some(cache) if cache.profile == profile => (cache, true),
            _ => fresh(profile),
        }
    }

    /// Parse a [`TuneCache::to_json`] document. `None` on schema or
    /// shape mismatches (strict: a corrupt cache must not half-load).
    pub fn from_json(text: &str) -> Option<TuneCache> {
        let doc = Json::parse(text).ok()?;
        if doc.get("schema").and_then(Json::as_u64) != Some(1)
            || doc.get("kind").and_then(Json::as_str) != Some("strassen_serve_tuning")
        {
            return None;
        }
        let profile = MachineProfile::from_json(doc.get("machine")?)?;
        let default = BucketTuning::from_json(doc.get("default")?)?;
        let mut entries = BTreeMap::new();
        for entry in doc.get("entries")?.items()? {
            let key = BucketKey::parse(entry.get("bucket")?.as_str()?)?;
            entries.insert(key, BucketTuning::from_json(entry)?);
        }
        Some(TuneCache { profile, default, entries })
    }

    /// Render the cache as its schema-1 JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.value_u64(1);
        w.key("kind");
        w.value_str("strassen_serve_tuning");
        w.key("machine");
        self.profile.write_json(&mut w);
        w.key("default");
        self.default.write_json(&mut w, None);
        w.key("entries");
        w.begin_array();
        for (key, tuning) in &self.entries {
            tuning.write_json(&mut w, Some(key));
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Persist the cache to `path` (atomic enough for a single writer:
    /// whole-file write).
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> MachineProfile {
        MachineProfile {
            kernel: "Avx2".into(),
            l1d: 32768,
            l2: 1 << 20,
            l3: 8 << 20,
            mc: 256,
            kc: 256,
            nc: 4080,
            physical_cores: 4,
        }
    }

    #[test]
    fn json_round_trips_with_the_strict_parser() {
        let mut cache = TuneCache::new(profile());
        cache.warm_start(BucketTuning { tau: 96, tau_m: 48, tau_k: 40, tau_n: 44, parallel_depth: 0 });
        cache.insert(
            BucketKey::classify(64, 64, 64),
            BucketTuning { tau: 72, tau_m: 36, tau_k: 36, tau_n: 36, parallel_depth: 0 },
        );
        cache.insert(
            BucketKey::classify(2048, 2048, 2048),
            BucketTuning { tau: 96, tau_m: 48, tau_k: 48, tau_n: 48, parallel_depth: 2 },
        );
        let text = cache.to_json();
        let back = TuneCache::from_json(&text).expect("round trip");
        assert_eq!(back.profile, cache.profile);
        assert_eq!(back.default, cache.default);
        assert_eq!(
            back.entries().collect::<Vec<_>>(),
            cache.entries().collect::<Vec<_>>(),
            "entries must survive the round trip in order"
        );
    }

    #[test]
    fn profile_mismatch_discards_the_file() {
        let dir = std::env::temp_dir().join(format!("serve_tune_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tuning.json");

        let mut cache = TuneCache::new(profile());
        cache.insert(BucketKey::classify(64, 64, 64), BucketTuning::paper_default());
        cache.save(&path).unwrap();

        let (same, adopted) = TuneCache::load(&path, profile());
        assert!(adopted, "matching profile must adopt the file");
        assert_eq!(same.entries().count(), 1);

        let other = MachineProfile { l3: 16 << 20, ..profile() };
        let (fresh, adopted) = TuneCache::load(&path, other.clone());
        assert!(!adopted, "mismatched profile must discard the file");
        assert_eq!(fresh.entries().count(), 0);
        assert_eq!(fresh.profile, other);

        let (fresh, adopted) = TuneCache::load(dir.join("missing.json"), profile());
        assert!(!adopted && fresh.entries().count() == 0, "missing file is a fresh cache");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lookup_is_default_until_inserted() {
        let mut cache = TuneCache::new(profile());
        let key = BucketKey::classify(100, 100, 100);
        assert_eq!(cache.lookup(key), cache.default);
        let tuned = BucketTuning { tau: 80, ..BucketTuning::paper_default() };
        cache.insert(key, tuned);
        assert_eq!(cache.lookup(key), tuned);
        assert_eq!(cache.lookup(BucketKey::classify(8, 8, 8)), cache.default);
    }

    #[test]
    fn config_reflects_parallel_depth() {
        let serial = BucketTuning::paper_default().config();
        assert_eq!(serial.parallel_depth, 0);
        let parallel = BucketTuning { parallel_depth: 2, ..BucketTuning::paper_default() }.config();
        assert_eq!(parallel.parallel_depth, 2);
        assert_eq!(parallel.scheme, Scheme::SevenTemp);
    }

    #[test]
    fn warm_start_from_bench_reads_the_pr6_params_shape() {
        let dir = std::env::temp_dir().join(format!("serve_warm_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        std::fs::write(
            &path,
            r#"{"results": [], "tuning": {"schema":1, "params": {"tau":128,"tau_m":56,"tau_k":48,"tau_n":40}}}"#,
        )
        .unwrap();
        let mut cache = TuneCache::new(profile());
        assert!(cache.warm_start_from_bench(&path));
        assert_eq!(
            cache.default,
            BucketTuning { tau: 128, tau_m: 56, tau_k: 48, tau_n: 40, parallel_depth: 0 }
        );
        // Missing file or missing report: unchanged.
        let before = cache.default;
        assert!(!cache.warm_start_from_bench(dir.join("absent.json")));
        std::fs::write(&path, r#"{"results": []}"#).unwrap();
        assert!(!cache.warm_start_from_bench(&path));
        assert_eq!(cache.default, before);
        std::fs::remove_dir_all(&dir).ok();
    }
}
