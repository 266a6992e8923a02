//! **servebench** — the MLbox serve benchmark.
//!
//! Three fixed-work workloads go through the public serving API: one
//! `ServePool` worker fed by one closed-loop client, every verdict checked
//! against the native BPF interpreter. An untraced run gives the
//! end-to-end metrics, reported at reference speed (`calib`); a
//! separate traced replay of the same request stream (`replay`) gives
//! the per-layer ledger. See `README.md` for the workloads, the metrics
//! and which layer moves which figure.

mod calib;
mod inputs;
mod replay;
mod serve;
mod trace;

use inputs::Inputs;
use replay::Replay;
use serve::ServeRun;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use trace::Name;

/// A workload: one traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The four Table 1 filters, warmed in set-up; 64-packet batches.
    HotSteady,
    /// A never-seen filter per 8-packet batch: specialization under load.
    ColdTenants,
    /// 64 stored filters behind an 8-entry cache; 16-packet batches.
    StoreChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::HotSteady,
        Workload::ColdTenants,
        Workload::StoreChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSteady => "hot_steady",
            Workload::ColdTenants => "cold_tenants",
            Workload::StoreChurn => "store_churn",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Batches the client keeps in flight. `cold_tenants` keeps one, so
    /// its latency is the cost of one never-seen filter, not of four
    /// queued behind each other.
    fn outstanding(self) -> usize {
        match self {
            Workload::HotSteady | Workload::StoreChurn => 4,
            Workload::ColdTenants => 1,
        }
    }

    /// Capacity of the pool's specialization cache.
    pub fn cache_capacity(self) -> usize {
        match self {
            Workload::HotSteady | Workload::ColdTenants => 64,
            Workload::StoreChurn => 8,
        }
    }

    /// Timed batches per second of `--seconds`. Fixed, so a run's work
    /// depends on its arguments only, never on how fast the host is.
    fn batches_per_second(self) -> f64 {
        match self {
            Workload::HotSteady => 1_200.0,
            Workload::ColdTenants => 300.0,
            Workload::StoreChurn => 3_500.0,
        }
    }
}

/// How much work one run does.
#[derive(Debug, Clone)]
pub struct Params {
    /// Timed batches.
    pub batches: usize,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Timed slices, with a calibration point between every two.
    pub slices: usize,
}

impl Params {
    /// The full-size run for `seconds` of `--seconds`.
    pub fn for_seconds(workload: Workload, seconds: u32) -> Params {
        Params {
            batches: (f64::from(seconds) * workload.batches_per_second()).ceil() as usize,
            setup_reps: 11,
            slices: 60,
        }
    }
}

/// A metric's name, unit and which output it belongs to.
pub type MetricSpec = (&'static str, &'static str);

/// The end-to-end metrics (`--trace 0`), name and unit.
pub const END_TO_END: [MetricSpec; 6] = [
    ("setup_s", "s"),
    ("packets_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("steps_per_packet", "steps"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics (`--trace 1`), name and unit.
pub const PER_LAYER: [MetricSpec; 42] = [
    ("frontend.ms_per_filter", "ms"),
    ("frontend.share", "ratio"),
    ("generator.ms_per_filter", "ms"),
    ("generator.steps_per_filter", "steps"),
    ("generator.emitted_per_filter", "instrs"),
    ("generator.artifact_instrs", "instrs"),
    ("generator.ns_per_step", "ns/step"),
    ("freeze.freezes_per_filter", "count"),
    ("freeze.hit_ratio", "ratio"),
    ("wire.bytes_per_artifact", "bytes"),
    ("wire.encode_ns_per_byte", "ns/byte"),
    ("wire.decode_ns_per_byte", "ns/byte"),
    ("wire.hydrate_ns_per_instr", "ns/instr"),
    ("store.read_us", "us"),
    ("store.load_us", "us"),
    ("store.save_us", "us"),
    ("store.loads", "count"),
    ("store.saves", "count"),
    ("cache.requests", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.lookup_ns", "ns"),
    ("packet.arg_ns", "ns"),
    ("packet.run_ns", "ns"),
    ("packet.ns_per_step", "ns/step"),
    ("packet.steps", "steps"),
    ("pool.queue_wait_p50_ms", "ms"),
    ("pool.queue_wait_p99_ms", "ms"),
    ("pool.service_p50_ms", "ms"),
    ("pool.busy_frac", "ratio"),
    ("pool.installs", "count"),
    ("pool.shed", "count"),
    ("failed_share", "ratio"),
    ("bpf_native.ns_per_packet", "ns"),
    ("host.ref_ns", "ns"),
    ("host.raw_packets_per_s", "1/s"),
    ("host.raw_batch_p50_ms", "ms"),
    ("host.raw_batch_p99_ms", "ms"),
    ("host.reply_gap_p99_ms", "ms"),
    ("host.raw_setup_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One run's result line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Batches attempted in the timed stream.
    pub attempted: u64,
    /// Of those, batches that errored or were shed.
    pub failed: u64,
    /// `(name, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// The value of metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if the report has no such metric.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .1
    }

    /// The result as one JSON object. Every output was verified before
    /// a report exists, so `correct` is always true.
    pub fn to_json(&self) -> String {
        let units: Vec<MetricSpec> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs `workload` on the inputs of `seed`, writing scratch files (the
/// stores and the span trace) under `dir`. Untraced (`trace == false`)
/// it reports the end-to-end metrics; traced, it also replays the
/// stream on one thread with spans and reports the per-layer metrics.
///
/// # Errors
///
/// Returns a description of the first wrong output, failed set-up or
/// disagreement between the pool and the replay.
pub fn run(
    workload: Workload,
    seed: u64,
    params: &Params,
    trace: bool,
    dir: &Path,
) -> Result<Report, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let inputs = Inputs::generate(workload, seed, params.batches);
    let served = serve::serve(workload, &inputs, params, &dir.join("serve"))?;
    let metrics = if trace {
        let traced = replay::replay(workload, &inputs, &dir.join("replay"))?;
        cross_check(&served, &traced)?;
        let trace_file = dir.join("trace.tsv");
        traced
            .tracer
            .write_tsv(&trace_file)
            .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
        per_layer(&inputs, &served, &traced)
    } else {
        end_to_end(&served)
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
    }
    Ok(Report {
        attempted: served.attempted,
        failed: served.failed,
        metrics,
    })
}

/// The replay must reproduce the pool's work exactly: the same steps per
/// batch, the same cache outcomes and the same store loads.
fn cross_check(served: &ServeRun, replay: &Replay) -> Result<(), String> {
    if served.batch_steps != replay.batch_steps {
        return Err("pool and replay disagree on per-batch step counts".into());
    }
    let (pool, rep) = (&served.report.cache, &replay.cache);
    if (pool.hits, pool.misses, pool.evictions) != (rep.hits, rep.misses, rep.evictions) {
        return Err(format!(
            "pool cache {}/{}/{} vs replay {}/{}/{} (hits/misses/evictions)",
            pool.hits, pool.misses, pool.evictions, rep.hits, rep.misses, rep.evictions
        ));
    }
    if served.store.loads != replay.stream_loads {
        return Err(format!(
            "pool loaded {} artifacts while timed, the replay {}",
            served.store.loads, replay.stream_loads
        ));
    }
    Ok(())
}

fn end_to_end(s: &ServeRun) -> Vec<(&'static str, f64)> {
    let steps: u64 = s.batch_steps.iter().sum();
    vec![
        ("setup_s", median(&s.setup_s)),
        ("packets_per_s", s.packets as f64 / s.ref_s),
        ("batch_p50_ms", quantile(&s.latency_ms, 0.50)),
        ("batch_p99_ms", segment_p99(&s.latency_ms)),
        ("steps_per_packet", ratio(steps, s.packets)),
        ("peak_rss_mb", s.peak_rss_mb),
    ]
}

fn per_layer(inputs: &Inputs, s: &ServeRun, traced: &Replay) -> Vec<(&'static str, f64)> {
    let t = &traced.totals;
    let c = &traced.counters;
    // Per-call times divide span time by the work done while tracing was on.
    let tc = &traced.traced_counters;
    let self_ns = |n: Name| t.get(n).self_ns as f64;
    let mean_ns = |n: Name| {
        let total = t.get(n);
        ratio(total.total_ns, total.count)
    };
    let frontend = self_ns(Name::Frontend);
    let generator = self_ns(Name::Generator);
    let cache = &s.report.cache;
    let service: f64 = s.service_ms.iter().sum::<f64>() / 1e3;
    let installs: u64 = s.report.workers.iter().map(|w| w.installs).sum();
    vec![
        (
            "frontend.ms_per_filter",
            frontend / 1e6 / tc.specialized as f64,
        ),
        ("frontend.share", frontend / traced.traced_wall_ns as f64),
        (
            "generator.ms_per_filter",
            generator / 1e6 / tc.specialized as f64,
        ),
        (
            "generator.steps_per_filter",
            ratio(c.gen_steps, c.specialized),
        ),
        (
            "generator.emitted_per_filter",
            ratio(c.gen_emitted, c.specialized),
        ),
        (
            "generator.artifact_instrs",
            ratio(c.artifact_instrs, c.specialized),
        ),
        ("generator.ns_per_step", generator / tc.gen_steps as f64),
        ("freeze.freezes_per_filter", ratio(c.freezes, c.specialized)),
        (
            "freeze.hit_ratio",
            ratio(c.freeze_hits, c.freezes + c.freeze_hits),
        ),
        ("wire.bytes_per_artifact", ratio(c.encoded_bytes, c.encodes)),
        (
            "wire.encode_ns_per_byte",
            self_ns(Name::WireEncode) / tc.encoded_bytes as f64,
        ),
        (
            "wire.decode_ns_per_byte",
            self_ns(Name::WireDecode) / tc.decoded_bytes as f64,
        ),
        (
            "wire.hydrate_ns_per_instr",
            self_ns(Name::WireHydrate) / tc.hydrated_instrs as f64,
        ),
        ("store.read_us", mean_ns(Name::StoreRead) / 1e3),
        ("store.load_us", mean_ns(Name::StoreLoad) / 1e3),
        ("store.save_us", mean_ns(Name::StoreSave) / 1e3),
        ("store.loads", c.loads as f64),
        ("store.saves", c.saves as f64),
        ("cache.requests", cache.requests() as f64),
        ("cache.hit_ratio", cache.hit_rate()),
        ("cache.evictions", cache.evictions as f64),
        ("cache.lookup_ns", self_ns(Name::Cache) / tc.requests as f64),
        ("packet.arg_ns", mean_ns(Name::PacketArg)),
        ("packet.run_ns", mean_ns(Name::PacketRun)),
        (
            "packet.ns_per_step",
            self_ns(Name::PacketRun) / tc.packet_steps as f64,
        ),
        ("packet.steps", c.packet_steps as f64),
        ("pool.queue_wait_p50_ms", quantile(&s.queued_ms, 0.50)),
        ("pool.queue_wait_p99_ms", quantile(&s.queued_ms, 0.99)),
        ("pool.service_p50_ms", quantile(&s.service_ms, 0.50)),
        ("pool.busy_frac", service / s.raw_s),
        ("pool.installs", installs as f64),
        ("pool.shed", s.report.shed as f64),
        ("failed_share", ratio(s.failed, s.attempted)),
        ("bpf_native.ns_per_packet", native_ns_per_packet(inputs)),
        ("host.ref_ns", s.ref_ns),
        ("host.raw_packets_per_s", s.packets as f64 / s.raw_s),
        ("host.raw_batch_p50_ms", quantile(&s.raw_latency_ms, 0.50)),
        ("host.raw_batch_p99_ms", segment_p99(&s.raw_latency_ms)),
        ("host.reply_gap_p99_ms", segment_p99(&s.reply_gap_ms)),
        ("host.raw_setup_s", median(&s.raw_setup_s)),
        (
            "trace.coverage",
            t.layer_self_ns() as f64 / traced.traced_wall_ns as f64,
        ),
        (
            "trace.overhead",
            per_packet(traced.traced) / per_packet(traced.untraced),
        ),
    ]
}

/// The floor: the native BPF interpreter over the stream's packets, ns
/// per packet.
fn native_ns_per_packet(inputs: &Inputs) -> f64 {
    let mut packets = 0u64;
    let started = Instant::now();
    for batch in &inputs.stream {
        let filter = &inputs.filters[batch.filter];
        for &p in batch.packets.iter() {
            std::hint::black_box(mlbox_bpf::native::run_filter(
                filter,
                std::hint::black_box(&inputs.packets[p as usize].bytes),
            ));
            packets += 1;
        }
    }
    started.elapsed().as_nanos() as f64 / packets as f64
}

/// Batches per `batch_p99_ms` segment: enough that a segment's p99 has
/// ten samples beyond it.
const P99_SEGMENT: usize = 1000;

/// The median over consecutive [`P99_SEGMENT`]-batch segments of each
/// segment's p99. A host stall that lasts part of a run moves the p99 of
/// the segments it hits, not the median segment. A stream shorter than
/// one segment is one segment.
fn segment_p99(latency: &[f64]) -> f64 {
    let p99s: Vec<f64> = latency
        .chunks(P99_SEGMENT)
        .filter(|c| c.len() == P99_SEGMENT || latency.len() < P99_SEGMENT)
        .map(|c| quantile(c, 0.99))
        .collect();
    median(&p99s)
}

/// Nanoseconds per packet of `timed` (0 when it ran none).
fn per_packet(timed: replay::Timed) -> f64 {
    ratio(timed.ns, timed.packets)
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The median of `values` (0 for none).
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The nearest-rank `q`-quantile of `values` (0 for none).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Empties (or creates) `dir`.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    remove_dir(dir)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Removes `dir` and everything under it, if it exists.
fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", dir.display())),
    }
}
