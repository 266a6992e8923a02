//! The traced replay: the same request stream, served on one thread by
//! the benchmark's own copy of the worker loop, with a span around each
//! layer's public call.
//!
//! Stream requests are traced in alternate blocks of [`BLOCK`]; the
//! blocks in between run with tracing off, under the same host
//! conditions and heap, and are the baseline for `trace.overhead`.
//! Set-up and the store read-back are traced throughout.
//!
//! Requests resolve through `SpecializationCache::get_or_init`; on a miss
//! the benchmark's closure calls the layers one by one, as
//! `FilterCache::get_or_load_or_specialize` and `ArtifactStore` do
//! inside the pool: read the artifact file, decode it, and only if there
//! is none run the front end and the generator, then encode and publish
//! the result under the store's file name.

use crate::inputs::{Batch, Inputs};
use crate::serve::check_batch;
use crate::trace::{Name, Totals, Tracer};
use crate::Workload;
use ccam::value::Value;
use mlbox::artifact::{app_code, apply, machine_for};
use mlbox::{CompiledFilter, SessionOptions};
use mlbox_bpf::harness::{expect_verdict, filter_arg};
use mlbox_bpf::FilterHarness;
use mlbox_serve::{ArtifactStore, CacheKey, CacheStats, FilterCache, PoolConfig};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Work counted at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Filters the front end and generator ran for.
    pub specialized: u64,
    /// Generator reduction steps.
    pub gen_steps: u64,
    /// Instructions the generator emitted.
    pub gen_emitted: u64,
    /// Arena freezes that materialized code.
    pub freezes: u64,
    /// Arena freezes served from the snapshot.
    pub freeze_hits: u64,
    /// Instructions in the generated artifacts.
    pub artifact_instrs: u64,
    /// Artifacts encoded.
    pub encodes: u64,
    /// Bytes encoded.
    pub encoded_bytes: u64,
    /// Bytes decoded (set-up, stream and verify).
    pub decoded_bytes: u64,
    /// Instructions hydrated into the worker heap.
    pub hydrated_instrs: u64,
    /// Store loads that served a request (set-up and stream).
    pub loads: u64,
    /// Store saves.
    pub saves: u64,
    /// Cache requests.
    pub requests: u64,
    /// Reduction steps of the packets run.
    pub packet_steps: u64,
}

/// Stream requests per traced or untraced block: a multiple of every
/// workload's filter rotation, so both kinds of block see the same mix.
const BLOCK: usize = 16;

/// Wall time and packets of the stream requests run one way.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Summed request wall time, ns.
    pub ns: u64,
    /// Packets in those requests.
    pub packets: u64,
}

/// What one replay measured.
pub struct Replay {
    /// The recorded spans.
    pub tracer: Tracer,
    /// Span totals.
    pub totals: Totals,
    /// Counts at the layer boundaries, for the whole replay.
    pub counters: Counters,
    /// The same counts for the calls made while tracing was on: the
    /// denominators of per-call times.
    pub traced_counters: Counters,
    /// The replay cache's final counters.
    pub cache: CacheStats,
    /// Wall time of the traced part of the replay (all of it but the
    /// untraced stream blocks), ns.
    pub traced_wall_ns: u64,
    /// Stream requests run with tracing on.
    pub traced: Timed,
    /// Stream requests run with tracing off.
    pub untraced: Timed,
    /// Store loads during the stream phase.
    pub stream_loads: u64,
    /// Reduction steps per stream batch.
    pub batch_steps: Vec<u64>,
}

/// The replay's stand-in for a pool worker and its store.
struct Worker<'a> {
    inputs: &'a Inputs,
    options: SessionOptions,
    store: ArtifactStore,
    machine: ccam::machine::Machine,
    app: ccam::CodeRef,
    installed: HashMap<CacheKey, Value>,
    tmp: u64,
    counters: Counters,
    traced_counters: Counters,
    tracer: Tracer,
}

/// Replays set-up, the stream and the store read-back.
///
/// # Errors
///
/// Returns a description of any wrong output or failed layer call.
pub fn replay(workload: Workload, inputs: &Inputs, dir: &Path) -> Result<Replay, String> {
    crate::fresh_dir(dir)?;
    let options = PoolConfig::default().options;
    let mut w = Worker {
        inputs,
        machine: machine_for(&options),
        options,
        store: ArtifactStore::open(dir).map_err(|e| e.to_string())?,
        app: app_code(),
        installed: HashMap::new(),
        tmp: 0,
        counters: Counters::default(),
        traced_counters: Counters::default(),
        tracer: Tracer::new(),
    };
    let cache = FilterCache::new(workload.cache_capacity());
    let started = Instant::now();

    let phase = w.tracer.begin(Name::Phase);
    for (i, batch) in inputs.warm.iter().enumerate() {
        w.tracer.set_request(i as u32);
        w.serve(&cache, batch)?;
    }
    w.tracer.end(phase);

    let loads_before = w.counters.loads;
    let (mut traced, mut untraced) = (Timed::default(), Timed::default());
    let mut batch_steps = Vec::with_capacity(inputs.stream.len());
    for (i, batch) in inputs.stream.iter().enumerate() {
        let on = (i / BLOCK).is_multiple_of(2);
        w.tracer.set_enabled(on);
        w.tracer.set_request((inputs.warm.len() + i) as u32);
        let request_started = Instant::now();
        batch_steps.push(w.serve(&cache, batch)?);
        let timed = if on { &mut traced } else { &mut untraced };
        timed.ns += nanos(request_started);
        timed.packets += batch.packets.len() as u64;
    }
    w.tracer.set_enabled(true);
    let stream_loads = w.counters.loads - loads_before;

    let phase = w.tracer.begin(Name::Phase);
    w.tracer.set_request(u32::MAX);
    for filter in &inputs.filters {
        let key = CacheKey::new(filter, &w.options);
        if w.load(key)?.is_none() {
            return Err(format!("store lost artifact {:016x}", key.filter));
        }
    }
    w.tracer.end(phase);
    let traced_wall_ns = nanos(started) - untraced.ns;

    let replay = Replay {
        totals: w.tracer.totals(),
        tracer: w.tracer,
        counters: w.counters,
        traced_counters: w.traced_counters,
        cache: cache.stats(),
        traced_wall_ns,
        traced,
        untraced,
        stream_loads,
        batch_steps,
    };
    crate::remove_dir(dir)?;
    Ok(replay)
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Worker<'_> {
    /// Applies `add` to the replay's counters, and to the traced ones
    /// while tracing is on.
    fn count(&mut self, add: impl Fn(&mut Counters)) {
        add(&mut self.counters);
        if self.tracer.enabled() {
            add(&mut self.traced_counters);
        }
    }

    /// Serves one batch as a pool worker would, verifying every verdict;
    /// returns the batch's reduction steps.
    fn serve(&mut self, cache: &FilterCache, batch: &Batch) -> Result<u64, String> {
        let request = self.tracer.begin(Name::Request);
        let filter = Arc::clone(&self.inputs.filters[batch.filter]);
        let span = self.tracer.begin(Name::Cache);
        let key = CacheKey::new(&filter, &self.options);
        let artifact = cache.get_or_init(key, || self.resolve(key, &filter));
        self.tracer.end(span);
        self.count(|c| c.requests += 1);
        let artifact = artifact?;
        let entry = match self.installed.get(&key) {
            Some(entry) => entry.clone(),
            None => {
                let span = self.tracer.begin(Name::WireHydrate);
                let entry = artifact
                    .hydrate_entry_for(&self.options)
                    .map_err(|e| e.to_string())?;
                self.tracer.end(span);
                self.count(|c| c.hydrated_instrs += artifact.instructions() as u64);
                self.installed.insert(key, entry.clone());
                entry
            }
        };
        let mut verdicts = Vec::with_capacity(batch.packets.len());
        let mut steps = Vec::with_capacity(batch.packets.len());
        for &p in batch.packets.iter() {
            let span = self.tracer.begin(Name::PacketArg);
            let arg = filter_arg(&self.inputs.packets[p as usize]);
            self.tracer.end(span);
            let span = self.tracer.begin(Name::PacketRun);
            let (value, delta) =
                apply(&mut self.machine, &self.app, &entry, arg).map_err(|e| e.to_string())?;
            self.tracer.end(span);
            verdicts.push(expect_verdict(&value).map_err(|e| e.to_string())?);
            steps.push(delta.steps);
        }
        let total = check_batch(self.inputs, batch, &verdicts, &steps, None)?;
        self.count(|c| c.packet_steps += total);
        self.tracer.end(request);
        Ok(total)
    }

    /// The cache-miss path: the store, then the front end and generator.
    fn resolve(
        &mut self,
        key: CacheKey,
        filter: &[mlbox_bpf::Insn],
    ) -> Result<Arc<CompiledFilter>, String> {
        if let Some(artifact) = self.load(key)? {
            self.count(|c| c.loads += 1);
            return Ok(Arc::new(artifact));
        }
        let span = self.tracer.begin(Name::Frontend);
        let mut harness =
            FilterHarness::with_options(filter, self.options.clone()).map_err(|e| e.to_string())?;
        self.tracer.end(span);
        let span = self.tracer.begin(Name::Generator);
        let before = harness.machine_stats();
        let artifact = harness.compile_artifact().map_err(|e| e.to_string())?;
        let delta = harness.machine_stats().delta_since(&before);
        self.tracer.end(span);
        // The session is the front end's product; its teardown is front
        // end time too.
        let span = self.tracer.begin(Name::Frontend);
        drop(harness);
        self.tracer.end(span);
        let instrs = artifact.instructions() as u64;
        self.count(|c| {
            c.specialized += 1;
            c.gen_steps += delta.steps;
            c.gen_emitted += delta.emitted;
            c.freezes += delta.freezes;
            c.freeze_hits += delta.freeze_hits;
            c.artifact_instrs += instrs;
        });
        self.save(key, &artifact)
            .map_err(|e| format!("store save: {e}"))?;
        Ok(Arc::new(artifact))
    }

    /// `ArtifactStore::load`, one layer call at a time.
    fn load(&mut self, key: CacheKey) -> Result<Option<CompiledFilter>, String> {
        let load = self.tracer.begin(Name::StoreLoad);
        let span = self.tracer.begin(Name::StoreRead);
        let path = self.store.path_for(key.filter, &self.options);
        let read = fs::read(&path);
        self.tracer.end(span);
        let bytes = match read {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.tracer.end(load);
                return Ok(None);
            }
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        let span = self.tracer.begin(Name::WireDecode);
        let artifact = CompiledFilter::from_wire_bytes_for(&bytes, &self.options)
            .map_err(|e| e.to_string())?;
        self.tracer.end(span);
        if (
            artifact.source_fingerprint(),
            artifact.options_fingerprint(),
        ) != (key.filter, key.options)
        {
            return Err(format!("{} holds another key", path.display()));
        }
        self.tracer.end(load);
        self.count(|c| c.decoded_bytes += bytes.len() as u64);
        Ok(Some(artifact))
    }

    /// `ArtifactStore::save`, one layer call at a time: encode, write a
    /// temporary file, rename it into place.
    fn save(&mut self, key: CacheKey, artifact: &CompiledFilter) -> io::Result<()> {
        let save = self.tracer.begin(Name::StoreSave);
        let span = self.tracer.begin(Name::WireEncode);
        let bytes = artifact.to_wire_bytes();
        self.tracer.end(span);
        let span = self.tracer.begin(Name::StoreWrite);
        let path = self.store.path_for(key.filter, &self.options);
        let tmp = self.store.root().join(format!(".tmp-replay-{}", self.tmp));
        self.tmp += 1;
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, &path)?;
        self.tracer.end(span);
        self.tracer.end(save);
        self.count(|c| {
            c.encodes += 1;
            c.encoded_bytes += bytes.len() as u64;
            c.saves += 1;
        });
        Ok(())
    }
}
