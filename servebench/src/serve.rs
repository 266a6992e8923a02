//! The untraced run: one `ServePool` worker, one closed-loop client.
//!
//! Set-up (store open, pool start, warm or populate) is repeated
//! `setup_reps` times, each in a fresh store directory, and the last
//! pool serves the timed stream. The stream is cut into slices; a
//! calibration point sits between every two, and the client drains all
//! outstanding batches before it, so the kernel never competes with the
//! worker.

use crate::calib::Calibrator;
use crate::inputs::{Batch, Inputs};
use crate::{Params, Workload};
use mlbox_bpf::harness::filter_arg;
use mlbox_bpf::native::run_filter;
use mlbox_bpf::FilterHarness;
use mlbox_serve::{
    AdmissionError, ArtifactStore, BatchResult, PoolConfig, PoolReport, ServePool, StoreStats,
    Ticket,
};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The pool's bounded queue depth: room for every outstanding batch, so
/// a healthy pool sheds nothing.
pub const QUEUE_DEPTH: usize = 8;

/// What the untraced run measured.
#[derive(Debug)]
pub struct ServeRun {
    /// Set-up time of each repetition, at reference speed, in s.
    pub setup_s: Vec<f64>,
    /// Set-up time of each repetition as measured, in s.
    pub raw_setup_s: Vec<f64>,
    /// Timed-phase wall time at reference speed, s.
    pub ref_s: f64,
    /// Timed-phase wall time as measured, s.
    pub raw_s: f64,
    /// Submit→reply latency per stream batch (queue wait plus service,
    /// as the pool times it), at reference speed, ms.
    pub latency_ms: Vec<f64>,
    /// The same latencies as measured, ms.
    pub raw_latency_ms: Vec<f64>,
    /// Per stream batch, how much later than the pool's reply the client
    /// observed it, as measured, ms.
    pub reply_gap_ms: Vec<f64>,
    /// Queue wait per stream batch as measured, ms.
    pub queued_ms: Vec<f64>,
    /// Worker service time per stream batch as measured, ms.
    pub service_ms: Vec<f64>,
    /// Reduction steps of each stream batch (0 for a failed one).
    pub batch_steps: Vec<u64>,
    /// Packets verified in the stream.
    pub packets: u64,
    /// Stream batches attempted.
    pub attempted: u64,
    /// Stream batches that errored or were shed.
    pub failed: u64,
    /// Store counters over the timed phase alone.
    pub store: StoreStats,
    /// The pool's final accounting.
    pub report: PoolReport,
    /// Median calibration point, ns.
    pub ref_ns: f64,
    /// Peak resident set (VmHWM), MiB.
    pub peak_rss_mb: f64,
}

/// Expected per-packet step counts, `[filter][packet]`, from a
/// single-threaded `FilterInstance` per filter.
pub type StepOracle = Vec<Vec<u64>>;

/// Builds the step oracle for every filter over the whole packet pool.
///
/// # Errors
///
/// Returns a rendered error if a filter fails to specialize or run.
pub fn step_oracle(inputs: &Inputs) -> Result<StepOracle, String> {
    let options = PoolConfig::default().options;
    inputs
        .filters
        .iter()
        .map(|filter| {
            let mut harness =
                FilterHarness::with_options(filter, options.clone()).map_err(|e| e.to_string())?;
            let mut instance = harness
                .compile_artifact()
                .map_err(|e| e.to_string())?
                .instantiate();
            inputs
                .packets
                .iter()
                .map(|p| {
                    instance
                        .run(filter_arg(p))
                        .map(|(_, stats)| stats.steps)
                        .map_err(|e| e.to_string())
                })
                .collect()
        })
        .collect()
}

/// Checks one batch's outputs against the native BPF interpreter (and
/// the step oracle, when given), returning its step total.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn check_batch(
    inputs: &Inputs,
    batch: &Batch,
    verdicts: &[i64],
    steps: &[u64],
    oracle: Option<&StepOracle>,
) -> Result<u64, String> {
    let filter = &inputs.filters[batch.filter];
    if verdicts.len() != batch.packets.len() || steps.len() != batch.packets.len() {
        return Err(format!(
            "filter {}: {} packets in, {} verdicts out",
            batch.filter,
            batch.packets.len(),
            verdicts.len()
        ));
    }
    for (k, &p) in batch.packets.iter().enumerate() {
        let expected = run_filter(filter, &inputs.packets[p as usize].bytes);
        if verdicts[k] != expected {
            return Err(format!(
                "filter {} packet {p}: verdict {} but the native interpreter says {expected}",
                batch.filter, verdicts[k]
            ));
        }
        if let Some(oracle) = oracle {
            let expected = oracle[batch.filter][p as usize];
            if steps[k] != expected {
                return Err(format!(
                    "filter {} packet {p}: {} steps but a single-threaded instance takes {expected}",
                    batch.filter, steps[k]
                ));
            }
        }
    }
    Ok(steps.iter().sum())
}

/// One completed batch as the client saw it.
struct Done {
    latency_ns: u64,
    result: BatchResult,
}

/// Serves `batches` through `pool` in a closed loop with `outstanding`
/// batches in flight, calling `done(index, completion)` in order for
/// every admitted batch; returns how many were shed.
fn closed_loop(
    pool: &ServePool,
    inputs: &Inputs,
    batches: &[Batch],
    outstanding: usize,
    mut done: impl FnMut(usize, Done) -> Result<(), String>,
) -> Result<u64, String> {
    let mut in_flight: VecDeque<(usize, Instant, Ticket)> = VecDeque::with_capacity(outstanding);
    let mut shed = 0;
    let mut finish = |(i, submitted, ticket): (usize, Instant, Ticket)| {
        let result = ticket.wait();
        let latency_ns = u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        done(i, Done { latency_ns, result })
    };
    for (i, batch) in batches.iter().enumerate() {
        if in_flight.len() == outstanding {
            finish(in_flight.pop_front().expect("a batch is in flight"))?;
        }
        let filter = Arc::clone(&inputs.filters[batch.filter]);
        let packets = inputs.batch_packets(batch);
        let submitted = Instant::now();
        match pool.try_submit(filter, packets) {
            Ok(ticket) => in_flight.push_back((i, submitted, ticket)),
            Err(AdmissionError::QueueFull { .. } | AdmissionError::PoolClosed) => shed += 1,
        }
    }
    while let Some(next) = in_flight.pop_front() {
        finish(next)?;
    }
    Ok(shed)
}

/// Opens a fresh store at `dir`, starts the pool and serves the warm
/// batches, verifying every verdict.
fn set_up(
    workload: Workload,
    inputs: &Inputs,
    dir: &Path,
) -> Result<(ServePool, Arc<ArtifactStore>), String> {
    let store = Arc::new(ArtifactStore::open(dir).map_err(|e| e.to_string())?);
    let pool = ServePool::new(PoolConfig {
        workers: 1,
        queue_depth: QUEUE_DEPTH,
        cache_capacity: workload.cache_capacity(),
        store: Some(Arc::clone(&store)),
        ..PoolConfig::default()
    });
    let shed = closed_loop(
        &pool,
        inputs,
        &inputs.warm,
        workload.outstanding(),
        |i, done| {
            let out = done
                .result
                .outcome
                .map_err(|e| format!("warm batch {i} failed: {e}"))?;
            check_batch(inputs, &inputs.warm[i], &out.verdicts, &out.steps, None).map(drop)
        },
    )?;
    if shed > 0 {
        return Err(format!("{shed} warm batches shed"));
    }
    Ok((pool, store))
}

/// Set-up times, in s.
struct SetupTimes {
    /// At reference speed.
    reference: Vec<f64>,
    /// As measured.
    raw: Vec<f64>,
}

impl SetupTimes {
    /// Times one set-up in a fresh store directory `dir`.
    fn run(
        &mut self,
        cal: &mut Calibrator,
        workload: Workload,
        inputs: &Inputs,
        dir: &Path,
    ) -> Result<(ServePool, Arc<ArtifactStore>), String> {
        crate::fresh_dir(dir)?;
        let (set, elapsed, factor) = cal.slice(|| set_up(workload, inputs, dir));
        self.reference.push(elapsed * factor);
        self.raw.push(elapsed);
        set
    }
}

/// Sets up the pool, serves the timed stream, then reads every artifact
/// the run saved back from the store. The other `params.setup_reps - 1`
/// set-ups are timed between stream slices, spread over the run, so that
/// `setup_s` samples the host across the run, not in one burst.
///
/// # Errors
///
/// Returns a description of any wrong output or failed set-up.
pub fn serve(
    workload: Workload,
    inputs: &Inputs,
    params: &Params,
    dir: &Path,
) -> Result<ServeRun, String> {
    let mut cal = Calibrator::new();
    let mut setups = SetupTimes {
        reference: Vec::with_capacity(params.setup_reps),
        raw: Vec::with_capacity(params.setup_reps),
    };
    let (pool, store) = setups.run(&mut cal, workload, inputs, &dir.join("live"))?;
    let oracle = match workload {
        Workload::HotSteady => Some(step_oracle(inputs)?),
        _ => None,
    };
    let before = store.stats();

    let stream = &inputs.stream;
    let n = stream.len();
    let slices = params.slices.clamp(1, n.max(1));
    let mut latency_ms = Vec::with_capacity(n);
    let mut raw_latency_ms = Vec::with_capacity(n);
    let mut reply_gap_ms = Vec::with_capacity(n);
    let mut queued_ms = Vec::with_capacity(n);
    let mut service_ms = Vec::with_capacity(n);
    let mut batch_steps = vec![0; n];
    let (mut packets, mut failed, mut raw_s, mut ref_s) = (0, 0, 0.0, 0.0);
    let extra_setups = params.setup_reps.saturating_sub(1);
    let setup_every = (slices / extra_setups.max(1)).max(1);
    // A fresh first point: the step oracle ran since the set-up.
    cal = Calibrator::new();
    for s in 0..slices {
        let range = s * n / slices..(s + 1) * n / slices;
        let first = range.start;
        let mut latencies = Vec::with_capacity(range.len());
        let (shed, elapsed, factor) = cal.slice(|| {
            closed_loop(
                &pool,
                inputs,
                &stream[range],
                workload.outstanding(),
                |i, done| {
                    let (queued, service) = (done.result.queued_nanos, done.result.service_nanos);
                    latencies.push((queued + service) as f64 / 1e6);
                    reply_gap_ms
                        .push(done.latency_ns.saturating_sub(queued + service) as f64 / 1e6);
                    queued_ms.push(queued as f64 / 1e6);
                    service_ms.push(service as f64 / 1e6);
                    match done.result.outcome {
                        Ok(out) => {
                            let batch = &stream[first + i];
                            batch_steps[first + i] = check_batch(
                                inputs,
                                batch,
                                &out.verdicts,
                                &out.steps,
                                oracle.as_ref(),
                            )?;
                            packets += out.verdicts.len() as u64;
                        }
                        Err(_) => failed += 1,
                    }
                    Ok(())
                },
            )
        });
        failed += shed?;
        raw_s += elapsed;
        ref_s += elapsed * factor;
        latency_ms.extend(latencies.iter().map(|l| l * factor));
        raw_latency_ms.extend(latencies);
        if setups.raw.len() <= extra_setups && (s + 1) % setup_every == 0 {
            let extra = dir.join(format!("setup-{s}"));
            let (pool, _) = setups.run(&mut cal, workload, inputs, &extra)?;
            pool.shutdown();
            crate::remove_dir(&extra)?;
        }
    }
    let after = store.stats();
    // Every generator run on a store-backed pool ends in a save; only
    // `cold_tenants` may specialize while timed.
    if workload != Workload::ColdTenants && after.saves != before.saves {
        return Err(format!(
            "the generator ran {} times while timed",
            after.saves - before.saves
        ));
    }
    let report = pool.shutdown();
    verify_store(inputs, &store)?;
    let run = ServeRun {
        setup_s: setups.reference,
        raw_setup_s: setups.raw,
        ref_s,
        raw_s,
        latency_ms,
        raw_latency_ms,
        reply_gap_ms,
        queued_ms,
        service_ms,
        batch_steps,
        packets,
        attempted: n as u64,
        failed,
        store: StoreStats {
            saves: after.saves - before.saves,
            loads: after.loads - before.loads,
            misses: after.misses - before.misses,
        },
        report,
        ref_ns: cal.median_ns(),
        peak_rss_mb: peak_rss_mb()?,
    };
    drop(store);
    crate::remove_dir(dir)?;
    Ok(run)
}

/// Every filter the run named must load back from the store it saved to.
fn verify_store(inputs: &Inputs, store: &ArtifactStore) -> Result<(), String> {
    let options = PoolConfig::default().options;
    for filter in &inputs.filters {
        let fp = mlbox_bpf::fingerprint(filter);
        match store.load(fp, &options) {
            Ok(Some(_)) => {}
            Ok(None) => return Err(format!("store lost artifact {fp:016x}")),
            Err(e) => return Err(format!("store artifact {fp:016x}: {e}")),
        }
    }
    Ok(())
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
