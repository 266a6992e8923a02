//! In-memory spans for the traced replay.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! are kept in a flat vector while the replay runs and written out as one
//! tab-separated file when it ends. A disabled tracer records nothing and
//! reads no clock, so the same replay code, with tracing switched off for
//! some requests, gives the untraced baseline `trace.overhead` is
//! measured against.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// What a span times. Everything but [`Name::Phase`] and
/// [`Name::Request`] is a call into one layer of the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// A replay phase (set-up, or the store read-back).
    Phase,
    /// One request, from cache lookup to its last verdict.
    Request,
    /// `SpecializationCache::get_or_init`, minus the miss closure.
    Cache,
    /// A store lookup: read, then decode if the file exists.
    StoreLoad,
    /// Reading an artifact file (or finding there is none).
    StoreRead,
    /// `CompiledFilter::from_wire_bytes_for`.
    WireDecode,
    /// `FilterHarness::with_options` and the session's teardown.
    Frontend,
    /// `FilterHarness::compile_artifact`.
    Generator,
    /// A store save: encode, then publish.
    StoreSave,
    /// `CompiledFilter::to_wire_bytes`.
    WireEncode,
    /// Writing a temporary file and renaming it into place.
    StoreWrite,
    /// `CompiledFilter::hydrate_entry_for`.
    WireHydrate,
    /// `filter_arg`: building a packet's argument value.
    PacketArg,
    /// `artifact::apply`: one packet through the CCAM.
    PacketRun,
}

impl Name {
    /// Every name, in a fixed order.
    pub const ALL: [Name; 14] = [
        Name::Phase,
        Name::Request,
        Name::Cache,
        Name::StoreLoad,
        Name::StoreRead,
        Name::WireDecode,
        Name::Frontend,
        Name::Generator,
        Name::StoreSave,
        Name::WireEncode,
        Name::StoreWrite,
        Name::WireHydrate,
        Name::PacketArg,
        Name::PacketRun,
    ];

    /// The span's name in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Phase => "phase",
            Name::Request => "request",
            Name::Cache => "cache.get_or_init",
            Name::StoreLoad => "store.load",
            Name::StoreRead => "store.read",
            Name::WireDecode => "wire.decode",
            Name::Frontend => "frontend",
            Name::Generator => "generator",
            Name::StoreSave => "store.save",
            Name::WireEncode => "wire.encode",
            Name::StoreWrite => "store.write",
            Name::WireHydrate => "wire.hydrate",
            Name::PacketArg => "packet.arg",
            Name::PacketRun => "packet.run",
        }
    }

    /// Whether the span times a layer (and so counts toward coverage).
    pub fn is_layer(self) -> bool {
        !matches!(self, Name::Phase | Name::Request)
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    request: u32,
    start: u64,
    end: u64,
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    /// An enabled recorder.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: u32::MAX,
        }
    }

    /// Switches recording on or off; no span may be open.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "spans open across a switch");
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request id later spans carry.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: Name) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request: self.request,
            start: self.now(),
            end: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let now = self.now();
            self.spans[id as usize].end = now;
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Per-name totals: count, summed duration and summed self time
    /// (duration minus the time its child spans cover), in ns.
    pub fn totals(&self) -> Totals {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                self_ns[s.parent as usize] -= s.end - s.start;
            }
        }
        let mut totals = Totals::default();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let slot = &mut totals.by_name[s.name as usize];
            slot.count += 1;
            slot.total_ns += s.end - s.start;
            slot.self_ns += own;
        }
        totals
    }

    /// Writes every span as `request parent id name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tparent\tid\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let request = if s.request == u32::MAX {
                -1
            } else {
                i64::from(s.request)
            };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{request}\t{parent}\t{id}\t{}\t{}\t{}",
                s.name.label(),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Aggregates of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// [`Total`]s for every [`Name`].
#[derive(Debug, Clone, Default)]
pub struct Totals {
    by_name: [Total; Name::ALL.len()],
}

impl Totals {
    /// The totals of `name`.
    pub fn get(&self, name: Name) -> Total {
        self.by_name[name as usize]
    }

    /// Summed self time of every layer span, ns.
    pub fn layer_self_ns(&self) -> u64 {
        Name::ALL
            .iter()
            .filter(|n| n.is_layer())
            .map(|&n| self.get(n).self_ns)
            .sum()
    }
}
