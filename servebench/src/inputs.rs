//! Seeded request streams for the three workloads.
//!
//! The seed varies only the values inside a fixed shape: ports,
//! comparison constants, packet payloads and which population member a
//! request names. Filter shapes, packet-kind patterns and batch sizes are
//! the same for every seed, so the step cost of a stream (the paper's
//! cost model) barely moves between seeds while its bytes do.

use crate::Workload;
use mlbox_bpf::packet::Packet;
use mlbox_bpf::{chain_filter, multi_port_filter, port_filter, telnet_filter, Insn, PacketGen};
use std::collections::HashSet;
use std::sync::Arc;

/// One request: a filter and the packets to run through it.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Index into [`Inputs::filters`].
    pub filter: usize,
    /// Indices into [`Inputs::packets`].
    pub packets: Box<[u32]>,
}

/// Everything a run submits, generated up front from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Every filter program the run names.
    pub filters: Vec<Arc<Vec<Insn>>>,
    /// The packet pool batches index into.
    pub packets: Vec<Packet>,
    /// Requests served during set-up (warming or populating).
    pub warm: Vec<Batch>,
    /// The timed request stream.
    pub stream: Vec<Batch>,
}

impl Inputs {
    /// The packets of `batch`, owned (what a client hands the pool).
    pub fn batch_packets(&self, batch: &Batch) -> Vec<Packet> {
        batch
            .packets
            .iter()
            .map(|&i| self.packets[i as usize].clone())
            .collect()
    }

    /// Generates `batches` timed requests for `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, batches: usize) -> Inputs {
        let mut rng = SplitMix(seed ^ 0x5eed_5eed_5eed_5eed);
        let mut gen = PacketGen::new(seed);
        match workload {
            Workload::HotSteady => hot_steady(&mut rng, &mut gen, batches),
            Workload::ColdTenants => cold_tenants(&mut rng, &mut gen, batches),
            Workload::StoreChurn => store_churn(&mut rng, &mut gen, batches),
        }
    }
}

/// Packets per `hot_steady` batch.
pub const HOT_BATCH: usize = 64;
/// Packets per `cold_tenants` batch.
pub const COLD_BATCH: usize = 8;
/// Packets per `store_churn` batch.
pub const CHURN_BATCH: usize = 16;
/// Filters in the `store_churn` population.
pub const CHURN_POPULATION: usize = 64;
const HOT_POOL: usize = 1024;

/// The four Table 1 filters over a pool of packets whose kind mix is
/// fixed (packet `i` has kind `i % 8`); batches go round-robin over the
/// filters and draw their packets uniformly from the pool.
fn hot_steady(rng: &mut SplitMix, gen: &mut PacketGen, batches: usize) -> Inputs {
    let filters = vec![
        telnet_filter(),
        port_filter(80),
        multi_port_filter(&[22, 23, 80]),
        chain_filter(8),
    ];
    let packets = (0..HOT_POOL)
        .map(|i| {
            let len = rng.below(64) as usize;
            let other = 1024 + rng.below(60_000) as u16;
            match i % 8 {
                0 | 7 => gen.telnet(len),
                1 => gen.tcp(80, len),
                2 => gen.tcp(22, len),
                3 => gen.tcp(other, len),
                4 => gen.udp(23, len),
                5 => gen.udp(other, len),
                _ => gen.arp(),
            }
        })
        .collect();
    let warm = (0..filters.len())
        .map(|filter| Batch {
            filter,
            packets: (0..HOT_BATCH as u32).collect(),
        })
        .collect();
    let stream = (0..batches)
        .map(|b| Batch {
            filter: b % filters.len(),
            packets: (0..HOT_BATCH)
                .map(|_| rng.below(HOT_POOL as u64) as u32)
                .collect(),
        })
        .collect();
    Inputs {
        filters: filters.into_iter().map(Arc::new).collect(),
        packets,
        warm,
        stream,
    }
}

/// Tenant filters that warm the `cold_tenants` pool in set-up, so that
/// first-use costs (code pages, allocator growth) land there.
const COLD_WARM: usize = 8;

/// Every request names a filter no earlier request named. Filters
/// `0..COLD_WARM` warm the pool in set-up; the stream uses the rest.
fn cold_tenants(rng: &mut SplitMix, gen: &mut PacketGen, batches: usize) -> Inputs {
    let mut tenants = Tenants::default();
    let mut inputs = Inputs {
        filters: Vec::new(),
        packets: Vec::new(),
        warm: Vec::new(),
        stream: Vec::new(),
    };
    for i in 0..COLD_WARM + batches {
        let (filter, ports) = tenants.fresh(i % SHAPES, rng);
        let batch = tenants.packets_for(&ports, COLD_BATCH, rng, gen, &mut inputs.packets);
        inputs.filters.push(Arc::new(filter));
        let batch = Batch {
            filter: i,
            packets: batch,
        };
        if i < COLD_WARM {
            inputs.warm.push(batch);
        } else {
            inputs.stream.push(batch);
        }
    }
    inputs
}

/// A population of tenant filters, each with its own packet batch; set-up
/// serves each once (populating the store), then the stream names
/// population members uniformly at random.
fn store_churn(rng: &mut SplitMix, gen: &mut PacketGen, batches: usize) -> Inputs {
    let mut tenants = Tenants::default();
    let mut inputs = Inputs {
        filters: Vec::new(),
        packets: Vec::new(),
        warm: Vec::new(),
        stream: Vec::new(),
    };
    for i in 0..CHURN_POPULATION {
        let (filter, ports) = tenants.fresh(i % SHAPES, rng);
        let packets = tenants.packets_for(&ports, CHURN_BATCH, rng, gen, &mut inputs.packets);
        inputs.filters.push(Arc::new(filter));
        inputs.warm.push(Batch { filter: i, packets });
    }
    inputs.stream = (0..batches)
        .map(|_| {
            let filter = rng.below(CHURN_POPULATION as u64) as usize;
            inputs.warm[filter].clone()
        })
        .collect();
    inputs
}

/// Tenant filter shapes, cycled in a fixed order.
const SHAPES: usize = 4;

/// Draws never-repeating tenant filters.
#[derive(Default)]
struct Tenants {
    seen: HashSet<u64>,
}

impl Tenants {
    /// A filter of `shape` never drawn before, and its accepted ports:
    /// shape 0 is a single-port filter, 1 and 2 are 3- and 5-port
    /// OR-chains, 3 is an 8-test accumulator chain whose constants no
    /// packet byte can equal.
    fn fresh(&mut self, shape: usize, rng: &mut SplitMix) -> (Vec<Insn>, Vec<u16>) {
        loop {
            let ports = distinct_ports(rng, [1, 3, 5, 3][shape]);
            let filter = match shape {
                0 => port_filter(ports[0]),
                1 | 2 => multi_port_filter(&ports),
                _ => {
                    let mut chain = chain_filter(8);
                    for insn in &mut chain {
                        if let Insn::JeqK { k, .. } = insn {
                            *k = 256 + rng.below(1 << 20) as i64;
                        }
                    }
                    chain
                }
            };
            if self.seen.insert(mlbox_bpf::fingerprint(&filter)) {
                return (filter, ports);
            }
        }
    }

    /// Appends `n` packets for a filter accepting `ports` to `pool` and
    /// returns their indices. The kind pattern is fixed — first, last and
    /// middle accepted port, misses by port and by protocol, ARP — so
    /// the per-packet step cost depends on the filter's shape only.
    fn packets_for(
        &self,
        ports: &[u16],
        n: usize,
        rng: &mut SplitMix,
        gen: &mut PacketGen,
        pool: &mut Vec<Packet>,
    ) -> Box<[u32]> {
        let first = ports[0];
        let last = ports[ports.len() - 1];
        let middle = ports[ports.len() / 2];
        let other = loop {
            let p = 1 + rng.below(65_535) as u16;
            if !ports.contains(&p) {
                break p;
            }
        };
        (0..n)
            .map(|i| {
                let len = rng.below(64) as usize;
                let packet = match i % 8 {
                    0 | 7 => gen.tcp(first, len),
                    1 => gen.tcp(last, len),
                    2 => gen.tcp(other, len),
                    3 => gen.udp(first, len),
                    4 => gen.arp(),
                    5 => gen.tcp(middle, len),
                    _ => gen.udp(other, len),
                };
                pool.push(packet);
                (pool.len() - 1) as u32
            })
            .collect()
    }
}

fn distinct_ports(rng: &mut SplitMix, n: usize) -> Vec<u16> {
    let mut ports: Vec<u16> = Vec::with_capacity(n);
    while ports.len() < n {
        let p = 1 + rng.below(65_535) as u16;
        if !ports.contains(&p) {
            ports.push(p);
        }
    }
    ports
}

/// SplitMix64: a small, fixed generator, so inputs depend on the seed
/// and nothing else.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
