//! The three workloads and the seeded load generator that feeds them.
//!
//! The generator owns every random choice: arrival times, destinations,
//! addresses, keys and the read/write mix. The simulator only ever sees
//! the resulting requests. Everything is a pure function of `--seed`, so a
//! seed fixes the whole request stream and, with it, every simulated
//! metric.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use sonuma_apps::kvdir::{self, KvDirectory};
use sonuma_fabric::FabricConfig;
use sonuma_machine::{SchedPolicy, SloClass};
use sonuma_protocol::{NodeId, RemoteRequest};

/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;

/// SplitMix64 finalizer: the benchmark's only hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of `seed` (independent streams per client).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse CDF; `s = 0` is uniform.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The 8-byte word at `word` of `node`'s seeded segment image.
pub fn image_word(seed: u64, node: usize, word: u64) -> u64 {
    mix(seed ^ ((node as u64) << 40) ^ word)
}

/// `node`'s seeded segment image over `[offset, offset + buf.len())`
/// (`offset` and the length are multiples of 8).
pub fn fill_image(seed: u64, node: usize, offset: u64, buf: &mut [u8]) {
    for (i, chunk) in buf.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&image_word(seed, node, offset / 8 + i as u64).to_le_bytes());
    }
}

/// The 64-byte payload of write number `id` to line `(node, offset)`:
/// the id, then a stream keyed by the line, so a payload can only match
/// the line it was written to.
pub fn write_payload(seed: u64, id: u64, node: usize, offset: u64) -> [u8; 64] {
    let mut out = [0u8; 64];
    let key = mix(seed ^ 0xA11C_E5ED ^ ((node as u64) << 40) ^ offset);
    out[..8].copy_from_slice(&id.to_le_bytes());
    for (i, chunk) in out[8..].chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(key ^ id.rotate_left(17) ^ i as u64).to_le_bytes());
    }
    out
}

/// Fabric shape of a workload's machine.
#[derive(Debug, Clone, Copy)]
pub enum Topo {
    Crossbar,
    Torus3d(usize, usize, usize),
}

impl Topo {
    pub fn config(self, nodes: usize) -> FabricConfig {
        match self {
            Topo::Crossbar => FabricConfig::paper_crossbar(nodes),
            Topo::Torus3d(x, y, z) => FabricConfig::torus3d(x, y, z),
        }
    }

    pub fn label(self) -> String {
        match self {
            Topo::Crossbar => "crossbar".into(),
            Topo::Torus3d(x, y, z) => format!("torus3d:{x}x{y}x{z}"),
        }
    }
}

/// Open-loop arrival process of one tenant.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Exponential gaps at `rate` per simulated second.
    Poisson { rate: f64 },
    /// `burst` back-to-back arrivals every `burst / rate` seconds, each
    /// tenant at its own phase.
    Bursty { rate: f64, burst: u32 },
}

/// What the clients send.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Closed loop: every node keeps `window` reads of `op_bytes` to
    /// uniform-random peers and offsets outstanding, issuing new ones for
    /// `horizon_us` of simulated time.
    Closed {
        window: u32,
        horizon_us: u64,
        op_bytes: u64,
    },
    /// Open-loop tenants issuing single-line reads and writes with Zipf
    /// skew over addresses and destinations.
    Tenants {
        tenants: usize,
        arrival: Arrival,
        horizon_us: u64,
        read_fraction: f64,
        zipf_addr: f64,
        zipf_dst: f64,
    },
    /// Open-loop tenants issuing KV GETs (multi-line reads of a whole
    /// value) and PUTs (writes of the value image).
    Kv {
        tenants: usize,
        arrival: Arrival,
        horizon_us: u64,
        keys: u64,
        value_min: u64,
        value_max: u64,
        zipf_key: f64,
        get_fraction: f64,
        repeat_prob: f64,
    },
}

/// One benchmark workload: the machine and the load on it.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub nodes: usize,
    pub topo: Topo,
    pub sched: SchedPolicy,
    /// Strict-priority style per-class weights instead of uniform ones.
    pub tiered: bool,
    pub segment: u64,
    /// Operations due in the first `warmup_us` of the load are driven but
    /// not measured.
    pub warmup_us: u64,
    /// Episodes in one pass, each on its own sub-seed (see `sub_seed`).
    pub replicas: u64,
    pub load: Load,
}

pub const WORKLOADS: [&str; 3] = ["kv-zipf", "torus-scan", "tenants-mixed"];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        Some(match name {
            "kv-zipf" => Spec {
                name: "kv-zipf",
                nodes: 1024,
                topo: Topo::Torus3d(16, 8, 8),
                sched: SchedPolicy::StrictPriority,
                tiered: true,
                segment: 1 << 19,
                warmup_us: 0,
                replicas: 12,
                load: Load::Kv {
                    tenants: 2048,
                    arrival: Arrival::Bursty {
                        rate: 40_000.0,
                        burst: 4,
                    },
                    horizon_us: 50,
                    keys: 4096,
                    value_min: 4096,
                    value_max: 16384,
                    zipf_key: 1.2,
                    get_fraction: 0.95,
                    repeat_prob: 0.4,
                },
            },
            "torus-scan" => Spec {
                name: "torus-scan",
                nodes: 512,
                topo: Topo::Torus3d(8, 8, 8),
                sched: SchedPolicy::RoundRobin,
                tiered: false,
                segment: 1 << 18,
                warmup_us: 10,
                replicas: 8,
                load: Load::Closed {
                    window: 4,
                    horizon_us: 30,
                    op_bytes: 1024,
                },
            },
            "tenants-mixed" => Spec {
                name: "tenants-mixed",
                nodes: 64,
                topo: Topo::Crossbar,
                sched: SchedPolicy::Wdrr,
                tiered: false,
                segment: 1 << 18,
                warmup_us: 0,
                replicas: 3,
                load: Load::Tenants {
                    tenants: 1024,
                    arrival: Arrival::Poisson { rate: 150_000.0 },
                    horizon_us: 200,
                    read_fraction: 0.8,
                    zipf_addr: 0.9,
                    zipf_dst: 0.4,
                },
            },
            _ => return None,
        })
    }

    /// Open-loop tenant count (0 for the closed loop).
    pub fn tenants(&self) -> usize {
        match self.load {
            Load::Closed { .. } => 0,
            Load::Tenants { tenants, .. } | Load::Kv { tenants, .. } => tenants,
        }
    }

    /// The KV directory of a KV workload.
    pub fn directory(&self) -> Option<KvDirectory> {
        match self.load {
            Load::Kv {
                keys,
                value_min,
                value_max,
                ..
            } => Some(
                KvDirectory::build(keys, self.nodes, self.segment, value_min, value_max)
                    .expect("kv values fit the segment"),
            ),
            _ => None,
        }
    }
}

/// Seed of replica `r` of a measurement seeded with `seed`.
pub fn sub_seed(seed: u64, r: u64) -> u64 {
    mix(seed ^ mix(r ^ 0x5B5E_ED00))
}

/// SLO class of tenant `t` of `total`: contiguous thirds.
pub fn tenant_class(t: usize, total: usize) -> SloClass {
    match t * 3 / total.max(1) {
        0 => SloClass::Gold,
        1 => SloClass::Silver,
        _ => SloClass::Bronze,
    }
}

pub fn class_weight(tiered: bool, class: SloClass) -> u32 {
    match (tiered, class) {
        (false, _) => 1,
        (true, SloClass::Gold) => 8,
        (true, SloClass::Silver) => 4,
        (true, SloClass::Bronze) => 1,
    }
}

/// What an operation does, as the verifier needs to know it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get(u64),
    Put(u64),
    Read,
    /// Write number `id` (see [`write_payload`]).
    Write(u64),
}

/// One generated operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub client: u32,
    /// Simulated time the operation was due, ps.
    pub due_ps: u64,
    pub dst: u16,
    pub offset: u64,
    pub len: u64,
    pub kind: OpKind,
}

impl Op {
    pub fn request(&self, seed: u64) -> RemoteRequest {
        let dst = NodeId(self.dst);
        match self.kind {
            OpKind::Get(_) | OpKind::Read => RemoteRequest::read(dst, self.offset, self.len),
            OpKind::Put(key) => {
                let mut value = vec![0u8; self.len as usize];
                kvdir::fill_value(key, &mut value);
                RemoteRequest::write(dst, self.offset, value)
            }
            OpKind::Write(id) => RemoteRequest::write(
                dst,
                self.offset,
                write_payload(seed, id, self.dst as usize, self.offset).to_vec(),
            ),
        }
    }
}

/// A client: one `(node, channel)` queue pair and its backlog.
#[derive(Debug)]
pub struct Client {
    pub node: u16,
    pub channel: u32,
    pub backlog: VecDeque<Op>,
    pub inflight: u32,
    rng: Rng,
    /// Bursty arrivals: position in the current burst.
    in_burst: u32,
    next_ps: f64,
    last_key: Option<u64>,
}

/// The seeded load generator of one episode.
#[derive(Debug)]
pub struct Generator {
    spec: Spec,
    pub clients: Vec<Client>,
    /// `(due, client)` of every client's next open-loop arrival.
    arrivals: BinaryHeap<Reverse<(u64, u32)>>,
    horizon_ps: u64,
    dir: Option<KvDirectory>,
    key_zipf: Option<Zipf>,
    addr_zipf: Option<Zipf>,
    dst_zipf: Option<Zipf>,
    pub writes: u64,
    pub offered: u64,
}

impl Client {
    fn new(seed: u64, index: usize, nodes: usize, t0_ps: u64) -> Self {
        Client {
            node: (index % nodes) as u16,
            channel: (index / nodes) as u32,
            backlog: VecDeque::new(),
            inflight: 0,
            rng: Rng::new(seed, index as u64),
            in_burst: 0,
            next_ps: t0_ps as f64,
            last_key: None,
        }
    }
}

impl Generator {
    /// A generator whose load starts at `t0_ps`. Client `i` posts from
    /// node `i % nodes` on channel `i / nodes`: one client per node in the
    /// closed loop, one per tenant in the open loop.
    pub fn new(spec: &Spec, seed: u64, dir: Option<KvDirectory>, t0_ps: u64) -> Self {
        let nodes = spec.nodes;
        let (clients, horizon_us) = match spec.load {
            Load::Closed { horizon_us, .. } => (nodes, horizon_us),
            Load::Tenants {
                tenants,
                horizon_us,
                ..
            }
            | Load::Kv {
                tenants,
                horizon_us,
                ..
            } => (tenants, horizon_us),
        };
        let (mut key_zipf, mut addr_zipf, mut dst_zipf) = (None, None, None);
        match spec.load {
            Load::Tenants {
                zipf_addr,
                zipf_dst,
                ..
            } => {
                addr_zipf = Some(Zipf::new((spec.segment / 64) as usize, zipf_addr));
                dst_zipf = Some(Zipf::new(nodes, zipf_dst));
            }
            Load::Kv { keys, zipf_key, .. } => key_zipf = Some(Zipf::new(keys as usize, zipf_key)),
            Load::Closed { .. } => {}
        }
        Generator {
            spec: spec.clone(),
            clients: (0..clients)
                .map(|c| Client::new(seed, c, nodes, t0_ps))
                .collect(),
            arrivals: BinaryHeap::new(),
            horizon_ps: t0_ps + horizon_us * PS_PER_US,
            dir,
            key_zipf,
            addr_zipf,
            dst_zipf,
            writes: 0,
            offered: 0,
        }
    }

    /// Gap to client `c`'s next arrival, ps.
    fn gap(arrival: Arrival, c: &mut Client) -> f64 {
        match arrival {
            Arrival::Poisson { rate } => -(1.0 - c.rng.unit()).ln() * 1e12 / rate,
            Arrival::Bursty { rate, burst } => {
                c.in_burst += 1;
                if c.in_burst < burst {
                    0.0
                } else {
                    c.in_burst = 0;
                    1e12 * burst as f64 / rate
                }
            }
        }
    }

    /// Starts the load at `t0_ps`: queues the closed loop's first window
    /// of operations, or schedules every tenant's first arrival.
    pub fn start(&mut self, t0_ps: u64, ready: &mut Ready) {
        let arrival = match self.spec.load {
            Load::Closed { window, .. } => {
                for c in 0..self.clients.len() as u32 {
                    for _ in 0..window {
                        self.on_complete(c, t0_ps, ready);
                    }
                }
                return;
            }
            Load::Tenants { arrival, .. } | Load::Kv { arrival, .. } => arrival,
        };
        for (t, c) in self.clients.iter_mut().enumerate() {
            if let Arrival::Bursty { rate, burst } = arrival {
                // Bursts are staggered over the period by a golden-ratio
                // sequence of the tenant id, so the arrival rate is even
                // and the seed only picks the operations.
                let phase = (t as f64 * 0.618_033_988_749_895).fract();
                c.next_ps += phase * 1e12 * burst as f64 / rate;
            } else {
                c.next_ps += Self::gap(arrival, c);
            }
            if (c.next_ps as u64) < self.horizon_ps {
                self.arrivals.push(Reverse((c.next_ps as u64, t as u32)));
            }
        }
    }

    /// End of the load window: no operation is due after it, ps.
    pub fn horizon_ps(&self) -> u64 {
        self.horizon_ps
    }

    /// The next open-loop arrival not yet materialized, ps.
    pub fn next_due(&self) -> Option<u64> {
        self.arrivals.peek().map(|Reverse((t, _))| *t)
    }

    /// Moves every arrival due at or before `now_ps` into its client's
    /// backlog; clients that gain a backlog are appended to `ready`.
    pub fn materialize(&mut self, now_ps: u64, ready: &mut Ready) {
        let arrival = match self.spec.load {
            Load::Tenants { arrival, .. } | Load::Kv { arrival, .. } => arrival,
            Load::Closed { .. } => return,
        };
        while let Some(&Reverse((due, c))) = self.arrivals.peek() {
            if due > now_ps {
                break;
            }
            self.arrivals.pop();
            let op = self.open_op(c, due);
            self.push(op, ready);
            let client = &mut self.clients[c as usize];
            client.next_ps += Self::gap(arrival, client);
            if (client.next_ps as u64) < self.horizon_ps {
                self.arrivals.push(Reverse((client.next_ps as u64, c)));
            }
        }
    }

    fn push(&mut self, op: Op, ready: &mut Ready) {
        self.offered += 1;
        let c = op.client;
        self.clients[c as usize].backlog.push_back(op);
        ready.insert(c);
    }

    fn open_op(&mut self, c: u32, due_ps: u64) -> Op {
        let nodes = self.spec.nodes;
        let client = &mut self.clients[c as usize];
        match self.spec.load {
            Load::Tenants { read_fraction, .. } => {
                let rank = self
                    .dst_zipf
                    .as_ref()
                    .expect("tenants")
                    .sample(&mut client.rng);
                let dst = if rank == client.node as usize {
                    (rank + 1) % nodes
                } else {
                    rank
                };
                let line = self
                    .addr_zipf
                    .as_ref()
                    .expect("tenants")
                    .sample(&mut client.rng);
                let kind = if client.rng.chance(read_fraction) {
                    OpKind::Read
                } else {
                    self.writes += 1;
                    OpKind::Write(self.writes - 1)
                };
                Op {
                    client: c,
                    due_ps,
                    dst: dst as u16,
                    offset: line as u64 * 64,
                    len: 64,
                    kind,
                }
            }
            Load::Kv {
                get_fraction,
                repeat_prob,
                ..
            } => {
                let is_get = client.rng.chance(get_fraction);
                let key = match client.last_key {
                    Some(k) if is_get && client.rng.chance(repeat_prob) => k,
                    _ => self.key_zipf.as_ref().expect("kv").sample(&mut client.rng) as u64,
                };
                client.last_key = Some(key);
                let p = self.dir.as_ref().expect("kv").lookup(key);
                Op {
                    client: c,
                    due_ps,
                    dst: p.node as u16,
                    offset: p.offset,
                    len: p.len,
                    kind: if is_get {
                        OpKind::Get(key)
                    } else {
                        OpKind::Put(key)
                    },
                }
            }
            Load::Closed { .. } => unreachable!("closed-loop ops come from closed_next"),
        }
    }

    /// Closed loop: queues client `c`'s next read, due now.
    fn closed_next(&mut self, c: u32, now_ps: u64) -> Option<Op> {
        let Load::Closed { op_bytes, .. } = self.spec.load else {
            return None;
        };
        let nodes = self.spec.nodes as u64;
        let client = &mut self.clients[c as usize];
        if now_ps >= self.horizon_ps {
            return None;
        }
        let peer = client.rng.below(nodes - 1);
        let dst = if peer >= client.node as u64 {
            peer + 1
        } else {
            peer
        };
        let slots = (self.spec.segment - op_bytes) / 64 + 1;
        let op = Op {
            client: c,
            due_ps: now_ps,
            dst: dst as u16,
            offset: client.rng.below(slots) * 64,
            len: op_bytes,
            kind: OpKind::Read,
        };
        self.offered += 1;
        client.backlog.push_back(op);
        Some(op)
    }

    /// A completion of client `c` observed at `now_ps`: the closed loop
    /// starts the client's next operation.
    pub fn on_complete(&mut self, c: u32, now_ps: u64, ready: &mut Ready) {
        if self.closed_next(c, now_ps).is_some() {
            ready.insert(c);
        }
    }
}

/// Clients with a non-empty backlog, in first-ready order (a
/// deterministic order, so the post sequence is a function of the seed).
#[derive(Debug, Default)]
pub struct Ready {
    pub list: Vec<u32>,
    listed: Vec<bool>,
}

impl Ready {
    pub fn new(clients: usize) -> Self {
        Ready {
            list: Vec::new(),
            listed: vec![false; clients],
        }
    }

    pub fn insert(&mut self, c: u32) {
        if !self.listed[c as usize] {
            self.listed[c as usize] = true;
            self.list.push(c);
        }
    }

    /// Keeps the clients for which `keep` holds.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let listed = &mut self.listed;
        self.list.retain(|&c| {
            let k = keep(c);
            listed[c as usize] = k;
            k
        });
    }
}
