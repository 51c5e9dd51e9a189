//! One episode: build the workload's machine, probe it, drive the load
//! through the public backend calls, check every result and read the
//! public counters.

use std::collections::HashMap;
use std::time::Instant;

use sonuma_apps::kvdir;
use sonuma_machine::{MachineConfig, PipelineStats, SonumaBackend};
use sonuma_protocol::{BackendError, NodeId, RemoteBackend, RemoteRequest, TenantId};
use sonuma_sim::SimTime;

use crate::calib::Gauge;
use crate::trace::{op_id, Name, Trace, NO_OP};
use crate::workload::{
    class_weight, fill_image, image_word, tenant_class, write_payload, Generator, Load, Op, OpKind,
    Ready, Spec, PS_PER_US,
};

/// Paper figure the probe is compared against: an idle 64 B remote read
/// between neighbours takes about 300 ns (Fig. 7a, Table 2).
pub const PAPER_RTT64_NS: f64 = 300.0;

/// Counts of the calls the benchmark made into the backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    pub post: u64,
    pub post_ok: u64,
    pub backpressure: u64,
    pub poll: u64,
    pub poll_empty: u64,
    pub advance: u64,
    pub clock: u64,
}

/// Everything one episode measured.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    // Host time, seconds, on the wall clock and on the process's CPU
    // clock (see `process_cpu_s`).
    pub drive_s: f64,
    pub setup_cpu_s: f64,
    pub drive_cpu_s: f64,
    /// Hop time of the host-speed gauge over the drive phase, ns (see
    /// `calib`); 0 when the episode ran without it.
    pub gauge_hop_ns: f64,
    /// The process's peak resident set at the end of the episode, MiB
    /// (the peak of a fresh process is that of its first episode).
    pub vm_hwm_mb: f64,
    // Simulated outcomes: a pure function of the workload and the seed.
    pub rtt64_ps: u64,
    /// Sorted latencies of the successful operations, ps.
    pub lat_ps: Vec<u64>,
    /// Sorted post lateness (post time minus due time), ps.
    pub late_ps: Vec<u64>,
    /// Length of the measured part of the load window, ps.
    pub window_ps: u64,
    /// Operations that completed successfully inside the load window.
    pub ok_in_window: u64,
    pub offered: u64,
    pub completed: u64,
    pub ok: u64,
    // Failures.
    pub status_errors: u64,
    pub corrupt: u64,
    pub unknown_completions: u64,
    pub never_completed: u64,
    pub refused: u64,
    pub probe_failed: bool,
    // Public counters, deltas over the drive.
    pub calls: Calls,
    pub events: u64,
    pub epochs: u64,
    pub shard_events: Vec<u64>,
    pub spec_committed: u64,
    pub spec_rolled_back: u64,
    pub pair_bound_violations: u64,
    pub pipeline: PipelineStats,
    pub itt_in_flight: u64,
    pub packets: u64,
    pub link_packets: u64,
    pub credit_stalls: u64,
    pub resident_bytes: u64,
    pub gets: u64,
    pub get_lines: u64,
}

impl Episode {
    /// Every failure the checks found; each counts against the op total.
    pub fn failed(&self) -> u64 {
        self.status_errors
            + self.corrupt
            + self.unknown_completions
            + self.never_completed
            + self.refused
            + self.pair_bound_violations
            + self.itt_in_flight
            + u64::from(self.probe_failed)
    }

    /// Pools the episodes of one measurement: counts and host times add
    /// up, samples are merged.
    pub fn pooled(eps: &[Episode]) -> Episode {
        let mut p = eps[0].clone();
        for e in &eps[1..] {
            p.drive_s += e.drive_s;
            p.setup_cpu_s += e.setup_cpu_s;
            p.drive_cpu_s += e.drive_cpu_s;
            p.lat_ps.extend_from_slice(&e.lat_ps);
            p.late_ps.extend_from_slice(&e.late_ps);
            p.window_ps += e.window_ps;
            p.ok_in_window += e.ok_in_window;
            p.offered += e.offered;
            p.completed += e.completed;
            p.ok += e.ok;
            p.status_errors += e.status_errors;
            p.corrupt += e.corrupt;
            p.unknown_completions += e.unknown_completions;
            p.never_completed += e.never_completed;
            p.refused += e.refused;
            p.probe_failed |= e.probe_failed;
            let (c, d) = (&mut p.calls, &e.calls);
            c.post += d.post;
            c.post_ok += d.post_ok;
            c.backpressure += d.backpressure;
            c.poll += d.poll;
            c.poll_empty += d.poll_empty;
            c.advance += d.advance;
            c.clock += d.clock;
            p.events += e.events;
            p.epochs += e.epochs;
            for (a, b) in p.shard_events.iter_mut().zip(&e.shard_events) {
                *a += b;
            }
            p.spec_committed += e.spec_committed;
            p.spec_rolled_back += e.spec_rolled_back;
            p.pair_bound_violations += e.pair_bound_violations;
            p.pipeline.merge_from(&e.pipeline);
            p.itt_in_flight += e.itt_in_flight;
            p.packets += e.packets;
            p.link_packets += e.link_packets;
            p.credit_stalls += e.credit_stalls;
            p.resident_bytes = p.resident_bytes.max(e.resident_bytes);
            p.gets += e.gets;
            p.get_lines += e.get_lines;
        }
        p.lat_ps.sort_unstable();
        p.late_ps.sort_unstable();
        p
    }

    /// Exact nearest-rank percentile of the latencies, ps.
    pub fn lat_pct(&self, p: f64) -> u64 {
        pct(&self.lat_ps, p)
    }

    pub fn late_pct(&self, p: f64) -> u64 {
        pct(&self.late_ps, p)
    }

    /// Operations completed inside the load window per simulated second
    /// of the window, in millions.
    pub fn sim_mops(&self) -> f64 {
        self.ok_in_window as f64 / (self.window_ps.max(1) as f64 / PS_PER_US as f64)
    }

    pub fn rtt64_err_pct(&self) -> f64 {
        let ns = self.rtt64_ps as f64 / 1000.0;
        (ns - PAPER_RTT64_NS).abs() / PAPER_RTT64_NS * 100.0
    }

    /// The simulated outcomes and deterministic counters, by name. Two
    /// runs of one workload and seed must agree on all of them, at any
    /// thread count and speculation depth. (Epoch counts are left out:
    /// with speculation they depend on host timing.)
    pub fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        let p = &self.pipeline;
        vec![
            ("rtt64_ps", self.rtt64_ps),
            ("lat_p50_ps", self.lat_pct(0.50)),
            ("lat_p99_ps", self.lat_pct(0.99)),
            ("lat_samples", self.lat_ps.len() as u64),
            ("lat_sum_ps", self.lat_ps.iter().sum()),
            ("late_p50_ps", self.late_pct(0.50)),
            ("late_p99_ps", self.late_pct(0.99)),
            ("ok_in_window", self.ok_in_window),
            ("offered", self.offered),
            ("completed", self.completed),
            ("failed", self.failed()),
            ("post_calls", self.calls.post),
            ("post_backpressure", self.calls.backpressure),
            ("poll_calls", self.calls.poll),
            ("poll_empty", self.calls.poll_empty),
            ("advance_calls", self.calls.advance),
            ("clock_calls", self.calls.clock),
            ("events", self.events),
            ("packets", self.packets),
            ("link_packets", self.link_packets),
            ("credit_stalls", self.credit_stalls),
            ("rgp_requests", p.rgp_requests),
            ("rgp_lines", p.rgp_lines),
            ("rgp_wq_polls", p.rgp_wq_polls),
            ("rgp_empty_polls", p.rgp_empty_polls),
            ("rgp_itt_stalls", p.rgp_itt_stalls),
            ("rgp_sched_skips", p.rgp_sched_skips),
            ("api_wq_full", p.api_wq_full),
            ("rrpp_served", p.rrpp_served),
            ("rrpp_ct_misses", p.rrpp_ct_misses),
            ("rcp_completions", p.rcp_completions),
            ("get_lines", self.get_lines),
        ]
    }
}

fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Field-wise `a - b` of the pipeline counters the benchmark reads.
fn stats_delta(a: &PipelineStats, b: &PipelineStats) -> PipelineStats {
    PipelineStats {
        rgp_requests: a.rgp_requests - b.rgp_requests,
        rgp_lines: a.rgp_lines - b.rgp_lines,
        rgp_wq_polls: a.rgp_wq_polls - b.rgp_wq_polls,
        rgp_empty_polls: a.rgp_empty_polls - b.rgp_empty_polls,
        rgp_itt_stalls: a.rgp_itt_stalls - b.rgp_itt_stalls,
        rgp_sched_skips: a.rgp_sched_skips - b.rgp_sched_skips,
        api_wq_full: a.api_wq_full - b.api_wq_full,
        rrpp_served: a.rrpp_served - b.rrpp_served,
        rrpp_ct_misses: a.rrpp_ct_misses - b.rrpp_ct_misses,
        rcp_completions: a.rcp_completions - b.rcp_completions,
        rgp_retransmits: a.rgp_retransmits - b.rgp_retransmits,
        ..PipelineStats::default()
    }
}

/// `(packets injected, link traversals, credit stalls)` so far.
fn fabric_counters(b: &SonumaBackend) -> (u64, u64, u64) {
    let f = b.fabric();
    let mut traversals = 0;
    f.visit_links(|_, _, _, _, packets, _| traversals += packets);
    (f.packets_sent(), traversals, f.credit_stalls())
}

/// Whether `data`, read from `(node, offset)`, is made of lines that each
/// hold either the seeded segment image or a payload some earlier write
/// put there.
fn verify_lines(seed: u64, writes: u64, node: usize, offset: u64, data: &[u8]) -> bool {
    data.chunks(64).enumerate().all(|(i, line)| {
        let off = offset + 64 * i as u64;
        let image = line
            .chunks_exact(8)
            .enumerate()
            .all(|(w, b)| b == image_word(seed, node, off / 8 + w as u64).to_le_bytes());
        image || {
            let id = u64::from_le_bytes(line[..8].try_into().expect("8-byte word"));
            id < writes && line == write_payload(seed, id, node, off)
        }
    })
}

/// Checks the data a successful operation returned (writes return none),
/// inside a `verify` span carrying operation id `id`.
fn verify<T: Trace>(op: &Op, data: &[u8], seed: u64, writes: u64, tr: &mut T, id: u64) -> bool {
    let key = match op.kind {
        OpKind::Put(_) | OpKind::Write(_) => return true,
        OpKind::Get(key) => Some(key),
        OpKind::Read => None,
    };
    let check = tr.open(Name::Verify);
    let ok = data.len() as u64 == op.len
        && match key {
            Some(key) => kvdir::verify_value(key, data),
            None => verify_lines(seed, writes, op.dst as usize, op.offset, data),
        };
    tr.close(check, id);
    ok
}

/// CPU time this process has used so far, over all its threads, s.
/// On a virtual machine whose kernel accounts steal time, time the
/// hypervisor gave to other guests is not counted, and neither is time
/// spent waiting for a CPU behind other processes. On one thread and an
/// idle host it equals wall time.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// VmHWM of this process, MiB.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One idle 64 B read from node 0 of line `offset` on node 1: `(round
/// trip ps, whether it completed with the bytes node 1 holds)`.
fn probe(b: &mut SonumaBackend, offset: u64) -> (u64, bool) {
    let mut expect = [0u8; 64];
    b.read_ctx(NodeId(1), offset, &mut expect);
    let start = b.now();
    let Ok(token) = b.post_on(NodeId(0), 0, RemoteRequest::read(NodeId(1), offset, 64)) else {
        return (0, false);
    };
    let mut ok = false;
    loop {
        let more = b.advance();
        if let Some(c) = b.poll(NodeId(0)).first() {
            ok = c.token == token && c.status.is_ok() && c.data == expect;
            break;
        }
        if !more {
            break;
        }
    }
    (b.now().saturating_sub(start).as_ps(), ok)
}

/// Builds the machine, times the set-up steps, probes the idle
/// round trip, drives the load to drain and reads back the counters.
/// With `gauged`, the host-speed gauge runs interleaved with the drive
/// phase, and its time is taken out of the drive times.
pub fn run_episode<T: Trace>(
    spec: &Spec,
    seed: u64,
    threads: usize,
    speculate: u32,
    gauged: bool,
    tr: &mut T,
) -> Episode {
    let mut ep = Episode::default();
    let setup_cpu0 = process_cpu_s();
    let setup = tr.open(Name::Setup);

    let span = tr.open(Name::SetupConstruct);
    let mut config = MachineConfig::simulated_hardware(spec.nodes);
    config.fabric = spec.topo.config(spec.nodes);
    config.sched_policy = spec.sched;
    let mut b = SonumaBackend::with_threads(config, spec.segment, threads);
    b.set_speculation(speculate);
    let tenants = spec.tenants();
    for t in 0..tenants {
        let class = tenant_class(t, tenants);
        b.register_tenant_channel(
            NodeId((t % spec.nodes) as u16),
            (t / spec.nodes) as u32,
            TenantId(t as u32),
            class_weight(spec.tiered, class),
            class,
        );
    }
    tr.close(span, NO_OP);

    let span = tr.open(Name::SetupKvdir);
    let dir = spec.directory();
    tr.close(span, NO_OP);

    let span = tr.open(Name::SetupPopulate);
    match &dir {
        Some(dir) => {
            let mut value = Vec::new();
            for key in 0..dir.keys() {
                let p = dir.lookup(key);
                value.resize(p.len as usize, 0);
                kvdir::fill_value(key, &mut value);
                b.write_ctx(NodeId(p.node as u16), p.offset, &value);
            }
        }
        None => {
            let mut image = vec![0u8; spec.segment as usize];
            for n in 0..spec.nodes {
                fill_image(seed, n, 0, &mut image);
                b.write_ctx(NodeId(n as u16), 0, &image);
            }
        }
    }
    tr.close(span, NO_OP);
    tr.close(setup, NO_OP);
    ep.setup_cpu_s = process_cpu_s() - setup_cpu0;

    // Idle round trip of one 64 B read to a neighbour, before any load.
    // The first read warms the translation and context caches; the
    // second, timed one reads the next line of the same page, which no
    // cache holds yet.
    let span = tr.open(Name::Probe);
    let topo = &b.fabric().config().topology;
    assert_eq!(
        topo.distance(NodeId(0), NodeId(1)),
        1,
        "probe pair must be adjacent"
    );
    let (_, warm_ok) = probe(&mut b, 0);
    let (rtt, ok) = probe(&mut b, 64);
    ep.rtt64_ps = rtt;
    ep.probe_failed = !(warm_ok && ok);
    tr.close(span, NO_OP);

    // The load starts on the next whole microsecond.
    let t0 = (b.now().as_ps() / PS_PER_US + 1) * PS_PER_US;
    b.advance_clock_to(SimTime::from_ps(t0));
    let events0 = b.events_processed();
    let epochs0 = b.epochs();
    let spec0 = b.speculation();
    let stats0 = b.total_pipeline_stats();
    let fabric0 = fabric_counters(&b);

    let mut gen = Generator::new(spec, seed, dir, t0);
    let mut ready = Ready::new(gen.clients.len());
    let mut active = Ready::new(spec.nodes);
    // Per posting node: token -> the operation it carries.
    let mut pending: Vec<HashMap<u64, Op>> = (0..spec.nodes).map(|_| HashMap::new()).collect();
    let mut inflight = 0u64;
    let open_loop = !matches!(spec.load, Load::Closed { .. });
    gen.start(t0, &mut ready);
    let horizon = gen.horizon_ps();
    let measured = t0 + spec.warmup_us * PS_PER_US;

    let mut gauge = gauged.then(Gauge::new);
    let drive_start = Instant::now();
    let drive_cpu0 = process_cpu_s();
    let drive = tr.open(Name::Drive);
    loop {
        if let Some(g) = &mut gauge {
            g.tick();
        }
        let now_ps = b.now().as_ps();
        if open_loop {
            let span = tr.open(Name::GenArrivals);
            gen.materialize(now_ps, &mut ready);
            tr.close(span, NO_OP);
        }

        let span = tr.open(Name::GenPost);
        let mut posted = false;
        ready.retain(|c| {
            let cl = &mut gen.clients[c as usize];
            while let Some(&op) = cl.backlog.front() {
                let req = op.request(seed);
                let call = tr.open(Name::Post);
                let result = b.post_on(NodeId(cl.node), cl.channel, req);
                ep.calls.post += 1;
                match result {
                    Ok(token) => {
                        tr.close(call, op_id(cl.node, token));
                        ep.calls.post_ok += 1;
                        ep.late_ps.push(now_ps - op.due_ps);
                        pending[cl.node as usize].insert(token, op);
                        active.insert(cl.node as u32);
                        cl.inflight += 1;
                        inflight += 1;
                        posted = true;
                        cl.backlog.pop_front();
                    }
                    // A full queue drains as this client's own operations
                    // complete; with none in flight it never will, so the
                    // post is refused for good.
                    Err(BackendError::Backpressure) if cl.inflight > 0 => {
                        tr.close(call, NO_OP);
                        ep.calls.backpressure += 1;
                        break;
                    }
                    Err(_) => {
                        tr.close(call, NO_OP);
                        ep.refused += 1;
                        cl.backlog.pop_front();
                    }
                }
            }
            !cl.backlog.is_empty()
        });
        tr.close(span, NO_OP);

        let span = tr.open(Name::Advance);
        let more = b.advance();
        tr.close(span, NO_OP);
        ep.calls.advance += 1;

        let now_ps = b.now().as_ps();
        let span = tr.open(Name::GenHarvest);
        let mut harvested = false;
        active.retain(|n| {
            let node = n as u16;
            let call = tr.open(Name::Poll);
            let done = b.poll(NodeId(node));
            tr.close(call, done.first().map_or(NO_OP, |c| op_id(node, c.token)));
            ep.calls.poll += 1;
            if done.is_empty() {
                ep.calls.poll_empty += 1;
            }
            for c in done {
                let Some(op) = pending[n as usize].remove(&c.token) else {
                    ep.unknown_completions += 1;
                    continue;
                };
                harvested = true;
                inflight -= 1;
                ep.completed += 1;
                gen.clients[op.client as usize].inflight -= 1;
                if let OpKind::Get(_) = op.kind {
                    ep.gets += 1;
                    ep.get_lines += op.len.div_ceil(64);
                }
                if !c.status.is_ok() {
                    ep.status_errors += 1;
                } else if verify(&op, &c.data, seed, gen.writes, tr, op_id(node, c.token)) {
                    ep.ok += 1;
                    ep.ok_in_window += u64::from(now_ps > measured && now_ps <= horizon);
                    if op.due_ps >= measured {
                        ep.lat_ps.push(now_ps - op.due_ps);
                    }
                } else {
                    ep.corrupt += 1;
                }
                gen.on_complete(op.client, now_ps, &mut ready);
            }
            !pending[n as usize].is_empty()
        });
        tr.close(span, NO_OP);

        if !more {
            if inflight > 0 {
                if !posted && !harvested {
                    // The engine is idle yet operations are outstanding:
                    // they will never complete.
                    ep.never_completed = inflight;
                    break;
                }
            } else if ready.list.is_empty() {
                match gen.next_due() {
                    Some(t) => {
                        let span = tr.open(Name::Clock);
                        b.advance_clock_to(SimTime::from_ps(t));
                        tr.close(span, NO_OP);
                        ep.calls.clock += 1;
                    }
                    None => break,
                }
            }
        }
    }
    tr.close(drive, NO_OP);
    ep.drive_s = drive_start.elapsed().as_secs_f64();
    ep.drive_cpu_s = process_cpu_s() - drive_cpu0;
    if let Some(g) = &mut gauge {
        ep.drive_s -= g.spent_s;
        ep.drive_cpu_s -= g.spent_s;
        ep.gauge_hop_ns = g.hop_ns();
    }

    ep.offered = gen.offered;
    ep.window_ps = horizon - measured;
    ep.lat_ps.sort_unstable();
    ep.late_ps.sort_unstable();
    ep.events = b.events_processed() - events0;
    ep.epochs = b.epochs() - epochs0;
    ep.shard_events = b.shard_events();
    let (committed, rolled_back) = b.speculation();
    ep.spec_committed = committed - spec0.0;
    ep.spec_rolled_back = rolled_back - spec0.1;
    ep.pair_bound_violations = b.pair_bound_violations();
    let stats = b.total_pipeline_stats();
    ep.itt_in_flight = stats.itt_in_flight;
    ep.pipeline = stats_delta(&stats, &stats0);
    let fabric = fabric_counters(&b);
    ep.packets = fabric.0 - fabric0.0;
    ep.link_packets = fabric.1 - fabric0.1;
    ep.credit_stalls = fabric.2 - fabric0.2;
    ep.resident_bytes = b.resident_bytes();
    ep.vm_hwm_mb = vm_hwm_mb();
    ep
}
