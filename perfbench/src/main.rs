//! `perfbench`: the repository benchmark, a seeded single-process client of
//! the soNUMA simulator.
//!
//! ```text
//! perfbench --workload <kv-zipf|torus-scan|tenants-mixed|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --self-test [--seed <n>]
//! ```
//!
//! One *episode* builds the workload's machine, probes it, drives a seeded
//! load to drain and checks every result. One *pass* runs a fixed number
//! of episodes, each on its own sub-seed of `--seed`; the simulated
//! metrics combine the episodes of the first pass, so they are a pure
//! function of `--seed`. A run repeats passes until `--seconds`
//! have gone by (at least one); every repeat must reproduce the first pass
//! exactly, and host-time metrics are medians over all the episodes,
//! timed on the process CPU clock and scaled by a host-speed gauge run
//! alongside (see `calib`).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` the per-layer
//! ones, from an untraced and a traced pass. The last line of standard
//! output is a JSON summary. `perfbench/README.md` describes the workloads
//! and metrics.

mod calib;
mod drive;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::{slowdown, RATE_SENSITIVITY, REF_HOP_NS, SETUP_SENSITIVITY};
use drive::{run_episode, Episode, PAPER_RTT64_NS};
use trace::{layer_table, Name, NoTrace, Recorder, Trace};
use workload::{sub_seed, Spec, WORKLOADS};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of development, for confirming claims.
const HELDOUT_SEED: u64 = 20_140_301;
/// Host threads (engine shards) and speculation depth of every workload.
/// One thread: on a host of two shared vCPUs a second shard gave
/// `kv-zipf` no speed, and its barrier waits doubled its exposure to
/// other guests. The self-test checks `SHARDED` against it.
const THREADS: (usize, u32) = (1, 0);
/// The sharded speculative configuration the self-test compares with.
const SHARDED: (usize, u32) = (2, 2);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad value {value:?} for --seconds"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
                 | --self-test [--seed N]\n\
                 default seed {DEFAULT_SEED}, held-out seed {HELDOUT_SEED}",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(args.seed);
    }
    if args.workload == "all" {
        return run_all();
    }
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "workload {} seed {} | soNUMA backend, {} nodes {}, {} threads, speculation {}",
        spec.name,
        args.seed,
        spec.nodes,
        spec.topo.label(),
        THREADS.0,
        THREADS.1
    );
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        traced_run(&spec, args.seed, budget)
    } else {
        untraced_run(&spec, args.seed, budget)
    }
}

/// Runs every workload in its own child process, one after the other.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a);
        }
    }
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(w)
            .args(&rest)
            .status()
            .expect("spawn workload");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `p`-quantile of sim latency, us: the median over the episodes of
/// a pass of each episode's exact percentile. One episode that falls into
/// a long congestion spell moves it less than it would move the
/// percentile of the pooled samples.
fn sim_pct(pass: &[Episode], p: f64) -> f64 {
    median(pass.iter().map(|e| e.lat_pct(p) as f64 / 1e6).collect())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer metrics of one traced pass: set-up times per episode, every
/// other figure over the whole pass (`e` pooled over its episodes).
fn layer_metrics(
    e: &Episode,
    rec: &Recorder,
    episodes: u64,
) -> BTreeMap<&'static str, (f64, &'static str)> {
    let (table, unattributed) = layer_table(&rec.spans);
    let episodes = episodes as f64;
    let row = |n: Name| table[n as usize];
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let p = &e.pipeline;
    let drive_s = row(Name::Drive).total_s;
    let advance = row(Name::Advance);
    let post = row(Name::Post);
    let poll = row(Name::Poll);
    let clock = row(Name::Clock);
    let gen_self =
        row(Name::GenArrivals).self_s + row(Name::GenPost).self_s + row(Name::GenHarvest).self_s;
    let shards = e.shard_events.len().max(1) as f64;
    let mean_shard = e.shard_events.iter().sum::<u64>() as f64 / shards;
    let max_shard = e.shard_events.iter().copied().max().unwrap_or(0) as f64;
    let (committed, rolled) = (e.spec_committed as f64, e.spec_rolled_back as f64);
    let is_kv = e.gets > 0;
    let ok = e.ok as f64;
    let rows: Vec<(&'static str, f64, &'static str)> = vec![
        (
            "setup.construct_s",
            row(Name::SetupConstruct).total_s / episodes,
            "s",
        ),
        (
            "setup.populate_s",
            row(Name::SetupPopulate).total_s / episodes,
            "s",
        ),
        (
            "setup.kvdir_s",
            row(Name::SetupKvdir).total_s / episodes,
            "s",
        ),
        (
            "machine.resident_mb",
            e.resident_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        ("gen.self_s", gen_self, "s"),
        ("gen.offered_ops", e.offered as f64, "count"),
        ("gen.completed_ops", e.completed as f64, "count"),
        ("gen.post_late_p50_us", e.late_pct(0.50) as f64 / 1e6, "us"),
        ("gen.post_late_p99_us", e.late_pct(0.99) as f64 / 1e6, "us"),
        ("backend.post.calls", post.calls as f64, "count"),
        ("backend.post.self_s", post.self_s, "s"),
        (
            "backend.post.ns_per_call",
            ratio(post.self_s * 1e9, post.calls as f64),
            "ns",
        ),
        (
            "backend.post.backpressure",
            e.calls.backpressure as f64,
            "count",
        ),
        (
            "backend.post.accept_ratio",
            ratio(e.calls.post_ok as f64, e.calls.post as f64),
            "ratio",
        ),
        ("backend.poll.calls", poll.calls as f64, "count"),
        ("backend.poll.self_s", poll.self_s, "s"),
        (
            "backend.poll.ns_per_call",
            ratio(poll.self_s * 1e9, poll.calls as f64),
            "ns",
        ),
        (
            "backend.poll.empty_ratio",
            ratio(e.calls.poll_empty as f64, e.calls.poll as f64),
            "ratio",
        ),
        ("backend.clock.calls", clock.calls as f64, "count"),
        ("backend.clock.self_s", clock.self_s, "s"),
        ("backend.advance.calls", advance.calls as f64, "count"),
        ("backend.advance.self_s", advance.self_s, "s"),
        (
            "backend.advance.share",
            ratio(advance.self_s, drive_s),
            "ratio",
        ),
        (
            "backend.advance.events_per_call",
            ratio(e.events as f64, advance.calls as f64),
            "count",
        ),
        ("sim.events", e.events as f64, "count"),
        ("sim.events_per_op", ratio(e.events as f64, ok), "count"),
        (
            "sim.ns_per_event",
            ratio(advance.self_s * 1e9, e.events as f64),
            "ns",
        ),
        ("shard.epochs", e.epochs as f64, "count"),
        (
            "shard.events_per_epoch",
            ratio(e.events as f64, e.epochs as f64),
            "count",
        ),
        ("shard.imbalance", ratio(max_shard, mean_shard), "ratio"),
        ("shard.spec_committed", committed, "count"),
        ("shard.spec_rolled_back", rolled, "count"),
        (
            "shard.spec_commit_ratio",
            ratio(committed, committed + rolled),
            "ratio",
        ),
        (
            "shard.pair_bound_violations",
            e.pair_bound_violations as f64,
            "count",
        ),
        (
            "rgp.lines_per_request",
            ratio(p.rgp_lines as f64, p.rgp_requests as f64),
            "count",
        ),
        (
            "rgp.empty_poll_ratio",
            ratio(p.rgp_empty_polls as f64, p.rgp_wq_polls as f64),
            "ratio",
        ),
        ("rgp.itt_stalls", p.rgp_itt_stalls as f64, "count"),
        ("rgp.sched_skips", p.rgp_sched_skips as f64, "count"),
        ("api.wq_full", p.api_wq_full as f64, "count"),
        (
            "rrpp.ct_miss_ratio",
            ratio(p.rrpp_ct_misses as f64, p.rrpp_served as f64),
            "ratio",
        ),
        ("rgp.retransmits", p.rgp_retransmits as f64, "count"),
        (
            "fabric.packets_per_op",
            ratio(e.packets as f64, ok),
            "count",
        ),
        (
            "fabric.hops_per_packet",
            ratio(e.link_packets as f64, e.packets as f64),
            "count",
        ),
        (
            "fabric.credit_stalls_per_packet",
            ratio(e.credit_stalls as f64, e.packets as f64),
            "ratio",
        ),
        (
            "fabric.ns_per_packet",
            ratio(advance.self_s * 1e9, e.packets as f64),
            "ns",
        ),
        (
            "kv.get_lines_per_op",
            ratio(e.get_lines as f64, e.gets as f64),
            "count",
        ),
        (
            "kv.verify_s",
            if is_kv { row(Name::Verify).self_s } else { 0.0 },
            "s",
        ),
        (
            "kv.corrupt",
            if is_kv { e.corrupt as f64 } else { 0.0 },
            "count",
        ),
        ("verify.self_s", row(Name::Verify).self_s, "s"),
        ("trace.unattributed_s", unattributed, "s"),
    ];
    rows.into_iter().map(|(n, v, u)| (n, (v, u))).collect()
}

/// One episode of `spec` at `THREADS`, with the host-speed gauge if
/// `gauged`.
fn episode<T: Trace>(spec: &Spec, seed: u64, gauged: bool, tr: &mut T) -> Episode {
    run_episode(spec, seed, THREADS.0, THREADS.1, gauged, tr)
}

/// Runs the correctness checks on the passes of one run and prints each
/// verdict. Every pass must reproduce the first one's simulated outcomes
/// episode by episode. Returns whether all checks passed.
fn check(passes: &[Vec<Episode>]) -> bool {
    let mut same = true;
    for p in &passes[1..] {
        for (r, (a, b)) in passes[0].iter().zip(p).enumerate() {
            for (x, y) in a.fingerprint().iter().zip(b.fingerprint()) {
                if *x != y {
                    println!("replica {r} did not reproduce: {} {} vs {}", x.0, x.1, y.1);
                    same = false;
                }
            }
        }
    }
    let e = Episode::pooled(&passes[0]);
    let checks = [
        (
            "every post completed exactly once",
            e.unknown_completions == 0 && e.never_completed == 0,
        ),
        ("nothing in flight at drain", e.itt_in_flight == 0),
        ("no post refused for good", e.refused == 0),
        ("no error status", e.status_errors == 0),
        ("every read verified", e.corrupt == 0),
        ("pair_bound_violations == 0", e.pair_bound_violations == 0),
        ("idle probe completed and verified", !e.probe_failed),
        ("completions == offered", e.completed == e.offered),
        (
            "at least 1000 latency samples per episode",
            passes[0].iter().all(|e| e.lat_ps.len() >= 1000),
        ),
        ("passes reproduce each other exactly", same),
    ];
    let mut ok = true;
    for (what, pass) in checks {
        println!("check {:<40} {}", what, if pass { "ok" } else { "FAILED" });
        ok &= pass;
    }
    ok
}

/// `(name, value, unit)` rows, printed one per line and as the summary.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn print_summary(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> ExitCode {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn untraced_run(spec: &Spec, seed: u64, budget: Duration) -> ExitCode {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        let pass = (0..spec.replicas).map(|r| episode(spec, sub_seed(seed, r), true, &mut NoTrace));
        passes.push(pass.collect::<Vec<_>>());
    }
    let correct = check(&passes);
    let e = Episode::pooled(&passes[0]);
    let (attempted, failed) = (e.offered.max(1), e.failed());
    // The run's first episode warms the process (first touch of its
    // memory, allocator growth) and runs slower; host rates leave it out.
    let warm = usize::from(passes.len() * passes[0].len() > 1);
    let episodes: Vec<&Episode> = passes.iter().flatten().skip(warm).collect();
    let rates = |drive_s: fn(&Episode) -> f64| -> Vec<f64> {
        episodes.iter().map(|e| e.ok as f64 / drive_s(e)).collect()
    };
    let cpu_rates = rates(|e| e.drive_cpu_s);
    let hops: Vec<f64> = episodes.iter().map(|e| e.gauge_hop_ns).collect();
    let show = |v: &[f64], digits: usize| {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.digits$}")).collect();
        v.join(" ")
    };
    println!(
        "host ops/s per episode after the first, CPU clock: {}",
        show(&cpu_rates, 0)
    );
    println!(
        "gauge hop ns per episode (rates times (hop / {REF_HOP_NS} ns)^{RATE_SENSITIVITY}, \
         set-up times over (hop / {REF_HOP_NS} ns)^{SETUP_SENSITIVITY}): {}",
        show(&hops, 2)
    );
    println!(
        "unscaled medians (not gated): {:.1} ops/s CPU clock, {:.1} ops/s wall clock, \
         set-up {:.6} s CPU clock",
        median(cpu_rates.clone()),
        median(rates(|e| e.drive_s)),
        median(passes.iter().flatten().map(|e| e.setup_cpu_s).collect())
    );
    let scaled = cpu_rates
        .iter()
        .zip(&hops)
        .map(|(r, &h)| r * slowdown(h, RATE_SENSITIVITY))
        .collect();
    let metrics: Metrics = vec![
        ("host_ops_per_s", median(scaled), "ops/s"),
        (
            "setup_s",
            median(
                passes
                    .iter()
                    .flatten()
                    .map(|e| e.setup_cpu_s / slowdown(e.gauge_hop_ns, SETUP_SENSITIVITY))
                    .collect(),
            ),
            "s",
        ),
        ("peak_rss_mb", passes[0][0].vm_hwm_mb, "MiB"),
        ("sim_p50_us", sim_pct(&passes[0], 0.50), "us"),
        ("sim_p99_us", sim_pct(&passes[0], 0.99), "us"),
        ("sim_mops", e.sim_mops(), "Mops/s"),
        ("rtt64_err_pct", e.rtt64_err_pct(), "%"),
    ];
    println!(
        "passes {} of {} episodes (host metrics: medians over episodes, on the process CPU \
         clock and scaled by the host-speed gauge; sim metrics: first pass)",
        passes.len(),
        spec.replicas
    );
    for (name, value, unit) in &metrics {
        println!("{name:<16} {value:>14.6} {unit}");
    }
    println!(
        "{:<16} {:>14.6} fraction ({failed} of {attempted} ops; the summary's failed/attempted)",
        "error_rate",
        failed as f64 / attempted as f64
    );
    let samples: Vec<String> = passes[0]
        .iter()
        .map(|e| e.lat_ps.len().to_string())
        .collect();
    println!(
        "latency samples  {} exact per episode (sim_p50_us/sim_p99_us: median over episodes); \
         simulated time, open loop from due time, closed loop from post, to completion as \
         observed at poll granularity",
        samples.join(" ")
    );
    println!(
        "idle 64 B neighbour read {:.1} ns vs the paper's ~{PAPER_RTT64_NS} ns; \
         beyond such point values the model is unvalidated",
        e.rtt64_ps as f64 / 1000.0
    );
    print_summary(correct && failed == 0, attempted, failed, &metrics)
}

fn traced_run(spec: &Spec, seed: u64, budget: Duration) -> ExitCode {
    let start = Instant::now();
    let (mut plain, mut traced, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while traced.is_empty() || start.elapsed() < budget {
        // Each sub-seed runs untraced and traced back to back, in
        // alternating order, so neither side always gets the cold start.
        let mut rec = Recorder::new();
        let (mut u, mut p) = (Vec::new(), Vec::new());
        for r in 0..spec.replicas {
            let seed = sub_seed(seed, r);
            if r % 2 == 0 {
                u.push(episode(spec, seed, false, &mut NoTrace));
            }
            p.push(episode(spec, seed, false, &mut rec));
            if r % 2 == 1 {
                u.push(episode(spec, seed, false, &mut NoTrace));
            }
        }
        let overhead = Episode::pooled(&p).drive_s - Episode::pooled(&u).drive_s;
        plain.push(u);
        let mut m = layer_metrics(&Episode::pooled(&p), &rec, spec.replicas);
        m.insert("trace.overhead_s", (overhead, "s"));
        layers.push(m);
        traced.push(p);
        last = Some(rec);
    }
    let rec = last.expect("at least one traced pass");
    let mut all = plain.clone();
    all.extend(traced.iter().cloned());
    let correct = check(&all);

    let metrics: Metrics = layers[0]
        .iter()
        .map(|(&name, &(_, unit))| {
            (
                name,
                median(layers.iter().map(|m| m[name].0).collect()),
                unit,
            )
        })
        .collect();

    let (table, unattributed) = layer_table(&rec.spans);
    let drive_s = table[Name::Drive as usize].total_s;
    println!(
        "per-layer table of the last traced pass ({} spans; drive {drive_s:.4} s)",
        rec.spans.len()
    );
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "span", "calls", "total_s", "self_s", "ns/call", "drive%"
    );
    for (i, row) in table.iter().enumerate() {
        if row.calls > 0 {
            println!(
                "{:<18} {:>10} {:>12.6} {:>12.6} {:>10.1} {:>7.2}%",
                trace::LABELS[i],
                row.calls,
                row.total_s,
                row.self_s,
                row.total_s * 1e9 / row.calls as f64,
                row.self_s / drive_s.max(1e-12) * 100.0
            );
        }
    }
    println!(
        "{:<18} {:>10} {:>12} {:>12.6}",
        "(unattributed)", "", "", unattributed
    );
    println!(
        "passes {} untraced + {} traced; metrics are medians over traced passes; \
         trace.overhead_s = traced minus untraced drive time of a pass",
        plain.len(),
        traced.len()
    );
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let dump = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("spans")))
        .map(|d| d.join(format!("{}.tsv", spec.name)));
    if let Some(path) = dump {
        match rec.dump(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(err) => println!("span dump failed: {err}"),
        }
    }
    let e = Episode::pooled(&traced[0]);
    let failed = e.failed();
    print_summary(correct && failed == 0, e.offered.max(1), failed, &metrics)
}

/// Determinism self-test: the same seed gives identical simulated
/// outcomes, the sharded speculative configuration (`SHARDED`) equals
/// `THREADS`, and another seed changes the outcomes.
fn self_test(seed: u64) -> ExitCode {
    let mut ok = true;
    let mut verdict = |what: String, pass: bool| {
        println!(
            "self-test {what:<60} {}",
            if pass { "ok" } else { "FAILED" }
        );
        ok &= pass;
    };
    for name in WORKLOADS {
        let spec = Spec::named(name).expect("known workload");
        let run = |seed, threads, k| run_episode(&spec, seed, threads, k, false, &mut NoTrace);
        let a = run(seed, THREADS.0, THREADS.1);
        let b = run(seed, THREADS.0, THREADS.1);
        verdict(
            format!("{name}: same seed, same outcomes"),
            a.fingerprint() == b.fingerprint(),
        );
        verdict(
            format!("{name}: checks pass"),
            a.failed() == 0 && a.completed == a.offered,
        );
        let c = run(seed + 1, THREADS.0, THREADS.1);
        let sim = |e: &Episode| (e.lat_pct(0.5), e.lat_pct(0.99), e.ok_in_window, e.events);
        verdict(
            format!("{name}: another seed changes sim_* and counters"),
            sim(&a) != sim(&c),
        );
        let (threads, k) = SHARDED;
        let sharded = run(seed, threads, k);
        verdict(
            format!(
                "{name}: t{}/K{} equals t{threads}/K{k}",
                THREADS.0, THREADS.1
            ),
            sharded.fingerprint() == a.fingerprint(),
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
