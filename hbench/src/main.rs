//! `hybrids-perf`: one run of one benchmark workload.
//!
//! ```text
//! hybrids-perf --workload serve-read-closed|serve-write-pipelined|sim-paper-mix
//!              --seed N --seconds S --trace 0|1 --server PATH [--out DIR]
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics; with
//! `--trace 1` it runs the traced per-layer ladder instead (see
//! `README.md`). It prints every metric by name and unit, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. It exits non-zero when a correctness check fails.

mod ladder;
mod procfs;
mod serve;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ladder::Metrics;
use serve::{ServeCfg, Session, WindowSpec, READ_CLOSED, WRITE_PIPELINED};
use sim::{SimRun, STRUCTURES};
use stats::{median, percentile};

/// Server sessions per end-to-end serve run. Each is a fresh server, so
/// each gives one `setup_s` sample. Throughput drifts in phases that last
/// seconds (the host's load, and how a server's threads share the cores),
/// so a run spreads its timed seconds over many short-lived servers.
const SESSIONS: usize = 12;
/// Discarded warm-up before each session's timed window.
const WARMUP_S: f64 = 0.25;
/// Throughput bin length within a timed window.
const BIN_S: f64 = 0.5;
/// The traced run writes the spans of every this-many-th request: a
/// traced run records over a million spans.
const SPAN_SAMPLE: u64 = 64;
/// Idle window after the timed phase, for `idle_cpu_cores`.
const IDLE_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: String,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: String::new(),
        out: PathBuf::from("hbench/results"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            "--server" => a.server = val.clone(),
            "--out" => a.out = PathBuf::from(&val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["serve-read-closed", "serve-write-pipelined", "sim-paper-mix"]
        .contains(&a.workload.as_str())
    {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.server.is_empty() {
        return Err("--server PATH is required".into());
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// What a run prints: metrics, context lines, and its correctness tally.
#[derive(Default)]
struct Report {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    fn tally(&mut self, attempted: u64, failed: u64, notes: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.notes.extend(notes.iter().take(5).cloned());
    }

    fn session(&mut self, s: &Session) {
        self.tally(s.attempted, s.failed, &s.notes);
    }
}

fn info(line: impl AsRef<str>) {
    println!("info {}", line.as_ref());
}

fn pooled_latencies(sessions: &[Session], pick: impl Fn(usize) -> bool) -> Vec<f64> {
    sessions
        .iter()
        .flat_map(|s| {
            s.windows
                .iter()
                .enumerate()
                .filter(|(i, _)| pick(*i))
                .flat_map(|(_, w)| w.lat_us.iter().copied())
        })
        .collect()
}

/// End-to-end serve run: `SESSIONS` fresh servers, each with its timed
/// window cut into `BIN_S` bins; throughput is the median bin.
fn serve_e2e(a: &Args, cfg: ServeCfg, r: &mut Report) {
    let bins = ((a.seconds / SESSIONS as f64 / BIN_S).round() as usize).max(1);
    let window = vec![WindowSpec { secs: BIN_S, traced: false }; bins];
    let sessions: Vec<Session> = (0..SESSIONS)
        .map(|i| {
            let idle = if i == 0 { IDLE_S } else { 0.0 };
            serve::run_session(&a.server, cfg, a.seed ^ ((i as u64) << 32), WARMUP_S, &window, idle)
        })
        .collect();
    let mut rates = Vec::new();
    for s in &sessions {
        r.session(s);
        let sr: Vec<f64> =
            s.windows.iter().zip(&s.window_secs).map(|(w, t)| w.ops as f64 / t).collect();
        let bins: Vec<String> = sr.iter().map(|x| format!("{:.0}", x)).collect();
        info(format!(
            "session setup_s={:.4} cpu.combiner_cores={:.3} bins_ops_per_sec=[{}]",
            s.setup_s,
            s.cores.get("combiner").copied().unwrap_or(0.0),
            bins.join(" ")
        ));
        rates.extend(sr);
    }
    let med = |f: &dyn Fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    let lat = pooled_latencies(&sessions, |_| true);
    let ops: u64 = sessions.iter().map(Session::timed_ops).sum();
    let secs: f64 = sessions.iter().flat_map(|s| &s.window_secs).sum();
    info(format!(
        "ops_per_sec over {} bins of {BIN_S} s; pooled mean {:.1}",
        rates.len(),
        ops as f64 / secs
    ));
    r.put("ops_per_sec", median(&rates), "ops/s");
    r.put("setup_s", med(&|s| s.setup_s), "s");
    r.put("peak_rss_mb", med(&|s| s.peak_rss_mb), "MiB");
    r.put("p50_us", median(&lat), "us");
    info(format!(
        "p50_us over {} samples; p99_us={:.2} ({} samples above it)",
        lat.len(),
        percentile(&lat, 0.99),
        lat.len() / 100
    ));
    info(format!(
        "idle_cpu_cores={:.3} (one idle window of {IDLE_S} s)",
        sessions[0].idle_cpu_cores
    ));
    info(format!(
        "cpu.combiner_cores={:.3}",
        med(&|s| s.cores.get("combiner").copied().unwrap_or(0.0))
    ));
}

/// Run every structure of the mix once; fail the run if a repeat's
/// simulated figures differ from the first pass's.
fn sim_pass(seed: u64, first: &mut BTreeMap<&'static str, String>, r: &mut Report) -> Vec<SimRun> {
    STRUCTURES
        .iter()
        .map(|&s| {
            let run = sim::run_structure(s, seed);
            let fp = run.fingerprint();
            let same = first.entry(s).or_insert_with(|| fp.clone()) == &fp;
            let notes = if same {
                vec![]
            } else {
                vec![format!("sim.{s} simulated figures differ between repeats")]
            };
            r.tally(run.ops, if same { 0 } else { run.ops }, &notes);
            info(format!(
                "sim.{s} wall_s={:.4} setup_s={:.4} mops={}",
                run.wall_s, run.setup_s, run.result.mops
            ));
            run
        })
        .collect()
}

/// End-to-end simulator run: whole passes while another one would end
/// within half a pass of `seconds`, and at least two so the repeat check has something to
/// compare.
fn sim_e2e(a: &Args, r: &mut Report) {
    let t0 = Instant::now();
    let mut first = BTreeMap::new();
    let mut passes: Vec<Vec<SimRun>> = Vec::new();
    loop {
        let spent = t0.elapsed().as_secs_f64();
        let n = passes.len();
        if n >= 2 && spent + spent / n as f64 / 2.0 > a.seconds {
            break;
        }
        passes.push(sim_pass(a.seed, &mut first, r));
    }
    // Each structure's median wall time over the passes, so one pass that
    // met a slow phase of the host does not move the figure.
    let (mut ops, mut wall) = (0u64, 0.0);
    for (i, _) in STRUCTURES.iter().enumerate() {
        ops += passes[0][i].ops;
        wall += median(&passes.iter().map(|p| p[i].wall_s).collect::<Vec<_>>());
    }
    r.put("ops_per_sec", ops as f64 / wall, "ops/s");
    let pass_us_per_op = |p: &Vec<SimRun>| {
        p.iter().map(|x| x.wall_s).sum::<f64>() * 1e6 / p.iter().map(|x| x.ops).sum::<u64>() as f64
    };
    r.put("p50_us", median(&passes.iter().map(pass_us_per_op).collect::<Vec<_>>()), "us");
    r.put(
        "setup_s",
        median(&passes.iter().map(|p| p.iter().map(|x| x.setup_s).sum()).collect::<Vec<f64>>()),
        "s",
    );
    r.put("peak_rss_mb", procfs::peak_rss_mb("self").unwrap_or(f64::NAN), "MiB");
    info(format!("sim_mops={} (exact; {} passes)", sim_mops(&passes[0]), passes.len()));
}

/// Total measured ops over total simulated seconds across the mix.
fn sim_mops(pass: &[SimRun]) -> f64 {
    let ops: f64 = pass.iter().map(|x| x.result.measured_ops as f64).sum();
    let secs: f64 = pass.iter().map(|x| x.result.measured_ops as f64 / x.result.mops).sum();
    ops / secs
}

/// Per-layer CPU and server rows of one serve session.
fn cpu_rows(r: &mut Report, cfg: ServeCfg, s: &Session) {
    let w = cfg.name;
    let core = |g: &str| s.cores.get(g).copied().unwrap_or(0.0);
    let ops = s.timed_ops() as f64;
    let wall: f64 = s.window_secs.iter().sum();
    for g in ["combiner", "worker", "reactor", "acceptor", "client"] {
        r.put(format!("cpu.{g}_cores.{w}"), core(g), "cores");
    }
    r.put(format!("cpu.worker_us_per_op.{w}"), core("worker") * wall * 1e6 / ops, "us/op");
    r.put(format!("cpu.reactor_us_per_op.{w}"), core("reactor") * wall * 1e6 / ops, "us/op");
    r.put(format!("cpu.vol_ctxsw_per_op.{w}"), s.ctxsw.0 as f64 / ops, "switches/op");
    r.put(format!("cpu.invol_ctxsw_per_op.{w}"), s.ctxsw.1 as f64 / ops, "switches/op");
    let gets = (s.get_hits + s.get_misses).max(1);
    r.put(format!("server.get_hit_frac.{w}"), s.get_hits as f64 / gets as f64, "fraction");
    r.put(format!("server.proto_errors.{w}"), s.proto_errors as f64, "count");
}

/// The traced run: the in-process ladder, a traced session of each serve
/// workload, and one simulator pass, all with spans recorded.
fn traced(a: &Args, r: &mut Report) {
    let epoch = Instant::now();
    let slice = (a.seconds / 8.0).max(1.0);
    let lad = ladder::run(epoch, a.seed, slice * 2.0);
    r.tally(lad.attempted, lad.failed, &lad.notes);
    r.metrics.extend(lad.metrics);
    let mut all = lad.spans;

    // serve-read-closed: untraced and traced windows alternate on one
    // server, so the tracing overhead is measured under the same state.
    let windows: Vec<WindowSpec> =
        (0..8).map(|i| WindowSpec { secs: slice / 2.0, traced: i % 2 == 1 }).collect();
    let rc = serve::run_session(&a.server, READ_CLOSED, a.seed, WARMUP_S, &windows, IDLE_S);
    r.session(&rc);
    cpu_rows(r, READ_CLOSED, &rc);
    let untraced = |i: usize| !windows[i].traced;
    let lat = pooled_latencies(std::slice::from_ref(&rc), untraced);
    let client_p50 = median(&lat);
    let (ops_u, ops_t) = (rc.ops_per_sec(untraced), rc.ops_per_sec(|i| windows[i].traced));
    r.put("p99_us", percentile(&lat, 0.99), "us");
    r.put("idle_cpu_cores", rc.idle_cpu_cores, "cores");
    r.put("trace.ops_per_sec.untraced", ops_u, "ops/s");
    r.put("trace.ops_per_sec.traced", ops_t, "ops/s");
    r.put("trace.overhead_frac", (ops_u - ops_t) / ops_u, "fraction");
    info(format!("p99_us over {} samples ({} above it)", lat.len(), lat.len() / 100));

    // The layer ladder under one get, each step the p50 difference to the
    // layer below it; with the unexplained rest they add up to the
    // client's p50.
    let m = |k: &str| r.metrics[k].0;
    let single = m("server.runtime.conn.req_us.single");
    let steps = [
        ("publist", m("hybrids.publist.roundtrip_us")),
        ("hashmap", m("hybrids.hashmap.read_us") - m("hybrids.publist.roundtrip_us")),
        ("service", m("server.service.get_us") - m("hybrids.hashmap.read_us")),
        ("conn", single - m("server.service.get_us")),
        ("unexplained", client_p50 - single),
    ];
    r.put("server.runtime.unexplained_us", client_p50 - single, "us");
    r.put("trace.client_p50_us", client_p50, "us");
    let mut sum = 0.0;
    for (layer, us) in steps {
        sum += us;
        r.put(format!("trace.step_us.{layer}"), us, "us");
        info(format!("ladder step {layer:<12} {us:>9.3} us  (running sum {sum:.3} us)"));
    }
    r.put("trace.layer_sum_us", sum, "us");
    info(format!("ladder sum {sum:.3} us vs client p50 {client_p50:.3} us"));
    if let Some(sp) = rc.spans {
        all.absorb(sp);
    }

    let wp = serve::run_session(
        &a.server,
        WRITE_PIPELINED,
        a.seed,
        WARMUP_S,
        &[WindowSpec { secs: slice * 2.0, traced: false }],
        IDLE_S,
    );
    r.session(&wp);
    cpu_rows(r, WRITE_PIPELINED, &wp);

    let mut first = BTreeMap::new();
    let pass = sim_pass(a.seed, &mut first, r);
    for run in &pass {
        let s = run.structure;
        let x = &run.result;
        r.put(format!("sim.{s}.mops"), x.mops, "Mops/s");
        r.put(format!("sim.{s}.dram_reads_per_op"), x.dram_reads_per_op, "reads/op");
        r.put(format!("sim.{s}.mmio_per_op"), x.mmio_per_op, "mmio/op");
        r.put(format!("sim.{s}.lat_p50_cycles"), x.lat_p50_cycles, "cycles");
        r.put(format!("sim.{s}.lat_p99_cycles"), x.lat_p99_cycles, "cycles");
        r.put(format!("sim.{s}.offload_mean_batch"), x.offload_mean_batch, "reqs/pass");
        r.put(format!("sim.{s}.wall_s"), run.wall_s, "s");
        r.put(format!("sim.{s}.setup_s"), run.setup_s, "s");
        r.put(format!("sim.{s}.host_ns_per_op"), run.wall_s * 1e9 / run.ops as f64, "ns/op");
    }
    r.put("sim_mops", sim_mops(&pass), "Mops/s");

    r.put("fail_frac", r.failed as f64 / r.attempted.max(1) as f64, "fraction");
    for (name, (dur, self_us)) in all.summary() {
        // Standalone spans have no children: their self time is their
        // duration, already reported by the ladder rows.
        if name.starts_with("client.") || name.starts_with("conn.") {
            r.put(format!("trace.self_us.{name}"), self_us, "us");
        }
        info(format!("span {name:<36} median {dur:>10.3} us  self {self_us:>10.3} us"));
    }
    let path = a.out.join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
    match all.write_jsonl(&path, SPAN_SAMPLE) {
        Ok(n) => info(format!(
            "{n} of {} spans (every {SPAN_SAMPLE}th request) written to {}",
            all.len(),
            path.display()
        )),
        Err(e) => info(format!("could not write spans to {}: {e}", path.display())),
    }
}

fn json_number(v: f64) -> String {
    // `{}` prints the shortest form that reads back as the same f64.
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hybrids-perf: {e}");
            std::process::exit(2);
        }
    };
    info(format!(
        "workload={} seed={} seconds={} trace={} nproc={} loadavg_1m={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        procfs::nproc(),
        procfs::loadavg_1m()
    ));
    let mut r = Report::default();
    match (a.trace, a.workload.as_str()) {
        (true, _) => traced(&a, &mut r),
        (false, "serve-read-closed") => serve_e2e(&a, READ_CLOSED, &mut r),
        (false, "serve-write-pipelined") => serve_e2e(&a, WRITE_PIPELINED, &mut r),
        (false, _) => sim_e2e(&a, &mut r),
    }
    if !a.trace {
        info(format!(
            "fail_frac={} ({} failed of {} attempted)",
            r.failed as f64 / r.attempted.max(1) as f64,
            r.failed,
            r.attempted
        ));
    }
    for note in &r.notes {
        info(format!("FAILED CHECK: {note}"));
    }
    let mut fields = Vec::new();
    for (name, (v, unit)) in &r.metrics {
        println!("metric {name} = {v} {unit}");
        if !v.is_finite() {
            r.failed += 1;
            info(format!("FAILED CHECK: {name} is not a finite number"));
        }
        let v = if v.is_finite() { *v } else { 0.0 };
        fields.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(v)));
    }
    let correct = r.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
