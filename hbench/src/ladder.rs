//! The in-process layer ladder of the serve path, measured from outside
//! by timing calls to each layer's public functions:
//!
//! `MemBackend` word ops → publication-list round trip →
//! `HybridHashMap::execute` → `Service::execute` → `Conn` state machine
//! over an in-memory stream.
//!
//! Every row runs on `Machine::new_native(Config::default_scaled())` with
//! all eight partition combiners spawned and two host cores, the way
//! `hybrids-server --workers 2` runs.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use hybrids::hashmap::HybridHashMap;
use hybrids::publist::{self, NmpExec, OpCode, PubLists, Request, Response};
use hybrids::SimIndex;
use hybrids_server::proto::{self, encode_request, Command, Parser};
use hybrids_server::runtime::conn::{Conn, ConnCfg};
use hybrids_server::{Clock, ServeCounters, Service, TtlTable};
use nmp_sim::{Config, EffectSpec, Machine, ThreadCtx, ThreadKind};
use workloads::{Key, Op, Rng, ScrambledZipfian, Value};

use crate::spans::Spans;
use crate::stats::{median, ns_per_call, percentile};

/// Keys preloaded into the in-process map (as in serve-read-closed).
const KEYS: u32 = 4096;
/// Defaults of `hybrids-server`: buckets, map seed, offload lanes, workers.
const BUCKETS: u32 = 1024;
const MAP_SEED: u64 = 42;
const INFLIGHT: usize = 4;
const WORKERS: usize = 2;
/// Request-id spaces of the ladder's spans (the client uses its own).
const PUBLIST_IDS: u64 = 1 << 40;
const ROUND_IDS: u64 = 2 << 40;

/// Per-layer results, by metric name: (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Outcome of the ladder: metrics, spans, and its own correctness tally.
pub struct Ladder {
    pub metrics: Metrics,
    pub spans: Spans,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

fn machine() -> Arc<Machine> {
    let mut cfg = Config::default_scaled();
    cfg.host_cores = WORKERS;
    Machine::new_native(cfg)
}

fn value_of(key: Key) -> Value {
    key ^ 0x5AA5_5AA5
}

/// A publication-list executor that does nothing: the round trip it
/// answers is pure protocol cost.
struct NoopExec;

impl NmpExec for NoopExec {
    type SlotState = ();

    fn exec(&self, _: &mut ThreadCtx, _: usize, _: &Request, _: &mut ()) -> Response {
        Response::ok_value(0)
    }

    fn effect_spec(&self) -> EffectSpec {
        EffectSpec::new("noop")
    }
}

/// An in-memory transport for `Conn`: reads drain `input` (empty reads
/// report `WouldBlock`, as a non-blocking socket would), writes append to
/// `output`.
#[derive(Clone, Default)]
struct MemStream(Rc<RefCell<(VecDeque<u8>, Vec<u8>)>>);

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut s = self.0.borrow_mut();
        if s.0.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = s.0.len().min(buf.len());
        for (dst, src) in buf.iter_mut().zip(s.0.drain(..n)) {
            *dst = src;
        }
        Ok(n)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().1.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Shared results of the host threads of one native run.
#[derive(Default)]
struct Shared {
    metrics: Metrics,
    spans: Vec<Spans>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Ops and seconds of each worker's 2-worker loop.
    w2: Vec<(u64, f64)>,
}

impl Shared {
    /// Count `attempted` checked operations of which `failed` failed.
    fn check(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 5 {
            self.notes.push(what());
        }
    }
}

/// Run the whole ladder, spending about `budget` seconds on the timed
/// closed loops.
pub fn run(epoch: Instant, seed: u64, budget: f64) -> Ladder {
    let shared = Arc::new(Mutex::new(Shared::default()));
    publist_row(epoch, &shared);
    map_rows(epoch, seed, budget, &shared);
    client_side_rows(&shared);
    let sh = Arc::try_unwrap(shared)
        .ok()
        .expect("ladder threads joined")
        .into_inner()
        .expect("ladder lock");
    let mut spans = Spans::new(epoch);
    for s in sh.spans {
        spans.absorb(s);
    }
    Ladder {
        metrics: sh.metrics,
        spans,
        attempted: sh.attempted,
        failed: sh.failed,
        notes: sh.notes,
    }
}

/// Publication-list round trip against no-op combiners, one host thread.
fn publist_row(epoch: Instant, shared: &Arc<Mutex<Shared>>) {
    let m = machine();
    let lists = Arc::new(PubLists::new(Arc::clone(&m), 1));
    let mut run = m.native_run();
    publist::spawn_combiners(&mut run, Arc::clone(&lists), Arc::new(NoopExec));
    let sh = Arc::clone(shared);
    run.spawn("ladder-0", ThreadKind::Host { core: 0 }, move |ctx| {
        let mut sp = Spans::new(epoch);
        let parts = lists.machine().partitions();
        let slot = lists.slot_of(0, 0);
        let mut round_trip = |i: u64| {
            let part = i as usize % parts;
            lists.post(ctx, part, slot, &Request::new(OpCode::Read, 1 + i as u32 % KEYS, 0));
            lists.wait_response(ctx, part, slot).ok
        };
        // The first 300 ms are a discarded warm-up, as in `map_rows`.
        let t_warm = Instant::now() + Duration::from_millis(300);
        let mut i = 0u64;
        let mut bad = 0u64;
        while Instant::now() < t_warm {
            bad += u64::from(!round_trip(i));
            i += 1;
        }
        let mut lat = Vec::new();
        let t_end = Instant::now() + Duration::from_millis(600);
        while Instant::now() < t_end {
            let t0 = Instant::now();
            let id = PUBLIST_IDS | i;
            bad += u64::from(!sp.wrap("publist.roundtrip", None, id, || round_trip(i)));
            lat.push(elapsed_us(t0));
            i += 1;
        }
        let mut s = sh.lock().expect("ladder lock");
        s.check(i, bad, || format!("{bad} no-op round trips answered a failure"));
        s.metrics.insert("hybrids.publist.roundtrip_us".into(), (median(&lat), "us"));
        s.metrics.insert("hybrids.publist.roundtrip_p99_us".into(), (percentile(&lat, 0.99), "us"));
        s.spans.push(sp);
    });
    run.finish();
}

/// Whether worker `core` owns `key`: workers write only their own keys,
/// so a worker's writes never fail and a read can miss only another
/// worker's key while it is briefly removed.
fn owns(core: usize, key: Key) -> bool {
    (key - 1) as usize % WORKERS == core
}

/// The next op of worker `core`'s 90/9/1 loop: reads, overwrites, and a
/// remove that the following op re-inserts, so every key stays present.
fn next_op(rng: &mut Rng, zipf: &ScrambledZipfian, reinsert: &mut Option<Key>, core: usize) -> Op {
    if let Some(k) = reinsert.take() {
        return Op::Insert(k, value_of(k));
    }
    let key = 1 + zipf.next_index(rng) as Key;
    if rng.below(100) < 90 {
        return Op::Read(key);
    }
    let key = key - (key - 1) % WORKERS as Key + core as Key;
    match rng.below(10) {
        0..=8 => Op::Update(key, value_of(key)),
        _ => {
            *reinsert = Some(key);
            Op::Remove(key)
        }
    }
}

/// Closed-loop 90/9/1 `execute` for `secs`; returns ops completed.
fn map_loop(
    ctx: &mut ThreadCtx,
    map: &HybridHashMap,
    rng: &mut Rng,
    core: usize,
    secs: f64,
    sh: &Mutex<Shared>,
) -> u64 {
    let zipf = ScrambledZipfian::ycsb(KEYS as u64);
    let mut reinsert = None;
    let t_end = Instant::now() + Duration::from_secs_f64(secs);
    let (mut ops, mut bad) = (0u64, 0u64);
    while Instant::now() < t_end {
        for _ in 0..64 {
            let op = next_op(rng, &zipf, &mut reinsert, core);
            let r = map.execute(ctx, op);
            bad += u64::from(!r.ok && owns(core, op.key()));
            ops += 1;
        }
    }
    sh.lock().expect("ladder lock").check(ops, bad, || format!("{bad} in-process map ops failed"));
    ops
}

/// Every row that needs the map: backend word ops, `execute` latency and
/// throughput at 1 and 2 workers with offload counters, `Service`, and the
/// `Conn` state machine.
fn map_rows(epoch: Instant, seed: u64, budget: f64, shared: &Arc<Mutex<Shared>>) {
    let m = machine();
    let map = HybridHashMap::new(Arc::clone(&m), BUCKETS, MAP_SEED, INFLIGHT);
    map.populate((1..=KEYS).map(|k| (k, value_of(k))));
    let service = Arc::new(Service {
        map: Arc::clone(&map),
        ttl: TtlTable::new(Clock::System),
        counters: Arc::new(ServeCounters::default()),
    });
    let mut run = m.native_run();
    map.spawn_services_on(&mut run);

    // Backend word ops, from this thread while the combiners spin.
    {
        let ram = m.ram();
        let addr = m.host_arena().alloc_aligned(64, 64);
        ram.write_u64(addr, 0);
        let read = ns_per_call(200, 1000, |_| {
            black_box(ram.read_u64(black_box(addr)));
        });
        let cas = ns_per_call(200, 1000, |i| {
            let _ = black_box(ram.cas_u64(addr, i as u64, i as u64 + 1));
        });
        let mut s = shared.lock().expect("ladder lock");
        let broke = u64::from(ram.read_u64(addr) != 200 * 1000);
        s.check(1, broke, || "backend CAS chain broke".into());
        s.metrics.insert("nmp_sim.backend.read_ns".into(), (read, "ns"));
        s.metrics.insert("nmp_sim.backend.cas_ns".into(), (cas, "ns"));
    }

    let barrier = Arc::new(Barrier::new(WORKERS));
    let loop_s = (budget / 4.0).max(0.5);
    for core in 0..WORKERS {
        let (map, service, sh, barrier, m) = (
            Arc::clone(&map),
            Arc::clone(&service),
            Arc::clone(shared),
            Arc::clone(&barrier),
            Arc::clone(&m),
        );
        run.spawn(format!("ladder-{core}"), ThreadKind::Host { core }, move |ctx| {
            let mut rng = Rng::new(seed).fork(core as u64 + 100);
            let mut sp = Spans::new(epoch);
            if core == 0 {
                // Discarded warm-up: the first half second after the
                // combiners start is always slow.
                map_loop(ctx, &map, &mut rng, core, 0.5, &sh);
                latency_rows(ctx, &service, &m, &mut rng, &mut sp, &sh);
                let t0 = Instant::now();
                let ops = map_loop(ctx, &map, &mut rng, core, loop_s, &sh);
                let w1 = ops as f64 / t0.elapsed().as_secs_f64();
                sh.lock()
                    .expect("ladder lock")
                    .metrics
                    .insert("hybrids.hashmap.ops_per_sec.w1".into(), (w1, "ops/s"));
            }
            barrier.wait();
            let before = (core == 0).then(|| m.mem().snapshot().offload);
            let t0 = Instant::now();
            let ops = map_loop(ctx, &map, &mut rng, core, loop_s, &sh);
            sh.lock().expect("ladder lock").w2.push((ops, t0.elapsed().as_secs_f64()));
            barrier.wait();
            if let Some(before) = before {
                let d = m.mem().snapshot().offload.delta_since(&before);
                let mut s = sh.lock().expect("ladder lock");
                let ops: u64 = s.w2.iter().map(|w| w.0).sum();
                let rate: f64 = s.w2.iter().map(|w| w.0 as f64 / w.1).sum();
                let per_op = |n: u64| n as f64 / ops as f64;
                let rows = [
                    ("hybrids.hashmap.ops_per_sec.w2", rate, "ops/s"),
                    ("hybrids.offload.posts_per_op", per_op(d.posted_total()), "posts/op"),
                    ("hybrids.offload.mean_batch", d.mean_batch(), "reqs/pass"),
                    ("hybrids.offload.retries_per_op", per_op(d.retries_total()), "retries/op"),
                ];
                for (name, v, unit) in rows {
                    s.metrics.insert(name.into(), (v, unit));
                }
            }
            sh.lock().expect("ladder lock").spans.push(sp);
        });
    }
    run.finish();
    map.check_invariants();
}

fn elapsed_us(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// Run `f` in a span named `name` and add its duration to `lat[name]`.
fn timed(
    lat: &mut BTreeMap<&'static str, Vec<f64>>,
    name: &'static str,
    id: u64,
    sp: &mut Spans,
    f: impl FnOnce() -> bool,
) -> bool {
    let t0 = Instant::now();
    let ok = sp.wrap(name, None, id, f);
    lat.entry(name).or_default().push(elapsed_us(t0));
    ok
}

/// One request through the connection state machine: `Conn::on_readable`
/// → `Service::execute` → `Conn::complete` → `Conn::flush`, its spans
/// nested under one root. Returns whether the written bytes matched.
fn conn_round(
    ctx: &mut ThreadCtx,
    service: &Service,
    conn: &mut Conn<MemStream>,
    stream: &MemStream,
    reqs: &[(Command, Vec<u8>)],
    sp: &mut Spans,
    req_id: u64,
) -> bool {
    let mut expect = Vec::new();
    for (cmd, reply) in reqs {
        stream.0.borrow_mut().0.extend(encode_request(cmd));
        expect.extend_from_slice(reply);
    }
    let name = if reqs.len() == 1 { "conn.request" } else { "conn.batch32" };
    let mut dispatch = Vec::new();
    let root = sp.open(name, None, req_id);
    let read = sp.wrap("on_readable", Some(root), req_id, || conn.on_readable(&mut dispatch));
    for (seq, cmd) in dispatch.drain(..) {
        let mut out = Vec::new();
        sp.wrap("service_execute", Some(root), req_id, || service.execute(ctx, &cmd, &mut out));
        sp.wrap("complete", Some(root), req_id, || conn.complete(seq, out));
    }
    let flushed = sp.wrap("flush", Some(root), req_id, || conn.flush());
    sp.close(root);
    let written = std::mem::take(&mut stream.0.borrow_mut().1);
    read.is_ok() && matches!(flushed, Ok(true)) && written == expect
}

/// The latency rows of one worker, interleaved round by round so every
/// layer is timed over the same moments: `execute` read and update,
/// `Service::execute` get and overwriting set, one `get` through `Conn`,
/// and every eighth round a delete, a set of the absent key and a
/// 32-request batch through `Conn`. Then offloads per overwriting set.
fn latency_rows(
    ctx: &mut ThreadCtx,
    service: &Service,
    m: &Machine,
    rng: &mut Rng,
    sp: &mut Spans,
    sh: &Mutex<Shared>,
) {
    let map = &service.map;
    let zipf = ScrambledZipfian::ycsb(KEYS as u64);
    let stream = MemStream::default();
    let mut conn = Conn::new(stream.clone(), ConnCfg::default());
    let mut lat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut wrong = 0u64;
    let t_end = Instant::now() + Duration::from_millis(1500);
    let mut round = 0u64;
    while Instant::now() < t_end {
        // Every span of one round shares the round's request id.
        let id = ROUND_IDS | round;
        let key = 1 + zipf.next_index(rng) as Key;
        let v = value_of(key);
        let mut out = Vec::new();
        let get = Command::Get(vec![key]);
        let set = Command::Set { key, value: v, exptime: 0, noreply: false };
        let lat = &mut lat;
        let mut ok = timed(lat, "hashmap.execute.read", id, sp, || {
            let r = map.execute(ctx, Op::Read(key));
            r.ok && r.value == v
        });
        ok &= timed(lat, "hashmap.execute.update", id, sp, || {
            map.execute(ctx, Op::Update(key, v)).ok
        });
        ok &= timed(lat, "service.execute.get", id, sp, || {
            out.clear();
            service.execute(ctx, &get, &mut out);
            out == proto::encode_get(&[(key, v)])
        });
        ok &= timed(lat, "service.execute.set", id, sp, || {
            out.clear();
            service.execute(ctx, &set, &mut out);
            out == proto::encode_stored()
        });
        let t0 = Instant::now();
        ok &= conn_round(
            ctx,
            service,
            &mut conn,
            &stream,
            &[(get.clone(), proto::encode_get(&[(key, v)]))],
            sp,
            id,
        );
        lat.entry("conn.request").or_default().push(elapsed_us(t0));
        if round.is_multiple_of(8) {
            let del = Command::Delete { key, noreply: false };
            ok &= timed(lat, "service.execute.delete", id, sp, || {
                out.clear();
                service.execute(ctx, &del, &mut out);
                out == proto::encode_deleted()
            });
            ok &= timed(lat, "service.execute.set_absent", id, sp, || {
                out.clear();
                service.execute(ctx, &set, &mut out);
                out == proto::encode_stored()
            });
            // The serve-write-pipelined mix, 10% gets and 90% sets.
            let batch: Vec<(Command, Vec<u8>)> = (0..32)
                .map(|_| {
                    let k = 1 + rng.below(KEYS as u64) as Key;
                    if rng.below(10) == 0 {
                        (Command::Get(vec![k]), proto::encode_get(&[(k, value_of(k))]))
                    } else {
                        let c = Command::Set {
                            key: k,
                            value: value_of(k),
                            exptime: 3600,
                            noreply: false,
                        };
                        (c, proto::encode_stored().to_vec())
                    }
                })
                .collect();
            let t0 = Instant::now();
            ok &= conn_round(ctx, service, &mut conn, &stream, &batch, sp, id);
            lat.entry("conn.batch32").or_default().push(elapsed_us(t0) / 32.0);
        }
        wrong += u64::from(!ok);
        round += 1;
    }

    // Offloads posted per overwriting set: the set path's useful-outcome
    // ratio (one would be ideal).
    let before = m.mem().snapshot().offload.posted_total();
    let sets = 500u64;
    for i in 0..sets as u32 {
        let key = 1 + (i * 7919) % KEYS;
        let mut out = Vec::new();
        service.execute(
            ctx,
            &Command::Set { key, value: value_of(key), exptime: 0, noreply: false },
            &mut out,
        );
        wrong += u64::from(out != proto::encode_stored());
    }
    let per_set = (m.mem().snapshot().offload.posted_total() - before) as f64 / sets as f64;

    let mut s = sh.lock().expect("ladder lock");
    s.check(round + sets, wrong, || format!("{wrong} ladder rounds returned a wrong response"));
    let rows = [
        ("hybrids.hashmap.read_us", "hashmap.execute.read"),
        ("hybrids.hashmap.update_us", "hashmap.execute.update"),
        ("server.service.get_us", "service.execute.get"),
        ("server.service.set_us", "service.execute.set"),
        ("server.service.delete_us", "service.execute.delete"),
        ("server.runtime.conn.req_us.single", "conn.request"),
        ("server.runtime.conn.req_us.batch32", "conn.batch32"),
    ];
    for (metric, span) in rows {
        s.metrics.insert(metric.into(), (median(&lat[span]), "us"));
    }
    s.metrics.insert("server.service.offloads_per_set".into(), (per_set, "offloads/set"));
}

/// Rows that need no machine: the TTL table and the protocol parser.
/// Their calls take nanoseconds, so they are timed in batches rather
/// than recorded as spans.
fn client_side_rows(shared: &Arc<Mutex<Shared>>) {
    let ttl = TtlTable::new(Clock::System);
    let on_set = ns_per_call(200, 1000, |i| ttl.on_set(1 + (i as u32 % KEYS), black_box(3600)));
    let mut expired = 0u64;
    let is_expired = ns_per_call(200, 1000, |i| {
        expired += u64::from(ttl.is_expired(black_box(1 + (i as u32 % KEYS))))
    });
    let mut parser = Parser::new();
    let get = encode_request(&Command::Get(vec![1234]));
    let set = encode_request(&Command::Set { key: 1234, value: 56789, exptime: 0, noreply: false });
    let mut frames = 0u64;
    let mut parse = |frame: &[u8]| {
        ns_per_call(200, 1000, |_| {
            parser.push(black_box(frame));
            for p in parser.by_ref() {
                frames += u64::from(matches!(p, proto::Parsed::Cmd(_)));
            }
        })
    };
    let parse_get = parse(&get);
    let parse_set = parse(&set);
    let mut s = shared.lock().expect("ladder lock");
    s.check(200 * 1000, expired, || format!("{expired} fresh TTL entries reported expired"));
    s.check(1, u64::from(frames != 2 * 200 * 1000), || {
        format!("parser produced {frames} commands")
    });
    s.metrics.insert("server.ttl.on_set_ns".into(), (on_set, "ns"));
    s.metrics.insert("server.ttl.is_expired_ns".into(), (is_expired, "ns"));
    s.metrics.insert("server.proto.parse_get_ns".into(), (parse_get, "ns"));
    s.metrics.insert("server.proto.parse_set_ns".into(), (parse_set, "ns"));
}
