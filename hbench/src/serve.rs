//! The two serve workloads: the shipped `hybrids-server` as a child
//! process, driven over loopback by this benchmark's own client, with a
//! per-connection model that checks every response.
//!
//! Writes are partitioned by owner (key index `i` belongs to connection
//! `i % conns`), and the server keeps each connection's requests in order,
//! so a connection's model of its own keys is exact: a `get` of an owned
//! key must return exactly the modelled value. A `get` of another
//! connection's key must miss or return a value tagged with that key.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command as Proc, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hybrids_server::proto::{encode_request, Command};
use workloads::{Key, Rng, ScrambledZipfian, Value};

use crate::procfs::{self, TaskSample};
use crate::spans::Spans;

/// A socket read that takes longer than this is a failed request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the server may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);
/// Relative `exptime` carried by write-heavy sets: longer than any run.
const LONG_EXPTIME: u32 = 3600;

/// One serve workload's traffic shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeCfg {
    pub name: &'static str,
    pub conns: u32,
    /// Requests outstanding per connection (1 = closed loop).
    pub depth: usize,
    pub keys: u32,
    /// get / set / delete percentages.
    pub mix: [u8; 3],
    pub zipfian: bool,
    pub exptime: u32,
}

/// 2 closed-loop connections, 90/9/1 zipfian over 4,096 keys.
pub const READ_CLOSED: ServeCfg = ServeCfg {
    name: "serve-read-closed",
    conns: 2,
    depth: 1,
    keys: 4096,
    mix: [90, 9, 1],
    zipfian: true,
    exptime: 0,
};

/// One client thread, 2 connections x 32 outstanding, 10/80/10 uniform
/// over 16,384 keys (16 per bucket at 1,024 buckets), every set with a
/// relative `exptime` that outlives the run.
pub const WRITE_PIPELINED: ServeCfg = ServeCfg {
    name: "serve-write-pipelined",
    conns: 2,
    depth: 32,
    keys: 16_384,
    mix: [10, 80, 10],
    zipfian: false,
    exptime: LONG_EXPTIME,
};

// ---------------------------------------------------------------------------
// Request model
// ---------------------------------------------------------------------------

/// The low 16 bits every value stored under `key` carries.
fn tag(key: Key) -> u32 {
    key.wrapping_mul(0x9E37_79B1) >> 16
}

/// The value of version `ver` (1..=65535) of `key`; never zero.
fn value_of(key: Key, ver: u16) -> Value {
    ((ver as u32) << 16) | tag(key)
}

/// What a request's reply must be.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// `get` of an owned key: exactly this.
    GetExact(Key, Option<Value>),
    /// `get` of another connection's key: a miss or a value tagged `key`.
    GetTagged(Key),
    Stored,
    /// `delete` of an owned key: DELETED if it was present.
    Delete(bool),
}

/// A parsed server reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    Hit(Key, Value),
    Miss,
    Stored,
    Deleted,
    NotFound,
}

/// One connection's request generator and model of the keys it owns.
struct Gen {
    rng: Rng,
    zipf: Option<ScrambledZipfian>,
    cfg: ServeCfg,
    me: u32,
    /// Per key index: current version and whether the key is present.
    /// Only the entries this connection owns are ever touched.
    ver: Vec<u16>,
    live: Vec<bool>,
}

impl Gen {
    fn new(cfg: ServeCfg, seed: u64, me: u32) -> Self {
        let n = cfg.keys as usize;
        Gen {
            rng: Rng::new(seed).fork(me as u64 + 1),
            zipf: cfg.zipfian.then(|| ScrambledZipfian::ycsb(cfg.keys as u64)),
            cfg,
            me,
            ver: vec![1; n],
            live: vec![true; n],
        }
    }

    fn owns(&self, idx: u32) -> bool {
        idx % self.cfg.conns == self.me
    }

    /// The owned key index nearest below `idx`.
    fn own(&self, idx: u32) -> u32 {
        let i = idx - idx % self.cfg.conns + self.me;
        if i >= self.cfg.keys {
            i - self.cfg.conns
        } else {
            i
        }
    }

    fn next(&mut self) -> (Command, Expect) {
        let idx = match &self.zipf {
            Some(z) => z.next_index(&mut self.rng) as u32,
            None => self.rng.below(self.cfg.keys as u64) as u32,
        };
        let roll = self.rng.below(100) as u8;
        let [get, set, _] = self.cfg.mix;
        if roll < get {
            let key = idx + 1;
            let exp = if self.owns(idx) {
                let i = idx as usize;
                Expect::GetExact(key, self.live[i].then(|| value_of(key, self.ver[i])))
            } else {
                Expect::GetTagged(key)
            };
            return (Command::Get(vec![key]), exp);
        }
        let idx = self.own(idx);
        let (i, key) = (idx as usize, idx + 1);
        if roll < get + set {
            self.ver[i] = self.ver[i] % u16::MAX + 1;
            self.live[i] = true;
            let value = value_of(key, self.ver[i]);
            (Command::Set { key, value, exptime: self.cfg.exptime, noreply: false }, Expect::Stored)
        } else {
            let was = std::mem::replace(&mut self.live[i], false);
            (Command::Delete { key, noreply: false }, Expect::Delete(was))
        }
    }

    /// A `get` of every owned key, with the modelled result.
    fn readback(&self) -> Vec<(Command, Expect)> {
        (0..self.cfg.keys)
            .filter(|&i| self.owns(i))
            .map(|i| {
                let key = i + 1;
                let want = self.live[i as usize].then(|| value_of(key, self.ver[i as usize]));
                (Command::Get(vec![key]), Expect::GetExact(key, want))
            })
            .collect()
    }

    fn resident(&self) -> u64 {
        (0..self.cfg.keys).filter(|&i| self.owns(i) && self.live[i as usize]).count() as u64
    }
}

/// Whether `reply` is what `exp` allows.
fn reply_ok(exp: Expect, reply: Reply) -> bool {
    match (exp, reply) {
        (Expect::GetExact(k, Some(v)), Reply::Hit(rk, rv)) => rk == k && rv == v,
        (Expect::GetExact(_, None), Reply::Miss) => true,
        (Expect::GetTagged(k), Reply::Hit(rk, rv)) => rk == k && rv & 0xFFFF == tag(k),
        (Expect::GetTagged(_), Reply::Miss) => true,
        (Expect::Stored, Reply::Stored) => true,
        (Expect::Delete(true), Reply::Deleted) => true,
        (Expect::Delete(false), Reply::NotFound) => true,
        _ => false,
    }
}

/// Parse one complete reply from the front of `buf`: `Ok(None)` if more
/// bytes are needed, `Err` on anything that is not a well-formed reply
/// (including `ERROR`, `CLIENT_ERROR` and `SERVER_ERROR` lines).
fn parse_reply(buf: &[u8]) -> Result<Option<(Reply, usize)>, String> {
    let Some(eol) = buf.windows(2).position(|w| w == b"\r\n") else {
        return if buf.len() > 512 { Err("unterminated reply".into()) } else { Ok(None) };
    };
    let line = std::str::from_utf8(&buf[..eol]).map_err(|_| "non-utf8 reply".to_string())?;
    let simple = |r| Ok(Some((r, eol + 2)));
    match line {
        "END" => simple(Reply::Miss),
        "STORED" => simple(Reply::Stored),
        "DELETED" => simple(Reply::Deleted),
        "NOT_FOUND" => simple(Reply::NotFound),
        _ => {
            let bad = || format!("unexpected reply {line:?}");
            let f: Vec<&str> = line.split(' ').collect();
            if f.len() != 4 || f[0] != "VALUE" || f[2] != "0" {
                return Err(bad());
            }
            let key: Key = f[1].parse().map_err(|_| bad())?;
            let n: usize = f[3].parse().map_err(|_| bad())?;
            let data_end = eol + 2 + n;
            let total = data_end + 2 + 5;
            if buf.len() < total {
                return Ok(None);
            }
            if &buf[data_end..total] != b"\r\nEND\r\n" {
                return Err(bad());
            }
            let value: Value = std::str::from_utf8(&buf[eol + 2..data_end])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(bad)?;
            Ok(Some((Reply::Hit(key, value), total)))
        }
    }
}

/// A client connection with a reply buffer.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client { stream, buf: Vec::with_capacity(64 * 1024), start: 0 })
    }

    /// One `read` call's worth of bytes (blocks until at least one).
    fn read_more(&mut self) -> io::Result<()> {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + 64 * 1024, 0);
        match self.stream.read(&mut self.buf[len..]) {
            Ok(0) => {
                self.buf.truncate(len);
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"))
            }
            Ok(n) => {
                self.buf.truncate(len + n);
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(len);
                Err(e)
            }
        }
    }

    /// The next reply already buffered, if complete.
    fn take_reply(&mut self) -> io::Result<Option<Reply>> {
        match parse_reply(&self.buf[self.start..]) {
            Ok(Some((r, used))) => {
                self.start += used;
                Ok(Some(r))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }

    /// Block until the next reply is complete.
    fn recv(&mut self) -> io::Result<Reply> {
        loop {
            if let Some(r) = self.take_reply()? {
                return Ok(r);
            }
            self.read_more()?;
        }
    }
}

// ---------------------------------------------------------------------------
// Tallies
// ---------------------------------------------------------------------------

/// Per-window client results.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub ops: u64,
    pub lat_us: Vec<f64>,
}

/// Everything one connection (or client thread) observed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    hits: u64,
    misses: u64,
    stored: u64,
    deleted: u64,
    windows: Vec<Window>,
}

impl Tally {
    fn new(windows: usize) -> Self {
        Tally { windows: vec![Window::default(); windows], ..Default::default() }
    }

    fn note(&mut self, exp: Expect, reply: Reply) {
        match reply {
            Reply::Hit(..) => self.hits += 1,
            Reply::Miss => self.misses += 1,
            Reply::Stored => self.stored += 1,
            Reply::Deleted => self.deleted += 1,
            Reply::NotFound => {}
        }
        if !reply_ok(exp, reply) {
            self.fail(format!("expected {exp:?}, got {reply:?}"));
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.notes.extend(o.notes.into_iter().take(5));
        self.hits += o.hits;
        self.misses += o.misses;
        self.stored += o.stored;
        self.deleted += o.deleted;
        for (w, ow) in self.windows.iter_mut().zip(o.windows) {
            w.ops += ow.ops;
            w.lat_us.extend(ow.lat_us);
        }
    }
}

/// Phase word shared by the session's main thread and the client
/// threads: 0 is the warm-up, `w + 1` is timed window `w`, and [`STOP`]
/// ends the load.
const STOP: usize = usize::MAX;

fn in_window(phase: usize) -> Option<usize> {
    (phase != 0 && phase != STOP).then(|| phase - 1)
}

// ---------------------------------------------------------------------------
// Server child process
// ---------------------------------------------------------------------------

/// The shipped server, running as a child process. Dropping it kills and
/// reaps the child if it is still running.
struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerChild {
    fn spawn(bin: &str) -> io::Result<ServerChild> {
        let mut child = Proc::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--runtime", "evented"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .strip_prefix("hybrids-server listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("unexpected server banner {line:?}")));
        };
        Ok(ServerChild { child, stdout, addr })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send `shutdown`, wait for the exit, and return whether it exited 0
    /// together with its summary line.
    fn shutdown(mut self) -> io::Result<(bool, String)> {
        let mut c = Client::connect(&self.addr)?;
        c.stream.write_all(b"shutdown\r\n")?;
        let mut ok = String::new();
        BufReader::new(&c.stream).read_line(&mut ok)?;
        if ok != "OK\r\n" {
            return Err(io::Error::other(format!("shutdown answered {ok:?}")));
        }
        let mut summary = String::new();
        self.stdout.read_line(&mut summary)?;
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok((status.success(), summary.trim().to_string()));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The counters of the server's `hybrids-server done: ...` line, in order:
/// conns, get hits, get misses, sets, deletes, protocol errors, expired
/// serves, resident keys.
fn parse_summary(line: &str) -> Option<[u64; 8]> {
    let rest = line.strip_prefix("hybrids-server done: ")?;
    let nums: Vec<u64> = rest
        .split(", ")
        .map(|part| part.split(' ').next().and_then(|n| n.parse().ok()))
        .collect::<Option<_>>()?;
    nums.try_into().ok()
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// One timed window of a session: its length, and whether the client
/// records spans during it.
#[derive(Debug, Clone, Copy)]
pub struct WindowSpec {
    pub secs: f64,
    pub traced: bool,
}

/// What one server session measured.
#[derive(Default)]
pub struct Session {
    pub setup_s: f64,
    pub windows: Vec<Window>,
    pub window_secs: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Server CPU seconds per wall second by thread group over the
    /// timed windows, plus the client's own (`client`).
    pub cores: BTreeMap<&'static str, f64>,
    /// Server context switches over the timed windows (voluntary,
    /// involuntary).
    pub ctxsw: (u64, u64),
    pub idle_cpu_cores: f64,
    pub peak_rss_mb: f64,
    pub get_hits: u64,
    pub get_misses: u64,
    pub proto_errors: u64,
    /// Keys the client's model holds after the run.
    pub model_resident: u64,
    pub spans: Option<Spans>,
}

impl Session {
    /// Requests completed per second over the windows selected by `pick`.
    pub fn ops_per_sec(&self, pick: impl Fn(usize) -> bool) -> f64 {
        let (mut ops, mut secs) = (0, 0.0);
        for (i, w) in self.windows.iter().enumerate().filter(|(i, _)| pick(*i)) {
            ops += w.ops;
            secs += self.window_secs[i];
        }
        ops as f64 / secs
    }

    pub fn timed_ops(&self) -> u64 {
        self.windows.iter().map(|w| w.ops).sum()
    }
}

/// Store every key at version 1 over one connection, 256 sets in flight.
fn preload(addr: &str, cfg: &ServeCfg, tally: &mut Tally) -> io::Result<()> {
    let sets: Vec<(Command, Expect)> = (1..=cfg.keys)
        .map(|key| {
            let value = value_of(key, 1);
            (Command::Set { key, value, exptime: cfg.exptime, noreply: false }, Expect::Stored)
        })
        .collect();
    pipelined_check(&mut Client::connect(addr)?, &sets, 256, tally)
}

/// Send `reqs` with up to `depth` outstanding and check every reply.
fn pipelined_check(
    c: &mut Client,
    reqs: &[(Command, Expect)],
    depth: usize,
    tally: &mut Tally,
) -> io::Result<()> {
    for chunk in reqs.chunks(depth) {
        let mut out = Vec::new();
        for (cmd, _) in chunk {
            out.extend_from_slice(&encode_request(cmd));
        }
        c.stream.write_all(&out)?;
        tally.attempted += chunk.len() as u64;
        for (_, exp) in chunk {
            let r = c.recv()?;
            tally.note(*exp, r);
        }
    }
    Ok(())
}

/// What a client thread hands back: its outcome, tally, spans, and its
/// connections with their models for the read-back.
type ClientResult = (io::Result<()>, Tally, Option<Spans>, Vec<(Client, Gen)>);

/// Start a named client thread in `scope` (its name is how `/proc`
/// accounting finds the client's CPU time).
fn spawn_client<'scope, F>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    name: String,
    f: F,
) -> std::thread::ScopedJoinHandle<'scope, ClientResult>
where
    F: FnOnce() -> ClientResult + Send + 'scope,
{
    std::thread::Builder::new().name(name).spawn_scoped(scope, f).expect("spawn client thread")
}

/// Closed loop on one connection: send, await the reply, repeat.
fn closed_loop(
    c: &mut Client,
    gen: &mut Gen,
    phase: &AtomicUsize,
    tally: &mut Tally,
    spans: &mut Option<Spans>,
    traced: &[bool],
) -> io::Result<()> {
    // Request ids of this connection, distinct from the ladder's.
    let mut req_id = (3 + gen.me as u64) << 40;
    loop {
        let ph = phase.load(Ordering::Acquire);
        if ph == STOP {
            return Ok(());
        }
        let (cmd, exp) = gen.next();
        let bytes = encode_request(&cmd);
        tally.attempted += 1;
        let trace = in_window(ph).is_some_and(|w| traced[w]);
        let t0 = Instant::now();
        let reply = match (trace, spans.as_mut()) {
            (true, Some(sp)) => {
                req_id += 1;
                let root = sp.open("client.request", None, req_id);
                sp.wrap("send", Some(root), req_id, || c.stream.write_all(&bytes))?;
                let r = sp.wrap("recv", Some(root), req_id, || c.recv());
                sp.close(root);
                r?
            }
            _ => {
                c.stream.write_all(&bytes)?;
                c.recv()?
            }
        };
        let lat = t0.elapsed();
        tally.note(exp, reply);
        if let Some(w) = in_window(phase.load(Ordering::Acquire)) {
            tally.windows[w].ops += 1;
            tally.windows[w].lat_us.push(lat.as_nanos() as f64 / 1e3);
        }
    }
}

/// One client thread driving every connection with `depth` requests
/// outstanding on each; connections are served round-robin.
fn pipelined_loop(
    conns: &mut [(Client, Gen)],
    depth: usize,
    phase: &AtomicUsize,
    tally: &mut Tally,
) -> io::Result<()> {
    let mut inflight: Vec<VecDeque<(Expect, Instant)>> = vec![VecDeque::new(); conns.len()];
    let mut out = Vec::new();
    loop {
        let ph = phase.load(Ordering::Acquire);
        for (i, (c, gen)) in conns.iter_mut().enumerate() {
            let q = &mut inflight[i];
            if ph != STOP && q.len() < depth {
                out.clear();
                let now = Instant::now();
                while q.len() < depth {
                    let (cmd, exp) = gen.next();
                    out.extend_from_slice(&encode_request(&cmd));
                    q.push_back((exp, now));
                    tally.attempted += 1;
                }
                c.stream.write_all(&out)?;
            }
            if q.is_empty() {
                continue;
            }
            c.read_more()?;
            let now = Instant::now();
            let w = in_window(phase.load(Ordering::Acquire));
            while let Some(reply) = c.take_reply()? {
                let Some((exp, sent)) = q.pop_front() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "reply without a request",
                    ));
                };
                tally.note(exp, reply);
                if let Some(w) = w {
                    tally.windows[w].ops += 1;
                    tally.windows[w].lat_us.push((now - sent).as_nanos() as f64 / 1e3);
                }
            }
        }
        if ph == STOP && inflight.iter().all(VecDeque::is_empty) {
            return Ok(());
        }
    }
}

/// Run one server session: spawn, preload (this is `setup_s`), warm up,
/// run the timed windows, measure the idle server, read back and check
/// every owned key, shut down, and check the server's own counts.
pub fn run_session(
    bin: &str,
    cfg: ServeCfg,
    seed: u64,
    warmup_s: f64,
    windows: &[WindowSpec],
    idle_s: f64,
) -> Session {
    let mut s = Session::default();
    let mut tally = Tally::new(windows.len());
    let t_spawn = Instant::now();
    let server = match ServerChild::spawn(bin) {
        Ok(srv) => srv,
        Err(e) => {
            s.failed = 1;
            s.attempted = 1;
            s.notes.push(format!("server start: {e}"));
            return s;
        }
    };
    if let Err(e) =
        drive(&server, cfg, seed, warmup_s, windows, idle_s, t_spawn, &mut s, &mut tally)
    {
        tally.fail(format!("session: {e}"));
    }
    s.peak_rss_mb = procfs::peak_rss_mb(&server.pid().to_string()).unwrap_or(f64::NAN);
    match server.shutdown() {
        Ok((exited_ok, summary)) => {
            if !exited_ok {
                tally.fail("server exited non-zero (check_invariants)".into());
            }
            match parse_summary(&summary) {
                Some([_, hits, misses, sets, deletes, proto, expired, resident]) => {
                    s.get_hits = hits;
                    s.get_misses = misses;
                    s.proto_errors = proto;
                    let want = [
                        ("get hits", hits, tally.hits),
                        ("get misses", misses, tally.misses),
                        ("sets", sets, tally.stored),
                        ("deletes", deletes, tally.deleted),
                        ("protocol errors", proto, 0),
                        ("expired serves", expired, 0),
                        ("resident keys", resident, s.model_resident),
                    ];
                    for (what, server_n, client_n) in want {
                        if server_n != client_n {
                            tally.fail(format!("server {what} {server_n} != client {client_n}"));
                        }
                    }
                }
                None => tally.fail(format!("unparsable server summary {summary:?}")),
            }
        }
        Err(e) => tally.fail(format!("shutdown: {e}")),
    }
    s.attempted = tally.attempted;
    s.failed = tally.failed;
    s.notes = tally.notes;
    s.windows = tally.windows;
    s
}

#[allow(clippy::too_many_arguments)]
fn drive(
    server: &ServerChild,
    cfg: ServeCfg,
    seed: u64,
    warmup_s: f64,
    windows: &[WindowSpec],
    idle_s: f64,
    t_spawn: Instant,
    s: &mut Session,
    tally: &mut Tally,
) -> io::Result<()> {
    let addr = server.addr.clone();
    preload(&addr, &cfg, tally)?;
    s.setup_s = t_spawn.elapsed().as_secs_f64();

    let conns: Vec<(Client, Gen)> = (0..cfg.conns)
        .map(|me| Ok((Client::connect(&addr)?, Gen::new(cfg, seed, me))))
        .collect::<io::Result<_>>()?;
    let phase = AtomicUsize::new(0);
    let traced: Vec<bool> = windows.iter().map(|w| w.traced).collect();
    let any_traced = traced.iter().any(|&t| t);
    let epoch = Instant::now();
    let pid = server.pid();

    let (results, timing) = std::thread::scope(|scope| {
        let (phase, traced) = (&phase, &traced);
        let handles: Vec<_> = if cfg.depth == 1 {
            conns
                .into_iter()
                .enumerate()
                .map(|(i, (mut c, mut gen))| {
                    spawn_client(scope, format!("client-{i}"), move || {
                        let mut t = Tally::new(traced.len());
                        let mut spans = any_traced.then(|| Spans::new(epoch));
                        let r = closed_loop(&mut c, &mut gen, phase, &mut t, &mut spans, traced);
                        (r, t, spans, vec![(c, gen)])
                    })
                })
                .collect()
        } else {
            let mut all = conns;
            vec![spawn_client(scope, "client-0".into(), move || {
                let mut t = Tally::new(traced.len());
                let r = pipelined_loop(&mut all, cfg.depth, phase, &mut t);
                (r, t, None, all)
            })]
        };

        std::thread::sleep(Duration::from_secs_f64(warmup_s));
        let me = std::process::id();
        let srv0 = procfs::sample_tasks(pid);
        let cli0 = procfs::sample_tasks(me);
        let t0 = Instant::now();
        let mut secs = Vec::new();
        for (w, spec) in windows.iter().enumerate() {
            let ws = Instant::now();
            phase.store(w + 1, Ordering::Release);
            std::thread::sleep(Duration::from_secs_f64(spec.secs));
            secs.push(ws.elapsed().as_secs_f64());
        }
        let srv1 = procfs::sample_tasks(pid);
        let cli1 = procfs::sample_tasks(me);
        let wall = t0.elapsed().as_secs_f64();
        phase.store(STOP, Ordering::Release);
        let results: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (results, (srv0, srv1, cli0, cli1, wall, secs))
    });

    let (srv0, srv1, cli0, cli1, wall, secs) = timing;
    s.window_secs = secs;
    for (g, d) in procfs::group_delta(&srv0, &srv1, procfs::group_of) {
        s.cores.insert(g, d.cpu_s / wall);
        s.ctxsw.0 += d.vol_ctxsw;
        s.ctxsw.1 += d.invol_ctxsw;
    }
    let client = procfs::group_delta(&cli0, &cli1, |c| {
        if c.starts_with("client-") {
            "client"
        } else {
            "other"
        }
    });
    s.cores.insert("client", client.get("client").map_or(0.0, |d: &TaskSample| d.cpu_s) / wall);

    let mut first_err = None;
    let mut conns = Vec::new();
    for (r, t, spans, cs) in results {
        if let Err(e) = r {
            first_err.get_or_insert(e);
        }
        tally.merge(t);
        if let Some(sp) = spans {
            match s.spans.as_mut() {
                Some(all) => all.absorb(sp),
                None => s.spans = Some(sp),
            }
        }
        conns.extend(cs);
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    // The server is idle now: every connection is drained.
    if idle_s > 0.0 {
        let c0 = procfs::process_cpu_s(pid);
        let ti = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(idle_s));
        s.idle_cpu_cores = (procfs::process_cpu_s(pid) - c0) / ti.elapsed().as_secs_f64();
    }

    for (c, gen) in &mut conns {
        pipelined_check(c, &gen.readback(), 64, tally)?;
    }
    s.model_resident = conns.iter().map(|(_, g)| g.resident()).sum();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_replies() {
        assert_eq!(parse_reply(b"END\r\n").unwrap(), Some((Reply::Miss, 5)));
        assert_eq!(
            parse_reply(b"VALUE 7 0 2\r\n42\r\nEND\r\n").unwrap(),
            Some((Reply::Hit(7, 42), 22))
        );
        assert_eq!(parse_reply(b"VALUE 7 0 2\r\n42\r\nEN").unwrap(), None);
        assert!(parse_reply(b"SERVER_ERROR store failed\r\n").is_err());
        assert!(parse_reply(b"ERROR\r\n").is_err());
    }

    #[test]
    fn model_tracks_owned_keys() {
        let mut g = Gen::new(WRITE_PIPELINED, 7, 1);
        for _ in 0..10_000 {
            let (cmd, exp) = g.next();
            match (cmd, exp) {
                (Command::Set { key, value, .. }, Expect::Stored) => {
                    assert_eq!((key - 1) % 2, 1, "writes stay on owned keys");
                    assert_eq!(value & 0xFFFF, tag(key));
                }
                (Command::Delete { key, .. }, Expect::Delete(_)) => assert_eq!((key - 1) % 2, 1),
                (Command::Get(_), Expect::GetExact(..) | Expect::GetTagged(_)) => {}
                other => panic!("unexpected pair {other:?}"),
            }
        }
        assert_eq!(g.readback().len(), 8192);
    }

    #[test]
    fn summary_line() {
        let line = "hybrids-server done: 4 conns, 10 get hits, 2 get misses, 5 sets, 1 deletes, \
                    0 protocol errors, 0 expired serves, 99 resident keys";
        assert_eq!(parse_summary(line), Some([4, 10, 2, 5, 1, 0, 0, 99]));
    }
}
