//! `serve-session`: one closed-loop client — one process, one request in
//! flight — drives the `thresher-serve` binary (default configuration, a
//! fresh `--cache-dir`) through scripted rounds. A round loads four corpus
//! apps, analyzes each cold and again warm, applies one seeded edit per app
//! that removes a statement and one that restores it (each followed by an
//! `analyze`), then evicts them all. Each round uses fresh program names,
//! so each round's cold analyses start from empty decision stores.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use obs::json::Value;
use tir::{EditOp, Program};

use crate::{counters, Ctx, Outcome};

/// The session's apps: program name stem, corpus file, and the name of
/// the app's warm-repeat hit-ratio sample.
const APPS: [(&str, &str, &str); 4] = [
    ("pulsepoint", "corpus/pulsepoint.tir", "warm_hit_ratio.pulsepoint"),
    ("standuptimer", "corpus/standuptimer.tir", "warm_hit_ratio.standuptimer"),
    ("smspopup", "corpus/smspopup.tir", "warm_hit_ratio.smspopup"),
    ("opensudoku", "corpus/opensudoku.tir", "warm_hit_ratio.opensudoku"),
];

/// How long a daemon may take to exit after `shutdown` before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(20);

/// A running daemon and the client end of its stdio.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    next_id: u64,
}

/// One answered request.
struct Reply {
    /// The `ok` body, or `None` for an `err` reply.
    ok: Option<Value>,
    /// The full reply line (for failure messages).
    line: String,
    /// Client-observed latency: request write to full reply line, ms.
    ms: f64,
}

impl Reply {
    fn cost(&self, key: &str) -> f64 {
        self.ok
            .as_ref()
            .and_then(|b| b.get("cost"))
            .and_then(|c| c.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }

    fn phase_ms(&self, phase: &str) -> f64 {
        self.ok
            .as_ref()
            .and_then(|b| b.get("cost"))
            .and_then(|c| c.get("phases"))
            .and_then(|p| p.get(&format!("{phase}_us")))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            / 1e3
    }

    /// The answer of an `analyze` reply: alarm count, refuted count and
    /// each alarm's field and verdict.
    fn answer(&self) -> Option<String> {
        let b = self.ok.as_ref()?;
        Some(format!(
            "{} {} {}",
            b.get("num_alarms")?.as_u64()?,
            b.get("num_refuted")?.as_u64()?,
            b.get("alarms")?.to_json()
        ))
    }
}

impl Daemon {
    fn spawn(bin: &Path, cache_dir: &Path) -> Result<Daemon, String> {
        // One malloc arena: the daemon's workers otherwise each grow their
        // own, and its peak resident set would depend on which worker
        // happened to serve the largest requests.
        let mut child = Command::new(bin)
            .arg("--cache-dir")
            .arg(cache_dir)
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Daemon { child, stdin: Some(stdin), stdout, next_id: 1 })
    }

    /// Sends one request and waits for its reply.
    fn request(&mut self, method: &str, params: Vec<(&str, Value)>) -> Result<Reply, String> {
        let id = self.next_id;
        self.next_id += 1;
        let params = Value::Obj(params.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
        let mut line = Value::Obj(vec![
            ("id".to_owned(), Value::uint(id)),
            ("method".to_owned(), Value::str(method)),
            ("params".to_owned(), params),
        ])
        .to_json();
        line.push('\n');
        let stdin = self.stdin.as_mut().expect("daemon stdin open until shutdown");
        let t0 = Instant::now();
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("{method}: write: {e}"))?;
        let mut reply = String::new();
        let n = self.stdout.read_line(&mut reply).map_err(|e| format!("{method}: read: {e}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err(format!("{method}: daemon closed its output"));
        }
        let v = obs::json::parse(reply.trim_end())
            .map_err(|e| format!("{method}: bad reply {reply:?}: {e:?}"))?;
        if v.get("id").and_then(Value::as_u64) != Some(id) {
            return Err(format!("{method}: reply {reply:?} does not answer request {id}"));
        }
        Ok(Reply { ok: v.get("ok").cloned(), line: reply.trim_end().to_owned(), ms })
    }

    /// Asks the daemon to drain and exit, and waits until it has.
    fn shutdown(mut self) -> Result<(), String> {
        self.request("shutdown", Vec::new())?;
        drop(self.stdin.take());
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait().map_err(|e| format!("wait: {e}"))? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("daemon did not exit after shutdown".to_owned())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A directory removed when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// SplitMix64: the workload's seeded choice of edit targets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A statement that can be removed and restored: method, ordinal, text.
#[derive(Clone)]
struct Candidate {
    method: String,
    at: usize,
    text: String,
}

/// Every statement of `program` whose removal applies and whose
/// re-insertion restores the printed program exactly, each checked with
/// `tir::apply_edits` on a local copy. Allocation statements are skipped:
/// their site names stay reserved after removal.
fn edit_candidates(program: &Program) -> Vec<Candidate> {
    let original = tir::print_program(program);
    let mut methods: Vec<tir::MethodId> = program.method_ids().collect();
    methods.sort_by_key(|m| m.index());
    let mut out = Vec::new();
    for m in methods {
        let method = program.method_name(m);
        for (at, &cmd) in program.method_cmds(m).iter().enumerate() {
            let text = format!("{};", tir::print_cmd(program, program.cmd(cmd)));
            if text.contains('@') {
                continue;
            }
            let c = Candidate { method: method.clone(), at, text };
            let mut copy = program.clone();
            if tir::apply_edits(&mut copy, &[remove_op(&c)]).is_ok()
                && tir::apply_edits(&mut copy, &[restore_op(&c)]).is_ok()
                && tir::print_program(&copy) == original
            {
                out.push(c);
            }
        }
    }
    out
}

fn remove_op(c: &Candidate) -> EditOp {
    EditOp::RemoveStmt { method: c.method.clone(), at: c.at }
}

fn restore_op(c: &Candidate) -> EditOp {
    EditOp::AddStmt { method: c.method.clone(), at: c.at, text: c.text.clone() }
}

/// The `edits` parameter for one op.
fn edits_param(op: &EditOp) -> Value {
    let mut fields = vec![("op".to_owned(), Value::str(op.kind()))];
    match op {
        EditOp::RemoveStmt { method, at } => {
            fields.push(("method".to_owned(), Value::str(method.clone())));
            fields.push(("at".to_owned(), Value::uint(*at as u64)));
        }
        EditOp::AddStmt { method, at, text } => {
            fields.push(("method".to_owned(), Value::str(method.clone())));
            fields.push(("at".to_owned(), Value::uint(*at as u64)));
            fields.push(("text".to_owned(), Value::str(text.clone())));
        }
        other => unreachable!("the session only removes and adds statements, not {}", other.kind()),
    }
    Value::Arr(vec![Value::Obj(fields)])
}

/// One app's session inputs.
struct App {
    stem: &'static str,
    hit_ratio: &'static str,
    path: String,
    bytes: usize,
    candidates: Vec<Candidate>,
}

/// Per-round sums of the daemon's cost blocks and the client's latencies.
#[derive(Default)]
struct RoundCost {
    load_ms: f64,
    cold_ms: f64,
    warm_ms: f64,
    edit_answer_ms: f64,
    parse_ms: f64,
    load_pta_ms: f64,
    symex_ms: f64,
    cache_ms: f64,
    queue_wait_ms: f64,
    server_wall_ms: f64,
    transport_ms: f64,
    warm_hits: f64,
    warm_misses: f64,
    edit_apply_ms: f64,
    edit_pta_ms: f64,
    edit_propagations: f64,
    edit_changed_methods: f64,
    edit_cache_invalidated: f64,
    alarms: f64,
    /// Seconds spent on host-speed calibration between the round's phases
    /// (not part of the round's time).
    calib_s: f64,
}

impl RoundCost {
    /// Folds one reply's cost block into the serve-layer sums.
    fn absorb(&mut self, r: &Reply) {
        let wall_ms = r.cost("wall_us") / 1e3;
        self.queue_wait_ms += r.cost("queue_wait_ms");
        self.server_wall_ms += wall_ms;
        self.transport_ms += r.ms - wall_ms;
        self.symex_ms += r.phase_ms("symex");
        self.cache_ms += r.phase_ms("cache");
    }
}

/// Sends a request, checks that it succeeded, and records its latency
/// and cost.
fn call(
    d: &mut Daemon,
    out: &mut Outcome,
    cost: &mut RoundCost,
    method: &str,
    params: Vec<(&str, Value)>,
) -> Result<Reply, String> {
    let r = d.request(method, params)?;
    out.check(r.ok.is_some(), || format!("{method} failed: {}", r.line));
    let latency = match method {
        "load_program" => "latency.load_program_ms",
        "analyze" => "latency.analyze_ms",
        "edit" => "latency.edit_ms",
        _ => "latency.evict_ms",
    };
    out.sample(latency, r.ms);
    cost.absorb(&r);
    Ok(r)
}

/// Bytes and records of a decision store directory on disk.
fn store_size(dir: &Path) -> (u64, u64) {
    let bytes = std::fs::read_dir(dir)
        .map(|es| {
            es.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let records = std::fs::read_to_string(dir.join(symex::persist::CACHE_FILE))
        .map(|t| t.lines().count().saturating_sub(1) as u64)
        .unwrap_or(0);
    (bytes, records)
}

/// One scripted round. Returns its sums and the store size it left.
fn round(
    ctx: &mut Ctx,
    d: &mut Daemon,
    out: &mut Outcome,
    apps: &[App],
    k: usize,
    rng: &mut Rng,
    cache: &Path,
) -> Result<(RoundCost, u64, u64), String> {
    let mut c = RoundCost::default();
    let names: Vec<String> = apps.iter().map(|a| format!("{}-r{k}", a.stem)).collect();
    let program = |i: usize| vec![("program", Value::str(names[i].clone()))];

    for (i, app) in apps.iter().enumerate() {
        let params =
            vec![("name", Value::str(names[i].clone())), ("path", Value::str(app.path.clone()))];
        let r = ctx.tracer.time("load_program", || call(d, out, &mut c, "load_program", params))?;
        c.load_ms += r.ms;
        c.parse_ms += r.phase_ms("parse");
        c.load_pta_ms += r.phase_ms("pta");
    }
    // The round lasts seconds and the daemon runs in its own process, so
    // the host's speed is sampled between phases, not once per round.
    c.calib_s += out.calibrate();
    let mut cold = Vec::new();
    for i in 0..apps.len() {
        let r = ctx.tracer.time("analyze", || call(d, out, &mut c, "analyze", program(i)))?;
        c.cold_ms += r.ms;
        c.alarms +=
            r.ok.as_ref().and_then(|b| b.get("num_alarms")).and_then(Value::as_f64).unwrap_or(0.0);
        cold.push(r.answer());
    }
    c.calib_s += out.calibrate();
    for (i, app) in apps.iter().enumerate() {
        let r = ctx.tracer.time("analyze", || call(d, out, &mut c, "analyze", program(i)))?;
        let (hits, misses) = (r.cost("cache_hits"), r.cost("cache_misses"));
        c.warm_ms += r.ms;
        c.warm_hits += hits;
        c.warm_misses += misses;
        out.sample(app.hit_ratio, if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 });
        out.check(r.answer() == cold[i], || format!("{}: warm answer differs from cold", names[i]));
    }
    c.calib_s += out.calibrate();
    for (i, app) in apps.iter().enumerate() {
        let cand = &app.candidates[rng.below(app.candidates.len())];
        for (op, restores) in [(remove_op(cand), false), (restore_op(cand), true)] {
            let mut params = program(i);
            params.push(("edits", edits_param(&op)));
            let e = ctx.tracer.time("edit", || call(d, out, &mut c, "edit", params))?;
            let a = ctx.tracer.time("analyze", || call(d, out, &mut c, "analyze", program(i)))?;
            c.edit_answer_ms += e.ms + a.ms;
            c.edit_apply_ms += e.phase_ms("edit");
            c.edit_pta_ms += e.phase_ms("pta");
            let body = e.ok.as_ref();
            c.edit_propagations +=
                body.and_then(|b| b.get("propagations")).and_then(Value::as_f64).unwrap_or(0.0);
            c.edit_changed_methods += body
                .and_then(|b| b.get("changed_methods"))
                .and_then(Value::as_arr)
                .map_or(0, |m| m.len()) as f64;
            c.edit_cache_invalidated += a.cost("cache_invalidated");
            if restores {
                out.check(a.answer() == cold[i], || {
                    format!(
                        "{}: answer after restoring {}#{} differs from cold",
                        names[i], cand.method, cand.at
                    )
                });
            }
        }
    }
    c.calib_s += out.calibrate();
    for i in 0..apps.len() {
        ctx.tracer.time("evict", || call(d, out, &mut c, "evict", program(i)))?;
    }

    let (mut bytes, mut records) = (0, 0);
    for name in &names {
        // Program names are plain ASCII, so the daemon's store directory
        // name is the program name itself.
        let dir = cache.join(name);
        let (b, r) = store_size(&dir);
        bytes += b;
        records += r;
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok((c, bytes, records))
}

/// Counter totals from the daemon's `metrics` exposition.
fn daemon_counts(d: &mut Daemon) -> Result<counters::Counts, String> {
    let r = d.request("metrics", Vec::new())?;
    let text =
        r.ok.as_ref()
            .and_then(|b| b.get("exposition"))
            .and_then(Value::as_str)
            .ok_or(format!("metrics failed: {}", r.line))?;
    counters::from_exposition(text)
}

/// Runs the workload for the measuring window.
pub fn run(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    if !ctx.serve_bin.is_file() {
        return Err(format!("no thresher-serve binary at {}", ctx.serve_bin.display()));
    }
    let mut apps = Vec::new();
    for (stem, rel, hit_ratio) in APPS {
        let path = ctx.root.join(rel);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let program = tir::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let candidates = edit_candidates(&program);
        if candidates.is_empty() {
            return Err(format!("{}: no editable statement", path.display()));
        }
        apps.push(App {
            stem,
            hit_ratio,
            path: path.to_string_lossy().into_owned(),
            bytes: text.len(),
            candidates,
        });
    }
    let cache = TempDir(ctx.out_dir.join(format!("serve-cache-{}", std::process::id())));
    std::fs::create_dir_all(&cache.0)
        .map_err(|e| format!("cannot create {}: {e}", cache.0.display()))?;

    let mut d = set_up(ctx, out, &cache.0)?;
    let mut rng = Rng(ctx.seed);
    let mut k = 0;
    while ctx.window_open(out) {
        // Set-up is measured again before every round, on a daemon that is
        // shut down at once, so its samples spread over the window.
        set_up(ctx, out, &cache.0)?.shutdown()?;
        k += 1;
        let t0 = Instant::now();
        let (c, _, _) = round(ctx, &mut d, out, &apps, k, &mut rng, &cache.0)?;
        out.pass_s.push(t0.elapsed().as_secs_f64() - c.calib_s);
        out.sample("load_ms", c.load_ms);
        out.sample("analyze_cold_ms", c.cold_ms);
        out.sample("analyze_warm_ms", c.warm_ms);
        out.sample("edit_answer_ms", c.edit_answer_ms);
        if k == 1 {
            out.peak_rss_mb = crate::peak_rss_mb(Some(d.child.id()));
        }

        if ctx.trace {
            k += 1;
            let before = daemon_counts(&mut d)?;
            ctx.tracer.set_enabled(true);
            let t0 = Instant::now();
            let root = ctx.tracer.enter("round");
            let (c, bytes, records) = round(ctx, &mut d, out, &apps, k, &mut rng, &cache.0)?;
            ctx.tracer.exit(root);
            out.traced_pass_s.push(t0.elapsed().as_secs_f64() - c.calib_s);
            ctx.tracer.set_enabled(false);
            let counts = counters::diff(&daemon_counts(&mut d)?, &before);
            record_layers(out, &apps, &c, &counts, bytes, records);
        }
    }
    d.shutdown()
}

/// Spawns a daemon and waits for its first `health` reply: one `setup_s`
/// sample.
fn set_up(ctx: &Ctx, out: &mut Outcome, cache: &Path) -> Result<Daemon, String> {
    let t0 = Instant::now();
    let mut d = Daemon::spawn(&ctx.serve_bin, cache)?;
    let r = d.request("health", Vec::new())?;
    out.setup_s.push(t0.elapsed().as_secs_f64());
    out.check(r.ok.is_some(), || format!("health failed: {}", r.line));
    Ok(d)
}

/// Per-layer metrics of one traced round, read from the cost blocks, the
/// daemon's counters and the store on disk.
fn record_layers(
    out: &mut Outcome,
    apps: &[App],
    c: &RoundCost,
    counts: &counters::Counts,
    bytes: u64,
    records: u64,
) {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let bytes_total: usize = apps.iter().map(|a| a.bytes).sum();
    out.record_counts(counts);
    out.layer("tir.parse_ms", c.parse_ms);
    out.layer("tir.parse_mb_per_s", ratio(bytes_total as f64 / 1e6, c.parse_ms / 1e3));
    // The daemon times points-to and mod/ref as one `pta` phase.
    out.layer("pta.solve_ms", c.load_pta_ms);
    out.layer("android.alarms", c.alarms);
    out.layer("symex.search_ms", c.symex_ms);
    out.layer("cache.warm_hit_ratio", ratio(c.warm_hits, c.warm_hits + c.warm_misses));
    out.layer("cache.store_bytes", bytes as f64);
    out.layer("cache.bytes_per_record", ratio(bytes as f64, records as f64));
    out.layer("serve.queue_wait_ms", c.queue_wait_ms);
    out.layer("serve.server_wall_ms", c.server_wall_ms);
    out.layer("serve.transport_ms", c.transport_ms);
    out.layer("serve.symex_ms", c.symex_ms);
    out.layer("serve.cache_ms", c.cache_ms);
    out.layer("edit.apply_ms", c.edit_apply_ms);
    out.layer("edit.pta_ms", c.edit_pta_ms);
    out.layer("edit.propagations", c.edit_propagations);
    out.layer("edit.changed_methods", c.edit_changed_methods);
    out.layer("edit.cache_invalidated", c.edit_cache_invalidated);
}
