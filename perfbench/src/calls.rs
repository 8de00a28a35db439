//! The call workloads: `local-fitter` (the §6 local stub), `rpc-echo`
//! (an open loop of the smallest message) and `rpc-fitter` (a closed
//! loop of 1 024-point fitter calls on the native marshal tier), each
//! over the loopback interface to an in-process `TcpServer` where there
//! is a wire.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mockingbird::comparer::{Comparer, Mode, RuleSet};
use mockingbird::corpus::fitter_pair;
use mockingbird::mtype::{IntRange, MtypeGraph, RealPrecision};
use mockingbird::plan::CoercionPlan;
use mockingbird::runtime::{
    ConnectionPool, Dispatcher, MetricsRegistry, RemoteRef, RuntimeError, Servant, TcpServer,
    WireOp, WireServant,
};
use mockingbird::stubgen::native::native_keys_for;
use mockingbird::stubgen::{FunctionStub, RemoteStub};
use mockingbird::values::{Endian, MValue};
use mockingbird::wire::{CdrReader, NativeDecodeFn, NativeEncodeInvocationFn, NativeStubRegistry};
use mockingbird_bench::{c_fitter_impl, fitter_session, register_native_stubs};
use mockingbird_rng::StdRng;

use crate::compile::{Pairs, Ticks};
use crate::probe::{cpu_us, threads, AllocCount, HostCpu};
use crate::sched::caller_schedules;
use crate::stats::{quantile_sorted, Samples};
use crate::trace::{durations, span_id, Span, Tracer};
use crate::{Outcome, Run};

/// Distinct point lists each caller cycles through.
const LISTS: usize = 8;
/// The §6 question's list length for the local stub (X1's middle row).
const LOCAL_POINTS: usize = 64;
/// The remote fitter's list length: large enough that marshalling and
/// bytes dominate the call.
const RPC_POINTS: usize = 1024;
/// Connection slots on the wire workloads, and callers on `rpc-echo`: the
/// host has two cores, and load comes from one process.
const CALLERS: usize = 2;
/// Callers on `rpc-fitter`. With two, each run settles into one of two
/// phase-locked modes for its whole length, about half the runs each:
/// p99 near 1.5 ms, or near 5.4 ms when requests keep meeting the server
/// reactor's 5 ms idle park, with p50 and capacity moving by a third
/// alongside. No median over runs of such a metric is steady. One caller
/// holds one mode; `rpc-echo` keeps two callers.
const FITTER_CALLERS: usize = 1;
/// `rpc-echo`'s offered rate.
const ECHO_RATE: f64 = 1000.0;
/// Segments of a call workload's measured pass; a tick (see [`Ticks`])
/// runs between each two.
const SEGMENTS: usize = 42;
/// The stretch of `local-fitter`'s pass each window of
/// [`Outcome::set_quietest`] covers.
const QUIET_WINDOW: Duration = Duration::from_millis(100);
/// A generator whose tail lag exceeds one mean inter-arrival gap of a
/// caller has fallen behind its schedule.
const LAG_LIMIT: Duration = Duration::from_millis(2);

/// Seeded point lists whose coordinates are exact in `f32`, so values
/// that cross the wire as single floats come back equal.
fn point_lists(seed: u64, n: usize) -> Vec<MValue> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coord = || MValue::Real(f64::from(rng.gen_range(0u32..4096)) / 4.0);
    (0..LISTS)
        .map(|_| {
            MValue::List(
                (0..n)
                    .map(|_| MValue::Record(vec![coord(), coord()]))
                    .collect(),
            )
        })
        .collect()
}

/// Writes call id `id` into a call's inputs in place: an echo payload
/// becomes `id`, a point list's first x becomes `id`. Every call then
/// carries distinct inputs and the servant can tell which call it
/// serves. Ids stay below 2^24, where `f32` is exact.
fn stamp(v: &mut MValue, id: u64) {
    match v {
        MValue::Record(items) => match items.first_mut() {
            Some(MValue::Int(i)) => *i = i128::from(id),
            Some(list) => stamp(list, id),
            None => {}
        },
        MValue::List(pts) => {
            if let Some(MValue::Record(p)) = pts.first_mut() {
                p[0] = MValue::Real(id as f64);
            }
        }
        _ => {}
    }
}

/// The call id a stamped list or an echo payload carries.
fn call_id(args: &MValue) -> Option<u64> {
    let MValue::Record(items) = args else {
        return None;
    };
    match items.first()? {
        MValue::Int(i) => u64::try_from(*i).ok(),
        MValue::List(pts) => match pts.first()? {
            MValue::Record(p) => match p.first()? {
                MValue::Real(x) => Some(*x as u64),
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

/// Whether `out` is the Java-side `Line` result for `list`: the first
/// and last points, as `c_fitter_impl` computes them. Compares in place
/// so the check allocates nothing inside the measured loop.
fn is_line_of(out: &MValue, list: &MValue) -> bool {
    let (MValue::Record(o), MValue::List(pts)) = (out, list) else {
        return false;
    };
    let [MValue::Record(line)] = o.as_slice() else {
        return false;
    };
    matches!(line.as_slice(), [a, b] if Some(a) == pts.first() && Some(b) == pts.last())
}

/// Checks the expectation [`is_line_of`] encodes against `c_fitter_impl`
/// itself on every list.
fn check_lines_against_impl(lists: &[MValue]) -> Result<(), String> {
    for list in lists {
        let line = c_fitter_impl(MValue::Record(vec![list.clone()]))?;
        if !is_line_of(&MValue::Record(vec![line]), list) {
            return Err("c_fitter_impl disagrees with the expected line".into());
        }
    }
    Ok(())
}

/// Counters read around a measured pass.
struct Probes {
    alloc: AllocCount,
    cpu_us: f64,
    host: HostCpu,
}

impl Probes {
    fn start() -> Result<Probes, String> {
        Ok(Probes {
            alloc: AllocCount::now(),
            cpu_us: cpu_us()?,
            host: HostCpu::now()?,
        })
    }

    /// Records per-call allocation and CPU figures for `calls` calls.
    fn finish(self, calls: u64, out: &mut Outcome) -> Result<(), String> {
        let a = AllocCount::now().since(self.alloc);
        let n = calls.max(1) as f64;
        out.set("alloc.per_call", a.allocations as f64 / n);
        out.set("alloc.bytes_per_call", a.bytes as f64 / n);
        out.set("process.cpu_us_per_call", (cpu_us()? - self.cpu_us) / n);
        out.set("process.threads", threads()? as f64);
        out.set_steal(HostCpu::now()?.steal_pct_since(self.host));
        Ok(())
    }
}

/// Builds a fixture, returning it and the seconds the build took.
fn timed<F>(build: impl FnOnce() -> Result<F, String>) -> Result<(F, f64), String> {
    let t = Instant::now();
    let f = build()?;
    Ok((f, t.elapsed().as_secs_f64()))
}

/// Seconds for each measured pass: the whole run, or half of it for the
/// untraced and half for the traced pass.
fn pass_seconds(run: &Run) -> f64 {
    if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    }
}

/// Runs a measured pass as [`SEGMENTS`] segments, each a call
/// `segment(k, n)` for the `k`-th of `n` equal parts of the pass, with a
/// tick between each two, in this thread, while no call is in flight. A
/// pass without ticks (a traced run's, which reports no end-to-end
/// metric) runs as one segment. Returns the segments' logs.
fn segmented(
    mut ticks: Option<&mut Ticks>,
    out: &mut Outcome,
    mut segment: impl FnMut(usize, usize) -> CallerLog,
) -> Result<Vec<CallerLog>, String> {
    let n = if ticks.is_some() { SEGMENTS } else { 1 };
    let mut logs = Vec::with_capacity(n);
    for k in 0..n {
        if k > 0 {
            if let Some(t) = ticks.as_deref_mut() {
                t.tick(out)?;
            }
        }
        logs.push(segment(k, n));
    }
    Ok(logs)
}

fn span_median_us(spans: &[Span], name: &str) -> f64 {
    let mut d = durations(spans, name);
    d.sort_unstable();
    quantile_sorted(&d, 0.5) as f64 / 1e3
}

// ---------------------------------------------------------------- local

struct LocalFixture {
    stub: FunctionStub,
    lists: Vec<MValue>,
    pairs: Pairs,
}

fn local_fixture(seed: u64) -> Result<LocalFixture, String> {
    let mut s = fitter_session().map_err(|e| e.to_string())?;
    let stub = s
        .function_stub("JavaIdeal", "fitter")
        .map_err(|e| e.to_string())?;
    let left = s.mtype("JavaIdeal").map_err(|e| e.to_string())?;
    let right = s.mtype("fitter").map_err(|e| e.to_string())?;
    let mut g = s.graph().clone();
    let lists = point_lists(seed, LOCAL_POINTS);
    check_lines_against_impl(&lists)?;
    Ok(LocalFixture {
        stub,
        lists,
        pairs: Pairs {
            graph: g.snapshot(),
            pairs: vec![(left, right)],
        },
    })
}

/// One local call with spans: the stub's two conversions and the native
/// implementation, under one `call` root.
fn traced_local_call(
    fx: &LocalFixture,
    tr: &Tracer,
    spans: &mut Vec<Span>,
    id: u64,
    list: &MValue,
) -> Result<MValue, String> {
    tr.span(spans, id, 1, 0, "call", "call", |spans, root| {
        let args = tr.span(spans, id, 2, root, "stubgen", "convert_args", |_, _| {
            fx.stub.convert_args(std::slice::from_ref(list))
        });
        let args = args.map_err(|e| e.to_string())?;
        let out_r = tr.span(spans, id, 3, root, "servant", "native", |_, _| {
            c_fitter_impl(args)
        })?;
        tr.span(spans, id, 4, root, "stubgen", "convert_result", |_, _| {
            fx.stub.convert_result(&out_r)
        })
        .map_err(|e| e.to_string())
    })
}

/// One local caller calling back to back for `secs`, its call ids
/// counting up from `first_id`.
fn local_pass(
    fx: &LocalFixture,
    lists: &mut [MValue],
    first_id: u64,
    secs: f64,
    tracer: Option<&Tracer>,
) -> CallerLog {
    let mut log = CallerLog::default();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    // A pass shorter than a window makes one window of itself.
    let window_len = QUIET_WINDOW.min(Duration::from_secs_f64(secs));
    let (mut window_start, mut window) = (t0, Vec::with_capacity(8192));
    for id in first_id.. {
        if Instant::now() >= deadline {
            break;
        }
        let list = &mut lists[id as usize % LISTS];
        stamp(list, id);
        let t = Instant::now();
        let r = match tracer {
            None => fx
                .stub
                .call(std::slice::from_ref(list), &c_fitter_impl)
                .map_err(|e| e.to_string()),
            Some(tr) => traced_local_call(fx, tr, &mut log.spans, id, list),
        };
        let done = Instant::now();
        let ns = (done - t).as_nanos() as u64;
        log.lat.push(ns);
        log.attempted += 1;
        log.failed += u64::from(!matches!(&r, Ok(v) if is_line_of(v, list)));
        window.push(ns);
        let span = done - window_start;
        if span >= window_len {
            let mid = window.len() / 2;
            let p50_us = *window.select_nth_unstable(mid).1 as f64 / 1e3;
            log.windows
                .push((p50_us, window.len() as f64 / span.as_secs_f64()));
            window.clear();
            window_start = done;
        }
    }
    log.busy_s = t0.elapsed().as_secs_f64();
    log
}

/// `local-fitter`: one closed-loop caller runs the fitter's
/// `FunctionStub::call` on 64-point lists against the native
/// implementation; no wire, no sockets (the §6 question, X1's local row).
pub fn local_fitter(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut fx, setup_s) = timed(|| local_fixture(run.seed))?;
    let mut lists = std::mem::take(&mut fx.lists);
    let warm = local_pass(&fx, &mut lists, 0, 0.2, None);
    if warm.failed > 0 {
        return Err(format!(
            "{} of {} warm-up calls failed",
            warm.failed, warm.attempted
        ));
    }
    let mut next_id = warm.attempted;

    let secs = pass_seconds(run);
    let mut ticks =
        (!run.trace).then(|| Ticks::new(&fx.pairs, setup_s, || local_fixture(run.seed).map(drop)));
    let probes = Probes::start()?;
    let logs = segmented(ticks.as_mut(), &mut out, |_, n| {
        let log = local_pass(&fx, &mut lists, next_id, secs / n as f64, None);
        next_id += log.attempted;
        log
    })?;
    if let Some(t) = ticks {
        t.finish(&mut out)?;
    }
    let log = CallerLog::merge(logs);
    let calls = log.attempted;
    probes.finish(calls, &mut out)?;
    out.attempted += log.attempted;
    out.failed += log.failed;
    let plain_p50 = out.set_quietest(run, &log.lat, &log.windows, calls as f64 / log.busy_s)?;

    if run.trace {
        let tr = Tracer::new();
        let traced = local_pass(&fx, &mut lists, next_id, secs, Some(&tr));
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        let t = traced.lat.summary();
        out.set("obs.trace_overhead", t.p50_us / plain_p50);
        let spans = traced.spans;
        out.set(
            "stubgen.convert_args_us",
            span_median_us(&spans, "convert_args"),
        );
        out.set(
            "stubgen.convert_result_us",
            span_median_us(&spans, "convert_result"),
        );
        out.set("servant.native_us", span_median_us(&spans, "native"));
        out.set_span_self_times(run, &spans)?;
    }
    Ok(out)
}

// ------------------------------------------------------------------ rpc

/// The servant-side half of tracing: when on, the servant wrapper
/// records a span for each dispatch under the call's `invoke` span. The
/// client's traced calls record through the same `tracer`, so both
/// sides' spans share one clock.
struct ServantTrace {
    on: AtomicBool,
    tracer: Tracer,
}

/// Wraps `inner` so a traced pass sees the servant's own time.
fn traced_servant(
    hook: Arc<ServantTrace>,
    inner: impl Fn(MValue) -> Result<MValue, RuntimeError> + Send + Sync + 'static,
) -> Arc<dyn Servant> {
    Arc::new(move |_: &str, args: MValue| {
        if !hook.on.load(Ordering::Relaxed) {
            return inner(args);
        }
        let id = call_id(&args).unwrap_or(0);
        let mut spans = Vec::with_capacity(1);
        let r = hook.tracer.span(
            &mut spans,
            id,
            4,
            span_id(id, 3),
            "servant",
            "servant",
            |_, _| inner(args),
        );
        hook.tracer.absorb(spans);
        r
    })
}

/// How a workload marshals: an untraced call runs `RemoteRef::invoke` or
/// the remote stub, and a traced one takes the same path apart into
/// public-layer calls.
enum Marshal {
    /// `WireOp` encode/decode around `RemoteRef::invoke_body_with`: what
    /// `RemoteRef::invoke` runs.
    Interpretive,
    /// The fitter's `RemoteStub`, and the emitted native stubs around
    /// `invoke_body_with` that it runs on the native tier.
    Native {
        stub: RemoteStub,
        encode: NativeEncodeInvocationFn,
        decode: NativeDecodeFn,
        reply_index: usize,
    },
}

struct RpcFixture {
    server: TcpServer,
    remote: Arc<RemoteRef>,
    operation: &'static str,
    op: WireOp,
    idempotent: bool,
    marshal: Marshal,
    hook: Arc<ServantTrace>,
    pairs: Pairs,
}

impl RpcFixture {
    /// Serves `op` from `servant` on the loopback interface (the
    /// server's default reactor engine) and connects a 2-slot pool.
    fn connect(
        operation: &'static str,
        op: WireOp,
        servant: Arc<dyn Servant>,
        hook: Arc<ServantTrace>,
        pairs: Pairs,
    ) -> Result<RpcFixture, String> {
        let rt = |e: RuntimeError| e.to_string();
        let mut ops = HashMap::new();
        ops.insert(operation.to_string(), op.clone());
        let d = Arc::new(Dispatcher::new());
        d.register(b"bench".to_vec(), WireServant::new(servant, ops.clone()));
        let server = TcpServer::bind("127.0.0.1:0", d).map_err(rt)?;
        let pool = ConnectionPool::connect(server.addr(), CALLERS).map_err(rt)?;
        let remote = Arc::new(RemoteRef::new(
            Arc::new(pool),
            b"bench".to_vec(),
            ops,
            Endian::Little,
        ));
        let idempotent = remote.is_idempotent(operation);
        Ok(RpcFixture {
            server,
            remote,
            operation,
            op,
            idempotent,
            marshal: Marshal::Interpretive,
            hook,
            pairs,
        })
    }

    /// One untraced call: the remote stub when there is one, else
    /// `RemoteRef::invoke`.
    fn call(&self, args: &MValue) -> Result<MValue, String> {
        match &self.marshal {
            Marshal::Native { stub, .. } => {
                let MValue::Record(items) = args else {
                    return Err("fitter args are a record".into());
                };
                stub.call(items).map_err(|e| e.to_string())
            }
            Marshal::Interpretive => self
                .remote
                .invoke(self.operation, args)
                .map_err(|e| e.to_string()),
        }
    }

    /// One traced call: encode, invoke and decode spans under a `call`
    /// root; the servant wrapper adds its span under `invoke`.
    fn traced_call(&self, spans: &mut Vec<Span>, id: u64, args: &MValue) -> Result<MValue, String> {
        let tr = &self.hook.tracer;
        let endian = self.remote.endian();
        tr.span(spans, id, 1, 0, "call", "call", |spans, root| {
            let body = tr.span(spans, id, 2, root, "wire", "encode", |_, _| {
                let mut enc = self.remote.buffers().encoder(endian);
                match &self.marshal {
                    Marshal::Interpretive => self
                        .op
                        .encode_with(enc.writer(), self.op.args_ty, args)
                        .map_err(|e| e.to_string()),
                    Marshal::Native {
                        encode,
                        reply_index,
                        ..
                    } => {
                        let MValue::Record(items) = args else {
                            return Err("fitter args are a record".to_string());
                        };
                        encode(enc.writer(), items, *reply_index).map_err(|e| e.to_string())
                    }
                }?;
                Ok(enc.finish())
            })?;
            let (reply, endian) = tr
                .span(spans, id, 3, root, "runtime", "invoke", |_, _| {
                    self.remote.invoke_body_with(
                        self.operation,
                        body,
                        self.idempotent,
                        self.remote.options(),
                    )
                })
                .map_err(|e| e.to_string())?;
            tr.span(spans, id, 5, root, "wire", "decode", |_, _| {
                match &self.marshal {
                    Marshal::Interpretive => self
                        .op
                        .decode(self.op.result_ty, &reply, endian)
                        .map_err(|e| e.to_string()),
                    Marshal::Native { decode, .. } => {
                        decode(&mut CdrReader::new(&reply, endian)).map_err(|e| e.to_string())
                    }
                }
            })
        })
    }

    fn set_tracing(&self, on: bool) {
        self.remote.metrics().set_tracing(on);
        self.server.metrics().set_tracing(on);
        self.hook.on.store(on, Ordering::Relaxed);
    }

    /// Zeroes both sides' counters and histograms after warm-up.
    fn reset_metrics(&self) {
        self.remote.metrics().reset();
        self.server.metrics().reset();
    }

    /// Records the runtime's own view of a pass of `calls` calls.
    fn record_runtime(&self, calls: u64, out: &mut Outcome) {
        let client: &MetricsRegistry = self.remote.metrics();
        let server: &MetricsRegistry = self.server.metrics();
        let (c, s) = (client.snapshot(), server.snapshot());
        let n = calls.max(1) as f64;
        out.set(
            "runtime.client_p50_us",
            client
                .client_histogram(self.operation)
                .snapshot()
                .quantile(0.5) as f64,
        );
        out.set(
            "runtime.server_p50_us",
            server
                .server_histogram(self.operation)
                .snapshot()
                .quantile(0.5) as f64,
        );
        out.set(
            "runtime.bytes_per_call",
            (c.bytes_sent + c.bytes_received) as f64 / n,
        );
        out.set(
            "runtime.pool_reuse_ratio",
            c.pool_reuses as f64 / (c.pool_reuses + c.pool_misses).max(1) as f64,
        );
        out.set("runtime.retries", c.retries as f64);
        out.set("runtime.timeouts", c.timeouts as f64);
        out.set(
            "runtime.sheds",
            (c.sheds + s.sheds + s.brownout_sheds) as f64,
        );
        if matches!(self.marshal, Marshal::Native { .. }) {
            out.set("stubgen.native_ratio", c.native_calls as f64 / n);
        }
    }
}

fn echo_fixture() -> Result<RpcFixture, String> {
    let mut g = MtypeGraph::new();
    let i = g.integer(IntRange::signed_bits(64));
    let rec = g.record(vec![i]);
    let graph = g.snapshot();
    let op = WireOp::new(graph.clone(), rec, rec).idempotent();
    let hook = Arc::new(ServantTrace {
        on: AtomicBool::new(false),
        tracer: Tracer::new(),
    });
    let servant = traced_servant(hook.clone(), Ok);
    let pairs = Pairs {
        graph,
        pairs: vec![(rec, rec)],
    };
    RpcFixture::connect("echo", op, servant, hook, pairs)
}

fn fitter_fixture() -> Result<RpcFixture, String> {
    register_native_stubs();
    let mut g = MtypeGraph::new();
    let (java, cfun) = fitter_pair(&mut g);
    let corr = Comparer::new(&g, &g)
        .compare(java, cfun, Mode::Equivalence)
        .map_err(|m| format!("fitter pair: {}", m.reason))?;
    let plan = Arc::new(CoercionPlan::new(
        &g,
        &g,
        corr,
        RuleSet::full(),
        Mode::Equivalence,
    ));
    // The server speaks the C side: the invocation minus its reply port,
    // and the output record.
    let r = g.real(RealPrecision::SINGLE);
    let pt = g.record(vec![r, r]);
    let list = g.list_of(pt);
    let c_args = g.record(vec![list]);
    let c_out = g.record(vec![pt, pt]);
    let graph = g.snapshot();
    let op = WireOp::new(graph.clone(), c_args, c_out);
    let hook = Arc::new(ServantTrace {
        on: AtomicBool::new(false),
        tracer: Tracer::new(),
    });
    let servant = traced_servant(hook.clone(), |args| {
        c_fitter_impl(args).map_err(RuntimeError::Application)
    });
    let pairs = Pairs {
        graph,
        pairs: vec![(java, cfun)],
    };
    let mut fx = RpcFixture::connect("fit", op, servant, hook, pairs)?;

    let shapes = FunctionStub::new(plan.clone()).map_err(|e| e.to_string())?;
    let (args_key, result_key) = native_keys_for(&shapes);
    let registry = NativeStubRegistry::global();
    let encode = registry.lookup(&args_key).and_then(|s| s.encode_invocation);
    let decode = registry.lookup(&result_key).and_then(|s| s.decode);
    let (Some(encode), Some(decode)) = (encode, decode) else {
        return Err("the fitter's emitted native stubs are not registered".into());
    };
    let reply_index = shapes.left_shape().reply_index;
    let stub = RemoteStub::new(shapes, fx.remote.clone(), "fit");
    if stub.dispatch_tier() != "native" {
        return Err(format!(
            "fitter stub runs the {} tier",
            stub.dispatch_tier()
        ));
    }
    fx.marshal = Marshal::Native {
        stub,
        encode,
        decode,
        reply_index,
    };
    Ok(fx)
}

/// What one caller saw in one pass.
#[derive(Default)]
struct CallerLog {
    lat: Samples,
    lag: Samples,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
    /// `local-fitter`: each [`QUIET_WINDOW`]'s median latency in us and
    /// its calls per second.
    windows: Vec<(f64, f64)>,
    /// Seconds the pass took. Closed loop: from its start to its last
    /// completion. Open loop: the schedule's span, or up to the last send
    /// if the generator ran later than that (a backlog).
    busy_s: f64,
}

impl CallerLog {
    fn merge(logs: Vec<CallerLog>) -> CallerLog {
        let mut all = CallerLog::default();
        for l in logs {
            all.lat.extend(l.lat);
            all.lag.extend(l.lag);
            all.attempted += l.attempted;
            all.failed += l.failed;
            all.spans.extend(l.spans);
            all.windows.extend(l.windows);
            all.busy_s += l.busy_s;
        }
        all
    }
}

/// One caller's inputs, cycled through and stamped per call.
struct CallerInputs {
    args: Vec<MValue>,
}

impl CallerInputs {
    /// The inputs for call `id`, stamped with it.
    fn next(&mut self, id: u64) -> &MValue {
        let n = self.args.len();
        let args = &mut self.args[id as usize % n];
        stamp(args, id);
        args
    }
}

/// Runs one call, traced (its spans into `spans`) or not.
fn one_call(
    fx: &RpcFixture,
    traced: bool,
    spans: &mut Vec<Span>,
    id: u64,
    args: &MValue,
) -> Result<MValue, String> {
    if traced {
        fx.traced_call(spans, id, args)
    } else {
        fx.call(args)
    }
}

/// Whether a reply is right: the fitter's line for a point list, the
/// payload itself for an echo.
fn reply_ok(args: &MValue, reply: &Result<MValue, String>) -> bool {
    match (args, reply) {
        (MValue::Record(items), Ok(out)) => match items.first() {
            Some(list @ MValue::List(_)) => is_line_of(out, list),
            _ => out == args,
        },
        _ => false,
    }
}

/// A closed loop: one thread per entry of `inputs` calls back to back
/// for `secs`; caller `c`'s `k`-th call has id `first_id + k * callers + c`.
fn closed_pass(
    fx: &RpcFixture,
    inputs: &mut [CallerInputs],
    secs: f64,
    traced: bool,
    first_id: u64,
) -> CallerLog {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let stride = inputs.len() as u64;
    let logs: Vec<CallerLog> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter_mut()
            .enumerate()
            .map(|(c, inputs)| {
                s.spawn(move || {
                    let mut log = CallerLog::default();
                    let mut k = 0u64;
                    while Instant::now() < deadline {
                        let id = first_id + k * stride + c as u64;
                        k += 1;
                        let args = inputs.next(id);
                        let t = Instant::now();
                        let r = one_call(fx, traced, &mut log.spans, id, args);
                        log.lat.push(t.elapsed().as_nanos() as u64);
                        log.attempted += 1;
                        log.failed += u64::from(!reply_ok(args, &r));
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let mut log = CallerLog::merge(logs);
    log.busy_s = t0.elapsed().as_secs_f64();
    log
}

/// An open loop: one thread per entry of `inputs`, each following its
/// own seeded Poisson schedule from `schedules` for the calls due in
/// `[from, to)`, shifted to start now. Each call's latency runs from
/// when it was due, so a stall also counts against the calls queued
/// behind it. Caller `c`'s `k`-th call of the whole schedule has id
/// `first_id + k * callers + c`.
fn open_pass(
    fx: &RpcFixture,
    inputs: &mut [CallerInputs],
    schedules: &[Vec<Duration>],
    (from, to): (Duration, Duration),
    traced: bool,
    first_id: u64,
) -> CallerLog {
    let stride = inputs.len() as u64;
    let start = Instant::now() + Duration::from_millis(5);
    let logs: Vec<CallerLog> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .zip(inputs.iter_mut())
            .enumerate()
            .map(|(c, (due, inputs))| {
                s.spawn(move || {
                    let mut log = CallerLog::default();
                    let first = due.partition_point(|&d| d < from);
                    let last = due.partition_point(|&d| d < to);
                    for (k, &offset) in due.iter().enumerate().take(last).skip(first) {
                        let due_at = start + (offset - from);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        log.lag.push((sent - due_at).as_nanos() as u64);
                        log.busy_s = (sent - start).as_secs_f64();
                        let id = first_id + k as u64 * stride + c as u64;
                        let args = inputs.next(id);
                        let r = one_call(fx, traced, &mut log.spans, id, args);
                        let done = Instant::now();
                        log.lat.push((done - due_at).as_nanos() as u64);
                        log.attempted += 1;
                        log.failed += u64::from(!reply_ok(args, &r));
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect::<Vec<_>>()
    });
    let busy_s = logs.iter().map(|l| l.busy_s).fold(0.0, f64::max);
    let mut log = CallerLog::merge(logs);
    log.busy_s = busy_s.max((to - from).as_secs_f64());
    log
}

/// Shared body of the two wire workloads.
fn rpc_workload(
    run: &Run,
    build: fn() -> Result<RpcFixture, String>,
    mut inputs: Vec<CallerInputs>,
    open_loop: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (fx, setup_s) = timed(build)?;
    // Warm the connections, buffers and caches, then start counting.
    let warm = closed_pass(&fx, &mut inputs, 0.2, false, 1);
    if warm.failed > 0 {
        return Err(format!(
            "{} of {} warm-up calls failed",
            warm.failed, warm.attempted
        ));
    }
    fx.reset_metrics();
    let first_id = 1 + (warm.attempted + 1) * inputs.len() as u64;

    let secs = pass_seconds(run);
    let span = Duration::from_secs_f64(secs);
    let schedules = if open_loop {
        caller_schedules(run.seed, ECHO_RATE, inputs.len(), span)
    } else {
        Vec::new()
    };
    let offered: usize = schedules.iter().map(Vec::len).sum();
    let stride = inputs.len() as u64;
    let mut next_id = first_id;
    let mut ticks = (!run.trace).then(|| Ticks::new(&fx.pairs, setup_s, || build().map(drop)));
    let probes = Probes::start()?;
    let logs = segmented(ticks.as_mut(), &mut out, |k, n| {
        if open_loop {
            // The schedule's k-th part, shifted to start after the tick.
            let at = |k: usize| span * k as u32 / n as u32;
            open_pass(
                &fx,
                &mut inputs,
                &schedules,
                (at(k), at(k + 1)),
                false,
                first_id,
            )
        } else {
            let log = closed_pass(&fx, &mut inputs, secs / n as f64, false, next_id);
            next_id += (log.attempted + 1) * stride;
            log
        }
    })?;
    if let Some(t) = ticks {
        t.finish(&mut out)?;
    }
    let log = CallerLog::merge(logs);
    let calls = log.lat.len() as u64;
    probes.finish(calls, &mut out)?;
    fx.record_runtime(calls, &mut out);
    out.attempted += log.attempted;
    out.failed += log.failed;
    let plain_p50 = out.set_latency(run, &log.lat);
    out.set("calls_per_s", calls as f64 / log.busy_s);
    if open_loop {
        let lag = log.lag.summary();
        out.set("gen.lag_p50_us", lag.p50_us);
        out.set("gen.lag_p99_us", lag.tail_us);
        println!(
            "{}: offered {offered} calls ({:.1}/s), completed {calls}; generator lag p50 {:.1} us, p{} {:.1} us",
            run.workload,
            offered as f64 / secs,
            lag.p50_us,
            lag.tail_q * 100.0,
            lag.tail_us
        );
        if lag.tail_us > LAG_LIMIT.as_secs_f64() * 1e6 {
            println!(
                "{}: FLAG: the generator fell behind its schedule (lag p{} {:.0} us > {} us)",
                run.workload,
                lag.tail_q * 100.0,
                lag.tail_us,
                LAG_LIMIT.as_micros()
            );
        }
    }

    if run.trace {
        fx.set_tracing(true);
        let first_id = first_id.max(next_id) + (offered as u64 + 1) * stride;
        let traced = if open_loop {
            let schedules = caller_schedules(run.seed ^ 0x7AC3, ECHO_RATE, inputs.len(), span);
            open_pass(
                &fx,
                &mut inputs,
                &schedules,
                (Duration::ZERO, span),
                true,
                first_id,
            )
        } else {
            closed_pass(&fx, &mut inputs, secs, true, first_id)
        };
        fx.set_tracing(false);
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        let t = traced.lat.summary();
        out.set("obs.trace_overhead", t.p50_us / plain_p50);
        let mut spans = traced.spans;
        spans.extend(fx.hook.tracer.take());
        out.set("wire.encode_us", span_median_us(&spans, "encode"));
        out.set("wire.decode_us", span_median_us(&spans, "decode"));
        out.set_span_self_times(run, &spans)?;
    }
    Ok(out)
}

/// `rpc-echo`: an open loop at 1 000 calls/s from two threads over a
/// 2-slot pool, each call a one-field i64 echo.
pub fn rpc_echo(run: &Run) -> Result<Outcome, String> {
    let inputs = (0..CALLERS)
        .map(|_| CallerInputs {
            args: vec![MValue::Record(vec![MValue::Int(0)])],
        })
        .collect();
    rpc_workload(run, echo_fixture, inputs, true)
}

/// `rpc-fitter`: a closed loop running the fitter's `RemoteStub` on the
/// native tier with 1 024-point lists (see [`FITTER_CALLERS`]).
pub fn rpc_fitter(run: &Run) -> Result<Outcome, String> {
    let inputs = (0..FITTER_CALLERS as u64)
        .map(|c| {
            let lists = point_lists(run.seed ^ (c + 1) << 32, RPC_POINTS);
            check_lines_against_impl(&lists)?;
            Ok(CallerInputs {
                args: lists.into_iter().map(|l| MValue::Record(vec![l])).collect(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    rpc_workload(run, fitter_fixture, inputs, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::self_times;

    #[test]
    fn a_servant_span_is_subtracted_from_its_invoke_parent() {
        let fx = echo_fixture().expect("echo fixture");
        // The traced calls come well after the fixture (and its tracer)
        // was made, as in a run.
        std::thread::sleep(Duration::from_millis(50));
        fx.set_tracing(true);
        let mut spans = Vec::new();
        for id in 1..=20u64 {
            let args = MValue::Record(vec![MValue::Int(i128::from(id))]);
            let r = fx.traced_call(&mut spans, id, &args);
            assert!(reply_ok(&args, &r), "{r:?}");
        }
        fx.set_tracing(false);
        let client = spans.clone();
        spans.extend(fx.hook.tracer.take());
        assert_eq!(spans.len(), client.len() + 20, "one servant span per call");
        for s in spans.iter().filter(|s| s.layer == "servant") {
            let invoke = client
                .iter()
                .find(|c| c.id == s.parent)
                .expect("the servant span's parent is the call's invoke span");
            assert_eq!((invoke.trace, invoke.name), (s.trace, "invoke"));
            assert!(invoke.start_ns <= s.start_ns && s.end_ns <= invoke.end_ns);
        }
        let st = self_times(&spans);
        let mut runtime = st["runtime"].clone();
        let mut expect: Vec<u64> = client
            .iter()
            .filter(|c| c.name == "invoke")
            .map(|c| {
                let servant = spans
                    .iter()
                    .find(|s| s.parent == c.id)
                    .map_or(0, |s| s.end_ns - s.start_ns);
                c.end_ns - c.start_ns - servant
            })
            .collect();
        runtime.sort_unstable();
        expect.sort_unstable();
        assert_eq!(runtime, expect);
    }
}
