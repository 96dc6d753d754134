//! `serial-table4` and `serial-recorded`: one binding, closed loop,
//! round-robin over Table 4's four procedures through the public metered
//! call. A call's virtual latency is the simulated time it took. The
//! recorded variant runs the same calls on a `Session::recorder()`
//! runtime and finishes and encodes the log at the end of each pass.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use firefly::cost::CostModel;
use firefly::time::Nanos;
use idl::wire::Value;
use kernel::thread::Thread;
use lrpc::{Binding, CallError, Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};
use replay::{RecordLog, Session};

use crate::layers::{self, Layers};
use crate::spans::Spans;
use crate::stats::{ns_since, quantile, Checks, Rng, VirtStats};
use crate::{Cfg, Measured, Pass};

/// Table 4's four test procedures.
pub const TABLE4_IDL: &str = r#"
    interface Table4 {
        procedure Null();
        procedure Add(a: int32, b: int32) -> int32;
        procedure BigIn(data: in bytes[200] noninterpreted);
        procedure BigInOut(data: inout bytes[200] noninterpreted);
    }
"#;

pub const PROCS: [&str; 4] = ["Null", "Add", "BigIn", "BigInOut"];

/// Per procedure: the host call and compiled-stub layer metrics.
const PROC_LAYERS: [(&str, &str); 4] = [
    ("lrpc.call.host_ns.Null", "idl.stub.host_ns.Null"),
    ("lrpc.call.host_ns.Add", "idl.stub.host_ns.Add"),
    ("lrpc.call.host_ns.BigIn", "idl.stub.host_ns.BigIn"),
    ("lrpc.call.host_ns.BigInOut", "idl.stub.host_ns.BigInOut"),
];

/// The reply procedure `proc` owes to `args`: return value and outs.
fn expected(proc: usize, args: &[Value]) -> (Option<Value>, Vec<(usize, Value)>) {
    match (proc, args) {
        (1, [Value::Int32(a), Value::Int32(b)]) => (Some(Value::Int32(a.wrapping_add(*b))), vec![]),
        (3, [data]) => (None, vec![(0, data.clone())]),
        _ => (None, vec![]),
    }
}

/// Calls per pass; the virtual statistics cover one whole pass.
const CALLS: usize = 100_000;
const SMOKE_CALLS: usize = 2_000;

/// Calls per host sample window: short enough that quiet windows exist
/// while the host is busy, long enough that p99 has 20 samples beyond it.
const WINDOW_CALLS: usize = 2_000;

/// Seeded argument sets the calls cycle through.
const ARG_SETS: usize = 64;

/// Set-ups timed per pass (set-up is sub-millisecond).
const SETUP_REPS: usize = 10;

fn handlers() -> Vec<Handler> {
    vec![
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                return Err(CallError::ServerFault("Add wants two int32".into()));
            };
            Ok(Reply::value(Value::Int32(a.wrapping_add(*b))))
        }),
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())),
        Box::new(|_: &ServerCtx, args: &[Value]| Ok(Reply::none().with_out(0, args[0].clone()))),
    ]
}

struct Env {
    rt: Arc<LrpcRuntime>,
    thread: Arc<Thread>,
    binding: Binding,
    session: Option<Arc<Session>>,
}

/// What a recorded pass adds.
struct ReplayStats {
    /// Events the runtime recorded.
    events: u64,
    log_bytes: u64,
    finish_ms: f64,
}

struct SerialPass {
    pass: Pass,
    /// Trace ids of steady-state Null calls, for the flight check.
    null_traces: Vec<u64>,
    replay: Option<ReplayStats>,
}

struct Serial {
    calls: usize,
    recorded: bool,
    /// `sets[k][proc]`: the arguments of procedure `proc` in round `k`.
    sets: Vec<Vec<Vec<Value>>>,
}

impl Serial {
    fn new(cfg: &Cfg, recorded: bool) -> Serial {
        let mut rng = Rng::new(cfg.seed, 0x5e41);
        let sets = (0..ARG_SETS)
            .map(|_| {
                vec![
                    vec![],
                    vec![Value::Int32(rng.int32()), Value::Int32(rng.int32())],
                    vec![Value::Bytes(rng.bytes(200))],
                    vec![Value::Bytes(rng.bytes(200))],
                ]
            })
            .collect();
        Serial {
            calls: if cfg.smoke { SMOKE_CALLS } else { CALLS },
            recorded,
            sets,
        }
    }

    fn setup(&self) -> Env {
        let session = self.recorded.then(Session::recorder);
        let rt = match &session {
            Some(s) => TestRuntime::new().session(Arc::clone(s)).build(),
            None => TestRuntime::new().build(),
        };
        let server = rt.kernel().create_domain("table4-server");
        rt.export(&server, TABLE4_IDL, handlers())
            .expect("Table 4 interface exports");
        let client = rt.kernel().create_domain("table4-client");
        let thread = rt.kernel().spawn_thread(&client);
        let binding = rt
            .import(&client, "Table4")
            .expect("Table 4 interface imports");
        Env {
            rt,
            thread,
            binding,
            session,
        }
    }

    fn pass(
        &self,
        env: &Env,
        metered: bool,
        mut spans: Option<&mut Spans>,
        checks: &mut Checks,
    ) -> SerialPass {
        let null_model = CostModel::cvax_firefly().lrpc_null_serial();
        let mut virt = Vec::with_capacity(self.calls);
        let mut host_ns = Vec::with_capacity(self.calls);
        let mut failed = 0u64;
        let mut steady = [Nanos::ZERO; 4];
        let mut null_traces = Vec::new();
        let root = spans.as_mut().map_or(0, |s| s.begin("pass", 0, 0));
        for i in 0..self.calls {
            let proc = i % 4;
            let args = &self.sets[(i / 4) % ARG_SETS][proc];
            let span = spans.as_mut().map(|s| s.begin(PROCS[proc], root, i as u64));
            let t = Instant::now();
            let r = if metered {
                env.binding.call_indexed(0, &env.thread, proc, args)
            } else {
                env.binding.call_unmetered(0, &env.thread, proc, args)
            };
            host_ns.push(ns_since(t));
            if let (Some(s), Some(id)) = (spans.as_mut(), span) {
                s.end(id);
            }
            let out = match r {
                Ok(out) => out,
                Err(e) => {
                    failed += 1;
                    checks.ensure(false, || format!("call {i} ({}) failed: {e}", PROCS[proc]));
                    continue;
                }
            };
            let (ret, outs) = expected(proc, args);
            checks.ensure(out.ret == ret && out.outs == outs, || {
                format!(
                    "call {i} ({}) returned {:?}/{:?}",
                    PROCS[proc], out.ret, out.outs
                )
            });
            virt.push(out.elapsed.as_nanos());
            // The first round is cold; every later call of a procedure
            // must cost what the second one did, and Null what the cost
            // model's Table 5 says (the 157.0 us of `bench --phases`).
            if (4..8).contains(&i) {
                steady[proc] = out.elapsed;
                checks.ensure(proc != 0 || out.elapsed == null_model, || {
                    format!(
                        "steady Null took {} virtual ns, model says {}",
                        out.elapsed, null_model
                    )
                });
            } else if i >= 8 {
                checks.ensure(out.elapsed == steady[proc], || {
                    format!(
                        "call {i} ({}) took {} virtual ns, steady state is {}",
                        PROCS[proc], out.elapsed, steady[proc]
                    )
                });
                if proc == 0 && spans.is_some() && null_traces.len() < 1000 {
                    null_traces.push(out.trace.raw());
                }
            }
        }
        if let Some(s) = spans.as_mut() {
            s.end(root);
        }
        let mut busy_s = host_ns.iter().sum::<u64>() as f64 / 1e9;
        let replay = env.session.as_ref().map(|session| {
            let events = session.event_count() as u64;
            let t = Instant::now();
            let log = session.finish();
            let bytes = log.encode();
            let finish_s = t.elapsed().as_secs_f64();
            busy_s += finish_s;
            checks.ensure(RecordLog::decode(&bytes).as_ref() == Ok(&log), || {
                "recorded log does not survive encode/decode".into()
            });
            ReplayStats {
                events,
                log_bytes: bytes.len() as u64,
                finish_ms: finish_s * 1e3,
            }
        });
        SerialPass {
            pass: Pass {
                op_calls: vec![1; host_ns.len()],
                host_ns,
                calls: self.calls as u64,
                failed,
                busy_s,
                window_ops: WINDOW_CALLS,
                virt: VirtStats::of(&virt),
            },
            null_traces,
            replay,
        }
    }
}

pub fn measure(cfg: &Cfg, recorded: bool, checks: &mut Checks) -> Measured {
    let w = Serial::new(cfg, recorded);
    crate::measure(
        cfg,
        checks,
        SETUP_REPS,
        || w.setup(),
        |env, checks| w.pass(env, true, None, checks).pass,
    )
}

/// Untraced metered, unmetered and traced passes on fresh set-ups, plus
/// the stub and validation probes. Returns (attempted, failed) calls.
pub fn trace(
    cfg: &Cfg,
    recorded: bool,
    checks: &mut Checks,
    layers: &mut Layers,
    spans: &mut Spans,
) -> (u64, u64) {
    let w = Serial::new(cfg, recorded);
    let n = w.calls as u64;

    let env = w.setup();
    let a = w.pass(&env, true, None, checks);
    for (proc, &(call_key, stub_key)) in PROC_LAYERS.iter().enumerate() {
        let own: Vec<u64> = a
            .pass
            .host_ns
            .iter()
            .skip(proc)
            .step_by(4)
            .copied()
            .collect();
        layers.set(call_key, quantile(&own, 0.5) as f64, own.len() as u64);
        let args = &w.sets[0][proc];
        let (ret, outs) = expected(proc, args);
        let ns = layers::stub_cycle_ns(&env.binding, proc, args, ret.as_ref(), &outs, checks);
        layers.set(stub_key, ns, 9);
    }
    let validate = layers::validate_ns(&env.rt, std::slice::from_ref(&env.binding), checks);
    layers.set("kernel.validate.host_ns", validate, 9);
    layers.set(
        "lrpc.astack.wait_events",
        env.rt.astack_wait_events() as f64,
        n,
    );
    if let Some(r) = &a.replay {
        layers.set("replay.events_per_call", r.events as f64 / n as f64, n);
        layers.set(
            "replay.log_bytes_per_call",
            r.log_bytes as f64 / n as f64,
            n,
        );
        layers.set("replay.finish_ms", r.finish_ms, 1);
    }
    drop(env);

    let u = w.pass(&w.setup(), false, None, checks);
    let a_p50 = quantile(&a.pass.host_ns, 0.5) as f64;
    layers.set(
        "firefly.meter.host_ns",
        a_p50 - quantile(&u.pass.host_ns, 0.5) as f64,
        n,
    );

    let (b, null_traces, flight) =
        layers::traced_pass(&a.pass, w.calls * 24, checks, layers, |checks| {
            let id = spans.begin("setup", 0, 0);
            let env = w.setup();
            spans.end(id);
            let before = layers::tlb_misses(&env.rt);
            let b = w.pass(&env, true, Some(spans), checks);
            (b.pass, layers::tlb_misses(&env.rt) - before, b.null_traces)
        });
    // Every steady Null call's flight spans add up to Table 5's total.
    let model = CostModel::cvax_firefly().lrpc_null_serial().as_nanos();
    let mut null_totals: HashMap<u64, u64> = null_traces.iter().map(|&t| (t, 0)).collect();
    for s in &flight {
        if let Some(total) = null_totals.get_mut(&s.trace.raw()) {
            *total += s.dur_ns;
        }
    }
    for total in null_totals.into_values() {
        checks.ensure(total == model, || {
            format!("flight spans of a Null call sum to {total} ns, Table 5 says {model}")
        });
    }
    let failed = a.pass.failed + u.pass.failed + b.failed;
    (3 * n, failed)
}
