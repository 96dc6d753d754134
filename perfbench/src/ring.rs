//! `ring-batch`: closed loop, `call_batch` flushes of 16 `Add` calls
//! through an interface that declares `[astacks = 16]`, under the
//! runtime's default configuration. One flush in 64 carries
//! 32 calls, which `call_batch` promises to flush mid-way; today that
//! flush first waits out the whole `AStackPolicy::Wait` timeout on
//! A-stacks held by its own unflushed ring (see README.md), and the
//! benchmark keeps that stall in its host figures. A call's virtual
//! latency is its share of the flush: the flush's simulated time over
//! the calls it carried.

use std::sync::Arc;
use std::time::Instant;

use idl::wire::Value;
use kernel::thread::Thread;
use lrpc::{Binding, Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};

use crate::layers::{self, Layers};
use crate::spans::Spans;
use crate::stats::{ns_since, quantile, Checks, Rng, VirtStats};
use crate::{Cfg, Measured, Pass};

const RING_IDL: &str = r#"
    interface RingBatch {
        [astacks = 16] procedure Add(a: int32, b: int32) -> int32;
    }
"#;

const BATCH: usize = 16;
/// Every `OVERSIZED_EVERY`-th flush carries twice the A-stacks.
const OVERSIZED_EVERY: usize = 64;

/// Flushes per pass (four oversized ones); the virtual statistics cover
/// one whole pass.
const FLUSHES: usize = 256;
const SMOKE_FLUSHES: usize = 64;

/// Set-ups timed per pass. Set-up takes ~10 us, and the first ones after
/// a pass's A-stack stalls run cold, so the median needs many.
const SETUP_REPS: usize = 200;

struct Env {
    rt: Arc<LrpcRuntime>,
    thread: Arc<Thread>,
    binding: Binding,
}

fn setup() -> Env {
    let rt = TestRuntime::new().build();
    let server = rt.kernel().create_domain("ring-server");
    let add: Handler = Box::new(|_: &ServerCtx, args: &[Value]| {
        let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
            unreachable!("stubs decoded the declared types")
        };
        Ok(Reply::value(Value::Int32(a.wrapping_add(*b))))
    });
    rt.export(&server, RING_IDL, vec![add])
        .expect("ring interface exports");
    let client = rt.kernel().create_domain("ring-client");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt
        .import(&client, "RingBatch")
        .expect("ring interface imports");
    Env {
        rt,
        thread,
        binding,
    }
}

/// The ring layer's view of one pass.
#[derive(Default)]
struct RingStats {
    batches: u64,
    doorbells: u64,
    traps: u64,
    degraded: u64,
    /// Host ns of the 16-call flushes.
    fit_host_ns: Vec<u64>,
    /// Host ns of flushes during which the A-stack wait count rose.
    blocked_ns: u64,
}

struct Ring {
    seed: u64,
    flushes: usize,
    /// Virtual ns per call of a steady 16-call flush (`BENCH_batch.json`).
    expect_ns: Option<u64>,
}

impl Ring {
    fn pass(
        &self,
        env: &Env,
        mut spans: Option<&mut Spans>,
        checks: &mut Checks,
    ) -> (Pass, RingStats) {
        let mut values = Rng::new(self.seed, 0x7a1e);
        let mut virt = Vec::with_capacity(self.flushes * BATCH);
        let mut host_ns = Vec::with_capacity(self.flushes);
        let mut op_calls = Vec::with_capacity(self.flushes);
        let mut rs = RingStats::default();
        let (mut calls, mut failed) = (0u64, 0u64);
        let root = spans.as_mut().map_or(0, |s| s.begin("pass", 0, 0));
        for f in 0..self.flushes {
            let n = if f % OVERSIZED_EVERY == OVERSIZED_EVERY - 1 {
                2 * BATCH
            } else {
                BATCH
            };
            let operands: Vec<(i32, i32)> =
                (0..n).map(|_| (values.int32(), values.int32())).collect();
            let requests: Vec<(usize, Vec<Value>)> = operands
                .iter()
                .map(|&(a, b)| (0, vec![Value::Int32(a), Value::Int32(b)]))
                .collect();
            let waits = env.rt.astack_wait_events();
            let span = spans
                .as_mut()
                .map(|s| s.begin("call_batch", root, f as u64));
            let t = Instant::now();
            let r = env.binding.call_batch(0, &env.thread, requests);
            let host = ns_since(t);
            if let (Some(s), Some(id)) = (spans.as_mut(), span) {
                s.end(id);
            }
            host_ns.push(host);
            op_calls.push(n as u32);
            calls += n as u64;
            if env.rt.astack_wait_events() > waits {
                rs.blocked_ns += host;
            }
            let out = match r {
                Ok(out) => out,
                Err(e) => {
                    failed += n as u64;
                    checks.ensure(false, || format!("flush {f} failed: {e}"));
                    continue;
                }
            };
            rs.batches += 1;
            rs.doorbells += out.doorbells;
            rs.traps += out.traps;
            rs.degraded += out.degraded;
            checks.ensure(out.results.len() == n, || {
                format!("flush {f}: {} results", out.results.len())
            });
            for (k, (res, &(a, b))) in out.results.iter().zip(&operands).enumerate() {
                match res {
                    Ok(o) => checks.ensure(o.ret == Some(Value::Int32(a.wrapping_add(b))), || {
                        format!("flush {f} call {k}: Add({a}, {b}) returned {:?}", o.ret)
                    }),
                    Err(e) => {
                        failed += 1;
                        checks.ensure(false, || format!("flush {f} call {k} failed: {e}"));
                    }
                }
            }
            let share = out.elapsed.as_nanos() / n as u64;
            virt.extend(std::iter::repeat(share).take(n));
            if n == BATCH {
                rs.fit_host_ns.push(host);
                if let (true, Some(want)) = (f > 0, self.expect_ns) {
                    let got = out.elapsed.as_nanos() / BATCH as u64;
                    checks.ensure(got == want, || {
                        format!(
                            "flush {f}: {got} virtual ns per call, BENCH_batch.json says {want}"
                        )
                    });
                }
            }
        }
        if let Some(s) = spans.as_mut() {
            s.end(root);
        }
        let doorbell_counter = env.rt.metrics().counter("lrpc_doorbells_total").get();
        checks.ensure(doorbell_counter == rs.doorbells, || {
            format!(
                "lrpc_doorbells_total {doorbell_counter} != {} doorbells reported",
                rs.doorbells
            )
        });
        let busy_s = host_ns.iter().sum::<u64>() as f64 / 1e9;
        let pass = Pass {
            host_ns,
            op_calls,
            calls,
            failed,
            busy_s,
            window_ops: OVERSIZED_EVERY,
            virt: VirtStats::of(&virt),
        };
        (pass, rs)
    }
}

fn ring(cfg: &Cfg, checks: &mut Checks) -> Ring {
    Ring {
        seed: cfg.seed,
        flushes: if cfg.smoke { SMOKE_FLUSHES } else { FLUSHES },
        expect_ns: cfg.expected("ring16_ns", checks).map(|v| v as u64),
    }
}

pub fn measure(cfg: &Cfg, checks: &mut Checks) -> Measured {
    let w = ring(cfg, checks);
    crate::measure(cfg, checks, SETUP_REPS, setup, |env, checks| {
        w.pass(env, None, checks).0
    })
}

/// An untraced and a traced pass on fresh set-ups. Returns (attempted,
/// failed) calls.
pub fn trace(cfg: &Cfg, checks: &mut Checks, layers: &mut Layers, spans: &mut Spans) -> (u64, u64) {
    let w = ring(cfg, checks);
    let env = setup();
    let (a, rs) = w.pass(&env, None, checks);
    let batches = rs.batches.max(1) as f64;
    layers.set(
        "lrpc.ring.flush.host_ns.p50",
        quantile(&rs.fit_host_ns, 0.5) as f64,
        rs.fit_host_ns.len() as u64,
    );
    layers.set(
        "lrpc.ring.doorbells_per_batch",
        rs.doorbells as f64 / batches,
        rs.batches,
    );
    layers.set(
        "kernel.doorbell.traps_per_flush",
        rs.traps as f64 / rs.doorbells.max(1) as f64,
        rs.doorbells,
    );
    layers.set("lrpc.ring.degraded", rs.degraded as f64, rs.batches);
    layers.set(
        "lrpc.astack.wait_events",
        env.rt.astack_wait_events() as f64,
        rs.batches,
    );
    layers.set(
        "lrpc.astack.blocked_ms",
        rs.blocked_ns as f64 / 1e6,
        rs.batches,
    );
    drop(env);

    let (b, (), _) = layers::traced_pass(&a, a.calls as usize * 24, checks, layers, |checks| {
        let id = spans.begin("setup", 0, 0);
        let env = setup();
        spans.end(id);
        let before = layers::tlb_misses(&env.rt);
        let (b, _) = w.pass(&env, Some(spans), checks);
        (b, layers::tlb_misses(&env.rt) - before, ())
    });
    (a.calls + b.calls, a.failed + b.failed)
}
