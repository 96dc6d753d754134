//! `site-open-loop`: the `SiteSpec::full()` plan (200 interfaces, 20k
//! bindings, 30k seeded arrivals mixing serial calls, `call_batch`
//! flushes and bulk sends), replayed open loop on a 4-CPU simulated
//! Firefly with domain caching on, static A-stack sizing and
//! `AStackPolicy::Fail` — the main-leg shape of `bench --tail`, with the
//! flight recorder off in measured passes.
//!
//! The dispatcher below is the `bench --tail` one: each arrival runs on
//! the earliest-clock CPU that is not parked idling in a server context,
//! finished CPUs park idling in the client's context, and parked CPUs
//! that are still busy at the arrival instant (or that an arrival due
//! before this call returns would claim first) are set aside for the
//! call. At seed 42 its virtual p50/p99 must equal the main leg persisted
//! in `BENCH_tail.json`.

use std::sync::Arc;
use std::time::Instant;

use firefly::time::Nanos;
use firefly::vm::ContextId;
use idl::wire::Value;
use kernel::thread::Thread;
use lrpc::{AStackPolicy, Binding, Handler, LrpcRuntime, Reply, ServerCtx, TestRuntime};
use workload::site::{
    generate_site, interface_name, CallKind, SitePlan, SiteSpec, PROC_GET, PROC_PUT, PROC_SEND,
};

use crate::layers::{self, Layers};
use crate::spans::Spans;
use crate::stats::{ns_since, proc_status_kb, quantile, Checks, Rng, VirtStats};
use crate::{Cfg, Measured, Pass};

/// Client domains the bindings are spread over (round-robin).
const CLIENT_DOMAINS: usize = 8;
const CPUS: usize = 4;

/// Arrivals per host sample window (see `serial::WINDOW_CALLS`).
const WINDOW_ARRIVALS: usize = 2_000;

/// Bytes of `Put`'s fixed `name` argument.
const PUT_NAME_BYTES: usize = 16;

fn handlers(bulk: bool) -> Vec<Handler> {
    let mut v: Vec<Handler> = vec![
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let (Value::Int32(a), Value::Int32(b)) = (&args[0], &args[1]) else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(a.wrapping_add(*b))))
        }),
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(h) = &args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(*h)))
        }),
    ];
    if bulk {
        v.push(Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Var(data) = &args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(data.len() as i32)))
        }));
    }
    v
}

/// Bind-time measurements of one set-up.
struct SetupStats {
    generate_ms: f64,
    export_ms: f64,
    import_ns: Vec<u64>,
    rss_kb_per_binding: f64,
    plan_hit_ratio: f64,
}

struct Env {
    plan: SitePlan,
    rt: Arc<LrpcRuntime>,
    threads: Vec<Arc<Thread>>,
    bindings: Vec<Binding>,
    server_ctxs: Vec<ContextId>,
    client_ctxs: Vec<ContextId>,
    stats: SetupStats,
}

fn spec(cfg: &Cfg) -> SiteSpec {
    let base = if cfg.smoke {
        SiteSpec::ci()
    } else {
        SiteSpec::full()
    };
    SiteSpec {
        seed: cfg.seed,
        ..base
    }
}

fn setup(spec: &SiteSpec) -> Env {
    let t = Instant::now();
    let plan = generate_site(spec);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let rt = TestRuntime::new()
        .cpus(CPUS)
        .domain_caching(true)
        .astack_policy(AStackPolicy::Fail)
        .build();
    let t = Instant::now();
    let server_ctxs: Vec<ContextId> = plan
        .idls
        .iter()
        .enumerate()
        .map(|(i, idl)| {
            let server = rt.kernel().create_domain(format!("site-srv-{i:03}"));
            rt.export(&server, idl, handlers(plan.bulk_flavored[i]))
                .expect("site interface exports");
            server.ctx().id()
        })
        .collect();
    let export_ms = t.elapsed().as_secs_f64() * 1e3;
    let clients: Vec<_> = (0..CLIENT_DOMAINS)
        .map(|i| rt.kernel().create_domain(format!("site-client-{i}")))
        .collect();
    let client_ctxs = clients.iter().map(|c| c.ctx().id()).collect();
    let threads = clients
        .iter()
        .map(|c| rt.kernel().spawn_thread(c))
        .collect();
    let rss_before = proc_status_kb("VmRSS:");
    let mut import_ns = Vec::with_capacity(plan.spec.bindings);
    let bindings: Vec<Binding> = (0..plan.spec.bindings)
        .map(|b| {
            let name = interface_name(plan.binding_interface(b));
            let t = Instant::now();
            let binding = rt
                .import(&clients[b % CLIENT_DOMAINS], &name)
                .expect("site binding imports");
            import_ns.push(ns_since(t));
            binding
        })
        .collect();
    let rss_growth = proc_status_kb("VmRSS:").saturating_sub(rss_before);
    let hits = rt.metrics().counter("stub_plan_cache_hit").get();
    let misses = rt.metrics().counter("stub_plan_cache_miss").get();
    let stats = SetupStats {
        generate_ms,
        export_ms,
        import_ns,
        rss_kb_per_binding: rss_growth as f64 / bindings.len() as f64,
        plan_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
    };
    Env {
        plan,
        rt,
        threads,
        bindings,
        server_ctxs,
        client_ctxs,
        stats,
    }
}

/// Per-mix and per-layer observations of one pass.
#[derive(Default)]
struct SiteStats {
    serial_host_ns: Vec<u64>,
    /// Host ns of each `call_batch`, and the same per call.
    flush_host_ns: Vec<u64>,
    batch_host_ns: Vec<u64>,
    bulk_host_ns: Vec<u64>,
    batches: u64,
    doorbells: u64,
    traps: u64,
    degraded: u64,
    queue_wait_ns: u64,
    latency_ns: u64,
}

/// Replays the plan open loop over the simulated CPUs.
fn pass(
    env: &Env,
    seed: u64,
    mut spans: Option<&mut Spans>,
    checks: &mut Checks,
) -> (Pass, SiteStats) {
    let plan = &env.plan;
    let machine = env.rt.kernel().machine();
    let n = machine.num_cpus();
    let window_ns = plan.spec.window_ns.max(1);
    let mut next_window = window_ns;
    let mut values = Rng::new(seed, 0x517e);
    let put_name = Value::Bytes(values.bytes(PUT_NAME_BYTES));
    let mut virt = Vec::new();
    let mut host_ns = Vec::with_capacity(plan.arrivals.len());
    let mut op_calls = Vec::with_capacity(plan.arrivals.len());
    let mut st = SiteStats::default();
    let (mut calls, mut failed) = (0u64, 0u64);
    let mut last_service_ns = 0u64;
    let root = spans.as_mut().map_or(0, |s| s.begin("pass", 0, 0));
    for (ai, arrival) in plan.arrivals.iter().enumerate() {
        let at = Nanos::from_nanos(arrival.at_ns);
        while arrival.at_ns >= next_window {
            env.rt.rebalance_idle_processors();
            next_window += window_ns;
        }
        // Earliest-clock CPU, sparing CPUs cached in a server context
        // when another one is already free at the arrival instant.
        let mut global = (u64::MAX, 0usize);
        let mut uncached = (u64::MAX, 0usize);
        for i in 0..n {
            let c = machine.cpu(i);
            let now = c.now().as_nanos();
            if now < global.0 {
                global = (now, i);
            }
            let cached = c
                .idle_in()
                .is_some_and(|ctx| env.server_ctxs.contains(&ctx));
            if !cached && now < uncached.0 {
                uncached = (now, i);
            }
        }
        let cpu_id = if uncached.0 <= arrival.at_ns {
            uncached.1
        } else {
            global.1
        };
        let cpu = machine.cpu(cpu_id);
        cpu.set_idle_in(None);
        // Parked CPUs still busy at the arrival cannot be claimed.
        let mut suspended: Vec<(usize, ContextId)> = Vec::new();
        for i in (0..n).filter(|&i| i != cpu_id) {
            let other = machine.cpu(i);
            if let Some(ctx) = other.idle_in() {
                if other.now() > at {
                    other.set_idle_in(None);
                    suspended.push((i, ctx));
                }
            }
        }
        // Arrivals due before this call returns claim parked CPUs first.
        if last_service_ns > 0 {
            let deadline = arrival.at_ns.saturating_add(last_service_ns);
            let due = plan.arrivals[ai + 1..]
                .iter()
                .take_while(|a| a.at_ns <= deadline)
                .count();
            for _ in 0..due {
                let pick = (0..n)
                    .filter(|&i| i != cpu_id && machine.cpu(i).idle_in().is_some())
                    .min_by_key(|&i| (machine.cpu(i).now().as_nanos(), i));
                let Some(i) = pick else { break };
                let other = machine.cpu(i);
                suspended.push((i, other.idle_in().expect("picked a parked CPU")));
                other.set_idle_in(None);
            }
        }
        cpu.advance_to(at);
        let queue_wait_ns = (cpu.now() - at).as_nanos();
        let binding = &env.bindings[arrival.binding];
        let thread = &env.threads[arrival.binding % CLIENT_DOMAINS];
        let client_ctx = env.client_ctxs[arrival.binding % CLIENT_DOMAINS];
        let mut complete = |end_cpu: usize, ncalls: u64, st: &mut SiteStats| {
            let end = machine.cpu(end_cpu).now();
            let latency = (end - at).as_nanos();
            for _ in 0..ncalls {
                virt.push(latency);
            }
            st.queue_wait_ns += queue_wait_ns * ncalls;
            st.latency_ns += latency * ncalls;
            end.as_nanos().saturating_sub(arrival.at_ns)
        };
        let name = match arrival.kind {
            CallKind::Serial { .. } => "call_unmetered",
            CallKind::Bulk { .. } => "call_unmetered.bulk",
            CallKind::Batch { .. } => "call_batch",
        };
        let span = spans.as_mut().map(|s| s.begin(name, root, ai as u64));
        match arrival.kind {
            CallKind::Serial { .. } | CallKind::Bulk { .. } => {
                let (proc, args, want) = match arrival.kind {
                    CallKind::Bulk { bytes } => (
                        PROC_SEND,
                        vec![Value::Var(values.bytes(bytes as usize))],
                        bytes as i32,
                    ),
                    CallKind::Serial { proc: PROC_GET } => {
                        let (a, b) = (values.int32(), values.int32());
                        (
                            PROC_GET,
                            vec![Value::Int32(a), Value::Int32(b)],
                            a.wrapping_add(b),
                        )
                    }
                    kind => {
                        assert_eq!(
                            kind,
                            CallKind::Serial { proc: PROC_PUT },
                            "serial mix only draws Get/Put"
                        );
                        let h = values.int32();
                        (PROC_PUT, vec![Value::Int32(h), put_name.clone()], h)
                    }
                };
                let t = Instant::now();
                let r = binding.call_unmetered(cpu_id, thread, proc, &args);
                let host = ns_since(t);
                host_ns.push(host);
                op_calls.push(1);
                calls += 1;
                match r {
                    Ok(out) => {
                        checks.ensure(out.ret == Some(Value::Int32(want)), || {
                            format!(
                                "arrival {ai}: proc {proc} returned {:?}, want {want}",
                                out.ret
                            )
                        });
                        last_service_ns = complete(out.end_cpu, 1, &mut st);
                        machine.cpu(out.end_cpu).set_idle_in(Some(client_ctx));
                    }
                    Err(e) => {
                        failed += 1;
                        checks.ensure(false, || format!("arrival {ai}: proc {proc} failed: {e}"));
                    }
                }
                if proc == PROC_SEND {
                    st.bulk_host_ns.push(host);
                } else {
                    st.serial_host_ns.push(host);
                }
            }
            CallKind::Batch { calls: k } => {
                let operands: Vec<(i32, i32)> =
                    (0..k).map(|_| (values.int32(), values.int32())).collect();
                let requests = operands
                    .iter()
                    .map(|&(a, b)| (PROC_GET, vec![Value::Int32(a), Value::Int32(b)]))
                    .collect();
                let t = Instant::now();
                let r = binding.call_batch(cpu_id, thread, requests);
                let host = ns_since(t);
                host_ns.push(host);
                op_calls.push(k as u32);
                calls += k as u64;
                st.flush_host_ns.push(host);
                st.batch_host_ns.push(host / k.max(1) as u64);
                match r {
                    Ok(out) => {
                        st.batches += 1;
                        st.doorbells += out.doorbells;
                        st.traps += out.traps;
                        st.degraded += out.degraded;
                        let mut ok = 0u64;
                        for (res, &(a, b)) in out.results.iter().zip(&operands) {
                            match res {
                                Ok(o) => {
                                    ok += 1;
                                    checks.ensure(
                                        o.ret == Some(Value::Int32(a.wrapping_add(b))),
                                        || {
                                            format!(
                                                "arrival {ai}: batched Get({a}, {b}) returned {:?}",
                                                o.ret
                                            )
                                        },
                                    );
                                }
                                Err(e) => {
                                    failed += 1;
                                    checks.ensure(false, || {
                                        format!("arrival {ai}: batched Get failed: {e}")
                                    });
                                }
                            }
                        }
                        // Ring flushes never exchange processors: the
                        // batch completes on the dispatch CPU.
                        if ok > 0 {
                            last_service_ns = complete(cpu_id, ok, &mut st);
                        }
                        cpu.set_idle_in(Some(client_ctx));
                    }
                    Err(e) => {
                        failed += k as u64;
                        checks.ensure(false, || format!("arrival {ai}: batch failed: {e}"));
                    }
                }
            }
        }
        if let (Some(s), Some(id)) = (spans.as_mut(), span) {
            s.end(id);
        }
        for (i, ctx) in suspended {
            let other = machine.cpu(i);
            if other.idle_in().is_none() {
                other.set_idle_in(Some(ctx));
            }
        }
    }
    if let Some(s) = spans.as_mut() {
        s.end(root);
    }
    let busy_s = host_ns.iter().sum::<u64>() as f64 / 1e9;
    let pass = Pass {
        host_ns,
        op_calls,
        calls,
        failed,
        busy_s,
        window_ops: WINDOW_ARRIVALS,
        virt: VirtStats::of(&virt),
    };
    (pass, st)
}

/// At seed 42 and full size, the virtual quantiles must equal the
/// `BENCH_tail.json` main leg.
fn check_artefact(cfg: &Cfg, virt: &VirtStats, checks: &mut Checks) {
    if cfg.smoke || cfg.seed != SiteSpec::full().seed {
        return;
    }
    for (key, got) in [("site_p50_ns", virt.hdr_p50), ("site_p99_ns", virt.hdr_p99)] {
        if let Some(want) = cfg.expected(key, checks) {
            checks.ensure(got as f64 == want, || {
                format!("site {key} {got}, BENCH_tail.json says {want}")
            });
        }
    }
}

pub fn measure(cfg: &Cfg, checks: &mut Checks) -> Measured {
    let spec = spec(cfg);
    let m = crate::measure(
        cfg,
        checks,
        1,
        || setup(&spec),
        |env, checks| pass(env, cfg.seed, None, checks).0,
    );
    check_artefact(cfg, m.virt.as_ref().expect("measured"), checks);
    m
}

fn sum_counter(env: &Env, prefix: &str) -> u64 {
    (0..env.plan.spec.interfaces)
        .map(|i| {
            env.rt
                .metrics()
                .counter(&format!("{prefix}:{}", interface_name(i)))
                .get()
        })
        .sum()
}

/// Set-up, an untraced and a traced pass, each on a fresh set-up.
/// Returns (attempted, failed) calls.
pub fn trace(cfg: &Cfg, checks: &mut Checks, layers: &mut Layers, spans: &mut Spans) -> (u64, u64) {
    let spec = spec(cfg);
    let env = setup(&spec);
    let s = &env.stats;
    let imports = s.import_ns.len() as u64;
    layers.set("workload.site.generate_ms", s.generate_ms, 1);
    layers.set(
        "lrpc.runtime.export_ms",
        s.export_ms,
        env.plan.spec.interfaces as u64,
    );
    layers.set(
        "lrpc.runtime.import_us.p50",
        quantile(&s.import_ns, 0.50) as f64 / 1e3,
        imports,
    );
    layers.set(
        "lrpc.runtime.import_us.p99",
        quantile(&s.import_ns, 0.99) as f64 / 1e3,
        imports,
    );
    layers.set(
        "lrpc.runtime.rss_kb_per_binding",
        s.rss_kb_per_binding,
        imports,
    );
    layers.set("idl.plan_cache.hit_ratio", s.plan_hit_ratio, imports);

    let (a, st) = pass(&env, cfg.seed, None, checks);
    check_artefact(cfg, &a.virt, checks);
    for (key, v) in [
        ("lrpc.call.host_ns.serial", &st.serial_host_ns),
        ("lrpc.call.host_ns.batch", &st.batch_host_ns),
        ("lrpc.call.host_ns.bulk", &st.bulk_host_ns),
    ] {
        layers.set(key, quantile(v, 0.5) as f64, v.len() as u64);
    }
    let batches = st.batches.max(1) as f64;
    layers.set(
        "lrpc.ring.flush.host_ns.p50",
        quantile(&st.flush_host_ns, 0.5) as f64,
        st.batches,
    );
    layers.set(
        "lrpc.ring.doorbells_per_batch",
        st.doorbells as f64 / batches,
        st.batches,
    );
    layers.set(
        "kernel.doorbell.traps_per_flush",
        st.traps as f64 / st.doorbells.max(1) as f64,
        st.doorbells,
    );
    layers.set("lrpc.ring.degraded", st.degraded as f64, st.batches);
    layers.set(
        "lrpc.astack.wait_events",
        env.rt.astack_wait_events() as f64,
        a.calls,
    );
    let hits = sum_counter(&env, "lrpc_domain_cache_hits");
    let misses = sum_counter(&env, "lrpc_domain_cache_misses");
    layers.set("kernel.domain_cache.hits", hits as f64, hits + misses);
    layers.set("kernel.domain_cache.misses", misses as f64, hits + misses);
    layers.set(
        "kernel.domain_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        hits + misses,
    );
    layers.set(
        "site.queue_wait_share",
        st.queue_wait_ns as f64 / st.latency_ns.max(1) as f64,
        a.calls,
    );
    let fallbacks = env
        .rt
        .collect_metrics()
        .gauge("lrpc_bulk_fallbacks_total")
        .unwrap_or(0)
        .max(0) as u64;
    let bulk = st.bulk_host_ns.len() as u64;
    layers.set("lrpc.bulk.fallbacks", fallbacks as f64, bulk);
    layers.set(
        "lrpc.bulk.fallback_ratio",
        fallbacks as f64 / bulk.max(1) as f64,
        bulk,
    );
    let validate = layers::validate_ns(&env.rt, &env.bindings, checks);
    layers.set("kernel.validate.host_ns", validate, 9);
    drop(env);

    let (b, (), _) = layers::traced_pass(&a, a.calls as usize * 24, checks, layers, |checks| {
        let id = spans.begin("setup", 0, 0);
        let env = setup(&spec);
        spans.end(id);
        let before = layers::tlb_misses(&env.rt);
        let (b, _) = pass(&env, cfg.seed, Some(spans), checks);
        (b, layers::tlb_misses(&env.rt) - before, ())
    });
    (a.calls + b.calls, a.failed + b.failed)
}
