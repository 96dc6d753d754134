//! Per-layer metrics of the traced run, and the probes several workloads
//! share: the flight-recorded pass, Table 5 rows from its spans, compiled
//! stub plans run on their own, kernel Binding Object validation, and
//! the SRC RPC reference.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use firefly::cost::CostModel;
use firefly::cpu::Machine;
use firefly::meter::{Meter, Phase};
use idl::stubvm::{LocalFrame, StubVm};
use idl::wire::Value;
use idl::ArgVec;
use lrpc::{Binding, LrpcRuntime};
use obs::SpanRecord;

use crate::stats::{median_f64, quantile, Checks};
use crate::{Metric, Pass};

/// Every per-layer metric, in output order, with its unit. A workload
/// leaves the layers it does not exercise at 0.
pub const LAYER_METRICS: [(&str, &str); 44] = [
    ("workload.site.generate_ms", "ms"),
    ("lrpc.runtime.export_ms", "ms"),
    ("lrpc.runtime.import_us.p50", "us"),
    ("lrpc.runtime.import_us.p99", "us"),
    ("lrpc.runtime.rss_kb_per_binding", "kB"),
    ("idl.plan_cache.hit_ratio", "ratio"),
    ("idl.stub.host_ns.Null", "ns"),
    ("idl.stub.host_ns.Add", "ns"),
    ("idl.stub.host_ns.BigIn", "ns"),
    ("idl.stub.host_ns.BigInOut", "ns"),
    ("lrpc.call.host_ns.Null", "ns"),
    ("lrpc.call.host_ns.Add", "ns"),
    ("lrpc.call.host_ns.BigIn", "ns"),
    ("lrpc.call.host_ns.BigInOut", "ns"),
    ("lrpc.call.host_ns.serial", "ns"),
    ("lrpc.call.host_ns.batch", "ns"),
    ("lrpc.call.host_ns.bulk", "ns"),
    ("firefly.meter.host_ns", "ns"),
    ("kernel.validate.host_ns", "ns"),
    ("firefly.virt_ns.procedure_call", "vns"),
    ("firefly.virt_ns.kernel_traps", "vns"),
    ("firefly.virt_ns.context_switches", "vns"),
    ("firefly.virt_ns.stubs", "vns"),
    ("firefly.virt_ns.kernel_transfer", "vns"),
    ("firefly.virt_ns.other", "vns"),
    ("firefly.tlb.misses_per_call", "count"),
    ("lrpc.ring.flush.host_ns.p50", "ns"),
    ("lrpc.ring.doorbells_per_batch", "count"),
    ("kernel.doorbell.traps_per_flush", "count"),
    ("lrpc.ring.degraded", "count"),
    ("lrpc.astack.wait_events", "count"),
    ("lrpc.astack.blocked_ms", "ms"),
    ("kernel.domain_cache.hits", "count"),
    ("kernel.domain_cache.misses", "count"),
    ("kernel.domain_cache.hit_ratio", "ratio"),
    ("site.queue_wait_share", "ratio"),
    ("lrpc.bulk.fallbacks", "count"),
    ("lrpc.bulk.fallback_ratio", "ratio"),
    ("replay.events_per_call", "count"),
    ("replay.finish_ms", "ms"),
    ("replay.log_bytes_per_call", "B"),
    ("obs.trace.overhead_ns", "ns"),
    ("obs.flight.dropped_spans", "count"),
    ("msgrpc.src_rpc.host_ns.Null", "ns"),
];

/// The traced run's per-layer values with the samples behind each.
pub struct Layers(BTreeMap<&'static str, (f64, u64)>);

impl Layers {
    pub fn new() -> Layers {
        Layers(LAYER_METRICS.iter().map(|&(n, _)| (n, (0.0, 0))).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = (value, samples);
    }

    pub fn metrics(&self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let (v, n) = self.0[name];
                (name.to_string(), v, unit, n)
            })
            .collect()
    }
}

/// The traced pass: runs `traced` on a fresh thread with the flight
/// recorder on, so the thread gets a fresh span ring of `capacity` spans
/// and the spans read back are exactly the ones it emitted (unless the
/// ring overflowed, which `obs.flight.dropped_spans` reports). `traced`
/// returns its pass, the TLB misses it caused, and anything else the
/// caller needs. Checks that tracing left the virtual figures of the
/// `untraced` pass unchanged, and records the flight layers.
pub fn traced_pass<T: Send>(
    untraced: &Pass,
    capacity: usize,
    checks: &mut Checks,
    layers: &mut Layers,
    traced: impl FnOnce(&mut Checks) -> (Pass, u64, T) + Send,
) -> (Pass, T, Vec<SpanRecord>) {
    obs::flight::enable_with_capacity(capacity);
    let dropped_before = obs::flight::dropped_total();
    let (pass, misses, extra) = std::thread::scope(|s| {
        s.spawn(|| traced(&mut *checks))
            .join()
            .expect("traced pass panicked")
    });
    obs::flight::disable();
    let spans = obs::flight::snapshot();
    let dropped = obs::flight::dropped_total() - dropped_before;
    checks.ensure(pass.virt == untraced.virt, || {
        format!(
            "tracing changed virtual time: {:?} vs {:?}",
            pass.virt, untraced.virt
        )
    });
    table5_per_call(&spans, pass.calls, layers);
    let calls = pass.calls.max(1);
    layers.set(
        "firefly.tlb.misses_per_call",
        misses as f64 / calls as f64,
        calls,
    );
    let overhead = quantile(&pass.host_ns, 0.5) as f64 - quantile(&untraced.host_ns, 0.5) as f64;
    layers.set("obs.trace.overhead_ns", overhead, pass.host_ns.len() as u64);
    layers.set(
        "obs.flight.dropped_spans",
        dropped as f64,
        spans.len() as u64,
    );
    (pass, extra, spans)
}

/// Folds flight spans into the Table 5 rows (as `bench --phases` does)
/// and reports each row's virtual ns per call.
pub fn table5_per_call(spans: &[SpanRecord], calls: u64, layers: &mut Layers) {
    let mut rows: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let row = match Phase::from_code(s.phase) {
            Phase::ProcedureCall => "firefly.virt_ns.procedure_call",
            Phase::Trap => "firefly.virt_ns.kernel_traps",
            Phase::ContextSwitch => "firefly.virt_ns.context_switches",
            Phase::ClientStub | Phase::ServerStub | Phase::QueueOp => "firefly.virt_ns.stubs",
            Phase::KernelTransfer => "firefly.virt_ns.kernel_transfer",
            _ => "firefly.virt_ns.other",
        };
        *rows.entry(row).or_insert(0) += s.dur_ns;
    }
    for (row, ns) in rows {
        layers.set(row, ns as f64 / calls.max(1) as f64, calls);
    }
}

/// Sum of the TLB misses of every CPU of the runtime's machine.
pub fn tlb_misses(rt: &LrpcRuntime) -> u64 {
    rt.kernel()
        .machine()
        .cpus()
        .iter()
        .map(|c| c.tlb_misses())
        .sum()
}

/// Median of `rounds` timings of `iters` runs of `f`, ns per run.
pub fn time_per_iter(rounds: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_f64(&per_round)
}

/// Host ns of one compiled stub cycle (client push, server read, server
/// place, client fetch) of procedure `proc`, run on a private frame so
/// only the stub layer is timed. Checks the fetched results.
pub fn stub_cycle_ns(
    binding: &Binding,
    proc: usize,
    args: &[Value],
    ret: Option<&Value>,
    outs: &[(usize, Value)],
    checks: &mut Checks,
) -> f64 {
    let iface = binding.interface();
    let cproc = &iface.procs[proc];
    let plan = &binding.stub_plans().procs[proc];
    let (Some(push), Some(read), Some(place), Some(fetch)) =
        (&plan.push, &plan.read, &plan.place, &plan.fetch)
    else {
        checks.ensure(false, || {
            format!("{} has no fully compiled plan", cproc.name)
        });
        return 0.0;
    };
    let machine = Machine::cvax_uniprocessor();
    let cost = *machine.cost();
    let cpu = machine.cpu(0);
    let mut meter = Meter::disabled();
    let mut frame = LocalFrame::new(cproc.layout.astack_size);
    let cycle = |frame: &mut LocalFrame, meter: &mut Meter| {
        push.execute(cproc, args, frame, &mut StubVm::new(&cost, cpu, meter))
            .expect("push plan");
        let mut server_args = ArgVec::new();
        read.execute(frame, &mut StubVm::new(&cost, cpu, meter), &mut server_args)
            .expect("read plan");
        black_box(server_args.as_slice());
        place.execute(ret, outs, frame).expect("place plan");
        fetch
            .execute(frame, &mut StubVm::new(&cost, cpu, meter))
            .expect("fetch plan")
    };
    let (got_ret, got_outs) = cycle(&mut frame, &mut meter);
    checks.ensure(got_ret.as_ref() == ret && got_outs == outs, || {
        format!("{} stub plans fetched {got_ret:?}/{got_outs:?}", cproc.name)
    });
    time_per_iter(9, 20_000, |_| {
        black_box(cycle(&mut frame, &mut meter));
    })
}

/// Host ns of one kernel Binding Object validation, cycling over
/// `handles` (a 1-entry table for the serial workloads, the site's
/// 20k-entry table for the site).
pub fn validate_ns(rt: &Arc<LrpcRuntime>, bindings: &[Binding], checks: &mut Checks) -> f64 {
    let handles: Vec<_> = bindings.iter().map(Binding::handle).collect();
    let ok = handles.iter().all(|&h| rt.validate_binding(h).is_ok());
    checks.ensure(ok, || "a live binding failed kernel validation".into());
    let forged = bindings[0].forged().handle();
    checks.ensure(rt.validate_binding(forged).is_err(), || {
        "a forged binding validated".into()
    });
    let n = handles.len();
    time_per_iter(9, 50_000, |i| {
        black_box(rt.validate_binding(handles[(i * 7919) % n]).is_ok());
    })
}

/// The SRC RPC (Taos) model's Null call on the host: the reference ROADMAP
/// item 1 measures LRPC's host Null against.
pub fn reference_layers(layers: &mut Layers) {
    const CALLS: usize = 20_000;
    let cost = msgrpc::MsgRpcCost::src_rpc_taos();
    let machine = Machine::new(1, CostModel::with_hw(cost.hw));
    let system = msgrpc::MsgRpcSystem::new(kernel::kernel::Kernel::new(machine), cost);
    let server_domain = system.kernel().create_domain("src-rpc-server");
    let handlers: Vec<msgrpc::MsgHandler> = crate::serial::PROCS
        .iter()
        .map(|_| Box::new(|_: &[Value]| Ok(lrpc::Reply::none())) as msgrpc::MsgHandler)
        .collect();
    let server = system
        .export(&server_domain, crate::serial::TABLE4_IDL, handlers, 2)
        .expect("SRC RPC export");
    let client = system.kernel().create_domain("src-rpc-client");
    let thread = system.kernel().spawn_thread(&client);
    let host: Vec<u64> = (0..CALLS)
        .map(|_| {
            let t = Instant::now();
            system
                .call_indexed(&client, &thread, &server, 0, 0, &[], false)
                .expect("SRC RPC Null");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    layers.set(
        "msgrpc.src_rpc.host_ns.Null",
        quantile(&host, 0.5) as f64,
        CALLS as u64,
    );
}
