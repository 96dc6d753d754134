//! Demand-zero simulated memory, seen through the whole stack.
//!
//! Every region the kernel allocates is backed page by page: a page holds
//! host memory only once something writes it, and a page nobody wrote
//! reads as zeros. These tests pin what that means for LRPC:
//!
//! - binding is cheap in resident memory — an import writes nothing, and
//!   a call faults in only the A-stack, E-stack, ring and bulk-arena
//!   pages it actually writes;
//! - the bytes every reader sees are those an eagerly zeroed region would
//!   hold, across page boundaries, unwritten out parameters and released
//!   pages;
//! - residency never feeds the virtual clock: a run over fully resident
//!   memory charges exactly what a run over demand-zero memory charges;
//! - protection and bounds faults leave memory untouched;
//! - terminating a domain hands its resident pages back.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use firefly::cost::CostModel;
use firefly::cpu::Machine;
use firefly::error::MemFault;
use firefly::fault::{FaultConfig, FaultPlan};
use firefly::mem::{Region, PAGE_SIZE};
use firefly::meter::Meter;
use firefly::time::Nanos;
use firefly::vm::Protection;
use idl::wire::Value;
use kernel::kernel::Kernel;
use kernel::thread::Thread;
use kernel::Domain;
use lrpc::{AStackPolicy, Binding, Handler, LrpcRuntime, Reply, RuntimeConfig, ServerCtx};
use proptest::prelude::*;

/// The interface under test: a Null call, an inout buffer whose A-stack
/// spans three pages, a four-page out buffer the server may leave unset,
/// and a large variable parameter that travels through the bind-time
/// bulk arena.
const STORE_IDL: &str = r#"
    interface Store {
        procedure Null();
        procedure Echo(data: inout bytes[1200] noninterpreted);
        procedure Peek(fill: int32, data: out bytes[1600]) -> int32;
        procedure Put(data: in var bytes[65536] noninterpreted) -> int32;
    }
"#;

const ECHO_LEN: usize = 1200;
const PEEK_LEN: usize = 1600;

fn store_handlers() -> Vec<Handler> {
    vec![
        Box::new(|_: &ServerCtx, _: &[Value]| Ok(Reply::none())) as Handler,
        Box::new(|_: &ServerCtx, args: &[Value]| Ok(Reply::none().with_out(0, args[0].clone())))
            as Handler,
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Int32(fill) = args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            // A zero fill leaves the out parameter to whatever the A-stack
            // holds.
            let reply = Reply::value(Value::Int32(fill));
            Ok(if fill == 0 {
                reply
            } else {
                reply.with_out(1, Value::Bytes(vec![fill as u8; PEEK_LEN]))
            })
        }) as Handler,
        Box::new(|_: &ServerCtx, args: &[Value]| {
            let Value::Var(data) = &args[0] else {
                unreachable!("stubs decoded the declared types")
            };
            Ok(Reply::value(Value::Int32(data.len() as i32)))
        }) as Handler,
    ]
}

struct Env {
    rt: Arc<LrpcRuntime>,
    client: Arc<Domain>,
    server: Arc<Domain>,
    thread: Arc<Thread>,
    binding: Binding,
}

fn setup(cpus: usize, config: RuntimeConfig) -> Env {
    let kernel = Kernel::new(Machine::new(cpus, CostModel::cvax_firefly()));
    let rt = LrpcRuntime::with_config(kernel, config);
    let server = rt.kernel().create_domain("store-server");
    rt.export(&server, STORE_IDL, store_handlers())
        .expect("export");
    let client = rt.kernel().create_domain("store-client");
    let thread = rt.kernel().spawn_thread(&client);
    let binding = rt.import(&client, "Store").expect("import");
    Env {
        rt,
        client,
        server,
        thread,
        binding,
    }
}

/// One CPU, no domain caching: the paper's serial configuration.
fn serial_config() -> RuntimeConfig {
    RuntimeConfig {
        domain_caching: false,
        astack_policy: AStackPolicy::Fail,
        import_timeout: Duration::from_millis(50),
        ..RuntimeConfig::default()
    }
}

fn serial() -> Env {
    setup(1, serial_config())
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

fn mem(env: &Env) -> &firefly::mem::PhysMem {
    env.rt.kernel().machine().mem()
}

/// Every live region owned by some domain whose label starts with
/// `prefix`.
fn owned_regions(rt: &LrpcRuntime, prefix: &str) -> Vec<Arc<Region>> {
    let mem = rt.kernel().machine().mem();
    let mut regions: Vec<Arc<Region>> = rt
        .kernel()
        .domains()
        .iter()
        .flat_map(|d| d.owned_regions())
        .filter_map(|id| mem.get(id))
        .filter(|r| r.label().starts_with(prefix))
        .collect();
    regions.sort_by_key(|r| r.id());
    regions.dedup_by_key(|r| r.id());
    regions
}

fn the_region(rt: &LrpcRuntime, prefix: &str) -> Arc<Region> {
    let mut regions = owned_regions(rt, prefix);
    assert_eq!(regions.len(), 1, "exactly one {prefix} region");
    regions.pop().expect("one region")
}

/// The resident page count of every live owned region, keyed by label.
fn resident_by_label(rt: &LrpcRuntime) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    for r in owned_regions(rt, "") {
        *map.entry(r.label().to_string()).or_insert(0) += r.resident_pages();
    }
    map
}

/// The three touch-plan regions of a binding: client runtime, kernel
/// transfer path and server runtime. The kernel one is mapped into no
/// domain, so it is reached through the plan's page ids.
fn touch_regions(env: &Env) -> Vec<Arc<Region>> {
    let touch = &env.binding.state().touch;
    let mut regions: Vec<Arc<Region>> = [
        touch.client_call(),
        touch.kernel_call(),
        touch.server_side(),
        touch.kernel_return(),
        touch.client_return(),
    ]
    .iter()
    .flat_map(|set| set.iter())
    .map(|page| mem(env).get(page.region()).expect("touch region is live"))
    .collect();
    regions.sort_by_key(|r| r.id());
    regions.dedup_by_key(|r| r.id());
    regions
}

/// Arguments for `Peek`: the out parameter takes a placeholder, which
/// the stubs never copy into the A-stack.
fn peek_args(fill: i32) -> [Value; 2] {
    [Value::Int32(fill), Value::Bytes(vec![0xEE; PEEK_LEN])]
}

fn call(env: &Env, proc: &str, args: &[Value]) -> lrpc::CallOutcome {
    env.binding
        .call(0, &env.thread, proc, args)
        .unwrap_or_else(|e| panic!("{proc} failed: {e}"))
}

/// Writes zeros over every page of every live region, making all of them
/// resident without changing a single byte.
fn prefault_everything(rt: &LrpcRuntime, extra: &[Arc<Region>]) {
    let zeros = [0u8; PAGE_SIZE];
    for r in owned_regions(rt, "").iter().chain(extra) {
        for page in 0..r.page_count() {
            let at = page * PAGE_SIZE;
            let n = PAGE_SIZE.min(r.len() - at);
            r.write_raw(at, &zeros[..n]).expect("in range");
        }
        assert_eq!(r.resident_pages(), r.page_count());
    }
}

// ----------------------------------------------------------------------
// Binding.
// ----------------------------------------------------------------------

#[test]
fn a_booted_machine_with_an_export_holds_no_resident_memory() {
    let kernel = Kernel::new(Machine::new(1, CostModel::cvax_firefly()));
    let rt = LrpcRuntime::with_config(kernel, serial_config());
    let server = rt.kernel().create_domain("store-server");
    rt.export(&server, STORE_IDL, store_handlers()).unwrap();
    let snap = rt.kernel().snapshot();
    assert_eq!(snap.resident_bytes, 0);
    assert_eq!(rt.kernel().machine().mem().resident_bytes(), 0);
}

#[test]
fn an_import_allocates_its_regions_but_writes_none_of_them() {
    let env = serial();
    assert!(mem(&env).allocated_bytes() > 0);
    assert_eq!(
        mem(&env).resident_bytes(),
        0,
        "{:?}",
        resident_by_label(&env.rt)
    );
    // Every per-binding region is in place, just not resident.
    for prefix in [
        "astacks:Store",
        "call-ring:Store",
        "bulk-arena:Store",
        "lrpc-client-rt",
        "lrpc-server-rt",
    ] {
        let r = the_region(&env.rt, prefix);
        assert!(r.page_count() > 0, "{prefix}");
        assert_eq!(r.resident_pages(), 0, "{prefix}");
    }
    // E-stacks are associated lazily: none exists before the first call.
    assert!(owned_regions(&env.rt, "estack-").is_empty());
}

#[test]
fn many_bindings_cost_a_small_fraction_of_their_allocation_in_resident_memory() {
    let kernel = Kernel::new(Machine::new(1, CostModel::cvax_firefly()));
    let rt = LrpcRuntime::with_config(kernel, serial_config());
    let server = rt.kernel().create_domain("store-server");
    rt.export(&server, STORE_IDL, store_handlers()).unwrap();
    let mem = rt.kernel().machine().mem();
    let before = (mem.allocated_bytes(), mem.resident_bytes());
    const CLIENTS: usize = 24;
    for i in 0..CLIENTS {
        let client = rt.kernel().create_domain(format!("client-{i}"));
        let thread = rt.kernel().spawn_thread(&client);
        let binding = rt.import(&client, "Store").unwrap();
        binding.call(0, &thread, "Null", &[]).unwrap();
    }
    let allocated = (mem.allocated_bytes() - before.0) / CLIENTS;
    let resident = (mem.resident_bytes() - before.1) / CLIENTS;
    // A called binding keeps a few pages resident (its share of an E-stack
    // frame and what the Null call wrote) out of tens of kilobytes mapped.
    assert!(allocated > 20 * 1024, "allocated {allocated} B per binding");
    assert!(
        resident <= 2 * PAGE_SIZE,
        "resident {resident} B per binding"
    );
}

// ----------------------------------------------------------------------
// What a call faults in.
// ----------------------------------------------------------------------

#[test]
fn the_touch_plan_regions_stay_demand_zero_across_every_call_path() {
    let env = setup(4, RuntimeConfig::default());
    let touch = touch_regions(&env);
    assert_eq!(touch.len(), 3);
    let echo = [Value::Bytes(pattern(ECHO_LEN, 3))];
    for _ in 0..20 {
        call(&env, "Null", &[]);
        call(&env, "Echo", &echo);
    }
    let echo_index = env.binding.proc_index("Echo").unwrap();
    let batch = env
        .binding
        .call_batch(0, &env.thread, vec![(echo_index, echo.to_vec()); 4])
        .unwrap();
    assert!(batch.results.iter().all(Result::is_ok));
    // The TLB model touched every one of these pages on every call; no
    // one wrote a byte of them.
    for r in &touch {
        assert_eq!(r.resident_pages(), 0, "{}", r.label());
    }
}

#[test]
fn a_null_call_faults_in_one_estack_page_and_no_astack_page() {
    let env = serial();
    call(&env, "Null", &[]);
    // The kernel primes the E-stack with a 16-byte frame header; the rest
    // of its 16 KB stays demand-zero. Null carries no arguments, so its
    // A-stack is never written.
    let estack = the_region(&env.rt, "estack-");
    assert_eq!(estack.len(), 16 * 1024);
    assert_eq!(estack.resident_pages(), 1);
    assert_eq!(the_region(&env.rt, "astacks:Store").resident_pages(), 0);
    assert_eq!(
        mem(&env).resident_bytes(),
        PAGE_SIZE,
        "{:?}",
        resident_by_label(&env.rt)
    );
}

#[test]
fn an_inout_buffer_faults_in_exactly_the_astack_pages_it_spans() {
    let env = serial();
    let state = env.binding.state();
    let astacks = &state.astacks;
    let class = &astacks.classes()[astacks.class_of_proc(env.binding.proc_index("Echo").unwrap())];
    assert!(class.size >= ECHO_LEN);
    call(&env, "Echo", &[Value::Bytes(pattern(ECHO_LEN, 1))]);
    let region = astacks.primary_region();
    // The first acquire of a class takes its first A-stack, at the class's
    // base offset.
    let spanned = region.pages_for(class.base_offset, ECHO_LEN).count();
    assert_eq!(region.resident_pages(), spanned);
    assert!(region.resident_pages() < region.page_count());
}

#[test]
fn an_inout_buffer_crosses_page_boundaries_intact() {
    let env = serial();
    for seed in 0..8u8 {
        let data = pattern(ECHO_LEN, seed);
        let out = call(&env, "Echo", &[Value::Bytes(data.clone())]);
        assert_eq!(out.outs, vec![(0, Value::Bytes(data))], "seed {seed}");
    }
}

#[test]
fn an_unset_out_parameter_reads_back_as_zeros_from_a_fresh_astack() {
    let env = serial();
    let out = call(&env, "Peek", &peek_args(0));
    assert_eq!(out.ret, Some(Value::Int32(0)));
    assert_eq!(out.outs, vec![(1, Value::Bytes(vec![0; PEEK_LEN]))]);
    // Only the pages holding the argument and the return value were
    // written; the client read the pages between them without anyone
    // ever writing them.
    let region = env.binding.state().astacks.primary_region();
    assert!(region.resident_pages() <= 2, "{}", region.resident_pages());
    assert!(PEEK_LEN.div_ceil(PAGE_SIZE) > 2);
}

#[test]
fn a_set_out_parameter_then_reads_back_its_bytes() {
    let env = serial();
    let out = call(&env, "Peek", &peek_args(7));
    assert_eq!(out.outs, vec![(1, Value::Bytes(vec![7; PEEK_LEN]))]);
    let region = env.binding.state().astacks.primary_region();
    assert!(region.resident_pages() >= PEEK_LEN.div_ceil(PAGE_SIZE));
}

#[test]
fn a_bulk_parameter_faults_in_only_the_arena_chunk_it_fills() {
    let env = serial();
    let arena = env
        .binding
        .state()
        .bulk
        .as_ref()
        .expect("Put declares a bulk parameter");
    let payload = pattern(1000, 9);
    let out = call(&env, "Put", &[Value::Var(payload)]);
    assert_eq!(out.ret, Some(Value::Int32(1000)));
    let region = arena.region();
    // A length header plus the payload: 1008 bytes from the first chunk.
    assert_eq!(region.resident_pages(), region.pages_for(0, 1008).count());
    assert!(
        region.page_count() > 100,
        "the arena is {} pages",
        region.page_count()
    );
}

#[test]
fn a_ring_batch_faults_in_only_the_descriptor_pages_it_uses() {
    let env = serial();
    let ring = the_region(&env.rt, "call-ring:Store");
    // 64 slots of 16-byte submission descriptors, then as many completion
    // descriptors: four pages in all.
    assert_eq!(ring.page_count(), 4);
    let null = env.binding.proc_index("Null").unwrap();
    let batch = env
        .binding
        .call_batch(0, &env.thread, vec![(null, vec![]); 3])
        .unwrap();
    assert_eq!(batch.degraded, 0);
    assert!(batch.results.iter().all(Result::is_ok));
    // Slots 0..3 of each half: the first submission page and the first
    // completion page.
    assert_eq!(ring.resident_pages(), 2);
    assert_eq!(
        ring.read_vec(PAGE_SIZE, PAGE_SIZE).unwrap(),
        vec![0; PAGE_SIZE]
    );
}

// ----------------------------------------------------------------------
// Steady state.
// ----------------------------------------------------------------------

#[test]
fn steady_serial_calls_do_not_grow_resident_memory() {
    let env = serial();
    let echo = [Value::Bytes(pattern(ECHO_LEN, 5))];
    let round = || {
        call(&env, "Null", &[]);
        call(&env, "Echo", &echo);
        call(&env, "Peek", &peek_args(3));
        call(&env, "Put", &[Value::Var(pattern(3000, 4))]);
    };
    round();
    let warm = resident_by_label(&env.rt);
    let warm_total = mem(&env).resident_bytes();
    for _ in 0..200 {
        round();
    }
    assert_eq!(resident_by_label(&env.rt), warm);
    assert_eq!(mem(&env).resident_bytes(), warm_total);
    assert!(warm_total < mem(&env).allocated_bytes() / 4);
}

#[test]
fn steady_calls_from_many_threads_on_a_multiprocessor_stay_within_a_bound() {
    let env = setup(4, RuntimeConfig::default());
    let threads: Vec<Arc<Thread>> = (0..4)
        .map(|_| env.rt.kernel().spawn_thread(&env.client))
        .collect();
    let echo = [Value::Bytes(pattern(ECHO_LEN, 6))];
    std::thread::scope(|s| {
        for (cpu, thread) in threads.iter().enumerate() {
            let binding = &env.binding;
            let echo = &echo;
            s.spawn(move || {
                for _ in 0..100 {
                    binding.call(cpu, thread, "Null", &[]).unwrap();
                    binding.call(cpu, thread, "Echo", echo).unwrap();
                }
            });
        }
    });
    let mem = mem(&env);
    // Every A-stack of the binding and every E-stack the pool may hand out
    // could be fully written, and still nothing else: the bound is the
    // A-stack region plus one frame page per E-stack.
    let astacks = env.binding.state().astacks.primary_region();
    let estacks = owned_regions(&env.rt, "estack-");
    assert!(!estacks.is_empty());
    for e in &estacks {
        assert_eq!(e.resident_pages(), 1, "only the frame header is written");
    }
    let bound = astacks.len().next_multiple_of(PAGE_SIZE)
        + estacks.len() * PAGE_SIZE
        + the_region(&env.rt, "call-ring:Store").len();
    assert!(
        mem.resident_bytes() <= bound,
        "{} > {bound}",
        mem.resident_bytes()
    );
    assert!(mem.resident_bytes() <= mem.allocated_bytes());
}

#[test]
fn estack_reuse_after_reclamation_keeps_one_resident_page_per_estack() {
    // Two E-stacks for eight bindings: calls keep stealing the least
    // recently used association, so every E-stack serves many A-stacks.
    let env = setup(
        1,
        RuntimeConfig {
            max_estacks: 2,
            ..serial_config()
        },
    );
    let mut bindings = vec![];
    for i in 0..8 {
        let client = env.rt.kernel().create_domain(format!("extra-{i}"));
        let thread = env.rt.kernel().spawn_thread(&client);
        bindings.push((env.rt.import(&client, "Store").unwrap(), thread));
    }
    for _ in 0..5 {
        for (binding, thread) in &bindings {
            binding.call(0, thread, "Null", &[]).unwrap();
        }
    }
    let estacks = owned_regions(&env.rt, "estack-");
    assert_eq!(estacks.len(), 2);
    for e in &estacks {
        assert_eq!(e.resident_pages(), 1);
    }
    let stats = env.binding.state().estack_pool.stats();
    assert!(stats.reclamations > 0);
}

#[test]
fn a_released_estack_page_is_faulted_in_again_by_the_next_call() {
    let env = serial();
    call(&env, "Null", &[]);
    let estack = the_region(&env.rt, "estack-");
    let header = estack.read_vec(0, 16).unwrap();
    assert_ne!(header, vec![0; 16]);
    // Returning every page to demand-zero loses the frame header but not
    // the region: the next call primes it again.
    estack.fill(0);
    assert_eq!(estack.resident_pages(), 0);
    assert_eq!(estack.read_vec(0, 16).unwrap(), vec![0; 16]);
    call(&env, "Null", &[]);
    assert_eq!(estack.resident_pages(), 1);
    assert_eq!(estack.read_vec(0, 16).unwrap(), header);
}

// ----------------------------------------------------------------------
// Residency never feeds the virtual clock.
// ----------------------------------------------------------------------

/// One call of a scripted sequence: which procedure, a payload length
/// and a pattern seed.
type Op = (u8, usize, u8);

type Observed = (Nanos, u64, Option<Value>, Vec<(usize, Value)>);

/// Runs `ops` in order, returning each call's virtual elapsed time, TLB
/// misses and results, plus the CPU clock at the end.
fn virtual_trace(env: &Env, ops: &[Op]) -> (Vec<Observed>, Nanos) {
    let mut trace = Vec::new();
    for &(kind, len, seed) in ops {
        let out = match kind % 4 {
            0 => call(env, "Null", &[]),
            1 => call(env, "Echo", &[Value::Bytes(pattern(ECHO_LEN, seed))]),
            2 => call(env, "Peek", &peek_args(i32::from(seed % 3))),
            _ => call(env, "Put", &[Value::Var(pattern(len, seed))]),
        };
        trace.push((out.elapsed, out.meter.tlb_misses(), out.ret, out.outs));
    }
    let end = env.rt.kernel().machine().cpu(0).now();
    (trace, end)
}

/// A serial runtime as imported, and one whose every page was then made
/// resident.
fn lazy_and_eager() -> (Env, Env) {
    let lazy = serial();
    let eager = serial();
    let extra = touch_regions(&eager);
    prefault_everything(&eager.rt, &extra);
    assert!(mem(&eager).resident_bytes() > mem(&lazy).resident_bytes());
    assert_eq!(mem(&eager).allocated_bytes(), mem(&lazy).allocated_bytes());
    (lazy, eager)
}

#[test]
fn fully_resident_memory_runs_the_same_virtual_clock_as_demand_zero_memory() {
    let (lazy, eager) = lazy_and_eager();
    let ops: Vec<Op> = (0..12u8).map(|i| (i, 512 * usize::from(i), i)).collect();
    let (lazy_trace, lazy_end) = virtual_trace(&lazy, &ops);
    let (eager_trace, eager_end) = virtual_trace(&eager, &ops);
    assert_eq!(lazy_trace, eager_trace);
    assert_eq!(lazy_end, eager_end);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any call sequence charges the same virtual time over demand-zero
    /// and fully resident memory, and on demand-zero memory only ever
    /// adds resident pages, never past what is allocated.
    #[test]
    fn any_call_sequence_is_blind_to_residency(
        ops in proptest::collection::vec((0u8..4, 0usize..6000, any::<u8>()), 1..24),
    ) {
        let (lazy, eager) = lazy_and_eager();
        let mut resident = 0;
        for op in &ops {
            let (lazy_out, lazy_end) = virtual_trace(&lazy, &[*op]);
            let (eager_out, eager_end) = virtual_trace(&eager, &[*op]);
            prop_assert_eq!(lazy_out, eager_out);
            prop_assert_eq!(lazy_end, eager_end);
            let now = mem(&lazy).resident_bytes();
            prop_assert!(now >= resident, "resident memory shrank: {} -> {}", resident, now);
            prop_assert!(now <= mem(&lazy).allocated_bytes());
            resident = now;
        }
    }
}

#[test]
fn a_machine_read_charges_the_same_for_resident_and_unwritten_pages() {
    let machine = Machine::new(1, CostModel::cvax_firefly());
    let ctx = machine.create_context();
    let cold = machine.mem().alloc("cold", 4 * PAGE_SIZE);
    let warm = machine.mem().alloc("warm", 4 * PAGE_SIZE);
    warm.write_raw(0, &[0; 4 * PAGE_SIZE]).unwrap();
    for r in [&cold, &warm] {
        ctx.map(r.id(), Protection::Read);
    }
    let cpu = machine.cpu(0);
    let read = |r: &Region| {
        let mut meter = Meter::enabled();
        let before = (cpu.now(), cpu.tlb_misses());
        let mut buf = [0xAAu8; 3 * PAGE_SIZE];
        machine
            .read_mem(cpu, &ctx, r, PAGE_SIZE / 2, &mut buf, false, &mut meter)
            .unwrap();
        assert_eq!(buf, [0; 3 * PAGE_SIZE]);
        (
            cpu.now() - before.0,
            cpu.tlb_misses() - before.1,
            meter.tlb_misses(),
        )
    };
    // Same page count, both cold in the TLB: identical charges.
    let cold_cost = read(&cold);
    let warm_cost = read(&warm);
    assert_eq!(cold_cost, warm_cost);
    assert_eq!(cold_cost.1, 4);
    assert_eq!(cold.resident_pages(), 0, "a read faulted a page in");
}

// ----------------------------------------------------------------------
// Faults leave memory untouched.
// ----------------------------------------------------------------------

#[test]
fn a_write_from_an_unmapped_context_faults_in_nothing() {
    let env = serial();
    let machine = env.rt.kernel().machine();
    let astacks = env.binding.state().astacks.primary_region();
    let outsider = env.rt.kernel().create_domain("outsider");
    let mut meter = Meter::disabled();
    let err = machine
        .write_mem(
            machine.cpu(0),
            outsider.ctx(),
            astacks,
            0,
            &[0xFF; 64],
            false,
            &mut meter,
        )
        .unwrap_err();
    assert!(matches!(err, MemFault::NotMapped { .. }), "{err:?}");
    assert_eq!(astacks.resident_pages(), 0);
    assert_eq!(mem(&env).resident_bytes(), 0);
}

#[test]
fn a_write_through_a_read_only_mapping_faults_in_nothing() {
    let machine = Machine::new(1, CostModel::cvax_firefly());
    let ctx = machine.create_context();
    let region = machine.mem().alloc("read-only", 2 * PAGE_SIZE);
    ctx.map(region.id(), Protection::Read);
    let mut meter = Meter::disabled();
    let err = machine
        .write_mem(
            machine.cpu(0),
            &ctx,
            &region,
            10,
            &[1; 10],
            false,
            &mut meter,
        )
        .unwrap_err();
    assert!(
        matches!(err, MemFault::ProtectionViolation { write: true, .. }),
        "{err:?}"
    );
    assert_eq!(region.resident_pages(), 0);
    // The kernel may still write it.
    machine
        .write_mem(
            machine.cpu(0),
            &ctx,
            &region,
            10,
            &[1; 10],
            true,
            &mut meter,
        )
        .unwrap();
    assert_eq!(region.resident_pages(), 1);
}

#[test]
fn a_write_past_the_end_of_a_region_changes_no_byte_and_no_page() {
    let machine = Machine::new(1, CostModel::cvax_firefly());
    let ctx = machine.create_context();
    let region = machine.mem().alloc("edge", 2 * PAGE_SIZE + 100);
    ctx.map(region.id(), Protection::ReadWrite);
    let mut meter = Meter::disabled();
    // Straddles the last boundary and runs 4 bytes past the end: nothing
    // is written, not even the in-range prefix.
    let err = machine
        .write_mem(
            machine.cpu(0),
            &ctx,
            &region,
            2 * PAGE_SIZE - 4,
            &[9; 108],
            false,
            &mut meter,
        )
        .unwrap_err();
    assert!(
        matches!(err, MemFault::OutOfRange { offset, len: 108, .. } if offset == 2 * PAGE_SIZE - 4)
    );
    assert_eq!(region.resident_pages(), 0);
    assert_eq!(
        region.read_vec(0, region.len()).unwrap(),
        vec![0; region.len()]
    );
    // The same write, one page earlier, lands.
    machine
        .write_mem(
            machine.cpu(0),
            &ctx,
            &region,
            PAGE_SIZE - 4,
            &[9; 108],
            false,
            &mut meter,
        )
        .unwrap();
    assert_eq!(region.resident_pages(), 2);
}

#[test]
fn a_bulk_fallback_segment_leaves_the_resident_total_where_it_was() {
    let env = serial();
    let payload = [Value::Var(pattern(2000, 8))];
    call(&env, "Put", &payload);
    let steady = mem(&env).resident_bytes();
    let regions = mem(&env).region_count();
    // Present the arena as exhausted: each call maps, writes and unmaps a
    // per-call segment of its own.
    let plan = FaultPlan::new(FaultConfig {
        bulk_exhaust: true,
        ..FaultConfig::with_seed(3)
    });
    env.rt.set_fault_plan(Some(plan));
    for _ in 0..10 {
        assert_eq!(call(&env, "Put", &payload).ret, Some(Value::Int32(2000)));
    }
    assert!(env.binding.state().stats.bulk_fallbacks() >= 10);
    assert_eq!(mem(&env).region_count(), regions);
    assert_eq!(mem(&env).resident_bytes(), steady);
}

// ----------------------------------------------------------------------
// Concurrency and reclamation.
// ----------------------------------------------------------------------

#[test]
fn concurrent_writers_to_one_region_each_see_their_own_bytes() {
    let machine = Machine::new(4, CostModel::cvax_firefly());
    let region = machine.mem().alloc("shared", 8 * PAGE_SIZE);
    // Four writers, each owning two pages, write records that straddle
    // their two pages over and over while the others do the same.
    std::thread::scope(|s| {
        for w in 0..4usize {
            let region = &region;
            s.spawn(move || {
                let base = w * 2 * PAGE_SIZE;
                for round in 0..200u32 {
                    let record = pattern(64, (w as u8) ^ (round as u8));
                    region.write_raw(base + PAGE_SIZE - 32, &record).unwrap();
                    assert_eq!(region.read_vec(base + PAGE_SIZE - 32, 64).unwrap(), record);
                }
            });
        }
    });
    assert_eq!(region.resident_pages(), 8);
    for w in 0..4usize {
        let base = w * 2 * PAGE_SIZE;
        let last = pattern(64, (w as u8) ^ 199);
        assert_eq!(region.read_vec(base + PAGE_SIZE - 32, 64).unwrap(), last);
        assert_eq!(
            region.read_vec(base, PAGE_SIZE - 32).unwrap(),
            vec![0; PAGE_SIZE - 32]
        );
    }
}

#[test]
fn terminating_both_domains_hands_every_resident_page_back() {
    let env = serial();
    call(&env, "Echo", &[Value::Bytes(pattern(ECHO_LEN, 2))]);
    call(&env, "Put", &[Value::Var(pattern(4000, 2))]);
    call(&env, "Peek", &peek_args(5));
    assert!(mem(&env).resident_bytes() > 0);
    let server_resident: usize = owned_regions(&env.rt, "estack-")
        .iter()
        .map(|r| r.resident_pages() * PAGE_SIZE)
        .sum();
    assert!(server_resident > 0);
    let before = mem(&env).resident_bytes();
    env.rt.terminate_domain(&env.server);
    assert_eq!(mem(&env).resident_bytes(), before - server_resident);
    env.rt.terminate_domain(&env.client);
    assert_eq!(mem(&env).resident_bytes(), 0);
    assert_eq!(env.rt.kernel().snapshot().resident_bytes, 0);
}

#[test]
fn the_kernel_snapshot_reports_resident_bytes_as_memory_does() {
    let env = serial();
    call(&env, "Echo", &[Value::Bytes(pattern(ECHO_LEN, 4))]);
    let snap = env.rt.kernel().snapshot();
    assert_eq!(snap.resident_bytes, mem(&env).resident_bytes());
    assert_eq!(snap.allocated_bytes, mem(&env).allocated_bytes());
    assert!(snap.resident_bytes > 0 && snap.resident_bytes < snap.allocated_bytes);
    assert_eq!(snap.resident_bytes % PAGE_SIZE, 0);
    let printed = snap.to_string();
    assert!(
        printed.contains(&format!(
            "{} bytes ({} resident)",
            snap.allocated_bytes, snap.resident_bytes
        )),
        "{printed}"
    );
}
