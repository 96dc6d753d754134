//! The LRPC call and return path (Section 3.2).
//!
//! "A client makes an LRPC by calling into its stub procedure which is
//! responsible for initiating the domain transfer. ... At call time, the
//! stub takes an A-stack off the queue, pushes the procedure's arguments
//! onto the A-stack, puts the address of the A-stack, the Binding Object
//! and a procedure identifier into registers, and traps to the kernel."
//!
//! The kernel then, in the context of the client's thread: verifies the
//! Binding and procedure identifier; verifies the A-stack and locates the
//! corresponding linkage; ensures no other thread is using that
//! A-stack/linkage pair; records the caller's return address; pushes the
//! linkage onto the thread's linkage stack; finds an execution stack in the
//! server's domain; switches the virtual-memory context (or exchanges
//! processors with one idling in the server's context, Section 3.4); and
//! performs an upcall into the server's stub.
//!
//! Every step here is *functional* — real validation, real byte copies
//! through the pairwise-shared A-stack, real linkage-stack manipulation —
//! and each step also charges its calibrated cost to the executing
//! simulated CPU, so the virtual clock reproduces the paper's latencies.
//!
//! The path runs in four stages over one per-call state value, [`Call`]:
//! `client_push` (client stub, A-stack, argument push, out-of-band
//! transport), a crossing into the server, `serve` (server stub, dispatch,
//! result placement), a crossing back, and `complete` (result fetch and
//! release). The serial call below crosses directly, one trap pair per
//! call; [`crate::ring`] runs the same stages with a doorbell crossing
//! shared by a whole batch.

use std::cell::Cell;
use std::sync::Arc;

use firefly::cost::CostModel;
use firefly::cpu::{Cpu, Machine};
use firefly::error::MemFault;
use firefly::fault::FaultPlan;
use firefly::mem::{PageId, Region};
use firefly::meter::{Meter, Phase, TraceId};
use firefly::time::Nanos;
use firefly::vm::VmContext;
use idl::copyops::{CopyLog, CopyOp};
use idl::plan::ArgVec;
use idl::stubvm::{needs_server_copy, Frame, OobStore, StubError, StubVm};
use idl::wire::Value;
use kernel::objects::RawHandle;
use kernel::thread::{Linkage, ReturnPath, Thread};
use kernel::Domain;

use crate::astack::{AStackPolicy, AStackRef, LinkageSlot};
use crate::binding::{BindingState, ServerCtx};
use crate::error::CallError;
use crate::runtime::LrpcRuntime;

/// Extra validation time for an A-stack outside the primary contiguous
/// region (Section 5.2: "A-stacks in this space ... will take slightly
/// more time to validate during a call").
const OVERFLOW_VALIDATION_COST: Nanos = Nanos::from_micros(3);

/// One-time cost of allocating a fresh E-stack out of the server domain
/// (the lazy-association slow path).
const ESTACK_ALLOC_COST: Nanos = Nanos::from_micros(10);

/// Cost of mapping and unmapping a per-call out-of-band segment
/// ("Handling unexpectedly large parameters is complicated and relatively
/// expensive, but infrequent", Section 5.2). Steady-state large calls
/// avoid it entirely by leasing a chunk of the binding's bind-time
/// [`crate::bulk::BulkArena`]; only the fallback path (payload over the
/// chunk size, or arena exhausted) still pays it.
pub const OOB_SEGMENT_COST: Nanos = Nanos::from_micros(20);

/// Name of the per-class A-stack queue lock, for lock-time attribution.
pub const ASTACK_QUEUE_LOCK: &str = "astack-queue";

/// Everything a completed call reports.
#[derive(Debug)]
pub struct CallOutcome {
    /// The procedure's return value, if declared.
    pub ret: Option<Value>,
    /// Out/inout parameter results as `(param_index, value)`.
    pub outs: Vec<(usize, Value)>,
    /// Virtual time the call took on the calling thread.
    pub elapsed: Nanos,
    /// Phase-by-phase time breakdown (enabled calls only).
    pub meter: Meter,
    /// The copy operations performed (Table 3).
    pub copies: CopyLog,
    /// True if the call-direction transfer used a processor exchange.
    pub exchanged_on_call: bool,
    /// True if the return-direction transfer used a processor exchange.
    pub exchanged_on_return: bool,
    /// The CPU the thread ended on (differs from the start CPU after an
    /// odd number of exchanges).
    pub end_cpu: usize,
    /// The call's identity in the flight recorder: every span this call
    /// emitted carries this id, so `obs::flight::spans_for(outcome.trace)`
    /// isolates exactly this call's phases.
    pub trace: TraceId,
}

/// A stub-VM frame backed by a slice of a (pairwise-shared) A-stack
/// region, with protection checks and TLB page touches.
struct AStackFrame<'a> {
    cpu: &'a Cpu,
    ctx: &'a VmContext,
    region: &'a Region,
    base: usize,
    len: usize,
    misses: Cell<u64>,
}

impl<'a> AStackFrame<'a> {
    fn new(cpu: &'a Cpu, ctx: &'a VmContext, region: &'a Region, base: usize, len: usize) -> Self {
        AStackFrame {
            cpu,
            ctx,
            region,
            base,
            len,
            misses: Cell::new(0),
        }
    }

    fn misses(&self) -> u64 {
        self.misses.get()
    }

    fn touch(&self, offset: usize, len: usize) {
        let mut scratch = Meter::disabled();
        let n = self.cpu.touch_pages(
            self.region.pages_for(self.base + offset, len.max(1)),
            &mut scratch,
        );
        self.misses.set(self.misses.get() + n);
    }
}

impl Frame for AStackFrame<'_> {
    fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), StubError> {
        if offset + data.len() > self.len {
            return Err(StubError::Frame(MemFault::OutOfRange {
                region: self.region.id(),
                offset: self.base + offset,
                len: data.len(),
            }));
        }
        self.ctx
            .check(self.region.id(), true, false)
            .map_err(StubError::Frame)?;
        self.touch(offset, data.len());
        self.region
            .write_raw(self.base + offset, data)
            .map_err(StubError::Frame)
    }

    fn read_into(&self, offset: usize, out: &mut [u8]) -> Result<(), StubError> {
        if offset + out.len() > self.len {
            return Err(StubError::Frame(MemFault::OutOfRange {
                region: self.region.id(),
                offset: self.base + offset,
                len: out.len(),
            }));
        }
        self.ctx
            .check(self.region.id(), false, false)
            .map_err(StubError::Frame)?;
        self.touch(offset, out.len());
        self.region
            .read_raw(self.base + offset, out)
            .map_err(StubError::Frame)
    }
}

pub(crate) fn charge(cpu: &Cpu, meter: &mut Meter, phase: Phase, amount: Nanos) {
    cpu.charge(amount);
    meter.record_span(phase, amount, cpu.now());
}

/// Where one call's in-direction out-of-band segments travel: a chunk of
/// the binding's bind-time bulk arena (steady state) or a freshly mapped
/// per-call segment (fallback). Either way the bytes cross domains through
/// a pairwise-shared region under the server's protection checks.
struct OobTransport {
    region: Arc<Region>,
    base: usize,
}

/// What every call through one binding shares: the runtime, the binding,
/// the calling thread, the Binding Object it presents and the fault plan
/// in force. A batch builds one for all of its calls.
pub(crate) struct CallEnv<'a> {
    pub(crate) rt: &'a Arc<LrpcRuntime>,
    pub(crate) state: &'a Arc<BindingState>,
    pub(crate) thread: &'a Arc<Thread>,
    handle: RawHandle,
    pub(crate) fault: Option<Arc<FaultPlan>>,
    metered: bool,
}

impl<'a> CallEnv<'a> {
    pub(crate) fn new(
        rt: &'a Arc<LrpcRuntime>,
        handle: RawHandle,
        state: &'a Arc<BindingState>,
        thread: &'a Arc<Thread>,
        metered: bool,
    ) -> CallEnv<'a> {
        CallEnv {
            rt,
            state,
            thread,
            handle,
            fault: rt.fault_plan(),
            metered,
        }
    }

    pub(crate) fn machine(&self) -> &'a Arc<Machine> {
        self.rt.kernel().machine()
    }

    pub(crate) fn cost(&self) -> &'a CostModel {
        self.machine().cost()
    }

    /// A meter for one call (or one batch's crossings).
    pub(crate) fn meter(&self) -> Meter {
        let mut meter = if self.metered {
            Meter::enabled()
        } else {
            Meter::disabled()
        };
        // Every call — metered or not — carries a TraceId, so the flight
        // recorder (when enabled) captures phase spans even from
        // throughput loops that skip per-call segment metering. One
        // relaxed fetch_add.
        meter.set_trace(TraceId::next());
        meter
    }

    /// Kernel validation of the Binding Object a crossing presents: the
    /// handle presented, and the binding it names, whose domains must
    /// both be live. This is the call path's one liveness check: it runs
    /// before any linkage is pushed, so a thread already inside a domain
    /// that terminates sees call-failed (or call-aborted) on return.
    ///
    /// Fault injection at `site`: present a forged Binding Object (wrong
    /// nonce) so the kernel's own validation — not a shortcut — rejects
    /// the crossing.
    pub(crate) fn validate_binding(
        &self,
        site: &str,
    ) -> Result<(RawHandle, Arc<BindingState>), CallError> {
        let handle = match &self.fault {
            Some(plan) if plan.forge_binding(site) => RawHandle {
                id: self.handle.id,
                nonce: self.handle.nonce ^ 0xDEAD_BEEF,
            },
            _ => self.handle,
        };
        let state = self.rt.validate_binding(handle)?;
        if !state.server.is_active() || !state.client.is_active() {
            return Err(CallError::DomainDead);
        }
        Ok((handle, state))
    }
}

/// The return trap's linkage pop, under the Section 5.3 rules: restore the
/// caller's saved stack pointer, or raise call-failed when a domain on the
/// way terminated, or destroy the thread if its client abandoned it.
pub(crate) fn return_to_caller(env: &CallEnv<'_>) -> Result<(), CallError> {
    match env.thread.pop_linkage() {
        ReturnPath::Return { to, call_failed } => {
            env.thread.set_user_sp(to.return_sp);
            if call_failed || to.caller_domain != env.state.client.id() {
                // A domain involved in this call terminated while we were
                // out; the caller sees a call-failed exception.
                return Err(CallError::CallFailed);
            }
            Ok(())
        }
        ReturnPath::DestroyThread => {
            let aborted = env.thread.is_abandoned();
            env.rt.kernel().reap_thread(env.thread.id());
            Err(if aborted {
                CallError::CallAborted
            } else {
                CallError::CallFailed
            })
        }
    }
}

/// One call in flight through the four stages of the call path.
///
/// `client_push` → crossing in → `serve` → crossing out → `complete`. The
/// crossing is the only part that differs between a serial call (a direct
/// trap pair, [`Call::direct_in`]/[`Call::direct_out`], charged to this
/// call's meter) and a batched one (a doorbell shared by the batch, charged
/// to the batch meter; see [`crate::ring`]). Both crossings validate each
/// call with [`Call::admit`] and find its E-stack with
/// [`Call::associate_estack`].
///
/// The value owns everything the call has acquired; dropping it on any
/// exit path releases exactly that.
pub(crate) struct Call<'a> {
    env: &'a CallEnv<'a>,
    /// The CPU the thread is on (changes on a processor exchange).
    cpu: &'a Cpu,
    pub(crate) proc_index: usize,
    start: Nanos,
    meter: Meter,
    copies: CopyLog,
    /// Out-of-band store: in-direction segments from the client push,
    /// out-direction segments appended by the server place.
    oob: OobStore,
    transport: Option<OobTransport>,
    astack: Option<AStackRef>,
    /// A leased bulk-arena chunk to return.
    bulk_chunk: Option<usize>,
    /// A per-call fallback segment to unmap and free.
    oob_region: Option<Arc<Region>>,
    slot: Option<Arc<LinkageSlot>>,
    estack_key: Option<u64>,
    linkage_pushed: bool,
    exchanged_on_call: bool,
    exchanged_on_return: bool,
}

impl Drop for Call<'_> {
    fn drop(&mut self) {
        if self.linkage_pushed {
            let _ = self.env.thread.pop_linkage();
        }
        self.leave_server();
        self.release_transport();
        if let Some(aref) = self.astack.take() {
            self.env.state.astacks.release(aref.index);
        }
    }
}

impl<'a> Call<'a> {
    /// Starts a call on `cpu`: the formal procedure call into the client
    /// stub — the only procedure call a simple LRPC needs on the client
    /// side.
    pub(crate) fn new(env: &'a CallEnv<'a>, cpu: &'a Cpu, proc_index: usize) -> Call<'a> {
        let mut call = Call {
            env,
            cpu,
            proc_index,
            start: cpu.now(),
            meter: env.meter(),
            copies: CopyLog::new(),
            oob: OobStore::new(),
            transport: None,
            astack: None,
            bulk_chunk: None,
            oob_region: None,
            slot: None,
            estack_key: None,
            linkage_pushed: false,
            exchanged_on_call: false,
            exchanged_on_return: false,
        };
        call.charge(Phase::ProcedureCall, env.cost().hw.procedure_call);
        call
    }

    /// Charges `amount` to the call's CPU, recorded as `phase`.
    fn charge(&mut self, phase: Phase, amount: Nanos) {
        charge(self.cpu, &mut self.meter, phase, amount);
    }

    /// One A-stack queue operation (acquire or release).
    fn queue_op(&mut self) {
        let amount = self.env.cost().astack_queue_op;
        self.cpu.charge(amount);
        self.meter.record_locked_span(
            Phase::QueueOp,
            amount,
            Some(ASTACK_QUEUE_LOCK),
            self.cpu.now(),
        );
    }

    /// Touches one of the binding's bind-time touch sets.
    fn touch(&mut self, pages: &[PageId]) {
        self.cpu.touch_pages(pages.iter().copied(), &mut self.meter);
    }

    /// Touches the first page of the call's A-stack.
    fn touch_astack(&mut self) {
        if let Some(a) = &self.astack {
            self.cpu
                .touch_pages(a.region.pages_for(a.offset, 1), &mut self.meter);
        }
    }

    /// The index of the call's A-stack (set by [`Call::client_push`]).
    pub(crate) fn astack_index(&self) -> usize {
        self.astack.as_ref().map_or(usize::MAX, |a| a.index)
    }

    /// Hands a call on a remote binding to the network transport.
    fn remote(mut self, args: &[Value]) -> Result<CallOutcome, CallError> {
        let state = self.env.state;
        let transport = self
            .env
            .rt
            .remote_transport()
            .ok_or(CallError::NoRemoteTransport)?;
        state.stats.note_remote();
        let (ret, outs) = transport.call(
            &state.interface.name,
            self.proc_index,
            args,
            self.cpu,
            &mut self.meter,
        )?;
        Ok(self.finish(ret, outs))
    }

    /// Stage 1, client stub call half: take an A-stack off the queue, push
    /// the arguments onto it (copy A of Table 3) and stage out-of-band
    /// values in shared memory.
    ///
    /// The client context load is a crossing cost: it goes on `crossing`
    /// (a batch's meter) when given, else on the call's own meter.
    pub(crate) fn client_push(
        &mut self,
        args: &[Value],
        crossing: Option<&mut Meter>,
    ) -> Result<(), CallError> {
        let env = self.env;
        let state = env.state;
        let cost = env.cost();
        let cpu = self.cpu;
        let proc = state
            .interface
            .procs
            .get(self.proc_index)
            .ok_or(CallError::BadProcedure {
                index: self.proc_index,
            })?;
        // The copy plan compiled for this procedure at import time:
        // offsets, checks and cost totals all hoisted out of the call. A
        // half that could not be specialized is `None` and runs the
        // interpreter below.
        let plan = &state.plans.procs[self.proc_index];
        let client_ctx = state.client.ctx();

        // First call on this CPU: the client's context must be loaded.
        let ctx_meter = crossing.unwrap_or(&mut self.meter);
        cpu.switch_context(client_ctx.id(), cost, ctx_meter);

        self.charge(Phase::ClientStub, cost.client_stub_call);
        self.touch(state.touch.client_call());

        let class = state.astacks.class_of_proc(self.proc_index);
        // Fault injection: drain the class's free list so this acquire
        // faces genuine exhaustion and takes the real Section 5.2 path
        // (fail, or overflow growth under `Grow`). The stolen stacks go
        // straight back afterwards, so nothing leaks across calls.
        let stolen: Vec<usize> = match &env.fault {
            Some(plan) if plan.exhaust_astacks("call:astacks") => {
                let mut stolen = Vec::new();
                while let Ok(idx) = state.astacks.acquire(
                    class,
                    AStackPolicy::Fail,
                    env.rt.kernel(),
                    &state.client,
                    &state.server,
                ) {
                    stolen.push(idx);
                }
                stolen
            }
            _ => Vec::new(),
        };
        let acquire_policy = if stolen.is_empty() {
            env.rt.config().astack_policy
        } else {
            match env.rt.config().astack_policy {
                // Growing still works while exhausted; waiting would block
                // on stacks this very call is holding hostage.
                AStackPolicy::Grow => AStackPolicy::Grow,
                _ => AStackPolicy::Fail,
            }
        };
        let acquired = state.astacks.acquire(
            class,
            acquire_policy,
            env.rt.kernel(),
            &state.client,
            &state.server,
        );
        for idx in stolen {
            state.astacks.release(idx);
        }
        let astack_idx = acquired?;
        self.queue_op();
        let Some(aref) = state.astacks.lookup(astack_idx) else {
            state.astacks.release(astack_idx);
            return Err(CallError::BadAStack);
        };
        self.astack = Some(aref);
        // The stub's queue management and register setup touch the A-stack.
        self.touch_astack();

        // Push the arguments onto the shared A-stack. A compiled push plan
        // executes the fused bulk moves; otherwise the interpreter walks
        // the parameter list op by op.
        if let Some(aref) = &self.astack {
            let mut frame = AStackFrame::new(cpu, client_ctx, &aref.region, aref.offset, aref.size);
            let mut vm = StubVm::new(cost, cpu, &mut self.meter);
            match &plan.push {
                Some(p) => p.execute(proc, args, &mut frame, &mut vm)?,
                None => vm.client_push_args(proc, args, &mut frame, &mut self.oob)?,
            }
            let misses = frame.misses();
            self.meter.add_tlb_misses(misses);
        }
        if env.metered {
            for (slot, p) in proc.layout.params.iter().zip(&proc.def.params) {
                if p.dir.is_in() {
                    self.copies.record(CopyOp::A, slot.size);
                }
            }
        }

        // Oversized/complex values travel in a real out-of-band memory
        // segment, pairwise-mapped like the A-stacks, rather than in host
        // memory: write the marshaled segments into it and reread them on
        // the server side under the server's protection context. Steady
        // state leases a chunk of the bind-time bulk arena (no map/unmap);
        // the per-call segment survives as the fallback for payloads over
        // the chunk size or an exhausted arena.
        if self.oob.is_empty() {
            return Ok(());
        }
        let total: usize = self.oob.iter().map(|s| s.len() + 8).sum();
        state.stats.observe_bulk_bytes(total as u64);
        // Fault injection: present the arena as exhausted, so this call
        // exercises the real per-call fallback path.
        let exhausted = matches!(&env.fault, Some(plan) if plan.exhaust_bulk("call:bulk"));
        let chunk = if exhausted {
            None
        } else {
            state.bulk.as_ref().and_then(|a| a.acquire(total))
        };
        let (region, base) = match chunk {
            Some(c) => {
                self.bulk_chunk = Some(c.index);
                let arena = state.bulk.as_ref().expect("chunk implies arena");
                (Arc::clone(arena.region()), c.offset)
            }
            None => {
                state.stats.note_bulk_fallback();
                self.charge(Phase::OobSegment, OOB_SEGMENT_COST);
                let region = env.rt.kernel().map_pairwise(
                    "oob-segment",
                    &state.client,
                    &state.server,
                    total.max(8),
                );
                self.oob_region = Some(Arc::clone(&region));
                (region, 0)
            }
        };
        let mut off = base;
        let mut scratch = Meter::disabled();
        for seg in &self.oob {
            let mut hdr = [0u8; 8];
            hdr[..4].copy_from_slice(&(seg.len() as u32).to_le_bytes());
            region.write_raw(off, &hdr).map_err(CallError::Mem)?;
            region.write_raw(off + 8, seg).map_err(CallError::Mem)?;
            cpu.touch_pages(region.pages_for(off, seg.len() + 8), &mut scratch);
            off += seg.len() + 8;
        }
        self.transport = Some(OobTransport { region, base });
        Ok(())
    }

    /// Kernel validation of this call at a crossing, against the binding
    /// the presented Binding Object named: verify the procedure
    /// identifier, verify the A-stack and locate its linkage, and ensure
    /// no other thread is using the pair. Records the caller's return
    /// address in the linkage and returns the record, for the crossing to
    /// push onto the thread's linkage stack.
    pub(crate) fn admit(
        &mut self,
        vstate: &BindingState,
        handle: RawHandle,
    ) -> Result<Linkage, CallError> {
        if self.proc_index >= vstate.interface.procs.len() {
            return Err(CallError::BadProcedure {
                index: self.proc_index,
            });
        }
        let astack_idx = self.astack_index();
        let class = self.env.state.astacks.class_of_proc(self.proc_index);
        if vstate.astacks.validate(astack_idx, class)?.overflow {
            self.charge(Phase::Validation, OVERFLOW_VALIDATION_COST);
        }
        let slot = vstate
            .astacks
            .linkage(astack_idx)
            .ok_or(CallError::BadAStack)?;
        if !slot.try_claim() {
            return Err(CallError::AStackBusy);
        }
        let linkage = Linkage {
            caller_domain: vstate.client.id(),
            callee_domain: vstate.server.id(),
            binding: handle,
            astack_index: astack_idx,
            proc_index: self.proc_index,
            return_sp: self.env.thread.user_sp(),
            valid: true,
        };
        slot.set_record(linkage);
        self.slot = Some(slot);
        Ok(linkage)
    }

    /// Finds an execution stack in the server's domain (lazy association)
    /// and points the thread's user stack pointer at it. The association
    /// key is the A-stack's global identity (region + index), so distinct
    /// bindings never collide.
    pub(crate) fn associate_estack(&mut self) -> Result<(), CallError> {
        let env = self.env;
        let aref = self.astack.as_ref().ok_or(CallError::BadAStack)?;
        let astack_idx = aref.index;
        let astack_key = (aref.region.id().0 << 24) | astack_idx as u64;
        let (estack, fresh) = env
            .state
            .estack_pool
            .get_for_call(env.rt.kernel(), astack_key);
        self.estack_key = Some(astack_key);
        if fresh {
            self.charge(Phase::Other, ESTACK_ALLOC_COST);
        }
        env.thread.set_user_sp(estack.id().0 << 32);
        // The kernel primes the E-stack with the initial call frame
        // expected by the server's procedure, "enabling the server stub to
        // branch to the first instruction of the procedure".
        let mut frame_header = [0u8; 16];
        frame_header[..4].copy_from_slice(&(self.proc_index as u32).to_le_bytes());
        frame_header[4..8].copy_from_slice(&(astack_idx as u32).to_le_bytes());
        frame_header[8..].copy_from_slice(&0xF1FE_F1FE_CA11_F4A3u64.to_le_bytes());
        estack.write_raw(0, &frame_header).map_err(CallError::Mem)
    }

    /// Return-trap bookkeeping: release the linkage record and end the
    /// E-stack association.
    pub(crate) fn leave_server(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.release();
        }
        if let Some(key) = self.estack_key.take() {
            self.env.state.estack_pool.end_call(key);
        }
    }

    /// Returns the bulk-arena chunk (lock-free push) or reclaims the
    /// per-call fallback segment.
    fn release_transport(&mut self) {
        let state = self.env.state;
        if let Some(chunk) = self.bulk_chunk.take() {
            if let Some(arena) = &state.bulk {
                arena.release(chunk);
            }
        }
        if let Some(region) = self.oob_region.take() {
            state.client.ctx().unmap(region.id());
            state.server.ctx().unmap(region.id());
            self.env.machine().mem().free(region.id());
        }
    }

    /// Moves the thread into `to`'s context: exchange processors with one
    /// idling there (Section 3.4), or context-switch this one. Returns
    /// true on an exchange.
    fn transfer(&mut self, from: &Domain, to: &Domain) -> bool {
        let env = self.env;
        let cost = env.cost();
        if env.rt.config().domain_caching {
            let machine = env.machine();
            if let Some(idle) = machine.claim_idle_cpu_in(to.ctx().id()) {
                // The calling thread continues on the CPU where `to`'s
                // context is already loaded; the idling thread keeps
                // idling on the thread's original processor.
                let target = machine.cpu(idle);
                target.advance_to(self.cpu.now());
                self.cpu.set_idle_in(Some(from.ctx().id()));
                self.cpu = target;
                self.charge(Phase::ProcessorExchange, cost.processor_exchange);
                to.note_idle_hit();
                env.state.stats.note_cache_hit();
                return true;
            }
            to.note_idle_miss();
            env.state.stats.note_cache_miss();
        }
        self.cpu
            .switch_context(to.ctx().id(), cost, &mut self.meter);
        false
    }

    /// The direct crossing into the server, all on this call's meter: trap,
    /// Binding Object and per-call validation, linkage push, E-stack
    /// association, then a context switch or processor exchange.
    fn direct_in(&mut self) -> Result<(), CallError> {
        let env = self.env;
        let state = env.state;
        env.rt.kernel().trap(self.cpu, &mut self.meter);
        self.charge(Phase::KernelTransfer, env.cost().kernel_transfer_call);
        self.touch(state.touch.kernel_call());
        let (handle, vstate) = env.validate_binding("call:binding")?;
        let linkage = self.admit(&vstate, handle)?;
        env.thread.push_linkage(linkage);
        self.linkage_pushed = true;
        self.associate_estack()?;
        self.exchanged_on_call = self.transfer(&state.client, &state.server);
        Ok(())
    }

    /// Stage 3, in the server's domain on the migrated client thread: the
    /// server stub reads the arguments off the A-stack (rebuilding
    /// out-of-band values under the server's protection context), the
    /// procedure runs, and the stub places its results.
    pub(crate) fn serve(&mut self) -> Result<(), CallError> {
        let env = self.env;
        let state = env.state;
        let cost = env.cost();
        let cpu = self.cpu;
        let proc = &state.interface.procs[self.proc_index];
        let plan = &state.plans.procs[self.proc_index];
        let server_ctx = state.server.ctx();

        self.charge(Phase::ServerStub, cost.server_stub_entry);
        self.touch(state.touch.server_side());
        if self.exchanged_on_call && plan.in_bytes > 0 {
            // The arguments were written into the other processor's cache.
            self.charge(
                Phase::ArgCopy,
                cost.remote_access_per_byte * plan.in_bytes as u64,
            );
        }
        self.touch_astack();

        let server_oob: OobStore = match &self.transport {
            None => OobStore::new(),
            Some(t) => {
                server_ctx
                    .check(t.region.id(), false, false)
                    .map_err(CallError::Mem)?;
                let mut segs = OobStore::new();
                let mut off = t.base;
                let mut scratch = Meter::disabled();
                for _ in 0..self.oob.len() {
                    let hdr = t.region.read_vec(off, 8).map_err(CallError::Mem)?;
                    let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
                    segs.push(t.region.read_vec(off + 8, len).map_err(CallError::Mem)?);
                    cpu.touch_pages(t.region.pages_for(off, len + 8), &mut scratch);
                    off += len + 8;
                }
                segs
            }
        };

        let aref = self.astack.as_ref().ok_or(CallError::BadAStack)?;
        let sargs = {
            let frame = AStackFrame::new(cpu, server_ctx, &aref.region, aref.offset, aref.size);
            let mut vm = StubVm::new(cost, cpu, &mut self.meter);
            let vals = match &plan.read {
                Some(rp) => {
                    let mut out = ArgVec::new();
                    rp.execute(&frame, &mut vm, &mut out)?;
                    out
                }
                None => ArgVec::from_vec(vm.server_read_args(proc, &frame, &server_oob)?),
            };
            let misses = frame.misses();
            self.meter.add_tlb_misses(misses);
            vals
        };
        if env.metered {
            for (slot, p) in proc.layout.params.iter().zip(&proc.def.params) {
                if p.dir.is_in() && needs_server_copy(p, proc.def.inplace) {
                    self.copies.record(CopyOp::E, slot.size);
                }
            }
        }

        let sctx = ServerCtx {
            rt: Arc::clone(env.rt),
            thread: Arc::clone(env.thread),
            domain: Arc::clone(&state.server),
            cpu_id: cpu.id(),
        };
        let reply = state
            .clerk
            .dispatch(self.proc_index, &sctx, sargs.as_slice())?;

        // ---- Server stub, return half --------------------------------
        charge(
            cpu,
            &mut self.meter,
            Phase::ServerStub,
            cost.server_stub_return,
        );
        let mut frame = AStackFrame::new(cpu, server_ctx, &aref.region, aref.offset, aref.size);
        match &plan.place {
            Some(p) => p.execute(reply.ret.as_ref(), &reply.outs, &mut frame)?,
            None => {
                let mut vm = StubVm::new(cost, cpu, &mut self.meter);
                vm.server_place_results(
                    proc,
                    reply.ret.as_ref(),
                    &reply.outs,
                    &mut frame,
                    &mut self.oob,
                )?;
            }
        }
        let misses = frame.misses();
        self.meter.add_tlb_misses(misses);
        Ok(())
    }

    /// The direct crossing back, on this call's meter: trap, linkage pop,
    /// then a context switch or processor exchange.
    ///
    /// "Unlike the call ... this information, contained at the top of the
    /// linkage stack referenced by the thread's control block, is implicit
    /// in the return. There is no need to verify the returning thread's
    /// right to transfer back."
    fn direct_out(&mut self) -> Result<(), CallError> {
        let env = self.env;
        let state = env.state;
        env.rt.kernel().trap(self.cpu, &mut self.meter);
        self.charge(Phase::KernelTransfer, env.cost().kernel_transfer_return);
        self.touch(state.touch.kernel_return());
        self.leave_server();
        self.linkage_pushed = false;
        return_to_caller(env)?;
        self.exchanged_on_return = self.transfer(&state.server, &state.client);
        Ok(())
    }

    /// Stage 4, client stub return half: copy the results from the A-stack
    /// straight into their destinations (copy F of Table 3), release the
    /// call's resources and record its statistics.
    pub(crate) fn complete(mut self) -> Result<CallOutcome, CallError> {
        let env = self.env;
        let state = env.state;
        let cost = env.cost();
        let cpu = self.cpu;
        let proc = &state.interface.procs[self.proc_index];
        let plan = &state.plans.procs[self.proc_index];

        self.charge(Phase::ClientStub, cost.client_stub_return);
        self.touch(state.touch.client_return());
        if self.exchanged_on_return && plan.out_bytes > 0 {
            self.charge(
                Phase::ArgCopy,
                cost.remote_access_per_byte * plan.out_bytes as u64,
            );
        }
        self.touch_astack();

        let aref = self.astack.as_ref().ok_or(CallError::BadAStack)?;
        let frame = AStackFrame::new(
            cpu,
            state.client.ctx(),
            &aref.region,
            aref.offset,
            aref.size,
        );
        let mut vm = StubVm::new(cost, cpu, &mut self.meter);
        let (ret, outs) = match &plan.fetch {
            Some(p) => p.execute(&frame, &mut vm)?,
            None => vm.client_fetch_results(proc, &frame, &self.oob)?,
        };
        let misses = frame.misses();
        self.meter.add_tlb_misses(misses);
        if env.metered {
            if let Some(slot) = &proc.layout.ret {
                self.copies.record(CopyOp::F, slot.size);
            }
            for (slot, p) in proc.layout.params.iter().zip(&proc.def.params) {
                if p.dir.is_out() {
                    self.copies.record(CopyOp::F, slot.size);
                }
            }
        }

        self.release_transport();
        // Requeue the A-stack (LIFO) — a lock-free push; the virtual-time
        // charge still models the paper's queue-op cost.
        if let Some(aref) = self.astack.take() {
            state.astacks.release(aref.index);
        }
        self.queue_op();

        if env.metered {
            // Virtual time the four stub halves cost this call, for the
            // per-interface `lrpc_stub_ns` histogram.
            state.stats.observe_stub_ns(
                self.meter.total_for(Phase::ClientStub)
                    + self.meter.total_for(Phase::ServerStub)
                    + self.meter.total_for(Phase::ArgCopy)
                    + self.meter.total_for(Phase::Marshal),
            );
        }
        state.stats.note_exchanges(
            u64::from(self.exchanged_on_call) + u64::from(self.exchanged_on_return),
        );
        Ok(self.finish(ret, outs))
    }

    /// Records the call's latency and packages its outcome.
    fn finish(&mut self, ret: Option<Value>, outs: Vec<(usize, Value)>) -> CallOutcome {
        let elapsed = self.cpu.now() - self.start;
        let stats = &self.env.state.stats;
        stats.note_call();
        stats.observe_latency(elapsed);
        stats.observe_tail_latency(elapsed);
        let meter = std::mem::take(&mut self.meter);
        CallOutcome {
            ret,
            outs,
            elapsed,
            trace: meter.trace(),
            meter,
            copies: std::mem::take(&mut self.copies),
            exchanged_on_call: self.exchanged_on_call,
            exchanged_on_return: self.exchanged_on_return,
            end_cpu: self.cpu.id(),
        }
    }
}

/// The serial LRPC call path: the four stages with the direct crossing.
/// Returns the outcome or the raised exception.
#[expect(clippy::too_many_arguments)]
pub(crate) fn lrpc_call(
    rt: &Arc<LrpcRuntime>,
    handle: RawHandle,
    client_state: &Arc<BindingState>,
    cpu_start: usize,
    thread: &Arc<Thread>,
    proc_index: usize,
    args: &[Value],
    metered: bool,
) -> Result<CallOutcome, CallError> {
    let env = CallEnv::new(rt, handle, client_state, thread, metered);
    let mut call = Call::new(&env, env.machine().cpu(cpu_start), proc_index);
    // "Deciding whether a call is cross-domain or cross-machine is made at
    // the earliest possible moment — the first instruction of the stub."
    if client_state.remote {
        return call.remote(args);
    }
    call.client_push(args, None)?;
    call.direct_in()?;
    call.serve()?;
    call.direct_out()?;
    call.complete()
}
