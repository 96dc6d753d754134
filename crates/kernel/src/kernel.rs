//! The kernel facade.
//!
//! [`Kernel`] ties the simulated machine to the protection-domain and
//! thread abstractions: domain and thread creation, memory mapping
//! (including the pairwise read-write mapping used for A-stacks), trap
//! accounting, and the domain-termination collector of Section 5.3.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use firefly::cpu::{Cpu, Machine};
use firefly::mem::Region;
use firefly::meter::{Meter, Phase};
use firefly::vm::Protection;
use parking_lot::Mutex;

use crate::domain::{Domain, DomainState};
use crate::ids::{DomainId, ThreadId};
use crate::thread::{Thread, ThreadStatus};

/// Result of running the termination collector on a domain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TerminationReport {
    /// Memory regions reclaimed.
    pub regions_freed: usize,
    /// Linkage records invalidated across all threads.
    pub linkages_invalidated: usize,
    /// Threads homed in the domain that were destroyed outright.
    pub threads_destroyed: usize,
    /// Foreign threads found executing inside the dying domain (their
    /// callers will see a call-failed exception when they return).
    pub threads_in_domain: usize,
}

/// The small kernel.
///
/// The domain and thread tables are process-global locks; every
/// acquisition is reported to [`firefly::meter::note_global_lock`]. None
/// of these tables are consulted on the LRPC call fast path — calls carry
/// `Arc`s to their domains and threads — so the zero-global-lock test can
/// hold.
pub struct Kernel {
    machine: Arc<Machine>,
    next_domain: AtomicU64,
    next_thread: AtomicU64,
    domains: Mutex<HashMap<DomainId, Arc<Domain>>>,
    threads: Mutex<HashMap<ThreadId, Arc<Thread>>>,
}

impl Kernel {
    /// Boots a kernel on the given machine.
    pub fn new(machine: Arc<Machine>) -> Arc<Kernel> {
        Arc::new(Kernel {
            machine,
            next_domain: AtomicU64::new(1),
            next_thread: AtomicU64::new(1),
            domains: Mutex::new(HashMap::new()),
            threads: Mutex::new(HashMap::new()),
        })
    }

    /// The machine the kernel runs on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Creates a new, empty protection domain.
    pub fn create_domain(&self, name: impl Into<String>) -> Arc<Domain> {
        let id = DomainId(self.next_domain.fetch_add(1, Ordering::Relaxed));
        let ctx = self.machine.create_context();
        let domain = Arc::new(Domain::new(id, name, ctx));
        firefly::meter::note_global_lock();
        self.domains.lock().insert(id, Arc::clone(&domain));
        domain
    }

    /// Looks up a domain by id.
    pub fn domain(&self, id: DomainId) -> Option<Arc<Domain>> {
        firefly::meter::note_global_lock();
        self.domains.lock().get(&id).cloned()
    }

    /// All live domains, in creation (id) order. The order is part of
    /// the determinism contract: `sched::prod_idle_processors` breaks
    /// miss-count ties by position in this list.
    pub fn domains(&self) -> Vec<Arc<Domain>> {
        firefly::meter::note_global_lock();
        let mut domains: Vec<Arc<Domain>> = self.domains.lock().values().cloned().collect();
        domains.sort_by_key(|d| d.id());
        domains
    }

    /// Spawns a thread homed in `home`.
    pub fn spawn_thread(&self, home: &Domain) -> Arc<Thread> {
        let id = ThreadId(self.next_thread.fetch_add(1, Ordering::Relaxed));
        let thread = Arc::new(Thread::new(id, home.id()));
        firefly::meter::note_global_lock();
        self.threads.lock().insert(id, Arc::clone(&thread));
        thread
    }

    /// Looks up a thread by id.
    pub fn thread(&self, id: ThreadId) -> Option<Arc<Thread>> {
        firefly::meter::note_global_lock();
        self.threads.lock().get(&id).cloned()
    }

    /// All live threads, in spawn (id) order.
    pub fn threads(&self) -> Vec<Arc<Thread>> {
        firefly::meter::note_global_lock();
        let mut threads: Vec<Arc<Thread>> = self.threads.lock().values().cloned().collect();
        threads.sort_by_key(|t| t.id());
        threads
    }

    /// Allocates a region and maps it into `domain` with the given
    /// protection, recording ownership for reclamation.
    pub fn alloc_mapped(
        &self,
        domain: &Domain,
        label: impl Into<String>,
        len: usize,
        prot: Protection,
    ) -> Arc<Region> {
        let region = self.machine.mem().alloc(label, len);
        domain.ctx().map(region.id(), prot);
        domain.own_region(region.id());
        region
    }

    /// Allocates `len` bytes mapped read-write into exactly two domains —
    /// the pairwise allocation that gives LRPC "a private channel between
    /// the client and server" (Section 3.5). The region is owned (for
    /// reclamation) by `owner`.
    pub fn map_pairwise(
        &self,
        label: impl Into<String>,
        owner: &Domain,
        other: &Domain,
        len: usize,
    ) -> Arc<Region> {
        let region = self.machine.mem().alloc(label, len);
        owner.ctx().map(region.id(), Protection::ReadWrite);
        other.ctx().map(region.id(), Protection::ReadWrite);
        owner.own_region(region.id());
        region
    }

    /// Charges one kernel trap (entry or exit) to `cpu`.
    pub fn trap(&self, cpu: &Cpu, meter: &mut Meter) {
        let cost = self.machine.cost().hw.kernel_trap;
        cpu.charge(cost);
        meter.record_span(Phase::Trap, cost, cpu.now());
    }

    /// Runs the domain-termination collector (Section 5.3).
    ///
    /// The kernel-owned steps are performed here: the domain stops
    /// accepting transfers, every thread's linkage records involving the
    /// domain are invalidated, threads homed in the domain (and not off
    /// executing in another domain) are destroyed, the address space is
    /// unmapped and its regions reclaimed. LRPC-level steps (revoking
    /// Binding Objects, unregistering interfaces) are driven by the LRPC
    /// runtime around this call.
    pub fn terminate_domain(&self, domain: &Domain) -> TerminationReport {
        let mut report = TerminationReport::default();
        if domain.state() != DomainState::Active {
            return report;
        }
        domain.set_state(DomainState::Terminating);

        // Scan all threads: invalidate linkages, destroy home threads,
        // count foreign threads captured inside the dying domain.
        for thread in self.threads() {
            report.linkages_invalidated += thread.invalidate_linkages_involving(domain.id());
            if thread.home_domain() == domain.id() && !thread.in_lrpc() {
                if thread.status() != ThreadStatus::Destroyed {
                    thread.set_status(ThreadStatus::Destroyed);
                    report.threads_destroyed += 1;
                }
            } else if thread.current_domain() == domain.id() {
                report.threads_in_domain += 1;
            }
        }

        // Reclaim the address space.
        let regions = domain.take_owned_regions();
        report.regions_freed = regions.len();
        for r in regions {
            domain.ctx().unmap(r);
            self.machine.mem().free(r);
        }
        domain.ctx().unmap_all();
        self.machine.destroy_context(domain.ctx().id());

        domain.set_state(DomainState::Dead);
        firefly::meter::note_global_lock();
        self.domains.lock().remove(&domain.id());
        report
    }

    /// Creates a replacement for a thread captured by a server domain
    /// (Section 5.3): the new thread is homed where the captured thread
    /// was, with the captured thread's linkage stack minus the captured
    /// call — "as if it had just returned from the server procedure with a
    /// call-aborted exception". The captured thread is marked abandoned and
    /// will be destroyed by the kernel when released.
    ///
    /// Returns `None` if the thread is not currently in a call.
    pub fn replace_captured_thread(&self, captured: &Thread) -> Option<Arc<Thread>> {
        let mut linkages = captured.linkages();
        let top = linkages.pop()?;
        captured.abandon();
        let id = ThreadId(self.next_thread.fetch_add(1, Ordering::Relaxed));
        let replacement = Arc::new(Thread::new(id, captured.home_domain()));
        for l in linkages {
            replacement.push_linkage(l);
        }
        replacement.set_current_domain(top.caller_domain);
        firefly::meter::note_global_lock();
        self.threads.lock().insert(id, Arc::clone(&replacement));
        Some(replacement)
    }

    /// A point-in-time diagnostic snapshot of kernel state.
    pub fn snapshot(&self) -> KernelSnapshot {
        let domains = self.domains();
        let threads = self.threads();
        KernelSnapshot {
            domains: domains
                .iter()
                .map(|d| DomainSnapshot {
                    id: d.id(),
                    name: d.name().to_string(),
                    state: d.state(),
                    regions: d.owned_regions().len(),
                    threads_homed: threads.iter().filter(|t| t.home_domain() == d.id()).count(),
                    threads_inside: threads
                        .iter()
                        .filter(|t| t.current_domain() == d.id())
                        .count(),
                })
                .collect(),
            threads: threads.len(),
            threads_in_calls: threads.iter().filter(|t| t.in_lrpc()).count(),
            regions: self.machine.mem().region_count(),
            allocated_bytes: self.machine.mem().allocated_bytes(),
            resident_bytes: self.machine.mem().resident_bytes(),
        }
    }

    /// Removes a destroyed thread from the kernel table.
    pub fn reap_thread(&self, id: ThreadId) {
        firefly::meter::note_global_lock();
        let mut threads = self.threads.lock();
        if threads
            .get(&id)
            .is_some_and(|t| t.status() == ThreadStatus::Destroyed)
        {
            threads.remove(&id);
        }
    }
}

/// One domain's entry in a [`KernelSnapshot`].
#[derive(Clone, Debug)]
pub struct DomainSnapshot {
    /// Domain id.
    pub id: DomainId,
    /// Domain name.
    pub name: String,
    /// Lifecycle state.
    pub state: DomainState,
    /// Regions the domain owns.
    pub regions: usize,
    /// Threads homed in the domain.
    pub threads_homed: usize,
    /// Threads currently executing inside the domain (home or visiting).
    pub threads_inside: usize,
}

/// A point-in-time view of kernel state, for diagnostics.
#[derive(Clone, Debug)]
pub struct KernelSnapshot {
    /// Per-domain entries.
    pub domains: Vec<DomainSnapshot>,
    /// Live threads.
    pub threads: usize,
    /// Threads currently inside an LRPC.
    pub threads_in_calls: usize,
    /// Live memory regions.
    pub regions: usize,
    /// Total simulated bytes allocated.
    pub allocated_bytes: usize,
    /// Host bytes backing the pages written so far (regions are
    /// demand-zero; see [`firefly::mem`]).
    pub resident_bytes: usize,
}

impl core::fmt::Display for KernelSnapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "{} domain(s), {} thread(s) ({} in calls), {} region(s), {} bytes ({} resident)",
            self.domains.len(),
            self.threads,
            self.threads_in_calls,
            self.regions,
            self.allocated_bytes,
            self.resident_bytes
        )?;
        for d in &self.domains {
            writeln!(
                f,
                "  {:?} {:<20} {:?} regions={} homed={} inside={}",
                d.id, d.name, d.state, d.regions, d.threads_homed, d.threads_inside
            )?;
        }
        Ok(())
    }
}

impl core::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kernel")
            .field("domains", &self.domains.lock().len())
            .field("threads", &self.threads.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::RawHandle;
    use crate::thread::Linkage;
    use firefly::cost::CostModel;

    fn boot() -> Arc<Kernel> {
        Kernel::new(Machine::new(2, CostModel::cvax_firefly()))
    }

    #[test]
    fn create_domain_and_thread() {
        let k = boot();
        let d = k.create_domain("server");
        let t = k.spawn_thread(&d);
        assert_eq!(t.home_domain(), d.id());
        assert!(k.domain(d.id()).is_some());
        assert!(k.thread(t.id()).is_some());
    }

    #[test]
    fn pairwise_mapping_excludes_third_parties() {
        let k = boot();
        let client = k.create_domain("client");
        let server = k.create_domain("server");
        let third = k.create_domain("third");
        let astack = k.map_pairwise("astack", &client, &server, 256);
        assert!(client.ctx().check(astack.id(), true, false).is_ok());
        assert!(server.ctx().check(astack.id(), true, false).is_ok());
        assert!(third.ctx().check(astack.id(), false, false).is_err());
    }

    #[test]
    fn trap_charges_and_meters() {
        let k = boot();
        let cpu = k.machine().cpu(0);
        let mut meter = Meter::enabled();
        k.trap(cpu, &mut meter);
        k.trap(cpu, &mut meter);
        assert_eq!(
            meter.total_for(Phase::Trap),
            firefly::Nanos::from_micros(36)
        );
    }

    fn linkage(caller: &Domain, callee: &Domain) -> Linkage {
        Linkage {
            caller_domain: caller.id(),
            callee_domain: callee.id(),
            binding: RawHandle { id: 1, nonce: 1 },
            astack_index: 0,
            proc_index: 0,
            return_sp: 0,
            valid: true,
        }
    }

    #[test]
    fn termination_reclaims_resources_and_invalidates_linkages() {
        let k = boot();
        let client = k.create_domain("client");
        let server = k.create_domain("server");
        let _buf = k.alloc_mapped(&server, "private", 1024, Protection::ReadWrite);
        let t = k.spawn_thread(&client);
        t.push_linkage(linkage(&client, &server));

        let report = k.terminate_domain(&server);
        assert_eq!(report.regions_freed, 1);
        assert_eq!(report.linkages_invalidated, 1);
        assert_eq!(
            report.threads_in_domain, 1,
            "the client's thread was inside the server"
        );
        assert!(k.domain(server.id()).is_none());
        assert_eq!(server.state(), DomainState::Dead);

        // The client's thread now returns with a call-failed exception and
        // is destroyed (no valid linkage below).
        match t.pop_linkage() {
            crate::thread::ReturnPath::DestroyThread => {}
            crate::thread::ReturnPath::Return { .. } => {
                panic!("the only linkage was invalidated; the thread must be destroyed")
            }
        }
    }

    #[test]
    fn termination_destroys_home_threads() {
        let k = boot();
        let d = k.create_domain("dying");
        let t = k.spawn_thread(&d);
        let report = k.terminate_domain(&d);
        assert_eq!(report.threads_destroyed, 1);
        assert_eq!(t.status(), ThreadStatus::Destroyed);
        k.reap_thread(t.id());
        assert!(k.thread(t.id()).is_none());
    }

    #[test]
    fn terminate_is_idempotent() {
        let k = boot();
        let d = k.create_domain("dying");
        let first = k.terminate_domain(&d);
        let second = k.terminate_domain(&d);
        assert_eq!(second, TerminationReport::default());
        let _ = first;
    }

    #[test]
    fn captured_thread_replacement() {
        let k = boot();
        let client = k.create_domain("client");
        let server = k.create_domain("capturer");
        let t = k.spawn_thread(&client);
        t.push_linkage(linkage(&client, &server));

        let replacement = k.replace_captured_thread(&t).expect("thread is in a call");
        assert_eq!(replacement.home_domain(), client.id());
        assert_eq!(replacement.current_domain(), client.id());
        assert_eq!(replacement.call_depth(), 0);
        assert!(t.is_abandoned());
        // When the captured thread is finally released it is destroyed.
        assert!(matches!(
            t.pop_linkage(),
            crate::thread::ReturnPath::DestroyThread
        ));
    }

    #[test]
    fn snapshot_reflects_state() {
        let k = boot();
        let a = k.create_domain("a");
        let b = k.create_domain("b");
        let t = k.spawn_thread(&a);
        t.push_linkage(linkage(&a, &b));
        let snap = k.snapshot();
        assert_eq!(snap.domains.len(), 2);
        assert_eq!(snap.threads, 1);
        assert_eq!(snap.threads_in_calls, 1);
        let b_entry = snap.domains.iter().find(|d| d.name == "b").unwrap();
        assert_eq!(b_entry.threads_inside, 1, "the thread migrated into b");
        assert_eq!(b_entry.threads_homed, 0);
        let printed = snap.to_string();
        assert!(printed.contains("2 domain(s)"));
        assert!(printed.contains("in calls"));
        assert!(printed.contains(&format!("({} resident)", snap.resident_bytes)));
    }

    #[test]
    fn replacement_requires_an_outstanding_call() {
        let k = boot();
        let d = k.create_domain("idle");
        let t = k.spawn_thread(&d);
        assert!(k.replace_captured_thread(&t).is_none());
    }
}
