//! Minimal stackful fibers for the cooperative rank scheduler.
//!
//! Each virtual rank runs as a fiber: a heap-allocated stack plus a saved
//! register context, switched to and from the scheduler with a hand-rolled
//! context switch ([`fiber_switch`]) that saves exactly the callee-saved
//! registers of the platform ABI. Blocking (an empty receive queue) calls
//! [`suspend`], which switches back to the scheduler without parking an OS
//! thread — the whole machine is single-threaded and deterministic.
//!
//! Safety containment: fibers may borrow data owned by the caller's stack
//! frame (the executor transmutes the closure lifetime away, exactly like
//! `std::thread::scope` does behind the scenes). The executor guarantees
//! every fiber has finished — normally or by [`Fiber::abort`]-driven unwind
//! — before its `run` frame returns, so no borrow outlives its owner.
//!
//! Panics inside a fiber unwind *within the fiber's own stack* into the
//! `catch_unwind` at the fiber entry point; they never cross the assembly
//! switch frame. The payload is parked in the fiber and re-thrown by the
//! scheduler on the original stack.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Quiet-unwind payload used to tear a suspended fiber down (deadlock
/// poisoning, sibling-panic cleanup). Not a real error: the scheduler
/// filters it out and never re-throws it.
pub(crate) struct FiberAbort;

/// Fiber stack size. Rank bodies run serial numeric kernels
/// (sorts, graph coarsening) with shallow recursion; 1 MiB leaves a wide
/// margin while costing only lazily-committed virtual pages per rank.
const DEFAULT_STACK_BYTES: usize = 1 << 20;

/// Number of canary words at the low (overflow) end of each stack.
const CANARY_WORDS: usize = 8;
const CANARY: u64 = 0xDEAD_FACE_CAFE_F00D;

/// A reusable fiber stack. The executor pools them per thread, so every step
/// of every session on a thread runs on the stacks earlier steps touched
/// instead of faulting in fresh pages.
pub(crate) struct FiberStack {
    mem: Box<[MaybeUninit<u8>]>,
}

#[cfg(test)]
thread_local! {
    /// Stacks [`FiberStack::new`] has allocated on this thread.
    pub(crate) static STACKS_ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

impl FiberStack {
    pub(crate) fn new() -> Self {
        #[cfg(test)]
        STACKS_ALLOCATED.set(STACKS_ALLOCATED.get() + 1);
        // Uninitialized heap memory: the allocation is virtual until pages
        // are first touched, which is what makes thousands of ranks cheap.
        let mut mem = Box::new_uninit_slice(DEFAULT_STACK_BYTES);
        // Canary at the low end — the direction stacks grow into.
        for w in 0..CANARY_WORDS {
            let bytes = CANARY.to_ne_bytes();
            for (i, &b) in bytes.iter().enumerate() {
                mem[w * 8 + i] = MaybeUninit::new(b);
            }
        }
        FiberStack { mem }
    }

    fn canary_intact(&self) -> bool {
        (0..CANARY_WORDS).all(|w| {
            let mut bytes = [0u8; 8];
            for i in 0..8 {
                // SAFETY: canary bytes were initialized in `new` and are
                // only ever overwritten by a stack overflow.
                bytes[i] = unsafe { self.mem[w * 8 + i].assume_init() };
            }
            u64::from_ne_bytes(bytes) == CANARY
        })
    }

    /// Top of the stack, aligned down to 16 bytes.
    fn top(&self) -> *mut u8 {
        let base = self.mem.as_ptr() as usize;
        let top = (base + self.mem.len()) & !15usize;
        top as *mut u8
    }
}

// ---------------------------------------------------------------------------
// The context switch
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    // fiber_switch(save: *mut *mut u8 [rdi], load: *const *mut u8 [rsi])
    //
    // Saves the System V callee-saved registers on the current stack,
    // stores rsp through `save`, loads the other context's rsp through
    // `load`, restores its registers and returns *on that stack*.
    ".global plum_fiber_switch",
    ".hidden plum_fiber_switch",
    "plum_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, [rsi]",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    // First activation of a fiber lands here (via the `ret` above) with
    // r12 = the FiberData pointer planted by `prepare_stack` and
    // rsp ≡ 8 (mod 16), as after a call. The `sub` re-establishes the
    // 16-byte alignment the psABI requires before the call below; the CFI
    // marks the end of the stack so an unwinder walk stops here cleanly.
    ".global plum_fiber_trampoline",
    ".hidden plum_fiber_trampoline",
    "plum_fiber_trampoline:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    ".cfi_undefined rbp",
    "sub rsp, 8",
    "mov rdi, r12",
    "call plum_fiber_entry",
    "ud2",
    ".cfi_endproc",
);

#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    // fiber_switch(save: *mut *mut u8 [x0], load: *const *mut u8 [x1])
    ".global plum_fiber_switch",
    ".hidden plum_fiber_switch",
    "plum_fiber_switch:",
    "sub sp, sp, #160",
    "stp x19, x20, [sp, #0]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8, d9, [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x2, sp",
    "str x2, [x0]",
    "ldr x2, [x1]",
    "mov sp, x2",
    "ldp x19, x20, [sp, #0]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8, d9, [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #160",
    "ret",
    ".global plum_fiber_trampoline",
    ".hidden plum_fiber_trampoline",
    "plum_fiber_trampoline:",
    "mov x0, x19",
    "bl plum_fiber_entry",
    "brk #0",
);

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("plum-parsim fibers support x86_64 and aarch64 only");

extern "C" {
    fn plum_fiber_switch(save: *mut *mut u8, load: *const *mut u8);
    fn plum_fiber_trampoline();
}

// ---------------------------------------------------------------------------
// Fiber state
// ---------------------------------------------------------------------------

/// Shared mutable state of one fiber, boxed so its address is stable across
/// switches (the raw pointer is planted in the fiber's initial registers).
struct FiberData {
    /// Saved scheduler context while the fiber runs.
    sched_sp: Cell<*mut u8>,
    /// Saved fiber context while it is suspended.
    fiber_sp: Cell<*mut u8>,
    done: Cell<bool>,
    /// Set by [`Fiber::abort`]: the next resume unwinds with [`FiberAbort`].
    abort: Cell<bool>,
    /// The rank body, consumed on first activation. Lifetime-erased; the
    /// executor guarantees the borrow containment (see module docs).
    entry: RefCell<Option<Box<dyn FnOnce()>>>,
    /// A real panic payload ([`FiberAbort`] teardowns are filtered out).
    panic: RefCell<Option<Box<dyn Any + Send>>>,
}

thread_local! {
    /// The fiber currently running on this thread (null = the scheduler).
    static CURRENT: Cell<*const FiberData> = const { Cell::new(std::ptr::null()) };
}

/// One suspended or running fiber plus its stack.
pub(crate) struct Fiber {
    data: Box<FiberData>,
    /// `Some` until reclaimed by [`Fiber::into_stack`].
    stack: Option<FiberStack>,
    started: bool,
}

impl Fiber {
    /// Prepare a fiber that will run `body` on `stack` when first resumed.
    ///
    /// # Safety
    /// The caller must ensure every borrow captured by `body` outlives the
    /// fiber, and that the fiber is driven to completion (normal return,
    /// panic, or [`Fiber::abort`]) before any of those borrows expire.
    pub(crate) unsafe fn new(stack: FiberStack, body: Box<dyn FnOnce() + '_>) -> Self {
        let body: Box<dyn FnOnce() + 'static> = std::mem::transmute(body);
        let data = Box::new(FiberData {
            sched_sp: Cell::new(std::ptr::null_mut()),
            fiber_sp: Cell::new(std::ptr::null_mut()),
            done: Cell::new(false),
            abort: Cell::new(false),
            entry: RefCell::new(Some(body)),
            panic: RefCell::new(None),
        });
        let mut fiber = Fiber {
            data,
            stack: Some(stack),
            started: false,
        };
        fiber.prepare_stack();
        fiber
    }

    /// Lay out the initial stack frame so the first `plum_fiber_switch`
    /// into this fiber "returns" into `plum_fiber_trampoline` with the
    /// [`FiberData`] pointer in the ABI's first preserved register.
    fn prepare_stack(&mut self) {
        let top = self.stack.as_ref().expect("stack present").top();
        let data_ptr = &*self.data as *const FiberData as u64;
        #[cfg(target_arch = "x86_64")]
        unsafe {
            // Slots below `top` (descending): return address at top-16 (so
            // the trampoline starts with rsp ≡ 8 mod 16, as after a call),
            // then rbp, rbx, r12 (= data), r13, r14, r15.
            let ret = top.sub(16) as *mut u64;
            ret.write(plum_fiber_trampoline as *const () as u64);
            ret.sub(1).write(0); // rbp
            ret.sub(2).write(0); // rbx
            ret.sub(3).write(data_ptr); // r12
            ret.sub(4).write(0); // r13
            ret.sub(5).write(0); // r14
            ret.sub(6).write(0); // r15
            self.data.fiber_sp.set(ret.sub(6) as *mut u8);
        }
        #[cfg(target_arch = "aarch64")]
        unsafe {
            // One 160-byte register frame; x19 = data, x30 = trampoline.
            let frame = top.sub(160) as *mut u64;
            for i in 0..20 {
                frame.add(i).write(0);
            }
            frame.write(data_ptr); // x19
            frame.add(11).write(plum_fiber_trampoline as usize as u64); // x30
            self.data.fiber_sp.set(frame as *mut u8);
        }
    }

    /// Switch into the fiber until it suspends or finishes. Returns `true`
    /// when the fiber has finished (its body returned or unwound).
    pub(crate) fn resume(&mut self) -> bool {
        if self.data.done.get() {
            return true;
        }
        self.started = true;
        let prev = CURRENT.with(|c| c.replace(&*self.data));
        unsafe {
            plum_fiber_switch(self.data.sched_sp.as_ptr(), self.data.fiber_sp.as_ptr());
        }
        CURRENT.with(|c| c.set(prev));
        if !self.stack.as_ref().expect("stack present").canary_intact() {
            // The stack overflowed into the canary: memory is corrupt and
            // no recovery (including unwinding) is sound. Fail loudly.
            eprintln!(
                "plum-parsim: fiber stack overflow detected \
                 (raise DEFAULT_STACK_BYTES); aborting"
            );
            std::process::abort();
        }
        self.data.done.get()
    }

    /// Tear down a suspended fiber: its suspension point unwinds with
    /// [`FiberAbort`], running destructors down to the fiber entry. No-op
    /// on finished or never-started fibers (the latter just drop the body).
    pub(crate) fn abort(&mut self) {
        if self.data.done.get() {
            return;
        }
        if !self.started {
            self.data.entry.borrow_mut().take();
            self.data.done.set(true);
            return;
        }
        self.data.abort.set(true);
        let finished = self.resume();
        debug_assert!(finished, "aborted fiber must unwind to completion");
    }

    pub(crate) fn is_done(&self) -> bool {
        self.data.done.get()
    }

    /// The fiber's real panic payload, if its body panicked.
    pub(crate) fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
        self.data.panic.borrow_mut().take()
    }

    /// Reclaim the stack for the pool. The fiber must be done.
    pub(crate) fn into_stack(mut self) -> FiberStack {
        assert!(self.data.done.get(), "cannot reclaim a live fiber's stack");
        self.stack.take().expect("stack present")
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        // Dropping a live fiber would leak its stack frame with live
        // borrows; the executor's teardown path aborts first, this is the
        // backstop.
        if !self.data.done.get() {
            self.abort();
        }
    }
}

/// Suspend the currently running fiber, switching back to the scheduler.
/// Returns when the scheduler next resumes this fiber. Panics (unwinding
/// the fiber quietly) when the scheduler asked for teardown.
pub(crate) fn suspend() {
    let data = CURRENT.with(|c| c.get());
    assert!(
        !data.is_null(),
        "suspend() called outside a fiber (a Comm blocking call on the host thread)"
    );
    // SAFETY: `data` points at the FiberData of the running fiber, which
    // the scheduler keeps alive for the fiber's whole lifetime.
    let data = unsafe { &*data };
    unsafe {
        plum_fiber_switch(data.fiber_sp.as_ptr(), data.sched_sp.as_ptr());
    }
    if data.abort.get() {
        std::panic::resume_unwind(Box::new(FiberAbort));
    }
}

/// C-ABI fiber entry, called once per fiber from the trampoline.
#[no_mangle]
extern "C" fn plum_fiber_entry(data: *const FiberData) -> ! {
    // SAFETY: the trampoline passes the pointer planted by `prepare_stack`.
    let data = unsafe { &*data };
    let body = data
        .entry
        .borrow_mut()
        .take()
        .expect("fiber activated twice");
    let result = catch_unwind(AssertUnwindSafe(body));
    if let Err(payload) = result {
        if !payload.is::<FiberAbort>() {
            *data.panic.borrow_mut() = Some(payload);
        }
    }
    data.done.set(true);
    // Switch back to the scheduler forever; a finished fiber must never be
    // resumed again (resume() checks `done` first).
    loop {
        unsafe {
            plum_fiber_switch(data.fiber_sp.as_ptr(), data.sched_sp.as_ptr());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiber_runs_to_completion() {
        let mut hits = 0u32;
        {
            let hits_ptr: *mut u32 = &mut hits;
            let mut f = unsafe {
                Fiber::new(
                    FiberStack::new(),
                    Box::new(move || {
                        *hits_ptr += 1;
                    }),
                )
            };
            assert!(f.resume());
            assert!(f.is_done());
            assert!(f.take_panic().is_none());
        }
        assert_eq!(hits, 1);
    }

    #[test]
    fn fiber_suspends_and_resumes() {
        let mut trace: Vec<u32> = Vec::new();
        {
            let t: *mut Vec<u32> = &mut trace;
            let mut f = unsafe {
                Fiber::new(
                    FiberStack::new(),
                    Box::new(move || {
                        (*t).push(1);
                        suspend();
                        (*t).push(3);
                        suspend();
                        (*t).push(5);
                    }),
                )
            };
            assert!(!f.resume());
            unsafe { (*t).push(2) };
            assert!(!f.resume());
            unsafe { (*t).push(4) };
            assert!(f.resume());
        }
        assert_eq!(trace, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn fiber_panic_is_captured_not_propagated() {
        let mut f = unsafe { Fiber::new(FiberStack::new(), Box::new(|| panic!("boom in fiber"))) };
        assert!(f.resume(), "panicked fiber is done");
        let payload = f.take_panic().expect("panic captured");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom in fiber");
    }

    #[test]
    fn abort_unwinds_a_suspended_fiber_and_runs_drops() {
        struct SetOnDrop(*mut bool);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                unsafe { *self.0 = true };
            }
        }
        let mut dropped = false;
        {
            let flag: *mut bool = &mut dropped;
            let mut f = unsafe {
                Fiber::new(
                    FiberStack::new(),
                    Box::new(move || {
                        let _guard = SetOnDrop(flag);
                        loop {
                            suspend();
                        }
                    }),
                )
            };
            assert!(!f.resume());
            assert!(!dropped);
            f.abort();
            assert!(f.is_done());
            assert!(f.take_panic().is_none(), "abort is quiet");
        }
        assert!(dropped, "locals of the aborted fiber were dropped");
    }

    #[test]
    fn never_started_fiber_aborts_by_dropping_the_body() {
        let mut f = unsafe { Fiber::new(FiberStack::new(), Box::new(|| panic!("must not run"))) };
        f.abort();
        assert!(f.is_done());
    }

    #[test]
    fn stacks_are_reused_through_the_pool_path() {
        let stack = FiberStack::new();
        let mut f = unsafe { Fiber::new(stack, Box::new(|| {})) };
        assert!(f.resume());
        let stack = f.into_stack();
        assert!(stack.canary_intact());
        let mut g = unsafe { Fiber::new(stack, Box::new(suspend)) };
        assert!(!g.resume());
        assert!(g.resume());
    }

    #[test]
    fn many_interleaved_fibers() {
        let mut sum = 0u64;
        {
            let sum_ptr: *mut u64 = &mut sum;
            let mut fibers: Vec<Fiber> = (0..32u64)
                .map(|i| unsafe {
                    Fiber::new(
                        FiberStack::new(),
                        Box::new(move || {
                            for _ in 0..3 {
                                *sum_ptr += i;
                                suspend();
                            }
                        }),
                    )
                })
                .collect();
            let mut live = fibers.len();
            while live > 0 {
                for f in &mut fibers {
                    if !f.is_done() && f.resume() {
                        live -= 1;
                    }
                }
            }
        }
        assert_eq!(sum, 3 * (0..32).sum::<u64>());
    }
}
