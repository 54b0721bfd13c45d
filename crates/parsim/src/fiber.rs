//! Minimal stackful fibers for the cooperative rank scheduler.
//!
//! Each virtual rank runs as a fiber: a pooled stack plus a saved register
//! context, switched to and from the scheduler with a hand-rolled context
//! switch ([`fiber_switch`]) that saves exactly the callee-saved registers
//! of the platform ABI. Blocking (an empty receive queue) calls
//! [`suspend`], which switches back to the scheduler without parking an OS
//! thread — the whole machine is single-threaded and deterministic.
//!
//! Stacks are carved from slabs: one allocation of 1 MiB slots laid end to
//! end above a leading page. A stack's overflow canary (eight `u64` words)
//! is the last 64 bytes of the slot below it, in the page whose top frames
//! the stack below touches anyway, and its control block ([`FiberData`])
//! sits at the top of its own slot, under the canary of the stack above. A
//! fiber that has run therefore costs the host its top page, and starting
//! one allocates nothing.
//!
//! Safety containment: fibers may borrow data owned by the caller's stack
//! frame (the executor erases the body's lifetime, exactly like
//! `std::thread::scope` does behind the scenes). The executor guarantees
//! every fiber has finished — normally or by [`Fiber::abort`]-driven unwind
//! — before its `run` frame returns, so no borrow outlives its owner.
//!
//! Panics inside a fiber unwind *within the fiber's own stack* into the
//! `catch_unwind` at the fiber entry point; they never cross the assembly
//! switch frame. The payload is parked in the fiber and re-thrown by the
//! scheduler on the original stack.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::any::Any;
use std::cell::Cell;
use std::mem::{size_of, ManuallyDrop};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::rc::Rc;

/// Quiet-unwind payload used to tear a suspended fiber down (deadlock
/// poisoning, sibling-panic cleanup). Not a real error: the scheduler
/// filters it out and never re-throws it.
pub(crate) struct FiberAbort;

/// Bytes of one stack slot. Rank bodies run serial numeric kernels
/// (sorts, graph coarsening) with shallow recursion; 1 MiB leaves a wide
/// margin while costing only lazily-committed virtual pages per rank.
const STACK_BYTES: usize = 1 << 20;

/// A slab's leading page, which holds its first stack's canary.
const PAGE: usize = 4096;

/// Canary words below each stack's low (overflow) end.
const CANARY_WORDS: usize = 8;
const CANARY: u64 = 0xDEAD_FACE_CAFE_F00D;

/// One allocation of stack slots laid end to end, freed with the last of
/// its stacks.
struct Slab {
    mem: NonNull<u8>,
    layout: Layout,
}

impl Drop for Slab {
    fn drop(&mut self) {
        // SAFETY: `mem` was allocated with `layout` in `FiberStack::slab`.
        unsafe { dealloc(self.mem.as_ptr(), self.layout) }
    }
}

/// One stack: the slot `[base, base + STACK_BYTES)` of a slab. The executor
/// pools them per thread, so every step of every session on a thread runs
/// on the stacks earlier steps touched instead of faulting in fresh pages.
pub(crate) struct FiberStack {
    /// Keeps the slab alive while this stack is pooled or in use.
    _slab: Rc<Slab>,
    base: NonNull<u8>,
}

#[cfg(test)]
thread_local! {
    /// Stacks [`FiberStack::slab`] has carved on this thread.
    pub(crate) static STACKS_ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

impl FiberStack {
    /// Carve `count` stacks, in address order, from one new slab, writing
    /// each stack's canary.
    pub(crate) fn slab(count: usize) -> impl Iterator<Item = FiberStack> {
        #[cfg(test)]
        STACKS_ALLOCATED.set(STACKS_ALLOCATED.get() + count);
        let layout = Layout::from_size_align(PAGE + count * STACK_BYTES, PAGE).expect("slab size");
        // Uninitialized memory: the allocation is virtual until pages are
        // first touched, which is what makes thousands of ranks cheap.
        // SAFETY: the layout is nonzero.
        let mem =
            NonNull::new(unsafe { alloc(layout) }).unwrap_or_else(|| handle_alloc_error(layout));
        let slab = Rc::new(Slab { mem, layout });
        (0..count).map(move |k| {
            // SAFETY: slot k lies inside the slab.
            let base = unsafe { mem.add(PAGE + k * STACK_BYTES) };
            let stack = FiberStack {
                _slab: slab.clone(),
                base,
            };
            // SAFETY: the canary is the 64 bytes below the slot, in the slab.
            unsafe { stack.canary().write([CANARY; CANARY_WORDS]) };
            stack
        })
    }

    /// The canary: the last bytes of the slot below (of the leading page
    /// for a slab's first stack), which an overflow of this stack hits
    /// first.
    fn canary(&self) -> *mut [u64; CANARY_WORDS] {
        self.base
            .as_ptr()
            .wrapping_sub(size_of::<[u64; CANARY_WORDS]>())
            .cast()
    }

    fn canary_intact(&self) -> bool {
        // SAFETY: written in `slab`, and only ever overwritten by a stack
        // overflow.
        unsafe { self.canary().read() == [CANARY; CANARY_WORDS] }
    }

    /// Where the stack's control block lives: the top of the slot, under
    /// the canary of the stack above, 16-byte aligned.
    fn control(&self) -> *mut FiberData {
        let canary_above =
            self.base.as_ptr() as usize + STACK_BYTES - size_of::<[u64; CANARY_WORDS]>();
        ((canary_above - size_of::<FiberData>()) & !15usize) as *mut FiberData
    }

    /// Top of the stack: just under its control block, 16-byte aligned.
    fn top(&self) -> *mut u8 {
        self.control().cast()
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

/// Shared mutable state of one fiber, kept at the top of its stack (see
/// [`FiberStack::control`]) so its address is stable across switches (the
/// raw pointer is planted in the fiber's initial registers).
struct FiberData {
    /// Saved scheduler context while the fiber runs.
    sched_sp: Cell<*mut u8>,
    /// Saved fiber context while it is suspended.
    fiber_sp: Cell<*mut u8>,
    done: Cell<bool>,
    /// Set by [`Fiber::abort`]: the next resume unwinds with [`FiberAbort`].
    abort: Cell<bool>,
    /// The body, consumed on first activation, and its argument. The
    /// body's lifetime is erased; the executor guarantees the borrow
    /// containment (see module docs).
    body: Cell<Option<*const dyn Fn(usize)>>,
    arg: usize,
    /// A real panic payload ([`FiberAbort`] teardowns are filtered out).
    panic: Cell<Option<Box<dyn Any + Send>>>,
}

thread_local! {
    /// The fiber currently running on this thread (null = the scheduler).
    static CURRENT: Cell<*const FiberData> = const { Cell::new(std::ptr::null()) };
}

/// One suspended or running fiber on its stack.
pub(crate) struct Fiber {
    stack: FiberStack,
    /// The control block, at the top of `stack`.
    data: NonNull<FiberData>,
    started: bool,
}

impl Fiber {
    /// Prepare a fiber that will run `body(arg)` on `stack` when first
    /// resumed.
    ///
    /// # Safety
    /// The caller must ensure `body` and every borrow it captures outlive
    /// the fiber, and that the fiber is driven to completion (normal
    /// return, panic, or [`Fiber::abort`]) before any of them expire.
    pub(crate) unsafe fn new(stack: FiberStack, body: &dyn Fn(usize), arg: usize) -> Self {
        let body: *const (dyn Fn(usize) + '_) = body;
        let body: *const dyn Fn(usize) = std::mem::transmute(body);
        let data = stack.control();
        data.write(FiberData {
            sched_sp: Cell::new(ptr::null_mut()),
            fiber_sp: Cell::new(ptr::null_mut()),
            done: Cell::new(false),
            abort: Cell::new(false),
            body: Cell::new(Some(body)),
            arg,
            panic: Cell::new(None),
        });
        let mut fiber = Fiber {
            stack,
            data: NonNull::new_unchecked(data),
            started: false,
        };
        fiber.prepare_stack();
        fiber
    }

    fn data(&self) -> &FiberData {
        // SAFETY: written in `new`, dropped only when the fiber goes.
        unsafe { self.data.as_ref() }
    }

    /// Lay out the initial stack frame so the first `plum_fiber_switch`
    /// into this fiber "returns" into `plum_fiber_trampoline` with the
    /// [`FiberData`] pointer in the ABI's first preserved register.
    fn prepare_stack(&mut self) {
        let top = self.stack.top();
        let data_ptr = self.data.as_ptr() as u64;
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
            self.data().fiber_sp.set(ret.sub(6) as *mut u8);
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
            self.data().fiber_sp.set(frame as *mut u8);
        }
    }

    /// Switch into the fiber until it suspends or finishes. Returns `true`
    /// when the fiber has finished (its body returned or unwound).
    pub(crate) fn resume(&mut self) -> bool {
        if self.is_done() {
            return true;
        }
        self.started = true;
        let data = self.data();
        let prev = CURRENT.with(|c| c.replace(self.data.as_ptr()));
        unsafe {
            plum_fiber_switch(data.sched_sp.as_ptr(), data.fiber_sp.as_ptr());
        }
        CURRENT.with(|c| c.set(prev));
        if !self.stack.canary_intact() {
            // The stack overflowed into the canary: memory is corrupt and
            // no recovery (including unwinding) is sound. Fail loudly.
            eprintln!(
                "plum-parsim: fiber stack overflow detected \
                 (raise STACK_BYTES); aborting"
            );
            std::process::abort();
        }
        self.data().done.get()
    }

    /// Tear down a suspended fiber: its suspension point unwinds with
    /// [`FiberAbort`], running destructors down to the fiber entry. No-op
    /// on finished fibers; a never-started one just forgets its body.
    pub(crate) fn abort(&mut self) {
        let data = self.data();
        if data.done.get() {
            return;
        }
        if !self.started {
            data.body.set(None);
            data.done.set(true);
            return;
        }
        data.abort.set(true);
        let finished = self.resume();
        debug_assert!(finished, "aborted fiber must unwind to completion");
    }

    pub(crate) fn is_done(&self) -> bool {
        self.data().done.get()
    }

    /// The fiber's real panic payload, if its body panicked.
    pub(crate) fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
        self.data().panic.take()
    }

    /// Reclaim the stack for the pool. The fiber must be done.
    pub(crate) fn into_stack(self) -> FiberStack {
        assert!(self.is_done(), "cannot reclaim a live fiber's stack");
        let fiber = ManuallyDrop::new(self);
        // SAFETY: the fiber is done and never touched again; its stack is
        // moved out exactly once.
        unsafe {
            ptr::drop_in_place(fiber.data.as_ptr());
            ptr::read(&fiber.stack)
        }
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        // Dropping a live fiber would leak its stack frame with live
        // borrows; the executor aborts first, this is the backstop.
        self.abort();
        // SAFETY: the fiber is done; its control block goes with it.
        unsafe { ptr::drop_in_place(self.data.as_ptr()) }
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
    let body = data.body.take().expect("fiber activated twice");
    // SAFETY: the executor keeps the body alive until the fiber finishes.
    let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*body)(data.arg) }));
    if let Err(payload) = result {
        if !payload.is::<FiberAbort>() {
            data.panic.set(Some(payload));
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

    /// A stack of its own slab.
    fn stack() -> FiberStack {
        FiberStack::slab(1).next().expect("one stack")
    }

    #[test]
    fn fiber_runs_to_completion() {
        let mut hits = 0u32;
        {
            let hits_ptr: *mut u32 = &mut hits;
            let body = move |_| unsafe { *hits_ptr += 1 };
            let mut f = unsafe { Fiber::new(stack(), &body, 0) };
            assert!(f.resume());
            assert!(f.is_done());
            assert!(f.take_panic().is_none());
        }
        assert_eq!(hits, 1);
    }

    #[test]
    fn fiber_suspends_and_resumes() {
        let mut trace: Vec<usize> = Vec::new();
        {
            let t: *mut Vec<usize> = &mut trace;
            let body = move |arg| unsafe {
                (*t).push(arg);
                suspend();
                (*t).push(arg + 2);
                suspend();
                (*t).push(arg + 4);
            };
            let mut f = unsafe { Fiber::new(stack(), &body, 1) };
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
        let mut f = unsafe { Fiber::new(stack(), &|_| panic!("boom in fiber"), 0) };
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
            let body = move |_| {
                let _guard = SetOnDrop(flag);
                loop {
                    suspend();
                }
            };
            let mut f = unsafe { Fiber::new(stack(), &body, 0) };
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
        let mut f = unsafe { Fiber::new(stack(), &|_| panic!("must not run"), 0) };
        f.abort();
        assert!(f.is_done());
    }

    #[test]
    fn stacks_are_reused_through_the_pool_path() {
        let mut f = unsafe { Fiber::new(stack(), &|_| {}, 0) };
        assert!(f.resume());
        let stack = f.into_stack();
        assert!(stack.canary_intact());
        let mut g = unsafe { Fiber::new(stack, &|_| suspend(), 0) };
        assert!(!g.resume());
        assert!(g.resume());
    }

    /// Stack k's canary is the last bytes of stack k − 1's slot: in the
    /// 4 KiB page of that stack's top, above its control block. Overwriting
    /// any one canary word, of a slab's first stack or an inner one, fails
    /// the check.
    #[test]
    fn each_canary_lies_in_the_top_page_of_the_stack_below() {
        let stacks: Vec<FiberStack> = FiberStack::slab(3).collect();
        let page = |p: *const u8| p as usize / 4096;
        for k in 1..stacks.len() {
            let (canary, below) = (stacks[k].canary() as *const u8, &stacks[k - 1]);
            assert_eq!(page(canary), page(below.top()), "stack {k}");
            let control_end = below.control() as usize + size_of::<FiberData>();
            assert!(control_end <= canary as usize, "stack {k}");
        }
        for k in [0, 1] {
            assert!(stacks[k].canary_intact());
            let words = stacks[k].canary().cast::<u64>();
            for w in 0..CANARY_WORDS {
                unsafe {
                    let word = words.add(w);
                    word.write(!CANARY);
                    assert!(!stacks[k].canary_intact(), "stack {k} word {w}");
                    word.write(CANARY);
                }
                assert!(stacks[k].canary_intact(), "stack {k} word {w}");
            }
        }
    }

    #[test]
    fn many_interleaved_fibers() {
        let mut sum = 0u64;
        {
            let sum_ptr: *mut u64 = &mut sum;
            let body = move |i: usize| {
                for _ in 0..3 {
                    unsafe { *sum_ptr += i as u64 };
                    suspend();
                }
            };
            let mut fibers: Vec<Fiber> = FiberStack::slab(32)
                .enumerate()
                .map(|(i, stack)| unsafe { Fiber::new(stack, &body, i) })
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
