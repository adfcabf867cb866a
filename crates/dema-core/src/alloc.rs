//! Counting global allocator with size-class recycling shelves — the
//! dynamic twin of lint rules R15–R17 (DESIGN.md §8), exactly as the
//! ranked lock tracker ([`crate::sync`]) backs R10–R13.
//!
//! Armed under `debug_assertions` or the `strict` feature, the allocator
//! wraps [`std::alloc::System`] with two layers:
//!
//! 1. **Counting.** Every allocation that reaches the system allocator is
//!    a *fresh* allocation, attributed to the current [`Phase`] (sort,
//!    slice, encode, decode, merge, or other — hot-path entry points set
//!    the phase via [`enter_phase`]). Reallocs and recycled requests are
//!    counted separately. [`snapshot`] reads the process-wide totals;
//!    `RunReport.alloc` folds the per-run delta into cluster reports.
//! 2. **Recycling shelves.** Freed blocks are kept on per-size-class
//!    shelves (an intrusive free list threaded through the freed blocks,
//!    one spinlocked shelf per exact `(size, align)` class, bounded by a
//!    global byte budget) and served back for identical layouts. A
//!    steady-state window loop whose allocation sizes repeat window over
//!    window therefore reaches a fixed point where *no* request is fresh
//!    — the constant-space steady state the paper's cost model claims,
//!    asserted by [`AllocGate::assert_zero_fresh`].
//!
//! Disarmed (release without `strict`), this module registers no global
//! allocator at all and every probe compiles to a constant: true
//! zero-cost passthrough.
//!
//! This is the one module of `dema-core` allowed `unsafe` (the
//! [`std::alloc::GlobalAlloc`] contract is unsafe by nature); the crate
//! root still denies it everywhere else.

use std::cell::Cell;

/// Number of attribution phases (the length of [`AllocSnapshot::fresh`]).
pub const PHASES: usize = 6;

/// Hot-path phase an allocation is attributed to.
///
/// Entry points of the per-window pipeline scope themselves with
/// [`enter_phase`]; everything outside a scoped region lands in
/// [`Phase::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Unattributed (setup, teardown, bookkeeping).
    Other = 0,
    /// Per-window sort ([`crate::par::sort_events_with`]).
    Sort = 1,
    /// Window slicing ([`crate::slice::cut_into_slices`]).
    Slice = 2,
    /// Wire encode (`dema-wire` message/frame encoding).
    Encode = 3,
    /// Wire decode (`dema-wire` message/frame decoding).
    Decode = 4,
    /// K-way merge / selection ([`crate::merge`]).
    Merge = 5,
}

/// Human-readable name of phase index `i` (see [`AllocSnapshot::fresh`]).
pub fn phase_name(i: usize) -> &'static str {
    match i {
        1 => "sort",
        2 => "slice",
        3 => "encode",
        4 => "decode",
        5 => "merge",
        _ => "other",
    }
}

/// A point-in-time (or delta) reading of the allocator's counters.
///
/// All-zero when the allocator is disarmed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Fresh system allocations per phase (index = [`Phase`] as usize).
    pub fresh: [u64; PHASES],
    /// Bytes of those fresh allocations, per phase.
    pub fresh_bytes: [u64; PHASES],
    /// Requests served from the recycling shelves instead of the system.
    pub recycled: u64,
    /// `realloc` calls observed (each also counts its fresh/recycled side).
    pub reallocs: u64,
}

impl AllocSnapshot {
    /// Total fresh system allocations across all phases.
    pub fn fresh_total(&self) -> u64 {
        self.fresh.iter().sum()
    }

    /// Total fresh bytes across all phases.
    pub fn fresh_bytes_total(&self) -> u64 {
        self.fresh_bytes.iter().sum()
    }

    /// Counter deltas since `earlier` (saturating; counters only grow).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        let mut d = AllocSnapshot::default();
        for i in 0..PHASES {
            d.fresh[i] = self.fresh[i].saturating_sub(earlier.fresh[i]);
            d.fresh_bytes[i] = self.fresh_bytes[i].saturating_sub(earlier.fresh_bytes[i]);
        }
        d.recycled = self.recycled.saturating_sub(earlier.recycled);
        d.reallocs = self.reallocs.saturating_sub(earlier.reallocs);
        d
    }
}

/// `true` when the counting allocator is registered (debug builds or
/// `--features strict`); `false` in plain release builds, where every
/// function here is a zero-cost stub.
pub fn armed() -> bool {
    cfg!(any(debug_assertions, feature = "strict"))
}

/// Scope guard restoring the previous phase on drop (see [`enter_phase`]).
#[derive(Debug)]
pub struct PhaseGuard {
    prev: u8,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if armed() {
            let _ = PHASE.try_with(|c| c.set(self.prev));
        }
    }
}

thread_local! {
    /// Current phase tag of this thread, read by the allocator on every
    /// fresh allocation. Const-initialized: reading it never allocates.
    static PHASE: Cell<u8> = const { Cell::new(0) };
}

/// Attribute this thread's allocations to `phase` until the returned
/// guard drops (nesting restores the outer phase). Free when disarmed.
pub fn enter_phase(phase: Phase) -> PhaseGuard {
    if !armed() {
        return PhaseGuard { prev: 0 };
    }
    let prev = PHASE
        .try_with(|c| {
            let prev = c.get();
            c.set(phase as u8);
            prev
        })
        .unwrap_or(0);
    PhaseGuard { prev }
}

/// Read the process-wide counters (all zero when disarmed).
pub fn snapshot() -> AllocSnapshot {
    armed_impl::snapshot()
}

/// Bytes currently parked on the recycling shelves (0 when disarmed).
pub fn shelved_bytes() -> usize {
    armed_impl::shelved_bytes()
}

/// Fresh system allocations the calling thread has made so far, across
/// all phases (0 when disarmed). Unlike [`snapshot`], other threads'
/// traffic never moves it, so a single-threaded region can be checked
/// while the rest of the process allocates.
pub fn thread_fresh() -> u64 {
    armed_impl::thread_fresh()
}

/// A steady-state allocation gate: snapshots the counters at construction
/// and asserts that a warmed-up region performed **zero fresh system
/// allocations** — every request was served from the recycling shelves.
///
/// The dynamic proof behind lint rules R15–R17: after a warm-up pass has
/// stocked the shelves with every size class the window loop uses, a
/// further steady-state window must allocate nothing new.
#[derive(Debug)]
pub struct AllocGate {
    label: &'static str,
    start: AllocSnapshot,
}

impl AllocGate {
    /// Open a gate over a steady-state region (snapshot the counters now).
    pub fn steady_state(label: &'static str) -> AllocGate {
        AllocGate {
            label,
            start: snapshot(),
        }
    }

    /// Counter movement since the gate opened.
    pub fn delta(&self) -> AllocSnapshot {
        snapshot().since(&self.start)
    }

    /// Assert the gated region performed zero fresh system allocations
    /// (no-op when the allocator is disarmed).
    ///
    /// # Panics
    /// When armed and any allocation inside the gate missed the shelves,
    /// with the per-phase fresh counts in the message.
    pub fn assert_zero_fresh(&self) {
        if !armed() {
            return;
        }
        let d = self.delta();
        let fresh = d.fresh_total();
        assert!(
            fresh == 0,
            "alloc gate '{}': {fresh} fresh allocation(s) in steady state \
             ({} bytes; per-phase {:?}, recycled {})",
            self.label,
            d.fresh_bytes_total(),
            d.fresh,
            d.recycled,
        );
    }
}

#[cfg(any(debug_assertions, feature = "strict"))]
#[allow(unsafe_code)]
mod armed_impl {
    //! The armed allocator. All `unsafe` of `dema-core` lives here.

    use super::{AllocSnapshot, PHASE, PHASES};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::{Cell, UnsafeCell};
    use std::ptr;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    /// Open-addressed shelf table size (each shelf claims one exact
    /// `(size, align)` class on first use). Sized far above the number of
    /// distinct classes a run produces so probing terminates fast.
    const SHELVES: usize = 4096;

    /// Linear-probe limit; a class that cannot claim a shelf within this
    /// many slots passes through to the system allocator uncounted as
    /// recycled (still counted fresh).
    const PROBE_LIMIT: usize = 32;

    /// Smallest block the intrusive free list can thread a next-pointer
    /// through (one unaligned `*mut u8`).
    const MIN_SHELVED: usize = core::mem::size_of::<*mut u8>();

    /// Global cap on bytes parked across all shelves; beyond it frees
    /// pass through to the system so idle processes cannot hoard memory.
    const SHELF_BYTE_BUDGET: usize = 1 << 27; // 128 MiB

    /// One size-class shelf: a spinlocked intrusive stack of freed blocks
    /// of exactly `(size, align)`. `size == 0` means unclaimed.
    struct Shelf {
        lock: AtomicBool,
        size: AtomicUsize,
        align: AtomicUsize,
        head: UnsafeCell<*mut u8>,
    }

    // SAFETY: `head` is only touched while `lock` is held (acquire/release
    // spinlock), so cross-thread access is serialized.
    unsafe impl Sync for Shelf {}

    impl Shelf {
        #[allow(clippy::declare_interior_mutable_const)] // static-array seed
        const EMPTY: Shelf = Shelf {
            lock: AtomicBool::new(false),
            size: AtomicUsize::new(0),
            align: AtomicUsize::new(0),
            head: UnsafeCell::new(ptr::null_mut()),
        };

        fn lock(&self) {
            while self
                .lock
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                std::hint::spin_loop();
            }
        }

        fn unlock(&self) {
            self.lock.store(false, Ordering::Release);
        }
    }

    static TABLE: [Shelf; SHELVES] = [Shelf::EMPTY; SHELVES];
    static SHELVED_BYTES: AtomicUsize = AtomicUsize::new(0);

    #[allow(clippy::declare_interior_mutable_const)] // static-array seed
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static FRESH: [AtomicU64; PHASES] = [ZERO; PHASES];
    static FRESH_BYTES: [AtomicU64; PHASES] = [ZERO; PHASES];
    static RECYCLED: AtomicU64 = AtomicU64::new(0);
    static REALLOCS: AtomicU64 = AtomicU64::new(0);

    fn shelvable(layout: Layout) -> bool {
        layout.size() >= MIN_SHELVED
    }

    /// Widen sub-pointer-size requests to [`MIN_SHELVED`] bytes so the
    /// intrusive free-list pointer always fits and *every* class recycles.
    /// Sound because alloc and dealloc pad identically: the system
    /// allocator sees matching layouts, and a larger block satisfies the
    /// caller's smaller one.
    fn padded(layout: Layout) -> Layout {
        if layout.size() >= MIN_SHELVED {
            return layout;
        }
        Layout::from_size_align(MIN_SHELVED, layout.align()).unwrap_or(layout)
    }

    /// First probe slot of a `(size, align)` class.
    fn slot_of(layout: Layout) -> usize {
        let h = ((layout.size() as u64) ^ ((layout.align() as u64) << 33))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % SHELVES
    }

    /// Pop a recycled block of exactly `layout`, if one is shelved.
    fn shelf_take(layout: Layout) -> Option<*mut u8> {
        if !shelvable(layout) {
            return None;
        }
        let start = slot_of(layout);
        for i in 0..PROBE_LIMIT {
            let shelf = &TABLE[(start + i) % SHELVES];
            shelf.lock();
            let (size, align) = (
                shelf.size.load(Ordering::Relaxed),
                shelf.align.load(Ordering::Relaxed),
            );
            if size == 0 {
                // First unclaimed slot on the probe path: the class was
                // never shelved (claims never move), so stop probing.
                shelf.unlock();
                return None;
            }
            if size == layout.size() && align == layout.align() {
                // SAFETY: `head` is ours while the spinlock is held; every
                // block on the list was handed to `dealloc` with exactly
                // this layout and stores its successor in its first bytes.
                let block = unsafe { *shelf.head.get() };
                let got = if block.is_null() {
                    None
                } else {
                    unsafe {
                        *shelf.head.get() = ptr::read_unaligned(block.cast::<*mut u8>());
                    }
                    SHELVED_BYTES.fetch_sub(size, Ordering::Relaxed);
                    Some(block)
                };
                shelf.unlock();
                return got;
            }
            shelf.unlock();
        }
        None
    }

    /// Park a freed block on its class shelf. `false` means the caller
    /// must free it through the system allocator.
    fn shelf_put(block: *mut u8, layout: Layout) -> bool {
        if !shelvable(layout) || SHELVED_BYTES.load(Ordering::Relaxed) >= SHELF_BYTE_BUDGET {
            return false;
        }
        let start = slot_of(layout);
        for i in 0..PROBE_LIMIT {
            let shelf = &TABLE[(start + i) % SHELVES];
            shelf.lock();
            let size = shelf.size.load(Ordering::Relaxed);
            if size == 0 {
                shelf.size.store(layout.size(), Ordering::Relaxed);
                shelf.align.store(layout.align(), Ordering::Relaxed);
            } else if size != layout.size() || shelf.align.load(Ordering::Relaxed) != layout.align()
            {
                shelf.unlock();
                continue;
            }
            // SAFETY: the block is freed memory of `layout.size() >= 8`
            // bytes owned by us from here on; threading the previous head
            // through its first bytes (unaligned store — `layout.align()`
            // may be 1) is the intrusive free list.
            unsafe {
                ptr::write_unaligned(block.cast::<*mut u8>(), *shelf.head.get());
                *shelf.head.get() = block;
            }
            SHELVED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            shelf.unlock();
            return true;
        }
        false
    }

    /// Park a whole pre-linked chain on the class shelf under one lock
    /// (magazine spill / thread-exit flush). Chains that cannot claim a
    /// shelf within the probe limit or would bust the byte budget are
    /// released to the system allocator.
    fn shelf_put_chain(head: *mut u8, count: u32, layout: Layout) {
        if head.is_null() || count == 0 {
            return;
        }
        if SHELVED_BYTES.load(Ordering::Relaxed) < SHELF_BYTE_BUDGET {
            let mut last = head;
            for _ in 1..count {
                let next = unsafe { ptr::read_unaligned(last.cast::<*mut u8>()) };
                if next.is_null() {
                    break;
                }
                last = next;
            }
            let start = slot_of(layout);
            for i in 0..PROBE_LIMIT {
                let shelf = &TABLE[(start + i) % SHELVES];
                shelf.lock();
                let size = shelf.size.load(Ordering::Relaxed);
                if size == 0 {
                    shelf.size.store(layout.size(), Ordering::Relaxed);
                    shelf.align.store(layout.align(), Ordering::Relaxed);
                } else if size != layout.size()
                    || shelf.align.load(Ordering::Relaxed) != layout.align()
                {
                    shelf.unlock();
                    continue;
                }
                // SAFETY: the chain is freed memory owned by us; splicing
                // it in front of the shelf's stack is the same intrusive
                // threading `shelf_put` does, one lock for the whole chain.
                unsafe {
                    ptr::write_unaligned(last.cast::<*mut u8>(), *shelf.head.get());
                    *shelf.head.get() = head;
                }
                SHELVED_BYTES.fetch_add(layout.size() * count as usize, Ordering::Relaxed);
                shelf.unlock();
                return;
            }
        }
        // No shelf claimable (or over budget): release the chain.
        let mut p = head;
        for _ in 0..count {
            let next = unsafe { ptr::read_unaligned(p.cast::<*mut u8>()) };
            unsafe { System.dealloc(p, layout) };
            if next.is_null() {
                break;
            }
            p = next;
        }
    }

    // --- thread-local magazines -------------------------------------------
    //
    // A front cache in front of the shared shelves: each thread keeps a
    // small open-addressed table of per-class block stacks it pushes and
    // pops without atomics or locks, so the armed steady-state hit path
    // costs about what the system allocator's own thread cache does.
    //
    // A magazine only caches classes its thread also *allocates* (the
    // `hot` bit, set on take): a free of a class this thread never
    // allocates goes straight to the shared shelf, keeping cross-thread
    // producer/consumer flows (worker allocates, main frees at join)
    // globally visible — a cold-cached block would otherwise sit in the
    // wrong thread's magazine below the spill cap while the allocating
    // side went fresh, which the zero-alloc steady-state gate would see.

    /// Thread-local class-table size (open-addressed, claim-on-first-use,
    /// same "claims never move" discipline as the shared shelves).
    const MAG_SLOTS: usize = 256;

    /// Linear-probe limit inside a magazine; exhausted probes fall through
    /// to the shared shelves.
    const MAG_PROBE: usize = 8;

    /// Blocks a magazine class may stack before its older half spills to
    /// the shared shelf (keeps cross-thread flows supplied).
    const MAG_CAP: u32 = 32;

    /// Largest block a magazine caches. Bigger blocks go straight to the
    /// shared shelves: they are rare enough that the lock is noise next to
    /// the memory traffic they carry, and keeping them out bounds how many
    /// bytes a magazine can strand outside the shelf byte budget.
    const MAG_MAX_BLOCK: usize = 4096;

    #[derive(Clone, Copy)]
    struct MagClass {
        size: usize,
        align: usize,
        head: *mut u8,
        count: u32,
        /// This thread allocates this class (set on take): only hot
        /// classes may cache frees; cold frees go to the shared shelf.
        hot: bool,
    }

    struct Magazine {
        classes: UnsafeCell<[MagClass; MAG_SLOTS]>,
    }

    impl Magazine {
        const EMPTY_CLASS: MagClass = MagClass {
            size: 0,
            align: 0,
            head: ptr::null_mut(),
            count: 0,
            hot: false,
        };
    }

    impl Drop for Magazine {
        fn drop(&mut self) {
            // Thread exit: hand every cached stack back to the shared
            // shelves so the inventory survives the thread (short-lived
            // worker threads must not bleed shelf stock).
            for c in self.classes.get_mut().iter_mut() {
                if c.count == 0 {
                    continue;
                }
                if let Ok(layout) = Layout::from_size_align(c.size, c.align) {
                    shelf_put_chain(c.head, c.count, layout);
                }
                c.head = ptr::null_mut();
                c.count = 0;
            }
        }
    }

    thread_local! {
        /// Reentrancy latch: set while the magazine is in use, so any
        /// allocation the runtime performs while registering `MAG`'s
        /// destructor (first access) routes to the shared shelves instead
        /// of recursing into the magazine mid-initialization.
        static MAG_BUSY: Cell<bool> = const { Cell::new(false) };

        static MAG: Magazine = const {
            Magazine {
                classes: UnsafeCell::new([Magazine::EMPTY_CLASS; MAG_SLOTS]),
            }
        };
    }

    /// Run `f` with this thread's magazine table, or `None` when it is
    /// unavailable (busy latch set, or the thread is tearing down).
    fn with_magazine<R>(f: impl FnOnce(&mut [MagClass; MAG_SLOTS]) -> Option<R>) -> Option<R> {
        MAG_BUSY
            .try_with(|busy| {
                if busy.get() {
                    return None;
                }
                busy.set(true);
                // SAFETY: the table is thread-local and the busy latch
                // rules out a reentrant second borrow on this thread.
                let r = MAG
                    .try_with(|m| f(unsafe { &mut *m.classes.get() }))
                    .ok()
                    .flatten();
                busy.set(false);
                r
            })
            .ok()
            .flatten()
    }

    /// First matching-or-unclaimed slot of the class (claims never move,
    /// so the first unclaimed slot proves the class holds no later slot).
    fn mag_slot(classes: &[MagClass; MAG_SLOTS], layout: Layout) -> Option<usize> {
        let start = slot_of(layout) % MAG_SLOTS;
        for i in 0..MAG_PROBE {
            let idx = (start + i) % MAG_SLOTS;
            let c = &classes[idx];
            if c.size == 0 || (c.size == layout.size() && c.align == layout.align()) {
                return Some(idx);
            }
        }
        None
    }

    /// Pop a cached block from this thread's magazine. A take (hit or
    /// miss) marks the class hot: this thread allocates it, so its frees
    /// are worth caching here.
    fn magazine_take(layout: Layout) -> Option<*mut u8> {
        if layout.size() > MAG_MAX_BLOCK {
            return None;
        }
        with_magazine(|classes| {
            let idx = mag_slot(classes, layout)?;
            let c = &mut classes[idx];
            if c.size == 0 {
                c.size = layout.size();
                c.align = layout.align();
            }
            c.hot = true;
            if c.count == 0 {
                return None;
            }
            let block = c.head;
            // SAFETY: the block was threaded by `magazine_put` with this
            // exact layout; its first bytes hold the next pointer.
            c.head = unsafe { ptr::read_unaligned(block.cast::<*mut u8>()) };
            c.count -= 1;
            Some(block)
        })
    }

    /// Push a freed block onto this thread's magazine; `false` means the
    /// caller must park it on the shared shelves (or the system). Only
    /// classes this thread allocates are cached (see the module note on
    /// cross-thread flows).
    fn magazine_put(block: *mut u8, layout: Layout) -> bool {
        if !shelvable(layout) || layout.size() > MAG_MAX_BLOCK {
            return false;
        }
        with_magazine(|classes| {
            let idx = mag_slot(classes, layout)?;
            let c = &mut classes[idx];
            if !c.hot {
                return None;
            }
            // SAFETY: the block is freed memory of at least `MIN_SHELVED`
            // bytes (layouts are padded); threading the previous head
            // through its first bytes is the same intrusive list the
            // shelves use, minus the lock (thread-local).
            unsafe {
                ptr::write_unaligned(block.cast::<*mut u8>(), c.head);
            }
            c.head = block;
            c.count += 1;
            if c.count >= MAG_CAP {
                // Keep the newest (cache-hot) half, spill the rest so
                // cross-thread consumers find stock on the shared shelf.
                let keep = MAG_CAP / 2;
                let mut cursor = c.head;
                for _ in 1..keep {
                    // SAFETY: the stack holds `count >= keep` linked blocks.
                    cursor = unsafe { ptr::read_unaligned(cursor.cast::<*mut u8>()) };
                }
                // SAFETY: cut the chain after the `keep`-th block.
                let spill = unsafe { ptr::read_unaligned(cursor.cast::<*mut u8>()) };
                unsafe {
                    ptr::write_unaligned(cursor.cast::<*mut u8>(), ptr::null_mut());
                }
                let spilled = c.count - keep;
                c.count = keep;
                shelf_put_chain(spill, spilled, layout);
            }
            Some(())
        })
        .is_some()
    }

    thread_local! {
        /// Fresh allocations made by this thread, across all phases.
        static THREAD_FRESH: Cell<u64> = const { Cell::new(0) };
    }

    fn note_fresh(layout: Layout) {
        let phase = PHASE.try_with(Cell::get).unwrap_or(0) as usize % PHASES;
        FRESH[phase].fetch_add(1, Ordering::Relaxed);
        FRESH_BYTES[phase].fetch_add(layout.size() as u64, Ordering::Relaxed);
        let _ = THREAD_FRESH.try_with(|c| c.set(c.get() + 1));
    }

    /// The armed allocator: counts fresh system traffic and recycles
    /// freed blocks through the size-class shelves.
    struct CountingAlloc;

    // SAFETY: delegates to `System` for all real memory, and only hands
    // back recycled blocks whose `(size, align)` exactly matches the
    // requested layout (shelf claims are exact-layout by construction).
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let layout = padded(layout);
            if let Some(p) = magazine_take(layout).or_else(|| shelf_take(layout)) {
                RECYCLED.fetch_add(1, Ordering::Relaxed);
                return p;
            }
            note_fresh(layout);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let layout = padded(layout);
            if let Some(p) = magazine_take(layout).or_else(|| shelf_take(layout)) {
                RECYCLED.fetch_add(1, Ordering::Relaxed);
                // Recycled blocks carry stale bytes (including the free-
                // list pointer): honor the zeroing contract explicitly.
                ptr::write_bytes(p, 0, layout.size());
                return p;
            }
            note_fresh(layout);
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            let layout = padded(layout);
            if magazine_put(ptr, layout) || shelf_put(ptr, layout) {
                return;
            }
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
            // Route through our own alloc/dealloc so both the counters and
            // the shelves see the traffic (a realloc that merely returns a
            // shelved block of the new size is not fresh).
            let Ok(new_layout) = Layout::from_size_align(new_size, layout.align()) else {
                return ptr::null_mut();
            };
            let new_ptr = self.alloc(new_layout);
            if !new_ptr.is_null() {
                ptr::copy_nonoverlapping(ptr, new_ptr, layout.size().min(new_size));
                self.dealloc(ptr, layout);
            }
            new_ptr
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub(super) fn snapshot() -> AllocSnapshot {
        let mut s = AllocSnapshot::default();
        for i in 0..PHASES {
            s.fresh[i] = FRESH[i].load(Ordering::Relaxed);
            s.fresh_bytes[i] = FRESH_BYTES[i].load(Ordering::Relaxed);
        }
        s.recycled = RECYCLED.load(Ordering::Relaxed);
        s.reallocs = REALLOCS.load(Ordering::Relaxed);
        s
    }

    pub(super) fn shelved_bytes() -> usize {
        SHELVED_BYTES.load(Ordering::Relaxed)
    }

    pub(super) fn thread_fresh() -> u64 {
        THREAD_FRESH.try_with(Cell::get).unwrap_or(0)
    }
}

#[cfg(not(any(debug_assertions, feature = "strict")))]
mod armed_impl {
    //! Disarmed stubs: no global allocator is registered and every probe
    //! folds to a constant.

    use super::AllocSnapshot;

    pub(super) fn snapshot() -> AllocSnapshot {
        AllocSnapshot::default()
    }

    pub(super) fn shelved_bytes() -> usize {
        0
    }

    pub(super) fn thread_fresh() -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_cover_all_indices() {
        let names: Vec<&str> = (0..PHASES).map(phase_name).collect();
        assert_eq!(
            names,
            vec!["other", "sort", "slice", "encode", "decode", "merge"]
        );
        assert_eq!(phase_name(99), "other");
    }

    #[test]
    fn snapshot_delta_is_saturating_and_componentwise() {
        let mut a = AllocSnapshot::default();
        let mut b = AllocSnapshot::default();
        a.fresh[1] = 10;
        a.fresh_bytes[1] = 640;
        a.recycled = 4;
        b.fresh[1] = 25;
        b.fresh_bytes[1] = 1000;
        b.recycled = 9;
        b.reallocs = 2;
        let d = b.since(&a);
        assert_eq!(d.fresh[1], 15);
        assert_eq!(d.fresh_bytes[1], 360);
        assert_eq!(d.recycled, 5);
        assert_eq!(d.reallocs, 2);
        assert_eq!(a.since(&b).fresh[1], 0, "saturates instead of wrapping");
    }

    #[test]
    fn armed_matches_build_configuration() {
        assert_eq!(armed(), cfg!(any(debug_assertions, feature = "strict")));
    }

    #[test]
    fn counters_move_when_armed() {
        if !armed() {
            return;
        }
        let before = snapshot();
        let v: Vec<u64> = (0..257).collect(); // odd size: surely not shelved yet? still counted
        drop(v);
        let after = snapshot();
        let d = after.since(&before);
        assert!(
            d.fresh_total() + d.recycled > 0,
            "an allocation must register as fresh or recycled"
        );
    }

    #[test]
    fn identical_layouts_recycle_after_warmup() {
        if !armed() {
            return;
        }
        // Warm the shelf with this exact size class.
        let warm: Vec<u64> = Vec::with_capacity(4093);
        drop(warm);
        let before = snapshot();
        for _ in 0..8 {
            let v: Vec<u64> = Vec::with_capacity(4093);
            drop(v);
        }
        let d = snapshot().since(&before);
        assert!(
            d.recycled >= 8,
            "8 identical alloc/free rounds must be shelf-served, got {d:?}"
        );
    }

    #[test]
    fn alloc_gate_is_clean_over_recycled_traffic() {
        // Warm up, then the same allocation pattern must be zero-fresh.
        let pattern = || {
            let mut v: Vec<u64> = Vec::with_capacity(509);
            v.extend(0..509);
            let b = vec![0u8; 777].into_boxed_slice();
            (v.iter().sum::<u64>(), b.len())
        };
        pattern();
        // The gate's counters are process-wide and other test threads
        // allocate concurrently (thread names, result strings), so the
        // zero-fresh check reads this thread's own counter.
        let gate = AllocGate::steady_state("alloc unit test");
        let before = thread_fresh();
        let (sum, len) = pattern();
        assert_eq!((sum, len), (129286, 777));
        assert_eq!(
            thread_fresh() - before,
            0,
            "the warmed pattern must be shelf-served: {:?}",
            gate.delta()
        );
    }

    #[test]
    fn phase_attribution_lands_in_the_scoped_bucket() {
        if !armed() {
            return;
        }
        let before = snapshot();
        {
            let _g = enter_phase(Phase::Merge);
            // A size class no other test uses, so the fresh alloc (first
            // time) or recycled hit is attributable.
            let v: Vec<u8> = Vec::with_capacity(31013);
            drop(v);
            let v: Vec<u8> = Vec::with_capacity(31013);
            drop(v);
        }
        let d = snapshot().since(&before);
        // Either the first alloc was fresh in the merge bucket, or the
        // whole pattern recycled (previous runs warmed it) — both prove
        // the plumbing without racing other test threads.
        assert!(
            d.fresh[Phase::Merge as usize] > 0 || d.recycled > 0,
            "scoped allocation must register: {d:?}"
        );
    }

    #[test]
    fn recycled_blocks_are_usable_and_zeroing_holds() {
        // Hammer one size class: contents must round-trip and zeroed
        // allocations must actually be zero (recycled blocks carry the
        // intrusive free-list pointer in their first bytes).
        for round in 0..64u8 {
            let mut v = vec![round; 1024];
            v[0] = round;
            assert!(v.iter().all(|&b| b == round));
            drop(v);
            let z = vec![0u8; 1024];
            assert!(z.iter().all(|&b| b == 0), "alloc_zeroed contract");
        }
    }

    #[test]
    fn concurrent_shelf_traffic_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..2000usize {
                        let n = 16 + ((i * 7 + t * 13) % 23) * 8;
                        let mut v = vec![0u8; n];
                        v[n - 1] = t as u8;
                        assert_eq!(v.len(), n);
                        let w = v.clone();
                        assert_eq!(w[n - 1], t as u8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
