//! The shared data store, allocator, and typed array views.
//!
//! The simulator is *timing-directed*: coherence protocols track page/block
//! metadata and charge time, while application **data** lives exactly once,
//! in a byte store shared by all application bodies. The store is private
//! to this module: [`World`] allocates in it and [`SharedVec`] reads and
//! writes it, and nothing else reaches it (see [`SharedVec`] for the two
//! access families).
//!
//! The driver polls the bodies on its own thread, one at a time. Bodies
//! run on OS threads by the thread adapter ([`crate::Proc`]) take turns on
//! the engine's baton, which guarantees that at most one of them executes
//! at any instant (see `ssm-engine::threads`), so plain unsynchronized
//! access can never race. The baton is passed over channels, and a channel
//! `send` happens-before its matching `recv`, so each thread sees every
//! write the previous baton holder made.
//!
//! This module is the workspace's one `unsafe` island (see DESIGN.md §11),
//! and the `unsafe_code` lint, denied in this crate and forbidden in every
//! other, keeps it so.
//! Debug builds check the baton on every access with an `entrants`
//! counter; release builds compile the check out.

use std::cell::UnsafeCell;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::vm::{Cpu, Handoff};
use crate::PAGE_SIZE;

/// Identifies a DSM lock. Allocated by [`World::alloc_lock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

/// Identifies a DSM barrier. Allocated by [`World::alloc_barrier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub u32);

/// The single, shared, grow-once byte store backing the simulated shared
/// address space. Private to this module: [`SharedVec`] and [`World`] are
/// the only way into it.
///
/// # Safety model
///
/// All mutation goes through `&self` via [`UnsafeCell`]. The required
/// exclusion — no two threads inside these methods at once — is provided
/// externally by the engine's baton: simulated-processor threads run one at
/// a time, and the simulator itself only touches the store while every
/// application thread is parked. Debug builds verify this invariant at
/// runtime with an `entrants` counter; release builds do no atomic
/// operation per access.
struct SharedMem {
    data: UnsafeCell<Vec<u8>>,
    /// Debug guard: number of threads currently inside an accessor.
    #[cfg(debug_assertions)]
    entrants: AtomicUsize,
}

// SAFETY: `data` is only reached through `SharedMem::with`, whose callers
// are serialized by the engine baton (at most one application thread runs
// at a time, and the simulator runs only while all application threads are
// parked). The baton moves by channel `send`/`recv` (`Yielder::hand_over`,
// `ThreadPool::resume`), and a `send` happens-before its `recv`, so each
// access is ordered after the previous holder's. `entrants` is atomic.
// `Send` needs no impl: every field is `Send`.
unsafe impl Sync for SharedMem {}

impl SharedMem {
    /// Creates a store of `bytes` zeroed bytes.
    fn new(bytes: usize) -> Arc<Self> {
        Arc::new(SharedMem {
            data: UnsafeCell::new(vec![0u8; bytes]),
            #[cfg(debug_assertions)]
            entrants: AtomicUsize::new(0),
        })
    }

    /// Size of the store in bytes.
    fn len(&self) -> usize {
        self.with(|d| d.len())
    }

    /// Reads the `T` at byte `addr`.
    fn load<T: Scalar>(&self, addr: u64) -> T {
        self.with(|d| T::from_le_chunk(&d[byte_range::<T>(addr, 1)]))
    }

    /// Writes `v` to the `T` at byte `addr`.
    fn store<T: Scalar>(&self, addr: u64, v: T) {
        self.with(|d| v.to_le_chunk(&mut d[byte_range::<T>(addr, 1)]));
    }

    /// Reads the `n` consecutive `T`s that start at byte `addr`, with one
    /// bounds check for the whole range.
    fn read_range<T: Scalar>(&self, addr: u64, n: usize) -> Vec<T> {
        let bytes = byte_range::<T>(addr, n);
        self.with(|d| {
            d[bytes]
                .chunks_exact(T::BYTES as usize)
                .map(T::from_le_chunk)
                .collect()
        })
    }

    /// Reads `out.len()` consecutive `T`s that start at byte `addr` into
    /// `out`, with one bounds check for the whole range.
    fn read_into<T: Scalar>(&self, addr: u64, out: &mut [T]) {
        let bytes = byte_range::<T>(addr, out.len());
        self.with(|d| {
            for (o, chunk) in out.iter_mut().zip(d[bytes].chunks_exact(T::BYTES as usize)) {
                *o = T::from_le_chunk(chunk);
            }
        });
    }

    /// Writes `vals` to consecutive `T`s starting at byte `addr`, with one
    /// bounds check for the whole range.
    fn write_range<T: Scalar>(&self, addr: u64, vals: &[T]) {
        let bytes = byte_range::<T>(addr, vals.len());
        self.with(|d| {
            for (chunk, &v) in d[bytes].chunks_exact_mut(T::BYTES as usize).zip(vals) {
                v.to_le_chunk(chunk);
            }
        });
    }

    /// Runs `f` on the store's bytes. Every access goes through here, and
    /// every `f` is a closure of this module that never re-enters `with`.
    fn with<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        #[cfg(debug_assertions)]
        {
            let prev = self.entrants.fetch_add(1, Ordering::SeqCst);
            debug_assert_eq!(prev, 0, "SharedMem accessed concurrently: baton violated");
        }
        // SAFETY: no other reference to `data` is live. Other threads are
        // excluded by the baton, whose channel handoff also makes the
        // previous holder's writes visible here; this thread holds no other
        // borrow because `with` is never re-entered.
        let r = f(unsafe { &mut *self.data.get() });
        #[cfg(debug_assertions)]
        self.entrants.fetch_sub(1, Ordering::SeqCst);
        r
    }
}

/// The byte range of `n` consecutive `T`s starting at byte `addr`.
fn byte_range<T: Scalar>(addr: u64, n: usize) -> std::ops::Range<usize> {
    let start = addr as usize;
    start..start + n * T::BYTES as usize
}

impl std::fmt::Debug for SharedMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMem")
            .field("len", &self.len())
            .finish()
    }
}

/// A scalar type storable in the shared address space, kept little-endian.
///
/// Sealed: implemented for the fixed-width numeric types applications use.
pub trait Scalar: private::Sealed + Copy + 'static {
    /// Size in bytes.
    const BYTES: u64;
    /// Decodes `Self` from its `BYTES` little-endian bytes.
    fn from_le_chunk(chunk: &[u8]) -> Self;
    /// Encodes `self` little-endian into `chunk`, which is `BYTES` long.
    fn to_le_chunk(self, chunk: &mut [u8]);
}

mod private {
    pub trait Sealed {}
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl private::Sealed for $t {}
        impl Scalar for $t {
            const BYTES: u64 = std::mem::size_of::<$t>() as u64;
            fn from_le_chunk(chunk: &[u8]) -> Self {
                <$t>::from_le_bytes(chunk.try_into().expect("chunk is BYTES long"))
            }
            fn to_le_chunk(self, chunk: &mut [u8]) {
                chunk.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

impl_scalar!(u8, i32, u32, i64, u64, f32, f64);

/// A typed view of a shared allocation: the handle applications use for
/// simulated reads and writes.
///
/// Cloning is cheap (the handle is an `Arc` + offset). Two access families:
///
/// * *simulated*: [`SharedVec::read`] / [`SharedVec::write`] move one
///   element and [`SharedVec::read_range`] / [`SharedVec::write_range`] a
///   run of elements, each as one operation of the calling processor's
///   [`Cpu`] that charges the coherence protocol and memory hierarchy.
///   Every value an application body moves goes through one of these, so
///   the simulator sees each access as the call that moves its value;
/// * *untimed*: [`SharedVec::get_direct`] / [`SharedVec::set_direct`] and
///   their range forms, used for initialization before the run and
///   verification after it, mirroring the untimed setup phases of the
///   paper's methodology.
///
/// One body is the exception: FFT's transposes issue
/// [`SharedVec::touch_read`] / [`SharedVec::touch_write`], which charge an
/// access without moving a value, and move the values untimed between the
/// same two barriers, one tile at a time. Moving each row's values at its
/// touch would need a per-processor copy of the whole band.
pub struct SharedVec<T: Scalar> {
    mem: Arc<SharedMem>,
    addr: u64,
    len: usize,
    _t: std::marker::PhantomData<T>,
}

impl<T: Scalar> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        SharedVec {
            mem: self.mem.clone(),
            addr: self.addr,
            len: self.len,
            _t: std::marker::PhantomData,
        }
    }
}

impl<T: Scalar> SharedVec<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of element `i` in the shared address space.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn addr_of(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.addr + (i as u64) * T::BYTES
    }

    /// Untimed read (initialization / verification only).
    pub fn get_direct(&self, i: usize) -> T {
        self.mem.load(self.addr_of(i))
    }

    /// Untimed write (initialization / verification only).
    pub fn set_direct(&self, i: usize, v: T) {
        self.mem.store(self.addr_of(i), v);
    }

    /// Untimed read of the `n` consecutive elements starting at `i`: one
    /// copy, equal to `n` calls of [`SharedVec::get_direct`].
    ///
    /// # Panics
    ///
    /// Panics if `n > 0` and `i + n > len`.
    pub fn read_range_direct(&self, i: usize, n: usize) -> Vec<T> {
        match self.range_addr(i, n) {
            Some(addr) => self.mem.read_range(addr, n),
            None => Vec::new(),
        }
    }

    /// Untimed read of the `out.len()` consecutive elements starting at `i`
    /// into `out`: [`SharedVec::read_range_direct`] without the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not empty and `i + out.len() > len`.
    pub fn read_range_into(&self, i: usize, out: &mut [T]) {
        if let Some(addr) = self.range_addr(i, out.len()) {
            self.mem.read_into(addr, out);
        }
    }

    /// Untimed write of `vals` to consecutive elements starting at `i`: one
    /// copy, equal to a [`SharedVec::set_direct`] per element.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is not empty and `i + vals.len() > len`.
    pub fn write_range_direct(&self, i: usize, vals: &[T]) {
        if let Some(addr) = self.range_addr(i, vals.len()) {
            self.mem.write_range(addr, vals);
        }
    }

    /// Simulated read of element `i` by processor `p`.
    pub async fn read(&self, p: &Cpu, i: usize) -> T {
        p.touch_read(self.addr_of(i), T::BYTES).await;
        self.get_direct(i)
    }

    /// Simulated write of element `i` by processor `p`.
    pub async fn write(&self, p: &Cpu, i: usize, v: T) {
        p.touch_write(self.addr_of(i), T::BYTES).await;
        self.set_direct(i, v);
    }

    /// Simulated read of the `n` consecutive elements starting at `i` by
    /// processor `p`: one operation over the whole range (coarse-grained
    /// access, as SPLASH-2's blocked and staged copies do), then one copy.
    /// An empty range issues nothing.
    ///
    /// # Panics
    ///
    /// Panics if `n > 0` and `i + n > len`.
    pub async fn read_range(&self, p: &Cpu, i: usize, n: usize) -> Vec<T> {
        self.touch_read(p, i, n).await;
        self.read_range_direct(i, n)
    }

    /// Simulated write of `vals` to consecutive elements starting at `i` by
    /// processor `p`, as [`SharedVec::read_range`] reads them.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is not empty and `i + vals.len() > len`.
    pub async fn write_range(&self, p: &Cpu, i: usize, vals: &[T]) {
        self.touch_write(p, i, vals.len()).await;
        self.write_range_direct(i, vals);
    }

    /// The operation [`SharedVec::read_range`] issues, without the copy:
    /// charges `p` for reading the `n` elements starting at `i` and moves
    /// no value. Of the application bodies, only FFT's transposes use it
    /// (see the type's docs).
    pub fn touch_read(&self, p: &Cpu, i: usize, n: usize) -> Handoff {
        match self.range_addr(i, n) {
            Some(addr) => p.touch_read(addr, (n as u64) * T::BYTES),
            None => Handoff::default(),
        }
    }

    /// The operation [`SharedVec::write_range`] issues, without the copy.
    pub fn touch_write(&self, p: &Cpu, i: usize, n: usize) -> Handoff {
        match self.range_addr(i, n) {
            Some(addr) => p.touch_write(addr, (n as u64) * T::BYTES),
            None => Handoff::default(),
        }
    }

    /// Base address of elements `i..i + n`, with both ends bounds-checked;
    /// `None` for an empty range.
    fn range_addr(&self, i: usize, n: usize) -> Option<u64> {
        if n == 0 {
            return None;
        }
        let _ = self.addr_of(i + n - 1);
        Some(self.addr_of(i))
    }
}

impl<T: Scalar> std::fmt::Debug for SharedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedVec")
            .field("addr", &self.addr)
            .field("len", &self.len)
            .finish()
    }
}

/// The pre-run world: owns the store and allocates shared data, locks and
/// barriers. Passed to [`crate::Workload::spawn`].
///
/// # Example
///
/// ```rust
/// use ssm_proto::World;
/// let mut w = World::new(1 << 20);
/// let v = w.alloc_vec::<f64>(128);
/// v.set_direct(3, 2.5);
/// assert_eq!(v.get_direct(3), 2.5);
/// let l = w.alloc_lock();
/// let b = w.alloc_barrier();
/// assert_ne!(l.0, u32::MAX);
/// assert_eq!(b.0, 0);
/// ```
#[derive(Debug)]
pub struct World {
    mem: Arc<SharedMem>,
    next: u64,
    locks: u32,
    barriers: u32,
}

impl World {
    /// Creates a world with a shared store of `bytes` bytes.
    pub fn new(bytes: usize) -> Self {
        World {
            mem: SharedMem::new(bytes),
            next: 0,
            locks: 0,
            barriers: 0,
        }
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> u64 {
        self.next
    }

    /// Number of locks allocated.
    pub fn lock_count(&self) -> u32 {
        self.locks
    }

    /// Number of barriers allocated.
    pub fn barrier_count(&self) -> u32 {
        self.barriers
    }

    /// Allocates a page-aligned vector of `len` elements of `T`.
    ///
    /// Page alignment matches how the paper's applications pad and align
    /// their major data structures, and keeps false sharing between
    /// distinct allocations out of the picture (false sharing *within* an
    /// allocation is the interesting effect and is fully modelled).
    ///
    /// # Panics
    ///
    /// Panics if the store is exhausted.
    pub fn alloc_vec<T: Scalar>(&mut self, len: usize) -> SharedVec<T> {
        let bytes = (len as u64) * T::BYTES;
        let addr = self.next.next_multiple_of(PAGE_SIZE);
        let end = addr + bytes;
        assert!(
            end <= self.mem.len() as u64,
            "shared store exhausted: need {end} bytes, have {}",
            self.mem.len()
        );
        self.next = end;
        SharedVec {
            mem: self.mem.clone(),
            addr,
            len,
            _t: std::marker::PhantomData,
        }
    }

    /// Allocates a fresh lock.
    pub fn alloc_lock(&mut self) -> LockId {
        let id = LockId(self.locks);
        self.locks += 1;
        id
    }

    /// Allocates `n` locks (convenient for per-element lock arrays).
    pub fn alloc_locks(&mut self, n: usize) -> Vec<LockId> {
        (0..n).map(|_| self.alloc_lock()).collect()
    }

    /// Allocates a fresh barrier.
    pub fn alloc_barrier(&mut self) -> BarrierId {
        let id = BarrierId(self.barriers);
        self.barriers += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mem = SharedMem::new(64);
        mem.store(8, 1234.5f64);
        assert_eq!(mem.load::<f64>(8), 1234.5);
        mem.store(0, -7i32);
        assert_eq!(mem.load::<i32>(0), -7);
        mem.store(4, 0xdead_beef_u32);
        assert_eq!(mem.load::<u32>(4), 0xdead_beef);
    }

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let mut w = World::new(1 << 20);
        let a = w.alloc_vec::<f64>(10);
        let b = w.alloc_vec::<u32>(10);
        assert_eq!(a.addr_of(0) % PAGE_SIZE, 0);
        assert_eq!(b.addr_of(0) % PAGE_SIZE, 0);
        assert!(b.addr_of(0) >= a.addr_of(9) + 8);
    }

    #[test]
    fn direct_access_round_trip() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<u64>(100);
        for i in 0..100 {
            v.set_direct(i, (i * i) as u64);
        }
        for i in 0..100 {
            assert_eq!(v.get_direct(i), (i * i) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_bounds_checked() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<u8>(4);
        let _ = v.get_direct(4);
    }

    /// The range path stores exactly what per-element writes store, and
    /// reads back exactly what per-element reads see, for one type.
    fn range_matches_elements<T: Scalar + PartialEq + std::fmt::Debug>(vals: &[T]) {
        let mut w = World::new(1 << 16);
        let by_range = w.alloc_vec::<T>(vals.len() + 2);
        let by_elem = w.alloc_vec::<T>(vals.len() + 2);
        by_range.write_range_direct(1, vals);
        for (k, &v) in vals.iter().enumerate() {
            by_elem.set_direct(1 + k, v);
        }
        let all = by_range.len();
        let elems: Vec<T> = (0..all).map(|i| by_elem.get_direct(i)).collect();
        assert_eq!(by_range.read_range_direct(0, all), elems);
        assert_eq!(by_range.read_range_direct(1, vals.len()), vals);
        let mut into = elems.clone();
        into.reverse();
        by_range.read_range_into(0, &mut into);
        assert_eq!(into, elems);
    }

    #[test]
    fn range_access_equals_element_access_for_every_scalar() {
        range_matches_elements(&[0u8, 1, 0x7f, 0xff]);
        range_matches_elements(&[i32::MIN, -1, 0, 7, i32::MAX]);
        range_matches_elements(&[0u32, 1, 0xdead_beef, u32::MAX]);
        range_matches_elements(&[i64::MIN, -3, 0, i64::MAX]);
        range_matches_elements(&[0u64, 1 << 40, u64::MAX]);
        range_matches_elements(&[-1.5f32, 0.0, f32::MAX, f32::MIN_POSITIVE]);
        range_matches_elements(&[-2.25f64, 0.0, 1e300, f64::EPSILON]);
    }

    #[test]
    fn empty_range_is_a_no_op() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<u32>(4);
        v.set_direct(3, 9);
        // Even a start past the end is fine when nothing is touched.
        assert!(v.read_range_direct(4, 0).is_empty());
        v.read_range_into(4, &mut []);
        v.write_range_direct(4, &[]);
        assert_eq!(v.read_range_direct(0, 4), vec![0, 0, 0, 9]);
    }

    /// A timed range call is one operation over the whole range, and it
    /// moves the values; an empty range issues nothing.
    #[test]
    fn timed_range_calls_issue_one_op_and_move_the_values() {
        use crate::vm::Op;
        use std::future::Future;
        use std::task::{Context, Poll, Waker};
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<u32>(8);
        let p = Cpu::new(0, 1, 256);
        let mut body = std::pin::pin!(async {
            v.write_range(&p, 2, &[7, 8, 9]).await;
            v.write_range(&p, 8, &[]).await;
            v.read_range(&p, 1, 4).await
        });
        let Poll::Ready(got) = body.as_mut().poll(&mut Context::from_waker(Waker::noop())) else {
            panic!("nothing seals a batch below the cap");
        };
        assert_eq!(got, vec![0, 7, 8, 9]);
        p.finish();
        let (ops, _) = p.take_batch().expect("sealed");
        let (addr, bytes) = (v.addr_of(2), 12);
        assert_eq!(ops[0], Op::Write { addr, bytes });
        let (addr, bytes) = (v.addr_of(1), 16);
        assert_eq!(ops[1..], [Op::Read { addr, bytes }]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_read_past_len_panics() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<f64>(4);
        let _ = v.read_range_direct(2, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_read_into_past_len_panics() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<f64>(4);
        v.read_range_into(2, &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_write_past_len_panics() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<i64>(4);
        v.write_range_direct(3, &[1, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "baton violated")]
    fn debug_guard_catches_reentry() {
        let mem = SharedMem::new(64);
        mem.with(|_| mem.len());
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn store_exhaustion_detected() {
        let mut w = World::new(8192);
        let _a = w.alloc_vec::<u8>(4096);
        let _b = w.alloc_vec::<u8>(8192);
    }

    #[test]
    fn lock_and_barrier_ids_are_dense() {
        let mut w = World::new(4096);
        assert_eq!(w.alloc_lock(), LockId(0));
        assert_eq!(w.alloc_lock(), LockId(1));
        let ls = w.alloc_locks(3);
        assert_eq!(ls.last(), Some(&LockId(4)));
        assert_eq!(w.alloc_barrier(), BarrierId(0));
        assert_eq!(w.lock_count(), 5);
        assert_eq!(w.barrier_count(), 1);
    }

    #[test]
    fn clone_views_alias() {
        let mut w = World::new(1 << 16);
        let v = w.alloc_vec::<f32>(8);
        let v2 = v.clone();
        v.set_direct(0, 9.0);
        assert_eq!(v2.get_direct(0), 9.0);
    }
}
