//! Simulated memory: arenas, unified addresses, and the global memory map.
//!
//! Every byte the runtime moves is a real byte in an [`Arena`] — host
//! process memory, a node-wide shared segment, or GPU device memory — so
//! correctness of every protocol is testable end to end. [`MemRef`] is the
//! moral equivalent of a CUDA UVA pointer: a single address type that can
//! name any space, with a queryable kind.

use crate::ids::{GpuId, ProcId, SegId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::os::raw::{c_int, c_void};
use std::ptr::NonNull;
use std::sync::Arc;

/// Which physical memory an address lives in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MemSpace {
    /// Private host memory of one process.
    Host(ProcId),
    /// A node-wide shared-memory segment (POSIX shm style).
    Shared(SegId),
    /// GPU device memory.
    Device(GpuId),
}

impl MemSpace {
    /// True if the address is in GPU device memory (UVA "device pointer").
    pub fn is_device(self) -> bool {
        matches!(self, MemSpace::Device(_))
    }
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSpace::Host(p) => write!(f, "host[{p}]"),
            MemSpace::Shared(s) => write!(f, "shm[{s}]"),
            MemSpace::Device(g) => write!(f, "dev[{g}]"),
        }
    }
}

/// A unified address: space + byte offset. The simulated analogue of a
/// UVA pointer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    pub space: MemSpace,
    pub offset: u64,
}

impl MemRef {
    pub fn new(space: MemSpace, offset: u64) -> Self {
        MemRef { space, offset }
    }

    /// Address `bytes` further into the same space.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, bytes: u64) -> Self {
        MemRef {
            space: self.space,
            offset: self.offset + bytes,
        }
    }

    pub fn is_device(self) -> bool {
        self.space.is_device()
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{:#x}", self.space, self.offset)
    }
}

/// Errors raised by arena accesses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemError {
    /// The space has no arena in the map.
    UnknownSpace(MemSpace),
    /// Access past the end of the arena.
    OutOfBounds {
        space: MemSpace,
        offset: u64,
        len: u64,
        size: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::UnknownSpace(s) => write!(f, "no arena mapped for {s}"),
            MemError::OutOfBounds {
                space,
                offset,
                len,
                size,
            } => write!(
                f,
                "access [{offset:#x}..{:#x}) out of bounds of {space} (size {size:#x})",
                offset + len
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// Zero-filled backing store of one arena: a private anonymous mapping,
/// so the kernel hands out zero pages on first touch and the parts of a
/// large segment or device heap the model never touches cost nothing.
struct Pages {
    ptr: NonNull<u8>,
    len: usize,
}

// Linux values of the `mmap` flags used below.
const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

impl Pages {
    fn zeroed(len: usize) -> Pages {
        if len == 0 {
            // mmap rejects a zero length; an empty slice needs no memory.
            return Pages {
                ptr: NonNull::dangling(),
                len,
            };
        }
        // SAFETY: a fresh private anonymous mapping with no fixed address
        // and no file aliases no Rust memory; the result is checked below.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            p as isize != -1,
            "mmap of a {len}-byte arena failed: {}",
            std::io::Error::last_os_error()
        );
        Pages {
            ptr: NonNull::new(p.cast()).expect("mmap returned null"),
            len,
        }
    }
}

impl Deref for Pages {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is either dangling with `len == 0` or a live
        // mapping of `len` readable bytes (anonymous pages read as zero)
        // that only `Drop` unmaps; the borrow of `self` keeps it alive.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for Pages {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`, and the mapping is writable; `&mut self`
        // makes this the only live view of it.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: unmaps exactly the mapping made in `zeroed`, once;
            // no slice of it outlives `self`.
            unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
        }
    }
}

// SAFETY: `Pages` uniquely owns its mapping, like a `Box<[u8]>`; shared
// access goes through `&[u8]` and mutation needs `&mut Pages`.
unsafe impl Send for Pages {}
// SAFETY: see `Send`.
unsafe impl Sync for Pages {}

/// A contiguous chunk of simulated physical memory.
pub struct Arena {
    space: MemSpace,
    size: u64,
    data: RwLock<Pages>,
}

impl Arena {
    pub fn new(space: MemSpace, size: usize) -> Arc<Arena> {
        Arc::new(Arena {
            space,
            size: size as u64,
            data: RwLock::new(Pages::zeroed(size)),
        })
    }

    pub fn space(&self) -> MemSpace {
        self.space
    }

    pub fn size(&self) -> u64 {
        self.size
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), MemError> {
        if offset.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(MemError::OutOfBounds {
                space: self.space,
                offset,
                len,
                size: self.size,
            });
        }
        Ok(())
    }

    /// Copy bytes out of the arena.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, out.len() as u64)?;
        let d = self.data.read();
        out.copy_from_slice(&d[offset as usize..offset as usize + out.len()]);
        Ok(())
    }

    /// Copy bytes into the arena.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<(), MemError> {
        self.check(offset, src.len() as u64)?;
        let mut d = self.data.write();
        d[offset as usize..offset as usize + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Read a little-endian u64 (for atomics and flags).
    pub fn read_u64(&self, offset: u64) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian u64.
    pub fn write_u64(&self, offset: u64, v: u64) -> Result<(), MemError> {
        self.write(offset, &v.to_le_bytes())
    }

    /// Apply `f` to the u64 at `offset` atomically with respect to other
    /// arena accesses; returns the previous value. This is the primitive
    /// under simulated HCA atomics.
    pub fn fetch_update_u64(
        &self,
        offset: u64,
        f: impl FnOnce(u64) -> u64,
    ) -> Result<u64, MemError> {
        self.check(offset, 8)?;
        let mut d = self.data.write();
        let i = offset as usize;
        let mut b = [0u8; 8];
        b.copy_from_slice(&d[i..i + 8]);
        let old = u64::from_le_bytes(b);
        let new = f(old);
        d[i..i + 8].copy_from_slice(&new.to_le_bytes());
        Ok(old)
    }
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Arena({}, {} bytes)", self.space, self.size())
    }
}

/// Registry of every arena in the simulated cluster.
#[derive(Default)]
pub struct MemoryMap {
    arenas: RwLock<HashMap<MemSpace, Arc<Arena>>>,
}

impl MemoryMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create and register an arena for `space`. Panics if already mapped.
    pub fn create(&self, space: MemSpace, size: usize) -> Arc<Arena> {
        let arena = Arena::new(space, size);
        let prev = self.arenas.write().insert(space, arena.clone());
        assert!(prev.is_none(), "arena for {space} created twice");
        arena
    }

    pub fn get(&self, space: MemSpace) -> Result<Arc<Arena>, MemError> {
        self.arenas
            .read()
            .get(&space)
            .cloned()
            .ok_or(MemError::UnknownSpace(space))
    }

    /// Move `len` bytes from `src` to `dst`, across any pair of spaces.
    /// Overlapping copies within the same space behave like `memmove`.
    /// Both ranges are checked before any byte moves, and two arenas are
    /// locked in `MemSpace` order, so opposing copies cannot deadlock.
    pub fn copy(&self, src: MemRef, dst: MemRef, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let sa = self.get(src.space)?;
        let da = self.get(dst.space)?;
        sa.check(src.offset, len)?;
        da.check(dst.offset, len)?;
        let (s, d, n) = (src.offset as usize, dst.offset as usize, len as usize);
        let move_bytes = |from: &[u8], to: &mut [u8]| to[d..d + n].copy_from_slice(&from[s..s + n]);
        if src.space == dst.space {
            sa.data.write().copy_within(s..s + n, d);
        } else if sa.space < da.space {
            let from = sa.data.read();
            move_bytes(&from, &mut da.data.write());
        } else {
            let mut to = da.data.write();
            move_bytes(&sa.data.read(), &mut to);
        }
        Ok(())
    }

    /// Read a typed value (plain-old-data via byte copy).
    pub fn read_bytes(&self, src: MemRef, len: u64) -> Result<Vec<u8>, MemError> {
        let a = self.get(src.space)?;
        a.check(src.offset, len)?;
        let s = src.offset as usize;
        let bytes = a.data.read()[s..s + len as usize].to_vec();
        Ok(bytes)
    }

    pub fn write_bytes(&self, dst: MemRef, data: &[u8]) -> Result<(), MemError> {
        let a = self.get(dst.space)?;
        a.write(dst.offset, data)
    }
}

impl fmt::Debug for MemoryMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemoryMap({} arenas)", self.arenas.read().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with(space: MemSpace, size: usize) -> MemoryMap {
        let m = MemoryMap::new();
        m.create(space, size);
        m
    }

    #[test]
    fn read_write_round_trip() {
        let m = map_with(MemSpace::Host(ProcId(0)), 64);
        let r = MemRef::new(MemSpace::Host(ProcId(0)), 8);
        m.write_bytes(r, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes(r, 4).unwrap(), vec![1, 2, 3, 4]);
        // untouched bytes stay zero
        assert_eq!(m.read_bytes(r.add(4), 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn cross_space_copy() {
        let m = MemoryMap::new();
        m.create(MemSpace::Host(ProcId(0)), 32);
        m.create(MemSpace::Device(GpuId(0)), 32);
        let h = MemRef::new(MemSpace::Host(ProcId(0)), 0);
        let d = MemRef::new(MemSpace::Device(GpuId(0)), 16);
        m.write_bytes(h, b"hello").unwrap();
        m.copy(h, d, 5).unwrap();
        assert_eq!(m.read_bytes(d, 5).unwrap(), b"hello");
    }

    #[test]
    fn overlapping_copy_is_memmove() {
        let m = map_with(MemSpace::Host(ProcId(1)), 16);
        let base = MemRef::new(MemSpace::Host(ProcId(1)), 0);
        m.write_bytes(base, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        m.copy(base, base.add(2), 6).unwrap();
        assert_eq!(
            m.read_bytes(base, 8).unwrap(),
            vec![1, 2, 1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let m = map_with(MemSpace::Host(ProcId(0)), 8);
        let r = MemRef::new(MemSpace::Host(ProcId(0)), 6);
        let err = m.write_bytes(r, &[0; 4]).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
        // offset overflow must not wrap
        let r2 = MemRef::new(MemSpace::Host(ProcId(0)), u64::MAX - 1);
        assert!(m.read_bytes(r2, 4).is_err());
    }

    #[test]
    fn unknown_space_rejected() {
        let m = MemoryMap::new();
        let r = MemRef::new(MemSpace::Device(GpuId(9)), 0);
        assert!(matches!(
            m.read_bytes(r, 1).unwrap_err(),
            MemError::UnknownSpace(_)
        ));
    }

    #[test]
    fn duplicate_create_panics() {
        let m = MemoryMap::new();
        m.create(MemSpace::Shared(SegId(0)), 8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.create(MemSpace::Shared(SegId(0)), 8)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn u64_helpers_and_fetch_update() {
        let m = map_with(MemSpace::Shared(SegId(1)), 16);
        let a = m.get(MemSpace::Shared(SegId(1))).unwrap();
        a.write_u64(8, 41).unwrap();
        let old = a.fetch_update_u64(8, |v| v + 1).unwrap();
        assert_eq!(old, 41);
        assert_eq!(a.read_u64(8).unwrap(), 42);
    }

    #[test]
    fn zero_length_copy_needs_no_arena() {
        let m = MemoryMap::new();
        let r = MemRef::new(MemSpace::Host(ProcId(5)), 0);
        m.copy(r, r, 0).unwrap();
    }

    #[test]
    fn opposing_concurrent_copies_finish_and_land() {
        // A→B and B→A at once, many times. Both arenas are locked in
        // `MemSpace` order, so neither thread can hold one lock while
        // the other holds the second; an inverted order deadlocks within
        // a few thousand rounds, which the timeout turns into a failure
        // (the stuck threads are left behind, not joined).
        use std::sync::{mpsc, Barrier};
        let m = Arc::new(MemoryMap::new());
        let a = MemRef::new(MemSpace::Host(ProcId(0)), 0);
        let b = MemRef::new(MemSpace::Device(GpuId(0)), 0);
        m.create(a.space, 4096);
        m.create(b.space, 4096);
        m.write_bytes(a, &[0xaa; 64]).unwrap();
        m.write_bytes(b, &[0xbb; 64]).unwrap();
        let start = Arc::new(Barrier::new(2));
        let (done, finished) = mpsc::channel();
        let threads: Vec<_> = [(a, b), (b, a)]
            .into_iter()
            .map(|(from, to)| {
                let (m, start, done) = (m.clone(), start.clone(), done.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..100_000 {
                        m.copy(from, to.add(2048), 64).unwrap();
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        drop(done);
        for _ in 0..2 {
            finished
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("opposing copies deadlocked or panicked");
        }
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(m.read_bytes(b.add(2048), 64).unwrap(), vec![0xaa; 64]);
        assert_eq!(m.read_bytes(a.add(2048), 64).unwrap(), vec![0xbb; 64]);
    }

    #[test]
    fn out_of_bounds_copy_changes_nothing() {
        let m = MemoryMap::new();
        let src = MemRef::new(MemSpace::Shared(SegId(0)), 0);
        let dst = MemRef::new(MemSpace::Device(GpuId(1)), 12);
        m.create(src.space, 32);
        m.create(dst.space, 16);
        let pattern: Vec<u8> = (1..=32).collect();
        m.write_bytes(src, &pattern).unwrap();
        let err = m.copy(src, dst, 8).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { space, .. } if space == dst.space));
        assert_eq!(m.read_bytes(src, 32).unwrap(), pattern);
        assert_eq!(
            m.read_bytes(MemRef::new(dst.space, 0), 16).unwrap(),
            vec![0; 16]
        );
        // the same within one arena
        assert!(m.copy(src, src.add(28), 8).is_err());
        assert_eq!(m.read_bytes(src, 32).unwrap(), pattern);
    }

    #[test]
    fn fresh_arena_is_zero_and_empty_arena_is_valid() {
        let m = MemoryMap::new();
        let size = 24 << 20;
        let big = MemRef::new(MemSpace::Shared(SegId(3)), 0);
        m.create(big.space, size);
        assert_eq!(m.read_bytes(big, 1).unwrap(), vec![0]);
        assert_eq!(m.read_bytes(big.add(size as u64 - 1), 1).unwrap(), vec![0]);
        let empty = MemRef::new(MemSpace::Host(ProcId(7)), 0);
        let arena = m.create(empty.space, 0);
        assert_eq!(arena.size(), 0);
        assert_eq!(m.read_bytes(empty, 0).unwrap(), Vec::<u8>::new());
        assert!(m.read_bytes(empty, 1).is_err());
        assert!(m.copy(big, empty, 1).is_err());
    }

    #[test]
    fn memref_display_and_add() {
        let r = MemRef::new(MemSpace::Device(GpuId(2)), 0x10);
        assert_eq!(r.add(0x10).offset, 0x20);
        assert!(format!("{r}").contains("dev[gpu2]"));
        assert!(r.is_device());
    }
}
