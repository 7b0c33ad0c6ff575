//! Registered memory regions.
//!
//! An RDMA NIC can only access memory that has been *registered* with a
//! protection domain: registration pins the pages and hands out a local key
//! (`lkey`) and a remote key (`rkey`). A peer that knows the region's remote
//! address and rkey can read/write/atomically update it without involving the
//! owner's CPU — this is the mechanism rFaaS uses to deliver invocation
//! payloads and results.
//!
//! In the software fabric a region is an `Arc`'d, lock-protected byte buffer.
//! Page alignment is emulated so the cost model can charge the same
//! non-aligned penalty the paper's design guidelines mention. Host storage
//! is committed on first touch (see [`MemoryRegion::zeroed`]), so a large
//! registration such as a state cache costs host memory only for the bytes
//! in use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{FabricError, Result};

/// Access permissions of a registered memory region, mirroring
/// `IBV_ACCESS_*` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFlags {
    /// Local writes through the NIC (always needed for receives/reads).
    pub local_write: bool,
    /// Remote peers may write into the region.
    pub remote_write: bool,
    /// Remote peers may read from the region.
    pub remote_read: bool,
    /// Remote peers may perform atomics on the region.
    pub remote_atomic: bool,
}

impl AccessFlags {
    /// Only local access (the default for transmit-only buffers).
    pub const LOCAL_ONLY: AccessFlags = AccessFlags {
        local_write: true,
        remote_write: false,
        remote_read: false,
        remote_atomic: false,
    };

    /// Full remote access: write, read, atomics.
    pub const REMOTE_ALL: AccessFlags = AccessFlags {
        local_write: true,
        remote_write: true,
        remote_read: true,
        remote_atomic: true,
    };

    /// Remote write access only (typical for rFaaS input buffers).
    pub const REMOTE_WRITE: AccessFlags = AccessFlags {
        local_write: true,
        remote_write: true,
        remote_read: false,
        remote_atomic: false,
    };
}

/// Simulated page size used for the alignment model (4 KiB, as on the
/// evaluation nodes).
pub const PAGE_SIZE: usize = 4096;

static NEXT_KEY: AtomicU64 = AtomicU64::new(1);

fn next_key() -> u64 {
    NEXT_KEY.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug)]
pub(crate) struct RegionInner {
    /// The committed prefix of the region; the bytes past it read as zeros.
    data: RwLock<Vec<u8>>,
    len: usize,
    lkey: u64,
    rkey: u64,
    access: AccessFlags,
}

/// A registered memory region.
///
/// Cloning the handle is cheap and refers to the same underlying buffer, the
/// same way multiple ibverbs objects can refer to one registration.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    pub(crate) inner: Arc<RegionInner>,
}

impl MemoryRegion {
    /// Register a zero-initialised region of `len` bytes. Host storage is
    /// committed on first touch, up to the touched byte; untouched bytes read
    /// as zeros. What the region costs the host thus follows the bytes used,
    /// not where the host allocator finds room for it (a zeroed allocation
    /// carved from recycled heap memory is written in full, one from fresh
    /// pages is not).
    pub fn zeroed(len: usize, access: AccessFlags) -> MemoryRegion {
        Self::with_prefix(Vec::new(), len, access)
    }

    /// Register a region initialised from `data`.
    pub fn from_vec(data: Vec<u8>, access: AccessFlags) -> MemoryRegion {
        let len = data.len();
        Self::with_prefix(data, len, access)
    }

    fn with_prefix(data: Vec<u8>, len: usize, access: AccessFlags) -> MemoryRegion {
        // The simulation treats every registration as page-aligned: rFaaS's
        // allocator always allocates page-aligned buffers (Sec. IV-B).
        MemoryRegion {
            inner: Arc::new(RegionInner {
                data: RwLock::new(data),
                len,
                lkey: next_key(),
                rkey: next_key(),
                access,
            }),
        }
    }

    /// Length of the region in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local key of the registration.
    pub fn lkey(&self) -> u64 {
        self.inner.lkey
    }

    /// Remote key of the registration.
    pub fn rkey(&self) -> u64 {
        self.inner.rkey
    }

    /// Access flags granted at registration time.
    pub fn access(&self) -> AccessFlags {
        self.inner.access
    }

    /// Copy of the bytes in `[offset, offset + len)`.
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        check_bounds(offset, len, self.inner.len)?;
        let data = self.inner.data.read();
        let committed = data.len();
        let mut copy = Vec::with_capacity(len);
        copy.extend_from_slice(&data[offset.min(committed)..(offset + len).min(committed)]);
        copy.resize(len, 0);
        Ok(copy)
    }

    /// Copy of the full contents.
    pub fn read_all(&self) -> Vec<u8> {
        self.read(0, self.inner.len)
            .expect("the whole region is in bounds")
    }

    /// Overwrite `[offset, offset + src.len())` with `src`.
    pub fn write(&self, offset: usize, src: &[u8]) -> Result<()> {
        self.with_bytes_mut(offset, src.len(), |bytes| bytes.copy_from_slice(src))
    }

    /// Run `f` over an immutable view of the bytes in `[offset, offset + len)`.
    pub fn with_bytes<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        check_bounds(offset, len, self.inner.len)?;
        {
            let data = self.inner.data.read();
            if let Some(bytes) = data.get(offset..offset + len) {
                return Ok(f(bytes));
            }
        }
        // Part of the range was never touched: commit it, then read.
        self.with_bytes_mut(offset, len, |bytes| f(bytes))
    }

    /// Run `f` over a mutable view of the bytes in `[offset, offset + len)`.
    pub fn with_bytes_mut<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        check_bounds(offset, len, self.inner.len)?;
        let end = offset + len;
        let mut data = self.inner.data.write();
        let committed = data.len();
        if committed < end {
            // Grow geometrically, but never past the region.
            let target = end.max(2 * committed).min(self.inner.len);
            data.reserve_exact(target - committed);
            data.resize(end, 0);
        }
        Ok(f(&mut data[offset..end]))
    }

    /// Read an 8-byte little-endian word (used by atomics and headers).
    pub fn read_u64(&self, offset: usize) -> Result<u64> {
        let bytes = self.read(offset, 8)?;
        Ok(u64::from_le_bytes(
            bytes.try_into().expect("read returned 8 bytes"),
        ))
    }

    /// Write an 8-byte little-endian word.
    pub fn write_u64(&self, offset: usize, value: u64) -> Result<()> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Handle that a remote peer can use to address this region.
    pub fn remote_handle(&self) -> RemoteMemoryHandle {
        RemoteMemoryHandle {
            rkey: self.rkey(),
            offset: 0,
            len: self.len(),
        }
    }

    /// Handle covering a sub-range of this region.
    pub fn remote_handle_range(&self, offset: usize, len: usize) -> Result<RemoteMemoryHandle> {
        check_bounds(offset, len, self.len())?;
        Ok(RemoteMemoryHandle {
            rkey: self.rkey(),
            offset,
            len,
        })
    }

    /// Whether two handles refer to the same registration.
    pub fn same_region(&self, other: &MemoryRegion) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

fn check_bounds(offset: usize, len: usize, region_len: usize) -> Result<()> {
    if offset
        .checked_add(len)
        .map(|end| end <= region_len)
        .unwrap_or(false)
    {
        Ok(())
    } else {
        Err(FabricError::LocalAccessOutOfBounds {
            offset,
            len,
            region_len,
        })
    }
}

/// Address + rkey of a (range of a) remote region, as exchanged between rFaaS
/// clients and executors in the connection handshake and in the 12-byte
/// invocation header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteMemoryHandle {
    /// Remote key of the target registration.
    pub rkey: u64,
    /// Byte offset within the registration.
    pub offset: usize,
    /// Length of the addressed range.
    pub len: usize,
}

impl RemoteMemoryHandle {
    /// Narrow the handle to a sub-range (relative to this handle's offset).
    pub fn slice(&self, offset: usize, len: usize) -> RemoteMemoryHandle {
        RemoteMemoryHandle {
            rkey: self.rkey,
            offset: self.offset + offset,
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_assigns_unique_keys() {
        let a = MemoryRegion::zeroed(16, AccessFlags::REMOTE_ALL);
        let b = MemoryRegion::zeroed(16, AccessFlags::REMOTE_ALL);
        assert_ne!(a.rkey(), b.rkey());
        assert_ne!(a.lkey(), b.lkey());
        assert_ne!(a.lkey(), a.rkey());
    }

    #[test]
    fn read_write_round_trip() {
        let mr = MemoryRegion::zeroed(32, AccessFlags::REMOTE_WRITE);
        mr.write(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mr.read(4, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(mr.read(0, 4).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn out_of_bounds_access_is_rejected() {
        let mr = MemoryRegion::zeroed(8, AccessFlags::LOCAL_ONLY);
        assert!(matches!(
            mr.read(4, 8),
            Err(FabricError::LocalAccessOutOfBounds { .. })
        ));
        assert!(mr.write(8, &[1]).is_err());
        // Overflowing offsets must not panic.
        assert!(mr.read(usize::MAX, 2).is_err());
    }

    #[test]
    fn u64_helpers() {
        let mr = MemoryRegion::zeroed(16, AccessFlags::REMOTE_ALL);
        mr.write_u64(8, 0xDEAD_BEEF_1234_5678).unwrap();
        assert_eq!(mr.read_u64(8).unwrap(), 0xDEAD_BEEF_1234_5678);
        assert!(mr.read_u64(1).is_ok()); // unaligned reads allowed locally
        assert!(mr.read_u64(12).is_err()); // out of bounds
    }

    #[test]
    fn clones_share_storage() {
        let a = MemoryRegion::zeroed(8, AccessFlags::REMOTE_ALL);
        let b = a.clone();
        a.write(0, &[7]).unwrap();
        assert_eq!(b.read(0, 1).unwrap(), vec![7]);
        assert!(a.same_region(&b));
    }

    #[test]
    fn remote_handles_cover_ranges() {
        let mr = MemoryRegion::zeroed(100, AccessFlags::REMOTE_ALL);
        let h = mr.remote_handle();
        assert_eq!(h.len, 100);
        assert_eq!(h.offset, 0);
        let sub = mr.remote_handle_range(10, 20).unwrap();
        assert_eq!(sub.offset, 10);
        assert_eq!(sub.len, 20);
        assert!(mr.remote_handle_range(90, 20).is_err());
        let sliced = h.slice(5, 10);
        assert_eq!(sliced.offset, 5);
        assert_eq!(sliced.len, 10);
        assert_eq!(sliced.rkey, mr.rkey());
    }

    #[test]
    fn with_bytes_mut_mutates_in_place() {
        let mr = MemoryRegion::from_vec(vec![1, 2, 3], AccessFlags::LOCAL_ONLY);
        mr.with_bytes_mut(0, 3, |b| b.reverse()).unwrap();
        assert_eq!(mr.read_all(), vec![3, 2, 1]);
        let sum: u32 = mr
            .with_bytes(1, 2, |b| b.iter().map(|&x| x as u32).sum())
            .unwrap();
        assert_eq!(sum, 3);
        assert!(mr.with_bytes(2, 2, |_| ()).is_err());
        assert!(mr.with_bytes_mut(usize::MAX, 2, |_| ()).is_err());
    }

    #[test]
    fn untouched_bytes_read_as_zeros() {
        let mr = MemoryRegion::zeroed(1 << 20, AccessFlags::REMOTE_ALL);
        assert_eq!(mr.len(), 1 << 20);
        mr.write(100, &[5, 6]).unwrap();
        assert_eq!(mr.read(98, 6).unwrap(), vec![0, 0, 5, 6, 0, 0]);
        assert_eq!(mr.with_bytes(4096, 3, <[u8]>::to_vec).unwrap(), vec![0; 3]);
        mr.write((1 << 20) - 1, &[9]).unwrap();
        let all = mr.read_all();
        assert_eq!(all.len(), 1 << 20);
        assert_eq!((all[101], all[(1 << 20) - 1]), (6, 9));
        assert_eq!(all.iter().filter(|&&b| b != 0).count(), 3);
    }

    #[test]
    fn access_flag_presets() {
        const { assert!(AccessFlags::REMOTE_ALL.remote_atomic) }
        const { assert!(!AccessFlags::REMOTE_WRITE.remote_read) }
        const { assert!(!AccessFlags::LOCAL_ONLY.remote_write) }
    }
}
