//! Read-only file mappings for the zero-copy reader path.
//!
//! The workspace builds offline, so neither `memmap2` nor `libc` is
//! available; on Linux (x86_64 / aarch64) the mapping is made with a
//! raw `mmap` syscall, which is all the reader needs: one `PROT_READ`,
//! `MAP_PRIVATE` mapping of the whole store file, alive for the
//! reader's lifetime. Everywhere else — and when `MEMPERSP_NO_MMAP=1`
//! is set, which the tests use to cover both paths — the file is read
//! into an owned buffer instead. Either way callers see a plain
//! `&[u8]` of the file's bytes; uncompressed chunks decode straight
//! out of it with no copy in between.

use std::fs::File;
use std::io;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    use std::os::unix::io::RawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                options(nostack)
            );
        }
        ret
    }

    /// Map `len` bytes of `fd` read-only. Returns the mapping address
    /// or a negative errno.
    pub unsafe fn mmap_readonly(fd: RawFd, len: usize) -> isize {
        unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) }
    }

    pub unsafe fn munmap(addr: usize, len: usize) -> isize {
        unsafe { syscall6(SYS_MUNMAP, addr, len, 0, 0, 0, 0) }
    }
}

enum Backing {
    /// A live `mmap` region (Linux fast path).
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Map { ptr: *const u8, len: usize },
    /// The whole file read into memory (portable fallback).
    Heap(Vec<u8>),
}

/// An immutable view of a whole file.
pub struct Mapping {
    backing: Backing,
}

// The mapped region is read-only for the mapping's whole lifetime and
// nothing mutates through the raw pointer, so shared access is sound.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Map (or read) `file`, whose current length is `len`.
    pub fn of_file(file: &File, len: u64) -> io::Result<Mapping> {
        let len_usize = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, format!("file of {len} bytes exceeds the address space"))
        })?;
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            let forced_off = std::env::var_os("MEMPERSP_NO_MMAP").is_some_and(|v| v == "1");
            if len_usize > 0 && !forced_off {
                use std::os::unix::io::AsRawFd;
                let ret = unsafe { sys::mmap_readonly(file.as_raw_fd(), len_usize) };
                // The kernel signals failure with a negative errno in
                // [-4095, -1]; anything else is the mapping address.
                if !(-4095..=-1).contains(&ret) {
                    return Ok(Mapping {
                        backing: Backing::Map { ptr: ret as *const u8, len: len_usize },
                    });
                }
                // mmap failed (e.g. a pseudo-file): fall through to
                // the buffered path rather than erroring.
            }
        }
        let mut buf = Vec::new();
        let mut f = file.try_clone()?;
        use std::io::{Read as _, Seek as _, SeekFrom};
        f.seek(SeekFrom::Start(0))?;
        f.take(len).read_to_end(&mut buf)?;
        if buf.len() != len_usize {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("file shrank while reading: got {} of {len} bytes", buf.len()),
            ));
        }
        Ok(Mapping { backing: Backing::Heap(buf) })
    }

    /// The file's bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Backing::Map { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(v) => v,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        if let Backing::Map { ptr, len } = self.backing {
            unsafe {
                sys::munmap(ptr as usize, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mempersp_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn maps_whole_file() {
        let path = tmp("map.bin");
        let data: Vec<u8> = (0..100_000u32).map(|i| i.wrapping_mul(2654435761) as u8).collect();
        std::fs::File::create(&path).unwrap().write_all(&data).unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let m = Mapping::of_file(&f, data.len() as u64).unwrap();
        assert_eq!(m.bytes(), &data[..]);
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        assert!(matches!(m.backing, Backing::Map { .. }) || std::env::var_os("MEMPERSP_NO_MMAP").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_uses_heap_backing() {
        let path = tmp("empty.bin");
        std::fs::File::create(&path).unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let m = Mapping::of_file(&f, 0).unwrap();
        assert!(m.bytes().is_empty());
        assert!(matches!(m.backing, Backing::Heap(_)));
        std::fs::remove_file(&path).ok();
    }
}
