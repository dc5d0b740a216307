//! Streaming trace emission.
//!
//! Real Extrae does not hold the whole trace in memory: each thread
//! appends records to a buffer that a flusher empties to per-process
//! intermediate files, and a post-mortem merger (`mpi2prv`) combines
//! them with the symbol information into the final `.prv`. [`PrvSink`]
//! reproduces that pipeline on the caller's thread:
//!
//! * every event is appended as an `E ...` record to an intermediate
//!   body file (`<out>.mpit`) as the run progresses — bounded memory,
//!   like the real tool;
//! * [`EventSink::finish`] plays the merger: it prepends the header
//!   sections (which are only complete at the end of the run —
//!   symbols, objects, region names) to the streamed event body,
//!   producing a file that [`crate::trace_format::parse_trace`]
//!   accepts, then removes the intermediate body file.
//!
//! The binary store's writers (crate `mempersp-store`) implement the
//! same [`EventSink`] interface, so a run streams into either format.

use crate::events::TraceEvent;
use crate::tracer::Trace;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// A consumer of the streamed events: the `.prv` sink here, the
/// binary store's writers, or a counting sink in benchmarks.
pub trait EventSink: Send {
    /// Consume one event, in stream order.
    fn append_event(&mut self, event: &TraceEvent) -> io::Result<()>;

    /// The run is over and the header information (symbols, objects,
    /// region names) is finally complete; seal the container.
    fn finish(&mut self, trace_for_header: &Trace) -> io::Result<()>;
}

/// The temp-file twin of a final output path (`trace.mps` →
/// `trace.mps.tmp`): where a writer puts its bytes until one rename
/// publishes them. Every writer of a finished trace — the `.prv` merge,
/// text `convert` and the store writer — names its temp file here.
pub fn tmp_path(dest: &Path) -> PathBuf {
    let mut name = dest.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    dest.with_file_name(name)
}

/// The Paraver text trace as an [`EventSink`]: event records stream
/// into an intermediate body file next to `final_path`, and sealing
/// merges header + body into `final_path`.
pub struct PrvSink {
    /// The open intermediate body; `None` once `finish` took it.
    body: Option<BufWriter<File>>,
    body_path: PathBuf,
    final_path: PathBuf,
    lines: u64,
}

impl PrvSink {
    /// Stream toward `final_path`; the intermediate body is
    /// `<final_path>.mpit` (analogous to Extrae's `.mpit`).
    ///
    /// Errors if the body file already exists: an intermediate file is
    /// owned by exactly one run, and clobbering a previous run's body
    /// (or, worse, a file the user cares about) would corrupt it
    /// silently.
    pub fn create(final_path: &Path) -> io::Result<PrvSink> {
        let mut body_path = final_path.as_os_str().to_os_string();
        body_path.push(".mpit");
        let body_path = PathBuf::from(body_path);
        let file = File::options().write(true).create_new(true).open(&body_path).map_err(|e| {
            io::Error::new(e.kind(), format!("intermediate trace body {}: {e}", body_path.display()))
        })?;
        Ok(PrvSink {
            body: Some(BufWriter::new(file)),
            body_path,
            final_path: final_path.to_path_buf(),
            lines: 0,
        })
    }

    /// Event records streamed so far (after [`EventSink::finish`]: the
    /// records merged into the final trace).
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

fn finished() -> io::Error {
    io::Error::other("the .prv sink is already finished")
}

impl EventSink for PrvSink {
    fn append_event(&mut self, event: &TraceEvent) -> io::Result<()> {
        let body = self.body.as_mut().ok_or_else(finished)?;
        body.write_all(crate::trace_format::event_record(event).as_bytes())?;
        self.lines += 1;
        Ok(())
    }

    /// Merge header + streamed body into `final_path` (through
    /// [`tmp_path`] and a rename), then remove the intermediate body.
    /// `trace_for_header` provides the header sections; its own event
    /// list is ignored — the streamed body is the record of truth.
    fn finish(&mut self, trace_for_header: &Trace) -> io::Result<()> {
        let body = self.body.take().ok_or_else(finished)?;
        body.into_inner().map_err(io::IntoInnerError::into_error)?;

        // The body is copied, never read whole, so the merge stays
        // bounded-memory; it lands in a temp file renamed into place,
        // so a crash never leaves a torn trace at `final_path`.
        let tmp = tmp_path(&self.final_path);
        let merged = File::create(&tmp).and_then(|file| {
            let mut out = BufWriter::new(file);
            out.write_all(crate::trace_format::header_sections(trace_for_header).as_bytes())?;
            io::copy(&mut File::open(&self.body_path)?, &mut out)?;
            out.flush()?;
            std::fs::rename(&tmp, &self.final_path)
        });
        merged.inspect_err(|_| drop(std::fs::remove_file(&tmp)))?;
        // The merger consumed the intermediate file; leaving it behind
        // doubles the disk footprint of every run.
        std::fs::remove_file(&self.body_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mempersp_stream_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn trace(cores: usize, iters: u64) -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), cores);
        let c = CounterSnapshot::default();
        for i in 0..iters {
            t.enter((i % cores as u64) as usize, "R", c, i * 10);
            t.exit((i % cores as u64) as usize, "R", c, i * 10 + 5);
        }
        t.finish("sink")
    }

    #[test]
    fn streamed_trace_parses_back_and_body_is_removed() {
        let dir = scratch_dir("parse");
        let final_prv = dir.join("final.prv");
        let trace = trace(1, 500);
        let mut sink = PrvSink::create(&final_prv).unwrap();
        for e in &trace.events {
            sink.append_event(e).unwrap();
        }
        sink.finish(&trace).unwrap();
        assert_eq!(sink.lines(), 1000);

        let loaded = crate::trace_format::load_trace(&final_prv).unwrap();
        assert_eq!(loaded.events, trace.events);
        assert_eq!(loaded.region_names, trace.region_names);
        assert!(!dir.join("final.prv.mpit").exists(), "intermediate body removed after merge");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prv_sink_publishes_write_trace_and_leaves_no_intermediate_files() {
        let dir = scratch_dir("publish");
        let final_prv = dir.join("run.prv");
        let trace = trace(2, 300);
        let mut sink = PrvSink::create(&final_prv).unwrap();
        for e in &trace.events {
            sink.append_event(e).unwrap();
        }
        sink.finish(&trace).unwrap();
        assert_eq!(sink.lines(), 600);
        let written = std::fs::read_to_string(&final_prv).unwrap();
        assert_eq!(written, crate::trace_format::write_trace(&trace));
        let mut left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        left.sort();
        assert_eq!(left, ["run.prv"], "no .mpit body or .tmp merge file may remain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn existing_body_file_is_not_clobbered() {
        let dir = scratch_dir("clobber");
        let body = dir.join("run.prv.mpit");
        std::fs::write(&body, "precious bytes").unwrap();
        let err = match PrvSink::create(&dir.join("run.prv")) {
            Ok(_) => panic!("create must refuse an existing body file"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("run.prv.mpit"), "error names the file: {err}");
        assert_eq!(std::fs::read_to_string(&body).unwrap(), "precious bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_body_write_is_an_error_not_a_panic() {
        let dir = scratch_dir("fail");
        let final_prv = dir.join("run.prv");
        let trace = trace(1, 2000);
        let mut sink = PrvSink::create(&final_prv).unwrap();
        // Swap the body for a read-only handle on the same file: every
        // flush of the buffer now fails the way a full disk would.
        sink.body = Some(BufWriter::new(File::open(dir.join("run.prv.mpit")).unwrap()));
        let err = trace
            .events
            .iter()
            .find_map(|e| sink.append_event(e).err())
            .expect("4000 records overflow the buffer, so a write must fail");
        assert_ne!(err.kind(), io::ErrorKind::Other, "the OS error comes back: {err}");
        assert!(sink.finish(&trace).is_err(), "finish must not publish a torn body");
        assert!(!final_prv.exists());
        assert!(sink.append_event(&trace.events[0]).is_err(), "append after finish is an error");
        std::fs::remove_dir_all(&dir).ok();
    }
}
