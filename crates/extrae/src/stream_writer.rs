//! Streaming trace emission.
//!
//! Real Extrae does not hold the whole trace in memory: each thread
//! appends records to a buffer that a flusher empties to per-process
//! intermediate files, and a post-mortem merger (`mpi2prv`) combines
//! them with the symbol information into the final `.prv`. This
//! module reproduces that pipeline:
//!
//! * [`StreamWriter`] owns a background thread fed through a bounded
//!   crossbeam channel; event lines are appended to an intermediate
//!   file as the run progresses (bounded memory, like the real tool);
//! * [`StreamWriter::finalize`] plays the merger: it prepends the
//!   header sections (which are only complete at the end of the run —
//!   symbols, objects, region names) to the streamed event body,
//!   producing a file that [`crate::trace_format::parse_trace`]
//!   accepts, then removes the intermediate body file;
//! * an optional [`EventSink`] receives every event in parallel with
//!   the text body — this is how a run streams a binary `.mps` store
//!   (crate `mempersp-store`) alongside the `.prv` without a second
//!   pass over the data.

use crate::events::TraceEvent;
use crate::tracer::Trace;
use crossbeam::channel::{bounded, Sender};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// A secondary consumer of the streamed events, driven from the
/// writer's background thread. Implemented by the binary trace store's
/// writer so a monitored run can emit `.prv` and `.mps` in one pass.
pub trait EventSink: Send {
    /// Consume one event, in stream order.
    fn append_event(&mut self, event: &TraceEvent) -> std::io::Result<()>;

    /// The run is over and the header information (symbols, objects,
    /// region names) is finally complete; seal the container.
    fn finish(&mut self, trace_for_header: &Trace) -> std::io::Result<()>;
}

enum Msg {
    Event(TraceEvent),
    Flush,
    Done,
}

struct WorkerResult {
    lines: u64,
    sink: Option<Box<dyn EventSink>>,
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

/// Background streaming writer of trace event records.
pub struct StreamWriter {
    tx: Sender<Msg>,
    worker: Option<JoinHandle<std::io::Result<WorkerResult>>>,
    body_path: PathBuf,
}

impl StreamWriter {
    /// Start the writer; event records stream into `body_path`
    /// (an intermediate file, analogous to Extrae's `.mpit`).
    ///
    /// Errors if `body_path` already exists: an intermediate file is
    /// owned by exactly one run, and clobbering a previous run's body
    /// (or, worse, a file the user cares about) would corrupt it
    /// silently.
    pub fn create(body_path: &Path, queue_depth: usize) -> std::io::Result<Self> {
        Self::create_with_sink(body_path, queue_depth, None)
    }

    /// Like [`StreamWriter::create`], additionally teeing every event
    /// into `sink` from the background thread.
    pub fn create_with_sink(
        body_path: &Path,
        queue_depth: usize,
        mut sink: Option<Box<dyn EventSink>>,
    ) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(body_path)
            .map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("intermediate trace body {}: {e}", body_path.display()),
                )
            })?;
        let mut out = std::io::BufWriter::new(file);
        let (tx, rx) = bounded::<Msg>(queue_depth.max(1));
        let worker = std::thread::spawn(move || -> std::io::Result<WorkerResult> {
            let mut lines = 0u64;
            for msg in rx {
                match msg {
                    Msg::Event(e) => {
                        out.write_all(crate::trace_format::event_record(&e).as_bytes())?;
                        if let Some(s) = sink.as_mut() {
                            s.append_event(&e)?;
                        }
                        lines += 1;
                    }
                    Msg::Flush => out.flush()?,
                    Msg::Done => break,
                }
            }
            out.flush()?;
            Ok(WorkerResult { lines, sink })
        });
        Ok(Self { tx, worker: Some(worker), body_path: body_path.to_path_buf() })
    }

    /// Append one event (serialized in the `E ...` record format).
    /// Blocks when the queue is full — the monitored application
    /// experiences back-pressure exactly like a real flush stall.
    pub fn append(&self, event: &TraceEvent) {
        self.tx.send(Msg::Event(event.clone())).expect("writer thread alive");
    }

    /// Ask the worker to flush its file buffer.
    pub fn flush(&self) {
        self.tx.send(Msg::Flush).expect("writer thread alive");
    }

    /// Stop the worker and merge header + streamed body into
    /// `final_path` (through [`tmp_path`] and a rename); the
    /// intermediate body file is removed afterwards.
    /// The `trace` provides the header sections (its own event list is
    /// ignored — the streamed body is the record of truth). If a sink
    /// was attached, it is sealed with the same header information.
    /// Returns the number of streamed event records.
    pub fn finalize(mut self, trace_for_header: &Trace, final_path: &Path) -> std::io::Result<u64> {
        self.tx.send(Msg::Done).expect("writer thread alive");
        let WorkerResult { lines, mut sink } = self
            .worker
            .take()
            .expect("finalize called once")
            .join()
            .expect("writer thread must not panic")?;

        // The body is copied, never read whole, so the merge stays
        // bounded-memory; it lands in a temp file renamed into place,
        // so a crash never leaves a torn trace at `final_path`.
        let tmp = tmp_path(final_path);
        let merged = std::fs::File::create(&tmp).and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            out.write_all(crate::trace_format::header_sections(trace_for_header).as_bytes())?;
            std::io::copy(&mut std::fs::File::open(&self.body_path)?, &mut out)?;
            out.flush()?;
            std::fs::rename(&tmp, final_path)
        });
        merged.inspect_err(|_| drop(std::fs::remove_file(&tmp)))?;
        if let Some(s) = sink.as_mut() {
            s.finish(trace_for_header)?;
        }
        // The merger consumed the intermediate file; leaving it behind
        // doubles the disk footprint of every run.
        std::fs::remove_file(&self.body_path)?;
        Ok(lines)
    }
}

/// [`StreamWriter`] adapted to the [`EventSink`] interface: events
/// stream into an intermediate body file next to `final_path`, and
/// sealing merges header + body into `final_path` — so a monitored
/// run can target a text `.prv` through the same sink plumbing the
/// binary store uses. An optional tee sink (typically the store
/// writer) receives every event from the background thread in the
/// same order, letting one pass emit `.prv` and `.mps` together.
pub struct PrvSink {
    writer: Option<StreamWriter>,
    final_path: PathBuf,
    lines: u64,
}

impl PrvSink {
    /// Default bound of the writer's event queue.
    pub const DEFAULT_QUEUE_DEPTH: usize = 4096;

    /// Stream toward `final_path`; the intermediate body is
    /// `<final_path>.mpit` and must not already exist.
    pub fn create(final_path: &Path) -> std::io::Result<PrvSink> {
        Self::with_tee(final_path, Self::DEFAULT_QUEUE_DEPTH, None)
    }

    /// [`PrvSink::create`] with an explicit queue depth and an
    /// optional secondary sink fed from the writer thread.
    pub fn with_tee(
        final_path: &Path,
        queue_depth: usize,
        tee: Option<Box<dyn EventSink>>,
    ) -> std::io::Result<PrvSink> {
        let mut body = final_path.as_os_str().to_os_string();
        body.push(".mpit");
        let writer = StreamWriter::create_with_sink(Path::new(&body), queue_depth, tee)?;
        Ok(PrvSink { writer: Some(writer), final_path: final_path.to_path_buf(), lines: 0 })
    }

    /// Event records merged into the final trace (valid after
    /// [`EventSink::finish`]).
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl EventSink for PrvSink {
    fn append_event(&mut self, event: &TraceEvent) -> std::io::Result<()> {
        self.writer.as_ref().expect("append after finish").append(event);
        Ok(())
    }

    fn finish(&mut self, trace_for_header: &Trace) -> std::io::Result<()> {
        let writer = self.writer.take().expect("finish called once");
        self.lines = writer.finalize(trace_for_header, &self.final_path)?;
        Ok(())
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        // Unblock the worker if finalize was never called.
        let _ = self.tx.send(Msg::Done);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    #[test]
    fn streamed_trace_parses_back_and_body_is_removed() {
        let dir = std::env::temp_dir().join(format!("mempersp_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body = dir.join("body.mpit");
        let final_prv = dir.join("final.prv");

        // Build a run, streaming every event as it happens.
        let writer = StreamWriter::create(&body, 64).unwrap();
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let c = CounterSnapshot::default();
        let before = t.num_events();
        for i in 0..500u64 {
            t.enter(0, "R", c, i * 10);
            t.exit(0, "R", c, i * 10 + 5);
        }
        assert_eq!(t.num_events() - before, 1000);
        let trace = t.finish("streamed");
        for e in &trace.events {
            writer.append(e);
        }
        writer.flush();
        let lines = writer.finalize(&trace, &final_prv).unwrap();
        assert_eq!(lines, 1000);

        let loaded = crate::trace_format::load_trace(&final_prv).unwrap();
        assert_eq!(loaded.events, trace.events);
        assert_eq!(loaded.region_names, trace.region_names);
        assert!(!body.exists(), "intermediate body removed after merge");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prv_sink_publishes_write_trace_and_leaves_no_intermediate_files() {
        let dir = std::env::temp_dir().join(format!("mempersp_stream5_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let final_prv = dir.join("run.prv");
        let mut t = Tracer::new(TracerConfig::default(), 2);
        let c = CounterSnapshot::default();
        for i in 0..300u64 {
            t.enter((i % 2) as usize, "R", c, i * 10);
            t.exit((i % 2) as usize, "R", c, i * 10 + 5);
        }
        let trace = t.finish("sink");

        let mut sink = PrvSink::with_tee(&final_prv, 8, None).unwrap();
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
        let dir = std::env::temp_dir().join(format!("mempersp_stream3_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body = dir.join("body.mpit");
        std::fs::write(&body, "precious bytes").unwrap();
        let err = match StreamWriter::create(&body, 4) {
            Ok(_) => panic!("create must refuse an existing body file"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("body.mpit"), "error names the file: {err}");
        assert_eq!(std::fs::read_to_string(&body).unwrap(), "precious bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_without_finalize_does_not_hang() {
        let dir = std::env::temp_dir().join(format!("mempersp_stream2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body = dir.join("body.mpit");
        {
            let writer = StreamWriter::create(&body, 4).unwrap();
            let t = Tracer::new(TracerConfig::default(), 1);
            let trace = t.finish("empty");
            let _ = &trace;
            writer.flush();
            // dropped here
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sink that counts events and records sealing.
    struct CountingSink {
        count: std::sync::Arc<std::sync::atomic::AtomicU64>,
        finished: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl EventSink for CountingSink {
        fn append_event(&mut self, _event: &TraceEvent) -> std::io::Result<()> {
            self.count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        }

        fn finish(&mut self, trace_for_header: &Trace) -> std::io::Result<()> {
            assert!(!trace_for_header.region_names.is_empty());
            self.finished.store(true, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn sink_sees_every_event_and_is_sealed() {
        let dir = std::env::temp_dir().join(format!("mempersp_stream4_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body = dir.join("body.mpit");
        let final_prv = dir.join("final.prv");
        let count = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let finished = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sink = CountingSink { count: count.clone(), finished: finished.clone() };

        let writer = StreamWriter::create_with_sink(&body, 16, Some(Box::new(sink))).unwrap();
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let c = CounterSnapshot::default();
        for i in 0..100u64 {
            t.enter(0, "R", c, i * 10);
            t.exit(0, "R", c, i * 10 + 5);
        }
        let trace = t.finish("teed");
        for e in &trace.events {
            writer.append(e);
        }
        let lines = writer.finalize(&trace, &final_prv).unwrap();
        assert_eq!(lines, 200);
        assert_eq!(count.load(std::sync::atomic::Ordering::SeqCst), 200);
        assert!(finished.load(std::sync::atomic::Ordering::SeqCst));
        std::fs::remove_dir_all(&dir).ok();
    }
}
