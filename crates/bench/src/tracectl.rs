//! Shared `--trace` / `TRACE_SINK` wiring for the experiment binaries.
//!
//! Every `exp_*` binary accepts `--trace PATH` (or the `TRACE_SINK=PATH`
//! environment variable) to install a default substrate whose trace sink
//! is a [`ChromeTraceSink`] before any experiment
//! meter is created, and to write the Chrome trace-event JSON on exit.
//! Open the file in `chrome://tracing` or <https://ui.perfetto.dev>; see
//! OBSERVABILITY.md for the span taxonomy.
//!
//! Tracing is purely observational: simulated I/O counts are bit-identical
//! with and without a sink (the CI trace-smoke job asserts this against
//! the golden baseline).

use std::sync::Arc;

use emsim::{ChromeTraceSink, Substrate, SubstrateGuard};

/// An armed (or inert) tracing session. Create at the top of `main`, call
/// [`TraceGuard::finish`] after the experiments print; it also deletes the
/// `EMSIM_DEVICE=file` store that a run without `EMSIM_DATA_DIR` leaves in
/// the temp directory.
pub struct TraceGuard {
    sink: Option<(Arc<ChromeTraceSink>, String, SubstrateGuard)>,
}

impl TraceGuard {
    /// Arm from an explicit `--trace` value, falling back to the
    /// `TRACE_SINK` environment variable; inert when neither is set.
    pub fn arm(path: Option<String>) -> TraceGuard {
        let path = path
            .or_else(|| std::env::var("TRACE_SINK").ok())
            .filter(|p| !p.is_empty());
        let sink = path.map(|p| {
            let s = Arc::new(ChromeTraceSink::new());
            let installed = Substrate {
                trace: Some(s.clone()),
                ..Substrate::current()
            }
            .install();
            (s, p, installed)
        });
        TraceGuard { sink }
    }

    /// Scan the raw CLI args for `--trace PATH`, ignoring everything else —
    /// for binaries without an argument loop of their own. Binaries that do
    /// parse arguments add a `--trace` case and call [`TraceGuard::arm`].
    pub fn arm_from_cli() -> TraceGuard {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(a) = args.next() {
            if a == "--trace" {
                path = Some(args.next().expect("--trace needs a path"));
            }
        }
        TraceGuard::arm(path)
    }

    /// Whether a sink is installed.
    pub fn is_armed(&self) -> bool {
        self.sink.is_some()
    }

    /// Restore the untraced default substrate, delete its file store if
    /// `EMSIM_DEVICE=file` put it in the temp directory
    /// ([`Substrate::remove_default_store`]; an `EMSIM_DATA_DIR` is kept),
    /// and write the Chrome-trace JSON if tracing was armed.
    pub fn finish(self) {
        let sink = self.sink.map(|(sink, path, installed)| {
            drop(installed);
            (sink, path)
        });
        if let Err(e) = Substrate::remove_default_store() {
            eprintln!("failed to remove the default EMSIM_DEVICE=file store: {e}");
        }
        if let Some((sink, path)) = sink {
            #[expect(
                clippy::disallowed_methods,
                reason = "Chrome-trace export, not block storage: \
                          a diagnostics artifact for chrome://tracing"
            )]
            let written = std::fs::write(&path, sink.to_json());
            match written {
                Ok(()) => eprintln!("wrote Chrome trace ({} spans) to {path}", sink.len()),
                Err(e) => {
                    eprintln!("failed to write trace {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_guard_is_inert() {
        let g = TraceGuard::arm(None);
        // TRACE_SINK may leak in from the environment of a traced CI run;
        // only assert when it cannot have been picked up.
        if std::env::var("TRACE_SINK").is_err() {
            assert!(!g.is_armed());
        }
        g.finish(); // must not write anything or exit
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "reads back and removes the trace file the test wrote"
    )]
    fn armed_guard_writes_chrome_json() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tracectl_test_{}.json", std::process::id()));
        let g = TraceGuard::arm(Some(path.to_string_lossy().into_owned()));
        assert!(g.is_armed());
        // A meter created while armed inherits the sink and records spans.
        let m = emsim::CostModel::new(emsim::EmConfig::new(64));
        {
            let _g = m.span(emsim::trace::phase::SCAN);
            m.charge_reads(2);
        }
        g.finish();
        let json = std::fs::read_to_string(&path).expect("trace file written");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\": \"scan\""));
        let _ = std::fs::remove_file(&path);
    }
}
