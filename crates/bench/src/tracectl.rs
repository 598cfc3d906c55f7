//! `exp_all --trace PATH`: install a default substrate whose trace sink
//! is a [`ChromeTraceSink`] before any experiment meter is created, and
//! write the Chrome trace-event JSON on exit.
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
    /// Arm from the `--trace` value; inert when it is `None`.
    pub fn arm(path: Option<String>) -> TraceGuard {
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
        assert!(!g.is_armed());
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
