//! The `gcr-serve` daemon.
//!
//! Speaks the `gcr-serve/v1` framed protocol on stdin/stdout by default,
//! or on a unix socket with `--socket`. The measurement cache persists to
//! `GCR_MEASURE_CACHE` when set; `GCR_FAULT` arms chaos injection points
//! (see `gcr-par`'s fault module). The process exits after a `shutdown`
//! request (or EOF on stdio), draining in-flight work and flushing the
//! cache first.
//!
//! Usage: `gcr-serve [--socket PATH] [--workers N] [--queue N]
//! [--deadline-ms N]`

use gcr_bench::cli::Flags;
use gcr_bench::sweep::MeasureCache;
use gcr_serve::{Server, ServerConfig};

fn main() {
    let flags = Flags::from_env();
    let socket = flags.value("--socket");
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        workers: flags.num("--workers", defaults.workers),
        queue: flags.num("--queue", defaults.queue),
        default_deadline_ms: flags.num("--deadline-ms", defaults.default_deadline_ms),
    };

    let server = Server::new(cfg, MeasureCache::from_env());
    let served = match &socket {
        Some(path) => {
            eprintln!("gcr-serve: listening on {path}");
            server.serve_unix(path)
        }
        None => server.serve_stdio(),
    };
    if let Err(e) = served {
        eprintln!("gcr-serve: transport failed: {e}");
    }
    // Drain the pool, then flush the store — orphaned jobs land too.
    if let Err(e) = server.finish() {
        eprintln!("gcr-serve: cache flush failed: {e}");
        std::process::exit(1);
    }
}
