//! `serve`: the corpus daemon over a segment store.

use uplan_serve::{Server, ServerConfig};

use super::{open_store, positionals, take_value, CliError};

/// Blocks until POST /shutdown.
pub(super) fn serve(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let defaults = ServerConfig::default();
    let addr: String = take_value(&mut args, "--addr")?.unwrap_or(defaults.addr);
    let threads: usize = take_value(&mut args, "--threads")?.unwrap_or(defaults.threads);
    let queue_capacity: usize =
        take_value(&mut args, "--queue")?.unwrap_or(defaults.queue_capacity);
    let merge_threads: usize =
        take_value(&mut args, "--merge-threads")?.unwrap_or(defaults.merge_threads);
    let merge_interval_ms: Option<u64> = take_value(&mut args, "--merge-interval-ms")?;
    let slow_query_us: u64 = take_value(&mut args, "--slow-query-us")?.unwrap_or(0);
    let slow_query_evals: u64 = take_value(&mut args, "--slow-query-evals")?.unwrap_or(0);
    let args = positionals(args)?;
    let usage = "usage: repro corpus serve <store-dir> [--addr HOST:PORT] [--threads N] \
                 [--queue N] [--merge-threads N] [--merge-interval-ms N] \
                 [--slow-query-us N] [--slow-query-evals N] (--threads at least 1)";
    let path = args.first().ok_or(usage)?;
    if threads == 0 {
        return Err(usage.into());
    }
    let config = ServerConfig {
        addr,
        threads,
        queue_capacity,
        merge_threads,
        merge_interval: merge_interval_ms
            .map(std::time::Duration::from_millis)
            .unwrap_or(defaults.merge_interval),
        slow_query_us,
        slow_query_evals,
    };
    // The store serves lazily and persistently: the open decodes manifest
    // + index sections only, and every epoch merge appends one segment —
    // the directory is always current.
    let store = open_store(path)?;
    let plans = store.corpus().len();
    let service = uplan_corpus::service::CorpusService::with_store(store, queue_capacity);
    let state = uplan_serve::ServeState::from_service(service, merge_threads);
    let server = Server::bind(config, state)
        .map_err(|e| CliError::Operational(format!("cannot bind the server: {e}")))?;
    let state = server.state();
    let banner = format!(
        "serving {path} ({plans} distinct plans, segment store: merges append segments) \
         at http://{} with {threads} worker(s); POST /shutdown to stop",
        server.local_addr()
    );
    crate::write_stdout(&banner)
        .map_err(|e| CliError::Operational(format!("cannot write to stdout: {e}")))?;
    let snapshot = server
        .run()
        .map_err(|e| CliError::Operational(format!("server failed: {e}")))?;
    Ok(format!(
        "served {} request(s); final epoch {}, {} distinct plans\nmetrics: {}",
        state.metrics().requests(),
        snapshot.epoch(),
        snapshot.corpus().len(),
        state.metrics().to_json_value().to_compact()
    ))
}
