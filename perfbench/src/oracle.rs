//! Reply normalization and the in-process `server::dispatch` oracle.
//!
//! A served reply and the oracle's reply for the same request must agree
//! once three kinds of legitimately run-dependent content are removed:
//! wall-clock fields are zeroed, cache-provenance fields are dropped
//! (which client reached a cached cell first is a race), and chunk lines,
//! which arrive in completion order, are sorted ahead of the terminal
//! line. What remains is hashed, so long replies are not kept in memory.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fairank_service::{
    dispatch_with, ChunkSink, DispatchPolicy, Frame, Reply, RequestContext, SessionRegistry,
    WorkerPool,
};

use crate::workload::Req;

/// Keys whose numeric value is wall-clock time.
const CLOCK_KEYS: [&str; 3] = [
    "\"elapsed_us\":",
    "\"total_elapsed_us\":",
    "\"requantify_us\":",
];
/// Keys recording whether a result came from the cell cache.
const PROVENANCE_KEYS: [&str; 3] = ["\"from_cache\":", "\"cache_hits\":", "\"cache_misses\":"];

/// Hash of the reply line with clock fields set to 0 and provenance
/// fields set to `null`, computed without copying the line. Works on the
/// JSON text: inside a string value a quote is escaped, so `"key":` with a
/// bare quote can only be an object key, and all six keys hold scalars.
pub fn normalized_hash(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    let bytes = line.as_bytes();
    let mut copied = 0;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let rest = &line[i..];
            let hit = CLOCK_KEYS
                .iter()
                .map(|k| (k, "0"))
                .chain(PROVENANCE_KEYS.iter().map(|k| (k, "null")))
                .find(|(k, _)| rest.starts_with(**k));
            if let Some((key, replacement)) = hit {
                let value_start = i + key.len();
                let value_end = value_start
                    + line[value_start..]
                        .find([',', '}', ']'])
                        .unwrap_or(line.len() - value_start);
                h.write(&bytes[copied..value_start]);
                h.write(replacement.as_bytes());
                copied = value_end;
                i = value_end;
                continue;
            }
        }
        i += 1;
    }
    h.write(&bytes[copied..]);
    h.finish()
}

/// Accumulates one request's reply lines into a digest.
#[derive(Debug, Default)]
pub struct Digest {
    chunks: Vec<u64>,
}

impl Digest {
    pub fn chunk(&mut self, line: &str) {
        self.chunks.push(normalized_hash(line));
    }

    /// Finishes with the terminal line; chunk order does not matter.
    pub fn finish(mut self, terminal: &str) -> u64 {
        self.chunks.sort_unstable();
        let mut h = DefaultHasher::new();
        self.chunks.hash(&mut h);
        normalized_hash(terminal).hash(&mut h);
        h.finish()
    }
}

/// Whether a reply line is a mid-stream `{"chunk": ..}` line.
pub fn is_chunk(line: &str) -> bool {
    line.starts_with("{\"chunk\":")
}

/// Whether a terminal reply line is a success.
pub fn is_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":")
}

/// The structured error kind of a failed terminal line, for diagnostics.
pub fn err_kind(line: &str) -> String {
    line.split("\"kind\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("malformed")
        .to_string()
}

/// One in-process reply.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub digest: u64,
    pub ok: bool,
    /// Time inside `dispatch_with`.
    pub dispatch: Duration,
    /// Terminal reply length in bytes.
    pub bytes: usize,
}

/// Dispatches one request in process exactly as the event loop does,
/// collecting streamed chunk lines through a sink the way the connection
/// layer does.
pub fn dispatch_one(
    registry: &SessionRegistry,
    pool: &WorkerPool,
    policy: DispatchPolicy,
    req: &Req,
) -> Replayed {
    let chunks = Arc::new(Mutex::new(Vec::new()));
    let ctx = RequestContext {
        chunk_sink: req.stream.then(|| {
            let chunks = Arc::clone(&chunks);
            ChunkSink::new(move |stat| {
                let line =
                    serde_json::to_string(&Frame::chunk(stat.clone())).expect("chunks serialize");
                chunks.lock().expect("chunk sink lock").push(line);
            })
        }),
        ..RequestContext::default()
    };
    let started = Instant::now();
    let reply: Reply = dispatch_with(registry, pool, req.request(), policy, &ctx);
    let dispatch = started.elapsed();
    let terminal = serde_json::to_string(&reply).expect("replies serialize");
    let mut digest = Digest::default();
    for line in chunks.lock().expect("chunk sink lock").iter() {
        digest.chunk(line);
    }
    Replayed {
        ok: reply.is_ok(),
        bytes: terminal.len(),
        digest: digest.finish(&terminal),
        dispatch,
    }
}

/// Replays each connection's sequence in process on a fresh registry, one
/// thread per connection. With a `budget`, a connection stops once the
/// budget has run out and it has replayed at least `keep` requests.
/// Returns the replies per connection (a prefix when the budget cut the
/// replay short) and the wall time.
pub fn replay(
    sequences: &[Vec<Req>],
    allow_fs: bool,
    workers: usize,
    budget: Option<(Duration, usize)>,
) -> (Vec<Vec<Replayed>>, Duration) {
    let registry = SessionRegistry::new();
    let pool = WorkerPool::new(workers, workers * 2);
    let policy = DispatchPolicy {
        allow_fs_commands: allow_fs,
        admin: false,
    };
    let started = Instant::now();
    let replies = std::thread::scope(|scope| {
        let threads: Vec<_> = sequences
            .iter()
            .map(|seq| {
                let (registry, pool) = (&registry, &pool);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(seq.len());
                    for req in seq {
                        if budget
                            .is_some_and(|(b, keep)| out.len() >= keep && started.elapsed() >= b)
                        {
                            break;
                        }
                        out.push(dispatch_one(registry, pool, policy, req));
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("replay thread panicked"))
            .collect()
    });
    (replies, started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_hash_ignores_clocks_and_provenance_only() {
        let line = r#"{"ok":{"elapsed_us":123,"total_elapsed_us":9,"emd_cache_hits":4,"cache_hits":1,"from_cache":true,"label":"\"elapsed_us\":5","cells":[{"cache_misses":0}]}}"#;
        let same = r#"{"ok":{"elapsed_us":7,"total_elapsed_us":0,"emd_cache_hits":4,"cache_hits":0,"from_cache":false,"label":"\"elapsed_us\":5","cells":[{"cache_misses":1}]}}"#;
        assert_eq!(normalized_hash(line), normalized_hash(same));
        // Counters that are not provenance, and clock-like text inside
        // strings, still count.
        let other_counter = line.replace("\"emd_cache_hits\":4", "\"emd_cache_hits\":5");
        assert_ne!(normalized_hash(line), normalized_hash(&other_counter));
        let other_label = line.replace("\\\"elapsed_us\\\":5", "\\\"elapsed_us\\\":6");
        assert_ne!(normalized_hash(line), normalized_hash(&other_label));
    }

    #[test]
    fn digest_ignores_chunk_order() {
        let mut a = Digest::default();
        a.chunk(r#"{"chunk":{"label":"x","elapsed_us":1}}"#);
        a.chunk(r#"{"chunk":{"label":"y","elapsed_us":2}}"#);
        let mut b = Digest::default();
        b.chunk(r#"{"chunk":{"label":"y","elapsed_us":7}}"#);
        b.chunk(r#"{"chunk":{"label":"x","elapsed_us":8}}"#);
        assert_eq!(a.finish("{\"ok\":1}"), b.finish("{\"ok\":1}"));
    }
}
