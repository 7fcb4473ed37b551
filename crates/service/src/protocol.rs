//! The newline-delimited text protocol spoken by the daemon.
//!
//! Every request is one line; every response is one line starting with `OK`
//! or `ERR`. Keeping both sides single-line means a client is a `write` plus
//! a `read_line` — no framing, no state machine.
//!
//! ```text
//! LOAD <path> AS <name>
//! SOLVE <name> k=<K> [preset=<kdc|kdc_t|kdclub|kdbb|madec>] [limit=<seconds>]
//!       [nodes=<N>] [threads=<N>] [verbose=<0|1>]
//! MSOLVE <name> k=<LO>..<HI> [r=<R>] [preset=..] [limit=<seconds>]
//!        [nodes=<N>] [threads=<N>]
//! ENUMERATE <name> k=<K> top=<R>
//! COUNT <name> k=<K> [min=<S>]
//! STATS [<name>]
//! UNLOAD <name>
//! JOBS
//! CANCEL <id>
//! METRICS
//! TRACE <id>
//! FAULTS [<plan>|off]
//! SHUTDOWN [mode=<drain|abort>]
//! ```
//!
//! With `verbose=1`, a `SOLVE` response is preceded by zero or more `EVENT
//! key=value ...` lines streamed while the search runs (incumbent
//! improvements, reducer retightens, restarts); the final line is the usual
//! `OK`/`ERR`. Clients must read until a non-`EVENT` line.
//!
//! `MSOLVE` answers a whole batched k-sweep as **one job**: the daemon
//! plans `k = LO..=HI` (inclusive; `k=<K>` alone means a single k) as a
//! [`kdc_api::Query::Batch`] sharing one universe, cross-`k` witness seeds
//! and upper-bound caps, then streams one `RESULT idx=<I> k=<K> size=<S>
//! status=<..>` line per sub-query — in completion order, before the final
//! `OK` — so clients see answers as they land. Clients must read until a
//! non-`RESULT` line. With `r=<R>`, every sub-query enumerates a top-`R`
//! pool instead of solving for one maximum. The final `OK` reports the
//! folded status plus the batch's shared-work counters; the witness vertex
//! sets are retrievable per `k` via follow-up `SOLVE` calls, which answer
//! from the proven-optimal memo without searching. A running `MSOLVE` is
//! one job: one `CANCEL <id>` aborts the remaining sub-queries, and a
//! draining shutdown lets the whole sweep finish.
//!
//! `METRICS` similarly streams the process-global registry in Prometheus
//! text exposition format, one `METRIC <sample-or-header>` line per
//! exposition line, terminated by `OK series=<N>`; clients must read until
//! a non-`METRIC` line. `TRACE <id>` returns a solve job's recorded phase
//! spans as a single-line chrome://tracing JSON array.
//!
//! Verbs are case-insensitive; `<path>` and `<name>` must be free of
//! whitespace (and, because `key=value` tokens are options, free of `=`).
//! Options may appear in any order after the positional arguments;
//! unrecognized option keys are rejected, not ignored, so a typo like
//! `limt=5` fails fast instead of silently running without a deadline.
//!
//! ## Overload (`BUSY`) replies
//!
//! A daemon running with admission limits answers overload with a **typed
//! busy error** instead of queueing unboundedly:
//!
//! ```text
//! ERR busy queue_depth=<N> retry_after_ms=<M>     (job queue at capacity)
//! ERR busy active_conns=<N> retry_after_ms=<M>    (connection cap reached)
//! ```
//!
//! Referred to as `BUSY` in operational docs, it is still an `ERR` line on
//! the wire so old clients fail closed. `retry_after_ms` is a backoff hint;
//! `kdc client --retries` and [`crate::server::request_with_retry`] retry
//! *only* on connect failure and `BUSY` (never on other errors, which are
//! deterministic).
//!
//! ## Shutdown modes
//!
//! `SHUTDOWN mode=drain` stops accepting connections, lets queued and
//! running jobs finish (their waiters get real results and in-flight
//! `EVENT` streams complete), then exits. `SHUTDOWN mode=abort` (the
//! default, and the pre-`mode=` behavior) cancels every outstanding job
//! cooperatively and exits as soon as the workers notice.
//!
//! ## Fault injection (`FAULTS`, debug builds only)
//!
//! `FAULTS` reports the armed fault plan, `FAULTS <plan>` installs one
//! (grammar: `point:action[:trigger]` rules joined by commas — see the
//! `kdc_faults` crate docs), `FAULTS off` disarms everything. Release
//! builds answer `ERR` so production daemons cannot be fault-armed over
//! the wire; the `KDC_FAULTS` environment variable works in any build.

use std::collections::HashMap;
use std::fmt::{Display, Write as _};
use std::time::Duration;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `LOAD <path> AS <name>` — parse a graph file into the cache.
    Load {
        /// Filesystem path of the graph (DIMACS/METIS/edge list by extension).
        path: String,
        /// Cache key the graph is stored under.
        name: String,
    },
    /// `SOLVE <name> k=<K> [preset=..] [limit=..] [nodes=..] [threads=..]
    /// [verbose=..]`.
    Solve {
        /// Cache key of the graph to solve on.
        graph: String,
        /// The k of the k-defective clique.
        k: usize,
        /// Solver preset (`kdc` when omitted).
        preset: Option<String>,
        /// Per-job wall-clock deadline, validated at the protocol edge via
        /// [`kdc::config::parse_time_limit_arg`].
        limit: Option<Duration>,
        /// Per-job branch-and-bound node limit, validated via
        /// [`kdc::config::parse_node_limit_arg`].
        nodes: Option<u64>,
        /// Solver threads: 1 = sequential, 0 = all cores, N = N-thread
        /// ego decomposition.
        threads: usize,
        /// Stream `EVENT` lines while the search runs.
        verbose: bool,
    },
    /// `MSOLVE <name> k=<LO>..<HI> [r=..] [preset=..] [limit=..]
    /// [nodes=..] [threads=..]` — a batched k-sweep answered as one job,
    /// streaming `RESULT` lines per sub-query before the final `OK`.
    MSolve {
        /// Cache key of the graph to sweep on.
        graph: String,
        /// First k of the inclusive sweep.
        k_lo: usize,
        /// Last k of the inclusive sweep (`k_lo` for a single-k batch).
        k_hi: usize,
        /// When set, each sub-query enumerates a top-`r` pool instead of
        /// solving for one maximum witness.
        r: Option<usize>,
        /// Solver preset (`kdc` when omitted).
        preset: Option<String>,
        /// Batch-wide wall-clock deadline (shared by all sub-queries).
        limit: Option<Duration>,
        /// Per-sub-query branch-and-bound node limit.
        nodes: Option<u64>,
        /// Solver threads per sub-solve (same semantics as `SOLVE`).
        threads: usize,
    },
    /// `ENUMERATE <name> k=<K> top=<R>` — the r largest maximal k-defective
    /// cliques.
    Enumerate {
        /// Cache key of the graph.
        graph: String,
        /// The k of the k-defective clique.
        k: usize,
        /// Pool size r.
        top: usize,
    },
    /// `COUNT <name> k=<K> [min=<S>]` — exact per-size counts of
    /// k-defective cliques with at least `min` vertices.
    Count {
        /// Cache key of the graph.
        graph: String,
        /// The k of the k-defective clique.
        k: usize,
        /// Smallest size to count (0 when omitted).
        min_size: usize,
    },
    /// `STATS [<name>]` — per-graph cache statistics, or server-wide when no
    /// name is given.
    Stats {
        /// Cache key, or `None` for the server-wide summary.
        graph: Option<String>,
    },
    /// `UNLOAD <name>` — drop a graph (in-flight jobs keep their `Arc`).
    Unload {
        /// Cache key to drop.
        graph: String,
    },
    /// `JOBS` — list every job the daemon has seen, newest last.
    Jobs,
    /// `CANCEL <id>` — cooperatively cancel a queued or running job.
    Cancel {
        /// Job id as reported by `JOBS`.
        id: u64,
    },
    /// `METRICS` — stream the global registry in Prometheus text format.
    Metrics,
    /// `TRACE <id>` — a solve job's phase spans as chrome://tracing JSON.
    Trace {
        /// Job id as reported by `JOBS`.
        id: u64,
    },
    /// `FAULTS [<plan>|off]` — inspect or install the fault-injection plan
    /// (debug builds only; release daemons answer `ERR`).
    Faults {
        /// `None` = report status; `Some("off")` = disarm; any other value
        /// is a plan in the `kdc_faults` grammar.
        plan: Option<String>,
    },
    /// `SHUTDOWN [mode=drain|abort]` — stop accepting connections and exit,
    /// either finishing outstanding jobs (`drain`) or cancelling them
    /// (`abort`, the default).
    Shutdown {
        /// Selected shutdown mode.
        mode: ShutdownMode,
    },
}

/// How `SHUTDOWN` treats outstanding jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Finish queued and running jobs (and their event streams) first.
    Drain,
    /// Cancel everything via the cooperative flags and exit promptly.
    Abort,
}

impl ShutdownMode {
    /// Lower-case protocol token.
    pub fn as_str(self) -> &'static str {
        match self {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Abort => "abort",
        }
    }
}

/// Splits `tokens` into positionals and `key=value` options.
fn split_options(tokens: &[&str]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    for t in tokens {
        match t.split_once('=') {
            Some((key, value)) => {
                options.insert(key.to_ascii_lowercase(), value.to_string());
            }
            None => positional.push(t.to_string()),
        }
    }
    (positional, options)
}

fn parse_option<T: std::str::FromStr>(
    options: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    match options.get(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value {raw:?} for {key}=")),
    }
}

/// Widest `k=<LO>..<HI>` sweep `MSOLVE` accepts: a protocol-edge guard so
/// a hostile `k=0..99999999` is an `ERR` line, not a 100M-entry batch.
pub const MAX_MSOLVE_SWEEP: usize = 256;

/// Parses `MSOLVE`'s `k=` value: `<LO>..<HI>` (inclusive) or a single
/// `<K>` (meaning `K..K`).
fn parse_k_range(raw: &str) -> Result<(usize, usize), String> {
    let (lo, hi) = match raw.split_once("..") {
        Some((lo, hi)) => {
            let parse = |s: &str, side: &str| -> Result<usize, String> {
                s.parse()
                    .map_err(|_| format!("invalid {side} bound {s:?} in k={raw}"))
            };
            (parse(lo, "lower")?, parse(hi, "upper")?)
        }
        None => {
            let k = raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for k= (want <K> or <LO>..<HI>)"))?;
            (k, k)
        }
    };
    if hi < lo {
        return Err(format!("empty k range {raw} (upper bound below lower)"));
    }
    // `hi - lo + 1` overflows for `0..usize::MAX`, so compare the gap.
    if hi - lo >= MAX_MSOLVE_SWEEP {
        return Err(format!(
            "k range {raw} spans {} values (max {MAX_MSOLVE_SWEEP})",
            (hi - lo) as u128 + 1
        ));
    }
    Ok((lo, hi))
}

/// Parses one request line into a [`Command`].
pub fn parse_command(line: &str) -> Result<Command, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some((verb, rest)) = tokens.split_first() else {
        return Err("empty command".to_string());
    };
    let verb = verb.to_ascii_uppercase();
    // FAULTS is handled before option splitting: a fault plan like
    // `conn_read:delay=5:p=0.1` is full of `=` signs that are part of the
    // plan grammar, not protocol options.
    if verb == "FAULTS" {
        return match rest {
            [] => Ok(Command::Faults { plan: None }),
            [plan] => Ok(Command::Faults {
                plan: Some(plan.to_string()),
            }),
            _ => Err("usage: FAULTS [<plan>|off]".to_string()),
        };
    }
    let (positional, options) = split_options(rest);
    let positional_count = |want: usize, usage: &str| -> Result<(), String> {
        if positional.len() == want {
            Ok(())
        } else {
            Err(format!("usage: {usage}"))
        }
    };
    let known_options = |allowed: &[&str]| -> Result<(), String> {
        for key in options.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(if allowed.is_empty() {
                    format!("{verb} takes no key=value options (got {key}=)")
                } else {
                    format!("unknown option {key}= (allowed: {})", allowed.join(", "))
                });
            }
        }
        Ok(())
    };
    match verb.as_str() {
        "LOAD" => {
            // `AS` is a positional keyword: LOAD <path> AS <name>.
            known_options(&[])?;
            positional_count(3, "LOAD <path> AS <name>")?;
            if !positional[1].eq_ignore_ascii_case("as") {
                return Err("usage: LOAD <path> AS <name>".to_string());
            }
            Ok(Command::Load {
                path: positional[0].clone(),
                name: positional[2].clone(),
            })
        }
        "SOLVE" => {
            known_options(&["k", "preset", "limit", "nodes", "threads", "verbose"])?;
            positional_count(
                1,
                "SOLVE <name> k=<K> [preset=..] [limit=..] [nodes=..] [threads=..] [verbose=..]",
            )?;
            let k = parse_option::<usize>(&options, "k")?.ok_or("SOLVE requires k=<K>")?;
            // Hostile limits (negative/NaN/inf/huge/zero-node) are rejected
            // at the protocol edge — through the same shared parsers the
            // CLI uses — where they still produce an ERR line.
            let limit = options
                .get("limit")
                .map(|raw| kdc::config::parse_time_limit_arg(raw))
                .transpose()?;
            let nodes = options
                .get("nodes")
                .map(|raw| kdc::config::parse_node_limit_arg(raw))
                .transpose()?;
            let verbose = match parse_option::<u8>(&options, "verbose")?.unwrap_or(0) {
                0 => false,
                1 => true,
                other => return Err(format!("verbose= must be 0 or 1 (got {other})")),
            };
            Ok(Command::Solve {
                graph: positional[0].clone(),
                k,
                preset: options.get("preset").cloned(),
                limit,
                nodes,
                threads: parse_option(&options, "threads")?.unwrap_or(1),
                verbose,
            })
        }
        "MSOLVE" => {
            known_options(&["k", "r", "preset", "limit", "nodes", "threads"])?;
            positional_count(
                1,
                "MSOLVE <name> k=<LO>..<HI> [r=..] [preset=..] [limit=..] [nodes=..] \
                 [threads=..]",
            )?;
            let raw = options.get("k").ok_or("MSOLVE requires k=<LO>..<HI>")?;
            let (k_lo, k_hi) = parse_k_range(raw)?;
            let limit = options
                .get("limit")
                .map(|raw| kdc::config::parse_time_limit_arg(raw))
                .transpose()?;
            let nodes = options
                .get("nodes")
                .map(|raw| kdc::config::parse_node_limit_arg(raw))
                .transpose()?;
            let r = parse_option::<usize>(&options, "r")?;
            if r == Some(0) {
                return Err("r= must be positive".to_string());
            }
            Ok(Command::MSolve {
                graph: positional[0].clone(),
                k_lo,
                k_hi,
                r,
                preset: options.get("preset").cloned(),
                limit,
                nodes,
                threads: parse_option(&options, "threads")?.unwrap_or(1),
            })
        }
        "ENUMERATE" => {
            known_options(&["k", "top"])?;
            positional_count(1, "ENUMERATE <name> k=<K> top=<R>")?;
            let k = parse_option::<usize>(&options, "k")?.ok_or("ENUMERATE requires k=<K>")?;
            let top =
                parse_option::<usize>(&options, "top")?.ok_or("ENUMERATE requires top=<R>")?;
            if top == 0 {
                return Err("top= must be positive".to_string());
            }
            Ok(Command::Enumerate {
                graph: positional[0].clone(),
                k,
                top,
            })
        }
        "COUNT" => {
            known_options(&["k", "min"])?;
            positional_count(1, "COUNT <name> k=<K> [min=<S>]")?;
            let k = parse_option::<usize>(&options, "k")?.ok_or("COUNT requires k=<K>")?;
            Ok(Command::Count {
                graph: positional[0].clone(),
                k,
                min_size: parse_option(&options, "min")?.unwrap_or(0),
            })
        }
        "STATS" => {
            known_options(&[])?;
            if positional.len() > 1 {
                return Err("usage: STATS [<name>]".to_string());
            }
            Ok(Command::Stats {
                graph: positional.first().cloned(),
            })
        }
        "UNLOAD" => {
            known_options(&[])?;
            positional_count(1, "UNLOAD <name>")?;
            Ok(Command::Unload {
                graph: positional[0].clone(),
            })
        }
        "JOBS" => {
            known_options(&[])?;
            positional_count(0, "JOBS")?;
            Ok(Command::Jobs)
        }
        "CANCEL" => {
            known_options(&[])?;
            positional_count(1, "CANCEL <id>")?;
            let id = positional[0]
                .parse()
                .map_err(|_| format!("invalid job id {:?}", positional[0]))?;
            Ok(Command::Cancel { id })
        }
        "METRICS" => {
            known_options(&[])?;
            positional_count(0, "METRICS")?;
            Ok(Command::Metrics)
        }
        "TRACE" => {
            known_options(&[])?;
            positional_count(1, "TRACE <id>")?;
            let id = positional[0]
                .parse()
                .map_err(|_| format!("invalid job id {:?}", positional[0]))?;
            Ok(Command::Trace { id })
        }
        "SHUTDOWN" => {
            known_options(&["mode"])?;
            positional_count(0, "SHUTDOWN [mode=drain|abort]")?;
            let mode = match options.get("mode").map(String::as_str) {
                None | Some("abort") => ShutdownMode::Abort,
                Some("drain") => ShutdownMode::Drain,
                Some(other) => {
                    return Err(format!("mode= must be drain or abort (got {other})"));
                }
            };
            Ok(Command::Shutdown { mode })
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Builder for one-line `OK key=value ...` responses, written straight
/// into the line it renders: a memo-hit `SOLVE` reply is a dozen fields,
/// and it is built once per request on the connection thread.
#[derive(Debug)]
pub struct OkLine {
    line: String,
}

impl Default for OkLine {
    fn default() -> Self {
        OkLine {
            line: String::from("OK"),
        }
    }
}

impl OkLine {
    /// An empty `OK` response.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `key=value` field (insertion order is preserved).
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.line.push(' ');
        self.line.push_str(key);
        self.line.push('=');
        // Formatting into a `String` cannot fail.
        let _ = write!(self.line, "{value}");
        self
    }

    /// Renders the line (without trailing newline).
    pub fn render(self) -> String {
        self.line
    }
}

/// Renders an `ERR` response line; newlines in the message are flattened so
/// the response stays a single line.
pub fn err_line(msg: &str) -> String {
    format!("ERR {}", msg.replace('\n', " "))
}

/// Renders a vertex list as `a,b,c` (the protocol's list syntax).
pub fn render_vertices(vertices: &[u32]) -> String {
    let mut out = String::with_capacity(vertices.len() * 6);
    for (i, v) in vertices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Formatting into a `String` cannot fail.
        let _ = write!(out, "{v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_load() {
        assert_eq!(
            parse_command("LOAD /tmp/g.clq AS g1").unwrap(),
            Command::Load {
                path: "/tmp/g.clq".into(),
                name: "g1".into()
            }
        );
        // Case-insensitive verb and AS keyword.
        assert!(parse_command("load x as y").is_ok());
        assert!(parse_command("LOAD /tmp/g.clq g1").is_err(), "missing AS");
        assert!(parse_command("LOAD g1").is_err());
    }

    #[test]
    fn parses_solve_with_options_in_any_order() {
        let cmd = parse_command("SOLVE g1 limit=2.5 k=3 threads=4 preset=kdbb nodes=500 verbose=1")
            .unwrap();
        assert_eq!(
            cmd,
            Command::Solve {
                graph: "g1".into(),
                k: 3,
                preset: Some("kdbb".into()),
                limit: Some(Duration::from_secs_f64(2.5)),
                nodes: Some(500),
                threads: 4,
                verbose: true,
            }
        );
        let minimal = parse_command("SOLVE g1 k=0").unwrap();
        assert_eq!(
            minimal,
            Command::Solve {
                graph: "g1".into(),
                k: 0,
                preset: None,
                limit: None,
                nodes: None,
                threads: 1,
                verbose: false,
            }
        );
    }

    #[test]
    fn parses_msolve_sweeps() {
        let cmd = parse_command("MSOLVE g1 k=0..4 r=3 preset=kdc_t limit=2.5 nodes=500 threads=2")
            .unwrap();
        assert_eq!(
            cmd,
            Command::MSolve {
                graph: "g1".into(),
                k_lo: 0,
                k_hi: 4,
                r: Some(3),
                preset: Some("kdc_t".into()),
                limit: Some(Duration::from_secs_f64(2.5)),
                nodes: Some(500),
                threads: 2,
            }
        );
        // A bare k is a single-entry sweep.
        let single = parse_command("msolve g1 k=3").unwrap();
        assert_eq!(
            single,
            Command::MSolve {
                graph: "g1".into(),
                k_lo: 3,
                k_hi: 3,
                r: None,
                preset: None,
                limit: None,
                nodes: None,
                threads: 1,
            }
        );
    }

    #[test]
    fn msolve_rejects_hostile_ranges() {
        assert!(parse_command("MSOLVE g1").is_err(), "k= is required");
        assert!(parse_command("MSOLVE g1 k=4..0").is_err(), "empty range");
        assert!(
            parse_command("MSOLVE g1 k=0..99999999").is_err(),
            "too wide"
        );
        assert!(parse_command("MSOLVE g1 k=a..b").is_err());
        assert!(parse_command("MSOLVE g1 k=1..").is_err());
        assert!(parse_command("MSOLVE g1 k=1..2 r=0").is_err(), "zero pool");
        assert!(
            parse_command("MSOLVE g1 k=1..2 verbose=1").is_err(),
            "MSOLVE streams RESULT lines unconditionally; verbose= is not an option"
        );
        // The widest allowed sweep parses; one wider does not.
        assert!(parse_command(&format!("MSOLVE g1 k=0..{}", MAX_MSOLVE_SWEEP - 1)).is_ok());
        assert!(parse_command(&format!("MSOLVE g1 k=0..{MAX_MSOLVE_SWEEP}")).is_err());
        let full = parse_command(&format!("MSOLVE g1 k=0..{}", usize::MAX)).unwrap_err();
        assert!(full.contains("spans 18446744073709551616 values"), "{full}");
    }

    #[test]
    fn verbose_option_is_strictly_binary() {
        assert!(parse_command("SOLVE g k=1 verbose=0").is_ok());
        assert!(parse_command("SOLVE g k=1 verbose=1").is_ok());
        for bad in ["2", "yes", "true", "-1"] {
            assert!(
                parse_command(&format!("SOLVE g k=1 verbose={bad}")).is_err(),
                "verbose={bad} must be rejected"
            );
        }
    }

    #[test]
    fn hostile_node_limits_are_rejected_at_parse_time() {
        assert!(parse_command("SOLVE g k=1 nodes=1").is_ok());
        assert!(parse_command("SOLVE g k=1 nodes=1000000").is_ok());
        for bad in ["0", "-5", "1.5", "1e9", "many", "18446744073709551616"] {
            assert!(
                parse_command(&format!("SOLVE g k=1 nodes={bad}")).is_err(),
                "nodes={bad} must be rejected"
            );
        }
    }

    #[test]
    fn parses_count() {
        assert_eq!(
            parse_command("COUNT g k=2 min=5").unwrap(),
            Command::Count {
                graph: "g".into(),
                k: 2,
                min_size: 5
            }
        );
        assert_eq!(
            parse_command("count g k=0").unwrap(),
            Command::Count {
                graph: "g".into(),
                k: 0,
                min_size: 0
            }
        );
        assert!(parse_command("COUNT g").is_err(), "k required");
        assert!(parse_command("COUNT g k=1 top=3").is_err(), "bad option");
    }

    #[test]
    fn solve_requires_k() {
        assert!(parse_command("SOLVE g1").is_err());
        assert!(parse_command("SOLVE g1 k=banana").is_err());
        assert!(parse_command("SOLVE").is_err());
    }

    #[test]
    fn unknown_option_keys_are_rejected_not_ignored() {
        // A typo'd option must fail fast, not silently drop the deadline.
        assert!(parse_command("SOLVE g k=2 limt=5").is_err());
        assert!(parse_command("SOLVE g k=2 thread=4").is_err());
        assert!(parse_command("ENUMERATE g k=1 top=2 preset=kdc").is_err());
        assert!(parse_command("JOBS verbose=1").is_err());
        assert!(parse_command("SHUTDOWN now=1").is_err());
        assert!(
            parse_command("LOAD /tmp/a=b.clq AS g").is_err(),
            "= in path"
        );
    }

    #[test]
    fn hostile_limits_are_rejected_at_parse_time() {
        assert!(parse_command("SOLVE g k=1 limit=2.5").is_ok());
        assert!(parse_command("SOLVE g k=1 limit=0").is_ok());
        for bad in ["-1", "NaN", "inf", "-inf", "1e30"] {
            assert!(
                parse_command(&format!("SOLVE g k=1 limit={bad}")).is_err(),
                "limit={bad} must be rejected"
            );
        }
    }

    #[test]
    fn parses_enumerate_stats_unload() {
        assert_eq!(
            parse_command("ENUMERATE g k=1 top=5").unwrap(),
            Command::Enumerate {
                graph: "g".into(),
                k: 1,
                top: 5
            }
        );
        assert!(parse_command("ENUMERATE g k=1").is_err(), "top required");
        assert!(parse_command("ENUMERATE g k=1 top=0").is_err());
        assert_eq!(
            parse_command("STATS g").unwrap(),
            Command::Stats {
                graph: Some("g".into())
            }
        );
        assert_eq!(
            parse_command("STATS").unwrap(),
            Command::Stats { graph: None }
        );
        assert_eq!(
            parse_command("UNLOAD g").unwrap(),
            Command::Unload { graph: "g".into() }
        );
    }

    #[test]
    fn parses_control_commands() {
        assert_eq!(parse_command("JOBS").unwrap(), Command::Jobs);
        assert_eq!(
            parse_command("CANCEL 7").unwrap(),
            Command::Cancel { id: 7 }
        );
        assert!(parse_command("CANCEL seven").is_err());
        assert_eq!(
            parse_command("shutdown").unwrap(),
            Command::Shutdown {
                mode: ShutdownMode::Abort
            }
        );
        assert!(parse_command("").is_err());
        assert!(parse_command("FROBNICATE").is_err());
    }

    #[test]
    fn parses_shutdown_modes() {
        assert_eq!(
            parse_command("SHUTDOWN mode=drain").unwrap(),
            Command::Shutdown {
                mode: ShutdownMode::Drain
            }
        );
        assert_eq!(
            parse_command("SHUTDOWN mode=abort").unwrap(),
            Command::Shutdown {
                mode: ShutdownMode::Abort
            }
        );
        assert!(parse_command("SHUTDOWN mode=later").is_err());
        assert!(parse_command("SHUTDOWN drain").is_err(), "mode= required");
    }

    #[test]
    fn parses_faults_without_option_splitting() {
        assert_eq!(
            parse_command("FAULTS").unwrap(),
            Command::Faults { plan: None }
        );
        assert_eq!(
            parse_command("faults off").unwrap(),
            Command::Faults {
                plan: Some("off".into())
            }
        );
        // `=` inside the plan must survive verbatim (it is plan grammar,
        // not a protocol option).
        assert_eq!(
            parse_command("FAULTS conn_read:delay=5:p=0.1,accept:error").unwrap(),
            Command::Faults {
                plan: Some("conn_read:delay=5:p=0.1,accept:error".into())
            }
        );
        assert!(parse_command("FAULTS a b").is_err(), "one plan token max");
    }

    #[test]
    fn parses_observability_commands() {
        assert_eq!(parse_command("METRICS").unwrap(), Command::Metrics);
        assert_eq!(parse_command("metrics").unwrap(), Command::Metrics);
        assert!(parse_command("METRICS all").is_err());
        assert_eq!(parse_command("TRACE 3").unwrap(), Command::Trace { id: 3 });
        assert!(parse_command("TRACE").is_err(), "id required");
        assert!(parse_command("TRACE three").is_err());
        assert!(parse_command("TRACE 3 verbose=1").is_err());
    }

    #[test]
    fn ok_line_renders_in_order() {
        let line = OkLine::new()
            .field("job", 3)
            .field("status", "optimal")
            .field("size", 6)
            .render();
        assert_eq!(line, "OK job=3 status=optimal size=6");
        assert_eq!(OkLine::new().render(), "OK");
    }

    #[test]
    fn err_line_is_single_line() {
        assert_eq!(err_line("no such\ngraph"), "ERR no such graph");
    }

    #[test]
    fn vertex_list_syntax() {
        assert_eq!(render_vertices(&[3, 1, 4]), "3,1,4");
        assert_eq!(render_vertices(&[]), "");
    }
}
