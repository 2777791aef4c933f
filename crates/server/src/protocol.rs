//! The campaign server's newline-delimited JSON protocol.
//!
//! Every frame — request or event — is one line of JSON carrying a `"v"`
//! protocol-version field. Requests (client → server) carry a `"type"`
//! discriminator; events (server → client) carry an `"event"`
//! discriminator. The grammar:
//!
//! ```text
//! request  = submit | ping | shutdown
//! submit   = {"v":1, "type":"submit", "job": JOBSPEC}
//! ping     = {"v":1, "type":"ping"}
//! shutdown = {"v":1, "type":"shutdown"}
//!
//! event         = job_submitted | job_started | shard_result
//!               | job_done | error | pong
//! job_submitted = {"v":1, "event":"job_submitted", "job":N,
//!                  "shards":S, "queue_depth":D}
//! job_started   = {"v":1, "event":"job_started", "job":N}
//! shard_result  = {"v":1, "event":"shard_result", "job":N,
//!                  "shard": SHARD-RECORD}          // the JSONL shape of
//!                                                  // CampaignReport exports
//! job_done      = {"v":1, "event":"job_done", "job":N, "shards":S,
//!                  "cache_hits":H, "cache_warm_hits":W, "cache_misses":M,
//!                  "hit_rate":R, "wall_us":T, "cancelled":B}
//! error         = {"v":1, "event":"error", "code":C, "message":S}
//!                 // plus "job":N when the error concerns a specific job
//! pong          = {"v":1, "event":"pong"}
//! ```
//!
//! `shard_result` events stream *as shards complete* — a client watches a
//! campaign converge scenario by scenario instead of waiting for the full
//! report. The `shard` payload is exactly [`ShardResult::to_json`], the
//! shape one-shot CLI exports use, so downstream tooling parses both
//! identically.
//!
//! Malformed input never kills a session: every rejected line produces an
//! `error` event with a typed `code` (see [`ProtocolError::code`]) and the
//! session keeps reading.
//!
//! [`ShardResult::to_json`]: codesign_engine::ShardResult::to_json

use codesign_nasbench::Json;

use crate::job::JobSpec;

/// The protocol version spoken by this build. Frames claiming any other
/// version are rejected with [`ProtocolError::UnknownVersion`].
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on one request line, bytes. A submit frame is a few KB even
/// with a file's worth of inline scenarios; a megabyte-long line is a
/// protocol violation (or garbage piped at the socket), rejected before
/// parsing so memory stays bounded no matter what arrives.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Why a request frame was rejected. Each variant maps to a stable wire
/// `code` (see [`ProtocolError::code`]) carried by `error` events.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The line is not valid JSON, or not a JSON object.
    Malformed(String),
    /// The line exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The offending line's length, bytes.
        len: usize,
        /// The limit it exceeded.
        max: usize,
    },
    /// The frame's `"v"` field is missing or names a version this build
    /// does not speak.
    UnknownVersion {
        /// The version claimed by the frame (0 when absent).
        found: u64,
    },
    /// The frame's `"type"` is not a known request type.
    UnknownType(String),
    /// A submit frame's job spec failed validation, or its campaign could
    /// not be built (an auto-ranged norm the probe cannot range).
    InvalidJob(String),
    /// The job queue is at capacity; retry after a `job_done`.
    QueueFull {
        /// The queue's capacity.
        capacity: usize,
    },
    /// The server is shutting down and accepts no new jobs.
    ShuttingDown,
}

impl ProtocolError {
    /// The stable wire code of this error, carried in `error` events.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::Malformed(_) => "malformed",
            ProtocolError::Oversized { .. } => "oversized",
            ProtocolError::UnknownVersion { .. } => "unknown_version",
            ProtocolError::UnknownType(_) => "unknown_type",
            ProtocolError::InvalidJob(_) => "invalid_job",
            ProtocolError::QueueFull { .. } => "queue_full",
            ProtocolError::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::UnknownVersion { found } => write!(
                f,
                "protocol version {found} unsupported (this server speaks {PROTOCOL_VERSION})"
            ),
            ProtocolError::UnknownType(found) => {
                write!(f, "unknown request type {found:?} (submit|ping|shutdown)")
            }
            ProtocolError::InvalidJob(reason) => write!(f, "invalid job: {reason}"),
            ProtocolError::QueueFull { capacity } => write!(
                f,
                "job queue full ({capacity} pending); retry after a job_done"
            ),
            ProtocolError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a campaign job.
    Submit(JobSpec),
    /// Liveness probe; answered with [`Event::Pong`].
    Ping,
    /// Ask the server to shut down gracefully: the running job is
    /// cancelled (completed shards are kept and streamed), queued jobs are
    /// abandoned with `error` events, and the shared cache is flushed.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ProtocolError`] the server reports back as an
    /// `error` event.
    pub fn parse_line(line: &str) -> Result<Request, ProtocolError> {
        if line.len() > MAX_FRAME_BYTES {
            return Err(ProtocolError::Oversized {
                len: line.len(),
                max: MAX_FRAME_BYTES,
            });
        }
        let doc = Json::parse(line).map_err(ProtocolError::Malformed)?;
        if !matches!(doc, Json::Obj(_)) {
            return Err(ProtocolError::Malformed("frame is not an object".into()));
        }
        let version = doc.get("v").and_then(Json::as_usize).unwrap_or(0) as u64;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::UnknownVersion { found: version });
        }
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtocolError::Malformed("missing 'type'".into()))?;
        match kind {
            "submit" => {
                let job = doc
                    .get("job")
                    .ok_or_else(|| ProtocolError::InvalidJob("missing 'job' object".into()))?;
                Ok(Request::Submit(
                    JobSpec::from_json(job).map_err(ProtocolError::InvalidJob)?,
                ))
            }
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::UnknownType(other.to_owned())),
        }
    }

    /// Serializes the request as one wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let doc = match self {
            Request::Submit(job) => Json::obj(vec![
                ("v", Json::Num(PROTOCOL_VERSION as f64)),
                ("type", Json::Str("submit".into())),
                ("job", job.to_json()),
            ]),
            Request::Ping => Json::obj(vec![
                ("v", Json::Num(PROTOCOL_VERSION as f64)),
                ("type", Json::Str("ping".into())),
            ]),
            Request::Shutdown => Json::obj(vec![
                ("v", Json::Num(PROTOCOL_VERSION as f64)),
                ("type", Json::Str("shutdown".into())),
            ]),
        };
        doc.to_string()
    }
}

/// A server → client frame. All events round-trip through
/// [`Event::to_json`] / [`Event::from_json`]; clients use the latter to
/// consume the stream, tests use both to prove the codec lossless.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job passed validation and entered the queue.
    JobSubmitted {
        /// Server-assigned job id (monotonic per server).
        job: u64,
        /// Grid size: shards this job will run.
        shards: usize,
        /// Jobs ahead of it (including any running job).
        queue_depth: usize,
    },
    /// The runner picked the job up; `shard_result` events follow.
    JobStarted {
        /// The job now running.
        job: u64,
    },
    /// One shard completed; `shard` is its [`ShardResult::to_json`]
    /// record, byte-identical to the one-shot CLI's JSONL export.
    ///
    /// [`ShardResult::to_json`]: codesign_engine::ShardResult::to_json
    ShardResult {
        /// The job the shard belongs to.
        job: u64,
        /// The shard record.
        shard: Json,
    },
    /// The job finished (or was cancelled after completing some shards).
    JobDone {
        /// The finished job.
        job: u64,
        /// Shards that completed.
        shards: usize,
        /// Shared-cache lookups answered without recomputation (warm +
        /// cold hits summed over the job's shards).
        cache_hits: u64,
        /// The subset of `cache_hits` answered from entries preloaded
        /// from disk before the server started.
        cache_warm_hits: u64,
        /// Lookups the job had to compute.
        cache_misses: u64,
        /// `cache_hits / (cache_hits + cache_misses)`, 0 when no lookups.
        hit_rate: f64,
        /// Job wall-clock, µs.
        wall_us: u64,
        /// Whether the job was cancelled before all shards ran.
        cancelled: bool,
    },
    /// A request was rejected or a job failed.
    Error {
        /// The job concerned, when the error is job-scoped.
        job: Option<u64>,
        /// Stable machine-readable code ([`ProtocolError::code`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to a `ping`.
    Pong,
}

impl Event {
    /// The error event for a rejected request.
    #[must_use]
    pub fn from_error(job: Option<u64>, error: &ProtocolError) -> Self {
        Event::Error {
            job,
            code: error.code().to_owned(),
            message: error.to_string(),
        }
    }

    /// The event as one wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        self.to_json().to_string()
    }

    /// The event as a JSON document (one line when displayed).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let v = ("v", Json::Num(PROTOCOL_VERSION as f64));
        match self {
            Event::JobSubmitted {
                job,
                shards,
                queue_depth,
            } => Json::obj(vec![
                v,
                ("event", Json::Str("job_submitted".into())),
                ("job", Json::Num(*job as f64)),
                ("shards", Json::Num(*shards as f64)),
                ("queue_depth", Json::Num(*queue_depth as f64)),
            ]),
            Event::JobStarted { job } => Json::obj(vec![
                v,
                ("event", Json::Str("job_started".into())),
                ("job", Json::Num(*job as f64)),
            ]),
            Event::ShardResult { job, shard } => Json::obj(vec![
                v,
                ("event", Json::Str("shard_result".into())),
                ("job", Json::Num(*job as f64)),
                ("shard", shard.clone()),
            ]),
            Event::JobDone {
                job,
                shards,
                cache_hits,
                cache_warm_hits,
                cache_misses,
                hit_rate,
                wall_us,
                cancelled,
            } => Json::obj(vec![
                v,
                ("event", Json::Str("job_done".into())),
                ("job", Json::Num(*job as f64)),
                ("shards", Json::Num(*shards as f64)),
                ("cache_hits", Json::Num(*cache_hits as f64)),
                ("cache_warm_hits", Json::Num(*cache_warm_hits as f64)),
                ("cache_misses", Json::Num(*cache_misses as f64)),
                ("hit_rate", Json::Num(*hit_rate)),
                ("wall_us", Json::Num(*wall_us as f64)),
                ("cancelled", Json::Bool(*cancelled)),
            ]),
            Event::Error { job, code, message } => {
                let mut fields = vec![v, ("event", Json::Str("error".into()))];
                if let Some(job) = job {
                    fields.push(("job", Json::Num(*job as f64)));
                }
                fields.push(("code", Json::Str(code.clone())));
                fields.push(("message", Json::Str(message.clone())));
                Json::obj(fields)
            }
            Event::Pong => Json::obj(vec![v, ("event", Json::Str("pong".into()))]),
        }
    }

    /// Parses an event from its JSON document — the client half of the
    /// codec.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] mirroring the request-side taxonomy:
    /// `Malformed` for structural problems, `UnknownVersion` for a foreign
    /// `"v"`, `UnknownType` for an unrecognized `"event"`.
    pub fn from_json(doc: &Json) -> Result<Event, ProtocolError> {
        let malformed = |what: &str| ProtocolError::Malformed(format!("missing '{what}'"));
        let version = doc.get("v").and_then(Json::as_usize).unwrap_or(0) as u64;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::UnknownVersion { found: version });
        }
        let kind = doc
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("event"))?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| malformed(key))
        };
        let job = |key: &str| num(key).map(|n| n as u64);
        match kind {
            "job_submitted" => Ok(Event::JobSubmitted {
                job: job("job")?,
                shards: num("shards")? as usize,
                queue_depth: num("queue_depth")? as usize,
            }),
            "job_started" => Ok(Event::JobStarted { job: job("job")? }),
            "shard_result" => Ok(Event::ShardResult {
                job: job("job")?,
                shard: doc
                    .get("shard")
                    .cloned()
                    .ok_or_else(|| malformed("shard"))?,
            }),
            "job_done" => Ok(Event::JobDone {
                job: job("job")?,
                shards: num("shards")? as usize,
                cache_hits: job("cache_hits")?,
                cache_warm_hits: job("cache_warm_hits")?,
                cache_misses: job("cache_misses")?,
                hit_rate: num("hit_rate")?,
                wall_us: job("wall_us")?,
                cancelled: matches!(doc.get("cancelled"), Some(Json::Bool(true))),
            }),
            "error" => Ok(Event::Error {
                job: doc.get("job").and_then(Json::as_f64).map(|n| n as u64),
                code: doc
                    .get("code")
                    .and_then(Json::as_str)
                    .ok_or_else(|| malformed("code"))?
                    .to_owned(),
                message: doc
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or_else(|| malformed("message"))?
                    .to_owned(),
            }),
            "pong" => Ok(Event::Pong),
            other => Err(ProtocolError::UnknownType(other.to_owned())),
        }
    }

    /// Parses an event from one wire line.
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`Event::from_json`], plus `Oversized` for lines
    /// beyond [`MAX_FRAME_BYTES`] and `Malformed` for invalid JSON.
    pub fn parse_line(line: &str) -> Result<Event, ProtocolError> {
        if line.len() > MAX_FRAME_BYTES {
            return Err(ProtocolError::Oversized {
                len: line.len(),
                max: MAX_FRAME_BYTES,
            });
        }
        Event::from_json(&Json::parse(line).map_err(ProtocolError::Malformed)?)
    }
}
