//! An open-loop load generator for `dew serve`, timing each job from the
//! instant it was due.
//!
//! Jobs are due on a fixed schedule (`rate` per second) whatever the
//! server is doing. One connection submits each job at its due time and
//! never waits for a result; a second connection asks for the jobs'
//! terminal states in submission order. A job's latency runs from its due
//! time to the arrival of its terminal `wait` reply, so a stall delays
//! every job due during it, and the submitter's own lateness is reported
//! beside it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use dew_serve::json::{num, obj, str, Json};
use dew_serve::Client;

/// Longest a single protocol exchange may take before the job counts as
/// lost in transport.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The submit line of every job: mixed traffic over the protocol-default
/// space, with a deadline generous enough never to fire.
pub fn submit_body(requests: u64, seed: u64) -> Json {
    obj([
        ("cmd", str("submit")),
        ("kind", str("explore")),
        ("mix", str("mix")),
        ("requests", num(requests)),
        ("seed", num(seed)),
        ("deadline_ms", num(60_000)),
    ])
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub seed: u64,
    /// Milliseconds from the due time to sending the submit line.
    pub late_ms: f64,
    /// Milliseconds from the due time to the terminal reply (infinite when
    /// the job never completed).
    pub latency_ms: f64,
    /// Terminal status, or why there was none (`rejected: ...`,
    /// `transport: ...`).
    pub status: String,
    pub queued_ms: Option<f64>,
    pub run_ms: Option<f64>,
    /// The completed job's result object.
    pub result: Option<Json>,
}

impl JobRecord {
    pub fn completed(&self) -> bool {
        self.status == "completed"
    }
}

/// The submitter's view of one job, handed to the waiter.
struct Submitted {
    index: u64,
    due: Instant,
    late_ms: f64,
    admitted: Result<u64, String>,
}

/// Drives `jobs` jobs at `rate` per second against `addr` and returns
/// every job's record (in schedule order) plus the server's `stats`
/// before and after.
pub fn run(
    addr: &str,
    rate: f64,
    jobs: u64,
    requests: u64,
    seed_base: u64,
) -> Result<(Vec<JobRecord>, Json, Json), String> {
    let connect = || Client::connect(addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"));
    let mut submitter = connect()?;
    let mut waiter = connect()?;
    let stats = |c: &mut Client| {
        c.request(&obj([("cmd", str("stats"))]))
            .map_err(|e| format!("stats: {e}"))
    };
    let before = stats(&mut submitter)?;
    let (tx, rx) = mpsc::channel::<Submitted>();
    let start = Instant::now() + Duration::from_millis(20);
    let records = std::thread::scope(|scope| {
        let submit = scope.spawn(move || {
            for index in 0..jobs {
                let due = start + Duration::from_secs_f64(index as f64 / rate);
                if let Some(pause) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(pause);
                }
                let sent = Instant::now();
                let late_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
                let admitted = match submitter.request(&submit_body(requests, seed_base + index)) {
                    Err(e) => Err(format!("transport: {e}")),
                    Ok(reply) => match reply.get("id").and_then(Json::as_u64) {
                        Some(id) if reply.get("ok").and_then(Json::as_bool) == Some(true) => Ok(id),
                        _ => Err(format!("rejected: {}", reply.emit())),
                    },
                };
                let handed = tx.send(Submitted {
                    index,
                    due,
                    late_ms,
                    admitted,
                });
                if handed.is_err() {
                    break;
                }
            }
            submitter
        });
        let mut records = Vec::with_capacity(jobs as usize);
        for job in rx {
            let mut record = JobRecord {
                seed: seed_base + job.index,
                late_ms: job.late_ms,
                latency_ms: f64::INFINITY,
                status: String::new(),
                queued_ms: None,
                run_ms: None,
                result: None,
            };
            match job.admitted {
                Err(why) => record.status = why,
                Ok(id) => {
                    let wait = obj([
                        ("cmd", str("wait")),
                        ("id", num(id)),
                        ("timeout_ms", num(120_000)),
                    ]);
                    match waiter.request(&wait) {
                        Err(e) => record.status = format!("transport: {e}"),
                        Ok(reply) => {
                            let latency = job.due.elapsed().as_secs_f64() * 1e3;
                            record.status = reply
                                .get("status")
                                .and_then(Json::as_str)
                                .unwrap_or("missing status")
                                .to_owned();
                            if reply.get("timed_out").and_then(Json::as_bool) == Some(true) {
                                record.status = "wait timed out".to_owned();
                            }
                            record.queued_ms = reply.get("queued_ms").and_then(Json::as_f64);
                            record.run_ms = reply.get("run_ms").and_then(Json::as_f64);
                            record.result = reply.get("result").cloned();
                            if record.completed() {
                                record.latency_ms = latency;
                            }
                        }
                    }
                }
            }
            records.push(record);
        }
        let submitter = submit.join().expect("the submitter thread does not panic");
        (records, submitter)
    });
    let (records, mut submitter) = records;
    let after = stats(&mut submitter)?;
    Ok((records, before, after))
}

/// `stats.<key>` of a `stats` reply.
pub fn stat(reply: &Json, key: &str) -> u64 {
    reply
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}
