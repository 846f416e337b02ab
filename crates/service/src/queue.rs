//! The job queue: submission, per-tenant fair scheduling, cancellation, retries.
//!
//! Jobs are FIFO **within** a tenant; **across** tenants the queue draws the next
//! tenant by weighted sampling. The draw reuses the arithmetic of the jump sampler
//! (`nc_core::scheduler`): there a cell of effective pairs is selected with
//! probability `E_c/E` by walking cumulative per-cell counts with one uniform draw;
//! here a tenant is selected with probability `wₜ/Σwₜ` by walking cumulative weights
//! with one uniform draw from a dedicated seeded stream
//! ([`nc_core::rng::substream`]). Same decomposition, same walk — which is
//! what makes the fairness claim quantitative: over many picks each tenant's share of
//! worker slices converges to its weight share, independent of how many jobs it
//! queues (pinned by the `weighted_share_converges_to_weights` test).
//!
//! Crashed attempts are requeued with exponential backoff measured in queue *picks*
//! (a deterministic clock under a deterministic pick sequence): after crash `k` the
//! job is ineligible for the next `2ᵏ` picks, capped at [`MAX_BACKOFF_PICKS`].
//! [`MAX_ATTEMPTS`] crashes fail the job permanently.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::Rng;

use crate::job::{JobId, JobSpec, JobState};
use crate::runner::JobReport;

/// Most crashes a job absorbs before it is failed permanently (successful slices do
/// not count against this; only lost attempts do).
pub const MAX_ATTEMPTS: u64 = 4;
/// Ceiling of the exponential retry backoff, in queue picks.
pub const MAX_BACKOFF_PICKS: u64 = 16;

/// The backoff (in queue picks) imposed after the `crashes`-th crash: `2ᵏ` capped
/// at [`MAX_BACKOFF_PICKS`]. Shared with the metrics tier so the
/// `service_backoff_picks_total` counter and the queue agree by construction.
#[must_use]
pub fn backoff_for(crashes: u64) -> u64 {
    2u64.saturating_pow(u32::try_from(crashes).unwrap_or(u32::MAX))
        .min(MAX_BACKOFF_PICKS)
}

/// Everything the queue tracks about one submitted job.
#[derive(Debug)]
pub struct JobRecord {
    /// The job's identifier.
    pub id: JobId,
    /// The submitted spec (immutable after submission).
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Attempts started so far (1 on the first claim).
    pub attempts: u64,
    /// Worker crashes absorbed so far.
    pub crashes: u64,
    /// Slices executed so far (across all attempts, counting replayed slices).
    pub slices: u64,
    /// Lifetime scheduler steps at the last checkpoint.
    pub steps: u64,
    /// The last checkpoint (None until the first slice completes, and again once the
    /// job reaches a terminal state).
    pub snapshot: Option<Vec<u8>>,
    /// Cancellation flag, checked by workers between slices.
    pub cancel_requested: bool,
    /// The queue pick-counter value before which the job must not be claimed.
    pub not_before_pick: u64,
    /// The pick-counter value when the job last entered a tenant queue (submission
    /// or requeue) — the queue-age observable, measured in picks, not wall clock.
    pub enqueued_pick: u64,
    /// The final report, once done.
    pub report: Option<JobReport>,
    /// Wall-clock seconds of executed slices (stats only; not deterministic).
    pub seconds: f64,
    /// A human-readable error, once failed.
    pub error: Option<String>,
}

impl JobRecord {
    /// One JSON object describing the job's current status.
    #[must_use]
    pub fn status_json(&self) -> String {
        format!(
            "{{\"id\": {}, \"tenant\": \"{}\", \"protocol\": \"{}\", \"n\": {}, \"state\": \"{}\", \"attempts\": {}, \"crashes\": {}, \"slices\": {}, \"steps\": {}, \"error\": {}}}",
            self.id,
            crate::stats::escape_json(&self.spec.tenant),
            self.spec.protocol.name(),
            self.spec.n,
            self.state.as_str(),
            self.attempts,
            self.crashes,
            self.slices,
            self.steps,
            match &self.error {
                Some(e) => format!("\"{}\"", crate::stats::escape_json(e)),
                None => "null".to_string(),
            }
        )
    }
}

/// A claim handed to a worker: everything needed to run one slice without holding
/// the queue lock.
#[derive(Debug)]
pub struct Claim {
    /// The claimed job.
    pub id: JobId,
    /// The job's spec (cloned; the record keeps the original).
    pub spec: JobSpec,
    /// The last checkpoint to resume from (None → start fresh).
    pub snapshot: Option<Vec<u8>>,
    /// Slices already executed (drives crash injection).
    pub slices: u64,
    /// Crashes already absorbed (crash injection fires on the first attempt only).
    pub crashes: u64,
    /// Lifetime steps at the resume checkpoint (the sim-step delta baseline).
    pub steps: u64,
    /// How many picks the job waited in the queue before this claim.
    pub queued_age_picks: u64,
}

/// How a worker hands a slice's result back to the queue.
#[derive(Debug)]
pub enum SliceResult {
    /// The slice's allowance was spent: park the checkpoint and requeue.
    Parked {
        /// The checkpoint taken at the slice boundary.
        snapshot: Vec<u8>,
        /// Lifetime steps at the boundary.
        steps: u64,
    },
    /// The job finished.
    Done {
        /// The deterministic end-of-job report.
        report: JobReport,
        /// Lifetime steps at completion.
        steps: u64,
    },
    /// The job failed with a typed/terminal error (budget exhausted, corrupt
    /// snapshot, …). Not retried: these are deterministic failures.
    Failed {
        /// Human-readable cause.
        error: String,
    },
    /// The worker crashed mid-slice (caught panic). Progress since the last
    /// checkpoint is lost; the queue requeues with backoff or fails the job once
    /// [`MAX_ATTEMPTS`] is reached.
    Crashed {
        /// The recovered panic message.
        message: String,
    },
}

/// The multi-tenant job queue. Interior mutability is the caller's concern (the
/// service wraps it in a `Mutex`); the queue itself is plain sequential state, which
/// keeps every transition unit-testable.
pub struct JobQueue {
    jobs: Vec<JobRecord>,
    /// FIFO of queued job ids per tenant.
    tenants: BTreeMap<String, VecDeque<JobId>>,
    /// Latest submitted weight per tenant.
    weights: BTreeMap<String, u64>,
    /// Dedicated RNG stream for tenant draws.
    rng: StdRng,
    /// Monotone pick counter (the backoff clock).
    picks: u64,
}

impl JobQueue {
    /// An empty queue whose tenant draws come from substream 0xFA1 of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> JobQueue {
        JobQueue {
            jobs: Vec::new(),
            tenants: BTreeMap::new(),
            weights: BTreeMap::new(),
            rng: nc_core::rng::substream(seed, 0xFA1),
            picks: 0,
        }
    }

    /// Submits a job; returns its id.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = self.jobs.len() as JobId;
        self.weights.insert(spec.tenant.clone(), spec.weight.max(1));
        self.tenants
            .entry(spec.tenant.clone())
            .or_default()
            .push_back(id);
        self.jobs.push(JobRecord {
            id,
            spec,
            state: JobState::Queued,
            attempts: 0,
            crashes: 0,
            slices: 0,
            steps: 0,
            snapshot: None,
            cancel_requested: false,
            not_before_pick: 0,
            enqueued_pick: self.picks,
            report: None,
            seconds: 0.0,
            error: None,
        });
        id
    }

    /// The record of a job, if it exists.
    #[must_use]
    pub fn get(&self, id: JobId) -> Option<&JobRecord> {
        self.jobs.get(usize::try_from(id).ok()?)
    }

    /// Requests cancellation. Queued jobs cancel immediately; running jobs cancel at
    /// their next slice boundary. Returns the resulting state, or `None` for an
    /// unknown id.
    pub fn cancel(&mut self, id: JobId) -> Option<JobState> {
        let record = self.jobs.get_mut(usize::try_from(id).ok()?)?;
        match record.state {
            JobState::Queued => {
                record.state = JobState::Cancelled;
                record.cancel_requested = true;
                record.snapshot = None;
                let tenant = record.spec.tenant.clone();
                if let Some(queue) = self.tenants.get_mut(&tenant) {
                    queue.retain(|&queued| queued != id);
                }
            }
            JobState::Running => record.cancel_requested = true,
            JobState::Done | JobState::Failed | JobState::Cancelled => {}
        }
        Some(record.state)
    }

    /// Claims the next eligible job for a worker, drawing the tenant by weight (see
    /// the module docs) and skipping jobs still in backoff. Returns `None` when no
    /// job is eligible right now.
    pub fn claim_next(&mut self) -> Option<Claim> {
        self.picks += 1;
        let pick = self.picks;
        // Tenants with at least one eligible job, in deterministic (BTreeMap) order.
        let eligible: Vec<(String, u64)> = self
            .tenants
            .iter()
            .filter(|(_, queue)| {
                queue.iter().any(|&id| {
                    let record = &self.jobs[id as usize];
                    record.state == JobState::Queued && record.not_before_pick <= pick
                })
            })
            .map(|(tenant, _)| {
                let weight = self.weights.get(tenant).copied().unwrap_or(1);
                (tenant.clone(), weight)
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        // Weighted draw: one uniform sample walked through the cumulative weights —
        // the jump sampler's cell walk with weights in place of per-cell effective
        // counts.
        let total: u64 = eligible.iter().map(|(_, w)| w).sum();
        let mut ticket = self.rng.gen_range(0..total);
        let tenant = eligible
            .iter()
            .find(|(_, weight)| {
                if ticket < *weight {
                    true
                } else {
                    ticket -= weight;
                    false
                }
            })
            .map(|(tenant, _)| tenant.clone())
            .expect("cumulative walk lands inside the total");
        let queue = self.tenants.get_mut(&tenant).expect("eligible tenant");
        let position = queue.iter().position(|&id| {
            let record = &self.jobs[id as usize];
            record.state == JobState::Queued && record.not_before_pick <= pick
        })?;
        let id = queue.remove(position).expect("position is in range");
        let record = &mut self.jobs[id as usize];
        record.state = JobState::Running;
        record.attempts += 1;
        Some(Claim {
            id,
            spec: record.spec.clone(),
            snapshot: record.snapshot.clone(),
            slices: record.slices,
            crashes: record.crashes,
            steps: record.steps,
            queued_age_picks: pick.saturating_sub(record.enqueued_pick),
        })
    }

    /// Applies a worker's slice result. `seconds` is the slice's wall clock (stats
    /// only). Returns the job's new state.
    pub fn complete_slice(&mut self, id: JobId, result: SliceResult, seconds: f64) -> JobState {
        let pick = self.picks;
        let record = &mut self.jobs[id as usize];
        record.seconds += seconds;
        match result {
            _ if record.cancel_requested => {
                // Cancellation wins over whatever the slice produced: the tenant
                // asked for the job to stop, and the slice boundary is the
                // serialization point where that takes effect.
                record.state = JobState::Cancelled;
            }
            SliceResult::Parked { snapshot, steps } => {
                record.slices += 1;
                record.steps = steps;
                record.snapshot = Some(snapshot);
                record.state = JobState::Queued;
                record.enqueued_pick = pick;
                self.tenants
                    .entry(record.spec.tenant.clone())
                    .or_default()
                    .push_back(id);
            }
            SliceResult::Done { report, steps } => {
                record.slices += 1;
                record.steps = steps;
                record.report = Some(report);
                record.state = JobState::Done;
            }
            SliceResult::Failed { error } => {
                record.error = Some(error);
                record.state = JobState::Failed;
            }
            SliceResult::Crashed { message } => {
                record.crashes += 1;
                // `attempts` counts every claim (successful slices included), so the
                // retry cap compares crashes: a long job that crashes once late must
                // not be failed for having run many slices.
                if record.crashes >= MAX_ATTEMPTS {
                    record.error = Some(format!(
                        "crashed {} times (last: {message}); retries exhausted",
                        record.crashes
                    ));
                    record.state = JobState::Failed;
                } else {
                    // Exponential backoff in queue picks: 2, 4, 8, … capped.
                    record.not_before_pick = pick + backoff_for(record.crashes);
                    record.error =
                        Some(format!("crashed (attempt {}): {message}", record.attempts));
                    record.state = JobState::Queued;
                    record.enqueued_pick = pick;
                    self.tenants
                        .entry(record.spec.tenant.clone())
                        .or_default()
                        .push_back(id);
                }
            }
        }
        if matches!(
            record.state,
            JobState::Done | JobState::Failed | JobState::Cancelled
        ) {
            // Terminal jobs are never claimed again, so their last checkpoint is dead
            // weight (tens of KB per job in a long-lived service).
            record.snapshot = None;
        }
        record.state
    }

    /// The monotone pick counter (the backoff/age clock, exposed for metrics).
    #[must_use]
    pub fn picks(&self) -> u64 {
        self.picks
    }

    /// Queued-job count per tenant, every tenant ever seen included — a drained
    /// tenant reports 0 rather than vanishing, so gauge series stay continuous.
    #[must_use]
    pub fn queued_depths(&self) -> Vec<(String, u64)> {
        self.tenants
            .iter()
            .map(|(tenant, queue)| {
                let depth = queue
                    .iter()
                    .filter(|&&id| self.jobs[id as usize].state == JobState::Queued)
                    .count() as u64;
                (tenant.clone(), depth)
            })
            .collect()
    }

    /// Whether any job is still queued or running.
    #[must_use]
    pub fn has_live_jobs(&self) -> bool {
        self.jobs
            .iter()
            .any(|r| matches!(r.state, JobState::Queued | JobState::Running))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, ProtocolKind};

    fn spec(tenant: &str, weight: u64) -> JobSpec {
        let mut spec = JobSpec::new(ProtocolKind::Line, 8);
        spec.tenant = tenant.to_string();
        spec.weight = weight;
        spec
    }

    #[test]
    fn fifo_within_a_tenant() {
        let mut queue = JobQueue::new(1);
        let a = queue.submit(spec("t", 1));
        let b = queue.submit(spec("t", 1));
        assert_eq!(queue.claim_next().expect("claim").id, a);
        assert_eq!(queue.claim_next().expect("claim").id, b);
        assert!(queue.claim_next().is_none());
    }

    #[test]
    fn weighted_share_converges_to_weights() {
        let mut queue = JobQueue::new(42);
        // Tenant "heavy" has weight 3, "light" weight 1: over many claims the pick
        // share must converge to 3:1 regardless of how many jobs each queues.
        let mut heavy = 0;
        let mut light = 0;
        for _ in 0..400 {
            let h = queue.submit(spec("heavy", 3));
            let l = queue.submit(spec("light", 1));
            let first = queue.claim_next().expect("two queued jobs");
            if first.spec.tenant == "heavy" {
                heavy += 1;
            } else {
                light += 1;
            }
            // Drain the round so each iteration offers exactly one heavy and one
            // light job to the draw.
            let _ = queue.claim_next().expect("second job");
            for id in [h, l] {
                queue.complete_slice(
                    id,
                    SliceResult::Failed {
                        error: "test drain".to_string(),
                    },
                    0.0,
                );
            }
        }
        let share = f64::from(heavy) / f64::from(heavy + light);
        assert!(
            (share - 0.75).abs() < 0.08,
            "heavy tenant share {share} must approach its 3/4 weight share"
        );
    }

    #[test]
    fn cancel_queued_and_running() {
        let mut queue = JobQueue::new(1);
        let a = queue.submit(spec("t", 1));
        let b = queue.submit(spec("t", 1));
        // Queued → cancelled immediately, and never claimed.
        assert_eq!(queue.cancel(a), Some(JobState::Cancelled));
        let claim = queue.claim_next().expect("b is claimable");
        assert_eq!(claim.id, b);
        // Running → cancel takes effect at the slice boundary, whatever the result.
        assert_eq!(queue.cancel(b), Some(JobState::Running));
        let state = queue.complete_slice(
            b,
            SliceResult::Parked {
                snapshot: vec![1],
                steps: 10,
            },
            0.0,
        );
        assert_eq!(state, JobState::Cancelled);
        assert!(queue.claim_next().is_none());
        assert_eq!(queue.cancel(999), None);
    }

    #[test]
    fn crashes_requeue_with_backoff_then_fail() {
        let mut queue = JobQueue::new(1);
        let id = queue.submit(spec("t", 1));
        for attempt in 1..=MAX_ATTEMPTS {
            // Respect the backoff clock: claims before not_before_pick return None.
            let claim = loop {
                match queue.claim_next() {
                    Some(claim) => break claim,
                    None => continue,
                }
            };
            assert_eq!(claim.id, id);
            assert_eq!(claim.crashes, attempt - 1);
            let state = queue.complete_slice(
                id,
                SliceResult::Crashed {
                    message: "injected".to_string(),
                },
                0.0,
            );
            if attempt < MAX_ATTEMPTS {
                assert_eq!(state, JobState::Queued, "attempt {attempt} requeues");
            } else {
                assert_eq!(state, JobState::Failed, "retries exhaust at {MAX_ATTEMPTS}");
            }
        }
        let record = queue.get(id).expect("record");
        assert_eq!(record.crashes, MAX_ATTEMPTS);
        assert!(record
            .error
            .as_deref()
            .is_some_and(|e| e.contains("retries exhausted")));
    }

    #[test]
    fn backoff_defers_but_does_not_starve() {
        let mut queue = JobQueue::new(1);
        let id = queue.submit(spec("t", 1));
        let _ = queue.claim_next().expect("claim");
        queue.complete_slice(
            id,
            SliceResult::Crashed {
                message: "injected".to_string(),
            },
            0.0,
        );
        // Immediately after the crash the job is in backoff…
        assert!(queue.claim_next().is_none());
        // …but a bounded number of further picks makes it eligible again.
        let mut reclaimed = false;
        for _ in 0..MAX_BACKOFF_PICKS + 2 {
            if queue.claim_next().is_some() {
                reclaimed = true;
                break;
            }
        }
        assert!(reclaimed, "backoff must expire within the cap");
    }

    #[test]
    fn terminal_jobs_drop_their_checkpoint() {
        let report = JobReport {
            protocol: "global-line".to_string(),
            n: 8,
            seed: 1,
            mode: "sharded".to_string(),
            shards: 1,
            steps: 2,
            effective_steps: 2,
            skipped_steps: 0,
            completed: true,
        };
        let finishes = [
            (SliceResult::Done { report, steps: 2 }, JobState::Done),
            (
                SliceResult::Failed {
                    error: "budget".to_string(),
                },
                JobState::Failed,
            ),
            (
                SliceResult::Parked {
                    snapshot: vec![9; 64],
                    steps: 2,
                },
                JobState::Cancelled,
            ),
        ];
        let mut queue = JobQueue::new(1);
        for (finish, terminal) in finishes {
            // One parked slice first, so the record holds a checkpoint to drop.
            let id = queue.submit(spec("t", 1));
            let _ = queue.claim_next().expect("claim");
            let parked = SliceResult::Parked {
                snapshot: vec![7; 64],
                steps: 1,
            };
            queue.complete_slice(id, parked, 0.0);
            assert!(queue.get(id).expect("record").snapshot.is_some());
            let _ = queue.claim_next().expect("reclaim");
            if terminal == JobState::Cancelled {
                queue.cancel(id);
            }
            assert_eq!(queue.complete_slice(id, finish, 0.0), terminal);
            let record = queue.get(id).expect("record");
            assert_eq!(
                record.snapshot, None,
                "a {terminal:?} job kept its checkpoint"
            );
        }
    }

    #[test]
    fn parked_snapshot_rides_the_requeue() {
        let mut queue = JobQueue::new(1);
        let id = queue.submit(spec("t", 1));
        let first = queue.claim_next().expect("claim");
        assert_eq!(first.snapshot, None);
        queue.complete_slice(
            id,
            SliceResult::Parked {
                snapshot: vec![7, 7, 7],
                steps: 42,
            },
            0.0,
        );
        let second = queue.claim_next().expect("reclaim");
        assert_eq!(second.snapshot.as_deref(), Some(&[7u8, 7, 7][..]));
        assert_eq!(second.slices, 1);
        assert_eq!(queue.get(id).expect("record").steps, 42);
    }
}
