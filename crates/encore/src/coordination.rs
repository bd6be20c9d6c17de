//! The coordination server: task scheduling (paper §5.3).
//!
//! "After generating measurement tasks, the coordination server must
//! decide which task to schedule on each client. Task scheduling serves
//! two purposes. First, it enables clients to run measurements that meet
//! their restrictions … Second, intelligent task scheduling enables
//! Encore to … draw conclusions by comparing measurements between
//! clients, countries, and ISPs."
//!
//! Three strategies are provided:
//!
//! * [`SchedulingStrategy::Random`] — uniform over compatible tasks.
//! * [`SchedulingStrategy::RoundRobin`] — cycles the pool for even
//!   coverage.
//! * [`SchedulingStrategy::CoordinatedBursts`] — the §5.3 example: "if
//!   100 clients measure the same URL within 60 seconds of each other",
//!   regional failures stand out sharply; all clients in one time window
//!   receive the same task.

use crate::tasks::{MeasurementId, MeasurementTask, TaskSpec};
use browser::Engine;
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimRng, SimTime};

/// What the coordination server knows about a requesting client (from
/// its User-Agent and connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientProfile {
    /// Browser engine (drives the Chrome-only script-task constraint).
    pub engine: Engine,
}

/// Task-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulingStrategy {
    /// Uniform random over compatible tasks.
    Random,
    /// Cycle through the pool.
    RoundRobin,
    /// Everyone measures the same target within each window.
    CoordinatedBursts {
        /// Window length (paper example: 60 seconds).
        window: SimDuration,
    },
}

/// The coordination server.
pub struct CoordinationServer {
    /// Task templates (each assignment stamps a fresh measurement ID).
    pool: Vec<TaskSpec>,
    strategy: SchedulingStrategy,
    next_assignment_id: u64,
    rr_cursor: usize,
    /// Per-template assignment counts (same order as the pool).
    assignments: Vec<u64>,
    /// Reused scratch for the per-pick compatible-index list, so
    /// steady-state task assignment performs no heap allocation.
    compat_scratch: Vec<usize>,
}

impl CoordinationServer {
    /// Server over a pool of generated tasks.
    pub fn new(tasks: Vec<MeasurementTask>, strategy: SchedulingStrategy) -> CoordinationServer {
        let pool: Vec<TaskSpec> = tasks.into_iter().map(|t| t.spec).collect();
        let assignments = vec![0; pool.len()];
        CoordinationServer {
            pool,
            strategy,
            next_assignment_id: 1,
            rr_cursor: 0,
            assignments,
            compat_scratch: Vec::new(),
        }
    }

    /// Pick the next task for a client, or `None` when nothing in the
    /// pool is compatible. Each call mints a fresh measurement ID — the
    /// server "generates a measurement task specific to the client
    /// on-the-fly" (§5.4).
    ///
    /// The returned task owns a clone of its pool template: this is the
    /// convenience for callers outside the visit flow. A visit borrows
    /// the template instead of copying it.
    pub fn next_task(
        &mut self,
        profile: ClientProfile,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<MeasurementTask> {
        self.assign(profile, now, rng)
            .map(|(id, spec)| MeasurementTask {
                id,
                spec: spec.clone(),
            })
    }

    /// [`next_task`](Self::next_task) without the copy: the fresh
    /// measurement ID and a loan of the chosen pool template.
    pub(crate) fn assign(
        &mut self,
        profile: ClientProfile,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<(MeasurementId, &TaskSpec)> {
        if self.pool.is_empty() {
            return None;
        }
        let mut compatible = std::mem::take(&mut self.compat_scratch);
        compatible.clear();
        compatible
            .extend((0..self.pool.len()).filter(|&i| self.pool[i].compatible_with(profile.engine)));
        if compatible.is_empty() {
            self.compat_scratch = compatible;
            return None;
        }
        let chosen = match self.strategy {
            SchedulingStrategy::Random => compatible[rng.index(compatible.len())],
            SchedulingStrategy::RoundRobin => {
                // Advance the cursor to the next compatible entry.
                let mut pick = None;
                for step in 0..self.pool.len() {
                    let idx = (self.rr_cursor + step) % self.pool.len();
                    if compatible.contains(&idx) {
                        pick = Some(idx);
                        self.rr_cursor = idx + 1;
                        break;
                    }
                }
                pick.expect("compatible is non-empty")
            }
            SchedulingStrategy::CoordinatedBursts { window } => {
                // Deterministic function of the window index: everyone in
                // the same window measures the same (compatible) target.
                let w = if window.as_micros() == 0 {
                    0
                } else {
                    now.as_micros() / window.as_micros()
                };
                compatible[(w % compatible.len() as u64) as usize]
            }
        };
        self.compat_scratch = compatible;
        self.assignments[chosen] += 1;
        let id = MeasurementId(self.next_assignment_id);
        self.next_assignment_id += 1;
        Some((id, &self.pool[chosen]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::IFRAME_CACHE_THRESHOLD;

    fn pool() -> Vec<MeasurementTask> {
        let mk = |i: u64, spec: TaskSpec| MeasurementTask {
            id: MeasurementId(i),
            spec,
        };
        vec![
            mk(
                0,
                TaskSpec::Image {
                    url: "http://a.com/favicon.ico".into(),
                },
            ),
            mk(
                1,
                TaskSpec::Script {
                    url: "http://b.com/lib.js".into(),
                },
            ),
            mk(
                2,
                TaskSpec::Iframe {
                    page_url: "http://c.com/p".into(),
                    probe_image_url: "http://c.com/i.png".into(),
                    threshold: IFRAME_CACHE_THRESHOLD,
                },
            ),
        ]
    }

    fn chrome() -> ClientProfile {
        ClientProfile {
            engine: Engine::Chrome,
        }
    }

    fn firefox() -> ClientProfile {
        ClientProfile {
            engine: Engine::Firefox,
        }
    }

    #[test]
    fn fresh_ids_per_assignment() {
        let mut s = CoordinationServer::new(pool(), SchedulingStrategy::RoundRobin);
        let mut rng = SimRng::new(1);
        let a = s.next_task(chrome(), SimTime::ZERO, &mut rng).unwrap();
        let b = s.next_task(chrome(), SimTime::ZERO, &mut rng).unwrap();
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn script_tasks_never_go_to_non_chrome() {
        let mut s = CoordinationServer::new(pool(), SchedulingStrategy::Random);
        let mut rng = SimRng::new(2);
        for _ in 0..200 {
            let t = s.next_task(firefox(), SimTime::ZERO, &mut rng).unwrap();
            assert!(t.spec.compatible_with(Engine::Firefox));
        }
    }

    #[test]
    fn round_robin_cycles_evenly_for_chrome() {
        let mut s = CoordinationServer::new(pool(), SchedulingStrategy::RoundRobin);
        let mut rng = SimRng::new(3);
        for _ in 0..30 {
            s.next_task(chrome(), SimTime::ZERO, &mut rng);
        }
        assert_eq!(s.assignments, &[10, 10, 10]);
    }

    #[test]
    fn round_robin_skips_incompatible() {
        let mut s = CoordinationServer::new(pool(), SchedulingStrategy::RoundRobin);
        let mut rng = SimRng::new(3);
        for _ in 0..20 {
            s.next_task(firefox(), SimTime::ZERO, &mut rng);
        }
        // Script slot (index 1) untouched; the other two split evenly.
        assert_eq!(s.assignments[1], 0);
        assert_eq!(s.assignments[0], 10);
        assert_eq!(s.assignments[2], 10);
    }

    #[test]
    fn coordinated_bursts_same_task_within_window() {
        let mut s = CoordinationServer::new(
            pool(),
            SchedulingStrategy::CoordinatedBursts {
                window: SimDuration::from_secs(60),
            },
        );
        let mut rng = SimRng::new(4);
        let t0 = SimTime::from_secs(10);
        let urls: std::collections::BTreeSet<String> = (0..50)
            .map(|i| {
                s.next_task(chrome(), t0 + SimDuration::from_millis(i), &mut rng)
                    .unwrap()
                    .spec
                    .target_url()
                    .to_string()
            })
            .collect();
        assert_eq!(urls.len(), 1, "one target per window");
        // A later window picks a different target eventually.
        let later = s
            .next_task(chrome(), SimTime::from_secs(70), &mut rng)
            .unwrap();
        let first = urls.into_iter().next().unwrap();
        assert_ne!(later.spec.target_url(), first);
    }

    #[test]
    fn empty_pool_returns_none() {
        let mut s = CoordinationServer::new(vec![], SchedulingStrategy::Random);
        let mut rng = SimRng::new(5);
        assert!(s.next_task(chrome(), SimTime::ZERO, &mut rng).is_none());
    }

    #[test]
    fn all_incompatible_returns_none() {
        let only_script = vec![MeasurementTask {
            id: MeasurementId(0),
            spec: TaskSpec::Script {
                url: "http://b.com/x.js".into(),
            },
        }];
        let mut s = CoordinationServer::new(only_script, SchedulingStrategy::Random);
        let mut rng = SimRng::new(6);
        assert!(s.next_task(firefox(), SimTime::ZERO, &mut rng).is_none());
        assert!(s.next_task(chrome(), SimTime::ZERO, &mut rng).is_some());
    }
}
