//! Measurement tasks (paper §4.2–§4.3, Table 1).
//!
//! A measurement task is "a small, self-contained HTML and JavaScript
//! snippet that attempts to load a Web resource from a measurement
//! target". Four mechanisms exist, each with its own observable feedback
//! and limitations:
//!
//! | Task       | Feedback                        | Limitations |
//! |------------|---------------------------------|-------------|
//! | Image      | `onload`/`onerror`              | only small images |
//! | Stylesheet | computed-style check            | only non-empty sheets |
//! | Iframe     | cache-timing probe              | cacheable-image pages, ≤100 KB, no side effects |
//! | Script     | Chrome `onload` iff HTTP 200    | Chrome only, nosniff targets only |
//!
//! [`execute_task`] runs a task on a [`BrowserClient`] exactly as the
//! JavaScript of Appendix A would, returning only what the page could
//! observe.

use crate::collection::SubmissionPhase;
use browser::{BrowserClient, LoadEvent};
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};
use std::fmt;

/// Unique identifier "linking all submissions of a measurement"
/// (Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MeasurementId(pub u64);

impl fmt::Display for MeasurementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Rendered like the UUID-ish IDs the JS generates.
        write!(f, "m-{:016x}", self.0)
    }
}

/// The four task mechanisms of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TaskType {
    /// Render an image; `onload` on success.
    Image,
    /// Load a style sheet and test its effects.
    Stylesheet,
    /// Load a page in an iframe, then time a cache probe.
    Iframe,
    /// Load a resource as a script (Chrome only).
    Script,
}

impl TaskType {
    /// All task types, fixed order.
    pub const ALL: [TaskType; 4] = [
        TaskType::Image,
        TaskType::Stylesheet,
        TaskType::Iframe,
        TaskType::Script,
    ];

    /// The wire name (what `Display` renders, without the formatter).
    pub fn as_str(self) -> &'static str {
        match self {
            TaskType::Image => "image",
            TaskType::Stylesheet => "stylesheet",
            TaskType::Iframe => "iframe",
            TaskType::Script => "script",
        }
    }

    /// The inverse of [`as_str`](Self::as_str): the task type a
    /// `cmh-type` token names.
    pub(crate) fn from_wire(token: &str) -> Option<TaskType> {
        TaskType::ALL.into_iter().find(|t| t.as_str() == token)
    }
}

/// The Appendix A `cmh-result` tokens a client sends, with the phase
/// and outcome each reports: the one spelling of that field, for the
/// encoder and both parsers. A result without an outcome is sent as
/// `unknown`, which no parser accepts.
const RESULT_TOKENS: [(&str, SubmissionPhase, Option<TaskOutcome>); 3] = [
    ("init", SubmissionPhase::Init, None),
    (
        "success",
        SubmissionPhase::Result,
        Some(TaskOutcome::Success),
    ),
    (
        "failure",
        SubmissionPhase::Result,
        Some(TaskOutcome::Failure),
    ),
];

/// The `cmh-result` token of a submission (`init` for an init beacon,
/// whatever its outcome).
pub(crate) fn result_token(phase: SubmissionPhase, outcome: Option<TaskOutcome>) -> &'static str {
    let init = phase == SubmissionPhase::Init;
    let sent = RESULT_TOKENS
        .iter()
        .find(|t| t.1 == phase && (init || t.2 == outcome));
    sent.map_or("unknown", |t| t.0)
}

/// The phase and outcome a `cmh-result` token reports.
pub(crate) fn parse_result_token(token: &str) -> Option<(SubmissionPhase, Option<TaskOutcome>)> {
    let sent = RESULT_TOKENS.iter().find(|t| t.0 == token);
    sent.map(|&(_, phase, outcome)| (phase, outcome))
}

impl fmt::Display for TaskType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Default cache-probe threshold for the iframe task: Figure 7 shows
/// cached loads complete tens of milliseconds faster than uncached, with
/// a ≥50 ms gap for most clients.
pub const IFRAME_CACHE_THRESHOLD: SimDuration = SimDuration::from_millis(50);

/// What a task loads and how.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskSpec {
    /// Embed `url` as a hidden image.
    Image {
        /// Image URL on the measurement target.
        url: String,
    },
    /// Load `url` as a style sheet inside a sandbox iframe.
    Stylesheet {
        /// Stylesheet URL on the measurement target.
        url: String,
    },
    /// Load `page_url` in a hidden iframe, then probe whether
    /// `probe_image_url` (embedded by that page) became cached.
    Iframe {
        /// The page to load.
        page_url: String,
        /// A cacheable image that page embeds.
        probe_image_url: String,
        /// Cache-timing decision threshold.
        threshold: SimDuration,
    },
    /// Load `url` via a `<script>` tag (Chrome only; target must serve
    /// nosniff).
    Script {
        /// Resource URL on the measurement target.
        url: String,
    },
}

impl TaskSpec {
    /// The mechanism this spec uses.
    pub fn task_type(&self) -> TaskType {
        match self {
            TaskSpec::Image { .. } => TaskType::Image,
            TaskSpec::Stylesheet { .. } => TaskType::Stylesheet,
            TaskSpec::Iframe { .. } => TaskType::Iframe,
            TaskSpec::Script { .. } => TaskType::Script,
        }
    }

    /// The URL whose reachability this task measures.
    pub fn target_url(&self) -> &str {
        match self {
            TaskSpec::Image { url } | TaskSpec::Stylesheet { url } | TaskSpec::Script { url } => {
                url
            }
            TaskSpec::Iframe { page_url, .. } => page_url,
        }
    }

    /// The measurement target's DNS domain.
    pub fn target_domain(&self) -> Option<String> {
        netsim::http::host_of(self.target_url())
    }

    /// Whether this task may run on `engine` (paper §5.3: "we should only
    /// schedule the script task type … on clients running Chrome").
    pub fn compatible_with(&self, engine: browser::Engine) -> bool {
        match self {
            TaskSpec::Script { .. } => engine.script_onload_on_http_200(),
            _ => true,
        }
    }
}

/// A schedulable measurement task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurementTask {
    /// Unique measurement ID.
    pub id: MeasurementId,
    /// What to load.
    pub spec: TaskSpec,
}

/// The binary outcome a task reports (§4.3: "such observations are
/// binary").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TaskOutcome {
    /// The cross-origin resource loaded.
    Success,
    /// It did not.
    Failure,
}

/// Everything the in-page JavaScript observes from running one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskExecution {
    /// Binary outcome.
    pub outcome: TaskOutcome,
    /// Time from task start to the deciding event ("related timing
    /// information", §5.5).
    pub elapsed: SimDuration,
    /// Whether executing the task put the client at security risk
    /// (should be impossible when the Task Generator and scheduler do
    /// their jobs; asserted on in the soundness tests).
    pub executed_untrusted_code: bool,
    /// Whether a failure carried a near-source congestion signal — the
    /// load was shed at an overloaded transit link, not censored. The
    /// client reports this alongside the outcome so the collection side
    /// can discount congestion-shaped failures.
    pub congested: bool,
}

/// Run `task` on `client` at time `now`, exactly as the delivered
/// JavaScript would.
pub fn execute_task(
    task: &MeasurementTask,
    client: &mut BrowserClient,
    net: &mut Network,
    now: SimTime,
) -> TaskExecution {
    execute_spec(&task.spec, client, net, now)
}

/// [`execute_task`] on a borrowed template: what a task observes does
/// not depend on its measurement ID.
pub(crate) fn execute_spec(
    spec: &TaskSpec,
    client: &mut BrowserClient,
    net: &mut Network,
    now: SimTime,
) -> TaskExecution {
    match spec {
        TaskSpec::Image { url } => {
            let load = client.load_image(net, url, now);
            TaskExecution {
                outcome: if load.event == LoadEvent::OnLoad {
                    TaskOutcome::Success
                } else {
                    TaskOutcome::Failure
                },
                elapsed: load.elapsed,
                executed_untrusted_code: false,
                congested: load.congestion_signaled,
            }
        }
        TaskSpec::Stylesheet { url } => {
            let load = client.load_stylesheet(net, url, now);
            TaskExecution {
                outcome: if load.event == LoadEvent::OnLoad {
                    TaskOutcome::Success
                } else {
                    TaskOutcome::Failure
                },
                elapsed: load.elapsed,
                executed_untrusted_code: false,
                congested: load.congestion_signaled,
            }
        }
        TaskSpec::Script { url } => {
            let load = client.load_script(net, url, now);
            TaskExecution {
                outcome: if load.event == LoadEvent::OnLoad {
                    TaskOutcome::Success
                } else {
                    TaskOutcome::Failure
                },
                elapsed: load.elapsed,
                executed_untrusted_code: load.executed_untrusted,
                congested: load.congestion_signaled,
            }
        }
        TaskSpec::Iframe {
            page_url,
            probe_image_url,
            threshold,
        } => {
            // §4.3.2: load the page in an iframe, wait for its onload,
            // then time a fetch of an image that page embeds. Fast ⇒ the
            // image was cached by the iframe load ⇒ the page loaded.
            let frame = client.load_iframe(net, page_url, now);
            let probe = client.load_image(net, probe_image_url, now + frame.elapsed);
            let cached_fast = probe.event == LoadEvent::OnLoad && probe.elapsed <= *threshold;
            TaskExecution {
                outcome: if cached_fast {
                    TaskOutcome::Success
                } else {
                    TaskOutcome::Failure
                },
                elapsed: frame.elapsed + probe.elapsed,
                executed_untrusted_code: false,
                congested: frame.congestion_signaled || probe.congestion_signaled,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser::Engine;
    use censor::testbed::{FilterVariety, Testbed};
    use netsim::geo::{country, IspClass, World};
    use sim_core::SimRng;

    fn setup(engine: Engine) -> (Network, Testbed, BrowserClient) {
        let mut n = Network::ideal(World::builtin());
        let tb = Testbed::install(&mut n);
        let root = SimRng::new(0xEC0);
        let c = BrowserClient::new(&mut n, country("DE"), IspClass::Residential, engine, &root);
        (n, tb, c)
    }

    fn task(spec: TaskSpec) -> MeasurementTask {
        MeasurementTask {
            id: MeasurementId(1),
            spec,
        }
    }

    #[test]
    fn image_task_succeeds_on_control() {
        let (mut n, tb, mut c) = setup(Engine::Firefox);
        let t = task(TaskSpec::Image {
            url: tb.favicon_url(FilterVariety::Control),
        });
        let r = execute_task(&t, &mut c, &mut n, SimTime::ZERO);
        assert_eq!(r.outcome, TaskOutcome::Success);
        assert!(!r.executed_untrusted_code);
    }

    #[test]
    fn image_task_detects_every_filtering_variety() {
        for v in FilterVariety::filtering() {
            let (mut n, tb, mut c) = setup(Engine::Firefox);
            let t = task(TaskSpec::Image {
                url: tb.favicon_url(v),
            });
            let r = execute_task(&t, &mut c, &mut n, SimTime::ZERO);
            assert_eq!(r.outcome, TaskOutcome::Failure, "variety {v:?}");
        }
    }

    #[test]
    fn stylesheet_task_succeeds_on_control_and_fails_on_blockpage() {
        let (mut n, tb, mut c) = setup(Engine::Safari);
        let ok = execute_task(
            &task(TaskSpec::Stylesheet {
                url: tb.style_url(FilterVariety::Control),
            }),
            &mut c,
            &mut n,
            SimTime::ZERO,
        );
        assert_eq!(ok.outcome, TaskOutcome::Success);
        let blocked = execute_task(
            &task(TaskSpec::Stylesheet {
                url: tb.style_url(FilterVariety::HttpBlockPage),
            }),
            &mut c,
            &mut n,
            SimTime::ZERO,
        );
        assert_eq!(blocked.outcome, TaskOutcome::Failure);
    }

    #[test]
    fn script_task_works_on_chrome_without_execution() {
        let (mut n, tb, mut c) = setup(Engine::Chrome);
        let ok = execute_task(
            &task(TaskSpec::Script {
                url: tb.script_url(FilterVariety::Control),
            }),
            &mut c,
            &mut n,
            SimTime::ZERO,
        );
        assert_eq!(ok.outcome, TaskOutcome::Success);
        let blocked = execute_task(
            &task(TaskSpec::Script {
                url: tb.script_url(FilterVariety::TcpReset),
            }),
            &mut c,
            &mut n,
            SimTime::ZERO,
        );
        assert_eq!(blocked.outcome, TaskOutcome::Failure);
    }

    #[test]
    fn script_task_incompatible_with_non_chrome() {
        let spec = TaskSpec::Script {
            url: "http://x.com/a.js".into(),
        };
        assert!(spec.compatible_with(Engine::Chrome));
        assert!(!spec.compatible_with(Engine::Firefox));
        assert!(!spec.compatible_with(Engine::Safari));
        // Other task types run anywhere.
        let img = TaskSpec::Image {
            url: "http://x.com/a.png".into(),
        };
        assert!(img.compatible_with(Engine::InternetExplorer));
    }

    #[test]
    fn iframe_task_succeeds_on_control() {
        let (mut n, tb, mut c) = setup(Engine::Chrome);
        let t = task(TaskSpec::Iframe {
            page_url: tb.page_url(FilterVariety::Control),
            probe_image_url: format!("http://{}/embedded.png", FilterVariety::Control.hostname()),
            threshold: IFRAME_CACHE_THRESHOLD,
        });
        let r = execute_task(&t, &mut c, &mut n, SimTime::ZERO);
        assert_eq!(r.outcome, TaskOutcome::Success);
    }

    #[test]
    fn iframe_task_fails_when_page_blocked() {
        for v in [
            FilterVariety::DnsNxDomain,
            FilterVariety::TcpReset,
            FilterVariety::HttpDrop,
        ] {
            let (mut n, tb, mut c) = setup(Engine::Chrome);
            let t = task(TaskSpec::Iframe {
                page_url: tb.page_url(v),
                probe_image_url: format!("http://{}/embedded.png", v.hostname()),
                threshold: IFRAME_CACHE_THRESHOLD,
            });
            let r = execute_task(&t, &mut c, &mut n, SimTime::ZERO);
            assert_eq!(r.outcome, TaskOutcome::Failure, "variety {v:?}");
        }
    }

    #[test]
    fn spec_accessors() {
        let spec = TaskSpec::Iframe {
            page_url: "http://a.com/p".into(),
            probe_image_url: "http://a.com/i.png".into(),
            threshold: IFRAME_CACHE_THRESHOLD,
        };
        assert_eq!(spec.task_type(), TaskType::Iframe);
        assert_eq!(spec.target_url(), "http://a.com/p");
        assert_eq!(spec.target_domain().as_deref(), Some("a.com"));
    }

    #[test]
    fn measurement_id_display() {
        assert_eq!(MeasurementId(255).to_string(), "m-00000000000000ff");
    }

    #[test]
    fn task_types_have_stable_names() {
        let names: Vec<_> = TaskType::ALL.iter().map(|t| t.to_string()).collect();
        assert_eq!(names, vec!["image", "stylesheet", "iframe", "script"]);
    }
}
