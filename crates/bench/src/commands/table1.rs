//! Table 1 — "Measurement tasks use several mechanisms to discover
//! whether Web resources are filtered."
//!
//! Regenerates the table as a capability matrix: each task mechanism run
//! against the unfiltered control and all seven §7.1 filtering varieties,
//! on Chrome and Firefox. A mechanism "detects" a variety when it
//! reports success on the control and failure under the variety. The
//! table also verifies each mechanism's listed limitation:
//!
//! * images: explicit onload/onerror feedback;
//! * style sheets: only non-empty sheets;
//! * inline frames: cache-timing inference, cacheable-image pages only;
//! * scripts: Chrome only (onload iff HTTP 200).

use bench::fixtures::RunArgs;
use bench::print_table;
use browser::{BrowserClient, Engine};
use censor::testbed::{FilterVariety, Testbed};
use encore::tasks::{
    execute_task, MeasurementId, MeasurementTask, TaskOutcome, TaskSpec, TaskType,
    IFRAME_CACHE_THRESHOLD,
};
use netsim::geo::{country, IspClass, World};
use netsim::network::Network;
use serde::Serialize;
use sim_core::{SimRng, SimTime};
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Table1 {
    /// (task type, engine, variety) → outcome string.
    matrix: Vec<(String, String, String, String)>,
    /// Mechanisms correctly detecting all seven varieties on their
    /// supported engine.
    fully_detecting: Vec<String>,
}

fn spec_for(task_type: TaskType, tb: &Testbed, v: FilterVariety) -> TaskSpec {
    match task_type {
        TaskType::Image => TaskSpec::Image {
            url: tb.favicon_url(v),
        },
        TaskType::Stylesheet => TaskSpec::Stylesheet {
            url: tb.style_url(v),
        },
        TaskType::Script => TaskSpec::Script {
            url: tb.script_url(v),
        },
        TaskType::Iframe => TaskSpec::Iframe {
            page_url: tb.page_url(v),
            probe_image_url: format!("http://{}/embedded.png", v.hostname()),
            threshold: IFRAME_CACHE_THRESHOLD,
        },
    }
}

pub fn run(args: &RunArgs) {
    let mut matrix = Vec::new();
    let mut detects: BTreeMap<(TaskType, Engine), (bool, usize)> = BTreeMap::new();

    for engine in [Engine::Chrome, Engine::Firefox] {
        for task_type in TaskType::ALL {
            let mut control_ok = false;
            let mut detected = 0usize;
            for variety in FilterVariety::ALL {
                // Fresh network per cell: no cache contamination.
                let mut net = Network::ideal(World::builtin());
                let tb = Testbed::install(&mut net);
                let root = SimRng::new(0x7AB1E);
                let mut client = BrowserClient::new(
                    &mut net,
                    country("DE"),
                    IspClass::Residential,
                    engine,
                    &root,
                );
                let spec = spec_for(task_type, &tb, variety);
                if !spec.compatible_with(engine) {
                    matrix.push((
                        task_type.to_string(),
                        engine.to_string(),
                        variety.slug().to_string(),
                        "not-scheduled".to_string(),
                    ));
                    continue;
                }
                let task = MeasurementTask {
                    id: MeasurementId(0),
                    spec,
                };
                let exec = execute_task(&task, &mut client, &mut net, SimTime::ZERO);
                assert!(
                    !exec.executed_untrusted_code,
                    "{task_type}/{engine}: executed untrusted code"
                );
                let outcome = match exec.outcome {
                    TaskOutcome::Success => "success",
                    TaskOutcome::Failure => "failure",
                };
                if variety == FilterVariety::Control {
                    control_ok = exec.outcome == TaskOutcome::Success;
                } else if exec.outcome == TaskOutcome::Failure {
                    detected += 1;
                }
                matrix.push((
                    task_type.to_string(),
                    engine.to_string(),
                    variety.slug().to_string(),
                    outcome.to_string(),
                ));
            }
            detects.insert((task_type, engine), (control_ok, detected));
        }
    }

    println!("=== Table 1: measurement mechanisms vs filtering varieties ===");
    println!("(success on control + failure under a variety = detection)\n");
    let mut rows = Vec::new();
    for engine in [Engine::Chrome, Engine::Firefox] {
        for task_type in TaskType::ALL {
            let mut row = vec![task_type.to_string(), engine.to_string()];
            for variety in FilterVariety::ALL {
                let cell = matrix
                    .iter()
                    .find(|(t, e, v, _)| {
                        *t == task_type.to_string()
                            && *e == engine.to_string()
                            && *v == variety.slug()
                    })
                    .map(|(_, _, _, o)| o.clone())
                    .unwrap_or_default();
                row.push(match cell.as_str() {
                    "success" => "ok".into(),
                    "failure" => "FILT".into(),
                    "not-scheduled" => "n/a".into(),
                    other => other.into(),
                });
            }
            rows.push(row);
        }
    }
    let mut headers: Vec<&str> = vec!["task", "engine"];
    let slugs: Vec<String> = FilterVariety::ALL
        .iter()
        .map(|v| v.slug().to_string())
        .collect();
    headers.extend(slugs.iter().map(|s| s.as_str()));
    print_table(&headers, &rows);

    println!();
    let mut fully = Vec::new();
    let mut summary_rows = Vec::new();
    for ((task_type, engine), (control_ok, detected)) in &detects {
        let verdict = if *control_ok && *detected == 7 {
            fully.push(format!("{task_type}/{engine}"));
            "detects all 7 varieties"
        } else if !control_ok {
            "control failed (unusable)"
        } else {
            "partial"
        };
        summary_rows.push(vec![
            task_type.to_string(),
            engine.to_string(),
            control_ok.to_string(),
            format!("{detected}/7"),
            verdict.to_string(),
        ]);
    }
    print_table(
        &[
            "task",
            "engine",
            "control ok",
            "varieties detected",
            "verdict",
        ],
        &summary_rows,
    );

    println!("\npaper shape: image/stylesheet detect everywhere; script is");
    println!("Chrome-only (not scheduled elsewhere); iframe detects via cache timing.");

    args.write_results(
        "table1",
        &Table1 {
            matrix,
            fully_detecting: fully,
        },
    );
}
