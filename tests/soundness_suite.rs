//! Soundness matrix: every (task type × engine × filtering variety) cell
//! behaves per Table 1, as assertions rather than a printed table.

use encore_repro::browser::{BrowserClient, Engine};
use encore_repro::censor::testbed::{FilterVariety, Testbed};
use encore_repro::encore::tasks::{
    execute_task, MeasurementId, MeasurementTask, TaskOutcome, TaskSpec, TaskType,
    IFRAME_CACHE_THRESHOLD,
};
use encore_repro::netsim::geo::{country, IspClass, World};
use encore_repro::netsim::network::Network;
use encore_repro::sim_core::{SimRng, SimTime};

fn run_cell(task_type: TaskType, engine: Engine, variety: FilterVariety) -> Option<TaskOutcome> {
    let mut net = Network::ideal(World::builtin());
    let tb = Testbed::install(&mut net);
    let root = SimRng::new(0x50F7);
    let mut client = BrowserClient::new(
        &mut net,
        country("NL"),
        IspClass::Residential,
        engine,
        &root,
    );
    let spec = match task_type {
        TaskType::Image => TaskSpec::Image {
            url: tb.favicon_url(variety),
        },
        TaskType::Stylesheet => TaskSpec::Stylesheet {
            url: tb.style_url(variety),
        },
        TaskType::Script => TaskSpec::Script {
            url: tb.script_url(variety),
        },
        TaskType::Iframe => TaskSpec::Iframe {
            page_url: tb.page_url(variety),
            probe_image_url: format!("http://{}/embedded.png", variety.hostname()),
            threshold: IFRAME_CACHE_THRESHOLD,
        },
    };
    if !spec.compatible_with(engine) {
        return None;
    }
    let exec = execute_task(
        &MeasurementTask {
            id: MeasurementId(0),
            spec,
        },
        &mut client,
        &mut net,
        SimTime::ZERO,
    );
    assert!(
        !exec.executed_untrusted_code,
        "{task_type}/{engine}/{variety:?} executed untrusted code"
    );
    Some(exec.outcome)
}

#[test]
fn all_tasks_succeed_on_control_on_all_engines() {
    for engine in Engine::ALL {
        for task_type in TaskType::ALL {
            if let Some(outcome) = run_cell(task_type, engine, FilterVariety::Control) {
                assert_eq!(
                    outcome,
                    TaskOutcome::Success,
                    "{task_type} on {engine} failed on the unfiltered control"
                );
            }
        }
    }
}

#[test]
fn image_and_stylesheet_detect_every_variety_on_every_engine() {
    for engine in Engine::ALL {
        for task_type in [TaskType::Image, TaskType::Stylesheet] {
            for variety in FilterVariety::ALL
                .into_iter()
                .filter(|v| v.expect_filtered())
            {
                let outcome = run_cell(task_type, engine, variety).expect("always compatible");
                assert_eq!(
                    outcome,
                    TaskOutcome::Failure,
                    "{task_type} on {engine} missed {variety:?}"
                );
            }
        }
    }
}

#[test]
fn iframe_detects_every_variety() {
    for variety in FilterVariety::ALL
        .into_iter()
        .filter(|v| v.expect_filtered())
    {
        let outcome = run_cell(TaskType::Iframe, Engine::Chrome, variety).unwrap();
        assert_eq!(outcome, TaskOutcome::Failure, "iframe missed {variety:?}");
    }
}

#[test]
fn script_task_only_schedulable_on_chrome() {
    for engine in [Engine::Firefox, Engine::Safari, Engine::InternetExplorer] {
        assert!(
            run_cell(TaskType::Script, engine, FilterVariety::Control).is_none(),
            "script task must not run on {engine}"
        );
    }
    assert!(run_cell(TaskType::Script, Engine::Chrome, FilterVariety::Control).is_some());
}

#[test]
fn script_task_blind_spot_is_http_200_block_pages() {
    // A documented limitation, faithfully reproduced: Chrome's script
    // onload fires on *any* HTTP 200, so a censor that answers with a
    // 200-status block page is invisible to the script task…
    let outcome = run_cell(
        TaskType::Script,
        Engine::Chrome,
        FilterVariety::HttpBlockPage,
    )
    .unwrap();
    assert_eq!(outcome, TaskOutcome::Success, "(expected blind spot)");
    // …while the image task sees straight through it.
    let img = run_cell(
        TaskType::Image,
        Engine::Chrome,
        FilterVariety::HttpBlockPage,
    )
    .unwrap();
    assert_eq!(img, TaskOutcome::Failure);
    // And the script task still detects the six network-level varieties.
    for variety in FilterVariety::ALL
        .into_iter()
        .filter(|v| v.expect_filtered())
        .filter(|v| *v != FilterVariety::HttpBlockPage)
    {
        let o = run_cell(TaskType::Script, Engine::Chrome, variety).unwrap();
        assert_eq!(o, TaskOutcome::Failure, "script missed {variety:?}");
    }
}
