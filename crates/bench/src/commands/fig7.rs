//! Figure 7 — "Comparison between load times for cached and uncached
//! images from 1,099 Encore clients. Cached images typically load within
//! tens of milliseconds, whereas uncached usually take at least 50 ms
//! longer to load."
//!
//! This is the measurement that validates the inline-frame task's
//! cache-timing inference. Each of 1,099 globally distributed clients
//! loads a single-pixel image uncached, then again from cache; we report
//! the three box plots (uncached, cached, difference) and the fraction of
//! clients whose difference exceeds the 50 ms decision threshold.

use bench::fixtures::RunArgs;
use bench::print_table;
use browser::{BrowserClient, Engine};
use netsim::geo::{country, World};
use netsim::http::{ContentType, HttpResponse};
use netsim::network::{ConstHandler, Network};
use population::Audience;
use serde::Serialize;
use sim_core::{FiveNumber, SimRng, SimTime};

#[derive(Serialize)]
struct Fig7 {
    clients: usize,
    uncached_ms: FiveNumber,
    cached_ms: FiveNumber,
    difference_ms: FiveNumber,
    frac_difference_over_50ms: f64,
    frac_cached_under_50ms: f64,
}

pub fn run(args: &RunArgs) {
    let world = World::with_long_tail(170);
    let mut net = Network::new(world.clone());
    net.add_server(
        "pixel.encore-repro.net",
        country("US"),
        Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 68))),
    );
    let root = SimRng::new(args.seed);
    let mut sample_rng = root.fork("fig7-sampling");
    let audience = Audience::world(&world);

    let n_clients = 1_099; // the paper's exact client count
    let mut uncached = Vec::with_capacity(n_clients);
    let mut cached = Vec::with_capacity(n_clients);
    let mut diff = Vec::with_capacity(n_clients);

    for i in 0..n_clients {
        let visitor = audience.sample(&mut sample_rng);
        let mut client = BrowserClient::new(
            &mut net,
            visitor.country,
            visitor.isp,
            Engine::Chrome,
            &root,
        );
        let t = SimTime::from_secs(i as u64 * 10);
        // Unique URL per client so the shared server never interferes;
        // each browser cache starts cold.
        let url = format!("http://pixel.encore-repro.net/p{i}.png");
        let cold = client.load_image(&mut net, &url, t);
        let warm = client.load_image(&mut net, &url, t + sim_core::SimDuration::from_secs(2));
        if cold.event != browser::LoadEvent::OnLoad || !warm.from_cache {
            // Transient failure: the paper's data also excluded clients
            // that failed to complete both loads.
            continue;
        }
        let u = cold.elapsed.as_millis_f64();
        let c = warm.elapsed.as_millis_f64();
        uncached.push(u);
        cached.push(c);
        diff.push(u - c);
    }

    let result = Fig7 {
        clients: uncached.len(),
        uncached_ms: FiveNumber::of(&uncached).expect("non-empty"),
        cached_ms: FiveNumber::of(&cached).expect("non-empty"),
        difference_ms: FiveNumber::of(&diff).expect("non-empty"),
        frac_difference_over_50ms: diff.iter().filter(|d| **d >= 50.0).count() as f64
            / diff.len() as f64,
        frac_cached_under_50ms: cached.iter().filter(|c| **c <= 50.0).count() as f64
            / cached.len() as f64,
    };

    println!("=== Figure 7: cached vs uncached image load times ===");
    println!("clients completing both loads: {}", result.clients);
    println!();
    let row = |name: &str, f: &FiveNumber| {
        vec![
            name.to_string(),
            format!("{:.1}", f.min),
            format!("{:.1}", f.q1),
            format!("{:.1}", f.median),
            format!("{:.1}", f.q3),
            format!("{:.1}", f.max),
            format!("{:.1}", f.mean),
        ]
    };
    print_table(
        &["series", "min", "q1", "median", "q3", "max", "mean"],
        &[
            row("uncached (ms)", &result.uncached_ms),
            row("cached (ms)", &result.cached_ms),
            row("difference (ms)", &result.difference_ms),
        ],
    );
    println!();
    print_table(
        &["claim", "paper", "measured"],
        &[
            vec![
                "cached loads within tens of ms".into(),
                "typical".into(),
                format!(
                    "median {:.1} ms, {:.0}% under 50 ms",
                    result.cached_ms.median,
                    100.0 * result.frac_cached_under_50ms
                ),
            ],
            vec![
                "uncached >=50 ms slower than cached".into(),
                "most clients".into(),
                format!("{:.1}%", 100.0 * result.frac_difference_over_50ms),
            ],
        ],
    );
    args.write_results("fig7", &result);
}
