//! Shared experiment-harness plumbing: world construction, result
//! tables, and JSON output.
//!
//! The crate's one binary, `bench <command>` (`src/main.rs`), regenerates
//! one table or figure from the paper per command (see DESIGN.md's
//! per-experiment index). Commands print a human-readable table to
//! stdout *and* write the same data as JSON under `results/`. The
//! fixture modules below are shared with `tests/` and `benchmark/`.

#![forbid(unsafe_code)]

pub mod fixtures;
pub mod specs;
pub mod testkit;

use browser::{BrowserClient, Engine};
use censor::registry::SAFE_TARGETS;
use encore::pipeline::{GenerationConfig, PatternExpander, TargetFetcher, TaskGenerator};
use encore::tasks::MeasurementTask;
use netsim::geo::{country, IspClass, World};
use netsim::network::Network;
use sim_core::{SimRng, SimTime};
use websim::generator::{social_site, SyntheticWeb, WebConfig};
use websim::har::Har;
use websim::site::SiteHandler;
use websim::{SearchIndex, UrlPattern};

/// Default root seed for all experiments (override with `--seed`; see
/// [`fixtures::RunArgs`], the single argument parser every `bench`
/// command goes through).
pub const DEFAULT_SEED: u64 = 0x0000_E7C0_2015;

/// A fully built paper-world: network + corpus + social sites + index.
pub struct PaperWorld {
    /// The network (with the corpus and social sites installed; censors
    /// and testbed are installed by the experiments that need them).
    pub net: Network,
    /// The synthetic content corpus (the Herdict-style 178 domains).
    pub web: SyntheticWeb,
    /// Search index over the corpus plus the social sites.
    pub index: SearchIndex,
    /// Root RNG (forked per subsystem).
    pub rng: SimRng,
}

impl PaperWorld {
    /// Build the world used by the feasibility experiments: 170-country
    /// world table, the 178-domain corpus, and the three §7.2 social
    /// sites.
    pub fn build(web_config: &WebConfig, seed: u64) -> PaperWorld {
        let mut rng = SimRng::new(seed);
        let world = World::with_long_tail(170);
        let mut net = Network::new(world);

        let web = SyntheticWeb::generate(web_config, &mut rng);
        web.install(&mut net, &mut rng);
        let mut index = SearchIndex::build(&web);

        // The high-collateral social sites.
        let mut social_rng = rng.fork("social-sites");
        for domain in SAFE_TARGETS {
            let site = std::sync::Arc::new(social_site(domain, &mut social_rng));
            net.add_server(
                domain,
                country("US"),
                Box::new(SiteHandler::new(site.clone())),
            );
            index.add_domain(domain, site.pages_by_popularity());
        }

        PaperWorld {
            net,
            web,
            index,
            rng,
        }
    }

    /// Run the full Figure 3 pipeline over the corpus: expand every
    /// domain pattern, fetch HARs from an unfiltered US vantage, return
    /// the HARs (the §6.1 corpus: "6,548 URLs from the 178 URL
    /// patterns").
    pub fn fetch_corpus_hars(&mut self) -> Vec<Har> {
        let patterns: Vec<UrlPattern> = self
            .web
            .domains()
            .into_iter()
            .map(UrlPattern::Domain)
            .collect();
        let expander = PatternExpander::new(&self.index);
        let urls = expander.expand_all(&patterns);
        let fetcher_browser = BrowserClient::new(
            &mut self.net,
            country("US"),
            IspClass::Academic,
            Engine::Chrome,
            &self.rng,
        );
        let mut fetcher = TargetFetcher::new(fetcher_browser);
        fetcher.fetch_all(&mut self.net, &urls, SimTime::ZERO)
    }

    /// Generate the task pool from HARs with the given config.
    pub fn generate_tasks(&self, hars: &[Har], config: GenerationConfig) -> Vec<MeasurementTask> {
        let mut generator = TaskGenerator::new(config);
        // The "manual verification" stand-in: a careful operator rejects
        // pages with known side effects (ground truth consulted the way a
        // human reviewer would inspect the page).
        let web = &self.web;
        generator.generate_all(hars, |url| {
            let Some(host) = netsim::http::host_of(url) else {
                return false;
            };
            let path = netsim::http::path_of(url);
            match web.site(&host) {
                Some(site) => site.page(&path).is_none_or(|p| !p.side_effects),
                None => false, // unknown page: a reviewer would reject it
            }
        })
    }
}

/// The shared censored-world fixture for the streaming workloads of
/// `benchmark/` and the shard-equivalence determinism harness.
///
/// One definition serves both, so the scenario the benchmark measures is
/// provably the scenario `tests/shard_equivalence.rs` proves equivalent.
pub mod shard_fixture {
    use censor::registry::{install_world_censors, SAFE_TARGETS};
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::system::EncoreSystem;
    use netsim::geo::country;
    use netsim::http::{ContentType, HttpResponse};
    use netsim::network::Network;
    use netsim::scenario::NetworkScenario;
    use population::shard::ShardContext;
    use population::BatchConfig;
    use sim_core::SimDuration;

    /// The §7.2 world: the three social-site targets over ideal paths.
    pub fn scenario() -> NetworkScenario {
        let mut spec = NetworkScenario::new().with_ideal_paths();
        for d in SAFE_TARGETS {
            spec = spec.with_server(d, country("US"), HttpResponse::ok(ContentType::Image, 500));
        }
        spec
    }

    /// Shard builder with the 2014 national censors installed.
    pub fn build_censored(ctx: ShardContext) -> (Network, EncoreSystem) {
        let mut net = scenario().build_shard(ctx.index, ctx.shards);
        install_world_censors(&mut net);
        deploy(net)
    }

    /// Deploy Encore over the fixture world: one favicon task per safe
    /// target, a single academic origin.
    pub fn deploy(mut net: Network) -> (Network, EncoreSystem) {
        let origins = vec![OriginSite::academic("origin.example").with_popularity(3.0)];
        let sys = crate::fixtures::deploy_us(
            &mut net,
            crate::fixtures::favicon_tasks(&SAFE_TARGETS),
            SchedulingStrategy::RoundRobin,
            origins,
        );
        (net, sys)
    }

    /// The fixture batch: a busy aggregate arrival rate.
    pub fn batch(visits: u64) -> BatchConfig {
        BatchConfig {
            visits,
            mean_gap: SimDuration::from_millis(1_200),
            ..BatchConfig::default()
        }
    }
}

/// The shared longitudinal-world fixture: the Turkey-2014-style Twitter
/// block as one [`population::WorldRecipe`], runnable serially
/// ([`population::WorldEngine::from_recipe`]) or across N cores
/// ([`population::run_sharded_world`]).
///
/// One definition serves `bench timeline`, the `timeline_450k_*`
/// workloads of `benchmark/`, and `tests/world_shard_equivalence.rs`, so
/// the scenario CI gates on is provably the scenario the harness proves
/// shard-invariant.
pub mod world_fixture {
    use censor::policy::{CensorPolicy, Mechanism};
    use censor::timeline::{CensorSpec, PolicyChange, PolicyTimeline};
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::inference::WindowReport;
    use encore::system::EncoreSystem;
    use encore::{FilteringDetector, GeoDb, StoredMeasurement};
    use netsim::geo::{country, CountryCode};
    use netsim::http::{ContentType, HttpResponse};
    use netsim::network::Network;
    use netsim::scenario::NetworkScenario;
    use population::shard::ShardContext;
    use population::{DeploymentConfig, WorldRecipe};
    use serde::Serialize;
    use sim_core::{SimDuration, SimTime};

    /// Ground truth: the block switches on at day 10…
    pub const ONSET_DAY: u64 = 10;
    /// …and lifts at day 20.
    pub const LIFT_DAY: u64 = 20;

    /// The blocked domain.
    pub const TARGET: &str = "twitter.com";

    /// The substrate scenario: the built-in world table (default path
    /// model — latency jitter and loss are part of the longitudinal
    /// story) with a favicon-serving twitter.com.
    pub fn scenario() -> NetworkScenario {
        NetworkScenario::new().with_server(
            TARGET,
            country("US"),
            HttpResponse::ok(ContentType::Image, 500),
        )
    }

    /// Deploy Encore over one shard of the fixture world: two equally
    /// popular academic origins, one favicon task on the target.
    pub fn deploy(mut net: Network) -> (Network, EncoreSystem) {
        let origins = vec![
            OriginSite::academic("origin-a.example").with_popularity(5.0),
            OriginSite::academic("origin-b.example").with_popularity(5.0),
        ];
        let sys = crate::fixtures::deploy_us(
            &mut net,
            crate::fixtures::favicon_tasks(&[TARGET]),
            SchedulingStrategy::RoundRobin,
            origins,
        );
        (net, sys)
    }

    /// Shard builder for the plain fixture world.
    pub fn build(ctx: ShardContext) -> (Network, EncoreSystem) {
        deploy(scenario().build_shard(ctx.index, ctx.shards))
    }

    /// The March-2014-style block as a policy timeline: install at day
    /// [`ONSET_DAY`], lift at day [`LIFT_DAY`].
    pub fn turkey_timeline() -> PolicyTimeline {
        PolicyTimeline::new()
            .at(
                day(ONSET_DAY),
                PolicyChange::Install(CensorSpec::new(
                    country("TR"),
                    CensorPolicy::named("tr-election-block")
                        .block_domain(TARGET, Mechanism::DnsNxDomain),
                )),
            )
            .at(
                day(LIFT_DAY),
                PolicyChange::Lift {
                    name: "tr-election-block".into(),
                },
            )
    }

    /// The full longitudinal recipe: `days` of Poisson arrivals at
    /// `visits_per_day_per_weight`, the Turkey timeline, daily rollups,
    /// hourly session maintenance.
    pub fn recipe(days: u64, visits_per_day_per_weight: f64) -> WorldRecipe {
        WorldRecipe::deployment(DeploymentConfig {
            duration: SimDuration::from_days(days),
            visits_per_day_per_weight,
            ..DeploymentConfig::default()
        })
        .with_timeline(turkey_timeline())
        .with_rollups(SimDuration::from_days(1))
        .with_maintenance(SimDuration::from_secs(3_600))
    }

    /// Convert a day number to simulated time.
    pub fn day(d: u64) -> SimTime {
        SimTime::from_secs(d * 86_400)
    }

    /// The §7.2 windowed detector's verdict on one (country, domain)
    /// pair over a run's collected records: the per-day flag series and
    /// the localised onset/lift days. The single definition both the
    /// timeline command and the shard-equivalence harness compare.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize)]
    pub struct TimelineJudgment {
        /// `(day, result measurements, flagged)` per detector window.
        pub days: Vec<(u64, usize, bool)>,
        /// First window the pair was flagged (block onset).
        pub onset_day: Option<u64>,
        /// First window after onset the flag cleared (block lifted).
        pub lift_day: Option<u64>,
    }

    /// Read one `cc:domain` pair's verdict off a run's window reports:
    /// the per-window flag series, localised through
    /// [`encore::localise_transitions`] — the same rule the simcheck
    /// fuzz oracle applies to generated worlds — so the goldens and the
    /// generated scenario space can never disagree on what "onset" and
    /// "lift" mean. Reports cost a pass over the record log and pairs
    /// cost nothing, so a caller tracking several pairs detects once.
    pub fn judge_reports(
        reports: &[WindowReport],
        cc: CountryCode,
        domain: &str,
    ) -> TimelineJudgment {
        let days: Vec<(u64, usize, bool)> = reports
            .iter()
            .map(|r| {
                let flagged = r
                    .detections
                    .iter()
                    .any(|d| d.country == cc && d.domain == domain);
                (r.window, r.measurements, flagged)
            })
            .collect();
        let (onset, lift) = encore::localise_transitions(days.iter().map(|&(w, _, f)| (w, f)));
        TimelineJudgment {
            days,
            onset_day: onset,
            lift_day: lift,
        }
    }

    /// Run the windowed detector (1-day windows) over a record log and
    /// judge `cc:domain` from its reports.
    pub fn judge_timeline(
        records: &[StoredMeasurement],
        geo: &GeoDb,
        cc: CountryCode,
        domain: &str,
    ) -> TimelineJudgment {
        let reports =
            FilteringDetector::default().detect_windows(records, geo, SimDuration::from_days(1));
        judge_reports(&reports, cc, domain)
    }

    /// The same verdict as [`judge_timeline`], judged from merged
    /// bounded-memory streaming analytics instead of a record log —
    /// what a `--streaming` run's windows are localised from.
    pub fn judge_timeline_streamed(
        stats: &encore::streaming::StreamingStats,
        cc: CountryCode,
        domain: &str,
    ) -> TimelineJudgment {
        judge_reports(
            &FilteringDetector::default().judge_streamed(stats),
            cc,
            domain,
        )
    }
}

/// The flagship generative-corpus fixture: a 90-day multi-country "world
/// report" over a seeded [`websim::corpus::Corpus`] — Zipf-popularity
/// sites with scale-free cross-links installed on every shard — under
/// four censor stories at once:
///
/// * **Standing registry regimes** ([`censor::registry`]): China, Iran,
///   and Pakistan filter the social targets for the whole run.
/// * **A scheduled block**: Turkey blocks twitter.com days
///   [`TR_BLOCK_ONSET`]..[`TR_BLOCK_LIFT`] (policy timeline).
/// * **An adaptive censor**: Russia watches the corpus' rank-0 domain
///   from day 0, escalates RST → DNS poison → IP block, and stands down
///   (reaction schedule, [`censor::adaptive::AdaptiveCensor`]).
/// * **Benign disruptions** ([`websim::corpus::Disruption`]): the rank-1
///   domain — also measured — suffers an origin outage, a botched cert
///   rotation, and a permanent redesign, each failing *globally*. The
///   detector's cross-region control must keep all of them out of the
///   verdicts.
///
/// The audience is a [`websim::corpus::CountryMix`] demographic over ten
/// countries, pairing each censoring country with enough healthy regions
/// for the cross-region control to work.
///
/// One definition serves `bench world_report`, `benchmark/`'s flagship
/// workload, and `tests/world_report.rs` (golden byte-pin + 2-shard verdict check), so
/// the scenario CI gates on is provably the scenario the harness checks.
///
/// [`TR_BLOCK_ONSET`]: corpus_fixture::TR_BLOCK_ONSET
/// [`TR_BLOCK_LIFT`]: corpus_fixture::TR_BLOCK_LIFT
pub mod corpus_fixture {
    use browser::Engine;
    use censor::adaptive::{AdaptiveSpec, Reaction, ReactionPolicy, Stage};
    use censor::policy::{CensorPolicy, Mechanism};
    use censor::registry::{install_world_censors, SAFE_TARGETS};
    use censor::timeline::{CensorSpec, PolicyChange, PolicyTimeline};
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::streaming::StreamingStats;
    use encore::system::EncoreSystem;
    use encore::FilteringDetector;
    use netsim::geo::{country, IspClass};
    use netsim::http::{ContentType, HttpResponse};
    use netsim::network::Network;
    use netsim::scenario::{NetworkScenario, WorldScenario};
    use population::shard::ShardContext;
    use population::{Audience, DeploymentConfig, StreamingSpec, WorldChange, WorldRecipe};
    use serde::Serialize;
    use sim_core::{Empirical, SimDuration, SimRng, SimTime};
    use websim::corpus::{Corpus, CorpusConfig, CountryMix, Disruption, DisruptionKind};
    use websim::generator::WebConfig;

    /// Length of the flagship run.
    pub const DAYS: u64 = 90;
    /// Arrival rate (visits/day/origin-weight). Four round-robin tasks
    /// over origin weight 10 put ~1,000 visits/day on each task — the
    /// per-task power the timeline and adaptive goldens are proven at.
    pub const RATE: f64 = 400.0;
    /// Seed of the corpus itself (content, links, hosting) — independent
    /// of the run seed so re-seeding a run keeps the same web.
    pub const CORPUS_SEED: u64 = 0x0C0_7075;

    /// Turkey blocks twitter.com at this day…
    pub const TR_BLOCK_ONSET: u64 = 30;
    /// …and lifts the block here.
    pub const TR_BLOCK_LIFT: u64 = 60;
    /// Russia's adaptive censor escalates to RST injection…
    pub const RU_RST_DAY: u64 = 20;
    /// …then DNS poisoning (1-hour lying TTL)…
    pub const RU_POISON_DAY: u64 = 35;
    /// …then IP null-routing…
    pub const RU_IP_BLOCK_DAY: u64 = 50;
    /// …and stands down here.
    pub const RU_STAND_DOWN_DAY: u64 = 75;
    /// The rank-1 origin goes dark at this day…
    pub const OUTAGE_START: u64 = 40;
    /// …and is restored here.
    pub const OUTAGE_END: u64 = 42;
    /// A one-day botched cert rotation on the rank-1 origin.
    pub const CERT_ROTATION_DAY: u64 = 55;
    /// The rank-1 site's permanent redesign breaks its favicon task.
    pub const REDESIGN_DAY: u64 = 70;

    /// The Russian adaptive censor's diagnostic name.
    pub const RU_CENSOR: &str = "ru-adaptive";

    /// Corpus knobs: 12 Zipf-ranked sites, scale-free cross-links.
    pub fn corpus_config() -> CorpusConfig {
        CorpusConfig {
            web: WebConfig {
                num_domains: 12,
                median_pages_per_domain: 8.0,
                ..WebConfig::default()
            },
            zipf_exponent: 1.1,
            cross_links_per_site: 2,
        }
    }

    /// The fixture corpus — a pure function of [`CORPUS_SEED`], so every
    /// shard and every disruption the recipe fires see the same content.
    pub fn corpus() -> Corpus {
        Corpus::generate(&corpus_config(), &mut SimRng::new(CORPUS_SEED))
            .expect("fixture corpus config is valid")
    }

    /// The adaptive censor's watched domain: the corpus' rank-0 site.
    pub fn adaptive_target(corpus: &Corpus) -> String {
        corpus.domain(0).to_string()
    }

    /// The benignly disrupted (but measured) domain: the rank-1 site.
    pub fn disrupted_domain(corpus: &Corpus) -> String {
        corpus.domain(1).to_string()
    }

    /// The ten-country demographic mix (Zipf 0.6 — flat enough that the
    /// tail countries keep statistical power).
    pub fn demographics() -> CountryMix {
        CountryMix::zipf(
            &["US", "CN", "IN", "BR", "RU", "TR", "PK", "IR", "DE", "ID"],
            0.6,
        )
        .expect("non-empty country list")
    }

    /// The audience built from [`demographics`].
    pub fn audience() -> Audience {
        let mix = demographics();
        Audience {
            countries: Empirical::new(
                mix.weights
                    .iter()
                    .map(|(cc, w)| (country(cc), *w))
                    .collect(),
            ),
            isps: Empirical::new(vec![
                (IspClass::Residential, 0.62),
                (IspClass::Mobile, 0.28),
                (IspClass::Academic, 0.07),
                (IspClass::Datacenter, 0.03),
            ]),
            engines: Engine::market_distribution(),
            bounce_fraction: 0.50,
            long_stay_fraction: 0.30,
            crawler_fraction: 0.04,
        }
    }

    /// The substrate scenario: built-in world, ideal paths, favicon-
    /// serving social targets (the corpus sites are installed per shard
    /// in [`build`], since stateful [`websim::site::SiteHandler`]s cannot ride
    /// a const-response [`NetworkScenario`]).
    pub fn scenario() -> NetworkScenario {
        let mut spec = NetworkScenario::new().with_ideal_paths();
        for d in SAFE_TARGETS {
            spec = spec.with_server(d, country("US"), HttpResponse::ok(ContentType::Image, 500));
        }
        spec
    }

    /// The standing Russian adaptive censor (a middlebox factory, so it
    /// is rebuilt identically on every shard thread).
    pub fn ru_adaptive_spec(corpus: &Corpus) -> AdaptiveSpec {
        AdaptiveSpec::new(RU_CENSOR, country("RU"), vec![adaptive_target(corpus)])
            .with_poison_ttl(SimDuration::from_secs(3_600))
    }

    /// Russia's escalation schedule as broadcast control events.
    pub fn ru_reactions() -> ReactionPolicy {
        ReactionPolicy::new(RU_CENSOR)
            .at(day(RU_RST_DAY), Reaction::SetStage(Stage::RstInjection))
            .at(day(RU_POISON_DAY), Reaction::SetStage(Stage::DnsPoison))
            .at(day(RU_IP_BLOCK_DAY), Reaction::SetStage(Stage::IpBlock))
            .at(day(RU_STAND_DOWN_DAY), Reaction::StandDown)
    }

    /// Turkey's scheduled twitter.com block.
    pub fn tr_timeline() -> PolicyTimeline {
        PolicyTimeline::new()
            .at(
                day(TR_BLOCK_ONSET),
                PolicyChange::Install(CensorSpec::new(
                    country("TR"),
                    CensorPolicy::named("tr-world-block")
                        .block_domain("twitter.com", Mechanism::DnsNxDomain),
                )),
            )
            .at(
                day(TR_BLOCK_LIFT),
                PolicyChange::Lift {
                    name: "tr-world-block".into(),
                },
            )
    }

    /// The three benign disruptions, all against the rank-1 site.
    pub fn disruptions() -> [Disruption; 3] {
        [
            Disruption {
                day: OUTAGE_START,
                duration_days: OUTAGE_END - OUTAGE_START,
                site: 1,
                kind: DisruptionKind::OriginOutage,
            },
            Disruption {
                day: CERT_ROTATION_DAY,
                duration_days: 1,
                site: 1,
                kind: DisruptionKind::CertRotation,
            },
            Disruption {
                day: REDESIGN_DAY,
                duration_days: 0,
                site: 1,
                kind: DisruptionKind::Redesign,
            },
        ]
    }

    /// Shard builder: substrate scenario, then the corpus installed from
    /// its own fixed seed (identical on every shard), then the standing
    /// RU adaptive censor — built *after* the corpus so its watched
    /// domain resolves to real addresses for the address-matched stages
    /// (RST injection, IP block) — then the 2014 registry regimes, then
    /// deployment.
    pub fn build(ctx: ShardContext) -> (Network, EncoreSystem) {
        let corpus = corpus();
        let mut net = WorldScenario::new(scenario()).build_shard(ctx.index, ctx.shards);
        corpus.install(&mut net, &mut SimRng::new(CORPUS_SEED ^ 1));
        let ru = ru_adaptive_spec(&corpus).build(&net.dns);
        net.add_middlebox(Box::new(ru));
        install_world_censors(&mut net);

        let tasks = crate::fixtures::favicon_tasks(&[
            "twitter.com",
            "youtube.com",
            &adaptive_target(&corpus),
            &disrupted_domain(&corpus),
        ]);
        let origins = vec![
            OriginSite::academic("world-origin-a.example").with_popularity(5.0),
            OriginSite::academic("world-origin-b.example").with_popularity(5.0),
        ];
        let sys =
            crate::fixtures::deploy_us(&mut net, tasks, SchedulingStrategy::RoundRobin, origins);
        (net, sys)
    }

    /// The full 90-day recipe: Poisson arrivals, the Turkish timeline,
    /// the Russian escalation schedule, and the benign disruptions as
    /// world changes naming the corpus by its generator's inputs (so
    /// building the recipe generates nothing). The collector folds at
    /// ingest into 1-day windows — the daily rollup cadence — and keeps
    /// no records: the report is judged off those windows.
    pub fn recipe(days: u64, visits_per_day_per_weight: f64) -> WorldRecipe {
        let mut recipe = WorldRecipe::deployment(DeploymentConfig {
            duration: SimDuration::from_days(days),
            visits_per_day_per_weight,
            repeat_visitor_rate: 0.05,
            ..DeploymentConfig::default()
        })
        .with_timeline(tr_timeline())
        .with_reaction(ru_reactions())
        .with_rollups(SimDuration::from_days(1))
        .with_maintenance(SimDuration::from_secs(3_600))
        .with_streaming(StreamingSpec::with_window(SimDuration::from_days(1)));
        for d in disruptions() {
            let fires = [(d.day, false)]
                .into_iter()
                .chain(d.end_day().map(|end| (end, true)));
            for (at, revert) in fires.filter(|&(at, _)| at < days) {
                let change = WorldChange::Disruption {
                    corpus: corpus_config(),
                    corpus_seed: CORPUS_SEED,
                    disruption: d,
                    revert,
                };
                recipe = recipe.change_at(day(at), change);
            }
        }
        recipe
    }

    /// Convert a day number to simulated time.
    pub fn day(d: u64) -> SimTime {
        SimTime::from_secs(d * 86_400)
    }

    /// One tracked `(country, domain)` verdict in the world report.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize, serde::Deserialize)]
    pub struct PairVerdict {
        /// Censoring (or control) country code.
        pub country: String,
        /// Measured domain.
        pub domain: String,
        /// Localised block onset, if any.
        pub onset_day: Option<u64>,
        /// Localised block lift, if any.
        pub lift_day: Option<u64>,
        /// Every flagged detector window (day numbers).
        pub flagged_days: Vec<u64>,
    }

    /// The world-report verdict set of one run.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize, serde::Deserialize)]
    pub struct WorldVerdicts {
        /// Tracked censor stories.
        pub pairs: Vec<PairVerdict>,
        /// The benignly disrupted domain.
        pub disrupted_domain: String,
        /// Days where the disrupted domain failed globally — the
        /// outage/rotation/redesign signature: over the day's countable
        /// measurements of it (crawlers excluded, each client IP capped,
        /// as the detector counts them), summed over every country, more
        /// than half failed.
        pub disrupted_failure_days: Vec<u64>,
        /// Detections against the disrupted domain anywhere in the run.
        /// The cross-region control must keep this at **zero**.
        pub disrupted_detections: usize,
    }

    /// Judge a run off its ingest-time fold: the four censor stories
    /// plus the disruption soundness counts, all through the shared
    /// decision rule ([`FilteringDetector::judge_streamed`]) and
    /// localisation rule. Windows at or past `days` are dropped before
    /// localisation: a visit arriving just before the horizon can land
    /// its submission in a partial trailing window, and *whether* that
    /// window exists depends on the thinned per-shard arrival sample —
    /// an artifact of the run length, not a verdict, so it must not be
    /// allowed to turn a standing block into a phantom "lift".
    pub fn judge(stats: &StreamingStats, days: u64) -> WorldVerdicts {
        let corpus = corpus();
        let rank0 = adaptive_target(&corpus);
        let rank1 = disrupted_domain(&corpus);
        let tracked = [
            ("CN", "twitter.com"),
            ("IR", "twitter.com"),
            ("TR", "twitter.com"),
            ("CN", "youtube.com"),
            ("PK", "youtube.com"),
            ("RU", rank0.as_str()),
            ("RU", rank1.as_str()),
        ];
        // Every verdict below reads these reports.
        let mut reports = FilteringDetector::default().judge_streamed(stats);
        reports.retain(|r| r.window < days);
        let pairs = tracked
            .iter()
            .map(|&(cc, domain)| {
                let j = crate::world_fixture::judge_reports(&reports, country(cc), domain);
                PairVerdict {
                    country: cc.to_string(),
                    domain: domain.to_string(),
                    onset_day: j.onset_day,
                    lift_day: j.lift_day,
                    flagged_days: j
                        .days
                        .iter()
                        .filter(|&&(_, _, flagged)| flagged)
                        .map(|&(d, _, _)| d)
                        .collect(),
                }
            })
            .collect();
        let disrupted_detections = reports
            .iter()
            .flat_map(|r| r.detections.iter())
            .filter(|d| d.domain == rank1)
            .count();

        // Per-day global failure rate on the disrupted domain: its
        // cells summed over every country.
        let disrupted_failure_days = stats
            .windows
            .iter()
            .filter(|w| w.window < days)
            .filter(|w| {
                let (n, fails) = w
                    .cells
                    .iter()
                    .filter(|c| c.domain == rank1)
                    .fold((0, 0), |(n, fails), c| (n + c.n, fails + (c.n - c.x)));
                fails * 2 > n
            })
            .map(|w| w.window)
            .collect();

        WorldVerdicts {
            pairs,
            disrupted_domain: rank1,
            disrupted_failure_days,
            disrupted_detections,
        }
    }

    /// The flagship golden artifact. One definition serves
    /// `bench world_report` (CI byte-diffs `results/world_report.json`
    /// against `tests/golden/world_report.json`) and
    /// `tests/world_report.rs` (which blesses and byte-pins that
    /// golden), so the two gates can never disagree about the shape.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize, serde::Deserialize)]
    pub struct WorldReport {
        /// Shard count of the run that produced this artifact.
        pub shards: usize,
        /// Root seed.
        pub seed: u64,
        /// Simulated days.
        pub days: u64,
        /// Total visits simulated.
        pub visits: u64,
        /// Timeline policy events applied (TR install + lift = 2).
        pub policy_changes_applied: usize,
        /// Adaptive-censor control signals applied (RU's four rungs).
        pub control_signals_applied: usize,
        /// The corpus' domains in rank (= insertion) order.
        pub corpus_domains: Vec<String>,
        /// Verdicts and soundness counts.
        pub verdicts: WorldVerdicts,
    }

    /// Assemble the golden artifact from a finished run.
    pub fn report(
        run: &population::ShardedWorldRun,
        shards: usize,
        days: u64,
        seed: u64,
    ) -> WorldReport {
        let corpus = corpus();
        WorldReport {
            shards,
            seed,
            days,
            visits: run.outcome.report.visits,
            policy_changes_applied: run.outcome.policy_changes_applied,
            control_signals_applied: run.outcome.control_signals_applied,
            corpus_domains: corpus.domains().iter().map(|d| d.to_string()).collect(),
            verdicts: judge(
                run.collection
                    .streaming
                    .as_ref()
                    .expect("the corpus recipe streams"),
                days,
            ),
        }
    }
}

/// Render a simple aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_world_builds_and_produces_hars() {
        let mut pw = PaperWorld::build(&WebConfig::small(), 7);
        assert_eq!(pw.web.sites.len(), WebConfig::small().num_domains);
        let hars = pw.fetch_corpus_hars();
        assert!(!hars.is_empty());
        let ok = hars.iter().filter(|h| h.page_ok).count();
        assert!(ok * 10 > hars.len() * 9, "most corpus pages load");
    }

    #[test]
    fn task_generation_from_corpus() {
        let mut pw = PaperWorld::build(&WebConfig::small(), 7);
        let hars = pw.fetch_corpus_hars();
        let tasks = pw.generate_tasks(
            &hars,
            GenerationConfig {
                max_image_bytes: 5_000,
                ..GenerationConfig::default()
            },
        );
        assert!(!tasks.is_empty());
    }

    /// The streaming ≡ exact traffic of `encore::collection`'s
    /// `streaming_verdicts_match_exact_on_identical_traffic`, stretched
    /// to four 1-day windows with Turkey failing on days 1–2: every
    /// submission goes to an exact and a streaming collector, with
    /// crawler and congestion noise and one Turkish client flooding past
    /// the per-IP cap.
    fn mirrored_collectors() -> (
        Vec<encore::StoredMeasurement>,
        encore::GeoDb,
        encore::streaming::StreamingStats,
    ) {
        use encore::collection::{write_submit_url, CollectionServer, Submission};
        use encore::tasks::{MeasurementId, TaskOutcome, TaskType};
        use encore::{StreamingConfig, SubmissionPhase};
        use netsim::geo::{country, IspClass, World};
        use netsim::http::HttpRequest;
        use sim_core::{SimDuration, SimRng, SimTime};

        let mut net = Network::ideal(World::builtin());
        let exact = CollectionServer::new("exact.example");
        exact.install(&mut net, country("US"));
        let streaming = CollectionServer::new("collector.example");
        streaming.install(&mut net, country("US"));
        streaming.enable_streaming(
            &StreamingConfig::with_window(SimDuration::from_days(1)),
            0x00C0_FFEE,
            SimRng::new(99),
        );
        let clients: Vec<_> = ["TR", "TR", "TR", "US", "US", "US"]
            .iter()
            .map(|cc| net.add_client(country(cc), IspClass::Residential))
            .collect();
        let mut rng = SimRng::new(2);
        let mut id = 0u64;
        let mut submit = |c: usize, outcome: TaskOutcome, ua: &str, congested: bool, at: u64| {
            id += 1;
            let sub = Submission {
                measurement_id: MeasurementId(id),
                phase: SubmissionPhase::Result,
                outcome: Some(outcome),
                elapsed_ms: 1_234,
                task_type: TaskType::Image,
                target_url: "http://youtube.com/favicon.ico".into(),
                user_agent: ua.into(),
                congested,
            };
            for collector in ["exact.example", "collector.example"] {
                let mut url = String::new();
                write_submit_url(&mut url, collector, &sub.parts());
                let req = HttpRequest::get(&url).with_referer("http://origin.example/");
                net.fetch(&clients[c], &req, SimTime::from_secs(at), &mut rng);
            }
        };
        for day in 0..4u64 {
            let blocked = day == 1 || day == 2;
            for rep in 0..12u64 {
                for c in 0..6 {
                    let outcome = if blocked && c < 3 {
                        TaskOutcome::Failure
                    } else {
                        TaskOutcome::Success
                    };
                    let ua = if rep == 7 { "GoogleBot" } else { "Chrome" };
                    let congested = rep == 5 && outcome == TaskOutcome::Failure;
                    submit(c, outcome, ua, congested, day * 86_400 + rep * 3);
                }
            }
            for _ in 0..40 {
                submit(0, TaskOutcome::Failure, "Chrome", false, day * 86_400 + 50);
            }
        }
        let geo = encore::GeoDb::from_allocator(&net.allocator);
        let alloc = net.allocator.clone();
        streaming.close_all_windows(|ip| alloc.country_of(ip));
        let stats = streaming.snapshot().streaming.expect("streaming stats");
        (exact.records(), geo, stats)
    }

    #[test]
    fn judge_reports_reads_one_judgment_off_exact_and_streamed_reports() {
        use encore::inference::{Detection, WindowReport};
        use netsim::geo::country;
        use world_fixture::{judge_reports, judge_timeline, judge_timeline_streamed};

        // Per day: 12 reps × 6 clients + the 40-record flood = 112 result
        // measurements. Turkey's cell keeps 10 records per client (the
        // cap; the flood falls past it): 30 successes on open days, 30
        // failures on days 1–2, against a clean 30/30 US control.
        let expected = world_fixture::TimelineJudgment {
            days: vec![
                (0, 112, false),
                (1, 112, true),
                (2, 112, true),
                (3, 112, false),
            ],
            onset_day: Some(1),
            lift_day: Some(3),
        };
        let (tr, domain) = (country("TR"), "youtube.com");

        // A fixed report vector, written out by hand: a detection counts
        // only when both country and domain match.
        let hit = |country, domain: &str| Detection {
            domain: domain.into(),
            country,
            n: 30,
            x: 0,
            p_value: 0.0,
        };
        let fixed: Vec<WindowReport> = [
            vec![hit(country("CN"), domain)],
            vec![hit(tr, domain)],
            vec![hit(tr, "other.com"), hit(tr, domain)],
            vec![hit(tr, "other.com")],
        ]
        .into_iter()
        .zip(0u64..)
        .map(|(detections, window)| WindowReport {
            window,
            start: world_fixture::day(window),
            measurements: 112,
            detections,
        })
        .collect();
        assert_eq!(judge_reports(&fixed, tr, domain), expected);

        let (records, geo, stats) = mirrored_collectors();
        assert_eq!(judge_timeline(&records, &geo, tr, domain), expected);
        assert_eq!(judge_timeline_streamed(&stats, tr, domain), expected);
    }
}
