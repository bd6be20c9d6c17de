//! The arbitrary-world generator.
//!
//! A [`WorldCase`] is a plain-data description of one generated world:
//! its arrival process, its censorship model (none, a scheduled
//! install/lift timeline, an adaptive censor driven by scheduled
//! reactions, or a traffic-reactive K-threshold censor), and its
//! housekeeping cadences. Cases come in two classes with different
//! sampling ranges:
//!
//! * [`CaseClass::Equivalence`] — tiny worlds (tens to hundreds of
//!   visits) drawn from the *widest* space: both arrival modes, every
//!   mechanism including probabilistic throttling, arbitrary
//!   (non-day-aligned) change times, lying poison TTLs up to days, and
//!   self-triggered reactive censors. These feed the exact-replay
//!   oracles (lockstep, reproducibility, merge algebra), which hold for
//!   *any* recipe.
//! * [`CaseClass::Detector`] — statistically powered worlds shaped like
//!   the Turkey fixture (≈1.5k visits/day over 6–9 days): hard-block
//!   mechanisms only, day-aligned onset/lift, short poison TTLs, and
//!   censored countries with enough audience share that every censored
//!   day cell clears the detector's minimum-n guard decisively. These
//!   additionally feed the statistical oracles (verdict invariance
//!   across shard counts, onset/lift localisation, false-positive
//!   freedom), which are only guaranteed away from decision boundaries
//!   — the generator's job is to stay away from them.
//!
//! Generation draws from the vendored `proptest` [`TestRng`], and every
//! case embeds the seed that produced it: `WorldCase::from_seed(class,
//! seed)` is the whole reproduction recipe, for the budgeted runner and
//! for `proptest!` tests alike.

use censor::adaptive::{AdaptiveSpec, Reaction, ReactionPolicy, Stage};
use censor::policy::{CensorPolicy, Mechanism};
use censor::timeline::{CensorSpec, PolicyChange, PolicyTimeline};
use encore::delivery::OriginSite;
use netsim::geo::{country, CountryCode, World};
use netsim::http::{ContentType, HttpResponse};
use netsim::scenario::NetworkScenario;
use netsim::TopologyConfig;
use population::{
    Audience, BatchConfig, DeploymentConfig, Domain, Retain, Scenario, WorldBuild, WorldChange,
    WorldRecipe,
};
use proptest::TestRng;
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

/// The measurement-target domain every generated world installs.
pub const TARGET: &str = "probe-target.example";

/// Diagnostic name of the generated censor (scheduled or adaptive).
pub const CENSOR_NAME: &str = "simcheck-censor";

/// Which oracle family a case feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CaseClass {
    /// Exact-replay oracles over the widest recipe space.
    Equivalence,
    /// Statistical oracles over detector-powered worlds.
    Detector,
    /// Routed detector-powered worlds with a transit-link brownout:
    /// exact-replay oracles plus the congestion-soundness oracles
    /// (verdict invariance, false-positive freedom on congested but
    /// uncensored worlds, localisation despite congestion).
    Congestion,
    /// Detector-powered worlds whose measured targets are sites of a
    /// seeded generative [`websim::corpus::Corpus`] instead of the
    /// constant probe server: the censor (when present) blocks the
    /// corpus' rank-0 domain, a second measured rank-1 domain may
    /// suffer a *benign* day-aligned origin outage, and the oracles add
    /// a benignity check — the disrupted domain must never be flagged
    /// as censored anywhere.
    Corpus,
}

impl CaseClass {
    /// The lowercase name regression files and `--replay` spell it with.
    pub fn name(self) -> &'static str {
        match self {
            CaseClass::Equivalence => "equivalence",
            CaseClass::Detector => "detector",
            CaseClass::Congestion => "congestion",
            CaseClass::Corpus => "corpus",
        }
    }

    /// The class [`CaseClass::name`] spells `name`, if any.
    pub fn from_name(name: &str) -> Option<CaseClass> {
        use CaseClass::*;
        [Equivalence, Detector, Congestion, Corpus]
            .into_iter()
            .find(|class| class.name() == name)
    }
}

/// The generative-web layer of a [`CaseClass::Corpus`] case.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorpusCaseSpec {
    /// Sites in the generated corpus.
    pub num_domains: usize,
    /// The corpus' own seed (independent of the case seed, mirroring
    /// how a standing web outlives any one measurement campaign).
    pub corpus_seed: u64,
    /// Day-aligned benign origin outage `[start, end)` on the rank-1
    /// site, if any.
    pub disruption: Option<(u64, u64)>,
}

impl CorpusCaseSpec {
    /// The generator config of this case's corpus.
    pub fn config(&self) -> websim::corpus::CorpusConfig {
        websim::corpus::CorpusConfig {
            web: websim::generator::WebConfig {
                num_domains: self.num_domains,
                median_pages_per_domain: 4.0,
                ..websim::generator::WebConfig::default()
            },
            cross_links_per_site: 1,
        }
    }

    /// Generate this case's corpus — a pure function of the spec, so
    /// every shard (and every oracle re-run) sees identical content.
    pub fn corpus(&self) -> websim::corpus::Corpus {
        websim::corpus::Corpus::generate(&self.config(), &mut SimRng::new(self.corpus_seed))
            .expect("generated corpus specs are valid")
    }
}

/// The generated arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalMode {
    /// Poisson arrivals at every origin over a day horizon.
    Deployment {
        /// Simulated days.
        days: u64,
        /// Visits per day per unit origin weight.
        rate: f64,
    },
    /// A fixed visit count at a mean gap.
    Batch {
        /// Total visits.
        visits: u64,
        /// Mean inter-arrival gap in milliseconds.
        gap_ms: u64,
    },
}

/// A hard or soft blocking mechanism for scheduled censors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BlockKind {
    /// Forged NXDOMAIN.
    DnsNxDomain,
    /// Dropped DNS queries.
    DnsDrop,
    /// Forged answer to an unroutable sinkhole.
    DnsSinkhole,
    /// RST injection against resolved addresses.
    TcpReset,
    /// Null-routing of resolved addresses.
    IpDrop,
    /// Dropped HTTP exchanges.
    HttpDrop,
    /// Connection reset at the HTTP stage.
    HttpReset,
    /// A block page in place of the resource.
    HttpBlockPage,
    /// Probabilistic throttling (equivalence class only — the paper's
    /// "subtle" filtering the detector is *not* promised to localise).
    Throttle {
        /// Per-request drop probability.
        drop_probability: f64,
    },
}

impl BlockKind {
    fn mechanism(&self) -> Mechanism {
        match *self {
            BlockKind::DnsNxDomain => Mechanism::DnsNxDomain,
            BlockKind::DnsDrop => Mechanism::DnsDrop,
            BlockKind::DnsSinkhole => Mechanism::DnsRedirect(Ipv4Addr::new(10, 90, 90, 90)),
            BlockKind::TcpReset => Mechanism::TcpReset,
            BlockKind::IpDrop => Mechanism::IpDrop,
            BlockKind::HttpDrop => Mechanism::HttpDrop,
            BlockKind::HttpReset => Mechanism::HttpReset,
            BlockKind::HttpBlockPage => Mechanism::HttpBlockPage,
            BlockKind::Throttle { drop_probability } => Mechanism::Throttle { drop_probability },
        }
    }

    /// Whether domain rules need resolving into IP rules at install.
    fn needs_ip_resolution(&self) -> bool {
        matches!(self, BlockKind::TcpReset | BlockKind::IpDrop)
    }
}

/// The generated censorship model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CensorModel {
    /// No censor anywhere: the false-positive control.
    None,
    /// A national censor installed and lifted by a policy timeline.
    Scheduled {
        /// Blocking mechanism.
        kind: BlockKind,
        /// Install instant.
        onset: SimTime,
        /// Lift instant.
        lift: SimTime,
    },
    /// A standing [`AdaptiveSpec`] (watch stage) driven by a scheduled
    /// [`ReactionPolicy`]: jump to `stage` at `onset`, stand down at
    /// `lift`. Broadcast control events — shard-count invariant.
    Adaptive {
        /// The stage the reaction jumps to.
        stage: Stage,
        /// Escalation instant.
        onset: SimTime,
        /// Stand-down instant.
        lift: SimTime,
        /// The lying TTL on poisoned answers, seconds.
        poison_ttl_secs: u64,
    },
    /// A standing adaptive censor that self-escalates to an IP block
    /// after observing `k` cross-origin fetches. Deterministic per
    /// shard *stream*, so exact-replay oracles hold — but deliberately
    /// **not** shard-count invariant (each shard count observes a
    /// different stream), so detector-class cases never draw it.
    Reactive {
        /// Detected-fetch threshold.
        k: u64,
    },
}

/// The three congestion-vs-censorship scenario shapes (the soundness
/// cases the detector must tell apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CongestionShape {
    /// A transit brownout and no censor anywhere: the detector must
    /// stay completely silent.
    CongestedUncensored,
    /// A real DNS-stage block whose whole window rides a congested
    /// path: the detector must still localise onset and lift.
    CensoredOnCongestedPath,
    /// The brownout opens well before the block lands: congestion must
    /// neither advance the detected onset into the brownout-only days
    /// nor mask the true onset.
    MaskingOnset,
}

/// The routed-congestion layer of a [`CaseClass::Congestion`] case.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CongestionSpec {
    /// Scenario shape (which soundness property this world exercises).
    pub shape: CongestionShape,
    /// AS-topology seed, pre-validated so the censored country and the
    /// target country map to distinct ASes with a markable transit link
    /// between them.
    pub topology_seed: u64,
    /// Background utilisation forced onto hotspot links during the
    /// brownout (above the shed threshold, below total collapse).
    pub level: f64,
    /// Day-aligned brownout window `[start_day, end_day)`.
    pub brownout_days: (u64, u64),
}

/// One generated world: the full reproduction recipe for a simcheck
/// case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldCase {
    /// The seed that generated this case (also the world's RNG seed).
    pub seed: u64,
    /// Which oracle family the case feeds.
    pub class: CaseClass,
    /// Arrival process.
    pub arrival: ArrivalMode,
    /// Censorship model.
    pub censor: CensorModel,
    /// The censored country (unused for [`CensorModel::None`]).
    pub country: CountryCode,
    /// Collection rollup cadence, seconds.
    pub rollup_secs: u64,
    /// Session maintenance cadence, seconds (`None`: no maintenance).
    pub maintenance_secs: Option<u64>,
    /// Returning-visitor probability.
    pub repeat_rate: f64,
    /// Number of volunteer origins (each popularity 5.0).
    pub origins: usize,
    /// Routed-congestion layer (`None` for every non-congestion class,
    /// which keeps those cases byte-identical to their pre-topology
    /// form).
    pub congestion: Option<CongestionSpec>,
    /// Generative-web layer (`None` for every non-corpus class, which
    /// keeps those cases byte-identical to their pre-corpus form).
    pub corpus: Option<CorpusCaseSpec>,
}

/// Countries with enough audience share in the builtin world table that
/// a censored day cell decisively clears the detector's minimum-n guard
/// at detector-class arrival rates (the Turkey fixture proves the
/// weakest of these, weight 3.0, at rate 150).
const DETECTOR_COUNTRIES: [&str; 8] = ["CN", "IN", "PK", "TR", "IR", "RU", "BR", "ID"];

/// Wider country pool for equivalence-class cases (no statistical
/// requirement).
const ANY_COUNTRIES: [&str; 12] = [
    "CN", "IN", "PK", "TR", "IR", "RU", "BR", "ID", "US", "DE", "JP", "EG",
];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

impl WorldCase {
    /// Deterministically generate the case a `(class, seed)` pair
    /// describes — the whole reproduction recipe for a failing case.
    pub fn from_seed(class: CaseClass, seed: u64) -> WorldCase {
        let mut rng = TestRng::new(seed);
        match class {
            CaseClass::Detector => WorldCase::detector_case(seed, &mut rng),
            CaseClass::Equivalence => WorldCase::equivalence_case(seed, &mut rng),
            CaseClass::Congestion => WorldCase::congestion_case(seed, &mut rng),
            CaseClass::Corpus => WorldCase::corpus_case(seed, &mut rng),
        }
    }

    /// Corpus-class cases: detector-powered worlds measuring two sites
    /// of a small generated corpus. The censor model mirrors the
    /// detector class (day-aligned hard windows against the rank-0
    /// domain), and roughly half the cases additionally schedule a
    /// *benign* day-aligned origin outage on the measured rank-1 domain
    /// — globally visible, so the detector's cross-region control must
    /// keep it out of every verdict. The arrival rate is doubled
    /// relative to the detector class because the visit stream
    /// round-robins over two tasks: per-task daily cells keep the same
    /// decisive statistical power.
    fn corpus_case(seed: u64, rng: &mut TestRng) -> WorldCase {
        let days = rng.range_u64(6, 10); // 6..=9
        let rate = 300.0 + rng.unit() * 80.0;
        let onset_day = rng.range_u64(1, days - 3);
        let lift_day = rng.range_u64(onset_day + 2, days - 1);
        let onset = SimTime::from_secs(onset_day * 86_400);
        let lift = SimTime::from_secs(lift_day * 86_400);
        let censor = match rng.index(4) {
            0 => CensorModel::None,
            1 => {
                let stage = if rng.bool() {
                    Stage::DnsPoison
                } else {
                    Stage::IpBlock
                };
                CensorModel::Adaptive {
                    stage,
                    onset,
                    lift,
                    poison_ttl_secs: rng.range_u64(60, 601),
                }
            }
            _ => {
                let kinds = [
                    BlockKind::DnsNxDomain,
                    BlockKind::DnsDrop,
                    BlockKind::DnsSinkhole,
                    BlockKind::TcpReset,
                    BlockKind::IpDrop,
                    BlockKind::HttpDrop,
                    BlockKind::HttpReset,
                    BlockKind::HttpBlockPage,
                ];
                CensorModel::Scheduled {
                    kind: pick(rng, &kinds),
                    onset,
                    lift,
                }
            }
        };
        // Benign outages stay short (1–2 days) so the disrupted domain's
        // whole-run success rate keeps every healthy region decisively
        // passing — long global outages degenerate into the
        // nothing-passes-anywhere case the detector already skips.
        let disruption = if rng.bool() {
            let d0 = rng.range_u64(1, days - 2); // 1..=days-3
            let d1 = d0 + rng.range_u64(1, 3); // 1–2 days, ends <= days-1
            Some((d0, d1))
        } else {
            None
        };
        WorldCase {
            seed,
            class: CaseClass::Corpus,
            arrival: ArrivalMode::Deployment { days, rate },
            censor,
            country: country(pick(rng, &DETECTOR_COUNTRIES)),
            rollup_secs: 86_400,
            maintenance_secs: if rng.bool() { Some(3_600) } else { None },
            repeat_rate: rng.unit() * 0.08,
            origins: 2,
            congestion: None,
            corpus: Some(CorpusCaseSpec {
                num_domains: 4 + rng.index(4), // 4..=7
                corpus_seed: rng.next_u64(),
                disruption,
            }),
        }
    }

    /// The measured (and, when censored, blocked) domain: the corpus'
    /// rank-0 site for corpus cases, [`TARGET`] for every other class.
    pub fn target_domain(&self) -> String {
        match &self.corpus {
            Some(spec) => spec.corpus().domain(0).to_string(),
            None => TARGET.to_string(),
        }
    }

    /// The benignly measured companion domain (the corpus' rank-1
    /// site), for corpus cases only.
    pub fn companion_domain(&self) -> Option<String> {
        self.corpus
            .as_ref()
            .map(|spec| spec.corpus().domain(1).to_string())
    }

    /// A topology seed under which `cc` and the target country (US) map
    /// to distinct ASes with a markable transit link between them, so
    /// the forced hotspot actually sits on the measured path. Walks
    /// deterministically from the case's draw until one validates.
    fn validated_topology_seed(mut seed: u64, cc: CountryCode) -> u64 {
        loop {
            let mut topo = netsim::AsTopology::generate(TopologyConfig::with_seed(seed));
            if topo.ensure_hotspot_between(cc, country("US")).is_some() {
                return seed;
            }
            seed = sim_core::splitmix_mix(seed ^ 0x00C0_4657);
        }
    }

    /// Congestion-class cases: detector-powered routed worlds with a
    /// day-aligned transit brownout, in one of the three
    /// [`CongestionShape`]s. Censors, when present, are DNS-stage hard
    /// blocks — the censorship fires before the congested transit hop,
    /// so the block keeps full failure visibility and localisation
    /// stays a pure detector-soundness question.
    fn congestion_case(seed: u64, rng: &mut TestRng) -> WorldCase {
        let days = rng.range_u64(6, 10); // 6..=9
                                         // Congestion-class worlds need roughly double the detector-class
                                         // arrival rate: during a brownout the result *submissions* ride
                                         // the same congested transit hop as the measurements, so a
                                         // censored-day cell loses a shed-probability fraction of its
                                         // records before the detector ever sees them. The rate must keep
                                         // the surviving cell decisively above `min_measurements` for
                                         // every per-shard arrival draw, or shard-count invariance decays
                                         // into a coin flip at the min-n guard.
        let rate = 320.0 + rng.unit() * 80.0;
        let cc = country(pick(rng, &DETECTOR_COUNTRIES));
        let shapes = [
            CongestionShape::CongestedUncensored,
            CongestionShape::CensoredOnCongestedPath,
            CongestionShape::MaskingOnset,
        ];
        let shape = shapes[rng.index(shapes.len())];
        let dns_kinds = [
            BlockKind::DnsNxDomain,
            BlockKind::DnsDrop,
            BlockKind::DnsSinkhole,
        ];
        let (censor, brownout_days) = match shape {
            CongestionShape::CongestedUncensored => {
                let b0 = rng.range_u64(1, days - 1);
                let b1 = rng.range_u64(b0 + 1, days);
                (CensorModel::None, (b0, b1))
            }
            CongestionShape::CensoredOnCongestedPath => {
                // The detector-class block window, with the brownout
                // covering it entirely.
                let onset_day = rng.range_u64(1, days - 3);
                let lift_day = rng.range_u64(onset_day + 2, days - 1);
                let b0 = rng.range_u64(0, onset_day + 1);
                let b1 = rng.range_u64(lift_day, days + 1);
                (
                    CensorModel::Scheduled {
                        kind: pick(rng, &dns_kinds),
                        onset: SimTime::from_secs(onset_day * 86_400),
                        lift: SimTime::from_secs(lift_day * 86_400),
                    },
                    (b0, b1),
                )
            }
            CongestionShape::MaskingOnset => {
                // At least two brownout-only days before the block
                // lands, so an onset advanced by congestion would be
                // unambiguously wrong.
                let onset_day = rng.range_u64(2, (days - 3).max(3));
                let lift_day = rng.range_u64(onset_day + 2, days - 1);
                let b0 = rng.range_u64(0, onset_day - 1);
                let b1 = rng.range_u64(onset_day + 1, days + 1);
                (
                    CensorModel::Scheduled {
                        kind: pick(rng, &dns_kinds),
                        onset: SimTime::from_secs(onset_day * 86_400),
                        lift: SimTime::from_secs(lift_day * 86_400),
                    },
                    (b0, b1),
                )
            }
        };
        let congestion = CongestionSpec {
            shape,
            topology_seed: WorldCase::validated_topology_seed(rng.next_u64(), cc),
            // Above the default shed threshold (0.7), below collapse:
            // enough shedding to forge a censorship-like signature if
            // the detector were naive, enough survivors (per-link pass
            // probability ≥ ~0.55) that censored cells stay decisively
            // powered after submission loss.
            level: 0.76 + rng.unit() * 0.10,
            brownout_days,
        };
        WorldCase {
            seed,
            class: CaseClass::Congestion,
            arrival: ArrivalMode::Deployment { days, rate },
            censor,
            country: cc,
            rollup_secs: 86_400,
            maintenance_secs: if rng.bool() { Some(3_600) } else { None },
            repeat_rate: rng.unit() * 0.08,
            origins: 2,
            congestion: Some(congestion),
            corpus: None,
        }
    }

    fn detector_case(seed: u64, rng: &mut TestRng) -> WorldCase {
        let days = rng.range_u64(6, 10); // 6..=9
        let rate = 150.0 + rng.unit() * 40.0;
        // Day-aligned hard windows with clear days on both sides, so
        // every detector window is unambiguously censored or clear.
        let onset_day = rng.range_u64(1, days - 3);
        let lift_day = rng.range_u64(onset_day + 2, days - 1);
        let onset = SimTime::from_secs(onset_day * 86_400);
        let lift = SimTime::from_secs(lift_day * 86_400);
        let censor = match rng.index(4) {
            0 => CensorModel::None,
            1 => {
                let stage = if rng.bool() {
                    Stage::DnsPoison
                } else {
                    Stage::IpBlock
                };
                CensorModel::Adaptive {
                    stage,
                    onset,
                    lift,
                    // Short lying TTLs: the poisoning bleed into the
                    // lift day stays far below the detector's decision
                    // boundary, keeping lift localisation unambiguous.
                    poison_ttl_secs: rng.range_u64(60, 601),
                }
            }
            _ => {
                let kinds = [
                    BlockKind::DnsNxDomain,
                    BlockKind::DnsDrop,
                    BlockKind::DnsSinkhole,
                    BlockKind::TcpReset,
                    BlockKind::IpDrop,
                    BlockKind::HttpDrop,
                    BlockKind::HttpReset,
                    BlockKind::HttpBlockPage,
                ];
                CensorModel::Scheduled {
                    kind: pick(rng, &kinds),
                    onset,
                    lift,
                }
            }
        };
        WorldCase {
            seed,
            class: CaseClass::Detector,
            arrival: ArrivalMode::Deployment { days, rate },
            censor,
            country: country(pick(rng, &DETECTOR_COUNTRIES)),
            rollup_secs: 86_400,
            maintenance_secs: if rng.bool() { Some(3_600) } else { None },
            // Repeat visitors carry warm *browser caches* that mask the
            // block (the paper's §3.1 cache interference) — and the
            // detector's per-IP cap lets one frequently returning client
            // stack several cached successes into a censored day cell.
            // Above ~0.25 the censored-day success rate drifts into the
            // binomial test's ambiguous zone and verdicts genuinely
            // depend on per-shard arrival draws, so detector-class cases
            // keep the rate low enough that every censored cell stays
            // decisive. (Equivalence-class cases explore up to 0.5.)
            repeat_rate: rng.unit() * 0.08,
            origins: 2,
            congestion: None,
            corpus: None,
        }
    }

    fn equivalence_case(seed: u64, rng: &mut TestRng) -> WorldCase {
        let arrival = if rng.bool() {
            ArrivalMode::Deployment {
                days: rng.range_u64(2, 4),
                rate: 15.0 + rng.unit() * 25.0,
            }
        } else {
            ArrivalMode::Batch {
                visits: rng.range_u64(80, 301),
                gap_ms: rng.range_u64(800, 4_001),
            }
        };
        let span_secs = match arrival {
            ArrivalMode::Deployment { days, .. } => days * 86_400,
            ArrivalMode::Batch { visits, gap_ms } => (visits * gap_ms) / 1_000,
        };
        // Two arbitrary (not day-aligned) instants inside the span.
        let mut change_time = || SimTime::from_secs(rng.range_u64(1, span_secs.max(2)));
        let (a, b) = (change_time(), change_time());
        let (onset, lift) = if a <= b { (a, b) } else { (b, a) };
        let censor = match rng.index(5) {
            0 => CensorModel::None,
            1 => CensorModel::Reactive {
                k: rng.range_u64(3, 41),
            },
            2 => {
                let stages = [
                    Stage::RstInjection,
                    Stage::Throttle,
                    Stage::DnsPoison,
                    Stage::IpBlock,
                    Stage::Retaliate,
                ];
                CensorModel::Adaptive {
                    stage: pick(rng, &stages),
                    onset,
                    lift,
                    // Lying TTLs up to two days: the poisoning may
                    // deliberately outlive the block.
                    poison_ttl_secs: rng.range_u64(60, 172_801),
                }
            }
            _ => {
                let kinds = [
                    BlockKind::DnsNxDomain,
                    BlockKind::DnsDrop,
                    BlockKind::DnsSinkhole,
                    BlockKind::TcpReset,
                    BlockKind::IpDrop,
                    BlockKind::HttpDrop,
                    BlockKind::HttpReset,
                    BlockKind::HttpBlockPage,
                    BlockKind::Throttle {
                        drop_probability: 0.3 + rng.unit() * 0.6,
                    },
                ];
                CensorModel::Scheduled {
                    kind: pick(rng, &kinds),
                    onset,
                    lift,
                }
            }
        };
        WorldCase {
            seed,
            class: CaseClass::Equivalence,
            arrival,
            censor,
            country: country(pick(rng, &ANY_COUNTRIES)),
            rollup_secs: pick(rng, &[3_600u64, 21_600, 86_400]),
            maintenance_secs: if rng.bool() {
                Some(pick(rng, &[600u64, 3_600]))
            } else {
                None
            },
            repeat_rate: rng.unit() * 0.5,
            origins: 1 + rng.index(3),
            congestion: None,
            corpus: None,
        }
    }

    // ---------------------------------------------------- materialise

    /// The [`WorldRecipe`] this case describes. Every case keeps its
    /// visit log ([`Retain::Full`]), so the oracles can difference it.
    pub fn recipe(&self) -> WorldRecipe {
        let mut recipe = match self.arrival {
            ArrivalMode::Deployment { days, rate } => WorldRecipe::deployment(DeploymentConfig {
                duration: SimDuration::from_days(days),
                visits_per_day_per_weight: rate,
                repeat_visitor_rate: self.repeat_rate,
                returning_pool: 128,
            }),
            ArrivalMode::Batch { visits, gap_ms } => WorldRecipe::batch(BatchConfig {
                visits,
                mean_gap: SimDuration::from_millis(gap_ms),
                repeat_visitor_rate: self.repeat_rate,
                client_pool: 64,
            }),
        };
        recipe = recipe
            .retain_visits(Retain::Full)
            .with_rollups(SimDuration::from_secs(self.rollup_secs));
        if let Some(m) = self.maintenance_secs {
            recipe = recipe.with_maintenance(SimDuration::from_secs(m));
        }
        let target = self.target_domain();
        recipe = match self.censor {
            CensorModel::None | CensorModel::Reactive { .. } => recipe,
            CensorModel::Scheduled { kind, onset, lift } => {
                let mut spec = CensorSpec::new(
                    self.country,
                    CensorPolicy::named(CENSOR_NAME).block_domain(&target, kind.mechanism()),
                );
                if kind.needs_ip_resolution() {
                    spec = spec.with_ip_resolution();
                }
                recipe.with_timeline(
                    PolicyTimeline::new()
                        .at(onset, PolicyChange::Install(spec))
                        .at(
                            lift,
                            PolicyChange::Lift {
                                name: CENSOR_NAME.into(),
                            },
                        ),
                )
            }
            CensorModel::Adaptive {
                stage, onset, lift, ..
            } => recipe.with_reaction(
                ReactionPolicy::new(CENSOR_NAME)
                    .at(onset, Reaction::SetStage(stage))
                    .at(lift, Reaction::StandDown),
            ),
        };
        if let Some(cong) = self.congestion {
            // The brownout is a pair of world changes: raise the hotspot
            // background at the window open, drop it at the close.
            // Data-plane only — no policy change, no control signal, no
            // pipeline recompile — so the control-plane conservation
            // oracle is untouched by congestion events.
            let (b0, b1) = cong.brownout_days;
            for (day, level) in [(b0, cong.level), (b1, 0.0)] {
                let change = WorldChange::HotspotBackground(level);
                recipe = recipe.change_at(SimTime::from_secs(day * 86_400), change);
            }
        }
        if let Some(spec) = self.corpus {
            if let Some((d0, d1)) = spec.disruption {
                // The benign outage is a pair of world changes swapping
                // the rank-1 site's handler in place (no DNS or IP churn,
                // so shard determinism is untouched) — the same vehicle
                // the flagship world report uses.
                let disruption = websim::corpus::Disruption {
                    day: d0,
                    duration_days: d1 - d0,
                    site: 1,
                    kind: websim::corpus::DisruptionKind::OriginOutage,
                };
                for (day, revert) in [(d0, false), (d1, true)] {
                    let change = WorldChange::Disruption {
                        corpus: spec.config(),
                        corpus_seed: spec.corpus_seed,
                        disruption,
                        revert,
                    };
                    recipe = recipe.change_at(SimTime::from_secs(day * 86_400), change);
                }
            }
        }
        recipe
    }

    /// The world every shard of this case builds: ideal paths, the
    /// measurement target — the constant probe server, or a generated
    /// corpus whose rank-0 and rank-1 sites are measured for corpus
    /// cases — a standing adaptive censor watching the target when the
    /// model calls for one, and an Encore deployment on the case's
    /// volunteer origins.
    pub fn world(&self) -> WorldBuild {
        let mut network = NetworkScenario::new().with_ideal_paths();
        let targets = match &self.corpus {
            Some(_) => vec![Domain::CorpusRank(0), Domain::CorpusRank(1)],
            None => {
                let favicon = HttpResponse::ok(ContentType::Image, 500);
                network = network.with_server(TARGET, country("US"), favicon);
                vec![Domain::Name(TARGET.into())]
            }
        };
        if let Some(cong) = self.congestion {
            // The censored country's path to the (US-hosted) target
            // crosses a hotspot transit link, whose capacity
            // `build_shard` scales by the shard count: utilisation — and
            // thus verdicts — stays invariant in how the load is split.
            network = network.with_topology(
                netsim::TopologySpec::with_seed(cong.topology_seed)
                    .with_hotspot_between(self.country, country("US")),
            );
        }
        let standing = AdaptiveSpec::new(CENSOR_NAME, self.country, Vec::new());
        let standing = match self.censor {
            CensorModel::Adaptive {
                poison_ttl_secs, ..
            } => Some(standing.with_poison_ttl(SimDuration::from_secs(poison_ttl_secs))),
            CensorModel::Reactive { k } => Some(standing.ip_block_after(k)),
            _ => None,
        };
        WorldBuild {
            network,
            corpus: self.corpus.map(|spec| (spec.config(), spec.corpus_seed)),
            adaptive: Vec::from_iter(standing.map(|spec| (spec, vec![targets[0].clone()]))),
            censors: Vec::new(),
            targets,
            origins: (0..self.origins)
                .map(|i| OriginSite::academic(format!("origin-{i}.example")).with_popularity(5.0))
                .collect(),
        }
    }

    /// The whole case as a [`Scenario`]: its world, the builtin world's
    /// audience, and its recipe — what every oracle runs and what crosses
    /// the process transport's pipe.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            world: self.world(),
            audience: Audience::world(&World::builtin()),
            recipe: self.recipe(),
        }
    }

    // ---------------------------------------------------- ground truth

    /// How many policy-timeline changes the engine must report applied.
    pub fn expected_policy_changes(&self) -> usize {
        match self.censor {
            CensorModel::Scheduled { .. } => 2,
            _ => 0,
        }
    }

    /// How many control signals the engine must report applied.
    pub fn expected_control_signals(&self) -> usize {
        match self.censor {
            CensorModel::Adaptive { .. } => 2,
            _ => 0,
        }
    }

    /// The day-aligned hard-block window `(onset_day, lift_day)` the
    /// detector must localise, if this case has one.
    pub fn hard_window_days(&self) -> Option<(u64, u64)> {
        if !matches!(
            self.class,
            CaseClass::Detector | CaseClass::Congestion | CaseClass::Corpus
        ) {
            return None;
        }
        match self.censor {
            CensorModel::Scheduled { onset, lift, .. }
            | CensorModel::Adaptive { onset, lift, .. } => {
                Some((onset.as_secs() / 86_400, lift.as_secs() / 86_400))
            }
            _ => None,
        }
    }

    /// Whether this case generates an entirely uncensored world (the
    /// false-positive control).
    pub fn is_uncensored(&self) -> bool {
        matches!(self.censor, CensorModel::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recipe's censor reaction policies, read through serde (the
    /// engine keeps them crate-private).
    fn reactions(recipe: &WorldRecipe) -> Vec<ReactionPolicy> {
        #[derive(Deserialize)]
        struct Reactions {
            reactions: Vec<ReactionPolicy>,
        }
        let json = serde_json::to_string(recipe).expect("serialize recipe");
        serde_json::from_str::<Reactions>(&json)
            .expect("a recipe lists its reactions")
            .reactions
    }

    #[test]
    fn case_generation_is_deterministic_in_the_seed() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            for class in [
                CaseClass::Equivalence,
                CaseClass::Detector,
                CaseClass::Congestion,
                CaseClass::Corpus,
            ] {
                assert_eq!(
                    WorldCase::from_seed(class, seed),
                    WorldCase::from_seed(class, seed)
                );
            }
        }
    }

    #[test]
    fn congestion_cases_keep_their_statistical_guarantees() {
        let mut shapes_seen = [false; 3];
        for seed in 0..150u64 {
            let case = WorldCase::from_seed(CaseClass::Congestion, seed);
            let ArrivalMode::Deployment { days, rate } = case.arrival else {
                panic!("congestion cases must be deployment worlds");
            };
            assert!((6..=9).contains(&days));
            assert!(rate >= 300.0, "under-powered rate {rate}");
            assert_eq!(case.rollup_secs, 86_400, "windows must match rollups");
            assert!(DETECTOR_COUNTRIES.contains(&case.country.as_str()));
            let cong = case.congestion.expect("congestion layer present");
            assert!(
                cong.level > 0.7 && cong.level < 0.87,
                "brownout level {} must exceed the shed threshold without collapsing",
                cong.level
            );
            let (b0, b1) = cong.brownout_days;
            assert!(b0 < b1 && b1 <= days, "bad brownout window ({b0}, {b1})");
            match cong.shape {
                CongestionShape::CongestedUncensored => {
                    shapes_seen[0] = true;
                    assert!(case.is_uncensored(), "shape promises no censor");
                }
                CongestionShape::CensoredOnCongestedPath => {
                    shapes_seen[1] = true;
                    let (onset, lift) = case.hard_window_days().expect("block window");
                    assert!(
                        b0 <= onset && lift <= b1,
                        "brownout ({b0}, {b1}) must cover the block ({onset}, {lift})"
                    );
                }
                CongestionShape::MaskingOnset => {
                    shapes_seen[2] = true;
                    let (onset, _) = case.hard_window_days().expect("block window");
                    assert!(
                        b0 + 2 <= onset,
                        "need >=2 brownout-only days before onset ({b0}, onset {onset})"
                    );
                    assert!(b1 > onset, "brownout must still be open at onset");
                }
            }
            match case.censor {
                CensorModel::None => {
                    assert_eq!(cong.shape, CongestionShape::CongestedUncensored)
                }
                CensorModel::Scheduled { kind, .. } => assert!(
                    matches!(
                        kind,
                        BlockKind::DnsNxDomain | BlockKind::DnsDrop | BlockKind::DnsSinkhole
                    ),
                    "congestion-class blocks must fire at the DNS stage, got {kind:?}"
                ),
                other => panic!("unexpected censor model {other:?}"),
            }
            if let Some((onset, lift)) = case.hard_window_days() {
                assert!(onset >= 1, "need a clear day before onset");
                assert!(lift >= onset + 2, "window too short to flag");
                assert!(lift < days, "need a clear day after lift");
            }
            // The validated topology seed really does give the censored
            // country a hotspot on its path to the target.
            let mut topo =
                netsim::AsTopology::generate(TopologyConfig::with_seed(cong.topology_seed));
            assert!(
                topo.ensure_hotspot_between(case.country, country("US"))
                    .is_some(),
                "topology seed {} has no markable path",
                cong.topology_seed
            );
        }
        assert!(
            shapes_seen.iter().all(|s| *s),
            "all three shapes generated: {shapes_seen:?}"
        );
    }

    #[test]
    fn detector_cases_keep_their_statistical_guarantees() {
        for seed in 0..300u64 {
            let case = WorldCase::from_seed(CaseClass::Detector, seed);
            let ArrivalMode::Deployment { days, rate } = case.arrival else {
                panic!("detector cases must be deployment worlds");
            };
            assert!((6..=9).contains(&days));
            assert!(rate >= 150.0, "under-powered rate {rate}");
            assert_eq!(case.rollup_secs, 86_400, "windows must match rollups");
            assert!(DETECTOR_COUNTRIES.contains(&case.country.as_str()));
            if let Some((onset, lift)) = case.hard_window_days() {
                assert!(onset >= 1, "need a clear day before onset");
                assert!(lift >= onset + 2, "window too short to flag");
                assert!(lift < days, "need a clear day after lift");
            }
            match case.censor {
                CensorModel::Reactive { .. } => {
                    panic!("traffic-reactive censors are not shard-count invariant")
                }
                CensorModel::Adaptive {
                    stage,
                    poison_ttl_secs,
                    ..
                } => {
                    assert!(
                        matches!(stage, Stage::DnsPoison | Stage::IpBlock),
                        "soft stage {stage:?} in detector case"
                    );
                    assert!(stage != Stage::Retaliate, "retaliation blinds the detector");
                    assert!(
                        poison_ttl_secs <= 600,
                        "lying TTL too long: {poison_ttl_secs}"
                    );
                }
                CensorModel::Scheduled { kind, .. } => {
                    assert!(
                        !matches!(kind, BlockKind::Throttle { .. }),
                        "throttling is not a localisable hard block"
                    );
                }
                CensorModel::None => {}
            }
        }
    }

    #[test]
    fn corpus_cases_keep_their_statistical_guarantees() {
        let mut saw_disruption = false;
        let mut saw_uncensored = false;
        for seed in 0..200u64 {
            let case = WorldCase::from_seed(CaseClass::Corpus, seed);
            let ArrivalMode::Deployment { days, rate } = case.arrival else {
                panic!("corpus cases must be deployment worlds");
            };
            assert!((6..=9).contains(&days));
            assert!(
                rate >= 300.0,
                "under-powered rate {rate} for two round-robin tasks"
            );
            assert_eq!(case.rollup_secs, 86_400, "windows must match rollups");
            assert!(DETECTOR_COUNTRIES.contains(&case.country.as_str()));
            let spec = case.corpus.expect("corpus layer present");
            assert!((4..=7).contains(&spec.num_domains));
            let corpus = spec.corpus();
            assert_eq!(corpus.len(), spec.num_domains);
            assert_eq!(case.target_domain(), corpus.domain(0));
            assert_eq!(case.companion_domain().as_deref(), Some(corpus.domain(1)));
            if let Some((onset, lift)) = case.hard_window_days() {
                assert!(onset >= 1, "need a clear day before onset");
                assert!(lift >= onset + 2, "window too short to flag");
                assert!(lift < days, "need a clear day after lift");
            }
            match case.censor {
                CensorModel::Reactive { .. } => {
                    panic!("traffic-reactive censors are not shard-count invariant")
                }
                CensorModel::Adaptive {
                    stage,
                    poison_ttl_secs,
                    ..
                } => {
                    assert!(
                        matches!(stage, Stage::DnsPoison | Stage::IpBlock),
                        "soft stage {stage:?} in corpus case"
                    );
                    assert!(stage != Stage::Retaliate, "retaliation blinds the detector");
                    assert!(
                        poison_ttl_secs <= 600,
                        "lying TTL too long: {poison_ttl_secs}"
                    );
                }
                CensorModel::Scheduled { kind, .. } => {
                    assert!(
                        !matches!(kind, BlockKind::Throttle { .. }),
                        "throttling is not a localisable hard block"
                    );
                }
                CensorModel::None => saw_uncensored = true,
            }
            if let Some((d0, d1)) = spec.disruption {
                saw_disruption = true;
                assert!(d0 >= 1, "day 0 must stay healthy");
                assert!(d1 > d0 && d1 - d0 <= 2, "benign outages stay short");
                assert!(d1 < days, "the final day must be healthy again");
            }
        }
        assert!(saw_disruption, "benign disruptions generated");
        assert!(saw_uncensored, "uncensored corpus worlds generated");
    }

    #[test]
    fn equivalence_cases_explore_the_wide_space() {
        let mut saw_batch = false;
        let mut saw_deployment = false;
        let mut saw_reactive = false;
        let mut saw_throttle = false;
        let mut saw_retaliate = false;
        for seed in 0..400u64 {
            let case = WorldCase::from_seed(CaseClass::Equivalence, seed);
            match case.arrival {
                ArrivalMode::Batch { visits, .. } => {
                    saw_batch = true;
                    assert!(visits <= 300, "equivalence worlds stay tiny");
                }
                ArrivalMode::Deployment { days, .. } => {
                    saw_deployment = true;
                    assert!(days <= 3, "equivalence worlds stay tiny");
                }
            }
            match case.censor {
                CensorModel::Reactive { k } => {
                    saw_reactive = true;
                    assert!(k >= 3);
                }
                CensorModel::Scheduled {
                    kind: BlockKind::Throttle { drop_probability },
                    ..
                } => {
                    saw_throttle = true;
                    assert!((0.3..0.9).contains(&drop_probability));
                }
                CensorModel::Adaptive { stage, .. } => {
                    saw_retaliate |= stage == Stage::Retaliate;
                }
                _ => {}
            }
        }
        assert!(saw_batch && saw_deployment, "both arrival modes generated");
        assert!(saw_reactive, "reactive censors generated");
        assert!(saw_throttle, "throttling censors generated");
        assert!(saw_retaliate, "retaliation generated");
    }

    #[test]
    fn generated_recipes_materialise() {
        // Every case yields a recipe and a buildable world, and the
        // ground-truth accessors are consistent with the model.
        for seed in 0..40u64 {
            for class in [
                CaseClass::Equivalence,
                CaseClass::Detector,
                CaseClass::Congestion,
                CaseClass::Corpus,
            ] {
                let case = WorldCase::from_seed(class, seed);
                let recipe = case.recipe();
                match case.censor {
                    CensorModel::Scheduled { .. } => {
                        assert_eq!(recipe.timeline().len(), 2);
                        assert!(reactions(&recipe).is_empty());
                    }
                    CensorModel::Adaptive { .. } => {
                        assert!(recipe.timeline().is_empty());
                        assert_eq!(reactions(&recipe).len(), 1);
                        assert_eq!(reactions(&recipe)[0].len(), 2);
                    }
                    _ => {
                        assert!(recipe.timeline().is_empty());
                        assert!(reactions(&recipe).is_empty());
                    }
                }
                let world = case.world();
                let routed = world.network.topology.is_some();
                let (net, sys) = world.build(population::ShardContext {
                    index: 0,
                    shards: 1,
                });
                assert_eq!(sys.origins.len(), case.origins);
                let expects_standing = matches!(
                    case.censor,
                    CensorModel::Adaptive { .. } | CensorModel::Reactive { .. }
                );
                assert_eq!(net.middleboxes().len(), usize::from(expects_standing));
                assert_eq!(
                    routed,
                    case.congestion.is_some(),
                    "routed worlds carry a topology, flat worlds none"
                );
            }
        }
    }
}
