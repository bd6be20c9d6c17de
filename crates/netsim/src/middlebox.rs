//! Interception points for on-path middleboxes (censors).
//!
//! Paper §3.1's threat model gives the adversary three hooks: the DNS
//! lookup, the TCP handshake, and the HTTP exchange. A [`Middlebox`]
//! implements any subset of those hooks; the [`crate::network::Network`] consults
//! every applicable middlebox at each stage of a fetch and the first
//! non-`Pass` action wins (middleboxes closer to the head of the list are
//! "closer to the client").
//!
//! The `censor` crate provides the actual censorship policies; this module
//! only defines the mechanism, keeping the network substrate ignorant of
//! censorship semantics.

use crate::host::Host;
use crate::http::{HttpRequest, HttpResponse};
use crate::tcp::TcpAttempt;
use sim_core::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Context handed to every interception hook.
#[derive(Debug, Clone, Copy)]
pub struct StageContext<'a> {
    /// The client whose traffic is being inspected.
    pub client: &'a Host,
    /// Current simulation time.
    pub now: SimTime,
}

/// Decision at the DNS stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsAction {
    /// No interference.
    Pass,
    /// Forge an authoritative NXDOMAIN.
    NxDomain,
    /// Forge an answer pointing at `0` — e.g. a block-page server or an
    /// unroutable sinkhole address.
    Redirect(Ipv4Addr),
    /// Forge an answer **with a lying TTL**: like [`DnsAction::Redirect`]
    /// but the censor also chooses how long resolvers and browsers cache
    /// the lie. A long TTL makes the poisoning outlive the block itself
    /// (returning clients keep hitting the sinkhole after the censor
    /// stands down); a short one makes it evaporate quickly.
    Poison {
        /// The forged address.
        ip: Ipv4Addr,
        /// The TTL the forged answer carries.
        ttl: SimDuration,
    },
    /// Silently drop the query (client times out).
    Drop,
}

/// Decision at the TCP stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpAction {
    /// No interference.
    Pass,
    /// Inject a RST (fast, observable failure).
    Reset,
    /// Silently drop SYNs (slow timeout).
    Drop,
}

/// Decision at the HTTP request or response stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpAction {
    /// No interference.
    Pass,
    /// Silently drop the request/response (client times out).
    Drop,
    /// Reset the connection.
    Reset,
    /// Serve a block page in place of the real response.
    BlockPage,
    /// 302-redirect the client to a block-page URL.
    RedirectTo(String),
}

/// An on-path middlebox. All hooks default to `Pass`, so implementations
/// override only the stages they interfere with.
pub trait Middlebox {
    /// Diagnostic name: the key [`crate::network::Network::remove_middlebox`],
    /// `replace_middlebox` and `signal_middlebox` look middleboxes up by.
    fn name(&self) -> &str;

    /// Whether this middlebox sits on `client`'s path (e.g. a national
    /// censor applies to clients in its country).
    ///
    /// **Stability contract:** for a given `client`, the answer must stay
    /// constant for as long as this middlebox is installed. The session
    /// layer ([`crate::session::FetchSession`]) matches middleboxes once
    /// per client and caches the result until the network's middlebox
    /// *set* changes — an implementation whose answer varies with time or
    /// internal state would be consulted against a stale pipeline.
    /// Per-request variability belongs in the `on_*` hooks, which run on
    /// every fetch.
    fn applies_to(&self, client: &Host) -> bool;

    /// Inspect a DNS query for `name`.
    fn on_dns(&self, _name: &str, _ctx: &StageContext<'_>) -> DnsAction {
        DnsAction::Pass
    }

    /// Whether [`Middlebox::on_dns`]'s verdict is **pure**: for a fixed
    /// (client, name) it returns the same action regardless of `ctx.now`
    /// and of any internal state that changes outside
    /// [`Middlebox::on_control`]. Sessions memoise the DNS verdict per
    /// host for pipelines made entirely of pure middleboxes, invalidating
    /// on middlebox-set and behaviour-generation bumps — so a middlebox
    /// with a time-windowed or self-mutating DNS hook must keep the
    /// conservative default (`false`).
    fn dns_verdict_is_pure(&self) -> bool {
        false
    }

    /// Inspect a TCP connection attempt.
    fn on_tcp(&self, _attempt: &TcpAttempt, _ctx: &StageContext<'_>) -> TcpAction {
        TcpAction::Pass
    }

    /// Inspect an outgoing HTTP request.
    fn on_http_request(&self, _req: &HttpRequest, _ctx: &StageContext<'_>) -> HttpAction {
        HttpAction::Pass
    }

    /// Inspect an HTTP response on its way back to the client. Keyword
    /// censors look at `resp.keywords` here.
    fn on_http_response(
        &self,
        _req: &HttpRequest,
        _resp: &HttpResponse,
        _ctx: &StageContext<'_>,
    ) -> HttpAction {
        HttpAction::Pass
    }

    /// Deliver an out-of-band control signal to a *stateful* middlebox —
    /// the hook the world engine's censor-reaction events use to drive
    /// strategy changes (escalate, stand down, jump to a stage) on a
    /// live middlebox without reinstalling it. The signal vocabulary is
    /// defined by the implementation (`censor::adaptive` documents its
    /// own); the substrate stays ignorant of censorship semantics.
    ///
    /// Returns whether the signal was understood and changed state.
    /// Implementations must keep [`Middlebox::applies_to`] stable across
    /// control signals (per its contract): a signal may change *what the
    /// hooks do*, never *which clients the box sits in front of* — so
    /// compiled session pipelines stay valid and no generation bump is
    /// needed.
    fn on_control(&self, _signal: &str, _now: SimTime) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{country, IspClass};
    use crate::host::HostId;

    struct Noop;
    impl Middlebox for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn applies_to(&self, _client: &Host) -> bool {
            true
        }
    }

    #[test]
    fn default_hooks_pass() {
        let mb = Noop;
        let client = Host::new(
            HostId(0),
            Ipv4Addr::new(100, 0, 0, 2),
            country("US"),
            IspClass::Residential,
        );
        let ctx = StageContext {
            client: &client,
            now: SimTime::ZERO,
        };
        assert_eq!(mb.on_dns("example.com", &ctx), DnsAction::Pass);
        assert_eq!(
            mb.on_tcp(&TcpAttempt::http(Ipv4Addr::new(1, 1, 1, 1)), &ctx),
            TcpAction::Pass
        );
        let req = HttpRequest::get("http://example.com/");
        assert_eq!(mb.on_http_request(&req, &ctx), HttpAction::Pass);
        let resp = HttpResponse::ok(crate::http::ContentType::Html, 10);
        assert_eq!(mb.on_http_response(&req, &resp, &ctx), HttpAction::Pass);
        assert!(
            !mb.on_control("escalate", SimTime::ZERO),
            "stateless middleboxes ignore control signals"
        );
    }
}
