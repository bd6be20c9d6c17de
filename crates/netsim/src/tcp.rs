//! TCP connection attempts.
//!
//! Encore never needs full byte-stream semantics: what matters is whether
//! a connection to a (possibly filtered) server establishes, is reset, or
//! times out — and how long each outcome takes, since the browser surfaces
//! failure timing through `onerror`. A censor that injects RSTs produces a
//! *fast* failure; one that silently drops SYNs produces a *slow* timeout.
//! This asymmetry is observable in Encore's timing data.

use serde::{Deserialize, Serialize};
use sim_core::SimDuration;
use std::net::Ipv4Addr;

/// A connection attempt from a client to `dst:port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpAttempt {
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination port (80 for everything in this simulation).
    pub port: u16,
}

impl TcpAttempt {
    /// Attempt to port 80.
    pub fn http(dst: Ipv4Addr) -> TcpAttempt {
        TcpAttempt { dst, port: 80 }
    }
}

/// Default browser/OS connect timeout. Real stacks retry SYNs with
/// exponential backoff for ~20–120 s; browsers typically give up around
/// 20 s, which is what we model (and what makes dropped-SYN censorship so
/// much slower to observe than RST injection).
pub const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(20);

/// Default time a client waits for a DNS answer before giving up.
pub const DNS_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Default time a client waits for an HTTP response on an established
/// connection.
pub const HTTP_TIMEOUT: SimDuration = SimDuration::from_secs(30);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_helper_sets_port_80() {
        let a = TcpAttempt::http(Ipv4Addr::new(100, 0, 0, 1));
        assert_eq!(a.port, 80);
    }

    #[test]
    fn timeouts_are_ordered_sensibly() {
        // DNS gives up quickest, then connect, then response read.
        assert!(DNS_TIMEOUT < CONNECT_TIMEOUT);
        assert!(CONNECT_TIMEOUT < HTTP_TIMEOUT);
    }
}
