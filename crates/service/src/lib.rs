//! Mapping-as-a-service: the mapping pipeline as a long-lived daemon.
//!
//! The batch CLI answers one mapping question per process launch and
//! re-derives everything from scratch. This crate runs the same
//! pipeline behind a socket, which is what a geo-distributed cluster
//! operator actually deploys: many tenants ask for placements against
//! *one* shared cluster, so the server owns the state a one-shot run
//! never had —
//!
//! * a [`ClusterInventory`] of free nodes
//!   per site, decremented when a placement is reserved and returned on
//!   explicit teardown or lease expiry, never oversubscribed no matter
//!   how requests interleave;
//! * a two-tier [`cache`] keyed by content
//!   [fingerprints](fingerprint), so repeated topologies skip the
//!   calibration campaign and identical requests skip the solve;
//! * a bounded admission queue with backpressure and per-request
//!   deadlines, and a worker pool draining it ([`server`]).
//!
//! Layering:
//!
//! ```text
//! proto (messages, field lists, v1 codec)   wire (WireFormat)
//!        ├── schema (field kinds both codecs walk)
//!        ├── json (v1 parser/emitter)
//!        └── frame (v2 binary frames and codec)
//! service::MappingService            ← in-memory mode, deterministic
//!        ├── inventory  ├── cache  ├── fingerprint
//! server::MappingServer              ← TCP front-end, reactor threads
//! transport                          ← Transport/Connector seam, faults
//! client                             ← blocking + retrying + pooled
//! ```
//!
//! Two wire formats share the port: v1 JSON lines and v2 binary frames
//! with correlation ids ([`frame`]), told apart by each message's first
//! byte. [`client::PooledClient`] pipelines batches over a connection
//! pool for throughput; the differential suite
//! (`tests/wire_differential.rs`) pins v2 to byte-identical decoded
//! responses against v1.
//!
//! [`service::MappingService::handle`] is the entire service as a
//! function call; the TCP layer adds nothing but transport and
//! concurrency — its reactor hands raw messages to
//! [`service::MappingService::answer`], the same entry the loopback
//! transport uses — so every behavior is testable without sockets.

pub mod cache;
pub mod client;
pub mod clock;
pub mod federation;
pub mod fingerprint;
pub mod frame;
pub mod hist;
pub mod inventory;
pub mod json;
pub mod proto;
pub mod reconciler;
mod schema;
pub mod server;
pub mod service;
pub mod transport;
pub mod wire;

pub use client::{ClientError, PooledClient, RetryPolicy, RetryingClient, ServiceClient};
pub use clock::{Clock, VirtualClock, WallClock};
pub use federation::{FederatedPool, LeaseJournal, RoutedResponse, ShardMap, ShardRouter};
pub use frame::{Frame, FrameError, FrameKind, FRAME_MAGIC, FRAME_VERSION, MAX_FRAME_BYTES};
pub use hist::{HistKind, HistSet, Histogram};
pub use inventory::{ClusterInventory, DriftCounters, RebookError};
pub use proto::{
    ErrorCode, MapRequest, RemapDiffResponse, RemapRequest, Request, Response, TraceContext,
    PROTOCOL_VERSION,
};
pub use reconciler::{Reconciler, ReconcilerConfig, TickReport, WatchedPlacement};
pub use server::MappingServer;
pub use service::{Admission, MappingService, ServiceConfig};
pub use transport::{
    Connector, Fault, FaultPlan, FaultyConnector, LoopbackConnector, TcpConnector, Transport,
    TransportError,
};
pub use wire::WireFormat;

use geomap_core::ConstraintVector;
use geonet::SiteId;

/// Parse a constraint vector over `n` processes from the same
/// `process,site` CSV the file-based CLI commands use, so a constraints
/// file can be embedded in a request verbatim.
pub fn parse_constraints(n: usize, csv: &str) -> Result<ConstraintVector, String> {
    let mut lines = csv.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty input")?;
    if header.trim() != "process,site" {
        return Err(format!("bad header {header:?}, expected \"process,site\""));
    }
    let mut c = ConstraintVector::none(n);
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 2 {
            return Err(format!(
                "line {}: expected 2 fields, got {}",
                lineno + 1,
                fields.len()
            ));
        }
        let parse = |s: &str, what: &str| -> Result<usize, String> {
            s.trim()
                .parse::<usize>()
                .map_err(|e| format!("line {}: bad {what} {s:?}: {e}", lineno + 1))
        };
        let process = parse(fields[0], "process")?;
        if process >= n {
            return Err(format!(
                "line {}: process {process} out of range for n={n}",
                lineno + 1
            ));
        }
        c.pin(process, SiteId(parse(fields[1], "site")?));
    }
    Ok(c)
}

/// Canonical `process,site` CSV for a constraint vector (pinned
/// processes only) — the inverse of [`parse_constraints`] and the
/// encoding cache fingerprints are taken over.
pub fn constraints_csv(constraints: &ConstraintVector) -> String {
    let mut s = String::from("process,site\n");
    for (i, pin) in constraints.iter().enumerate() {
        if let Some(site) = pin {
            s.push_str(&format!("{},{}\n", i, site.index()));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraints_csv_roundtrip() {
        let mut c = ConstraintVector::none(6);
        c.pin(0, SiteId(2));
        c.pin(5, SiteId(1));
        assert_eq!(parse_constraints(6, &constraints_csv(&c)).unwrap(), c);
    }

    #[test]
    fn constraints_csv_rejects_garbage() {
        assert!(parse_constraints(4, "nope\n")
            .unwrap_err()
            .contains("header"));
        assert!(parse_constraints(4, "process,site\n9,0\n")
            .unwrap_err()
            .contains("out of range"));
        assert!(parse_constraints(4, "process,site\n1,x\n")
            .unwrap_err()
            .contains("bad site"));
    }
}
