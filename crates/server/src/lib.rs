//! `rtserver` — a concurrent WCRT analysis service.
//!
//! The one-shot `trisc` CLI re-analyzes every task from scratch on each
//! run. This crate keeps the analysis pipeline resident: a long-lived TCP
//! daemon (`trisc serve`) speaks a newline-delimited JSON protocol
//! ([`proto`]), executes `wcet`/`crpd`/`wcrt`/`sim` requests on a fixed
//! worker pool ([`pool`]), and memoizes analysis artifacts
//! content-addressed by program text, cache geometry and timing model,
//! binding scheduling parameters after the cache ([`store`]).
//!
//! Every request is recorded once, by its frame in the always-on
//! `rtobs` flight recorder: per-endpoint request and error counts and a
//! log₂ latency histogram, a ring of recent records and a black box of
//! slow requests' span trees. The `metrics`, `statusz` and
//! `metrics_prom` requests render one per-endpoint table built from it
//! ([`metrics`]), and `journal`/`flight` read the ring and black box.
//!
//! Everything is `std`-only — the JSON codec ([`json`]) is hand-rolled —
//! and responses render through the exact same `rtcli` code paths as the
//! one-shot commands, so server output is byte-identical to the CLI's.
//!
//! Started with `--cluster PEERS_FILE`, several daemons shard the
//! `analyze` stage by consistent hashing and fetch each other's cached
//! artifacts over the same protocol, with local compute as the fallback
//! when a peer is unreachable ([`cluster`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod json;
pub mod metrics;
pub mod ops;
pub mod pool;
pub mod proto;
pub mod server;
pub mod store;

pub use server::{run, Server, ServerHandle, ServerState};
