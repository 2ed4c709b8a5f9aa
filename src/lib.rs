//! # batchhl
//!
//! A from-scratch Rust reproduction of *"BatchHL: Answering Distance
//! Queries on Batch-Dynamic Networks at Scale"* (SIGMOD 2022), grown
//! toward a production-shaped serving system.
//!
//! The public surface is the [`DistanceOracle`] facade: one object
//! over every index family (undirected, directed, weighted), built
//! through [`Oracle::builder()`](DistanceOracle::builder), mutated
//! through accumulate-and-commit [`UpdateSession`]s, and served to
//! reading threads through `Send + Sync` [`OracleReader`] handles —
//! all family dispatch erased behind the [`Backend`] trait.
//!
//! ```
//! use batchhl::{Oracle, LandmarkSelection};
//! use batchhl::graph::generators::barabasi_albert;
//!
//! let mut oracle = Oracle::builder()
//!     .landmarks(LandmarkSelection::TopDegree(8))
//!     .build(barabasi_albert(300, 3, 7))
//!     .unwrap();
//! oracle.update().insert(1, 200).commit().unwrap();
//! assert_eq!(oracle.query(1, 200), Some(1));
//! let fanout = oracle.distances_from(1, &[2, 3, 200]);
//! assert_eq!(fanout[2], Some(1));
//! ```
//!
//! Oracles are crash-safe: [`DistanceOracle::persist_to`] attaches a
//! `BHL2` checkpoint + batch write-ahead log ([`DurabilityConfig`]
//! picks the fsync and auto-checkpoint policy), every committed
//! session is logged before it is applied, and
//! [`DistanceOracle::open`] restores the checkpoint and replays the
//! WAL tail — the warm-restart path (see `examples/warm_restart.rs`).
//!
//! The underlying crates remain available for callers that want a
//! specific index family or the lower-level machinery: [`core`]
//! (batch-dynamic indexes + unified update engine), [`hcl`] (highway
//! cover labelling), [`graph`] (dynamic graphs + CSR snapshots),
//! [`baselines`] and [`common`].

pub mod oracle;

pub use oracle::{
    CommitReceipt, DistanceOracle, DurabilityConfig, FsyncPolicy, Oracle, OracleBuilder,
    OracleHealth, OracleReader, UpdateSession, WalPosition, WhatIfSession,
};

// Batch admission (also run internally by every `commit`).
pub use batchhl_core::admission::validate_batch;

// The persistence vocabulary (checkpoints + write-ahead log), plus the
// read-only tail scan WAL-shipping replication is built on.
pub use batchhl_core::persist::{CheckpointMeta, PersistError};
pub use batchhl_core::wal::{
    read_wal_from, recover_wal, TxnId, WalRecord, WalRecovery, WalTail, WalWriter,
};

// The family-erased backend surface (for callers extending the oracle
// with a fourth family, or inspecting errors).
pub use batchhl_core::backend::{
    Backend, BackendFamily, BackendReader, Edit, GraphSource, OracleError,
};

// Configuration vocabulary used by the builder.
pub use batchhl_core::index::{Algorithm, CompactionPolicy};
pub use batchhl_core::UpdateStats;
pub use batchhl_hcl::{LabelResidency, LandmarkSelection};

// Base vocabulary: vertex ids, distances, weights.
pub use batchhl_common::{Dist, Vertex, INF};
pub use batchhl_graph::weighted::Weight;

pub use batchhl_baselines as baselines;
pub use batchhl_common as common;
pub use batchhl_core as core;
pub use batchhl_graph as graph;
pub use batchhl_hcl as hcl;
