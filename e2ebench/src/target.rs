//! The system under test: one prover (`sip-server`, driven by a
//! [`RawClient`]) or an S-shard fleet (driven by a [`ClusterClient`]),
//! spawned in this process on loopback TCP with the shipped
//! [`ServerConfig`] defaults, plus the verifier digests that go with each.

use std::time::{Duration, Instant};

use sip_cluster::{spawn_local_fleet, ClusterClient, ClusterF2Verifier, ShardedLde};
use sip_core::channel::{FramedTcpTransport, TransportStats};
use sip_core::sumcheck::f2::F2Verifier;
use sip_core::Rejection;
use sip_field::Fp61;
use sip_lde::{LdeParams, MultiLdeEvaluator, StreamingLdeEvaluator};
use sip_server::client::RawClient;
use sip_server::{ServerConfig, ServerHandle};
use sip_streaming::{ShardPlan, Update};

/// The benchmark's field: the paper's `p = 2^61 − 1`.
pub type F = Fp61;

/// The name a fleet publishes its dataset under.
const FLEET_DATASET: &str = "e2ebench";

/// How long shutdown waits for server sessions to end after `Bye`.
const SESSION_DRAIN: Duration = Duration::from_secs(10);

/// One verifier digest, ready to be consumed by one query.
pub enum Digest {
    /// Against a single prover.
    Single(F2Verifier<F>),
    /// Against a sharded fleet.
    Fleet(ClusterF2Verifier<F>),
}

impl Digest {
    /// Builds the digest at `point` from per-shard LDE values `accs`
    /// (one per shard) after `updates` stream updates.
    pub fn from_values(plan: ShardPlan, point: &[F], accs: Vec<F>, updates: u64) -> Self {
        if plan.shards() == 1 {
            let lde = StreamingLdeEvaluator::from_saved(
                LdeParams::binary(plan.log_u()),
                point.to_vec(),
                accs[0],
                updates,
            );
            Digest::Single(F2Verifier::from_evaluator(lde))
        } else {
            let lde = ShardedLde::from_saved(plan, point.to_vec(), accs, updates);
            Digest::Fleet(ClusterF2Verifier::from_lde(lde))
        }
    }

    /// The secret point and the per-shard streamed LDE values at it.
    pub fn point_and_values(&self) -> (Vec<F>, Vec<F>) {
        match self {
            Digest::Single(d) => (d.evaluator().point().to_vec(), vec![d.evaluator().value()]),
            Digest::Fleet(d) => (d.lde().point().to_vec(), d.lde().values().to_vec()),
        }
    }
}

/// The data owner's live digest copies, one per query still to come:
/// a [`MultiLdeEvaluator`] per group of at most `group` points and per
/// shard slice, fed every uploaded update. Groups keep the copies one
/// evaluator streams over in the tens, where ingest is compute-bound.
pub struct LiveDigests {
    plan: ShardPlan,
    /// `groups[g][s]`: group `g`'s copies over shard `s`'s slice.
    groups: Vec<Vec<MultiLdeEvaluator<F>>>,
}

impl LiveDigests {
    /// Fresh copies at `points`, `group` points per evaluator.
    pub fn new(plan: ShardPlan, points: &[Vec<F>], group: usize) -> Self {
        let params = LdeParams::binary(plan.log_u());
        let groups = points
            .chunks(group)
            .map(|g| {
                (0..plan.shards())
                    .map(|_| MultiLdeEvaluator::new(params, g.to_vec()))
                    .collect()
            })
            .collect();
        LiveDigests { plan, groups }
    }

    /// Live copies.
    pub fn copies(&self) -> usize {
        self.groups.iter().map(|g| g[0].num_points()).sum()
    }

    /// Feeds `batch` to every copy (split by shard for a fleet).
    pub fn update_batch(&mut self, batch: &[Update]) {
        if self.plan.shards() == 1 {
            for g in &mut self.groups {
                g[0].update_batch(batch);
            }
        } else {
            let parts = self.plan.split(batch);
            for g in &mut self.groups {
                for (m, part) in g.iter_mut().zip(&parts) {
                    m.update_batch(part);
                }
            }
        }
    }

    /// Finishes the newest copy into a digest; the others stay live.
    pub fn pop(&mut self) -> Option<Digest> {
        let group = self.groups.pop()?;
        let p = group[0].num_points() - 1;
        let point = group[0].point(p).to_vec();
        let accs = group.iter().map(|m| m.value(p)).collect();
        let updates = group.iter().map(MultiLdeEvaluator::updates).sum();
        if p > 0 {
            let rest = group
                .iter()
                .map(|m| {
                    let points = (0..p).map(|i| m.point(i).to_vec()).collect();
                    MultiLdeEvaluator::from_saved(
                        m.params(),
                        points,
                        m.values()[..p].to_vec(),
                        m.updates(),
                    )
                })
                .collect();
            self.groups.push(rest);
        }
        Some(Digest::from_values(self.plan, &point, accs, updates))
    }

    /// Finishes every live copy into a digest, in point order.
    pub fn finish_all(&mut self) -> Vec<Digest> {
        let mut digests = Vec::with_capacity(self.copies());
        for group in std::mem::take(&mut self.groups) {
            let updates = group.iter().map(MultiLdeEvaluator::updates).sum();
            for p in 0..group[0].num_points() {
                let accs = group.iter().map(|m| m.value(p)).collect();
                digests.push(Digest::from_values(
                    self.plan,
                    group[0].point(p),
                    accs,
                    updates,
                ));
            }
        }
        digests
    }
}

/// What one verified answer reports.
pub struct Answer {
    /// The verified value.
    pub value: F,
    /// Lockstep round trips (the slowest shard's for a fleet).
    pub rounds: usize,
    /// Verifier space in words.
    pub space_words: usize,
}

enum Client {
    Single(RawClient<F, FramedTcpTransport>),
    Fleet(ClusterClient<F, FramedTcpTransport>),
}

/// Running prover(s) and the connected client.
pub struct Target {
    servers: Vec<ServerHandle>,
    client: Client,
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl Target {
    /// Spawns the prover(s) for `plan` and completes the client handshake.
    pub fn spawn(plan: ShardPlan) -> Result<Self, String> {
        let log_u = plan.log_u();
        if plan.shards() == 1 {
            let server = sip_server::spawn::<F, _>("127.0.0.1:0", ServerConfig::default())
                .map_err(|e| io_err("spawn prover", e))?;
            let client = RawClient::connect(server.local_addr(), log_u)
                .map_err(|e| io_err("connect prover", e))?;
            Ok(Target {
                servers: vec![server],
                client: Client::Single(client),
            })
        } else {
            let (servers, addrs) = spawn_local_fleet::<F>(plan.shards(), log_u)
                .map_err(|e| io_err("spawn fleet", e))?;
            let client =
                ClusterClient::connect(&addrs, log_u).map_err(|e| io_err("connect fleet", e))?;
            Ok(Target {
                servers,
                client: Client::Fleet(client),
            })
        }
    }

    /// Uploads a batch (`RawClient::send_batch` / `ClusterClient::send_stream`).
    pub fn send(&mut self, batch: &[Update]) {
        match &mut self.client {
            Client::Single(c) => c.send_batch(batch),
            Client::Fleet(c) => c.send_stream(batch),
        }
    }

    /// Flushes and marks the stream boundary (`end_stream`).
    pub fn end_stream(&mut self) -> Result<(), String> {
        match &mut self.client {
            Client::Single(c) => c.end_stream(),
            Client::Fleet(c) => c.end_stream(),
        }
        .map_err(|e| io_err("end stream", e))
    }

    /// Waits until the prover has applied everything sent so far: each
    /// session answers a request only after every earlier frame. A single
    /// prover answers `RawClient::server_stats`. The cluster client has no
    /// such request, so a fleet publishes its dataset instead: every shard
    /// acks `ClusterClient::publish` after applying its slice, and the
    /// dataset is frozen from then on (a fleet uploads once per epoch).
    pub fn barrier(&mut self) -> Result<(), String> {
        match &mut self.client {
            Client::Single(c) => c.server_stats().map(|_| ()),
            Client::Fleet(c) => c.publish(FLEET_DATASET),
        }
        .map_err(|e| io_err("barrier", e))
    }

    /// Bytes and frames moved by the client so far, summed over shards.
    pub fn stats(&self) -> TransportStats {
        match &self.client {
            Client::Single(c) => c.stats(),
            Client::Fleet(c) => c
                .stats()
                .into_iter()
                .fold(TransportStats::default(), |a, s| TransportStats {
                    frames_sent: a.frames_sent + s.frames_sent,
                    frames_received: a.frames_received + s.frames_received,
                    bytes_sent: a.bytes_sent + s.bytes_sent,
                    bytes_received: a.bytes_received + s.bytes_received,
                }),
        }
    }

    /// One verified SELF-JOIN SIZE answer, one-shot or interactive.
    pub fn query(&mut self, digest: Digest, oneshot: bool) -> Result<Answer, Rejection> {
        match (&mut self.client, digest) {
            (Client::Single(c), Digest::Single(d)) => {
                let got = if oneshot {
                    c.verify_f2_oneshot(d)?
                } else {
                    c.verify_f2(d)?
                };
                Ok(Answer {
                    value: got.value,
                    rounds: got.report.rounds,
                    space_words: got.report.verifier_space_words,
                })
            }
            (Client::Fleet(c), Digest::Fleet(d)) => {
                let got = if oneshot {
                    c.verify_f2_oneshot(d)?
                } else {
                    c.verify_f2(d)?
                };
                let rounds = got.report.per_shard.iter().map(|r| r.rounds).max();
                Ok(Answer {
                    value: got.value,
                    rounds: rounds.unwrap_or(0),
                    space_words: got.report.verifier_space_words,
                })
            }
            _ => unreachable!("digest shape always matches the target it was built for"),
        }
    }

    /// Says goodbye, waits for every server session to end, and stops the
    /// servers (joining their accept threads).
    pub fn close(self) -> Result<(), String> {
        let Target { servers, client } = self;
        let bye = match client {
            Client::Single(mut c) => c.bye().map(|_| ()),
            Client::Fleet(mut c) => c.bye().map(|_| ()),
        };
        let deadline = Instant::now() + SESSION_DRAIN;
        while servers.iter().any(|s| s.active_sessions() > 0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let lingering = servers.iter().any(|s| s.active_sessions() > 0);
        for server in servers {
            server.shutdown();
        }
        bye.map_err(|e| io_err("bye", e))?;
        if lingering {
            return Err("a server session outlived its client".into());
        }
        Ok(())
    }
}
