//! Server-side layers, replayed in this process on the same data and
//! query shape the prover just served: the fold-engine walk
//! ([`F2Prover`] through [`RoundProver`]), the verifier's checks
//! ([`SumCheckVerifierCore`]), the transcript sponge
//! ([`query_transcript`]) and the wire codec ([`MsgChannel`] over an
//! [`InMemoryTransport`]). The prover runs on the server thread, so its
//! cost cannot be timed in place from the client.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sip_core::channel::{InMemoryTransport, Transport};
use sip_core::sumcheck::f2::F2Prover;
use sip_core::sumcheck::{OneShotProof, RoundProver, SumCheckVerifierCore};
use sip_core::transcript::{query_transcript, Transcript};
use sip_field::PrimeField;
use sip_streaming::{FrequencyVector, ShardPlan};
use sip_wire::{Msg, MsgChannel, Query};

use crate::target::F;

/// Per-query layer costs on the critical path of one fleet query: shards
/// prove in parallel (max over shards), the client verifies and encodes
/// serially (sum over shards).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryLayers {
    /// Fold-engine walk, transcript excluded (max over shards).
    pub prover: Duration,
    /// Round checks or the deferred batch check, transcript excluded.
    pub verifier: Duration,
    /// Transcript sponge: the prover's seal (max over shards) plus the
    /// verifier's replay (sum). For an interactive query this is what the
    /// same query would hash in one-shot mode — not on its path.
    pub transcript: Duration,
    /// Encode + decode of every frame of the query, both directions.
    pub codec: Duration,
    /// Bytes of those frames, framing included.
    pub bytes: usize,
    /// Number of those frames.
    pub frames: usize,
}

/// The proof body absorbed in the order the one-shot prover and verifier
/// use (claimed value, then each round polynomial).
fn absorb_body(t: &mut Transcript, claimed: F, rounds: &[Vec<F>]) {
    t.absorb_field("claimed", claimed);
    for g in rounds {
        t.absorb_fields("round-poly", g);
    }
}

fn wire(e: impl std::fmt::Display) -> String {
    format!("codec replay: {e}")
}

/// The honest prover's round polynomials for `point` on `store`, and how
/// long the walk took.
fn prove(store: &FrequencyVector, log_u: u32, point: &[F]) -> (Vec<Vec<F>>, Duration) {
    let start = Instant::now();
    let mut prover = F2Prover::<F>::new(store, log_u);
    let mut rounds = Vec::with_capacity(point.len());
    for &r in &point[..point.len() - 1] {
        rounds.push(prover.message());
        prover.bind(r);
    }
    rounds.push(prover.message());
    (black_box(rounds), start.elapsed())
}

/// Replays one SELF-JOIN SIZE query at `point` against per-shard stores
/// whose streamed LDE values at `point` are `values`. Fails if the replayed
/// proof does not verify, so the replay is checked against the same
/// verifier the timed run uses.
pub fn replay_query(
    plan: ShardPlan,
    stores: &[FrequencyVector],
    point: &[F],
    values: &[F],
    oneshot: bool,
) -> Result<QueryLayers, String> {
    let log_u = plan.log_u();
    let d = point.len();
    let prefix = &point[..d - 1];
    let mut out = QueryLayers::default();
    let mut server_transcript = Duration::ZERO;
    for (s, store) in stores.iter().enumerate() {
        let shard = (plan.shards() > 1).then_some((s as u32, plan.shards()));
        let (rounds, prover) = prove(store, log_u, point);
        out.prover = out.prover.max(prover);
        let claimed = rounds[0][0] + rounds[0][1];
        let streamed = values[s] * values[s];

        // The prover's seal.
        let start = Instant::now();
        let mut t = query_transcript::<F>("self-join", log_u, shard, &[], prefix);
        absorb_body(&mut t, claimed, &rounds);
        let digest = t.digest();
        server_transcript = server_transcript.max(start.elapsed());

        // The verifier's replay: context, body, digest, d + 1 batch weights.
        let start = Instant::now();
        let context = query_transcript::<F>("self-join", log_u, shard, &[], prefix);
        let context_time = start.elapsed();
        let mut t = context.clone();
        let start = Instant::now();
        absorb_body(&mut t, claimed, &rounds);
        black_box(t.digest());
        for _ in 0..=d {
            black_box(t.challenge::<F>());
        }
        let in_check = start.elapsed();
        out.transcript += context_time + in_check;

        let proof = OneShotProof {
            claimed,
            rounds,
            digest,
        };
        let (value, verifier) = if oneshot {
            let core = SumCheckVerifierCore::new(point.to_vec(), 2);
            let start = Instant::now();
            let value = core.verify_oneshot(streamed, context, &proof);
            (value, start.elapsed().saturating_sub(in_check))
        } else {
            let mut core = SumCheckVerifierCore::new(point.to_vec(), 2);
            let start = Instant::now();
            let value = proof
                .rounds
                .iter()
                .try_for_each(|g| core.receive(g).map(|_| ()))
                .and_then(|()| core.finalize(streamed));
            (value, start.elapsed())
        };
        match value {
            Ok(v) if v == claimed => {}
            Ok(_) => return Err("replayed proof verified to a different value".into()),
            Err(rej) => return Err(format!("replayed honest proof rejected: {rej}")),
        }
        out.verifier += verifier;

        let (codec, stats) = codec_replay(proof, prefix, oneshot)?;
        out.codec += codec;
        out.bytes += stats.0;
        out.frames += stats.1;
    }
    out.transcript += server_transcript;
    Ok(out)
}

/// Encodes and decodes every frame one query exchanges, over an in-memory
/// transport; returns the time and (bytes, frames) both ways.
fn codec_replay(
    proof: OneShotProof<F>,
    prefix: &[F],
    oneshot: bool,
) -> Result<(Duration, (usize, usize)), String> {
    let (a, b) = InMemoryTransport::pair();
    let mut verifier = MsgChannel::new(a);
    let mut prover = MsgChannel::new(b);
    let mut replies: Vec<Msg<F>> = if oneshot {
        vec![Msg::Proof {
            claimed: proof.claimed,
            rounds: proof.rounds,
            digest: proof.digest,
        }]
    } else {
        std::iter::once(Msg::ClaimedValue(proof.claimed))
            .chain(proof.rounds.into_iter().map(Msg::RoundPoly))
            .collect()
    };
    replies.reverse();
    let start = Instant::now();
    if oneshot {
        verifier
            .send(&Msg::<F>::QueryOneShot {
                query: Query::SelfJoin,
                challenges: prefix.to_vec(),
            })
            .map_err(wire)?;
        black_box(prover.recv::<F>().map_err(wire)?);
        prover
            .send(&replies.pop().expect("one proof"))
            .map_err(wire)?;
        black_box(verifier.recv::<F>().map_err(wire)?);
    } else {
        verifier
            .send(&Msg::<F>::Query(Query::SelfJoin))
            .map_err(wire)?;
        black_box(prover.recv::<F>().map_err(wire)?);
        for _ in 0..2 {
            prover
                .send(&replies.pop().expect("claim and g_1"))
                .map_err(wire)?;
            black_box(verifier.recv::<F>().map_err(wire)?);
        }
        for &r in prefix {
            verifier.send(&Msg::Challenge(r)).map_err(wire)?;
            black_box(prover.recv::<F>().map_err(wire)?);
            prover.send(&replies.pop().expect("g_j")).map_err(wire)?;
            black_box(verifier.recv::<F>().map_err(wire)?);
        }
    }
    verifier.send(&Msg::<F>::Accept).map_err(wire)?;
    black_box(prover.recv::<F>().map_err(wire)?);
    let elapsed = start.elapsed();
    let stats = verifier.transport_mut().stats();
    Ok((
        elapsed,
        (
            stats.bytes_sent + stats.bytes_received,
            stats.frames_sent + stats.frames_received,
        ),
    ))
}

/// Replays the prover's store update for one uploaded batch, cut into the
/// frames the client sends (the server applies one frame per call).
pub fn apply_frames(store: &mut FrequencyVector, batch: &[sip_streaming::Update]) -> Duration {
    let start = Instant::now();
    for frame in batch.chunks(FRAME_UPDATES) {
        store.apply_batch(frame);
    }
    start.elapsed()
}

/// Updates per `Msg::Ingest` frame when the client's buffer starts empty
/// (`sip-server`'s client cuts batches at this size).
pub const FRAME_UPDATES: usize = 60_000;

/// `F::from_u128` of a non-negative exact aggregate.
pub fn to_field(x: i128) -> F {
    F::from_u128(u128::try_from(x).expect("self-join sizes are non-negative"))
}
