//! End-to-end benchmark of verified stream queries.
//!
//! A data owner streams updates to an untrusted prover while keeping
//! `O(log u)`-word digests, then asks for SELF-JOIN SIZE (F₂) answers that
//! it verifies. One run executes one named [`Workload`] in this process:
//! the prover(s) run on loopback TCP with the shipped [`ServerConfig`]
//! defaults (one prover thread, obs metrics on, span tracing off), and one
//! client thread waits for each verified answer before it sends the next
//! query (closed loop, RTT 0). Every answer is checked against ground
//! truth computed here from a [`FrequencyVector`] the benchmark keeps
//! itself, updated outside the timed windows.
//!
//! A run is a warm-up epoch (discarded) and then epochs of identical shape
//! until `--seconds` of them have been measured and enough latency
//! samples exist. Each epoch spawns fresh provers and uploads a seeded
//! base dataset with a live digest copy per query (the set-up), then runs
//! its passes and queries. A failed operation ends the run. See
//! `README.md` for the workloads, the metrics and the layer they belong
//! to.
//!
//! [`ServerConfig`]: sip_server::ServerConfig

#![deny(unsafe_code)]

pub mod replay;
pub mod spans;
pub mod target;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_field::PrimeField;
use sip_streaming::{workloads, FrequencyVector, ShardPlan, Update};

use replay::{apply_frames, replay_query, to_field, QueryLayers};
use spans::Spans;
use target::{Digest, LiveDigests, Target, F};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_updates_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("proof_bytes_per_query", "bytes"),
    ("upload_bytes_per_update", "bytes"),
    ("rounds_per_query", "count"),
    ("verifier_space_words", "words"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lde.ns_per_point_update", "ns"),
    ("wire.send_ns_per_update", "ns"),
    ("server.drain_ms_per_pass", "ms"),
    ("streaming.apply_ns_per_update", "ns"),
    ("ingest.client_busy_frac", "ratio"),
    ("ingest.residual_frac", "ratio"),
    ("prover.us_per_query", "us"),
    ("verifier.us_per_query", "us"),
    ("transcript.us_per_query", "us"),
    ("wire.codec_us_per_query", "us"),
    ("wire.bytes_per_query", "bytes"),
    ("wire.frames_per_query", "count"),
    ("query.wall_us", "us"),
    ("query.residual_us", "us"),
    ("setup.spawn_ms", "ms"),
    ("setup.upload_ms", "ms"),
    ("setup.digest_ms", "ms"),
];

/// Digest copies fed together by one [`MultiLdeEvaluator`]: live copies
/// stay in the tens, where ingest is compute-bound rather than
/// cache-bound.
pub const COPY_GROUP: usize = 32;

/// Latency samples a run collects at least: `query_p90_us` needs ten
/// samples beyond the 90th percentile.
pub const MIN_SAMPLES: usize = 100;

/// A run that has not collected [`MIN_SAMPLES`] by then gives up.
const HARD_CAP: Duration = Duration::from_secs(150);

/// Largest update delta of the uniform streams (the paper's `[0, 1000]`).
const MAX_DELTA: i64 = 1000;

/// Zipf skew of the fleet's stream.
const ZIPF_ALPHA: f64 = 1.2;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Writes beside reads: passes of fresh uniform chunks with live
    /// digests, one one-shot query after each pass.
    Ingest,
    /// A 2-shard fleet answering one-shot queries over a static dataset.
    OneshotFleet,
    /// Interactive queries over a dense `2^20`-entry vector.
    InteractiveLarge,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Ingest,
        Workload::OneshotFleet,
        Workload::InteractiveLarge,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::OneshotFleet => "oneshot_fleet",
            Workload::InteractiveLarge => "interactive_large",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one workload's epochs.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Universe `u = 2^log_u`.
    pub log_u: u32,
    /// Prover shards (1 = a single prover).
    pub shards: u32,
    /// Updates in the base dataset uploaded during set-up (the dense
    /// workload uploads one update per item instead).
    pub base_updates: usize,
    /// Ingest passes per epoch, each followed by one query.
    pub passes: usize,
    /// Updates per ingest pass.
    pub pass_updates: usize,
    /// Queries per epoch (equal to `passes` when there are passes).
    pub queries: usize,
    /// One-shot or interactive queries.
    pub oneshot: bool,
    /// The traced run replays one query in this many: the last of each
    /// run of `replay_every`, so no replayed query is an epoch's first,
    /// which runs on caches the set-up left cold.
    pub replay_every: usize,
}

impl Shape {
    /// The benchmark's sizes.
    pub fn standard(w: Workload) -> Self {
        match w {
            Workload::Ingest => Shape {
                log_u: 20,
                shards: 1,
                base_updates: 1 << 18,
                passes: 24,
                pass_updates: 1 << 16,
                queries: 24,
                oneshot: true,
                replay_every: 4,
            },
            Workload::OneshotFleet => Shape {
                log_u: 14,
                shards: 2,
                base_updates: 1 << 16,
                passes: 0,
                pass_updates: 0,
                queries: 512,
                oneshot: true,
                replay_every: 16,
            },
            Workload::InteractiveLarge => Shape {
                log_u: 20,
                shards: 1,
                base_updates: 1 << 20,
                passes: 0,
                pass_updates: 0,
                queries: 32,
                oneshot: false,
                replay_every: 4,
            },
        }
    }

    /// Tiny sizes of the same shape, for the self-test.
    pub fn small(w: Workload) -> Self {
        let s = Self::standard(w);
        match w {
            Workload::Ingest => Shape {
                log_u: 10,
                base_updates: 1 << 8,
                passes: 25,
                pass_updates: 1 << 8,
                queries: 25,
                ..s
            },
            Workload::OneshotFleet => Shape {
                log_u: 8,
                base_updates: 1 << 9,
                queries: 40,
                ..s
            },
            Workload::InteractiveLarge => Shape {
                log_u: 8,
                base_updates: 1 << 8,
                queries: 40,
                ..s
            },
        }
    }

    fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.log_u, self.shards)
    }
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Sizes.
    pub shape: Shape,
    /// Seed of every RNG: streams, chunks and verifier points.
    pub seed: u64,
    /// Measured time the run lasts at least.
    pub seconds: f64,
    /// Per-layer run (in-place layer spans plus server-side replays).
    pub trace: bool,
}

/// One metric as printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every operation succeeded and every answer equalled ground truth.
    pub correct: bool,
    /// Operations attempted: ingest passes plus queries, warm-up included.
    pub attempted: u64,
    /// Rejected, errored or wrong answers; the run stops at the first.
    pub failed: u64,
    /// The metrics of this mode (end-to-end, or per-layer when traced);
    /// none when an operation failed.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, spreads, residual statement.
    pub notes: Vec<String>,
}

impl Report {
    /// The value of metric `name`, if emitted.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// splitmix64 of `(seed, tag, a, b)`: independent sub-seeds for every
/// stream, chunk and point set, all determined by the run's seed.
fn sub_seed(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let mut z = seed;
    for x in [tag, a, b] {
        z = z.wrapping_add(x).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

const TAG_BASE: u64 = 1;
const TAG_CHUNK: u64 = 2;
const TAG_POINTS: u64 = 3;

/// Counts that must come out the same for every query and pass.
#[derive(Default)]
struct Counts {
    queries: u64,
    proof_bytes: u64,
    rounds: u64,
    space_words: u64,
    upload_bytes: u64,
    uploaded: u64,
}

struct Bench {
    cfg: RunConfig,
    plan: ShardPlan,
    /// The base dataset every epoch uploads.
    base: Vec<Update>,
    spans: Spans,
    counts: Counts,
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Peak resident MB of each measured epoch.
    peaks_mb: Vec<f64>,
}

/// Runs one workload to completion, or until the first failed operation.
pub fn run(cfg: RunConfig) -> Result<Report, String> {
    let shape = cfg.shape;
    let u = 1u64 << shape.log_u;
    let base_seed = sub_seed(cfg.seed, TAG_BASE, 0, 0);
    let base = match cfg.workload {
        Workload::Ingest => workloads::uniform(shape.base_updates, u, MAX_DELTA, base_seed),
        Workload::OneshotFleet => workloads::zipf(shape.base_updates, u, ZIPF_ALPHA, base_seed),
        Workload::InteractiveLarge => workloads::paper_f2(u, base_seed),
    };
    let mut bench = Bench {
        cfg,
        plan: shape.plan(),
        base,
        spans: Spans::default(),
        counts: Counts::default(),
        attempted: 0,
        failed: 0,
        wrong: 0,
        peaks_mb: Vec::new(),
    };
    bench.epoch(0)?;
    bench.spans.set_measuring(true);
    let measured = Instant::now();
    let mut epoch = 0;
    while bench.failed == 0 {
        epoch += 1;
        bench.epoch(epoch)?;
        let samples = bench.spans.get("query/verify").durs.len();
        let elapsed = measured.elapsed();
        if elapsed.as_secs_f64() >= cfg.seconds && samples >= MIN_SAMPLES {
            break;
        }
        if elapsed >= HARD_CAP {
            return Err(format!(
                "only {samples} query samples after {elapsed:?}; need {MIN_SAMPLES}"
            ));
        }
    }
    bench.report(epoch, measured.elapsed())
}

impl Bench {
    fn shape(&self) -> Shape {
        self.cfg.shape
    }

    /// The seeded fresh chunk uploaded by `pass` of `epoch`.
    fn chunk(&self, epoch: u64, pass: usize) -> Vec<Update> {
        let seed = sub_seed(self.cfg.seed, TAG_CHUNK, epoch, pass as u64);
        let u = 1u64 << self.shape().log_u;
        workloads::uniform(self.shape().pass_updates, u, MAX_DELTA, seed)
    }

    /// Empty per-shard stores, the benchmark's own copy of the prover's.
    fn stores(&self) -> Vec<FrequencyVector> {
        let u = 1u64 << self.shape().log_u;
        (0..self.plan.shards())
            .map(|_| FrequencyVector::new_sparse(u))
            .collect()
    }

    /// Ground truth of every query of `epoch`, in query order: the self-join
    /// size after each pass, or of the static base dataset. Computed before
    /// the epoch starts, so the stores are gone by the time its peak
    /// resident memory is measured.
    fn ground_truth(&self, epoch: u64) -> Vec<F> {
        let shape = self.shape();
        let mut stores = self.stores();
        let apply = |stores: &mut [FrequencyVector], batch: &[Update]| {
            let parts = self.plan.split(batch);
            for (store, part) in stores.iter_mut().zip(&parts) {
                store.apply_batch(part);
            }
        };
        let f2 = |stores: &[FrequencyVector]| {
            to_field(stores.iter().map(FrequencyVector::self_join_size).sum())
        };
        apply(&mut stores, &self.base);
        if shape.passes == 0 {
            return vec![f2(&stores); shape.queries];
        }
        (0..shape.passes)
            .map(|pass| {
                apply(&mut stores, &self.chunk(epoch, pass));
                f2(&stores)
            })
            .collect()
    }

    /// Uploads `batch` through the client while `live` observes it, then
    /// `end_stream` and the barrier. Returns the bytes the client sent for
    /// the batch and its end-of-stream mark.
    fn upload(
        &mut self,
        target: &mut Target,
        batch: &[Update],
        live: &mut LiveDigests,
        parent: &str,
    ) -> Result<u64, String> {
        let leaves = self.cfg.trace;
        let sent = target.stats().bytes_sent;
        let t = Instant::now();
        target.send(batch);
        if leaves {
            self.spans.record(parent, "send", t, batch.len() as u64);
        }
        let t = Instant::now();
        live.update_batch(batch);
        if leaves {
            let work = (live.copies() * batch.len()) as u64;
            self.spans.record(parent, "lde", t, work);
        }
        let t = Instant::now();
        target.end_stream()?;
        let bytes = (target.stats().bytes_sent - sent) as u64;
        target.barrier()?;
        if leaves {
            self.spans.record(parent, "drain", t, 1);
        }
        Ok(bytes)
    }

    /// Replays the provers' store update for `batch` on the traced run's
    /// stores (outside every timed window).
    fn replay_apply(&mut self, stores: &mut [FrequencyVector], batch: &[Update], parent: &str) {
        let parts = self.plan.split(batch);
        let mut spent = Duration::ZERO;
        for (store, part) in stores.iter_mut().zip(&parts) {
            spent += apply_frames(store, part);
        }
        self.spans
            .record_dur(parent, "apply", spent, batch.len() as u64);
    }

    fn epoch(&mut self, epoch: u64) -> Result<(), String> {
        let shape = self.shape();
        let plan = self.plan;
        let mut rng = StdRng::seed_from_u64(sub_seed(self.cfg.seed, TAG_POINTS, epoch, 0));
        let points: Vec<Vec<F>> = (0..shape.queries)
            .map(|_| (0..shape.log_u).map(|_| F::random(&mut rng)).collect())
            .collect();
        let mut truth = self.ground_truth(epoch).into_iter();
        let base = std::mem::take(&mut self.base);
        reset_peak_rss();

        // Set-up: spawn, then upload the base dataset with a live copy per
        // query. The query workloads finish their digests here; the ingest
        // workload's copies keep streaming through its passes.
        let setup = Instant::now();
        let t = Instant::now();
        let mut target = Target::spawn(plan)?;
        self.spans.record("setup", "spawn", t, 1);

        let t = Instant::now();
        let mut live = LiveDigests::new(plan, &points, COPY_GROUP);
        let bytes = self.upload(&mut target, &base, &mut live, "setup.upload")?;
        self.spans.record("setup", "upload", t, base.len() as u64);
        let digests = if shape.passes == 0 {
            live.finish_all()
        } else {
            Vec::new()
        };
        self.spans.record("epoch", "setup", setup, 1);
        if shape.passes == 0 {
            // The ingest workload's writes are its passes.
            self.count_upload(bytes, base.len());
        }

        // The traced run replays the provers' store updates and proofs on
        // stores of its own.
        let mut stores = if self.cfg.trace {
            let mut stores = self.stores();
            self.replay_apply(&mut stores, &base, "setup.upload");
            stores
        } else {
            Vec::new()
        };
        self.base = base;

        for pass in 0..shape.passes {
            let chunk = self.chunk(epoch, pass);
            let t = Instant::now();
            let bytes = self.upload(&mut target, &chunk, &mut live, "ingest.pass")?;
            self.spans.record("ingest", "pass", t, chunk.len() as u64);
            self.count_upload(bytes, chunk.len());
            self.attempted += 1;
            if self.cfg.trace {
                self.replay_apply(&mut stores, &chunk, "ingest.pass");
            }
            // The newest live copy answers this pass's query.
            let digest = live.pop().expect("one live copy per pass");
            self.query(&mut target, digest, truth.next(), &stores, pass)?;
            if self.failed > 0 {
                break;
            }
        }
        for (i, digest) in digests.into_iter().enumerate() {
            self.query(&mut target, digest, truth.next(), &stores, i)?;
            if self.failed > 0 {
                break;
            }
        }
        let closed = target.close();
        if self.failed > 0 {
            // The failure is what the run reports; a session broken by it
            // may also fail to close.
            return Ok(());
        }
        closed?;
        if self.spans.measuring() {
            self.peaks_mb.push(peak_rss_mb()?);
        }
        Ok(())
    }

    fn count_upload(&mut self, bytes: u64, updates: usize) {
        if self.spans.measuring() {
            self.counts.upload_bytes += bytes;
            self.counts.uploaded += updates as u64;
        }
    }

    /// One timed verified query, checked against its ground truth. Only an
    /// accepted, correct answer adds a latency sample; a rejection, an I/O
    /// error or a wrong answer counts as failed and ends the run.
    fn query(
        &mut self,
        target: &mut Target,
        digest: Digest,
        expected: Option<F>,
        stores: &[FrequencyVector],
        index: usize,
    ) -> Result<(), String> {
        let expected = expected.ok_or("more queries than ground-truth answers")?;
        let (point, values) = digest.point_and_values();
        let received = target.stats().bytes_received;
        let t = Instant::now();
        let answer = target.query(digest, self.shape().oneshot);
        let wall = t.elapsed();
        self.attempted += 1;
        match answer {
            Ok(a) if a.value == expected => {
                self.spans.record_dur("query", "verify", wall, 1);
                if self.spans.measuring() {
                    let c = &mut self.counts;
                    c.queries += 1;
                    c.proof_bytes += (target.stats().bytes_received - received) as u64;
                    c.rounds += a.rounds as u64;
                    c.space_words += a.space_words as u64;
                }
            }
            Ok(a) => {
                self.failed += 1;
                self.wrong += 1;
                eprintln!(
                    "WRONG ANSWER accepted: got {}, ground truth {}",
                    a.value.to_u128(),
                    expected.to_u128()
                );
                return Ok(());
            }
            Err(rej) => {
                self.failed += 1;
                eprintln!("honest query failed: {rej}");
                return Ok(());
            }
        }
        if self.cfg.trace
            && self.spans.measuring()
            && (index + 1).is_multiple_of(self.shape().replay_every)
        {
            let layers = replay_query(self.plan, stores, &point, &values, self.shape().oneshot)?;
            self.record_replay(wall, layers);
        }
        Ok(())
    }

    fn record_replay(&mut self, wall: Duration, l: QueryLayers) {
        let s = &mut self.spans;
        s.record_dur("replay", "wall", wall, 1);
        s.record_dur("replay", "prover", l.prover, 1);
        s.record_dur("replay", "verifier", l.verifier, 1);
        s.record_dur("replay", "transcript", l.transcript, 1);
        s.record_dur("replay", "codec", l.codec, l.bytes as u64);
        s.record_dur("replay", "frames", Duration::ZERO, l.frames as u64);
    }

    fn report(&self, epochs: u64, measured: Duration) -> Result<Report, String> {
        let mut notes = vec![format!(
            "workload {} seed {} trace {}: {epochs} measured epochs in {:.3} s (+1 warm-up)",
            self.cfg.workload.name(),
            self.cfg.seed,
            u8::from(self.cfg.trace),
            measured.as_secs_f64()
        )];
        let metrics = if self.failed > 0 {
            Vec::new()
        } else if self.cfg.trace {
            self.per_layer(&mut notes)?
        } else {
            self.end_to_end(&mut notes)?
        };
        let attempted = self.attempted;
        notes.push(format!(
            "failed_ops_ratio = {} ({} of {attempted} ops; {} wrong answers)",
            self.failed as f64 / attempted.max(1) as f64,
            self.failed,
            self.wrong
        ));
        Ok(Report {
            correct: self.failed == 0,
            attempted,
            failed: self.failed,
            metrics,
            notes,
        })
    }

    fn end_to_end(&self, notes: &mut Vec<String>) -> Result<Vec<Metric>, String> {
        let s = &self.spans;
        let setups: Vec<f64> = s
            .get("epoch/setup")
            .durs
            .iter()
            .map(Duration::as_secs_f64)
            .collect();
        let lat = s.get("query/verify");
        let mut us: Vec<f64> = lat.durs.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        us.sort_by(f64::total_cmp);
        let p50 = percentile(&us, 0.50).ok_or("too few samples for query_p50_us")?;
        let p90 = percentile(&us, 0.90).ok_or("too few samples for query_p90_us")?;
        // The ingest workload's writes are its passes; the query workloads'
        // writes are their set-up uploads.
        let writes = if self.shape().passes > 0 {
            s.get("ingest/pass")
        } else {
            s.get("setup/upload")
        };
        let c = &self.counts;
        let q = c.queries.max(1) as f64;
        let beyond = |q: f64| us.len() - (q * us.len() as f64).ceil() as usize;
        notes.push(format!(
            "samples: {} queries ({} beyond p50, {} beyond p90), {} write phases, {} set-ups",
            us.len(),
            beyond(0.5),
            beyond(0.9),
            writes.durs.len(),
            setups.len()
        ));
        notes.push(format!(
            "set-up seconds per epoch: min {:.4} median {:.4} max {:.4}",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            median(&setups),
            setups.iter().copied().fold(0.0, f64::max)
        ));
        let m = |name: &'static str, value: f64| Metric {
            name,
            value,
            unit: unit_of(name),
        };
        Ok(vec![
            m("setup_s", median(&setups)),
            m("ingest_updates_per_s", writes.work as f64 / writes.secs()),
            m("queries_per_s", lat.durs.len() as f64 / lat.secs()),
            m("query_p50_us", p50),
            m("query_p90_us", p90),
            m("proof_bytes_per_query", c.proof_bytes as f64 / q),
            m(
                "upload_bytes_per_update",
                c.upload_bytes as f64 / c.uploaded.max(1) as f64,
            ),
            m("rounds_per_query", c.rounds as f64 / q),
            m("verifier_space_words", c.space_words as f64 / q),
            m("peak_rss_mb", median(&self.peaks_mb)),
        ])
    }

    fn per_layer(&self, notes: &mut Vec<String>) -> Result<Vec<Metric>, String> {
        let s = &self.spans;
        let ingest = self.shape().passes > 0;
        let phase = if ingest {
            "ingest.pass"
        } else {
            "setup.upload"
        };
        let wall = if ingest {
            s.get("ingest/pass")
        } else {
            s.get("setup/upload")
        };
        let send = s.get(&format!("{phase}/send"));
        let drain = s.get(&format!("{phase}/drain"));
        let apply = s.get(&format!("{phase}/apply"));
        let lde = s.get(&format!("{phase}/lde"));
        let lde_setup = s.get("setup.upload/lde");
        // Every live copy's ingest: the set-up upload's, plus the passes'.
        let (lde_secs, lde_work) = if ingest {
            (lde.secs() + lde_setup.secs(), lde.work + lde_setup.work)
        } else {
            (lde.secs(), lde.work)
        };
        let lde_ns = lde_secs * 1e9 / lde_work.max(1) as f64;
        let busy = send.secs() + lde.secs();
        let write_wall = wall.secs();

        let n = s.get("replay/wall").durs.len().max(1) as f64;
        let per_q = |name: &str| s.get(name).secs() * 1e6 / n;
        let q_wall = per_q("replay/wall");
        let (prover, verifier, transcript, codec) = (
            per_q("replay/prover"),
            per_q("replay/verifier"),
            per_q("replay/transcript"),
            per_q("replay/codec"),
        );
        // An interactive query hashes nothing: its transcript figure is the
        // one-shot cost of the same shape and stays out of its residual.
        let on_path_transcript = if self.shape().oneshot {
            transcript
        } else {
            0.0
        };
        let residual = q_wall - prover - verifier - on_path_transcript - codec;
        notes.push(format!(
            "query residual: {residual:.1} us of {q_wall:.1} us wall ({:.1}%) over {} replayed queries \
             = wall - prover {prover:.1} - verifier {verifier:.1} - transcript {on_path_transcript:.1} \
             - codec {codec:.1}",
            100.0 * residual / q_wall,
            n
        ));
        notes.push(format!(
            "write residual: {:.1}% of {:.1} ms over {} write phases = wall - send - lde - apply \
             (negative when the prover's apply overlaps the client's work)",
            100.0 * (write_wall - busy - apply.secs()) / write_wall,
            write_wall * 1e3,
            wall.durs.len()
        ));
        // The set-up upload feeds the live copies: its digest share is the
        // copies' ingest, the rest is upload and barrier.
        let setup_lde = ms_list(&lde_setup.durs);
        let setup_upload: Vec<f64> = ms_list(&s.get("setup/upload").durs)
            .iter()
            .zip(&setup_lde)
            .map(|(wall, lde)| wall - lde)
            .collect();
        let m = |name: &'static str, value: f64| Metric {
            name,
            value,
            unit: unit_of(name),
        };
        Ok(vec![
            m("lde.ns_per_point_update", lde_ns),
            m(
                "wire.send_ns_per_update",
                send.secs() * 1e9 / send.work.max(1) as f64,
            ),
            m(
                "server.drain_ms_per_pass",
                drain.secs() * 1e3 / drain.durs.len().max(1) as f64,
            ),
            m(
                "streaming.apply_ns_per_update",
                apply.secs() * 1e9 / apply.work.max(1) as f64,
            ),
            m("ingest.client_busy_frac", busy / write_wall),
            m(
                "ingest.residual_frac",
                (write_wall - busy - apply.secs()) / write_wall,
            ),
            m("prover.us_per_query", prover),
            m("verifier.us_per_query", verifier),
            m("transcript.us_per_query", transcript),
            m("wire.codec_us_per_query", codec),
            m(
                "wire.bytes_per_query",
                s.get("replay/codec").work as f64 / n,
            ),
            m(
                "wire.frames_per_query",
                s.get("replay/frames").work as f64 / n,
            ),
            m("query.wall_us", q_wall),
            m("query.residual_us", residual),
            m(
                "setup.spawn_ms",
                median(&ms_list(&s.get("setup/spawn").durs)),
            ),
            m("setup.upload_ms", median(&setup_upload)),
            m("setup.digest_ms", median(&setup_lde)),
        ])
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
        .expect("every emitted metric is declared")
}

fn ms_list(durs: &[Duration]) -> Vec<f64> {
    durs.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples, or `None` unless at least
/// ten samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// Resets the kernel's peak-RSS mark to the current RSS, so that the next
/// reading covers one epoch. Heap the allocator kept from earlier epochs
/// is returned first, or the mark would start at it. Where the reset is
/// unavailable the reading covers the process so far, which is never lower.
fn reset_peak_rss() {
    release_free_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Returns the free pages of every malloc arena to the kernel.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and may be called from
    // any thread at any time; it only releases memory malloc holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident set of this process (client and in-process provers)
/// since the last [`reset_peak_rss`].
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
