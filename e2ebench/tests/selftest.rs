//! Small-size self-test of the benchmark: every metric is emitted with its
//! unit, every answer is correct, the counts match their closed forms, and
//! the same seed gives the same counts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_cluster::ClusterF2Verifier;
use sip_core::sumcheck::f2::F2Verifier;
use sip_e2ebench::{percentile, run, Report, RunConfig, Shape, Workload, END_TO_END, PER_LAYER};
use sip_field::Fp61;
use sip_streaming::ShardPlan;

/// Metrics that count rather than time: they must repeat exactly.
const COUNTS: &[&str] = &[
    "proof_bytes_per_query",
    "upload_bytes_per_update",
    "rounds_per_query",
    "verifier_space_words",
    "wire.bytes_per_query",
    "wire.frames_per_query",
];

fn small(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = run(RunConfig {
        workload,
        shape: Shape::small(workload),
        seed,
        seconds: 0.0,
        trace,
    })
    .expect("small run completes");
    assert!(report.correct, "{}: an answer was wrong", workload.name());
    assert_eq!(report.failed, 0, "{}: honest ops failed", workload.name());
    assert!(report.attempted > 0);
    report
}

fn assert_emits(report: &Report, declared: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, declared, "metric names and units, in order");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let json = report.to_json();
    for (name, unit) in declared {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {json}"
        );
        assert!(
            json.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} in {json}"
        );
    }
}

#[test]
fn every_metric_is_emitted_and_counts_match_closed_forms() {
    for workload in Workload::ALL {
        let shape = Shape::small(workload);
        let timed = small(workload, 7, false);
        assert_emits(&timed, END_TO_END);
        let traced = small(workload, 7, true);
        assert_emits(&traced, PER_LAYER);

        let rounds = if shape.oneshot { 1 } else { shape.log_u };
        assert_eq!(timed.get("rounds_per_query"), Some(f64::from(rounds)));

        let mut rng = StdRng::seed_from_u64(0);
        let space = if shape.shards == 1 {
            F2Verifier::<Fp61>::new(shape.log_u, &mut rng).space_words()
        } else {
            ClusterF2Verifier::<Fp61>::new(ShardPlan::new(shape.log_u, shape.shards), &mut rng)
                .space_words()
        };
        assert_eq!(timed.get("verifier_space_words"), Some(space as f64));

        for (name, _) in END_TO_END {
            let v = timed.get(name).expect("emitted");
            assert!(
                v > 0.0,
                "{}: {name} = {v} must be positive",
                workload.name()
            );
        }
    }
}

#[test]
fn same_seed_gives_identical_counts() {
    for workload in Workload::ALL {
        let a = small(workload, 3, true);
        let b = small(workload, 3, true);
        let a0 = small(workload, 3, false);
        let b0 = small(workload, 3, false);
        for name in COUNTS {
            let x = a0.get(name).or(a.get(name)).expect("emitted");
            let y = b0.get(name).or(b.get(name)).expect("emitted");
            assert_eq!(x, y, "{}: {name} differs between runs", workload.name());
        }
    }
}

#[test]
fn percentiles_need_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.9), Some(90.0));
    assert_eq!(percentile(&xs, 0.5), Some(50.0));
    assert_eq!(percentile(&xs[..99], 0.9), None);
    assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
    assert_eq!(percentile(&xs[..19], 0.5), None);
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
