//! Crash-recovery golden traces for durable per-shard checkpoints.
//!
//! The invariant: a run killed at round *k* — at a round boundary or in
//! the middle of a round, after its fan-out but before its reduction —
//! and restored from its durable checkpoint replays to per-round losses,
//! per-round scores and final global weights **bit-identical** to the
//! uninterrupted run, under either schedule and every
//! `FLUX_THREADS` setting (CI re-runs this suite at 1/4/8). Nothing the
//! checkpoint does not persist may influence the result: dataset, fleet
//! and RNG chain are rebuilt deterministically from the seed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use threadpool::ThreadPool;

use flux_core::driver::{ExecutionMode, FederatedRun, Method, RunConfig, RunPhase, RunResult};
use flux_core::scheduler::{JobSpec, SchedulePolicy, Scheduler};
use flux_data::DatasetKind;
use flux_fl::snapshot::{corrupt_file_byte, shard_file};
use flux_fl::{ParameterServer, SnapshotError};
use flux_moe::MoeConfig;

fn quick() -> RunConfig {
    RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k)
}

fn pool() -> ThreadPool {
    ThreadPool::from_env()
}

/// A unique scratch directory per test (parallel tests, repeated runs).
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "flux_recovery_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, Clone, PartialEq)]
struct Trace {
    rounds: Vec<(f32, f32, f64)>,
    checksum: u64,
}

fn trace_of(result: &RunResult) -> Trace {
    Trace {
        rounds: result
            .rounds
            .iter()
            .map(|r| (r.train_loss, r.score, r.elapsed_hours))
            .collect(),
        checksum: result.final_model.param_checksum(),
    }
}

/// Runs to completion, checkpointing at the requested point and simulating
/// the kill by dropping the live run, then restoring and finishing.
fn run_with_kill(run: &FederatedRun, method: Method, kill_round: usize, mid_round: bool) -> Trace {
    let pool = pool();
    let dir = temp_dir("kill");
    {
        let mut active = run.start(method);
        for _ in 0..kill_round {
            active.step_round(&pool);
        }
        if mid_round {
            active.start_round(&pool);
            assert_eq!(active.poll(), RunPhase::ReadyToFinish { round: kill_round });
        }
        active.checkpoint(&dir).expect("checkpoint succeeds");
        // The process "crashes" here: the live run is dropped on the floor.
    }
    let mut restored = run.restore(method, &dir).expect("checkpoint restores");
    assert_eq!(
        restored.poll(),
        RunPhase::ReadyToStart { round: kill_round },
        "a restored run re-enters the interrupted round"
    );
    while !restored.is_done() {
        restored.step_round(&pool);
    }
    let result = restored.finish();
    let _ = std::fs::remove_dir_all(&dir);
    trace_of(&result)
}

#[test]
fn kill_at_round_boundary_replays_bit_identically() {
    let run = FederatedRun::new(quick(), 21);
    let reference = trace_of(&run.run(Method::Flux));
    for kill_round in [1, 2] {
        let recovered = run_with_kill(&run, Method::Flux, kill_round, false);
        assert_eq!(
            recovered, reference,
            "kill at round {kill_round} boundary must replay bit-identically"
        );
    }
}

#[test]
fn kill_mid_round_replays_bit_identically() {
    for mode in [ExecutionMode::Pipelined, ExecutionMode::Barriered] {
        let run = FederatedRun::new(quick(), 22).with_mode(mode);
        let reference = trace_of(&run.run(Method::Flux));
        for kill_round in [0, 1] {
            let recovered = run_with_kill(&run, Method::Flux, kill_round, true);
            assert_eq!(
                recovered, reference,
                "{mode:?}: kill inside round {kill_round} must replay bit-identically"
            );
        }
    }
}

#[test]
fn kill_mid_round_with_over_a_megabyte_staged_replays_bit_identically() {
    // 32 sampled FMD clients each stage every expert, so the mid-round
    // checkpoint carries a staged aggregator of several megabytes.
    let mut config = quick().with_participants(64).with_cohort(32);
    config.num_samples = 2000;
    let run = FederatedRun::new(config, 5);
    let reference = trace_of(&run.run(Method::Fmd));
    let recovered = run_with_kill(&run, Method::Fmd, 1, true);
    assert_eq!(
        recovered, reference,
        "a large staged round must restore and replay bit-identically"
    );
}

#[test]
fn every_method_survives_a_mid_run_kill() {
    for method in Method::all() {
        let run = FederatedRun::new(quick(), 23);
        let reference = trace_of(&run.run(method));
        let recovered = run_with_kill(&run, method, 1, false);
        assert_eq!(
            recovered,
            reference,
            "{} must recover bit-identically",
            method.label()
        );
    }
}

#[test]
fn checkpoints_after_a_quiet_interval_are_incremental() {
    let pool = pool();
    let dir = temp_dir("incremental");
    let run = FederatedRun::new(quick(), 24);
    let mut active = run.start(Method::Flux);
    active.step_round(&pool);
    let first = active.checkpoint(&dir).expect("first checkpoint");
    assert!(first.shards_written > 0);
    assert!(
        first.frozen_written,
        "first checkpoint writes the frozen base"
    );
    // Nothing changed since: only the manifest is rewritten.
    let second = active.checkpoint(&dir).expect("second checkpoint");
    assert_eq!(second.shards_written, 0, "clean shards are skipped");
    assert!(!second.frozen_written);
    assert!(!second.head_written);
    assert!(second.bytes_written < first.bytes_written);
    // Another round dirties only the shards it touched.
    active.step_round(&pool);
    let third = active.checkpoint(&dir).expect("third checkpoint");
    assert!(third.shards_written >= 1);
    assert!(
        !third.frozen_written,
        "the frozen base is written exactly once"
    );
    assert_eq!(
        third.shards_written + third.shards_skipped,
        first.shards_written + first.shards_skipped,
        "every shard is either written or skipped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_shard_is_detected_and_named() {
    let pool = pool();
    let dir = temp_dir("corrupt");
    let run = FederatedRun::new(quick(), 25);
    let mut active = run.start(Method::Flux);
    active.step_round(&pool);
    active.checkpoint(&dir).expect("checkpoint succeeds");
    corrupt_file_byte(dir.join(shard_file(3)), 17).expect("damage one shard file");
    let err = match run.restore(Method::Flux, &dir) {
        Err(err) => err,
        Ok(_) => panic!("a damaged shard must fail the restore"),
    };
    match &err {
        SnapshotError::ChecksumMismatch { file } => {
            assert_eq!(file, &shard_file(3), "the error names the damaged shard")
        }
        other => panic!("expected a checksum mismatch, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_rejects_a_foreign_fingerprint() {
    let pool = pool();
    let dir = temp_dir("fingerprint");
    let run = FederatedRun::new(quick(), 26);
    let mut active = run.start(Method::Flux);
    active.step_round(&pool);
    active.checkpoint(&dir).expect("checkpoint succeeds");
    // Wrong seed.
    let other_seed = FederatedRun::new(quick(), 27);
    assert!(matches!(
        other_seed.restore(Method::Flux, &dir),
        Err(SnapshotError::Mismatch(_))
    ));
    // Wrong method.
    assert!(matches!(
        run.restore(Method::Fmd, &dir),
        Err(SnapshotError::Mismatch(_))
    ));
    // Missing directory.
    assert!(run
        .restore(Method::Flux, temp_dir("does_not_exist"))
        .is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scheduler_resumes_a_tenant_from_its_checkpoint() {
    let pool = pool();
    let run = FederatedRun::new(quick(), 28);
    let reference = trace_of(&run.run(Method::Fmes));
    // Kill a standalone run after one round.
    let dir = temp_dir("scheduler");
    {
        let mut active = run.start(Method::Fmes);
        active.step_round(&pool);
        active.checkpoint(&dir).expect("checkpoint succeeds");
    }
    // Resume it as one tenant among others on a shared server.
    let server = ParameterServer::empty(flux_fl::DEFAULT_SHARDS);
    let scheduler = Scheduler::on_pool(pool, SchedulePolicy::RoundRobin);
    let results = scheduler.run_all_on(
        &server,
        vec![
            JobSpec::new("resumed", run, Method::Fmes).with_resume(&dir),
            JobSpec::new("fresh", FederatedRun::new(quick(), 29), Method::Fmd),
        ],
    );
    assert_eq!(trace_of(&results[0].result), reference);
    assert_eq!(results[1].result.rounds.len(), 3);
    assert_eq!(server.num_tenants(), 0, "finished tenants deregister");
    let _ = std::fs::remove_dir_all(&dir);
}
