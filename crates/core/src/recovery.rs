//! Run-state codec for durable checkpoints (`FLUXRUN1`).
//!
//! [`ActiveRun::checkpoint`](crate::driver::ActiveRun::checkpoint) stores
//! the model itself through the store's versioned per-shard snapshot
//! (`flux_fl::snapshot`); everything *else* a run needs to resume — the
//! fingerprint identifying which run this is, the round index, the
//! simulated clock, per-round records, the assigner's utility tables, the
//! stale-profiling pipelines and (mid-round) the staged aggregator — rides
//! in the snapshot manifest's opaque `meta` blob, encoded here. The
//! manifest's trailing self-checksum covers the blob, so corruption is
//! detected before this module ever parses a byte.
//!
//! The format is little-endian and length-prefixed like every other Flux
//! codec; counts are bounded by plausibility caps so a damaged blob fails
//! with [`SnapshotError::Corrupt`] instead of attempting a huge
//! allocation.

use bytes::{BufMut, BytesMut};

use flux_fl::{PhaseTimes, RoundCostBreakdown, SnapshotError};
use flux_moe::checkpoint::{
    get_f32, get_f64, get_u32, get_u64, get_u8, get_vec, put_f64, put_vec, take,
};
use flux_moe::{ActivationProfile, ExpertKey};

use crate::assignment::ExpertUtility;
use crate::driver::{ExecutionMode, Method, PendingRound, RoundFaults, RoundRecord};

const MAGIC: &[u8; 8] = b"FLUXRUN1";
/// Version 2 adds the cohort-sampling fingerprint (cohort size and edge
/// aggregator count) after the participant count; version-1 blobs decode
/// with the full-participation defaults (`None`, 1 edge).
const VERSION: u32 = 2;
/// Plausibility cap on every decoded count (records, pids, experts…).
const MAX_COUNT: u64 = 1_000_000;

/// Everything the checkpoint persists about a run beyond the model shards.
pub(crate) struct RunState {
    pub(crate) seed: u64,
    pub(crate) method: Method,
    pub(crate) mode: ExecutionMode,
    pub(crate) rounds: u32,
    pub(crate) participants: u32,
    /// Clients sampled into each round's cohort (`None` = K = N: every
    /// registered client participates every round; no run materializes a
    /// participant before round 0).
    pub(crate) cohort_size: Option<u32>,
    /// Edge aggregators pre-reducing each round (`1` = flat aggregation).
    pub(crate) aggregation_edges: u32,
    pub(crate) next_round: u32,
    pub(crate) elapsed_s: f64,
    pub(crate) phases: PhaseTimes,
    pub(crate) records: Vec<RoundRecord>,
    pub(crate) pending: Option<PendingRound>,
    pub(crate) utilities: Vec<(usize, ExpertUtility)>,
    /// Per-participant Flux profiling state: `(stale profile, refreshes)`.
    pub(crate) flux: Vec<(Option<ActivationProfile>, usize)>,
    /// Per-participant FMES activation profiles.
    pub(crate) fmes: Vec<Option<ActivationProfile>>,
    /// Mid-round only: the staged aggregator's wire form
    /// (`flux_fl::encode_staged_aggregator`).
    pub(crate) aggregator: Option<Vec<u8>>,
}

impl RunState {
    /// Rejects a checkpoint written by a different run: resuming someone
    /// else's shards would silently diverge instead of failing loudly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn verify_fingerprint(
        &self,
        seed: u64,
        method: Method,
        mode: ExecutionMode,
        rounds: usize,
        participants: usize,
        cohort_size: Option<usize>,
        aggregation_edges: usize,
    ) -> Result<(), SnapshotError> {
        if self.seed != seed
            || self.method != method
            || self.mode != mode
            || self.rounds as usize != rounds
            || self.participants as usize != participants
            || self.cohort_size.map(|k| k as usize) != cohort_size
            || self.aggregation_edges as usize != aggregation_edges.max(1)
        {
            return Err(SnapshotError::Mismatch(format!(
                "checkpoint fingerprint (seed {}, {}, {:?}, {} rounds, {} participants, \
                 cohort {:?}, {} edges) does not match the run (seed {seed}, {}, {mode:?}, \
                 {rounds} rounds, {participants} participants, cohort {cohort_size:?}, \
                 {} edges)",
                self.seed,
                self.method.label(),
                self.mode,
                self.rounds,
                self.participants,
                self.cohort_size,
                self.aggregation_edges,
                method.label(),
                aggregation_edges.max(1),
            )));
        }
        Ok(())
    }
}

fn method_tag(method: Method) -> u8 {
    match method {
        Method::Flux => 0,
        Method::Fmd => 1,
        Method::Fmq => 2,
        Method::Fmes => 3,
    }
}

fn method_from_tag(tag: u8) -> Result<Method, SnapshotError> {
    match tag {
        0 => Ok(Method::Flux),
        1 => Ok(Method::Fmd),
        2 => Ok(Method::Fmq),
        3 => Ok(Method::Fmes),
        other => Err(corrupt(format!("unknown method tag {other}"))),
    }
}

fn mode_tag(mode: ExecutionMode) -> u8 {
    match mode {
        ExecutionMode::Barriered => 0,
        ExecutionMode::Pipelined => 1,
    }
}

fn mode_from_tag(tag: u8) -> Result<ExecutionMode, SnapshotError> {
    match tag {
        0 => Ok(ExecutionMode::Barriered),
        1 => Ok(ExecutionMode::Pipelined),
        other => Err(corrupt(format!("unknown execution-mode tag {other}"))),
    }
}

fn corrupt(message: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(message.into())
}

fn get_count(buf: &mut &[u8], what: &str) -> Result<usize, SnapshotError> {
    let count = u64::from(get_u32(buf)?);
    if count > MAX_COUNT {
        return Err(corrupt(format!("implausible {what} count {count}")));
    }
    Ok(count as usize)
}

fn put_breakdown(buf: &mut BytesMut, b: &RoundCostBreakdown) {
    put_f64(buf, b.profiling_s);
    put_f64(buf, b.merging_s);
    put_f64(buf, b.assignment_s);
    put_f64(buf, b.fine_tuning_s);
    put_f64(buf, b.offloading_s);
    put_f64(buf, b.communication_s);
}

fn get_breakdown(buf: &mut &[u8]) -> Result<RoundCostBreakdown, SnapshotError> {
    Ok(RoundCostBreakdown {
        profiling_s: get_f64(buf)?,
        merging_s: get_f64(buf)?,
        assignment_s: get_f64(buf)?,
        fine_tuning_s: get_f64(buf)?,
        offloading_s: get_f64(buf)?,
        communication_s: get_f64(buf)?,
    })
}

fn put_pids(buf: &mut BytesMut, pids: &[usize]) {
    buf.put_u32_le(pids.len() as u32);
    for &pid in pids {
        buf.put_u64_le(pid as u64);
    }
}

fn get_pids(buf: &mut &[u8]) -> Result<Vec<usize>, SnapshotError> {
    let count = get_count(buf, "pid")?;
    let mut pids = Vec::with_capacity(count);
    for _ in 0..count {
        pids.push(get_u64(buf)? as usize);
    }
    Ok(pids)
}

fn put_faults(buf: &mut BytesMut, faults: &RoundFaults) {
    put_pids(buf, &faults.dropped);
    put_pids(buf, &faults.retried);
    put_pids(buf, &faults.rejected);
}

fn get_faults(buf: &mut &[u8]) -> Result<RoundFaults, SnapshotError> {
    Ok(RoundFaults {
        dropped: get_pids(buf)?,
        retried: get_pids(buf)?,
        rejected: get_pids(buf)?,
    })
}

fn put_record(buf: &mut BytesMut, r: &RoundRecord) {
    buf.put_u64_le(r.round as u64);
    put_f64(buf, r.elapsed_hours);
    buf.put_f32_le(r.score);
    buf.put_f32_le(r.train_loss);
    put_f64(buf, r.round_seconds);
    buf.put_u64_le(r.tokens_trained as u64);
    buf.put_u64_le(r.upload_bytes_dense as u64);
    buf.put_u64_le(r.upload_bytes_compressed as u64);
    put_breakdown(buf, &r.breakdown);
    put_faults(buf, &r.faults);
}

fn get_record(buf: &mut &[u8]) -> Result<RoundRecord, SnapshotError> {
    Ok(RoundRecord {
        round: get_u64(buf)? as usize,
        elapsed_hours: get_f64(buf)?,
        score: get_f32(buf)?,
        train_loss: get_f32(buf)?,
        round_seconds: get_f64(buf)?,
        tokens_trained: get_u64(buf)? as usize,
        upload_bytes_dense: get_u64(buf)? as usize,
        upload_bytes_compressed: get_u64(buf)? as usize,
        breakdown: get_breakdown(buf)?,
        faults: get_faults(buf)?,
    })
}

fn put_pending(buf: &mut BytesMut, p: &PendingRound) {
    buf.put_u64_le(p.round as u64);
    put_f64(buf, p.elapsed_hours);
    buf.put_f32_le(p.train_loss);
    put_f64(buf, p.round_seconds);
    buf.put_u64_le(p.tokens_trained as u64);
    buf.put_u64_le(p.upload_bytes_dense as u64);
    buf.put_u64_le(p.upload_bytes_compressed as u64);
    put_breakdown(buf, &p.breakdown);
    put_faults(buf, &p.faults);
}

fn get_pending(buf: &mut &[u8]) -> Result<PendingRound, SnapshotError> {
    Ok(PendingRound {
        round: get_u64(buf)? as usize,
        elapsed_hours: get_f64(buf)?,
        train_loss: get_f32(buf)?,
        round_seconds: get_f64(buf)?,
        tokens_trained: get_u64(buf)? as usize,
        upload_bytes_dense: get_u64(buf)? as usize,
        upload_bytes_compressed: get_u64(buf)? as usize,
        breakdown: get_breakdown(buf)?,
        faults: get_faults(buf)?,
    })
}

fn put_profile(buf: &mut BytesMut, p: &ActivationProfile) {
    let layers = p.frequencies.len();
    buf.put_u32_le(layers as u32);
    for layer in 0..layers {
        put_vec(buf, &p.frequencies[layer]);
        put_vec(buf, &p.attention[layer]);
        let sets = &p.sample_sets[layer];
        buf.put_u32_le(sets.len() as u32);
        for set in sets {
            buf.put_u32_le(set.len() as u32);
            for &sample in set {
                buf.put_u64_le(sample as u64);
            }
        }
    }
}

fn get_profile(buf: &mut &[u8]) -> Result<ActivationProfile, SnapshotError> {
    let layers = get_count(buf, "layer")?;
    let mut frequencies = Vec::with_capacity(layers);
    let mut attention = Vec::with_capacity(layers);
    let mut sample_sets = Vec::with_capacity(layers);
    for _ in 0..layers {
        frequencies.push(get_vec(buf)?);
        attention.push(get_vec(buf)?);
        let experts = get_count(buf, "sample-set")?;
        let mut sets = Vec::with_capacity(experts);
        for _ in 0..experts {
            let samples = get_count(buf, "sample")?;
            let mut set = Vec::with_capacity(samples);
            for _ in 0..samples {
                set.push(get_u64(buf)? as usize);
            }
            sets.push(set);
        }
        sample_sets.push(sets);
    }
    Ok(ActivationProfile {
        frequencies,
        attention,
        sample_sets,
    })
}

fn put_opt_profile(buf: &mut BytesMut, p: Option<&ActivationProfile>) {
    match p {
        Some(profile) => {
            buf.put_u8(1);
            put_profile(buf, profile);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_profile(buf: &mut &[u8]) -> Result<Option<ActivationProfile>, SnapshotError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(get_profile(buf)?)),
        other => Err(corrupt(format!("unknown profile tag {other}"))),
    }
}

/// Encodes a run's resumable state into the snapshot-manifest `meta` blob.
pub(crate) fn encode_run_state(state: &RunState) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    // Fingerprint.
    buf.put_u64_le(state.seed);
    buf.put_u8(method_tag(state.method));
    buf.put_u8(mode_tag(state.mode));
    buf.put_u32_le(state.rounds);
    buf.put_u32_le(state.participants);
    match state.cohort_size {
        Some(k) => {
            buf.put_u8(1);
            buf.put_u32_le(k);
        }
        None => buf.put_u8(0),
    }
    buf.put_u32_le(state.aggregation_edges);
    // Position and clocks.
    buf.put_u32_le(state.next_round);
    put_f64(&mut buf, state.elapsed_s);
    put_breakdown(
        &mut buf,
        &RoundCostBreakdown {
            profiling_s: state.phases.profiling_s,
            merging_s: state.phases.merging_s,
            assignment_s: state.phases.assignment_s,
            fine_tuning_s: state.phases.fine_tuning_s,
            offloading_s: state.phases.offloading_s,
            communication_s: state.phases.communication_s,
        },
    );
    // History.
    buf.put_u32_le(state.records.len() as u32);
    for record in &state.records {
        put_record(&mut buf, record);
    }
    match &state.pending {
        Some(pending) => {
            buf.put_u8(1);
            put_pending(&mut buf, pending);
        }
        None => buf.put_u8(0),
    }
    // Assigner utilities.
    buf.put_u32_le(state.utilities.len() as u32);
    for (pid, utility) in &state.utilities {
        buf.put_u64_le(*pid as u64);
        buf.put_u32_le(utility.key.layer as u32);
        buf.put_u32_le(utility.key.expert as u32);
        buf.put_f32_le(utility.value);
        buf.put_u8(u8::from(utility.estimated));
    }
    // Profiling pipelines.
    buf.put_u32_le(state.flux.len() as u32);
    for (profile, refreshes) in &state.flux {
        buf.put_u64_le(*refreshes as u64);
        put_opt_profile(&mut buf, profile.as_ref());
    }
    buf.put_u32_le(state.fmes.len() as u32);
    for profile in &state.fmes {
        put_opt_profile(&mut buf, profile.as_ref());
    }
    // Mid-round staged aggregator.
    match &state.aggregator {
        Some(bytes) => {
            buf.put_u8(1);
            buf.put_u32_le(bytes.len() as u32);
            buf.put_slice(bytes);
        }
        None => buf.put_u8(0),
    }
    buf.to_vec()
}

/// Decodes a `meta` blob back into a [`RunState`].
///
/// # Errors
///
/// Fails with [`SnapshotError::Corrupt`] on a bad magic, unknown version or
/// any structurally implausible field.
pub(crate) fn decode_run_state(mut buf: &[u8]) -> Result<RunState, SnapshotError> {
    let buf = &mut buf;
    let magic = take(buf, MAGIC.len())?;
    if magic != MAGIC {
        return Err(corrupt("run-state blob has a bad magic"));
    }
    let version = get_u32(buf)?;
    if version == 0 || version > VERSION {
        return Err(corrupt(format!("unsupported run-state version {version}")));
    }
    let seed = get_u64(buf)?;
    let method = method_from_tag(get_u8(buf)?)?;
    let mode = mode_from_tag(get_u8(buf)?)?;
    let rounds = get_u32(buf)?;
    let participants = get_u32(buf)?;
    // Version-1 blobs predate cohort sampling: full participation, flat
    // aggregation.
    let (cohort_size, aggregation_edges) = if version >= 2 {
        let cohort = match get_u8(buf)? {
            0 => None,
            1 => Some(get_u32(buf)?),
            other => return Err(corrupt(format!("unknown cohort tag {other}"))),
        };
        (cohort, get_u32(buf)?)
    } else {
        (None, 1)
    };
    let next_round = get_u32(buf)?;
    let elapsed_s = get_f64(buf)?;
    let phase_breakdown = get_breakdown(buf)?;
    let phases = PhaseTimes {
        profiling_s: phase_breakdown.profiling_s,
        merging_s: phase_breakdown.merging_s,
        assignment_s: phase_breakdown.assignment_s,
        fine_tuning_s: phase_breakdown.fine_tuning_s,
        offloading_s: phase_breakdown.offloading_s,
        communication_s: phase_breakdown.communication_s,
    };
    let record_count = get_count(buf, "record")?;
    let mut records = Vec::with_capacity(record_count);
    for _ in 0..record_count {
        records.push(get_record(buf)?);
    }
    let pending = match get_u8(buf)? {
        0 => None,
        1 => Some(get_pending(buf)?),
        other => return Err(corrupt(format!("unknown pending tag {other}"))),
    };
    let utility_count = get_count(buf, "utility")?;
    let mut utilities = Vec::with_capacity(utility_count);
    for _ in 0..utility_count {
        let pid = get_u64(buf)? as usize;
        let layer = get_u32(buf)? as usize;
        let expert = get_u32(buf)? as usize;
        let value = get_f32(buf)?;
        let estimated = match get_u8(buf)? {
            0 => false,
            1 => true,
            other => return Err(corrupt(format!("unknown estimated tag {other}"))),
        };
        utilities.push((
            pid,
            ExpertUtility {
                key: ExpertKey { layer, expert },
                value,
                estimated,
            },
        ));
    }
    let flux_count = get_count(buf, "flux-state")?;
    let mut flux = Vec::with_capacity(flux_count);
    for _ in 0..flux_count {
        let refreshes = get_u64(buf)? as usize;
        let profile = get_opt_profile(buf)?;
        flux.push((profile, refreshes));
    }
    let fmes_count = get_count(buf, "fmes-profile")?;
    let mut fmes = Vec::with_capacity(fmes_count);
    for _ in 0..fmes_count {
        fmes.push(get_opt_profile(buf)?);
    }
    let aggregator = match get_u8(buf)? {
        0 => None,
        1 => {
            // A byte length, not an element count: `take` bounds it by the
            // bytes that remain, so a large staged round is not mistaken
            // for a corrupt one.
            let len = get_u32(buf)? as usize;
            Some(take(buf, len)?.to_vec())
        }
        other => return Err(corrupt(format!("unknown aggregator tag {other}"))),
    };
    if !buf.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the run state",
            buf.len()
        )));
    }
    Ok(RunState {
        seed,
        method,
        mode,
        rounds,
        participants,
        cohort_size,
        aggregation_edges,
        next_round,
        elapsed_s,
        phases,
        records,
        pending,
        utilities,
        flux,
        fmes,
        aggregator,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> ActivationProfile {
        ActivationProfile {
            frequencies: vec![vec![0.5, 0.25], vec![0.75, 0.0]],
            attention: vec![vec![0.1, 0.2], vec![0.3, 0.4]],
            sample_sets: vec![vec![vec![0, 2], vec![]], vec![vec![1], vec![0, 1, 2]]],
        }
    }

    fn sample_state() -> RunState {
        RunState {
            seed: 42,
            method: Method::Flux,
            mode: ExecutionMode::Pipelined,
            rounds: 5,
            participants: 2,
            cohort_size: Some(2),
            aggregation_edges: 3,
            next_round: 3,
            elapsed_s: 1234.5,
            phases: PhaseTimes {
                profiling_s: 1.0,
                merging_s: 2.0,
                assignment_s: 3.0,
                fine_tuning_s: 4.0,
                offloading_s: 5.0,
                communication_s: 6.0,
            },
            records: vec![RoundRecord {
                round: 0,
                elapsed_hours: 0.25,
                score: 0.5,
                train_loss: 1.5,
                round_seconds: 900.0,
                tokens_trained: 1000,
                upload_bytes_dense: 2048,
                upload_bytes_compressed: 512,
                breakdown: RoundCostBreakdown {
                    profiling_s: 1.0,
                    merging_s: 0.5,
                    assignment_s: 0.25,
                    fine_tuning_s: 10.0,
                    offloading_s: 0.0,
                    communication_s: 2.0,
                },
                faults: RoundFaults {
                    dropped: vec![1],
                    retried: vec![0],
                    rejected: vec![0, 1],
                },
            }],
            pending: Some(PendingRound {
                round: 1,
                elapsed_hours: 0.5,
                train_loss: 1.25,
                round_seconds: 800.0,
                tokens_trained: 900,
                upload_bytes_dense: 1024,
                upload_bytes_compressed: 256,
                breakdown: RoundCostBreakdown::default(),
                faults: RoundFaults::default(),
            }),
            utilities: vec![(
                0,
                ExpertUtility {
                    key: ExpertKey {
                        layer: 1,
                        expert: 3,
                    },
                    value: 0.125,
                    estimated: true,
                },
            )],
            flux: vec![(Some(sample_profile()), 4), (None, 0)],
            fmes: vec![None, Some(sample_profile())],
            aggregator: Some(vec![1, 2, 3, 4]),
        }
    }

    fn assert_states_equal(a: &RunState, b: &RunState) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.method, b.method);
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.participants, b.participants);
        assert_eq!(a.cohort_size, b.cohort_size);
        assert_eq!(a.aggregation_edges, b.aggregation_edges);
        assert_eq!(a.next_round, b.next_round);
        assert_eq!(a.elapsed_s, b.elapsed_s);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.records, b.records);
        assert_eq!(a.pending.is_some(), b.pending.is_some());
        if let (Some(x), Some(y)) = (&a.pending, &b.pending) {
            assert_eq!(x.round, y.round);
            assert_eq!(x.elapsed_hours, y.elapsed_hours);
            assert_eq!(x.train_loss, y.train_loss);
            assert_eq!(x.round_seconds, y.round_seconds);
            assert_eq!(x.tokens_trained, y.tokens_trained);
            assert_eq!(x.upload_bytes_dense, y.upload_bytes_dense);
            assert_eq!(x.upload_bytes_compressed, y.upload_bytes_compressed);
            assert_eq!(x.breakdown, y.breakdown);
            assert_eq!(x.faults, y.faults);
        }
        assert_eq!(a.utilities.len(), b.utilities.len());
        for ((pa, ua), (pb, ub)) in a.utilities.iter().zip(b.utilities.iter()) {
            assert_eq!(pa, pb);
            assert_eq!(ua.key, ub.key);
            assert_eq!(ua.value, ub.value);
            assert_eq!(ua.estimated, ub.estimated);
        }
        let profile_eq = |x: &Option<ActivationProfile>, y: &Option<ActivationProfile>| match (x, y)
        {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.frequencies == y.frequencies
                    && x.attention == y.attention
                    && x.sample_sets == y.sample_sets
            }
            _ => false,
        };
        assert_eq!(a.flux.len(), b.flux.len());
        for ((xp, xr), (yp, yr)) in a.flux.iter().zip(b.flux.iter()) {
            assert_eq!(xr, yr);
            assert!(profile_eq(xp, yp));
        }
        assert_eq!(a.fmes.len(), b.fmes.len());
        for (x, y) in a.fmes.iter().zip(b.fmes.iter()) {
            assert!(profile_eq(x, y));
        }
        assert_eq!(a.aggregator, b.aggregator);
    }

    #[test]
    fn run_state_round_trips() {
        let state = sample_state();
        let bytes = encode_run_state(&state);
        let decoded = decode_run_state(&bytes).expect("clean blob decodes");
        assert_states_equal(&state, &decoded);
    }

    #[test]
    fn empty_run_state_round_trips() {
        let state = RunState {
            records: Vec::new(),
            pending: None,
            utilities: Vec::new(),
            flux: Vec::new(),
            fmes: Vec::new(),
            aggregator: None,
            ..sample_state()
        };
        let bytes = encode_run_state(&state);
        let decoded = decode_run_state(&bytes).expect("clean blob decodes");
        assert_states_equal(&state, &decoded);
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let state = sample_state();
        let mut bytes = encode_run_state(&state);
        assert!(decode_run_state(&bytes[..bytes.len() - 1]).is_err());
        bytes[0] ^= 0xFF;
        assert!(decode_run_state(&bytes).is_err());
        assert!(decode_run_state(b"short").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_run_state(&sample_state());
        bytes.push(0);
        let err = match decode_run_state(&bytes) {
            Err(err) => err,
            Ok(_) => panic!("trailing bytes must fail"),
        };
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn staged_aggregators_over_a_megabyte_round_trip() {
        let state = RunState {
            aggregator: Some(vec![0xA5; 2 * MAX_COUNT as usize]),
            ..sample_state()
        };
        let bytes = encode_run_state(&state);
        let decoded = decode_run_state(&bytes).expect("a large staged round decodes");
        assert_states_equal(&state, &decoded);
        // A length that overruns the blob is still caught.
        assert!(decode_run_state(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn fingerprint_mismatches_are_attributed() {
        let state = sample_state();
        let ok = |seed, method, mode, rounds, n| {
            state.verify_fingerprint(seed, method, mode, rounds, n, Some(2), 3)
        };
        assert!(ok(42, Method::Flux, ExecutionMode::Pipelined, 5, 2).is_ok());
        let err = ok(43, Method::Flux, ExecutionMode::Pipelined, 5, 2).expect_err("seed mismatch");
        assert!(matches!(err, SnapshotError::Mismatch(_)));
        assert!(ok(42, Method::Fmd, ExecutionMode::Pipelined, 5, 2).is_err());
        assert!(ok(42, Method::Flux, ExecutionMode::Barriered, 5, 2).is_err());
        assert!(ok(42, Method::Flux, ExecutionMode::Pipelined, 6, 2).is_err());
        assert!(ok(42, Method::Flux, ExecutionMode::Pipelined, 5, 3).is_err());
        // Cohort configuration is part of the fingerprint: resuming a
        // sampled run with a different K (or tree shape) must fail loudly.
        assert!(state
            .verify_fingerprint(42, Method::Flux, ExecutionMode::Pipelined, 5, 2, Some(3), 3)
            .is_err());
        assert!(state
            .verify_fingerprint(42, Method::Flux, ExecutionMode::Pipelined, 5, 2, None, 3)
            .is_err());
        assert!(state
            .verify_fingerprint(42, Method::Flux, ExecutionMode::Pipelined, 5, 2, Some(2), 2)
            .is_err());
    }

    #[test]
    fn version_one_blobs_decode_with_full_participation_defaults() {
        // Re-encode sample_state() as a version-1 blob by hand: identical
        // layout minus the cohort fields.
        let state = sample_state();
        let v2 = encode_run_state(&state);
        let mut v1 = Vec::new();
        v1.extend_from_slice(&v2[..MAGIC.len()]);
        v1.extend_from_slice(&1u32.to_le_bytes());
        // seed(8) + method(1) + mode(1) + rounds(4) + participants(4).
        let fp_start = MAGIC.len() + 4;
        let fp_end = fp_start + 18;
        v1.extend_from_slice(&v2[fp_start..fp_end]);
        // Skip cohort tag+value (5 bytes for Some) and edges (4 bytes).
        v1.extend_from_slice(&v2[fp_end + 9..]);
        let decoded = decode_run_state(&v1).expect("v1 blob decodes");
        assert_eq!(decoded.cohort_size, None);
        assert_eq!(decoded.aggregation_edges, 1);
        assert_eq!(decoded.seed, state.seed);
        assert_eq!(decoded.next_round, state.next_round);
    }
}
