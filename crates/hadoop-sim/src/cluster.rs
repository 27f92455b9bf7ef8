//! The JobTracker/TaskTracker discrete-event model.
//!
//! One [`HadoopCluster::run_job`] call plays out a full MR1 job on the
//! virtual clock: input scan (namenode), submission, a setup task, map
//! tasks, a barrier, reduce tasks (with shuffle), a cleanup task, and the
//! client's completion poll. Task *grants* and task-completion
//! *observations* both happen only on TaskTracker heartbeats, which is the
//! mechanism behind Hadoop's ~30 s per-job floor.
//!
//! The user's map/reduce functions really execute (so outputs are correct
//! and comparable with the Mrs runtimes), and their measured compute time
//! is charged to the virtual timeline.

use crate::clock::SimTime;
use crate::config::SimConfig;
use crate::events::EventQueue;
use crate::hdfs::{input_scan_time, read_time, InputProfile};
use mrs_core::task::{run_map_task_bucket, run_reduce_task};
use mrs_core::{Bucket, Error, FuncId, Program, Record, Result};
use mrs_rng::splitmix::hash_bytes;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// A simulated Hadoop cluster.
#[derive(Clone, Debug)]
pub struct HadoopCluster {
    nodes: usize,
    cfg: SimConfig,
}

/// Everything needed to run one job.
pub struct JobSpec<'a> {
    /// The program (shared with the Mrs runtimes via `mrs-core`).
    pub program: &'a dyn Program,
    /// Map function id.
    pub map_func: FuncId,
    /// Reduce function id.
    pub reduce_func: FuncId,
    /// Run the combiner after map tasks.
    pub combine: bool,
    /// The input records (conceptually already in HDFS).
    pub input: Vec<Record>,
    /// How that input looks to the namenode (file/directory counts drive
    /// the scan cost; bytes drive read time).
    pub input_profile: InputProfile,
    /// Number of map tasks.
    pub n_maps: usize,
    /// Number of reduce tasks.
    pub n_reduces: usize,
}

/// What the job produced and when.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job's output records (all reduce partitions concatenated).
    pub output: Vec<Record>,
    /// Client-observed total job time (virtual).
    pub total: Duration,
    /// Input-scan (namenode) portion of the total.
    pub input_scan: Duration,
    /// Virtual time when the last map completion was observed.
    pub maps_done_at: Duration,
    /// Virtual time when the last reduce completion was observed.
    pub reduces_done_at: Duration,
    /// Real (wall) compute time spent in user map code.
    pub map_compute: Duration,
    /// Real (wall) compute time spent in user reduce code.
    pub reduce_compute: Duration,
    /// Total bytes shuffled from maps to reduces.
    pub shuffle_bytes: u64,
    /// Speculative (backup) map attempts launched.
    pub speculative_launched: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Setup,
    Maps,
    Reduces,
    Cleanup,
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Task {
    Setup,
    Map(usize),
    Reduce(usize),
    Cleanup,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    Heartbeat(usize),
    Finish { tracker: usize, task: Task },
}

struct Tracker {
    free_map_slots: usize,
    free_reduce_slots: usize,
    /// Tasks finished but not yet reported (observed at next heartbeat).
    pending_reports: Vec<Task>,
}

impl HadoopCluster {
    /// A cluster of `nodes` TaskTrackers.
    pub fn new(nodes: usize, cfg: SimConfig) -> Result<HadoopCluster> {
        if nodes == 0 {
            return Err(Error::Invalid("cluster needs at least one node".into()));
        }
        cfg.validate().map_err(Error::Invalid)?;
        Ok(HadoopCluster { nodes, cfg })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Run one MapReduce job to completion on the virtual clock.
    pub fn run_job(&self, spec: &JobSpec) -> Result<JobReport> {
        let cfg = &self.cfg;
        if spec.n_maps == 0 || spec.n_reduces == 0 {
            return Err(Error::Invalid("need at least one map and one reduce task".into()));
        }

        // ---- pre-DES: namenode scan + submission --------------------------
        let scan = input_scan_time(cfg, &spec.input_profile);
        let t0 = SimTime::ZERO + scan + cfg.submit_overhead;

        // Split input (contiguous, even) and precompute per-split byte size.
        let splits = split_evenly(&spec.input, spec.n_maps);
        let split_bytes: Vec<u64> = splits.iter().map(|s| s.byte_size() as u64).collect();

        // ---- DES state ----------------------------------------------------
        let mut q: EventQueue<Ev> = EventQueue::new();
        let mut trackers: Vec<Tracker> = (0..self.nodes)
            .map(|_| Tracker {
                free_map_slots: cfg.map_slots,
                free_reduce_slots: cfg.reduce_slots,
                pending_reports: Vec::new(),
            })
            .collect();
        let phase_of = |i: usize| cfg.heartbeat * (i as u32) / (self.nodes as u32);
        for i in 0..self.nodes {
            q.push(t0.next_tick(cfg.heartbeat, phase_of(i)), Ev::Heartbeat(i));
        }

        let mut phase = Phase::Setup;
        let mut setup_assigned = false;
        let mut cleanup_assigned = false;
        let mut maps_pending: VecDeque<usize> = (0..spec.n_maps).collect();
        let mut reduces_pending: VecDeque<usize> = (0..spec.n_reduces).collect();
        let mut maps_reported = 0usize;
        let mut reduces_reported = 0usize;
        let mut map_outputs: Vec<Option<Vec<Bucket>>> = vec![None; spec.n_maps];
        let mut reduce_outputs: Vec<Option<Bucket>> = vec![None; spec.n_reduces];
        // Straggler/speculation bookkeeping (maps only, like early Hadoop).
        let mut map_done: Vec<bool> = vec![false; spec.n_maps];
        let mut map_base_dur: Vec<Duration> = vec![Duration::ZERO; spec.n_maps];
        let mut map_speculated: Vec<bool> = vec![false; spec.n_maps];
        let mut map_running: HashMap<usize, SimTime> = HashMap::new(); // expected finish
        let mut done_map_durs: Vec<Duration> = Vec::new();
        let mut speculative_launched = 0u64;
        let mut map_compute = Duration::ZERO;
        let mut reduce_compute = Duration::ZERO;
        let mut shuffle_bytes = 0u64;
        let mut maps_done_at = SimTime::ZERO;
        let mut reduces_done_at = SimTime::ZERO;
        let mut cleanup_done_at = SimTime::ZERO;

        while phase != Phase::Done {
            let (now, ev) = q.pop().ok_or_else(|| {
                Error::Invalid("simulation ran out of events before completion".into())
            })?;
            match ev {
                Ev::Finish { tracker, task } => {
                    // Slot frees at finish; the JobTracker only *learns* of
                    // the completion at this tracker's next heartbeat.
                    let t = &mut trackers[tracker];
                    match task {
                        Task::Reduce(_) => t.free_reduce_slots += 1,
                        _ => t.free_map_slots += 1,
                    }
                    if let Task::Map(m) = task {
                        if map_done[m] {
                            // A later duplicate (original or backup) of an
                            // already-finished map: free the slot, report
                            // nothing — first finisher won.
                            continue;
                        }
                        map_done[m] = true;
                        done_map_durs.push(map_base_dur[m]);
                        map_running.remove(&m);
                    }
                    t.pending_reports.push(task);
                }
                Ev::Heartbeat(i) => {
                    // 1. Observe completions reported by this tracker.
                    for task in std::mem::take(&mut trackers[i].pending_reports) {
                        match task {
                            Task::Setup => phase = Phase::Maps,
                            Task::Map(_) => {
                                maps_reported += 1;
                                if maps_reported == spec.n_maps {
                                    phase = Phase::Reduces;
                                    maps_done_at = now;
                                }
                            }
                            Task::Reduce(_) => {
                                reduces_reported += 1;
                                if reduces_reported == spec.n_reduces {
                                    phase = Phase::Cleanup;
                                    reduces_done_at = now;
                                }
                            }
                            Task::Cleanup => {
                                phase = Phase::Done;
                                cleanup_done_at = now;
                            }
                        }
                    }
                    if phase == Phase::Done {
                        break;
                    }

                    // 2. Grant work to free slots.
                    loop {
                        let granted = match phase {
                            Phase::Setup if !setup_assigned && trackers[i].free_map_slots > 0 => {
                                setup_assigned = true;
                                trackers[i].free_map_slots -= 1;
                                let dur = cfg.jvm_spawn + cfg.task_overhead;
                                q.push(now + dur, Ev::Finish { tracker: i, task: Task::Setup });
                                true
                            }
                            Phase::Maps if trackers[i].free_map_slots > 0 => {
                                match maps_pending.pop_front() {
                                    Some(m) => {
                                        trackers[i].free_map_slots -= 1;
                                        let (buckets, real) = {
                                            let t = std::time::Instant::now();
                                            let b = run_map_task_bucket(
                                                spec.program,
                                                spec.map_func,
                                                &splits[m],
                                                spec.n_reduces,
                                                spec.combine,
                                            )?;
                                            (b, t.elapsed())
                                        };
                                        map_compute += real;
                                        let base = cfg.jvm_spawn
                                            + cfg.task_overhead
                                            + read_time(cfg, split_bytes[m], 1)
                                            + real.mul_f64(cfg.compute_scale);
                                        map_base_dur[m] = base;
                                        let dur = if is_straggler(cfg, m, 0) {
                                            base.mul_f64(cfg.straggler_factor)
                                        } else {
                                            base
                                        };
                                        map_outputs[m] = Some(buckets);
                                        map_running.insert(m, now + dur);
                                        q.push(
                                            now + dur,
                                            Ev::Finish { tracker: i, task: Task::Map(m) },
                                        );
                                        true
                                    }
                                    // Queue drained: consider a speculative
                                    // backup for a slow running map.
                                    None if cfg.speculative => {
                                        match speculation_candidate(
                                            now,
                                            &map_running,
                                            &map_speculated,
                                            &done_map_durs,
                                        ) {
                                            None => false,
                                            Some(m) => {
                                                trackers[i].free_map_slots -= 1;
                                                map_speculated[m] = true;
                                                speculative_launched += 1;
                                                // The backup attempt runs at
                                                // base speed (speculation's
                                                // premise: the slowness was
                                                // environmental).
                                                let dur = map_base_dur[m];
                                                q.push(
                                                    now + dur,
                                                    Ev::Finish { tracker: i, task: Task::Map(m) },
                                                );
                                                true
                                            }
                                        }
                                    }
                                    None => false,
                                }
                            }
                            Phase::Reduces if trackers[i].free_reduce_slots > 0 => {
                                match reduces_pending.pop_front() {
                                    None => false,
                                    Some(r) => {
                                        trackers[i].free_reduce_slots -= 1;
                                        let mut input = Bucket::new();
                                        for mo in map_outputs.iter().flatten() {
                                            input.extend_from(&mo[r]);
                                        }
                                        let in_bytes = input.byte_size() as u64;
                                        shuffle_bytes += in_bytes;
                                        let (out, real) = {
                                            let t = std::time::Instant::now();
                                            let o = run_reduce_task(
                                                spec.program,
                                                spec.reduce_func,
                                                input,
                                            )?;
                                            (o, t.elapsed())
                                        };
                                        reduce_compute += real;
                                        let out_bytes = out.byte_size() as u64;
                                        let dur = cfg.jvm_spawn
                                            + cfg.task_overhead
                                            + Duration::from_secs_f64(
                                                in_bytes as f64 / cfg.shuffle_bytes_per_sec,
                                            )
                                            + Duration::from_secs_f64(
                                                out_bytes as f64 / cfg.disk_bytes_per_sec,
                                            )
                                            + real.mul_f64(cfg.compute_scale);
                                        reduce_outputs[r] = Some(out);
                                        q.push(
                                            now + dur,
                                            Ev::Finish { tracker: i, task: Task::Reduce(r) },
                                        );
                                        true
                                    }
                                }
                            }
                            Phase::Cleanup
                                if !cleanup_assigned && trackers[i].free_map_slots > 0 =>
                            {
                                cleanup_assigned = true;
                                trackers[i].free_map_slots -= 1;
                                let dur = cfg.jvm_spawn + cfg.task_overhead;
                                q.push(now + dur, Ev::Finish { tracker: i, task: Task::Cleanup });
                                true
                            }
                            _ => false,
                        };
                        if !granted {
                            break;
                        }
                    }

                    // 3. Keep heartbeating.
                    q.push(now + cfg.heartbeat, Ev::Heartbeat(i));
                }
            }
        }

        // The client sees completion on its next status poll.
        let observed = cleanup_done_at.next_tick(cfg.client_poll, Duration::ZERO);
        let output: Vec<Record> =
            reduce_outputs.into_iter().flatten().flat_map(|b| b.to_records()).collect();

        Ok(JobReport {
            output,
            total: observed.as_duration(),
            input_scan: scan,
            maps_done_at: maps_done_at.as_duration(),
            reduces_done_at: reduces_done_at.as_duration(),
            map_compute,
            reduce_compute,
            shuffle_bytes,
            speculative_launched,
        })
    }
}

/// Deterministic straggler lottery for a map attempt.
fn is_straggler(cfg: &SimConfig, map: usize, attempt: u32) -> bool {
    if cfg.straggler_prob <= 0.0 {
        return false;
    }
    let mut key = [0u8; 12];
    key[..8].copy_from_slice(&(map as u64).to_le_bytes());
    key[8..].copy_from_slice(&attempt.to_le_bytes());
    let h = hash_bytes(0x7374_7261_6767, &key); // "stragg"
    (h as f64 / u64::MAX as f64) < cfg.straggler_prob
}

/// Pick a running, not-yet-speculated map whose expected finish is still
/// more than 1.5 typical task durations away — Hadoop's "much slower than
/// its peers" rule, simplified.
fn speculation_candidate(
    now: SimTime,
    running: &HashMap<usize, SimTime>,
    speculated: &[bool],
    done_durs: &[Duration],
) -> Option<usize> {
    if done_durs.is_empty() {
        return None;
    }
    let mut sorted: Vec<Duration> = done_durs.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let threshold = now + median.mul_f64(1.5);
    running
        .iter()
        .filter(|&(&m, &expected)| !speculated[m] && expected > threshold)
        .map(|(&m, _)| m)
        .min() // deterministic choice
}

fn split_evenly(records: &[Record], splits: usize) -> Vec<Bucket> {
    let n = records.len();
    let base = n / splits;
    let extra = n % splits;
    let mut out = Vec::with_capacity(splits);
    let mut pos = 0;
    for i in 0..splits {
        let take = base + usize::from(i < extra);
        out.push(Bucket::from_slice(&records[pos..pos + take]));
        pos += take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::kv::encode_record;
    use mrs_core::{Datum, MapReduce, Simple};

    struct WordCount;

    impl MapReduce for WordCount {
        type K1 = u64;
        type V1 = String;
        type K2 = String;
        type V2 = u64;

        fn map(&self, _k: u64, v: &str, emit: &mut dyn FnMut(&str, u64)) {
            for w in v.split_whitespace() {
                emit(w, 1);
            }
        }

        fn reduce(&self, _k: &str, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
            emit(vs.sum());
        }

        fn has_combiner(&self) -> bool {
            true
        }
    }

    fn spec_input(lines: &[&str]) -> Vec<Record> {
        lines.iter().enumerate().map(|(i, l)| encode_record(&(i as u64), &l.to_string())).collect()
    }

    fn tiny_spec<'a>(program: &'a Simple<WordCount>, input: &'a [Record]) -> JobSpec<'a> {
        JobSpec {
            program,
            map_func: 0,
            reduce_func: 0,
            combine: false,
            input: input.to_vec(),
            input_profile: InputProfile::single_file(64),
            n_maps: 1,
            n_reduces: 1,
        }
    }

    #[test]
    fn empty_job_has_thirty_second_scale_floor() {
        // The paper's headline: a trivial job costs ~30 s on Hadoop.
        let program = Simple(WordCount);
        let input = spec_input(&["a b"]);
        let cluster = HadoopCluster::new(6, SimConfig::default()).unwrap();
        let report = cluster.run_job(&tiny_spec(&program, &input)).unwrap();
        let secs = report.total.as_secs_f64();
        assert!((18.0..45.0).contains(&secs), "job floor {secs}s");
    }

    #[test]
    fn output_is_correct_wordcount() {
        let program = Simple(WordCount);
        let input = spec_input(&["a b a", "c a b"]);
        let cluster = HadoopCluster::new(3, SimConfig::default()).unwrap();
        let mut spec = tiny_spec(&program, &input);
        spec.n_maps = 2;
        spec.n_reduces = 2;
        spec.combine = true;
        let report = cluster.run_job(&spec).unwrap();
        let mut counts: Vec<(String, u64)> = report
            .output
            .iter()
            .map(|(k, v)| (String::from_bytes(k).unwrap(), u64::from_bytes(v).unwrap()))
            .collect();
        counts.sort();
        assert_eq!(counts, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
    }

    #[test]
    fn many_small_files_dominate_startup() {
        let program = Simple(WordCount);
        let input = spec_input(&["x"]);
        let cluster = HadoopCluster::new(21, SimConfig::default()).unwrap();
        let mut spec = tiny_spec(&program, &input);
        spec.input_profile = InputProfile { files: 31_173, directories: 7_000, bytes: 1_000 };
        let report = cluster.run_job(&spec).unwrap();
        let scan = report.input_scan.as_secs_f64();
        assert!(scan > 400.0, "scan {scan}s");
        assert!(report.input_scan > report.total / 2, "scan should dominate");
    }

    #[test]
    fn more_tasks_than_slots_takes_more_heartbeat_rounds() {
        let program = Simple(WordCount);
        let lines: Vec<String> = (0..64).map(|i| format!("w{i}")).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let input = spec_input(&refs);
        let cluster = HadoopCluster::new(2, SimConfig::default()).unwrap();
        let mut small = tiny_spec(&program, &input);
        small.n_maps = 2;
        let mut big = tiny_spec(&program, &input);
        big.n_maps = 32;
        let t_small = cluster.run_job(&small).unwrap().total;
        let t_big = cluster.run_job(&big).unwrap().total;
        // 32 maps on 2 nodes × 2 slots = 8 waves of JVM spawns vs 1.
        assert!(t_big > t_small + Duration::from_secs(5), "{t_small:?} vs {t_big:?}");
    }

    #[test]
    fn more_nodes_shorten_wide_jobs() {
        let program = Simple(WordCount);
        let lines: Vec<String> = (0..64).map(|i| format!("w{i} x y z")).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let input = spec_input(&refs);
        let mut spec = tiny_spec(&program, &input);
        spec.n_maps = 48;
        spec.n_reduces = 8;
        let t2 = HadoopCluster::new(2, SimConfig::default()).unwrap().run_job(&spec).unwrap().total;
        let t12 =
            HadoopCluster::new(12, SimConfig::default()).unwrap().run_job(&spec).unwrap().total;
        assert!(t12 < t2, "{t12:?} !< {t2:?}");
    }

    #[test]
    fn combiner_reduces_shuffle_bytes() {
        let program = Simple(WordCount);
        let lines: Vec<String> = (0..50).map(|_| "same same same".to_string()).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let input = spec_input(&refs);
        let cluster = HadoopCluster::new(3, SimConfig::default()).unwrap();
        let mut with = tiny_spec(&program, &input);
        with.n_maps = 5;
        with.combine = true;
        let mut without = tiny_spec(&program, &input);
        without.n_maps = 5;
        without.combine = false;
        let b_with = cluster.run_job(&with).unwrap().shuffle_bytes;
        let b_without = cluster.run_job(&without).unwrap().shuffle_bytes;
        assert!(b_with < b_without / 10, "{b_with} vs {b_without}");
    }

    #[test]
    fn invalid_specs_rejected() {
        let program = Simple(WordCount);
        let input = spec_input(&["x"]);
        assert!(HadoopCluster::new(0, SimConfig::default()).is_err());
        let cluster = HadoopCluster::new(1, SimConfig::default()).unwrap();
        let mut spec = tiny_spec(&program, &input);
        spec.n_maps = 0;
        assert!(cluster.run_job(&spec).is_err());
    }

    #[test]
    fn phase_times_are_ordered() {
        let program = Simple(WordCount);
        let input = spec_input(&["a b c", "d e f"]);
        let cluster = HadoopCluster::new(4, SimConfig::default()).unwrap();
        let mut spec = tiny_spec(&program, &input);
        spec.n_maps = 2;
        spec.n_reduces = 2;
        let r = cluster.run_job(&spec).unwrap();
        assert!(r.input_scan <= r.maps_done_at);
        assert!(r.maps_done_at <= r.reduces_done_at);
        assert!(r.reduces_done_at <= r.total);
    }
}

#[cfg(test)]
mod speculation_tests {
    use super::*;
    use mrs_core::kv::encode_record;
    use mrs_core::{MapReduce, Simple};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A map that burns a measurable, deterministic amount of real time so
    /// map durations dominate the virtual timeline.
    struct SlowCount;

    impl MapReduce for SlowCount {
        type K1 = u64;
        type V1 = u64;
        type K2 = u64;
        type V2 = u64;

        fn map(&self, k: u64, v: u64, emit: &mut dyn FnMut(u64, u64)) {
            static SINK: AtomicU64 = AtomicU64::new(0);
            let mut acc = v;
            for i in 0..40_000u64 {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            }
            SINK.store(acc, Ordering::Relaxed);
            emit(k % 4, 1);
        }

        fn reduce(&self, _k: u64, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
            emit(vs.sum());
        }
    }

    fn spec_input(n: u64) -> Vec<Record> {
        (0..n).map(|i| encode_record(&i, &i)).collect()
    }

    fn run_with(cfg: SimConfig) -> JobReport {
        let cluster = HadoopCluster::new(6, cfg).unwrap();
        let program = Simple(SlowCount);
        cluster
            .run_job(&JobSpec {
                program: &program,
                map_func: 0,
                reduce_func: 0,
                combine: false,
                input: spec_input(48),
                input_profile: InputProfile::single_file(1 << 20),
                n_maps: 24,
                n_reduces: 4,
            })
            .unwrap()
    }

    fn straggler_cfg(speculative: bool) -> SimConfig {
        SimConfig {
            straggler_prob: 0.2,
            straggler_factor: 12.0,
            speculative,
            // Make map durations dominate so stragglers matter: cheap task
            // startup relative to the long straggler tail.
            jvm_spawn: Duration::from_millis(500),
            ..SimConfig::default()
        }
    }

    #[test]
    fn stragglers_slow_the_job_down() {
        let clean = run_with(SimConfig { speculative: false, ..straggler_cfg(false) });
        let no_stragglers = run_with(SimConfig { straggler_prob: 0.0, ..straggler_cfg(false) });
        assert!(
            clean.total > no_stragglers.total,
            "{:?} !> {:?}",
            clean.total,
            no_stragglers.total
        );
    }

    #[test]
    fn speculation_recovers_straggler_time() {
        let without = run_with(straggler_cfg(false));
        let with = run_with(straggler_cfg(true));
        assert!(with.speculative_launched > 0, "no backups launched");
        assert!(
            with.total < without.total,
            "speculation did not help: {:?} vs {:?}",
            with.total,
            without.total
        );
        // Output identical either way (first-finisher-wins is harmless for
        // deterministic tasks).
        assert_eq!(with.output, without.output);
    }

    #[test]
    fn no_stragglers_means_no_backups() {
        let report =
            run_with(SimConfig { straggler_prob: 0.0, speculative: true, ..straggler_cfg(true) });
        assert_eq!(report.speculative_launched, 0, "speculated without cause");
    }
}
