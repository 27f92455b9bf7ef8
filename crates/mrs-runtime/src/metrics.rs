//! Job metrics: the observability hooks the benchmark harness reads.

use std::time::Duration;

/// Counters accumulated over one job.
#[derive(Debug, Default, Clone)]
pub struct JobMetrics {
    map_ops: u64,
    reduce_ops: u64,
    map_time: Duration,
    reduce_time: Duration,
    shuffle_bytes: u64,
    tasks_executed: u64,
    tasks_retried: u64,
    affinity_hits: u64,
    affinity_misses: u64,
    connections_opened: u64,
    connections_reused: u64,
    tasks_stolen: u64,
    peak_in_flight: u64,
    dispatch_polls: u64,
    dispatched_tasks: u64,
    longpoll_parks: u64,
    longpoll_timeouts: u64,
    piggybacked_reports: u64,
    wakeups: u64,
    bytes_pre_compress: u64,
    bytes_on_wire: u64,
    shortcircuit_fetches: u64,
    checksum_retries: u64,
    eager_fragments: u64,
    eager_bytes: u64,
    residual_fetches: u64,
    overlap_micros: u64,
    fused_ops: u64,
    reducemap_tasks: u64,
    datasets_freed: u64,
    live_datasets: u64,
    peak_live_datasets: u64,
    speculative_launches: u64,
    speculative_wins: u64,
    speculative_losses: u64,
    cancelled_tasks: u64,
    straggler_micros_saved: u64,
    merge_runs: u64,
    presorted_runs: u64,
    merge_micros: u64,
    peak_reduce_records: u64,
}

impl JobMetrics {
    /// Record a completed map operation.
    pub fn record_map(&mut self, elapsed: Duration, shuffle_bytes: usize) {
        self.map_ops += 1;
        self.map_time += elapsed;
        self.shuffle_bytes += shuffle_bytes as u64;
    }

    /// Record a completed reduce operation.
    pub fn record_reduce(&mut self, elapsed: Duration) {
        self.reduce_ops += 1;
        self.reduce_time += elapsed;
    }

    /// Record one executed task (any kind).
    pub fn record_task(&mut self) {
        self.tasks_executed += 1;
    }

    /// Record a task retry (failure recovery).
    pub fn record_retry(&mut self) {
        self.tasks_retried += 1;
    }

    /// Record whether a task landed on its affinity-preferred slave.
    pub fn record_affinity(&mut self, hit: bool) {
        if hit {
            self.affinity_hits += 1;
        } else {
            self.affinity_misses += 1;
        }
    }

    /// Record an occupancy-driven steal: a task with a live affinity owner
    /// was handed to a less-loaded slave instead.
    pub fn record_steal(&mut self) {
        self.tasks_stolen += 1;
    }

    /// Record one `get_task` poll that dispatched `batch` assignments,
    /// and the cluster-wide running-task count after the dispatch (the
    /// occupancy gauge the scaling bench reads).
    pub fn record_dispatch(&mut self, batch: usize, in_flight_total: usize) {
        self.dispatch_polls += 1;
        self.dispatched_tasks += batch as u64;
        self.peak_in_flight = self.peak_in_flight.max(in_flight_total as u64);
    }

    /// Record a `get_task` request that found nothing runnable and parked
    /// server-side on the dispatch condvar (counted once per request).
    pub fn record_longpoll_park(&mut self) {
        self.longpoll_parks += 1;
    }

    /// Record a parked request whose long-poll deadline expired with still
    /// nothing runnable (it returned `Wait`, the fallback path).
    pub fn record_longpoll_timeout(&mut self) {
        self.longpoll_timeouts += 1;
    }

    /// Record `n` task-completion reports that rode on a `get_task` call
    /// instead of costing their own `task_done` RPCs.
    pub fn record_piggybacked_reports(&mut self, n: usize) {
        self.piggybacked_reports += n as u64;
    }

    /// Record one precise wake of the parked-dispatch registry (a state
    /// transition made work runnable while at least one request was parked).
    pub fn record_wakeup(&mut self) {
        self.wakeups += 1;
    }

    /// Completed map operations.
    pub fn map_ops(&self) -> u64 {
        self.map_ops
    }

    /// Completed reduce operations.
    pub fn reduce_ops(&self) -> u64 {
        self.reduce_ops
    }

    /// Total bytes of map output destined for the shuffle.
    pub fn shuffle_bytes(&self) -> u64 {
        self.shuffle_bytes
    }

    /// Total tasks executed.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks_executed
    }

    /// Tasks re-queued after failure.
    pub fn tasks_retried(&self) -> u64 {
        self.tasks_retried
    }

    /// Tasks that ran on their affinity-preferred slave.
    pub fn affinity_hits(&self) -> u64 {
        self.affinity_hits
    }

    /// Tasks that ran elsewhere than their preferred slave.
    pub fn affinity_misses(&self) -> u64 {
        self.affinity_misses
    }

    /// Cumulative map wall time.
    pub fn map_time(&self) -> Duration {
        self.map_time
    }

    /// Cumulative reduce wall time.
    pub fn reduce_time(&self) -> Duration {
        self.reduce_time
    }

    /// Record HTTP connection-pool activity attributed to this job
    /// (deltas of [`mrs_rpc::HttpClient::pool_stats`] over the job's
    /// lifetime).
    pub fn record_connections(&mut self, opened: u64, reused: u64) {
        self.connections_opened += opened;
        self.connections_reused += reused;
    }

    /// TCP connections dialled for this job's RPC and bucket traffic.
    /// With keep-alive this is O(peers), not O(requests).
    pub fn connections_opened(&self) -> u64 {
        self.connections_opened
    }

    /// Requests served over an already-open pooled connection.
    pub fn connections_reused(&self) -> u64 {
        self.connections_reused
    }

    /// Tasks stolen from a live-but-busier affinity owner.
    pub fn tasks_stolen(&self) -> u64 {
        self.tasks_stolen
    }

    /// Highest number of tasks simultaneously running across all slaves.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// `get_task` polls that dispatched at least one assignment.
    pub fn dispatch_polls(&self) -> u64 {
        self.dispatch_polls
    }

    /// Total assignments handed out across all dispatching polls; divided
    /// by [`Self::dispatch_polls`] this is the mean batch size — near 1.0
    /// for single-slot slaves, higher when capacity batching engages.
    pub fn dispatched_tasks(&self) -> u64 {
        self.dispatched_tasks
    }

    /// `get_task` requests that parked server-side (event-driven mode).
    pub fn longpoll_parks(&self) -> u64 {
        self.longpoll_parks
    }

    /// Parked requests that expired into a `Wait` (the timeout fallback;
    /// near zero when wakes are precise and work is flowing).
    pub fn longpoll_timeouts(&self) -> u64 {
        self.longpoll_timeouts
    }

    /// Completion reports delivered inside `get_task` calls rather than as
    /// standalone `task_done` RPCs — each one is a control round trip saved.
    pub fn piggybacked_reports(&self) -> u64 {
        self.piggybacked_reports
    }

    /// Times a state transition woke at least one parked dispatch request.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Record data-plane activity attributed to this job (deltas of
    /// [`crate::dataplane::snapshot`] over the job's lifetime).
    pub fn record_dataplane(&mut self, stats: crate::dataplane::DataPlaneStats) {
        self.bytes_pre_compress += stats.bytes_pre_compress;
        self.bytes_on_wire += stats.bytes_on_wire;
        self.shortcircuit_fetches += stats.shortcircuit_fetches;
        self.checksum_retries += stats.checksum_retries;
        self.eager_fragments += stats.eager_fragments;
        self.eager_bytes += stats.eager_bytes;
        self.residual_fetches += stats.residual_fetches;
        self.overlap_micros += stats.overlap_micros;
        self.merge_runs += stats.merge_runs;
        self.presorted_runs += stats.presorted_runs;
        self.merge_micros += stats.merge_micros;
        self.peak_reduce_records = self.peak_reduce_records.max(stats.peak_reduce_records);
    }

    /// Decoded (post-decompress) size of every bucket fetched over HTTP.
    pub fn bytes_pre_compress(&self) -> u64 {
        self.bytes_pre_compress
    }

    /// Actual HTTP body bytes moved for those fetches: a frame header
    /// above [`Self::bytes_pre_compress`] per bucket with stored frames
    /// (the default), well below it with `--mrs-compress on` and
    /// compressible data.
    pub fn bytes_on_wire(&self) -> u64 {
        self.bytes_on_wire
    }

    /// Colocated fetches served from the producer's own frame cache (or
    /// handed over in memory by the mock-parallel runtime) without touching
    /// the HTTP loopback.
    pub fn shortcircuit_fetches(&self) -> u64 {
        self.shortcircuit_fetches
    }

    /// Remote frames whose checksum failed and were re-fetched once.
    pub fn checksum_retries(&self) -> u64 {
        self.checksum_retries
    }

    /// Map-output buckets the eager shuffle fetcher pulled before the
    /// operation barrier cleared.
    pub fn eager_fragments(&self) -> u64 {
        self.eager_fragments
    }

    /// Decoded bytes of those eager fetches.
    pub fn eager_bytes(&self) -> u64 {
        self.eager_bytes
    }

    /// Reduce inputs an eager-enabled slave still fetched cold at task
    /// time (fragments published late, mispredicted, or invalidated).
    pub fn residual_fetches(&self) -> u64 {
        self.residual_fetches
    }

    /// Time warm fragments sat ready before their reduce-like task
    /// consumed them — transfer/verify/decompress time moved off the
    /// post-barrier critical path. Microsecond granularity because short
    /// overlaps on tiny inputs matter to the smoke benches.
    pub fn overlap_time(&self) -> Duration {
        Duration::from_micros(self.overlap_micros)
    }

    /// Record a fused reduce+map operation being queued.
    pub fn record_fused_op(&mut self) {
        self.fused_ops += 1;
    }

    /// Record one executed reducemap task: its wall time and the bytes it
    /// emitted into the shuffle (zero where the observer cannot see them,
    /// e.g. the master learning of a slave-side completion).
    pub fn record_reducemap_task(&mut self, elapsed: Duration, shuffle_bytes: usize) {
        self.reducemap_tasks += 1;
        self.reduce_time += elapsed;
        self.shuffle_bytes += shuffle_bytes as u64;
    }

    /// Record a dataset coming alive (materialized or queued).
    pub fn record_dataset_live(&mut self) {
        self.live_datasets += 1;
        self.peak_live_datasets = self.peak_live_datasets.max(self.live_datasets);
    }

    /// Record a dataset's storage being reclaimed — by lifetime GC when its
    /// last consumer finished, or by an explicit `discard`.
    pub fn record_dataset_freed(&mut self, by_gc: bool) {
        self.live_datasets = self.live_datasets.saturating_sub(1);
        if by_gc {
            self.datasets_freed += 1;
        }
    }

    /// Fused reduce+map operations executed.
    pub fn fused_ops(&self) -> u64 {
        self.fused_ops
    }

    /// Individual reducemap tasks executed across all fused operations.
    pub fn reducemap_tasks(&self) -> u64 {
        self.reducemap_tasks
    }

    /// Datasets reclaimed automatically by consumer-refcount lifetime GC.
    pub fn datasets_freed(&self) -> u64 {
        self.datasets_freed
    }

    /// Datasets currently holding storage.
    pub fn live_datasets(&self) -> u64 {
        self.live_datasets
    }

    /// High-water mark of simultaneously live datasets. For an iterative
    /// job with GC on, this stays O(1) regardless of iteration count.
    pub fn peak_live_datasets(&self) -> u64 {
        self.peak_live_datasets
    }

    /// Record a backup attempt being dispatched for a straggling task.
    pub fn record_speculative_launch(&mut self) {
        self.speculative_launches += 1;
    }

    /// Record a commit where a speculative backup finished first, beating
    /// the original attempt by `saved` (the straggler's elapsed time at
    /// commit minus the winner's runtime — wall clock moved off the
    /// barrier's critical path).
    pub fn record_speculative_win(&mut self, saved: Duration) {
        self.speculative_wins += 1;
        self.straggler_micros_saved += saved.as_micros() as u64;
    }

    /// Record a backup attempt that lost the race (the original finished
    /// first) or was abandoned when its task failed over.
    pub fn record_speculative_loss(&mut self) {
        self.speculative_losses += 1;
    }

    /// Record a cancel order issued to a slave running a doomed attempt.
    pub fn record_cancel(&mut self) {
        self.cancelled_tasks += 1;
    }

    /// Backup attempts dispatched for straggling tasks.
    pub fn speculative_launches(&self) -> u64 {
        self.speculative_launches
    }

    /// Races where the backup finished before the original.
    pub fn speculative_wins(&self) -> u64 {
        self.speculative_wins
    }

    /// Backup attempts that lost (wasted but bounded duplicate work).
    pub fn speculative_losses(&self) -> u64 {
        self.speculative_losses
    }

    /// Cancel orders issued to abort doomed attempts cooperatively.
    pub fn cancelled_tasks(&self) -> u64 {
        self.cancelled_tasks
    }

    /// Straggler tail latency removed by winning backups: for each
    /// speculative win, how much longer the loser had already been
    /// running than the entire winning attempt took. Microsecond
    /// granularity for the same reason as [`Self::overlap_time`].
    pub fn straggler_time_saved(&self) -> Duration {
        Duration::from_micros(self.straggler_micros_saved)
    }

    /// Record one merge-mode reduce input assembled in-process (the local
    /// runtimes' twin of [`crate::dataplane::record_merge_input`]): `runs`
    /// input runs, of which `presorted` arrived already sorted, `records`
    /// total records, assembled in `assembly` wall time.
    pub fn record_merge_input(
        &mut self,
        runs: usize,
        presorted: usize,
        records: usize,
        assembly: Duration,
    ) {
        self.merge_runs += runs as u64;
        self.presorted_runs += presorted as u64;
        self.merge_micros += assembly.as_micros() as u64;
        self.peak_reduce_records = self.peak_reduce_records.max(records as u64);
    }

    /// Input runs consumed by merge-mode reduce-like tasks.
    pub fn merge_runs(&self) -> u64 {
        self.merge_runs
    }

    /// Of [`Self::merge_runs`], runs that arrived already in sorted key
    /// order (no task-time sort was needed). Equal to `merge_runs` when
    /// every producer upholds the sorted-run guarantee.
    pub fn presorted_runs(&self) -> u64 {
        self.presorted_runs
    }

    /// Always 0: the background pre-merge is gone (every fragment reaches
    /// the reduce as its own run). Kept because the repo benchmark still
    /// reads `runtime.premerged_runs_per_job`; goes with that metric.
    pub fn premerged_runs(&self) -> u64 {
        0
    }

    /// Time reduce-like tasks spent assembling merge-ready input (decode
    /// plus any demotion sorts). Microsecond granularity for the same
    /// reason as [`Self::overlap_time`].
    pub fn merge_time(&self) -> Duration {
        Duration::from_micros(self.merge_micros)
    }

    /// Largest record count one reduce-like task materialized as input.
    pub fn peak_reduce_records(&self) -> u64 {
        self.peak_reduce_records
    }

    /// Render every counter in the Prometheus text exposition format
    /// (one `name value` sample per line, durations in seconds). This is
    /// what the master's `/metrics` endpoint serves and what the CI
    /// smoke check parses.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, v: u64| {
            out.push_str("mrs_");
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        };
        counter("map_ops_total", self.map_ops);
        counter("reduce_ops_total", self.reduce_ops);
        counter("shuffle_bytes_total", self.shuffle_bytes);
        counter("tasks_executed_total", self.tasks_executed);
        counter("tasks_retried_total", self.tasks_retried);
        counter("affinity_hits_total", self.affinity_hits);
        counter("affinity_misses_total", self.affinity_misses);
        counter("connections_opened_total", self.connections_opened);
        counter("connections_reused_total", self.connections_reused);
        counter("tasks_stolen_total", self.tasks_stolen);
        counter("peak_in_flight", self.peak_in_flight);
        counter("dispatch_polls_total", self.dispatch_polls);
        counter("dispatched_tasks_total", self.dispatched_tasks);
        counter("longpoll_parks_total", self.longpoll_parks);
        counter("longpoll_timeouts_total", self.longpoll_timeouts);
        counter("piggybacked_reports_total", self.piggybacked_reports);
        counter("wakeups_total", self.wakeups);
        counter("bytes_pre_compress_total", self.bytes_pre_compress);
        counter("bytes_on_wire_total", self.bytes_on_wire);
        counter("shortcircuit_fetches_total", self.shortcircuit_fetches);
        counter("checksum_retries_total", self.checksum_retries);
        counter("eager_fragments_total", self.eager_fragments);
        counter("eager_bytes_total", self.eager_bytes);
        counter("residual_fetches_total", self.residual_fetches);
        counter("fused_ops_total", self.fused_ops);
        counter("reducemap_tasks_total", self.reducemap_tasks);
        counter("datasets_freed_total", self.datasets_freed);
        counter("live_datasets", self.live_datasets);
        counter("peak_live_datasets", self.peak_live_datasets);
        counter("speculative_launches_total", self.speculative_launches);
        counter("speculative_wins_total", self.speculative_wins);
        counter("speculative_losses_total", self.speculative_losses);
        counter("cancelled_tasks_total", self.cancelled_tasks);
        counter("merge_runs_total", self.merge_runs);
        counter("presorted_runs_total", self.presorted_runs);
        counter("peak_reduce_records", self.peak_reduce_records);
        let mut seconds = |name: &str, d: Duration| {
            out.push_str("mrs_");
            out.push_str(name);
            out.push(' ');
            out.push_str(&format!("{:.6}\n", d.as_secs_f64()));
        };
        seconds("map_time_seconds_total", self.map_time);
        seconds("reduce_time_seconds_total", self.reduce_time);
        seconds("overlap_seconds_total", self.overlap_time());
        seconds("straggler_seconds_saved_total", self.straggler_time_saved());
        seconds("merge_seconds_total", self.merge_time());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = JobMetrics::default();
        m.record_map(Duration::from_millis(5), 100);
        m.record_map(Duration::from_millis(5), 50);
        m.record_reduce(Duration::from_millis(2));
        m.record_task();
        m.record_retry();
        m.record_affinity(true);
        m.record_affinity(false);
        m.record_connections(3, 40);
        m.record_steal();
        m.record_dispatch(3, 5);
        m.record_dispatch(1, 2);
        m.record_longpoll_park();
        m.record_longpoll_timeout();
        m.record_piggybacked_reports(4);
        m.record_wakeup();
        m.record_wakeup();
        m.record_dataplane(crate::dataplane::DataPlaneStats {
            bytes_pre_compress: 1000,
            bytes_on_wire: 300,
            shortcircuit_fetches: 7,
            checksum_retries: 1,
            eager_fragments: 5,
            eager_bytes: 640,
            residual_fetches: 2,
            overlap_micros: 2500,
            merge_runs: 6,
            presorted_runs: 6,
            merge_micros: 1500,
            peak_reduce_records: 900,
        });
        assert_eq!(m.map_ops(), 2);
        assert_eq!(m.reduce_ops(), 1);
        assert_eq!(m.shuffle_bytes(), 150);
        assert_eq!(m.tasks_executed(), 1);
        assert_eq!(m.tasks_retried(), 1);
        assert_eq!(m.affinity_hits(), 1);
        assert_eq!(m.affinity_misses(), 1);
        assert_eq!(m.connections_opened(), 3);
        assert_eq!(m.connections_reused(), 40);
        assert_eq!(m.tasks_stolen(), 1);
        assert_eq!(m.peak_in_flight(), 5);
        assert_eq!(m.dispatch_polls(), 2);
        assert_eq!(m.dispatched_tasks(), 4);
        assert_eq!(m.longpoll_parks(), 1);
        assert_eq!(m.longpoll_timeouts(), 1);
        assert_eq!(m.piggybacked_reports(), 4);
        assert_eq!(m.wakeups(), 2);
        assert_eq!(m.bytes_pre_compress(), 1000);
        assert_eq!(m.bytes_on_wire(), 300);
        assert_eq!(m.shortcircuit_fetches(), 7);
        assert_eq!(m.checksum_retries(), 1);
        assert_eq!(m.eager_fragments(), 5);
        assert_eq!(m.eager_bytes(), 640);
        assert_eq!(m.residual_fetches(), 2);
        assert_eq!(m.overlap_time(), Duration::from_micros(2500));
        assert!(m.map_time() >= Duration::from_millis(10));
        assert_eq!(m.merge_runs(), 6);
        assert_eq!(m.presorted_runs(), 6);
        assert_eq!(m.peak_reduce_records(), 900);
        assert_eq!(m.merge_time(), Duration::from_micros(1500));
    }

    #[test]
    fn merge_counters_accumulate_and_track_peak() {
        let mut m = JobMetrics::default();
        m.record_merge_input(4, 3, 1000, Duration::from_micros(700));
        m.record_merge_input(2, 2, 250, Duration::from_micros(300));
        assert_eq!(m.merge_runs(), 6);
        assert_eq!(m.presorted_runs(), 5);
        assert_eq!(m.peak_reduce_records(), 1000, "peak is a max, not a sum");
        assert_eq!(m.merge_time(), Duration::from_millis(1));
    }

    #[test]
    fn fusion_and_lifetime_counters_accumulate() {
        let mut m = JobMetrics::default();
        m.record_fused_op();
        m.record_fused_op();
        for _ in 0..5 {
            m.record_reducemap_task(Duration::from_millis(1), 40);
        }
        assert_eq!(m.fused_ops(), 2);
        assert_eq!(m.reducemap_tasks(), 5);
        assert_eq!(m.shuffle_bytes(), 200);
        assert!(m.reduce_time() >= Duration::from_millis(5));

        for _ in 0..3 {
            m.record_dataset_live();
        }
        m.record_dataset_freed(true);
        m.record_dataset_live();
        m.record_dataset_freed(false);
        assert_eq!(m.peak_live_datasets(), 3);
        assert_eq!(m.live_datasets(), 2);
        assert_eq!(m.datasets_freed(), 1, "only GC frees count as freed");
    }

    #[test]
    fn speculation_counters_accumulate() {
        let mut m = JobMetrics::default();
        m.record_speculative_launch();
        m.record_speculative_launch();
        m.record_speculative_win(Duration::from_micros(1500));
        m.record_speculative_loss();
        m.record_cancel();
        assert_eq!(m.speculative_launches(), 2);
        assert_eq!(m.speculative_wins(), 1);
        assert_eq!(m.speculative_losses(), 1);
        assert_eq!(m.cancelled_tasks(), 1);
        assert_eq!(m.straggler_time_saved(), Duration::from_micros(1500));
        let prom = m.to_prometheus();
        assert!(prom.contains("mrs_speculative_wins_total 1\n"));
        assert!(prom.contains("mrs_straggler_seconds_saved_total 0.001500\n"));
        for line in prom.lines() {
            let (name, value) = line.split_once(' ').expect("name value");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {name:?}"
            );
            assert!(value.parse::<f64>().is_ok(), "bad value {value:?}");
        }
    }
}
