//! Job metrics: one declared table of counters.
//!
//! Every counter is one line of the `metrics!` table below — its
//! `Counter` variant, accessor, kind, Prometheus sample name and doc —
//! and everything else is generated from it: the plain-`u64`
//! [`JobMetrics`] store, one accessor per counter, the Prometheus text of
//! the master's `/metrics` page, and the codes a slave's tally travels
//! under on `get_task` (a counter's place in the table). Adding a metric
//! is one table line plus its call sites, and a protocol version bump.
//!
//! Every node owns one store beside the state it already locks (the
//! master's scheduler state, the pool's, the serial runtime, a slave's
//! pipe). Nothing is process-wide: two clusters in one process never see
//! each other's counts. A slave drains its tally into every poll it sends,
//! and the master merges it under the lock that applies that poll's
//! reports — so the master's store is the whole cluster's.

use std::time::Duration;

/// How a counter combines and how it reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A count: `JobMetrics::add`, merged by addition.
    Sum,
    /// A high-water mark: `JobMetrics::max`, merged by maximum.
    Max,
    /// Accumulated microseconds (`JobMetrics::add_time`): read as a
    /// [`Duration`], exported in seconds.
    Micros,
}

/// An accessor returning a counter under its kind's type.
macro_rules! accessor {
    (Micros, $get:ident, $var:ident, $doc:literal) => {
        #[doc = $doc]
        pub fn $get(&self) -> Duration {
            Duration::from_micros(self.get(Counter::$var))
        }
    };
    ($kind:ident, $get:ident, $var:ident, $doc:literal) => {
        #[doc = $doc]
        pub fn $get(&self) -> u64 {
            self.get(Counter::$var)
        }
    };
}

/// The table: `Variant accessor Kind "prometheus_name" "doc",` per line.
macro_rules! metrics {
    ($($var:ident $get:ident $kind:ident $prom:literal $doc:literal,)*) => {
        /// Names one counter of [`JobMetrics`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum Counter {
            $(#[doc = $doc] $var,)*
        }

        impl Counter {
            /// Every counter, in table order (the order `/metrics` prints).
            pub(crate) const ALL: &'static [Counter] = &[$(Counter::$var),*];
            /// Per counter: accessor (and wire) name, kind, sample name.
            const INFO: &'static [(&'static str, Kind, &'static str)] =
                &[$((stringify!($get), Kind::$kind, concat!("mrs_", $prom))),*];
        }

        impl JobMetrics {
            $(accessor!($kind, $get, $var, $doc);)*
        }
    };
}

metrics! {
    MapOps map_ops Sum "map_ops_total" "Completed map operations.",
    ReduceOps reduce_ops Sum "reduce_ops_total" "Completed reduce operations.",
    ShuffleBytes shuffle_bytes Sum "shuffle_bytes_total" "Bytes of map output bound for the shuffle.",
    TasksExecuted tasks_executed Sum "tasks_executed_total" "Tasks executed (committed).",
    TasksRetried tasks_retried Sum "tasks_retried_total" "Tasks re-queued after a failure.",
    AffinityHits affinity_hits Sum "affinity_hits_total" "Tasks run on their affinity-preferred slave.",
    AffinityMisses affinity_misses Sum "affinity_misses_total" "Tasks run elsewhere than their preferred slave.",
    ConnectionsOpened connections_opened Sum "connections_opened_total" "TCP connections bucket fetches dialled (O(peers) with keep-alive).",
    ConnectionsReused connections_reused Sum "connections_reused_total" "Bucket-fetch batches sent over an already-open pooled connection.",
    TasksStolen tasks_stolen Sum "tasks_stolen_total" "Tasks stolen from a live but busier affinity owner.",
    PeakInFlight peak_in_flight Max "peak_in_flight" "Most tasks running at once across all slaves.",
    DispatchPolls dispatch_polls Sum "dispatch_polls_total" "`get_task` polls that dispatched at least one task.",
    DispatchedTasks dispatched_tasks Sum "dispatched_tasks_total" "Tasks handed out by those polls (÷ polls = mean batch).",
    LongpollParks longpoll_parks Sum "longpoll_parks_total" "`get_task` requests that parked at the master.",
    LongpollTimeouts longpoll_timeouts Sum "longpoll_timeouts_total" "Parked requests that expired into a `Wait`.",
    PiggybackedReports piggybacked_reports Sum "piggybacked_reports_total" "Completion reports that rode a `get_task` call.",
    Wakeups wakeups Sum "wakeups_total" "State transitions that woke a parked poll.",
    AheadGrants ahead_grants Sum "ahead_grants_total" "Tasks granted before their inputs were all committed, naming pending ones by the URL they will have.",
    HeldFetches held_fetches Sum "held_fetches_total" "Lookups of a pending output a slave held until it was written or given up.",
    ControlBytes control_bytes Sum "control_bytes_total" "Request plus answer body bytes of the slaves' control RPCs, counted at their links.",
    BytesPreCompress bytes_pre_compress Sum "bytes_pre_compress_total" "Decoded bytes of buckets fetched over HTTP.",
    BytesOnWire bytes_on_wire Sum "bytes_on_wire_total" "HTTP body bytes those fetches moved (framed, maybe compressed).",
    ShortcircuitFetches shortcircuit_fetches Sum "shortcircuit_fetches_total" "Fetches served without a socket (own output table, in-memory handover).",
    ChecksumRetries checksum_retries Sum "checksum_retries_total" "Damaged remote frames fetched a second time.",
    FusedOps fused_ops Sum "fused_ops_total" "Fused reduce+map operations queued.",
    ReducemapTasks reducemap_tasks Sum "reducemap_tasks_total" "Reducemap tasks executed across all fused operations.",
    DatasetsFreed datasets_freed Sum "datasets_freed_total" "Datasets reclaimed by lifetime GC (not by `discard`).",
    LiveDatasets live_datasets Sum "live_datasets" "Datasets holding storage now: a gauge, not a sum.",
    PeakLiveDatasets peak_live_datasets Max "peak_live_datasets" "Most datasets live at once: O(1) for a GC'd iterative job.",
    SpeculativeLaunches speculative_launches Sum "speculative_launches_total" "Backup attempts dispatched for stragglers.",
    SpeculativeWins speculative_wins Sum "speculative_wins_total" "Races the backup won.",
    SpeculativeLosses speculative_losses Sum "speculative_losses_total" "Backup attempts that lost or were abandoned.",
    CancelledTasks cancelled_tasks Sum "cancelled_tasks_total" "Cancel orders issued to doomed attempts.",
    MergeRuns merge_runs Sum "merge_runs_total" "Input runs consumed by reduce-like tasks.",
    PresortedRuns presorted_runs Sum "presorted_runs_total" "Of those, runs that arrived already sorted.",
    PeakReduceRecords peak_reduce_records Max "peak_reduce_records" "Most records one reduce-like task took as input.",
    MapTime map_time Micros "map_time_seconds_total" "Cumulative map wall time.",
    ReduceTime reduce_time Micros "reduce_time_seconds_total" "Cumulative reduce (and reducemap) wall time.",
    StragglerTimeSaved straggler_time_saved Micros "straggler_seconds_saved_total" "Per speculative win, the loser's lead over the winner's runtime.",
    MergeTime merge_time Micros "merge_seconds_total" "Reduce-like tasks' time assembling merge-ready input.",
}

const N: usize = Counter::ALL.len();

impl Counter {
    /// The counter's accessor name, which is also its key on the wire.
    pub(crate) fn name(self) -> &'static str {
        Self::INFO[self as usize].0
    }

    /// How the counter combines.
    fn kind(self) -> Kind {
        Self::INFO[self as usize].1
    }

    /// The counter whose [`Self::name`] is `name`.
    #[cfg(test)]
    pub(crate) fn named(name: &str) -> Option<Counter> {
        Self::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// Every counter of one node's jobs, one `u64` per `Counter`: read them
/// through the accessors, one per counter under its table name.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct JobMetrics {
    values: [u64; N],
}

impl Default for JobMetrics {
    fn default() -> Self {
        JobMetrics { values: [0; N] }
    }
}

impl std::fmt::Debug for JobMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(Counter::ALL.iter().map(|&c| (c.name(), self.get(c)))).finish()
    }
}

impl JobMetrics {
    /// The raw value of `c` (microseconds for a time counter).
    pub(crate) fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Count `n` more of `c`. Saturates: a slave's tally is outside input.
    pub(crate) fn add(&mut self, c: Counter, n: u64) {
        let slot = &mut self.values[c as usize];
        *slot = slot.saturating_add(n);
    }

    /// Add `d` to the time counter `c`, at microsecond granularity.
    pub(crate) fn add_time(&mut self, c: Counter, d: Duration) {
        self.add(c, d.as_micros() as u64);
    }

    /// Raise the high-water mark `c` to `v` if it is higher.
    pub(crate) fn max(&mut self, c: Counter, v: u64) {
        let slot = &mut self.values[c as usize];
        *slot = (*slot).max(v);
    }

    /// Fold `other` in: high-water marks by maximum, the rest by addition.
    pub(crate) fn merge(&mut self, other: &JobMetrics) {
        for &c in Counter::ALL {
            match c.kind() {
                Kind::Max => self.max(c, other.get(c)),
                Kind::Sum | Kind::Micros => self.add(c, other.get(c)),
            }
        }
    }

    /// A dataset came alive (`true`) or was reclaimed (`false`): moves the
    /// `live_datasets` gauge and its high-water mark.
    pub(crate) fn dataset_live(&mut self, alive: bool) {
        let live = &mut self.values[Counter::LiveDatasets as usize];
        *live = if alive { *live + 1 } else { live.saturating_sub(1) };
        let live = *live;
        self.max(Counter::PeakLiveDatasets, live);
    }

    /// A dataset was freed, at a commit (`datasets_freed` counts those) or
    /// on a discard.
    pub(crate) fn dataset_freed(&mut self, at_commit: bool) {
        self.dataset_live(false);
        self.add(Counter::DatasetsFreed, at_commit as u64);
    }

    /// Counters of retired features, always 0 and outside the table: the
    /// repo benchmark still reads them (`bench/src/main.rs:498-501`), and
    /// they go with those metrics. Background pre-merge is gone (every
    /// fragment reaches the reduce as its own run), and so is the eager
    /// shuffle (every reduce input is fetched at task time).
    pub fn premerged_runs(&self) -> u64 {
        0
    }

    /// See [`Self::premerged_runs`].
    pub fn eager_fragments(&self) -> u64 {
        0
    }

    /// See [`Self::premerged_runs`].
    pub fn residual_fetches(&self) -> u64 {
        0
    }

    /// Render every counter in the Prometheus text exposition format, one
    /// `name value` sample per line in table order, times in seconds. This
    /// is what the master's `/metrics` endpoint serves.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        for &c in Counter::ALL {
            let (_, kind, sample) = Counter::INFO[c as usize];
            let v = self.get(c);
            out.push_str(&match kind {
                Kind::Micros => format!("{sample} {:.6}\n", v as f64 / 1e6),
                Kind::Sum | Kind::Max => format!("{sample} {v}\n"),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = JobMetrics::default();
        m.add(Counter::MapOps, 2);
        m.add_time(Counter::MapTime, Duration::from_millis(10));
        m.add(Counter::ShuffleBytes, 150);
        m.add(Counter::ConnectionsOpened, 3);
        m.add(Counter::ConnectionsReused, 40);
        m.max(Counter::PeakInFlight, 5);
        m.max(Counter::PeakInFlight, 2);
        m.add(Counter::BytesOnWire, 300);
        m.add_time(Counter::MergeTime, Duration::from_nanos(2_500_999));
        assert_eq!(m.map_ops(), 2);
        assert_eq!(m.map_time(), Duration::from_millis(10));
        assert_eq!(m.shuffle_bytes(), 150);
        assert_eq!((m.connections_opened(), m.connections_reused()), (3, 40));
        assert_eq!(m.peak_in_flight(), 5, "a high-water mark, not a sum");
        assert_eq!(m.bytes_on_wire(), 300);
        assert_eq!(m.merge_time(), Duration::from_micros(2500), "microsecond granularity");
        assert_eq!(m.reduce_ops(), 0);
        assert_eq!(m.get(Counter::MergeTime), 2500);
    }

    #[test]
    fn merge_counters_accumulate_and_track_peak() {
        let mut a = JobMetrics::default();
        a.add(Counter::MergeRuns, 4);
        a.max(Counter::PeakReduceRecords, 1000);
        a.add_time(Counter::MergeTime, Duration::from_micros(700));
        let mut b = JobMetrics::default();
        b.add(Counter::MergeRuns, 2);
        b.max(Counter::PeakReduceRecords, 250);
        b.add_time(Counter::MergeTime, Duration::from_micros(300));
        a.merge(&b);
        assert_eq!(a.merge_runs(), 6);
        assert_eq!(a.peak_reduce_records(), 1000, "peak is a max, not a sum");
        assert_eq!(a.merge_time(), Duration::from_millis(1));
        let mut empty = JobMetrics::default();
        empty.merge(&a);
        assert_eq!(empty, a, "merging into nothing is a copy");
    }

    #[test]
    fn fusion_and_lifetime_counters_accumulate() {
        let mut m = JobMetrics::default();
        for _ in 0..3 {
            m.dataset_live(true);
        }
        m.dataset_live(false);
        m.dataset_live(true);
        m.dataset_live(false);
        assert_eq!(m.peak_live_datasets(), 3);
        assert_eq!(m.live_datasets(), 2);
        m.dataset_live(false);
        m.dataset_live(false);
        m.dataset_live(false);
        assert_eq!(m.live_datasets(), 0, "the gauge never goes below zero");
    }

    #[test]
    fn speculation_counters_accumulate() {
        let mut m = JobMetrics::default();
        m.add(Counter::SpeculativeWins, 1);
        m.add_time(Counter::StragglerTimeSaved, Duration::from_micros(1500));
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

    /// The sample names `JobMetrics::to_prometheus` emitted before the
    /// table existed (hand-listed), in order, less the four the eager
    /// shuffle took with it and plus the two of the grants ahead of their
    /// inputs and the control bytes: the table must emit exactly these —
    /// dashboards and the CI smoke read them by name.
    #[test]
    fn prometheus_names_are_the_hand_listed_ones() {
        const BEFORE: [&str; 40] = [
            "mrs_map_ops_total",
            "mrs_reduce_ops_total",
            "mrs_shuffle_bytes_total",
            "mrs_tasks_executed_total",
            "mrs_tasks_retried_total",
            "mrs_affinity_hits_total",
            "mrs_affinity_misses_total",
            "mrs_connections_opened_total",
            "mrs_connections_reused_total",
            "mrs_tasks_stolen_total",
            "mrs_peak_in_flight",
            "mrs_dispatch_polls_total",
            "mrs_dispatched_tasks_total",
            "mrs_longpoll_parks_total",
            "mrs_longpoll_timeouts_total",
            "mrs_piggybacked_reports_total",
            "mrs_wakeups_total",
            "mrs_ahead_grants_total",
            "mrs_held_fetches_total",
            "mrs_control_bytes_total",
            "mrs_bytes_pre_compress_total",
            "mrs_bytes_on_wire_total",
            "mrs_shortcircuit_fetches_total",
            "mrs_checksum_retries_total",
            "mrs_fused_ops_total",
            "mrs_reducemap_tasks_total",
            "mrs_datasets_freed_total",
            "mrs_live_datasets",
            "mrs_peak_live_datasets",
            "mrs_speculative_launches_total",
            "mrs_speculative_wins_total",
            "mrs_speculative_losses_total",
            "mrs_cancelled_tasks_total",
            "mrs_merge_runs_total",
            "mrs_presorted_runs_total",
            "mrs_peak_reduce_records",
            "mrs_map_time_seconds_total",
            "mrs_reduce_time_seconds_total",
            "mrs_straggler_seconds_saved_total",
            "mrs_merge_seconds_total",
        ];
        let prom = JobMetrics::default().to_prometheus();
        let names: Vec<&str> = prom.lines().map(|l| l.split_once(' ').unwrap().0).collect();
        assert_eq!(names, BEFORE);
    }

    #[test]
    fn counters_are_found_by_their_accessor_names() {
        for &c in Counter::ALL {
            assert_eq!(Counter::named(c.name()), Some(c));
        }
        assert_eq!(Counter::named("merge_runs"), Some(Counter::MergeRuns));
        assert_eq!(Counter::named("mrs_merge_runs_total"), None);
    }
}
