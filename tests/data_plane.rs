//! What a default-config cluster puts on the data plane: checksummed
//! *stored* `MRSF1` frames that advertise their sort order — and what a
//! consumer does when one of them arrives damaged.
//!
//! Nothing else in this binary corrupts a frame, so the process-wide
//! checksum-retry counter can be compared exactly.

use mrs::apps::wordcount::{decode_counts, lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_core::Bucket;
use mrs_fs::format::{read_bucket_run, write_bucket, RunInfo};
use mrs_fs::{MemFs, Store};
use mrs_rpc::DataServer;
use mrs_runtime::{dataplane, proto::fetch_records};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const FRAME_HEADER_LEN: usize = 18;

fn lines() -> Vec<String> {
    (0..400).map(|i| format!("common w{} w{} w{}", i % 13, i % 29, i % 7)).collect()
}

/// Run a no-combiner WordCount (every token crosses the shuffle) and
/// return the cluster's metrics.
fn wordcount(plane: DataPlane) -> mrs_runtime::metrics::JobMetrics {
    let lines = lines();
    let input = lines_to_records(lines.iter().map(String::as_str));
    let mut cluster =
        LocalCluster::start(Arc::new(Simple(WordCount)), 2, plane, MasterConfig::default())
            .unwrap();
    let out = Job::new(&mut cluster).map_reduce(input, 6, 3, false).unwrap();
    let bypass = corpus::tokenizer::reference_counts(lines.iter().map(String::as_str));
    assert_eq!(decode_counts(&out).unwrap(), bypass);
    cluster.metrics()
}

/// Every bucket a default-config cluster wrote to `store`, with what the
/// bucket reader made of it.
fn stored_frames(store: &dyn Store) -> Vec<(String, Vec<u8>, Bucket, RunInfo)> {
    let mut paths = store.list("").unwrap();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let wire = store.get(&path).unwrap();
            let mut bucket = Bucket::new();
            let info = read_bucket_run(&wire, &mut bucket).unwrap();
            (path, wire, bucket, info)
        })
        .collect()
}

#[test]
fn default_config_cluster_ships_stored_sorted_frames() {
    // Over sockets: a stored frame is its bucket plus a header, so the
    // wire carries no less than the decoded volume.
    let m = wordcount(DataPlane::Direct);
    assert!(m.bytes_pre_compress() > 0, "the job moved nothing over HTTP");
    assert!(
        m.bytes_on_wire() >= m.bytes_pre_compress(),
        "default frames are stored, not compressed: {} on wire, {} decoded",
        m.bytes_on_wire(),
        m.bytes_pre_compress()
    );
    assert!(m.merge_runs() > 0);
    assert_eq!(m.presorted_runs(), m.merge_runs(), "every fragment reaches the merge sorted");

    // On a shared store the frames themselves can be inspected: master
    // source splits and slave task outputs alike are framed and stored,
    // and task outputs carry the sorted-run flag the reader honours.
    let store = Arc::new(MemFs::new());
    wordcount(DataPlane::SharedFs(store.clone()));
    let frames = stored_frames(store.as_ref());
    let task_outputs = frames.iter().filter(|(path, ..)| path.contains("/t")).count();
    assert!(task_outputs >= 6 * 3 + 3, "map and reduce outputs are in the store: {task_outputs}");
    assert!(frames.len() > task_outputs, "so are the master's source splits");
    for (path, wire, bucket, info) in &frames {
        assert_eq!(&wire[..5], b"MRSF1", "{path} is not framed");
        assert_eq!(wire[5] & 1, 0, "{path} is compressed");
        assert_eq!(&wire[FRAME_HEADER_LEN..], &write_bucket(bucket)[..], "{path} payload");
        if path.contains("/t") {
            assert_eq!(*info, RunInfo { claimed_sorted: true, sorted: true }, "{path}");
        }
    }
}

#[test]
fn flipped_byte_in_a_stored_frame_is_refetched_exactly_once() {
    // A frame as a default-config slave emits it.
    let store = Arc::new(MemFs::new());
    wordcount(DataPlane::SharedFs(store.clone()));
    let (_, good, bucket, _) = stored_frames(store.as_ref())
        .into_iter()
        .find(|(path, _, bucket, _)| path.contains("/t") && bucket.len() > 1)
        .expect("a non-trivial map output");
    let mut bad = good.clone();
    let mid = FRAME_HEADER_LEN + (bad.len() - FRAME_HEADER_LEN) / 2;
    bad[mid] ^= 0x04;

    // A peer that serves the damaged copy first and the clean one after.
    let (good, bad): (Arc<[u8]>, Arc<[u8]>) = (good.into(), bad.into());
    let hits = Arc::new(AtomicUsize::new(0));
    let server = {
        let hits = Arc::clone(&hits);
        DataServer::serve(
            0,
            Arc::new(move |_: &str| {
                Some(Arc::clone(if hits.fetch_add(1, Ordering::SeqCst) == 0 {
                    &bad
                } else {
                    &good
                }))
            }),
        )
        .unwrap()
    };

    let before = dataplane::snapshot();
    let got = fetch_records(&server.url_for("flaky"), None).unwrap();
    assert_eq!(got, bucket.to_records(), "the clean copy is what the consumer parses");
    assert_eq!(hits.load(Ordering::SeqCst), 2, "one fetch, one refetch");
    assert_eq!(dataplane::snapshot().since(before).checksum_retries, 1);
}
