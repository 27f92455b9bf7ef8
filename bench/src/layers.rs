//! Per-layer microbench: each layer is timed from outside, through its
//! public functions, on the workload's own data — one real map split,
//! the buckets that split produces, the runs of one real reduce
//! partition. Every timed call is also a span named after its metric.

use crate::spans::Recorder;
use crate::stats::{median, Metrics};
use crate::workload::Workload;
use crate::Res;
use mrs_codec::{decode_frame_sorted, encode_vec_sorted, CompressMode};
use mrs_core::kv::encode_record;
use mrs_core::task::{run_map_task_bucket, run_reduce_task_merge};
use mrs_core::{Bucket, RunMerger};
use mrs_fs::format::{read_bucket_run, write_bucket};
use mrs_rpc::rpc::Dispatch as RpcMethods;
use mrs_rpc::{dataserver, xmlrpc, DataServer, FrameCache, RpcClient, RpcServer, Value};
use mrs_runtime::proto::{Assignment, Dispatch, TaskKind, TaskMsg};
use mrs_runtime::{DataPlane, JobApi, Master, MasterConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Time `calls` calls of `f` in microseconds.
fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    calls: usize,
    mut f: impl FnMut() -> T,
) -> Vec<f64> {
    timed_with(rec, name, calls, || (), |()| f())
}

/// [`timed`], each call on a fresh `setup()` value built outside the
/// timed interval. A tenth as many untimed calls run first so caches and
/// pooled connections are warm.
fn timed_with<S, T>(
    rec: &mut Recorder,
    name: &'static str,
    calls: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> Vec<f64> {
    for _ in 0..(calls / 10).max(2) {
        black_box(f(setup()));
    }
    (0..calls)
        .map(|_| {
            let input = setup();
            rec.begin(name, 0);
            let t0 = Instant::now();
            let out = f(black_box(input));
            let us = t0.elapsed().as_secs_f64() * 1e6;
            rec.end();
            black_box(out);
            us
        })
        .collect()
}

fn mb_per_s(bytes: usize, us: f64) -> f64 {
    bytes as f64 / us
}

/// The `get_tasks` reply the control-plane codecs are timed on: one
/// reduce task gathering one bucket from each of the workload's maps.
fn representative_reply(w: &Workload) -> Dispatch {
    let inputs = (0..w.maps)
        .map(|t| format!("http://127.0.0.1:40{:03}/data/s{}/d1/t{t}/b0.mrsb", 100 + t % 2, t % 2))
        .collect();
    let task = TaskMsg {
        data: 2,
        index: 0,
        kind: TaskKind::Reduce,
        func: w.func,
        map_func: 0,
        parts: 1,
        combine: false,
        attempt: 1,
        inputs,
    };
    Dispatch {
        assignment: Assignment::Tasks(vec![task]),
        purge: Vec::new(),
        eager: Vec::new(),
        cancel: Vec::new(),
    }
}

/// Microbench `core`, `codec`, `fs`, `rpc`, `proto` and `master`.
pub fn run(w: &Workload, calls: usize, rec: &mut Recorder, out: &mut Metrics) -> Res<()> {
    let program = &*w.program;
    let splits = w.map_splits();
    let map_outputs = splits
        .iter()
        .map(|s| run_map_task_bucket(program, w.func, s, w.reduces, w.combine))
        .collect::<mrs_core::Result<Vec<Vec<Bucket>>>>()?;
    // Reduce partition 0 gathers bucket 0 of every map task.
    let runs: Vec<Bucket> = map_outputs.iter().map(|o| o[0].clone()).collect();
    let mut unsorted = Bucket::new();
    for run in &runs {
        unsorted.extend_from(run);
    }

    // core: the task kernels.
    let us = timed(rec, "core.map", calls, || {
        run_map_task_bucket(program, w.func, &splits[0], w.reduces, w.combine)
    });
    out.put("core.map_us_p50", median(&us), us.len(), calls);
    out.put("core.map_records_per_s", splits[0].len() as f64 / median(&us) * 1e6, us.len(), calls);
    // What one map wave hands to the data plane, before framing.
    let wave_bytes: usize = map_outputs.iter().flatten().map(|b| write_bucket(b).len()).sum();
    out.put_value("core.map_output_bytes_per_wave", wave_bytes as f64);
    let us = timed_with(
        rec,
        "core.sort",
        calls,
        || unsorted.clone(),
        |mut b| {
            b.sort();
            b
        },
    );
    out.put("core.sort_us_p50", median(&us), us.len(), calls);
    let us = timed(rec, "core.merge", calls, || {
        let mut merger = RunMerger::new(&runs);
        let mut spans = Vec::new();
        let mut groups = 0usize;
        while let Some(key) = merger.next_group(&mut spans) {
            black_box(key);
            groups += 1;
        }
        groups
    });
    out.put("core.merge_us_p50", median(&us), us.len(), calls);
    let us = timed(rec, "core.reduce", calls, || run_reduce_task_merge(program, w.func, &runs));
    out.put("core.reduce_us_p50", median(&us), us.len(), calls);

    // codec and fs: one real frame, the first bucket of the first split.
    let bucket = &map_outputs[0][0];
    let raw = write_bucket(bucket);
    let mode = CompressMode::default();
    let wire = encode_vec_sorted(raw.clone(), mode, true);
    let us = timed_with(
        rec,
        "codec.encode",
        calls,
        || raw.clone(),
        |r| encode_vec_sorted(r, mode, true),
    );
    out.put("codec.encode_mb_s", mb_per_s(raw.len(), median(&us)), us.len(), calls);
    let us = timed(rec, "codec.decode", calls, || decode_frame_sorted(&wire));
    out.put("codec.decode_mb_s", mb_per_s(raw.len(), median(&us)), us.len(), calls);
    out.put_value("codec.ratio", wire.len() as f64 / raw.len() as f64);
    let us = timed(rec, "fs.write_bucket", calls, || write_bucket(bucket));
    out.put("fs.write_bucket_mb_s", mb_per_s(raw.len(), median(&us)), us.len(), calls);
    let us = timed_with(rec, "fs.read_bucket", calls, Bucket::new, |mut b| {
        read_bucket_run(&raw, &mut b).map(|_| b)
    });
    out.put("fs.read_bucket_mb_s", mb_per_s(raw.len(), median(&us)), us.len(), calls);

    // rpc: loopback servers, pooled connections.
    let cache = Arc::new(FrameCache::new());
    cache.insert("bench/frame", wire.clone());
    cache.insert("bench/get64", vec![0x5a; 64]);
    let data_server = DataServer::serve(0, cache.provider())?;
    let authority = data_server.authority();
    if dataserver::fetch(&authority, "/data/bench/frame")? != wire {
        return Err("data server returned different bytes".into());
    }
    let us = timed(rec, "rpc.fetch", calls, || dataserver::fetch(&authority, "/data/bench/frame"));
    out.put("rpc.fetch_us_p50", median(&us), us.len(), calls);
    out.put("rpc.fetch_mb_s", mb_per_s(wire.len(), median(&us)), us.len(), calls);
    let us = timed(rec, "rpc.get64", calls, || dataserver::fetch(&authority, "/data/bench/get64"));
    out.put("rpc.get64_us_p50", median(&us), us.len(), calls);
    drop(data_server);

    let echo = RpcMethods::new()
        .register("echo", |params| Ok(params.first().cloned().unwrap_or(Value::Bool(true))));
    let rpc_server = RpcServer::serve(0, echo)?;
    let client = RpcClient::new(rpc_server.authority());
    if client.call("echo", &[Value::Int(7)])? != Value::Int(7) {
        return Err("echo returned a different value".into());
    }
    let us = timed(rec, "rpc.xmlrpc_call", calls, || client.call("echo", &[Value::Int(7)]));
    out.put("rpc.xmlrpc_call_us_p50", median(&us), us.len(), calls);
    drop(rpc_server);

    let reply = representative_reply(w);
    let reply_value = reply.to_value();
    let us = timed(rec, "rpc.xmlrpc_codec", calls, || {
        xmlrpc::parse_response(&xmlrpc::encode_response(&reply_value))
    });
    out.put("rpc.xmlrpc_codec_us_p50", median(&us), us.len(), calls);

    // proto: the typed message to and from the XML-RPC value model.
    if Dispatch::from_value(&reply_value)?.assignment != reply.assignment {
        return Err("dispatch reply did not round-trip".into());
    }
    let us = timed(rec, "proto.dispatch_codec", calls, || Dispatch::from_value(&reply.to_value()));
    out.put("proto.dispatch_codec_us_p50", median(&us), us.len(), calls);

    master_dispatch(calls, rec, out)
}

/// master: one `get_tasks` + `task_done` pair against a ready map wave
/// and a signed-in fake slave, in process and without sockets — the
/// scheduler and `MState` lock cost per task.
fn master_dispatch(calls: usize, rec: &mut Recorder, out: &mut Metrics) -> Res<()> {
    let mut master = Master::new(MasterConfig::default(), DataPlane::Direct)?;
    let slave = master.signin("127.0.0.1:1", 1);
    // One task per timed or warm-up call, and a few to spare.
    let tasks = calls + calls / 10 + 8;
    let records = (0..tasks as u64).map(|i| encode_record(&i, &i)).collect();
    let source = master.local_data(records, tasks)?;
    master.map_data(source, 0, 1, false)?;
    let mut failed = false;
    let us = timed(rec, "master.dispatch", calls, || match master.get_tasks(slave, 1) {
        Assignment::Tasks(granted) => {
            let t = &granted[0];
            let url = format!("http://127.0.0.1:1/data/s0/d{}/t{}/b0.mrsb", t.data, t.index);
            master.task_done(slave, t.data, t.index, t.attempt, vec![url]);
        }
        Assignment::Wait | Assignment::Exit => failed = true,
    });
    master.finish();
    if failed {
        return Err("master granted no task to the fake slave".into());
    }
    out.put("master.dispatch_us_p50", median(&us), us.len(), calls);
    Ok(())
}

/// runtime: the null job (one record, one identity map, one identity
/// reduce) on a warm runtime, in microseconds per round.
pub fn null_rounds(
    w: &Workload,
    api: &mut dyn JobApi,
    name: &'static str,
    calls: usize,
    rec: &mut Recorder,
) -> Res<Vec<f64>> {
    let mut wrong = 0;
    let us = timed(rec, name, calls, || match w.null_job(api) {
        Ok(out) if out.len() == 1 => {}
        _ => wrong += 1,
    });
    if wrong > 0 {
        return Err(format!("{wrong} null rounds failed").into());
    }
    Ok(us)
}
