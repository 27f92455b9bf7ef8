//! A **multi-process** Mrs cluster: the master in this process, slaves as
//! separate OS processes (this same binary re-executed with `MRS_ROLE=slave`),
//! all speaking real XML-RPC/HTTP over TCP — the closest single-machine
//! rendering of the paper's pssh-launched deployment (§IV: "starting one
//! copy of the program as a master and any number of other copies of the
//! program as slaves").
//!
//! ```text
//! cargo run --release --example process_cluster [n_slaves]
//! ```

use mrs::apps::wordcount::{decode_counts, lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_runtime::distributed::{serve_master, RpcMasterLink};
use mrs_runtime::slave::{run_slave, SlaveOptions};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn slave_main(master_authority: &str) -> Result<()> {
    // Identical program construction on both sides of the process
    // boundary — the paper's "same program, run as master or slave".
    let program: Arc<dyn Program> = Arc::new(Simple(WordCount));
    let link = RpcMasterLink::new(master_authority);
    let stop = AtomicBool::new(false);
    run_slave(&link, program, DataPlane::Direct, &SlaveOptions::default(), &stop)
}

fn main() -> Result<()> {
    // Slave role: connect to the master given in the environment and loop.
    if std::env::var("MRS_ROLE").as_deref() == Ok("slave") {
        let authority = std::env::var("MRS_MASTER")
            .map_err(|_| Error::Invalid("MRS_MASTER not set for slave role".into()))?;
        return slave_main(&authority);
    }

    let n_slaves: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(3);

    // Master role: bind, then spawn N copies of ourselves as slaves.
    let master = Master::new(MasterConfig::default(), DataPlane::Direct)?;
    let server = serve_master(master.clone(), 0)?;
    let authority = server.authority();
    println!("master: {authority} (pid {})", std::process::id());

    let exe = std::env::current_exe()?;
    let mut children: Vec<std::process::Child> = (0..n_slaves)
        .map(|i| {
            let child = std::process::Command::new(&exe)
                .env("MRS_ROLE", "slave")
                .env("MRS_MASTER", &authority)
                .spawn()
                .expect("spawn slave process");
            println!("slave {i}: pid {}", child.id());
            child
        })
        .collect();

    // Run a job across the processes.
    let lines: Vec<String> =
        (0..2_000).map(|i| format!("alpha beta w{} w{} gamma", i % 97, i % 31)).collect();
    let input = lines_to_records(lines.iter().map(String::as_str));
    let mut driver = master.clone();
    let t0 = std::time::Instant::now();
    let out = {
        let mut job = Job::new(&mut driver);
        job.map_reduce(input, n_slaves * 4, n_slaves * 2, true)?
    };
    let counts = decode_counts(&out)?;
    println!(
        "\ncounted {} distinct words across {} slave processes in {:.3} s",
        counts.len(),
        n_slaves,
        t0.elapsed().as_secs_f64()
    );
    assert_eq!(counts["alpha"], 2_000);
    // What the slave processes counted reached the master on their polls:
    // every reduce merged one run per map task (a backup attempt, more).
    let m = master.metrics();
    println!(
        "master's view of the slaves' shuffle: {} merge runs, {} bytes on the wire; \
         their control RPCs: {} bytes",
        m.merge_runs(),
        m.bytes_on_wire(),
        m.control_bytes()
    );
    assert!(m.merge_runs() >= (n_slaves * 4 * n_slaves * 2) as u64);
    assert!(m.control_bytes() > 0, "the slaves' links counted no control bytes");

    // A job whose buckets are mostly empty: five lines in more splits than
    // records, four words in far more reduce partitions than words. Every
    // empty split and output crosses the process boundary as `empty:`, and
    // the answer equals the serial runtime's byte for byte.
    let sparse = ["alpha beta", "gamma alpha", "beta", "delta", "alpha"];
    let (splits, parts) = (n_slaves * 4, 64);
    let sparse_job = |api: &mut dyn JobApi| {
        Job::new(api).map_reduce(lines_to_records(sparse), splits, parts, true)
    };
    let out = sparse_job(&mut driver)?;
    let serial = sparse_job(&mut SerialRuntime::new(Arc::new(Simple(WordCount))))?;
    assert_eq!(out, serial, "the mostly-empty job differs from serial");
    println!(
        "mostly-empty job ({} lines, {splits} splits, {} words, {parts} partitions) equals serial ✓",
        sparse.len(),
        decode_counts(&out)?.len()
    );

    // Shut down: slaves observe Exit on their next poll and terminate.
    master.finish();
    for mut child in children.drain(..) {
        let status = child.wait().expect("slave process wait");
        assert!(status.success(), "slave exited with {status}");
    }
    println!("all slave processes exited cleanly ✓");
    Ok(())
}
