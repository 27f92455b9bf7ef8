//! The `mrs.main` analogue: one binary, every execution implementation.
//!
//! "As a programming framework, Mrs controls the execution flow and is
//! invoked by a call to `mrs.main`. The execution of Mrs depends on the
//! command-line options and the specified program class" (§IV-A). In this
//! reproduction a user binary calls [`main_with`] with its program and a
//! driver closure; `--mrs <impl>` selects how it runs:
//!
//! ```text
//! prog --mrs serial                       # reference semantics
//! prog --mrs mock                         # cluster task split, 1 cpu, spill files
//! prog --mrs pool --mrs-workers 8         # thread-pool parallel
//! prog --mrs master --mrs-port-file P     # master: binds, writes its port
//! prog --mrs slave  --mrs-master H:P      # slave: joins an existing master
//! prog --mrs slave  --mrs-master H:P --mrs-slots 4   # slave with 4 task slots
//! prog --mrs master --mrs-compress on    # LZ-compress buckets (a link slower than loopback)
//! prog --mrs master --mrs-speculate off      # no straggler backup tasks
//! prog --mrs master --mrs-trace trace.json   # write a Chrome trace at job end
//! ```
//!
//! An `--mrs…` argument that is none of these options is an error, not a
//! program argument: a mistyped or retired flag must not be ignored.
//!
//! A master runs the driver and serves slaves; a slave never runs the
//! driver — it executes tasks until told to exit, exactly the paper's
//! "one copy of the program as a master and any number of other copies
//! of the program as slaves".

use crate::distributed::{serve_master, RpcMasterLink};
use crate::job::Job;
use crate::local::LocalRuntime;
use crate::master::{Master, MasterConfig, SpeculateMode};
use crate::proto::DataPlane;
use crate::serial::SerialRuntime;
use crate::slave::{run_slave, SlaveOptions};
use mrs_codec::CompressMode;
use mrs_core::{Error, Program, Result};
use mrs_fs::TempFs;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Which execution implementation to use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Implementation {
    /// Everything sequential, one task per operation.
    Serial,
    /// The cluster's task split on one processor, spilled to files.
    MockParallel,
    /// Thread-pool parallelism with this many workers.
    Pool(usize),
    /// Master role: bind `port` (0 = ephemeral), optionally write the
    /// bound port to a file for slaves to discover.
    Master {
        /// TCP port to bind (0 picks one).
        port: u16,
        /// File to write the bound port into (the paper's port file).
        port_file: Option<String>,
    },
    /// Slave role: join the master at `host:port`.
    Slave {
        /// Master authority.
        master: String,
        /// Concurrent task slots (worker threads); `None` = available cores.
        slots: Option<usize>,
    },
}

/// Parsed `--mrs*` options.
#[derive(Clone, Debug, PartialEq)]
pub struct CliOptions {
    /// Selected implementation (default: serial, like the original Mrs).
    pub implementation: Implementation,
    /// Shuffle payload compression (`--mrs-compress=on|off`, default off:
    /// checksummed stored frames). Decoders read the compressed bit per
    /// payload, so mixed settings across a cluster interoperate.
    pub compress: CompressMode,
    /// Speculative execution (`--mrs-speculate on|off`, default on): once
    /// a wave is mostly done, a task running longer than 1.5× the median
    /// completed runtime gets a backup attempt on another slave; first completion wins and the loser is cancelled.
    /// `off` is the non-speculative scheduler, kept as a first-class
    /// oracle. A no-op on the single-process implementations.
    pub speculate: SpeculateMode,
    /// Write the job's assembled timeline as Chrome trace-event JSON to
    /// this path at job end (`--mrs-trace <path>`), and print the
    /// critical-path report to stderr. Loadable in Perfetto or
    /// `chrome://tracing`.
    pub trace_path: Option<String>,
    /// Everything that was not an `--mrs*` option, for the program's own
    /// argument handling.
    pub rest: Vec<String>,
}

/// Parse options from an argument list (excluding argv\[0\]).
pub fn parse_options<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions> {
    let mut implementation = None;
    let mut workers = None;
    let mut port = 0u16;
    let mut port_file = None;
    let mut master = None;
    let mut slots = None;
    let mut compress = CompressMode::default();
    let mut speculate = SpeculateMode::default();
    let mut trace_path = None;
    let mut rest = Vec::new();

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| -> Result<String> {
            iter.next().ok_or_else(|| Error::Invalid(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--mrs" => {
                let v = value_of("--mrs")?;
                implementation = Some(v);
            }
            "--mrs-workers" => {
                let v = value_of("--mrs-workers")?;
                workers = Some(
                    v.parse::<usize>()
                        .map_err(|e| Error::Invalid(format!("--mrs-workers {v:?}: {e}")))?,
                );
            }
            "--mrs-port" => {
                let v = value_of("--mrs-port")?;
                port = v
                    .parse::<u16>()
                    .map_err(|e| Error::Invalid(format!("--mrs-port {v:?}: {e}")))?;
            }
            "--mrs-port-file" => port_file = Some(value_of("--mrs-port-file")?),
            "--mrs-master" => master = Some(value_of("--mrs-master")?),
            "--mrs-slots" => {
                let v = value_of("--mrs-slots")?;
                slots = Some(
                    v.parse::<usize>()
                        .map_err(|e| Error::Invalid(format!("--mrs-slots {v:?}: {e}")))?,
                );
            }
            "--mrs-compress" => {
                let v = value_of("--mrs-compress")?;
                compress = CompressMode::parse(&v).map_err(Error::Invalid)?;
            }
            "--mrs-speculate" => {
                let v = value_of("--mrs-speculate")?;
                speculate = SpeculateMode::parse(&v)?;
            }
            "--mrs-trace" => trace_path = Some(value_of("--mrs-trace")?),
            unknown if unknown.starts_with("--mrs") => {
                return Err(Error::Invalid(format!("unknown option {unknown:?}")))
            }
            _ => rest.push(arg),
        }
    }

    let implementation = match implementation.as_deref() {
        None | Some("serial") => Implementation::Serial,
        Some("mock") | Some("mockparallel") => Implementation::MockParallel,
        Some("pool") => Implementation::Pool(workers.unwrap_or_else(num_cpus)),
        Some("master") => Implementation::Master { port, port_file },
        Some("slave") => Implementation::Slave {
            master: master
                .ok_or_else(|| Error::Invalid("--mrs slave requires --mrs-master".into()))?,
            slots,
        },
        Some(other) => {
            return Err(Error::Invalid(format!(
                "unknown implementation {other:?} (serial|mock|pool|master|slave)"
            )))
        }
    };
    if workers == Some(0) {
        return Err(Error::Invalid("--mrs-workers must be positive".into()));
    }
    if slots == Some(0) {
        return Err(Error::Invalid("--mrs-slots must be positive".into()));
    }
    Ok(CliOptions { implementation, compress, speculate, trace_path, rest })
}

fn num_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
}

/// Write the timeline as Chrome trace JSON and print the critical-path
/// report to stderr. No-op without a `--mrs-trace` path.
fn export_trace(path: Option<&str>, trace: mrs_trace::JobTrace) -> Result<()> {
    let Some(path) = path else {
        return Ok(());
    };
    std::fs::write(path, trace.chrome_json())?;
    eprintln!("{}", trace.critical_path().render());
    Ok(())
}

/// Run a program under the options, invoking `driver` with a [`Job`] for
/// every implementation that drives jobs (all except `slave`).
pub fn run_with_options<D>(program: Arc<dyn Program>, options: &CliOptions, driver: D) -> Result<()>
where
    D: FnOnce(&mut Job) -> Result<()>,
{
    match &options.implementation {
        Implementation::Serial => {
            let mut rt = SerialRuntime::new(program);
            let result = driver(&mut Job::new(&mut rt));
            result.and(export_trace(options.trace_path.as_deref(), rt.take_trace()))
        }
        Implementation::MockParallel => {
            let spill = Arc::new(TempFs::new("mockparallel")?);
            let mut rt = LocalRuntime::mock_parallel_with(program, spill, options.compress);
            let result = driver(&mut Job::new(&mut rt));
            result.and(export_trace(options.trace_path.as_deref(), rt.take_trace()))
        }
        Implementation::Pool(workers) => {
            let mut rt = LocalRuntime::pool(program, *workers);
            let result = driver(&mut Job::new(&mut rt));
            result.and(export_trace(options.trace_path.as_deref(), rt.take_trace()))
        }
        Implementation::Master { port, port_file } => {
            let cfg = MasterConfig {
                compress: options.compress,
                speculate: options.speculate,
                ..MasterConfig::default()
            };
            let master = Master::new(cfg, DataPlane::Direct)?;
            let server = serve_master(master.clone(), *port).map_err(Error::Io)?;
            if let Some(path) = port_file {
                std::fs::write(path, server.port().to_string())?;
            }
            let mut driver_master = master.clone();
            let result = driver(&mut Job::new(&mut driver_master));
            master.finish();
            let result =
                result.and(export_trace(options.trace_path.as_deref(), master.take_trace()));
            if let Some(path) = port_file {
                let _ = std::fs::remove_file(path);
            }
            result
        }
        Implementation::Slave { master, slots } => {
            // A slave never runs the driver; it serves tasks until Exit.
            let link = RpcMasterLink::new(master.clone());
            let stop = AtomicBool::new(false);
            let mut slave_opts = SlaveOptions::default();
            if let Some(n) = slots {
                slave_opts.slots = *n;
            }
            slave_opts.compress = options.compress;
            run_slave(&link, program, DataPlane::Direct, &slave_opts, &stop)
        }
    }
}

/// The full `mrs.main` flow: parse the process arguments and run.
pub fn main_with<D>(program: Arc<dyn Program>, driver: D) -> Result<()>
where
    D: FnOnce(&mut Job) -> Result<()>,
{
    let options = parse_options(std::env::args().skip(1))?;
    run_with_options(program, &options, driver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::kv::encode_record;
    use mrs_core::{Datum, MapReduce, Simple};

    fn opts(args: &[&str]) -> Result<CliOptions> {
        parse_options(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_is_serial() {
        let o = opts(&[]).unwrap();
        assert_eq!(o.implementation, Implementation::Serial);
        assert!(o.rest.is_empty());
    }

    #[test]
    fn parses_each_implementation() {
        assert_eq!(opts(&["--mrs", "serial"]).unwrap().implementation, Implementation::Serial);
        assert_eq!(opts(&["--mrs", "mock"]).unwrap().implementation, Implementation::MockParallel);
        assert_eq!(
            opts(&["--mrs", "pool", "--mrs-workers", "3"]).unwrap().implementation,
            Implementation::Pool(3)
        );
        assert_eq!(
            opts(&["--mrs", "master", "--mrs-port", "7777", "--mrs-port-file", "/tmp/p"])
                .unwrap()
                .implementation,
            Implementation::Master { port: 7777, port_file: Some("/tmp/p".into()) }
        );
        assert_eq!(
            opts(&["--mrs", "slave", "--mrs-master", "10.0.0.1:7777"]).unwrap().implementation,
            Implementation::Slave { master: "10.0.0.1:7777".into(), slots: None }
        );
        assert_eq!(
            opts(&["--mrs", "slave", "--mrs-master", "h:1", "--mrs-slots", "4"])
                .unwrap()
                .implementation,
            Implementation::Slave { master: "h:1".into(), slots: Some(4) }
        );
    }

    #[test]
    fn parses_compress_flag() {
        assert_eq!(opts(&[]).unwrap().compress, CompressMode::Off);
        assert_eq!(opts(&["--mrs-compress", "on"]).unwrap().compress, CompressMode::On);
        assert_eq!(opts(&["--mrs-compress", "off"]).unwrap().compress, CompressMode::Off);
        let err = opts(&["--mrs-compress", "threshold=4096"]).unwrap_err().to_string();
        assert!(err.contains("on|off"), "{err}");
    }

    /// `--mrs-keep-data` (lineage rebuilds what GC reclaimed),
    /// `--mrs-eager-shuffle` (every reduce input is fetched at task time),
    /// `--mrs-longpoll-ms` (a park is capped at half the slave timeout)
    /// and `--mrs-no-trace` (tracing is always on, its memory bounded) are
    /// gone: each is an unknown option now, with or without a value, not
    /// an argument for the program.
    #[test]
    fn retired_flags_are_rejected_as_unknown() {
        for args in [
            &["--mrs", "pool", "--mrs-keep-data", "rest.txt"][..],
            &["--mrs", "master", "--mrs-eager-shuffle", "off"],
            &["--mrs-eager-shuffle"],
            &["--mrs", "master", "--mrs-longpoll-ms", "250"],
            &["--mrs", "slave", "--mrs-master", "h:1", "--mrs-longpoll-ms", "250"],
            &["--mrs", "slave", "--mrs-master", "h:1", "--mrs-no-trace"],
            &["--mrs-no-trace", "--mrs-trace", "/tmp/t.json"],
        ] {
            let err = opts(args).unwrap_err().to_string();
            assert!(err.contains("unknown option \"--mrs-"), "{args:?}: {err}");
        }
    }

    #[test]
    fn parses_speculate_flag() {
        assert_eq!(opts(&[]).unwrap().speculate, SpeculateMode::default());
        assert_eq!(opts(&["--mrs-speculate", "off"]).unwrap().speculate, SpeculateMode::Off);
        assert_eq!(opts(&["--mrs-speculate", "on"]).unwrap().speculate, SpeculateMode::On);
        // The straggler multiple is a constant now.
        let err = opts(&["--mrs-speculate", "threshold=2.5"]).unwrap_err().to_string();
        assert!(err.contains("on|off"), "{err}");
    }

    #[test]
    fn parses_trace_flags() {
        assert_eq!(opts(&[]).unwrap().trace_path, None);
        let o = opts(&["--mrs-trace", "/tmp/t.json"]).unwrap();
        assert_eq!(o.trace_path.as_deref(), Some("/tmp/t.json"));
        assert!(opts(&["--mrs-trace"]).is_err());
    }

    /// Every flag in README.md's "Runtime flags at a glance" table is one
    /// the parser accepts with the first value its row lists: a retired
    /// flag cannot stay in the table.
    #[test]
    fn readme_flag_table_is_the_parser() {
        let readme = include_str!("../../../README.md");
        let section = readme.split("### Runtime flags at a glance").nth(1).expect("the section");
        let table = section.lines().skip_while(|l| !l.starts_with('|'));
        let rows: Vec<&str> = table.take_while(|l| l.starts_with('|')).skip(2).collect();
        assert!(rows.len() >= 4, "{rows:?}");
        // The first `code` span of a cell.
        let code = |cell: &str| cell.split('`').nth(1).map(str::to_owned);
        for row in rows {
            let cells: Vec<&str> = row.trim_matches('|').split(" | ").collect();
            let (flag, value) = (code(cells[0]), cells.get(1).and_then(|c| code(c)));
            let (Some(flag), Some(value)) = (flag, value) else { panic!("row {row:?}") };
            assert!(flag.starts_with("--mrs-"), "{row}");
            if let Err(e) = opts(&["--mrs", "master", &flag, &value]) {
                panic!("README lists {flag} {value}: {e}");
            }
        }
    }

    #[test]
    fn trace_flag_writes_chrome_json() {
        let path = std::env::temp_dir().join(format!("mrs-cli-trace-{}.json", std::process::id()));
        for args in [vec!["--mrs", "serial"], vec!["--mrs", "pool", "--mrs-workers", "2"]] {
            let mut args: Vec<&str> = args;
            let p = path.to_string_lossy().into_owned();
            args.extend(["--mrs-trace", &p]);
            let o = opts(&args).unwrap();
            run_with_options(Arc::new(Simple(Count)), &o, driver_checks).unwrap();
            let json = std::fs::read_to_string(&path).expect("trace written");
            assert!(json.contains("traceEvents") && json.contains("\"ph\":\"B\""), "{json:.100}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn program_args_pass_through() {
        let o = opts(&["input.txt", "--mrs", "pool", "--verbose"]).unwrap();
        assert_eq!(o.rest, vec!["input.txt", "--verbose"]);
    }

    #[test]
    fn rejects_malformed() {
        assert!(opts(&["--mrs"]).is_err());
        assert!(opts(&["--mrs", "warp-drive"]).is_err());
        assert!(opts(&["--mrs", "slave"]).is_err()); // missing --mrs-master
        assert!(opts(&["--mrs", "pool", "--mrs-workers", "0"]).is_err());
        assert!(opts(&["--mrs-port", "not-a-port"]).is_err());
        assert!(opts(&["--mrs", "slave", "--mrs-master", "h:1", "--mrs-slots", "0"]).is_err());
        assert!(opts(&["--mrs-compress"]).is_err());
        assert!(opts(&["--mrs-compress", "maybe"]).is_err());
        assert!(opts(&["--mrs-speculate", "perhaps"]).is_err());
        // Retired and mistyped options are named, not passed through to
        // the program.
        for flag in ["--mrs-control", "--mrs-merge", "--mrs-test-delay", "--mrs-sloots"] {
            let err = opts(&["--mrs", "master", flag, "x"]).unwrap_err().to_string();
            assert!(err.contains("unknown option") && err.contains(flag), "{err}");
        }
    }

    struct Count;
    impl MapReduce for Count {
        type K1 = u64;
        type V1 = u64;
        type K2 = u64;
        type V2 = u64;
        fn map(&self, k: u64, v: u64, emit: &mut dyn FnMut(u64, u64)) {
            emit(k % 2, v);
        }
        fn reduce(&self, _k: u64, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
            emit(vs.sum());
        }
    }

    fn driver_checks(job: &mut Job) -> mrs_core::Result<()> {
        let input: Vec<mrs_core::Record> = (0..10u64).map(|i| encode_record(&i, &1u64)).collect();
        let out = job.map_reduce(input, 2, 2, false)?;
        let total: u64 = out.iter().map(|(_, v)| u64::from_bytes(v).unwrap()).sum();
        assert_eq!(total, 10);
        Ok(())
    }

    #[test]
    fn run_serial_mock_pool_via_options() {
        for args in [vec![], vec!["--mrs", "mock"], vec!["--mrs", "pool", "--mrs-workers", "2"]] {
            let o = opts(&args).unwrap();
            run_with_options(Arc::new(Simple(Count)), &o, driver_checks).unwrap();
        }
    }

    #[test]
    fn master_writes_and_cleans_port_file() {
        let path = std::env::temp_dir().join(format!("mrs-cli-test-{}", std::process::id()));
        let o = CliOptions {
            implementation: Implementation::Master {
                port: 0,
                port_file: Some(path.to_string_lossy().into_owned()),
            },
            compress: CompressMode::default(),
            speculate: SpeculateMode::default(),
            trace_path: None,
            rest: vec![],
        };
        // Driver with no work: just verify the port file exists while the
        // master is up.
        let path2 = path.clone();
        run_with_options(Arc::new(Simple(Count)), &o, move |_job| {
            let text = std::fs::read_to_string(&path2).expect("port file written");
            assert!(text.trim().parse::<u16>().is_ok());
            Ok(())
        })
        .unwrap();
        assert!(!path.exists(), "port file should be removed on shutdown");
    }
}
