//! Command line of the benchmark:
//!
//! ```text
//! tc-perfbench --workload <gpu_poll|msg_protocol|ring_sharded>
//!              [--seed N] [--seconds S] [--trace 0|1]
//!              [--inject-slowdown F] [--print-frozen]
//! ```
//!
//! `--inject-slowdown F` busy-waits F times each simulation's set-up and
//! run time inside the timed regions (the self-tests use it to prove the
//! bounds catch a regression); `--print-frozen` prints the frozen-output
//! table of the default seed. `--pass` and `--refs` are the internal
//! interface of the per-pass worker processes.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the run manifest. The exit code is 0 when every checked output is
//! correct, 1 when one differs and 2 on a usage error.

use std::process::ExitCode;

use tc_perfbench::frozen;
use tc_perfbench::report::{self, json_str, metrics_json, Refs};
use tc_perfbench::workloads::{self, run_case, Case, Mode, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: f64,
    print_frozen: bool,
    worker: bool,
    refs: Refs,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: Workload::GpuPoll,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        inject: 0.0,
        print_frozen: false,
        worker: false,
        refs: Refs::default(),
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        if flag == "--print-frozen" || flag == "--pass" {
            args.print_frozen |= flag == "--print-frozen";
            args.worker |= flag == "--pass";
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--inject-slowdown" => args.inject = value.parse().map_err(|_| bad.clone())?,
            "--refs" => args.refs = Refs::parse(&value).ok_or(bad)?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds.is_finite() && args.seconds >= 0.0 && (0.0..=10.0).contains(&args.inject)) {
        return Err("--seconds must be >= 0 and --inject-slowdown within 0..=10".into());
    }
    Ok(args)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if w.threads() > nproc {
        eprintln!(
            "tc-perfbench: {} needs {} threads but this host has {nproc}",
            w.name(),
            w.threads()
        );
        return ExitCode::from(2);
    }

    if args.print_frozen {
        let mut runs: Vec<_> = workloads::cases(w, DEFAULT_SEED)
            .iter()
            .map(|case| {
                run_case(
                    case,
                    Mode {
                        traced: false,
                        inject: 0.0,
                    },
                )
            })
            .collect();
        if let [Case::Ring { elements, fill }] = &workloads::cases(w, DEFAULT_SEED)[..] {
            runs.push(workloads::ring_serial(*elements, *fill));
        }
        for r in runs {
            println!(
                "    ({:?}, {}, {:#018x}),",
                r.name,
                r.end_time,
                frozen::digest(&r.registry)
            );
        }
        return ExitCode::SUCCESS;
    }

    if args.worker {
        println!(
            "{}",
            report::worker(w, args.seed, args.trace, args.inject, args.refs)
        );
        return ExitCode::SUCCESS;
    }

    let out = match report::run(w, args.seed, args.seconds, args.trace, args.inject) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("tc-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let failed = out.failures.len();
    for f in &out.failures {
        eprintln!("tc-perfbench: FAILED {f}");
    }
    for (name, wall) in &out.per_sim {
        println!("# {}: {name}: wall {wall:.4} s", w.name());
    }
    for (n, v, u) in &out.end_to_end {
        println!(
            "# {}: {n} = {v} {u} (median of {} passes)",
            w.name(),
            out.passes
        );
    }
    println!(
        "# {}: host wall = {} s, reference workload = {} s (host seconds, medians)",
        w.name(),
        out.refs.host_wall_s,
        out.refs.ref_s
    );
    println!(
        "# {}: failed_frac = {} ({} of {} simulations)",
        w.name(),
        failed as f64 / out.attempted as f64,
        failed,
        out.attempted
    );

    let cases: Vec<String> = workloads::cases(w, args.seed)
        .iter()
        .map(|c| json_str(&c.name()))
        .collect();
    println!(
        "{{\"manifest\": {{\"schema\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"passes\": {}, \"nproc\": {nproc}, \"threads\": {}, \"profile\": \"{}\", \"commit\": {}, \"simulations\": [{}]}}}}",
        report::SCHEMA,
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.passes,
        w.threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        json_str(&commit()),
        cases.join(", "),
    );
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };

    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        failed,
        metrics_json(metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
