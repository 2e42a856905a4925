//! Passes, output checks and metrics of one benchmark run.
//!
//! Every timed pass runs in a fresh worker process (this binary with
//! `--pass`): one untimed warm-up pass, then the measured pass. A
//! simulation's system is never freed (model processes that stay blocked
//! at the end keep reference cycles alive), so one long-lived process
//! would grow by tens of MB per pass. A process per pass bounds memory
//! and makes `peak_rss_mb` a per-pass figure that does not depend on how
//! many passes fit into `--seconds`.
//!
//! Workers report every time in reference seconds (see
//! [`crate::reference`]); only `host.*` figures are host seconds.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use tc_trace::Snapshot;

use crate::frozen;
use crate::json::Json;
use crate::reference;
use crate::spans::PollCounts;
use crate::workloads::{self, layer_sum, run_case, Case, Mode, SimRun, Workload, DEFAULT_SEED};

/// Schema of the manifest line.
pub const SCHEMA: &str = "tc-perfbench-v1";

/// One metric: name, value, unit.
pub type Metric = (String, f64, String);

/// Everything one run measured.
pub struct Outcome {
    /// Simulations whose outputs were checked.
    pub attempted: u64,
    /// One line per simulation whose outputs differed from the expected.
    pub failures: Vec<String>,
    /// Timed (untraced) passes.
    pub passes: usize,
    /// Median wall (reference seconds) of each simulation over the timed
    /// passes, in pass order.
    pub per_sim: Vec<(String, f64)>,
    /// Medians of the timed passes, in reference and host seconds.
    pub refs: Refs,
    /// End-to-end metrics (medians over the timed passes).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of the traced pass (empty when untraced).
    pub per_layer: Vec<Metric>,
}

/// What the parent needs of one simulation run by a worker.
struct SimRecord {
    name: String,
    wall_s: f64,
    cluster_s: f64,
    endpoints_s: f64,
    accesses: f64,
    end: u64,
    digest: u64,
    failure: Option<String>,
}

impl SimRecord {
    fn of(r: &SimRun) -> String {
        format!(
            "{{\"name\": {}, \"wall_s\": {}, \"cluster_s\": {}, \"endpoints_s\": {}, \"accesses\": {}, \
             \"end\": \"{}\", \"digest\": \"{}\", \"failure\": {}}}",
            json_str(&r.name),
            json_num(r.wall_s),
            json_num(r.cluster_s),
            json_num(r.endpoints_s),
            accesses(&r.registry),
            r.end_time,
            frozen::digest(&r.registry),
            r.failure.as_deref().map_or("null".into(), json_str),
        )
    }

    fn parse(j: &Json) -> Option<SimRecord> {
        let num = |k: &str| j.get(k).and_then(Json::num);
        let int = |k: &str| j.get(k).and_then(Json::str).and_then(|s| s.parse().ok());
        Some(SimRecord {
            name: j.get("name")?.str()?.to_string(),
            wall_s: num("wall_s")?,
            cluster_s: num("cluster_s")?,
            endpoints_s: num("endpoints_s")?,
            accesses: num("accesses")?,
            end: int("end")?,
            digest: int("digest")?,
            failure: j.get("failure")?.str().map(str::to_string),
        })
    }
}

/// One worker's report: the warm-up and measured simulations, its peak
/// memory, and (traced only) the per-layer metrics.
struct PassRecord {
    ref_s: f64,
    warmup: Vec<SimRecord>,
    sims: Vec<SimRecord>,
    rss_mb: f64,
    metrics: Vec<Metric>,
}

impl PassRecord {
    fn parse(line: &str) -> Option<PassRecord> {
        let j = Json::parse(line).ok()?;
        let sims = |k: &str| {
            j.get(k)?
                .arr()
                .iter()
                .map(SimRecord::parse)
                .collect::<Option<Vec<_>>>()
        };
        Some(PassRecord {
            ref_s: j.get("ref_s")?.num()?,
            warmup: sims("warmup")?,
            sims: sims("sims")?,
            rss_mb: j.get("rss_mb")?.num()?,
            metrics: j
                .get("metrics")?
                .members()
                .iter()
                .map(|(n, m)| {
                    Some((
                        n.clone(),
                        m.get("value")?.num()?,
                        m.get("unit")?.str()?.to_string(),
                    ))
                })
                .collect::<Option<Vec<_>>>()?,
        })
    }

    fn sum(&self, f: fn(&SimRecord) -> f64) -> f64 {
        self.sims.iter().map(f).sum()
    }
}

/// Checks every simulation against the first run of the same simulation
/// (determinism across passes and processes), the frozen outputs
/// (default seed only) and its own invariants.
struct Oracle {
    seed: u64,
    first: BTreeMap<String, (u64, u64)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Oracle {
    fn check(&mut self, sims: &[SimRecord]) {
        for r in sims {
            self.attempted += 1;
            let got = (r.end, r.digest);
            let expected = *self.first.entry(r.name.clone()).or_insert(got);
            let problem = if let Some(f) = &r.failure {
                Some(f.clone())
            } else if got != expected {
                Some(format!(
                    "output {got:?} differs from an earlier run's {expected:?}"
                ))
            } else if self.seed == DEFAULT_SEED && frozen::lookup(&r.name) != Some(got) {
                Some(format!(
                    "output {got:?} differs from the frozen {:?}",
                    frozen::lookup(&r.name)
                ))
            } else {
                None
            };
            if let Some(p) = problem {
                self.failures.push(format!("{}: {p}", r.name));
            }
        }
    }
}

fn pass(cases: &[Case], mode: Mode) -> Vec<SimRun> {
    cases.iter().map(|c| run_case(c, mode)).collect()
}

fn wall(p: &[SimRun]) -> f64 {
    p.iter().map(|r| r.wall_s).sum()
}

fn merged(p: &[SimRun]) -> Snapshot {
    p.iter()
        .fold(Snapshot::default(), |acc, r| acc.merge(&r.registry))
}

/// Simulated processor memory accesses: GPU accesses plus CPU loads and
/// stores, over every node.
fn accesses(s: &Snapshot) -> u64 {
    layer_sum(s, "gpu", "mem_accesses")
        + layer_sum(s, "cpu", "loads")
        + layer_sum(s, "cpu", "stores")
}

/// Median (the mean of the middle two for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Untraced medians the traced worker relates its figures to.
#[derive(Debug, Clone, Copy, Default)]
pub struct Refs {
    /// Pass wall, reference seconds.
    pub wall_s: f64,
    /// Cluster construction per pass, reference seconds.
    pub cluster_s: f64,
    /// Endpoint set-up per pass, reference seconds.
    pub endpoints_s: f64,
    /// Pass wall, host seconds.
    pub host_wall_s: f64,
    /// Duration of the reference workload, host seconds.
    pub ref_s: f64,
}

impl Refs {
    /// The `--refs` argument carrying these values to a worker.
    pub fn to_arg(&self) -> String {
        let v = [
            self.wall_s,
            self.cluster_s,
            self.endpoints_s,
            self.host_wall_s,
            self.ref_s,
        ];
        v.map(|x| format!("{x:?}")).join(",")
    }

    /// Parse a `--refs` argument.
    pub fn parse(arg: &str) -> Option<Refs> {
        let v: Vec<f64> = arg
            .split(',')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        let [wall_s, cluster_s, endpoints_s, host_wall_s, ref_s] = v[..] else {
            return None;
        };
        Some(Refs {
            wall_s,
            cluster_s,
            endpoints_s,
            host_wall_s,
            ref_s,
        })
    }
}

/// The worker side: one untimed warm-up pass, one measured pass, printed
/// as one JSON line for the parent.
pub fn worker(w: Workload, seed: u64, traced: bool, inject: f64, refs: Refs) -> String {
    let cases = workloads::cases(w, seed);
    let warmup = pass(
        &cases,
        Mode {
            traced: false,
            inject,
        },
    );
    let before = reference::run(w.threads());
    let mut t = pass(&cases, Mode { traced, inject });
    let mut serial = match &cases[..] {
        [Case::Ring { elements, fill }] if traced => Some(workloads::ring_serial(*elements, *fill)),
        _ => None,
    };
    let ref_s = (before + reference::run(w.threads())) / 2.0;
    let k = reference::NOMINAL_S / ref_s;
    t.iter_mut().chain(serial.as_mut()).for_each(|r| r.scale(k));
    let sims: Vec<String> = t.iter().chain(serial.as_ref()).map(SimRecord::of).collect();
    let metrics = if traced {
        let speedup = serial.map_or(0.0, |s| s.wall_s / refs.wall_s);
        layer_metrics(&t, refs, speedup)
    } else {
        Vec::new()
    };
    format!(
        "{{\"ref_s\": {}, \"rss_mb\": {}, \"warmup\": [{}], \"sims\": [{}], \"metrics\": {}}}",
        json_num(ref_s),
        json_num(peak_rss_mb()),
        warmup
            .iter()
            .map(SimRecord::of)
            .collect::<Vec<_>>()
            .join(", "),
        sims.join(", "),
        metrics_json(&metrics)
    )
}

/// Run one worker process and read its report.
fn spawn_worker(
    w: Workload,
    seed: u64,
    traced: bool,
    inject: f64,
    refs: Refs,
) -> Result<PassRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let refs = refs.to_arg();
    let out = Command::new(exe)
        .args([
            "--pass",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--inject-slowdown",
            &inject.to_string(),
            "--refs",
            &refs,
        ])
        .output()
        .map_err(|e| format!("cannot start a worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let record = stdout.lines().last().and_then(PassRecord::parse);
    match record {
        Some(r) if out.status.success() => Ok(r),
        _ => Err(format!(
            "worker failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Run `workload`: worker passes until `seconds` have elapsed, then (if
/// `traced`) one traced worker pass.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    inject: f64,
) -> Result<Outcome, String> {
    let mut oracle = Oracle {
        seed,
        first: BTreeMap::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let p = spawn_worker(w, seed, false, inject, Refs::default())?;
        oracle.check(&p.warmup);
        oracle.check(&p.sims);
        passes.push(p);
    }
    let of = |f: &dyn Fn(&PassRecord) -> f64| median(passes.iter().map(f).collect());
    let refs = Refs {
        wall_s: of(&|p| p.sum(|r| r.wall_s)),
        cluster_s: of(&|p| p.sum(|r| r.cluster_s)),
        endpoints_s: of(&|p| p.sum(|r| r.endpoints_s)),
        host_wall_s: of(&|p| p.sum(|r| r.wall_s) * p.ref_s / reference::NOMINAL_S),
        ref_s: of(&|p| p.ref_s),
    };
    let metric = |n: &str, v: f64, u: &str| (n.to_string(), v, u.to_string());
    let end_to_end = vec![
        metric("wall_s", refs.wall_s, "s"),
        metric(
            "setup_s",
            of(&|p| p.sum(|r| r.cluster_s + r.endpoints_s)),
            "s",
        ),
        metric(
            "sim_accesses_per_s",
            of(&|p| p.sum(|r| r.accesses) / p.sum(|r| r.wall_s)),
            "1/s",
        ),
        metric("peak_rss_mb", of(&|p| p.rss_mb), "MB"),
    ];
    let per_layer = if traced {
        let t = spawn_worker(w, seed, true, inject, refs)?;
        oracle.check(&t.warmup);
        oracle.check(&t.sims);
        t.metrics
    } else {
        Vec::new()
    };
    Ok(Outcome {
        attempted: oracle.attempted,
        failures: oracle.failures,
        per_sim: (0..passes[0].sims.len())
            .map(|i| {
                (
                    passes[0].sims[i].name.clone(),
                    median(passes.iter().map(|p| p.sims[i].wall_s).collect()),
                )
            })
            .collect(),
        passes: passes.len(),
        refs,
        end_to_end,
        per_layer,
    })
}

/// The per-layer metrics of traced pass `t`, related to the untraced
/// medians `refs`.
fn layer_metrics(t: &[SimRun], refs: Refs, speedup: f64) -> Vec<Metric> {
    let w = refs.wall_s;
    let mut polls = PollCounts::default();
    for r in t {
        polls.add(&r.polls);
    }
    let sum = |f: fn(&SimRun) -> f64| t.iter().map(f).sum::<f64>();
    let s = merged(t);
    let c = |layer: &str, name: &str| layer_sum(&s, layer, name) as f64;
    let run_s = sum(|r| r.run_s);
    let driver_s = sum(|r| r.driver_s);
    let windows = t.iter().map(|r| r.windows).sum::<u64>() as f64;
    let per_window = |x: f64| if windows > 0.0 { x / windows } else { 0.0 };
    let useful = c("ib", "cqes_written") + c("extoll", "frames_completed");
    let spins = c("ib", "cq_poll_spins") + c("extoll", "notif_poll_spins");
    [
        ("desim.polls", polls.total as f64, "count"),
        ("desim.polls.driver", polls.driver as f64, "count"),
        ("desim.polls.gpu", polls.gpu as f64, "count"),
        ("desim.polls.nic", polls.nic as f64, "count"),
        ("desim.polls.fabric", polls.fabric as f64, "count"),
        ("desim.polls.other", polls.other as f64, "count"),
        ("desim.cause.spawn", polls.spawn as f64, "count"),
        ("desim.cause.wake", polls.wake as f64, "count"),
        ("desim.cause.timer", polls.timer as f64, "count"),
        ("desim.cause.import", polls.import as f64, "count"),
        (
            "desim.ns_per_poll",
            w * 1e9 / polls.total.max(1) as f64,
            "ns",
        ),
        ("desim.run_s", run_s, "s"),
        ("shard.windows", windows, "count"),
        (
            "shard.envelopes",
            t.iter().map(|r| r.envelopes).sum::<u64>() as f64,
            "count",
        ),
        ("shard.us_per_window", per_window(w * 1e6), "us"),
        ("shard.speedup", speedup, "x"),
        ("core.setup.cluster_s", refs.cluster_s, "s"),
        ("core.setup.endpoints_s", refs.endpoints_s, "s"),
        ("core.post_s", sum(|r| r.post_s), "s"),
        ("core.wait_s", sum(|r| r.wait_s), "s"),
        ("core.driver_self_s", driver_s, "s"),
        ("core.engine_s", run_s - driver_s, "s"),
        ("msg.eager_frags", c("msg", "eager_frags"), "count"),
        ("msg.rndv_sends", c("msg", "rndv_sends"), "count"),
        ("msg.credit_stalls", c("msg", "credit_stalls"), "count"),
        ("gpu.instructions", c("gpu", "instructions"), "count"),
        ("gpu.mem_accesses", c("gpu", "mem_accesses"), "count"),
        ("gpu.l2.read_hits", c("gpu", "l2.read_hits"), "count"),
        ("gpu.sysmem.reads", c("gpu", "sysmem.reads"), "count"),
        ("cpu.loads", c("cpu", "loads"), "count"),
        ("cpu.stores", c("cpu", "stores"), "count"),
        ("pcie.reads", c("pcie", "reads"), "count"),
        (
            "pcie.dma_ops",
            c("pcie", "dma_reads") + c("pcie", "dma_writes"),
            "count",
        ),
        (
            "pcie.dma_bytes",
            c("pcie", "dma_read_bytes") + c("pcie", "dma_write_bytes"),
            "bytes",
        ),
        ("pcie.posted_writes", c("pcie", "posted_writes"), "count"),
        ("extoll.puts", c("extoll", "puts"), "count"),
        (
            "extoll.frames_completed",
            c("extoll", "frames_completed"),
            "count",
        ),
        (
            "extoll.notif_poll_spins",
            c("extoll", "notif_poll_spins"),
            "count",
        ),
        (
            "extoll.velo_delivered",
            c("extoll", "velo_delivered"),
            "count",
        ),
        ("ib.wqes_executed", c("ib", "wqes_executed"), "count"),
        ("ib.cqes_written", c("ib", "cqes_written"), "count"),
        ("ib.cq_poll_spins", c("ib", "cq_poll_spins"), "count"),
        (
            "poll.useful_ratio",
            if spins > 0.0 { useful / spins } else { 0.0 },
            "ratio",
        ),
        ("trace.snapshot_s", sum(|r| r.snapshot_s), "s"),
        ("trace.overhead", wall(t) / w, "x"),
        ("host.wall_s", refs.host_wall_s, "s"),
        ("host.ref_s", refs.ref_s, "s"),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
    .collect()
}

/// Render `metrics` as the members of a JSON object.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Render a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
