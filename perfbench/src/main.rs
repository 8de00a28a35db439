//! The repository's one benchmark.
//!
//! ```text
//! perfbench --workload <compile|local-fitter|rpc-echo|rpc-fitter|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process (so `peak_rss_mb` belongs to
//! it); `all` runs the four one after another as child processes. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. Every output
//! the workload produces is checked; the process exits non-zero if any
//! check failed. See `NOTES.md` for why each workload and metric exists.

mod calls;
mod compile;
mod probe;
mod sched;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::stats::Samples;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["compile", "local-fitter", "rpc-echo", "rpc-fitter"];

/// End-to-end metrics and their units; every workload reports each.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("compile_cold_s", "s"),
    ("compile_warm_s", "s"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("calls_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units. A traced run reports each; a
/// layer a workload never enters reads 0 there (NOTES.md lists which
/// layer metric each workload exercises).
const PER_LAYER: [(&str, &str); 41] = [
    ("stype.annotate_ms", "ms"),
    ("stype.lower_ms", "ms"),
    ("comparer.compare_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("wire.canonize_ms", "ms"),
    ("wire.canonize_warm_ms", "ms"),
    ("wire.lower_ms", "ms"),
    ("wire.programs_compiled", "count"),
    ("wire.fallbacks", "count"),
    ("comparer.verdict_hit_ratio", "ratio"),
    ("comparer.corr_hit_ratio", "ratio"),
    ("artifact.load_ms", "ms"),
    ("artifact.commit_ms", "ms"),
    ("artifact.store_bytes", "bytes"),
    ("stubgen.convert_args_us", "us"),
    ("stubgen.convert_result_us", "us"),
    ("stubgen.native_ratio", "ratio"),
    ("servant.native_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("alloc.per_call", "count"),
    ("alloc.bytes_per_call", "bytes"),
    ("runtime.client_p50_us", "us"),
    ("runtime.server_p50_us", "us"),
    ("runtime.bytes_per_call", "bytes"),
    ("runtime.pool_reuse_ratio", "ratio"),
    ("runtime.retries", "count"),
    ("runtime.timeouts", "count"),
    ("runtime.sheds", "count"),
    ("process.cpu_us_per_call", "us"),
    ("process.threads", "count"),
    ("gen.lag_p50_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("span.call.self_us", "us"),
    ("span.stubgen.self_us", "us"),
    ("span.wire.self_us", "us"),
    ("span.runtime.self_us", "us"),
    ("span.servant.self_us", "us"),
    ("obs.trace_overhead", "ratio"),
    ("host.steal_pct", "%"),
    ("error_ratio", "ratio"),
];

/// One run's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's scratch directory, under the working directory.
    pub dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: pairs compiled, encodes or calls made.
    pub attempted: u64,
    /// Attempted operations that errored or produced a wrong output.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records the call latency of `samples` under the end-to-end names
    /// and returns the median, in microseconds.
    pub fn set_latency(&mut self, run: &Run, samples: &Samples) -> f64 {
        let l = samples.summary();
        self.set("call_p50_us", l.p50_us);
        self.set("call_p99_us", l.tail_us);
        println!(
            "{}: call latency over {} samples: p50 {:.2} us, p{} {:.2} us \
             (call_p99_us: p99, or the highest percentile with at least 10 samples beyond it)",
            run.workload,
            l.count,
            l.p50_us,
            l.tail_q * 100.0,
            l.tail_us,
        );
        l.p50_us
    }

    /// Records the whole run's latency, then `call_p50_us` and
    /// `calls_per_s` from the quietest of `windows` (stretches of the
    /// run, each as its median latency in us and its completions per
    /// second): the one that completed the most a second. The host the
    /// benchmark was tuned on runs CPU-bound loops at one of two speeds,
    /// flipping every few seconds even with the process pinned to one
    /// core, so a run's share of slow seconds would set a whole-run
    /// median. A change to the code's own cost moves every window, as in
    /// a best-of-repeats timing; the tail stays the whole run's. Returns
    /// the whole-run median.
    pub fn set_quietest(
        &mut self,
        run: &Run,
        samples: &Samples,
        windows: &[(f64, f64)],
        whole_rate: f64,
    ) -> Result<f64, String> {
        let whole_p50 = self.set_latency(run, samples);
        let (p50, rate) = windows
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .ok_or("the pass completed no window")?;
        self.set("call_p50_us", p50);
        self.set("calls_per_s", rate);
        println!(
            "{}: quietest of {} windows: p50 {p50:.2} us, {rate:.0}/s; whole run: p50 {whole_p50:.2} us, {whole_rate:.0}/s",
            run.workload,
            windows.len(),
        );
        Ok(whole_p50)
    }

    /// Records the share of the machine's CPU time the hypervisor stole
    /// during the measured pass: not the program's doing, but it moves
    /// the timings, the tails most.
    pub fn set_steal(&mut self, pct: f64) {
        self.set("host.steal_pct", pct);
        println!("host: {pct:.2}% of CPU time stolen by the hypervisor during the measured pass");
    }

    /// Records the median per-call self time of each traced layer and
    /// writes the spans out.
    pub fn set_span_self_times(&mut self, run: &Run, spans: &[trace::Span]) -> Result<(), String> {
        for (layer, mut ns) in trace::self_times(spans) {
            let name = match layer {
                "call" => "span.call.self_us",
                "stubgen" => "span.stubgen.self_us",
                "wire" => "span.wire.self_us",
                "runtime" => "span.runtime.self_us",
                "servant" => "span.servant.self_us",
                other => return Err(format!("span layer {other} has no metric")),
            };
            ns.sort_unstable();
            self.set(name, stats::quantile_sorted(&ns, 0.5) as f64 / 1e3);
        }
        let path = run
            .dir
            .with_file_name(format!("perfbench-spans-{}.tsv", run.workload));
        trace::write_spans(&path, spans, 50_000).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{}: {} spans written to {}",
            run.workload,
            spans.len(),
            path.display()
        );
        Ok(())
    }
}

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    let dir =
        PathBuf::from(".bench_build").join(format!("perfbench-{workload}-{}", std::process::id()));
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        dir,
    })
}

/// Formats a metric value with all its digits; JSON has no NaN or
/// infinity, so those become errors.
fn number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric {name} is {v}"))
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> Result<String, String> {
    let body = metrics
        .iter()
        .map(|(n, v, u)| {
            Ok(format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                number(n, *v)?
            ))
        })
        .collect::<Result<Vec<_>, String>>()?
        .join(", ");
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

/// Runs one workload in this process and prints its result line.
fn run_one(run: &Run) -> Result<bool, String> {
    std::fs::create_dir_all(&run.dir).map_err(|e| format!("{}: {e}", run.dir.display()))?;
    let outcome = match run.workload.as_str() {
        "compile" => compile::run(run),
        "local-fitter" => calls::local_fitter(run),
        "rpc-echo" => calls::rpc_echo(run),
        "rpc-fitter" => calls::rpc_fitter(run),
        other => Err(format!("unknown workload {other}")),
    };
    std::fs::remove_dir_all(&run.dir).ok();
    let mut out = outcome?;
    out.set("peak_rss_mb", probe::peak_rss_mb()?);
    out.set(
        "error_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match out.values.get(name) {
            Some(&v) => v,
            None if run.trace => 0.0,
            None => return Err(format!("{} did not measure {name}", run.workload)),
        };
        println!("{}: {name} = {value} {unit}", run.workload);
        metrics.push((name.to_string(), value, unit));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    if !correct {
        println!(
            "{}: OUTPUT CHECK FAILED: {} of {} operations wrong",
            run.workload, out.failed, out.attempted
        );
    }
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)?
    );
    Ok(correct)
}

/// Runs every workload as a child process of this binary, echoing their
/// output, then prints one combined result line whose metrics are
/// prefixed with the workload name.
fn run_all(run: &Run) -> Result<bool, String> {
    use mockingbird::stype::json::Json;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        let text = String::from_utf8_lossy(&child.stdout);
        print!("{text}");
        let parsed = text
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .filter(|_| child.status.success() || child.status.code() == Some(1));
        let Some(j) = parsed else {
            println!("{w}: no result (exit {:?})", child.status.code());
            correct = false;
            continue;
        };
        correct &= j.get("correct").and_then(|c| c.as_bool().ok()) == Some(true);
        attempted += j
            .get("attempted")
            .and_then(|v| v.as_int().ok())
            .unwrap_or(0) as u64;
        failed += j.get("failed").and_then(|v| v.as_int().ok()).unwrap_or(0) as u64;
        if let Some(Json::Object(m)) = j.get("metrics") {
            for (name, v) in m {
                let value = match v.get("value") {
                    Some(Json::Float(f)) => *f,
                    Some(Json::Int(i)) => *i as f64,
                    _ => return Err(format!("{w}: metric {name} has no value")),
                };
                let unit = v.get("unit").and_then(|u| u.as_str().ok()).unwrap_or("");
                metrics.push((format!("{w}.{name}"), value, unit.to_string()));
            }
        }
    }
    let metrics: Vec<(String, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.clone(), *v, u.as_str()))
        .collect();
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|run| {
        if run.workload == "all" {
            run_all(&run)
        } else {
            run_one(&run)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
