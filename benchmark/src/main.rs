//! Benchmark of record for the NFCompass reproduction.
//!
//! ```text
//! nfc-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! nfc-benchmark selfcheck [--seed N] [--seconds S] [--out DIR]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! as the last line of standard output, the JSON object the benchmark
//! driver reads. `run` without a workload runs all six, one child process
//! each (so that peak memory and allocator state are per workload, and
//! the numbers are the ones the driver gets), and writes `results.json`.
//! `selfcheck` runs the set twice, interleaved, and compares the medians
//! against the bounds. `setup --workload W` (used by `run` itself) builds
//! the deployment once in a fresh process and prints the two set-up
//! times. See `benchmark/README.md`.

mod report;
mod stats;
mod sut;
mod sys;
mod trace;

use report::{Traced, Untraced, Values, STOLEN_LIMIT};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use sut::{Ladder, Variant, Workload};

/// Untraced repetitions when `--seconds` does not set a budget.
const REPETITIONS: usize = 7;
/// Never fewer than this many, whatever the budget: what it takes for
/// the wall medians to be taken over calm repetitions only.
const MIN_REPETITIONS: usize = report::MIN_CALM;
/// Untraced repetitions a `--trace 1` run needs for the per-layer
/// metrics that compare against them.
const MIN_REPETITIONS_TRACED: usize = 3;
/// Share of a `--trace 1` run's `--seconds` spent on them; the traced
/// repetition, the baselines and the micro-loops take the rest.
const TRACED_BUDGET_SHARE: f64 = 0.3;
/// Fresh builds behind `setup_s`.
const SETUP_BUILDS: usize = 15;
/// Share of the nominal rate offered to the cache-off repetition.
const CACHE_OFF_RATE_SHARE: f64 = 0.2;
/// Seed whose egress digests are committed in `golden.json`.
const GOLDEN_SEED: u64 = 7;
const GOLDEN: &str = include_str!("../golden.json");

/// What a single-workload run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trace {
    /// `--trace 0`: the untraced repetitions, end-to-end metrics only.
    Off,
    /// `--trace 1`: the traced repetition and the per-layer metrics.
    On,
    /// No `--trace`: both.
    Both,
}

#[derive(Debug, Clone)]
struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Trace,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: GOLDEN_SEED,
        seconds: None,
        trace: Trace::Both,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                o.workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = sut::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => o.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// The run manifest: what it takes to reproduce and to read the numbers.
fn manifest(w: &Workload, o: &Options, repetitions: usize) -> Value {
    let clocks: BTreeMap<String, Value> = report::END_TO_END
        .iter()
        .chain(&report::ZERO_RATIOS)
        .chain(&report::PER_LAYER)
        .map(|d| (d.name.to_string(), Value::String(d.clock.label().into())))
        .collect();
    json!({
        "git_revision": sys::git_revision(Path::new(".")),
        "rustc": sys::rustc_version(),
        "nproc": sys::nproc(),
        "engine_workers": sut::engine_workers(),
        "workload": w.name,
        "seed": o.seed,
        "repetitions": repetitions,
        "stolen_limit": STOLEN_LIMIT,
        "batches_per_repetition": w.batches,
        "batch_packets": w.batch,
        "offered_gbps": w.rate_gbps,
        "load_model": "wall: closed loop, one caller; sim: open loop at offered_gbps",
        "clock": Value::Object(clocks),
    })
}

/// One set-up in a fresh child process (`nfc-benchmark setup`), so that it
/// is the cold set-up a user pays, not one on memory this process has
/// already faulted in: `(setup_s, prepare_s)`.
fn cold_setup(w: &Workload, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["setup", "--workload", w.name, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), fields.next(), fields.next()) {
        (true, Some(Ok(setup_s)), Some(Ok(prepare_s))) => Ok((setup_s, prepare_s)),
        _ => Err(format!("set-up child failed: {}", out.status)),
    }
}

/// The untraced repetitions: `end_to_end` metrics come from here only.
fn untraced(w: &Workload, o: &Options) -> Result<Untraced, String> {
    let (budget, floor) = match (o.seconds, o.trace) {
        (Some(s), Trace::On) => (s * TRACED_BUDGET_SHARE, MIN_REPETITIONS_TRACED),
        (None, Trace::On) => (0.0, MIN_REPETITIONS_TRACED),
        (Some(s), _) => (s, MIN_REPETITIONS),
        (None, _) => (0.0, REPETITIONS),
    };
    let mut u = Untraced::default();
    let start = Instant::now();
    loop {
        let rep = sut::repetition(w, o.seed, Variant::Default, w.batches, w.rate_gbps, None);
        u.reps.push(rep);
        // Peak memory after a fixed number of repetitions, so that it
        // does not depend on how many more the time budget allows.
        if u.reps.len() == floor.min(MIN_REPETITIONS) {
            u.peak_rss_mb = sys::peak_rss_mb();
        }
        // Done when the budget is spent and enough repetitions ran
        // undisturbed; a disturbed run goes on for up to half as long
        // (or as many) again before it settles for what it has.
        let spent = start.elapsed().as_secs_f64();
        let calm = u.reps.iter().filter(|r| r.stolen <= STOLEN_LIMIT).count();
        let enough = calm >= floor && spent >= budget;
        let give_up = u.reps.len() >= floor * 3 / 2 && spent >= budget * 1.5;
        if enough || give_up {
            break;
        }
    }
    let builds = if o.trace == Trace::On {
        MIN_REPETITIONS_TRACED
    } else {
        SETUP_BUILDS
    };
    for _ in 0..builds {
        let (setup_s, prepare_s) = cold_setup(w, o.seed)?;
        u.setups.push(setup_s);
        u.prepares.push(prepare_s);
    }
    if o.trace != Trace::On {
        u.saturation = Some(sut::saturation(w, o.seed));
    }
    Ok(u)
}

/// The traced repetition, the extra baseline repetitions and the
/// micro-loops behind the per-layer metrics.
fn traced(w: &Workload, o: &Options, u: &Untraced) -> Traced {
    // One repetition each, so a disturbed one is run again (the calmest
    // of up to three is kept).
    let rep = |v: Variant, rate: f64| {
        let run = || sut::repetition(w, o.seed, v, w.batches, rate, None);
        let mut best = run();
        for _ in 0..2 {
            if best.stolen <= STOLEN_LIMIT {
                break;
            }
            let again = run();
            if again.stolen < best.stolen {
                best = again;
            }
        }
        best
    };
    let wide = u.reps[0].counts.width > 1 && !w.is_rack();
    let serial = wide.then(|| rep(Variant::Serial, w.rate_gbps));
    // Without its cache the chain cannot carry the nominal rate on the
    // simulated clock, and a tail-dropped batch returns before any NF
    // runs; host time does not depend on the offered rate, so the
    // bypass repetition is offered a fifth of it.
    let cache_off = w
        .cached()
        .then(|| rep(Variant::CacheOff, w.rate_gbps * CACHE_OFF_RATE_SHARE));
    let telemetry = rep(Variant::Telemetry, w.rate_gbps);
    let n1 = rep(Variant::ClusterN1, w.rate_gbps);
    let mut ladder = Ladder::new(w, w.batches);
    let traced_variant = if wide {
        Variant::Serial
    } else {
        Variant::Default
    };
    let rep = sut::repetition(
        w,
        o.seed,
        traced_variant,
        w.batches,
        w.rate_gbps,
        Some(&mut ladder),
    );
    ladder.setup_and_micro(w, o.seed);
    Traced {
        ladder,
        rep,
        serial,
        cache_off,
        telemetry,
        n1,
    }
}

/// Checks the repetitions against each other, against packet
/// conservation and (for the golden seed) against the committed digest.
/// Returns the batches to count as failed and the findings.
fn verify(w: &Workload, seed: u64, reps: &[&sut::Rep]) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let first = reps[0];
    let golden = (seed == GOLDEN_SEED)
        .then(|| serde_json::from_str(GOLDEN).expect("golden.json parses"))
        .and_then(|g: Value| g["digests"][w.name].as_str().map(str::to_string));
    let expected = golden.unwrap_or_else(|| format!("{:016x}", first.digest));
    let mut failed = 0u64;
    for (i, r) in reps.iter().enumerate() {
        failed += r.sim.dropped;
        let digest = format!("{:016x}", r.digest);
        if digest != expected {
            failed += r.attempted - r.sim.dropped.min(r.attempted);
            problems.push(format!(
                "repetition {i}: egress digest {digest}, expected {expected}"
            ));
        }
        if !r.conserved {
            problems.push(format!(
                "repetition {i}: packets not conserved ({:?})",
                r.counts
            ));
        }
        if r.sim.bits() != first.sim.bits() {
            problems.push(format!(
                "repetition {i}: simulated results differ from repetition 0: {:?} vs {:?}",
                r.sim, first.sim
            ));
        }
        if r.counts != first.counts {
            problems.push(format!(
                "repetition {i}: counts differ from repetition 0: {:?} vs {:?}",
                r.counts, first.counts
            ));
        }
    }
    if first.sim.dropped > 0 {
        problems.push(format!(
            "{} of {} batches tail-dropped at the nominal rate",
            first.sim.dropped, first.sim.offered
        ));
    }
    (failed, problems)
}

fn print_metric(name: &str, value: f64, detail: &str) {
    let d = report::def(name).expect("metric is in the registry");
    println!(
        "  {:<40} {:>14.6} {:<7} {:<5} {}",
        name,
        value,
        d.unit,
        d.clock.label(),
        detail
    );
}

fn metric_json(values: &Values, on_path: Option<&[&'static str]>) -> BTreeMap<String, Value> {
    values
        .iter()
        .map(|(&name, &value)| {
            let d = report::def(name).expect("metric is in the registry");
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), json!(value));
            m.insert("unit".to_string(), json!(d.unit));
            m.insert("clock".to_string(), json!(d.clock.label()));
            if let Some(path) = on_path {
                m.insert("on_path".to_string(), json!(report::applies(name, path)));
            }
            (name.to_string(), Value::Object(m))
        })
        .collect()
}

/// Measures one workload in this process. Returns whether it was correct.
fn run_one(w: &'static Workload, o: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let started = Instant::now();
    let mut u = untraced(w, o)?;
    let t = (o.trace != Trace::Off).then(|| traced(w, o, &u));

    let reps: Vec<&sut::Rep> = u.reps.iter().collect();
    let (failed, mut problems) = verify(w, o.seed, &reps);
    if let Some(t) = &t {
        // The extra repetitions must produce the same egress as the
        // default ones, and — but for the cache-off one, whose simulated
        // charges and offered rate differ — the same simulated results.
        let extra = [
            ("serial", t.serial.as_ref(), true),
            ("telemetry", Some(&t.telemetry), true),
            ("traced", Some(&t.rep), true),
            ("cache-off", t.cache_off.as_ref(), false),
        ];
        for (label, r, same_sim) in extra {
            let Some(r) = r else { continue };
            let sim_ok = !same_sim || r.sim.bits() == u.reps[0].sim.bits();
            if r.digest != u.reps[0].digest || !sim_ok || r.sim.dropped > 0 {
                problems.push(format!(
                    "{label} repetition differs from the default ones: digest {:016x} vs \
                     {:016x}, sim {:?} vs {:?}",
                    r.digest, u.reps[0].digest, r.sim, u.reps[0].sim
                ));
            }
        }
    }
    u.failed = failed;
    let correct = problems.is_empty();

    let manifest = manifest(w, o, u.reps.len());
    let e2e = u.end_to_end();
    let layers = t.as_ref().map(|t| report::per_layer(&u, t));

    println!(
        "== {}  seed {}  {} repetitions x {} batches x {} packets  offered {} Gbit/s  ({} engine workers, {:.1} s)",
        w.name,
        o.seed,
        u.reps.len(),
        w.batches,
        w.batch,
        w.rate_gbps,
        sut::engine_workers(),
        started.elapsed().as_secs_f64(),
    );
    println!("  digest {:016x}", u.reps[0].digest);
    let mpps = u.wall_mpps();
    let (q1, q3) = stats::quartiles(&mpps);
    for (&name, &value) in &e2e {
        let detail = match name {
            "wall_mpps" => format!(
                "q1 {q1:.4} q3 {q3:.4} n={} ({} disturbed)",
                mpps.len(),
                u.reps.len() - mpps.len()
            ),
            "setup_s" => format!("n={}", u.setups.len()),
            "sim_p50_us" | "sim_p99_us" => format!("n={}", u.reps[0].sim.offered),
            _ => String::new(),
        };
        print_metric(name, value, &detail);
    }
    if let (Some(t), Some(layers)) = (&t, &layers) {
        println!(
            "  per-layer, on this workload's path (off-path references are in the result file):"
        );
        for (&name, &value) in layers {
            if report::applies(name, &t.ladder.on_path) {
                print_metric(name, value, "");
            }
        }
    }
    for p in &problems {
        println!("  INCORRECT: {p}");
    }

    let mut result = BTreeMap::new();
    result.insert("manifest".to_string(), manifest.clone());
    result.insert("correct".to_string(), json!(correct));
    result.insert("problems".to_string(), json!(problems));
    result.insert(
        "digest".to_string(),
        json!(format!("{:016x}", u.reps[0].digest)),
    );
    result.insert("wall_mpps_repetitions".to_string(), json!(mpps));
    let stolen: Vec<f64> = u.reps.iter().map(|r| r.stolen).collect();
    result.insert("stolen_share_repetitions".to_string(), json!(stolen));
    let mut metrics = metric_json(&e2e, None);
    if let (Some(t), Some(layers)) = (&t, &layers) {
        metrics.extend(metric_json(layers, Some(&t.ladder.on_path)));
        let path = o.out.join(format!("{}.trace.json", w.name));
        t.ladder
            .tracer
            .write_chrome(&path, &manifest.to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    result.insert("metrics".to_string(), Value::Object(metrics));
    let path = o.out.join(format!("{}.result.json", w.name));
    let text = serde_json::to_string_pretty(&Value::Object(result)).expect("serializes");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;

    // The driver's line: with `--trace 0` every end-to-end metric of
    // BENCHMARK.json, with `--trace 1` every per-layer one.
    let mut line = BTreeMap::new();
    let mut put = |defs: &[report::MetricDef], values: &Values| {
        for d in defs {
            let value = values.get(d.name).copied().unwrap_or(0.0);
            line.insert(d.name.to_string(), json!({"value": value, "unit": d.unit}));
        }
    };
    if o.trace != Trace::On {
        put(&report::END_TO_END, &e2e);
    }
    if let Some(layers) = &layers {
        put(&report::ZERO_RATIOS, &e2e);
        put(&report::PER_LAYER, layers);
    }
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": u.attempted(),
            "failed": u.failed,
            "metrics": Value::Object(line),
        })
    );
    Ok(correct)
}

/// Runs one workload in a child process and returns its result file.
fn run_child(w: &Workload, o: &Options, out: &Path, trace: Option<&str>) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", w.name, "--seed", &o.seed.to_string()])
        .arg("--out")
        .arg(out);
    if let Some(s) = o.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if let Some(t) = trace {
        cmd.args(["--trace", t]);
    }
    let status = cmd.status().map_err(|e| format!("spawn: {e}"))?;
    let path = out.join(format!("{}.result.json", w.name));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if !status.success() && v["correct"].as_bool() != Some(false) {
        return Err(format!("{} exited with {status}", w.name));
    }
    Ok(v)
}

/// All six workloads, one child process each, merged into `results.json`.
fn run_all(o: &Options) -> Result<bool, String> {
    let started = Instant::now();
    let mut all = BTreeMap::new();
    let mut correct = true;
    for w in &sut::WORKLOADS {
        let trace = match o.trace {
            Trace::Off => Some("0"),
            Trace::On => Some("1"),
            Trace::Both => None,
        };
        let v = run_child(w, o, &o.out, trace)?;
        correct &= v["correct"].as_bool() == Some(true);
        all.insert(w.name.to_string(), v);
    }
    let path = o.out.join("results.json");
    let text = serde_json::to_string_pretty(&json!({
        "correct": correct,
        "workloads": Value::Object(all),
    }))
    .expect("serializes");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} and {} trace files in {:.1} s; {}",
        path.display(),
        sut::WORKLOADS.len(),
        started.elapsed().as_secs_f64(),
        if correct {
            "all workloads correct"
        } else {
            "INCORRECT"
        }
    );
    Ok(correct)
}

/// Two interleaved sets of the same code: for every end-to-end metric
/// both medians, their relative difference and the bound. Simulated and
/// count metrics must agree exactly (same seed, same program).
fn selfcheck(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    for w in &sut::WORKLOADS {
        let a = run_child(w, o, &o.out.join("selfcheck-a"), Some("0"))?;
        let b = run_child(w, o, &o.out.join("selfcheck-b"), Some("0"))?;
        ok &= a["correct"].as_bool() == Some(true) && b["correct"].as_bool() == Some(true);
        for d in report::END_TO_END.iter().chain(&report::ZERO_RATIOS) {
            let get = |v: &Value| v["metrics"][d.name]["value"].as_f64().unwrap_or(f64::NAN);
            let (va, vb) = (get(&a), get(&b));
            let diff = if va == vb { 0.0 } else { (vb - va) / va.abs() };
            let worse = if d.higher_is_better { -diff } else { diff };
            let (bound, pass) = match (d.clock, d.name) {
                (report::Clock::Wall, "setup_s") => {
                    // Either within the bound or within 5 ms: a set-up
                    // of a few ms is below what the host can resolve.
                    let b = d.bound.unwrap_or(0.0);
                    (format!("{b:.2}"), worse <= b || (vb - va).abs() <= 0.005)
                }
                (report::Clock::Wall, _) => {
                    let b = d.bound.unwrap_or(0.0);
                    (format!("{b:.2}"), worse <= b)
                }
                _ => ("exact".to_string(), va.to_bits() == vb.to_bits()),
            };
            println!(
                "{:<22} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>7} {}",
                w.name,
                d.name,
                va,
                vb,
                diff * 100.0,
                bound,
                if pass { "" } else { "FAIL" }
            );
            ok &= pass;
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: nfc-benchmark run [--workload W] [--seed N] [--seconds S] \
                 [--trace 0|1] [--out DIR] | selfcheck [--seed N] [--seconds S] [--out DIR]";
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build; pass --release");
        return ExitCode::from(2);
    }
    let overrides = sys::nfc_env_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "refusing to run with {} set: the benchmark measures the shipped defaults",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let outcome = parse(rest).and_then(|o| match (command.as_str(), o.workload) {
        ("run", Some(w)) => run_one(w, &o),
        ("setup", Some(w)) => {
            let (setup_s, prepare_s) = sut::setup_only(w, o.seed);
            println!("{setup_s} {prepare_s}");
            Ok(true)
        }
        ("run", None) => run_all(&o),
        ("selfcheck", None) => selfcheck(&o),
        _ => Err(usage.to_string()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nfc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
