//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a stamp line, one line per
//! metric, and as its last line a JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dsv_core::artifacts;
use dsv_core::qoe::{force_mode, QoeMode};
use dsv_perfbench::grid::{warm_artifacts, Workload};
use dsv_perfbench::outside::{self, Layers, EVENT_KINDS};
use dsv_perfbench::pass::{run_pass, runner, Pass};
use dsv_perfbench::recorded;

/// Settings the program reads per process behind the runner's back; a
/// run under any of them would measure something else.
const KNOBS: [&str; 6] = [
    "DSV_SHARDS",
    "DSV_QUEUE",
    "DSV_QOE",
    "DSV_AUDIT",
    "DSV_CLUSTER",
    "DSV_SHARE",
];

/// Set-ups per run: at least `MIN_SETUPS`, and more while they have
/// taken under `SETUP_SECONDS` in all, up to `MAX_SETUPS`; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 99;
const SETUP_SECONDS: f64 = 1.0;
/// Fewest timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <udp_policed|tcp_closed_loop|warm_rerun> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or(format!("unknown workload {workload_name}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.ok_or("--seconds is required")?),
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = KNOBS
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the program reads it per process, \
             so the run would not measure the default configuration",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let root = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let work = root
        .join(".perfbench_work")
        .join(std::process::id().to_string());
    let result = run(&args, &root, &work);
    let _ = fs::remove_dir_all(&work);
    // Leaves the parent only while another run still works in it.
    let _ = fs::remove_dir(root.join(".perfbench_work"));
    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the workload and return the JSON summary line.
fn run(args: &Args, root: &Path, work: &Path) -> Result<String, String> {
    let _full_vqm = force_mode(QoeMode::Full);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let batches = args.workload.batches(args.seed);
    let points: Vec<_> = batches.iter().flat_map(|b| b.points.clone()).collect();
    // Seed 0 is the committed configuration: its outcomes are checked
    // against the recordings. Any other seed is checked for determinism
    // against the serial pipeline.
    let expected = match args.seed {
        0 => Some(recorded::expected(&root.join("results"), &batches)?),
        _ => None,
    };
    fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;

    // Set-up: fill the artifact store (and, warm, the result cache).
    let mut setup_s = Vec::new();
    let mut encode_s = Vec::new();
    let mut encodes = 0;
    let mut warm_cache = None;
    let setups_started = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setups_started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let k = setup_s.len();
        let t = Instant::now();
        artifacts::clear();
        encodes = warm_artifacts(&batches);
        encode_s.push(t.elapsed().as_secs_f64());
        if !args.workload.cold() {
            let dir = fresh_dir(work, &format!("fill-{k}"))?;
            run_pass(&runner(workers, &dir), &batches);
            if let Some(old) = warm_cache.replace(dir) {
                let _ = fs::remove_dir_all(old);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Passes: closed loops of `workers` clients over the grids. The
    // first warms the allocator and CPU caches and is checked but not
    // timed; the rest run for `--seconds`.
    let mut passes: Vec<Option<Pass>> = Vec::new();
    let mut peak_rss = 0.0;
    let mut pass_cpu_s = Vec::new();
    let mut started = Instant::now();
    while passes.len() < 1 + MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        if passes.len() == 1 {
            started = Instant::now();
        }
        let dir = match &warm_cache {
            Some(dir) => dir.clone(),
            None => fresh_dir(work, &format!("pass-{}", passes.len()))?,
        };
        let r = runner(workers, &dir);
        let cpu_before = cpu_seconds()?;
        passes.push(catch_unwind(AssertUnwindSafe(|| run_pass(&r, &batches))).ok());
        pass_cpu_s.push(cpu_seconds()? - cpu_before);
        if warm_cache.is_none() {
            let _ = fs::remove_dir_all(&dir);
        }
        // Resident memory creeps up with the pass count, which depends
        // on speed; read the peak after a fixed number of passes.
        if passes.len() == 1 + MIN_PASSES {
            peak_rss = peak_rss_mb()?;
        }
    }

    // The outside serial runs: the determinism reference and, traced,
    // the per-layer numbers. Cold, the untraced run doubles as the
    // reference; warm, it replays the cache, so the reference simulates.
    let mut checked: Vec<Option<Vec<String>>> = passes
        .iter()
        .map(|p| p.as_ref().map(|p| p.outcomes.clone()))
        .collect();
    let mut reference = expected;
    let mut serial = None;
    if args.trace {
        let mut u = Layers::default();
        let mut t = Layers::default();
        let (ou, ot, tu, tt) = match &warm_cache {
            None => {
                let (ou, tu) = time(|| outside::run_points(&points, false, &mut u));
                let (ot, tt) = time(|| outside::run_points(&points, true, &mut t));
                (ou, ot, tu, tt)
            }
            Some(dir) => {
                let serial_runner = runner(1, dir);
                let (ou, tu) =
                    time(|| outside::replay_points(&serial_runner, &points, false, &mut u));
                let (ot, tt) =
                    time(|| outside::replay_points(&serial_runner, &points, true, &mut t));
                (ou, ot, tu, tt)
            }
        };
        println!("# serial: untraced {tu:.4} s, traced {tt:.4} s");
        if reference.is_none() && warm_cache.is_none() {
            reference = Some(ou);
        } else {
            checked.push(Some(ou));
        }
        checked.push(Some(ot));
        serial = Some((u, t, tt / tu));
    }
    let reference =
        reference.unwrap_or_else(|| outside::run_points(&points, false, &mut Layers::default()));

    let attempted = (checked.len() * points.len()) as u64;
    let failed: u64 = checked
        .iter()
        .map(|set| match set {
            None => points.len() as u64,
            Some(outcomes) => outcomes
                .iter()
                .zip(&reference)
                .filter(|(got, want)| got != want)
                .count() as u64,
        })
        .sum();

    let ok: Vec<&Pass> = passes[1..].iter().flatten().collect();
    let walls: Vec<f64> = ok.iter().map(|p| p.wall.as_secs_f64()).collect();
    let wall_s = median(&walls);
    println!(
        "# perfbench workload={} seed={} trace={} cores={workers} workers={workers} passes={} \
         setups={} points={} revision={}",
        args.workload_name,
        args.seed,
        u8::from(args.trace),
        walls.len(),
        setup_s.len(),
        points.len(),
        revision(root),
    );
    let [q1, _, q3] = quartiles(&walls);
    println!(
        "# wall_s over {} passes: min={:.4} q1={q1:.4} median={wall_s:.4} q3={q3:.4} max={:.4}",
        walls.len(),
        percentile(&walls, 0.0),
        percentile(&walls, 1.0),
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut add = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };
    match serial {
        None => {
            add("wall_s", wall_s, "s");
            add("setup_s", median(&setup_s), "s");
            add("peak_rss_mb", peak_rss, "MB");
        }
        Some((u, t, overhead)) => {
            let first = ok.first().ok_or("every pass panicked")?;
            let secs = |ns: u64| ns as f64 / 1e9;
            add("media.encodes", encodes as f64, "count");
            add("media.encode_s", median(&encode_s), "s");
            add("scenario.spec_s", secs(t.spec_ns), "s");
            add("scenario.canonical_s", secs(t.canonical_ns), "s");
            add("scenario.compile_s", secs(t.compile_ns), "s");
            add("sim.new_s", secs(t.sim_new_ns), "s");
            for (k, kind) in EVENT_KINDS.iter().enumerate() {
                add(&format!("sim.events.{kind}"), t.events[k] as f64, "count");
            }
            for (k, kind) in EVENT_KINDS.iter().enumerate() {
                add(&format!("sim.handle_s.{kind}"), secs(t.handle_ns[k]), "s");
            }
            add("sim.queue_pop_s", secs(t.pop_ns), "s");
            let per_packet = match t.delivered_packets {
                0 => 0.0,
                n => t.dispatched as f64 / n as f64,
            };
            add("sim.events_per_packet", per_packet, "events/packet");
            add("sim.queue_high_water", t.queue_high_water as f64, "count");
            add("net.pool_high_water", t.pool_high_water as f64, "count");
            add("diffserv.policer_drops", t.policer_drops as f64, "count");
            add("vqm.sessions", t.sessions as f64, "count");
            add("vqm.score_s", secs(t.score_ns), "s");
            let profile_s =
                |f: fn(&Pass) -> u64| median(&ok.iter().map(|p| secs(f(p))).collect::<Vec<_>>());
            add("profile.encode_s", profile_s(|p| p.profile.encode_ns), "s");
            add("profile.score_s", profile_s(|p| p.profile.score_ns), "s");
            add("runner.points", first.outcomes.len() as f64, "count");
            add("runner.simulations", first.simulated as f64, "count");
            add("runner.cluster_reused", first.reused as f64, "count");
            add("runner.cache_hits", first.cached as f64, "count");
            let point_s: Vec<f64> = u.point_ns.iter().map(|&ns| secs(ns)).collect();
            add("runner.point_s.p50", percentile(&point_s, 0.5), "s");
            add("runner.point_s.p90", percentile(&point_s, 0.9), "s");
            // Busy time is the CPU time the process spent in the timed
            // passes, as the kernel accounts it.
            let busy: f64 = pass_cpu_s[1..].iter().sum();
            let timed: f64 = walls.iter().sum();
            add(
                "runner.worker_idle_frac",
                1.0 - busy / (workers as f64 * timed),
                "fraction",
            );
            add("trace.overhead", overhead, "ratio");
            add("failed_frac", failed as f64 / attempted as f64, "fraction");
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

/// An empty directory `name` under `work`.
fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` (0 for no values).
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

fn quartiles(values: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| percentile(values, q))
}

/// CPU time (user + system) this process has used so far, from `/proc`.
fn cpu_seconds() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) as f64 / CLOCK_TICKS_PER_S),
        _ => Err("unreadable /proc/self/stat".to_string()),
    }
}

/// Linux reports process CPU time in `USER_HZ` ticks, 100 per second.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident memory of this process so far, from `/proc`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The checkout's git revision when it is a git work tree, else "unknown".
fn revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
