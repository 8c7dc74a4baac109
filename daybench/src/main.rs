//! One benchmark sample per process.
//!
//! ```text
//! eprons-daybench setup --workload <name> --seed <n> --reps <r>
//! eprons-daybench day   --workload <name> --seed <n> --threads <t>
//! eprons-daybench sweep --workload <name> --seed <n> --threads <t> < epochs
//! ```
//!
//! `setup` times `r` repetitions of the workload's set-up. `day` times
//! one whole day and prints the day's epoch inputs (one `epoch …` line
//! each) followed by one JSON line of measurements.
//! `sweep` reads those epoch lines on stdin, runs the traced per-layer
//! sweep over every epoch and prints one JSON line.
//! Telemetry stays off in every mode; `run.py` aggregates the samples.

use std::io::BufRead;
use std::path::Path;
use std::process::ExitCode;

use eprons_daybench::{peak_rss_mib, run_day, setup, sweep, Calls, EpochInput, Workload};
use eprons_obs::Json;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    threads: usize,
    reps: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = argv
        .first()
        .cloned()
        .ok_or("missing mode (setup, day or sweep)")?;
    if !["setup", "day", "sweep"].contains(&mode.as_str()) {
        return Err(format!("unknown mode {mode:?}"));
    }
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
        })
    };
    let name = value("--workload").ok_or("missing --workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: number("--seed", 2018)?,
        threads: number("--threads", 1)?.max(1) as usize,
        reps: number("--reps", 1)?.max(1) as usize,
        mode,
    })
}

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn calls_json(c: &Calls) -> Json {
    Json::Arr(c.secs.iter().map(|&s| num(s)).collect())
}

fn run(a: &Args) -> Result<Json, String> {
    // Timing comes from this file alone: program telemetry stays off.
    eprons_obs::set_enabled(false);
    eprons_core::set_thread_budget(Some(a.threads));
    let data_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/bench/data");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields: Vec<(String, Json)> = vec![
        ("workload".into(), Json::Str(a.workload.name().into())),
        ("seed".into(), num(a.seed as f64)),
        ("threads".into(), num(eprons_core::thread_budget() as f64)),
        ("nproc".into(), num(nproc as f64)),
    ];
    if a.mode == "setup" {
        let mut setup_s = Vec::with_capacity(a.reps);
        for _ in 0..a.reps {
            let t0 = std::time::Instant::now();
            setup(a.workload, a.seed, &data_dir)?;
            setup_s.push(num(t0.elapsed().as_secs_f64()));
        }
        fields.push(("setup_s".into(), Json::Arr(setup_s)));
    } else if a.mode == "day" {
        let s = setup(a.workload, a.seed, &data_dir)?;
        let out = run_day(&s)?;
        let telemetry_on = eprons_obs::enabled();
        if telemetry_on {
            return Err("telemetry switched itself on during the timed day".into());
        }
        for input in EpochInput::of_day(&out.records) {
            println!("{}", input.to_line());
        }
        fields.extend([
            ("day_s".into(), num(out.day_s)),
            ("peak_rss_mb".into(), num(peak_rss_mib()?)),
            ("energy_j".into(), num(out.energy_j)),
            (
                "energy_bits".into(),
                Json::Str(format!("{:016x}", out.energy_j.to_bits())),
            ),
            ("epochs".into(), num(out.records.len() as f64)),
            ("sla_misses".into(), num(out.sla_misses as f64)),
            ("switch_toggles".into(), num(out.switch_toggles as f64)),
            ("telemetry".into(), Json::Bool(telemetry_on)),
        ]);
    } else {
        let s = setup(a.workload, a.seed, &data_dir)?;
        let inputs: Vec<EpochInput> = std::io::stdin()
            .lock()
            .lines()
            .map(|l| l.map_err(|e| e.to_string()))
            .filter(|l| l.as_ref().map_or(true, |l| l.starts_with("epoch ")))
            .map(|l| EpochInput::parse_line(&l?))
            .collect::<Result<_, _>>()?;
        if inputs.len() != a.workload.epochs() {
            return Err(format!(
                "{} epoch lines on stdin, the day has {}",
                inputs.len(),
                a.workload.epochs()
            ));
        }
        let rep = sweep(&s, &inputs)?;
        if eprons_obs::enabled() {
            return Err("telemetry switched itself on during the sweep".into());
        }
        fields.extend([
            ("load_s".into(), num(s.load_s)),
            ("fattree_s".into(), num(s.fattree_s)),
            ("epochs".into(), num(rep.epochs as f64)),
            ("servers".into(), num(rep.servers as f64)),
            ("wall_s".into(), num(rep.wall_s)),
            ("context_hits".into(), num(rep.context_hits as f64)),
            ("context".into(), calls_json(&rep.context)),
            ("bounds".into(), calls_json(&rep.bounds)),
            ("plan_ok".into(), calls_json(&rep.plan_ok)),
            ("plan_fail".into(), calls_json(&rep.plan_fail)),
            ("eval".into(), calls_json(&rep.eval)),
        ]);
    }
    Ok(Json::Obj(fields))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| run(&a));
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
