//! The `ledger` command line. See `README.md`.

use std::io::Write;
use std::process::ExitCode;

use ledger::compare::{self, Run, Verdict};
use ledger::inputs::{Plan, Prepared, WorkDir};
use ledger::meter::Phase;
use ledger::metrics::{Fingerprint, Outcome};
use ledger::{replay, run_workload, WORKLOADS};

/// Seconds of identical load before a workload's timing starts.
const WARMUP_S: f64 = 2.0;

const USAGE: &str = "usage:
  ledger [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
         [--trace-out FILE] [--out FILE]
  ledger --smoke [--seed N] [--trace-out FILE]
  ledger compare [--benchmark BENCHMARK.json] PARENT_RUNS... -- CHANGE_RUNS...

workloads: tcp_mixed engine_light engine_heavy train_step (default: all)";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("ledger: {msg}\n{USAGE}");
    ExitCode::from(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    trace_out: Option<String>,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        smoke: false,
        trace_out: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => a.trace_out = Some(value.clone()),
            "--out" => a.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    Ok(a)
}

/// Print one outcome (table, then the result line) and append its run
/// record to `--out`.
fn report(o: &Outcome, fp: &Fingerprint, out: Option<&str>) -> std::io::Result<()> {
    print!("{}", o.table());
    if let Some(e) = &o.checks.first_error {
        println!("  first failure: {e}");
    }
    println!("{}", o.result_line());
    if let Some(path) = out {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?
            .write_all(o.record(fp).as_bytes())?;
    }
    Ok(())
}

fn run(a: &Args) -> std::io::Result<bool> {
    ledger::limit_forward_threads();
    let dir = WorkDir::create()?;
    let plan = Plan::new(a.seed);
    let digest = plan.digest();
    let p = Prepared::new(plan, dir.path())?;
    let fp = |workload: &str, seconds: f64| Fingerprint {
        workload: workload.to_string(),
        seed: a.seed,
        seconds,
        input_digest: digest,
    };
    let mut correct = true;
    let (seconds, phase) = if a.smoke {
        (
            1.6,
            Phase {
                warmup: 0.1,
                seconds: 0.4,
            },
        )
    } else {
        (
            a.seconds,
            Phase {
                warmup: WARMUP_S.min(a.seconds),
                seconds: a.seconds,
            },
        )
    };
    if !a.trace || a.smoke {
        let names: Vec<&str> = match a.workload.as_str() {
            "all" => WORKLOADS.to_vec(),
            one => vec![one],
        };
        for name in names {
            let f = fp(name, phase.seconds);
            println!("# {name}: {}", f.json());
            let o = run_workload(name, &p, phase)?;
            correct &= o.correct();
            report(&o, &f, a.out.as_deref())?;
        }
    }
    if a.trace || a.smoke {
        let f = fp("trace", seconds);
        println!("# trace: {}", f.json());
        let (o, chrome) = replay::traced(&p, seconds)?;
        correct &= o.correct();
        if let Some(path) = &a.trace_out {
            std::fs::write(path, chrome)?;
        }
        report(&o, &f, a.out.as_deref())?;
    }
    Ok(correct)
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let (mut benchmark, mut rest) = ("BENCHMARK.json".to_string(), args);
    if rest.first().map(String::as_str) == Some("--benchmark") {
        let Some(path) = rest.get(1) else {
            return usage_error("--benchmark needs a value");
        };
        benchmark = path.clone();
        rest = &rest[2..];
    }
    let Some(split) = rest.iter().position(|s| s == "--") else {
        return usage_error("compare needs PARENT_RUNS... -- CHANGE_RUNS...");
    };
    let read = |files: &[String]| -> Result<Vec<Run>, String> {
        let mut runs = Vec::new();
        for f in files {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                runs.push(Run::parse(line).map_err(|e| format!("{f}: {e}"))?);
            }
        }
        Ok(runs)
    };
    let result = (|| -> Result<Vec<compare::Row>, String> {
        let text = std::fs::read_to_string(&benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
        let bounds = compare::bounds(&text)?;
        compare::compare(&read(&rest[..split])?, &read(&rest[split + 1..])?, &bounds)
    })();
    match result {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            if rows
                .iter()
                .any(|r| matches!(r.verdict, Verdict::Regression | Verdict::Failed))
            {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("ledger compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return cmd_compare(&args[1..]);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    match run(&a) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
