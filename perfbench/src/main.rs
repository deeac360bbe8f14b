//! `bcc-perfbench`: one steady benchmark of the BCC TCP service.
//!
//! ```text
//! bcc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!     --bcc <path to a release `bcc` binary> --out <output dir>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of one workload; with
//! `--trace 1` the per-layer metrics of the traced run. The last stdout
//! line is always one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. A wrong answer makes `correct` false and the exit code 1.

mod check;
mod client;
mod e2e;
mod load;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use e2e::{Metric, Tally};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bcc: PathBuf,
    out: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |name: &str| -> Result<&str, String> {
            argv.windows(2)
                .find(|w| w[0] == name)
                .map(|w| w[1].as_str())
                .ok_or(format!("missing {name}"))
        };
        let workload = get("--workload")?.to_string();
        if workload::spec(&workload).is_none() {
            let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload `{workload}` (one of {})",
                names.join(", ")
            ));
        }
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number")?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(Args {
            workload,
            seed: get("--seed")?
                .parse()
                .map_err(|_| "--seed takes an integer")?,
            seconds,
            trace: match get("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            },
            bcc: PathBuf::from(get("--bcc")?),
            out: PathBuf::from(get("--out")?),
        })
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            for m in &metrics {
                println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
            }
            for example in &tally.examples {
                println!("FAILED {example}");
            }
            let correct = tally.failed() == 0;
            println!("{}", result_json(correct, &tally, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let spec = workload::spec(&args.workload).expect("checked in Args::parse");
    let inputs = args.out.join("inputs");
    std::fs::create_dir_all(&inputs).map_err(|e| format!("create {}: {e}", inputs.display()))?;
    let w = workload::generate(spec, args.seed, args.seconds, &inputs)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if spec.readers > cores {
        return Err(format!(
            "{} connections exceed the {cores} available cores",
            spec.readers
        ));
    }
    println!(
        "workload {} seed {}: {} vertices, {} edges, {} labels; inputs digest {:016x}; {cores} cores",
        spec.name,
        args.seed,
        w.graph.vertex_count(),
        w.graph.edge_count(),
        w.graph.label_count(),
        w.digest,
    );
    let e2e = e2e::run(&w, &args.bcc, args.seconds)?;
    if !args.trace {
        return Ok((e2e.tally, e2e.metrics));
    }
    let (tally, metrics) = trace::run(&w, &e2e, &args.bcc, args.seconds, &args.out, args.seed)?;
    let mut all = e2e.tally;
    all.attempted += tally.attempted;
    for (verdict, n) in tally.failures {
        *all.failures.entry(verdict).or_default() += n;
    }
    all.examples.extend(tally.examples);
    Ok((all, metrics))
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        body.join(", ")
    )
}
