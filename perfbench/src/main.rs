//! The benchmark of the config-evaluation pipeline.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 [--expected FILE]
//! perfbench record [--expected FILE]
//! ```
//!
//! `run` measures one workload (`campaign`, `triage`, `store-cold`,
//! `store-warm`) and prints, as its last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`. The line
//! before it carries the run's context. A run whose outputs differ from
//! the recorded ones prints `"correct": false` and exits with status 2.
//!
//! `record` recomputes `expected.json`, the outputs every run is checked
//! against.

mod expected;
mod layers;
mod measure;
mod pipeline;
mod store_io;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use holes_core::json::Json;

use expected::{Entry, Expected};
use workloads::{Outcome, Run, Workload};

/// The recorded outputs, relative to the checkout root.
const EXPECTED: &str = "perfbench/expected.json";

const USAGE: &str = "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 \
                     [--expected FILE]\n       perfbench record [--expected FILE]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Command-line options as `--name value` pairs.
struct Options(Vec<(String, String)>);

impl Options {
    fn parse(argv: &[String], allowed: &[&str]) -> Result<Options, String> {
        let mut pairs = Vec::new();
        let mut rest = argv.iter();
        while let Some(flag) = rest.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|name| allowed.contains(name))
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = rest
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Options(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing `--{name}`"))
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.required(name)?;
        raw.parse()
            .map_err(|_| format!("invalid value `{raw}` for `--{name}`"))
    }

    fn path(&self, name: &str, default: &str) -> PathBuf {
        PathBuf::from(self.get(name).unwrap_or(default))
    }
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let Some((command, rest)) = argv.split_first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "run" => {
            let options =
                Options::parse(rest, &["workload", "seed", "seconds", "trace", "expected"])?;
            let name = options.required("workload")?;
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            let seed: u64 = options.number("seed")?;
            let context = Context::new(&options)?;
            let index = seed % pipeline::TABLE_LEN;
            let run = context.run(workload, index)?;
            let outcome = workloads::run(&run);
            print_info(&run, seed, &outcome);
            Ok(print_result(&outcome, run.trace))
        }
        "record" => {
            let options = Options::parse(rest, &["expected"])?;
            let path = options.path("expected", EXPECTED);
            record()?.save(&path)?;
            eprintln!("perfbench: recorded {}", path.display());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The options of `run`.
struct Context {
    expected: Expected,
    seconds: f64,
    trace: bool,
}

impl Context {
    fn new(options: &Options) -> Result<Context, String> {
        let expected_path = options.path("expected", EXPECTED);
        let expected = Expected::load(&expected_path)?;
        if expected.entries.len() as u64 != pipeline::TABLE_LEN {
            return Err(format!(
                "`{}` records {} entries, the seed table has {}",
                expected_path.display(),
                expected.entries.len(),
                pipeline::TABLE_LEN
            ));
        }
        let seconds: f64 = options.number("seconds")?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err("`--seconds` must lie in (0, 60]".into());
        }
        let trace = match options.required("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("`--trace` must be 0 or 1, not `{other}`")),
        };
        Ok(Context {
            expected,
            seconds,
            trace,
        })
    }

    fn run(&self, workload: Workload, index: u64) -> Result<Run<'_>, String> {
        let entry: &Entry = self
            .expected
            .entries
            .get(index as usize)
            .ok_or_else(|| format!("no recorded entry {index}"))?;
        Ok(Run {
            workload,
            index,
            entry,
            expected: &self.expected,
            seconds: self.seconds,
            trace: self.trace,
        })
    }
}

/// The context line printed before the result.
fn print_info(run: &Run<'_>, seed: u64, outcome: &Outcome) {
    let range = pipeline::table_range(run.index, run.workload.seeds());
    let mut info = vec![
        ("workload_seed".to_owned(), Json::from_u64(seed)),
        ("table_index".to_owned(), Json::from_u64(run.index)),
        (
            "programs".to_owned(),
            Json::str(format!("{}..{}", range.start, range.end)),
        ),
        (
            "nproc".to_owned(),
            Json::from_usize(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        (
            "workers".to_owned(),
            Json::from_usize(holes_pipeline::par::max_workers()),
        ),
        ("seconds".to_owned(), Json::str(run.seconds.to_string())),
        ("trace".to_owned(), Json::Bool(run.trace)),
    ];
    info.extend(outcome.info.iter().cloned());
    let mut mismatches: Vec<&String> = outcome.mismatches.iter().collect();
    mismatches.sort();
    mismatches.dedup();
    for mismatch in mismatches {
        eprintln!("perfbench: MISMATCH {mismatch}");
    }
    println!(
        "{}",
        Json::Obj(vec![("perfbench".to_owned(), Json::Obj(info))]).to_compact()
    );
}

/// Print the result line; a failed check makes the run incorrect.
fn print_result(outcome: &Outcome, trace: bool) -> ExitCode {
    let declared: Vec<(&str, &str)> = if trace {
        workloads::PER_LAYER.to_vec()
    } else {
        workloads::END_TO_END.to_vec()
    };
    let mut correct = outcome.mismatches.is_empty();
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let found = outcome
            .metrics
            .iter()
            .find(|(metric, _)| metric == name)
            .map(|(_, value)| *value);
        let value = match found {
            Some(value) if value.is_finite() && (trace || value > 0.0) => value,
            None if trace => 0.0,
            _ => {
                eprintln!("perfbench: metric `{name}` is missing or not positive");
                correct = false;
                0.0
            }
        };
        metrics.push((
            name.to_owned(),
            Json::Obj(vec![
                ("value".to_owned(), Json::Num(value.to_string())),
                ("unit".to_owned(), Json::str(unit)),
            ]),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        (
            "attempted".to_owned(),
            Json::from_u64(outcome.attempted.max(1)),
        ),
        ("failed".to_owned(), Json::from_u64(outcome.failed)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    println!("{}", result.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Recompute every recorded output.
fn record() -> Result<Expected, String> {
    let golden = pipeline::golden_digest()?;
    let mut entries = Vec::new();
    for index in 0..pipeline::TABLE_LEN {
        let campaign = pipeline::campaign(pipeline::table_range(index, pipeline::CAMPAIGN_SEEDS));
        let files = store_io::MemIo::default();
        let store = pipeline::install_store(Box::new(files.clone()));
        let store_campaign =
            pipeline::campaign(pipeline::table_range(index, pipeline::STORE_SEEDS));
        holes_pipeline::install_process_store(None);
        if store.stats().writes == 0 {
            return Err(format!("entry {index}: the store stayed empty"));
        }
        let setup = pipeline::triage_setup(pipeline::table_range(index, pipeline::TRIAGE_SEEDS));
        let triage = pipeline::triage(&setup);
        let faults = campaign.faults() + store_campaign.faults() + triage.faults;
        if faults > 0 {
            return Err(format!("entry {index}: {faults} subjects faulted"));
        }
        entries.push(Entry {
            campaign: campaign.digest(),
            store_campaign: store_campaign.digest(),
            store_verdicts: pipeline::scan(&files).verdict_digest,
            triage_campaign: setup.campaign_digest(),
            triage: triage.digest(),
        });
        eprintln!("perfbench: recorded entry {index}");
    }
    Ok(Expected { golden, entries })
}
