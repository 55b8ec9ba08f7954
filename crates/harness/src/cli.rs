//! The one command-line parser behind `suite`, its verbs and `probe`.
//!
//! The verbs share four flags — `--scale`, `--jobs`, `--out` and
//! `--traces`/`--no-cache` — and [`parse`] owns their spelling, defaults
//! and error texts. Each verb names the shared flags it takes and hands
//! every other argument to its own closure; anything neither accepts is
//! an `unknown argument`. A malformed command line is a typed
//! [`CliError`] (exit 2), never a panic.

use crate::eval::Scale;
use crate::runner::JobPool;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use tls_minidb::Transaction;

/// A flag several verbs share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shared {
    /// `--scale paper|test`.
    Scale,
    /// `--jobs N`.
    Jobs,
    /// `--out DIR`.
    Out,
    /// `--traces DIR` and `--no-cache`.
    Traces,
}

/// Every shared flag.
pub(crate) const ALL: &[Shared] = &[Shared::Scale, Shared::Jobs, Shared::Out, Shared::Traces];

/// The shared flags' values; a flag left off keeps its default.
#[derive(Debug)]
pub struct SharedArgs {
    /// Workload scale (default: paper).
    pub scale: Scale,
    /// Worker threads (default: available parallelism).
    pub jobs: usize,
    /// Artifact directory (default: `results`).
    pub out_dir: PathBuf,
    /// Snapshot cache directory (default: `traces`); `None` after
    /// `--no-cache`.
    pub trace_dir: Option<PathBuf>,
}

impl Default for SharedArgs {
    fn default() -> Self {
        SharedArgs {
            scale: Scale::Paper,
            jobs: JobPool::available(),
            out_dir: PathBuf::from("results"),
            trace_dir: Some(PathBuf::from("traces")),
        }
    }
}

/// Why a command line was not run.
#[derive(Debug)]
pub enum CliError {
    /// `--help` or `-h`: the usage text, for stdout and exit 0.
    Help(&'static str),
    /// A malformed command line: the message, for stderr and exit 2.
    Usage(String),
}

impl CliError {
    /// Prints the error where it belongs and returns the exit code.
    pub fn report(&self) -> i32 {
        match self {
            CliError::Help(usage) => {
                print!("{usage}");
                0
            }
            CliError::Usage(msg) => {
                eprintln!("{msg}");
                2
            }
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help(usage) => f.write_str(usage),
            CliError::Usage(msg) => f.write_str(msg),
        }
    }
}

/// A usage error with `msg`.
pub(crate) fn bad(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// The arguments not yet consumed; a flag's closure takes its value
/// from here.
pub struct Args<'a> {
    it: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    /// The value after `flag`.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.it.next().map(String::as_str).ok_or_else(|| bad(format!("{flag} needs a value")))
    }

    /// The value after `flag`, parsed as `what` ("a number", ...).
    pub fn parsed<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, CliError> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| bad(format!("{flag} needs {what}, got '{v}'")))
    }
}

/// Parses a verb's command line. The shared flags listed in `takes` fill
/// the returned [`SharedArgs`]; every other argument goes to `own`, which
/// consumes it (and any value) and returns `Ok(true)`, or returns
/// `Ok(false)` for an argument the verb does not take.
pub fn parse<'a>(
    args: &'a [String],
    usage: &'static str,
    takes: &[Shared],
    mut own: impl FnMut(&'a str, &mut Args<'a>) -> Result<bool, CliError>,
) -> Result<SharedArgs, CliError> {
    let mut shared = SharedArgs::default();
    let mut rest = Args { it: args.iter() };
    while let Some(arg) = rest.it.next() {
        let arg = arg.as_str();
        match arg {
            "--help" | "-h" => return Err(CliError::Help(usage)),
            "--scale" if takes.contains(&Shared::Scale) => {
                let v = rest.value(arg)?;
                shared.scale = [Scale::Paper, Scale::Test]
                    .into_iter()
                    .find(|s| s.name() == v)
                    .ok_or_else(|| bad(format!("unknown scale '{v}' (use: paper, test)")))?;
            }
            "--jobs" if takes.contains(&Shared::Jobs) => {
                shared.jobs = rest.parsed(arg, "a number")?
            }
            "--out" if takes.contains(&Shared::Out) => shared.out_dir = rest.value(arg)?.into(),
            "--traces" if takes.contains(&Shared::Traces) => {
                shared.trace_dir = Some(rest.value(arg)?.into())
            }
            "--no-cache" if takes.contains(&Shared::Traces) => shared.trace_dir = None,
            _ if own(arg, &mut rest)? => {}
            _ => return Err(bad(format!("unknown argument '{arg}'\n{usage}"))),
        }
    }
    Ok(shared)
}

/// The benchmark named `name` on the command line.
pub fn benchmark(name: &str) -> Result<Transaction, CliError> {
    Transaction::from_cli_name(name)
        .ok_or_else(|| bad(format!("unknown benchmark '{name}'; {}", valid_benchmarks())))
}

/// `valid benchmarks:` and one indented line per benchmark name.
pub(crate) fn valid_benchmarks() -> String {
    let mut out = String::from("valid benchmarks:");
    for t in Transaction::ALL {
        out.push_str("\n  ");
        out.push_str(t.trace_name());
    }
    out
}
