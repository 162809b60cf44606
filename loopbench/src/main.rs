//! `loopbench` — the repository's benchmark.  It times the paper's two loops
//! as their users meet them: synthesis (oracle training, Algorithm 1
//! distillation, verification inside Algorithm 2's CEGIS, then deploy) and
//! serving (Algorithm 3 decides over the HTTP/JSON wire protocol).
//!
//! One invocation runs one workload in one process:
//!
//! ```text
//! loopbench --workload <synth|verify|control|fleet> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
//! the end-to-end ones, stated at the machine's reference pace (`pace.rs`);
//! with `--trace 1` they are the per-layer ones, and a per-stage ledger is
//! printed above the JSON line.  A line above it gives the run's pace and
//! its wall-clock figures.  See `README.md`.

mod check;
mod jobs;
mod layers;
mod pace;
mod serve;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the process to one CPU, the highest it may use, before any thread
/// starts, so every thread it starts inherits the pin.
///
/// On a shared 2-vCPU virtual machine the host steals time from each vCPU
/// independently, and a request whose client and server threads sit on
/// different vCPUs waits for whichever is descheduled.  Pinned, the client
/// and the server wake each other on one CPU: fleet p90 latency went from
/// 1.3–3.4 ms to 0.98–1.05 ms over three seeds, and control p90 from
/// 53–65 µs to 49–53 µs.  A run that cannot pin is refused rather than
/// reported, since its latencies would not be comparable.
fn pin_to_one_cpu() -> Result<(), String> {
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "cannot read the CPU affinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU is allowed")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "cannot pin to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("loopbench: {e}");
        return ExitCode::from(1);
    }
    let outcome = match args.workload.as_str() {
        "synth" => workloads::synth(&args),
        "verify" => workloads::verify(&args),
        "control" => workloads::control(&args),
        "fleet" => workloads::fleet(&args),
        other => {
            eprintln!("loopbench: unknown workload {other:?} (synth, verify, control, fleet)");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(outcome) => {
            for fault in &outcome.faults {
                eprintln!("loopbench: check failed: {fault}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// What one run reports.
pub struct Outcome {
    /// Check failures on operations that did not fail; empty means correct.
    pub faults: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in the order `BENCHMARK.json` lists them.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // A non-finite figure is a harness bug; report it as a
                // failed check rather than emitting invalid JSON.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.faults.is_empty() && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "fleet");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args(&["--workload", "synth", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "synth", "--seconds", "0"]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let outcome = Outcome {
            faults: vec![],
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.5, "s"), ("decides_per_s", 1.25e4, "1/s")],
        };
        let line = outcome.to_json();
        let json = vrl_runtime::wire::Json::parse(line.as_bytes()).unwrap();
        assert_eq!(
            json.get("correct"),
            Some(&vrl_runtime::wire::Json::Bool(true))
        );
        let metrics = json.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.5)
        );
        let bad = Outcome {
            faults: vec!["planted".into()],
            ..outcome
        };
        assert!(bad.to_json().starts_with("{\"correct\": false"));
    }
}
