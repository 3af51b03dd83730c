//! Regenerate the paper's figures.
//!
//! ```text
//! cargo run --release -p scotch-bench --bin figures -- [all|fig3|fig4|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|ablation_migration|ablation_lb|ablation_withdrawal|ablation_dedicated_port|ablation_controller] [--smoke] [--seed N] [--out DIR]
//! ```
//!
//! Prints each experiment's table and writes `results/<id>.{csv,json}`.
//! Bad arguments exit 2 with a usage line; an artifact that cannot be
//! written exits 1.

use scotch_bench::{experiments, write_artifacts, Scale, DEFAULT_SEED};
use std::path::PathBuf;

/// What to run, and where to write it.
#[derive(Debug, PartialEq)]
struct Args {
    /// An experiment id, or `"all"`.
    filter: String,
    scale: Scale,
    seed: u64,
    out: PathBuf,
}

fn usage() -> String {
    let known: Vec<&str> = experiments::all().iter().map(|(id, _)| *id).collect();
    format!(
        "usage: figures [all|{}] [--smoke] [--seed N] [--out DIR]",
        known.join("|")
    )
}

/// Parse the arguments after the program name.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        filter: "all".to_string(),
        scale: Scale::Full,
        seed: DEFAULT_SEED,
        out: PathBuf::from("results"),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.scale = Scale::Smoke,
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a u64, not '{value}'"))?;
            }
            "--out" => {
                let value = args.next().ok_or("--out needs a directory")?;
                parsed.out = PathBuf::from(value);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            other => parsed.filter = other.to_string(),
        }
    }
    let known = experiments::all();
    if parsed.filter != "all" && !known.iter().any(|(id, _)| *id == parsed.filter) {
        return Err(format!("unknown experiment '{}'", parsed.filter));
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        filter,
        scale,
        seed,
        out,
    } = parse_args(&args).unwrap_or_else(|err| {
        eprintln!("figures: {err}\n{}", usage());
        std::process::exit(2);
    });

    eprintln!(
        "running {} at {:?} scale, seed {seed} ...",
        if filter == "all" {
            "all experiments"
        } else {
            &filter
        },
        scale
    );
    let started = std::time::Instant::now();
    let tables = experiments::run_matching(&filter, scale, seed);
    for table in &tables {
        println!("{}", table.to_text());
        if let Err(err) = write_artifacts(&out, table) {
            eprintln!("figures: cannot write {}: {err}", out.display());
            std::process::exit(1);
        }
    }
    eprintln!(
        "done: {} experiment(s) in {:.1}s; artifacts in {}",
        tables.len(),
        started.elapsed().as_secs_f64(),
        out.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_run_everything_at_full_scale() {
        let args = parse(&[]).unwrap();
        assert_eq!(
            args,
            Args {
                filter: "all".to_string(),
                scale: Scale::Full,
                seed: DEFAULT_SEED,
                out: PathBuf::from("results"),
            }
        );
    }

    #[test]
    fn flags_and_experiment_in_any_order() {
        let args = parse(&["--seed", "7", "fig16", "--out", "o", "--smoke"]).unwrap();
        assert_eq!(
            args,
            Args {
                filter: "fig16".to_string(),
                scale: Scale::Smoke,
                seed: 7,
                out: PathBuf::from("o"),
            }
        );
    }

    #[test]
    fn every_experiment_id_parses_and_appears_in_the_usage_line() {
        let usage = usage();
        for (id, _) in experiments::all() {
            assert_eq!(parse(&[id]).unwrap().filter, id);
            assert!(usage.contains(id), "usage line omits {id}");
        }
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        for bad in [
            &["fig3", "--seed", "abc"][..],
            &["fig3", "--seed", "-1"],
            &["fig3", "--seed"],
            &["fig3", "--out"],
            &["fig3", "--seeds", "2"],
            &["fig99"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
