//! Generate a clean CSV trace directory and/or damage one of its files
//! with a seed-deterministic mutation, to hand `repro --trace` a
//! corrupted input with known damage. `--scale`/`--seed` are parsed by
//! [`hpcfail_synth::source`]; `--generate` writes that LANL-shaped fleet.

use hpcfail_store::csv::save_trace;
use hpcfail_synth::corrupt::{corrupt_file, MutationKind};
use hpcfail_synth::source::{SourceFlags, TraceInput};
use hpcfail_synth::FleetSpec;
use std::process::ExitCode;

fn usage() -> String {
    "Usage: corrupt --out DIR [OPTIONS]\n\
     \n\
     Options:\n\
       --out DIR            trace directory to write or mutate (required)\n\
       --generate           generate a clean fleet trace into DIR first\n\
       --scale F            fleet scale in (0, 1] for --generate (default 1.0)\n\
       --seed N             fleet seed for --generate (default 42)\n\
       --target FILE        trace file in DIR to corrupt (e.g. failures.csv)\n\
       --kind KIND          mutation: torn-final-line, swap-fields, garbage-utf8,\n\
                            duplicate-record, shuffle-timestamps, foreign-header\n\
       --mutation-seed N    seed for the mutation (default 7)\n\
       -h, --help           show this help\n\
     \n\
     With --target, prints one line per mutation:\n\
       corrupted FILE kind=KIND seed=N damaged_lines=[..] duplicates=BOOL out_of_order=BOOL\n"
        .to_owned()
}

struct Args {
    out: String,
    generate: bool,
    source: SourceFlags,
    target: Option<String>,
    kind: Option<MutationKind>,
    mutation_seed: u64,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        out: String::new(),
        generate: false,
        source: SourceFlags::default(),
        target: None,
        kind: None,
        mutation_seed: 7,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if args.source.take(arg, &mut it).map_err(|e| e.to_string())? {
            continue;
        }
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} requires a value\n\n{}", usage()))
        };
        match arg.as_str() {
            "--out" => args.out = value("--out")?,
            "--generate" => args.generate = true,
            "--target" => args.target = Some(value("--target")?),
            "--kind" => args.kind = Some(value("--kind")?.parse()?),
            "--mutation-seed" => {
                args.mutation_seed = value("--mutation-seed")?
                    .parse()
                    .map_err(|e| format!("bad --mutation-seed: {e}"))?;
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
    }
    if args.out.is_empty() {
        return Err(format!("--out is required\n\n{}", usage()));
    }
    if args.target.is_some() != args.kind.is_some() {
        return Err("--target and --kind must be given together".to_owned());
    }
    if !args.generate && args.target.is_none() {
        return Err(format!(
            "nothing to do: pass --generate and/or --target\n\n{}",
            usage()
        ));
    }
    Ok(Some(args))
}

fn run(args: Args) -> Result<(), String> {
    let source = args.source.finish().map_err(|e| e.to_string())?;
    let TraceInput::Fleet { scale, seed } = source.input else {
        return Err(
            "--generate writes the LANL-shaped fleet: use --scale/--seed, \
                    not --scenario, --trace or --snapshot"
                .to_owned(),
        );
    };
    if args.generate {
        let trace = FleetSpec::lanl_scaled(scale).generate(seed).into_store();
        std::fs::create_dir_all(&args.out).map_err(|e| format!("creating {}: {e}", args.out))?;
        save_trace(&args.out, &trace).map_err(|e| format!("saving trace: {e}"))?;
        println!("generated {} (scale {scale}, seed {seed})", args.out);
    }
    if let (Some(target), Some(kind)) = (args.target, args.kind) {
        let path = std::path::Path::new(&args.out).join(&target);
        let report = corrupt_file(&path, kind, args.mutation_seed)
            .map_err(|e| format!("corrupting {}: {e}", path.display()))?;
        if !report.changed {
            return Err(format!(
                "{target}: no opportunity for {kind} (file too small?)"
            ));
        }
        println!(
            "corrupted {target} kind={kind} seed={} damaged_lines={:?} duplicates={} out_of_order={}",
            report.seed, report.damaged_lines, report.expect_duplicates, report.expect_out_of_order
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Some(args)) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("corrupt: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("corrupt: {e}");
            ExitCode::FAILURE
        }
    }
}
