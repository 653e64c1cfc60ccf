//! Command-line entry point; see the library docs for the protocol.

use locmap_perfbench::{run, trace_json, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (out, tracer) = run(&args);
    for m in out.metrics.iter().chain(&out.extra) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric failed_frac {} ratio",
        locmap_perfbench::report::ratio(out.failed as f64, out.attempted as f64)
    );
    if let Some(t) = tracer {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace_json(&args, &out, &t)));
        match written {
            Ok(()) => println!("trace {} ({} spans)", path.display(), t.spans().len()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", out.json_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} operations failed a correctness gate",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}
