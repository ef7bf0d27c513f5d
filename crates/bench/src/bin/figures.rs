//! Regenerates the paper's tables and figures, plus this reproduction's
//! summary, ablation and scaling studies, one `<name>.txt` each:
//!
//! ```sh
//! cargo run --release -p slipstream-bench --bin figures -- --out docs/results
//! cargo run --release -p slipstream-bench --bin figures -- --quick --out /tmp/figs fig1 fig9
//! ```
//!
//! Positional arguments select figures (default: all); the flags are
//! described in the `slipstream_bench` crate documentation. Every distinct
//! run the selected figures need is simulated once. Exits 1 when `--check`'s
//! protocol checker rejects a run, and 2 on a usage error or an unusable
//! `--out` directory.

use std::process::ExitCode;

use slipstream_bench::{io_or_exit, Cli, Figures};

fn main() -> ExitCode {
    let cli = Cli::parse();
    io_or_exit("create", &cli.out, std::fs::create_dir_all(&cli.out));
    let texts = match Figures::new(&cli).render(&cli.figures, cli.jobs(), cli.check) {
        Ok(texts) => texts,
        Err(rejected) => {
            eprintln!("figures: {rejected}");
            return ExitCode::from(1);
        }
    };
    for (name, text) in cli.figures.iter().zip(texts) {
        let path = cli.out.join(format!("{name}.txt"));
        io_or_exit("write", &path, std::fs::write(&path, text));
    }
    ExitCode::SUCCESS
}
