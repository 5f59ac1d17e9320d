//! `lacnet-gen` — generate a world and export every dataset to disk in
//! its native archive format.
//!
//! ```text
//! lacnet-gen --out DIR [--seed N] [--test-world] [--scenario NAME|FILE]
//!            [--shard-format text|columnar] [--force] [--verify]
//! lacnet-gen --list-scenarios
//! ```
//!
//! `--scenario` selects a built-in scenario by name (`--list-scenarios`
//! prints the inventory) or loads a `.toml` sidecar from a path. The
//! default is the paper's Venezuela storyline, whose tree is
//! byte-identical to a no-flag dump; non-default scenarios stamp their
//! fingerprint into every `mlab/manifest.tsv` shard record and write a
//! `world/scenario.toml` sidecar the loader reapplies.
//!
//! `--test-world` dumps the reduced fixed-seed world the test suites
//! run on — a mini archive that generates and parses in seconds (the CI
//! serve job's fixture). Flags compose left to right, so a `--seed`
//! after `--test-world` overrides the test seed.
//!
//! Re-running over an existing tree refreshes incrementally: NDT shards
//! whose inputs (seed, per-country volume scale, scenario, format) are
//! unchanged per `mlab/manifest.tsv` are left untouched unless `--force`
//! is given. `mlab/index.tsv` records each shard's path, row/block census
//! and min/max day span; the loader requires it, and the serve layer's
//! NDT queries use it to find shards and prune them without opening
//! them. Re-running over a tree whose index is missing or unreadable
//! rebuilds it from the shard files.

use lacnet_core::datasets::{self, DumpOptions};
use lacnet_crisis::{Scenario, World, WorldConfig};
use lacnet_mlab::ShardFormat;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = WorldConfig::default();
    let mut scenario = Scenario::venezuela();
    let mut out: Option<PathBuf> = None;
    let mut verify = false;
    let mut options = DumpOptions::default();

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = Some(PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--out needs a directory")),
                ));
            }
            "--seed" => {
                i += 1;
                config.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--scenario" => {
                i += 1;
                let spec = args
                    .get(i)
                    .unwrap_or_else(|| die("--scenario needs a built-in name or a .toml path"));
                scenario =
                    Scenario::load(spec).unwrap_or_else(|e| die(&format!("--scenario: {e}")));
            }
            "--list-scenarios" => {
                for name in Scenario::builtin_names() {
                    let s = Scenario::builtin(name).expect("builtin scenario parses");
                    println!("{name}\t{}", s.description);
                }
                return;
            }
            "--shard-format" => {
                i += 1;
                options.shard_format = args
                    .get(i)
                    .and_then(|s| ShardFormat::parse_flag(s))
                    .unwrap_or_else(|| die("--shard-format needs `text` or `columnar`"));
            }
            "--test-world" => config = WorldConfig::test(),
            "--force" => options.force = true,
            "--verify" => verify = true,
            "--help" | "-h" => {
                println!(
                    "usage: lacnet-gen --out DIR [--seed N] [--test-world] [--scenario NAME|FILE] [--shard-format text|columnar] [--force] [--verify]\n       lacnet-gen --list-scenarios"
                );
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    let out = out.unwrap_or_else(|| die("--out is required"));

    eprintln!(
        "generating world (seed {:#x}, scenario {}) …",
        config.seed, scenario.name
    );
    let world = World::generate_with(config, scenario);
    let summary = datasets::dump_with(&world, &out, options)
        .unwrap_or_else(|e| die(&format!("dump failed: {e}")));
    println!(
        "wrote {} files, {:.1} MiB, under {} ({} NDT shards written, {} up to date)",
        summary.files.len(),
        summary.bytes as f64 / (1024.0 * 1024.0),
        out.display(),
        summary.shards_written,
        summary.shards_skipped,
    );
    if verify {
        let checked =
            datasets::verify(&out).unwrap_or_else(|e| die(&format!("verify failed: {e}")));
        println!("re-parsed {checked} files successfully.");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
