//! The `ispn-lint` command-line driver.
//!
//! See the crate docs ([`ispn_lint`]) for what the tool enforces.  CI runs
//! `cargo run -p ispn-lint -- --deny` from the workspace root; the exit
//! code is the gate (`-D warnings` semantics: any unwaived finding, stale
//! waiver or stale baseline entry fails the run).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ispn-lint [--deny] [--rules] [ROOT]

  --deny   exit non-zero on any finding (CI gate)
  --rules  print the rule catalog and exit
  ROOT     workspace root (default: nearest ancestor with a
           [workspace] Cargo.toml)";

fn main() -> ExitCode {
    let mut deny = false;
    let mut rules = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny" => deny = true,
            "--rules" => rules = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("ispn-lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if rules {
        print!("{}", ispn_lint::render_rules());
        return ExitCode::SUCCESS;
    }
    let root = match root.map_or_else(find_workspace_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ispn-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match ispn_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ispn-lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", ispn_lint::render_text(&report));
    if deny && !report.is_clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Walk up from the current directory to the first `Cargo.toml` declaring a
/// `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("reading {manifest:?}: {e}"))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(
                "no [workspace] Cargo.toml found above the current directory; \
                        pass the workspace root explicitly"
                    .to_string(),
            );
        }
    }
}
