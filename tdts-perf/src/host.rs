//! The host descriptor stamped on every result.

use std::path::{Path, PathBuf};
use std::process::Command;

use tdts_bench::Json;

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().map(Path::to_path_buf).unwrap_or_default()
}

/// `nproc`, CPU model, rustc version, git commit (when the tree is a git
/// checkout) and a digest of the program's sources (always, so results
/// from a tree without git history still name what they measured).
pub fn descriptor() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj()
        .field("nproc", nproc)
        .field("cpu_model", cpu)
        .field("rustc", command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()))
        .field("git_commit", git_commit().unwrap_or_else(|| "unknown".into()))
        .field("source_digest", format!("{:016x}", source_digest(&repo_root())))
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(repo_root()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the repository root, only if the root is itself the top
/// of a git work tree (not merely nested inside some other repository).
fn git_commit() -> Option<String> {
    let top = command_output("git", &["rev-parse", "--show-toplevel"])?;
    let root = repo_root().canonicalize().ok()?;
    if Path::new(&top).canonicalize().ok()? != root {
        return None;
    }
    command_output("git", &["rev-parse", "HEAD"])
}

/// FNV-1a over the relative path and bytes of every file under `crates/`
/// and `shims/` plus the root manifests, visited in sorted order.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "shims"] {
        collect(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            feed(file.strip_prefix(root).unwrap_or(&file).to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    hash
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() && path.file_name().is_some_and(|n| n != "target") => {
                collect(&path, out)
            }
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}
