//! What every result is stamped with: the code measured, the host and the build.

use std::path::Path;
use std::process::Command;

/// Source trees whose bytes define the program under measurement.
const SOURCE_ROOTS: [&str; 5] = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"];

/// The stamp as one JSON object: the git commit when the working directory is a
/// git checkout (`"none"` otherwise), an FNV-1a fingerprint of the repository's
/// sources (which names the code even in an export without `.git`), the number
/// of CPUs, the build profile and the compiler version.
pub fn stamp_json() -> String {
    format!(
        "{{\"commit\": \"{}\", \"source_fnv64\": \"{:016x}\", \"nproc\": {}, \"profile\": \"{}\", \"rustc\": \"{}\"}}",
        commit(),
        source_fingerprint(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
    )
}

fn commit() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "none".to_string(), |c| c.trim().to_string())
}

fn source_fingerprint() -> u64 {
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        feed(file.to_string_lossy().as_bytes());
        feed(&std::fs::read(&file).unwrap_or_default());
    }
    hash
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
