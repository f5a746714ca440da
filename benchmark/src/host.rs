//! The host descriptor every results file carries: numbers that depend on
//! threads mean nothing without the machine they ran on.

use std::process::Command;

use crate::json::Json;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn describe(seed: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "git_rev",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}
