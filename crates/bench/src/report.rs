//! The one report writer behind every tracked `BENCH_<name>.json`.
//!
//! Schema, shared by all files: `"benchmark"` (the name), `"env"`
//! (`cores`, `threads`, `scale`, `cpu`, `git_sha` — a number without them
//! is not comparable, and two files cannot be told apart or matched to a
//! host), the entry's own fields and row tables in insertion order,
//! then `"gates"`: an array of `{"name", "ok", "detail"}`. A threshold
//! lives in exactly one place — the `gate` call in the entry — and CI
//! checks only the exit code.

use deep500::metrics::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// `file` at the repository root, where the tracked reports live.
pub fn repo_path(file: &str) -> PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2);
    root.expect("crates/bench sits two levels below the root")
        .join(file)
}

/// Where the reports of this run land: the repository root, where the
/// tracked `BENCH_<name>.json` live — except that a smoke run is a check,
/// not a measurement: it writes under `target/` and leaves the tracked
/// trajectory alone.
pub fn report_dir() -> PathBuf {
    match crate::scale() {
        crate::Scale::Smoke => repo_path("target"),
        _ => repo_path(""),
    }
}

/// The SIMD features the kernels dispatch on, as detected on this host:
/// `avx2+fma+avx512f`, any subset, or `baseline`.
fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    let detected = [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let detected: [(&str, bool); 0] = [];
    let names: Vec<&str> = detected
        .iter()
        .filter_map(|&(name, on)| on.then_some(name))
        .collect();
    if names.is_empty() {
        "baseline".to_string()
    } else {
        names.join("+")
    }
}

/// The commit the numbers were measured on, `-dirty` when tracked files
/// other than the reports themselves differ from it; `unknown` outside a
/// git checkout.
fn git_sha() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(repo_path(""))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(sha) = git(&["rev-parse", "--short=12", "HEAD"]) else {
        return "unknown".to_string();
    };
    let changed = git(&[
        "status",
        "--porcelain",
        "--untracked-files=no",
        "--",
        ".",
        ":!BENCH_*.json",
    ]);
    match changed.as_deref() {
        Some("") => sha,
        _ => format!("{sha}-dirty"),
    }
}

/// A benchmark report under construction.
pub struct Report {
    path: PathBuf,
    fields: Vec<(String, Json)>,
    gates: Vec<Json>,
    failed: usize,
}

impl Report {
    /// A report named `name` that [`Self::finish`] writes to `path`,
    /// stamped with the environment the numbers were taken in.
    pub fn at(path: PathBuf, name: &str) -> Report {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let env = Json::obj([
            ("cores", Json::from(cores)),
            ("threads", Json::from(rayon::current_num_threads())),
            ("scale", Json::from(crate::scale().label())),
            ("cpu", Json::from(cpu_features())),
            ("git_sha", Json::from(git_sha())),
        ]);
        Report {
            path,
            fields: vec![
                ("benchmark".to_string(), Json::from(name)),
                ("env".to_string(), env),
            ],
            gates: Vec::new(),
            failed: 0,
        }
    }

    /// Add a top-level field.
    pub fn field(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Add a table: an array rendered one row per line.
    pub fn rows(&mut self, key: &str, rows: Vec<Json>) -> &mut Self {
        self.field(key, rows)
    }

    /// Record a pass/fail criterion; `detail` states the measured value
    /// against its threshold. A failed gate fails [`Self::finish`].
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) -> &mut Self {
        let detail = detail.into();
        if !ok {
            self.failed += 1;
            eprintln!("gate {name}: FAIL — {detail}");
        }
        self.gates.push(Json::obj([
            ("name", Json::from(name)),
            ("ok", Json::from(ok)),
            ("detail", Json::from(detail)),
        ]));
        self
    }

    /// The report as JSON text: one top-level field per line, arrays one
    /// element per line, so a re-run diffs row by row.
    pub fn render(&self) -> String {
        let gates = ("gates".to_string(), Json::Arr(self.gates.clone()));
        let fields: Vec<String> = self
            .fields
            .iter()
            .chain(std::iter::once(&gates))
            .map(|(key, value)| {
                let value = match value.as_array() {
                    Some(items) if !items.is_empty() => {
                        let items: Vec<String> = items
                            .iter()
                            .map(|i| format!("    {}", i.render()))
                            .collect();
                        format!("[\n{}\n  ]", items.join(",\n"))
                    }
                    _ => value.render(),
                };
                format!("  {}: {value}", Json::from(key.as_str()).render())
            })
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Print and write the file — the report is the entry's output, no
    /// entry formats a second, human-only copy of its rows — and turn the
    /// gates into an exit code.
    pub fn finish(self) -> ExitCode {
        let text = self.render();
        print!("{text}");
        let dir = self.path.parent().expect("reports live in a directory");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&self.path, text))
            .unwrap_or_else(|e| panic!("write {}: {e}", self.path.display()));
        println!(
            "wrote {} ({} gates, {} failed)",
            self.path.display(),
            self.gates.len(),
            self.failed
        );
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("d5_report_{tag}_{}.json", std::process::id()))
    }

    #[test]
    fn rendered_report_reparses_with_env_fields_rows_and_gates() {
        let mut report = Report::at(scratch("render"), "unit");
        report
            .field("label", "a \"quoted\" name")
            .field("ratio", Json::fixed(1.23456, 2))
            .rows(
                "cases",
                vec![
                    Json::obj([("n", Json::from(1usize))]),
                    Json::obj([("n", Json::from(2usize))]),
                ],
            )
            .gate("floor", true, "1.23 >= 1.2");
        let parsed = Json::parse(&report.render()).expect("report is valid JSON");
        assert_eq!(parsed.get("benchmark").and_then(Json::as_str), Some("unit"));
        let env = parsed.get("env").expect("env stamp");
        for key in ["cores", "threads"] {
            assert!(env.get(key).and_then(Json::as_f64).unwrap() >= 1.0, "{key}");
        }
        for key in ["scale", "cpu", "git_sha"] {
            let value = env.get(key).and_then(Json::as_str).unwrap_or_default();
            assert!(!value.is_empty(), "{key}");
        }
        assert_eq!(
            parsed.get("label").and_then(Json::as_str),
            Some("a \"quoted\" name")
        );
        assert_eq!(parsed.get("ratio").and_then(Json::as_f64), Some(1.23));
        assert_eq!(
            parsed.get("cases").and_then(Json::as_array).unwrap().len(),
            2
        );
        let gates = parsed.get("gates").and_then(Json::as_array).unwrap();
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].get("ok").and_then(Json::as_bool), Some(true));
        // `gates` is the last key of every file.
        assert_eq!(parsed.as_object().unwrap().last().unwrap().0, "gates");
    }

    #[test]
    fn a_failed_gate_fails_finish_and_is_in_the_written_file() {
        let path = scratch("pass");
        let mut ok = Report::at(path.clone(), "unit");
        ok.gate("holds", true, "fine");
        assert_eq!(ok.finish(), ExitCode::SUCCESS);

        let mut bad = Report::at(path.clone(), "unit");
        bad.gate("holds", true, "fine")
            .gate("ceiling", false, "0.31 > 0.25");
        assert_eq!(bad.finish(), ExitCode::FAILURE);
        let written = std::fs::read_to_string(&path).expect("finish wrote the file");
        std::fs::remove_file(&path).ok();
        let gates = Json::parse(&written).unwrap();
        let gates = gates.get("gates").and_then(Json::as_array).unwrap();
        let oks: Vec<bool> = gates
            .iter()
            .map(|g| g.get("ok").and_then(Json::as_bool).unwrap())
            .collect();
        assert_eq!(oks, [true, false]);
        assert_eq!(
            gates[1].get("detail").and_then(Json::as_str),
            Some("0.31 > 0.25")
        );
    }
}
