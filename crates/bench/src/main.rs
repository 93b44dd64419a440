//! `deep500-bench <name>… | all` — the bench front door (see the library).

fn main() -> std::process::ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    deep500_bench::run(deep500_bench::BENCHES, &names, &deep500_bench::report_dir())
}
