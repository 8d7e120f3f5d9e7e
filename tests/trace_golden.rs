//! Byte-identity of the emitted traces: `smc check --trace` (and the
//! same with `--coi`, which a traced job never applies) must print
//! exactly the recorded stdout and exit with the recorded code on every
//! bundled model and on the Seitz arbiter export.
//!
//! The witness generator stops ring fixpoints early, confines its
//! single-state fixpoints to the reachable states and reuses the rings
//! the check saved; all of that is meant to change the BDD work only,
//! never a picked state. Each golden file in `tests/golden/trace/` is
//! `exit N` on its first line followed by the exact stdout. To re-record
//! one after a deliberate output change, run the command above and write
//! that shape.

use std::path::{Path, PathBuf};
use std::process::Command;

use smc::circuits::arbiter::arbiter;

/// The Seitz arbiter as `examples/export_smv` prints it.
fn seitz_source() -> String {
    let mut source = arbiter(2).netlist.to_smv();
    source.push_str("SPEC AG !(meo1 & meo2)\n");
    source.push_str("SPEC AG (tr1 -> AF ta1)\n");
    source.push_str("SPEC AG (ur2 -> AF ua2)\n");
    source
}

/// Every model the goldens cover, with the golden's name.
fn cases() -> Vec<(String, PathBuf)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut cases: Vec<(String, PathBuf)> = std::fs::read_dir(root.join("models"))
        .expect("models directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "smv"))
        .map(|p| (p.file_stem().expect("file name").to_string_lossy().into_owned(), p))
        .collect();
    cases.sort();
    let seitz =
        std::env::temp_dir().join(format!("smc_trace_golden_seitz_{}.smv", std::process::id()));
    std::fs::write(&seitz, seitz_source()).expect("write the Seitz export");
    cases.push(("seitz".to_string(), seitz));
    cases
}

#[test]
fn traces_are_byte_identical_to_the_goldens() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace");
    let cases = cases();
    for (name, model) in &cases {
        let want = std::fs::read(golden_dir.join(format!("{name}.out")))
            .unwrap_or_else(|e| panic!("{name}: golden missing: {e}"));
        for flags in [&["--trace"][..], &["--trace", "--coi"][..]] {
            let out = Command::new(env!("CARGO_BIN_EXE_smc"))
                .arg("check")
                .args(flags)
                .arg(model)
                .output()
                .expect("smc runs");
            let code = out.status.code().expect("smc exits normally");
            let mut got = format!("exit {code}\n").into_bytes();
            got.extend_from_slice(&out.stdout);
            assert!(
                got == want,
                "{name} {flags:?}: output differs from the golden\n--- got ---\n{}\n--- want ---\n{}",
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&want),
            );
        }
    }
    std::fs::remove_file(&cases[cases.len() - 1].1).ok();
}
