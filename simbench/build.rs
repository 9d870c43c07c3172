//! Records the compiler version and build profile for the run record.

fn main() {
    // Without this, any file written under the package directory (the
    // run records in `out/`) would make cargo rerun the script and
    // rebuild the benchmark before the next run.
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=SIMBENCH_RUSTC={}", version.trim());
    println!(
        "cargo:rustc-env=SIMBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_default()
    );
}
