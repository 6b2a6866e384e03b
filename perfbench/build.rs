//! Records the Cargo profile and optimisation level the benchmark was
//! built with, for the provenance stamp on every result.

fn main() {
    for key in ["PROFILE", "OPT_LEVEL"] {
        let value = std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        println!("cargo:rustc-env=PERFBENCH_{key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
