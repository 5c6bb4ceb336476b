//! The paper's two headline numbers, stated as bands over the committed
//! smoke reports at the repository root.
//!
//! CI regenerates both reports with `repro -- all --smoke` and `cmp`s them
//! against the committed files, so together with that check these bands
//! gate the claims without running the experiments here.
//!
//! * GenPack saves up to 23 % of the energy of a non-generational
//!   scheduler (§VI); `BENCH_genpack.json` is E3 at smoke scale.
//! * Matching inside an enclave runs at native speed while the
//!   subscription database fits the EPC and an order of magnitude slower
//!   beyond it (Figure 3); `BENCH_fig3.json` is E2 at smoke scale.

const GENPACK: &str = include_str!("../BENCH_genpack.json");
const FIG3: &str = include_str!("../BENCH_fig3.json");

/// The EPC of SGX v1, MiB.
const EPC_MIB: f64 = 128.0;

/// The number that follows `"name": ` in `text` (one report row or the
/// whole report), if there is one.
fn field(text: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": ");
    let rest = &text[text.find(&key)? + key.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// `(db_mib, ratio)` of every Figure 3 row.
fn fig3_rows() -> Vec<(f64, f64)> {
    let rows: Vec<(f64, f64)> = FIG3
        .lines()
        .filter_map(|row| Some((field(row, "db_mib")?, field(row, "ratio")?)))
        .collect();
    assert!(!rows.is_empty(), "BENCH_fig3.json has no rows");
    rows
}

#[test]
fn genpack_saves_23_to_25_percent_against_first_fit() {
    let saving = field(GENPACK, "savings_vs_first_fit_percent")
        .expect("BENCH_genpack.json states the saving against first-fit");
    assert!(
        (23.0..=25.0).contains(&saving),
        "GenPack saves {saving} % against first-fit"
    );
}

#[test]
fn matching_beyond_the_epc_is_at_least_ten_times_slower() {
    let beyond: Vec<_> = fig3_rows()
        .into_iter()
        .filter(|&(db_mib, _)| db_mib > EPC_MIB)
        .collect();
    assert!(!beyond.is_empty(), "no Figure 3 point beyond the EPC");
    for (db_mib, ratio) in beyond {
        assert!(ratio >= 10.0, "{db_mib} MiB: enclave/native {ratio}");
    }
}

#[test]
fn matching_well_inside_the_epc_runs_at_native_speed() {
    let inside: Vec<_> = fig3_rows()
        .into_iter()
        .filter(|&(db_mib, _)| db_mib <= 64.0)
        .collect();
    assert!(!inside.is_empty(), "no Figure 3 point at 64 MiB or below");
    for (db_mib, ratio) in inside {
        assert!(ratio <= 1.5, "{db_mib} MiB: enclave/native {ratio}");
    }
}
