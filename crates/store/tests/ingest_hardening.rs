//! Reader-hardening properties: arbitrary bytes through every reader
//! must never panic, lenient reads must never fail on parse errors, and
//! strict and lenient must agree on clean input.

use hpcfail_store::csv::{headers, CsvError};
use hpcfail_store::ingest::{
    read_failures_with, read_jobs_with, read_layout_rows_with, read_maintenance_with,
    read_neutron_with, read_system_configs_with, read_temperatures_with, IngestPolicy,
};
use hpcfail_store::lanl::{read_lanl_failures_with, LanlImportOptions};
use proptest::prelude::*;

/// Biases raw fuzz bytes toward CSV-looking content (digits, commas,
/// newlines) so the fuzz reaches past the field-count check into value
/// parsing, while keeping plenty of genuinely arbitrary bytes.
fn soupify(raw: Vec<u8>) -> Vec<u8> {
    const PALETTE: &[u8] = b",\n\r-:.";
    raw.into_iter()
        .map(|b| match b % 4 {
            0 => PALETTE[(b as usize / 4) % PALETTE.len()],
            1 => b'0' + (b / 4) % 10,
            _ => b,
        })
        .collect()
}

/// A clean failures file with one line replaced by arbitrary bytes.
fn mutate_failures(line: usize, junk: &[u8]) -> Vec<u8> {
    let clean = format!(
        "{}\n20,0,1000,HW,HW:CPU,3600\n20,5,2000,ENV,ENV:UPS,\n20,7,3000,UNDET,-,\n",
        headers::FAILURES
    );
    mutate_line(&clean, line, junk)
}

/// A clean LANL export with one line replaced by arbitrary bytes.
fn mutate_lanl(line: usize, junk: &[u8]) -> Vec<u8> {
    let clean = "System,NodeNum,Prob Started,Prob Fixed,Cause,SubCause\n\
                 20,0,10/23/2003 14:55,10/23/2003 18:20,Hardware,Memory Dimm\n\
                 20,17,11/02/2003 03:10,,Facilities,Power Outage\n\
                 2,5,01/15/1997 09:00,01/15/1997 10:30,Human Error,\n";
    mutate_line(clean, line, junk)
}

/// `clean` with its 0-based line `line` replaced by `junk`.
fn mutate_line(clean: &str, line: usize, junk: &[u8]) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = clean
        .trim_end()
        .split('\n')
        .map(|l| l.as_bytes().to_vec())
        .collect();
    // Keep the mutation on one physical line so the damage is exactly
    // one line's worth.
    lines[line] = junk
        .iter()
        .copied()
        .filter(|&b| b != b'\n' && b != b'\r')
        .collect();
    let mut out = lines.join(&b"\n"[..]);
    out.push(b'\n');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_reader_panics_on_arbitrary_bytes(raw in prop::collection::vec(0u8..=255, 0..400)) {
        let bytes = soupify(raw);
        // Lenient never fails on content, only on I/O (impossible here).
        prop_assert!(read_failures_with(&bytes[..], "f", IngestPolicy::Lenient).is_ok());
        prop_assert!(read_jobs_with(&bytes[..], "j", IngestPolicy::Lenient).is_ok());
        prop_assert!(read_temperatures_with(&bytes[..], "t", IngestPolicy::Lenient).is_ok());
        prop_assert!(read_maintenance_with(&bytes[..], "m", IngestPolicy::Lenient).is_ok());
        prop_assert!(read_neutron_with(&bytes[..], "n", IngestPolicy::Lenient).is_ok());
        prop_assert!(read_system_configs_with(&bytes[..], "s", IngestPolicy::Lenient).is_ok());
        prop_assert!(read_layout_rows_with(&bytes[..], "l", IngestPolicy::Lenient).is_ok());
        prop_assert!(read_failures_with(&bytes[..], "f", IngestPolicy::BestEffort).is_ok());
        // Strict may reject, but must return an error, not panic.
        let strict = IngestPolicy::Strict;
        let _ = read_failures_with(&bytes[..], "f", strict);
        let _ = read_jobs_with(&bytes[..], "j", strict);
        let _ = read_temperatures_with(&bytes[..], "t", strict);
        let _ = read_maintenance_with(&bytes[..], "m", strict);
        let _ = read_neutron_with(&bytes[..], "n", strict);
        let _ = read_system_configs_with(&bytes[..], "s", strict);
        let _ = read_layout_rows_with(&bytes[..], "l", strict);
        // Line 1 of a LANL export is its header, which every policy
        // refuses when it is defective.
        for policy in [strict, IngestPolicy::Lenient, IngestPolicy::BestEffort] {
            let _ = read_lanl_failures_with(&bytes[..], "u", LanlImportOptions::default(), policy);
        }
    }

    #[test]
    fn mutated_lines_never_panic_and_lenient_recovers(
        line in 0usize..4,
        junk in prop::collection::vec(0u8..=255, 0..60),
    ) {
        let bytes = mutate_failures(line, &junk);
        let lenient = read_failures_with(&bytes[..], "failures.csv", IngestPolicy::Lenient);
        prop_assert!(lenient.is_ok());
        let lenient = lenient.unwrap();
        // One mutated line can cost at most one quarantine entry, and
        // at least two of the three data lines are untouched.
        prop_assert!(lenient.quarantined.len() <= 1);
        prop_assert!(lenient.records.len() >= 2);
        let _ = read_failures_with(&bytes[..], "failures.csv", IngestPolicy::Strict);
    }

    /// The LANL importer keeps the same contract with arbitrary bytes,
    /// invalid UTF-8 included, on one data row: the recovering policies
    /// never fail and lose at most that row; Strict fails only with a
    /// parse error that names the file and that row.
    #[test]
    fn lenient_lanl_reads_never_fail_on_one_bad_row(
        line in 1usize..4,
        junk in prop::collection::vec(0u8..=255, 0..60),
    ) {
        let bytes = mutate_lanl(line, &junk);
        let options = LanlImportOptions::default();
        for policy in [IngestPolicy::Lenient, IngestPolicy::BestEffort] {
            let read = read_lanl_failures_with(&bytes[..], "up.csv", options, policy);
            prop_assert!(read.is_ok(), "{}: {:?}", policy, read.err());
            let read = read.unwrap();
            prop_assert!(read.quarantined.len() <= 1);
            prop_assert!(read.records.len() >= 2);
            for q in &read.quarantined {
                prop_assert_eq!(q.line, line + 1);
                prop_assert_eq!(q.file.as_str(), "up.csv");
            }
        }
        if let Err(err) =
            read_lanl_failures_with(&bytes[..], "up.csv", options, IngestPolicy::Strict)
        {
            let CsvError::InFile { file, source } = err else {
                return Err(TestCaseError::fail(format!("no file named: {err}")));
            };
            prop_assert_eq!(file, "up.csv");
            let is_row_parse_error = matches!(*source, CsvError::Parse { line: l, .. } if l == line + 1);
            prop_assert!(is_row_parse_error, "{}", source);
        }
    }

    #[test]
    fn strict_and_lenient_agree_on_clean_failures(
        n in 0usize..20,
        times in prop::collection::vec(0i64..1_000_000, 20),
        causes in prop::collection::vec(0u8..6, 20),
    ) {
        let labels = ["ENV", "HW", "HUMAN", "NET", "SW", "UNDET"];
        let mut text = format!("{}\n", headers::FAILURES);
        for i in 0..n {
            text.push_str(&format!(
                "20,{},{},{},-,\n",
                i % 7,
                times[i],
                labels[causes[i] as usize],
            ));
        }
        let strict = read_failures_with(text.as_bytes(), "f", IngestPolicy::Strict)
            .expect("clean input")
            .records;
        let lenient = read_failures_with(text.as_bytes(), "f", IngestPolicy::Lenient)
            .expect("lenient never fails on content");
        let best = read_failures_with(text.as_bytes(), "f", IngestPolicy::BestEffort)
            .expect("best-effort never fails on content");
        prop_assert_eq!(&lenient.records, &strict);
        prop_assert_eq!(&best.records, &strict);
        prop_assert!(lenient.quarantined.is_empty());
        prop_assert_eq!(lenient.defaulted_fields, 0);
        prop_assert_eq!(best.defaulted_fields, 0);
    }
}
