//! The checked-in corrupted-pcap corpus (`tests/corpus/`, regenerated by
//! `cargo run -p sixscope-examples --bin make-corpus`) pins the recovery
//! contract end to end: exact per-reason skip counts per file, every
//! complete record survives the damage around it, and the `analyze`
//! report is byte-identical at any worker-thread count.

use sixscope::serve::analysis_report;
use sixscope::{Pipeline, PipelineOutput};
use sixscope_telescope::{IngestStats, TelescopeId};
use sixscope_types::Ipv6Prefix;

fn corpus_path(name: &str) -> String {
    format!("{}/corpus/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn telescope_prefix() -> Ipv6Prefix {
    "2001:db8::/32".parse().unwrap()
}

/// Streams the named corpus files through the pipeline.
fn run(names: &[&str]) -> PipelineOutput {
    Pipeline::from_pcaps(names.iter().map(|n| corpus_path(n)))
        .prefix(telescope_prefix())
        .run_detailed()
        .unwrap_or_else(|e| panic!("{names:?}: {e}"))
}

fn reason_count(stats: &IngestStats, reason: &str) -> u64 {
    stats
        .skip_reasons()
        .find(|(label, _)| *label == reason)
        .map(|(_, n)| n)
        .unwrap()
}

#[test]
fn clean_corpus_ingests_without_damage() {
    let out = run(&["clean.pcap"]);
    let stats = &out.stats;
    assert_eq!(stats.records_read, 3);
    assert_eq!(stats.parsed, 3);
    assert_eq!(stats.filtered, 0);
    assert_eq!(stats.malformed_packets, 0);
    assert_eq!(stats.skipped_total(), 0);
    assert!(!stats.truncated_tail);
    // The hop-by-hop + TCP probe kept its ports through the ext walker.
    let capture = out.analyzed.capture(TelescopeId::T1);
    let syn = capture
        .packets()
        .iter()
        .find(|p| p.dst_port == Some(443))
        .expect("ext-headered TCP probe must survive ingestion");
    assert_eq!(syn.src_port, Some(40_000));
    assert_eq!(&syn.payload[..], b"zmap6");
}

#[test]
fn mixed_corpus_yields_exact_per_reason_stats() {
    let out = run(&["mixed.pcap"]);
    let stats = &out.stats;
    // 4 complete records with packet bytes: 2 in-prefix probes, one
    // non-IPv6 body, one out-of-prefix UDP.
    assert_eq!(stats.records_read, 4);
    assert_eq!(stats.parsed, 2);
    assert_eq!(stats.filtered, 1);
    assert_eq!(stats.malformed_packets, 1);
    assert_eq!(reason_count(stats, "length-inconsistent"), 1);
    assert_eq!(reason_count(stats, "snaplen-exceeded"), 1);
    assert_eq!(reason_count(stats, "truncated-body"), 1);
    assert_eq!(stats.skipped_total(), 3);
    assert!(stats.truncated_tail);
    // Records *after* the damaged ones were still recovered: the
    // filtered UDP probe is record 6 of 7.
    assert_eq!(out.analyzed.capture(TelescopeId::T1).filtered(), 1);
}

#[test]
fn lying_lengths_hit_the_allocation_cap_not_the_allocator() {
    let stats = run(&["lying_lengths.pcap"]).stats;
    assert_eq!(stats.records_read, 1);
    assert_eq!(stats.parsed, 1);
    assert_eq!(reason_count(&stats, "cap-exceeded"), 1);
    // The discard of the impossible record ran off the end of the file.
    assert!(stats.truncated_tail);
}

#[test]
fn partial_record_header_flags_truncated_tail() {
    let stats = run(&["truncated_header.pcap"]).stats;
    assert_eq!(stats.records_read, 2);
    assert_eq!(stats.parsed, 2);
    assert_eq!(reason_count(&stats, "truncated-header"), 1);
    assert_eq!(stats.skipped_total(), 1);
    assert!(stats.truncated_tail);
}

#[test]
fn multi_file_stats_accumulate() {
    let out = run(&[
        "clean.pcap",
        "mixed.pcap",
        "lying_lengths.pcap",
        "truncated_header.pcap",
    ]);
    let totals = &out.stats;
    assert_eq!(totals.records_read, 10);
    assert_eq!(totals.parsed, 8);
    assert_eq!(totals.skipped_total(), 5);
    assert!(totals.truncated_tail);
    assert_eq!(
        totals.records_read,
        totals.parsed + totals.filtered + totals.malformed_packets
    );
    // Per-file statistics are kept alongside the totals, in input order.
    assert_eq!(out.file_stats.len(), 4);
    assert!(out.file_stats[0].0.ends_with("clean.pcap"));
    assert_eq!(out.file_stats[0].1.parsed, 3);
}

#[test]
fn ingest_report_is_thread_count_invariant() {
    let build = || {
        let out = run(&["mixed.pcap", "clean.pcap"]);
        [false, true].map(|json| analysis_report(&out.analyzed, &out.stats, json))
    };
    std::env::set_var("SIXSCOPE_THREADS", "1");
    let serial = build();
    std::env::set_var("SIXSCOPE_THREADS", "8");
    let parallel = build();
    std::env::remove_var("SIXSCOPE_THREADS");
    assert_eq!(serial, parallel, "report bytes diverged across threads");
    // The JSON report actually carries the recovery story.
    let json = &serial[1];
    assert!(json.contains(r#""length-inconsistent":1"#), "{json}");
    assert!(json.contains(r#""truncated_tail":true"#), "{json}");
}
