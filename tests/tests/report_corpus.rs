//! Every report item on real-capture corpora: the checked-in
//! `tests/corpus/` pcaps and a header-only pcap, read through
//! `Pipeline::from_pcaps`, build every table and figure item and all three
//! report backends without a panic, although such a corpus has no AS
//! metadata and may have no TCP session or no packet at all. A comparison
//! row whose input row or series is missing does not hold and reads
//! `n/a`, and the bytes do not depend on the worker-thread count.

mod common;

use common::ScratchDir;
use sixscope::report::{self, Section};
use sixscope::{serve, tables, Analyzed, Pipeline};
use sixscope_packet::PcapWriter;
use std::path::PathBuf;

/// A comparison row that must read `n/a`, and when its input is missing.
type MissingRow = (&'static str, fn(&Analyzed) -> bool);

const MISSING_ROWS: [MissingRow; 5] = [
    ("| Table 4 | top TCP port | 80 (87.2%) | n/a | ✗ |", |a| {
        tables::table4(a).tcp.is_empty()
    }),
    (
        "| Table 4 | top UDP label | Traceroute (71.4%) | n/a | ✗ |",
        |a| tables::table4(a).udp.is_empty(),
    ),
    (
        "| Table 7 | top tool | RIPEAtlasProbe (54.8% of scanners) | n/a | ✗ |",
        |a| tables::table7(a).is_empty(),
    ),
    // A pcap corpus carries no AS metadata, so no source is Hosting or ISP.
    (
        "| Table 8 | hosting + ISP scanner share | 95.6% | n/a | ✗ |",
        |_| true,
    ),
    (
        "| Fig. 4 | packet growth is discontinuous (mid-run share) \
         | step-like, < linear at midpoint | n/a | ✗ |",
        |a| a.result.total_packets() == 0,
    ),
];

/// The pcaps: the checked-in corpus and a header-only file in `dir`.
fn pcaps(dir: &ScratchDir) -> Vec<PathBuf> {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut paths: Vec<PathBuf> = ["clean", "mixed", "lying_lengths", "truncated_header"]
        .iter()
        .map(|name| corpus.join(format!("{name}.pcap")))
        .collect();
    let empty = dir.join("empty.pcap");
    let header = PcapWriter::new(Vec::new()).unwrap().into_inner().unwrap();
    std::fs::write(&empty, header).unwrap();
    paths.push(empty);
    paths
}

/// Every backend over one corpus: EXPERIMENTS.md's body, then the text
/// and JSON of `sixscope run`.
fn reports(a: &Analyzed) -> [String; 3] {
    let md = report::markdown(&[Section::tables(a), Section::figures(a)]).text;
    [
        md,
        serve::tables_report(a, false),
        serve::tables_report(a, true),
    ]
}

#[test]
fn every_item_builds_on_pcap_corpora_at_any_thread_count() {
    // One test body: SIXSCOPE_THREADS is process-global state.
    let dir = ScratchDir::new("report-corpus");
    for path in pcaps(&dir) {
        let a = Pipeline::from_pcaps([&path])
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        std::env::set_var("SIXSCOPE_THREADS", "1");
        let serial = reports(&a);
        std::env::set_var("SIXSCOPE_THREADS", "2");
        let parallel = reports(&a);
        std::env::remove_var("SIXSCOPE_THREADS");
        assert_eq!(serial, parallel, "{}", path.display());
        let md = &serial[0];
        for (row, missing) in MISSING_ROWS {
            assert_eq!(
                md.contains(row),
                missing(&a),
                "{}: {row}\n{md}",
                path.display()
            );
        }
        if a.result.total_packets() == 0 {
            // The header-only pcap: every guarded input is missing.
            assert!(MISSING_ROWS.iter().all(|(row, _)| md.contains(row)), "{md}");
        }
    }
}
