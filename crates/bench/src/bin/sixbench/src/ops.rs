//! The timed operations — sequences of public toolkit calls, each call
//! inside a span — and the output checks around them.

use crate::corpus::{set_threads, Params};
use crate::measure::Fnv;
use crate::trace::Tracer;
use sixscope::sim::{ExperimentResult, ScenarioConfig};
use sixscope::types::SimTime;
use sixscope::{figures, render, serve, tables, Analyzed, Error, Pipeline, PipelineOutput};
use std::fmt::{Debug, Write as _};
use std::path::{Path, PathBuf};

/// Counts operations attempted and failed. An operation fails once, at
/// its first failed check or error, whatever else goes wrong after.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    current_failed: bool,
}

impl Checks {
    /// Starts the next operation.
    pub fn begin(&mut self) {
        self.attempted += 1;
        self.current_failed = false;
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("sixbench: check failed: {what}");
            if !self.current_failed {
                self.failed += 1;
                self.current_failed = true;
            }
        }
    }

    /// The value of `r`, or `None` after counting its error as a failure.
    pub fn ok<T>(&mut self, r: Result<T, Error>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.check(false, &format!("error: {e}"));
                None
            }
        }
    }
}

/// What the report calls produced: the composed tables text (the bytes of
/// `serve::tables_report`), and the rendered overview and every figure,
/// kept for [`Reports::digest`] so that digesting stays out of the timed
/// and traced operation.
pub struct Reports {
    pub tables: String,
    results: Vec<Box<dyn Debug>>,
}

impl Reports {
    /// FNV-1a of the tables text, and of the overview and figures.
    pub fn digest(&self) -> (u64, u64) {
        let mut h = Fnv::new();
        for r in &self.results {
            let _ = write!(h, "{r:?}");
        }
        (Fnv::of(self.tables.as_bytes()), h.0)
    }
}

/// Every `tables::*` + `render::*` call and every `figures::fig*` call.
pub fn reports(a: &Analyzed, t: &mut Tracer) -> Reports {
    let mut text = String::new();
    macro_rules! table {
        ($name:literal, $table:expr, $render:expr) => {{
            let v = t.span(concat!("tables.", $name), || $table(a));
            let r = t.span(concat!("render.", $name), || $render(&v));
            text.push_str(&r);
            text.push('\n');
        }};
    }
    table!("table2", tables::table2, render::render_table2);
    table!("table3", tables::table3, render::render_table3);
    table!("table4", tables::table4, render::render_table4);
    table!("table5", tables::table5, render::render_table5);
    table!("table6", tables::table6, render::render_table6);
    table!("table7", tables::table7, render::render_table7);
    table!("table8", tables::table8, render::render_table8);
    table!("headline", tables::headline, render::render_headline);

    let (start, boundary, end) = (SimTime::EPOCH, a.split_start(), a.result.layout.end);
    let overview = t.span("tables.overview", || {
        (
            tables::corpus_overview(a, start, boundary),
            tables::corpus_overview(a, start, end),
        )
    });
    let rendered = t.span("render.overview", || {
        render::render_overview("initial 12 weeks", &overview.0)
            + &render::render_overview("full period", &overview.1)
    });
    let mut results: Vec<Box<dyn Debug>> = vec![Box::new(rendered)];
    macro_rules! fig {
        ($name:literal, $call:expr) => {
            results.push(Box::new(t.span(concat!("figures.", $name), || $call)))
        };
    }
    fig!("fig3", figures::fig3(a));
    fig!("fig4", figures::fig4(a));
    fig!("fig5", figures::fig5(a));
    fig!("fig7a", figures::fig7a(a));
    fig!("fig7b", figures::fig7b(a));
    fig!("fig8", figures::fig8(a));
    fig!("fig9", figures::fig9(a));
    fig!("fig10", figures::fig10(a));
    fig!("fig11", figures::fig11(a));
    let fig12 = t.span("figures.fig12", || figures::fig12(a));
    fig!("fig13", figures::fig13_from(fig12.0.clone()));
    results.push(Box::new(fig12));
    fig!("fig14", figures::fig14(a));
    fig!("fig15", figures::fig15(a));
    fig!("fig16a", figures::fig16a(a));
    fig!("fig16b", figures::fig16b(a));
    fig!("fig17", figures::fig17(a));
    Reports {
        tables: text,
        results,
    }
}

/// paper-sim: simulate the study at `seed`, analyze it, and produce every
/// table and figure.
pub fn paper_op(
    seed: u64,
    params: &Params,
    threads: usize,
    t: &mut Tracer,
) -> Result<(PipelineOutput, Reports), Error> {
    set_threads(threads);
    let root = t.open("op");
    let build = t.open("corpus.build");
    let out = Pipeline::simulate(ScenarioConfig::new(seed, params.sim_scale))
        .threads(threads)
        .run_detailed();
    if let Ok(o) = &out {
        t.children_from(&[
            ("sim.setup", o.sim.setup),
            ("sim.generate", o.sim.generate),
            ("sim.deliver", o.sim.deliver),
        ]);
    }
    t.close(build);
    let out = out.inspect_err(|_| t.close(root))?;
    let reports = reports(&out.analyzed, t);
    t.close(root);
    Ok((out, reports))
}

/// heavy-tail: analyze an already simulated corpus and produce every
/// table and figure.
pub fn heavy_op(result: ExperimentResult, threads: usize, t: &mut Tracer) -> (Analyzed, Reports) {
    set_threads(threads);
    let root = t.open("op");
    let a = t.span("corpus.build", || Analyzed::from_result(result));
    let reports = reports(&a, t);
    t.close(root);
    (a, reports)
}

/// What one pcap-federated operation produced.
pub struct PcapOp {
    pub direct: PipelineOutput,
    pub report: String,
    pub merged: PipelineOutput,
    pub merged_report: String,
}

/// pcap-federated: (a) analyze the pieces directly, (b) scatter each piece
/// to a shard file and gather the shards; both end in the analysis report.
pub fn pcap_op(
    pieces: &[PathBuf],
    shards: &[PathBuf],
    threads: usize,
    t: &mut Tracer,
) -> Result<PcapOp, Error> {
    set_threads(threads);
    let root = t.open("op");
    let result = (|| {
        let direct = t.span("corpus.build", || {
            Pipeline::from_pcaps(pieces)
                .chunk_records(65_536)
                .threads(threads)
                .run_detailed()
        })?;
        let report = t.span("render.analysis_report", || {
            serve::analysis_report(&direct.analyzed, &direct.stats, false)
        });
        t.span("shardfile.scatter", || {
            pieces.iter().zip(shards).try_for_each(|(piece, shard)| {
                Pipeline::from_pcaps([piece])
                    .chunk_records(65_536)
                    .threads(threads)
                    .to_shard(shard)
                    .map(drop)
            })
        })?;
        let merged = t.span("shardfile.gather", || {
            Pipeline::from_shards(shards)
                .threads(threads)
                .run_detailed()
        })?;
        let merged_report = t.span("render.analysis_report", || {
            serve::analysis_report(&merged.analyzed, &merged.stats, false)
        });
        Ok(PcapOp {
            direct,
            report,
            merged,
            merged_report,
        })
    })();
    t.close(root);
    result
}

/// live-tail's batch reference: analyze the finished live file.
pub fn batch_op(
    path: &Path,
    threads: usize,
    t: &mut Tracer,
) -> Result<(PipelineOutput, String), Error> {
    set_threads(threads);
    let root = t.open("op");
    let result = t
        .span("corpus.build", || {
            Pipeline::from_pcaps([path])
                .chunk_records(4096)
                .threads(threads)
                .run_detailed()
        })
        .map(|out| {
            let report = t.span("render.analysis_report", || {
                serve::analysis_report(&out.analyzed, &out.stats, false)
            });
            (out, report)
        });
    t.close(root);
    result
}
