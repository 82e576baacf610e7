//! `coma-cli` — match two schema files from the command line, or talk to
//! a running `coma-server`.
//!
//! ```text
//! coma-cli <source-file> <target-file> [--matchers Name,NamePath,…]
//!          [--threshold T] [--synonyms FILE] [--dot] [--json] [--verbose]
//!          [--prefilter M1,M2,…] [--prefilter-threshold T] [--prefilter-max N]
//!          [--candidate-index] [--min-shared-tokens N] [--min-score S]
//!          [--top-k K] [--iterate R] [--epsilon E]
//!          [--repository FILE] [--reuse] [--max-hops N]
//!
//! coma-cli --server SOCKET <command> [--tenant T] …
//!   put <schema-file> [--name NAME]   store a schema in the repository
//!   match <source> <target> [--store] [--top-k K] [--candidate-cap N] [--json]
//!                                     match two schemas (each a stored
//!                                     schema name, or a file to send
//!                                     inline); --store persists the result
//!   fetch <NAME>                      show a stored schema's shape
//!   list                              list stored schema names
//!   stats                             repository and cache statistics
//!   ping                              liveness check
//!   shutdown                          graceful server shutdown
//! ```
//!
//! File formats are detected by extension: `.sql`/`.ddl` are parsed as SQL
//! DDL, everything else as XML Schema. A synonyms file holds lines
//! `word = word` (synonym) or `word < word` (hypernym). `--dot` prints the
//! two graphs in Graphviz format instead of matching; `--json` emits the
//! mapping in the repository's relational JSON representation.
//!
//! `--prefilter` switches to a two-stage plan: the given (cheap) matchers
//! run first under a liberal selection — per element, the best
//! `--prefilter-max` candidates (default 4) exceeding
//! `--prefilter-threshold` (default 0.3) — and the main `--matchers`
//! stage refines only the surviving pairs (the plan engine's `Seq`
//! operator).
//!
//! `--candidate-index` replaces the prefilter's matcher stage with the
//! engine's inverted-index `CandidateIndex` leaf: the first stage
//! retrieves candidates from shared token/q-gram postings (capped at
//! `--prefilter-max` per element) instead of scoring the m×n cross
//! product — sub-linear candidate generation for large schemas. A pair
//! needs `--min-shared-tokens` shared tokens (default 1; a shared
//! trigram always qualifies) and an index score of at least
//! `--min-score` (default 0) to survive.
//!
//! `--top-k K` prunes the prefilter stage to the `K` best candidates per
//! element before refining (the `TopK` operator; implies a `Name`
//! prefilter when `--prefilter` is not given), putting the refine stage
//! on the engine's sparse execution path. `--iterate R` wraps the whole
//! plan in the `Iterate` operator: it re-runs, each round restricted to
//! the previous round's survivors, until the result moves by less than
//! `--epsilon` (default 1e-6) or `R` rounds have run.
//!
//! `--reuse` skips fresh matching entirely and answers from previous
//! match results: `--repository FILE` loads a repository JSON (the format
//! `coma-server` persists and `--json` emits), replaying the writes a
//! server's store still holds in `FILE.log`, and the engine's `Reuse`
//! leaf walks its stored-mapping graph for pivot chains
//! `source → P1 → … → Pk → target` of up to `--max-hops` mappings
//! (default 3), MatchComposes each chain, and merges the paths into one
//! candidate mapping. With `--verbose` the stage report explains the
//! pivot selection: every path's hop count, coverage, vocabulary overlap
//! and score, best first.
//!
//! `--explain` runs the static plan analyzer instead of matching: it
//! prints the predicted per-node facts (storage mode, fusion, shard
//! counts, a peak-allocation upper bound) and every diagnostic, then
//! exits without executing (nonzero when the plan has errors).
//! `--deny-plan-warnings` runs the same analysis before matching and
//! refuses to execute a plan with any warning — for scripts that want
//! statically-clean plans only.
//!
//! `--verbose` reports, per executed stage, the similarity-cube shape,
//! its physical storage (dense, sparse/CSR, or mixed — see
//! `ARCHITECTURE.md` on how the engine picks per stage) and the number of
//! physically stored cells, so you can see exactly when and where sparse
//! storage engages. For a `CandidateIndex` stage it additionally prints
//! the index build time, posting counts and candidate-mask density.

use coma::core::{
    Coma, EngineConfig, MatchContext, MatchPlan, MatchStrategy, PlanAnalyzer, Selection, TaskStats,
    TopKPer,
};
use coma::graph::{PathSet, Schema};
use coma::repo::MappingKind;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

/// Writes to standard output, the one way this binary does. A reader
/// that closed the pipe early (`coma-cli … | head -1`, `| grep -q NAME`)
/// wants no more output, so the process then exits quietly with success
/// instead of panicking the way `print!` does; any other write error
/// exits with failure.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: cannot write to standard output: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod client_mode;

struct Options {
    source: String,
    target: String,
    matchers: Vec<String>,
    threshold: Option<f64>,
    synonyms: Option<String>,
    dot: bool,
    json: bool,
    prefilter: Option<Vec<String>>,
    prefilter_threshold: f64,
    prefilter_max: usize,
    candidate_index: bool,
    min_shared_tokens: usize,
    min_score: f64,
    top_k: Option<usize>,
    iterate: Option<usize>,
    epsilon: f64,
    repository: Option<String>,
    reuse: bool,
    max_hops: usize,
    verbose: bool,
    explain: bool,
    deny_plan_warnings: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: coma-cli <source-file> <target-file> \
         [--matchers M1,M2,…] [--threshold T] [--synonyms FILE] [--dot] [--json] [--verbose] \
         [--prefilter M1,M2,…] [--prefilter-threshold T] [--prefilter-max N] \
         [--candidate-index] [--min-shared-tokens N] [--min-score S] \
         [--top-k K] [--iterate R] [--epsilon E] \
         [--repository FILE] [--reuse] [--max-hops N] \
         [--explain] [--deny-plan-warnings]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut args = std::env::args().skip(1);
    let mut positional = Vec::new();
    let mut opts = Options {
        source: String::new(),
        target: String::new(),
        matchers: coma::core::ALL_HYBRIDS
            .iter()
            .map(|m| m.to_string())
            .collect(),
        threshold: None,
        synonyms: None,
        dot: false,
        json: false,
        prefilter: None,
        prefilter_threshold: 0.3,
        prefilter_max: 4,
        candidate_index: false,
        min_shared_tokens: 1,
        min_score: 0.0,
        top_k: None,
        iterate: None,
        epsilon: 1e-6,
        repository: None,
        reuse: false,
        max_hops: 3,
        verbose: false,
        explain: false,
        deny_plan_warnings: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--matchers" => {
                let v = args.next().ok_or_else(usage)?;
                opts.matchers = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--threshold" => {
                let v = args.next().ok_or_else(usage)?;
                opts.threshold = Some(v.parse().map_err(|_| usage())?);
            }
            "--prefilter" => {
                let v = args.next().ok_or_else(usage)?;
                opts.prefilter = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--prefilter-threshold" => {
                let v = args.next().ok_or_else(usage)?;
                opts.prefilter_threshold = v.parse().map_err(|_| usage())?;
            }
            "--prefilter-max" => {
                let v = args.next().ok_or_else(usage)?;
                opts.prefilter_max = v.parse().map_err(|_| usage())?;
            }
            "--candidate-index" => opts.candidate_index = true,
            "--min-shared-tokens" => {
                let v = args.next().ok_or_else(usage)?;
                opts.min_shared_tokens = v.parse().map_err(|_| usage())?;
            }
            "--min-score" => {
                let v = args.next().ok_or_else(usage)?;
                opts.min_score = v.parse().map_err(|_| usage())?;
            }
            "--top-k" => {
                let v = args.next().ok_or_else(usage)?;
                opts.top_k = Some(v.parse().map_err(|_| usage())?);
            }
            "--iterate" => {
                let v = args.next().ok_or_else(usage)?;
                opts.iterate = Some(v.parse().map_err(|_| usage())?);
            }
            "--epsilon" => {
                let v = args.next().ok_or_else(usage)?;
                opts.epsilon = v.parse().map_err(|_| usage())?;
            }
            "--repository" => opts.repository = Some(args.next().ok_or_else(usage)?),
            "--reuse" => opts.reuse = true,
            "--max-hops" => {
                let v = args.next().ok_or_else(usage)?;
                opts.max_hops = v.parse().map_err(|_| usage())?;
            }
            "--explain" => opts.explain = true,
            "--deny-plan-warnings" => opts.deny_plan_warnings = true,
            "--synonyms" => opts.synonyms = Some(args.next().ok_or_else(usage)?),
            "--dot" => opts.dot = true,
            "--json" => opts.json = true,
            "--verbose" | "-v" => opts.verbose = true,
            "--help" | "-h" => return Err(usage()),
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != 2 {
        return Err(usage());
    }
    opts.source = positional.remove(0);
    opts.target = positional.remove(0);
    Ok(opts)
}

/// Builds the staged plan the CLI flags describe: optional prefilter
/// (inverted-index candidate generation or a cheap matcher stage, with
/// optional TopK pruning), refine on the survivors, optionally iterated
/// to a fixpoint.
fn build_staged_plan(opts: &Options, strategy: &MatchStrategy) -> Result<MatchPlan, String> {
    let refine = MatchPlan::from(strategy);
    let mut plan = if opts.reuse {
        // Answer from stored match results alone: the `Reuse` leaf walks
        // the repository's mapping graph for pivot chains up to
        // --max-hops mappings long and composes them.
        MatchPlan::reuse_chains(None, coma::core::ComposeCombine::Average, opts.max_hops)
            .map_err(|e| e.to_string())?
    } else if opts.candidate_index {
        // Inverted-index first stage: candidates come from shared
        // token/q-gram postings, capped per element by --prefilter-max —
        // the m×n cross product is never scored.
        let mut filter = MatchPlan::candidate_index_with(
            opts.min_shared_tokens,
            opts.min_score,
            3,
            Some(opts.prefilter_max),
        )
        .map_err(|e| e.to_string())?;
        if let Some(k) = opts.top_k {
            filter = filter.top_k(k, TopKPer::Both).map_err(|e| e.to_string())?;
        }
        MatchPlan::seq(filter, refine)
    } else if opts.prefilter.is_some() || opts.top_k.is_some() {
        // `--top-k` without `--prefilter` implies a cheap Name filter.
        let filter_matchers = opts
            .prefilter
            .clone()
            .unwrap_or_else(|| vec!["Name".to_string()]);
        let pool = opts.prefilter_max.max(opts.top_k.unwrap_or(0));
        let mut combination = strategy.combination.clone();
        combination.selection = Selection::max_n(pool).with_threshold(opts.prefilter_threshold);
        let mut filter = MatchPlan::matchers_with(filter_matchers, combination);
        if let Some(k) = opts.top_k {
            filter = filter.top_k(k, TopKPer::Both).map_err(|e| e.to_string())?;
        }
        MatchPlan::seq(filter, refine)
    } else {
        refine
    };
    if let Some(rounds) = opts.iterate {
        plan = plan
            .iterate(rounds, opts.epsilon)
            .map_err(|e| e.to_string())?;
    }
    Ok(plan)
}

fn import(path: &str) -> Result<Schema, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("schema")
        .to_string();
    let ext = Path::new(path)
        .extension()
        .and_then(|s| s.to_str())
        .unwrap_or("")
        .to_ascii_lowercase();
    match ext.as_str() {
        "sql" | "ddl" => coma::sql::import_ddl(&text, &stem).map_err(|e| format!("{path}: {e}")),
        _ => coma::xml::import_xsd(&text, &stem).map_err(|e| format!("{path}: {e}")),
    }
}

fn main() -> ExitCode {
    // Client mode: `--server SOCKET <command> …` talks to a running
    // coma-server instead of matching locally.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = raw.iter().position(|a| a == "--server") {
        let Some(socket) = raw.get(pos + 1).cloned() else {
            eprintln!("error: --server needs a socket path");
            return ExitCode::from(2);
        };
        let mut rest = raw;
        rest.drain(pos..=pos + 1);
        return client_mode::run(&socket, rest);
    }

    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let (source, target) = match (import(&opts.source), import(&opts.target)) {
        (Ok(s), Ok(t)) => (s, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.dot {
        out!("{}", coma::graph::dot::to_dot(&source));
        out!("{}", coma::graph::dot::to_dot(&target));
        return ExitCode::SUCCESS;
    }

    let mut coma = Coma::new();
    coma.aux_mut().synonyms = coma::core::matchers::synonym::SynonymTable::purchase_order();
    if let Some(file) = &opts.synonyms {
        let Ok(text) = std::fs::read_to_string(file) else {
            eprintln!("error: cannot read synonyms file {file}");
            return ExitCode::FAILURE;
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((a, b)) = line.split_once('<') {
                coma.aux_mut().synonyms.add_hypernym(a.trim(), b.trim());
            } else if let Some((a, b)) = line.split_once('=') {
                coma.aux_mut().synonyms.add_synonym(a.trim(), b.trim());
            }
        }
    }

    if let Some(file) = &opts.repository {
        match coma::repo::Repository::load(file) {
            Ok(repo) => *coma.repository_mut() = repo,
            Err(e) => {
                eprintln!("error: cannot load repository {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut strategy = MatchStrategy::with_matchers(opts.matchers.clone());
    if let Some(t) = opts.threshold {
        strategy.combination.selection.threshold = Some(t);
    }
    let staged = opts.reuse
        || opts.candidate_index
        || opts.prefilter.is_some()
        || opts.top_k.is_some()
        || opts.iterate.is_some();
    // The plan the engine would execute — a flat strategy converts to a
    // single Matchers leaf. Built up front so static analysis
    // (--explain / --deny-plan-warnings) sees exactly what would run.
    let plan = if staged {
        match build_staged_plan(&opts, &strategy) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        MatchPlan::from(&strategy)
    };

    if opts.explain || opts.deny_plan_warnings {
        let sp = PathSet::new(&source).expect("validated on import");
        let tp = PathSet::new(&target).expect("validated on import");
        let ctx = MatchContext::new(&source, &target, &sp, &tp, coma.aux())
            .with_repository(coma.repository());
        let stats = TaskStats::gather(&ctx);
        let analysis =
            PlanAnalyzer::new(coma.library(), EngineConfig::default()).analyze(&plan, &stats);
        if opts.explain {
            // Report only — nothing executes.
            out!("{}", analysis.render());
            return if analysis.has_errors() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            };
        }
        if analysis.has_errors() || analysis.has_warnings() {
            for d in &analysis.diagnostics {
                eprintln!("# {d}");
            }
            eprintln!("error: plan analysis reported problems (--deny-plan-warnings)");
            return ExitCode::FAILURE;
        }
    }

    let result = if staged {
        match coma.match_plan_with(EngineConfig::default(), &source, &target, &plan) {
            Ok(outcome) => {
                for stage in &outcome.stages {
                    if opts.verbose {
                        let cube = &stage.cube;
                        eprintln!(
                            "# stage {} -> {} pair(s); cube {}x{}x{}, {} storage, \
                             {} stored entr{} ({} dense cells), {} row shard{}{}",
                            stage.label,
                            stage.result.len(),
                            cube.len(),
                            cube.rows(),
                            cube.cols(),
                            cube.storage_summary(),
                            cube.stored_entries(),
                            if cube.stored_entries() == 1 {
                                "y"
                            } else {
                                "ies"
                            },
                            cube.len() * cube.rows() * cube.cols(),
                            stage.shards,
                            if stage.shards == 1 { "" } else { "s" },
                            match (stage.fused, stage.key_space) {
                                (true, Some((source, target))) => {
                                    format!(", fused in key space ({source}x{target} names)")
                                }
                                (true, None) => ", fused".to_string(),
                                (false, _) => String::new(),
                            },
                        );
                        if let Some(stats) = stage.index_stats {
                            let cells = (cube.rows() * cube.cols()).max(1);
                            eprintln!(
                                "#   index: built in {:.2} ms; {} token + {} gram posting \
                                 entries ({} tokens, {} grams); candidate density {:.4}",
                                stats.build_nanos as f64 / 1e6,
                                stats.token_postings,
                                stats.gram_postings,
                                stats.distinct_tokens,
                                stats.distinct_grams,
                                stage.result.len() as f64 / cells as f64,
                            );
                        }
                        if let Some(stats) = &stage.reuse_stats {
                            if stats.paths.is_empty() {
                                eprintln!(
                                    "#   reuse: no pivot path in repository \
                                     (max {} hops)",
                                    stats.max_hops
                                );
                            } else {
                                eprintln!(
                                    "#   reuse: {} pivot path(s) within {} hops, \
                                     merged {} correspondence(s); chose via {}",
                                    stats.paths.len(),
                                    stats.max_hops,
                                    stats.merged_correspondences,
                                    stats.paths[0].via,
                                );
                                for p in &stats.paths {
                                    eprintln!(
                                        "#     via {}: score {:.3} ({} hops, \
                                         {} correspondence(s), coverage {:.2}, \
                                         vocab overlap {:.2})",
                                        p.via,
                                        p.score,
                                        p.hops,
                                        p.correspondences,
                                        p.coverage,
                                        p.vocab_overlap,
                                    );
                                }
                            }
                        }
                    } else {
                        eprintln!("# stage {} -> {} pair(s)", stage.label, stage.result.len());
                    }
                }
                outcome.result
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match coma.match_schemas(&source, &target, &strategy) {
            Ok(o) => {
                if opts.verbose {
                    eprintln!(
                        "# cube {}x{}x{}, {} storage, {} stored entries",
                        o.cube.len(),
                        o.cube.rows(),
                        o.cube.cols(),
                        o.cube.storage_summary(),
                        o.cube.stored_entries(),
                    );
                }
                o.result
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let sp = PathSet::new(&source).expect("validated on import");
    let tp = PathSet::new(&target).expect("validated on import");
    if opts.json {
        let ctx = MatchContext::new(&source, &target, &sp, &tp, coma.aux());
        let mapping = result.to_mapping(&ctx, MappingKind::Automatic);
        match serde_json::to_string_pretty(&mapping) {
            Ok(json) => outln!("{json}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!(
            "# {} correspondences (schema similarity {:.2}, matchers: {})",
            result.len(),
            result.schema_similarity.unwrap_or(0.0),
            opts.matchers.join(",")
        );
        for c in &result.candidates {
            outln!(
                "{:.3}\t{}\t{}",
                c.similarity,
                sp.full_name(&source, c.source),
                tp.full_name(&target, c.target)
            );
        }
    }
    ExitCode::SUCCESS
}
