//! Regenerates Table 5 of the paper: the characteristics of the five test
//! schemas. The corpus is synthesized (see README.md, "Reproducing the
//! paper's evaluation"), so these statistics must — and do — match the
//! paper exactly.

use coma_eval::experiment::report::render_table;
use coma_eval::{Corpus, SCHEMA_NAMES};

fn main() {
    let corpus = Corpus::load();
    let paper = [
        (4, 40, 40, 7, 7, 33, 33),
        (4, 35, 54, 9, 12, 26, 42),
        (4, 46, 65, 8, 11, 38, 54),
        (6, 74, 80, 11, 12, 63, 68),
        (5, 80, 145, 23, 29, 57, 116),
    ];
    println!("Table 5 — characteristics of test schemas (measured = paper)\n");
    let mut rows = Vec::new();
    for i in 0..5 {
        let st = corpus.stats(i);
        let p = paper[i];
        rows.push(vec![
            format!("{} ({})", i + 1, SCHEMA_NAMES[i]),
            format!("{} ({})", st.max_depth, p.0),
            format!("{}/{} ({}/{})", st.nodes, st.paths, p.1, p.2),
            format!("{}/{} ({}/{})", st.inner_nodes, st.inner_paths, p.3, p.4),
            format!("{}/{} ({}/{})", st.leaf_nodes, st.leaf_paths, p.5, p.6),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Schema",
                "Max depth (paper)",
                "#Nodes/paths (paper)",
                "#Inner nodes/paths (paper)",
                "#Leaf nodes/paths (paper)",
            ],
            &rows
        )
    );
}
