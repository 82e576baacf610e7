//! Gold standards for the generated match tasks.
//!
//! `coma_bench::workload::generate_task` renders one prototype tree twice:
//! the source unchanged (node `i` is prototype node `i`), the target
//! through a perturbation stream seeded from the spec. The generator
//! does not expose which target node came from which prototype node, so
//! this module replays the target's perturbation stream over the source
//! — the same draws in the same order — and records the pairing. The
//! replay is checked against the real target node by node: any drift
//! between this copy of the rendering rules and the generator makes
//! [`prototype_gold`] fail instead of producing a wrong gold standard.

use coma_bench::workload::{SplitMix64, WorkloadSpec};
use coma_graph::{PathSet, Schema};
use std::collections::BTreeSet;

/// The generator's synonym/abbreviation table (`workload::VARIANTS`).
const VARIANTS: &[(&str, &[&str])] = &[
    ("customer", &["client", "cust"]),
    ("order", &["purchase", "po"]),
    ("number", &["no", "num"]),
    ("street", &["road"]),
    ("city", &["town"]),
    ("zip", &["postcode"]),
    ("phone", &["telephone"]),
    ("amount", &["sum"]),
    ("quantity", &["qty"]),
    ("supplier", &["vendor"]),
    ("employee", &["staff"]),
    ("delivery", &["deliver"]),
    ("ship", &["deliver"]),
    ("bill", &["invoice"]),
    ("description", &["desc"]),
];
/// Sizes of the generator's attribute and datatype tables (the bounds of
/// the draws that name and type a duplicated leaf).
const ATTRIBUTES: usize = 20;
const DATATYPES: usize = 9;
/// The generator's target-stream seed salt.
const TARGET_SALT: u64 = 0x5DEE_CE66_D1CE_4E5B;

/// Splits a camelCase name back into its lowercase vocabulary tokens.
fn tokens(name: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for c in name.chars() {
        if c.is_uppercase() || out.is_empty() {
            out.push(String::new());
        }
        out.last_mut()
            .expect("pushed above")
            .extend(c.to_lowercase());
    }
    out
}

fn camel(tokens: &[&str]) -> String {
    let mut out = String::new();
    for (i, t) in tokens.iter().enumerate() {
        let mut chars = t.chars();
        if let Some(first) = chars.next() {
            if i == 0 {
                out.push(first);
            } else {
                out.extend(first.to_uppercase());
            }
            out.push_str(chars.as_str());
        }
    }
    out
}

/// The gold standard of a generated task: for every prototype node the
/// target kept, its source path paired with its target path.
pub fn prototype_gold(
    spec: &WorkloadSpec,
    source: &Schema,
    target: &Schema,
) -> Result<BTreeSet<(String, String)>, String> {
    let mut rng = SplitMix64::new(spec.seed ^ TARGET_SALT);
    // (source node index, target node index) per kept prototype node, and
    // the predicted name of every target node in creation order.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut predicted: Vec<Option<String>> = Vec::new();
    for (i, (_, node)) in source.iter().enumerate() {
        let leaf = node.datatype.is_some();
        if i > 0 && leaf && rng.chance(1, 16) {
            continue; // dropped on the target side
        }
        let toks = tokens(&node.name);
        let renamed: Vec<&str> = toks
            .iter()
            .map(|t| match VARIANTS.iter().find(|(orig, _)| orig == t) {
                Some((_, alts)) if rng.chance(1, 2) => alts[rng.index(alts.len())],
                _ => t.as_str(),
            })
            .collect();
        pairs.push((i, predicted.len()));
        predicted.push(Some(camel(&renamed)));
        if leaf {
            rng.chance(1, 8); // datatype drift
            if rng.chance(1, 16) {
                // A duplicated leaf under a fresh attribute: no gold partner.
                rng.index(ATTRIBUTES);
                rng.index(DATATYPES);
                predicted.push(None);
            }
        }
    }
    let actual: Vec<&str> = target.iter().map(|(_, n)| n.name.as_str()).collect();
    if actual.len() != predicted.len() {
        return Err(format!(
            "{}: gold replay predicts {} target nodes, the generator made {}",
            spec.label(),
            predicted.len(),
            actual.len()
        ));
    }
    if let Some(k) =
        (0..actual.len()).find(|&k| predicted[k].as_deref().is_some_and(|p| p != actual[k]))
    {
        return Err(format!(
            "{}: gold replay diverges at target node {k}: predicted {:?}, generated {:?}",
            spec.label(),
            predicted[k],
            actual[k]
        ));
    }
    let (sp, tp) = (
        PathSet::new(source).map_err(|e| e.to_string())?,
        PathSet::new(target).map_err(|e| e.to_string())?,
    );
    let full = |ps: &PathSet, schema: &Schema| -> Result<Vec<String>, String> {
        schema
            .node_ids()
            .map(|id| match ps.paths_of_node(id) {
                [path] => Ok(ps.full_name(schema, *path)),
                other => Err(format!("generated node {id} has {} paths", other.len())),
            })
            .collect()
    };
    let (source_names, target_names) = (full(&sp, source)?, full(&tp, target)?);
    Ok(pairs
        .into_iter()
        .map(|(s, t)| (source_names[s].clone(), target_names[t].clone()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_bench::workload::{generate_task, WorkloadShape};

    #[test]
    fn replay_matches_the_generator_on_every_shape() {
        for shape in [
            WorkloadShape::Deep,
            WorkloadShape::Star,
            WorkloadShape::Wide,
            WorkloadShape::Catalog,
        ] {
            for seed in [1, 42, 977] {
                let spec = WorkloadSpec::new(shape, 700, seed);
                let (source, target) = generate_task(&spec);
                let gold = prototype_gold(&spec, &source, &target).unwrap();
                // Sibling leaves may share a name, so the gold pairs full
                // names; only dropped leaves lack a partner, so most
                // distinct source names have one.
                let sp = PathSet::new(&source).unwrap();
                let names: BTreeSet<String> = sp.iter().map(|p| sp.full_name(&source, p)).collect();
                let covered: BTreeSet<&String> = gold.iter().map(|(s, _)| s).collect();
                assert!(covered.iter().all(|s| names.contains(*s)));
                assert!(covered.len() * 10 > names.len() * 8, "{shape:?} {seed}");
                assert!(gold.iter().any(|(s, _)| s == "purchaseOrder"));
            }
        }
    }

    #[test]
    fn camel_round_trips_tokens() {
        assert_eq!(tokens("shipCustomerName"), ["ship", "customer", "name"]);
        assert_eq!(camel(&["ship", "customer"]), "shipCustomer");
    }
}
