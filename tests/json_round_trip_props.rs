//! Round-trip property of the repository's JSON: random schemas and
//! mappings, with arbitrary strings (control characters, quotes,
//! backslashes, non-ASCII, astral planes) and similarities in `[0, 1]`,
//! come back unchanged from `from_json(to_json(x))`, and the reloaded
//! repository serializes to the same bytes, pretty and compact.

use coma::graph::{DataType, Node, Schema, SchemaBuilder};
use coma::repo::{Mapping, MappingKind, Repository};
use proptest::collection::vec;
use proptest::prelude::*;

/// One character, drawn so that every escape class shows up often:
/// control characters, the JSON metacharacters, printable ASCII,
/// two-byte UTF-8 and anything up to the last plane (surrogates, which
/// are not characters, become U+FFFD).
fn any_char() -> impl Strategy<Value = char> {
    (0u32..5, 0u32..0x11_0000).prop_map(|(class, raw)| {
        let code = match class {
            0 => raw % 0x20,
            1 => [u32::from('"'), u32::from('\\'), u32::from('/'), 0x7f][raw as usize % 4],
            2 => 0x20 + raw % 0x5f,
            3 => 0x80 + raw % 0x780,
            _ => raw,
        };
        char::from_u32(code).unwrap_or('\u{fffd}')
    })
}

fn any_string() -> impl Strategy<Value = String> {
    vec(any_char(), 0..10).prop_map(|chars| chars.into_iter().collect())
}

const DATATYPES: [DataType; 4] = [
    DataType::Text,
    DataType::Integer,
    DataType::Decimal,
    DataType::Date,
];

/// A tree-shaped schema: node `i > 0` hangs under an earlier node, some
/// nodes carry types and annotations, and a few references link nodes.
fn any_schema() -> impl Strategy<Value = Schema> {
    let node = (
        any_string(),
        0usize..64,
        0usize..8,
        any_string(),
        any_string(),
    );
    (
        vec(node, 1..8),
        vec((0usize..64, 0usize..64, 0usize..2, any_string()), 0..3),
    )
        .prop_map(|(nodes, references)| {
            let mut b = SchemaBuilder::new(nodes[0].0.clone());
            let mut ids = Vec::new();
            for (i, (name, parent, typed, type_name, annotation)) in nodes.into_iter().enumerate() {
                let mut node = Node::new(name);
                if typed < DATATYPES.len() {
                    node = node
                        .with_datatype(DATATYPES[typed])
                        .with_type_name(type_name);
                }
                if typed % 2 == 0 {
                    node = node.with_annotation(annotation);
                }
                let id = b.add_node(node);
                if i > 0 {
                    b.add_child(ids[parent % i], id).unwrap();
                }
                ids.push(id);
            }
            for (from, to, labelled, label) in references {
                let label = (labelled == 1).then_some(label);
                b.add_reference(ids[from % ids.len()], ids[to % ids.len()], label)
                    .unwrap();
            }
            b.build().unwrap()
        })
}

fn any_mapping() -> impl Strategy<Value = Mapping> {
    (
        any_string(),
        any_string(),
        0usize..2,
        vec((any_string(), any_string(), 0.0f64..=1.0), 0..6),
    )
        .prop_map(|(source, target, manual, correspondences)| {
            let kind = if manual == 1 {
                MappingKind::Manual
            } else {
                MappingKind::Automatic
            };
            let mut m = Mapping::new(source, target, kind);
            for (s, t, sim) in correspondences {
                m.push(s, t, sim);
            }
            m
        })
}

proptest! {
    #[test]
    fn repositories_survive_a_json_round_trip(
        schemas in vec(any_schema(), 0..4),
        mappings in vec(any_mapping(), 0..4),
    ) {
        let mut repo = Repository::new();
        for schema in &schemas {
            repo.put_schema(schema.clone());
        }
        for mapping in &mappings {
            repo.put_mapping(mapping.clone());
        }

        let pretty = repo.to_json().unwrap();
        let back = Repository::from_json(&pretty).unwrap();
        prop_assert_eq!(back.schema_count(), repo.schema_count());
        for name in repo.schema_names() {
            prop_assert_eq!(back.schema(name), repo.schema(name));
        }
        prop_assert_eq!(back.mappings(), repo.mappings());
        prop_assert_eq!(back.to_json().unwrap(), pretty);

        let compact = serde_json::to_string(&repo).unwrap();
        let back: Repository = serde_json::from_str(&compact).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), compact);
    }
}
