//! Golden JSON output: the exact bytes the serde and serde_json shims
//! write for the shapes the workspace persists and sends on the wire,
//! compact and pretty. Repository files, server frames, `coma-cli --json`
//! and `perf_smoke` reports are all these bytes, so any change to the
//! writer shows up here first.

use coma::core::{CacheStats, ComposeCombine};
use coma::graph::{DataType, Node, Schema, SchemaBuilder};
use coma::repo::{Correspondence, Mapping, MappingKind, Repository};
use coma::server::{
    InlineSchema, MatchResponse, PlanSpec, RankedCorrespondence, Request, Response, ReuseSpec,
    SchemaFormat, SchemaInfo,
};
use std::collections::BTreeMap;

#[track_caller]
fn check<T: serde::Serialize>(value: &T, compact: &str, pretty: &str) {
    assert_eq!(serde_json::to_string(value).unwrap(), compact);
    assert_eq!(serde_json::to_string_pretty(value).unwrap(), pretty);
}

fn tiny_schema() -> Schema {
    let mut b = SchemaBuilder::new("S");
    let root = b.add_node(Node::new("S"));
    let leaf = b.add_node(
        Node::new("id")
            .with_datatype(DataType::Integer)
            .with_type_name("INT"),
    );
    b.add_child(root, leaf).unwrap();
    b.add_reference(leaf, root, None).unwrap();
    b.build().unwrap()
}

#[test]
fn named_struct() {
    check(
        &Correspondence {
            source: "PO1.shipTo".into(),
            target: "PO2.deliverTo".into(),
            similarity: 0.75,
        },
        r#"{"source":"PO1.shipTo","target":"PO2.deliverTo","similarity":0.75}"#,
        r#"{
  "source": "PO1.shipTo",
  "target": "PO2.deliverTo",
  "similarity": 0.75
}"#,
    );
}

#[test]
fn newtype_and_none_inside_a_schema() {
    let schema = tiny_schema();
    check(&schema.root(), "0", "0");
    check(
        &schema,
        r#"{"name":"S","nodes":[{"name":"S","datatype":null,"type_name":null,"annotation":null},{"name":"id","datatype":"Integer","type_name":"INT","annotation":null}],"children":[[1],[]],"parents":[[],[0]],"references":[{"from":1,"to":0,"label":null}],"root":0}"#,
        r#"{
  "name": "S",
  "nodes": [
    {
      "name": "S",
      "datatype": null,
      "type_name": null,
      "annotation": null
    },
    {
      "name": "id",
      "datatype": "Integer",
      "type_name": "INT",
      "annotation": null
    }
  ],
  "children": [
    [
      1
    ],
    []
  ],
  "parents": [
    [],
    [
      0
    ]
  ],
  "references": [
    {
      "from": 1,
      "to": 0,
      "label": null
    }
  ],
  "root": 0
}"#,
    );
}

#[test]
fn unit_and_data_enum_variants() {
    check(&MappingKind::Manual, r#""Manual""#, r#""Manual""#);
    check(&Request::Ping, r#""Ping""#, r#""Ping""#);
    check(
        &Request::Stats("acme".into()),
        r#"{"Stats":"acme"}"#,
        r#"{
  "Stats": "acme"
}"#,
    );
    check(
        &Request::PutSchema(
            "acme".into(),
            InlineSchema {
                name: "PO1".into(),
                format: SchemaFormat::Sql,
                text: "CREATE TABLE t (a INT);\n".into(),
            },
        ),
        r#"{"PutSchema":["acme",{"name":"PO1","format":"Sql","text":"CREATE TABLE t (a INT);\n"}]}"#,
        r#"{
  "PutSchema": [
    "acme",
    {
      "name": "PO1",
      "format": "Sql",
      "text": "CREATE TABLE t (a INT);\n"
    }
  ]
}"#,
    );
    check(
        &PlanSpec::TopKPruned(5),
        r#"{"TopKPruned":5}"#,
        r#"{
  "TopKPruned": 5
}"#,
    );
    check(
        &PlanSpec::Reuse(ReuseSpec {
            kind: Some(MappingKind::Automatic),
            compose: ComposeCombine::Average,
            max_hops: 3,
        }),
        r#"{"Reuse":{"kind":"Automatic","compose":"Average","max_hops":3}}"#,
        r#"{
  "Reuse": {
    "kind": "Automatic",
    "compose": "Average",
    "max_hops": 3
  }
}"#,
    );
}

#[test]
fn response_with_options_and_nested_structs() {
    check(
        &Response::Matched(MatchResponse {
            source: "a".into(),
            target: "b".into(),
            correspondences: vec![RankedCorrespondence {
                source_path: "a.x".into(),
                target_path: "b.x".into(),
                similarity: 1.0,
            }],
            elapsed_micros: 1234,
            cache: CacheStats::default(),
            reused: Some(true),
            reuse_path: None,
            diagnostics: Vec::new(),
        }),
        r#"{"Matched":{"source":"a","target":"b","correspondences":[{"source_path":"a.x","target_path":"b.x","similarity":1.0}],"elapsed_micros":1234,"cache":{"matrix_hits":0,"matrix_misses":0,"index_hits":0,"index_misses":0,"result_hits":0,"result_misses":0,"token_entries":0,"matrix_entries":0,"index_entries":0},"reused":true,"reuse_path":null,"diagnostics":[]}}"#,
        r#"{
  "Matched": {
    "source": "a",
    "target": "b",
    "correspondences": [
      {
        "source_path": "a.x",
        "target_path": "b.x",
        "similarity": 1.0
      }
    ],
    "elapsed_micros": 1234,
    "cache": {
      "matrix_hits": 0,
      "matrix_misses": 0,
      "index_hits": 0,
      "index_misses": 0,
      "result_hits": 0,
      "result_misses": 0,
      "token_entries": 0,
      "matrix_entries": 0,
      "index_entries": 0
    },
    "reused": true,
    "reuse_path": null,
    "diagnostics": []
  }
}"#,
    );
    check(
        &Response::SchemaStored(SchemaInfo {
            name: "PO1".into(),
            nodes: 3,
            paths: 4,
        }),
        r#"{"SchemaStored":{"name":"PO1","nodes":3,"paths":4}}"#,
        r#"{
  "SchemaStored": {
    "name": "PO1",
    "nodes": 3,
    "paths": 4
  }
}"#,
    );
}

#[test]
fn empty_containers() {
    check(
        &Response::Schemas(Vec::new()),
        r#"{"Schemas":[]}"#,
        r#"{
  "Schemas": []
}"#,
    );
    check(
        &Repository::new(),
        r#"{"schemas":{},"mappings":[],"cubes":[]}"#,
        r#"{
  "schemas": {},
  "mappings": [],
  "cubes": []
}"#,
    );
    check(&BTreeMap::<String, u32>::new(), "{}", "{}");
    check(
        &vec![Vec::<u32>::new(), vec![1]],
        "[[],[1]]",
        r#"[
  [],
  [
    1
  ]
]"#,
    );
    check(
        &Mapping::new("A", "B", MappingKind::Automatic),
        r#"{"source_schema":"A","target_schema":"B","kind":"Automatic","correspondences":[]}"#,
        r#"{
  "source_schema": "A",
  "target_schema": "B",
  "kind": "Automatic",
  "correspondences": []
}"#,
    );
}

#[test]
fn map_keys_decide_object_or_pairs() {
    let mut tuple_keyed = BTreeMap::new();
    tuple_keyed.insert(("b".to_string(), 2u32), 0.5f64);
    tuple_keyed.insert(("a".to_string(), 1u32), 0.25f64);
    check(
        &tuple_keyed,
        r#"[[["a",1],0.25],[["b",2],0.5]]"#,
        r#"[
  [[
    "a",
    1
  ], 0.25],
  [[
    "b",
    2
  ], 0.5]
]"#,
    );

    let mut nested = BTreeMap::new();
    nested.insert(
        ("x".to_string(), "y".to_string()),
        BTreeMap::from([("k", vec![1u8, 2])]),
    );
    check(
        &nested,
        r#"[[["x","y"],{"k":[1,2]}]]"#,
        r#"[
  [[
    "x",
    "y"
  ], {
    "k": [
      1,
      2
    ]
  }]
]"#,
    );

    // `None` is not a string key, so one `None` turns the whole map into
    // pairs; string-valued enum variants and `Some` strings stay objects.
    let mixed = BTreeMap::from([(None, 1u32), (Some("a".to_string()), 2)]);
    check(
        &mixed,
        r#"[[null,1],["a",2]]"#,
        r#"[
  [null, 1],
  ["a", 2]
]"#,
    );
    let strings_only = BTreeMap::from([(Some("a".to_string()), 2u32)]);
    check(
        &strings_only,
        r#"{"a":2}"#,
        r#"{
  "a": 2
}"#,
    );
    let enum_keyed = BTreeMap::from([(DataType::Text, 1u32), (DataType::Date, 2)]);
    check(
        &enum_keyed,
        r#"{"Text":1,"Date":2}"#,
        r#"{
  "Text": 1,
  "Date": 2
}"#,
    );
    let int_keyed = BTreeMap::from([(7u32, "seven"), (1, "one")]);
    check(
        &int_keyed,
        r#"[[1,"one"],[7,"seven"]]"#,
        r#"[
  [1, "one"],
  [7, "seven"]
]"#,
    );
}

#[test]
fn floats_including_non_finite() {
    check(
        &vec![
            0.0,
            -0.0,
            1.0,
            0.1,
            1.0 / 3.0,
            1e21,
            1e-7,
            123456789.125,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ],
        "[0.0,-0.0,1.0,0.1,0.3333333333333333,1e21,1e-7,123456789.125,1.7976931348623157e308,2.2250738585072014e-308,null,null,null]",
        r#"[
  0.0,
  -0.0,
  1.0,
  0.1,
  0.3333333333333333,
  1e21,
  1e-7,
  123456789.125,
  1.7976931348623157e308,
  2.2250738585072014e-308,
  null,
  null,
  null
]"#,
    );
    check(
        &vec![0.1f32, f32::NAN],
        "[0.10000000149011612,null]",
        r#"[
  0.10000000149011612,
  null
]"#,
    );
}

#[test]
fn integers_at_the_edges() {
    check(
        &vec![0u64, u64::MAX, i64::MAX as u64 + 1],
        "[0,18446744073709551615,9223372036854775808]",
        r#"[
  0,
  18446744073709551615,
  9223372036854775808
]"#,
    );
    check(
        &vec![i64::MIN, -1, 0, i64::MAX],
        "[-9223372036854775808,-1,0,9223372036854775807]",
        r#"[
  -9223372036854775808,
  -1,
  0,
  9223372036854775807
]"#,
    );
    check(
        &(i8::MIN, u8::MAX, -32768i16, usize::MAX),
        "[-128,255,-32768,18446744073709551615]",
        r#"[
  -128,
  255,
  -32768,
  18446744073709551615
]"#,
    );
}

#[test]
fn string_escapes() {
    check(
        &"quote \" backslash \\ slash /".to_string(),
        r#""quote \" backslash \\ slash /""#,
        r#""quote \" backslash \\ slash /""#,
    );
    check(
        &"nl \n cr \r tab \t bs \u{8} ff \u{c}".to_string(),
        r#""nl \n cr \r tab \t bs \u0008 ff \u000c""#,
        r#""nl \n cr \r tab \t bs \u0008 ff \u000c""#,
    );
    check(
        &"nul \u{0} bell \u{7} us \u{1f} del \u{7f}".to_string(),
        "\"nul \\u0000 bell \\u0007 us \\u001f del \u{7f}\"",
        "\"nul \\u0000 bell \\u0007 us \\u001f del \u{7f}\"",
    );
    check(
        &"é ü ß 中文 😀 \u{2028}".to_string(),
        "\"é ü ß 中文 😀 \u{2028}\"",
        "\"é ü ß 中文 😀 \u{2028}\"",
    );
    check(&'"', r#""\"""#, r#""\"""#);
    check(
        &vec![String::new()],
        r#"[""]"#,
        r#"[
  ""
]"#,
    );
}
