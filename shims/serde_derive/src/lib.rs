//! Derive macros for the offline `serde` stand-in.
//!
//! Implemented directly on `proc_macro` token trees (no `syn`/`quote`,
//! which are registry crates and unavailable offline). Supports the item
//! shapes this workspace uses:
//!
//! * structs with named fields,
//! * tuple structs (any arity),
//! * unit structs,
//! * enums whose variants are unit or tuple variants.
//!
//! Generics and `#[serde(...)]` attributes are intentionally unsupported;
//! hitting one is a compile error rather than silent misbehavior.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    NamedStruct {
        name: String,
        fields: Vec<String>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<(String, usize)>,
    },
}

/// Derives `serde::Serialize`: a `serialize` method that streams the
/// value into a `serde::Serializer`. Named structs become string-keyed
/// maps, newtypes their inner value, other tuple structs sequences, unit
/// structs `null`; unit variants become their name and data variants a
/// one-entry map from the name to the payload (a sequence when the
/// variant has more than one field).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = parse_shape(input);
    let (name, body) = match &shape {
        Shape::NamedStruct { name, fields } => {
            let fields: Vec<String> = fields
                .iter()
                .map(|f| format!("out.field(\"{f}\", &self.{f});"))
                .collect();
            (
                name,
                format!("out.begin_map(true); {} out.end_map();", fields.concat()),
            )
        }
        Shape::TupleStruct { name, arity: 1 } => {
            (name, "::serde::Serialize::serialize(&self.0, out);".into())
        }
        Shape::TupleStruct { name, arity } => {
            let items: Vec<String> = (0..*arity).map(|i| format!("&self.{i}")).collect();
            (name, serialize_seq(&items))
        }
        Shape::UnitStruct { name } => (name, "out.null();".into()),
        Shape::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, arity)| match arity {
                    0 => format!("{name}::{v} => out.str(\"{v}\"),"),
                    1 => format!(
                        "{name}::{v}(x0) => {{ \
                           out.begin_map(true); out.field(\"{v}\", x0); out.end_map(); }}"
                    ),
                    n => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                        format!(
                            "{name}::{v}({}) => {{ \
                               out.begin_map(true); out.key(); out.str(\"{v}\"); out.value(); \
                               {} out.end_map(); }}",
                            binds.join(", "),
                            serialize_seq(&binds)
                        )
                    }
                })
                .collect();
            (name, format!("match self {{ {} }}", arms.join("\n")))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
           fn serialize<__S: ::serde::Serializer>(&self, out: &mut __S) {{\n\
             {body}\n\
           }}\n\
         }}"
    )
    .parse()
    .expect("serde_derive generated invalid Serialize impl")
}

/// Statements serializing `items` (expressions of reference type) as one
/// sequence.
fn serialize_seq(items: &[String]) -> String {
    let elements: Vec<String> = items
        .iter()
        .map(|item| format!("out.element(); ::serde::Serialize::serialize({item}, out);"))
        .collect();
    format!("out.begin_seq(); {} out.end_seq();", elements.concat())
}

/// Derives `serde::Deserialize`: a `deserialize` method that pulls the
/// shape `Serialize` writes back out of a `serde::Deserializer`. Struct
/// fields may arrive in any order; unknown fields are skipped, a repeated
/// field keeps its first value and a missing one is an error. A tuple
/// struct or tuple variant must have exactly its arity.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = parse_shape(input);
    let (name, body) = match &shape {
        Shape::NamedStruct { name, fields } => {
            let slots: Vec<String> = fields
                .iter()
                .map(|f| format!("let mut f_{f} = ::std::option::Option::None;"))
                .collect();
            let names: Vec<String> = fields.iter().map(|f| format!("\"{f}\"")).collect();
            let arms: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{i} => ::serde::first(__d, &mut f_{f}),"))
                .collect();
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::required(f_{f}, \"{f}\")?,"))
                .collect();
            let body = format!(
                "{}\n\
                 ::serde::fields(__d, &[{}], |__d, __i| match __i {{\n\
                   {} _ => ::serde::Deserializer::skip(__d),\n\
                 }})?;\n\
                 ::std::result::Result::Ok({name} {{ {} }})",
                slots.concat(),
                names.join(", "),
                arms.concat(),
                inits.concat()
            );
            (name, body)
        }
        Shape::TupleStruct { name, arity: 1 } => (
            name,
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__d)?))"),
        ),
        Shape::TupleStruct { name, arity } => (name, deserialize_tuple(name, *arity)),
        Shape::UnitStruct { name } => (
            name,
            format!("::serde::Deserializer::skip(__d)?; ::std::result::Result::Ok({name})"),
        ),
        Shape::Enum { name, variants } => {
            let list: Vec<String> = variants
                .iter()
                .map(|(v, arity)| format!("(\"{v}\", {})", *arity > 0))
                .collect();
            let arms: Vec<String> = variants
                .iter()
                .enumerate()
                .map(|(i, (v, arity))| match arity {
                    0 => format!("{i} => ::std::result::Result::Ok({name}::{v}),"),
                    1 => format!(
                        "{i} => ::std::result::Result::Ok(\
                           {name}::{v}(::serde::Deserialize::deserialize(__d)?)),"
                    ),
                    n => format!("{i} => {},", deserialize_tuple(&format!("{name}::{v}"), *n)),
                })
                .collect();
            let body = format!(
                "::serde::variant(__d, \"{name}\", &[{}], |__d, __i| match __i {{\n\
                   {}\n\
                   _ => ::std::unreachable!(),\n\
                 }})",
                list.join(", "),
                arms.join("\n")
            );
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
           fn deserialize<__D: ::serde::Deserializer>(__d: &mut __D) \
             -> ::std::result::Result<Self, ::serde::DeError> {{\n\
             {body}\n\
           }}\n\
         }}"
    )
    .parse()
    .expect("serde_derive generated invalid Deserialize impl")
}

/// An expression reading a sequence of exactly `arity` items into
/// `ctor(..)`.
fn deserialize_tuple(ctor: &str, arity: usize) -> String {
    let items = vec!["::serde::element(__d)?"; arity];
    format!(
        "::serde::tuple(__d, |__d| ::std::result::Result::Ok({ctor}({})))",
        items.join(", ")
    )
}

// --- item parsing --------------------------------------------------------

fn parse_shape(input: TokenStream) -> Shape {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attributes_and_visibility(&tokens, &mut i);

    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected item name, got {other:?}"),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim does not support generic type `{name}`");
    }

    match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::NamedStruct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct {
                    name,
                    arity: count_top_level_fields(g.stream()),
                }
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct { name },
            other => panic!("serde_derive: unexpected struct body {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("serde_derive: unexpected enum body {other:?}"),
        },
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    }
}

fn skip_attributes_and_visibility(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            // `#[...]` attribute: pound + bracket group.
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                // `pub(crate)` / `pub(super)` restriction group.
                if matches!(tokens.get(*i), Some(TokenTree::Group(g))
                    if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Field names of a named-field struct body.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive: expected field name, got {other:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive: expected `:` after field `{name}`, got {other:?}"),
        }
        skip_type(&tokens, &mut i);
        fields.push(name);
        // Consume the separating comma, if any.
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    fields
}

/// Skips one type, stopping at a top-level `,` (angle-bracket aware).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0usize;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                ',' if angle_depth == 0 => return,
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                // `->` in fn-pointer types: skip the arrow's `>` as a pair.
                '-' => {
                    if matches!(tokens.get(*i + 1), Some(TokenTree::Punct(q)) if q.as_char() == '>')
                    {
                        *i += 1;
                    }
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

/// Number of top-level comma-separated fields in a tuple body.
fn count_top_level_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut i);
        count += 1;
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    count
}

/// `(variant name, payload arity)` pairs of an enum body.
fn parse_variants(stream: TokenStream) -> Vec<(String, usize)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive: expected variant name, got {other:?}"),
        };
        i += 1;
        let arity = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                count_top_level_fields(g.stream())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                panic!("serde_derive shim does not support struct variant `{name}`");
            }
            _ => 0,
        };
        variants.push((name, arity));
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    variants
}
