//! Offline stand-in for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! for the stand-in `serde`'s tree-based traits.
//!
//! Written against bare `proc_macro` (no `syn`/`quote`, which need a
//! registry): the item is parsed just far enough to learn its shape —
//! field names, tuple arity, variant kinds — and the impl is assembled
//! as source text. Field *types* are never parsed; inference from the
//! struct literal picks the right `Deserialize` impl. Supported: structs
//! (named, tuple, unit) and enums (unit, newtype, tuple, struct variants)
//! without generics, plus `#[serde(default)]` on named fields. Anything
//! else fails the build with a message, never silently.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

/// One named field and whether it carries `#[serde(default)]`.
struct Field {
    name: String,
    default: bool,
}

/// The body of a struct or of one enum variant.
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

enum Item {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<(String, Shape)>,
    },
}

/// Derives the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (name, body) = match &item {
        Item::Struct { name, shape } => (name, serialize_struct(shape)),
        Item::Enum { name, variants } => (name, serialize_enum(name, variants)),
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (name, body) = match &item {
        Item::Struct { name, shape } => {
            let build = deserialize_shape(name, &format!("struct {name}"), shape, "value");
            (name, format!("::core::result::Result::Ok({build})"))
        }
        Item::Enum { name, variants } => (name, deserialize_enum(name, variants)),
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(value: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

// ---- code generation ----

const TO_VALUE: &str = "::serde::Serialize::to_value";
const PRIVATE: &str = "::serde::__private";

/// `{ let mut map = Map::new(); map.insert(..)..; Value::Object(map) }`
/// over `fields`, reading each through `access(name)`.
fn object_of(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::from("{ let mut map = ::serde::Map::new();");
    for field in fields {
        out += &format!(
            "map.insert(::std::string::String::from({:?}), {TO_VALUE}({}));",
            field.name,
            access(&field.name)
        );
    }
    out + "::serde::Value::Object(map) }"
}

fn array_of(len: usize, access: impl Fn(usize) -> String) -> String {
    let items: Vec<String> = (0..len)
        .map(|i| format!("{TO_VALUE}({})", access(i)))
        .collect();
    format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
}

fn serialize_struct(shape: &Shape) -> String {
    match shape {
        Shape::Unit => "::serde::Value::Null".to_owned(),
        Shape::Tuple(1) => format!("{TO_VALUE}(&self.0)"),
        Shape::Tuple(len) => array_of(*len, |i| format!("&self.{i}")),
        Shape::Named(fields) => object_of(fields, |name| format!("&self.{name}")),
    }
}

fn serialize_enum(name: &str, variants: &[(String, Shape)]) -> String {
    if variants.is_empty() {
        return "match *self {}".to_owned();
    }
    let mut arms = String::new();
    for (variant, shape) in variants {
        let tagged = |body: String| {
            format!(
                "{{ let mut tagged = ::serde::Map::new(); \
                 tagged.insert(::std::string::String::from({variant:?}), {body}); \
                 ::serde::Value::Object(tagged) }}"
            )
        };
        arms += &match shape {
            Shape::Unit => format!(
                "{name}::{variant} => ::serde::Value::String(::std::string::String::from({variant:?})),"
            ),
            Shape::Tuple(len) => {
                let binds: Vec<String> = (0..*len).map(|i| format!("f{i}")).collect();
                let body = if *len == 1 {
                    format!("{TO_VALUE}(f0)")
                } else {
                    array_of(*len, |i| format!("f{i}"))
                };
                format!("{name}::{variant}({}) => {},", binds.join(", "), tagged(body))
            }
            Shape::Named(fields) => {
                let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                let body = object_of(fields, str::to_owned);
                format!("{name}::{variant} {{ {} }} => {},", binds.join(", "), tagged(body))
            }
        };
    }
    format!("match self {{ {arms} }}")
}

/// An expression building `path` (a struct or variant) from the JSON
/// value named by `source`.
fn deserialize_shape(path: &str, what: &str, shape: &Shape, source: &str) -> String {
    match shape {
        Shape::Unit => path.to_owned(),
        Shape::Tuple(1) => format!("{path}(::serde::Deserialize::from_value({source})?)"),
        Shape::Tuple(len) => {
            let items: Vec<String> = (0..*len)
                .map(|i| format!("{PRIVATE}::element({source}, {i}, {len})?"))
                .collect();
            format!("{path}({})", items.join(", "))
        }
        Shape::Named(fields) => {
            let items: Vec<String> = fields
                .iter()
                .map(|field| {
                    let helper = if field.default {
                        "field_or_default"
                    } else {
                        "field"
                    };
                    format!(
                        "{}: {PRIVATE}::{helper}({source}, {:?})?",
                        field.name, field.name
                    )
                })
                .collect();
            format!(
                "{{ {PRIVATE}::expect_object({source}, {what:?})?; {path} {{ {} }} }}",
                items.join(", ")
            )
        }
    }
}

fn deserialize_enum(name: &str, variants: &[(String, Shape)]) -> String {
    let mut arms = String::new();
    for (variant, shape) in variants {
        let path = format!("{name}::{variant}");
        arms += &match shape {
            Shape::Unit => format!("{variant:?} => ::core::result::Result::Ok({path}),"),
            shape => format!(
                "{variant:?} => {{ let body = {PRIVATE}::variant_body(body, tag)?; \
                 ::core::result::Result::Ok({}) }}",
                deserialize_shape(&path, &format!("variant {path}"), shape, "body")
            ),
        };
    }
    format!(
        "let (tag, body) = {PRIVATE}::variant(value)?; let _ = &body; \
         match tag {{ {arms} other => {PRIVATE}::unknown_variant(other, {name:?}), }}"
    )
}

// ---- parsing ----

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    let mut keyword = None;
    // Outer attributes and the visibility come first; neither matters.
    for token in tokens.by_ref() {
        if let TokenTree::Ident(ident) = &token {
            let text = ident.to_string();
            if text == "struct" || text == "enum" {
                keyword = Some(text);
                break;
            }
        }
    }
    let keyword = keyword.expect("derive input is a struct or an enum");
    let name = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => panic!("expected a type name, found {other:?}"),
    };
    match tokens.next() {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("the serde stand-in does not derive for generic type `{name}`")
        }
        Some(TokenTree::Group(group)) => match (keyword.as_str(), group.delimiter()) {
            ("struct", Delimiter::Brace) => Item::Struct {
                name,
                shape: Shape::Named(named_fields(&group)),
            },
            ("struct", Delimiter::Parenthesis) => Item::Struct {
                name,
                shape: Shape::Tuple(tuple_arity(&group)),
            },
            ("enum", Delimiter::Brace) => Item::Enum {
                name,
                variants: enum_variants(&group),
            },
            _ => panic!("unsupported body for `{name}`"),
        },
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item::Struct {
            name,
            shape: Shape::Unit,
        },
        other => panic!("unsupported item shape for `{name}`: {other:?}"),
    }
}

/// Splits a comma-separated group at its top-level commas. Angle
/// brackets are punctuation, not groups, so `BTreeMap<String, u64>`
/// needs explicit depth tracking.
fn split_top_level(group: &Group) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut depth = 0usize;
    for token in group.stream() {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        parts.last_mut().expect("never empty").push(token);
    }
    parts.retain(|part| !part.is_empty());
    parts
}

fn tuple_arity(group: &Group) -> usize {
    split_top_level(group).len()
}

/// Whether `attr` (the bracketed part of `#[...]`) is `serde(default)`.
/// Any other `serde(...)` content is refused: silently ignoring, say, a
/// `rename` would change the wire format.
fn is_serde_default(attr: &Group) -> bool {
    let mut tokens = attr.stream().into_iter();
    match (tokens.next(), tokens.next()) {
        (Some(TokenTree::Ident(ident)), Some(TokenTree::Group(args)))
            if ident.to_string() == "serde" =>
        {
            let args = args.stream().to_string();
            assert!(
                args == "default",
                "the serde stand-in supports only #[serde(default)], found #[serde({args})]"
            );
            true
        }
        _ => false,
    }
}

/// Strips leading attributes from one field or variant, returning
/// whether `#[serde(default)]` was among them, then any visibility.
fn strip_attrs_and_vis(part: &[TokenTree]) -> (bool, &[TokenTree]) {
    let mut default = false;
    let mut rest = part;
    loop {
        match rest {
            [TokenTree::Punct(p), TokenTree::Group(attr), tail @ ..] if p.as_char() == '#' => {
                default |= is_serde_default(attr);
                rest = tail;
            }
            [TokenTree::Ident(vis), TokenTree::Group(scope), tail @ ..]
                if vis.to_string() == "pub" && scope.delimiter() == Delimiter::Parenthesis =>
            {
                rest = tail;
            }
            [TokenTree::Ident(vis), tail @ ..] if vis.to_string() == "pub" => rest = tail,
            _ => return (default, rest),
        }
    }
}

fn ident_text(token: Option<&TokenTree>) -> String {
    match token {
        Some(TokenTree::Ident(ident)) => ident.to_string().trim_start_matches("r#").to_owned(),
        other => panic!("expected an identifier, found {other:?}"),
    }
}

fn named_fields(group: &Group) -> Vec<Field> {
    split_top_level(group)
        .iter()
        .map(|part| {
            let (default, rest) = strip_attrs_and_vis(part);
            Field {
                name: ident_text(rest.first()),
                default,
            }
        })
        .collect()
}

fn enum_variants(group: &Group) -> Vec<(String, Shape)> {
    split_top_level(group)
        .iter()
        .map(|part| {
            let (_, rest) = strip_attrs_and_vis(part);
            let name = ident_text(rest.first());
            let shape = match rest.get(1) {
                Some(TokenTree::Group(body)) if body.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(tuple_arity(body))
                }
                Some(TokenTree::Group(body)) if body.delimiter() == Delimiter::Brace => {
                    Shape::Named(named_fields(body))
                }
                // Nothing, or an explicit `= discriminant`.
                _ => Shape::Unit,
            };
            (name, shape)
        })
        .collect()
}
