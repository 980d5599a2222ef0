//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for
//! the shapes this workspace actually uses — non-generic structs
//! (named, tuple, unit) and enums (unit, tuple, and struct variants) —
//! without `syn`/`quote`, by walking the raw token stream. Generated
//! code targets the vendored `serde` shim's `to_value`/`from_value`
//! traits and follows serde's externally-tagged enum representation
//! and transparent newtype structs.
//!
//! No `#[serde(...)]` attribute is implemented, and none is ignored: a
//! type, variant or field that carries one fails to compile with a
//! message naming it (real serde would change the output for `skip`,
//! `default`, `rename`, ... — silently not doing so is how a wall-clock
//! field ends up in a byte-compared report). The `serde` shim's crate
//! docs hold the `compile_fail` test.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Field layout of a struct or of one enum variant.
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

enum Kind {
    Struct(Shape),
    Enum(Vec<(String, Shape)>),
}

struct Input {
    name: String,
    kind: Kind,
}

type Toks = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Skips the attributes in front of an item (doc comments, `#[default]`,
/// ...) and reports whether one of them was `#[serde(...)]`, which the
/// caller hands to [`reject_serde_attr`] once it knows the item's name.
#[must_use]
fn skip_attrs(toks: &mut Toks) -> bool {
    let mut serde_attr = false;
    while let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() != '#' {
            break;
        }
        toks.next();
        // The bracketed attribute body.
        if let Some(TokenTree::Group(g)) = toks.next() {
            let head = g.stream().into_iter().next();
            serde_attr |= matches!(head, Some(TokenTree::Ident(id)) if id.to_string() == "serde");
        }
    }
    serde_attr
}

/// Fails the derive — a compile error — when `what` carried a
/// `#[serde(...)]` attribute.
fn reject_serde_attr(seen: bool, what: &str) {
    assert!(
        !seen,
        "serde shim derive: `#[serde(...)]` on {what} is not supported — this stand-in \
         implements no serde attributes and will not ignore one silently"
    );
}

fn skip_vis(toks: &mut Toks) {
    if let Some(TokenTree::Ident(id)) = toks.peek() {
        if id.to_string() == "pub" {
            toks.next();
            if let Some(TokenTree::Group(g)) = toks.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    // pub(crate) / pub(super) restriction.
                    toks.next();
                }
            }
        }
    }
}

/// Consumes tokens up to (and including) a comma at angle-bracket depth
/// zero. Groups are single tokens, so only `<`/`>` need tracking.
/// Returns true if any token (i.e. a field) was consumed before the
/// comma or end of stream.
fn skip_past_comma(toks: &mut Toks) -> bool {
    let mut depth = 0i32;
    let mut any = false;
    for tok in toks.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return true,
                _ => {}
            }
        }
        any = true;
    }
    any
}

fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let mut toks: Toks = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let serde_attr = skip_attrs(&mut toks);
        skip_vis(&mut toks);
        match toks.next() {
            Some(TokenTree::Ident(id)) => {
                reject_serde_attr(serde_attr, &format!("field `{id}`"));
                fields.push(id.to_string());
                // Consume ':' then the type up to the next field.
                let colon = toks.next();
                assert!(
                    matches!(&colon, Some(TokenTree::Punct(p)) if p.as_char() == ':'),
                    "serde shim derive: expected `:` after field `{}`",
                    fields.last().unwrap()
                );
                skip_past_comma(&mut toks);
            }
            Some(other) => panic!("serde shim derive: unexpected token in fields: {other}"),
            None => break,
        }
    }
    fields
}

fn parse_tuple_arity(body: TokenStream) -> usize {
    let mut toks: Toks = body.into_iter().peekable();
    let mut arity = 0;
    loop {
        reject_serde_attr(skip_attrs(&mut toks), &format!("tuple field {arity}"));
        skip_vis(&mut toks);
        if toks.peek().is_none() {
            break;
        }
        if skip_past_comma(&mut toks) {
            arity += 1;
        } else {
            break;
        }
    }
    arity
}

fn parse_shape_after_name(toks: &mut Toks) -> Shape {
    match toks.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let g = match toks.next() {
                Some(TokenTree::Group(g)) => g,
                _ => unreachable!(),
            };
            Shape::Named(parse_named_fields(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let g = match toks.next() {
                Some(TokenTree::Group(g)) => g,
                _ => unreachable!(),
            };
            Shape::Tuple(parse_tuple_arity(g.stream()))
        }
        _ => Shape::Unit,
    }
}

fn parse_input(input: TokenStream) -> Input {
    let mut toks: Toks = input.into_iter().peekable();
    let serde_attr = skip_attrs(&mut toks);
    skip_vis(&mut toks);
    let kw = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    reject_serde_attr(serde_attr, &format!("type `{name}`"));
    if let Some(TokenTree::Punct(p)) = toks.peek() {
        assert!(p.as_char() != '<', "serde shim derive: generic type `{name}` not supported");
    }
    let kind = match kw.as_str() {
        "struct" => Kind::Struct(parse_shape_after_name(&mut toks)),
        "enum" => {
            let body = match toks.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde shim derive: expected enum body, got {other:?}"),
            };
            let mut vt: Toks = body.into_iter().peekable();
            let mut variants = Vec::new();
            loop {
                let serde_attr = skip_attrs(&mut vt);
                match vt.next() {
                    Some(TokenTree::Ident(id)) => {
                        let vname = id.to_string();
                        reject_serde_attr(serde_attr, &format!("variant `{vname}`"));
                        let shape = parse_shape_after_name(&mut vt);
                        variants.push((vname, shape));
                        // Consume trailing `,` (and any `= disc`).
                        skip_past_comma(&mut vt);
                    }
                    Some(other) => {
                        panic!("serde shim derive: unexpected token in enum body: {other}")
                    }
                    None => break,
                }
            }
            Kind::Enum(variants)
        }
        other => panic!("serde shim derive: cannot derive for `{other}`"),
    };
    Input { name, kind }
}

fn obj_literal(pairs: &[(String, String)]) -> String {
    let items: Vec<String> =
        pairs.iter().map(|(k, v)| format!("({k:?}.to_string(), {v})")).collect();
    format!("::serde::Value::Obj(vec![{}])", items.join(", "))
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct(Shape::Unit) => "::serde::Value::Null".to_string(),
        Kind::Struct(Shape::Tuple(1)) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> =
                (0..*n).map(|i| format!("::serde::Serialize::to_value(&self.{i})")).collect();
            format!("::serde::Value::Arr(vec![{}])", items.join(", "))
        }
        Kind::Struct(Shape::Named(fields)) => {
            let pairs: Vec<(String, String)> = fields
                .iter()
                .map(|f| (f.clone(), format!("::serde::Serialize::to_value(&self.{f})")))
                .collect();
            obj_literal(&pairs)
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for (v, shape) in variants {
                let arm = match shape {
                    Shape::Unit => {
                        format!("{name}::{v} => ::serde::Value::Str({v:?}.to_string()),")
                    }
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::to_value(x0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Arr(vec![{}])", items.join(", "))
                        };
                        format!(
                            "{name}::{v}({binds}) => ::serde::Value::Obj(vec![({v:?}.to_string(), {inner})]),",
                            binds = binds.join(", ")
                        )
                    }
                    Shape::Named(fields) => {
                        let pairs: Vec<(String, String)> = fields
                            .iter()
                            .map(|f| (f.clone(), format!("::serde::Serialize::to_value({f})")))
                            .collect();
                        let inner = obj_literal(&pairs);
                        format!(
                            "{name}::{v} {{ {fields} }} => ::serde::Value::Obj(vec![({v:?}.to_string(), {inner})]),",
                            fields = fields.join(", ")
                        )
                    }
                };
                arms.push_str(&arm);
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct(Shape::Unit) => format!("Ok({name})"),
        Kind::Struct(Shape::Tuple(1)) => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Kind::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> =
                (0..*n).map(|i| format!("::serde::Deserialize::from_value(&xs[{i}])?")).collect();
            format!(
                "match v {{\n\
                     ::serde::Value::Arr(xs) if xs.len() == {n} => Ok({name}({items})),\n\
                     other => Err(::serde::DeError(format!(\"expected {n}-tuple for {name}, got {{other:?}}\"))),\n\
                 }}",
                items = items.join(", ")
            )
        }
        Kind::Struct(Shape::Named(fields)) => {
            let items: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("{f}: ::serde::Deserialize::from_value(::serde::field(v, {f:?})?)?")
                })
                .collect();
            format!("Ok({name} {{ {} }})", items.join(", "))
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for (v, shape) in variants {
                match shape {
                    Shape::Unit => {
                        unit_arms.push_str(&format!("{v:?} => return Ok({name}::{v}),"));
                        // Also accept the tagged-null form for robustness.
                        tagged_arms.push_str(&format!("{v:?} => return Ok({name}::{v}),"));
                    }
                    Shape::Tuple(1) => {
                        tagged_arms.push_str(&format!(
                            "{v:?} => return Ok({name}::{v}(::serde::Deserialize::from_value(inner)?)),"
                        ));
                    }
                    Shape::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&xs[{i}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "{v:?} => match inner {{\n\
                                 ::serde::Value::Arr(xs) if xs.len() == {n} => return Ok({name}::{v}({items})),\n\
                                 other => return Err(::serde::DeError(format!(\"bad payload for {name}::{v}: {{other:?}}\"))),\n\
                             }},",
                            items = items.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        let items: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_value(::serde::field(inner, {f:?})?)?"
                                )
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "{v:?} => return Ok({name}::{v} {{ {items} }}),",
                            items = items.join(", ")
                        ));
                    }
                }
            }
            format!(
                "match v {{\n\
                     ::serde::Value::Str(s) => match s.as_str() {{ {unit_arms} _ => {{}} }},\n\
                     ::serde::Value::Obj(pairs) if pairs.len() == 1 => {{\n\
                         let (tag, inner) = &pairs[0];\n\
                         let _ = inner;\n\
                         match tag.as_str() {{ {tagged_arms} _ => {{}} }}\n\
                     }}\n\
                     _ => {{}}\n\
                 }}\n\
                 Err(::serde::DeError(format!(\"no matching variant of {name} for {{v:?}}\")))"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
}

/// Derives the shim `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("serde shim derive: generated Serialize impl failed to parse")
}

/// Derives the shim `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("serde shim derive: generated Deserialize impl failed to parse")
}
