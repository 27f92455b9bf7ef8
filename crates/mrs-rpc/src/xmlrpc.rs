//! XML-RPC value model, serializer, and parser.
//!
//! Mrs "uses XML-RPC because it is included in the Python standard library
//! even though other protocols are more efficient" (§IV-B). We reproduce
//! that choice: the master/slave control channel speaks genuine XML-RPC
//! (`<methodCall>`/`<methodResponse>` documents over HTTP POST). The parser
//! is a small recursive-descent reader for the XML subset XML-RPC uses —
//! elements without attributes, character data, and the five standard
//! entities.
//!
//! The codec sits on every control round trip, so neither direction
//! allocates per tag or per number: the parser matches an expected tag by
//! stripping `<`, the name and `>` off the input, reads a value's type
//! tag once and dispatches on the name, and borrows character data that
//! holds no entity; the writer formats numbers straight into the
//! document. What is accepted, what is rejected (and with which message)
//! and the bytes produced are pinned by the tests below against the
//! previous, `format!`-per-probe implementation.

use crate::base64;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// An XML-RPC value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `<int>` / `<i4>` (we allow the full i64 range, like Python).
    Int(i64),
    /// `<boolean>`
    Bool(bool),
    /// `<string>`
    Str(String),
    /// `<double>`
    Double(f64),
    /// `<base64>`
    Bytes(Vec<u8>),
    /// `<array>`
    Array(Vec<Value>),
    /// `<struct>`
    Struct(BTreeMap<String, Value>),
}

impl Value {
    /// Convenience accessor: integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Convenience accessor: string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience accessor: byte payload.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Convenience accessor: array items.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience accessor: struct field.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Struct(m) => m.get(name),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}

/// A parse or protocol error.
#[derive(Debug, Clone, PartialEq)]
pub struct XmlError(pub String);

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml-rpc: {}", self.0)
    }
}

impl std::error::Error for XmlError {}

/// A decoded fault response.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Application-defined fault code.
    pub code: i64,
    /// Human-readable description.
    pub message: String,
}

fn escape_into(s: &str, out: &mut String) {
    // Whole runs between the five specials are copied at once.
    let mut rest = s;
    while let Some(i) = rest.find(['<', '>', '&', '"', '\'']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'&' => "&amp;",
            b'"' => "&quot;",
            _ => "&apos;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

fn write_value(v: &Value, out: &mut String) {
    out.push_str("<value>");
    match v {
        Value::Int(i) => {
            // `fmt::Write` into a `String` cannot fail.
            let _ = write!(out, "<int>{i}</int>");
        }
        Value::Bool(b) => {
            out.push_str("<boolean>");
            out.push(if *b { '1' } else { '0' });
            out.push_str("</boolean>");
        }
        Value::Str(s) => {
            out.push_str("<string>");
            escape_into(s, out);
            out.push_str("</string>");
        }
        Value::Double(d) => {
            // Display for f64 is shortest-round-trip; inf/nan spelled so
            // that f64::from_str reads them back.
            let _ = write!(out, "<double>{d}</double>");
        }
        Value::Bytes(b) => {
            out.push_str("<base64>");
            out.push_str(&base64::encode(b));
            out.push_str("</base64>");
        }
        Value::Array(items) => {
            out.push_str("<array><data>");
            for item in items {
                write_value(item, out);
            }
            out.push_str("</data></array>");
        }
        Value::Struct(fields) => {
            out.push_str("<struct>");
            for (name, val) in fields {
                out.push_str("<member><name>");
                escape_into(name, out);
                out.push_str("</name>");
                write_value(val, out);
                out.push_str("</member>");
            }
            out.push_str("</struct>");
        }
    }
    out.push_str("</value>");
}

/// Serialize a `<methodCall>` document.
pub fn encode_request(method: &str, params: &[Value]) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?>\n<methodCall><methodName>");
    escape_into(method, &mut out);
    out.push_str("</methodName><params>");
    for p in params {
        out.push_str("<param>");
        write_value(p, &mut out);
        out.push_str("</param>");
    }
    out.push_str("</params></methodCall>");
    out
}

/// Serialize a successful `<methodResponse>` document.
pub fn encode_response(value: &Value) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?>\n<methodResponse><params><param>");
    write_value(value, &mut out);
    out.push_str("</param></params></methodResponse>");
    out
}

/// Serialize a fault `<methodResponse>` document.
pub fn encode_fault(code: i64, message: &str) -> String {
    let mut fields = BTreeMap::new();
    fields.insert("faultCode".to_owned(), Value::Int(code));
    fields.insert("faultString".to_owned(), Value::Str(message.to_owned()));
    let mut out = String::from("<?xml version=\"1.0\"?>\n<methodResponse><fault>");
    write_value(&Value::Struct(fields), &mut out);
    out.push_str("</fault></methodResponse>");
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    s: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor { s }
    }

    fn skip_ws(&mut self) {
        self.s = self.s.trim_start();
    }

    fn skip_prolog(&mut self) {
        self.skip_ws();
        if self.s.starts_with("<?") {
            if let Some(end) = self.s.find("?>") {
                self.s = &self.s[end + 2..];
            }
        }
        self.skip_ws();
    }

    /// The input after `<tag>` (`</tag>` when `closing`) if that tag is
    /// next: three prefix strips, so a probe allocates nothing.
    fn after_tag(&mut self, closing: bool, tag: &str) -> Option<&'a str> {
        self.skip_ws();
        let s = self.s.strip_prefix(if closing { "</" } else { "<" })?;
        s.strip_prefix(tag)?.strip_prefix('>')
    }

    /// Consume `<tag>`; error if the next tag is something else.
    fn open(&mut self, tag: &str) -> Result<(), XmlError> {
        match self.after_tag(false, tag) {
            Some(rest) => {
                self.s = rest;
                Ok(())
            }
            None => Err(XmlError(format!("expected <{tag}> at {:?}", head(self.s)))),
        }
    }

    /// True (and consumed) if the next tag is `<tag>`.
    fn try_open(&mut self, tag: &str) -> bool {
        let rest = self.after_tag(false, tag);
        self.s = rest.unwrap_or(self.s);
        rest.is_some()
    }

    /// The name of the opening tag that is next, read once so the caller
    /// can `match` it against the names it knows. Not consumed: a name the
    /// caller does not know must stay in the input.
    fn peek_open(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let rest = self.s.strip_prefix('<')?;
        Some(&rest[..rest.find('>')?])
    }

    /// Consume `</tag>`.
    fn close(&mut self, tag: &str) -> Result<(), XmlError> {
        match self.after_tag(true, tag) {
            Some(rest) => {
                self.s = rest;
                Ok(())
            }
            None => Err(XmlError(format!("expected </{tag}> at {:?}", head(self.s)))),
        }
    }

    /// Peek whether `</tag>` is next.
    fn at_close(&mut self, tag: &str) -> bool {
        self.after_tag(true, tag).is_some()
    }

    /// Read character data up to the next `<`, un-escaping entities
    /// (borrowed from the input when there are none).
    fn text(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let end = self.s.find('<').unwrap_or(self.s.len());
        let raw = &self.s[..end];
        self.s = &self.s[end..];
        unescape(raw)
    }
}

fn head(s: &str) -> &str {
    let mut end = s.len().min(32);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn unescape(raw: &str) -> Result<Cow<'_, str>, XmlError> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let semi = rest.find(';').ok_or_else(|| XmlError("unterminated entity".into()))?;
        match &rest[..=semi] {
            "&lt;" => out.push('<'),
            "&gt;" => out.push('>'),
            "&amp;" => out.push('&'),
            "&quot;" => out.push('"'),
            "&apos;" => out.push('\''),
            e => return Err(XmlError(format!("unknown entity {e}"))),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Maximum element nesting the parser accepts. Deeper documents are
/// rejected instead of recursing toward a stack overflow — a malicious
/// peer must not be able to kill the server with `<array>` bombs.
const MAX_DEPTH: u32 = 64;

fn parse_value(c: &mut Cursor) -> Result<Value, XmlError> {
    parse_value_depth(c, 0)
}

fn parse_value_depth(c: &mut Cursor, depth: u32) -> Result<Value, XmlError> {
    if depth >= MAX_DEPTH {
        return Err(XmlError(format!("value nesting exceeds {MAX_DEPTH}")));
    }
    c.open("value")?;
    let v = match c.peek_open() {
        Some(tag @ ("int" | "i4")) => {
            c.open(tag)?;
            let t = c.text()?;
            let i =
                t.trim().parse::<i64>().map_err(|e| XmlError(format!("bad {tag} {t:?}: {e}")))?;
            c.close(tag)?;
            Value::Int(i)
        }
        Some(tag @ "boolean") => {
            c.open(tag)?;
            let b = match c.text()?.trim() {
                "0" => false,
                "1" => true,
                other => return Err(XmlError(format!("bad boolean {other:?}"))),
            };
            c.close(tag)?;
            Value::Bool(b)
        }
        Some(tag @ "double") => {
            c.open(tag)?;
            let t = c.text()?;
            let d =
                t.trim().parse::<f64>().map_err(|e| XmlError(format!("bad double {t:?}: {e}")))?;
            c.close(tag)?;
            Value::Double(d)
        }
        Some(tag @ "string") => {
            c.open(tag)?;
            let t = c.text()?;
            c.close(tag)?;
            Value::Str(t.into_owned())
        }
        Some(tag @ "base64") => {
            c.open(tag)?;
            let b =
                base64::decode(&c.text()?).ok_or_else(|| XmlError("bad base64 payload".into()))?;
            c.close(tag)?;
            Value::Bytes(b)
        }
        Some(tag @ "array") => {
            c.open(tag)?;
            c.open("data")?;
            let mut items = Vec::new();
            while !c.at_close("data") {
                items.push(parse_value_depth(c, depth + 1)?);
            }
            c.close("data")?;
            c.close(tag)?;
            Value::Array(items)
        }
        Some(tag @ "struct") => {
            c.open(tag)?;
            let mut fields = BTreeMap::new();
            while !c.at_close(tag) {
                c.open("member")?;
                c.open("name")?;
                let name = c.text()?.into_owned();
                c.close("name")?;
                let val = parse_value_depth(c, depth + 1)?;
                c.close("member")?;
                fields.insert(name, val);
            }
            c.close(tag)?;
            Value::Struct(fields)
        }
        // Bare text inside <value> is a string, per the XML-RPC spec. A
        // tag that is none of the above lands here too: `text` stops at
        // its `<` and the `</value>` check below reports it.
        _ => Value::Str(c.text()?.into_owned()),
    };
    c.close("value")?;
    Ok(v)
}

/// Parse a `<methodCall>` document into `(method, params)`.
pub fn parse_request(xml: &str) -> Result<(String, Vec<Value>), XmlError> {
    let mut c = Cursor::new(xml);
    c.skip_prolog();
    c.open("methodCall")?;
    c.open("methodName")?;
    let method = c.text()?.into_owned();
    c.close("methodName")?;
    let mut params = Vec::new();
    if c.try_open("params") {
        while !c.at_close("params") {
            c.open("param")?;
            params.push(parse_value(&mut c)?);
            c.close("param")?;
        }
        c.close("params")?;
    }
    c.close("methodCall")?;
    Ok((method, params))
}

/// Parse a `<methodResponse>` document into a value or a [`Fault`].
pub fn parse_response(xml: &str) -> Result<Result<Value, Fault>, XmlError> {
    let mut c = Cursor::new(xml);
    c.skip_prolog();
    c.open("methodResponse")?;
    if c.try_open("fault") {
        let v = parse_value(&mut c)?;
        c.close("fault")?;
        c.close("methodResponse")?;
        let code = v
            .field("faultCode")
            .and_then(Value::as_int)
            .ok_or_else(|| XmlError("fault missing faultCode".into()))?;
        let message = v
            .field("faultString")
            .and_then(Value::as_str)
            .ok_or_else(|| XmlError("fault missing faultString".into()))?
            .to_owned();
        return Ok(Err(Fault { code, message }));
    }
    c.open("params")?;
    c.open("param")?;
    let v = parse_value(&mut c)?;
    c.close("param")?;
    c.close("params")?;
    c.close("methodResponse")?;
    Ok(Ok(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_param(v: Value) {
        let xml = encode_request("m", std::slice::from_ref(&v));
        let (m, params) = parse_request(&xml).unwrap();
        assert_eq!(m, "m");
        assert_eq!(params, vec![v]);
    }

    #[test]
    fn roundtrip_scalars() {
        roundtrip_param(Value::Int(-42));
        roundtrip_param(Value::Int(i64::MAX));
        roundtrip_param(Value::Bool(true));
        roundtrip_param(Value::Str("hello <world> & \"friends\"".into()));
        roundtrip_param(Value::Double(-1.5e-7));
        roundtrip_param(Value::Bytes(vec![0, 1, 2, 255]));
    }

    #[test]
    fn roundtrip_nested() {
        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), Value::Int(1));
        m.insert("b".to_owned(), Value::Array(vec![Value::Str("x".into()), Value::Bool(false)]));
        roundtrip_param(Value::Struct(m));
        roundtrip_param(Value::Array(vec![]));
        roundtrip_param(Value::Struct(BTreeMap::new()));
    }

    #[test]
    fn response_roundtrip() {
        let xml = encode_response(&Value::Str("ok".into()));
        assert_eq!(parse_response(&xml).unwrap().unwrap(), Value::Str("ok".into()));
    }

    #[test]
    fn fault_roundtrip() {
        let xml = encode_fault(7, "task <failed>");
        let fault = parse_response(&xml).unwrap().unwrap_err();
        assert_eq!(fault.code, 7);
        assert_eq!(fault.message, "task <failed>");
    }

    #[test]
    fn i4_alias_accepted() {
        let xml = "<methodCall><methodName>m</methodName><params><param>\
                   <value><i4>9</i4></value></param></params></methodCall>";
        let (_, params) = parse_request(xml).unwrap();
        assert_eq!(params, vec![Value::Int(9)]);
    }

    #[test]
    fn bare_text_value_is_string() {
        let xml = "<methodCall><methodName>m</methodName><params><param>\
                   <value>plain</value></param></params></methodCall>";
        let (_, params) = parse_request(xml).unwrap();
        assert_eq!(params, vec![Value::Str("plain".into())]);
    }

    #[test]
    fn whitespace_between_elements_tolerated() {
        let xml = "<?xml version=\"1.0\"?>\n<methodCall>\n  <methodName>ping</methodName>\n\
                   <params>\n <param>\n <value><int> 3 </int></value>\n </param>\n </params>\n\
                   </methodCall>";
        let (m, params) = parse_request(xml).unwrap();
        assert_eq!(m, "ping");
        assert_eq!(params, vec![Value::Int(3)]);
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(parse_request("<methodCall></methodCall>").is_err());
        assert!(parse_request("<wrong/>").is_err());
        assert!(parse_response("<methodResponse><params></params></methodResponse>").is_err());
        let bad_entity = "<methodCall><methodName>a&b;</methodName></methodCall>";
        assert!(parse_request(bad_entity).is_err());
    }

    #[test]
    fn nesting_bomb_is_rejected_not_overflowed() {
        let mut xml = String::from("<methodResponse><params><param>");
        for _ in 0..100_000 {
            xml.push_str("<value><array><data>");
        }
        assert!(parse_response(&xml).is_err());
    }

    #[test]
    fn method_with_no_params() {
        let xml = encode_request("ping", &[]);
        let (m, params) = parse_request(&xml).unwrap();
        assert_eq!(m, "ping");
        assert!(params.is_empty());
    }

    /// Tags that are almost a known tag: the old parser matched `<tag>`
    /// as a literal prefix, so none of these ever opened or closed an
    /// element, and they still must not.
    #[test]
    fn near_miss_tags_are_rejected() {
        let doc = |value: &str| {
            format!("<methodResponse><params><param>{value}</param></params></methodResponse>")
        };
        for value in [
            "<value><intx>1</intx></value>",
            "<value><int>1</intx></value>",
            "<value><int",
            "<value><int>1</int",
            "<value><i4 >1</i4 ></value>",
            "<value><i4>1</i4 ></value>",
            "<value><int>1</int></ value>",
            "<value><STRING>a</STRING></value>",
            "<value><Int>1</Int></value>",
            "<value ><int>1</int></value>",
            "<value><string>a</String></value>",
            "<value><array><data ></data ></array></value>",
            "<value><struct><member><name>n</name ><value>v</value></member></struct></value>",
            "< value><int>1</int></value>",
            "<valuex><int>1</int></valuex>",
        ] {
            let err = parse_response(&doc(value)).expect_err(value);
            assert!(err.0.starts_with("expected <"), "{value}: {err}");
        }
        // What the message says about an unknown tag inside <value>.
        let err = parse_response(&doc("<value><intx>1</intx></value>")).unwrap_err();
        assert_eq!(err.0, "expected </value> at \"<intx>1</intx></value></param></\"");
        // Bare text stays a string, leading whitespace dropped as before.
        let v = parse_response(&doc("<value>  plain text </value>")).unwrap().unwrap();
        assert_eq!(v, Value::Str("plain text ".into()));
    }

    #[test]
    fn whitespace_between_every_pair_of_tags_is_accepted() {
        let mut fields = BTreeMap::new();
        fields.insert("n".to_owned(), Value::Array(vec![Value::Int(-3), Value::Bool(true)]));
        fields.insert("s".to_owned(), Value::Str("a b".into()));
        let v =
            Value::Array(vec![Value::Struct(fields), Value::Double(0.5), Value::Bytes(vec![9])]);
        // Scalars' character data belongs to the value, so only pad
        // between a closing `>` and an opening `<`.
        let spaced = |xml: String| xml.replace("><", ">\n \t<");
        assert_eq!(parse_response(&spaced(encode_response(&v))).unwrap().unwrap(), v);
        let (m, ps) =
            parse_request(&spaced(encode_request("m", std::slice::from_ref(&v)))).unwrap();
        assert_eq!((m.as_str(), ps), ("m", vec![v]));
    }

    /// Documents taken from the encoder at the parent commit (`00bd7c8`):
    /// what goes on the wire did not change, only what producing it costs.
    #[test]
    fn encoded_documents_are_byte_identical_to_the_parents() {
        const HEAD: &str = "<?xml version=\"1.0\"?>\n<methodResponse><params><param><value>";
        const TAIL: &str = "</value></param></params></methodResponse>";
        let one_e300 = format!("<double>1{}</double>", "0".repeat(300));
        let mut nested = BTreeMap::new();
        nested.insert("a<b".to_owned(), Value::Int(i64::MIN));
        nested.insert(
            "z".to_owned(),
            Value::Array(vec![
                Value::Bool(true),
                Value::Bool(false),
                Value::Struct(BTreeMap::new()),
                Value::Array(vec![]),
            ]),
        );
        let corpus: Vec<(Value, &str)> = vec![
            (Value::Int(0), "<int>0</int>"),
            (Value::Int(-42), "<int>-42</int>"),
            (Value::Int(i64::MAX), "<int>9223372036854775807</int>"),
            (Value::Int(i64::MIN), "<int>-9223372036854775808</int>"),
            (Value::Double(0.0), "<double>0</double>"),
            (Value::Double(-0.0), "<double>-0</double>"),
            (Value::Double(-1.5e-7), "<double>-0.00000015</double>"),
            (Value::Double(1e300), &one_e300),
            (Value::Double(0.1), "<double>0.1</double>"),
            (Value::Double(3.0), "<double>3</double>"),
            (Value::Double(f64::INFINITY), "<double>inf</double>"),
            (Value::Double(f64::NEG_INFINITY), "<double>-inf</double>"),
            (Value::Double(f64::NAN), "<double>NaN</double>"),
            (Value::Str(String::new()), "<string></string>"),
            (
                Value::Str("<>&\"' plain \u{e9}".into()),
                "<string>&lt;&gt;&amp;&quot;&apos; plain \u{e9}</string>",
            ),
            (Value::Bytes(vec![]), "<base64></base64>"),
            (Value::Bytes(vec![0, 1, 2, 255]), "<base64>AAEC/w==</base64>"),
            (
                Value::Struct(nested),
                "<struct><member><name>a&lt;b</name><value><int>-9223372036854775808</int>\
                 </value></member><member><name>z</name><value><array><data><value>\
                 <boolean>1</boolean></value><value><boolean>0</boolean></value><value>\
                 <struct></struct></value><value><array><data></data></array></value></data>\
                 </array></value></member></struct>",
            ),
        ];
        for (v, inner) in &corpus {
            assert_eq!(encode_response(v), format!("{HEAD}{inner}{TAIL}"));
        }
        let params: Vec<Value> = corpus[..3].iter().map(|(v, _)| v.clone()).collect();
        assert_eq!(
            encode_request("get_task<s>", &params),
            "<?xml version=\"1.0\"?>\n<methodCall><methodName>get_task&lt;s&gt;</methodName>\
             <params><param><value><int>0</int></value></param><param><value><int>-42</int>\
             </value></param><param><value><int>9223372036854775807</int></value></param>\
             </params></methodCall>"
        );
        assert_eq!(
            encode_request("ping", &[]),
            "<?xml version=\"1.0\"?>\n<methodCall><methodName>ping</methodName>\
             <params></params></methodCall>"
        );
        assert_eq!(
            encode_fault(7, "task <failed>"),
            "<?xml version=\"1.0\"?>\n<methodResponse><fault><value><struct><member>\
             <name>faultCode</name><value><int>7</int></value></member><member>\
             <name>faultString</name><value><string>task &lt;failed&gt;</string></value>\
             </member></struct></value></fault></methodResponse>"
        );
    }

    /// `Value` equality with NaN equal to itself (the wire spells every
    /// NaN `NaN`); the round-trip oracle, independent of the encoder.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Double(x), Value::Double(y)) => x == y || (x.is_nan() && y.is_nan()),
            (Value::Array(xs), Value::Array(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
            }
            (Value::Struct(xs), Value::Struct(ys)) => {
                xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|((kx, x), (ky, y))| kx == ky && same(x, y))
            }
            _ => a == b,
        }
    }

    /// Strings leaning on the five entities and the empty string.
    fn text() -> impl Strategy<Value = String> {
        prop_oneof![Just(String::new()), Just("<>&\"'".to_owned()), ".*"]
    }

    fn value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            prop_oneof![Just(i64::MIN), Just(i64::MAX), any::<i64>()].prop_map(Value::Int),
            any::<bool>().prop_map(Value::Bool),
            text().prop_map(Value::Str),
            prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN), any::<f64>()]
                .prop_map(Value::Double),
            proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::Bytes),
        ];
        leaf.prop_recursive(4, 48, 6, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
                proptest::collection::vec((text(), inner), 0..6)
                    .prop_map(|fields| Value::Struct(fields.into_iter().collect())),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_response_roundtrips_any_value(v in value()) {
            let back = parse_response(&encode_response(&v)).unwrap().unwrap();
            prop_assert!(same(&back, &v), "{:?} came back as {:?}", v, back);
        }

        #[test]
        fn prop_request_roundtrips_method_and_params(
            m in ".*",
            ps in proptest::collection::vec(value(), 0..4),
        ) {
            let (method, params) = parse_request(&encode_request(&m, &ps)).unwrap();
            prop_assert_eq!(method, m);
            prop_assert_eq!(params.len(), ps.len());
            prop_assert!(params.iter().zip(&ps).all(|(a, b)| same(a, b)));
        }

        #[test]
        fn prop_string_roundtrip(s in ".*") {
            // Strings whose text survives XML character-data rules: our
            // writer escapes everything needed, so any Unicode string works.
            roundtrip_param(Value::Str(s));
        }

        #[test]
        fn prop_int_roundtrip(i in any::<i64>()) {
            roundtrip_param(Value::Int(i));
        }

        #[test]
        fn prop_double_roundtrip(d in any::<f64>().prop_filter("finite", |d| d.is_finite())) {
            let xml = encode_response(&Value::Double(d));
            let v = parse_response(&xml).unwrap().unwrap();
            match v {
                Value::Double(back) => prop_assert_eq!(back.to_bits(), d.to_bits()),
                other => prop_assert!(false, "not a double: {:?}", other),
            }
        }

        #[test]
        fn prop_bytes_roundtrip(b in proptest::collection::vec(any::<u8>(), 0..128)) {
            roundtrip_param(Value::Bytes(b));
        }

        #[test]
        fn prop_parser_never_panics(s in ".*") {
            let _ = parse_request(&s);
            let _ = parse_response(&s);
        }
    }
}
