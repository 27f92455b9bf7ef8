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
//! The codec sits on every control round trip, so it works in place: a
//! [`Writer`] writes values straight into the document and a [`Reader`]
//! reads them straight off it, one at a time, so a typed message needs no
//! [`Value`] tree on either side; [`encode_request`], [`parse_request`]
//! and their response twins are the same writer and reader over a
//! [`Value`]. Neither direction allocates per tag or per number: the
//! reader matches an expected tag by comparing bytes, reads a value's
//! type tag once and dispatches on the name, and borrows character data
//! that holds no entity; the writer formats numbers straight into the
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

/// A document written value by value, with no [`Value`] built: a typed
/// message writes its fields straight into the text that goes on the
/// wire. [`encode_request`] and [`encode_response`] are this writer
/// walking a [`Value`].
pub struct Writer {
    out: String,
    /// What closes the document.
    tail: &'static str,
}

impl Writer {
    /// A `<methodCall>` of `method`; its parameters follow, each written
    /// by [`Writer::param`].
    pub fn request(method: &str) -> Writer {
        let mut out = String::with_capacity(512);
        out.push_str("<?xml version=\"1.0\"?>\n<methodCall><methodName>");
        escape_into(method, &mut out);
        out.push_str("</methodName><params>");
        Writer { out, tail: "</params></methodCall>" }
    }

    /// A successful `<methodResponse>`; its one value follows.
    pub fn response() -> Writer {
        let mut out = String::with_capacity(512);
        out.push_str("<?xml version=\"1.0\"?>\n<methodResponse><params><param>");
        Writer { out, tail: "</param></params></methodResponse>" }
    }

    /// The finished document.
    pub fn finish(mut self) -> String {
        self.out.push_str(self.tail);
        self.out
    }

    /// One parameter of a request: the value `value` writes.
    pub fn param(&mut self, value: impl FnOnce(&mut Writer)) {
        self.out.push_str("<param>");
        value(self);
        self.out.push_str("</param>");
    }

    /// `<int>`.
    pub fn int(&mut self, i: i64) {
        // `fmt::Write` into a `String` cannot fail.
        let _ = write!(self.out, "<value><int>{i}</int></value>");
    }

    /// `<boolean>`.
    pub fn boolean(&mut self, b: bool) {
        self.out.push_str(if b {
            "<value><boolean>1</boolean></value>"
        } else {
            "<value><boolean>0</boolean></value>"
        });
    }

    /// `<string>`, escaped.
    pub fn string(&mut self, s: &str) {
        self.out.push_str("<value><string>");
        escape_into(s, &mut self.out);
        self.out.push_str("</string></value>");
    }

    /// `<double>`: Display for f64 is shortest-round-trip; inf/nan
    /// spelled so that f64::from_str reads them back.
    pub fn double(&mut self, d: f64) {
        let _ = write!(self.out, "<value><double>{d}</double></value>");
    }

    /// `<base64>`.
    pub fn bytes(&mut self, b: &[u8]) {
        self.out.push_str("<value><base64>");
        base64::encode_into(b, &mut self.out);
        self.out.push_str("</base64></value>");
    }

    /// `<array>` of the values `items` writes.
    pub fn array(&mut self, items: impl FnOnce(&mut Writer)) {
        self.out.push_str("<value><array><data>");
        items(self);
        self.out.push_str("</data></array></value>");
    }

    /// `<struct>` of the members `members` writes, each by
    /// [`Writer::member`].
    pub fn structure(&mut self, members: impl FnOnce(&mut Writer)) {
        self.out.push_str("<value><struct>");
        members(self);
        self.out.push_str("</struct></value>");
    }

    /// One struct member: `name` and the value `value` writes.
    pub fn member(&mut self, name: &str, value: impl FnOnce(&mut Writer)) {
        self.out.push_str("<member><name>");
        escape_into(name, &mut self.out);
        self.out.push_str("</name>");
        value(self);
        self.out.push_str("</member>");
    }

    /// A whole [`Value`].
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => self.int(*i),
            Value::Bool(b) => self.boolean(*b),
            Value::Str(s) => self.string(s),
            Value::Double(d) => self.double(*d),
            Value::Bytes(b) => self.bytes(b),
            Value::Array(items) => self.array(|w| items.iter().for_each(|item| w.value(item))),
            Value::Struct(fields) => self.structure(|w| {
                for (name, val) in fields {
                    w.member(name, |w| w.value(val));
                }
            }),
        }
    }
}

/// Serialize a `<methodCall>` document.
pub fn encode_request(method: &str, params: &[Value]) -> String {
    let mut w = Writer::request(method);
    for p in params {
        w.param(|w| w.value(p));
    }
    w.finish()
}

/// Serialize a successful `<methodResponse>` document.
pub fn encode_response(value: &Value) -> String {
    let mut w = Writer::response();
    w.value(value);
    w.finish()
}

/// Serialize a fault `<methodResponse>` document.
pub fn encode_fault(code: i64, message: &str) -> String {
    let mut w = Writer {
        out: String::from("<?xml version=\"1.0\"?>\n<methodResponse><fault>"),
        tail: "</fault></methodResponse>",
    };
    w.structure(|w| {
        w.member("faultCode", |w| w.int(code));
        w.member("faultString", |w| w.string(message));
    });
    w.finish()
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
        // Between tags there is rarely anything to skip.
        if !self.s.starts_with('<') {
            self.s = self.s.trim_start();
        }
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
        let (b, at) = (self.s.as_bytes(), 1 + usize::from(closing));
        let end = at + tag.len();
        let tagged = b.get(end) == Some(&b'>')
            && b[0] == b'<'
            && (!closing || b[1] == b'/')
            && &b[at..end] == tag.as_bytes();
        tagged.then(|| &self.s[end + 1..])
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

    /// The character data of `<tag>…</tag>`, whose opening tag is next.
    fn element(&mut self, tag: &str) -> Result<Cow<'a, str>, XmlError> {
        self.open(tag)?;
        self.rest_of(tag)
    }

    /// Consume `<tag>`, which [`Self::peek_open`] just read.
    fn skip_peeked(&mut self, tag: &str) {
        self.s = &self.s[tag.len() + 2..];
    }

    /// The character data of an element whose opening tag is read, and
    /// its closing `</tag>`.
    fn rest_of(&mut self, tag: &str) -> Result<Cow<'a, str>, XmlError> {
        let text = self.text()?;
        self.close(tag)?;
        Ok(text)
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
const MAX_DEPTH: usize = 64;

/// One value as [`Reader::value`] reads it: a scalar whole, or the
/// opening of a container, whose contents [`Reader::more`] (an array)
/// or [`Reader::member`] (a struct) then walk.
#[derive(Debug)]
pub enum Item<'a> {
    /// `<int>` / `<i4>`.
    Int(i64),
    /// `<boolean>`.
    Bool(bool),
    /// `<string>` or bare text, borrowed from the document unless it held
    /// an entity.
    Str(Cow<'a, str>),
    /// `<double>`.
    Double(f64),
    /// `<base64>`, decoded.
    Bytes(Vec<u8>),
    /// An opened `<array>`.
    Array,
    /// An opened `<struct>`.
    Struct,
}

/// A document read value by value, with no [`Value`] built: a typed
/// message takes its fields straight off the text, borrowing strings that
/// hold no entity. [`parse_request`] and [`parse_response`] are this
/// reader building a [`Value`].
pub struct Reader<'a> {
    c: Cursor<'a>,
    /// Whether each container open around the cursor is a struct (else an
    /// array), innermost last.
    open: Vec<bool>,
    /// A request whose `<params>` has not closed yet.
    params: bool,
    /// What closes the document once its values are read.
    tail: &'static [&'static str],
}

impl<'a> Reader<'a> {
    /// A `<methodCall>`: its method name, and a reader whose
    /// [`Reader::more`] walks its parameters.
    pub fn request(xml: &'a str) -> Result<(Cow<'a, str>, Reader<'a>), XmlError> {
        let mut c = Cursor::new(xml);
        c.skip_prolog();
        c.open("methodCall")?;
        let method = c.element("methodName")?;
        let params = c.try_open("params");
        Ok((method, Reader { c, open: Vec::new(), params, tail: &["methodCall"] }))
    }

    /// A `<methodResponse>`: a reader at its one value, or its fault.
    pub fn response(xml: &'a str) -> Result<Result<Reader<'a>, Fault>, XmlError> {
        let mut c = Cursor::new(xml);
        c.skip_prolog();
        c.open("methodResponse")?;
        if c.try_open("fault") {
            let tail = &["fault", "methodResponse"];
            let mut r = Reader { c, open: Vec::new(), params: false, tail };
            let v = r.read()?;
            r.finish()?;
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
        let tail = &["param", "params", "methodResponse"];
        Ok(Ok(Reader { c, open: Vec::new(), params: false, tail }))
    }

    /// Close the document once its values are read.
    pub fn finish(mut self) -> Result<(), XmlError> {
        self.tail.iter().try_for_each(|tag| self.c.close(tag))
    }

    /// Whether another value follows in the open array, or among a
    /// request's parameters; at their end, they are closed.
    pub fn more(&mut self) -> Result<bool, XmlError> {
        if let Some(false) = self.open.last() {
            if !self.c.at_close("data") {
                return Ok(true);
            }
            self.c.close("data")?;
            self.c.close("array")?;
            self.open.pop();
            self.end_value()?;
        } else if self.open.is_empty() && self.params {
            if !self.c.at_close("params") {
                self.c.open("param")?;
                return Ok(true);
            }
            self.c.close("params")?;
            self.params = false;
        }
        Ok(false)
    }

    /// The name of the open struct's next member, whose value follows; at
    /// its end, `None` and the struct is closed.
    pub fn member(&mut self) -> Result<Option<Cow<'a, str>>, XmlError> {
        if self.c.at_close("struct") {
            self.c.close("struct")?;
            self.open.pop();
            self.end_value()?;
            return Ok(None);
        }
        self.c.open("member")?;
        self.c.element("name").map(Some)
    }

    /// The next value: a scalar whole, or a container opened.
    pub fn value(&mut self) -> Result<Item<'a>, XmlError> {
        if self.open.len() >= MAX_DEPTH {
            return Err(XmlError(format!("value nesting exceeds {MAX_DEPTH}")));
        }
        let c = &mut self.c;
        c.open("value")?;
        // A tag this reader does not know stays in the input.
        let tag = c.peek_open().filter(|tag| {
            ["int", "i4", "boolean", "double", "string", "base64", "array", "struct"].contains(tag)
        });
        if let Some(tag) = tag {
            c.skip_peeked(tag);
        }
        let item = match tag {
            Some(tag @ ("int" | "i4")) => {
                let t = c.rest_of(tag)?;
                let i = t
                    .trim()
                    .parse::<i64>()
                    .map_err(|e| XmlError(format!("bad {tag} {t:?}: {e}")))?;
                Item::Int(i)
            }
            Some(tag @ "boolean") => match c.rest_of(tag)?.trim() {
                "0" => Item::Bool(false),
                "1" => Item::Bool(true),
                other => return Err(XmlError(format!("bad boolean {other:?}"))),
            },
            Some(tag @ "double") => {
                let t = c.rest_of(tag)?;
                let d = t
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| XmlError(format!("bad double {t:?}: {e}")))?;
                Item::Double(d)
            }
            Some(tag @ "string") => Item::Str(c.rest_of(tag)?),
            Some(tag @ "base64") => {
                let t = c.rest_of(tag)?;
                let bytes =
                    base64::decode(&t).ok_or_else(|| XmlError("bad base64 payload".into()))?;
                Item::Bytes(bytes)
            }
            Some("array") => {
                c.open("data")?;
                self.open.push(false);
                return Ok(Item::Array);
            }
            Some("struct") => {
                self.open.push(true);
                return Ok(Item::Struct);
            }
            // Bare text inside <value> is a string, per the XML-RPC spec. A
            // tag that is none of the above lands here too: `text` stops at
            // its `<` and the `</value>` check below reports it.
            _ => Item::Str(c.text()?),
        };
        self.end_value()?;
        Ok(item)
    }

    /// A value is read: close it, and the member or parameter it was.
    fn end_value(&mut self) -> Result<(), XmlError> {
        self.c.close("value")?;
        match self.open.last() {
            Some(true) => self.c.close("member"),
            None if self.params => self.c.close("param"),
            _ => Ok(()),
        }
    }

    /// The next value, whole, as a [`Value`].
    pub fn read(&mut self) -> Result<Value, XmlError> {
        Ok(match self.value()? {
            Item::Int(i) => Value::Int(i),
            Item::Bool(b) => Value::Bool(b),
            Item::Str(s) => Value::Str(s.into_owned()),
            Item::Double(d) => Value::Double(d),
            Item::Bytes(b) => Value::Bytes(b),
            Item::Array => {
                let mut items = Vec::new();
                while self.more()? {
                    items.push(self.read()?);
                }
                Value::Array(items)
            }
            Item::Struct => {
                let mut fields = BTreeMap::new();
                while let Some(name) = self.member()? {
                    let val = self.read()?;
                    fields.insert(name.into_owned(), val);
                }
                Value::Struct(fields)
            }
        })
    }
}

/// Parse a `<methodCall>` document into `(method, params)`.
pub fn parse_request(xml: &str) -> Result<(String, Vec<Value>), XmlError> {
    let (method, mut r) = Reader::request(xml)?;
    let mut params = Vec::new();
    while r.more()? {
        params.push(r.read()?);
    }
    r.finish()?;
    Ok((method.into_owned(), params))
}

/// Parse a `<methodResponse>` document into a value or a [`Fault`].
pub fn parse_response(xml: &str) -> Result<Result<Value, Fault>, XmlError> {
    match Reader::response(xml)? {
        Ok(mut r) => {
            let v = r.read()?;
            r.finish()?;
            Ok(Ok(v))
        }
        Err(fault) => Ok(Err(fault)),
    }
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
