//! Master↔slave protocol messages and their XML-RPC encoding.
//!
//! The control channel (§IV-B) is genuine XML-RPC, and this module is its
//! schema. Each message is one `wire!` table, a line per field giving its
//! name, its key on the wire and its wire type; the struct, its encoder
//! and its strict decoder are generated from it. Each RPC method is one
//! `method!` declaration of its ordered parameters and its reply, which
//! the master's handlers ([`crate::distributed::serve_master`]) and the
//! slave's stub ([`crate::distributed::RpcMasterLink`]) both use. The
//! generated codec writes each field straight into the XML document and
//! reads it straight off the text ([`mrs_rpc::xmlrpc::Writer`] /
//! [`mrs_rpc::xmlrpc::Reader`]): no [`Value`] tree is built on the way,
//! and a string stays borrowed from the document until a field owns it.
//! `to_value` / `from_value` are that codec seen through the generic
//! parser, for callers that want the tree. Beside the schema: the URL
//! resolver both sides use to read bucket data (`http://` direct
//! transfer, `file://` / `mem://` shared filesystem, `empty:` for a bucket
//! with no records, read without I/O).
//!
//! A message carries only what its receiver cannot derive: a completion
//! report names its attempt and which of its partitions came out empty,
//! and the master builds each output's URL from the slave's location
//! ([`output_url`]), the same function that names the inputs of a task
//! granted ahead of them. A slave's counter tally and its trace events
//! travel packed in one `<base64>` blob each.
//!
//! The wire has exactly one version, [`PROTOCOL_VERSION`]: a slave names
//! it at `signin` and a master refuses any other, so behind that gate
//! every decoder is strict. A missing key, a key the message does not
//! declare, a key given twice, a mistyped value or an integer outside its
//! field's type is an error naming the key, and a fault 3 at the master.
//! What the encoders leave out — empty `purge` / `cancel` lists, an empty
//! trace batch, a report's empty-partition set when none is — is left out
//! for compactness and means "none".

use crate::master::SlaveId;
use crate::metrics::{Counter, JobMetrics};
use mrs_codec::{FrameError, Payload};
use mrs_core::kv::{read_varint, write_varint};
use mrs_core::{Error, Record, Result, TaskSpec};
use mrs_fs::format::read_bucket_records;
use mrs_fs::url::EMPTY;
use mrs_fs::{BucketUrl, Store};
use mrs_rpc::dataserver;
use mrs_rpc::rpc::{Dispatch as RpcDispatch, RpcClient};
use mrs_rpc::xmlrpc::{self, Item, Reader, Value, Writer, XmlError};
use mrs_trace::Event;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The version of the master↔slave wire protocol this build speaks: the
/// set of RPC methods, their positional parameters, the keys of every
/// struct in this module and the layout of its packed blobs (the counter
/// codes of a tally are the counters' places in the metrics table). A
/// slave sends it as `signin`'s third parameter; a master answers a
/// missing or different version with a fault naming both, which ends the
/// slave. Every node of a cluster is built from one commit, so there are
/// no older peers to stay readable for — bump this on any change to the
/// wire instead of adding a fallback.
pub const PROTOCOL_VERSION: i64 = 8;

/// Fault code of a malformed call: a missing, surplus, mistyped or
/// out-of-range parameter.
pub(crate) const BAD_PARAMS: i64 = 3;

/// An XML-RPC fault: code and message.
pub(crate) type Fault = (i64, String);

/// A field read off the wire, or why it could not be.
type Decoded<T> = std::result::Result<T, String>;

/// The next value of `r`, which travels under `key`.
fn item<'a>(r: &mut Reader<'a>, key: &str) -> Decoded<Item<'a>> {
    r.value().map_err(|e| format!("{key}: {e}"))
}

/// Why the value under `key` is not what it should be.
fn mistyped<T>(key: &str) -> Decoded<T> {
    Err(format!("mistyped {key}"))
}

/// A wire type: how a field of type `T` travels as the value of its key
/// or parameter. A plain type is its own wire type; a declaration names
/// another after `as`.
pub(crate) trait Wire<T> {
    /// The fault code of a call whose parameter of this type is refused.
    const FAULT: i64 = BAD_PARAMS;
    /// Whether `v` means "none" and is left off the wire.
    fn omit(_: &T) -> bool {
        false
    }
    /// Write `v` as one value.
    fn put(v: &T, w: &mut Writer);
    /// `T` from the value next in `r`, which travels under `key`.
    fn get(r: &mut Reader, key: &str) -> Decoded<T>;
    /// `T` when `key` is absent.
    fn absent(key: &str) -> Decoded<T> {
        Err(format!("missing {key}"))
    }
}

/// Integers travel as `<int>`, range-checked into their field's type.
macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire<$t> for $t {
            fn put(v: &$t, w: &mut Writer) {
                w.int(i64::try_from(*v).unwrap_or(i64::MAX));
            }
            fn get(r: &mut Reader, key: &str) -> Decoded<$t> {
                let Item::Int(n) = item(r, key)? else { return mistyped(key) };
                <$t>::try_from(n).map_err(|_| format!("{key} {n} out of range"))
            }
        }
    )*};
}

int_wire!(u32, u64, usize);

impl Wire<String> for String {
    fn put(v: &String, w: &mut Writer) {
        w.string(v);
    }
    fn get(r: &mut Reader, key: &str) -> Decoded<String> {
        let Item::Str(s) = item(r, key)? else { return mistyped(key) };
        Ok(s.into_owned())
    }
}

impl Wire<bool> for bool {
    fn put(v: &bool, w: &mut Writer) {
        w.boolean(*v);
    }
    fn get(r: &mut Reader, key: &str) -> Decoded<bool> {
        let Item::Bool(b) = item(r, key)? else { return mistyped(key) };
        Ok(b)
    }
}

impl<T: Wire<T>> Wire<Vec<T>> for Vec<T> {
    fn put(v: &Vec<T>, w: &mut Writer) {
        w.array(|w| v.iter().for_each(|item| T::put(item, w)));
    }
    fn get(r: &mut Reader, key: &str) -> Decoded<Vec<T>> {
        let Item::Array = item(r, key)? else { return mistyped(key) };
        let mut items = Vec::new();
        while r.more().map_err(|e| format!("{key}: {e}"))? {
            items.push(T::get(r, key)?);
        }
        Ok(items)
    }
}

/// An attempt id: 1-based, so 0 on the wire is a malformed message, not
/// "no attempt tracking".
pub(crate) struct Attempt;

impl Wire<u32> for Attempt {
    fn put(v: &u32, w: &mut Writer) {
        u32::put(v, w)
    }
    fn get(r: &mut Reader, key: &str) -> Decoded<u32> {
        let id = Some(u32::get(r, key)?).filter(|&a| a > 0);
        id.ok_or_else(|| format!("{key} 0 out of range (ids start at 1)"))
    }
}

/// A value whose emptiness means "none".
pub(crate) trait Empty: Default {
    /// Whether the value is empty.
    fn is_empty(&self) -> bool;
}

impl<T> Empty for Vec<T> {
    fn is_empty(&self) -> bool {
        <[T]>::is_empty(self)
    }
}

/// Wire type `C`, left out when empty; absent reads as empty.
pub(crate) struct Omit<C>(PhantomData<C>);

impl<T: Empty, C: Wire<T>> Wire<T> for Omit<C> {
    fn omit(v: &T) -> bool {
        v.is_empty()
    }
    fn put(v: &T, w: &mut Writer) {
        C::put(v, w)
    }
    fn get(r: &mut Reader, key: &str) -> Decoded<T> {
        C::get(r, key)
    }
    fn absent(_: &str) -> Decoded<T> {
        Ok(T::default())
    }
}

/// `signin`'s protocol version: this build's, or the call is refused
/// with fault 4 naming both versions, before the slave is registered.
pub(crate) struct Version;

impl Version {
    fn refuse(theirs: Option<i64>) -> String {
        format!(
            "slave speaks protocol version {}, this master speaks {PROTOCOL_VERSION}; \
             build both from the same commit",
            theirs.map_or("none".to_owned(), |v| v.to_string())
        )
    }
}

impl Wire<i64> for Version {
    const FAULT: i64 = 4;
    fn put(v: &i64, w: &mut Writer) {
        w.int(*v)
    }
    fn get(r: &mut Reader, _: &str) -> Decoded<i64> {
        match r.value() {
            Ok(Item::Int(PROTOCOL_VERSION)) => Ok(PROTOCOL_VERSION),
            Ok(Item::Int(theirs)) => Err(Version::refuse(Some(theirs))),
            _ => Err(Version::refuse(None)),
        }
    }
    fn absent(_: &str) -> Decoded<i64> {
        Err(Version::refuse(None))
    }
}

/// A struct on the wire, with its keys. Its members are read one at a
/// time, in any order, into its `Partial` — a tuple of one slot per field
/// —, which `finish` then checks for every required key.
pub(crate) trait Message: Sized {
    /// The members read so far.
    type Partial: Default;
    /// Whether `key` is one of the message's keys.
    fn known(key: &str) -> bool;
    /// Write the message's members.
    fn write(&self, w: &mut Writer);
    /// Read the value of member `key` into `partial`; `false` (nothing
    /// read) when `key` is not one of the message's.
    fn take(partial: &mut Self::Partial, key: &str, r: &mut Reader) -> Decoded<bool>;
    /// The message from the members read.
    fn finish(partial: Self::Partial) -> Decoded<Self>;
}

/// Read the struct next in `r` as an `M` that travels as (part of) a `W`:
/// a key of `W` that is not `M`'s is passed over; one `W` does not
/// declare is refused.
fn strict<W: Message, M: Message>(r: &mut Reader) -> Decoded<M> {
    let xml = |e: XmlError| e.to_string();
    let Item::Struct = r.value().map_err(xml)? else { return Err("not a struct".into()) };
    let mut partial = M::Partial::default();
    while let Some(key) = r.member().map_err(xml)? {
        if !M::take(&mut partial, &key, r)? {
            if !W::known(&key) {
                return Err(format!("unknown key {key:?}"));
            }
            r.read().map_err(xml)?;
        }
    }
    M::finish(partial)
}

/// The `Value` of what `put` writes.
fn to_tree(put: impl FnOnce(&mut Writer)) -> Value {
    let mut w = Writer::response();
    put(&mut w);
    let doc = w.finish();
    xmlrpc::parse_response(&doc).expect("the writer's own document").expect("not a fault")
}

/// Read `v` with `get`, naming `what` in its error.
fn from_tree<T>(v: &Value, what: &str, get: impl FnOnce(&mut Reader) -> Decoded<T>) -> Result<T> {
    let doc = xmlrpc::encode_response(v);
    let mut r = Reader::response(&doc).expect("a response").expect("not a fault");
    get(&mut r).map_err(|why| Error::Rpc(format!("{what}: {why}")))
}

/// One field of a `wire!` table: `= "key"` travels under `key` as its own
/// type, `= "key" as C` as wire type `C`; `= *` is a [`Message`] whose keys
/// are this struct's too, and `= _` never travels.
macro_rules! field {
    (@as $t:ty) => { $t };
    (@as $t:ty, $c:ty) => { $c };
    (partial $t:ty, *) => { <$t as Message>::Partial };
    (partial $t:ty, _) => { () };
    (partial $t:ty, $key:literal $($c:ty)?) => { Option<$t> };
    (known $k:ident, $t:ty, *) => { <$t as Message>::known($k) };
    (known $k:ident, $t:ty, _) => { false };
    (known $k:ident, $t:ty, $key:literal $($c:ty)?) => { $k == $key };
    (put $w:ident, $v:expr, $t:ty, *) => { Message::write($v, $w) };
    (put $w:ident, $v:expr, $t:ty, _) => {};
    (put $w:ident, $v:expr, $t:ty, $key:literal $($c:ty)?) => {
        if !<field!(@as $t $(, $c)?) as Wire<$t>>::omit($v) {
            $w.member($key, |w| <field!(@as $t $(, $c)?) as Wire<$t>>::put($v, w));
        }
    };
    (take $slot:ident, $k:ident, $r:ident, $t:ty, *) => {
        if <$t as Message>::take($slot, $k, $r)? {
            return Ok(true);
        }
    };
    (take $slot:ident, $k:ident, $r:ident, $t:ty, _) => { let () = *$slot; };
    (take $slot:ident, $k:ident, $r:ident, $t:ty, $key:literal $($c:ty)?) => {
        if $k == $key {
            if $slot.is_some() {
                return Err(format!("{} given twice", $key));
            }
            *$slot = Some(<field!(@as $t $(, $c)?) as Wire<$t>>::get($r, $key)?);
            return Ok(true);
        }
    };
    (finish $slot:ident, $t:ty, *) => { <$t as Message>::finish($slot)? };
    (finish $slot:ident, $t:ty, _) => {{
        let () = $slot;
        <$t>::default()
    }};
    (finish $slot:ident, $t:ty, $key:literal $($c:ty)?) => {
        match $slot {
            Some(v) => v,
            None => <field!(@as $t $(, $c)?) as Wire<$t>>::absent($key)?,
        }
    };
}

/// A message declared once: `field: Type = "key" [as WireType],` per line
/// (see `field!`). Generates the struct, its [`Message`] and [`Wire`]
/// impls, and `to_value` / `from_value`. The decoder is strict about this
/// struct's keys or, after `in`, about those of the message it travels in.
macro_rules! wire {
    (@in $name:ident) => { $name };
    (@in $name:ident $outer:ident) => { $outer };
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident $(in $outer:ident)? {
            $($(#[$doc:meta])* $fvis:vis $f:ident: $t:ty = $key:tt $(as $c:ty)?,)*
        }
    ) => {
        $(#[$attr])*
        #[derive(Clone, Debug, PartialEq)]
        $vis struct $name {
            $($(#[$doc])* $fvis $f: $t,)*
        }

        impl Message for $name {
            type Partial = ($(field!(partial $t, $key $($c)?),)*);
            fn known(key: &str) -> bool {
                $(field!(known key, $t, $key $($c)?))||*
            }
            fn write(&self, w: &mut Writer) {
                $(field!(put w, &self.$f, $t, $key $($c)?);)*
            }
            fn take(partial: &mut Self::Partial, key: &str, r: &mut Reader) -> Decoded<bool> {
                let ($($f,)*) = partial;
                $(field!(take $f, key, r, $t, $key $($c)?);)*
                Ok(false)
            }
            fn finish(partial: Self::Partial) -> Decoded<Self> {
                let ($($f,)*) = partial;
                Ok($name { $($f: field!(finish $f, $t, $key $($c)?),)* })
            }
        }

        impl Wire<$name> for $name {
            fn put(v: &$name, w: &mut Writer) {
                w.structure(|w| v.write(w));
            }
            fn get(r: &mut Reader, key: &str) -> Decoded<$name> {
                strict::<$name, $name>(r).map_err(|why| format!("{key}: {why}"))
            }
        }

        // A crate-private message's trees serve tests only.
        #[allow(dead_code)]
        impl $name {
            /// Encode as a [`Value`] tree.
            pub fn to_value(&self) -> Value {
                to_tree(|w| <$name as Wire<$name>>::put(self, w))
            }

            /// Decode from a [`Value`] tree; see the module doc for what is
            /// refused.
            pub fn from_value(v: &Value) -> Result<$name> {
                from_tree(v, stringify!($name), strict::<wire!(@in $name $($outer)?), $name>)
            }
        }
    };
}

/// One RPC method declared once: its struct, its name, its parameters in
/// order (`name: Type [as WireType]` each; only the last may be left out)
/// and its reply's type. The slave's stub makes the call with `call`, the
/// master's handler reads it with `serve`: the layout exists here only.
macro_rules! method {
    (
        $(#[$attr:meta])*
        $name:ident $method:literal ($($p:ident: $t:ty $(as $c:ty)?),* $(,)?) -> $r:ty
    ) => {
        $(#[$attr])*
        #[derive(Debug, PartialEq)]
        pub(crate) struct $name {
            $(pub(crate) $p: $t,)*
        }

        impl $name {
            /// The method's name.
            pub(crate) const METHOD: &'static str = $method;
            /// Its parameters' names, in order.
            pub(crate) const PARAMS: &'static [&'static str] = &[$(stringify!($p)),*];

            /// Read a call's parameters, and the end of its document,
            /// strictly: a fault on refusal.
            pub(crate) fn read(mut r: Reader) -> std::result::Result<$name, Fault> {
                let method = Self::METHOD;
                let malformed = |e: XmlError| (BAD_PARAMS, format!("{method}: {e}"));
                $(let $p = {
                    type W = field!(@as $t $(, $c)?);
                    let (p, given) = (stringify!($p), r.more().map_err(malformed)?);
                    if given { <W as Wire<$t>>::get(&mut r, p) } else { W::absent(p) }
                        .map_err(|why| (<W as Wire<$t>>::FAULT, format!("{method}: {why}")))?
                };)*
                let mut n = Self::PARAMS.len();
                while r.more().map_err(malformed)? {
                    r.read().map_err(malformed)?;
                    n += 1;
                }
                if n > Self::PARAMS.len() {
                    let at_most = Self::PARAMS.len();
                    return Err((BAD_PARAMS, format!("{method}: {n} parameters, at most {at_most}")));
                }
                r.finish().map_err(malformed)?;
                Ok($name { $($p,)* })
            }

            /// The call's request document.
            pub(crate) fn request(&self) -> String {
                let mut w = Writer::request(Self::METHOD);
                $(if !<field!(@as $t $(, $c)?) as Wire<$t>>::omit(&self.$p) {
                    w.param(|w| <field!(@as $t $(, $c)?) as Wire<$t>>::put(&self.$p, w));
                })*
                w.finish()
            }

            /// Make the call on `client`.
            pub(crate) fn call(&self, client: &RpcClient) -> Result<$r> {
                let method = Self::METHOD;
                let doc = client.post(method, &self.request())?;
                let bad = |why: String| Error::Rpc(format!("{method}: {why}"));
                let mut r = match Reader::response(&doc) {
                    Ok(Ok(r)) => r,
                    Ok(Err(f)) => return Err(bad(format!("fault {}: {}", f.code, f.message))),
                    Err(e) => return Err(bad(format!("bad response: {e}"))),
                };
                let reply = <$r as Wire<$r>>::get(&mut r, "reply").map_err(bad)?;
                r.finish().map_err(|e| bad(format!("bad response: {e}")))?;
                Ok(reply)
            }

            /// Add the method to `rpc`, answering each call with `f`'s reply.
            pub(crate) fn serve(
                rpc: RpcDispatch,
                f: impl Fn($name) -> std::result::Result<$r, Fault> + Send + Sync + 'static,
            ) -> RpcDispatch {
                rpc.register_doc(Self::METHOD, move |r| {
                    let reply = f(Self::read(r)?)?;
                    let mut w = Writer::response();
                    <$r as Wire<$r>>::put(&reply, &mut w);
                    Ok(w.finish())
                })
            }
        }

        #[cfg(test)]
        impl $name {
            /// Decode a call's parameters from their [`Value`]s.
            pub(crate) fn from_params(params: &[Value]) -> std::result::Result<$name, Fault> {
                let doc = xmlrpc::encode_request(Self::METHOD, params);
                Self::read(Reader::request(&doc).expect("a request").1)
            }

            /// The call's positional parameters as [`Value`]s.
            pub(crate) fn to_params(&self) -> Vec<Value> {
                xmlrpc::parse_request(&self.request()).expect("the writer's own document").1
            }
        }
    };
}

method! {
    /// `signin`: a slave joins with its data server's authority, its slot
    /// count (at least 1) and the protocol version it speaks; the reply is
    /// its slave id.
    Signin "signin" (authority: String, slots: usize, version: i64 as Version) -> SlaveId
}

method! {
    /// `get_task`: a slave's poll. Its free slots, how long the master may
    /// park the call when nothing is runnable, its piggybacked completion
    /// reports, its counter tally since its last poll and its trace delta
    /// (left out when empty); the reply is an [`Answer`].
    GetTask "get_task" (
        slave: SlaveId,
        free: usize,
        park_ms: u64,
        reports: Vec<TaskReport>,
        counts: JobMetrics,
        trace: TraceBatch as Omit<TraceBatch>,
    ) -> Answer
}

method! {
    /// `task_failed`: an attempt of task `index` of dataset `data` failed
    /// with `message`; `failed_input` names the input it could not read, or
    /// is `""`.
    TaskFailed "task_failed" (
        slave: SlaveId,
        data: u32,
        index: usize,
        message: String,
        failed_input: String,
        attempt: u32 as Attempt,
    ) -> bool
}

wire! {
    /// A task-completion report, batched on `get_task` calls as the
    /// piggybacked `reports` parameter: one control round trip both returns
    /// finished work and fetches the next batch. It names no URL: the
    /// master derives each output's from the slave and the task
    /// ([`TaskReport::urls`]).
    pub struct TaskReport {
        /// Output dataset id the task contributed to.
        pub data: u32 = "data",
        /// Task index within the dataset.
        pub index: usize = "index",
        /// The attempt id the task message carried (never 0).
        pub attempt: u32 = "attempt" as Attempt,
        /// The partitions whose output holds no records, ascending: each
        /// is located at `empty:`, stored nowhere.
        pub empty: Vec<usize> = "empty" as Omit<Parts>,
    }
}

impl TaskReport {
    /// The report's output URLs, one per partition of its task's
    /// `parts`: `empty:` for each listed empty, else `at(p)`.
    pub(crate) fn urls(&self, parts: usize, at: impl Fn(usize) -> String) -> Vec<String> {
        let mut empty = self.empty.iter().peekable();
        (0..parts)
            .map(|p| match empty.next_if_eq(&&p) {
                Some(_) => EMPTY.to_owned(),
                None => at(p),
            })
            .collect()
    }
}

/// A set of partitions: one `<base64>` bitset whose bit `p % 8` of byte
/// `p / 8` is partition `p`, trailing zero bytes dropped.
pub(crate) struct Parts;

impl Wire<Vec<usize>> for Parts {
    fn put(parts: &Vec<usize>, w: &mut Writer) {
        let mut bits = vec![0u8; parts.last().map_or(0, |&p| p / 8 + 1)];
        for &p in parts {
            bits[p / 8] |= 1 << (p % 8);
        }
        w.bytes(&bits);
    }

    fn get(r: &mut Reader, key: &str) -> Decoded<Vec<usize>> {
        let Item::Bytes(bits) = item(r, key)? else { return mistyped(key) };
        let set = |(i, &byte): (usize, &u8)| {
            (0..8).filter(move |b| byte >> b & 1 == 1).map(move |b| i * 8 + b)
        };
        Ok(bits.iter().enumerate().flat_map(set).collect())
    }
}

/// What a `get_task` returns to a polling slave.
///
/// A multicore slave polls with its free slot count and can be handed a
/// whole batch in one round trip, so filling an N-slot slave costs one
/// poll, not N — the per-round control-channel latency the BSP analysis
/// (PAPERS.md) identifies as the iterative-workload tax.
#[derive(Clone, Debug, PartialEq)]
pub enum Assignment {
    /// Run these tasks (never empty; at most the `free_slots` the slave
    /// asked for, and never more than the master believes it has free).
    Tasks(Vec<TaskMsg>),
    /// Nothing runnable right now; poll again.
    Wait,
    /// The job is over; the slave should exit its loop.
    Exit,
}

/// On the wire an assignment is the `type` key (`tasks`, `wait` or
/// `exit`) and, for a batch, the `tasks` key beside it.
impl Message for Assignment {
    type Partial = (Option<&'static str>, Option<Vec<TaskMsg>>);

    fn known(key: &str) -> bool {
        key == "type" || key == "tasks"
    }

    fn write(&self, w: &mut Writer) {
        let kind = match self {
            Assignment::Tasks(_) => "tasks",
            Assignment::Wait => "wait",
            Assignment::Exit => "exit",
        };
        w.member("type", |w| w.string(kind));
        if let Assignment::Tasks(tasks) = self {
            w.member("tasks", |w| Vec::put(tasks, w));
        }
    }

    fn take(partial: &mut Self::Partial, key: &str, r: &mut Reader) -> Decoded<bool> {
        let (kind, tasks) = partial;
        match key {
            "type" if kind.is_some() => Err("type given twice".into()),
            "type" => {
                let Item::Str(s) = item(r, key)? else { return mistyped(key) };
                *kind = Some(match &*s {
                    "tasks" => "tasks",
                    "wait" => "wait",
                    "exit" => "exit",
                    other => return Err(format!("unknown type {other:?}")),
                });
                Ok(true)
            }
            "tasks" if tasks.is_some() => Err("tasks given twice".into()),
            "tasks" => {
                *tasks = Some(Vec::get(r, key)?);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn finish((kind, tasks): Self::Partial) -> Decoded<Self> {
        match (kind.ok_or("missing type")?, tasks) {
            ("tasks", Some(tasks)) if tasks.is_empty() => Err("empty task batch".into()),
            ("tasks", Some(tasks)) => Ok(Assignment::Tasks(tasks)),
            ("tasks", None) => Err("missing tasks".into()),
            (kind, Some(_)) => Err(format!("tasks beside type {kind:?}")),
            ("wait", None) => Ok(Assignment::Wait),
            (_, None) => Ok(Assignment::Exit),
        }
    }
}

impl Assignment {
    /// Encode as a [`Value`] tree.
    pub fn to_value(&self) -> Value {
        to_tree(|w| w.structure(|w| self.write(w)))
    }

    /// Decode the assignment of a `get_task` answer, whose other keys may
    /// sit beside it.
    pub fn from_value(v: &Value) -> Result<Assignment> {
        from_tree(v, "Assignment", strict::<Answer, Assignment>)
    }
}

/// What a task does with its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Map each input record, partitioning output into `parts` buckets.
    Map,
    /// Sort-group-reduce the gathered partition into one output bucket.
    Reduce,
    /// Fused reduce+map (§ iterative jobs): sort-group-reduce the gathered
    /// partition and feed every reduced record straight into the map
    /// function, partitioning like a map task — one scheduling round and
    /// one shuffle instead of two, with no materialized reduce output.
    ReduceMap,
}

impl TaskKind {
    /// The wire discriminator of a task description.
    pub fn of(spec: &TaskSpec) -> TaskKind {
        match spec {
            TaskSpec::Map { .. } => TaskKind::Map,
            TaskSpec::Reduce { .. } => TaskKind::Reduce,
            TaskSpec::ReduceMap { .. } => TaskKind::ReduceMap,
        }
    }
}

/// A task kind travels as `map`, `reduce` or `reducemap`.
impl Wire<TaskKind> for TaskKind {
    fn put(v: &TaskKind, w: &mut Writer) {
        w.string(match v {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
            TaskKind::ReduceMap => "reducemap",
        });
    }
    fn get(r: &mut Reader, key: &str) -> Decoded<TaskKind> {
        let Item::Str(s) = item(r, key)? else { return mistyped(key) };
        match &*s {
            "map" => Ok(TaskKind::Map),
            "reduce" => Ok(TaskKind::Reduce),
            "reducemap" => Ok(TaskKind::ReduceMap),
            other => Err(format!("unknown {key} {other:?}")),
        }
    }
}

/// The trace-vocabulary operation of a task description.
pub(crate) fn trace_op(spec: &TaskSpec) -> mrs_trace::Op {
    match spec {
        TaskSpec::Map { .. } => mrs_trace::Op::Map,
        TaskSpec::Reduce { .. } => mrs_trace::Op::Reduce,
        TaskSpec::ReduceMap { .. } => mrs_trace::Op::ReduceMap,
    }
}

wire! {
    /// A task assignment.
    pub struct TaskMsg {
        /// Output dataset id the task contributes to.
        pub data: u32 = "data",
        /// Task index within the dataset.
        pub index: usize = "index",
        /// What the task does with its input.
        pub kind: TaskKind = "kind",
        /// Program function id (the reduce function for fused tasks).
        pub func: u32 = "func",
        /// Map function id for fused `ReduceMap` tasks; 0 otherwise.
        pub map_func: u32 = "map_func",
        /// Output partitions (map-like only; 1 for reduce).
        pub parts: usize = "parts",
        /// Run the combiner after mapping.
        pub combine: bool = "combine",
        /// Attempt id (1-based, unique per master): echoed back in the
        /// completion report so the master can reject reports from attempts
        /// that have since been cancelled or superseded — also from a life of
        /// the task before its dataset was reclaimed and rebuilt.
        pub attempt: u32 = "attempt" as Attempt,
        /// Input bucket URLs.
        pub inputs: Vec<String> = "inputs",
    }
}

impl TaskMsg {
    /// The message for attempt `attempt` of task `index` of dataset
    /// `data`, running `spec` over `inputs`. A reduce is written with
    /// `map_func` 0, `parts` 1 and no combiner.
    pub fn new(
        data: u32,
        index: usize,
        spec: &TaskSpec,
        attempt: u32,
        inputs: Vec<String>,
    ) -> Self {
        let (func, map_func, parts, combine) = match *spec {
            TaskSpec::Map { func, parts, combine } => (func, 0, parts, combine),
            TaskSpec::Reduce { func } => (func, 0, 1, false),
            TaskSpec::ReduceMap { reduce_func, map_func, parts, combine } => {
                (reduce_func, map_func, parts, combine)
            }
        };
        let kind = TaskKind::of(spec);
        TaskMsg { data, index, kind, func, map_func, parts, combine, attempt, inputs }
    }

    /// The task's kernel description: what [`mrs_core::task::run_task`]
    /// runs over the fetched inputs.
    pub fn spec(&self) -> TaskSpec {
        match self.kind {
            TaskKind::Map => {
                TaskSpec::Map { func: self.func, parts: self.parts, combine: self.combine }
            }
            TaskKind::Reduce => TaskSpec::Reduce { func: self.func },
            TaskKind::ReduceMap => TaskSpec::ReduceMap {
                reduce_func: self.func,
                map_func: self.map_func,
                parts: self.parts,
                combine: self.combine,
            },
        }
    }
}

wire! {
    /// An order to abort a specific running attempt: piggybacked on the
    /// `Dispatch` response to the slave that is running an attempt which lost
    /// the first-completion race (or whose task became moot). The slave sets
    /// the attempt's cancellation flag — checked at kernel record/group
    /// boundaries — and silently discards the partial output, freeing the slot
    /// without reporting. An order that arrives too late to stop the attempt
    /// costs nothing: its stale report is rejected by attempt id.
    pub struct CancelOrder {
        /// Output dataset id of the task.
        pub data: u32 = "data",
        /// Task index within the dataset.
        pub index: usize = "index",
        /// The specific attempt to abort (never 0).
        pub attempt: u32 = "attempt" as Attempt,
    }
}

wire! {
    /// A batch of trace events piggybacked on a `get_task` call: the slave
    /// drains its recorder every poll and ships the delta, so tracing costs
    /// zero extra RPCs. `sent_at_us` is the slave's clock at send time and
    /// `rtt_us` the slave-measured round trip of its *previous* poll (0 =
    /// not yet known); together they let the master fit a clock offset
    /// ([`mrs_trace::ClockSync`]) and map the events onto its own timeline.
    /// An empty batch (tracing off, or nothing recorded) is not sent at all.
    #[derive(Default)]
    pub struct TraceBatch {
        /// Slave recorder clock (µs since its epoch) when the batch was sent.
        pub sent_at_us: u64 = "sent_at",
        /// Slave-measured RTT of the previous `get_task` call (0 = unknown).
        pub rtt_us: u64 = "rtt",
        /// Events lost to ring-buffer overflow since the last batch.
        pub dropped: u64 = "dropped",
        /// The drained events, time-sorted on the slave's clock.
        pub events: Vec<Event> = "events" as Events,
    }
}

impl TraceBatch {
    /// True when there is nothing worth shipping (tracing off or idle).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }
}

impl Empty for TraceBatch {
    fn is_empty(&self) -> bool {
        TraceBatch::is_empty(self)
    }
}

/// The events of a [`TraceBatch`]: one `<base64>` blob of packed records
/// rather than XML values, since a busy poll ships dozens of events and an
/// `<int>` element per field made the trace delta the bulk of the request.
/// Per event, LEB128 varints: `at_us` as the zigzag difference from the
/// event before (from 0 for the first), then `lane`, `data`, `index` and
/// `attempt`; then the `kind`, `name` and `op` codes, one byte each.
/// Tracing is best-effort observability: an event with an unknown code is
/// skipped rather than failing the whole dispatch; only a blob cut
/// mid-record, or a field out of its type's range, is an error.
pub(crate) struct Events;

impl Wire<Vec<Event>> for Events {
    fn put(events: &Vec<Event>, w: &mut Writer) {
        let mut blob = Vec::with_capacity(events.len() * 12);
        let mut prev = 0u64;
        for e in events {
            let step = e.at_us.wrapping_sub(prev) as i64;
            write_varint(((step << 1) ^ (step >> 63)) as u64, &mut blob);
            for field in [e.lane, e.tag.data, e.tag.index, e.tag.attempt] {
                write_varint(u64::from(field), &mut blob);
            }
            blob.extend_from_slice(&[e.kind.code(), e.name.code(), e.tag.op.code()]);
            prev = e.at_us;
        }
        w.bytes(&blob);
    }

    fn get(r: &mut Reader, key: &str) -> Decoded<Vec<Event>> {
        let Item::Bytes(blob) = item(r, key)? else { return mistyped(key) };
        let cut = |at: usize| format!("{key} blob cut mid-record at byte {at}");
        let (mut rest, mut prev) = (&blob[..], 0u64);
        let mut events = Vec::new();
        while !rest.is_empty() {
            let at = blob.len() - rest.len();
            let mut fields = [0u64; 5];
            for field in &mut fields {
                (*field, rest) = read_varint(rest).map_err(|_| cut(at))?;
            }
            let [step, lane, data, index, attempt] = fields;
            let [lane, data, index, attempt] = [lane, data, index, attempt]
                .map(|f| u32::try_from(f).map_err(|_| format!("{key} field {f} out of range")));
            let [kind, name, op, after @ ..] = rest else { return Err(cut(at)) };
            rest = after;
            prev = prev.wrapping_add(((step >> 1) as i64 ^ -((step & 1) as i64)) as u64);
            let (Some(kind), Some(name), Some(op)) = (
                mrs_trace::Kind::from_code(*kind),
                mrs_trace::Name::from_code(*name),
                mrs_trace::Op::from_code(*op),
            ) else {
                continue;
            };
            let tag = mrs_trace::Tag { op, data: data?, index: index?, attempt: attempt? };
            events.push(Event { at_us: prev, kind, name, lane: lane?, tag });
        }
        Ok(events)
    }
}

/// A slave's counter tally travels, as `get_task`'s `counts`, packed in
/// one `<base64>` blob: per *nonzero* counter, in table order, its code
/// (its place in the metrics table, one byte) and its value as a LEB128
/// varint — microseconds for a time counter. An idle poll's tally is the
/// empty blob. Strict: a code no counter has, a code not above the one
/// before it, a zero or a value cut short is an error.
impl Wire<JobMetrics> for JobMetrics {
    fn put(tally: &JobMetrics, w: &mut Writer) {
        let mut blob = Vec::new();
        for (code, &c) in Counter::ALL.iter().enumerate() {
            if tally.get(c) > 0 {
                blob.push(code as u8);
                write_varint(tally.get(c), &mut blob);
            }
        }
        w.bytes(&blob);
    }

    fn get(r: &mut Reader, key: &str) -> Decoded<JobMetrics> {
        let Item::Bytes(blob) = item(r, key)? else { return mistyped(key) };
        let mut tally = JobMetrics::default();
        let (mut rest, mut next) = (&blob[..], 0);
        while let [code, after @ ..] = rest {
            let code = usize::from(*code);
            let c = *Counter::ALL
                .get(code)
                .ok_or_else(|| format!("unknown counter code {code} in {key}"))?;
            if code < next {
                return Err(format!("counter {} out of order in {key}", c.name()));
            }
            let (n, after) =
                read_varint(after).map_err(|e| format!("counter {}: {e}", c.name()))?;
            if n == 0 {
                return Err(format!("counter {} is zero in {key}", c.name()));
            }
            // One entry per counter: adding to zero sets every kind alike.
            tally.add(c, n);
            (rest, next) = (after, code + 1);
        }
        Ok(tally)
    }
}

wire! {
    /// What a `get_task` answer carries beside its `more` hint: the
    /// assignment plus lifetime-GC purge orders and attempt-cancellation
    /// orders. `purge` lists output-path prefixes whose datasets have no
    /// remaining consumers; the slave drops the matching buckets from its
    /// output table before it queues the answer's tasks. `cancel` lists
    /// attempts this slave should abort cooperatively. Both ride as extra
    /// keys on the assignment struct, each written only when non-empty.
    /// Decoding reads an answer's dispatch: `more` may sit beside it.
    pub struct Dispatch in Answer {
        /// What to run (or wait/exit).
        pub assignment: Assignment = *,
        /// Output-path prefixes whose buckets the slave drops.
        pub purge: Vec<String> = "purge" as Omit<Vec<String>>,
        /// Always empty, and neither encoded nor decoded: the eager shuffle
        /// that filled it is gone. Kept only because the repo benchmark
        /// builds a `Dispatch` naming it (`bench/src/layers.rs:84`).
        pub eager: Vec<std::convert::Infallible> = _,
        /// Running attempts to abort.
        pub cancel: Vec<CancelOrder> = "cancel" as Omit<Vec<CancelOrder>>,
    }
}

wire! {
    /// A whole `get_task` answer: the dispatch and, as one more key of the
    /// same struct, the hint `more` of [`crate::Master::poll`].
    pub(crate) struct Answer {
        pub(crate) dispatch: Dispatch = *,
        pub(crate) more: bool = "more",
    }
}

/// Where slave `slave` keeps the outputs of task `index` of dataset
/// `data`: output `p` lives at [`crate::workers::bucket_path`]`(stem, p)`,
/// on its data server (direct plane) or in the shared store. The slave
/// names what it writes by it, and the master the URLs ([`output_url`]).
pub(crate) fn output_stem(slave: SlaveId, data: u32, index: usize) -> String {
    format!("s{slave}/d{data}/t{index}")
}

/// The URL of output `p` of task `index` of dataset `data` written by
/// slave `slave`: on the data server at `authority` (direct plane), else
/// in the shared store. The master names by it each output a report
/// commits and each pending input of a task granted ahead of it, so the
/// two agree by construction.
pub(crate) fn output_url(
    authority: Option<&str>,
    slave: SlaveId,
    data: u32,
    index: usize,
    p: usize,
) -> String {
    let path = crate::workers::bucket_path(&output_stem(slave, data, index), p);
    match authority {
        Some(authority) => dataserver::url(authority, &path),
        None => format!("file://{path}"),
    }
}

/// How intermediate data moves between slaves.
#[derive(Clone)]
pub enum DataPlane {
    /// Each slave serves its own outputs over HTTP; URLs are `http://`.
    /// "direct communication for high performance" (§IV-B).
    Direct,
    /// All outputs go to a shared store; URLs are `file://`. "storage on a
    /// filesystem for increased fault-tolerance".
    SharedFs(Arc<dyn Store>),
}

impl std::fmt::Debug for DataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataPlane::Direct => f.write_str("DataPlane::Direct"),
            DataPlane::SharedFs(_) => f.write_str("DataPlane::SharedFs"),
        }
    }
}

/// Fetch and parse a bucket by URL. `shared` resolves `file://`/`mem://`
/// URLs; `http://` URLs are fetched from the owning peer's data server.
/// The transfer is counted into `tally`.
pub fn fetch_records(
    url: &str,
    shared: Option<&Arc<dyn Store>>,
    tally: &mut JobMetrics,
) -> Result<Vec<Record>> {
    let fetched = fetch_buckets(&[url], shared, None, None, tally).pop();
    let mut out = Vec::new();
    if let Some(bucket) = fetched.expect("one result per url")? {
        read_bucket_records(&[bucket], &mut out)?;
    }
    Ok(out)
}

/// One group of [`fetch_buckets`]' URLs: everything one peer serves, or
/// (`peer == None`) everything the shared store serves.
struct Batch<'a> {
    peer: Option<&'a str>,
    /// Result slot of each member, in input order.
    slots: Vec<usize>,
    /// Each member's request path on the peer, or its path in the store.
    paths: Vec<&'a str>,
}

/// The transfer half of a fetch: resolve every URL to its opened frame
/// (a [`Payload`], where it arrived) without parsing it, one result per
/// URL in input order, at one round trip per peer. An `empty:` URL resolves to
/// `None` — a bucket with no records — in no batch, so a peer whose every
/// bucket is empty is never dialled. The other URLs are grouped into batches
/// in order of first appearance: one per peer authority, and one for the
/// `file://`/`mem://` URLs served inline from the `shared` store. Each
/// peer is sent its whole batch as pipelined GETs where the batch first
/// appears, the inline batch is served where it first appears, and only
/// then are the peers' answers read, so peers serve concurrently without
/// a thread per fetch. `cancel` is observed between batches (and between
/// inline fetches): once set, nothing further is sent or read and every
/// slot not yet filled reads `Err(Error::Cancelled)`. A slave resolves
/// the URLs of its own outputs before it calls this, by reference count
/// (see [`crate::slave`]); every URL here is read.
///
/// A peer may hold a GET for a bucket an attempt it accepted has not
/// written yet (a task granted ahead of its inputs names it), and answer
/// it once written: with the frame, or with an empty body for a bucket
/// with no records, read as `None` like `empty:`. Each GET names the
/// `reader` attempt, if any, so the peer holds it only for an attempt
/// granted before the reader. Past its hold it answers "not yet", and
/// those buckets are asked for again under `cancel`.
///
/// What the fetch moved — bytes decoded and on the wire, refetches, the
/// connection each batch it read dialled or reused — is added to `tally`,
/// which the caller merges into its node's store (a slave's rides its
/// next poll).
///
/// Every resolution path opens the wire bytes as an `MRSF1` frame where
/// they lie, verifying magic and checksum. A *remote* frame that
/// fails either is fetched once more from the peer, alone (transient
/// corruption), before the error surfaces; shared-store corruption is not
/// retried — re-reading the same bytes cannot help.
pub fn fetch_buckets(
    urls: &[&str],
    shared: Option<&Arc<dyn Store>>,
    reader: Option<u32>,
    cancel: Option<&AtomicBool>,
    tally: &mut JobMetrics,
) -> Vec<Result<Option<Payload>>> {
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let mut slots: Vec<Result<Option<Payload>>> = Vec::with_capacity(urls.len());
    let parsed: Vec<Option<BucketUrl>> = urls
        .iter()
        .map(|url| match BucketUrl::parse(url) {
            Ok(BucketUrl::Empty) => {
                slots.push(Ok(None));
                None
            }
            Ok(BucketUrl::Http { authority, path }) => {
                slots.push(Err(Error::Cancelled));
                let path = match reader {
                    Some(reader) => dataserver::with_reader(&path, reader),
                    None => path,
                };
                Some(BucketUrl::Http { authority, path })
            }
            Ok(parsed) => {
                slots.push(Err(Error::Cancelled));
                Some(parsed)
            }
            Err(e) => {
                slots.push(Err(e));
                None
            }
        })
        .collect();
    let mut batches: Vec<Batch> = Vec::new();
    for (i, url) in parsed.iter().enumerate() {
        let (peer, path) = match url {
            Some(BucketUrl::Http { authority, path }) => (Some(authority.as_str()), path.as_str()),
            Some(BucketUrl::File(path) | BucketUrl::Mem(path)) => (None, path.as_str()),
            Some(BucketUrl::Empty) | None => continue,
        };
        let batch = match batches.iter().position(|b| b.peer == peer) {
            Some(known) => &mut batches[known],
            None => {
                batches.push(Batch { peer, slots: Vec::new(), paths: Vec::new() });
                batches.last_mut().expect("just pushed")
            }
        };
        batch.slots.push(i);
        batch.paths.push(path);
    }
    let mut in_flight = Vec::new();
    for batch in &batches {
        if cancelled() {
            return slots;
        }
        match batch.peer {
            Some(peer) => in_flight.push((peer, batch, dataserver::fetch_many(peer, &batch.paths))),
            None => {
                for (&i, path) in batch.slots.iter().zip(&batch.paths) {
                    if cancelled() {
                        return slots;
                    }
                    slots[i] = fetch_shared(urls[i], path, shared).map(Some);
                }
            }
        }
    }
    // A peer answers "not yet" for a bucket whose producer it held the
    // request for until its hold ran out: those are asked again, until
    // each is answered or the fetch is cancelled.
    let mut later: Vec<usize> = Vec::new();
    for (peer, batch, answers) in in_flight {
        if cancelled() {
            return slots;
        }
        let (answers, (opened, reused)) = answers.finish();
        tally.add(Counter::ConnectionsOpened, opened);
        tally.add(Counter::ConnectionsReused, reused);
        for ((&i, path), wire) in batch.slots.iter().zip(&batch.paths).zip(answers) {
            slots[i] = match wire {
                Ok(None) => {
                    later.push(i);
                    continue;
                }
                // An empty body is a bucket with no records.
                Ok(Some(wire)) if wire.is_empty() => Ok(None),
                Ok(Some(wire)) => verify_remote(peer, path, wire, tally).map(Some),
                Err(e) => Err(e),
            };
        }
    }
    if !later.is_empty() && !cancelled() {
        let again: Vec<&str> = later.iter().map(|&i| urls[i]).collect();
        for (i, got) in later.into_iter().zip(fetch_buckets(&again, shared, reader, cancel, tally))
        {
            slots[i] = got;
        }
    }
    slots
}

/// Read `url` (`path` in the `shared` store) and open its frame in place.
fn fetch_shared(url: &str, path: &str, shared: Option<&Arc<dyn Store>>) -> Result<Payload> {
    let store = shared.ok_or_else(|| Error::Url(format!("no shared store to resolve {url}")))?;
    mrs_codec::open_vec(store.get(path)?).map_err(|e| Error::Codec(format!("bucket {path}: {e}")))
}

/// Open the frame a peer answered with in place, fetching that bucket
/// once more when its bytes were damaged on the way (bad checksum, bad
/// magic). Successful transfers count raw and on-wire bytes into `tally`.
fn verify_remote(
    authority: &str,
    path: &str,
    wire: Vec<u8>,
    tally: &mut JobMetrics,
) -> Result<Payload> {
    let wire_len = wire.len();
    let (raw, wire_len) = match mrs_codec::open_vec(wire) {
        Ok(raw) => (raw, wire_len),
        Err(FrameError::Checksum { .. } | FrameError::NotFramed) => {
            tally.add(Counter::ChecksumRetries, 1);
            let wire = dataserver::fetch(authority, path)?;
            let wire_len = wire.len();
            let raw = mrs_codec::open_vec(wire).map_err(|e| {
                Error::Codec(format!("bucket {authority}{path} corrupt after refetch: {e}"))
            })?;
            (raw, wire_len)
        }
        Err(e) => return Err(Error::Codec(format!("bucket {authority}{path}: {e}"))),
    };
    tally.add(Counter::BytesPreCompress, raw.as_ref().len() as u64);
    tally.add(Counter::BytesOnWire, wire_len as u64);
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_rpc::Served;
    use std::collections::BTreeMap;

    #[test]
    fn assignment_roundtrip_tasks() {
        let t = TaskMsg {
            data: 3,
            index: 7,
            kind: TaskKind::Map,
            func: 2,
            map_func: 0,
            parts: 5,
            combine: true,
            attempt: 1,
            inputs: vec!["http://h:1/data/x".into(), "file://y".into()],
        };
        let mut t2 = t.clone();
        t2.index = 8;
        t2.kind = TaskKind::Reduce;
        let mut t3 = t.clone();
        t3.index = 9;
        t3.kind = TaskKind::ReduceMap;
        t3.map_func = 4;
        for a in [Assignment::Tasks(vec![t.clone()]), Assignment::Tasks(vec![t, t2, t3])] {
            assert_eq!(Assignment::from_value(&a.to_value()).unwrap(), a);
        }
    }

    /// The golden shape of a task on the wire: exactly these nine keys,
    /// each one required by the decoder.
    #[test]
    fn task_msg_wire_has_exactly_its_nine_keys_and_requires_each() {
        let t = TaskMsg {
            data: 2,
            index: 3,
            kind: TaskKind::ReduceMap,
            func: 1,
            map_func: 4,
            parts: 2,
            combine: true,
            attempt: 7,
            inputs: vec!["http://h:1/data/s0/d1/t0/b3.mrsb".into()],
        };
        let Value::Struct(m) = t.to_value() else { panic!("struct") };
        let keys: Vec<&str> = m.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["attempt", "combine", "data", "func", "index", "inputs", "kind", "map_func", "parts"]
        );
        assert_eq!(TaskMsg::from_value(&Value::Struct(m.clone())).unwrap(), t);
        assert_strict(&t.to_value(), |v| TaskMsg::from_value(v).map(drop), &[]);
    }

    /// A message decoder, its result dropped.
    type Decode = fn(&Value) -> Result<()>;

    /// A whole `get_task` answer: `d` and `more`.
    fn answer_value(d: &Dispatch, more: bool) -> Value {
        Answer { dispatch: d.clone(), more }.to_value()
    }

    /// A whole `get_task` answer read back (`more` is always written).
    fn from_answer(v: &Value) -> Result<(Dispatch, bool)> {
        Answer::from_value(v).map(|a| (a.dispatch, a.more))
    }

    /// `decode` reads `value`, and refuses it, naming the key, with any
    /// one of its keys dropped (but those `optional`) or with a key added
    /// that the message does not declare.
    fn assert_strict(value: &Value, decode: Decode, optional: &[&str]) {
        decode(value).unwrap();
        let Value::Struct(m) = value else { panic!("a message is a struct") };
        for key in m.keys() {
            let mut without = m.clone();
            without.remove(key);
            match decode(&Value::Struct(without)) {
                Err(e) => assert!(e.to_string().contains(key.as_str()), "dropping {key}: {e}"),
                Ok(()) => assert!(optional.contains(&key.as_str()), "{key} is not required"),
            }
        }
        let mut extra = m.clone();
        extra.insert("attempts".to_owned(), Value::Int(1));
        let err = decode(&Value::Struct(extra)).unwrap_err().to_string();
        assert!(err.contains("unknown key \"attempts\""), "{err}");
    }

    /// Every declared message requires each key its encoder always writes
    /// and refuses a key it does not declare, naming it; the methods
    /// likewise refuse a short call (but for the trace left out) and a
    /// surplus parameter.
    #[test]
    fn every_message_requires_its_keys_and_refuses_others() {
        let task = TaskMsg::new(2, 3, &TaskSpec::Reduce { func: 1 }, 4, vec!["file://a".into()]);
        let report = TaskReport { data: 2, index: 3, attempt: 4, empty: vec![1, 9] };
        let cancel = CancelOrder { data: 2, index: 3, attempt: 4 };
        let trace = TraceBatch { sent_at_us: 9, rtt_us: 8, dropped: 7, events: vec![] };
        let dispatch = Dispatch {
            assignment: Assignment::Tasks(vec![task.clone()]),
            purge: vec!["s0/d1/".into()],
            eager: vec![],
            cancel: vec![cancel.clone()],
        };
        let optional: &[&str] = &["purge", "cancel"];
        let messages: [(Value, Decode, &[&str]); 6] = [
            (task.to_value(), |v| TaskMsg::from_value(v).map(drop), &[]),
            (report.to_value(), |v| TaskReport::from_value(v).map(drop), &["empty"]),
            (cancel.to_value(), |v| CancelOrder::from_value(v).map(drop), &[]),
            (trace.to_value(), |v| TraceBatch::from_value(v).map(drop), &[]),
            (dispatch.to_value(), |v| Dispatch::from_value(v).map(drop), optional),
            (answer_value(&dispatch, false), |v| from_answer(v).map(drop), optional),
        ];
        for (value, decode, optional) in &messages {
            assert_strict(value, *decode, optional);
        }

        let signin = Signin { authority: "h:1".into(), slots: 2, version: PROTOCOL_VERSION };
        let get_task = GetTask {
            slave: 1,
            free: 2,
            park_ms: 3,
            reports: vec![report],
            counts: JobMetrics::default(),
            trace,
        };
        let failed = TaskFailed {
            slave: 1,
            data: 2,
            index: 3,
            message: "m".into(),
            failed_input: String::new(),
            attempt: 4,
        };
        type Decodes = fn(&[Value]) -> bool;
        let calls: [(Vec<Value>, Decodes, usize); 3] = [
            (signin.to_params(), |p| Signin::from_params(p).is_ok(), 3),
            (get_task.to_params(), |p| GetTask::from_params(p).is_ok(), 5),
            (failed.to_params(), |p| TaskFailed::from_params(p).is_ok(), 6),
        ];
        for (full, decodes, required) in calls {
            for given in 0..=full.len() {
                assert_eq!(decodes(&full[..given]), given >= required, "{given} of {full:?}");
            }
            let surplus: Vec<Value> = full.iter().cloned().chain([Value::Int(0)]).collect();
            assert!(!decodes(&surplus), "a surplus parameter: {surplus:?}");
        }
    }

    /// A key given twice is refused, naming it: the generic tree keeps
    /// only one of two equal keys, so a duplicate is written by hand.
    #[test]
    fn a_key_given_twice_is_refused() {
        let report = TaskReport { data: 2, index: 3, attempt: 4, empty: vec![] };
        let dispatch =
            Dispatch { assignment: Assignment::Wait, purge: vec![], eager: vec![], cancel: vec![] };
        let docs = [
            (to_doc(|w| TaskReport::put(&report, w)), "<member><name>data</name>", "data"),
            (to_doc(|w| Dispatch::put(&dispatch, w)), "<member><name>type</name>", "type"),
        ];
        for (doc, member, key) in docs {
            let at = doc.find(member).expect("the member");
            let len = doc[at..].find("</member>").expect("its end") + "</member>".len();
            let twice = format!("{}{}", &doc[..at + len], &doc[at..]);
            let err = match key {
                "data" => from_doc(&twice, |r| TaskReport::get(r, "m")).map(drop),
                _ => from_doc(&twice, |r| Dispatch::get(r, "m")).map(drop),
            };
            let err = err.expect_err(key);
            assert!(err.contains(&format!("{key} given twice")), "{err}");
        }
    }

    /// The response document `put` writes.
    fn to_doc(put: impl FnOnce(&mut Writer)) -> String {
        let mut w = Writer::response();
        put(&mut w);
        w.finish()
    }

    /// What `get` reads from the response document `doc`.
    fn from_doc<T>(doc: &str, get: impl FnOnce(&mut Reader) -> Decoded<T>) -> Decoded<T> {
        get(&mut Reader::response(doc).expect("a response").expect("not a fault"))
    }

    #[test]
    fn task_msg_spec_is_the_kernel_view_of_the_message() {
        let mut t = TaskMsg {
            data: 0,
            index: 0,
            kind: TaskKind::Map,
            func: 1,
            map_func: 4,
            parts: 3,
            combine: true,
            attempt: 1,
            inputs: vec![],
        };
        assert_eq!(t.spec(), TaskSpec::Map { func: 1, parts: 3, combine: true });
        t.kind = TaskKind::Reduce;
        assert_eq!(t.spec(), TaskSpec::Reduce { func: 1 });
        t.kind = TaskKind::ReduceMap;
        assert_eq!(
            t.spec(),
            TaskSpec::ReduceMap { reduce_func: 1, map_func: 4, parts: 3, combine: true }
        );
    }

    #[test]
    fn attempt_ids_roundtrip_and_zero_or_missing_is_rejected() {
        let t = TaskMsg {
            data: 2,
            index: 3,
            kind: TaskKind::Map,
            func: 0,
            map_func: 0,
            parts: 2,
            combine: false,
            attempt: 7,
            inputs: vec![],
        };
        assert_eq!(TaskMsg::from_value(&t.to_value()).unwrap().attempt, 7);
        let r = TaskReport { data: 2, index: 3, attempt: 5, empty: vec![0] };
        assert_eq!(TaskReport::from_value(&r.to_value()).unwrap().attempt, 5);
        let c = CancelOrder { data: 2, index: 3, attempt: 5 };
        // Attempt ids start at 1: a 0, a negative or an absent id is a
        // malformed message in every struct that carries one.
        for v in [t.to_value(), r.to_value(), c.to_value()] {
            let Value::Struct(m) = v else { panic!("struct") };
            for bad in [Some(0), Some(-1), Some(i64::from(u32::MAX) + 1), None] {
                let mut m = m.clone();
                match bad {
                    Some(a) => m.insert("attempt".to_owned(), Value::Int(a)),
                    None => m.remove("attempt"),
                };
                let v = Value::Struct(m);
                assert!(TaskMsg::from_value(&v).is_err(), "{bad:?}");
                assert!(TaskReport::from_value(&v).is_err(), "{bad:?}");
                assert!(CancelOrder::from_value(&v).is_err(), "{bad:?}");
            }
        }
    }

    #[test]
    fn cancel_order_roundtrips_beside_the_assignment() {
        let c = CancelOrder { data: 4, index: 2, attempt: 3 };
        assert_eq!(CancelOrder::from_value(&c.to_value()).unwrap(), c);
        // Malformed orders are rejected, not mis-decoded.
        assert!(CancelOrder::from_value(&Value::Int(1)).is_err());
        let mut m = BTreeMap::new();
        m.insert("data".to_owned(), Value::Int(4));
        assert!(CancelOrder::from_value(&Value::Struct(m)).is_err());
        // A dispatch carrying cancel orders round-trips...
        let d = Dispatch {
            assignment: Assignment::Wait,
            purge: vec![],
            eager: vec![],
            cancel: vec![c.clone(), CancelOrder { data: 4, index: 5, attempt: 1 }],
        };
        assert_eq!(Dispatch::from_value(&d.to_value()).unwrap(), d);
        // ...the assignment-only view reads the same struct, the cancel
        // key riding along ignored...
        assert_eq!(Assignment::from_value(&d.to_value()).unwrap(), Assignment::Wait);
        // ...and an absent key means no cancels.
        let bare = Assignment::Wait.to_value();
        assert!(Dispatch::from_value(&bare).unwrap().cancel.is_empty());
    }

    #[test]
    fn dispatch_roundtrip_with_and_without_purge() {
        let a = Assignment::Wait;
        let d = Dispatch {
            assignment: a.clone(),
            purge: vec!["s0/d3/".into(), "src2/".into()],
            eager: vec![],
            cancel: vec![],
        };
        assert_eq!(Dispatch::from_value(&d.to_value()).unwrap(), d);
        let bare = Dispatch { assignment: a.clone(), purge: vec![], eager: vec![], cancel: vec![] };
        assert_eq!(Dispatch::from_value(&bare.to_value()).unwrap(), bare);
        // Empty lists are not written: the bare dispatch *is* the plain
        // assignment on the wire.
        assert_eq!(bare.to_value(), a.to_value());
        assert_eq!(Dispatch::from_value(&a.to_value()).unwrap(), bare);
    }

    /// The golden shape of a `get_task` answer: the dispatch's own keys
    /// plus `more`, always written and required — a bare dispatch (what a
    /// version-2 master sent) is not an answer.
    #[test]
    fn answer_wire_is_the_dispatch_plus_a_required_more_key() {
        let d = Dispatch {
            assignment: Assignment::Wait,
            purge: vec!["s0/d3/".into()],
            eager: vec![],
            cancel: vec![],
        };
        for more in [false, true] {
            let v = answer_value(&d, more);
            let Value::Struct(m) = &v else { panic!("an answer is a struct") };
            let keys: Vec<&str> = m.keys().map(String::as_str).collect();
            assert_eq!(keys, ["more", "purge", "type"]);
            assert_eq!(m["more"], Value::Bool(more));
            assert_eq!(from_answer(&v).unwrap(), (d.clone(), more));
            // The dispatch inside reads as before: `more` sits beside it.
            assert_eq!(Dispatch::from_value(&v).unwrap(), d);
        }
        let err = from_answer(&d.to_value()).unwrap_err().to_string();
        assert!(err.contains("missing more"), "{err}");
        let mut mistyped = answer_value(&d, true);
        if let Value::Struct(m) = &mut mistyped {
            m.insert("more".into(), Value::Int(1));
        }
        assert!(from_answer(&mistyped).is_err(), "an int is not the hint");
    }

    /// A tally as it travels.
    fn counts_value(tally: &JobMetrics) -> Value {
        to_tree(|w| <JobMetrics as Wire<_>>::put(tally, w))
    }

    /// A tally read back, strictly.
    fn counts_from_value(v: &Value) -> Result<JobMetrics> {
        from_tree(v, "counts", |r| <JobMetrics as Wire<_>>::get(r, "counts"))
    }

    /// The golden shape of a slave's tally on `get_task`: one packed blob
    /// of one code and one varint per nonzero counter, in table order, raw
    /// microseconds for a time; an idle tally is the empty blob. Decoding
    /// is strict.
    #[test]
    fn counts_wire_is_one_int_per_nonzero_counter() {
        let mut tally = JobMetrics::default();
        tally.add(Counter::MergeRuns, 4);
        tally.max(Counter::PeakReduceRecords, 900);
        tally.add_time(Counter::MergeTime, std::time::Duration::from_micros(1500));
        let code = |c: Counter| Counter::ALL.iter().position(|&k| k == c).unwrap() as u8;
        // 900 and 1500 as LEB128: 0x384 and 0x5dc, seven bits at a time.
        let golden = vec![
            code(Counter::MergeRuns),
            4,
            code(Counter::PeakReduceRecords),
            0x84,
            0x07,
            code(Counter::MergeTime),
            0xdc,
            0x0b,
        ];
        assert_eq!(counts_value(&tally), Value::Bytes(golden.clone()));
        assert_eq!(counts_from_value(&counts_value(&tally)).unwrap(), tally);
        assert_eq!(counts_value(&JobMetrics::default()), Value::Bytes(vec![]));
        let empty = counts_from_value(&Value::Bytes(vec![])).unwrap();
        assert_eq!(empty, JobMetrics::default());
        // Every counter travels under its own code, the largest values too.
        let mut all = JobMetrics::default();
        for (n, &c) in Counter::ALL.iter().enumerate() {
            all.add(c, if n % 2 == 0 { u64::MAX - n as u64 } else { n as u64 + 1 });
        }
        assert_eq!(counts_from_value(&counts_value(&all)).unwrap(), all);
        // An unknown code, a code twice or out of order, a zero, a value
        // cut short and a tally that is not a blob are malformed, each
        // named.
        let unknown = Counter::ALL.len() as u8;
        for (bad, named) in [
            (vec![unknown, 1], format!("code {unknown}")),
            (vec![code(Counter::MergeRuns), 1, code(Counter::MergeRuns), 1], "merge_runs".into()),
            (vec![code(Counter::MergeTime), 1, code(Counter::MergeRuns), 1], "merge_runs".into()),
            (vec![code(Counter::MergeRuns), 0], "merge_runs".into()),
            (vec![code(Counter::MergeTime), 0x80], "merge_time".into()),
        ] {
            let err = counts_from_value(&Value::Bytes(bad)).unwrap_err().to_string();
            assert!(err.contains(&named), "{named}: {err}");
        }
        assert!(counts_from_value(&Value::Struct(BTreeMap::new())).is_err(), "not a blob");
    }

    #[test]
    fn assignment_roundtrip_wait_exit() {
        for a in [Assignment::Wait, Assignment::Exit] {
            assert_eq!(Assignment::from_value(&a.to_value()).unwrap(), a);
        }
    }

    #[test]
    fn malformed_assignment_rejected() {
        assert!(Assignment::from_value(&Value::Int(3)).is_err());
        let mut m = BTreeMap::new();
        m.insert("type".to_owned(), Value::Str("tasks".into()));
        assert!(Assignment::from_value(&Value::Struct(m)).is_err());
        // An empty batch is a protocol violation, not a silent Wait.
        let mut m = BTreeMap::new();
        m.insert("type".to_owned(), Value::Str("tasks".into()));
        m.insert("tasks".to_owned(), Value::Array(vec![]));
        assert!(Assignment::from_value(&Value::Struct(m)).is_err());
    }

    /// A report names its empty partitions in a bitset, left out when no
    /// partition is empty; the master reads it back into the URLs.
    #[test]
    fn task_report_roundtrip() {
        let r = TaskReport { data: 9, index: 4, attempt: 2, empty: vec![0, 3, 8, 63] };
        let Value::Struct(m) = r.to_value() else { panic!("struct") };
        let mut bits = vec![0b1001, 0b1, 0, 0, 0, 0, 0, 0x80];
        assert_eq!(m["empty"], Value::Bytes(bits.clone()));
        assert_eq!(TaskReport::from_value(&r.to_value()).unwrap(), r);
        let full = TaskReport { data: 0, index: 0, attempt: 1, empty: vec![] };
        assert_eq!(full.to_value().field("empty"), None, "nothing empty, nothing written");
        assert_eq!(TaskReport::from_value(&full.to_value()).unwrap(), full);
        // Trailing zero bytes and an empty blob read as the same sets.
        bits.extend([0, 0]);
        let mut padded = m.clone();
        padded.insert("empty".into(), Value::Bytes(bits));
        assert_eq!(TaskReport::from_value(&Value::Struct(padded)).unwrap(), r);
        padded = m;
        padded.insert("empty".into(), Value::Bytes(vec![]));
        assert_eq!(
            TaskReport::from_value(&Value::Struct(padded)).unwrap().empty,
            Vec::<usize>::new()
        );
        // The URLs: `empty:` for each listed partition, derived for the rest.
        let urls = r.urls(5, |p| format!("u{p}"));
        assert_eq!(urls, [EMPTY, "u1", "u2", EMPTY, "u4"]);
    }

    #[test]
    fn malformed_task_report_rejected() {
        assert!(TaskReport::from_value(&Value::Int(1)).is_err());
        let mut m = BTreeMap::new();
        m.insert("data".to_owned(), Value::Int(1));
        // Missing index/attempt.
        assert!(TaskReport::from_value(&Value::Struct(m.clone())).is_err());
        // The empty partitions in anything but a blob.
        m.insert("index".to_owned(), Value::Int(0));
        m.insert("attempt".to_owned(), Value::Int(1));
        TaskReport::from_value(&Value::Struct(m.clone())).unwrap();
        m.insert("empty".to_owned(), Value::Array(vec![Value::Int(0)]));
        let err = TaskReport::from_value(&Value::Struct(m)).unwrap_err().to_string();
        assert!(err.contains("mistyped empty"), "{err}");
    }

    #[test]
    fn trace_batch_roundtrips_and_skips_unknown_codes() {
        use mrs_trace::{Event, Kind, Name, Op, Tag};
        let e = |at: u64| Event {
            at_us: at,
            kind: Kind::Begin,
            name: Name::Exec,
            lane: 2,
            tag: Tag::task(Op::Map, 3, 7, 1),
        };
        let b = TraceBatch {
            sent_at_us: 1_000_000,
            rtt_us: 450,
            dropped: 2,
            events: vec![e(10), e(20)],
        };
        assert_eq!(TraceBatch::from_value(&b.to_value()).unwrap(), b);
        assert!(!b.is_empty());
        assert!(TraceBatch::default().is_empty());
        assert_eq!(TraceBatch::from_value(&TraceBatch::default().to_value()).unwrap().events, []);
        // The golden record: a time step of 10 (zigzag 20), lane 2, data
        // 3, index 7, attempt 1, then the kind, name and op codes; the
        // second event differs only by its step.
        let Value::Struct(mut m) = b.to_value() else { panic!("struct") };
        let Some(Value::Bytes(mut blob)) = m.remove("events") else { panic!("bytes") };
        let codes = [Kind::Begin.code(), Name::Exec.code(), Op::Map.code()];
        let record = [&[20, 2, 3, 7, 1][..], &codes].concat();
        assert_eq!(blob, [record.clone(), record].concat());
        // Any times, far apart or out of order, and fields at their
        // type's bounds travel exactly.
        let far = |at_us, lane| Event { at_us, lane, ..e(0) };
        let events = vec![far(u64::MAX, u32::MAX), far(0, 0), far(1 << 40, 1), far(5, 9)];
        let odd = TraceBatch { events, ..TraceBatch::default() };
        assert_eq!(TraceBatch::from_value(&odd.to_value()).unwrap(), odd);
        // An event with an unknown name code (future vocabulary) is
        // skipped, not fatal, and the next one keeps its time…
        blob[6] = 200;
        m.insert("events".to_owned(), Value::Bytes(blob.clone()));
        assert_eq!(TraceBatch::from_value(&Value::Struct(m.clone())).unwrap().events, [e(20)]);
        // …but a structurally broken batch is rejected: not a struct, a
        // blob cut mid-record, or events in anything but a blob.
        assert!(TraceBatch::from_value(&Value::Int(3)).is_err());
        blob.pop();
        m.insert("events".to_owned(), Value::Bytes(blob));
        assert!(TraceBatch::from_value(&Value::Struct(m.clone())).is_err());
        m.insert("events".to_owned(), Value::Array(vec![]));
        assert!(TraceBatch::from_value(&Value::Struct(m)).is_err());
    }

    #[test]
    fn fetch_from_shared_store() {
        use mrs_fs::format::write_bucket_bytes;
        let store: Arc<dyn Store> = Arc::new(mrs_fs::MemFs::new());
        let records = vec![(b"k".to_vec(), b"v".to_vec())];
        let frame = mrs_codec::encode_vec(write_bucket_bytes(&records), Default::default());
        store.put("op/b0", &frame).unwrap();
        // Whatever reaches a store through the runtime is framed; bare
        // bucket bytes there are damage, not a format.
        store.put("op/bare", &write_bucket_bytes(&records)).unwrap();
        let mut tally = JobMetrics::default();
        assert!(matches!(
            fetch_records("file://op/bare", Some(&store), &mut tally),
            Err(Error::Codec(_))
        ));
        let got = fetch_records("file://op/b0", Some(&store), &mut tally).unwrap();
        assert_eq!(got, records);
    }

    #[test]
    fn fetch_without_shared_store_fails() {
        assert!(fetch_records("file://x", None, &mut JobMetrics::default()).is_err());
    }

    #[test]
    fn shared_store_frames_are_verified_and_decoded() {
        use mrs_fs::format::write_bucket_bytes;
        let store: Arc<dyn Store> = Arc::new(mrs_fs::MemFs::new());
        let records = vec![(b"key".to_vec(), vec![3u8; 64])];
        let frame =
            mrs_codec::encode_vec(write_bucket_bytes(&records), mrs_codec::CompressMode::On);
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        store.put("good", &frame).unwrap();
        store.put("bad", &bad).unwrap();
        let mut tally = JobMetrics::default();
        assert_eq!(fetch_records("mem://good", Some(&store), &mut tally).unwrap(), records);
        // Local corruption is not retried — it surfaces immediately.
        assert!(matches!(
            fetch_records("mem://bad", Some(&store), &mut tally),
            Err(Error::Codec(_))
        ));
    }

    /// A peer that serves a corrupt frame once is given a second chance;
    /// one that serves corruption persistently surfaces an error. Stored
    /// and compressed frames alike, and wherever the damage lands: the
    /// checksum covers the payload as shipped, and a damaged magic byte
    /// is damage too, not an unframed bucket.
    #[test]
    fn corrupt_remote_frame_is_refetched_once() {
        use mrs_fs::format::write_bucket_bytes;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let records = vec![(b"key".to_vec(), vec![9u8; 800])];
        let modes = [mrs_codec::CompressMode::Off, mrs_codec::CompressMode::On];
        for (mode, flip_first) in modes.into_iter().flat_map(|m| [(m, false), (m, true)]) {
            let good: Arc<Vec<u8>> =
                mrs_codec::encode_vec(write_bucket_bytes(&records), mode).into();
            let bad: Arc<Vec<u8>> = {
                let mut b = good.to_vec();
                let at = if flip_first { 0 } else { b.len() - 1 };
                b[at] ^= 0xff;
                b.into()
            };

            let hits = Arc::new(AtomicUsize::new(0));
            let provider: mrs_rpc::dataserver::Provider = {
                let hits = Arc::clone(&hits);
                let good = Arc::clone(&good);
                let bad = Arc::clone(&bad);
                Arc::new(move |p: &str, _| match p {
                    // First request corrupt, later ones clean.
                    "flaky" => Served::Frame(if hits.fetch_add(1, Ordering::SeqCst) == 0 {
                        Arc::clone(&bad)
                    } else {
                        Arc::clone(&good)
                    }),
                    "hosed" => Served::Frame(Arc::clone(&bad)),
                    _ => Served::Missing,
                })
            };
            let server = mrs_rpc::DataServer::serve(0, provider).unwrap();

            let mut tally = JobMetrics::default();
            let got = fetch_records(&server.url_for("flaky"), None, &mut tally).unwrap();
            assert_eq!(got, records);
            assert_eq!(
                hits.load(Ordering::SeqCst),
                2,
                "exactly one refetch ({mode:?}, first byte: {flip_first})"
            );
            // The damaged copy is counted as a retry, the clean one as moved.
            assert_eq!(tally.checksum_retries(), 1);
            assert_eq!(tally.bytes_on_wire(), good.len() as u64);
            assert_eq!(tally.bytes_pre_compress(), write_bucket_bytes(&records).len() as u64);

            let mut tally = JobMetrics::default();
            let err = fetch_records(&server.url_for("hosed"), None, &mut tally).unwrap_err();
            assert_eq!((tally.checksum_retries(), tally.bytes_on_wire()), (1, 0));
            assert!(matches!(err, Error::Codec(_)), "persistent corruption must surface: {err}");
        }
    }
    /// A data server over a fixed set of frames that counts the requests
    /// each path received.
    fn counting_server(
        frames: Vec<(&'static str, Arc<Vec<u8>>)>,
    ) -> (mrs_rpc::DataServer, Arc<parking_lot::Mutex<Vec<String>>>) {
        let hits = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let provider: mrs_rpc::dataserver::Provider = {
            let hits = Arc::clone(&hits);
            Arc::new(move |p: &str, _| {
                hits.lock().push(p.to_owned());
                frames.iter().find(|(path, _)| *path == p).map(|(_, f)| Arc::clone(f)).into()
            })
        };
        (mrs_rpc::DataServer::serve(0, provider).unwrap(), hits)
    }

    /// A fetched bucket's cleartext, copied out.
    fn cleartext(fetched: Result<Option<Payload>>) -> Option<Vec<u8>> {
        fetched.unwrap().map(|payload| payload.as_ref().to_vec())
    }

    fn frame_of(tag: u8) -> (Vec<u8>, Arc<Vec<u8>>) {
        let raw = mrs_fs::format::write_bucket_bytes(&[(vec![tag], vec![tag; 40])]);
        let frame = mrs_codec::encode_vec(raw.clone(), mrs_codec::CompressMode::Off);
        (raw, frame.into())
    }

    /// One damaged bucket in a batch costs one extra request for that
    /// bucket alone; its batch-mates are fetched once, and every slot
    /// holds its own bucket.
    #[test]
    fn flipped_byte_in_one_bucket_of_a_batch_refetches_only_that_bucket() {
        let (raws, frames): (Vec<_>, Vec<_>) = (0..4).map(frame_of).unzip();
        let wire_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
        let bad: Arc<Vec<u8>> = {
            let mut b = frames[2].to_vec();
            let last = b.len() - 1;
            b[last] ^= 0x10;
            b.into()
        };
        let served = Arc::new(AtomicBool::new(false));
        let hits = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let provider: mrs_rpc::dataserver::Provider = {
            let (hits, served) = (Arc::clone(&hits), Arc::clone(&served));
            Arc::new(move |p: &str, _| {
                hits.lock().push(p.to_owned());
                let i: usize = p.strip_prefix('b').and_then(|i| i.parse().ok()).unwrap();
                // Bucket 2 arrives damaged the first time only.
                let first = i == 2 && !served.swap(true, Ordering::SeqCst);
                Served::Frame(Arc::clone(if first { &bad } else { &frames[i] }))
            })
        };
        let server = mrs_rpc::DataServer::serve(0, provider).unwrap();
        let urls: Vec<String> = (0..4).map(|i| server.url_for(&format!("b{i}"))).collect();
        let urls: Vec<&str> = urls.iter().map(String::as_str).collect();

        let mut tally = JobMetrics::default();
        let got: Vec<Vec<u8>> = fetch_buckets(&urls, None, None, None, &mut tally)
            .into_iter()
            .map(|r| r.unwrap().unwrap().as_ref().to_vec())
            .collect();
        assert_eq!(got, raws);
        assert_eq!(*hits.lock(), ["b0", "b1", "b2", "b3", "b2"], "one refetch, of b2 only");
        assert_eq!(tally.checksum_retries(), 1);
        assert_eq!(tally.bytes_on_wire(), wire_bytes, "each bucket's clean frame, once");
        assert_eq!(tally.bytes_pre_compress(), raws.iter().map(|r| r.len() as u64).sum::<u64>());
    }

    /// A peer holding a GET past its bound answers "not yet": that bucket
    /// alone is asked for again, and its answer fills its slot. An empty
    /// body is a bucket with no records, read like `empty:`.
    #[test]
    fn a_not_yet_bucket_is_asked_again_and_an_empty_one_is_none() {
        let (raw, frame) = frame_of(3);
        let hits = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let provider: mrs_rpc::dataserver::Provider = {
            let hits = Arc::clone(&hits);
            Arc::new(move |p: &str, _| {
                let mut hits = hits.lock();
                hits.push(p.to_owned());
                match p {
                    "later" if hits.len() < 3 => Served::NotYet,
                    "later" => Served::Frame(Arc::clone(&frame)),
                    _ => Served::Empty,
                }
            })
        };
        let server = mrs_rpc::DataServer::serve(0, provider).unwrap();
        let urls = [server.url_for("later"), server.url_for("none")];
        let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
        let go = AtomicBool::new(false);
        let got = fetch_buckets(&urls, None, None, Some(&go), &mut JobMetrics::default());
        assert_eq!(got.into_iter().map(cleartext).collect::<Vec<_>>(), [Some(raw), None]);
        assert_eq!(*hits.lock(), ["later", "none", "later"], "only the late bucket again");
    }

    /// A bucket the peer does not have fails its own slot, naming itself;
    /// the rest of the batch arrives.
    #[test]
    fn missing_bucket_mid_batch_fails_only_its_slot() {
        let (raw, frame) = frame_of(7);
        let (server, hits) = counting_server(vec![("a", Arc::clone(&frame)), ("c", frame)]);
        let urls = [server.url_for("a"), server.url_for("gone"), server.url_for("c")];
        let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
        let mut got = fetch_buckets(&urls, None, None, None, &mut JobMetrics::default());
        assert_eq!(cleartext(got.remove(0)), Some(raw.clone()));
        let err = got.remove(0).unwrap_err();
        assert!(matches!(&err, Error::MissingData(m) if m.contains("/data/gone")), "{err}");
        assert_eq!(cleartext(got.remove(0)), Some(raw));
        assert_eq!(*hits.lock(), ["a", "gone", "c"]);
    }

    /// `cancel` is observed between batches: set while the inline batch is
    /// being served, it keeps the next peer from ever being contacted and
    /// the first peer's answers from being read.
    #[test]
    fn cancel_before_the_second_peer_never_contacts_it() {
        struct CancellingStore(Arc<AtomicBool>);
        impl Store for CancellingStore {
            fn put(&self, _: &str, _: &[u8]) -> Result<()> {
                Ok(())
            }
            fn get(&self, _: &str) -> Result<Vec<u8>> {
                self.0.store(true, Ordering::SeqCst);
                Ok(frame_of(0).1.to_vec())
            }
            fn exists(&self, _: &str) -> bool {
                true
            }
            fn list(&self, _: &str) -> Result<Vec<String>> {
                Ok(Vec::new())
            }
            fn delete(&self, _: &str) -> Result<()> {
                Ok(())
            }
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let store: Arc<dyn Store> = Arc::new(CancellingStore(Arc::clone(&cancel)));
        let (_, frame) = frame_of(1);
        let (first, _) = counting_server(vec![("x", Arc::clone(&frame))]);
        let (second, second_hits) = counting_server(vec![("y", frame)]);
        let urls = [first.url_for("x"), "file://inline".to_owned(), second.url_for("y")];
        let urls: Vec<&str> = urls.iter().map(String::as_str).collect();

        let got =
            fetch_buckets(&urls, Some(&store), None, Some(&cancel), &mut JobMetrics::default());
        assert!(matches!(got[0], Err(Error::Cancelled)), "sent, never read");
        assert!(got[1].is_ok(), "the fetch that was under way completes");
        assert!(matches!(got[2], Err(Error::Cancelled)));
        assert!(second_hits.lock().is_empty(), "the second peer was contacted");
        // Set from the start, nothing is contacted at all.
        let got = fetch_buckets(&urls[2..], None, None, Some(&cancel), &mut JobMetrics::default());
        assert!(matches!(got[0], Err(Error::Cancelled)));
        assert!(second_hits.lock().is_empty());
    }

    /// A URL that does not parse fails its slot and nothing else.
    #[test]
    fn unparseable_url_fails_only_its_slot() {
        let store: Arc<dyn Store> = Arc::new(mrs_fs::MemFs::new());
        store.put("ok", &frame_of(0).1).unwrap();
        let mut tally = JobMetrics::default();
        let got = fetch_buckets(&["ftp://nope", "file://ok"], Some(&store), None, None, &mut tally);
        assert!(matches!(got[0], Err(Error::Url(_))));
        assert!(got[1].is_ok());
        assert!(fetch_buckets(&[], None, None, None, &mut tally).is_empty());
    }

    /// An `empty:` URL is a bucket with no records, resolved in place: no
    /// request names it, and no store is needed to read it.
    #[test]
    fn empty_urls_resolve_to_no_bucket_without_a_request() {
        let (raw, frame) = frame_of(3);
        let (server, hits) = counting_server(vec![("a", frame)]);
        let a = server.url_for("a");
        let mut tally = JobMetrics::default();
        let got = fetch_buckets(&["empty:", &a, "empty:"], None, None, None, &mut tally);
        let got: Vec<Option<Vec<u8>>> = got.into_iter().map(cleartext).collect();
        assert_eq!(got, [None, Some(raw), None]);
        assert_eq!(*hits.lock(), ["a"], "only the bucket with records was requested");
        // Not even a set cancel flag keeps an empty bucket from resolving.
        let cancel = AtomicBool::new(true);
        let got = fetch_buckets(&["empty:"], None, None, Some(&cancel), &mut tally);
        assert!(matches!(got[..], [Ok(None)]));
        assert_eq!(fetch_records("empty:", None, &mut tally).unwrap(), Vec::<Record>::new());
        assert_eq!(hits.lock().len(), 1);
    }

    /// Every `wire!` message and `method!` call, generated: each
    /// round-trips through the codec, each document the writer emits
    /// parses with the generic parser, and the strict decoder refuses
    /// any message with a key missing (but an omittable one), a key it
    /// does not declare or a key of the wrong type — at the master, a
    /// fault 3.
    mod props {
        use super::*;
        use mrs_trace::{Kind, Name, Op, Tag};
        use proptest::prelude::*;

        /// Strings leaning on XML's specials, non-ASCII and the empty one.
        fn text() -> impl Strategy<Value = String> {
            let chars = proptest::collection::vec(any::<char>(), 0..12);
            prop_oneof![
                Just(String::new()),
                Just("<>&\"' \u{e9}\u{2603}\u{1f600}\0".to_owned()),
                ".*",
                chars.prop_map(|cs| cs.into_iter().collect::<String>()),
            ]
        }

        /// Integers up to their wire bound, the bounds included.
        fn uint() -> impl Strategy<Value = u64> {
            prop_oneof![Just(0), Just(i64::MAX as u64), any::<u64>().prop_map(|n| n >> 1)]
        }

        fn u32s() -> impl Strategy<Value = u32> {
            prop_oneof![Just(0), Just(u32::MAX), any::<u32>()]
        }

        fn attempt() -> impl Strategy<Value = u32> {
            prop_oneof![Just(1), Just(u32::MAX), any::<u32>().prop_map(|a| a.max(1))]
        }

        fn kind() -> impl Strategy<Value = TaskKind> {
            prop_oneof![Just(TaskKind::Map), Just(TaskKind::Reduce), Just(TaskKind::ReduceMap)]
        }

        fn task() -> impl Strategy<Value = TaskMsg> {
            let ids = (u32s(), uint(), kind(), u32s(), u32s());
            let rest = (uint(), any::<bool>(), attempt(), proptest::collection::vec(text(), 0..4));
            (ids, rest).prop_map(|((data, index, kind, func, map_func), rest)| {
                let (parts, combine, attempt, inputs) = rest;
                let (index, parts) = (index as usize, parts as usize);
                TaskMsg { data, index, kind, func, map_func, parts, combine, attempt, inputs }
            })
        }

        fn report() -> impl Strategy<Value = TaskReport> {
            let parts = proptest::collection::vec(any::<u16>(), 0..6);
            (u32s(), uint(), attempt(), parts).prop_map(|(data, index, attempt, parts)| {
                let mut empty: Vec<usize> =
                    parts.into_iter().map(|p| usize::from(p) % 300).collect();
                empty.sort_unstable();
                empty.dedup();
                TaskReport { data, index: index as usize, attempt, empty }
            })
        }

        fn cancel() -> impl Strategy<Value = CancelOrder> {
            (u32s(), uint(), attempt()).prop_map(|(data, index, attempt)| CancelOrder {
                data,
                index: index as usize,
                attempt,
            })
        }

        fn event() -> impl Strategy<Value = Event> {
            let code =
                |known: fn(u8) -> bool| any::<u8>().prop_filter("a known code", move |c| known(*c));
            let codes = (
                code(|c| Kind::from_code(c).is_some()),
                code(|c| Name::from_code(c).is_some()),
                code(|c| Op::from_code(c).is_some()),
            );
            let at = prop_oneof![Just(0), Just(u64::MAX), any::<u64>()];
            (at, (u32s(), u32s(), u32s(), u32s()), codes).prop_map(|(at_us, ids, codes)| {
                let (lane, data, index, attempt) = ids;
                let (kind, name, op) = codes;
                Event {
                    at_us,
                    kind: Kind::from_code(kind).unwrap(),
                    name: Name::from_code(name).unwrap(),
                    lane,
                    tag: Tag { op: Op::from_code(op).unwrap(), data, index, attempt },
                }
            })
        }

        fn trace() -> impl Strategy<Value = TraceBatch> {
            let events = proptest::collection::vec(event(), 0..6);
            (uint(), uint(), uint(), events).prop_map(|(sent_at_us, rtt_us, dropped, events)| {
                TraceBatch { sent_at_us, rtt_us, dropped, events }
            })
        }

        fn tally() -> impl Strategy<Value = JobMetrics> {
            let values = proptest::collection::vec((any::<u8>(), uint(), any::<bool>()), 0..8);
            values.prop_map(|values| {
                let mut tally = JobMetrics::default();
                for (c, n, max) in values {
                    let c = Counter::ALL[usize::from(c) % Counter::ALL.len()];
                    let n = if max { u64::MAX } else { n };
                    tally.add(c, n);
                }
                tally
            })
        }

        fn dispatch() -> impl Strategy<Value = Dispatch> {
            let assignment = prop_oneof![
                Just(Assignment::Wait),
                Just(Assignment::Exit),
                proptest::collection::vec(task(), 1..3).prop_map(Assignment::Tasks),
            ];
            let purge = proptest::collection::vec(text(), 0..3);
            let cancel = proptest::collection::vec(cancel(), 0..3);
            (assignment, purge, cancel).prop_map(|(assignment, purge, cancel)| Dispatch {
                assignment,
                purge,
                eager: vec![],
                cancel,
            })
        }

        fn answer() -> impl Strategy<Value = Answer> {
            (dispatch(), any::<bool>()).prop_map(|(dispatch, more)| Answer { dispatch, more })
        }

        fn get_task() -> impl Strategy<Value = GetTask> {
            let reports = proptest::collection::vec(report(), 0..3);
            let ids = (u32s(), uint(), uint());
            (ids, reports, tally(), trace()).prop_map(
                |((slave, free, park_ms), reports, counts, trace)| {
                    // An empty batch is "none" and is left out.
                    let trace = if trace.is_empty() { TraceBatch::default() } else { trace };
                    GetTask { slave, free: free as usize, park_ms, reports, counts, trace }
                },
            )
        }

        fn task_failed() -> impl Strategy<Value = TaskFailed> {
            let ids = (u32s(), u32s(), uint(), attempt());
            (ids, text(), text()).prop_map(
                |((slave, data, index, attempt), message, failed_input)| TaskFailed {
                    slave,
                    data,
                    index: index as usize,
                    message,
                    failed_input,
                    attempt,
                },
            )
        }

        /// `m` written as a response document.
        fn doc<M: Wire<M>>(m: &M) -> String {
            to_doc(|w| M::put(m, w))
        }

        /// `M` read back from `doc`.
        fn read<M: Wire<M>>(doc: &str) -> Decoded<M> {
            let mut r = Reader::response(doc).expect("a response").expect("not a fault");
            let m = M::get(&mut r, "m")?;
            r.finish().map_err(|e| e.to_string())?;
            Ok(m)
        }

        /// Round trip `m`, check its document with the generic parser, and
        /// check the strict decoder on the generic tree of the document:
        /// every key but the `optional` ones required, a surplus key and a
        /// mistyped one refused naming it.
        fn check<M: Wire<M> + PartialEq + std::fmt::Debug>(
            m: &M,
            optional: &[&str],
        ) -> std::result::Result<(), String> {
            let doc = doc(m);
            prop_assert_eq!(&read::<M>(&doc)?, m);
            let tree = xmlrpc::parse_response(&doc).map_err(|e| e.to_string())?.unwrap();
            let Value::Struct(fields) = &tree else {
                return Err(format!("not a struct: {tree:?}"));
            };
            let strict = |fields: &BTreeMap<String, Value>| {
                read::<M>(&xmlrpc::encode_response(&Value::Struct(fields.clone())))
            };
            for key in fields.keys() {
                let mut without = fields.clone();
                without.remove(key);
                match strict(&without) {
                    Err(why) => prop_assert!(why.contains(key.as_str()), "{}: {}", key, why),
                    Ok(_) => prop_assert!(optional.contains(&key.as_str()), "{} not required", key),
                }
                let mut mistyped = fields.clone();
                mistyped.insert(key.clone(), Value::Double(0.5));
                let why = strict(&mistyped).err().ok_or(format!("{key} as a double"))?;
                prop_assert!(why.contains(key.as_str()), "{}: {}", key, why);
            }
            let mut surplus = fields.clone();
            surplus.insert("surplus".to_owned(), Value::Int(1));
            let why = strict(&surplus).err().ok_or("a surplus key was read")?;
            prop_assert!(why.contains("unknown key \"surplus\""), "{}", why);
            Ok(())
        }

        /// Round trip `call`, check its document with the generic parser,
        /// and refuse it with fault 3 given a surplus parameter, each
        /// required one missing or each one mistyped.
        fn check_call<C: PartialEq + std::fmt::Debug>(
            call: &C,
            request: fn(&C) -> String,
            read: fn(Reader) -> std::result::Result<C, Fault>,
            required: usize,
        ) -> std::result::Result<(), String> {
            let doc = request(call);
            let (_, params) = xmlrpc::parse_request(&doc).map_err(|e| e.to_string())?;
            prop_assert_eq!(&read(Reader::request(&doc).unwrap().1).map_err(|f| f.1)?, call);
            let fault = |params: &[Value]| {
                let doc = xmlrpc::encode_request("m", params);
                read(Reader::request(&doc).unwrap().1).err().map(|f| f.0)
            };
            let surplus: Vec<Value> = params.iter().cloned().chain([Value::Int(1)]).collect();
            prop_assert_eq!(fault(&surplus), Some(BAD_PARAMS));
            for at in 0..params.len() {
                if at < required {
                    prop_assert_eq!(fault(&params[..at]), Some(BAD_PARAMS), "{} given", at);
                }
                let mut mistyped = params.clone();
                mistyped[at] = Value::Double(0.5);
                prop_assert_eq!(fault(&mistyped), Some(BAD_PARAMS), "parameter {} mistyped", at);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn every_message_round_trips_and_is_strict(
                task in task(),
                report in report(),
                cancel in cancel(),
                trace in trace(),
                answer in answer(),
            ) {
                check(&task, &[])?;
                check(&report, &["empty"])?;
                check(&cancel, &[])?;
                check(&trace, &[])?;
                check(&answer, &["purge", "cancel"])?;
                check(&answer.dispatch, &["purge", "cancel"])?;
            }

            #[test]
            fn every_call_round_trips_and_is_strict(
                get_task in get_task(),
                failed in task_failed(),
                authority in text(),
                slots in uint(),
            ) {
                check_call(&get_task, GetTask::request, GetTask::read, 5)?;
                check_call(&failed, TaskFailed::request, TaskFailed::read, 6)?;
                let signin = Signin { authority, slots: slots as usize, version: PROTOCOL_VERSION };
                let doc = signin.request();
                xmlrpc::parse_request(&doc).map_err(|e| e.to_string())?;
                prop_assert_eq!(Signin::read(Reader::request(&doc).unwrap().1).map_err(|f| f.1)?, signin);
            }
        }
    }
}
