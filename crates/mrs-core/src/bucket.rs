//! Buckets: the unit of intermediate data.
//!
//! Map output is partitioned into one bucket per reduce partition (Fig. 1);
//! each reduce task consumes all same-numbered buckets from every map task.
//!
//! Storage is a flat arena: one contiguous byte buffer holding every key and
//! value back to back, plus a compact offset table. Appending a record is
//! two `extend_from_slice` calls and one 12-byte table entry — no per-record
//! heap allocation — so a bucket performs O(1) amortized allocations no
//! matter how many records flow through it. Sorting reorders only the
//! offset table, in place; the payload bytes never move.
//!
//! A bucket that arrives as bytes need not be copied into an arena at all:
//! [`Bucket::adopt`] takes the received buffer *as* its arena and only
//! builds the offset table, pointing each entry at the key and value bytes
//! where they lie. Such an arena keeps the `MRSB1` layout, each value
//! behind its length varint; the bucket holds that varint's width, one
//! for all its records, as the distance from a key's end to its value,
//! which is zero in an arena of pushes — so a record is read the same way
//! in either.
//!
//! Every key order in the workspace starts from one integer: a key's first
//! 8 bytes, big-endian ([`key_prefix`]). Sorting ([`Bucket::sort`], the
//! hash combiner's final pass) packs it with the key length and an arrival
//! tag into one `u128` and sorts integers, reading key bytes only for runs
//! of longer-than-8-byte keys that tie on the prefix. A bucket whose keys
//! repeat sorts only its distinct `(prefix, length)` groups and counts
//! its entries into their order, arrival order kept. Pairwise compares —
//! the run merger's heads, its equal-key scans, the sortedness check on
//! decode — compare prefixes first and read key bytes only on a tie
//! ([`cmp_keys`]).

use crate::kv::Record;
use crate::Error;
use std::cmp::Ordering;

/// The first 8 bytes of `key` as a big-endian integer, zero-padded on the
/// right: for any two keys, a smaller prefix means a smaller key.
#[inline]
pub fn key_prefix(key: &[u8]) -> u64 {
    match key.first_chunk::<8>() {
        Some(head) => u64::from_be_bytes(*head),
        // A short key is folded byte by byte: a variable-length copy into
        // a zeroed buffer costs a `memcpy` call per WordCount-sized key.
        None => key.iter().enumerate().fold(0, |p, (i, &b)| p | (b as u64) << (56 - 8 * i)),
    }
}

/// `a.cmp(b)` for the keys `(a, b)` that `keys` yields, given each key's
/// [`key_prefix`]; `keys` is called only when the prefixes tie. Equal
/// prefixes of two keys of at most 8 bytes mean one is the other plus
/// trailing zero bytes, so their lengths decide (zero padding must not
/// equate `""` and `"\0"`); only a key longer than its prefix sends the
/// compare to the key bytes.
#[inline]
pub fn cmp_keys<'k>(pa: u64, pb: u64, keys: impl FnOnce() -> (&'k [u8], &'k [u8])) -> Ordering {
    pa.cmp(&pb).then_with(|| {
        let (a, b) = keys();
        if a.len() <= 8 && b.len() <= 8 {
            a.len().cmp(&b.len())
        } else {
            a.cmp(b)
        }
    })
}

/// [`key_prefix`] of the `klen`-byte key at `off` in `arena`: one 8-byte
/// load masked to the key's length, the byte-wise fold only where fewer
/// than 8 bytes remain in the arena.
#[inline]
pub(crate) fn prefix_in(arena: &[u8], off: usize, klen: usize) -> u64 {
    match arena[off..].first_chunk::<8>() {
        Some(word) if klen >= 8 => u64::from_be_bytes(*word),
        Some(word) => u64::from_be_bytes(*word) & !(u64::MAX >> (8 * klen)),
        None => key_prefix(&arena[off..off + klen]),
    }
}

/// Length field of a packed sort key whose key is longer than its prefix.
const LONG: u128 = 9;

/// The low 32 bits of a packed sort key: its index.
const INDEX: u128 = u32::MAX as u128;

/// The order of `keys`, given as `(prefix, length)` pairs, as their
/// indices — one `u128` per key, `prefix << 64 | min(length, 9) << 32 |
/// index`, sorted as integers; `key(i)` is read only to order keys longer
/// than 8 bytes that share a prefix. Equal keys keep index order, so this
/// is a stable sort by key bytes: for keys of at most 8 bytes (prefix,
/// length) is key order, and a shorter key sharing a longer key's prefix
/// is a prefix of it. The index of each entry is its low 32 bits.
///
/// The input picks the path; all three give the same integers. A few
/// presorted runs (counted as descents while packing) go to the
/// run-merging stable sort. Otherwise, unless the caller's keys are known
/// distinct (`repeats` false), 64 or more keys try [`sort_by_groups`],
/// which counts them into the order of their d distinct `(prefix,
/// length)` groups in O(n + d log d) — a WordCount partition repeats each
/// word about ten times. It declines keys that rarely repeat among the
/// first 128 or that form more than n/4 groups, and those go to the
/// unstable sort.
pub(crate) fn sorted_order<'k>(
    keys: impl ExactSizeIterator<Item = (u64, usize)>,
    key: impl Fn(u32) -> &'k [u8],
    repeats: bool,
) -> Vec<u128> {
    assert!(keys.len() < 1 << 32, "2^32 or more keys to sort");
    let mut packed = Vec::with_capacity(keys.len());
    let (mut descents, mut long) = (0usize, false);
    let mut last = 0u128;
    for (i, (prefix, len)) in keys.enumerate() {
        let k = (prefix as u128) << 64 | (len as u128).min(LONG) << 32 | i as u128;
        descents += usize::from(k < last);
        long |= len > 8;
        last = k;
        packed.push(k);
    }
    sort_packed(&mut packed, descents, repeats);
    if !long {
        return packed;
    }
    for run in packed.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        if run.len() > 1 && (run[0] >> 32) as u32 as u128 == LONG {
            let by_key = |a: &u128, b: &u128| key(*a as u32).cmp(key(*b as u32));
            if !run.is_sorted_by(|a, b| by_key(a, b).is_le()) {
                run.sort_by(by_key);
            }
        }
    }
    packed
}

/// The sort [`sorted_order`] gave its packed keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    Runs,
    Groups,
    Unstable,
}

/// Sort the packed keys of [`sorted_order`], which hold `descents`
/// descents, by the path their shape picks.
fn sort_packed(packed: &mut [u128], descents: usize, repeats: bool) -> Path {
    if descents * 64 < packed.len() {
        packed.sort();
        Path::Runs
    } else if repeats && packed.len() >= GROUP_MIN && sort_by_groups(packed) {
        Path::Groups
    } else {
        packed.sort_unstable();
        Path::Unstable
    }
}

/// Fewest keys [`sorted_order`] tries to group: below this the table's
/// set-up outweighs what a comparison sort of so few keys costs.
const GROUP_MIN: usize = 64;

/// [`sort_by_groups`] first looks at this many keys, and goes on only if
/// more than a quarter of them repeat one before them.
const PROBE: usize = 128;

/// The hash of a group's key (a packed key's bits above its index) whose
/// top bits [`sort_by_groups`]'s probe and its table take.
#[inline]
fn group_hash(k: u128) -> u64 {
    ((k >> 64) as u64 ^ (k >> 32) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// True when more than a quarter of `keys` repeat a key before them, as a
/// 1024-bit filter of their hashes counts: a collision can only add a
/// repeat, and 128 distinct keys collide about 8 times.
fn repeats_early(keys: &[u128]) -> bool {
    let mut seen = [0u64; 16];
    let mut repeats = 0;
    for &k in keys {
        let bit = (group_hash(k & !INDEX) >> 54) as usize;
        repeats += (seen[bit / 64] >> (bit % 64)) as usize & 1;
        seen[bit / 64] |= 1 << (bit % 64);
    }
    4 * repeats > keys.len()
}

/// Sort `packed` — the packed keys of [`sorted_order`], each at its index
/// — by groups: one pass maps each key's `(prefix, length)` to its group
/// in an open-addressing table, the d groups are sorted as integers, and
/// the keys are counted into group order in index order, which keeps
/// equal keys in index order. Each key's group id and then the index
/// placed at its position live in its own slot; besides them the pass
/// holds the table, at most 4 bytes a key, and the groups. False, with
/// `packed` as it was, when the first [`PROBE`] keys rarely repeat or
/// there prove to be more than n/4 groups.
fn sort_by_groups(packed: &mut [u128]) -> bool {
    let n = packed.len();
    if !repeats_early(&packed[..n.min(PROBE)]) {
        return false;
    }
    // Each group's key with its id in the index bits, and its count.
    let mut groups: Vec<u128> = Vec::with_capacity((n / 4).min(256));
    let mut counts: Vec<u32> = Vec::with_capacity(groups.capacity());
    // Open addressing with linear probes, at most half full at n/4 groups;
    // ids are stored plus one so that zero marks an empty slot.
    let mut table = vec![0u32; (n / 2).next_power_of_two()];
    let (shift, mask) = (64 - table.len().trailing_zeros(), table.len() - 1);
    for i in 0..n {
        let k = packed[i] & !INDEX;
        let mut slot = (group_hash(k) >> shift) as usize;
        let gid = loop {
            match table[slot] {
                0 => break groups.len(),
                id if groups[id as usize - 1] & !INDEX == k => break id as usize - 1,
                _ => slot = (slot + 1) & mask,
            }
        };
        if gid == groups.len() {
            if gid >= n / 4 {
                for (j, slot) in packed[..i].iter_mut().enumerate() {
                    *slot = groups[*slot as usize] & !INDEX | j as u128;
                }
                return false;
            }
            groups.push(k | gid as u128);
            counts.push(0);
            table[slot] = gid as u32 + 1;
        }
        counts[gid] += 1;
        packed[i] = gid as u128;
    }
    groups.sort_unstable();
    // Each group's first position, advanced as its keys are placed.
    let mut next = counts;
    let mut at = 0;
    for g in &groups {
        let gid = (g & INDEX) as usize;
        let count = next[gid];
        next[gid] = at;
        at += count;
    }
    // The index placed at position p goes into bits 32..64 of slot p; the
    // group id in its low bits, still needed if p > i, stays.
    for i in 0..n {
        let gid = (packed[i] & INDEX) as usize;
        let p = next[gid] as usize;
        next[gid] += 1;
        packed[p] |= (i as u128) << 32;
    }
    let mut p = 0;
    for g in &groups {
        let end = next[(g & INDEX) as usize] as usize;
        for slot in &mut packed[p..end] {
            *slot = g & !INDEX | *slot >> 32;
        }
        p = end;
    }
    true
}

/// One record in the arena: `[off .. off+klen)` is the key,
/// `[off+klen .. off+klen+vlen)` the value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    off: u32,
    klen: u32,
    vlen: u32,
}

impl Entry {
    /// The entry as one integer, so the sort can park it in its key slot.
    fn pack(self) -> u128 {
        (self.off as u128) << 64 | (self.klen as u128) << 32 | self.vlen as u128
    }

    fn unpack(x: u128) -> Entry {
        Entry { off: (x >> 64) as u32, klen: (x >> 32) as u32, vlen: x as u32 }
    }
}

/// An append-only collection of records destined for one partition.
#[derive(Clone, Debug, Default)]
pub struct Bucket {
    data: Vec<u8>,
    entries: Vec<Entry>,
    /// Bytes between each key and its value: none in an arena of pushes;
    /// in an adopted buffer, the width of the length varint each value
    /// lies behind, one width for every record.
    lead: u32,
    /// Bytes of `data` that are no record's key or value: an adopted
    /// buffer's framing.
    framing: usize,
}

/// The offset table of a buffer being indexed in place (see
/// [`Bucket::adopt`]): the caller walks the buffer and reports where each
/// record lies; every report is bounds-checked here.
pub struct Spans<'a> {
    data: &'a [u8],
    entries: Vec<Entry>,
    /// Bytes between a key's end and its value's start, as the first
    /// record has it.
    lead: Option<usize>,
    /// Key and value bytes reported.
    bytes: usize,
    sorted: bool,
    /// The last record's key: its offset, length and prefix.
    last: (usize, usize, u64),
    /// The records copied into an arena of pushes, once one of them lay a
    /// different distance behind its key than the first.
    copied: Option<Bucket>,
}

impl<'a> Spans<'a> {
    /// The buffer being indexed.
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// One record: its key is `data[key..key + klen]` and its value
    /// `data[value..value + vlen]`, no earlier than the key's end. Key
    /// order is checked against the record before, as [`Bucket::adopt`]'s
    /// verdict. A record reaching past the buffer, or a value before its
    /// key's end, is an error.
    #[inline]
    pub fn push(
        &mut self,
        key: usize,
        klen: usize,
        value: usize,
        vlen: usize,
    ) -> crate::Result<()> {
        let lead = key.checked_add(klen).and_then(|end| value.checked_sub(end));
        let fits = value.checked_add(vlen).is_some_and(|end| end <= self.data.len());
        let Some(lead) = lead.filter(|_| fits) else {
            return Err(Error::Codec(format!(
                "record at {key} ({klen}-byte key, {vlen}-byte value at {value}) \
                 does not fit a {}-byte buffer",
                self.data.len()
            )));
        };
        let prefix = prefix_in(self.data, key, klen);
        let (at, len, before) = self.last;
        if cmp_keys(before, prefix, || (&self.data[at..at + len], &self.data[key..key + klen]))
            .is_gt()
        {
            self.sorted = false;
        }
        self.last = (key, klen, prefix);
        self.bytes += klen + vlen;
        if *self.lead.get_or_insert(lead) != lead && self.copied.is_none() {
            self.copied = Some(self.copy_out());
        }
        match &mut self.copied {
            Some(copied) => copied.push(&self.data[key..key + klen], &self.data[value..][..vlen]),
            None => {
                self.entries.push(Entry { off: key as u32, klen: klen as u32, vlen: vlen as u32 })
            }
        }
        Ok(())
    }

    /// The records indexed so far, copied into an arena of pushes.
    #[cold]
    fn copy_out(&mut self) -> Bucket {
        let lead = self.lead.unwrap_or(0);
        let mut copied = Bucket::with_capacity(self.entries.capacity(), self.data.len());
        for e in self.entries.drain(..) {
            let (k, klen) = (e.off as usize, e.klen as usize);
            copied.push(&self.data[k..k + klen], &self.data[k + klen + lead..][..e.vlen as usize]);
        }
        copied
    }
}

impl Bucket {
    /// An empty bucket.
    pub fn new() -> Self {
        Bucket::default()
    }

    /// An empty bucket with pre-sized arena capacity.
    pub fn with_capacity(records: usize, bytes: usize) -> Self {
        Bucket {
            data: Vec::with_capacity(bytes),
            entries: Vec::with_capacity(records),
            lead: 0,
            framing: 0,
        }
    }

    /// A bucket whose arena is `data` itself, no byte of it copied: `walk`
    /// reports its (at most `records`) records to [`Spans::push`] in
    /// order, each key and value where it lies in `data` — the `MRSB1`
    /// record layout, which the caller parses, puts each value behind its
    /// length varint. Returns the bucket and whether its keys arrived in
    /// non-decreasing order, found in the same pass (one adjacent-prefix
    /// compare per record, key bytes read only on a tie).
    ///
    /// The bucket finds a value one fixed distance behind its key, so
    /// every record must lie the first one's distance behind it — as all
    /// do whose value lengths take varints of one width (all values under
    /// 128 bytes, say). A buffer whose records do not is copied into an
    /// arena of pushes instead. A buffer of 4 GiB or more, or a record
    /// [`Spans::push`] refuses, is an error, as is whatever `walk` returns.
    pub fn adopt(
        data: Vec<u8>,
        records: usize,
        walk: impl FnOnce(&mut Spans<'_>) -> crate::Result<()>,
    ) -> crate::Result<(Bucket, bool)> {
        if data.len() > u32::MAX as usize {
            return Err(Error::Codec(format!(
                "{}-byte buffer exceeds the 4 GiB arena",
                data.len()
            )));
        }
        let mut spans = Spans {
            data: &data,
            // Every record takes at least its two length bytes.
            entries: Vec::with_capacity(records.min(data.len() / 2)),
            lead: None,
            bytes: 0,
            sorted: true,
            // `""` sorts first, so the first record is never a descent.
            last: (0, 0, 0),
            copied: None,
        };
        walk(&mut spans)?;
        let Spans { entries, lead, bytes, sorted, copied, .. } = spans;
        if let Some(copied) = copied {
            return Ok((copied, sorted));
        }
        let lead = lead.unwrap_or(0) as u32;
        let framing = data.len() - bytes;
        Ok((Bucket { data, entries, lead, framing }, sorted))
    }

    /// Build from existing records.
    pub fn from_records(records: Vec<Record>) -> Self {
        Bucket::from_slice(&records)
    }

    /// Build by copying borrowed records into a right-sized arena.
    pub fn from_slice(records: &[Record]) -> Self {
        let bytes = records.iter().map(|(k, v)| k.len() + v.len()).sum();
        let mut b = Bucket::with_capacity(records.len(), bytes);
        for (k, v) in records {
            b.push(k, v);
        }
        b
    }

    /// Append one record by copying it into the arena.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        if self.lead != 0 {
            return self.push_behind_lead(key, value);
        }
        let off = self.data.len();
        assert!(
            off + key.len() + value.len() <= u32::MAX as usize,
            "bucket exceeds 4 GiB arena limit"
        );
        self.data.extend_from_slice(key);
        self.data.extend_from_slice(value);
        self.entries.push(Entry {
            off: off as u32,
            klen: key.len() as u32,
            vlen: value.len() as u32,
        });
    }

    /// [`Bucket::push`] onto an adopted arena: the value goes the arena's
    /// lead behind its key, the bytes between them filler.
    #[cold]
    fn push_behind_lead(&mut self, key: &[u8], value: &[u8]) {
        let off = self.data.len();
        let lead = self.lead as usize;
        assert!(
            off + key.len() + lead + value.len() <= u32::MAX as usize,
            "bucket exceeds 4 GiB arena limit"
        );
        self.data.extend_from_slice(key);
        self.data.resize(self.data.len() + lead, 0);
        self.data.extend_from_slice(value);
        self.framing += lead;
        self.entries.push(Entry {
            off: off as u32,
            klen: key.len() as u32,
            vlen: value.len() as u32,
        });
    }

    /// Drop all records but keep the arena and offset-table allocations,
    /// so a long-lived scratch bucket stops allocating once it has grown
    /// to the working-set size.
    pub fn clear(&mut self) {
        self.data.clear();
        self.entries.clear();
        self.lead = 0;
        self.framing = 0;
    }

    /// Append all records from another bucket.
    pub fn extend_from(&mut self, other: &Bucket) {
        for (k, v) in other.iter() {
            self.push(k, v);
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes (keys + values), the shuffle-volume metric used
    /// by the combiner ablation (A3).
    pub fn byte_size(&self) -> usize {
        self.data.len() - self.framing
    }

    /// Each record's key and value lengths, in current order, read off
    /// the offset table alone.
    pub fn lengths(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + Clone + '_ {
        self.entries.iter().map(|e| (e.klen as usize, e.vlen as usize))
    }

    /// The record at position `i` as borrowed (key, value) slices.
    pub fn get(&self, i: usize) -> (&[u8], &[u8]) {
        let e = self.entries[i];
        let k = e.off as usize;
        let v = k + e.klen as usize;
        let at = v + self.lead as usize;
        (&self.data[k..v], &self.data[at..at + e.vlen as usize])
    }

    /// The key of the record at position `i` (the merge machinery walks
    /// keys without touching values).
    pub fn key_at(&self, i: usize) -> &[u8] {
        self.key_of(&self.entries[i])
    }

    /// [`key_prefix`] of the key at position `i`, read straight from the
    /// arena.
    #[inline]
    pub(crate) fn key_prefix_at(&self, i: usize) -> u64 {
        let e = self.entries[i];
        prefix_in(&self.data, e.off as usize, e.klen as usize)
    }

    /// The key bytes an offset-table entry points at.
    fn key_of(&self, e: &Entry) -> &[u8] {
        &self.data[e.off as usize..(e.off + e.klen) as usize]
    }

    /// Iterate records as borrowed (key, value) slices, in current order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], &[u8])> + '_ {
        (0..self.entries.len()).map(move |i| self.get(i))
    }

    /// Copy each record out as an owned pair.
    pub fn records(&self) -> impl ExactSizeIterator<Item = Record> + '_ {
        self.iter().map(|(k, v)| (k.to_vec(), v.to_vec()))
    }

    /// Copy out into owned records.
    pub fn to_records(&self) -> Vec<Record> {
        self.records().collect()
    }

    /// Sort by encoded key, preserving arrival order among equal keys (the
    /// shuffle sort step): `sorted_order` over each entry's prefix and
    /// key length, the arrival index as tag. The permuted entries are
    /// written back into the offset table itself — each sorted key's slot
    /// first takes its entry, then the table is refilled from the slots —
    /// so the only scratch is the 16-byte keys, freed on return.
    pub fn sort(&mut self) {
        let data = &self.data;
        let entries = &self.entries;
        let mut order = sorted_order(
            entries
                .iter()
                .map(|e| (prefix_in(data, e.off as usize, e.klen as usize), e.klen as usize)),
            |i| self.key_of(&entries[i as usize]),
            true,
        );
        for slot in &mut order {
            *slot = entries[*slot as u32 as usize].pack();
        }
        for (e, &slot) in self.entries.iter_mut().zip(&order) {
            *e = Entry::unpack(slot);
        }
    }

    /// True if records are in non-decreasing key order.
    pub fn is_sorted(&self) -> bool {
        (1..self.entries.len()).all(|i| self.key_at(i - 1) <= self.key_at(i))
    }

    /// Iterate key groups of a sorted bucket: each item is one distinct key
    /// with an iterator over its values in arrival order.
    ///
    /// The bucket must be sorted; debug builds assert this.
    pub fn groups(&self) -> BucketGroups<'_> {
        debug_assert!(self.is_sorted(), "groups() requires a sorted bucket");
        BucketGroups { bucket: self, pos: 0 }
    }
}

/// Iterator over the key groups of a sorted [`Bucket`].
pub struct BucketGroups<'a> {
    bucket: &'a Bucket,
    pos: usize,
}

impl<'a> Iterator for BucketGroups<'a> {
    type Item = (&'a [u8], BucketValues<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.bucket.len() {
            return None;
        }
        let start = self.pos;
        let key = self.bucket.key_at(start);
        let mut end = start + 1;
        while end < self.bucket.len() && self.bucket.key_at(end) == key {
            end += 1;
        }
        self.pos = end;
        Some((key, BucketValues { bucket: self.bucket, pos: start, end }))
    }
}

/// Iterator over the values of one key group.
pub struct BucketValues<'a> {
    bucket: &'a Bucket,
    pos: usize,
    end: usize,
}

impl<'a> Iterator for BucketValues<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.pos >= self.end {
            return None;
        }
        let (_, v) = self.bucket.get(self.pos);
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.pos;
        (n, Some(n))
    }
}

/// Buckets compare by logical record sequence, not arena layout: two buckets
/// holding the same records in the same order are equal even if their
/// arenas differ (e.g. one was sorted in place, the other built pre-sorted).
impl PartialEq for Bucket {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Bucket {}

impl FromIterator<Record> for Bucket {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> Self {
        let mut b = Bucket::new();
        for (k, v) in iter {
            b.push(&k, &v);
        }
        b
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(k: &str, v: &str) -> Record {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    const STEMS: [&[u8; 12]; 3] = [&[0; 12], b"prefix--\0\0\0\0", b"prefix--tail"];

    /// Keys built to collide on the 8-byte prefix: one of three 12-byte
    /// stems cut to 0..=12 bytes, byte 9 bumped by 0..3. That yields `""`,
    /// `"\0"`, `"\0\0"` (which zero padding must not equate), an 8-byte key
    /// against its 9-byte extension by `\0`, every key a strict prefix of
    /// its longer cuts, and keys that differ only past the prefix.
    pub(crate) fn colliding_key() -> impl Strategy<Value = Vec<u8>> {
        (0usize..3, 0usize..13, 0u8..3).prop_map(|(stem, len, bump)| {
            let mut key = STEMS[stem][..len].to_vec();
            if let Some(b) = key.get_mut(9) {
                *b += bump;
            }
            key
        })
    }

    /// Pair each key with its arrival index, so value order is checked.
    pub(crate) fn tagged(keys: Vec<Vec<u8>>) -> Vec<Record> {
        keys.into_iter().enumerate().map(|(i, k)| (k, (i as u32).to_be_bytes().to_vec())).collect()
    }

    #[test]
    fn cmp_keys_is_slice_order_on_colliding_keys() {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for stem in STEMS.into_iter().chain([&[0xff; 12]]) {
            keys.extend((0..=12).map(|len| stem[..len].to_vec()));
        }
        for a in &keys {
            for b in &keys {
                let got = cmp_keys(key_prefix(a), key_prefix(b), || (a, b));
                assert_eq!(got, a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    /// Keys at the packed sort key's edges: `""` against `"\0"`, 7-, 8-
    /// and 9-byte keys sharing a prefix, and keys ending in zero bytes.
    const EDGES: [&[u8]; 11] = [
        b"",
        b"\0",
        b"\0\0",
        b"abcdefg",
        b"abcdefg\0",
        b"abcdefgh",
        b"abcdefgh\0",
        b"abcdefgh\0\0",
        b"abcdefghi",
        b"abcdefghi\0",
        b"abcdefgz",
    ];

    fn edge_key() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            colliding_key(),
            (0..EDGES.len()).prop_map(|i| EDGES[i].to_vec()),
            proptest::collection::vec(any::<u8>(), 0..12),
        ]
    }

    /// Arrange drawn keys as the sort meets them: as drawn, all equal,
    /// already sorted, or `runs` concatenated sorted runs (the shape of a
    /// reduce partition gathered from several map outputs).
    fn arrange(mut keys: Vec<Vec<u8>>, shape: u8, runs: usize) -> Vec<Vec<u8>> {
        match shape {
            0 => {}
            1 => {
                let first = keys.first().cloned().unwrap_or_default();
                keys.iter_mut().for_each(|k| k.clone_from(&first));
            }
            2 => keys.sort(),
            _ => {
                let len = keys.len().div_ceil(runs).max(1);
                keys.chunks_mut(len).for_each(<[Vec<u8>]>::sort);
            }
        }
        keys
    }

    proptest! {
        /// `Bucket::sort` against the std stable sort of owned records, on
        /// every shape of input it takes a different path for.
        #[test]
        fn sort_agrees_with_std_stable_sort(
            keys in proptest::collection::vec(edge_key(), 0..400),
            shape in 0u8..4,
            runs in 1usize..9,
        ) {
            let mut records = tagged(arrange(keys, shape, runs));
            let mut bucket = Bucket::from_records(records.clone());
            bucket.sort();
            records.sort_by(|a, b| a.0.cmp(&b.0));
            prop_assert_eq!(bucket.to_records(), records);
        }
    }

    /// A key from the edges of the grouped path: `EDGES` and
    /// `colliding_key()`, so `""` and `"\0"`, 8- and 9-byte keys and long
    /// keys sharing a prefix each land in a group of their own.
    fn alphabet_key() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![colliding_key(), (0..EDGES.len()).prop_map(|i| EDGES[i].to_vec())]
    }

    /// `Bucket::sort` against the std stable sort of `keys` tagged with
    /// their arrival index.
    fn agrees_with_std(keys: Vec<Vec<u8>>) -> Result<(), String> {
        let mut records = tagged(keys);
        let mut bucket = Bucket::from_records(records.clone());
        bucket.sort();
        records.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(bucket.to_records(), records);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Many entries over a small alphabet: the grouped path, its tie
        /// pass on long keys sharing a prefix included.
        #[test]
        fn grouped_sort_agrees_with_std_stable_sort(
            alphabet in proptest::collection::vec(alphabet_key(), 1..41),
            picks in proptest::collection::vec(any::<u16>(), 64..2000),
        ) {
            let keys = picks.iter().map(|&p| alphabet[p as usize % alphabet.len()].clone());
            agrees_with_std(keys.collect())?;
        }

        /// All keys distinct: the grouped path refuses at its probe.
        #[test]
        fn distinct_sort_agrees_with_std_stable_sort(
            keys in proptest::collection::vec(any::<u64>(), 300..1000),
        ) {
            let keys = keys.iter().enumerate().map(|(i, k)| {
                [&k.to_be_bytes()[..(k % 9) as usize], &(i as u32).to_be_bytes()].concat()
            });
            agrees_with_std(keys.collect())?;
        }

        /// `fresh` distinct keys, then `more` entries repeating them: 256
        /// fresh keys fail the probe; 17 to 63 pass it, and with fewer
        /// than four entries a group the pass gives up part way and
        /// restores the keys it grouped.
        #[test]
        fn repeats_after_distinct_keys_agree_with_std_stable_sort(
            fresh in prop_oneof![Just(256usize), 17usize..64],
            more in 0usize..1500,
            seed in any::<u64>(),
        ) {
            // 2- to 8-byte keys, every third behind a shared 8-byte prefix.
            let key = |i: u64| {
                let k = &mix(i ^ seed).to_be_bytes()[..2 + (i % 7) as usize];
                [if i.is_multiple_of(3) { &b"prefix--"[..] } else { b"" }, k].concat()
            };
            let first = (0..fresh as u64).map(key);
            let then = (0..more as u64).map(|i| key(mix(i) % fresh as u64));
            agrees_with_std(first.chain(then).collect())?;
        }
    }

    fn mix(x: u64) -> u64 {
        x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
    }

    /// Packed keys of `keys` as `sorted_order` packs them, all 8 bytes
    /// long, and their descents.
    fn packed(keys: &[u64]) -> (Vec<u128>, usize) {
        let packed: Vec<u128> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k as u128) << 64 | 8 << 32 | i as u128)
            .collect();
        let descents = packed.windows(2).filter(|w| w[1] < w[0]).count();
        (packed, descents)
    }

    /// The path each shape of input takes, at the rule's edges; every
    /// path gives the sorted integers.
    #[test]
    fn the_input_picks_the_sort_path() {
        // Distinct keys whose probe filter bits differ, so that the
        // filter counts their repeats exactly.
        let mut bits = std::collections::HashSet::new();
        let clean: Vec<u64> = (0..)
            .map(mix)
            .filter(|&k| bits.insert(group_hash((k as u128) << 64 | 8 << 32) >> 54))
            .take(256)
            .collect();
        // `d` distinct keys over `n` entries: `early` of them first, the
        // rest right after the probe's entries, repeats elsewhere.
        let spread = |n: u64, early: u64, d: u64| -> Vec<u64> {
            let probe = PROBE as u64;
            let id = |i: u64| match i {
                i if i < early => i,
                i if (probe..probe + d - early).contains(&i) => i - probe + early,
                i => mix(i) % early,
            };
            (0..n).map(|i| clean[id(i) as usize]).collect()
        };
        let cases = [
            (spread(63, 8, 8), true, Path::Unstable),
            (spread(64, 8, 8), true, Path::Groups),
            (spread(64, 8, 8), false, Path::Unstable),
            ((0..1000).map(|i| i / 10).collect(), true, Path::Runs),
            (spread(1024, 95, 95), true, Path::Groups),
            (spread(1024, 96, 96), true, Path::Unstable),
            (spread(1000, 8, 250), true, Path::Groups),
            (spread(1000, 8, 251), true, Path::Unstable),
        ];
        for (i, (keys, repeats, path)) in cases.into_iter().enumerate() {
            let (mut got, descents) = packed(&keys);
            let mut want = got.clone();
            want.sort();
            assert_eq!(sort_packed(&mut got, descents, repeats), path, "case {i}");
            assert!(got == want, "case {i} is not sorted");
        }
    }

    /// The sort permutes the offset table in place: a freshly collected
    /// table in its stead measurably slowed the pool plane.
    #[test]
    fn sort_keeps_the_offset_table_allocation() {
        let keys = (0..1000u32).map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes().to_vec());
        let mut b = Bucket::from_records(tagged(keys.collect()));
        let table = (b.entries.as_ptr(), b.entries.capacity());
        b.sort();
        assert!(b.is_sorted());
        assert_eq!((b.entries.as_ptr(), b.entries.capacity()), table);
    }

    /// The same on the grouped path: a thousand entries of fifty keys.
    #[test]
    fn grouped_sort_keeps_the_offset_table_allocation() {
        let keys =
            (0..1000u32).map(|i| (i.wrapping_mul(2_654_435_761) % 50).to_le_bytes().to_vec());
        let mut b = Bucket::from_records(tagged(keys.collect()));
        let table = (b.entries.as_ptr(), b.entries.capacity());
        b.sort();
        assert!(b.is_sorted());
        assert_eq!((b.entries.as_ptr(), b.entries.capacity()), table);
    }

    /// Where one record lies, as `Bucket::adopt` is told:
    /// `(key, klen, value, vlen)`.
    type Span = (usize, usize, usize, usize);

    /// `MRSB1`-shaped bytes for `records`, each value behind a length
    /// field `lead(value)` bytes wide, and their spans.
    fn laid_out(records: &[Record], lead: impl Fn(&[u8]) -> usize) -> (Vec<u8>, Vec<Span>) {
        let mut data = b"HEAD".to_vec();
        let mut spans = Vec::new();
        for (k, v) in records {
            data.push(k.len() as u8);
            let key = data.len();
            data.extend_from_slice(k);
            data.resize(data.len() + lead(v), 0xee);
            spans.push((key, k.len(), data.len(), v.len()));
            data.extend_from_slice(v);
        }
        (data, spans)
    }

    fn adopt(data: Vec<u8>, spans: &[Span]) -> Result<(Bucket, bool), Error> {
        Bucket::adopt(data, spans.len(), |s| {
            spans.iter().try_for_each(|&(k, kl, v, vl)| s.push(k, kl, v, vl))
        })
    }

    /// A buffer whose values all lie one distance behind their keys is
    /// the bucket's arena: its records are read where they lie, it holds
    /// only their key and value bytes as its size, and a record pushed
    /// onto it reads back. Records lying at different distances are
    /// copied into an arena of pushes; both give the same records and
    /// the same order verdict as the records themselves.
    #[test]
    fn an_adopted_buffer_is_read_where_it_lies() {
        let records = vec![rec("a", "1"), rec("", ""), rec("prefix--b", "22"), rec("b", "x")];
        for lead in [0, 1, 2] {
            let (data, spans) = laid_out(&records, |_| lead);
            let range = data.as_ptr_range();
            let (mut b, sorted) = adopt(data, &spans).unwrap();
            assert!(!sorted, "\"a\" before \"\" is a descent");
            assert_eq!(b.to_records(), records);
            let bytes = Bucket::from_records(records.clone()).byte_size();
            assert_eq!(b.byte_size(), bytes);
            assert!(b
                .iter()
                .all(|(k, v)| range.contains(&k.as_ptr()) && range.contains(&v.as_ptr())
                    || k.is_empty() && v.is_empty()));
            b.push(b"zz", b"tail");
            assert_eq!(b.get(4), (&b"zz"[..], &b"tail"[..]));
            assert_eq!(b.byte_size(), bytes + 6);
            b.sort();
            assert!(b.is_sorted());
        }
        let (data, spans) = laid_out(&records, |v| 1 + v.len() % 2);
        let range = data.as_ptr_range();
        let (b, sorted) = adopt(data, &spans).unwrap();
        assert_eq!((b.to_records(), sorted), (records.clone(), false));
        assert!(!range.contains(&b.get(0).0.as_ptr()), "mixed distances are copied");
        let mut in_order = records.clone();
        in_order.sort();
        let (data, spans) = laid_out(&in_order, |_| 1);
        assert!(adopt(data, &spans).unwrap().1, "sorted records are a sorted run");
    }

    /// A span past the buffer's end, or a value starting inside its key,
    /// is refused.
    #[test]
    fn an_adopted_span_must_lie_in_the_buffer() {
        let (data, spans) = laid_out(&[rec("key", "value")], |_| 1);
        let (k, kl, v, vl) = spans[0];
        for bad in
            [(k, kl, v, vl + 1), (k, kl, k + 1, vl), (k, usize::MAX, v, vl), (k, kl, v, usize::MAX)]
        {
            assert!(adopt(data.clone(), &[bad]).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn push_tracks_bytes_and_len() {
        let mut b = Bucket::new();
        assert!(b.is_empty());
        b.push(b"ab", b"cde");
        b.push(b"", b"x");
        assert_eq!(b.len(), 2);
        assert_eq!(b.byte_size(), 6);
        assert_eq!(b.get(0), (&b"ab"[..], &b"cde"[..]));
        assert_eq!(b.get(1), (&b""[..], &b"x"[..]));
    }

    #[test]
    fn from_records_counts_bytes() {
        let b = Bucket::from_records(vec![rec("k", "vv"), rec("kk", "v")]);
        assert_eq!(b.byte_size(), 6);
    }

    #[test]
    fn sort_is_stable_for_equal_keys() {
        let mut b = Bucket::from_records(vec![rec("b", "1"), rec("a", "2"), rec("b", "3")]);
        b.sort();
        assert!(b.is_sorted());
        assert_eq!(b.get(0), (&b"a"[..], &b"2"[..]));
        // stability: the two "b" records keep their original relative order
        assert_eq!(b.get(1), (&b"b"[..], &b"1"[..]));
        assert_eq!(b.get(2), (&b"b"[..], &b"3"[..]));
    }

    #[test]
    fn sort_keeps_arrival_order_for_empty_key_runs() {
        // Zero-length records share arena offsets; the stable sort must
        // still keep them in emit order.
        let mut b = Bucket::new();
        b.push(b"", b"");
        b.push(b"", b"x");
        b.push(b"", b"");
        b.push(b"a", b"y");
        b.sort();
        let vals: Vec<&[u8]> = b.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![&b""[..], &b"x"[..], &b""[..], &b"y"[..]]);
    }

    #[test]
    fn extend_from_merges_bytes() {
        let mut a = Bucket::from_records(vec![rec("x", "1")]);
        let b = Bucket::from_records(vec![rec("y", "22")]);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.byte_size(), 5);
    }

    #[test]
    fn empty_bucket_is_sorted() {
        assert!(Bucket::new().is_sorted());
    }

    #[test]
    fn collect_from_iterator() {
        let b: Bucket = vec![rec("a", "1"), rec("b", "2")].into_iter().collect();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn groups_iterate_sorted_runs() {
        let mut b =
            Bucket::from_records(vec![rec("b", "1"), rec("a", "2"), rec("b", "3"), rec("c", "")]);
        b.sort();
        let got: Vec<(Vec<u8>, Vec<Vec<u8>>)> =
            b.groups().map(|(k, vs)| (k.to_vec(), vs.map(<[u8]>::to_vec).collect())).collect();
        assert_eq!(
            got,
            vec![
                (b"a".to_vec(), vec![b"2".to_vec()]),
                (b"b".to_vec(), vec![b"1".to_vec(), b"3".to_vec()]),
                (b"c".to_vec(), vec![b"".to_vec()]),
            ]
        );
    }

    #[test]
    fn equality_ignores_arena_layout() {
        let mut a = Bucket::from_records(vec![rec("b", "1"), rec("a", "2")]);
        a.sort();
        let b = Bucket::from_records(vec![rec("a", "2"), rec("b", "1")]);
        assert_eq!(a, b);
        let c = Bucket::from_records(vec![rec("a", "2"), rec("b", "x")]);
        assert_ne!(a, c);
    }

    #[test]
    fn roundtrip_through_records() {
        let recs = vec![rec("k1", "v1"), rec("", ""), rec("k2", "")];
        let b = Bucket::from_records(recs.clone());
        assert_eq!(b.to_records(), recs);
    }
}
