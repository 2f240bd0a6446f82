//! Wire encoding of page fetches and field-granularity diffs.
//!
//! `updateMainMemory` ships only the modified 8-byte slots of each cached
//! page back to the page's home node (the paper's "object-field granularity",
//! §3.1), so two nodes writing different fields of the same page never
//! overwrite each other's updates (no false sharing at flush time).
//!
//! Every page fetch is *conditional*: the request names, per page, the
//! version of the copy the requester retains (0 = none), and the home
//! answers per page either "not modified" or the page with its version.
//! Diff acknowledgements return each page's post-apply version.  All
//! decoders return a [`WireError`] on malformed input; none panics.
//!
//! | message | layout (little-endian) |
//! |---|---|
//! | fetch request | `first page u64` (bit 63 = no hints) · `count u32` · `count × retained version u64` |
//! | fetch reply | per page `0u8 · version u64` (not modified) or `1u8 · version u64 · 4096 B`; then optionally `n u16 · n × (first page u64 · run u16)` hints |
//! | diff | `page u64 · n u32 · n × (slot u16 · value u64)`; batched: `first page u64` (bit 63 set) · `pages u32` · per page `n u32 · entries` |
//! | diff reply | `pages × post-apply version u64` (0 = the page carried no entries), then optionally a migration grant `page u64 · 4096 B` |

use hyperion_pm2::{PageId, PAGE_BYTES, SLOTS_PER_PAGE};

/// One modified slot: `(slot index within the page, new value)`.
pub type DiffEntry = (u16, u64);

/// One prefetch-directory hint: a run of `1`-or-more contiguous pages
/// (starting at the id) the home predicts the requester will touch soon.
pub type HintRun = (PageId, u16);

/// Why a payload could not be decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ends inside the named field.
    Truncated(&'static str),
    /// Bytes are left over after the last field of the named message.
    TrailingBytes(&'static str),
    /// The named field holds a value no encoder produces.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "payload ends inside {what}"),
            WireError::TrailingBytes(what) => write!(f, "bytes left over after {what}"),
            WireError::Invalid(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// What every decoder returns.
pub type Wire<T> = Result<T, WireError>;

/// A forward-only cursor over a payload; every read is bounds-checked.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize, what: &'static str) -> Wire<&'a [u8]> {
        if self.0.len() < n {
            return Err(WireError::Truncated(what));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    /// The next `N` bytes, for `from_le_bytes`.
    fn le<const N: usize>(&mut self, what: &'static str) -> Wire<[u8; N]> {
        Ok(self.bytes(N, what)?.try_into().expect("N bytes taken"))
    }

    /// `n` items of `each` bytes must still fit: bounds a count read from
    /// the wire before anything is allocated for it.
    fn fits(&self, n: usize, each: usize, what: &'static str) -> Wire<()> {
        match n.checked_mul(each) {
            Some(need) if need <= self.0.len() => Ok(()),
            _ => Err(WireError::Truncated(what)),
        }
    }

    fn finish(self, what: &'static str) -> Wire<()> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(what))
        }
    }
}

/// Tag bit on the leading page id of a fetch request (*hint-suppressed*: no
/// prefetch-directory hints on the reply, so a hint never recurses into a
/// chain of hints) and of a batched diff.  Real page numbers never use it.
const TOP_BIT: u64 = 1 << 63;

/// A decoded page-fetch request for `versions.len()` contiguous pages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchRequest {
    /// The first requested page.
    pub first: PageId,
    /// Whether the home may piggyback prefetch-directory hints on the reply.
    pub hints_ok: bool,
    /// Per page, the version of the copy the requester retains (0 = none).
    pub versions: Vec<u64>,
}

/// Encode a fetch request for the `versions.len()` contiguous pages starting
/// at `first`, all homed on the target node.
///
/// # Panics
/// Panics if `versions` is empty.
pub fn encode_fetch_request(first: PageId, versions: &[u64], hints_ok: bool) -> Vec<u8> {
    assert!(!versions.is_empty(), "a fetch requests at least one page");
    let mut out = Vec::with_capacity(12 + versions.len() * 8);
    let tag = if hints_ok { 0 } else { TOP_BIT };
    out.extend_from_slice(&(first.0 | tag).to_le_bytes());
    out.extend_from_slice(&(versions.len() as u32).to_le_bytes());
    for v in versions {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a fetch request produced by [`encode_fetch_request`].
pub fn decode_fetch_request(payload: &[u8]) -> Wire<FetchRequest> {
    let mut r = Reader(payload);
    let head = u64::from_le_bytes(r.le("fetch request page id")?);
    let count = u32::from_le_bytes(r.le("fetch request page count")?) as usize;
    if count == 0 {
        return Err(WireError::Invalid("fetch request for zero pages"));
    }
    r.fits(count, 8, "fetch request versions")?;
    let versions = (0..count)
        .map(|_| r.le("fetch request versions").map(u64::from_le_bytes))
        .collect::<Result<_, _>>()?;
    r.finish("fetch request")?;
    Ok(FetchRequest {
        first: PageId(head & !TOP_BIT),
        hints_ok: head & TOP_BIT == 0,
        versions,
    })
}

/// The home's answer for one page of a fetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageReply<'a> {
    /// The home copy is still at the version the requester retains.
    NotModified(u64),
    /// The page (`PAGE_BYTES` long) and the version it was snapshotted under.
    Full(u64, &'a [u8]),
}

/// Append one page's answer to a fetch reply (panics if a shipped page's
/// data is not exactly one page long).
pub fn push_page_reply(reply: &mut Vec<u8>, page: PageReply<'_>) {
    let (tag, version, data) = match page {
        PageReply::NotModified(version) => (0u8, version, &[][..]),
        PageReply::Full(version, data) => (1u8, version, data),
    };
    assert!(tag == 0 || data.len() == PAGE_BYTES, "not one page long");
    reply.push(tag);
    reply.extend_from_slice(&version.to_le_bytes());
    reply.extend_from_slice(data);
}

/// Append the prefetch-directory hint trailer to a fetch reply whose page
/// answers are complete: nothing for no hints; panics on a zero-page run.
pub fn append_fetch_hints(reply: &mut Vec<u8>, hints: &[HintRun]) {
    if hints.is_empty() {
        return;
    }
    reply.extend_from_slice(&(hints.len() as u16).to_le_bytes());
    for (first, run) in hints {
        assert!(*run > 0, "a hint run covers at least one page");
        reply.extend_from_slice(&first.0.to_le_bytes());
        reply.extend_from_slice(&run.to_le_bytes());
    }
}

/// Decode the reply to a fetch of `pages` pages: one [`PageReply`] per page,
/// then the hint runs (empty when the home sent none).
pub fn decode_fetch_reply(reply: &[u8], pages: usize) -> Wire<(Vec<PageReply<'_>>, Vec<HintRun>)> {
    let mut r = Reader(reply);
    r.fits(pages, 9, "fetch reply pages")?;
    let mut out = Vec::with_capacity(pages);
    for _ in 0..pages {
        let tag = u8::from_le_bytes(r.le("fetch reply page tag")?);
        let version = u64::from_le_bytes(r.le("fetch reply page version")?);
        out.push(match tag {
            0 => PageReply::NotModified(version),
            1 => PageReply::Full(version, r.bytes(PAGE_BYTES, "fetch reply page data")?),
            _ => return Err(WireError::Invalid("fetch reply page tag")),
        });
    }
    let mut hints = Vec::new();
    if !r.0.is_empty() {
        let n = u16::from_le_bytes(r.le("hint count")?) as usize;
        r.fits(n, 10, "hint entries")?;
        for _ in 0..n {
            let first = PageId(u64::from_le_bytes(r.le("hint entries")?));
            let run = u16::from_le_bytes(r.le("hint entries")?);
            if run == 0 {
                return Err(WireError::Invalid("hint run of zero pages"));
            }
            hints.push((first, run));
        }
    }
    r.finish("fetch reply")?;
    Ok((out, hints))
}

fn push_entries(out: &mut Vec<u8>, entries: &[DiffEntry]) {
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (slot, value) in entries {
        out.extend_from_slice(&slot.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
}

fn read_entries(r: &mut Reader<'_>) -> Wire<Vec<DiffEntry>> {
    let count = u32::from_le_bytes(r.le("diff entry count")?) as usize;
    r.fits(count, 10, "diff entries")?;
    // One bounds check for the whole block keeps the per-entry loop tight.
    let body = r.bytes(count * 10, "diff entries")?;
    let mut entries = Vec::with_capacity(count);
    for entry in body.chunks_exact(10) {
        let slot = u16::from_le_bytes([entry[0], entry[1]]);
        if slot as usize >= SLOTS_PER_PAGE {
            return Err(WireError::Invalid("diff slot index"));
        }
        let value = u64::from_le_bytes(entry[2..].try_into().expect("8 bytes"));
        entries.push((slot, value));
    }
    Ok(entries)
}

/// Encode a diff message: page id followed by `(slot, value)` pairs.
pub fn encode_diff(page: PageId, entries: &[DiffEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + entries.len() * 10);
    out.extend_from_slice(&page.0.to_le_bytes());
    push_entries(&mut out, entries);
    out
}

/// Encode a batched diff message: the diffs of `pages.len()` *contiguous*
/// pages starting at `first`, all homed on the target node — the flush-side
/// counterpart of a multi-page fetch request.
///
/// # Panics
/// Panics if `pages` is empty.
pub fn encode_diff_batch(first: PageId, pages: &[Vec<DiffEntry>]) -> Vec<u8> {
    assert!(!pages.is_empty(), "a diff batch of zero pages");
    let entries: usize = pages.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(12 + pages.len() * 4 + entries * 10);
    out.extend_from_slice(&(first.0 | TOP_BIT).to_le_bytes());
    out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
    for page_entries in pages {
        push_entries(&mut out, page_entries);
    }
    out
}

/// [`decode_diff_message`] for a single-page message this process encoded
/// itself with [`encode_diff`] (tests, probes); wire bytes use the `Result`.
///
/// # Panics
/// Panics if the payload is malformed.
pub fn decode_diff(payload: &[u8]) -> (PageId, Vec<DiffEntry>) {
    match decode_diff_message(payload) {
        Ok(mut diffs) if diffs.len() == 1 => diffs.pop().expect("one page"),
        other => panic!("not a single-page diff: {other:?}"),
    }
}

/// Decode a diff message in either form: the single-page message of
/// [`encode_diff`] or the batched message of [`encode_diff_batch`].
pub fn decode_diff_message(payload: &[u8]) -> Wire<Vec<(PageId, Vec<DiffEntry>)>> {
    let mut r = Reader(payload);
    let head = u64::from_le_bytes(r.le("diff page id")?);
    let out = if head & TOP_BIT == 0 {
        vec![(PageId(head), read_entries(&mut r)?)]
    } else {
        let pages = u32::from_le_bytes(r.le("diff page count")?) as usize;
        if pages == 0 {
            return Err(WireError::Invalid("batched diff of zero pages"));
        }
        r.fits(pages, 4, "batched diff pages")?;
        (0..pages as u64)
            .map(|k| Ok((PageId((head & !TOP_BIT) + k), read_entries(&mut r)?)))
            .collect::<Result<_, _>>()?
    };
    r.finish("diff")?;
    Ok(out)
}

/// Encode a diff-apply reply: the post-apply version of every page of the
/// message, in message order (0 for a page that carried no entries: none
/// of the writer's stamps to acknowledge), and — when the apply handed a
/// page's home to the writer — the migration grant: the migrating page's
/// id followed by the authoritative snapshot the new home starts from
/// (shipped so the hand-over is charged on the wire).
pub fn encode_diff_reply(versions: &[u64], grant: Option<(PageId, &[u8])>) -> Vec<u8> {
    let mut out = Vec::with_capacity(versions.len() * 8);
    for v in versions {
        out.extend_from_slice(&v.to_le_bytes());
    }
    if let Some((page, snapshot)) = grant {
        out.extend_from_slice(&page.0.to_le_bytes());
        out.extend_from_slice(snapshot);
    }
    out
}

/// Decode the reply to a diff message of `pages` pages: the post-apply
/// versions and the migrating page's id if a grant rode along.
pub fn decode_diff_reply(reply: &[u8], pages: usize) -> Wire<(Vec<u64>, Option<PageId>)> {
    let mut r = Reader(reply);
    r.fits(pages, 8, "diff reply versions")?;
    let versions = (0..pages)
        .map(|_| r.le("diff reply versions").map(u64::from_le_bytes))
        .collect::<Result<_, _>>()?;
    let mut grant = None;
    if !r.0.is_empty() {
        grant = Some(PageId(u64::from_le_bytes(r.le("grant page id")?)));
        r.bytes(PAGE_BYTES, "grant snapshot")?;
    }
    r.finish("diff reply")?;
    Ok((versions, grant))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_request_round_trips_in_every_shape() {
        for (versions, hints_ok) in [(vec![0u64], true), (vec![7], false), (vec![0, 9, 3], true)] {
            let enc = encode_fetch_request(PageId(11), &versions, hints_ok);
            assert_eq!(enc.len(), 12 + 8 * versions.len());
            let dec = decode_fetch_request(&enc).unwrap();
            assert_eq!((dec.first, dec.hints_ok), (PageId(11), hints_ok));
            assert_eq!(dec.versions, versions);
        }
    }

    #[test]
    fn malformed_fetch_requests_are_errors_not_panics() {
        let err = |bytes: &[u8]| decode_fetch_request(bytes).unwrap_err();
        let enc = encode_fetch_request(PageId(1), &[4, 5], true);
        assert!(matches!(err(&enc[..19]), WireError::Truncated(_)));
        assert!(matches!(
            err(&[&enc[..], &[0]].concat()),
            WireError::TrailingBytes(_)
        ));
        assert!(matches!(err(&[1, 2, 3]), WireError::Truncated(_)));
        // A zero count, and one far beyond the payload (rejected before
        // anything is allocated for it).
        for count in [[0u8; 4], [0xFF; 4]] {
            let mut bad = enc.clone();
            bad[8..12].copy_from_slice(&count);
            assert!(decode_fetch_request(&bad).is_err());
        }
    }

    #[test]
    fn fetch_reply_round_trips_mixed_pages_and_hints() {
        let page = vec![7u8; PAGE_BYTES];
        let mut reply = Vec::new();
        push_page_reply(&mut reply, PageReply::NotModified(4));
        push_page_reply(&mut reply, PageReply::Full(9, &page));
        append_fetch_hints(&mut reply, &[]);
        assert_eq!(reply.len(), 9 + 9 + PAGE_BYTES, "no hints, no trailer");
        let expected = vec![PageReply::NotModified(4), PageReply::Full(9, &page)];
        assert_eq!(decode_fetch_reply(&reply, 2), Ok((expected, vec![])));

        append_fetch_hints(&mut reply, &[(PageId(40), 3), (PageId(90), 1)]);
        let (pages, hints) = decode_fetch_reply(&reply, 2).unwrap();
        assert_eq!(pages.len(), 2);
        assert_eq!(hints, vec![(PageId(40), 3), (PageId(90), 1)]);

        // Wrong page count, truncation and a bad tag are all errors.
        assert!(decode_fetch_reply(&reply, 3).is_err());
        assert!(decode_fetch_reply(&reply[..reply.len() - 1], 2).is_err());
        reply[0] = 9;
        let err = decode_fetch_reply(&reply, 2).unwrap_err();
        assert_eq!(err, WireError::Invalid("fetch reply page tag"));
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_length_hint_run_is_never_encoded() {
        append_fetch_hints(&mut Vec::new(), &[(PageId(1), 0)]);
    }

    #[test]
    fn diff_round_trips_single_and_batched() {
        let entries = vec![(0u16, 7u64), (511, u64::MAX), (42, 0)];
        let enc = encode_diff(PageId(9), &entries);
        assert_eq!(enc.len(), 12 + 10 * entries.len());
        assert_eq!(decode_diff(&enc), (PageId(9), entries));
        let empty = decode_diff_message(&encode_diff(PageId(3), &[]));
        assert_eq!(empty, Ok(vec![(PageId(3), vec![])]));

        let pages = vec![vec![(0u16, 1u64), (7, 2)], vec![], vec![(511, u64::MAX)]];
        let dec = decode_diff_message(&encode_diff_batch(PageId(40), &pages)).unwrap();
        let expected: Vec<_> = (40..).map(PageId).zip(pages).collect();
        assert_eq!(dec, expected);
    }

    #[test]
    fn malformed_diffs_are_errors_not_panics() {
        let mut enc = encode_diff(PageId(1), &[(1, 2), (3, 4)]);
        enc.pop();
        assert!(decode_diff_message(&enc).is_err());
        let mut batch = encode_diff_batch(PageId(1), &[vec![(1, 2)], vec![(3, 4)]]);
        batch.pop();
        assert!(decode_diff_message(&batch).is_err());
        // A slot index beyond the page would index out of the frame.
        let bad_slot = encode_diff(PageId(1), &[(SLOTS_PER_PAGE as u16, 0)]);
        let err = decode_diff_message(&bad_slot).unwrap_err();
        assert_eq!(err, WireError::Invalid("diff slot index"));
        assert!(decode_diff_message(&[0u8; 5]).is_err());
    }

    #[test]
    #[should_panic(expected = "zero pages")]
    fn empty_diff_batch_is_never_encoded() {
        let _ = encode_diff_batch(PageId(0), &[]);
    }

    #[test]
    fn diff_reply_carries_versions_and_an_optional_grant() {
        let plain = encode_diff_reply(&[5, 6], None);
        assert_eq!(plain.len(), 16);
        assert_eq!(decode_diff_reply(&plain, 2).unwrap(), (vec![5, 6], None));
        let snapshot = vec![3u8; PAGE_BYTES];
        let grant = encode_diff_reply(&[8], Some((PageId(12), &snapshot)));
        assert_eq!(grant.len(), 8 + 8 + PAGE_BYTES);
        assert_eq!(
            decode_diff_reply(&grant, 1),
            Ok((vec![8], Some(PageId(12))))
        );
        assert!(decode_diff_reply(&plain, 3).is_err());
        assert!(decode_diff_reply(&grant[..grant.len() - 1], 1).is_err());
        assert!(decode_diff_reply(&[], 1).is_err());
    }
}
