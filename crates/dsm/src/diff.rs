//! Wire encoding of field-granularity diffs, and what every wire decoder
//! of this crate shares: [`WireError`] and the bounds-checked reader.
//!
//! `updateMainMemory` ships only the modified 8-byte slots of each cached
//! page back to the page's home node (the paper's "object-field granularity",
//! §3.1), so two nodes writing different fields of the same page never
//! overwrite each other's updates (no false sharing at flush time).
//! Diff acknowledgements return each page's post-apply version.  The page
//! fetch messages are `fetch_wire.rs`'s, re-exported here.
//! All decoders return a [`WireError`] on malformed input; none panics.
//!
//! | message | layout (little-endian) |
//! |---|---|
//! | diff | `page u64 · n u32 · n × (slot u16 · value u64)`; batched: `first page u64` (bit 63 set) · `pages u32` · per page `n u32 · entries` |
//! | diff reply | `pages × post-apply version u64` (0 = the page carried no entries) |

use hyperion_pm2::{PageId, SLOTS_PER_PAGE};

pub use crate::fetch_wire::{
    decode_fetch_reply, decode_fetch_request, encode_fetch_request, push_page_reply, FetchRequest,
    PageReply, NO_ANSWER,
};

/// One modified slot: `(slot index within the page, new value)`.
pub type DiffEntry = (u16, u64);

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
pub(crate) struct Reader<'a>(pub(crate) &'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn bytes(&mut self, n: usize, what: &'static str) -> Wire<&'a [u8]> {
        if self.0.len() < n {
            return Err(WireError::Truncated(what));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    /// The next `N` bytes, for `from_le_bytes`.
    pub(crate) fn le<const N: usize>(&mut self, what: &'static str) -> Wire<[u8; N]> {
        Ok(self.bytes(N, what)?.try_into().expect("N bytes taken"))
    }

    /// `n` items of `each` bytes must still fit: bounds a count read from
    /// the wire before anything is allocated for it.
    pub(crate) fn fits(&self, n: usize, each: usize, what: &'static str) -> Wire<()> {
        match n.checked_mul(each) {
            Some(need) if need <= self.0.len() => Ok(()),
            _ => Err(WireError::Truncated(what)),
        }
    }

    pub(crate) fn finish(self, what: &'static str) -> Wire<()> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(what))
        }
    }
}

/// Tag bit on the leading page id of a batched diff.  Real page numbers
/// never use it, and a fetch request that sets it is rejected.
pub(crate) const TOP_BIT: u64 = 1 << 63;

pub(crate) fn push_entries(out: &mut Vec<u8>, entries: &[DiffEntry]) {
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

/// Most entries a patch — a fetch reply's "these slots changed" answer,
/// which borrows the diff entry form — may carry: one more and it would be
/// no shorter than the page.
pub const MAX_PATCH_ENTRIES: usize = (hyperion_pm2::PAGE_BYTES - 4 - 1) / 10;

/// Read a patch's entries: a diff's, in ascending slot order (so none
/// twice), at most [`MAX_PATCH_ENTRIES`].
pub(crate) fn read_patch(r: &mut Reader<'_>) -> Wire<Vec<DiffEntry>> {
    let entries = read_entries(r)?;
    let ascending = entries.windows(2).all(|w| w[0].0 < w[1].0);
    if !ascending || entries.len() > MAX_PATCH_ENTRIES {
        return Err(WireError::Invalid("patch entries"));
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
/// pages starting at `first`, all homed on the target node.
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
/// of the writer's stamps to acknowledge).
pub fn encode_diff_reply(versions: &[u64]) -> Vec<u8> {
    versions.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Decode the reply to a diff message of `pages` pages: the post-apply
/// versions, and nothing after them.
pub fn decode_diff_reply(reply: &[u8], pages: usize) -> Wire<Vec<u64>> {
    let mut r = Reader(reply);
    r.fits(pages, 8, "diff reply versions")?;
    let versions = (0..pages)
        .map(|_| r.le("diff reply versions").map(u64::from_le_bytes))
        .collect::<Result<_, _>>()?;
    r.finish("diff reply")?;
    Ok(versions)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn diff_reply_carries_versions_and_nothing_after_them() {
        let plain = encode_diff_reply(&[5, 6]);
        assert_eq!(plain.len(), 16);
        assert_eq!(decode_diff_reply(&plain, 2), Ok(vec![5, 6]));
        assert_eq!(decode_diff_reply(&[], 0), Ok(vec![]));
        // Bytes after the last version mean nothing, whatever their shape
        // (a page id and a page of bytes here).
        let mut trailer = encode_diff_reply(&[8]);
        trailer.extend_from_slice(&12u64.to_le_bytes());
        trailer.extend_from_slice(&[3u8; hyperion_pm2::PAGE_BYTES]);
        let trailing = WireError::TrailingBytes("diff reply");
        assert_eq!(decode_diff_reply(&trailer, 1), Err(trailing));
        assert_eq!(decode_diff_reply(&plain, 1), Err(trailing));
        let truncated = WireError::Truncated("diff reply versions");
        assert_eq!(decode_diff_reply(&plain, 3), Err(truncated));
        assert_eq!(decode_diff_reply(&plain[..15], 2), Err(truncated));
        assert_eq!(decode_diff_reply(&[], 1), Err(truncated));
    }
}
