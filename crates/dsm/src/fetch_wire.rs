//! Wire encoding of page fetches: the one conditional request form and the
//! one reply form, with the validation riders that ride on them (errors and
//! the bounds-checked reader are [`crate::diff`]'s, which re-exports
//! everything public here).
//!
//! Every page fetch is *conditional*: the request names, per page, the
//! version of the copy the requester retains (0 = none), and the home
//! answers per page "not modified", a *patch* (the slots that changed since
//! that version, when its history reaches back that far and they encode
//! shorter than the page) or the page, each with the home's version.  A
//! request may also carry *validation riders* ([`Rider`]): other pages of
//! the same home the requester retains, answered with one bit each.
//!
//! | message | layout (little-endian) |
//! |---|---|
//! | fetch request | `first page u64` (bit 63 clear) · `count u32` · `count × retained version u64`; then optionally `r u16 · r × (page u64 · retained version u64)` riders |
//! | fetch reply | per page `0u8 · version u64` (not modified), `1u8 · version u64 · 4096 B` (page) or `2u8 · version u64 · n u32 · n × (slot u16 · value u64)` (patch, slots ascending, `n ≤ 409`); then `⌈r/8⌉` bytes of rider answers (bit set = unchanged) and nothing after them |

use hyperion_pm2::{PageId, PAGE_BYTES};

use crate::diff::{
    push_entries, read_patch, DiffEntry, Reader, Wire, WireError, MAX_PATCH_ENTRIES, TOP_BIT,
};

/// One validation rider: a page of the target home the requester retains a
/// copy of, and the stamp of that copy.
pub type Rider = (PageId, u64);

/// Most riders one fetch request may carry, and the length of the recency
/// list they are drawn from.  Fixed, not configurable: from 8 entries on
/// `kv_read`'s modeled time is within 1 % of the best any length reaches
/// (10.40 s at 4, 10.08 at 6, 9.90 at 8, 9.83 at 12, 9.86 at 16), while
/// bytes moved and the p99 keep growing (`BENCH_16.json`, `plateau`).
pub const MAX_RIDERS: usize = 8;

/// A decoded page-fetch request for `versions.len()` contiguous pages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchRequest {
    /// The first requested page.
    pub first: PageId,
    /// Per page, the version of the copy the requester retains (0 = none).
    pub versions: Vec<u64>,
    /// Validation riders, at most [`MAX_RIDERS`].
    pub riders: Vec<Rider>,
}

/// Encode a fetch request for the `versions.len()` contiguous pages starting
/// at `first`, all homed on the target node, with `riders` riding along.
///
/// # Panics
/// Panics if `versions` is empty.
pub fn encode_fetch_request(first: PageId, versions: &[u64], riders: &[Rider]) -> Vec<u8> {
    assert!(!versions.is_empty(), "a fetch requests at least one page");
    let mut out = Vec::with_capacity(14 + versions.len() * 8 + riders.len() * 16);
    out.extend_from_slice(&first.0.to_le_bytes());
    out.extend_from_slice(&(versions.len() as u32).to_le_bytes());
    for v in versions {
        out.extend_from_slice(&v.to_le_bytes());
    }
    push_riders(&mut out, riders);
    out
}

/// Decode a fetch request produced by [`encode_fetch_request`].
pub fn decode_fetch_request(payload: &[u8]) -> Wire<FetchRequest> {
    let mut r = Reader(payload);
    let first = u64::from_le_bytes(r.le("fetch request page id")?);
    if first & TOP_BIT != 0 {
        return Err(WireError::Invalid("fetch request page id"));
    }
    let count = u32::from_le_bytes(r.le("fetch request page count")?) as usize;
    if count == 0 {
        return Err(WireError::Invalid("fetch request for zero pages"));
    }
    r.fits(count, 8, "fetch request versions")?;
    let versions = (0..count)
        .map(|_| r.le("fetch request versions").map(u64::from_le_bytes))
        .collect::<Result<_, _>>()?;
    let riders = read_riders(&mut r)?;
    r.finish("fetch request")?;
    Ok(FetchRequest {
        first: PageId(first),
        versions,
        riders,
    })
}

/// Append the rider trailer of a fetch request (nothing for no riders).
fn push_riders(out: &mut Vec<u8>, riders: &[Rider]) {
    if riders.is_empty() {
        return;
    }
    let count = u16::try_from(riders.len()).expect("rider count fits the wire");
    out.extend_from_slice(&count.to_le_bytes());
    for (page, version) in riders {
        out.extend_from_slice(&page.0.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
    }
}

/// Read the rider trailer of a fetch request: whatever follows the
/// retained versions.  The count is bounded before anything is allocated.
fn read_riders(r: &mut Reader<'_>) -> Wire<Vec<Rider>> {
    if r.0.is_empty() {
        return Ok(Vec::new());
    }
    let n = u16::from_le_bytes(r.le("rider count")?) as usize;
    if n == 0 || n > MAX_RIDERS {
        return Err(WireError::Invalid("rider count"));
    }
    r.fits(n, 16, "riders")?;
    (0..n)
        .map(|_| {
            let page = PageId(u64::from_le_bytes(r.le("riders")?));
            Ok((page, u64::from_le_bytes(r.le("riders")?)))
        })
        .collect()
}

/// The home's answer for one page of a fetch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageReply<'a> {
    /// The home copy is still at the version the requester retains.
    NotModified(u64),
    /// The page (`PAGE_BYTES` long) and the version it was snapshotted under.
    Full(u64, &'a [u8]),
    /// The slots that changed since the version the requester retains, in
    /// ascending order, and the version they bring its copy up to.
    Patch(u64, Vec<DiffEntry>),
}

/// Append one page's answer to a fetch reply (panics if a shipped page's
/// data is not one page long or a patch exceeds [`MAX_PATCH_ENTRIES`]).
pub fn push_page_reply(reply: &mut Vec<u8>, page: &PageReply<'_>) {
    let (tag, version, sized) = match page {
        PageReply::NotModified(version) => (0u8, version, true),
        PageReply::Full(version, data) => (1, version, data.len() == PAGE_BYTES),
        PageReply::Patch(version, patch) => (2, version, patch.len() <= MAX_PATCH_ENTRIES),
    };
    assert!(sized, "not one page long, or a patch no shorter than one");
    reply.push(tag);
    reply.extend_from_slice(&version.to_le_bytes());
    match page {
        PageReply::NotModified(_) => {}
        PageReply::Full(_, data) => reply.extend_from_slice(data),
        PageReply::Patch(_, patch) => push_entries(reply, patch),
    }
}

/// A decoded fetch reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchReply<'a> {
    /// One answer per requested page, in request order.
    pub pages: Vec<PageReply<'a>>,
    /// Bit `k` set = rider `k` of the request is unchanged at its home.
    pub unchanged: u64,
}

/// Decode the reply to a fetch that named `retained` as the versions of the
/// copies it retains (one per page) and carried `riders` riders.  Only
/// answers the requester can act on come back: stamps only grow, so a
/// confirmation is of the version named, a page is at it or above (never
/// 0), and a patch — which needs a copy to patch — strictly above it.
pub fn decode_fetch_reply<'a>(
    reply: &'a [u8],
    retained: &[u64],
    riders: usize,
) -> Wire<FetchReply<'a>> {
    let mut r = Reader(reply);
    r.fits(retained.len(), 9, "fetch reply pages")?;
    let mut pages = Vec::with_capacity(retained.len());
    for &kept in retained {
        let tag = u8::from_le_bytes(r.le("fetch reply page tag")?);
        let version = u64::from_le_bytes(r.le("fetch reply page version")?);
        pages.push(match tag {
            0 if version == kept && kept != 0 => PageReply::NotModified(version),
            1 if version >= kept.max(1) => {
                PageReply::Full(version, r.bytes(PAGE_BYTES, "fetch reply page data")?)
            }
            2 if kept != 0 && version > kept => PageReply::Patch(version, read_patch(&mut r)?),
            0..=2 => return Err(WireError::Invalid("fetch reply page version")),
            _ => return Err(WireError::Invalid("fetch reply page tag")),
        });
    }
    let unchanged = read_rider_answers(&mut r, riders)?;
    r.finish("fetch reply")?;
    Ok(FetchReply { pages, unchanged })
}

/// Append the answers to a request's `riders` riders (nothing for none) to
/// a fetch reply, after the page answers: bit `k` of `unchanged` set = rider `k` is still at the stamp the requester named.
///
/// # Panics
/// Panics if `riders` exceeds [`MAX_RIDERS`] or a bit beyond it is set.
pub fn push_rider_answers(reply: &mut Vec<u8>, unchanged: u64, riders: usize) {
    assert!(riders <= MAX_RIDERS && unchanged >> riders == 0);
    reply.extend_from_slice(&unchanged.to_le_bytes()[..riders.div_ceil(8)]);
}

/// Read the answers to `riders` riders off a fetch reply.
fn read_rider_answers(r: &mut Reader<'_>, riders: usize) -> Wire<u64> {
    if riders > MAX_RIDERS {
        return Err(WireError::Invalid("rider count"));
    }
    let mut unchanged = [0u8; 8];
    let answers = r.bytes(riders.div_ceil(8), "rider answers")?;
    unchanged[..answers.len()].copy_from_slice(answers);
    let unchanged = u64::from_le_bytes(unchanged);
    if unchanged >> riders != 0 {
        return Err(WireError::Invalid("rider answers"));
    }
    Ok(unchanged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_reply_round_trips_mixed_pages_and_hints() {
        let page = vec![7u8; PAGE_BYTES];
        let pages = vec![
            PageReply::NotModified(4),
            PageReply::Full(9, &page),
            PageReply::Patch(6, vec![(0, 1), (511, u64::MAX)]),
        ];
        let retained = [4, 0, 5];
        let mut reply = Vec::new();
        pages.iter().for_each(|p| push_page_reply(&mut reply, p));
        assert_eq!(reply.len(), 9 + 9 + PAGE_BYTES + 9 + 4 + 20, "no trailer");
        let decoded = decode_fetch_reply(&reply, &retained, 0).unwrap();
        assert_eq!((&decoded.pages, decoded.unchanged), (&pages, 0));

        // What used to be a hint trailer (`n u16 · first u64 · run u16`) is
        // trailing bytes now.
        let hinted = [&reply[..], &[1, 0, 40, 0, 0, 0, 0, 0, 0, 0, 3, 0]].concat();
        let err = decode_fetch_reply(&hinted, &retained, 0).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes("fetch reply"));

        // Wrong page count, truncation and a bad tag are all errors.
        assert!(decode_fetch_reply(&reply, &[4, 0, 5, 0], 0).is_err());
        assert!(decode_fetch_reply(&reply[..reply.len() - 1], &retained, 0).is_err());
        reply[0] = 9;
        let err = decode_fetch_reply(&reply, &retained, 0).unwrap_err();
        assert_eq!(err, WireError::Invalid("fetch reply page tag"));

        // Nor may a reply move a stamp backwards, confirm a stamp nobody
        // named or patch a copy that is not there; nor may a patch name a
        // slot twice, out of order or beyond the page.
        let err = |answer: PageReply<'_>, retained: u64| {
            let mut reply = Vec::new();
            push_page_reply(&mut reply, &answer);
            decode_fetch_reply(&reply, &[retained], 0).map(|_| ())
        };
        let version = Err(WireError::Invalid("fetch reply page version"));
        let entries = Err(WireError::Invalid("patch entries"));
        assert_eq!(err(PageReply::Full(7, &page), 7), Ok(()));
        assert_eq!(err(PageReply::Full(6, &page), 7), version);
        assert_eq!(err(PageReply::Full(0, &page), 0), version);
        assert_eq!(err(PageReply::NotModified(7), 6), version);
        assert_eq!(err(PageReply::NotModified(0), 0), version);
        assert_eq!(err(PageReply::Patch(8, vec![]), 7), Ok(()));
        assert_eq!(err(PageReply::Patch(8, vec![(3, 1)]), 0), version);
        assert_eq!(err(PageReply::Patch(7, vec![(3, 1)]), 7), version);
        assert_eq!(err(PageReply::Patch(8, vec![(3, 1), (3, 2)]), 7), entries);
        assert_eq!(err(PageReply::Patch(8, vec![(4, 1), (3, 2)]), 7), entries);
        let slot = Err(WireError::Invalid("diff slot index"));
        assert_eq!(err(PageReply::Patch(8, vec![(512, 1)]), 7), slot);
        // The longest patch is one entry short of a page; one more entry
        // (hand-encoded: the encoder refuses) is an error.
        let longest = (0..MAX_PATCH_ENTRIES as u16).map(|s| (s, 1)).collect();
        let mut reply = Vec::new();
        push_page_reply(&mut reply, &PageReply::Patch(8, longest));
        let longest_ok = decode_fetch_reply(&reply, &[7], 0).is_ok();
        assert!(longest_ok && (9 + PAGE_BYTES - 10..9 + PAGE_BYTES).contains(&reply.len()));
        reply[9..13].copy_from_slice(&(MAX_PATCH_ENTRIES as u32 + 1).to_le_bytes());
        reply.extend_from_slice(&[0x99, 1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode_fetch_reply(&reply, &[7], 0).map(|_| ()), entries);
    }

    #[test]
    fn fetch_request_round_trips_in_every_shape() {
        let riders: Vec<Rider> = (0..MAX_RIDERS as u64)
            .map(|k| (PageId(90 + k), k))
            .collect();
        for (versions, r) in [(vec![0u64], 0), (vec![7], 1), (vec![0, 9, 3], MAX_RIDERS)] {
            let enc = encode_fetch_request(PageId(11), &versions, &riders[..r]);
            let trailer = if r == 0 { 0 } else { 2 + 16 * r };
            assert_eq!(enc.len(), 12 + 8 * versions.len() + trailer);
            let dec = decode_fetch_request(&enc).unwrap();
            assert_eq!(dec.first, PageId(11));
            assert_eq!((dec.versions, &dec.riders[..]), (versions, &riders[..r]));
        }
    }

    #[test]
    fn malformed_fetch_requests_are_errors_not_panics() {
        let err = |bytes: &[u8]| decode_fetch_request(bytes).unwrap_err();
        let enc = encode_fetch_request(PageId(1), &[4, 5], &[(PageId(2), 6)]);
        assert_eq!(enc.len(), 28 + 18);
        assert!(matches!(err(&enc[..19]), WireError::Truncated(_)));
        assert!(matches!(err(&enc[..29]), WireError::Truncated(_)));
        assert!(matches!(err(&enc[..45]), WireError::Truncated(_)));
        let long = [&enc[..], &[0]].concat();
        assert!(matches!(err(&long), WireError::TrailingBytes(_)));
        assert!(matches!(err(&[1, 2, 3]), WireError::Truncated(_)));
        // Bit 63 of the first page (once the no-hint tag) names no page.
        let mut tagged = enc.clone();
        tagged[7] |= 0x80;
        assert_eq!(err(&tagged), WireError::Invalid("fetch request page id"));
        // A zero page count, and one far beyond the payload (rejected
        // before anything is allocated for it).
        for count in [[0u8; 4], [0xFF; 4]] {
            let mut bad = enc.clone();
            bad[8..12].copy_from_slice(&count);
            assert!(decode_fetch_request(&bad).is_err());
        }
        // The same for riders: none announced, one over the cap (with its
        // bytes present), and a count the payload cannot hold.
        let over: Vec<Rider> = (0..=MAX_RIDERS as u64).map(|k| (PageId(k), 1)).collect();
        let long = encode_fetch_request(PageId(1), &[4], &over);
        assert_eq!(err(&long), WireError::Invalid("rider count"));
        for count in [0u16, u16::MAX] {
            let mut bad = enc.clone();
            bad[28..30].copy_from_slice(&count.to_le_bytes());
            assert_eq!(err(&bad), WireError::Invalid("rider count"));
        }
    }

    /// (The name is from when a hint trailer could follow the answers.)
    #[test]
    fn rider_answers_sit_between_the_pages_and_the_hints() {
        let mut reply = Vec::new();
        push_page_reply(&mut reply, &PageReply::NotModified(4));
        push_rider_answers(&mut reply, 0, 0);
        assert_eq!(reply.len(), 9, "no riders, no answers");
        push_rider_answers(&mut reply, 0b101, 3);
        let decoded = decode_fetch_reply(&reply, &[4], 3).unwrap();
        assert_eq!((decoded.unchanged, reply.len()), (0b101, 10));
        let err = decode_fetch_reply(&[&reply[..], &[0]].concat(), &[4], 3).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes("fetch reply"));
        // A reply decoded against the wrong rider count is an error, as is
        // an answer for a rider that never left.
        assert!(decode_fetch_reply(&reply, &[4], 0).is_err());
        assert!(decode_fetch_reply(&reply, &[4], MAX_RIDERS + 1).is_err());
        assert!(decode_fetch_reply(&reply, &[4], 2).is_err());
        assert!(decode_fetch_reply(&reply[..9], &[4], 3).is_err());
    }
}
