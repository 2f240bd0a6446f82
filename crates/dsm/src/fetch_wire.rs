//! Wire encoding of page fetches: the one conditional request form and the
//! one reply form (errors and the bounds-checked reader are
//! [`crate::diff`]'s, which re-exports everything public here).
//!
//! Every page fetch is *conditional*: the request names, per page, the
//! version of the copy the requester retains (0 = none), and the home
//! answers per page "not modified", a *patch* (the slots that changed since
//! that version, when its history reaches back that far and they encode
//! shorter than the page) or the page, each with the home's version.  A
//! demand fetch also names *riders*: dropped copies of other pages of the
//! same home, each at its retained version, which the home answers only as
//! a monitor's grant would — "not modified" or a patch that fits the
//! grant's cost rule — or with "no answer", never with the page.
//!
//! | message | layout (little-endian) |
//! |---|---|
//! | fetch request | `first page u64` (bit 63 clear) · `count u32` (bit 31 set: riders follow) · `count × retained version u64`; then, only if there are riders, `n u32` (n ≥ 1) · `n × (page u64` (bit 63 clear) · `retained version u64` (≠ 0)`)`; nothing after them |
//! | fetch reply | per page `0u8 · version u64` (not modified), `1u8 · version u64 · 4096 B` (page) or `2u8 · version u64 · n u32 · n × (slot u16 · value u64)` (patch, slots ascending, `n ≤ 409`); then per rider `3u8` (no answer), a "not modified" or a patch; nothing after them |

use hyperion_pm2::{PageId, PAGE_BYTES};

use crate::diff::{
    push_entries, read_patch, DiffEntry, Reader, Wire, WireError, MAX_PATCH_ENTRIES, TOP_BIT,
};

/// A decoded page-fetch request for `versions.len()` contiguous pages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchRequest {
    /// The first requested page.
    pub first: PageId,
    /// Per page, the version of the copy the requester retains (0 = none).
    pub versions: Vec<u64>,
    /// The riders: dropped copies of other pages, each at its version.
    pub riders: Vec<(PageId, u64)>,
}

/// A rider's answer when the home has none that fits a grant.
pub const NO_ANSWER: u8 = 3;

/// The page count's flag that a rider section follows the versions.
const RIDERS: u32 = 1 << 31;

/// Encode a fetch request for the `versions.len()` contiguous pages starting
/// at `first`, all homed on the target node, naming `riders`.
///
/// # Panics
/// Panics if `versions` is empty.
pub fn encode_fetch_request(first: PageId, versions: &[u64], riders: &[(PageId, u64)]) -> Vec<u8> {
    assert!(!versions.is_empty(), "a fetch requests at least one page");
    let mut out = Vec::with_capacity(16 + versions.len() * 8 + riders.len() * 16);
    out.extend_from_slice(&first.0.to_le_bytes());
    let flag = if riders.is_empty() { 0 } else { RIDERS };
    out.extend_from_slice(&(versions.len() as u32 | flag).to_le_bytes());
    for v in versions {
        out.extend_from_slice(&v.to_le_bytes());
    }
    if !riders.is_empty() {
        out.extend_from_slice(&(riders.len() as u32).to_le_bytes());
    }
    for (page, v) in riders {
        out.extend_from_slice(&page.0.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a fetch request produced by [`encode_fetch_request`].
pub fn decode_fetch_request(payload: &[u8]) -> Wire<FetchRequest> {
    let mut r = Reader(payload);
    let first = u64::from_le_bytes(r.le("fetch request page id")?);
    if first & TOP_BIT != 0 {
        return Err(WireError::Invalid("fetch request page id"));
    }
    let count = u32::from_le_bytes(r.le("fetch request page count")?);
    let (riders, count) = (count & RIDERS != 0, (count & !RIDERS) as usize);
    if count == 0 {
        return Err(WireError::Invalid("fetch request for zero pages"));
    }
    r.fits(count, 8, "fetch request versions")?;
    let versions = (0..count)
        .map(|_| r.le("fetch request versions").map(u64::from_le_bytes))
        .collect::<Result<_, _>>()?;
    let n = match riders {
        true => u32::from_le_bytes(r.le("fetch request rider count")?) as usize,
        false => 0,
    };
    if riders && n == 0 {
        return Err(WireError::Invalid("fetch request rider count"));
    }
    r.fits(n, 16, "fetch request riders")?;
    let riders = (0..n)
        .map(|_| {
            let page = u64::from_le_bytes(r.le("fetch request rider")?);
            let version = u64::from_le_bytes(r.le("fetch request rider")?);
            let named = page & TOP_BIT == 0 && version != 0;
            named
                .then_some((PageId(page), version))
                .ok_or(WireError::Invalid("fetch request rider"))
        })
        .collect::<Result<_, _>>()?;
    r.finish("fetch request")?;
    Ok(FetchRequest {
        first: PageId(first),
        versions,
        riders,
    })
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

/// Decode the reply to a fetch that named `retained` as the versions of the
/// copies it retains (one per page) and `riders` as its riders' versions:
/// one answer per page, in request order, then per rider its answer or
/// `None` (no answer).  Only answers the requester can act on come back:
/// stamps only grow, so a confirmation is of the version named, a page is
/// at it or above (never 0, and never to a rider), and a patch — which
/// needs a copy to patch — strictly above it.
#[allow(clippy::type_complexity)]
pub fn decode_fetch_reply<'a>(
    reply: &'a [u8],
    retained: &[u64],
    riders: &[u64],
) -> Wire<(Vec<PageReply<'a>>, Vec<Option<PageReply<'a>>>)> {
    let mut r = Reader(reply);
    r.fits(retained.len() * 9 + riders.len(), 1, "fetch reply pages")?;
    let pages = (retained.iter())
        .map(|&kept| read_answer(&mut r, kept))
        .collect::<Wire<_>>()?;
    let riders = (riders.iter())
        .map(|&kept| match r.0.first() {
            Some(&NO_ANSWER) => r.bytes(1, "fetch reply rider").map(|_| None),
            Some(1) => Err(WireError::Invalid("fetch reply rider answer")),
            _ => read_answer(&mut r, kept).map(Some),
        })
        .collect::<Wire<_>>()?;
    r.finish("fetch reply")?;
    Ok((pages, riders))
}

/// One answer to a copy retained at `kept`.
fn read_answer<'a>(r: &mut Reader<'a>, kept: u64) -> Wire<PageReply<'a>> {
    let tag = u8::from_le_bytes(r.le("fetch reply page tag")?);
    let version = u64::from_le_bytes(r.le("fetch reply page version")?);
    Ok(match tag {
        0 if version == kept && kept != 0 => PageReply::NotModified(version),
        1 if version >= kept.max(1) => {
            PageReply::Full(version, r.bytes(PAGE_BYTES, "fetch reply page data")?)
        }
        2 if kept != 0 && version > kept => PageReply::Patch(version, read_patch(r)?),
        0..=2 => return Err(WireError::Invalid("fetch reply page version")),
        _ => return Err(WireError::Invalid("fetch reply page tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_reply_round_trips_mixed_pages_and_nothing_after_them() {
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
        let decoded = decode_fetch_reply(&reply, &retained, &[]).unwrap();
        assert_eq!(decoded, (pages, vec![]));

        // What used to follow the answers — a hint trailer (`n u16 · first
        // u64 · run u16`), a byte of rider answers — is trailing bytes to a
        // request that named no rider.
        for trailer in [&[1, 0, 40, 0, 0, 0, 0, 0, 0, 0, 3, 0][..], &[0b101]] {
            let long = [&reply[..], trailer].concat();
            let err = decode_fetch_reply(&long, &retained, &[]).unwrap_err();
            assert_eq!(err, WireError::TrailingBytes("fetch reply"));
        }

        // A rider's answer follows the pages': none, or what a grant
        // carries, never the page (the property tests mix them all).
        let rode = [&reply[..], &[NO_ANSWER], &reply[9..18 + PAGE_BYTES]].concat();
        let none = decode_fetch_reply(&rode[..reply.len() + 1], &retained, &[6]);
        assert_eq!(none.unwrap().1, [None]);
        let full = decode_fetch_reply(&rode, &retained, &[6, 8]).unwrap_err();
        assert_eq!(full, WireError::Invalid("fetch reply rider answer"));

        // Wrong page count, truncation and a bad tag are all errors.
        assert!(decode_fetch_reply(&reply, &[4, 0, 5, 0], &[]).is_err());
        assert!(decode_fetch_reply(&reply[..reply.len() - 1], &retained, &[]).is_err());
        reply[0] = 9;
        let err = decode_fetch_reply(&reply, &retained, &[]).unwrap_err();
        assert_eq!(err, WireError::Invalid("fetch reply page tag"));

        // Nor may a reply move a stamp backwards, confirm a stamp nobody
        // named or patch a copy that is not there; nor may a patch name a
        // slot twice, out of order or beyond the page.
        let err = |answer: PageReply<'_>, retained: u64| {
            let mut reply = Vec::new();
            push_page_reply(&mut reply, &answer);
            decode_fetch_reply(&reply, &[retained], &[]).map(|_| ())
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
        let longest_ok = decode_fetch_reply(&reply, &[7], &[]).is_ok();
        assert!(longest_ok && (9 + PAGE_BYTES - 10..9 + PAGE_BYTES).contains(&reply.len()));
        reply[9..13].copy_from_slice(&(MAX_PATCH_ENTRIES as u32 + 1).to_le_bytes());
        reply.extend_from_slice(&[0x99, 1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode_fetch_reply(&reply, &[7], &[]).map(|_| ()), entries);
    }

    #[test]
    fn fetch_request_round_trips_in_every_shape() {
        let riders = [
            vec![],
            vec![(PageId(3), 1)],
            vec![(PageId(2), 5), (PageId(40), 9)],
        ];
        for (versions, riders) in [vec![0u64], vec![7], vec![0, 9, 3]].into_iter().zip(riders) {
            let enc = encode_fetch_request(PageId(11), &versions, &riders);
            let trailer = (4 + 16 * riders.len()) * usize::from(!riders.is_empty());
            assert_eq!(enc.len(), 12 + 8 * versions.len() + trailer);
            let dec = decode_fetch_request(&enc).unwrap();
            assert_eq!(
                (dec.first, dec.versions, dec.riders),
                (PageId(11), versions, riders)
            );
        }
    }

    #[test]
    fn malformed_fetch_requests_are_errors_not_panics() {
        let err = |bytes: &[u8]| decode_fetch_request(bytes).unwrap_err();
        let enc = encode_fetch_request(PageId(1), &[4, 5], &[]);
        assert_eq!(enc.len(), 28);
        assert!(matches!(err(&enc[..19]), WireError::Truncated(_)));
        assert!(matches!(err(&enc[..27]), WireError::Truncated(_)));
        // Anything after the versions — once a rider trailer — is refused
        // unless the page count's top bit announces a rider section.
        let long = [&enc[..], &[1, 0], &[0; 16]].concat();
        assert!(matches!(err(&long), WireError::TrailingBytes(_)));
        assert!(matches!(err(&[1, 2, 3]), WireError::Truncated(_)));
        // A rider section is a count of at least one, then that many named
        // copies, each of a real page at a real stamp, and nothing after.
        let rode = encode_fetch_request(PageId(1), &[4, 5], &[(PageId(9), 3)]);
        let bad = |at: usize, byte: u8| {
            let mut bad = rode.clone();
            bad[at] = byte;
            err(&bad)
        };
        assert_eq!(bad(28, 0), WireError::Invalid("fetch request rider count"));
        for (at, byte) in [(39, 0x80), (40, 0)] {
            assert_eq!(bad(at, byte), WireError::Invalid("fetch request rider"));
        }
        let long = [&rode[..], &[0]].concat();
        assert_eq!(err(&long), WireError::TrailingBytes("fetch request"));
        for cut in [rode.len() - 1, enc.len()] {
            assert!(matches!(err(&rode[..cut]), WireError::Truncated(_)));
        }
        // Bit 63 of the first page (once the no-hint tag) names no page.
        let mut tagged = enc.clone();
        tagged[7] |= 0x80;
        assert_eq!(err(&tagged), WireError::Invalid("fetch request page id"));
        // A zero page count, and one far beyond the payload (rejected
        // before anything is allocated for it).
        for count in [[0u8; 4], [0xFF; 4]] {
            let mut bad = rode.clone();
            bad[8..12].copy_from_slice(&count);
            assert!(decode_fetch_request(&bad).is_err());
        }
    }
}
