//! Wire encoding of page fetches: the one conditional request form and the
//! one reply form (errors and the bounds-checked reader are
//! [`crate::diff`]'s, which re-exports everything public here).
//!
//! Every page fetch is *conditional*: the request names, per page, the
//! version of the copy the requester retains (0 = none), and the home
//! answers per page "not modified", a *patch* (the slots that changed since
//! that version, when its history reaches back that far and they encode
//! shorter than the page) or the page, each with the home's version.
//!
//! | message | layout (little-endian) |
//! |---|---|
//! | fetch request | `first page u64` (bit 63 clear) · `count u32` · `count × retained version u64`, and nothing after them |
//! | fetch reply | per page `0u8 · version u64` (not modified), `1u8 · version u64 · 4096 B` (page) or `2u8 · version u64 · n u32 · n × (slot u16 · value u64)` (patch, slots ascending, `n ≤ 409`), and nothing after them |

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
}

/// Encode a fetch request for the `versions.len()` contiguous pages starting
/// at `first`, all homed on the target node.
///
/// # Panics
/// Panics if `versions` is empty.
pub fn encode_fetch_request(first: PageId, versions: &[u64]) -> Vec<u8> {
    assert!(!versions.is_empty(), "a fetch requests at least one page");
    let mut out = Vec::with_capacity(12 + versions.len() * 8);
    out.extend_from_slice(&first.0.to_le_bytes());
    out.extend_from_slice(&(versions.len() as u32).to_le_bytes());
    for v in versions {
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
        first: PageId(first),
        versions,
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
/// copies it retains (one per page): one answer per page, in request order.
/// Only answers the requester can act on come back: stamps only grow, so a
/// confirmation is of the version named, a page is at it or above (never
/// 0), and a patch — which needs a copy to patch — strictly above it.
pub fn decode_fetch_reply<'a>(reply: &'a [u8], retained: &[u64]) -> Wire<Vec<PageReply<'a>>> {
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
    r.finish("fetch reply")?;
    Ok(pages)
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
        let decoded = decode_fetch_reply(&reply, &retained).unwrap();
        assert_eq!(decoded, pages);

        // What used to follow the answers — a hint trailer (`n u16 · first
        // u64 · run u16`), a byte of rider answers — is trailing bytes now.
        for trailer in [&[1, 0, 40, 0, 0, 0, 0, 0, 0, 0, 3, 0][..], &[0b101]] {
            let long = [&reply[..], trailer].concat();
            let err = decode_fetch_reply(&long, &retained).unwrap_err();
            assert_eq!(err, WireError::TrailingBytes("fetch reply"));
        }

        // Wrong page count, truncation and a bad tag are all errors.
        assert!(decode_fetch_reply(&reply, &[4, 0, 5, 0]).is_err());
        assert!(decode_fetch_reply(&reply[..reply.len() - 1], &retained).is_err());
        reply[0] = 9;
        let err = decode_fetch_reply(&reply, &retained).unwrap_err();
        assert_eq!(err, WireError::Invalid("fetch reply page tag"));

        // Nor may a reply move a stamp backwards, confirm a stamp nobody
        // named or patch a copy that is not there; nor may a patch name a
        // slot twice, out of order or beyond the page.
        let err = |answer: PageReply<'_>, retained: u64| {
            let mut reply = Vec::new();
            push_page_reply(&mut reply, &answer);
            decode_fetch_reply(&reply, &[retained]).map(|_| ())
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
        let longest_ok = decode_fetch_reply(&reply, &[7]).is_ok();
        assert!(longest_ok && (9 + PAGE_BYTES - 10..9 + PAGE_BYTES).contains(&reply.len()));
        reply[9..13].copy_from_slice(&(MAX_PATCH_ENTRIES as u32 + 1).to_le_bytes());
        reply.extend_from_slice(&[0x99, 1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode_fetch_reply(&reply, &[7]).map(|_| ()), entries);
    }

    #[test]
    fn fetch_request_round_trips_in_every_shape() {
        for versions in [vec![0u64], vec![7], vec![0, 9, 3]] {
            let enc = encode_fetch_request(PageId(11), &versions);
            assert_eq!(enc.len(), 12 + 8 * versions.len());
            let dec = decode_fetch_request(&enc).unwrap();
            assert_eq!((dec.first, dec.versions), (PageId(11), versions));
        }
    }

    #[test]
    fn malformed_fetch_requests_are_errors_not_panics() {
        let err = |bytes: &[u8]| decode_fetch_request(bytes).unwrap_err();
        let enc = encode_fetch_request(PageId(1), &[4, 5]);
        assert_eq!(enc.len(), 28);
        assert!(matches!(err(&enc[..19]), WireError::Truncated(_)));
        assert!(matches!(err(&enc[..27]), WireError::Truncated(_)));
        // Anything after the versions — once a rider trailer — is refused.
        let long = [&enc[..], &[1, 0], &[0; 16]].concat();
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
    }
}
