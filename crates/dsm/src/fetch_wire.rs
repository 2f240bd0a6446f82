//! Wire encoding of page fetches: the one conditional request form and the
//! one reply form (errors and the bounds-checked reader are
//! [`crate::diff`]'s, which re-exports everything public here).
//!
//! Every page fetch is *conditional* and carries one page: the request
//! names the version of the copy the requester retains (0 = none), and the
//! home answers "not modified", a *patch* (the slots that changed since
//! that version, when its history reaches back that far and they encode
//! shorter than the page) or the page, with the home's version.  A
//! demand fetch also names *riders*: dropped copies of other pages of the
//! same home, each at its retained version, which the home answers only as
//! a monitor's grant would — "not modified" or a patch that fits the
//! grant's cost rule — or with "no answer", never with the page.
//!
//! | message | layout (little-endian) |
//! |---|---|
//! | fetch request | `page u64` (bit 63 clear) · `1u32` (bit 31 set: riders follow) · `retained version u64`; then, only if there are riders, `n u32` (n ≥ 1) · `n × (page u64` (bit 63 clear) · `retained version u64` (≠ 0)`)`; nothing after them |
//! | fetch reply | the page's answer: `0u8 · version u64` (not modified), `1u8 · version u64 · 4096 B` (page) or `2u8 · version u64 · n u32 · n × (slot u16 · value u64)` (patch, slots ascending, `n ≤ 409`); then per rider `3u8` (no answer), a "not modified" or a patch; nothing after them |

use hyperion_pm2::{PageId, PAGE_BYTES};

use crate::diff::{
    push_entries, read_patch, DiffEntry, Reader, Wire, WireError, MAX_PATCH_ENTRIES, TOP_BIT,
};

/// A decoded page-fetch request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchRequest {
    /// The requested page.
    pub page: PageId,
    /// The version of the copy the requester retains (0 = none).
    pub retained: u64,
    /// The riders: dropped copies of other pages, each at its version.
    pub riders: Vec<(PageId, u64)>,
}

/// A rider's answer when the home has none that fits a grant.
pub const NO_ANSWER: u8 = 3;

/// The count word's flag that a rider section follows the version.  The
/// word's low bits count the pages: always one.
const RIDERS: u32 = 1 << 31;

/// One named copy, `page u64 · retained version u64`: a rider of a fetch
/// request, and a dropped copy an acquire's request names to the granter.
pub(crate) const NAMED_COPY_BYTES: usize = 16;

/// Encode a fetch request for `page`, homed on the target node, whose copy
/// the requester retains at `retained`, naming `riders`.
pub fn encode_fetch_request(page: PageId, retained: u64, riders: &[(PageId, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + riders.len() * NAMED_COPY_BYTES);
    out.extend_from_slice(&page.0.to_le_bytes());
    let flag = if riders.is_empty() { 0 } else { RIDERS };
    out.extend_from_slice(&(1 | flag).to_le_bytes());
    out.extend_from_slice(&retained.to_le_bytes());
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
    let page = u64::from_le_bytes(r.le("fetch request page id")?);
    if page & TOP_BIT != 0 {
        return Err(WireError::Invalid("fetch request page id"));
    }
    let count = u32::from_le_bytes(r.le("fetch request page count")?);
    let riders = count & RIDERS != 0;
    if count & !RIDERS != 1 {
        return Err(WireError::Invalid("fetch request page count"));
    }
    let retained = u64::from_le_bytes(r.le("fetch request version")?);
    let n = match riders {
        true => u32::from_le_bytes(r.le("fetch request rider count")?) as usize,
        false => 0,
    };
    if riders && n == 0 {
        return Err(WireError::Invalid("fetch request rider count"));
    }
    r.fits(n, NAMED_COPY_BYTES, "fetch request riders")?;
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
        page: PageId(page),
        retained,
        riders,
    })
}

/// The home's answer to one retained copy: a fetch's page or a rider.
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

impl PageReply<'_> {
    /// How many bytes [`push_page_reply`] appends for this answer.
    pub fn encoded_len(&self) -> usize {
        9 + match self {
            PageReply::NotModified(_) => 0,
            PageReply::Full(..) => PAGE_BYTES,
            PageReply::Patch(_, patch) => 4 + 10 * patch.len(),
        }
    }
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

/// Decode the reply to a fetch that named `retained` as the version of the
/// copy it retains and `riders` as its riders' versions: the page's answer,
/// then per rider its answer or `None` (no answer).  Only answers the
/// requester can act on come back: stamps only grow, so a confirmation is
/// of the version named, a page is at it or above (never 0, and never to a
/// rider), and a patch — which needs a copy to patch — strictly above it.
pub fn decode_fetch_reply<'a>(
    reply: &'a [u8],
    retained: u64,
    riders: &[u64],
) -> Wire<(PageReply<'a>, Vec<Option<PageReply<'a>>>)> {
    let mut r = Reader(reply);
    r.fits(9 + riders.len(), 1, "fetch reply pages")?;
    let page = read_answer(&mut r, retained)?;
    let riders = (riders.iter())
        .map(|&kept| match r.0.first() {
            Some(&NO_ANSWER) => r.bytes(1, "fetch reply rider").map(|_| None),
            Some(1) => Err(WireError::Invalid("fetch reply rider answer")),
            _ => read_answer(&mut r, kept).map(Some),
        })
        .collect::<Wire<_>>()?;
    r.finish("fetch reply")?;
    Ok((page, riders))
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
        let answers = [
            (4, PageReply::NotModified(4)),
            (0, PageReply::Full(9, &page)),
            (5, PageReply::Patch(6, vec![(0, 1), (511, u64::MAX)])),
            (5, PageReply::Patch(6, vec![])),
        ];
        let encoded = |answer: &PageReply<'_>| {
            let mut reply = Vec::new();
            push_page_reply(&mut reply, answer);
            reply
        };
        // What used to follow the answer — a hint trailer (`n u16 · first
        // u64 · run u16`), a byte of rider answers, a second page's answer
        // — is trailing bytes to a request that named no rider.
        let (hint, second) = (
            [1, 0, 40, 0, 0, 0, 0, 0, 0, 0, 3, 0],
            encoded(&answers[0].1),
        );
        for (retained, answer) in &answers {
            // The codec alone sizes an answer: what it appends.
            let reply = encoded(answer);
            assert_eq!(answer.encoded_len(), reply.len(), "{answer:?}");
            let decoded = decode_fetch_reply(&reply, *retained, &[]).unwrap();
            assert_eq!(decoded, (answer.clone(), vec![]));
            for trailer in [&hint[..], &[0b101], &second] {
                let long = [&reply[..], trailer].concat();
                let err = decode_fetch_reply(&long, *retained, &[]).unwrap_err();
                assert_eq!(err, WireError::TrailingBytes("fetch reply"));
            }
        }

        // A rider's answer follows the page's: none, or what a grant
        // carries, never the page (the property tests mix them all).
        let (reply, full) = (encoded(&answers[0].1), encoded(&answers[1].1));
        let rode = [&reply[..], &[NO_ANSWER], &full].concat();
        let none = decode_fetch_reply(&rode[..reply.len() + 1], 4, &[6]);
        assert_eq!(none.unwrap().1, [None]);
        let err = decode_fetch_reply(&rode, 4, &[6, 8]).unwrap_err();
        assert_eq!(err, WireError::Invalid("fetch reply rider answer"));

        // A rider named but not answered, truncation and a bad tag are all
        // errors.
        let mut reply = encoded(&answers[2].1);
        assert!(decode_fetch_reply(&reply, 5, &[2]).is_err());
        assert!(decode_fetch_reply(&reply[..reply.len() - 1], 5, &[]).is_err());
        reply[0] = 9;
        let err = decode_fetch_reply(&reply, 5, &[]).unwrap_err();
        assert_eq!(err, WireError::Invalid("fetch reply page tag"));

        // Nor may a reply move a stamp backwards, confirm a stamp nobody
        // named or patch a copy that is not there; nor may a patch name a
        // slot twice, out of order or beyond the page.
        let err = |answer: PageReply<'_>, retained: u64| {
            decode_fetch_reply(&encoded(&answer), retained, &[]).map(|_| ())
        };
        let version = Err(WireError::Invalid("fetch reply page version"));
        let entries = Err(WireError::Invalid("patch entries"));
        assert_eq!(err(PageReply::Full(7, &page), 7), Ok(()));
        assert_eq!(err(PageReply::Full(6, &page), 7), version);
        assert_eq!(err(PageReply::Full(0, &page), 0), version);
        assert_eq!(err(PageReply::NotModified(7), 6), version);
        assert_eq!(err(PageReply::NotModified(0), 0), version);
        assert_eq!(err(PageReply::Patch(8, vec![(3, 1)]), 0), version);
        assert_eq!(err(PageReply::Patch(7, vec![(3, 1)]), 7), version);
        assert_eq!(err(PageReply::Patch(8, vec![(3, 1), (3, 2)]), 7), entries);
        assert_eq!(err(PageReply::Patch(8, vec![(4, 1), (3, 2)]), 7), entries);
        let slot = Err(WireError::Invalid("diff slot index"));
        assert_eq!(err(PageReply::Patch(8, vec![(512, 1)]), 7), slot);
        // The longest patch is one entry short of a page; one more entry
        // (hand-encoded: the encoder refuses) is an error.
        let longest = PageReply::Patch(8, (0..MAX_PATCH_ENTRIES as u16).map(|s| (s, 1)).collect());
        let mut reply = encoded(&longest);
        assert_eq!(longest.encoded_len(), reply.len());
        let longest_ok = decode_fetch_reply(&reply, 7, &[]).is_ok();
        assert!(longest_ok && (9 + PAGE_BYTES - 10..9 + PAGE_BYTES).contains(&reply.len()));
        reply[9..13].copy_from_slice(&(MAX_PATCH_ENTRIES as u32 + 1).to_le_bytes());
        reply.extend_from_slice(&[0x99, 1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode_fetch_reply(&reply, 7, &[]).map(|_| ()), entries);
    }

    #[test]
    fn fetch_request_round_trips_in_every_shape() {
        let riders = [
            vec![],
            vec![(PageId(3), 1)],
            vec![(PageId(2), 5), (PageId(40), 9)],
        ];
        for (retained, riders) in [0u64, 7, 9].into_iter().zip(riders) {
            let enc = encode_fetch_request(PageId(11), retained, &riders);
            let trailer = (4 + 16 * riders.len()) * usize::from(!riders.is_empty());
            assert_eq!(enc.len(), 20 + trailer);
            // The count word is one page, flagged when riders follow.
            let flag = u32::from(!riders.is_empty()) << 31;
            assert_eq!(enc[8..12], (1 | flag).to_le_bytes());
            let dec = decode_fetch_request(&enc).unwrap();
            assert_eq!(
                (dec.page, dec.retained, dec.riders),
                (PageId(11), retained, riders)
            );
        }
    }

    #[test]
    fn malformed_fetch_requests_are_errors_not_panics() {
        let err = |bytes: &[u8]| decode_fetch_request(bytes).unwrap_err();
        let enc = encode_fetch_request(PageId(1), 4, &[]);
        assert_eq!(enc.len(), 20);
        assert!(matches!(err(&enc[..11]), WireError::Truncated(_)));
        assert!(matches!(err(&enc[..19]), WireError::Truncated(_)));
        // Anything after the version — once a rider trailer — is refused
        // unless the count word's top bit announces a rider section.
        let long = [&enc[..], &[1, 0], &[0; 16]].concat();
        assert!(matches!(err(&long), WireError::TrailingBytes(_)));
        assert!(matches!(err(&[1, 2, 3]), WireError::Truncated(_)));
        // A rider section is a count of at least one, then that many named
        // copies, each of a real page at a real stamp, and nothing after.
        let rode = encode_fetch_request(PageId(1), 4, &[(PageId(9), 3)]);
        let bad = |at: usize, byte: u8| {
            let mut bad = rode.clone();
            bad[at] = byte;
            err(&bad)
        };
        assert_eq!(bad(20, 0), WireError::Invalid("fetch request rider count"));
        for (at, byte) in [(31, 0x80), (32, 0)] {
            assert_eq!(bad(at, byte), WireError::Invalid("fetch request rider"));
        }
        let long = [&rode[..], &[0]].concat();
        assert_eq!(err(&long), WireError::TrailingBytes("fetch request"));
        for cut in [rode.len() - 1, enc.len()] {
            assert!(matches!(err(&rode[..cut]), WireError::Truncated(_)));
        }
        // Bit 63 of the page (once the no-hint tag) names no page.
        let mut tagged = enc.clone();
        tagged[7] |= 0x80;
        assert_eq!(err(&tagged), WireError::Invalid("fetch request page id"));
        // A fetch carries one page: a count of none, of two (once a run of
        // pages) or of thousands is refused.
        let count = WireError::Invalid("fetch request page count");
        for (at, byte) in [(8, 0), (8, 2), (10, 0xFF)] {
            assert_eq!(bad(at, byte), count);
        }
    }
}
