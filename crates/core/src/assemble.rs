//! Page assembly at the DPC.
//!
//! A single linear pass over the template (the scan the paper's cost model
//! charges `z ≈ y` per byte for): literals are copied, `SET` content is
//! stored into the slot array *and* included in the page, `GET`s are filled
//! from the slot array. Both name the fragment's generation: a `GET` splices
//! only a slot that holds it, and a `SET` never overwrites a newer one, so
//! a reused key or a late `SET` yields a `MissingFragment`, never another
//! generation's bytes. The output is the byte-exact page the origin would
//! have produced without the cache — the central correctness property,
//! enforced by the round-trip property tests in this module and by the
//! end-to-end equivalence tests in the workspace `tests/` directory.
//!
//! Two output shapes are offered:
//!
//! * [`assemble_rope`] — the zero-copy hot path. The page comes back as a
//!   rope of [`Bytes`] segments: cached fragments are spliced by refcount
//!   bump (no memcpy of fragment bytes), and a freshly `SET` fragment is
//!   copied exactly once into the buffer that both the slot array and the
//!   page then share. Only literal runs are copied, and consecutive
//!   literal pieces (e.g. escaped sentinels) are coalesced into one
//!   segment.
//! * [`assemble`] — the original copying API, kept as a thin adapter that
//!   flattens the rope into a single `Vec<u8>` for callers that need
//!   contiguous output.
//!
//! The page's content identity (the proxy's ETag) costs O(segments), not
//! O(bytes): each segment contributes its [`content_hash`] — the slot's
//! stored hash for a `GET`, the install hash for a `SET`, one hash per
//! flushed literal run — folded in page order.

use bytes::Bytes;

use crate::error::AssembleError;
use crate::key::DpcKey;
use crate::policy::{content_hash, hash_fold};
use crate::store::FragmentStore;
use crate::tag::{Op, Scanner};

/// [`AssemblyStats::page_identity`] of a page with no segments.
const IDENTITY_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Counters from one assembly pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssemblyStats {
    /// `GET` instructions satisfied from the store.
    pub gets: u64,
    /// `SET` instructions stored.
    pub sets: u64,
    /// Literal bytes copied from the template.
    pub literal_bytes: u64,
    /// Fragment bytes spliced from the store (`GET`s).
    pub get_bytes: u64,
    /// Fragment bytes carried in the template (`SET`s).
    pub set_bytes: u64,
    /// Template bytes scanned.
    pub template_bytes: u64,
    /// Page bytes this pass ran through [`content_hash`]: every literal
    /// byte and every `SET` byte, never a `GET` byte (its slot's hash was
    /// taken at install). So `literal_bytes + set_bytes`.
    pub hashed_bytes: u64,
    /// The page's content identity, the basis of the strong `ETag` the
    /// proxy hands out: an ordered fold of each rope segment's
    /// `(content_hash, len)`. A `GET` contributes its slot's stored hash,
    /// a `SET` the hash taken as it installs the slot, a literal run one
    /// hash when it is flushed.
    ///
    /// The contract:
    /// * Equal identities imply byte-identical pages, up to a 64-bit
    ///   collision.
    /// * The same template over the same slot contents always yields the
    ///   same identity, and a `SET` of some bytes yields what a later
    ///   `GET` of them does — the cold page and the warm page agree.
    /// * Byte-identical pages built from a *different* segmentation (say,
    ///   a fragment inlined as a literal) may differ. That costs a
    ///   spurious `200`, never a wrong `304`.
    ///
    /// Zero only for a default-constructed stats value.
    pub page_identity: u64,
}

/// A fully assembled page, flattened to contiguous bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembledPage {
    /// Final HTML delivered to the user.
    pub html: Vec<u8>,
    pub stats: AssemblyStats,
}

/// A fully assembled page as a rope of shared-buffer segments.
///
/// Segments appear in page order; concatenating them yields the exact
/// bytes of [`AssembledPage::html`]. `GET` segments share the slot array's
/// allocations, so cloning/holding a rope does not copy fragment content.
#[derive(Debug, Clone, Default)]
pub struct AssembledRope {
    pub segments: Vec<Bytes>,
    pub stats: AssemblyStats,
}

impl AssembledRope {
    /// Total page length in bytes.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Bytes::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(Bytes::is_empty)
    }

    /// Flatten into one contiguous buffer (one copy of every byte).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for seg in &self.segments {
            out.extend_from_slice(seg);
        }
        out
    }

    /// Flatten into a single [`Bytes`]. A rope of exactly one segment is
    /// returned as-is (zero-copy — the common case for fully-cached pages
    /// with no chrome).
    pub fn to_bytes(&self) -> Bytes {
        if self.segments.len() == 1 {
            return self.segments[0].clone();
        }
        Bytes::from(self.to_vec())
    }

    /// Copy every segment into `out` in order.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.len());
        for seg in &self.segments {
            out.extend_from_slice(seg);
        }
    }

    /// Append one segment whose [`content_hash`] is `hash`.
    fn push(&mut self, segment: Bytes, hash: u64) {
        self.stats.page_identity = hash_fold(self.stats.page_identity, hash, segment.len() as u64);
        self.segments.push(segment);
    }

    /// Append the pending literal run, if any, as one segment.
    fn flush_literals(&mut self, run: &mut Vec<u8>) {
        if !run.is_empty() {
            let hash = content_hash(run);
            self.stats.hashed_bytes += run.len() as u64;
            self.push(Bytes::from(std::mem::take(run)), hash);
        }
    }
}

/// A scanner over `template`, which must start with the preamble.
fn scanner(template: &[u8]) -> Result<Scanner<'_>, AssembleError> {
    Scanner::new(template).ok_or(AssembleError::Malformed {
        offset: 0,
        reason: "missing template preamble",
    })
}

/// Assemble `template` against `store`, returning a zero-copy rope.
///
/// Errors indicate the proxy must fall back to a bypass fetch; they never
/// result in a wrong page being served.
pub fn assemble_rope(
    template: &[u8],
    store: &FragmentStore,
) -> Result<AssembledRope, AssembleError> {
    let mut scanner = scanner(template)?;
    let mut rope = AssembledRope {
        segments: Vec::with_capacity(8),
        stats: AssemblyStats {
            template_bytes: template.len() as u64,
            page_identity: IDENTITY_SEED,
            ..AssemblyStats::default()
        },
    };
    // Pending run of literal bytes, flushed when a fragment interrupts it.
    // Coalescing matters: escaped sentinels arrive as 1-byte literal ops.
    let mut literal_run: Vec<u8> = Vec::new();
    while let Some(op) = scanner.next()? {
        match op {
            Op::Literal(bytes) => {
                rope.stats.literal_bytes += bytes.len() as u64;
                literal_run.extend_from_slice(bytes);
            }
            Op::Get { key, gen } => {
                let (fragment, hash) = store
                    .get_hashed(key, gen)
                    .ok_or(AssembleError::MissingFragment(key))?;
                rope.stats.gets += 1;
                rope.stats.get_bytes += fragment.len() as u64;
                rope.flush_literals(&mut literal_run);
                // Zero-copy splice: the rope shares the slot's buffer, and
                // the slot's stored hash stands for its bytes.
                rope.push(fragment, hash);
            }
            Op::Set { key, gen, content } => {
                // One copy total: the shared buffer is installed in the
                // slot array and spliced into the page. One hash total:
                // the slot stores the one the page identity folds. The
                // page carries the SET's bytes even when the slot keeps a
                // newer generation: they are what this render read.
                let hash = content_hash(content);
                let shared = Bytes::copy_from_slice(content);
                if !store.set_hashed(key, gen, shared.clone(), hash) {
                    return Err(AssembleError::KeyOutOfRange(key));
                }
                rope.stats.sets += 1;
                rope.stats.set_bytes += content.len() as u64;
                rope.stats.hashed_bytes += content.len() as u64;
                rope.flush_literals(&mut literal_run);
                rope.push(shared, hash);
            }
        }
    }
    rope.flush_literals(&mut literal_run);
    Ok(rope)
}

/// Salvage a template whose assembly stopped on a missing `GET`: install
/// every `SET` it carries, including those after the stop, and return the
/// keys of its `GET`s whose slot in `store` still lacks the named
/// generation, in template order without duplicates.
///
/// The BEM marked each `SET` as stored on this node when it emitted it,
/// so leaving one uninstalled would make that mark a lie. The returned
/// keys are what a refresh names so the BEM re-`SET`s them.
pub fn salvage(template: &[u8], store: &FragmentStore) -> Result<Vec<DpcKey>, AssembleError> {
    let ops = scanner(template)?.collect_ops()?;
    for op in &ops {
        if let Op::Set { key, gen, content } = op {
            if !store.set(*key, *gen, Bytes::copy_from_slice(content)) {
                return Err(AssembleError::KeyOutOfRange(*key));
            }
        }
    }
    let mut missing = Vec::new();
    for op in &ops {
        if let Op::Get { key, gen } = op {
            if store.get(*key, *gen).is_none() && !missing.contains(key) {
                missing.push(*key);
            }
        }
    }
    Ok(missing)
}

/// Assemble `template` against `store` into contiguous bytes.
///
/// Thin adapter over [`assemble_rope`] for callers that need a flat
/// buffer; new code on the hot path should prefer the rope.
pub fn assemble(template: &[u8], store: &FragmentStore) -> Result<AssembledPage, AssembleError> {
    let rope = assemble_rope(template, store)?;
    Ok(AssembledPage {
        html: rope.to_vec(),
        stats: rope.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{write_get, write_literal, write_preamble, write_set};

    fn store_with(entries: &[(u32, &[u8])]) -> FragmentStore {
        let store = FragmentStore::new(64);
        for (k, v) in entries {
            store.set(DpcKey(*k), 1, Bytes::copy_from_slice(v));
        }
        store
    }

    #[test]
    fn assembles_literals_gets_and_sets() {
        let store = store_with(&[(1, b"CACHED")]);
        let mut t = Vec::new();
        write_preamble(&mut t);
        write_literal(&mut t, b"<a>");
        write_get(&mut t, DpcKey(1), 1);
        write_literal(&mut t, b"<b>");
        write_set(&mut t, DpcKey(2), 1, b"FRESH");
        write_literal(&mut t, b"<c>");
        let page = assemble(&t, &store).unwrap();
        assert_eq!(page.html, b"<a>CACHED<b>FRESH<c>".to_vec());
        assert_eq!(page.stats.gets, 1);
        assert_eq!(page.stats.sets, 1);
        assert_eq!(page.stats.get_bytes, 6);
        assert_eq!(page.stats.set_bytes, 5);
        assert_eq!(page.stats.literal_bytes, 9);
        // The SET was installed for future GETs.
        assert_eq!(
            store.get(DpcKey(2), 1).unwrap(),
            Bytes::from_static(b"FRESH")
        );
    }

    #[test]
    fn rope_matches_flat_assembly_and_splices_by_reference() {
        let store = store_with(&[(1, b"CACHED-FRAGMENT")]);
        let mut t = Vec::new();
        write_preamble(&mut t);
        write_literal(&mut t, b"<a>");
        write_get(&mut t, DpcKey(1), 1);
        write_set(&mut t, DpcKey(2), 1, b"FRESH");
        write_literal(&mut t, b"<c>");
        let rope = assemble_rope(&t, &store).unwrap();
        assert_eq!(rope.to_vec(), b"<a>CACHED-FRAGMENTFRESH<c>".to_vec());
        assert_eq!(rope.len(), 26);
        assert!(!rope.is_empty());
        // Segments: literal, GET splice, SET splice, literal.
        assert_eq!(rope.segments.len(), 4);
        // The GET segment is the slot's buffer, not a copy.
        assert_eq!(rope.segments[1], store.get(DpcKey(1), 1).unwrap());
        // The SET segment shares the buffer just installed in slot 2.
        assert_eq!(rope.segments[2], store.get(DpcKey(2), 1).unwrap());
        // Adapter agrees byte-for-byte, stats and all.
        let flat = assemble(&t, &store).unwrap();
        assert_eq!(flat.html, rope.to_vec());
        assert_eq!(flat.stats, rope.stats);
        // The identity is the ordered fold over the rope's segments.
        let folded = rope.segments.iter().fold(IDENTITY_SEED, |acc, s| {
            hash_fold(acc, content_hash(s), s.len() as u64)
        });
        assert_eq!(rope.stats.page_identity, folded);
        // write_into appends.
        let mut out = b"pre:".to_vec();
        rope.write_into(&mut out);
        assert_eq!(&out[..4], b"pre:");
        assert_eq!(&out[4..], &flat.html[..]);
    }

    /// `<h>` GET 1 `<m>` GET 2 `<t>`, over slots 1 and 2.
    fn two_slot_page(lits: [&[u8]; 3]) -> Vec<u8> {
        let mut t = Vec::new();
        write_preamble(&mut t);
        write_literal(&mut t, lits[0]);
        write_get(&mut t, DpcKey(1), 1);
        write_literal(&mut t, lits[1]);
        write_get(&mut t, DpcKey(2), 1);
        write_literal(&mut t, lits[2]);
        t
    }

    #[test]
    fn flipping_one_slot_or_literal_byte_flips_the_identity() {
        let slots: [&[u8]; 2] = [b"first-fragment", b"second"];
        let lits: [&[u8]; 3] = [b"<html>", b"|", b"</html>"];
        let store = store_with(&[(1, slots[0]), (2, slots[1])]);
        let base = assemble_rope(&two_slot_page(lits), &store).unwrap();
        let base_id = base.stats.page_identity;
        for (s, slot) in slots.iter().enumerate() {
            for i in 0..slot.len() {
                let mut flipped = slot.to_vec();
                flipped[i] ^= 0x20;
                store.set(DpcKey(s as u32 + 1), 1, Bytes::from(flipped));
                let rope = assemble_rope(&two_slot_page(lits), &store).unwrap();
                assert_ne!(rope.stats.page_identity, base_id, "slot {s} byte {i}");
            }
            store.set(DpcKey(s as u32 + 1), 1, Bytes::copy_from_slice(slot));
        }
        for (l, lit) in lits.iter().enumerate() {
            for i in 0..lit.len() {
                let mut flipped = lit.to_vec();
                flipped[i] ^= 0x20;
                let mut page: [&[u8]; 3] = lits;
                page[l] = &flipped;
                let rope = assemble_rope(&two_slot_page(page), &store).unwrap();
                assert_ne!(rope.stats.page_identity, base_id, "literal {l} byte {i}");
            }
        }
        // Restored slots give back the original identity.
        let again = assemble_rope(&two_slot_page(lits), &store).unwrap();
        assert_eq!(again.stats.page_identity, base_id);
    }

    #[test]
    fn cold_set_page_and_warm_get_page_share_an_identity() {
        let store = FragmentStore::new(8);
        let mut cold = Vec::new();
        write_preamble(&mut cold);
        write_literal(&mut cold, b"<head>");
        write_set(&mut cold, DpcKey(4), 1, b"NAVIGATION");
        write_literal(&mut cold, b"<tail>");
        let mut warm = Vec::new();
        write_preamble(&mut warm);
        write_literal(&mut warm, b"<head>");
        write_get(&mut warm, DpcKey(4), 1);
        write_literal(&mut warm, b"<tail>");

        let first = assemble_rope(&cold, &store).unwrap();
        let second = assemble_rope(&warm, &store).unwrap();
        assert_eq!(first.to_vec(), second.to_vec());
        assert_eq!(first.stats.page_identity, second.stats.page_identity);

        // Counted guard: a SET page hashes its literals and its SET bytes,
        // an all-GET page its literals only — no fragment byte.
        assert_eq!(first.stats.hashed_bytes, 12 + 10);
        assert_eq!(
            first.stats.hashed_bytes,
            first.stats.literal_bytes + first.stats.set_bytes
        );
        assert_eq!(second.stats.hashed_bytes, second.stats.literal_bytes);
        assert_eq!(second.stats.get_bytes, 10);
    }

    #[test]
    fn rope_coalesces_literal_runs() {
        let store = FragmentStore::new(8);
        let mut t = Vec::new();
        write_preamble(&mut t);
        // Escaped sentinels split literals into 1-byte ops; the rope must
        // still come back as a single segment.
        write_literal(&mut t, &[b'a', 0x01, b'b', 0x01, b'c']);
        write_literal(&mut t, b"tail");
        let rope = assemble_rope(&t, &store).unwrap();
        assert_eq!(rope.segments.len(), 1);
        assert_eq!(
            rope.to_vec(),
            vec![b'a', 0x01, b'b', 0x01, b'c', b't', b'a', b'i', b'l']
        );
    }

    #[test]
    fn rope_single_segment_to_bytes_is_the_fragment() {
        let store = store_with(&[(3, b"ONLY")]);
        let mut t = Vec::new();
        write_preamble(&mut t);
        write_get(&mut t, DpcKey(3), 1);
        let rope = assemble_rope(&t, &store).unwrap();
        assert_eq!(rope.segments.len(), 1);
        assert_eq!(rope.to_bytes(), Bytes::from_static(b"ONLY"));
    }

    #[test]
    fn missing_fragment_is_an_error_not_a_wrong_page() {
        let store = FragmentStore::new(8);
        let mut t = Vec::new();
        write_preamble(&mut t);
        write_get(&mut t, DpcKey(5), 1);
        let err = assemble(&t, &store).unwrap_err();
        assert_eq!(err, AssembleError::MissingFragment(DpcKey(5)));
    }

    #[test]
    fn salvage_installs_every_set_and_names_the_absent_gets() {
        let store = store_with(&[(2, b"HELD")]);
        let mut t = Vec::new();
        write_preamble(&mut t);
        write_get(&mut t, DpcKey(1), 1);
        write_set(&mut t, DpcKey(3), 1, b"AFTER-THE-STOP");
        write_get(&mut t, DpcKey(2), 1);
        write_get(&mut t, DpcKey(4), 1);
        write_get(&mut t, DpcKey(1), 1);
        write_get(&mut t, DpcKey(3), 1);
        // Assembly stops on the first GET, before the SET.
        assert_eq!(
            assemble(&t, &store).unwrap_err(),
            AssembleError::MissingFragment(DpcKey(1))
        );
        assert!(store.get(DpcKey(3), 1).is_none());
        assert_eq!(salvage(&t, &store).unwrap(), vec![DpcKey(1), DpcKey(4)]);
        assert_eq!(
            store.get(DpcKey(3), 1).unwrap(),
            Bytes::from_static(b"AFTER-THE-STOP")
        );
        assert_eq!(
            salvage(b"<html>plain</html>", &store),
            Err(AssembleError::Malformed {
                offset: 0,
                reason: "missing template preamble"
            })
        );
    }

    #[test]
    fn a_get_splices_only_its_generation_and_a_late_set_keeps_the_newer() {
        // The slot holds generation 1 of key 1; the directory has since
        // handed the key to generation 2.
        let store = store_with(&[(1, b"OLD")]);
        let mut get = Vec::new();
        write_preamble(&mut get);
        write_get(&mut get, DpcKey(1), 2);
        assert_eq!(
            assemble(&get, &store).unwrap_err(),
            AssembleError::MissingFragment(DpcKey(1))
        );
        assert_eq!(salvage(&get, &store).unwrap(), vec![DpcKey(1)]);
        // Generation 2's SET lands, then a late SET of generation 1: its
        // page carries what its render read, and the slot keeps the newer.
        let mut fresh = Vec::new();
        write_preamble(&mut fresh);
        write_set(&mut fresh, DpcKey(1), 2, b"NEW");
        let mut late = Vec::new();
        write_preamble(&mut late);
        write_set(&mut late, DpcKey(1), 1, b"OLD");
        assert_eq!(assemble(&fresh, &store).unwrap().html, b"NEW");
        assert_eq!(assemble(&late, &store).unwrap().html, b"OLD");
        assert_eq!(salvage(&late, &store).unwrap(), Vec::<DpcKey>::new());
        assert_eq!(assemble(&get, &store).unwrap().html, b"NEW");
    }

    #[test]
    fn key_out_of_range_is_an_error() {
        let store = FragmentStore::new(4);
        let mut t = Vec::new();
        write_preamble(&mut t);
        write_set(&mut t, DpcKey(100), 1, b"x");
        let err = assemble(&t, &store).unwrap_err();
        assert_eq!(err, AssembleError::KeyOutOfRange(DpcKey(100)));
    }

    #[test]
    fn uninstrumented_body_is_malformed() {
        let store = FragmentStore::new(4);
        let err = assemble(b"<html>plain</html>", &store).unwrap_err();
        assert!(matches!(err, AssembleError::Malformed { offset: 0, .. }));
    }

    #[test]
    fn set_then_get_same_template() {
        // A page may SET a fragment and GET it again later on the same page
        // (fragment shared across two page positions, second occurrence a
        // directory hit).
        let store = FragmentStore::new(8);
        let mut t = Vec::new();
        write_preamble(&mut t);
        write_set(&mut t, DpcKey(3), 1, b"NAV");
        write_literal(&mut t, b"|");
        write_get(&mut t, DpcKey(3), 1);
        let page = assemble(&t, &store).unwrap();
        assert_eq!(page.html, b"NAV|NAV".to_vec());
    }

    #[test]
    fn empty_template_yields_empty_page() {
        let store = FragmentStore::new(1);
        let mut t = Vec::new();
        write_preamble(&mut t);
        let page = assemble(&t, &store).unwrap();
        assert!(page.html.is_empty());
        assert_eq!(page.stats.template_bytes, t.len() as u64);
        let rope = assemble_rope(&t, &store).unwrap();
        assert!(rope.is_empty());
        assert_eq!(rope.len(), 0);
    }
}
