//! The shared database on DASD: pages of keyed records.
//!
//! A [`PageStore`] maps a key space onto fixed page slots of a shared
//! volume ("the disks are fully connected to all processors", §3.1). The
//! page image is the unit of caching, coherency and castout; records are
//! the unit of locking.

use crate::error::{DbError, DbResult};
use std::ops::Range;
use std::sync::Arc;
use sysplex_core::cache::BlockName;
use sysplex_dasd::farm::{DasdFarm, VolumeHandle};

/// Bytes of the record count that opens an image.
const COUNT_BYTES: usize = 4;
/// Bytes of a record's key and length words.
const RECORD_HEAD: usize = 12;

/// A page: a small sorted set of records, held as its encoded image.
///
/// The image — `count u32 | (key u64 | len u32 | bytes)*`, big-endian, keys
/// strictly ascending, nothing after the last record — is the only
/// representation: a lookup walks it and an update splices it. It sits
/// behind an `Arc`, so a clone is a reference count, and the buffer pool,
/// the CF's global copy and any number of readers may hold the same bytes.
/// An image is never changed once shared: an update to a shared page copies
/// it first. Every constructor validates, so the walkers index without
/// checking again.
///
/// A page image must fit a DASD block
/// ([`sysplex_dasd::volume::BLOCK_SIZE`], 4 KiB) by castout time; size
/// your key-space (`GroupConfig::pages`) so records per page stay small,
/// as a real 4K-page database would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    image: Arc<Vec<u8>>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

/// A record's key and value length, from its [`RECORD_HEAD`] bytes.
fn record_head(head: &[u8]) -> (u64, usize) {
    let (key, len) = head.split_at(8);
    let key = u64::from_be_bytes(key.try_into().expect("8 key bytes"));
    (key, u32::from_be_bytes(len.try_into().expect("4 length bytes")) as usize)
}

/// The records of a validated image: `(offset of the record, key, value)`.
struct Records<'a> {
    image: &'a [u8],
    off: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = (usize, u64, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let off = self.off;
        let (key, len) = record_head(self.image.get(off..off + RECORD_HEAD)?);
        self.off = off + RECORD_HEAD + len;
        Some((off, key, &self.image[off + RECORD_HEAD..self.off]))
    }
}

impl Page {
    /// Empty page.
    pub fn new() -> Self {
        Page { image: Arc::new(vec![0; COUNT_BYTES]) }
    }

    /// Decode a page image. An empty image is an empty page.
    pub fn decode(data: &[u8], page_no: u64) -> DbResult<Self> {
        Page::from_image(Arc::new(data.to_vec()), page_no)
    }

    /// Adopt an image without copying it (the CF's copy, a block just read).
    /// The one place an image is checked: the count, every record extent and
    /// the key order, because [`Page::get`] stops at the first larger key
    /// and an unsorted image would answer lookups wrongly.
    pub(crate) fn from_image(image: Arc<Vec<u8>>, page_no: u64) -> DbResult<Self> {
        if image.is_empty() {
            return Ok(Page::new());
        }
        let corrupt = || DbError::PageCorrupt(page_no);
        let count = image.get(..COUNT_BYTES).ok_or_else(corrupt)?;
        let count = u32::from_be_bytes(count.try_into().expect("4 count bytes"));
        let mut off = COUNT_BYTES;
        let mut last_key = None;
        for _ in 0..count {
            let (key, len) = record_head(image.get(off..off + RECORD_HEAD).ok_or_else(corrupt)?);
            if last_key.is_some_and(|last| last >= key) {
                return Err(corrupt());
            }
            last_key = Some(key);
            let end = (off + RECORD_HEAD).checked_add(len).filter(|&end| end <= image.len());
            off = end.ok_or_else(corrupt)?;
        }
        if off != image.len() {
            return Err(corrupt());
        }
        Ok(Page { image })
    }

    /// The page image.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Encode to a page image (a copy; [`Page::image`] borrows it).
    pub fn encode(&self) -> Vec<u8> {
        self.image.to_vec()
    }

    fn records(&self) -> Records<'_> {
        Records { image: &self.image, off: COUNT_BYTES }
    }

    /// The extent of `key`'s record, or the offset at which it would go.
    fn locate(&self, key: u64) -> Result<Range<usize>, usize> {
        match self.records().find(|&(_, k, _)| k >= key) {
            Some((off, k, value)) if k == key => Ok(off..off + RECORD_HEAD + value.len()),
            Some((off, ..)) => Err(off),
            None => Err(self.image.len()),
        }
    }

    /// Read a record.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.locate(key).ok().map(|extent| &self.image[extent.start + RECORD_HEAD..extent.end])
    }

    /// Insert or replace a record (`None` removes it). In place when this
    /// is the only holder of the image; otherwise the image is copied once,
    /// with the change, and the other holders keep the old one.
    pub fn write(&mut self, key: u64, value: Option<&[u8]>) {
        let (at, existed) = match self.locate(key) {
            Ok(extent) => (extent, true),
            Err(off) => (off..off, false),
        };
        if !existed && value.is_none() {
            return;
        }
        let count = (self.len() + usize::from(value.is_some()) - usize::from(existed)) as u32;
        let mut head = [0u8; RECORD_HEAD];
        let (head, value): (&[u8], &[u8]) = match value {
            Some(v) => {
                head[..8].copy_from_slice(&key.to_be_bytes());
                head[8..].copy_from_slice(&(v.len() as u32).to_be_bytes());
                (&head, v)
            }
            None => (&[], &[]),
        };
        match Arc::get_mut(&mut self.image) {
            Some(image) => {
                image.splice(at, head.iter().chain(value).copied());
                image[..COUNT_BYTES].copy_from_slice(&count.to_be_bytes());
            }
            None => {
                let mut image = Vec::with_capacity(self.image.len() - at.len() + head.len() + value.len());
                image.extend_from_slice(&count.to_be_bytes());
                image.extend_from_slice(&self.image[COUNT_BYTES..at.start]);
                image.extend_from_slice(head);
                image.extend_from_slice(value);
                image.extend_from_slice(&self.image[at.end..]);
                self.image = Arc::new(image);
            }
        }
    }

    /// Insert or replace a record, returning the previous value.
    pub fn set(&mut self, key: u64, value: &[u8]) -> Option<Vec<u8>> {
        let old = self.get(key).map(<[u8]>::to_vec);
        self.write(key, Some(value));
        old
    }

    /// Remove a record, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<Vec<u8>> {
        let old = self.get(key).map(<[u8]>::to_vec);
        self.write(key, None);
        old
    }

    /// Number of records on the page.
    pub fn len(&self) -> usize {
        u32::from_be_bytes(self.image[..COUNT_BYTES].try_into().expect("4 count bytes")) as usize
    }

    /// True when the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate records in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.records().map(|(_, key, value)| (key, value))
    }
}

/// The shared page store: a database id plus a DASD volume.
#[derive(Debug)]
pub struct PageStore {
    vol: VolumeHandle,
    db_id: u32,
    pages: u64,
}

impl PageStore {
    /// Create the store over an existing farm volume.
    pub fn new(farm: &DasdFarm, volume: &str, db_id: u32, pages: u64) -> DbResult<Arc<Self>> {
        Ok(Arc::new(PageStore { vol: farm.open(volume)?, db_id, pages }))
    }

    /// The database id (used in block names).
    pub fn db_id(&self) -> u32 {
        self.db_id
    }

    /// The page a key lives on.
    pub fn page_of(&self, key: u64) -> u64 {
        key % self.pages
    }

    /// Cache-structure block name of a page.
    pub fn block_name(&self, page: u64) -> BlockName {
        BlockName::from_parts(self.db_id, page)
    }

    /// Recover the page number from a block name (castout addressing).
    pub fn page_of_block(&self, name: &BlockName) -> Option<u64> {
        let b = name.as_bytes();
        let db = u32::from_be_bytes(b[0..4].try_into().unwrap());
        if db != self.db_id {
            return None;
        }
        Some(u64::from_be_bytes(b[4..12].try_into().unwrap()))
    }

    /// Read a page from DASD as `system`.
    pub fn read_page(&self, system: u8, page: u64) -> DbResult<Page> {
        Page::from_image(Arc::new(self.vol.read(system, page)?), page)
    }

    /// Write a page image to DASD as `system` (castout destination).
    pub fn write_image(&self, system: u8, page: u64, image: &[u8]) -> DbResult<()> {
        Ok(self.vol.write(system, page, image)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_dasd::volume::IoModel;

    fn store() -> Arc<PageStore> {
        let farm = DasdFarm::new(IoModel::instant());
        farm.add_volume("DB0001", 64, 4).unwrap();
        PageStore::new(&farm, "DB0001", 1, 64).unwrap()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn page_encode_decode_roundtrip() {
        let mut p = Page::new();
        p.set(10, b"ten");
        p.set(2, b"two");
        p.set(7, &[]);
        let decoded = Page::decode(&p.encode(), 0).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(decoded.get(2).unwrap(), b"two");
        assert_eq!(decoded.get(7).unwrap(), b"");
        assert_eq!(decoded.get(11), None);
        assert_eq!(decoded.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![2, 7, 10]);
    }

    /// The image format is shared storage (DASD blocks, CF entries): these
    /// are the bytes the decoded-`Vec` representation wrote for the same
    /// five records, captured before it was replaced.
    #[test]
    fn image_bytes_are_pinned() {
        let mut p = Page::new();
        p.set(40, b"forty");
        p.set(3, b"");
        p.set(u64::MAX, &[0xff; 3]);
        p.set(7, b"seven");
        p.set(0x0102_0304_0506_0708, &7i64.to_be_bytes());
        assert_eq!(
            hex(&p.encode()),
            "00000005\
             0000000000000003\
             00000000\
             0000000000000007\
             00000005736576656e\
             0000000000000028\
             00000005666f727479\
             0102030405060708\
             000000080000000000000007\
             ffffffffffffffff\
             00000003ffffff"
        );
        assert_eq!(p.image(), p.encode());
    }

    #[test]
    fn page_set_replaces_and_returns_old() {
        let mut p = Page::new();
        assert_eq!(p.set(1, b"a"), None);
        assert_eq!(p.set(1, b"b").unwrap(), b"a");
        assert_eq!(p.get(1).unwrap(), b"b");
        assert_eq!(p.remove(1).unwrap(), b"b");
        assert!(p.is_empty());
        assert_eq!(p.remove(1), None);
        assert_eq!(p, Page::new(), "emptied by removal is the empty page");
    }

    #[test]
    fn a_shared_image_is_copied_by_the_first_update_only() {
        let mut p = Page::new();
        p.set(1, b"one");
        p.set(9, b"nine");
        let snapshot = p.clone();
        assert!(std::ptr::eq(p.image(), snapshot.image()), "a clone shares the bytes");
        p.write(5, Some(b"five"));
        p.write(1, Some(b"uno"));
        p.write(9, None);
        assert_eq!(snapshot.iter().collect::<Vec<_>>(), vec![(1, &b"one"[..]), (9, &b"nine"[..])]);
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![(1, &b"uno"[..]), (5, &b"five"[..])]);
        // Sole holder again: further updates keep the buffer.
        let before = p.image().as_ptr();
        p.write(1, Some(b"one"));
        assert_eq!(p.image().as_ptr(), before);
        p.write(77, None);
        assert_eq!(p.len(), 2, "removing an absent key changes nothing");
    }

    #[test]
    fn corrupt_pages_detected() {
        let corrupt = |image: &[u8], page_no| {
            assert!(matches!(Page::decode(image, page_no), Err(DbError::PageCorrupt(p)) if p == page_no));
        };
        corrupt(&[1, 2], 9);
        // Count says 1 record but no record bytes follow.
        corrupt(&1u32.to_be_bytes(), 3);
        let record = |key: u64, value: &[u8]| {
            let mut r = key.to_be_bytes().to_vec();
            r.extend_from_slice(&(value.len() as u32).to_be_bytes());
            r.extend_from_slice(value);
            r
        };
        let image = |count: u32, records: &[Vec<u8>]| [&count.to_be_bytes()[..], &records.concat()].concat();
        assert_eq!(Page::decode(&image(2, &[record(4, b"a"), record(5, b"b")]), 0).unwrap().len(), 2);
        // `get` stops at the first larger key: order is part of validity.
        corrupt(&image(2, &[record(5, b"b"), record(4, b"a")]), 1);
        corrupt(&image(2, &[record(4, b"a"), record(4, b"b")]), 2);
        // A count that overruns its bytes, a length that does, and bytes
        // no record accounts for (no writer produces them).
        corrupt(&image(3, &[record(4, b"a"), record(5, b"b")]), 4);
        corrupt(&image(u32::MAX, &[record(4, b"a")]), 5);
        let mut cut = image(1, &[record(4, b"abcd")]);
        cut.pop();
        corrupt(&cut, 6);
        corrupt(&image(1, &[record(4, b"a"), record(5, b"b")]), 7);
        corrupt(&[&image(1, &[record(4, b"a")])[..], &[0]].concat(), 8);
        // An empty image is an empty page, and encodes as the zero count.
        let empty = Page::decode(&[], 0).unwrap();
        assert_eq!(empty, Page::new());
        assert_eq!(empty.encode(), [0, 0, 0, 0]);
        assert_eq!(Page::decode(&[0, 0, 0, 0], 0).unwrap(), empty);
    }

    #[test]
    fn store_roundtrip_and_key_mapping() {
        let s = store();
        assert_eq!(s.page_of(65), 1);
        let mut p = Page::new();
        p.set(65, b"row-65");
        s.write_image(0, 1, p.image()).unwrap();
        let back = s.read_page(3, 1).unwrap();
        assert_eq!(back.get(65).unwrap(), b"row-65", "visible from any system");
        assert_eq!(s.read_page(0, 2).unwrap(), Page::new(), "untouched page is empty");
    }

    #[test]
    fn block_names_roundtrip() {
        let s = store();
        let name = s.block_name(42);
        assert_eq!(s.page_of_block(&name), Some(42));
        let other = BlockName::from_parts(99, 42);
        assert_eq!(s.page_of_block(&other), None, "foreign database ids rejected");
    }

    #[test]
    fn a_missing_volume_is_refused_at_construction() {
        let farm = DasdFarm::new(IoModel::instant());
        assert!(matches!(PageStore::new(&farm, "NOPE", 1, 8), Err(DbError::Io(_))));
    }
}
