//! The buffer pool's coherency protocol as a sans-I/O core: one member's
//! frames and the transitions that move them, with no connection, page
//! store, latch or condvar of its own (DESIGN.md §14). A transition is one
//! method call under the shell's latch, and a frame's validity bit is an
//! input the shell reads under the same latch acquisition. [`Pool::lookup`]
//! answers a hit ([`Pool::hit`], the part a read inlines) or asks for a
//! fill, which the shell performs and ends with [`Pool::installed`] (a
//! refill, under the version guard) or [`Pool::landed`]; [`Pool::written`]
//! takes a write set's images through the same guard, [`Pool::refused`]
//! retires a frame older than a refused write found, and [`Pool::clear`]
//! forgets everything. The state is
//! public so that one thread can drive two pools through every
//! interleaving (`crates/db/tests/bufmgr_interleavings.rs`).

use crate::pagestore::Page;
use sysplex_core::cache::BlockName;
use sysplex_core::hashing::PrehashedMap;

/// One frame of the pool: frame *i* is bit *i* of the member's vector.
#[derive(Debug, Default, Clone)]
pub struct Frame {
    pub name: Option<BlockName>,
    /// The image the frame serves; `None` (not *ready*) from a steal, or
    /// from finding the bit clear, until an install. The bit alone cannot
    /// tell "set for these bytes" from "set for bytes not here yet".
    pub page: Option<Page>,
    /// CF directory version of `page`: an install never replaces a newer
    /// one. A name's versions only rise, across reclaims too.
    pub version: u64,
    /// A fill is in flight: its registration may land at any moment and
    /// set the bit, and a steal's drop of the evicted tenant is guarded
    /// only by the index. Until it lands the frame is neither stolen nor
    /// filled again.
    pub filling: bool,
}

/// What a lookup asks the shell to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Serve this page: no CF access.
    Hit(Page),
    /// Register the name at frame `idx` — dropping `evicted`'s
    /// registration in the same command — refill it, and end the fill
    /// with [`Pool::landed`].
    Fill(Fill),
    /// Another fill holds the frame this lookup needs: look again once a
    /// fill has landed.
    Wait,
}

/// A fill the shell performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fill {
    pub idx: usize,
    /// The tenant a steal evicted.
    pub evicted: Option<BlockName>,
}

/// One member's pool.
#[derive(Debug, Default)]
pub struct Pool {
    pub frames: Vec<Frame>,
    /// Frame of each pooled block, keyed by the name's one FNV pass: the
    /// names are this program's own.
    pub map: PrehashedMap<BlockName, usize>,
    /// Where the next steal starts looking.
    pub rotor: usize,
    /// Lookups answered [`Lookup::Wait`] since a fill last landed.
    pub waiting: usize,
    /// Known-bad switch: a steal may take a frame whose fill is in flight.
    #[cfg(feature = "test-hooks")]
    pub steal_filling: bool,
    /// Known-bad switch: an install ignores the version guard.
    #[cfg(feature = "test-hooks")]
    pub ignore_version: bool,
    /// Known-bad switch: a lookup may start a second fill of a frame whose
    /// fill is in flight.
    #[cfg(feature = "test-hooks")]
    pub second_fill: bool,
}

impl Pool {
    /// A pool of `frames` empty frames.
    pub fn new(frames: usize) -> Self {
        Pool { frames: vec![Frame::default(); frames], ..Pool::default() }
    }

    /// The page `name`'s frame serves when it is ready, no fill holds it
    /// and its bit is set; `valid` reads the bit, at most once. A ready
    /// frame found with its bit clear stops being ready. `None`: ask
    /// [`Pool::lookup`].
    #[inline]
    pub fn hit(&mut self, name: &BlockName, valid: impl FnOnce(usize) -> bool) -> Option<Page> {
        let &idx = self.map.get(name)?;
        let f = &mut self.frames[idx];
        if f.filling {
            return None;
        }
        let page = f.page.as_ref()?;
        if valid(idx) {
            return Some(page.clone());
        }
        f.page = None;
        None
    }

    /// A [`Pool::hit`], or what to do instead: wait while the frame is
    /// another's fill, or fill it — stolen when `name` has none. A steal
    /// leaves the bit as it was: the shell clears it under the same latch.
    pub fn lookup(&mut self, name: &BlockName, valid: impl FnOnce(usize) -> bool) -> Lookup {
        #[cfg(feature = "test-hooks")]
        let (second_fill, steal_filling) = (self.second_fill, self.steal_filling);
        #[cfg(not(feature = "test-hooks"))]
        let (second_fill, steal_filling) = (false, false);
        if let Some(page) = self.hit(name, valid) {
            return Lookup::Hit(page);
        }
        if let Some(&idx) = self.map.get(name) {
            let f = &mut self.frames[idx];
            if f.filling && !second_fill {
                self.waiting += 1;
                return Lookup::Wait;
            }
            f.filling = true;
            return Lookup::Fill(Fill { idx, evicted: None });
        }
        let n = self.frames.len();
        let Some(idx) =
            (0..n).map(|k| (self.rotor + k) % n).find(|&i| steal_filling || !self.frames[i].filling)
        else {
            self.waiting += 1;
            return Lookup::Wait;
        };
        self.rotor = idx + 1;
        let f = &mut self.frames[idx];
        let evicted = f.name.replace(*name);
        (f.page, f.version, f.filling) = (None, 0, true);
        if let Some(old) = evicted {
            self.map.remove(&old);
        }
        self.map.insert(*name, idx);
        Lookup::Fill(Fill { idx, evicted })
    }

    /// Frame `idx` takes `page`, an image at directory `version`, if its
    /// bit is set and it holds nothing newer. The page the frame serves,
    /// carrying its version, or `None`: look again. A fill holds its frame,
    /// so the frame is still the fill's block.
    pub fn installed(&mut self, idx: usize, version: u64, page: Page, valid: bool) -> Option<Page> {
        if !valid {
            return None;
        }
        let f = &mut self.frames[idx];
        let newer = version >= f.version;
        #[cfg(feature = "test-hooks")]
        let newer = newer || self.ignore_version;
        if newer {
            (f.page, f.version) = (Some(page.at(version)), version);
        }
        f.page.clone()
    }

    /// A write set wrote `page` as `name` at `version`: `name`'s frame, if
    /// any, takes it as [`Pool::installed`] would, never going back to an
    /// older version.
    pub fn written(&mut self, name: BlockName, version: u64, page: &Page, valid: impl FnOnce(usize) -> bool) {
        if let Some(&idx) = self.map.get(&name) {
            self.installed(idx, version, page.clone(), valid(idx));
        }
    }

    /// A write of `name` was refused: the CF holds it at `found`. A frame
    /// older than that stops being ready — with its bit still set it is
    /// this member's, whose other writer has not installed its set yet —
    /// so the writer's next read refreshes instead of reading it again.
    pub fn refused(&mut self, name: &BlockName, found: u64) {
        if let Some(&idx) = self.map.get(name) {
            let f = &mut self.frames[idx];
            if f.version < found {
                f.page = None;
            }
        }
    }

    /// Frame `idx`'s fill is over, done or failed. Whether lookups wait for
    /// that: the shell wakes them.
    pub fn landed(&mut self, idx: usize) -> bool {
        self.frames[idx].filling = false;
        std::mem::take(&mut self.waiting) > 0
    }

    /// Forget every frame: the member's registrations are gone.
    pub fn clear(&mut self) {
        self.map.clear();
        self.frames.fill(Frame::default());
    }
}
