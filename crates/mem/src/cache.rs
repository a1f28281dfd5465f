//! Set-associative, true-LRU, write-back/write-allocate cache model.

use mapg_units::Cycles;

use core::fmt;

/// Static configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set: 1, 2, 4, 8 or 16.
    pub associativity: u32,
    /// Line size in bytes, a power of two (must match the rest of the
    /// hierarchy).
    pub line_bytes: u64,
    /// Latency of a hit in this level.
    pub hit_latency: Cycles,
}

impl CacheConfig {
    /// A 32 KiB, 8-way, 4-cycle L1 data cache.
    pub fn l1d() -> Self {
        CacheConfig {
            size_bytes: 32 << 10,
            associativity: 8,
            line_bytes: 64,
            hit_latency: Cycles::new(4),
        }
    }

    /// A 2 MiB, 16-way, 30-cycle unified L2 (the last-level cache in this
    /// workspace's default hierarchy).
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 2 << 20,
            associativity: 16,
            line_bytes: 64,
            hit_latency: Cycles::new(30),
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `associativity`-way sets of `line_bytes` lines, or any field zero)
    /// or unsupported: the line size and the set count must be powers of
    /// two, and the associativity one of 1, 2, 4, 8 or 16.
    pub fn sets(&self) -> u64 {
        assert!(
            self.size_bytes > 0 && self.associativity > 0 && self.line_bytes > 0,
            "cache geometry fields must be non-zero"
        );
        let way_bytes = u64::from(self.associativity) * self.line_bytes;
        assert!(
            self.size_bytes.is_multiple_of(way_bytes),
            "capacity {} not divisible by way size {}",
            self.size_bytes,
            way_bytes
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size {} is not a power of two",
            self.line_bytes
        );
        assert!(
            matches!(self.associativity, 1 | 2 | 4 | 8 | 16),
            "associativity {} is not one of the supported 1, 2, 4, 8 or 16 ways",
            self.associativity
        );
        let sets = self.size_bytes / way_bytes;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} is not a power of two"
        );
        sets
    }
}

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit {
        /// The line had been brought in by a prefetch and this is the
        /// first demand touch (used for prefetch-accuracy accounting).
        prefetched: bool,
    },
    /// The line was absent; it has been allocated. If the victim was dirty
    /// its line address is reported so the caller can schedule a writeback.
    Miss {
        /// Dirty victim line address (not byte address) evicted by the fill,
        /// if any.
        writeback: Option<u64>,
    },
}

impl CacheOutcome {
    /// Whether the access hit.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit { .. })
    }
}

/// Running hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Dirty evictions produced.
    pub writebacks: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} acc, {:.1}% hit, {} wb",
            self.accesses,
            self.hit_rate() * 100.0,
            self.writebacks
        )
    }
}

/// Runs `$body` with the const `$w` bound to `$assoc`, one of the widths
/// [`CacheConfig::sets`] admits: the cache's one dispatch from its runtime
/// associativity to the const-generic bodies.
macro_rules! with_ways {
    ($assoc:expr, $w:ident => $body:expr) => {
        match $assoc {
            8 => {
                const $w: usize = 8;
                $body
            }
            16 => {
                const $w: usize = 16;
                $body
            }
            4 => {
                const $w: usize = 4;
                $body
            }
            2 => {
                const $w: usize = 2;
                $body
            }
            1 => {
                const $w: usize = 1;
                $body
            }
            ways => unreachable!("{ways}-way cache passed CacheConfig::sets"),
        }
    };
}

/// One cache level.
///
/// ```
/// use mapg_mem::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1d());
/// assert!(!l1.access(0x1000, false).is_hit()); // cold miss
/// assert!(l1.access(0x1000, false).is_hit());  // now resident
/// assert!(l1.access(0x1008, false).is_hit());  // same line
/// ```
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Low 32 bits of each way's tag, `assoc` consecutive words per set.
    ///
    /// The tag scan is the hottest loop in the simulator and a set probe
    /// lands on an effectively random set, so state is split into
    /// *planes* — tag halves and packed flag words — sized for what each
    /// access touches: a hit scan reads one set's low tags plus its four
    /// flag words, and a miss reads nothing more (the LRU victim is a
    /// nibble of the recency word).
    ///
    /// Splitting tags into 32-bit low/high half-planes makes the scan
    /// itself touch half the bytes: a 16-way set's low halves are one
    /// 64 B host line instead of two. A low-half match is only a
    /// *candidate* hit; [`Cache::hi_nonzero`] resolves it without reading
    /// the high plane in the overwhelmingly common case where no stored
    /// tag (and no probed tag) has upper bits — a 2 MiB L2 would need
    /// byte addresses at 2^49 before any high half went non-zero.
    tags_lo: Vec<u32>,
    /// High 32 bits of each way's tag (same layout as `tags_lo`). Read and
    /// written only when a tag with upper bits is actually involved; see
    /// [`Cache::hi_nonzero`].
    ///
    /// Empty until the first non-zero high half is stored (all high halves
    /// are zero until then): realistic address maps never get there, so
    /// most caches never pay for the plane (128 KiB of zeros for the
    /// 2 MiB L2).
    tags_hi: Vec<u32>,
    /// Packed per-set metadata, four words per set: `[valid, dirty,
    /// prefetched, recency]`. The flag words hold one bit per way;
    /// `recency` is the nibble-packed way permutation of [`LRU_INIT`],
    /// ordered most- to least-recently used and maintained move-to-front,
    /// so the LRU victim is its nibble `W - 1`.
    masks: Vec<u64>,
    /// Word offset that 64-byte-aligns each plane's first set. A `Vec`'s
    /// buffer is only guaranteed element alignment (large allocations tend
    /// to land 16 bytes past a page), so without this a set's tag group
    /// straddles two host cache lines on almost every set — doubling the
    /// memory traffic of the random-set probes that dominate the hot
    /// path. Planes over-allocate up to one line of slack words and index
    /// from the first 64-byte boundary instead.
    lo_off: usize,
    /// See [`Cache::lo_off`]; offset for the `tags_hi` plane (zero while
    /// the plane is unallocated).
    hi_off: usize,
    /// See [`Cache::lo_off`]; offset for the `masks` plane.
    masks_off: usize,
    /// Number of resident ways whose tag has non-zero upper 32 bits.
    ///
    /// While zero (every realistic address map), a low-half tag match *is*
    /// a full match whenever the probed tag's upper bits are also zero,
    /// and cannot match at all otherwise — so neither hits nor fills touch
    /// the `tags_hi` plane, halving the tag bytes a probe moves. The
    /// count is maintained exactly on every fill (invalid ways always
    /// hold a zero high half), so arbitrary 64-bit addresses stay
    /// bit-exact through the slow path that verifies candidates against
    /// the high plane.
    hi_nonzero: u64,
    /// Number of sets (cached from the geometry).
    set_count: u64,
    /// Ways per set (cached from `config.associativity`).
    assoc: usize,
    /// `line_bytes.trailing_zeros()`: `addr >> line_shift` is the line.
    line_shift: u32,
    /// `set_count - 1` / `set_count.trailing_zeros()`: the set index and
    /// the tag of a line by mask and shift.
    set_mask: u64,
    set_shift: u32,
    stats: CacheStats,
    /// One-entry MRU filter: the line the last demand access touched
    /// (`u64::MAX` when nothing is cached). Sequential runs stride one
    /// word, so up to seven consecutive references land on the same line;
    /// matching here skips the set probe entirely while making the exact
    /// same state updates (dirty bit, counters) the full path would. The
    /// filter never outlives its line: a demand fill retargets it and a
    /// prefetch fill invalidates it, so it cannot go stale through an
    /// eviction.
    mru_line: u64,
    /// Mask-plane index of the MRU set's dirty word.
    mru_dirty_idx: usize,
    /// The MRU way's bit within its flag words.
    mru_bit: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent or unsupported (see
    /// [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let set_count = config.sets();
        let assoc = config.associativity as usize;
        let tags_lo = vec![0u32; set_count as usize * assoc + PLANE_SLACK_U32];
        let lo_off = plane_offset_u32(&tags_lo);
        let masks = vec![0; set_count as usize * 4 + PLANE_SLACK];
        let masks_off = plane_offset(&masks);
        let mut cache = Cache {
            config,
            tags_lo,
            tags_hi: Vec::new(),
            masks,
            lo_off,
            hi_off: 0,
            masks_off,
            hi_nonzero: 0,
            set_count,
            assoc,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: set_count - 1,
            set_shift: set_count.trailing_zeros(),
            stats: CacheStats::default(),
            mru_line: u64::MAX,
            mru_dirty_idx: 0,
            mru_bit: 0,
        };
        cache.init_recency();
        cache
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The line address (not byte address) containing `addr`.
    #[inline]
    pub(crate) fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Splits a line address into `(set_index, tag)`.
    #[inline]
    fn split(&self, line: u64) -> (usize, u64) {
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }

    /// Accesses byte address `addr`; on a miss the line is allocated
    /// (write-allocate for stores, fill for loads) and the LRU victim
    /// evicted.
    ///
    /// The body is const-generic over the associativity, so the tag scan
    /// and the recency update fully unroll with no bounds checks.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.stats.accesses += 1;
        let line = self.line_of(addr);
        if line == self.mru_line {
            // Same line as the previous demand access: a guaranteed hit on
            // a known way, already at the recency front, whose prefetched
            // bit the access that set the filter cleared. Only the dirty
            // bit and the counters can change.
            self.stats.hits += 1;
            if is_write {
                self.masks[self.mru_dirty_idx] |= self.mru_bit;
            }
            return CacheOutcome::Hit { prefetched: false };
        }
        let (set_index, tag) = self.split(line);
        with_ways!(self.assoc, W => self.access_ways::<W>(line, set_index, tag, is_write))
    }

    /// [`Cache::access`] body for an associativity known at compile time.
    #[inline(always)]
    fn access_ways<const W: usize>(
        &mut self,
        line: u64,
        set_index: usize,
        tag: u64,
        is_write: bool,
    ) -> CacheOutcome {
        let mbase = self.masks_off + set_index * 4;
        let (way, outcome) = match self.find_way::<W>(set_index, tag) {
            Some(way) => {
                self.masks[mbase + 3] = lru_promote(self.masks[mbase + 3], way as u64);
                let bit = 1u64 << way;
                if is_write {
                    self.masks[mbase + 1] |= bit;
                }
                let prefetched = self.masks[mbase + 2] & bit != 0;
                if prefetched {
                    self.masks[mbase + 2] &= !bit;
                }
                self.stats.hits += 1;
                (way, CacheOutcome::Hit { prefetched })
            }
            None => {
                let (way, writeback) = self.fill_ways::<W>(set_index, tag, is_write, false);
                (way, CacheOutcome::Miss { writeback })
            }
        };
        self.mru_line = line;
        self.mru_dirty_idx = mbase + 1;
        self.mru_bit = 1u64 << way;
        outcome
    }

    /// The way of `set_index`'s set that holds `tag`, if any.
    ///
    /// The scan is a branchless fixed-trip match mask over the low tag
    /// halves. An early-exit compare loop mispredicts on every probe (the
    /// hit way position is effectively random); accumulating equality bits
    /// lets the compiler vectorize the compares and leaves one
    /// candidate/no-candidate branch. At most one valid way holds a given
    /// full tag, so a candidate resolves to at most one hit;
    /// `hi_nonzero == 0` (the steady state for realistic address maps)
    /// resolves it without touching the high plane at all.
    #[inline(always)]
    fn find_way<const W: usize>(&self, set_index: usize, tag: u64) -> Option<usize> {
        let base = self.lo_off + set_index * W;
        let tags_lo: &[u32; W] = self.tags_lo[base..base + W]
            .try_into()
            .expect("tag plane holds W words per set");
        let candidates =
            match_mask_ways::<W>(tags_lo, tag as u32) & self.masks[self.masks_off + set_index * 4];
        let hi_tag = (tag >> 32) as u32;
        if candidates == 0 {
            None
        } else if self.hi_nonzero == 0 {
            // Every resident high half is zero: a low match is a full
            // match iff the probed tag's high half is zero too.
            (hi_tag == 0).then(|| candidates.trailing_zeros() as usize)
        } else {
            // Rare: some resident tag has upper bits (so the high plane
            // is allocated), and each candidate must be verified against
            // it.
            let hbase = self.hi_off + set_index * W;
            let mut rest = candidates;
            while rest != 0 {
                let way = rest.trailing_zeros() as usize;
                if self.tags_hi[hbase + way] == hi_tag {
                    return Some(way);
                }
                rest &= rest - 1;
            }
            None
        }
    }

    /// Installs `tag` in `set_index`'s set over its lowest invalid way, or
    /// else its LRU way, and makes it the most recent. Returns the way and
    /// the dirty victim's line address, if the fill evicted one.
    #[inline(always)]
    fn fill_ways<const W: usize>(
        &mut self,
        set_index: usize,
        tag: u64,
        dirty: bool,
        prefetched: bool,
    ) -> (usize, Option<u64>) {
        let mbase = self.masks_off + set_index * 4;
        let way0 = set_index * W;
        let valid = self.masks[mbase];
        // Bits past the associativity are forced "valid" so they are never
        // picked; `trailing_zeros` then yields the lowest invalid way.
        let live = valid | !((1u64 << W) - 1);
        let victim = if live != u64::MAX {
            (!live).trailing_zeros() as usize
        } else {
            lru_victim::<W>(self.masks[mbase + 3])
        };
        let bit = 1u64 << victim;
        // The victim's high half is zero by construction while
        // `hi_nonzero` is zero (invalid ways always hold zero), so the
        // steady state never loads the high plane here either.
        let old_hi = if self.hi_nonzero == 0 {
            0
        } else {
            self.tags_hi[self.hi_off + way0 + victim]
        };
        let lo = self.lo_off + way0 + victim;
        let writeback = if valid & self.masks[mbase + 1] & bit != 0 {
            // Reconstruct the victim's line address from its tag.
            let victim_tag = (u64::from(old_hi) << 32) | u64::from(self.tags_lo[lo]);
            self.stats.writebacks += 1;
            Some(victim_tag * self.set_count + set_index as u64)
        } else {
            None
        };
        self.tags_lo[lo] = tag as u32;
        self.set_tag_hi(way0 + victim, old_hi, (tag >> 32) as u32);
        self.masks[mbase + 3] = lru_promote(self.masks[mbase + 3], victim as u64);
        self.masks[mbase] = valid | bit;
        if dirty {
            self.masks[mbase + 1] |= bit;
        } else {
            self.masks[mbase + 1] &= !bit;
        }
        if prefetched {
            self.masks[mbase + 2] |= bit;
        } else {
            self.masks[mbase + 2] &= !bit;
        }
        (victim, writeback)
    }

    /// Installs `addr`'s line as a *prefetch* fill: does not count toward
    /// demand hit/miss statistics, marks the line so the first demand
    /// touch can be attributed to the prefetcher, and returns a dirty
    /// victim's line address when the fill evicts one.
    ///
    /// Filling an already-resident line is a no-op (returns `None`).
    pub fn fill_prefetch(&mut self, addr: u64) -> Option<u64> {
        let (set_index, tag) = self.split(self.line_of(addr));
        with_ways!(self.assoc, W => {
            if self.find_way::<W>(set_index, tag).is_some() {
                return None;
            }
            let (_, writeback) = self.fill_ways::<W>(set_index, tag, false, true);
            // The fill may have evicted the filter's line, and the freshly
            // prefetched line must report `prefetched: true` on its first
            // demand touch — either way the filter must not answer for it.
            self.mru_line = u64::MAX;
            writeback
        })
    }

    /// Hints the host CPU to start pulling `addr`'s set metadata (low tags
    /// and flag words) toward its caches ahead of an imminent
    /// [`Cache::access`]. Purely a scheduling hint — no simulated state
    /// changes and no effect on any outcome.
    ///
    /// The planes of a large cache level (a 2 MiB L2 keeps 128 KiB of low
    /// tags) do not fit in the host's fastest caches, and a probe lands on
    /// an effectively random set, so the demand load stalls for the full
    /// host memory latency. The hierarchy issues this hint for the L2 set
    /// on entry, overlapping that fetch with the L1 probe that precedes
    /// the L2 access.
    /// The crate forbids `unsafe`, so instead of a prefetch intrinsic this
    /// issues plain loads of one word per plane line and launders the
    /// result through [`core::hint::black_box`] so they are not optimized
    /// away. Nothing downstream depends on the values, so an out-of-order
    /// host retires past them while the lines travel — the same overlap a
    /// `prefetcht0` would buy.
    #[inline]
    pub fn prefetch_probe(&self, addr: u64) {
        let (set_index, _) = self.split(self.line_of(addr));
        // One low-tag word and one flag word cover the whole scan: the low
        // halves of up to 16 ways are a single 64 B line.
        let touch = u64::from(self.tags_lo[self.lo_off + set_index * self.assoc])
            ^ self.masks[self.masks_off + set_index * 4];
        core::hint::black_box(touch);
    }

    /// Whether `addr`'s line is currently resident (no LRU update, no
    /// stats). Used by tests and by the hierarchy's inclusive-fill checks.
    pub fn probe(&self, addr: u64) -> bool {
        let (set_index, tag) = self.split(self.line_of(addr));
        with_ways!(self.assoc, W => self.find_way::<W>(set_index, tag).is_some())
    }

    /// Replaces way `i`'s high tag half `old` with `new`, keeping
    /// [`Cache::hi_nonzero`] exact. The first non-zero half allocates the
    /// plane.
    #[inline]
    fn set_tag_hi(&mut self, i: usize, old: u32, new: u32) {
        if new == old {
            return;
        }
        if self.tags_hi.is_empty() {
            self.allocate_tags_hi();
        }
        self.tags_hi[self.hi_off + i] = new;
        self.hi_nonzero -= u64::from(old != 0);
        self.hi_nonzero += u64::from(new != 0);
    }

    #[cold]
    #[inline(never)]
    fn allocate_tags_hi(&mut self) {
        self.tags_hi = vec![0u32; self.set_count as usize * self.assoc + PLANE_SLACK_U32];
        self.hi_off = plane_offset_u32(&self.tags_hi);
    }

    /// Whether the high tag plane has been allocated.
    #[cfg(test)]
    pub(crate) fn has_tags_hi(&self) -> bool {
        !self.tags_hi.is_empty()
    }

    /// Sets every set's recency word to [`LRU_INIT`].
    fn init_recency(&mut self) {
        let n_masks = self.set_count as usize * 4;
        for set in self.masks[self.masks_off..self.masks_off + n_masks].chunks_exact_mut(4) {
            set[3] = LRU_INIT;
        }
    }

    /// Invalidates all lines and forgets statistics; used between
    /// measurement phases.
    pub fn reset(&mut self) {
        self.tags_lo.fill(0);
        self.tags_hi = Vec::new();
        self.hi_off = 0;
        self.hi_nonzero = 0;
        self.masks.fill(0);
        self.init_recency();
        self.stats = CacheStats::default();
        self.mru_line = u64::MAX;
    }
}

impl Clone for Cache {
    /// Plane-aware clone: the fresh allocations land at their own
    /// addresses, so each plane's data is re-based onto the clone's own
    /// 64-byte offset (a derived clone would copy the *indices* while the
    /// alignment they encode changed underneath). The MRU filter is
    /// dropped rather than re-based — its absolute indices belong to the
    /// source's offsets, and starting cold changes no outcome (the full
    /// probe path makes the identical updates on the next touch).
    fn clone(&self) -> Self {
        let n_ways = self.set_count as usize * self.assoc;
        let mut tags_lo = vec![0u32; n_ways + PLANE_SLACK_U32];
        let lo_off = plane_offset_u32(&tags_lo);
        tags_lo[lo_off..lo_off + n_ways]
            .copy_from_slice(&self.tags_lo[self.lo_off..self.lo_off + n_ways]);
        let mut tags_hi = Vec::new();
        let mut hi_off = 0;
        if !self.tags_hi.is_empty() {
            tags_hi = vec![0u32; n_ways + PLANE_SLACK_U32];
            hi_off = plane_offset_u32(&tags_hi);
            tags_hi[hi_off..hi_off + n_ways]
                .copy_from_slice(&self.tags_hi[self.hi_off..self.hi_off + n_ways]);
        }
        let n_masks = self.set_count as usize * 4;
        let mut masks = vec![0; n_masks + PLANE_SLACK];
        let masks_off = plane_offset(&masks);
        masks[masks_off..masks_off + n_masks]
            .copy_from_slice(&self.masks[self.masks_off..self.masks_off + n_masks]);
        Cache {
            config: self.config,
            tags_lo,
            tags_hi,
            masks,
            lo_off,
            hi_off,
            masks_off,
            hi_nonzero: self.hi_nonzero,
            set_count: self.set_count,
            assoc: self.assoc,
            line_shift: self.line_shift,
            set_mask: self.set_mask,
            set_shift: self.set_shift,
            stats: self.stats,
            mru_line: u64::MAX,
            mru_dirty_idx: 0,
            mru_bit: 0,
        }
    }
}

/// Slack words appended to the `u64` mask plane so indexing can start at
/// the first 64-byte boundary inside the allocation (see [`plane_offset`]).
const PLANE_SLACK: usize = 7;

/// [`PLANE_SLACK`] for the `u32` tag half-planes.
const PLANE_SLACK_U32: usize = 15;

/// Word offset of the first 64-byte boundary in `plane`'s buffer
/// (`0..=7`); the plane's sets are indexed from there so a set's words
/// never straddle host cache lines gratuitously.
fn plane_offset(plane: &[u64]) -> usize {
    ((64 - (plane.as_ptr() as usize & 63)) & 63) >> 3
}

/// [`plane_offset`] for the `u32` tag half-planes (`0..=15`).
fn plane_offset_u32(plane: &[u32]) -> usize {
    ((64 - (plane.as_ptr() as usize & 63)) & 63) >> 2
}

/// Initial nibble-packed recency list: way `i` at position `i`, so the
/// low nibble (way 0) is "most recent" and the high positions hold the
/// ways a narrower associativity never uses. Promotions keep real ways in
/// the bottom `W` positions, so the victim read works at any `W <= 16`.
const LRU_INIT: u64 = 0xFEDC_BA98_7654_3210;

/// Position (nibble index) of `way` in the packed recency list. The list
/// is always a permutation, so exactly one nibble matches; the SWAR
/// zero-nibble scan finds it without a loop-carried branch.
#[inline(always)]
fn lru_find_pos(list: u64, way: u64) -> u32 {
    const SPREAD: u64 = 0x1111_1111_1111_1111;
    let diff = list ^ SPREAD.wrapping_mul(way);
    // High bit of each zero nibble; borrows cannot flag a nibble below
    // the (unique) match, so the lowest flag is the match.
    let flags = diff.wrapping_sub(SPREAD) & !diff & (SPREAD << 3);
    flags.trailing_zeros() / 4
}

/// Moves `way` to the front (low nibble) of the packed recency list,
/// shifting the entries it overtook up one position.
#[inline(always)]
fn lru_promote(list: u64, way: u64) -> u64 {
    let pos = lru_find_pos(list, way);
    // `(!0 << 4·pos) << 4` rather than `!0 << 4·(pos+1)`: at pos 15 the
    // latter would shift by 64.
    let above = ((!0u64) << (4 * pos)) << 4;
    let below = !((!0u64) << (4 * pos));
    (list & above) | ((list & below) << 4) | way
}

/// The least-recently-used way among the `W` in use: position `W - 1`
/// of the packed list (real ways never leave the bottom `W` positions).
#[inline(always)]
fn lru_victim<const W: usize>(list: u64) -> usize {
    ((list >> (4 * (W - 1))) & 0xF) as usize
}

/// Bitmask of ways whose low tag half equals `tag` (bit `i` set iff
/// `tags[i]` matches), for a compile-time way count: the loop fully
/// unrolls and vectorizes with no dispatch or bounds checks. Callers
/// verify candidates against the high plane.
#[inline(always)]
fn match_mask_ways<const W: usize>(tags: &[u32; W], tag: u32) -> u64 {
    let mut matches = 0u64;
    let mut i = 0;
    while i < W {
        matches |= u64::from(tags[i] == tag) << i;
        i += 1;
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            associativity: 2,
            line_bytes: 64,
            hit_latency: Cycles::new(1),
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1d().sets(), 64);
        assert_eq!(CacheConfig::l2().sets(), 2048);
        assert_eq!(tiny().config().sets(), 4);
    }

    #[test]
    fn rejects_bad_geometry() {
        let cases = [
            // (size_bytes, associativity, line_bytes, expected message)
            (1000, 3, 64, "not divisible"),
            (
                6 * 64 * 16,
                6,
                64,
                "not one of the supported 1, 2, 4, 8 or 16 ways",
            ),
            (4 * 96 * 16, 4, 96, "line size 96 is not a power of two"),
            (4 * 64 * 12, 4, 64, "set count 12 is not a power of two"),
        ];
        for (size_bytes, associativity, line_bytes, expected) in cases {
            let config = CacheConfig {
                size_bytes,
                associativity,
                line_bytes,
                hit_latency: Cycles::new(1),
            };
            let err = std::panic::catch_unwind(|| Cache::new(config))
                .expect_err("unsupported geometry must panic at construction");
            let message = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains(expected), "{config:?}: {message}");
        }
    }

    #[test]
    fn only_upper_tag_bits_allocate_the_high_tag_plane() {
        let mut l2 = Cache::new(CacheConfig::l2());
        for i in 0..50_000u64 {
            // Byte addresses below 1 TiB: tags stay under 2^32.
            let addr = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 40);
            l2.access(addr, i % 3 == 0);
            l2.fill_prefetch(addr + 64);
        }
        assert!(!l2.has_tags_hi());
        assert!(!l2.clone().has_tags_hi());
        // Line 2^54 shares line 0's set and (zero) low tag half; only the
        // high half tells them apart.
        l2.access(0, false);
        assert!(!l2.access(1 << 60, true).is_hit());
        assert!(l2.has_tags_hi());
        let copy = l2.clone();
        for cache in [&l2, &copy] {
            assert!(cache.probe(0) && cache.probe(1 << 60));
            assert!(!cache.probe(1 << 59));
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x0, false).is_hit());
        assert!(c.access(0x0, false).is_hit());
        assert!(c.access(0x3F, false).is_hit(), "same line");
        assert!(!c.access(0x40, false).is_hit(), "next line");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines 0x000 and 0x100 (4 sets × 64 B stride = 256 B).
        c.access(0x000, false);
        c.access(0x100, false);
        // Touch 0x000 so 0x100 becomes LRU.
        c.access(0x000, false);
        // Allocate a third line in set 0: must evict 0x100.
        c.access(0x200, false);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x100, false);
        // Evict 0x000 (LRU): expect its line address in the writeback.
        match c.access(0x200, false) {
            CacheOutcome::Miss {
                writeback: Some(line),
            } => {
                assert_eq!(line, 0, "victim was line zero");
            }
            other => panic!("expected dirty writeback, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x100, false);
        match c.access(0x200, false) {
            CacheOutcome::Miss { writeback: None } => {}
            other => panic!("expected clean eviction, got {other:?}"),
        }
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x000, false); // clean fill
        c.access(0x000, true); // dirty it via a write hit
        c.access(0x100, false);
        let outcome = c.access(0x200, false);
        assert!(
            matches!(outcome, CacheOutcome::Miss { writeback: Some(_) }),
            "dirtied line must write back, got {outcome:?}"
        );
    }

    #[test]
    fn stats_accounting() {
        let mut c = tiny();
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x40, false);
        let stats = *c.stats();
        assert_eq!(stats.accesses, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses(), 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!(stats.to_string().contains("3 acc"));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0x0, true);
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.probe(0x0));
    }

    #[test]
    fn empty_cache_hit_rate_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny();
        // Stream 64 distinct lines (4 KiB) through a 512 B cache, twice.
        for round in 0..2 {
            for i in 0..64u64 {
                let outcome = c.access(i * 64, false);
                if round == 0 {
                    assert!(!outcome.is_hit());
                }
            }
        }
        // Second round still misses: the stream evicted itself.
        assert!(c.stats().hit_rate() < 0.1);
    }
}
