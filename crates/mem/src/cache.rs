//! Set-associative, true-LRU, write-back/write-allocate cache model.

use mapg_units::Cycles;

use core::fmt;

/// Victim-selection policy within a set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// True least-recently-used (the default; hardware approximates it).
    #[default]
    Lru,
    /// First-in first-out: evict the oldest *fill*, ignoring reuse.
    Fifo,
    /// Pseudo-random (deterministic xorshift seeded per cache instance).
    Random,
}

/// Static configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Line size in bytes (must match the rest of the hierarchy).
    pub line_bytes: u64,
    /// Latency of a hit in this level.
    pub hit_latency: Cycles,
    /// Victim selection within a set.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// A 32 KiB, 8-way, 4-cycle L1 data cache.
    pub fn l1d() -> Self {
        CacheConfig {
            size_bytes: 32 << 10,
            associativity: 8,
            line_bytes: 64,
            hit_latency: Cycles::new(4),
            replacement: ReplacementPolicy::Lru,
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
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Returns a copy using a different replacement policy.
    pub fn with_replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `associativity`-way sets of `line_bytes` lines, or any field zero).
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
        self.size_bytes / way_bytes
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
    /// *planes* — tags, stamps, packed flag words — sized for what each
    /// access class actually touches. The hit scan reads one set's tags
    /// plus its flag words; only a miss additionally reads the stamps for
    /// victim selection. The previous one-block-per-set layout interleaved
    /// all three, so every probe dragged the stamps through the host cache
    /// whether the access missed or not, and the 280 B per-set stride
    /// (16 ways) meant no two sets shared a line. The seed's
    /// `Vec<Vec<Way>>` additionally paid a pointer chase and 32 B of way
    /// record per tag compared.
    ///
    /// Tags are further split into 32-bit low/high half-planes so the scan
    /// itself touches half the bytes: a 16-way set's low halves are one
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
    /// Empty until the first non-zero high half is stored, and read as
    /// all zeros while empty ([`Cache::tag_hi`]): realistic address maps
    /// never get there, so most caches never pay for the plane (128 KiB
    /// of zeros for the 2 MiB L2).
    tags_hi: Vec<u32>,
    /// Per-way LRU/FIFO stamps for the *generic* path only, `assoc`
    /// consecutive words per set; empty for the specialized
    /// associativities, whose recency lives in the packed list inside
    /// `masks`. Read only on a miss (victim selection); written on fills
    /// and LRU hits.
    stamps: Vec<u64>,
    /// Packed per-set metadata words, `mask_stride` per set.
    ///
    /// Specialized associativities (`W <= 16`): four words per set,
    /// `[valid, dirty, prefetched, recency]`, where `recency` is the
    /// nibble-packed way permutation of [`LRU_INIT`] ordered most- to
    /// least-recently stamped. Every stamp in the seed model is unique
    /// (`use_clock` ticks per access), so ordering by stamp *is* a
    /// permutation, and maintaining it move-to-front keeps victim choice
    /// bit-identical to `min_by_key(last_use / filled_at)` — while a miss
    /// reads one resident word instead of dragging `assoc × 8 B` of
    /// stamps through the host cache.
    ///
    /// Generic geometries: `3 × mask_words` per set in
    /// `[valid.. | dirty.. | prefetched..]` order, recency in `stamps`.
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
    /// See [`Cache::lo_off`]; offset for the `stamps` plane.
    stamps_off: usize,
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
    /// Words per set in `masks` (4 specialized, `3 × mask_words` generic).
    mask_stride: usize,
    /// Whether `assoc` dispatches to the const-generic fast path (and the
    /// packed-recency layout above).
    specialized: bool,
    /// `u64` bitmask words per way-mask (`assoc.div_ceil(64)`, so 1 for
    /// any real associativity).
    mask_words: usize,
    /// Number of sets (cached from the geometry).
    set_count: u64,
    /// Ways per set (cached from `config.associativity`).
    assoc: usize,
    /// `line_bytes.trailing_zeros()` when the line size is a power of two
    /// (the overwhelmingly common case): `addr >> line_shift` replaces a
    /// 64-bit division on every access.
    line_shift: u32,
    line_pow2: bool,
    /// `set_count - 1` / `set_count.trailing_zeros()` when the set count
    /// is a power of two: mask-and-shift replaces the `%` / `/` pair.
    set_mask: u64,
    set_shift: u32,
    set_pow2: bool,
    stats: CacheStats,
    use_clock: u64,
    /// Xorshift state for [`ReplacementPolicy::Random`].
    rng_state: u64,
    /// One-entry MRU filter: the line the last demand access touched
    /// (`u64::MAX` when nothing is cached). Sequential runs stride one
    /// word, so up to seven consecutive references land on the same line;
    /// matching here skips the set probe entirely while making the exact
    /// same state updates (stamp refresh, dirty bit, counters) the full
    /// path would. The filter never outlives its line: a demand fill
    /// retargets it and a prefetch fill invalidates it, so it cannot go
    /// stale through an eviction.
    mru_line: u64,
    /// Stamp-plane index of the MRU way (`set * assoc + way`).
    mru_stamp_idx: usize,
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
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let set_count = config.sets();
        let assoc = config.associativity as usize;
        let mask_words = assoc.div_ceil(64);
        let specialized = matches!(assoc, 1 | 2 | 4 | 8 | 16);
        let mask_stride = if specialized { 4 } else { 3 * mask_words };
        let n_ways = set_count as usize * assoc;
        let tags_lo = vec![0u32; n_ways + PLANE_SLACK_U32];
        let lo_off = plane_offset_u32(&tags_lo);
        let stamps = if specialized {
            Vec::new()
        } else {
            vec![0; n_ways + PLANE_SLACK]
        };
        let stamps_off = if stamps.is_empty() {
            0
        } else {
            plane_offset(&stamps)
        };
        let mut masks = vec![0; set_count as usize * mask_stride + PLANE_SLACK];
        let masks_off = plane_offset(&masks);
        if specialized {
            for set in 0..set_count as usize {
                masks[masks_off + set * 4 + 3] = LRU_INIT;
            }
        }
        Cache {
            config,
            tags_lo,
            tags_hi: Vec::new(),
            stamps,
            masks,
            lo_off,
            hi_off: 0,
            stamps_off,
            masks_off,
            hi_nonzero: 0,
            mask_stride,
            specialized,
            mask_words,
            set_count,
            assoc,
            line_shift: config.line_bytes.trailing_zeros(),
            line_pow2: config.line_bytes.is_power_of_two(),
            set_mask: set_count - 1,
            set_shift: set_count.trailing_zeros(),
            set_pow2: set_count.is_power_of_two(),
            stats: CacheStats::default(),
            use_clock: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            mru_line: u64::MAX,
            mru_stamp_idx: 0,
            mru_dirty_idx: 0,
            mru_bit: 0,
        }
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
        if self.line_pow2 {
            addr >> self.line_shift
        } else {
            addr / self.config.line_bytes
        }
    }

    /// Splits a line address into `(set_index, tag)`. For power-of-two set
    /// counts the mask/shift pair is bit-identical to the `%` / `/` pair.
    #[inline]
    fn split(&self, line: u64) -> (usize, u64) {
        if self.set_pow2 {
            ((line & self.set_mask) as usize, line >> self.set_shift)
        } else {
            ((line % self.set_count) as usize, line / self.set_count)
        }
    }

    /// Accesses byte address `addr`; on a miss the line is allocated
    /// (write-allocate for stores, fill for loads) and the LRU victim
    /// evicted.
    ///
    /// The common associativities dispatch to a const-generic body whose
    /// tag/stamp arrays have compile-time length: the hit scan and victim
    /// select fully unroll with no bounds checks, and only the planes an
    /// access actually needs are touched (a hit never reads the stamps).
    #[inline(always)]
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.stats.accesses += 1;
        self.use_clock += 1;
        let line = self.line_of(addr);
        if line == self.mru_line {
            // Same line as the previous demand access: a guaranteed hit on
            // a known way. Replays the full hit path's updates against the
            // precomputed indices; the prefetched bit was already cleared
            // by the access that set the filter, so this touch reports
            // `prefetched: false` exactly as the probe would. On the
            // specialized path there is nothing else to do — the way was
            // moved to the recency front by the access that set the
            // filter, and re-promoting the front is the identity.
            self.stats.hits += 1;
            if !self.specialized && !matches!(self.config.replacement, ReplacementPolicy::Fifo) {
                self.stamps[self.mru_stamp_idx] = self.use_clock;
            }
            if is_write {
                self.masks[self.mru_dirty_idx] |= self.mru_bit;
            }
            return CacheOutcome::Hit { prefetched: false };
        }
        let (set_index, tag) = self.split(line);
        match self.assoc {
            8 => self.access_ways::<8>(line, set_index, tag, is_write),
            16 => self.access_ways::<16>(line, set_index, tag, is_write),
            4 => self.access_ways::<4>(line, set_index, tag, is_write),
            2 => self.access_ways::<2>(line, set_index, tag, is_write),
            1 => self.access_ways::<1>(line, set_index, tag, is_write),
            _ => self.access_any(line, set_index, tag, is_write),
        }
    }

    /// [`Cache::access`] body for an associativity known at compile time
    /// (`W <= 64`, one mask word). Behaviour-identical to
    /// [`Cache::access_any`]; only the code shape differs.
    #[inline(always)]
    fn access_ways<const W: usize>(
        &mut self,
        line: u64,
        set_index: usize,
        tag: u64,
        is_write: bool,
    ) -> CacheOutcome {
        let base = self.lo_off + set_index * W;
        let tags_lo: &mut [u32; W] = (&mut self.tags_lo[base..base + W])
            .try_into()
            .expect("tag plane holds W words per set");
        let mbase = self.masks_off + set_index * 4;
        let valid = self.masks[mbase];
        let lo_tag = tag as u32;
        let hi_tag = (tag >> 32) as u32;
        let way0 = set_index * W;

        // Hit scan: a branchless fixed-trip match mask over the low tag
        // halves. An early-exit compare loop mispredicts on every probe
        // (the hit way position is effectively random); accumulating
        // equality bits lets the compiler vectorize the compares and
        // leaves one candidate/no-candidate branch. At most one valid way
        // holds a given full tag, so a candidate resolves to at most one
        // hit; `hi_nonzero == 0` (the steady state for realistic address
        // maps) resolves it without touching the high plane at all.
        let candidates = match_mask_ways::<W>(tags_lo, lo_tag) & valid;
        let hit_way = if candidates == 0 {
            None
        } else if self.hi_nonzero == 0 {
            // Every resident high half is zero: a low match is a full
            // match iff the probed tag's high half is zero too (and then
            // it is unique — duplicate full tags cannot coexist).
            (hi_tag == 0).then(|| candidates.trailing_zeros() as usize)
        } else {
            // Rare: some resident tag has upper bits (so the high plane
            // is allocated), and each candidate must be verified
            // against it.
            let mut rest = candidates;
            let mut found = None;
            while rest != 0 {
                let way = rest.trailing_zeros() as usize;
                if self.tags_hi[self.hi_off + way0 + way] == hi_tag {
                    found = Some(way);
                    break;
                }
                rest &= rest - 1;
            }
            found
        };
        if let Some(way) = hit_way {
            // A hit refreshes recency under LRU; FIFO keys on fill time
            // and Random never reads it, so both skip the promote.
            if matches!(self.config.replacement, ReplacementPolicy::Lru) {
                self.masks[mbase + 3] = lru_promote(self.masks[mbase + 3], way as u64);
            }
            let bit = 1u64 << way;
            if is_write {
                self.masks[mbase + 1] |= bit;
            }
            let prefetched = self.masks[mbase + 2] & bit != 0;
            if prefetched {
                self.masks[mbase + 2] &= !bit;
            }
            self.stats.hits += 1;
            self.mru_line = line;
            self.mru_dirty_idx = mbase + 1;
            self.mru_bit = bit;
            return CacheOutcome::Hit { prefetched };
        }

        // Miss: pick the lowest invalid way if any, else the policy's
        // victim — the recency back for LRU/FIFO, the next xorshift draw
        // for Random. Bits past the associativity are forced "valid" so
        // they are never picked, matching the seed's first-invalid order.
        let live = if W == 64 {
            valid
        } else {
            valid | !((1u64 << W) - 1)
        };
        let victim = if live != u64::MAX {
            (!live).trailing_zeros() as usize
        } else {
            match self.config.replacement {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    lru_victim::<W>(self.masks[mbase + 3])
                }
                ReplacementPolicy::Random => xorshift(&mut self.rng_state) as usize % W,
            }
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
        let writeback = if valid & bit != 0 && self.masks[mbase + 1] & bit != 0 {
            // Reconstruct the victim's line address from its tag.
            let victim_tag = (u64::from(old_hi) << 32) | u64::from(tags_lo[victim]);
            self.stats.writebacks += 1;
            Some(victim_tag * self.set_count + set_index as u64)
        } else {
            None
        };
        tags_lo[victim] = lo_tag;
        self.set_tag_hi(way0 + victim, old_hi, hi_tag);
        // A fill stamps both last-use and fill time in the seed, so LRU
        // and FIFO promote; Random's recency is never consulted.
        if !matches!(self.config.replacement, ReplacementPolicy::Random) {
            self.masks[mbase + 3] = lru_promote(self.masks[mbase + 3], victim as u64);
        }
        self.masks[mbase] = valid | bit;
        if is_write {
            self.masks[mbase + 1] |= bit;
        } else {
            self.masks[mbase + 1] &= !bit;
        }
        self.masks[mbase + 2] &= !bit;
        self.mru_line = line;
        self.mru_dirty_idx = mbase + 1;
        self.mru_bit = bit;
        CacheOutcome::Miss { writeback }
    }

    /// [`Cache::access`] body for arbitrary geometries (including more
    /// than 64 ways); the correctness reference for the const-generic
    /// fast paths.
    fn access_any(
        &mut self,
        line: u64,
        set_index: usize,
        tag: u64,
        is_write: bool,
    ) -> CacheOutcome {
        let stamp = self.use_clock;
        let assoc = self.assoc;
        let mw = self.mask_words;
        let base = self.lo_off + set_index * assoc;
        let way0 = set_index * assoc;
        let sbase = self.stamps_off + set_index * assoc;
        let mbase = self.masks_off + set_index * self.mask_stride;
        let lo_tag = tag as u32;
        let hi_tag = (tag >> 32) as u32;
        for word in 0..mw {
            let lo = word * 64;
            let ways_here = (assoc - lo).min(64);
            // Low-half candidates, each verified against the high plane
            // (no `hi_nonzero` fast path here — this is the cold
            // correctness reference, kept as plain as possible).
            let mut candidates =
                match_mask(&self.tags_lo[base + lo..base + lo + ways_here], lo_tag)
                    & self.masks[mbase + word];
            while candidates != 0 {
                let way = lo + candidates.trailing_zeros() as usize;
                if self.tag_hi(way0 + way) != hi_tag {
                    candidates &= candidates - 1;
                    continue;
                }
                if !matches!(self.config.replacement, ReplacementPolicy::Fifo) {
                    self.stamps[sbase + way] = stamp;
                }
                let bit = 1u64 << (way % 64);
                if is_write {
                    self.masks[mbase + mw + word] |= bit;
                }
                let prefetched = self.masks[mbase + 2 * mw + word] & bit != 0;
                if prefetched {
                    self.masks[mbase + 2 * mw + word] &= !bit;
                }
                self.stats.hits += 1;
                self.mru_line = line;
                self.mru_stamp_idx = sbase + way;
                self.mru_dirty_idx = mbase + mw + word;
                self.mru_bit = bit;
                return CacheOutcome::Hit { prefetched };
            }
        }

        let victim = pick_victim(
            self.config.replacement,
            assoc,
            &self.stamps[sbase..sbase + assoc],
            &self.masks[mbase..mbase + mw],
            &mut self.rng_state,
        );
        let word = victim / 64;
        let bit = 1u64 << (victim % 64);
        let old_hi = self.tag_hi(way0 + victim);
        let writeback =
            if self.masks[mbase + word] & bit != 0 && self.masks[mbase + mw + word] & bit != 0 {
                let victim_tag = (u64::from(old_hi) << 32) | u64::from(self.tags_lo[base + victim]);
                self.stats.writebacks += 1;
                Some(victim_tag * self.set_count + set_index as u64)
            } else {
                None
            };
        self.tags_lo[base + victim] = lo_tag;
        self.set_tag_hi(way0 + victim, old_hi, hi_tag);
        self.stamps[sbase + victim] = stamp;
        self.masks[mbase + word] |= bit;
        if is_write {
            self.masks[mbase + mw + word] |= bit;
        } else {
            self.masks[mbase + mw + word] &= !bit;
        }
        self.masks[mbase + 2 * mw + word] &= !bit;
        self.mru_line = line;
        self.mru_stamp_idx = sbase + victim;
        self.mru_dirty_idx = mbase + mw + word;
        self.mru_bit = bit;
        CacheOutcome::Miss { writeback }
    }

    /// Installs `addr`'s line as a *prefetch* fill: does not count toward
    /// demand hit/miss statistics, marks the line so the first demand
    /// touch can be attributed to the prefetcher, and returns a dirty
    /// victim's line address when the fill evicts one.
    ///
    /// Filling an already-resident line is a no-op (returns `None`).
    pub fn fill_prefetch(&mut self, addr: u64) -> Option<u64> {
        self.use_clock += 1;
        let (set_index, tag) = self.split(self.line_of(addr));
        let stamp = self.use_clock;
        if self.resident(set_index, tag) {
            return None;
        }
        let assoc = self.assoc;
        let mw = self.mask_words;
        let base = self.lo_off + set_index * assoc;
        let way0 = set_index * assoc;
        let sbase = self.stamps_off + set_index * assoc;
        let mbase = self.masks_off + set_index * self.mask_stride;
        let victim = if self.specialized {
            self.pick_victim_packed(set_index)
        } else {
            pick_victim(
                self.config.replacement,
                assoc,
                &self.stamps[sbase..sbase + assoc],
                &self.masks[mbase..mbase + mw],
                &mut self.rng_state,
            )
        };
        let word = victim / 64;
        let bit = 1u64 << (victim % 64);
        let lo_tag = tag as u32;
        let hi_tag = (tag >> 32) as u32;
        let old_hi = self.tag_hi(way0 + victim);
        let writeback =
            if self.masks[mbase + word] & bit != 0 && self.masks[mbase + mw + word] & bit != 0 {
                let victim_tag = (u64::from(old_hi) << 32) | u64::from(self.tags_lo[base + victim]);
                self.stats.writebacks += 1;
                Some(victim_tag * self.set_count + set_index as u64)
            } else {
                None
            };
        self.tags_lo[base + victim] = lo_tag;
        self.set_tag_hi(way0 + victim, old_hi, hi_tag);
        if self.specialized {
            // A prefetch fill stamps recency exactly like a demand fill.
            if !matches!(self.config.replacement, ReplacementPolicy::Random) {
                self.masks[mbase + 3] = lru_promote(self.masks[mbase + 3], victim as u64);
            }
        } else {
            self.stamps[sbase + victim] = stamp;
        }
        self.masks[mbase + word] |= bit;
        self.masks[mbase + mw + word] &= !bit;
        self.masks[mbase + 2 * mw + word] |= bit;
        // The fill may have evicted the filter's line, and the freshly
        // prefetched line must report `prefetched: true` on its first
        // demand touch — either way the filter must not answer for it.
        self.mru_line = u64::MAX;
        writeback
    }

    /// Whether `tag` is resident in `set_index`'s set.
    #[inline]
    fn resident(&self, set_index: usize, tag: u64) -> bool {
        let base = self.lo_off + set_index * self.assoc;
        let way0 = set_index * self.assoc;
        let tags_lo = &self.tags_lo[base..base + self.assoc];
        let mbase = self.masks_off + set_index * self.mask_stride;
        let valid = &self.masks[mbase..mbase + self.mask_words];
        for (word, &valid_word) in valid.iter().enumerate() {
            let lo = word * 64;
            let ways_here = (self.assoc - lo).min(64);
            let mut candidates = match_mask(&tags_lo[lo..lo + ways_here], tag as u32) & valid_word;
            while candidates != 0 {
                let way = lo + candidates.trailing_zeros() as usize;
                if self.tag_hi(way0 + way) == (tag >> 32) as u32 {
                    return true;
                }
                candidates &= candidates - 1;
            }
        }
        false
    }

    /// Hints the host CPU to start pulling `addr`'s set metadata (tags,
    /// flag words, stamps) toward its caches ahead of an imminent
    /// [`Cache::access`]. Purely a scheduling hint — no simulated state
    /// changes and no effect on any outcome.
    ///
    /// The planes of a large cache level (a 2 MiB L2 keeps 256 KiB of
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
        let base = self.lo_off + set_index * self.assoc;
        let mbase = self.masks_off + set_index * self.mask_stride;
        // One low-tag word and one flag word cover the whole scan for
        // assoc <= 16: the low halves of 16 ways are a single 64 B line.
        let mut touch = u64::from(self.tags_lo[base]) ^ self.masks[mbase];
        if self.assoc > 16 {
            touch ^= u64::from(self.tags_lo[base + 16]);
        }
        core::hint::black_box(touch);
    }

    /// Whether `addr`'s line is currently resident (no LRU update, no
    /// stats). Used by tests and by the hierarchy's inclusive-fill checks.
    pub fn probe(&self, addr: u64) -> bool {
        let (set_index, tag) = self.split(self.line_of(addr));
        self.resident(set_index, tag)
    }

    /// The high tag half of way `i` (`set * assoc + way`); zero while the
    /// plane is unallocated.
    #[inline]
    fn tag_hi(&self, i: usize) -> u32 {
        if self.tags_hi.is_empty() {
            0
        } else {
            self.tags_hi[self.hi_off + i]
        }
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

    /// Picks the eviction way for one set on the specialized (packed
    /// recency) layout: lowest invalid way first, then the recency back
    /// for LRU/FIFO or the next xorshift draw for Random — the same
    /// choices [`pick_victim`] makes from per-way stamps.
    fn pick_victim_packed(&mut self, set_index: usize) -> usize {
        let mbase = self.masks_off + set_index * 4;
        let valid = self.masks[mbase];
        let live = valid | !((1u64 << self.assoc) - 1);
        if live != u64::MAX {
            return (!live).trailing_zeros() as usize;
        }
        match self.config.replacement {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                ((self.masks[mbase + 3] >> (4 * (self.assoc - 1))) & 0xF) as usize
            }
            ReplacementPolicy::Random => xorshift(&mut self.rng_state) as usize % self.assoc,
        }
    }

    /// Invalidates all lines and forgets statistics; used between
    /// measurement phases.
    pub fn reset(&mut self) {
        self.tags_lo.fill(0);
        self.tags_hi = Vec::new();
        self.hi_off = 0;
        self.hi_nonzero = 0;
        self.stamps.fill(0);
        self.masks.fill(0);
        if self.specialized {
            for set in 0..self.set_count as usize {
                self.masks[self.masks_off + set * 4 + 3] = LRU_INIT;
            }
        }
        self.stats = CacheStats::default();
        self.use_clock = 0;
        self.rng_state = 0x9E37_79B9_7F4A_7C15;
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
        let mut stamps = Vec::new();
        let mut stamps_off = 0;
        if !self.stamps.is_empty() {
            stamps = vec![0; n_ways + PLANE_SLACK];
            stamps_off = plane_offset(&stamps);
            stamps[stamps_off..stamps_off + n_ways]
                .copy_from_slice(&self.stamps[self.stamps_off..self.stamps_off + n_ways]);
        }
        let n_masks = self.set_count as usize * self.mask_stride;
        let mut masks = vec![0; n_masks + PLANE_SLACK];
        let masks_off = plane_offset(&masks);
        masks[masks_off..masks_off + n_masks]
            .copy_from_slice(&self.masks[self.masks_off..self.masks_off + n_masks]);
        Cache {
            config: self.config,
            tags_lo,
            tags_hi,
            stamps,
            masks,
            lo_off,
            hi_off,
            stamps_off,
            masks_off,
            hi_nonzero: self.hi_nonzero,
            mask_stride: self.mask_stride,
            specialized: self.specialized,
            mask_words: self.mask_words,
            set_count: self.set_count,
            assoc: self.assoc,
            line_shift: self.line_shift,
            line_pow2: self.line_pow2,
            set_mask: self.set_mask,
            set_shift: self.set_shift,
            set_pow2: self.set_pow2,
            stats: self.stats,
            use_clock: self.use_clock,
            rng_state: self.rng_state,
            mru_line: u64::MAX,
            mru_stamp_idx: 0,
            mru_dirty_idx: 0,
            mru_bit: 0,
        }
    }
}

/// Slack words appended to each `u64` plane so indexing can start at the
/// first 64-byte boundary inside the allocation (see [`plane_offset`]).
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

/// One xorshift64 step (the deterministic per-instance RNG behind
/// [`ReplacementPolicy::Random`]).
#[inline(always)]
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

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

/// The least-recently-stamped way among the `W` in use: position `W - 1`
/// of the packed list (real ways never leave the bottom `W` positions).
#[inline(always)]
fn lru_victim<const W: usize>(list: u64) -> usize {
    ((list >> (4 * (W - 1))) & 0xF) as usize
}

/// Bitmask of ways whose low tag half equals `tag`, for a compile-time
/// way count: the loop fully unrolls and vectorizes with no dispatch or
/// bounds checks. Same contract as [`match_mask`].
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

/// Picks the way to evict from one set: the first invalid way if any, else
/// per policy. First-minimum tie-breaks match `min_by_key`, and the RNG is
/// only consumed when every way is valid, so victim choice is identical to
/// the seed implementation's.
#[inline]
fn pick_victim(
    policy: ReplacementPolicy,
    assoc: usize,
    stamps: &[u64],
    valid: &[u64],
    rng_state: &mut u64,
) -> usize {
    for (word, &v) in valid.iter().enumerate() {
        let ways_here = (assoc - word * 64).min(64);
        // Force bits past the associativity to "valid" so they are never
        // picked; `trailing_zeros` then yields the lowest invalid way,
        // matching the seed's first-invalid scan order.
        let live = if ways_here == 64 {
            v
        } else {
            v | !((1u64 << ways_here) - 1)
        };
        if live != u64::MAX {
            return word * 64 + (!live).trailing_zeros() as usize;
        }
    }
    match policy {
        // LRU keys on last use, FIFO on fill time — both live in the
        // merged stamp array (hits only refresh it under LRU).
        ReplacementPolicy::Lru | ReplacementPolicy::Fifo => first_min(stamps),
        ReplacementPolicy::Random => (xorshift(rng_state) % assoc as u64) as usize,
    }
}

/// Bitmask of ways whose low tag half equals `tag` (bit `i` set iff
/// `tags[i]` matches); callers verify candidates against the high plane.
/// Dispatching on the common associativities gives LLVM a fixed-trip
/// loop it fully unrolls and vectorizes; the generic fallback keeps the
/// model correct for arbitrary geometries.
#[inline]
fn match_mask(tags: &[u32], tag: u32) -> u64 {
    #[inline]
    fn fixed<const W: usize>(tags: &[u32], tag: u32) -> u64 {
        let tags: &[u32; W] = tags.try_into().expect("dispatched on length");
        let mut matches = 0u64;
        let mut i = 0;
        while i < W {
            matches |= u64::from(tags[i] == tag) << i;
            i += 1;
        }
        matches
    }
    match tags.len() {
        1 => fixed::<1>(tags, tag),
        2 => fixed::<2>(tags, tag),
        4 => fixed::<4>(tags, tag),
        8 => fixed::<8>(tags, tag),
        16 => fixed::<16>(tags, tag),
        _ => {
            let mut matches = 0u64;
            for (i, &t) in tags.iter().enumerate() {
                matches |= u64::from(t == tag) << i;
            }
            matches
        }
    }
}

/// Index of the first minimum of `keys` — the same element `min_by_key`
/// returns. Computed as a (vectorizable) min reduction followed by an
/// equality mask, so random stamp orders cost no branch mispredicts.
#[inline]
fn first_min(keys: &[u64]) -> usize {
    #[inline]
    fn fixed<const W: usize>(keys: &[u64]) -> usize {
        let keys: &[u64; W] = keys.try_into().expect("dispatched on length");
        let mut min = u64::MAX;
        for &key in keys {
            min = min.min(key);
        }
        let mut mask = 0u64;
        let mut i = 0;
        while i < W {
            mask |= u64::from(keys[i] == min) << i;
            i += 1;
        }
        mask.trailing_zeros() as usize
    }
    match keys.len() {
        2 => fixed::<2>(keys),
        4 => fixed::<4>(keys),
        8 => fixed::<8>(keys),
        16 => fixed::<16>(keys),
        _ => {
            let mut best = 0usize;
            let mut best_key = keys[0];
            for (i, &key) in keys.iter().enumerate().skip(1) {
                let better = key < best_key;
                best = if better { i } else { best };
                best_key = if better { key } else { best_key };
            }
            best
        }
    }
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
            replacement: ReplacementPolicy::Lru,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1d().sets(), 64);
        assert_eq!(CacheConfig::l2().sets(), 2048);
        assert_eq!(tiny().config().sets(), 4);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_bad_geometry() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 1000,
            associativity: 3,
            line_bytes: 64,
            hit_latency: Cycles::new(1),
            replacement: ReplacementPolicy::Lru,
        });
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
    fn fifo_ignores_reuse_where_lru_respects_it() {
        let config = CacheConfig {
            size_bytes: 512,
            associativity: 2,
            line_bytes: 64,
            hit_latency: Cycles::new(1),
            replacement: ReplacementPolicy::Fifo,
        };
        let mut fifo = Cache::new(config);
        // Fill set 0 with lines A (0x000) then B (0x100); touch A again.
        fifo.access(0x000, false);
        fifo.access(0x100, false);
        fifo.access(0x000, false);
        // FIFO evicts A (oldest fill) despite the recent touch...
        fifo.access(0x200, false);
        assert!(!fifo.probe(0x000), "FIFO must evict the oldest fill");
        assert!(fifo.probe(0x100));
        // ...where LRU (see lru_evicts_least_recently_used) keeps A.
    }

    #[test]
    fn random_replacement_is_deterministic_per_instance() {
        let config = CacheConfig {
            size_bytes: 512,
            associativity: 2,
            line_bytes: 64,
            hit_latency: Cycles::new(1),
            replacement: ReplacementPolicy::Random,
        };
        let run = || {
            let mut cache = Cache::new(config);
            for i in 0..200u64 {
                cache.access((i * 97) % 4096 * 64, false);
            }
            cache.stats().hits
        };
        assert_eq!(run(), run(), "same seed, same victims, same hits");
    }

    #[test]
    fn replacement_policies_all_stay_correct_under_stress() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let config = CacheConfig {
                size_bytes: 1024,
                associativity: 4,
                line_bytes: 64,
                hit_latency: Cycles::new(1),
                replacement: policy,
            };
            let mut cache = Cache::new(config);
            for i in 0..5_000u64 {
                let addr = (i * 193) % 16_384;
                let outcome = cache.access(addr, i % 3 == 0);
                // A hit must always be confirmed by probe beforehand...
                let _ = outcome;
            }
            let stats = cache.stats();
            assert_eq!(stats.accesses, 5_000, "{policy:?}");
            assert!(stats.hits <= stats.accesses, "{policy:?}");
        }
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
