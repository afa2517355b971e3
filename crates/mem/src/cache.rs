//! A set-associative, LRU, write-back cache directory (tags + dirty bits
//! only; the simulator is timing-directed and stores no data).

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero terms, capacity not a
    /// multiple of `line * assoc`, or non-power-of-two line size).
    pub fn sets(&self) -> usize {
        assert!(self.size > 0 && self.line > 0 && self.assoc > 0);
        assert!(
            self.line.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = self.size / self.line;
        assert!(
            lines.is_multiple_of(self.assoc) && lines > 0,
            "capacity must be a whole number of sets"
        );
        lines / self.assoc
    }
}

/// Slot flag: the slot holds a line. An empty slot is all zeros.
const VALID: u64 = 1;
/// Slot flag: the line has been written since it was installed.
const DIRTY: u64 = 2;

/// What [`Cache::access`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent and has been installed; `evicted_dirty` says
    /// whether that displaced a dirty line (a clean victim, or a free
    /// slot, gives `false`).
    Miss {
        /// The displaced line was dirty.
        evicted_dirty: bool,
    },
}

/// A set-associative LRU cache over 64-bit addresses.
///
/// The directory is one flat slot array: set `s` owns slots
/// `s * assoc .. (s + 1) * assoc`, holding its valid lines most recently
/// used first and its empty slots last. A slot is `tag << 2 | dirty << 1 |
/// valid`, so a lookup compares one word per way and stops at the first
/// empty slot.
///
/// # Example
///
/// ```rust
/// use ssm_mem::{Access, Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size: 128, line: 32, assoc: 2 });
/// assert_eq!(c.access(0, false), Access::Miss { evicted_dirty: false }); // cold
/// assert_eq!(c.access(0, false), Access::Hit); // installed by the miss
/// ```
#[derive(Debug)]
pub struct Cache {
    assoc: usize,
    slots: Vec<u64>,
    set_mask: u64,
    line_shift: u32,
    /// `line_shift` plus the set-index bits: `addr >> tag_shift` is the tag.
    tag_shift: u32,
}

impl Cache {
    /// Creates a cold cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let nsets = cfg.sets();
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        let line_shift = cfg.line.trailing_zeros();
        Cache {
            slots: vec![0; nsets * cfg.assoc],
            set_mask: nsets as u64 - 1,
            line_shift,
            tag_shift: line_shift + nsets.trailing_zeros(),
            assoc: cfg.assoc,
        }
    }

    /// The slots of `addr`'s set and the valid, clean slot word of its line.
    fn locate(&mut self, addr: u64) -> (&mut [u64], u64) {
        let base = ((addr >> self.line_shift) & self.set_mask) as usize * self.assoc;
        let key = (addr >> self.tag_shift) << 2 | VALID;
        (&mut self.slots[base..base + self.assoc], key)
    }

    /// Looks up the line containing `addr` and leaves it most recently
    /// used, dirtied if `write`. A miss installs the line, evicting the
    /// least recently used one if the set is full.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        let (set, key) = self.locate(addr);
        let mut new = key | (write as u64) << 1;
        let mut i = 0;
        let outcome = loop {
            if i == set.len() {
                // Full set, no match: the LRU slot is the victim.
                i -= 1;
                break Access::Miss {
                    evicted_dirty: set[i] & DIRTY != 0,
                };
            }
            let slot = set[i];
            if slot & !DIRTY == key {
                new |= slot;
                break Access::Hit;
            }
            if slot == 0 {
                break Access::Miss {
                    evicted_dirty: false,
                };
            }
            i += 1;
        };
        // Slots 0..i each move one place toward LRU, over slot i.
        while i > 0 {
            set[i] = set[i - 1];
            i -= 1;
        }
        set[0] = new;
        outcome
    }

    /// Removes every line of `[addr, addr + len)` that is present (no
    /// writeback: the contents are assumed stale).
    ///
    /// The range is walked in runs of lines that share a tag. Such a run
    /// maps to consecutive sets, so its slots are one contiguous stretch of
    /// the directory, and one branch-free scan against the run's key says
    /// whether any of its lines is resident. Only a run where the scan
    /// found one pays for the order-preserving removal. Removals from one
    /// LRU-ordered set commute, and no key matches an empty slot, so the
    /// result is the one a line-by-line removal gives.
    pub fn invalidate_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let set_bits = self.tag_shift - self.line_shift;
        let last = (addr + len - 1) >> self.line_shift;
        let mut line = addr >> self.line_shift;
        while line <= last {
            // The run ends at its tag's last set or at the range's end.
            let end = (line | self.set_mask).min(last);
            let key = (line >> set_bits) << 2 | VALID;
            let lo = (line & self.set_mask) as usize * self.assoc;
            let hi = ((end & self.set_mask) as usize + 1) * self.assoc;
            let run = &mut self.slots[lo..hi];
            if run.iter().fold(false, |hit, &s| hit | (s & !DIRTY == key)) {
                for set in run.chunks_exact_mut(self.assoc) {
                    remove(set, key);
                }
            }
            line = end + 1;
        }
    }
}

/// Removes the slot matching `key` from `set`, if any: later slots each
/// move one place toward MRU, and the last empties.
fn remove(set: &mut [u64], key: u64) {
    if let Some(mut i) = set.iter().position(|&s| s & !DIRTY == key) {
        while i + 1 < set.len() {
            set[i] = set[i + 1];
            i += 1;
        }
        set[i] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32 B lines = 256 B.
        Cache::new(CacheConfig {
            size: 256,
            line: 32,
            assoc: 2,
        })
    }

    /// Whether `addr`'s line is cached, and if so whether it is dirty,
    /// without touching the LRU order.
    fn resident(c: &Cache, addr: u64) -> Option<bool> {
        let base = ((addr >> c.line_shift) & c.set_mask) as usize * c.assoc;
        let key = (addr >> c.tag_shift) << 2 | VALID;
        c.slots[base..base + c.assoc]
            .iter()
            .find(|&&s| s & !DIRTY == key)
            .map(|&s| s & DIRTY != 0)
    }

    const MISS: Access = Access::Miss {
        evicted_dirty: false,
    };
    const MISS_DIRTY: Access = Access::Miss {
        evicted_dirty: true,
    };

    #[test]
    fn sets_computation() {
        let cfg = CacheConfig {
            size: 8 << 10,
            line: 32,
            assoc: 2,
        };
        assert_eq!(cfg.sets(), 128);
    }

    #[test]
    fn hit_after_miss() {
        let mut c = small();
        assert_eq!(c.access(64, false), MISS);
        assert_eq!(c.access(64, false), Access::Hit);
        assert_eq!(c.access(95, false), Access::Hit); // same line
        assert_eq!(resident(&c, 96), None); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
        c.access(0, false);
        c.access(4 * 32, false);
        // Touch line 0 so line 4 becomes LRU.
        assert_eq!(c.access(0, false), Access::Hit);
        assert_eq!(c.access(8 * 32, false), MISS);
        assert_eq!(resident(&c, 0), Some(false)); // survived
        assert_eq!(resident(&c, 4 * 32), None); // evicted
        assert_eq!(resident(&c, 8 * 32), Some(false));
    }

    #[test]
    fn dirty_bit_reported_on_eviction() {
        let mut c = small();
        c.access(0, true);
        c.access(4 * 32, false);
        // Evicts line 0 (LRU, dirty).
        assert_eq!(c.access(8 * 32, false), MISS_DIRTY);
    }

    #[test]
    fn write_hit_dirties() {
        let mut c = small();
        c.access(0, false);
        assert_eq!(c.access(0, true), Access::Hit); // line 0 now dirty
        c.access(4 * 32, false); // set: [4 (MRU), 0]
        assert_eq!(c.access(8 * 32, false), MISS_DIRTY); // evicts line 0
        assert_eq!(c.access(12 * 32, false), MISS); // evicts line 4 (clean)
    }

    #[test]
    fn read_hit_keeps_dirty_bit() {
        let mut c = small();
        c.access(0, true);
        assert_eq!(c.access(0, false), Access::Hit);
        assert_eq!(resident(&c, 0), Some(true));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.access(0, true);
        c.access(32, false);
        c.invalidate_range(0, 1);
        assert_eq!(resident(&c, 0), None);
        assert_eq!(resident(&c, 32), Some(false)); // next line untouched
        c.invalidate_range(0, 32); // absent: no effect
        assert_eq!(resident(&c, 32), Some(false));
    }

    #[test]
    fn invalidated_slot_is_reused_before_any_eviction() {
        let mut c = small();
        c.access(0, true);
        c.access(4 * 32, true);
        c.invalidate_range(0, 32);
        assert_eq!(resident(&c, 0), None);
        assert_eq!(c.access(8 * 32, false), MISS); // takes the freed slot
        assert_eq!(resident(&c, 4 * 32), Some(true));
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            size: 100,
            line: 32,
            assoc: 2,
        });
    }

    /// The directory this one replaced, kept as a reference model: a
    /// vector of `(tag, dirty)` per set, most recently used first, with a
    /// probe and a separate fill. An access is a probe, then a fill on a
    /// miss.
    struct Reference {
        sets: Vec<Vec<(u64, bool)>>,
        assoc: usize,
        line_shift: u32,
    }

    impl Reference {
        fn new(cfg: CacheConfig) -> Self {
            Reference {
                sets: vec![Vec::new(); cfg.sets()],
                assoc: cfg.assoc,
                line_shift: cfg.line.trailing_zeros(),
            }
        }

        fn locate(&self, addr: u64) -> (usize, u64) {
            let line = addr >> self.line_shift;
            let n = self.sets.len() as u64;
            ((line % n) as usize, line / n)
        }

        fn probe(&mut self, addr: u64, write: bool) -> bool {
            let (set, tag) = self.locate(addr);
            let ways = &mut self.sets[set];
            let Some(pos) = ways.iter().position(|w| w.0 == tag) else {
                return false;
            };
            let (tag, dirty) = ways.remove(pos);
            ways.insert(0, (tag, dirty | write));
            true
        }

        fn fill(&mut self, addr: u64, dirty: bool) -> Option<bool> {
            let (set, tag) = self.locate(addr);
            let ways = &mut self.sets[set];
            let evicted = if ways.len() >= self.assoc {
                ways.pop().map(|w| w.1)
            } else {
                None
            };
            ways.insert(0, (tag, dirty));
            evicted
        }

        fn access(&mut self, addr: u64, write: bool) -> Access {
            if self.probe(addr, write) {
                Access::Hit
            } else {
                Access::Miss {
                    evicted_dirty: self.fill(addr, write) == Some(true),
                }
            }
        }

        fn invalidate(&mut self, addr: u64) {
            let (set, tag) = self.locate(addr);
            let ways = &mut self.sets[set];
            if let Some(p) = ways.iter().position(|w| w.0 == tag) {
                ways.remove(p);
            }
        }
    }

    /// The flat directory's contents in the reference model's form.
    fn contents(c: &Cache) -> Vec<Vec<(u64, bool)>> {
        c.slots
            .chunks(c.assoc)
            .map(|set| {
                let n = set.iter().take_while(|&&s| s & VALID != 0).count();
                assert!(set[n..].iter().all(|&s| s == 0), "empty slots sit last");
                set[..n].iter().map(|&s| (s >> 2, s & DIRTY != 0)).collect()
            })
            .collect()
    }

    #[test]
    fn matches_the_reference_directory() {
        let mut state = 0x5EED_CAC4_E000_0001u64;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for assoc in [1, 2, 4, 8] {
            for nsets in [1, 4, 16] {
                let cfg = CacheConfig {
                    size: 32 * assoc * nsets,
                    line: 32,
                    assoc,
                };
                let mut flat = Cache::new(cfg);
                let mut reference = Reference::new(cfg);
                // Three times as many lines as the cache holds: hits,
                // clean and dirty evictions, and invalidations of both
                // present and absent lines all occur.
                let lines = 3 * (assoc * nsets) as u64;
                for step in 0..20_000 {
                    let r = next();
                    let addr = (r >> 16) % (lines * 32);
                    let what = format!("assoc {assoc}, {nsets} sets, step {step}");
                    if r % 8 == 0 {
                        // 1 to 3 x sets lines from an unaligned start, so
                        // ranges cross tag-run boundaries.
                        let n = 1 + (r >> 4) % (3 * nsets as u64);
                        flat.invalidate_range(addr, n * 32 - addr % 32);
                        for l in 0..n {
                            reference.invalidate(addr + l * 32);
                        }
                        assert_eq!(contents(&flat), reference.sets, "{what}");
                    } else {
                        let write = r % 8 < 3;
                        let got = flat.access(addr, write);
                        assert_eq!(got, reference.access(addr, write), "{what}");
                    }
                }
                assert_eq!(contents(&flat), reference.sets, "assoc {assoc}");
            }
        }
    }
}
