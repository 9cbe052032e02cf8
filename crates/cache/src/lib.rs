#![warn(missing_docs)]

//! SRAM cache models used around the DRAM cache.
//!
//! Three structures from the paper's system live here:
//!
//! - [`set_assoc::SetAssocCache`]: the one set-associative store, with LRU
//!   replacement and per-line metadata. Used for the 8 MB / 16-way on-chip
//!   L3 (whose per-line metadata carries the BEAR *DRAM Cache Presence*
//!   bit), for the Tags-In-SRAM (TIS) tag store of Section 8, and by
//!   `bear-core` for the 29-way Loh-Hill rows of Section 7.5.
//! - [`sector::SectorTagStore`]: the Sector Cache (SC) tag organization —
//!   4 KB sectors with per-block valid/dirty state — also from Section 8,
//!   built on a `SetAssocCache` with one line per sector.
//! - [`missmap::MissMap`]: the line-presence tracker used by the Loh-Hill
//!   cache and its Mostly-Clean extension (Section 7.5).
//!
//! # Example
//!
//! ```
//! use bear_cache::set_assoc::{CacheGeometry, SetAssocCache};
//!
//! // An 8 MB, 16-way L3 with 64 B lines (the paper's Table 1).
//! let geom = CacheGeometry::new(8 << 20, 16, 64);
//! let mut l3: SetAssocCache<bool> = SetAssocCache::new(geom);
//! assert!(l3.probe(0x1000).is_none());
//! l3.fill(0x1000, false, false);
//! assert!(l3.probe(0x1000).is_some());
//!
//! // A full set evicts its least-recently-used line (one 2-way set here).
//! let mut set: SetAssocCache<()> = SetAssocCache::new(CacheGeometry::new(128, 2, 64));
//! set.fill(0, false, ());
//! set.fill(64, false, ());
//! set.access(0, false); // line 0 becomes most recently used
//! assert_eq!(set.fill(128, false, ()).map(|v| v.addr), Some(64));
//! ```

pub mod missmap;
pub mod sector;
pub mod set_assoc;

pub use missmap::MissMap;
pub use sector::{SectorProbe, SectorTagStore};
pub use set_assoc::{CacheGeometry, SetAssocCache, Victim};
