//! A duplexed castout completion and a rewrite that races it.
//!
//! The primary's completion and its mirror onto the secondary are two
//! commands, and a peer's rewrite of the block can land between them.
//! The `test-hooks` castout pause (this crate's dev-dependency on itself
//! turns the feature on) runs that rewrite in the window, so the race is
//! taken every time.

use std::sync::Arc;
use sysplex_core::cache::{BlockName, CacheParams, WriteKind};
use sysplex_core::duplex::DuplexPair;
use sysplex_core::{CfConfig, CouplingFacility};

/// The rewrite must stay changed on the secondary: after a failover it is
/// the only copy, so a secondary that marked it clean would let a reclaim
/// drop the update.
#[test]
fn a_rewrite_in_the_castout_window_survives_failover_and_reclaim() {
    let (cf1, cf2) =
        (CouplingFacility::new(CfConfig::named("CF01")), CouplingFacility::new(CfConfig::named("CF02")));
    let primary = cf1.allocate_cache_structure("GBP", CacheParams::store_in(4)).unwrap();
    let secondary = cf2.allocate_cache_structure("GBP_DX", CacheParams::store_in(4)).unwrap();
    let mut a = cf1.connect_cache("GBP", 8).unwrap();
    a.duplex_into(&DuplexPair::new(Arc::clone(&secondary), &cf2.subchannel())).unwrap();
    let b = cf1.connect_cache("GBP", 8).unwrap();
    assert!(a.is_duplexed() && b.is_duplexed());

    let page = BlockName::from_parts(1, 7);
    a.write_invalidate(page, b"first", WriteKind::ChangedData).unwrap();
    let (_, version) = a.castout_read(page).unwrap();
    primary.arm_castout_pause(move || {
        b.write_invalidate(page, b"rewrite", WriteKind::ChangedData).unwrap();
    });
    a.castout_complete(page, version).unwrap();
    assert_eq!(primary.changed_count(), 1, "the rewrite awaits castout on the primary");

    // Failover: the secondary is all there is now.
    let survivor = a.promote().expect("the pair held");
    assert_eq!(survivor.castout_candidates(8).unwrap(), [page], "and on the secondary");
    for n in 0..64 {
        survivor.register_read(BlockName::from_parts(2, n), 0).unwrap();
    }
    assert!(secondary.stats.reclaims.get() > 0, "the directory was reclaimed");
    let read = survivor.register_read(page, 1).unwrap();
    assert_eq!(read.data.as_deref().map(|d| d.as_slice()), Some(&b"rewrite"[..]));
}
